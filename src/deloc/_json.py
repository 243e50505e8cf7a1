"""The one rule for every value deloc takes, from a JSON file or a Python call.
`load` parses a file; `read` checks one value against one rule, its kind: a
name in _RULES; a set of names, for a JSON object with no other keys; [kind],
for a list of kind entries; or None, for any value.  `_check` checks a bare
value and `_flaw` reports instead of raising.  A domain kind (positive, count,
...) extends number or integer, so NaN, infinities, bools and strings break it."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

_REQUIRED = object()  # the default of a key that must be present
_SEQUENCE = (list, tuple, range, np.ndarray)  # a JSON list, or what a library caller passes for one


def load(path, what: str = "JSON file"):
    """The document in the JSON file at path.  A file that cannot be opened or
    parsed, or that writes NaN or Infinity, is a ValueError naming `what`."""
    try:
        with open(path) as f:
            return json.load(f, parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        reason = e.strerror if isinstance(e, OSError) else e
        raise ValueError(f"cannot read {what} {str(path)!r}: {reason}") from None


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _is_number(v) -> bool:
    # a float (numpy's float64 too) or an int skips the slower ABC checks; a
    # bool is an int to Python, and a huge JSON int has no float to test
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, (int, numbers.Real)) and not isinstance(v, bool) and (
        isinstance(v, (int, numbers.Integral)) or math.isfinite(v)
    )


def _is_indices(v) -> bool:
    # a plain int skips the count rule's slower checks: a factor support is read this way
    return isinstance(v, _SEQUENCE) and all(
        i >= 0 if type(i) is int else _failed(i, "count") is None for i in v
    ) and len(set(v)) == len(v)


def _is_matrix(v) -> bool:
    return isinstance(v, _SEQUENCE) and len(v) > 0 and all(
        isinstance(r, _SEQUENCE) and len(r) == len(v) and all(map(_is_number, r)) for r in v
    )


# kind: (the rule it extends, test, cast, noun, plural noun).  A number is a
# finite JSON int or float, so true, false and strings are not numbers, and an
# integer is a whole number; a matrix is a square, non-empty list of number lists.
_RULES = {
    "number": (None, _is_number, float, "a number", "numbers"),
    "integer": (
        "number", lambda v: isinstance(v, (int, numbers.Integral)) or float(v).is_integer(), int,
        "an integer", "whole numbers",
    ),
    "positive": ("number", lambda v: v > 0, float, "a number > 0", "numbers > 0"),
    "non-negative": ("number", lambda v: v >= 0, float, "a number >= 0", "numbers >= 0"),
    "at-least-1": ("number", lambda v: v >= 1, float, "a number >= 1", "numbers >= 1"),
    "fraction": ("number", lambda v: 0 < v < 1, float, "a number in (0, 1)", "numbers in (0, 1)"),
    "count": ("integer", lambda v: v >= 0, int, "an integer >= 0", "integers >= 0"),
    "positive-integer": ("integer", lambda v: v >= 1, int, "an integer >= 1", "integers >= 1"),
    "replicates": (  # a bootstrap's: one replicate has no spread
        "integer", lambda v: v >= 2, int, "an integer >= 2 for a bootstrap SE", "integers >= 2"),
    "batch-count": (  # batch means': one batch has no spread
        "integer", lambda v: v >= 2, int, "an integer >= 2 for a batch-means SE", "integers >= 2"),
    "indices": (
        None, _is_indices, lambda v: [int(i) for i in v],
        "a list of integers, distinct and non-negative",
        "lists of integers, distinct and non-negative",
    ),
    "matrix": (
        None, _is_matrix, lambda v: np.array(v, dtype=float),
        "a square list of number lists", "square lists of number lists",
    ),
    "string": (None, lambda v: isinstance(v, str), None, "a string", "strings"),
    "list": (None, lambda v: isinstance(v, _SEQUENCE), None, "a list", "lists"),
    "object": (None, lambda v: isinstance(v, dict), None, "a JSON object", "JSON objects"),
}


MATRIX_TOL = 1e-12  # the symmetry tolerance of factor blocks, pairwise bounds and covariances
PRECISION_TOL = 1e-10  # and of precision matrices


def _symmetric(value, what: str, tol: float):
    """(M + M')/2 of a dense or scipy.sparse (kept as CSR) matrix M that is 2-D,
    square, non-empty, finite and symmetric to tol; else "<what> must be ..."."""
    from scipy import sparse  # on first use: imported with _json, it cost perfbench setup_s 5%
    is_sparse = sparse.issparse(value)
    M = sparse.csr_array(value, dtype=float) if is_sparse else np.asarray(value, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {M.shape}")
    if not np.isfinite(M.data if is_sparse else M).all():
        raise ValueError(f"{what} must be finite")
    if is_sparse:  # M + M' holds no stored zero, and sum_duplicates sorts its rows
        gap, out = abs(M - M.T).max(), M + M.T
        out.sum_duplicates()
        big = np.isinf(out.data).nonzero()[0]  # as in the dense path below
        out.data *= 0.5
        if big.size:  # (an empty index would give back a sparse array)
            out.data[big] = M[np.searchsorted(out.indptr, big, "right") - 1, out.indices[big]]
    else:  # 64 rows of M against 64 columns, so M' is read in cache-sized strips
        gap, out = 0.0, np.empty_like(M)
        for i in range(0, len(M), 64):
            rows, cols, strip = M[i:i + 64], M[:, i:i + 64].T, out[i:i + 64]
            strip_gap = np.abs(np.subtract(rows, cols, out=strip), out=strip).max()
            if strip_gap:  # M + M' overflows only where M' = M: M is the mean there
                with np.errstate(over="ignore"):
                    np.multiply(np.add(rows, cols, out=strip), 0.5, out=strip)
                np.copyto(strip, rows, where=np.isinf(strip))
            else:  # (M + M')/2 is M here, and M + M' could overflow
                strip[...] = rows
            gap = max(gap, strip_gap)
    if gap > tol:
        raise ValueError(f"{what} must be symmetric to {tol:g}, got |M - M'| up to {gap:.3g}")
    return out


def _dense(M) -> np.ndarray:
    """A matrix that _symmetric returned, as an array: a CSR one densified."""
    return M if isinstance(M, np.ndarray) else M.toarray()


def _failed(value, kind: str) -> str | None:
    """The first rule, extended rules first, that value breaks; None if none."""
    base, test = _RULES[kind][:2]
    failed = None if base is None else _failed(value, base)
    return failed or (None if test(value) else kind)


def _check(value, kind, label: str):
    """value cast by kind; a ValueError naming label if it breaks the rule."""
    if kind is None:
        return value
    if isinstance(kind, set):
        extra = set(_check(value, "object", label)) - kind
        if extra:
            raise ValueError(f"unknown {label} keys {sorted(extra)}")
        return value
    if isinstance(kind, list):
        (entry,) = kind
        if not isinstance(value, _SEQUENCE):
            raise ValueError(f"{label} must be a list of {_RULES[entry][4]}, got {value!r}")
        failed = next(filter(None, (_failed(v, entry) for v in value)), None)
        if failed is not None:
            raise ValueError(f"{label} entries must be {_RULES[failed][4]}, got {value!r}")
        return [_check(v, entry, label) for v in value]
    if _failed(value, kind) is not None:
        raise ValueError(f"{label} must be {_RULES[kind][3]}, got {value!r}")
    cast = _RULES[kind][2]
    return value if cast is None else cast(value)


def _flaw(values: dict, **kinds) -> str:
    """_check's message for the first values[name] that breaks rule kinds[name]; "" if none."""
    for name, kind in kinds.items():
        try:
            _check(values[name], kind, name)
        except ValueError as e:
            return str(e)
    return ""


def read(obj, key, where: str, kind=None, default=_REQUIRED):
    """obj[key], or obj itself when key is None, checked against kind and cast.
    A missing key takes the default and is a ValueError when there is none; a
    null takes a default of None.  Every message names `where` and the key."""
    if key is None:
        return _check(obj, kind, where)
    if key not in _check(obj, "object", where):
        if default is _REQUIRED:
            raise ValueError(f"{where} missing required key {key!r}")
        return default
    if obj[key] is None and default is None:
        return None
    return _check(obj[key], kind, f"{where} {key!r}")
