"""The one reader of the JSON that deloc takes from outside: potential files,
run configs and experiment options.  `load` parses a file; `read` checks one
value against one rule, its kind: a name in _RULES; a set of names, for a
JSON object with no other keys; [kind], for a list of kind entries; a tuple
of kinds, for the one whose JSON type the value has; or None, for any value."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

_REQUIRED = object()  # the default of a key that must be present
_SEQUENCE = (list, tuple, np.ndarray)  # a JSON list, or what a library caller passes for one


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
    # a bool is an int to Python, and a huge JSON int has no float to test
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        isinstance(v, numbers.Integral) or math.isfinite(v)
    )


def _is_indices(v) -> bool:
    return isinstance(v, _SEQUENCE) and all(
        _failed(i, "integer") is None and i >= 0 for i in v
    ) and len(set(v)) == len(v)


def _is_matrix(v) -> bool:
    return isinstance(v, _SEQUENCE) and len(v) > 0 and all(
        isinstance(r, _SEQUENCE) and len(r) == len(v) and all(map(_is_number, r)) for r in v
    )


# kind: (the rule it extends, test, cast, noun, plural noun).  A number is a
# finite JSON int or float, so true, false and strings are not numbers, and an
# integer is a whole number; a matrix is a square, nonempty list of number lists.
_RULES = {
    "number": (None, _is_number, float, "a number", "numbers"),
    "integer": (
        "number", lambda v: isinstance(v, numbers.Integral) or float(v).is_integer(), int,
        "an integer", "whole numbers",
    ),
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


def _failed(value, kind: str) -> str | None:
    """The first rule, extended rules first, that value breaks; None if none."""
    base, test = _RULES[kind][:2]
    if base is not None and _failed(value, base) is not None:
        return base
    return None if test(value) else kind


def _check(value, kind, label: str):
    """value cast by kind; a ValueError naming label if it breaks the rule."""
    if kind is None:
        return value
    if isinstance(kind, tuple):  # the alternative of the value's JSON type
        names = ["object" if isinstance(k, set) else "list" if isinstance(k, list) else k
                 for k in kind]
        for alt, name in zip(kind, names):
            if _failed(value, name) is None:
                return _check(value, alt, label)
        raise ValueError(f"{label} must be a {', '.join(names[:-1])} or {names[-1]}, got {value!r}")
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
