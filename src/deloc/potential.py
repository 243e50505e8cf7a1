"""Structured potentials V(x) = sum_u V_u(x_u) over subsets of coordinates.

Each factor V_u comes with a Lipschitz weight L_u for its gradient.  The
weights drive everything downstream: interaction constants (M_p, R_p),
the interaction graph, and the bound machinery.  Factors are either
explicit quadratic forms (matrix on the support coordinates) or scalar
callables with an analytic gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._json import MATRIX_TOL, PRECISION_TOL, _check, _dense, _ordered, _symmetric, load, read
from .subsets import _pair, sorted_indices

__all__ = [
    "FactorTerm",
    "SmoothnessParams",
    "InteractionConstants",
    "interaction_constants",
    "StructuredPotential",
    "PairwiseSpec",
    "quadratic_term",
    "callable_term",
    "gaussian_potential",
    "chain_pairwise",
    "grid_pairwise",
    "mean_field",
    "load_potential",
    "potential_from_dict",
]

_LIPSCHITZ_TOL = 1e-10


class _Support(tuple):
    """A factor support that the subset rule has read and found declared in ascending order."""


def _ascending(read: list[int], declared, what: str = "factor support") -> _Support:
    """The support `read` by the subset rule from `declared`, which must list it in
    ascending order: a factor's matrix rows follow its support as declared."""
    if read != list(declared):
        raise ValueError(f"{what} must be sorted, got {declared}")
    return _Support(read)


@dataclass(frozen=True, eq=False)
class FactorTerm:
    """A single factor V_u acting on the coordinates in `support`, in ascending order.

    The payload is either a matrix M (V_u(z) = z' M z / 2, gradient M z) or
    the pair value_fn, grad_fn (user-supplied value and gradient on the
    support coordinates); kind, "quadratic" or "callable", is set from it.
    A quadratic factor's L_u is ||M||_op, which a declared lipschitz (None
    declares none) must match to 1e-10; a callable factor's L_u >= 0 is
    declared, and may be 0 only for a constant gradient.
    """

    support: tuple[int, ...]
    lipschitz: float | None
    matrix: np.ndarray | None = None
    value_fn: Callable[[np.ndarray], float] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    kind: str = field(init=False)
    _grad: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)  # M @ or grad_fn

    def __post_init__(self):
        support = self.support
        if type(support) is not _Support:  # a JSON term's support comes read
            support = _ascending(sorted_indices(support, None, "factor support"), support)
        fns = (self.value_fn, self.grad_fn)
        if self.matrix is not None and fns != (None, None):
            raise ValueError("a factor takes a matrix or callables, not both")
        if self.matrix is None and None in fns:
            raise ValueError("a factor needs a matrix or both value_fn and grad_fn")
        L = self.lipschitz
        if L is not None or self.matrix is None:
            L = _check(L, "non-negative", "lipschitz")
        if self.matrix is not None:
            M = _dense(_symmetric(self.matrix, "quadratic factor matrix", MATRIX_TOL))
            if M.shape != (len(support), len(support)):
                raise ValueError(f"matrix shape {M.shape} does not match support size {len(support)}")
            opnorm = float(np.max(np.abs(np.linalg.eigvalsh(M))))
            if L is not None and abs(L - opnorm) > _LIPSCHITZ_TOL * max(1.0, opnorm):
                raise ValueError(f"declared lipschitz {L} inconsistent with operator norm {opnorm}")
            object.__setattr__(self, "matrix", M)
            L = opnorm
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "lipschitz", L)
        object.__setattr__(self, "kind", "callable" if self.matrix is None else "quadratic")
        grad = self.grad_fn if self.matrix is None else self.matrix.__matmul__
        object.__setattr__(self, "_grad", grad)

    def value(self, x_u: np.ndarray) -> float:
        if self.kind == "quadratic":
            return 0.5 * float(x_u @ self.matrix @ x_u)
        return float(self.value_fn(x_u))

    def grad(self, x_u: np.ndarray) -> np.ndarray:
        return np.asarray(self._grad(x_u), dtype=float)


def quadratic_term(support: Sequence[int], matrix, lipschitz: float | None = None) -> FactorTerm:
    """Quadratic factor V_u(z) = z' M z / 2 with L_u = ||M||_op, which a given
    lipschitz must match to 1e-10."""
    return FactorTerm(support, lipschitz, matrix=matrix)


def callable_term(support, value_fn, grad_fn, lipschitz: float) -> FactorTerm:
    return FactorTerm(support, lipschitz, value_fn=value_fn, grad_fn=grad_fn)


@dataclass(frozen=True)
class SmoothnessParams:
    """Analytic inputs: LSI constant alpha, gradient Lipschitz constant beta
    (defaults to M_0 when omitted) and semigroup commutation constant gamma."""

    alpha: float
    beta: float | None = None
    gamma: float = 1.0

    def __post_init__(self):
        read(vars(self), "alpha", "smoothness", "positive")
        read(vars(self), "gamma", "smoothness", "positive")
        read(vars(self), "beta", "smoothness", "positive", None)
        if self.beta is not None and (reason := _ordered(self.alpha, self.beta)):
            raise ValueError(reason)


@dataclass(frozen=True)
class InteractionConstants:
    """M_p = max_i sum_{w ni i} L_w |w|^p and
    R_p = max_i sum_{w ni i, |w| >= 2} L_w (|w|-1)^p, for p in {0, 1}."""

    M0: float
    M1: float
    R0: float
    R1: float


def interaction_constants(
    supports: Sequence[Sequence[int]], weights: Sequence[float]
) -> InteractionConstants:
    """M0, M1, R0, R1 of factors with the given supports and weights L_w.
    Coordinates no factor touches contribute 0; without factors all are 0.
    Each coordinate's sums run in factor order."""
    lengths = np.array([len(w) for w in supports], dtype=np.intp)
    if not lengths.size:
        return InteractionConstants(0.0, 0.0, 0.0, 0.0)
    coords = np.concatenate([np.asarray(w, dtype=np.intp) for w in supports])
    L = np.repeat(np.asarray(weights, dtype=float), lengths)
    k = np.repeat(lengths, lengths)

    def top(x: np.ndarray) -> float:
        return float(np.bincount(coords, weights=x).max())

    return InteractionConstants(
        M0=top(L), M1=top(L * k), R0=top(np.where(k >= 2, L, 0.0)), R1=top(L * (k - 1))
    )


def _flatten(terms: Sequence[FactorTerm]) -> tuple[np.ndarray, list[int]]:
    """Every term's support in one index array, and term t's slice
    bounds[t]:bounds[t + 1] in it."""
    sizes = [len(t.support) for t in terms]
    idx = np.fromiter((i for t in terms for i in t.support), np.intp, sum(sizes))
    return idx, list(itertools.accumulate(sizes, initial=0))


def _assemble(n: int, terms: Sequence[FactorTerm]):
    """The n-by-n CSR matrix A with x'Ax/2 = sum of the quadratic terms and no stored
    zeros; each entry sums its parts in term order, as A[ix_(u, u)] += M on a dense A does."""
    from scipy import sparse  # on first use, as _json._symmetric imports it
    if not terms:
        return sparse.csr_array((n, n))
    idx, bounds = _flatten(terms)
    sizes = np.diff(bounds)
    area = sizes * sizes
    # entry e = a |u| + b of the row-major block of a term on u = idx[start:start + |u|]
    # is (u[a], u[b]); unique lists each key row n + col once, ascending, and bincount
    # adds its parts in input order
    k, start = np.repeat(sizes, area), np.repeat(bounds[:-1], area)
    e = np.arange(k.size) - np.repeat(np.cumsum(area) - area, area)
    keys, at = np.unique(idx[start + e // k] * n + idx[start + e % k], return_inverse=True)
    sums = np.bincount(at, np.concatenate([t.matrix for t in terms], axis=None), keys.size)
    keep = sums != 0
    return sparse.csr_array((sums[keep], np.divmod(keys[keep], n)), shape=(n, n))


# A band of width b (A_ij = 0 for |i - j| > b) is narrow when (b + 1) * _NARROW <= n.
# LAPACK's banded solver reduces A to tridiagonal form in O(n) for b = 1 and in O(n^2 b)
# otherwise, against O(n^3) for the dense one; on one core of a 2-core x86 box they
# cost the same near b = n/32 (94 against 99 ms at n = 1024, b = 32).
_NARROW = 32


def _extremes(A) -> tuple[float, float]:
    """lambda_min and lambda_max of the symmetric CSR matrix A.  A narrow band goes
    to two index-selected calls of LAPACK's banded solver (dsbevx, through
    scipy.linalg.eig_banded) on its lower band, anything else to a dense eigvalsh."""
    n = A.shape[0]
    lag = np.repeat(np.arange(n), np.diff(A.indptr)) - A.indices  # row - col of each entry
    b = int(lag.max(initial=0))
    if (b + 1) * _NARROW > n:
        eigs = np.linalg.eigvalsh(A.toarray())
        return float(eigs[0]), float(eigs[-1])
    from scipy.linalg import eig_banded  # on first use, as _assemble imports scipy.sparse
    lower = lag >= 0
    band = np.zeros((b + 1, n))  # band[i - j, j] = A_ij for j <= i <= j + b
    band[lag[lower], A.indices[lower]] = A.data[lower]
    return tuple(
        float(eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(i, i),
                         check_finite=False)[0])
        for i in (0, n - 1)
    )


@dataclass(frozen=True, eq=False)
class StructuredPotential:
    n: int
    terms: tuple[FactorTerm, ...]
    smoothness: SmoothnessParams

    def __post_init__(self):
        _check(self.n, "positive-integer", "n")
        object.__setattr__(self, "terms", tuple(self.terms))
        idx = self._flat_supports[0]
        if idx.size and idx.max() >= self.n:  # each factor read its support when it was built
            t = next(t for t in self.terms if t.support[-1] >= self.n)
            raise ValueError(f"factor support {t.support} not contained in range({self.n})")
        if self.smoothness.beta is None:
            m0 = self.interaction_constants.M0
            if m0 < self.smoothness.alpha:
                raise ValueError(
                    f"default beta=M0={m0} is below alpha={self.smoothness.alpha}; "
                    "pass beta explicitly"
                )

    # -- evaluation ---------------------------------------------------------

    def value(self, x) -> float:
        x = self._check_point(x)
        return sum((t.value(x[list(t.support)]) for t in self.terms), 0.0)

    def gradient(self, x) -> np.ndarray:
        x = self._check_point(x)
        # one gather of every term's support, one scatter-add in term order:
        # the same sums as out[support] += grad term by term
        idx = self._flat_supports[0]
        grads, sizes = self._term_gradients
        z = x[idx]
        parts = [grad(z[u]) for grad, u in grads]
        # np.size and axis=None take a one-coordinate factor's scalar gradient as well
        if list(map(np.size, parts)) != sizes:
            raise ValueError("a factor gradient must have one entry per support coordinate")
        weights = np.concatenate(parts, axis=None, dtype=float)
        return np.bincount(idx, weights=weights, minlength=self.n)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point shape {x.shape} does not match dimension {self.n}")
        return x

    # -- derived structure --------------------------------------------------

    @cached_property
    def _flat_supports(self) -> tuple[np.ndarray, list[int]]:
        return _flatten(self.terms)

    @cached_property
    def _term_gradients(self) -> tuple[list, list[int]]:
        """Each term's gradient callable with the slice of its support in the flat
        support index, and the support sizes, in term order."""
        bounds = self._flat_supports[1]
        grads = [(t._grad, slice(a, b)) for t, a, b in zip(self.terms, bounds[:-1], bounds[1:])]
        return grads, [len(t.support) for t in self.terms]

    @cached_property
    def active_terms(self) -> tuple[FactorTerm, ...]:
        """Factors with L_u > 0; the rest are invisible to graph and constants."""
        return tuple(t for t in self.terms if t.lipschitz > 0)

    @cached_property
    def interaction_constants(self) -> InteractionConstants:
        terms = self.active_terms
        return interaction_constants([t.support for t in terms], [t.lipschitz for t in terms])

    @property
    def beta(self) -> float:
        """Effective gradient Lipschitz constant (explicit beta or M_0)."""
        if self.smoothness.beta is not None:
            return self.smoothness.beta
        return self.interaction_constants.M0

    @cached_property
    def quadratic_matrix(self):
        """The n-by-n matrix A with V(x) = x'Ax/2, a CSR array without stored zeros,
        when every factor is quadratic, else None: the samplers' fast path."""
        if any(t.kind != "quadratic" for t in self.terms):
            return None
        return _assemble(self.n, self.terms)


# -- pairwise specification --------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairwiseSpec:
    """Pairwise potential V(x) = sum_i V_i(x_i) + sum_{i<j} V_ij(x_i - x_j).

    `confine_bounds[i]` is sup|V_i''| and `interaction_bounds[i, j]` is
    sup|V_ij''| (symmetric, zero diagonal).  With weights L_i = sup|V_i''|
    and L_ij = sup|V_ij''| the constants of `to_structured` reduce to

        M0 = max_i (||V_i''|| + sum_{j != i} ||V_ij''||),
        R1 = max_i sum_{j != i} ||V_ij''||.

    Scalar callables are optional; `to_structured` needs them.
    """

    n: int
    confine_bounds: np.ndarray
    interaction_bounds: np.ndarray
    confine_fns: tuple | None = None  # ((v_i, dv_i), ...) scalar callables
    interaction_fns: dict | None = None  # {(i, j): (v_ij, dv_ij)} for 0 <= i < j < n

    def __post_init__(self):
        cb = np.asarray(self.confine_bounds, dtype=float)
        _check(cb, ["non-negative"], "confine_bounds")
        ib = _dense(_symmetric(self.interaction_bounds, "interaction_bounds", MATRIX_TOL))
        object.__setattr__(self, "n", _check(self.n, "positive-integer", "n"))
        if cb.shape != (self.n,):
            raise ValueError(f"confine_bounds shape {cb.shape}, expected ({self.n},)")
        if ib.shape != (self.n, self.n):
            raise ValueError(f"interaction_bounds shape {ib.shape}, expected ({self.n}, {self.n})")
        if np.any(np.diag(ib) != 0):
            raise ValueError("interaction_bounds diagonal must be zero")
        if np.any(ib < 0):
            raise ValueError("interaction_bounds must be >= 0")
        if self.interaction_fns is not None:  # v_ij takes x_i - x_j: a key is read ascending
            fns = {_ascending(_pair(ij, self.n, "interaction key"), ij, "interaction key"): fn
                   for ij, fn in self.interaction_fns.items()}
            object.__setattr__(self, "interaction_fns", fns)
        object.__setattr__(self, "confine_bounds", cb)
        object.__setattr__(self, "interaction_bounds", ib)

    def to_structured(self, smoothness: SmoothnessParams) -> StructuredPotential:
        if self.confine_fns is None:
            raise ValueError("scalar callables required to build an evaluable potential")
        terms = [
            callable_term((i,), lambda z, v=v: v(z[0]), lambda z, dv=dv: np.array([dv(z[0])]),
                          float(self.confine_bounds[i]))
            for i, (v, dv) in enumerate(self.confine_fns)
        ]
        terms += [
            callable_term(ij, lambda z, v=v: v(z[0] - z[1]), _pair_grad(dv),
                          float(self.interaction_bounds[ij]))
            for ij, (v, dv) in sorted((self.interaction_fns or {}).items())
        ]
        return StructuredPotential(n=self.n, terms=tuple(terms), smoothness=smoothness)


def _pair_grad(dv):
    """Gradient of v(z_0 - z_1) from the scalar derivative dv, called once."""

    def grad(z):
        g = dv(z[0] - z[1])
        return np.array([g, -g])

    return grad


# -- builders ----------------------------------------------------------------


def _tridiagonal(n: int, diag: float, off: float):
    """The n x n matrix with diag on the diagonal and off beside it, as CSR: no n x n array."""
    from scipy import sparse  # on first use, as _assemble imports it
    return sparse.diags_array([off, diag, off], offsets=(-1, 0, 1), shape=(n, n), format="csr")


def _gaussian_terms(A, coords) -> list[FactorTerm]:
    """Decompose x'Ax/2, A an array or a CSR matrix read by its nonzeros, into
    singleton terms A_ii x_i^2/2 (ascending i) and pair terms A_ij x_i x_j (upper
    triangle, row by row), on the ascending coordinates coords, so the interaction
    graph has an edge exactly where A_ij != 0 (a stored zero is no entry)."""
    from scipy import sparse  # on first use, as _assemble imports it
    A = sparse.coo_array(A)
    A.sum_duplicates()  # row by row, each row by column
    nonzero = A.data != 0
    rows, cols, vals = A.row[nonzero], A.col[nonzero], A.data[nonzero]
    on, above = rows == cols, rows < cols
    singles = [quadratic_term((coords[i],), [[a]])
               for i, a in zip(rows[on].tolist(), vals[on].tolist())]
    pairs = [
        quadratic_term((coords[i], coords[j]), [[0.0, a], [a, 0.0]])
        for i, j, a in zip(rows[above].tolist(), cols[above].tolist(), vals[above].tolist())
    ]
    return singles + pairs


def _pair_terms(coords, confine: float, pairs) -> list[FactorTerm]:
    """Terms of sum_i confine x_i^2/2 + sum_{((i, j), c) in pairs} c (x_i - x_j)^2/2,
    i < j, with x_i the i-th of the ascending coordinates coords."""
    terms = [quadratic_term((i,), [[confine]]) for i in coords if confine != 0.0]
    pairs = [((coords[i], coords[j]), c) for (i, j), c in pairs if c != 0.0]
    return terms + [quadratic_term(ij, [[c, -c], [-c, c]]) for ij, c in pairs]


def _chain_pairs(n: int, couple: float) -> list:
    return [((i, i + 1), couple) for i in range(n - 1)]


def _grid_pairs(rows: int, cols: int, couple: float) -> list:
    """Right then down neighbour of each vertex v = r * cols + c, in label order."""
    pairs = []
    for v in range(rows * cols):
        if (v + 1) % cols:
            pairs.append(((v, v + 1), couple))
        if v + cols < rows * cols:
            pairs.append(((v, v + cols), couple))
    return pairs


def _mean_field_pairs(n: int, strength: float) -> list:
    return [((i, j), strength / n) for i in range(n) for j in range(i + 1, n)]


def _quadratic_potential(n: int, terms: list[FactorTerm]) -> StructuredPotential:
    """The potential with these quadratic terms; alpha and beta are the extreme
    eigenvalues of the assembled matrix (`_extremes`), which must be positive definite,
    and gamma is 1 (dataclasses.replace on the smoothness, or a JSON file, sets another)."""
    A = _assemble(n, terms)
    alpha, beta = _extremes(A)
    if alpha <= 0:
        raise ValueError(f"precision matrix must be positive definite, lambda_min={alpha}")
    smoothness = SmoothnessParams(alpha=alpha, beta=beta)
    pot = StructuredPotential(n=n, terms=tuple(terms), smoothness=smoothness)
    pot.__dict__["quadratic_matrix"] = A  # the cached property's value: assembled once
    return pot


def gaussian_potential(A) -> StructuredPotential:
    """Gaussian target N(0, A^{-1}) as a structured potential.

    alpha = lambda_min(A) (exact log-Sobolev constant), beta = lambda_max(A).
    A may be an array or a scipy.sparse matrix, which is read as CSR.
    """
    A = _symmetric(A, "precision", PRECISION_TOL)
    return _quadratic_potential(A.shape[0], _gaussian_terms(A, range(A.shape[0])))


def chain_pairwise(n: int, confine: float = 1.0, couple: float = 0.5) -> StructuredPotential:
    """V(x) = sum_i confine x_i^2/2 + sum_i couple (x_i - x_{i+1})^2/2."""
    return _quadratic_potential(n, _pair_terms(range(n), confine, _chain_pairs(n, couple)))


def grid_pairwise(
    rows: int, cols: int, confine: float = 1.0, couple: float = 0.25
) -> StructuredPotential:
    """Nearest-neighbour coupling on a rows-by-cols grid (row-major labels)."""
    n = rows * cols
    return _quadratic_potential(n, _pair_terms(range(n), confine, _grid_pairs(rows, cols, couple)))


def mean_field(n: int, confine: float = 1.0, strength: float = 1.0) -> StructuredPotential:
    """All-pairs coupling with 1/n scaling:
    V(x) = sum_i confine x_i^2/2 + (strength/n) sum_{i<j} (x_i - x_j)^2/2."""
    return _quadratic_potential(n, _pair_terms(range(n), confine, _mean_field_pairs(n, strength)))


# -- JSON reading ------------------------------------------------------------


_PARAM_KEYS = {  # the params keys of each term kind
    "quadratic": {"matrix"}, "builtin:gaussian": {"precision", "tridiagonal"},
    "builtin:chain-pairwise": {"confine", "couple"}, "builtin:mean-field": {"confine", "strength"},
    "builtin:grid-pairwise": {"rows", "cols", "confine", "couple"},
}


def _builtin_terms(name: str, support: list[int], params: dict) -> list[FactorTerm]:
    """The terms of builtin `name` on the ascending coordinates support."""
    where, k = f"builtin:{name} params", len(support)
    if name == "gaussian":
        if ("precision" in params) == ("tridiagonal" in params):
            raise ValueError("builtin:gaussian needs 'precision' or 'tridiagonal' params, not both")
        if "tridiagonal" in params:
            td = read(params, "tridiagonal", where, {"diag", "off"})
            td_where = f"{where} 'tridiagonal'"
            diag = read(td, "diag", td_where, "number", 2.0)
            off = read(td, "off", td_where, "number", -0.5)
            return _gaussian_terms(_tridiagonal(k, diag, off), support)
        A = read(params, "precision", where, "matrix")
        if A.shape != (k, k):
            raise ValueError(f"precision shape {A.shape} does not match support size {k}")
        return _gaussian_terms(_symmetric(A, "precision", PRECISION_TOL), support)
    if name == "chain-pairwise":
        pairs = _chain_pairs(k, read(params, "couple", where, "number", 0.5))
    elif name == "grid-pairwise":
        rows, cols = (read(params, key, where, "integer") for key in ("rows", "cols"))
        if rows < 1 or rows * cols != k:
            raise ValueError(f"grid {rows}x{cols} does not match support size {k}")
        pairs = _grid_pairs(rows, cols, read(params, "couple", where, "number", 0.25))
    else:  # mean-field
        pairs = _mean_field_pairs(k, read(params, "strength", where, "number", 1.0))
    return _pair_terms(support, read(params, "confine", where, "number", 1.0), pairs)


def potential_from_dict(spec: dict) -> StructuredPotential:
    spec = read(spec, None, "potential spec", {"n", "terms", "smoothness"})
    n = read(spec, "n", "potential spec", "integer")
    sm = read(spec, "smoothness", "potential spec")
    read(sm, None, "smoothness", {"alpha", "beta", "gamma"})
    smoothness = SmoothnessParams(
        alpha=read(sm, "alpha", "smoothness", "number"),
        beta=read(sm, "beta", "smoothness", "number", None),
        gamma=read(sm, "gamma", "smoothness", "number", 1.0),
    )
    terms: list[FactorTerm] = []
    for entry in read(spec, "terms", "potential spec", "list"):
        # the support is checked first: an empty one is the error whatever the kind
        declared = read(entry, "support", "term")
        support = sorted_indices(declared, None, "term 'support'")
        kind = read(entry, "kind", "term", "string")
        if kind not in _PARAM_KEYS:
            raise ValueError(f"unknown term kind {kind!r}")
        # a quadratic term may state its lipschitz weight; a builtin derives its own
        lipschitz = ["lipschitz"] if kind == "quadratic" else []
        read(entry, None, "term", {"support", "kind", "params", *lipschitz})
        params = read(entry, "params", "term", _PARAM_KEYS[kind], {})
        if kind == "quadratic":
            matrix = read(params, "matrix", "quadratic term params", "matrix")
            lip = read(entry, "lipschitz", "term", "number", None)
            # its factor takes the support read above, declared in the order of the matrix's rows
            terms.append(quadratic_term(_ascending(support, declared), matrix, lipschitz=lip))
        else:
            terms.extend(_builtin_terms(kind.split(":", 1)[1], support, params))
    return StructuredPotential(n=n, terms=tuple(terms), smoothness=smoothness)


def load_potential(path) -> StructuredPotential:
    """The potential in the JSON file at path; an unreadable file is a ValueError."""
    return potential_from_dict(load(path, "potential file"))
