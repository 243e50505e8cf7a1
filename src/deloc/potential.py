"""Structured potentials V(x) = sum_u V_u(x_u) over subsets of coordinates.

Each factor V_u comes with a Lipschitz weight L_u for its gradient.  The
weights drive everything downstream: interaction constants (M_p, R_p),
the interaction graph, and the bound machinery.  Factors are either
explicit quadratic forms (matrix on the support coordinates) or scalar
callables with an analytic gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._json import _check, load, read
from .oracle import _dense, _precision

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
    "tridiagonal_precision",
    "load_potential",
    "potential_from_dict",
]

_SYM_TOL = 1e-12
_LIPSCHITZ_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FactorTerm:
    """A single factor V_u acting on the coordinates in `support`.

    The payload is either a matrix M (V_u(z) = z' M z / 2, gradient M z) or
    the pair value_fn, grad_fn (user-supplied value and gradient on the
    support coordinates); kind, "quadratic" or "callable", is set from it.
    L_u = 0 is permitted only for factors with constant gradient; for
    quadratic terms this is automatic since L_u equals the operator norm of M.
    """

    support: tuple[int, ...]
    lipschitz: float
    matrix: np.ndarray | None = None
    value_fn: Callable[[np.ndarray], float] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    kind: str = field(init=False)

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("factor support must be nonempty")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be sorted and duplicate-free, got {self.support}")
        if self.support[0] < 0:
            raise ValueError(f"support indices must be >= 0, got {self.support}")
        object.__setattr__(self, "lipschitz", _check(self.lipschitz, "non-negative", "lipschitz"))
        fns = (self.value_fn, self.grad_fn)
        if self.matrix is not None and fns != (None, None):
            raise ValueError("a factor takes a matrix or callables, not both")
        if self.matrix is None and None in fns:
            raise ValueError("a factor needs a matrix or both value_fn and grad_fn")
        object.__setattr__(self, "kind", "callable" if self.matrix is None else "quadratic")

    def value(self, x_u: np.ndarray) -> float:
        if self.kind == "quadratic":
            return 0.5 * float(x_u @ self.matrix @ x_u)
        return float(self.value_fn(x_u))

    def grad(self, x_u: np.ndarray) -> np.ndarray:
        if self.kind == "quadratic":
            return self.matrix @ x_u
        return np.asarray(self.grad_fn(x_u), dtype=float)


def quadratic_term(support: Sequence[int], matrix, lipschitz: float | None = None) -> FactorTerm:
    """Quadratic factor V_u(z) = z' M z / 2 with L_u = ||M||_op.

    If `lipschitz` is given it must agree with the operator norm to 1e-10.
    """
    support = tuple(sorted(support))
    M = np.asarray(matrix, dtype=float)
    if M.shape != (len(support), len(support)):
        raise ValueError(f"matrix shape {M.shape} does not match support size {len(support)}")
    if not np.allclose(M, M.T, atol=_SYM_TOL, rtol=0):
        raise ValueError("quadratic factor matrix must be symmetric")
    M = 0.5 * (M + M.T)
    opnorm = float(np.max(np.abs(np.linalg.eigvalsh(M)))) if len(support) else 0.0
    if lipschitz is not None and abs(lipschitz - opnorm) > _LIPSCHITZ_TOL * max(1.0, opnorm):
        raise ValueError(
            f"declared lipschitz {lipschitz} inconsistent with operator norm {opnorm}"
        )
    return FactorTerm(support=support, lipschitz=opnorm, matrix=M)


def callable_term(support, value_fn, grad_fn, lipschitz: float, label: str = "") -> FactorTerm:
    return FactorTerm(
        support=tuple(sorted(support)),
        lipschitz=lipschitz,
        value_fn=value_fn,
        grad_fn=grad_fn,
        label=label,
    )


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
        if self.beta is not None and self.beta < self.alpha:
            raise ValueError(f"need alpha <= beta, got alpha={self.alpha}, beta={self.beta}")


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


def _assemble(n: int, terms: Sequence[FactorTerm]) -> np.ndarray:
    """The n-by-n matrix A with x'Ax/2 = sum of the quadratic terms, summed in term order."""
    A = np.zeros((n, n))
    for t in terms:
        idx = np.asarray(t.support)
        A[np.ix_(idx, idx)] += t.matrix
    return A


@dataclass(frozen=True, eq=False)
class StructuredPotential:
    n: int
    terms: tuple[FactorTerm, ...]
    smoothness: SmoothnessParams

    def __post_init__(self):
        _check(self.n, "positive-integer", "n")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.support[-1] >= self.n:
                raise ValueError(f"support {t.support} out of range for n={self.n}")
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
        total = 0.0
        for t in self.terms:
            total += t.value(x[list(t.support)])
        return total

    def gradient(self, x) -> np.ndarray:
        x = self._check_point(x)
        if self.quadratic_matrix is not None:
            return self.quadratic_matrix @ x
        # one gather of every term's support, one scatter-add in term order:
        # the same sums as out[support] += grad term by term
        idx, bounds = self._flat_supports
        z = x[idx]
        parts = [t.grad(z[a:b]) for t, a, b in zip(self.terms, bounds[:-1], bounds[1:])]
        if list(itertools.accumulate([g.size for g in parts], initial=0)) != bounds:
            raise ValueError("a factor gradient must have one entry per support coordinate")
        # axis=None takes a one-coordinate factor's scalar gradient as well
        return np.bincount(idx, weights=np.concatenate(parts, axis=None), minlength=self.n)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point shape {x.shape} does not match dimension {self.n}")
        return x

    # -- derived structure --------------------------------------------------

    @cached_property
    def _flat_supports(self) -> tuple[np.ndarray, list[int]]:
        """Every term's support in one index array, and term t's slice
        bounds[t]:bounds[t + 1] in it."""
        sizes = [len(t.support) for t in self.terms]
        idx = np.fromiter((i for t in self.terms for i in t.support), np.intp, sum(sizes))
        return idx, list(itertools.accumulate(sizes, initial=0))

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
    def quadratic_matrix(self) -> np.ndarray | None:
        """Assembled n-by-n matrix A with V(x) = x'Ax/2 when every factor is
        quadratic, else None.  Lets samplers and oracles take the fast path."""
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
        ib = np.asarray(self.interaction_bounds, dtype=float)
        if cb.shape != (self.n,):
            raise ValueError(f"confine_bounds shape {cb.shape}, expected ({self.n},)")
        if ib.shape != (self.n, self.n):
            raise ValueError(f"interaction_bounds shape {ib.shape}, expected square")
        if not np.allclose(ib, ib.T, atol=_SYM_TOL, rtol=0):
            raise ValueError("interaction_bounds must be symmetric")
        if np.any(np.diag(ib) != 0):
            raise ValueError("interaction_bounds diagonal must be zero")
        if np.any(cb < 0) or np.any(ib < 0):
            raise ValueError("curvature bounds must be >= 0")
        for i, j in self.interaction_fns or {}:
            # v_ij takes x_i - x_j, and the term's support is sorted
            if not 0 <= i < j < self.n:
                raise ValueError(f"interaction key {(i, j)} needs 0 <= i < j < n={self.n}")
        object.__setattr__(self, "confine_bounds", cb)
        object.__setattr__(self, "interaction_bounds", 0.5 * (ib + ib.T))

    def to_structured(self, smoothness: SmoothnessParams) -> StructuredPotential:
        if self.confine_fns is None:
            raise ValueError("scalar callables required to build an evaluable potential")
        terms = []
        for i, (v, dv) in enumerate(self.confine_fns):
            terms.append(
                callable_term(
                    (i,),
                    lambda z, v=v: v(z[0]),
                    lambda z, dv=dv: np.array([dv(z[0])]),
                    lipschitz=float(self.confine_bounds[i]),
                    label=f"confine:{i}",
                )
            )
        for (i, j), (v, dv) in sorted((self.interaction_fns or {}).items()):
            terms.append(
                callable_term(
                    (i, j),
                    lambda z, v=v: v(z[0] - z[1]),
                    _pair_grad(dv),
                    lipschitz=float(self.interaction_bounds[i, j]),
                    label=f"pair:{i}-{j}",
                )
            )
        return StructuredPotential(n=self.n, terms=tuple(terms), smoothness=smoothness)


def _pair_grad(dv):
    """Gradient of v(z_0 - z_1) from the scalar derivative dv, called once."""

    def grad(z):
        g = dv(z[0] - z[1])
        return np.array([g, -g])

    return grad


# -- builders ----------------------------------------------------------------


def tridiagonal_precision(n: int, diag: float = 2.0, off: float = -0.5) -> np.ndarray:
    A = np.zeros((n, n))
    np.fill_diagonal(A, diag)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = off
    A[idx + 1, idx] = off
    return A


def _gaussian_terms(A: np.ndarray) -> list[FactorTerm]:
    """Decompose x'Ax/2 into singleton terms A_ii x_i^2/2 (ascending i) and
    pair terms A_ij x_i x_j (upper triangle, row by row), so the interaction
    graph has an edge exactly where A_ij != 0."""
    d = np.diag(A)
    singles = [quadratic_term((i,), [[d[i]]]) for i in np.flatnonzero(d).tolist()]
    rows, cols = np.nonzero(np.triu(A, 1))
    pairs = [
        quadratic_term((i, j), [[0.0, A[i, j]], [A[i, j], 0.0]])
        for i, j in zip(rows.tolist(), cols.tolist())
    ]
    return singles + pairs


def _pair_terms(n: int, confine: float, pairs) -> list[FactorTerm]:
    """Terms of sum_i confine x_i^2/2 + sum_{((i, j), c) in pairs} c (x_i - x_j)^2/2."""
    terms = [quadratic_term((i,), [[confine]]) for i in range(n) if confine != 0.0]
    return terms + [quadratic_term(ij, [[c, -c], [-c, c]]) for ij, c in pairs if c != 0.0]


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
    eigenvalues of the assembled matrix, which must be positive definite, and
    gamma is 1 (dataclasses.replace on the smoothness, or a JSON file, sets another)."""
    eigs = np.linalg.eigvalsh(_assemble(n, terms))
    if eigs[0] <= 0:
        raise ValueError(f"precision matrix must be positive definite, lambda_min={eigs[0]}")
    smoothness = SmoothnessParams(alpha=float(eigs[0]), beta=float(eigs[-1]))
    return StructuredPotential(n=n, terms=tuple(terms), smoothness=smoothness)


def gaussian_potential(A) -> StructuredPotential:
    """Gaussian target N(0, A^{-1}) as a structured potential.

    alpha = lambda_min(A) (exact log-Sobolev constant), beta = lambda_max(A).
    A may be an array or a scipy.sparse matrix.
    """
    A = _dense(_precision(A))
    return _quadratic_potential(A.shape[0], _gaussian_terms(A))


def chain_pairwise(n: int, confine: float = 1.0, couple: float = 0.5) -> StructuredPotential:
    """V(x) = sum_i confine x_i^2/2 + sum_i couple (x_i - x_{i+1})^2/2."""
    return _quadratic_potential(n, _pair_terms(n, confine, _chain_pairs(n, couple)))


def grid_pairwise(
    rows: int, cols: int, confine: float = 1.0, couple: float = 0.25
) -> StructuredPotential:
    """Nearest-neighbour coupling on a rows-by-cols grid (row-major labels)."""
    n = rows * cols
    return _quadratic_potential(n, _pair_terms(n, confine, _grid_pairs(rows, cols, couple)))


def mean_field(n: int, confine: float = 1.0, strength: float = 1.0) -> StructuredPotential:
    """All-pairs coupling with 1/n scaling:
    V(x) = sum_i confine x_i^2/2 + (strength/n) sum_{i<j} (x_i - x_j)^2/2."""
    return _quadratic_potential(n, _pair_terms(n, confine, _mean_field_pairs(n, strength)))


# -- JSON reading ------------------------------------------------------------


_PARAM_KEYS = {  # the params keys of each term kind
    "quadratic": {"matrix"}, "builtin:gaussian": {"precision", "tridiagonal"},
    "builtin:chain-pairwise": {"confine", "couple"}, "builtin:mean-field": {"confine", "strength"},
    "builtin:grid-pairwise": {"rows", "cols", "confine", "couple"},
}


def _builtin_terms(name: str, k: int, params: dict) -> list[FactorTerm]:
    """The terms of builtin `name` on the local coordinates 0..k-1."""
    where = f"builtin:{name} params"
    if name == "gaussian":
        if ("precision" in params) == ("tridiagonal" in params):
            raise ValueError("builtin:gaussian needs 'precision' or 'tridiagonal' params, not both")
        if "precision" in params:
            A = read(params, "precision", where, "matrix")
        else:
            td = read(params, "tridiagonal", where, {"diag", "off"})
            td_where = f"{where} 'tridiagonal'"
            diag = read(td, "diag", td_where, "number", 2.0)
            A = tridiagonal_precision(k, diag, read(td, "off", td_where, "number", -0.5))
        if A.shape != (k, k):
            raise ValueError(f"precision shape {A.shape} does not match support size {k}")
        return _gaussian_terms(_precision(A))
    if name == "chain-pairwise":
        pairs = _chain_pairs(k, read(params, "couple", where, "number", 0.5))
    elif name == "grid-pairwise":
        rows, cols = (read(params, key, where, "integer") for key in ("rows", "cols"))
        if rows < 1 or rows * cols != k:
            raise ValueError(f"grid {rows}x{cols} does not match support size {k}")
        pairs = _grid_pairs(rows, cols, read(params, "couple", where, "number", 0.25))
    else:  # mean-field
        pairs = _mean_field_pairs(k, read(params, "strength", where, "number", 1.0))
    return _pair_terms(k, read(params, "confine", where, "number", 1.0), pairs)


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
        support = sorted(read(entry, "support", "term", "indices"))
        if not support:
            raise ValueError("factor support must be nonempty")
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
            terms.append(quadratic_term(support, matrix, lipschitz=lip))
        else:
            # local coordinate i of the builtin is support[i]
            local = _builtin_terms(kind.split(":", 1)[1], len(support), params)
            terms.extend(
                replace(t, support=tuple(support[i] for i in t.support)) for t in local
            )
    return StructuredPotential(n=n, terms=tuple(terms), smoothness=smoothness)


def load_potential(path) -> StructuredPotential:
    """The potential in the JSON file at path; an unreadable file is a ValueError."""
    return potential_from_dict(load(path, "potential file"))
