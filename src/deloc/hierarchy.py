"""Set-indexed operator hierarchy for entropy bounds.

Functions F map coordinate subsets (bitmasks) to reals.  Two generators
act on them:

  sparse:  (A F)(u) = rate * (F(N(u)) - F(u)),      rate = gamma beta^2/(alpha eps)
           (N F)(u) = F(N(u))
  weak:    (A F)(u) = rho * sum_{w cap u != 0} L_w (F(w u u) - F(u)),
           (N F)(u) = sum_{w cap u != 0} L_w F(w),  rho = gamma M0/(alpha eps)

Each is defined once, as arrays over a finite set of subsets.  In the
sparse case e^{tA}F(u) = E F(N_{Lambda(t)}(u)) collapses to an exact finite
Poisson series over the chain N_0(u) .. N_J(u), because neighbourhoods
stabilize: _poisson.chain_mean for one start (the semigroup, and the
continuous-time bound in bounds), _poisson.shift_kernel for every start at
once (the certified curve).  In the weak case e^{tA} is uniformization on
the reachable lattice of growing subsets, built by _weak_expm for both the
semigroup and the curve, with the jump matrix and N assembled once per
lattice as sparse matrices.

certified_entropy_curve evaluates the exact discrete-step entropy recursion
of both theorems as one iteration over a finite set of subsets,

  H_kh <= T^k H_0 + (1-e^{-ah})/a * sum_{j<k} T^j e^{hA} G,
  T = e^{hA} (e^{-ah} I + q N^2),

with no closed-form relaxation, so it sits between the exact trajectory
and the closed-form dynamic envelope.  The two cases differ only in the
states, A, N, G and the constant q.  The sparse theorem is stated in chain
form, (e^{-ah} I + q N^2)^k e^{khA}; that equals T^k because A and N
commute there, and its G is N applied to the size term.  The weak
operators do not commute, and T is the weak theorem's step as stated.

SparseParams and WeakParams take h* and the margin eta from the matching
theorem in bounds (bounds.theorem_constants).  Unless epsilon is given it
defaults to 1 - eta/2, the midpoint of (1 - eta, 1), with eta = 1 under
polynomial growth (so epsilon = 1/2); a theorem whose domain fails (e.g.
supercritical growth) raises its report's reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from ._poisson import chain_mean, shift_kernel, truncated_pmf
from ._json import _check, _ordered, read
from .bounds import BoundReport, _above_h_star, theorem_constants
from .graph import InteractionGraph
from .potential import StructuredPotential, interaction_constants
from .subsets import as_mask, indices_from, mask_from, size

__all__ = [
    "SubsetFunction",
    "SparseGenerator",
    "WeakGenerator",
    "SparseParams",
    "WeakParams",
    "semigroup_sparse",
    "semigroup_weak",
    "certified_entropy_curve",
]

MAX_WEAK_STATES = 1 << 16  # cap on a weak lattice, read when one is built
POISSON_TAIL = 1e-12


class SubsetFunction:
    """Memoized real function on subset bitmasks."""

    def __init__(self, fn: Callable[[int], float], name: str = ""):
        self._fn = fn
        self.name = name
        self._memo: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        v = self._memo.get(mask)
        if v is None:
            v = float(self._fn(mask))
            self._memo[mask] = v
        return v

    @classmethod
    def size(cls) -> "SubsetFunction":
        return cls(lambda m: float(size(m)), "size")


@dataclass(frozen=True)
class SparseGenerator:
    graph: InteractionGraph
    rate: float

    def __post_init__(self):
        _check(self.rate, "non-negative", "rate")

    @classmethod
    def from_params(cls, graph, alpha, beta, gamma, eps) -> "SparseGenerator":
        _read_rate(eps, alpha=alpha, beta=beta, gamma=gamma)
        return cls(graph, gamma * beta**2 / (alpha * eps))


@dataclass(frozen=True)
class WeakGenerator:
    """weights = ((support_mask, L_w), ...) over factors with L_w > 0, the one reader
    of a weight list: each support by the subset rule, each L_w > 0."""

    weights: tuple[tuple[int, float], ...]
    rate_factor: float

    def __post_init__(self):
        _check(self.rate_factor, "non-negative", "rate factor")
        if type(self.weights) is not _Weights:  # weights read once already are not read again
            weights = ((as_mask(w, None, "weight support"), _check(L, "positive", "weight"))
                       for w, L in self.weights)
            object.__setattr__(self, "weights", _Weights(weights))

    @classmethod
    def from_params(cls, structure, alpha, gamma, eps) -> "WeakGenerator":
        """structure is a StructuredPotential or a weight list; M0 comes from it."""
        _read_rate(eps, alpha=alpha, gamma=gamma)
        weights, consts, _ = _weak_structure(structure)
        return cls(weights, gamma * consts.M0 / (alpha * eps))


def _read_rate(eps, **positive) -> None:
    """Read the parameters of a generator's rate: eps in (0, 1), the others > 0."""
    for name, value in positive.items():
        _check(value, "positive", name)
    _check(eps, "fraction", "eps")


class _Weights(tuple):
    """A weight list ((support_mask, L_w), ...) that has been read."""


def _weak_structure(structure):
    """(read weights, constants, n) of a StructuredPotential (its factors with L > 0,
    whose supports each factor read) or of a weight list, whose n is None."""
    if isinstance(structure, StructuredPotential):
        weights = _Weights((mask_from(t.support), t.lipschitz) for t in structure.active_terms)
        return weights, structure.interaction_constants, structure.n
    weights = WeakGenerator(structure, 0.0).weights  # read once, by the generator's rule
    supports = [indices_from(w) for w, _ in weights]
    return weights, interaction_constants(supports, [L for _, L in weights]), None


# -- semigroups ----------------------------------------------------------------


def semigroup_sparse(gen: SparseGenerator, t: float, F, u) -> float:
    """e^{tA}F(u) = E F(N_{Lambda(t)}(u)) as an exact finite series:
    sum_{j<J} pmf(j; rate t) F(N_j(u)) + P(Lambda >= J) F(N_J(u))."""
    _check(t, "non-negative", "t")
    return chain_mean(gen.graph.chain(u), gen.rate * t, F)


def _weak_lattice(gen: WeakGenerator, u_mask: int, seed_supports: bool):
    """BFS closure of {u} (plus the supports when seeding) under
    v -> v | w for intersecting supports w.  Returns (states, index, pairs):
    pairs holds one row (state, factor, index of v | w) per intersecting
    (state, factor) pair, ordered by state and then by factor."""
    seeds = [u_mask, *(w for w, _ in gen.weights)] if seed_supports else [u_mask]
    states = list(dict.fromkeys(seeds))  # the distinct seeds, in order
    index = {s: i for i, s in enumerate(states)}
    stack = states.copy()
    pairs = []
    while stack:
        v = stack.pop()
        i = index[v]
        for f, (w, _) in enumerate(gen.weights):
            if w & v:
                nv = v | w
                j = index.get(nv)
                if j is None:
                    if len(states) >= MAX_WEAK_STATES:
                        raise ValueError(
                            f"reachable subset lattice exceeds {MAX_WEAK_STATES} states"
                        )
                    j = index[nv] = len(states)
                    states.append(nv)
                    stack.append(nv)
                pairs += (i, f, j)
    pairs = np.fromiter(pairs, dtype=np.intp, count=len(pairs)).reshape(-1, 3)
    return states, index, pairs[np.argsort(pairs[:, 0], kind="stable")]


def _weak_expm(gen: WeakGenerator, u_mask: int, t: float, seed_supports: bool):
    """(states, index, pairs, v -> e^{tA} v) on the lattice of _weak_lattice.
    e^{tA} is uniformized: with theta the largest exit rate and P = I + A/theta
    the jump matrix (CSR), e^{tA} v = sum_m pmf(m; theta t) P^m v, truncated
    once the remaining Poisson mass is at most POISSON_TAIL.  It is the
    identity when theta t = 0."""
    states, index, pairs = _weak_lattice(gen, u_mask, seed_supports)
    nstates = len(states)
    src, fac, dst = pairs.T
    moves = src != dst
    src, dst = src[moves], dst[moves]
    rate = gen.rate_factor * np.array([L for _, L in gen.weights])[fac[moves]]
    exit_rates = np.bincount(src, weights=rate, minlength=nstates)
    theta = float(exit_rates.max())
    if theta == 0.0 or t == 0.0:
        return states, index, pairs, lambda v: v
    shape = (nstates, nstates)
    diag = np.arange(nstates)
    jumps = sparse.csr_array((rate / theta, (src, dst)), shape=shape)
    P = jumps + sparse.csr_array((1.0 - exit_rates / theta, (diag, diag)), shape=shape)
    pmf = truncated_pmf(theta * t, POISSON_TAIL)

    def expm(v):
        acc = pmf[0] * v
        for p in pmf[1:]:
            v = P @ v
            acc += p * v
        return acc

    return states, index, pairs, expm


def semigroup_weak(gen: WeakGenerator, t: float, F, u) -> float:
    """e^{tA}F(u) for the weak generator by uniformization over the
    reachable growing-subset lattice; the generator knows no n to bound u by."""
    _check(t, "non-negative", "t")
    m = as_mask(u)
    states, index, _, expm = _weak_expm(gen, m, t, seed_supports=False)
    return float(expm(np.array([F(s) for s in states]))[index[m]])


# -- certified entropy trajectories --------------------------------------------


@dataclass(frozen=True)
class SparseParams:
    """Analytic constants plus a growth certificate: polynomial (p set) or
    exponential (r set).  epsilon defaults to 1 - eta/2."""

    alpha: float
    beta: float
    gamma: float
    c: float
    p: float | None = None
    r: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if (self.p is None) == (self.r is None):
            raise ValueError("set exactly one of p (polynomial) or r (exponential)")
        _read_params(self, c="at-least-1", beta="positive", p="at-least-1", r="at-least-1")
        if reason := _ordered(self.alpha, self.beta):
            raise ValueError(reason)

    @property
    def mode(self) -> str:
        return "polynomial" if self.p is not None else "exponential"

    def constants(self) -> BoundReport:
        """Report of the matching theorem (bounds.sparse_*_constants)."""
        theorem = "sparse-poly" if self.mode == "polynomial" else "sparse-exp"
        return theorem_constants(theorem, vars(self))

    def h_star(self) -> float:
        return _resolve(self.constants(), self.epsilon)[0]


@dataclass(frozen=True)
class WeakParams:
    """alpha and gamma of the weak theorem; M0, M1, R1 come from the weights.
    epsilon defaults to 1 - eta/2."""

    alpha: float
    gamma: float
    epsilon: float | None = None

    def __post_init__(self):
        _read_params(self)

    def constants(self, M0: float, M1: float, R1: float) -> BoundReport:
        """Report of the weak theorem (bounds.weak_constants)."""
        return theorem_constants("weak", {**vars(self), "M0": M0, "M1": M1, "R1": R1})

    def h_star(self, M0: float, M1: float, R1: float) -> float:
        return _resolve(self.constants(M0, M1, R1), self.epsilon)[0]


def _read_params(params, **kinds) -> None:
    """Read alpha, gamma, epsilon and the fields in kinds by rule; epsilon, p, r may be None."""
    kinds.update(alpha="positive", gamma="positive", epsilon="fraction")
    for name, kind in kinds.items():
        if vars(params)[name] is not None or name not in ("epsilon", "p", "r"):
            read(vars(params), name, type(params).__name__, kind)


def _resolve(report: BoundReport, epsilon: float | None) -> tuple[float, float]:
    """(h*, epsilon) of a valid theorem report; an invalid one raises its reason."""
    if not report.valid:
        raise ValueError(report.reason)
    if epsilon is None:
        epsilon = 1.0 - report.outputs.get("eta", 1.0) / 2.0
    return report["h_star"], epsilon


def certified_entropy_curve(case: str, params, structure, H0, h: float, k_max: int, u) -> np.ndarray:
    """Exact RHS of the operator iteration for k = 0 .. k_max.

    case "sparse": structure is an InteractionGraph, params a SparseParams.
    case "weak":   structure is a weight list ((mask, L), ...) or a
                   StructuredPotential, params a WeakParams.
    H0 is a callable on subset bitmasks (monotone under inclusion).  u is a
    subset of the structure's coordinates (any, for a weight list).
    Requires h <= h* of the invoked theorem.
    """
    k_max = _check(k_max, "count", "k_max")
    _check(h, "positive", "h")
    want = {"sparse": SparseParams, "weak": WeakParams}.get(case)
    if want is not None and not isinstance(params, want):
        raise ValueError(f"case {case!r} takes {want.__name__}, got {type(params).__name__}")
    if case == "sparse":
        report = params.constants()
        build = lambda eps: _sparse_operators(params, structure, eps, h, u)
    elif case == "weak":
        weights, c, n = _weak_structure(structure)
        report = params.constants(c.M0, c.M1, c.R1)
        build = lambda eps: _weak_operators(params, weights, c.M0, eps, h, u, n)
    else:
        raise ValueError(f"unknown case {case!r} (use 'sparse' or 'weak')")
    h_star, eps = _resolve(report, params.epsilon)
    if reason := _above_h_star(h, h_star):
        raise ValueError(f"{reason} of the matching theorem")
    states, iu, expm_h, N, g, q = build(eps)

    alpha = params.alpha
    a = math.exp(-alpha * h)
    q *= 1.0 - a
    coeff = (1.0 - a) / alpha

    def T(v):
        # e^{-ah} e^{hA} v + q e^{hA} N^2 v = e^{hA}(a v + q N^2 v)
        return expm_h(a * v + q * N(N(v)))

    h0 = np.array([H0(s) for s in states])
    out = np.empty(k_max + 1)
    out[0] = h0[iu]
    # columns w_k = T^k H0 and y_{k+1} = T^k e^{hA} G, advanced together
    wy = np.column_stack([h0, expm_h(g)])
    acc2 = 0.0
    for k in range(1, k_max + 1):
        acc2 += wy[iu, 1]
        wy = T(wy)
        out[k] = wy[iu, 0] + coeff * acc2
    return out


# Each builder returns (states, index of u, v -> e^{hA} v, v -> N v, G, q / (1 - e^{-ah})).


def _sparse_operators(params: SparseParams, graph: InteractionGraph, eps, h, u):
    """The chain N_0(u) .. N_J(u); e^{hA} is the index-shift kernel, built from one cached
    Poisson law and one tail vector (the tail absorbed at the stabilized end), N the 0/1
    shift by one."""
    alpha, beta = params.alpha, params.beta
    lam = SparseGenerator.from_params(graph, alpha, beta, params.gamma, eps).rate
    chain = graph.chain(u)
    J = len(chain) - 1
    K = shift_kernel(lam * h, J)
    shift = np.minimum(np.arange(J + 1) + 1, J)
    N = lambda v: v[shift]
    sizes = np.array([float(size(cm)) for cm in chain])
    g = N((beta**2 * h / (1.0 - eps)) * (beta * h + 1.0) * sizes)
    q = 2.0 * beta**4 * h**2 / (alpha**2 * (1.0 - eps))
    return chain, 0, lambda v: K @ v, N, g, q


def _weak_operators(params: WeakParams, weights, M0, eps, h, u, n=None):
    """The reachable lattice of u and the supports; e^{hA} by uniformization,
    (N F)(v) = sum_{w cap v != 0} L_w F(w) as one CSR row per state."""
    alpha = params.alpha
    gen = WeakGenerator(weights, params.gamma * M0 / (alpha * eps))
    m = as_mask(u, n)
    states, index, pairs, expm_h = _weak_expm(gen, m, h, seed_supports=True)
    nstates = len(states)

    src, fac = pairs[:, 0], pairs[:, 1]
    support_index = np.array([index[w] for w, _ in gen.weights], dtype=np.intp)
    lip = np.array([L for _, L in gen.weights])
    N = sparse.csr_array((lip[fac], (src, support_index[fac])), shape=(nstates, nstates))

    sizes = np.array([float(size(s)) for s in states])
    ns = N @ sizes
    g = (h * M0 / (1.0 - eps)) * ((M0 / alpha) * h * (N @ ns) + ns)
    q = 2.0 * h**2 * M0**2 / (alpha**2 * (1.0 - eps))
    return states, index[m], expm_h, lambda v: N @ v, g, q
