"""Empirical transport distances between sample clouds.

Only W2-type distances are estimated from samples; KL never is.  The 1D
estimator is the exact quantile coupling (sorted order statistics); the
multivariate estimator solves the exact assignment problem between two
equal-size clouds, under squared-l2 or squared-linf ground cost.

Standard errors come from a bootstrap (default 200 resamples): the 1D
estimator resamples both sides and re-sorts, so the variability of the
coupling itself is captured; the assignment estimator re-solves on
index-resampled clouds.  Every sample cloud is read by one rule: a numeric
array, 1-D for m samples of one coordinate or 2-D of shape (m, k); any other
shape, an empty cloud or a NaN or infinite entry is a ValueError that names
the cloud.  The 1D estimator takes k = 1 only.

Assignment estimates are solved in batches: `w2sq_assignment` is a batch
of one, the empirical subadditivity check (k >= 2) one batch of every
subset and the full cloud, and the `onestep-linf` experiment one batch of
every estimate of a run.  A batch first makes every draw from the callers'
generators, problem by problem in the serial order (the larger cloud's
subsample, then each replicate's row indices), so the values and the
generators' states do not depend on the order of the solves.  Then every
solve runs on one thread pool with a worker per CPU the process may use,
largest clouds first; the solver releases the GIL.  A worker writes each
cost matrix, cdist of the (resampled) rows, into its own buffer, so no
matrix outlives its solve.  It subtracts the column and then the row
minima before solving (the reduction of Jonker & Volgenant, 1987), which
moves every assignment's cost by the same amount, then refills the buffer
and takes the mean matched cost with math.fsum: equal-cost optimal
matchings, which bootstrap duplicates create, give the same value.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ._json import _check
from .oracle import GaussianLaw, marginal as law_marginal, w2sq_gaussian

__all__ = [
    "DistanceEstimate",
    "SubadditivityReport",
    "w2sq_1d",
    "w2sq_assignment",
    "subadditivity_check",
    "MAX_ASSIGNMENT_SAMPLES",
    "MAX_ASSIGNMENT_DIM",
]

MAX_ASSIGNMENT_SAMPLES = 4096
MAX_ASSIGNMENT_DIM = 8
DEFAULT_BOOTSTRAP = 200
SUBADDITIVITY_MAX_SAMPLES = 512
_SUBADDITIVITY_SE = 3.0  # empirical check's tolerance, in combined standard errors


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    metric: str  # "w2sq" | "w2sq-linf"
    sample_sizes: tuple[int, int]
    standard_error: float
    method: str  # "quantile" | "assignment"


def _cloud(x, what: str) -> np.ndarray:
    """Sample cloud `what` read by the cloud rule, as an (m, k) array."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"sample cloud {what} must be numeric, got {type(x).__name__}") from None
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError(f"sample cloud {what} must be (m,) or (m, k) with m, k > 0, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"sample cloud {what} must be finite, got a NaN or infinite entry")
    return x[:, None] if x.ndim == 1 else x


def _rows(x: np.ndarray, m: int, rng) -> np.ndarray:
    """x, or m of its rows drawn from rng without replacement when it has more."""
    return x if x.shape[0] <= m else x[rng.choice(x.shape[0], size=m, replace=False)]


def _subsample_sorted(x: np.ndarray, m: int) -> np.ndarray:
    """Evenly spaced order statistics of x; deterministic size reduction
    that preserves the quantile structure."""
    xs = np.sort(x)
    if xs.shape[0] == m:
        return xs
    pos = np.linspace(0, xs.shape[0] - 1, m).round().astype(int)
    return xs[pos]


def w2sq_1d(a, b, n_boot: int = DEFAULT_BOOTSTRAP, rng=None) -> DistanceEstimate:
    """Squared W2 between two clouds of one coordinate, (m,) or (m, 1), via the
    quantile coupling.  Unequal sizes are handled by evenly spaced order-statistic
    subsampling of the larger set.  Needs at least 2 samples per side; n_boot = 0
    gives no SE (NaN)."""
    n_boot = _check(n_boot, "count" if n_boot == 0 else "replicates", "n_boot")
    a, b = _cloud(a, "a"), _cloud(b, "b")
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ValueError(f"need clouds of one coordinate, got k={a.shape[1]} and k={b.shape[1]}")
    a, b = a[:, 0], b[:, 0]
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError(f"need >= 2 samples per side, got {a.shape[0]} and {b.shape[0]}")
    m = min(a.shape[0], b.shape[0])
    av = _subsample_sorted(a, m)
    bv = _subsample_sorted(b, m)
    value = float(((av - bv) ** 2).mean())
    rng = np.random.default_rng(0) if rng is None else rng
    se = float("nan")
    if n_boot > 0:
        # resample both sides and re-sort, so the standard error includes
        # the fluctuation of the quantile coupling, not just of the costs
        vals = np.empty(n_boot)
        chunk = max(1, int(2_000_000 // m))
        for done in range(0, n_boot, chunk):
            c = min(chunk, n_boot - done)
            ra = np.sort(av[rng.integers(0, m, size=(c, m))], axis=1)
            rb = np.sort(bv[rng.integers(0, m, size=(c, m))], axis=1)
            vals[done : done + c] = ((ra - rb) ** 2).mean(axis=1)
        se = float(vals.std(ddof=1))
    return DistanceEstimate(value, "w2sq", (a.shape[0], b.shape[0]), se, "quantile")


_METRICS = {"l2": "sqeuclidean", "linf": "chebyshev"}  # linf's is squared after cdist


def _clouds(a, b, norm: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The two clouds of an assignment estimate as (m, k) arrays, and m."""
    if norm not in _METRICS:
        raise ValueError(f"unknown ground norm {norm!r} (use 'l2' or 'linf')")
    a, b = _cloud(a, "a"), _cloud(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    k = a.shape[1]
    if k > MAX_ASSIGNMENT_DIM:
        raise ValueError(
            f"k={k} exceeds the assignment cap {MAX_ASSIGNMENT_DIM}; "
            "project or split the coordinates first"
        )
    m = min(a.shape[0], b.shape[0])
    if m > MAX_ASSIGNMENT_SAMPLES:
        raise ValueError(
            f"m={m} exceeds the assignment cap {MAX_ASSIGNMENT_SAMPLES}; subsample first"
        )
    return a, b, m


def _fill_cost(x: np.ndarray, y: np.ndarray, norm: str, out: np.ndarray) -> np.ndarray:
    cdist(x, y, _METRICS[norm], out=out)
    return np.square(out, out=out) if norm == "linf" else out


def _assignment_batch(problems) -> list[DistanceEstimate]:
    """One estimate per (a, b, norm, n_boot, rng) problem, n_boot already read.

    Every problem is checked, then every draw is made, problem by problem in
    the serial order: the larger cloud's subsample, then ia and ib for each
    replicate.  So each generator ends where one call per problem leaves it.
    Then every solve of every problem runs on one pool, largest m first."""
    clouds = [_clouds(a, b, norm) for a, b, norm, _, _ in problems]
    tasks = []  # (problem, slot: 0 for the full sample, r for replicate r, x, y, norm, draw)
    for p, ((a, b, m), (_, _, norm, n_boot, rng)) in enumerate(zip(clouds, problems)):
        a, b = _rows(a, m, rng), _rows(b, m, rng)
        draws = [(rng.integers(0, m, size=m), rng.integers(0, m, size=m)) for _ in range(n_boot)]
        tasks += [(p, r, a, b, norm, draw) for r, draw in enumerate([None, *draws])]
    tasks.sort(key=lambda t: -t[2].shape[0])
    m_max = tasks[0][2].shape[0]
    # a cost buffer per worker, made here: no more solves run at once than there are buffers
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(m_max * m_max))

    def solve(task):
        _, _, x, y, norm, draw = task
        if draw is not None:  # cdist of the resampled rows: the full matrix's submatrix
            x, y = x[draw[0]], y[draw[1]]
        m = x.shape[0]
        buf = buffers.get_nowait()
        try:
            cost = _fill_cost(x, y, norm, buf[: m * m].reshape(m, m))
            # reduced costs (Jonker & Volgenant): every assignment's total moves by the same amount
            cost -= cost.min(axis=0)
            cost -= cost.min(axis=1, keepdims=True)
            rows, cols = linear_sum_assignment(cost)
            # the matched entries of the unreduced costs, summed in no order: equal-cost
            # optimal matchings (bootstrap duplicates tie) give the same value
            return math.fsum(_fill_cost(x, y, norm, cost)[rows, cols]) / m
        finally:
            buffers.put(buf)

    entries = [np.empty(1 + n_boot) for *_, n_boot, _ in problems]
    with ThreadPoolExecutor(workers) as pool:
        for (p, r, *_), value in zip(tasks, pool.map(solve, tasks)):
            entries[p][r] = value
    return [
        DistanceEstimate(
            float(values[0]), "w2sq" if norm == "l2" else "w2sq-linf", (m, m),
            float(np.std(values[1:], ddof=1)) if n_boot > 0 else float("nan"), "assignment",
        )
        for (_, _, m), (_, _, norm, n_boot, _), values in zip(clouds, problems, entries)
    ]


def w2sq_assignment(
    a, b, norm: str = "l2", n_boot: int = DEFAULT_BOOTSTRAP, rng=None
) -> DistanceEstimate:
    """Exact empirical squared W2 (or squared W2,linf) via optimal assignment.

    Both clouds must be finite with shape (m, k), or (m,) for k = 1, with
    k <= 8 and m <= 4096 (subsample first if over the caps; the cubic
    assignment solve dominates otherwise).  Unequal m: the larger cloud is
    randomly subsampled without replacement; n_boot = 0 gives no SE (NaN).
    """
    n_boot = _check(n_boot, "count" if n_boot == 0 else "replicates", "n_boot")
    rng = np.random.default_rng(0) if rng is None else rng
    return _assignment_batch([(a, b, norm, n_boot, rng)])[0]


@dataclass(frozen=True)
class SubadditivityReport:
    """Check of  avg_{|u|=k} W2^2(mu^u, nu^u) <= (k/n) W2^2(mu, nu); slack
    and passed are derived from the two sides and the tolerance."""

    n: int
    k: int
    lhs_average: float
    rhs_share: float
    slack: float = field(init=False)  # rhs - lhs
    passed: bool = field(init=False)  # lhs <= rhs + tolerance
    tolerance: float
    num_subsets: int
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "slack", self.rhs_share - self.lhs_average)
        object.__setattr__(self, "passed", self.lhs_average <= self.rhs_share + self.tolerance)


def _exact_subadditivity(law_a: GaussianLaw, law_b: GaussianLaw, k: int, tol: float):
    n = law_a.dim
    if n > 10:
        raise ValueError(f"exact enumeration capped at n=10, got n={n}")
    subsets = itertools.combinations(range(n), k)
    vals = [w2sq_gaussian(law_marginal(law_a, u), law_marginal(law_b, u)) for u in subsets]
    lhs = float(np.mean(vals))
    rhs = (k / n) * w2sq_gaussian(law_a, law_b)
    return SubadditivityReport(n, k, lhs, rhs, tolerance=tol, num_subsets=len(vals), exact=True)


def _empirical_subadditivity(a: np.ndarray, b: np.ndarray, k: int, n_boot, rng):
    n = a.shape[1]
    rng = np.random.default_rng(0) if rng is None else rng
    # this is a sanity check, not a precision instrument: every estimate
    # involves assignment re-solves, so work at a fixed modest resolution
    a, b = _rows(a, SUBADDITIVITY_MAX_SAMPLES, rng), _rows(b, SUBADDITIVITY_MAX_SAMPLES, rng)
    n_boot = min(n_boot, 32)
    combos = list(itertools.combinations(range(n), k))
    if len(combos) > 64:
        pick = rng.choice(len(combos), size=64, replace=False)
        combos = [combos[i] for i in sorted(pick)]
    if k == 1:  # quantile couplings, then the full cloud's assignment
        ests, pairs = [w2sq_1d(a[:, u[0]], b[:, u[0]], n_boot=n_boot, rng=rng) for u in combos], []
    else:  # every subset's assignment and the full cloud's, as one batch
        ests, pairs = [], [(a[:, u], b[:, u]) for u in combos]
    *ests, full = ests + _assignment_batch([(x, y, "l2", n_boot, rng) for x, y in [*pairs, (a, b)]])
    vals = [est.value for est in ests]
    ses = [est.standard_error for est in ests]
    lhs = float(np.mean(vals))
    lhs_se = float(np.sqrt(np.sum(np.square(ses))) / len(vals))
    rhs = (k / n) * full.value
    rhs_se = (k / n) * full.standard_error
    tol = _SUBADDITIVITY_SE * math.hypot(lhs_se, rhs_se)
    return SubadditivityReport(n, k, lhs, rhs, tolerance=tol, num_subsets=len(combos), exact=False)


def subadditivity_check(
    full_a, full_b, k: int, tol: float = 1e-9, n_boot: int = DEFAULT_BOOTSTRAP, rng=None
) -> SubadditivityReport:
    """Exact path for a pair of GaussianLaw (all (n choose k) subsets,
    n <= 10, slack tolerance `tol`); empirical path for a pair of sample
    clouds (all subsets, or 64 of them drawn from rng; 3-combined-SE
    tolerance).  The empirical path subsamples to 512 points per side and
    at most 32 bootstrap replicates: it flags gross violations, nothing
    finer."""
    k = _check(k, "positive-integer", "k")
    exact = isinstance(full_a, GaussianLaw) and isinstance(full_b, GaussianLaw)
    a, b = (full_a, full_b) if exact else (_cloud(full_a, "a"), _cloud(full_b, "b"))
    n, n_b = (a.dim, b.dim) if exact else (a.shape[1], b.shape[1])
    if n != n_b:
        raise ValueError(f"both sides must share a dimension, got {n} and {n_b}")
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    if exact:
        return _exact_subadditivity(a, b, k, tol)
    n_boot = _check(n_boot, "replicates", "n_boot")  # its tolerance is in standard errors
    return _empirical_subadditivity(a, b, k, n_boot, rng)
