"""Empirical transport distances between sample clouds.

Only W2-type distances are estimated from samples; KL never is.  The 1D
estimator is the exact quantile coupling (sorted order statistics); the
multivariate estimator solves the exact assignment problem between two
equal-size clouds, under squared-l2 or squared-linf ground cost.

Standard errors come from a bootstrap (default 200 resamples): the 1D
estimator resamples both sides and re-sorts, so the variability of the
coupling itself is captured; the assignment estimator re-solves on
index-resampled clouds.  Its replicate indices are drawn serially from the
caller's generator, in one fixed order, and the full-sample assignment and
every replicate are then solved concurrently on the CPUs the process may
use; the solver releases the GIL, and the values do not depend on the
number of CPUs.
"""

from __future__ import annotations

import itertools
import math
import os
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


def _subsample_sorted(x: np.ndarray, m: int) -> np.ndarray:
    """Evenly spaced order statistics of x; deterministic size reduction
    that preserves the quantile structure."""
    xs = np.sort(x)
    if xs.shape[0] == m:
        return xs
    pos = np.linspace(0, xs.shape[0] - 1, m).round().astype(int)
    return xs[pos]


def w2sq_1d(a, b, n_boot: int = DEFAULT_BOOTSTRAP, rng=None) -> DistanceEstimate:
    """Squared W2 between two scalar sample sets via the quantile coupling.

    Unequal sizes are handled by evenly spaced order-statistic subsampling
    of the larger set.  Needs at least 2 samples per side; n_boot = 0 gives no SE (NaN).
    """
    n_boot = _check(n_boot, "count" if n_boot == 0 else "replicates", "n_boot")
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError(f"need >= 2 samples per side, got {a.shape[0]} and {b.shape[0]}")
    m = min(a.shape[0], b.shape[0])
    av = _subsample_sorted(a, m)
    bv = _subsample_sorted(b, m)
    value = float(((av - bv) ** 2).mean())
    if rng is None:
        rng = np.random.default_rng(0)
    if n_boot > 0:
        # resample both sides and re-sort, so the standard error includes
        # the fluctuation of the quantile coupling, not just of the costs
        vals = np.empty(n_boot)
        chunk = max(1, int(2_000_000 // m))
        done = 0
        while done < n_boot:
            c = min(chunk, n_boot - done)
            ra = np.sort(av[rng.integers(0, m, size=(c, m))], axis=1)
            rb = np.sort(bv[rng.integers(0, m, size=(c, m))], axis=1)
            vals[done : done + c] = ((ra - rb) ** 2).mean(axis=1)
            done += c
        se = float(vals.std(ddof=1))
    else:
        se = float("nan")
    return DistanceEstimate(value, "w2sq", (a.shape[0], b.shape[0]), se, "quantile")


def _cost_matrix(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l2":
        return cdist(a, b, "sqeuclidean")
    if norm == "linf":
        return cdist(a, b, "chebyshev") ** 2
    raise ValueError(f"unknown ground norm {norm!r} (use 'l2' or 'linf')")


def _assignment_cost(cost: np.ndarray) -> float:
    """Mean matched cost of the optimal assignment on a square cost matrix."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def w2sq_assignment(
    a, b, norm: str = "l2", n_boot: int = DEFAULT_BOOTSTRAP, rng=None
) -> DistanceEstimate:
    """Exact empirical squared W2 (or squared W2,linf) via optimal assignment.

    Both clouds must have shape (m, k) with k <= 8 and m <= 4096 (subsample
    first if over the caps; the cubic assignment solve dominates otherwise).
    Unequal m: the larger cloud is randomly subsampled without replacement;
    n_boot = 0 gives no SE (NaN).
    """
    n_boot = _check(n_boot, "count" if n_boot == 0 else "replicates", "n_boot")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    k = a.shape[1]
    if k > MAX_ASSIGNMENT_DIM:
        raise ValueError(
            f"k={k} exceeds the assignment cap {MAX_ASSIGNMENT_DIM}; "
            "project or split the coordinates first"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    m = min(a.shape[0], b.shape[0])
    if m > MAX_ASSIGNMENT_SAMPLES:
        raise ValueError(
            f"m={m} exceeds the assignment cap {MAX_ASSIGNMENT_SAMPLES}; subsample first"
        )
    if m < 1:
        raise ValueError("need at least one sample per side")
    if a.shape[0] > m:
        a = a[rng.choice(a.shape[0], size=m, replace=False)]
    if b.shape[0] > m:
        b = b[rng.choice(b.shape[0], size=m, replace=False)]
    metric = "w2sq" if norm == "l2" else "w2sq-linf"
    cost = _cost_matrix(a, b, norm)
    # every replicate's indices first, in the serial order (ia, then ib), so
    # the estimates and the generator's state do not depend on the solve order
    draws = [(rng.integers(0, m, size=m), rng.integers(0, m, size=m)) for _ in range(n_boot)]

    def solve(draw):
        # a replicate's submatrix is built in its worker: at most one per worker is alive
        return _assignment_cost(cost if draw is None else cost[np.ix_(*draw)])

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        entries = list(pool.map(solve, [None, *draws]))
    value = entries[0]
    se = float(np.std(entries[1:], ddof=1)) if n_boot > 0 else float("nan")
    return DistanceEstimate(value, metric, (a.shape[0], b.shape[0]), se, "assignment")


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
    vals = [
        w2sq_gaussian(law_marginal(law_a, u), law_marginal(law_b, u))
        for u in itertools.combinations(range(n), k)
    ]
    lhs = float(np.mean(vals))
    rhs = (k / n) * w2sq_gaussian(law_a, law_b)
    return SubadditivityReport(n, k, lhs, rhs, tolerance=tol, num_subsets=len(vals), exact=True)


def _empirical_subadditivity(a: np.ndarray, b: np.ndarray, k: int, n_boot, rng):
    n = a.shape[1]
    if rng is None:
        rng = np.random.default_rng(0)
    # this is a sanity check, not a precision instrument: every estimate
    # involves assignment re-solves, so work at a fixed modest resolution
    if a.shape[0] > SUBADDITIVITY_MAX_SAMPLES:
        a = a[rng.choice(a.shape[0], SUBADDITIVITY_MAX_SAMPLES, replace=False)]
    if b.shape[0] > SUBADDITIVITY_MAX_SAMPLES:
        b = b[rng.choice(b.shape[0], SUBADDITIVITY_MAX_SAMPLES, replace=False)]
    n_boot = min(n_boot, 32)
    combos = list(itertools.combinations(range(n), k))
    if len(combos) > 64:
        pick = rng.choice(len(combos), size=64, replace=False)
        combos = [combos[i] for i in sorted(pick)]
    vals, ses = [], []
    for u in combos:
        if k == 1:
            est = w2sq_1d(a[:, u[0]], b[:, u[0]], n_boot=n_boot, rng=rng)
        else:
            est = w2sq_assignment(a[:, u], b[:, u], n_boot=n_boot, rng=rng)
        vals.append(est.value)
        ses.append(est.standard_error)
    lhs = float(np.mean(vals))
    lhs_se = float(np.sqrt(np.sum(np.square(ses))) / len(vals))
    full = w2sq_assignment(a, b, n_boot=n_boot, rng=rng)
    rhs = (k / n) * full.value
    rhs_se = (k / n) * full.standard_error
    tol = _SUBADDITIVITY_SE * math.hypot(lhs_se, rhs_se)
    return SubadditivityReport(n, k, lhs, rhs, tolerance=tol, num_subsets=len(combos), exact=False)


def subadditivity_check(
    full_a, full_b, k: int, tol: float = 1e-9, n_boot: int = DEFAULT_BOOTSTRAP, rng=None
) -> SubadditivityReport:
    """Exact path for a pair of GaussianLaw (all (n choose k) subsets,
    n <= 10, slack tolerance `tol`); empirical path for a pair of sample
    arrays (all subsets, or 64 of them drawn from rng; 3-combined-SE
    tolerance).  The empirical path subsamples to 512 points per side and
    at most 32 bootstrap replicates: it flags gross violations, nothing
    finer."""
    k = _check(k, "positive-integer", "k")
    if isinstance(full_a, GaussianLaw) and isinstance(full_b, GaussianLaw):
        if full_a.dim != full_b.dim:
            raise ValueError("laws must share a dimension")
        if k > full_a.dim:
            raise ValueError(f"k={k} exceeds dimension {full_a.dim}")
        return _exact_subadditivity(full_a, full_b, k, tol)
    a = np.atleast_2d(np.asarray(full_a, dtype=float))
    b = np.atleast_2d(np.asarray(full_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample arrays must share a dimension")
    if k > a.shape[1]:
        raise ValueError(f"k={k} exceeds dimension {a.shape[1]}")
    n_boot = _check(n_boot, "replicates", "n_boot")  # its tolerance is in standard errors
    return _empirical_subadditivity(a, b, k, n_boot, rng)
