"""Empirical transport distances between sample clouds.

Only W2-type distances are estimated from samples; KL never is.  The 1D
estimator is the exact quantile coupling (sorted order statistics); the
multivariate estimator solves the exact assignment problem between two
equal-size clouds, under squared-l2 or squared-linf ground cost.

Standard errors come from a bootstrap (default 200 resamples): the 1D
estimator resamples both sides and couples the sorted resamples, so the
variability of the coupling itself is captured; the assignment estimator
re-solves on index-resampled clouds.  Both sides of the 1D estimator are
sorted, so a sorted resample is the side at its sorted drawn indices: the
draws are made in order, block by block, and each block's indices are
sorted as small integers and costed on a thread pool with a worker per CPU.
Every sample cloud is read by one rule: a numeric array, 1-D for m samples
of one coordinate or 2-D of shape (m, k); any other shape, an empty cloud
or a NaN or infinite entry is a ValueError that names the cloud.  The 1D
estimator takes k = 1 only.

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

import collections
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
# The quantile bootstrap draws at most this many indices per rng.integers call, and
# gathers rows this many samples at a time, so each gathered slice is 512 KB.
_DRAW_ELEMENTS = 2_000_000
_SLICE_ELEMENTS = 1 << 16


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
    return _quantile(a[:, 0], b[:, 0], n_boot, np.random.default_rng(0) if rng is None else rng)


def _quantile(a: np.ndarray, b: np.ndarray, n_boot: int, rng) -> DistanceEstimate:
    """The quantile-coupling estimate of w2sq_1d between two read clouds of shape (m,)."""
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError(f"need >= 2 samples per side, got {a.shape[0]} and {b.shape[0]}")
    m = min(a.shape[0], b.shape[0])
    av = _subsample_sorted(a, m)
    bv = _subsample_sorted(b, m)
    value = float(((av - bv) ** 2).mean())
    se = float("nan") if n_boot == 0 else float(_bootstrap_costs(av, bv, n_boot, rng).std(ddof=1))
    return DistanceEstimate(value, "w2sq", (a.shape[0], b.shape[0]), se, "quantile")


def _workers(tasks: int) -> int:
    """Threads for `tasks` independent tasks: one per CPU the process may use, at most."""
    return min(len(os.sched_getaffinity(0)), tasks)


def _bootstrap_costs(av: np.ndarray, bv: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The coupling's cost on each of n_boot resamples of both sorted sides, re-sorted,
    so the standard error includes the fluctuation of the coupling, not just of the costs.

    The draws are serial: blocks of up to _DRAW_ELEMENTS indices per side, a then b.  A
    side is sorted, so its resample sorted is the side at the sorted drawn indices; a
    block's indices are sorted in the narrowest integer type that holds them.  The blocks
    are costed on a pool with a worker per CPU, at most that many blocks ahead of the
    draws."""
    m = av.shape[0]
    index = np.min_scalar_type(m - 1)
    step = max(1, _SLICE_ELEMENTS // m)  # rows gathered at once

    def costs(ia, ib, out):
        ia.sort(axis=1)
        ib.sort(axis=1)
        for r in range(0, out.shape[0], step):
            d = av.take(ia[r : r + step])  # from small integers, take gathers faster than av[...]
            d -= bv.take(ib[r : r + step])
            d *= d
            out[r : r + step] = d.mean(axis=1)

    vals = np.empty(n_boot)
    rows = max(1, _DRAW_ELEMENTS // m)
    blocks = [vals[done : done + rows] for done in range(0, n_boot, rows)]

    workers = _workers(len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        running = collections.deque()
        for out in blocks:
            ia, ib = (rng.integers(0, m, size=(out.shape[0], m)).astype(index) for _ in "ab")
            if len(running) == workers:
                running.popleft().result()
            running.append(pool.submit(costs, ia, ib, out))
        for task in running:
            task.result()
    return vals


_METRICS = {"l2": "sqeuclidean", "linf": "chebyshev"}  # linf's is squared after cdist


def _assignment_size(a: np.ndarray, b: np.ndarray, norm: str) -> int:
    """m of an assignment estimate between two read clouds of one k, by the norm and caps."""
    if norm not in _METRICS:
        raise ValueError(f"unknown ground norm {norm!r} (use 'l2' or 'linf')")
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
    return m


def _fill_cost(x: np.ndarray, y: np.ndarray, norm: str, out: np.ndarray) -> np.ndarray:
    cdist(x, y, _METRICS[norm], out=out)
    return np.square(out, out=out) if norm == "linf" else out


def _assignment_batch(problems) -> list[DistanceEstimate]:
    """One estimate per (a, b, norm, n_boot, rng) problem, its clouds and n_boot read.

    Every problem is checked, then every draw is made, problem by problem in
    the serial order: the larger cloud's subsample, then ia and ib for each
    replicate.  So each generator ends where one call per problem leaves it.
    Then every solve of every problem runs on one pool, largest m first."""
    sizes = [_assignment_size(a, b, norm) for a, b, norm, _, _ in problems]
    tasks = []  # (problem, slot: 0 for the full sample, r for replicate r, x, y, norm, draw)
    for p, (m, (a, b, norm, n_boot, rng)) in enumerate(zip(sizes, problems)):
        a, b = _rows(a, m, rng), _rows(b, m, rng)
        draws = [(rng.integers(0, m, size=m), rng.integers(0, m, size=m)) for _ in range(n_boot)]
        tasks += [(p, r, a, b, norm, draw) for r, draw in enumerate([None, *draws])]
    tasks.sort(key=lambda t: -t[2].shape[0])
    m_max = tasks[0][2].shape[0]
    # a cost buffer per worker, made here: no more solves run at once than there are buffers
    workers = _workers(len(tasks))
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
        for m, (_, _, norm, n_boot, _), values in zip(sizes, problems, entries)
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
    a, b = _cloud(a, "a"), _cloud(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
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
        ests, pairs = [_quantile(a[:, u[0]], b[:, u[0]], n_boot, rng) for u in combos], []
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
