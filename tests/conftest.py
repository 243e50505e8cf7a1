import json
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from deloc import _poisson
from deloc.subsets import as_mask


def finite_difference_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def brute_force_value(pot, x):
    """Potential value summed term by term, no fast path."""
    return sum(t.value(np.asarray(x)[list(t.support)]) for t in pot.terms)


def brute_force_gradient(pot, x):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for t in pot.terms:
        idx = list(t.support)
        g[idx] += t.grad(x[idx])
    return g


def tridiagonal_precision(n, diag=2.0, off=-0.5):
    """The dense n x n matrix with diag on the diagonal and off beside it."""
    A = np.zeros((n, n))
    np.fill_diagonal(A, diag)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = off
    A[idx + 1, idx] = off
    return A


def dense_term_order_sum(n, terms):
    """x'Ax/2 = sum of the quadratic terms as a dense array, each block added
    in term order: the loop that quadratic_matrix must match bit for bit."""
    A = np.zeros((n, n))
    for t in terms:
        idx = np.asarray(t.support)
        A[np.ix_(idx, idx)] += t.matrix
    return A


def bfs_neighborhood(edges, n, u, k):
    """Reference k-step neighborhood via an adjacency-set BFS."""
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    cur = set(u)
    for _ in range(k):
        cur = cur | {j for i in cur for j in adj[i]}
    return frozenset(cur)


def neighborhood_mask(graph, u, k):
    """N_k(u) as a bitmask, read off the graph's stabilizing chain."""
    chain = graph.chain(u)
    return chain[min(k, len(chain) - 1)]


def shift_kernel_rows(mu, J):
    """The rows of the Poisson shift kernel, one at a time: row m is zero before m and
    the law of min(Lambda, J - m), stopped_weights(mu, J - m), from m on."""
    for m in range(J + 1):
        row = np.zeros(J + 1)
        row[m:] = _poisson.stopped_weights(mu, J - m)
        yield row


# Pointwise forms of the subset generators, the reference that the array
# operators of deloc.hierarchy are checked against:
#   sparse  (N F)(u) = F(N_1(u)),  (A F)(u) = rate (F(N_1(u)) - F(u))
#   weak    (N F)(u) = sum_{w cap u != 0} L_w F(w),
#           (A F)(u) = rate_factor sum_{w cap u != 0} L_w (F(w | u) - F(u))


def apply_n_sparse(graph, F, u):
    return F(neighborhood_mask(graph, as_mask(u, graph.n), 1))


def apply_a_sparse(gen, F, u):
    m = as_mask(u, gen.graph.n)
    return gen.rate * (F(neighborhood_mask(gen.graph, m, 1)) - F(m))


def apply_n_weak(weights, F, u):
    m = as_mask(u)
    return sum(L * F(w) for w, L in weights if w & m)


def apply_a_weak(gen, F, u):
    m = as_mask(u)
    return gen.rate_factor * sum(L * (F(w | m) - F(m)) for w, L in gen.weights if w & m)


def commutation_residual_sparse(gen, F, u):
    """|ANF(u) - NAF(u)|; identically zero because N_1(N_1(u)) is all that
    either order evaluates."""
    AN = apply_a_sparse(gen, lambda v: apply_n_sparse(gen.graph, F, v), u)
    NA = apply_n_sparse(gen.graph, lambda v: apply_a_sparse(gen, F, v), u)
    return abs(AN - NA)


def commutation_residual_weak(gen, F, u):
    """|ANF(u) - NAF(u)| for the weak operators; generally nonzero."""
    AN = apply_a_weak(gen, lambda v: apply_n_weak(gen.weights, F, v), u)
    NA = apply_n_weak(gen.weights, lambda v: apply_a_weak(gen, F, v), u)
    return abs(AN - NA)


def weak_lattice_reference(weights, rate_factor, u_mask, seed_supports):
    """Independent BFS closure + dense rate matrix for a weak generator."""
    seeds = [u_mask] + ([w for w, _ in weights] if seed_supports else [])
    states = []
    for s in seeds:
        if s not in states:
            states.append(s)
    frontier = list(states)
    while frontier:
        v = frontier.pop()
        for w, _ in weights:
            if w & v and (v | w) not in states:
                states.append(v | w)
                frontier.append(v | w)
    index = {s: i for i, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))
    for v, i in index.items():
        for w, L in weights:
            if w & v and (v | w) != v:
                Q[i, index[v | w]] += rate_factor * L
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return states, index, Q


def assert_same_potential(a, b):
    """Same n, smoothness values and terms: support, kind, Lipschitz weight
    and matrix, term by term."""
    assert a.n == b.n
    assert vars(a.smoothness) == vars(b.smoothness)
    assert len(a.terms) == len(b.terms)
    for s, t in zip(a.terms, b.terms):
        assert (s.support, s.kind, s.lipschitz) == (t.support, t.kind, t.lipschitz)
        assert (s.matrix is None) == (t.matrix is None)
        if s.matrix is not None:
            assert s.matrix.tobytes() == t.matrix.tobytes()


def serial_w2sq_assignment(a, b, norm, n_boot, rng):
    """(value, SE) of the assignment estimator, solved one replicate after
    another: the larger cloud subsampled without replacement, then for each
    replicate ia, ib drawn and the resampled cost matrix solved."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = min(a.shape[0], b.shape[0])
    if a.shape[0] > m:
        a = a[rng.choice(a.shape[0], size=m, replace=False)]
    if b.shape[0] > m:
        b = b[rng.choice(b.shape[0], size=m, replace=False)]
    cost = cdist(a, b, "sqeuclidean") if norm == "l2" else cdist(a, b, "chebyshev") ** 2
    value = plain_assignment_value(cost)
    if n_boot == 0:
        return value, float("nan")
    boots = np.empty(n_boot)
    for t in range(n_boot):
        ia = rng.integers(0, m, size=m)
        ib = rng.integers(0, m, size=m)
        boots[t] = plain_assignment_value(cost[np.ix_(ia, ib)])
    return value, float(boots.std(ddof=1))


def sorted_values_w2sq_1d(a, b, n_boot, rng):
    """(value, SE) of the quantile estimator with a bootstrap that sorts resampled
    values: each side cut to the smaller size by evenly spaced order statistics, then
    per block of 2_000_000 // m rows, a's indices then b's drawn, the gathered values
    sorted row by row and the rows' mean squared differences taken."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = min(a.size, b.size)
    av, bv = (np.sort(x)[np.linspace(0, x.size - 1, m).round().astype(int)] for x in (a, b))
    value = float(((av - bv) ** 2).mean())
    if n_boot == 0:
        return value, float("nan")
    vals = np.empty(n_boot)
    rows = max(1, 2_000_000 // m)
    for done in range(0, n_boot, rows):
        c = min(rows, n_boot - done)
        ra = np.sort(av[rng.integers(0, m, size=(c, m))], axis=1)
        rb = np.sort(bv[rng.integers(0, m, size=(c, m))], axis=1)
        vals[done : done + c] = ((ra - rb) ** 2).mean(axis=1)
    return value, float(vals.std(ddof=1))


def plain_assignment_value(cost):
    """Mean matched cost of linear_sum_assignment on the unreduced costs, summed
    with math.fsum, so any of several equal-cost optimal matchings gives it."""
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols]) / cost.shape[0]


def random_spd(rng, n, cond_max=50.0):
    """Random SPD matrix with eigenvalues in [1/cond_max, 1] * scale."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(1.0 / cond_max, 1.0, size=n)
    lam[0] = 1.0 / cond_max
    lam[-1] = 1.0
    return (Q * lam) @ Q.T


# Report files formatted one row at a time from rep.rows: the reference that the
# harness writers, which read row blocks, must match byte for byte.


def _reference_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_REPORT_COLUMNS = ("experiment", "n", "h", "subset", "metric", "value", "se", "bound", "theorem",
                   "valid")


def reference_csv(rows) -> str:
    lines = [",".join(_REPORT_COLUMNS)]
    lines += [",".join(_reference_field(getattr(r, c)) for c in _REPORT_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


def reference_gnuplot(rows) -> dict:
    """{metric: the text of its .dat file}."""
    files = {}
    for r in rows:
        fields = (r.n, _reference_field(r.h) or "nan", _reference_field(r.value),
                  _reference_field(r.se) or "nan", _reference_field(r.bound) or "nan")
        files.setdefault(r.metric, ["# n h value se bound\n"]).append(" ".join(map(str, fields)) + "\n")
    return {metric: "".join(lines) for metric, lines in files.items()}


def reference_sidecar(rep) -> str:
    rows = rep.rows
    payload = {
        "config": {k: v for k, v in vars(rep.config).items() if k not in ("output", "_options")},
        "metadata": rep.metadata,
        "num_rows": len(rows),
        "num_failures": sum(r.valid is False for r in rows),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
