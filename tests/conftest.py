import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
