import importlib
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg, stats

import deloc
from deloc import _poisson, hierarchy, subsets

from deloc.bounds import sparse_exp_constants, sparse_poly_constants, weak_constants
from deloc.graph import InteractionGraph
from deloc.hierarchy import (
    SparseGenerator,
    SparseParams,
    SubsetFunction,
    WeakGenerator,
    WeakParams,
    certified_entropy_curve,
    semigroup_sparse,
    semigroup_weak,
)
from deloc.bounds import continuous_time_bound
from deloc.graph import build_graph
from deloc.potential import (
    chain_pairwise,
    gaussian_potential,
    interaction_constants,
)
from deloc.subsets import as_mask, indices_from, mask_from, size

from conftest import (
    apply_a_sparse,
    apply_a_weak,
    apply_n_sparse,
    apply_n_weak,
    bfs_neighborhood,
    commutation_residual_sparse,
    commutation_residual_weak,
    neighborhood_mask,
    shift_kernel_rows,
    tridiagonal_precision,
    weak_lattice_reference,
)

ONE = SubsetFunction(lambda m: 1.0)


def path_graph(n):
    return InteractionGraph(n, [(i, i + 1) for i in range(n - 1)])


def bfs_mask(edges, n, u_mask, k):
    return mask_from(bfs_neighborhood(edges, n, tuple(i for i in range(n) if u_mask >> i & 1), k))


# ------------------------------------------------------------ subset functions

def test_subset_function_memoizes():
    calls = []
    F = SubsetFunction(lambda m: calls.append(m) or float(m))
    assert F(5) == 5.0
    assert F(5) == 5.0
    assert calls == [5]


def test_subset_function_builders():
    assert SubsetFunction.size()(mask_from((0, 2, 3))) == 3.0


# ----------------------------------------------------------------- generators

def test_generator_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        SparseGenerator(g, -1.0)
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            SparseGenerator.from_params(g, 1.0, 1.0, 1.0, eps)
    gen = SparseGenerator.from_params(g, 1.0, 1.2, 0.8, 0.5)
    assert gen.rate == pytest.approx(0.8 * 1.44 / 0.5)

    with pytest.raises(ValueError):
        WeakGenerator(((0, 1.0),), 1.0)  # empty support
    with pytest.raises(ValueError):
        WeakGenerator(((3, 0.0),), 1.0)  # zero weight
    wgen = WeakGenerator.from_params(((3, 1.0),), 2.0, 1.0, 0.5)  # M0 = 1 from the weights
    assert wgen.rate_factor == pytest.approx(1.0 / (2.0 * 0.5))
    with pytest.raises(ValueError):
        WeakGenerator.from_params(((3, 1.0),), 2.0, 1.0, 1.0)


def test_weak_interaction_constants_hand_example():
    c = interaction_constants([(0,), (0, 1), (1, 2)], [1.0, 2.0, 0.5])
    assert c.M0 == 3.0  # vertex 0 carries 1.0 + 2.0
    assert c.M1 == 5.0  # both 0 and 1 reach 5
    assert c.R1 == 2.5  # vertex 1: 2.0 + 0.5, each support minus one
    zero = interaction_constants([], [])
    assert (zero.M0, zero.M1, zero.R1) == (0.0, 0.0, 0.0)
    single = interaction_constants([(2,)], [4.0])
    assert (single.M0, single.M1, single.R1) == (4.0, 4.0, 0.0)


def test_weights_from_potential_match_interaction_constants():
    # from_params reads the factors with L > 0 of a potential as its weight
    # list, and M0 from the potential's interaction constants
    pot = gaussian_potential(tridiagonal_precision(4, diag=2.0, off=-0.5))
    weights = tuple((mask_from(t.support), t.lipschitz) for t in pot.active_terms)
    a = WeakGenerator.from_params(pot, 2.0, 0.7, 0.4)
    b = WeakGenerator.from_params(weights, 2.0, 0.7, 0.4)
    assert a == b
    assert a.weights == weights
    assert a.rate_factor == 0.7 * pot.interaction_constants.M0 / (2.0 * 0.4)


# ------------------------------------------------------- pointwise operators
# The pointwise forms (conftest) are the reference for the array operators.

def test_sparse_operator_hand_values():
    g = path_graph(5)
    F = SubsetFunction.size()
    assert apply_n_sparse(g, F, (2,)) == 3.0  # N_1({2}) = {1,2,3}
    gen = SparseGenerator(g, 2.0)
    assert apply_a_sparse(gen, F, (2,)) == pytest.approx(2.0 * (3.0 - 1.0))


def test_weak_operator_hand_values():
    weights = ((mask_from((0, 1)), 1.0), (mask_from((1, 2)), 1.0))
    F = SubsetFunction.size()
    assert apply_n_weak(weights, F, (0,)) == 2.0  # only {0,1} intersects
    gen = WeakGenerator(weights, 1.0)
    assert apply_a_weak(gen, F, (0,)) == pytest.approx(1.0)  # |{0,1}| - |{0}|


def test_sparse_operators_commute_on_random_instances(rng):
    # the defining structural fact: both orders evaluate F on N_2(u)
    for _ in range(20):
        n = 8
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        g = InteractionGraph(n, edges)
        gen = SparseGenerator(g, float(rng.uniform(0.1, 3.0)))
        vals = rng.normal(size=1 << n)
        F = SubsetFunction(lambda m, v=vals: float(v[m]))
        k = int(rng.integers(1, n + 1))
        u = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        assert commutation_residual_sparse(gen, F, u) <= 1e-12


def test_weak_operators_do_not_commute():
    # u = {0}: AN sees both factors through N(u) = {0,1}, NA only re-weights
    # the first, so the residual is exactly 1 here
    weights = ((mask_from((0, 1)), 1.0), (mask_from((1, 2)), 1.0))
    gen = WeakGenerator(weights, 1.0)
    res = commutation_residual_weak(gen, SubsetFunction.size(), (0,))
    assert res == pytest.approx(1.0)


def test_array_operators_match_pointwise_reference():
    # N of each curve builder, state by state, and A as the slope of e^{tA} at t = 0
    F = SubsetFunction(lambda m: float(size(m)) ** 2 + 0.25 * m)
    g = InteractionGraph(6, [(i, i + 1) for i in range(5)] + [(0, 3)])
    sp = SparseParams(1.0, 1.2, 0.8, 3.0, p=1.0)
    chain, _, _, N, _, _ = hierarchy._sparse_operators(sp, g, 0.5, 0.01, (1,))
    Nf = N(np.array([F(s) for s in chain]))
    assert Nf.tolist() == [apply_n_sparse(g, F, s) for s in chain]

    weights = ((mask_from((0, 1)), 0.7), (mask_from((1, 2)), 0.4), (mask_from((2, 3)), 1.1))
    M0 = interaction_constants([indices_from(w) for w, _ in weights], [L for _, L in weights]).M0
    wp = WeakParams(2.0, 0.3)
    states, _, _, N, _, _ = hierarchy._weak_operators(wp, weights, M0, 0.5, 0.01, (0,))
    Nf = N(np.array([F(s) for s in states]))
    np.testing.assert_allclose(Nf, [apply_n_weak(weights, F, s) for s in states], rtol=1e-15)

    t = 1e-7
    gen = SparseGenerator.from_params(g, 1.0, 1.2, 0.8, 0.5)
    wgen = WeakGenerator(weights, 1.3)
    for u in ((0,), (2, 5)):
        slope = (semigroup_sparse(gen, t, F, u) - F(as_mask(u))) / t
        assert slope == pytest.approx(apply_a_sparse(gen, F, u), rel=1e-5)
    for u in ((0,), (1, 3)):
        slope = (semigroup_weak(wgen, t, F, u) - F(as_mask(u))) / t
        assert slope == pytest.approx(apply_a_weak(wgen, F, u), rel=1e-5)


# -------------------------------------------------------- Poisson chain kernel

MU_GRID = (0.1, 1.0, 3.7, 25.0, 200.0)


@pytest.mark.parametrize("mu", MU_GRID)
def test_poisson_weights_match_scipy_stats(mu):
    J = 40
    w = _poisson.stopped_weights(mu, J)
    np.testing.assert_array_equal(w[:J], stats.poisson.pmf(np.arange(J), mu))
    tails = [_poisson.stopped_weights(mu, s)[s] for s in range(J + 1)]
    assert tails[0] == 1.0
    np.testing.assert_array_equal(tails[1:], stats.poisson.sf(np.arange(J), mu))


@pytest.mark.parametrize("mu", MU_GRID)
def test_uniformization_truncation_matches_scipy_stats(mu):
    tol = 1e-12
    pmf = _poisson.truncated_pmf(mu, tol)
    M = pmf.shape[0] - 1
    assert M == int(stats.poisson.isf(tol, mu)) + 1
    assert stats.poisson.sf(M - 1, mu) <= tol
    assert M == 1 or stats.poisson.sf(M - 2, mu) > tol
    np.testing.assert_array_equal(pmf, stats.poisson.pmf(np.arange(M + 1), mu))


def test_poisson_kernel_edge_cases():
    # mu = 0: Lambda = 0 surely, so nothing moves along the chain
    np.testing.assert_array_equal(_poisson.stopped_weights(0.0, 3), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(_poisson.shift_kernel(0.0, 3), np.eye(4))
    np.testing.assert_array_equal(_poisson.truncated_pmf(0.0, 1e-12), [1.0, 0.0])
    # J = 0: the chain has stabilized at u, all mass sits on it
    for mu in (0.0, 0.5, 30.0):
        np.testing.assert_array_equal(_poisson.stopped_weights(mu, 0), [1.0])
        np.testing.assert_array_equal(_poisson.shift_kernel(mu, 0), [[1.0]])


def test_shift_kernel_matches_per_row_series(rng):
    for mu, J in ((0.3, 1), (1.7, 6), (12.0, 25)):
        K = _poisson.shift_kernel(mu, J)
        v = rng.uniform(0.0, 5.0, J + 1)
        want = np.empty(J + 1)
        for m in range(J + 1):
            span = J - m
            acc = float(stats.poisson.pmf(np.arange(span), mu) @ v[m:J]) if span else 0.0
            want[m] = acc + float(stats.poisson.sf(span - 1, mu)) * v[J]
        np.testing.assert_allclose(K @ v, want, rtol=1e-14)
        np.testing.assert_allclose(K.sum(axis=1), 1.0, rtol=1e-14)
        assert np.all(np.tril(K, -1) == 0.0)


@pytest.mark.parametrize("mu", (0.0, 0.05, 0.17, 1.3, 7.0))
def test_shift_kernel_equals_its_per_row_laws_bit_for_bit(mu):
    """One law and one tail vector give every row as each row's own stopped law does."""
    for J in (0, 1, 5, 31, 4095):
        K = _poisson.shift_kernel(mu, J)
        rows = shift_kernel_rows(mu, J)
        assert all(K[m].tobytes() == row.tobytes() for m, row in enumerate(rows))


def test_a_shift_kernel_reads_one_law():
    """A J = 4095 kernel adds one entry to the weights' cache, not one per row."""
    misses = _poisson.stopped_weights.cache_info().misses
    _poisson.shift_kernel(0.83, 4095)
    assert _poisson.stopped_weights.cache_info().misses - misses <= 1


def test_poisson_kernel_is_cached_and_read_only():
    """The Poisson weights are cached and read-only; the shift kernel is not cached."""
    for weights in (lambda: _poisson.stopped_weights(2.5, 7),
                    lambda: _poisson.truncated_pmf(2.5, 1e-12)):
        a = weights()
        assert weights() is a
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_sparse_curves_leave_no_kernel_allocated():
    """A curve holds its (J+1) x (J+1) kernel for its k steps only: three curves on a
    512-vertex path, J = 511, 411 and 311, leave no block of a kernel's size behind."""
    n = 512
    graph = InteractionGraph(n, [(i, i + 1) for i in range(n - 1)])
    params = SparseParams(1.0, 1.5, 1.0, 3.0, p=1.0)
    h = params.h_star() / 2.0
    tracemalloc.start()
    try:
        curves = [certified_entropy_curve("sparse", params, graph, SubsetFunction.size(), h, 3,
                                          (v,)) for v in (0, 100, 200)]
        largest = max(t.size for t in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert all(curve.shape == (4,) for curve in curves)
    assert largest < 8 * 312**2  # the smallest kernel, J = 311


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, deloc; print('scipy.stats' in sys.modules)"
    src = str(Path(deloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "False"


def test_public_names_resolve():
    # a stale __all__ entry breaks only `from deloc.<module> import *`
    for info in pkgutil.iter_modules(deloc.__path__):
        module = importlib.import_module(f"deloc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"deloc.{info.name}.__all__ lists missing {name!r}"
    for name in ("weights_from_potential", "weak_interaction_constants", "certified_entropy_trajectory"):
        assert not hasattr(deloc, name)
        assert not hasattr(deloc.hierarchy, name)
    assert not hasattr(deloc.PairwiseSpec, "interaction_constants")
    for owner, name in (
        (deloc.sampler, "lmc_step"),
        (deloc.graph, "union_growth_bound"),
        (deloc.InteractionGraph, "adjacency"),
        (deloc.InteractionGraph, "neighborhood"),
        (deloc.StructuredPotential, "partial_gradient"),
        (deloc.SubsetFunction, "from_indices"),
        (deloc.SubsetFunction, "constant"),
        (deloc.sampler, "load_store"),
        (deloc.SampleStore, "save"),
        (deloc.SampleStore, "save_csv"),
        (deloc.StructuredPotential, "content_hash"),
        (deloc.potential, "potential_to_dict"),
        (deloc.InteractionGraph, "export_edge_list"),
        (deloc.InteractionGraph, "neighborhood_mask"),
        (deloc.hierarchy, "apply_a_sparse"),
        (deloc.hierarchy, "apply_n_weak"),
        (deloc.hierarchy, "commutation_residual_sparse"),
        (deloc.hierarchy, "commutation_residual_weak"),
        (deloc.SparseParams, "resolved_epsilon"),
        (deloc.WeakParams, "resolved_epsilon"),
        (deloc.harness, "fit_scaling_rows"),
    ):
        assert not hasattr(owner, name)
        assert not hasattr(deloc, name)


# ------------------------------------------------------------------ semigroups

def test_sparse_semigroup_at_zero_time_and_conservation():
    g = path_graph(6)
    gen = SparseGenerator(g, 1.7)
    F = SubsetFunction.size()
    assert semigroup_sparse(gen, 0.0, F, (1,)) == F(as_mask((1,)))
    for t in (0.0, 0.3, 1.0, 4.0):
        assert semigroup_sparse(gen, t, ONE, (2,)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        semigroup_sparse(gen, -0.1, F, (1,))
    with pytest.raises(ValueError, match="subset must be nonempty"):
        semigroup_sparse(gen, 0.5, F, ())


def test_sparse_semigroup_matches_monte_carlo(rng):
    edges = [(i, i + 1) for i in range(5)]
    g = InteractionGraph(6, edges)
    gen = SparseGenerator.from_params(g, 1.0, 1.2, 0.8, 0.5)
    u, t = (1,), 0.5
    F = SubsetFunction.size()
    out = semigroup_sparse(gen, t, F, u)

    J = len(g.chain(u)) - 1
    sizes = np.array(
        [len(bfs_neighborhood(edges, 6, u, j)) for j in range(J + 1)], dtype=float
    )
    draws = rng.poisson(gen.rate * t, size=1_000_000)
    vals = sizes[np.minimum(draws, J)]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(out - vals.mean()) <= 3.0 * se


def test_weak_semigroup_matches_dense_expm():
    weights = (
        (mask_from((0, 1)), 0.7),
        (mask_from((1, 2)), 0.4),
        (mask_from((2, 3)), 1.1),
        (mask_from((0, 3)), 0.9),
    )
    gen = WeakGenerator(weights, 1.3)
    F = SubsetFunction(lambda m: float(size(m)) ** 2 + 0.25 * m)
    for u in ((0,), (1, 3)):
        u_mask = mask_from(u)
        states, index, Q = weak_lattice_reference(weights, 1.3, u_mask, False)
        assert len(states) <= 32
        f = np.array([F(s) for s in states])
        for t in (0.0, 0.2, 0.9, 2.5):
            ref = float((linalg.expm(t * Q) @ f)[index[u_mask]])
            assert semigroup_weak(gen, t, F, u) == pytest.approx(ref, abs=1e-9)


def test_weak_semigroup_conserves_constants_and_validates(monkeypatch):
    weights = ((mask_from((0, 1)), 0.7), (mask_from((1, 2)), 0.4))
    gen = WeakGenerator(weights, 1.3)
    for t in (0.0, 0.5, 3.0):
        assert semigroup_weak(gen, t, ONE, (0,)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        semigroup_weak(gen, -1.0, ONE, (0,))
    # a chain of supports grows the reachable lattice past a tiny cap
    chain = tuple((mask_from((i, i + 1)), 1.0) for i in range(12))
    cgen = WeakGenerator(chain, 1.0)
    monkeypatch.setattr(deloc.hierarchy, "MAX_WEAK_STATES", 4)
    with pytest.raises(ValueError, match="exceeds 4 states"):
        semigroup_weak(cgen, 1.0, ONE, (0,))


# ------------------------------------------------------------------ parameters

def test_sparse_params_validation():
    with pytest.raises(ValueError):
        SparseParams(1.0, 1.0, 1.0, 1.0, p=1.0, r=2.0)
    with pytest.raises(ValueError):
        SparseParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SparseParams(1.0, 0.5, 1.0, 1.0, p=1.0)  # beta < alpha
    with pytest.raises(ValueError):
        SparseParams(1.0, 1.0, 1.0, 0.5, p=1.0)  # c < 1
    with pytest.raises(ValueError):
        SparseParams(1.0, 1.0, 1.0, 1.0, p=1.0, epsilon=1.5)
    assert SparseParams(1.0, 1.0, 1.0, 1.0, p=1.0).mode == "polynomial"
    assert SparseParams(1.0, 1.0, 1.0, 1.0, r=1.5).mode == "exponential"


def test_sparse_params_epsilon_and_h_star_match_constants():
    poly = SparseParams(1.0, 1.3, 0.8, 3.0, p=1.0)
    assert hierarchy._resolve(poly.constants(), poly.epsilon)[1] == 0.5
    assert poly.h_star() == sparse_poly_constants(1.0, 1.3, 0.8, 3.0, 1.0)["h_star"]

    ex = SparseParams(1.0, 1.0, 1.0, 1.0, r=1.5)
    # midpoint toward 1
    assert hierarchy._resolve(ex.constants(), ex.epsilon)[1] == pytest.approx(0.75)
    assert ex.h_star() == sparse_exp_constants(1.0, 1.0, 1.0, 1.0, 1.5)["h_star"]

    with pytest.raises(ValueError):
        bad = SparseParams(1.0, 1.0, 1.0, 1.0, r=2.0)
        hierarchy._resolve(bad.constants(), bad.epsilon)[1]
    with pytest.raises(ValueError):
        SparseParams(1.0, 1.0, 1.0, 1.0, r=3.0).h_star()


def test_weak_params_validation_and_h_star():
    with pytest.raises(ValueError):
        WeakParams(0.0, 1.0)
    with pytest.raises(ValueError):
        WeakParams(1.0, 1.0, epsilon=0.0)
    wp = WeakParams(2.0, 1.0)
    eps = hierarchy._resolve(wp.constants(1.0, 2.0, 1.0), wp.epsilon)[1]
    assert eps == pytest.approx(0.5 + 1.0 / 8.0)
    assert wp.h_star(1.0, 2.0, 1.0) == weak_constants(2.0, 1.0, 1.0, 2.0, 1.0)["h_star"]
    with pytest.raises(ValueError):
        bad = WeakParams(1.0, 1.0)  # gamma M0 R1 >= alpha^2
        hierarchy._resolve(bad.constants(2.0, 3.0, 1.0), bad.epsilon)[1]
    with pytest.raises(ValueError):
        WeakParams(1.0, 1.0).h_star(2.0, 3.0, 1.0)


def test_default_epsilon_is_one_minus_half_eta():
    # the midpoint of (1 - eta, 1), with the eta of the matching theorem
    ex = SparseParams(1.0, 1.2, 0.7, 2.0, r=1.3)
    eta = sparse_exp_constants(1.0, 1.2, 0.7, 2.0, 1.3)["eta"]
    eps = hierarchy._resolve(ex.constants(), ex.epsilon)[1]
    assert eps == pytest.approx(1.0 - eta / 2.0, rel=1e-15, abs=0)
    eta = weak_constants(2.0, 0.6, 1.5, 2.5, 0.8)["eta"]
    wp = WeakParams(2.0, 0.6)
    eps = hierarchy._resolve(wp.constants(1.5, 2.5, 0.8), wp.epsilon)[1]
    assert eps == pytest.approx(1.0 - eta / 2.0, rel=1e-15, abs=0)


# ---------------------------------------------------------- certified curves

def test_certified_curve_argument_errors():
    g = path_graph(4)
    params = SparseParams(1.0, 1.2, 0.8, 3.0, p=1.0)
    H0 = SubsetFunction.size()
    with pytest.raises(ValueError):
        certified_entropy_curve("sparse", params, g, H0, params.h_star() * 1.01, 5, (1,))
    with pytest.raises(ValueError):
        certified_entropy_curve("sparse", params, g, H0, -0.01, 5, (1,))
    with pytest.raises(ValueError):
        certified_entropy_curve("sparse", params, g, H0, 0.01, -1, (1,))
    with pytest.raises(ValueError):
        certified_entropy_curve("generic", params, g, H0, 0.01, 5, (1,))
    with pytest.raises(ValueError):
        certified_entropy_curve("weak", WeakParams(2.0, 1.0), (), H0, 0.01, 5, (1,))
    with pytest.raises(ValueError, match="subset must be nonempty"):
        certified_entropy_curve("sparse", params, g, H0, 0.01, 5, ())


@pytest.mark.parametrize(
    "params",
    [SparseParams(1.0, 1.2, 0.8, 3.0, p=1.0), SparseParams(1.0, 1.2, 0.5, 2.0, r=1.1)],
    ids=["polynomial", "exponential"],
)
def test_certified_sparse_matches_dense_operator_reference(params):
    # rebuild the iteration over the full 2^n subset lattice with dense
    # matrices and scipy.expm; the chain recursion must agree, which also
    # checks the (B e^{hA})^k = B^k e^{khA} commutation collapse
    n = 4
    edges = [(0, 1), (1, 2), (2, 3)]
    g = InteractionGraph(n, edges)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    h = params.h_star() / 2.0
    C0, u, k_max = 0.8, (1,), 15
    H0 = SubsetFunction(lambda m: C0 * size(m))
    curve = certified_entropy_curve("sparse", params, g, H0, h, k_max, u)

    eps = hierarchy._resolve(params.constants(), params.epsilon)[1]
    lam = gamma * beta**2 / (alpha * eps)
    nmask = 1 << n
    N1 = np.zeros((nmask, nmask))
    N2 = np.zeros((nmask, nmask))
    for v in range(nmask):
        N1[v, bfs_mask(edges, n, v, 1)] = 1.0
        N2[v, bfs_mask(edges, n, v, 2)] = 1.0
    A = lam * (N1 - np.eye(nmask))
    a = math.exp(-alpha * h)
    q = (2.0 * beta**4 * h**2 / (alpha**2 * (1.0 - eps))) * (1.0 - a)
    B = a * np.eye(nmask) + q * N2
    coeff = (1.0 - a) / alpha
    sizes = np.array([float(size(v)) for v in range(nmask)])
    h0 = C0 * sizes
    gvec = (beta**2 * h / (1.0 - eps)) * (beta * h + 1.0) * sizes
    ng = N1 @ gvec

    iu = mask_from(u)
    assert curve[0] == pytest.approx(h0[iu], rel=1e-12)
    for k in range(1, k_max + 1):
        term1 = np.linalg.matrix_power(B, k) @ linalg.expm(k * h * A) @ h0
        term2 = sum(
            np.linalg.matrix_power(B, j - 1) @ linalg.expm(j * h * A) @ ng
            for j in range(1, k + 1)
        )
        ref = term1[iu] + coeff * term2[iu]
        assert curve[k] == pytest.approx(ref, rel=1e-9)


def test_certified_weak_matches_dense_operator_reference():
    weights = ((mask_from((0, 1)), 0.6), (mask_from((1, 2)), 0.4))
    alpha, gamma = 2.0, 1.0
    params = WeakParams(alpha, gamma)
    c = interaction_constants([indices_from(w) for w, _ in weights], [L for _, L in weights])
    M0, M1, R1 = c.M0, c.M1, c.R1
    h = params.h_star(M0, M1, R1) / 2.0
    u, k_max = (0,), 10
    H0 = SubsetFunction(lambda m: 0.7 * size(m))
    curve = certified_entropy_curve("weak", params, weights, H0, h, k_max, u)

    eps = hierarchy._resolve(params.constants(M0, M1, R1), params.epsilon)[1]
    rate_factor = gamma * M0 / (alpha * eps)
    u_mask = mask_from(u)
    states, index, Q = weak_lattice_reference(weights, rate_factor, u_mask, True)
    Ed = linalg.expm(h * Q)
    nstates = len(states)
    Nm = np.zeros((nstates, nstates))
    for v, i in index.items():
        for w, L in weights:
            if w & v:
                Nm[i, index[w]] += L
    a = math.exp(-alpha * h)
    q = (2.0 * h**2 * M0**2 / (alpha**2 * (1.0 - eps))) * (1.0 - a)
    coeff = (1.0 - a) / alpha
    sizes = np.array([float(size(s)) for s in states])
    ns = Nm @ sizes
    gvec = (h * M0 / (1.0 - eps)) * ((M0 / alpha) * h * (Nm @ ns) + ns)
    h0 = np.array([0.7 * size(s) for s in states])

    iu = index[u_mask]
    assert curve[0] == pytest.approx(h0[iu], rel=1e-12)
    w, y, acc2 = h0.copy(), None, 0.0
    for k in range(1, k_max + 1):
        w = Ed @ (a * w + q * (Nm @ (Nm @ w)))
        y = Ed @ gvec if y is None else Ed @ (a * y + q * (Nm @ (Nm @ y)))
        acc2 += y[iu]
        assert curve[k] == pytest.approx(w[iu] + coeff * acc2, rel=1e-9)


def test_certified_weak_accepts_potential_or_weights():
    pot = gaussian_potential(tridiagonal_precision(4, diag=2.0, off=-0.5))
    params = WeakParams(2.0, 0.3)
    consts = pot.interaction_constants
    h = params.h_star(consts.M0, consts.M1, consts.R1) / 2.0
    H0 = SubsetFunction.size()
    a = certified_entropy_curve("weak", params, pot, H0, h, 5, (1,))
    weights = tuple((mask_from(t.support), t.lipschitz) for t in pot.active_terms)
    b = certified_entropy_curve("weak", params, weights, H0, h, 5, (1,))
    assert np.array_equal(a, b)


# ----------------------------------------------------------- property tests

@given(seed=st.integers(0, 10_000), t=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_sparse_semigroup_stays_in_chain_range(seed, t):
    rng = np.random.default_rng(seed)
    n = 6
    g = InteractionGraph(n, [(i, i + 1) for i in range(5)] + [(0, 3)])
    gen = SparseGenerator(g, 1.7)
    vals = rng.normal(size=1 << n)
    F = SubsetFunction(lambda m: float(vals[m]))
    u = (int(rng.integers(0, n)),)
    out = semigroup_sparse(gen, t, F, u)
    m = as_mask(u, n)
    chain = [
        F(neighborhood_mask(g, m, j)) for j in range(len(g.chain(m)))
    ]
    assert min(chain) - 1e-12 <= out <= max(chain) + 1e-12


@given(t=st.floats(0.0, 4.0), vertex=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_weak_semigroup_conserves_constants_property(t, vertex):
    weights = (
        (mask_from((0, 1)), 0.7),
        (mask_from((1, 2)), 0.4),
        (mask_from((2, 3)), 1.1),
    )
    gen = WeakGenerator(weights, 1.3)
    out = semigroup_weak(gen, t, ONE, (vertex,))
    assert out == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- golden values
# Recorded before the semigroups, the continuous-time bound and the curve
# builders were made to share one chain series and one uniformization
# builder; every value must stay bit for bit.

GOLDEN_GRAPH = InteractionGraph(6, [(i, i + 1) for i in range(5)] + [(0, 3)])
GOLDEN_WEIGHTS = (
    (mask_from((0, 1)), 0.7),
    (mask_from((1, 2)), 0.4),
    (mask_from((2, 3)), 1.1),
    (mask_from((0, 3)), 0.9),
)


def golden_f():
    return SubsetFunction(lambda m: float(size(m)) ** 2 + 0.25 * m)


def test_semigroups_are_bit_identical_to_recorded_values():
    gen = SparseGenerator.from_params(GOLDEN_GRAPH, 1.0, 1.2, 0.8, 0.5)
    F = golden_f()
    points = ((0.0, (1,)), (0.5, (1,)), (2.0, (0, 4)), (7.5, (5,)))
    got = [semigroup_sparse(gen, t, F, u) for t, u in points]
    assert got == [1.5, 12.705497023597774, 50.76483179106345, 51.74953559521677]
    wgen = WeakGenerator(GOLDEN_WEIGHTS, 1.3)
    points = ((0.0, (0,)), (0.2, (0,)), (0.9, (1, 3)), (2.5, (1, 3)))
    got = [semigroup_weak(wgen, t, F, u) for t, u in points]
    assert got == [1.25, 3.1886491695101693, 17.304769778107094, 19.649008393172398]
    assert semigroup_weak(WeakGenerator(GOLDEN_WEIGHTS, 0.0), 1.0, F, (0,)) == 1.25


def test_continuous_time_series_is_bit_identical_to_recorded_values():
    graph = build_graph(chain_pairwise(8))
    series = [
        continuous_time_bound(graph, (3,), t, 0.5, 1.0, 1.5, 0.8, C0=0.7)["series"]
        for t in (0.0, 0.5, 2.0)
    ]
    assert series == [0.7, 1.9467479939178594, 4.601285156084521]
    rep = continuous_time_bound(graph, (3, 4), 1.0, 0.4, 1.0, 1.5, 0.8, H0=golden_f())
    assert rep["series"] == 76.32094243390344


def test_certified_curves_are_bit_identical_to_recorded_values():
    sp = SparseParams(1.0, 1.2, 0.8, 3.0, p=1.0)
    h = sp.h_star() / 2
    curve = certified_entropy_curve("sparse", sp, GOLDEN_GRAPH, golden_f(), h, 8, (2,))
    assert curve.tolist() == [
        2.0,
        2.657939814075532,
        3.315451718873398,
        3.9677720117305317,
        4.610591738711301,
        5.240061636133406,
        5.852787701323774,
        6.445819496016504,
        7.01663294018729,
    ]
    pot = gaussian_potential(tridiagonal_precision(5, 2.0, -0.5))
    wp = WeakParams(2.0, 0.3)
    c = pot.interaction_constants
    h = wp.h_star(c.M0, c.M1, c.R1) / 2
    curve = certified_entropy_curve("weak", wp, pot, golden_f(), h, 8, (1,))
    assert curve.tolist() == GOLDEN_WEAK_CURVE


GOLDEN_WEAK_CURVE = [
    1.5,
    1.5011301645039632,
    1.501649847801716,
    1.5015840765715505,
    1.5009571000741135,
    1.499792411721072,
    1.4981127700774866,
    1.495940219312422,
    1.4932961091119508,
]


def test_a_weak_curve_reads_a_weight_list_once_and_a_potential_not_at_all(monkeypatch):
    """A weight support is read by the subset rule once, where the list enters, and
    u once; a potential's factors read their supports when they were built.  The
    curve used to read a list three times (7 reads for two weights) and a potential's
    supports twice (111 reads for mean_field(10))."""
    pot = gaussian_potential(tridiagonal_precision(5, 2.0, -0.5))
    weights = [(list(t.support), t.lipschitz) for t in pot.active_terms]
    wp = WeakParams(2.0, 0.3)
    c = pot.interaction_constants
    h = wp.h_star(c.M0, c.M1, c.R1) / 2
    reads = []
    read = subsets._subset
    monkeypatch.setattr(subsets, "_subset", lambda u, *a, **k: reads.append(u) or read(u, *a, **k))
    for structure, count in ((weights, len(weights) + 1), (pot, 1)):
        reads.clear()
        curve = certified_entropy_curve("weak", wp, structure, golden_f(), h, 8, (1,))
        assert curve.tolist() == GOLDEN_WEAK_CURVE
        assert len(reads) == count
