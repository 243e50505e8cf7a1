import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from deloc.bounds import (
    DYNAMIC_THEOREMS,
    continuous_time_bound,
    dynamic_bound,
    onestep_linf_bound,
    poisson_moment_bound,
    sparse_exp_constants,
    sparse_poly_constants,
    subgaussian_grad_linf_bound,
    theorem_constants,
    weak_constants,
)
from deloc.graph import InteractionGraph

from conftest import bfs_neighborhood


# ---------------------------------------------------------------- constants

def test_sparse_poly_frozen_values():
    rep = sparse_poly_constants(1.0, 1.0, 1.0, 1.0, 1.0)
    assert rep.valid
    assert rep["C"] == 360.0  # 40 * (8 + 1)
    assert rep["h_star"] == 0.25


def test_sparse_exp_frozen_values():
    rep = sparse_exp_constants(1.0, 1.0, 1.0, 1.0, 1.5)
    assert rep.valid
    assert rep["eta"] == 0.5
    assert rep["C"] == pytest.approx(80.0 * math.exp(0.5), rel=1e-14)
    assert rep["C"] == pytest.approx(131.89770165601027, rel=1e-13)
    assert rep["h_star"] == pytest.approx(0.5**1.5 / 5.0, rel=1e-14)
    assert rep["tau"] == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert rep["r_critical"] == 2.0


def test_weak_frozen_values():
    rep = weak_constants(1.0, 1.0, 2.0, 3.0, 0.25)
    assert rep.valid
    assert rep["eta"] == 0.5
    assert rep["C"] == pytest.approx(480.0 * math.e, rel=1e-14)
    assert rep["C"] == pytest.approx(1304.7752776603415, rel=1e-13)
    assert rep["h_star"] == pytest.approx(0.011785113019775794, rel=1e-13)
    assert rep["tau"] == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_weak_no_second_order_interaction_gives_eta_one():
    rep = weak_constants(1.0, 1.0, 2.0, 3.0, 0.0)
    assert rep.valid
    assert rep["eta"] == 1.0


def test_constants_domain_violations_report_not_raise():
    assert not sparse_poly_constants(-1.0, 1.0, 1.0, 1.0, 1.0).valid
    assert not sparse_poly_constants(2.0, 1.0, 1.0, 1.0, 1.0).valid  # alpha > beta
    assert not sparse_poly_constants(1.0, 1.0, 1.0, 0.5, 1.0).valid  # c < 1
    assert not sparse_poly_constants(1.0, 1.0, 1.0, 1.0, 0.5).valid  # p < 1

    rep = sparse_exp_constants(1.0, 1.0, 1.0, 1.0, 3.0)  # r_critical = 2
    assert not rep.valid
    assert "subcritical" in rep.reason
    assert rep["r_critical"] == 2.0
    assert rep["eta"] <= 0.0

    assert not weak_constants(1.0, 1.0, 2.0, 3.0, -0.1).valid
    rep = weak_constants(1.0, 1.0, 2.0, 3.0, 0.6)  # gamma M0 R1 = 1.2 > alpha^2
    assert not rep.valid
    assert "weak-interaction" in rep.reason


# ------------------------------------------------------------ one-step linf

def test_onestep_formula():
    rep = onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 4)
    assert rep.valid
    expect = 0.1 * math.log(8.0) * (4.0 * 3.0 / 1.5) ** 2
    assert rep["full_linf"] == pytest.approx(expect, rel=1e-14)
    assert rep["bound_value"] == rep["full_linf"]


def test_onestep_has_one_output_shape():
    """usize defaults to 1, so every report holds the marginal bound, 1 * full = full."""
    rep = onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 4)
    assert rep.outputs == onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 4, usize=1).outputs
    assert rep.outputs == dict.fromkeys(("bound_value", "full_linf", "marginal"), rep["full_linf"])
    assert rep.inputs["usize"] == 1


def test_onestep_marginal_scales_with_subset_size():
    full = onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 4)
    rep = onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 4, usize=3)
    assert rep["marginal"] == pytest.approx(3.0 * full["full_linf"], rel=1e-14)
    assert rep["bound_value"] == rep["marginal"]


def test_onestep_preconditions():
    assert not onestep_linf_bound(2.0, 2.5, 3.0, 0.1, 4).valid  # alpha0 >= alpha
    assert not onestep_linf_bound(3.0, 0.5, 3.0, 0.1, 4).valid  # beta <= alpha
    assert not onestep_linf_bound(2.0, -0.1, 3.0, 0.1, 4).valid  # alpha0 < 0
    assert not onestep_linf_bound(2.0, 0.5, 3.0, 0.5, 4).valid  # h > 1/beta
    assert not onestep_linf_bound(2.0, 0.5, 3.0, -0.1, 4).valid
    assert onestep_linf_bound(2.0, 0.5, 3.0, 1.0 / 3.0, 4).valid  # h = 1/beta ok
    with pytest.raises(ValueError):
        onestep_linf_bound(2.0, 0.5, 3.0, 0.1, 0)


def test_theorem_constants_match_direct_routines():
    params = dict(alpha=0.9, beta=1.4, gamma=0.5, c=2.0, p=1.5, r=1.2, M0=1.1, M1=1.9, R1=0.4)
    poly = sparse_poly_constants(0.9, 1.4, 0.5, 2.0, 1.5)
    assert theorem_constants("sparse-poly", params) == poly
    assert theorem_constants("sparse-exp", params) == sparse_exp_constants(0.9, 1.4, 0.5, 2.0, 1.2)
    assert theorem_constants("weak", params) == weak_constants(0.9, 0.5, 1.1, 1.9, 0.4)
    supercritical = sparse_exp_constants(0.9, 1.4, 0.5, 2.0, 3.0)
    assert not supercritical.valid
    assert theorem_constants("sparse-exp", {**params, "r": 3.0}) == supercritical
    with pytest.raises(ValueError, match="unknown theorem"):
        theorem_constants("sparse-dyn-poly", params)


# ------------------------------------------------------------ dynamic decay

def test_dynamic_poly_envelope_components():
    params = dict(alpha=1.0, beta=1.0, gamma=1.0, c=1.0, p=1.0)
    rep = dynamic_bound("sparse-dyn-poly", params, k=0, h=0.1, usize=2, C0=1.0)
    assert rep.valid
    assert rep["transient"] == pytest.approx(4.0)  # 2 c C0 |u| at k = 0
    assert rep["stationary"] == pytest.approx(72.0)  # C h |u| = 360 * 0.1 * 2
    assert rep["bound_value"] == rep["transient"] + rep["stationary"]


def test_dynamic_exp_weak_transients_at_zero():
    pe = dict(alpha=1.0, beta=1.0, gamma=1.0, c=2.0, r=1.25)
    rep = dynamic_bound("sparse-dyn-exp", pe, 0, 0.01, 3, 0.5)
    assert rep.valid
    assert rep["transient"] == pytest.approx(2.0 * 0.5 * 3)  # c C0 |u|
    pw = dict(alpha=1.0, gamma=1.0, M0=2.0, M1=3.0, R1=0.25)
    rep = dynamic_bound("weak-dyn", pw, 0, 0.001, 3, 0.5)
    assert rep.valid
    assert rep["transient"] == pytest.approx(0.5 * 3)  # C0 |u|


def test_dynamic_validity_window():
    params = dict(alpha=1.0, beta=1.0, gamma=1.0, c=1.0, p=1.0)  # h* = 0.25
    assert dynamic_bound("sparse-dyn-poly", params, 10, 0.25, 1, 1.0).valid
    rep = dynamic_bound("sparse-dyn-poly", params, 10, 0.26, 1, 1.0)
    assert not rep.valid
    assert "h*" in rep.reason
    # the envelope is still reported so sweeps can plot through invalid regions
    assert "bound_value" in rep.outputs
    assert not dynamic_bound("sparse-dyn-poly", params, 10, -0.1, 1, 1.0).valid


def test_dynamic_propagates_base_violation():
    pe = dict(alpha=1.0, beta=1.0, gamma=1.0, c=1.0, r=3.0)
    rep = dynamic_bound("sparse-dyn-exp", pe, 5, 0.01, 1, 1.0)
    assert not rep.valid
    assert "subcritical" in rep.reason
    assert "bound_value" not in rep.outputs


def test_dynamic_argument_errors():
    params = dict(alpha=1.0, beta=1.0, gamma=1.0, c=1.0, p=1.0)
    with pytest.raises(ValueError):
        dynamic_bound("no-such-theorem", params, 0, 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        dynamic_bound("sparse-dyn-poly", params, -1, 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        dynamic_bound("sparse-dyn-poly", params, 0, 0.1, 0, 1.0)
    with pytest.raises(ValueError):
        dynamic_bound("sparse-dyn-poly", params, 0, 0.1, 1, -1.0)


# -------------------------------------------------------- continuous time

def star_edges():
    return [(0, 1), (0, 2), (2, 3)]


def test_continuous_time_series_against_direct_sum():
    # independent reference: truncate E H0(N_Lambda(u)) = C0 E |N_Lambda(u)| as a plain
    # Poisson sum over BFS neighbourhoods, no stabilization bookkeeping
    edges = star_edges()
    g = InteractionGraph(5, edges)  # vertex 4 isolated
    alpha, beta, gamma, eps, t, C0 = 0.7, 1.3, 0.9, 0.25, 1.7, 1.3
    for u in [(0,), (3, 4)]:
        rep = continuous_time_bound(g, u, t, eps, alpha, beta, gamma, C0=C0)
        assert rep.valid
        mu = gamma * beta**2 / (2.0 * alpha) * t / eps
        assert rep["poisson_rate"] == pytest.approx(gamma * beta**2 / (2.0 * alpha))
        J = rep["stabilization"]
        ref = sum(
            stats.poisson.pmf(j, mu) * C0 * len(bfs_neighborhood(edges, 5, u, min(j, J)))
            for j in range(200)
        )
        assert rep["series"] == pytest.approx(ref, rel=1e-12)
        value = math.exp(-2.0 * alpha * (1.0 - eps) * t) * ref
        assert rep["bound_value"] == pytest.approx(value, rel=1e-12)


def test_continuous_time_matches_monte_carlo(rng):
    edges = [(i, i + 1) for i in range(5)]
    g = InteractionGraph(6, edges)
    u = (1,)
    alpha, beta, gamma, eps, t, C0 = 1.0, 2.0, 0.5, 0.5, 0.8, 1.0
    rep = continuous_time_bound(g, u, t, eps, alpha, beta, gamma, C0=C0)
    mu = rep["poisson_rate"] * t / eps
    J = rep["stabilization"]
    sizes = np.array(
        [len(bfs_neighborhood(edges, 6, u, j)) for j in range(J + 1)], dtype=float
    )
    draws = rng.poisson(mu, size=1_000_000)
    vals = C0 * sizes[np.minimum(draws, J)]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(rep["series"] - vals.mean()) <= 4.0 * se


def test_continuous_time_at_zero_time_is_initial_entropy():
    g = InteractionGraph(4, [(0, 1), (1, 2), (2, 3)])
    rep = continuous_time_bound(g, (1, 2), 0.0, 0.5, 1.0, 2.0, 1.0, C0=0.3)
    assert rep["bound_value"] == pytest.approx(0.6, rel=1e-14)  # C0 |u|


def test_continuous_time_isolated_vertex_never_grows():
    g = InteractionGraph(5, star_edges())
    rep = continuous_time_bound(g, (4,), 2.0, 0.5, 1.0, 1.0, 1.0, C0=1.0)
    assert rep["stabilization"] == 0
    assert rep["bound_value"] == pytest.approx(math.exp(-2.0 * 0.5 * 2.0), rel=1e-12)


def test_continuous_time_argument_errors():
    g = InteractionGraph(3, [(0, 1), (1, 2)])
    for eps in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            continuous_time_bound(g, (0,), 1.0, eps, 1.0, 1.0, 1.0, C0=1.0)
    with pytest.raises(ValueError):
        continuous_time_bound(g, (0,), -1.0, 0.5, 1.0, 1.0, 1.0, C0=1.0)
    with pytest.raises(ValueError):
        continuous_time_bound(g, (), 1.0, 0.5, 1.0, 1.0, 1.0, C0=1.0)
    with pytest.raises(ValueError):
        continuous_time_bound(g, (0,), 1.0, 0.5, 1.0, 1.0, 1.0, C0=-1.0)
    with pytest.raises(TypeError):
        continuous_time_bound(g, (0,), 1.0, 0.5, 1.0, 1.0, 1.0)  # C0 is required
    rep = continuous_time_bound(g, (0,), 1.0, 0.5, -1.0, 1.0, 1.0, C0=1.0)
    assert not rep.valid  # bad smoothness constants report instead of raising


# ------------------------------------------------- auxiliary scalar bounds

def touchard_moment(mu: float, p: int) -> float:
    """E L^p for L Poisson(mu): the Touchard polynomial sum_k S(p, k) mu^k, with the
    Stirling numbers of the second kind from S(q, k) = k S(q-1, k) + S(q-1, k-1)."""
    S = [1]  # S(0, k) for k = 0 .. 0
    for q in range(1, p + 1):
        S = [k * (S[k] if k < q else 0) + (S[k - 1] if k else 0) for k in range(q + 1)]
    return sum(s * mu**k for k, s in enumerate(S))


def test_touchard_moments_match_the_poisson_law():
    # E L = mu, E L^2 = mu + mu^2, E L^3 = mu + 3 mu^2 + mu^3, and a direct pmf sum to p = 6
    for mu in (0.5, 6.0, 7.0):
        assert touchard_moment(mu, 1) == mu
        assert touchard_moment(mu, 2) == pytest.approx(mu + mu**2, rel=1e-14)
        assert touchard_moment(mu, 3) == pytest.approx(mu + 3.0 * mu**2 + mu**3, rel=1e-14)
        j = np.arange(400)
        for p in range(1, 7):
            direct = float(np.sum(stats.poisson.pmf(j, mu) * j.astype(float) ** p))
            assert touchard_moment(mu, p) == pytest.approx(direct, rel=1e-12)


def test_poisson_moment_bound_dominates_exact_moments():
    for lam, t in [(0.5, 1.0), (2.0, 3.0), (10.0, 0.7)]:
        for p in range(1, 7):
            assert poisson_moment_bound(lam, t, p) >= touchard_moment(lam * t, p)
    assert poisson_moment_bound(2.0, 3.0, 2) == 64.0


def test_poisson_moment_bound_argument_errors():
    with pytest.raises(ValueError):
        poisson_moment_bound(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        poisson_moment_bound(1.0, -1.0, 1)
    with pytest.raises(ValueError):
        poisson_moment_bound(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        poisson_moment_bound(1.0, 1.0, 1.5)


def test_subgaussian_linf_value_and_monte_carlo(rng):
    beta, n = 2.0, 8
    bound = subgaussian_grad_linf_bound(beta, n)
    assert bound == pytest.approx(4.0 * beta * math.log(2.0 * n), rel=1e-14)
    # V = beta |x|^2 / 2, pi = N(0, I/beta): |grad V|_inf^2 = beta max_i z_i^2
    z = rng.standard_normal((100_000, n))
    vals = beta * (z**2).max(axis=1)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() + 4.0 * se <= bound
    with pytest.raises(ValueError):
        subgaussian_grad_linf_bound(0.0, 4)
    with pytest.raises(ValueError):
        subgaussian_grad_linf_bound(1.0, 0)


# ----------------------------------------------------------- property tests

@given(
    alpha=st.floats(0.1, 2.0),
    ratio=st.floats(1.0, 4.0),
    gamma=st.floats(0.1, 3.0),
    r=st.floats(1.0, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_exp_validity_is_exactly_subcriticality(alpha, ratio, gamma, r):
    beta = alpha * ratio
    r_crit = 1.0 + alpha**2 / (gamma * beta**2)
    assume(abs(r - r_crit) > 1e-9 * r_crit)
    rep = sparse_exp_constants(alpha, beta, gamma, 1.0, r)
    assert rep.valid == (r < r_crit)
    if rep.valid:
        assert rep["C"] > 0 and rep["h_star"] > 0 and rep["tau"] > 0


@given(
    theorem=st.sampled_from(("sparse-dyn-exp", "weak-dyn")),
    k=st.integers(0, 100),
    dk=st.integers(1, 100),
)
@settings(max_examples=60, deadline=None)
def test_dynamic_transient_never_increases(theorem, k, dk):
    if theorem == "sparse-dyn-exp":
        params = dict(alpha=1.0, beta=1.2, gamma=0.5, c=2.0, r=1.5)
    else:
        params = dict(alpha=1.0, gamma=0.5, M0=1.5, M1=2.0, R1=0.3)
    h = dynamic_bound(theorem, params, 0, 1.0, 1, 1.0)["h_star"] / 2.0
    a = dynamic_bound(theorem, params, k, h, 2, 0.7)
    b = dynamic_bound(theorem, params, k + dk, h, 2, 0.7)
    assert b["transient"] <= a["transient"] * (1.0 + 1e-12)
    assert a["stationary"] == b["stationary"]
