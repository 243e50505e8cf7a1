"""Release-gate checks.

Each test pins one headline claim end to end, at fixed tolerances and with
a wall-clock budget, and prints a single PASS/FAIL line.  These are the
checks to run before trusting a new environment or a refactor; the
per-module suites cover the fine-grained behaviour.
"""

import math
import time

import numpy as np
import pytest
from scipy import linalg

from deloc import bounds as bnd
from deloc import hierarchy as hie
from deloc import oracle as orc
from deloc.graph import InteractionGraph, _least_c, build_graph
from deloc.harness import (
    ExperimentConfig,
    delocalization_failure_demo,
    fit_scaling,
    run_experiment,
)
from deloc.potential import gaussian_potential
from deloc.subsets import indices_from, mask_from, size

from conftest import (
    bfs_neighborhood,
    commutation_residual_sparse,
    neighborhood_mask,
    random_spd,
    tridiagonal_precision,
    weak_lattice_reference,
)


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_marginal_bias_is_dimension_free():
    t0 = time.monotonic()
    dims = (16, 64, 256)
    rep = run_experiment(ExperimentConfig("gaussian-scaling", dims=dims, h_values=(0.01,)))
    tops = [rep.select(metric="w2sq-marginal-max", n=n)[0].value for n in dims]
    fulls = [rep.select(metric="w2sq-full", n=n)[0].value for n in dims]
    spread = (max(tops) - min(tops)) / min(tops)
    fit = fit_scaling(dims, fulls)
    el = time.monotonic() - t0
    ok = not rep.failures() and spread < 0.05 and abs(fit.slope - 1.0) <= 0.05 and el < 10.0
    gate(
        "dimension-free marginal bias",
        ok,
        f"max-marginal spread {spread:.3%} over n=16..256, "
        f"full-bias slope {fit.slope:.4f}, {el:.1f}s",
    )


def test_acceptance_marginal_bias_is_dimension_free_up_to_a_million():
    """The default sparse target on the sine basis, in W2 and in KL, n = 10^3 .. 10^6."""
    t0 = time.monotonic()
    dims = (10**3, 10**4, 10**5, 10**6)
    rep = run_experiment(ExperimentConfig("gaussian-scaling", dims=dims, h_values=(0.05,)))
    summary = [f"{m}-{kind}" for m in ("w2sq", "kl") for kind in ("marginal-max", "full")]
    value = {(r.metric, r.n): r.value for m in summary for r in rep.select(metric=m)}
    checks = {}
    for metric in ("w2sq", "kl"):
        tops = [value[f"{metric}-marginal-max", n] for n in dims]
        fulls = [value[f"{metric}-full", n] for n in dims]
        checks[metric] = ((max(tops) - min(tops)) / min(tops), fit_scaling(dims, fulls).slope)
    el = time.monotonic() - t0
    ok = (
        not rep.failures()
        and all(spread < 0.05 and abs(slope - 1.0) <= 0.05 for spread, slope in checks.values())
        and el < 22.5  # 3x the 7.1-7.7 s on a 2-core x86 box when each row was an object
    )
    gate(
        "dimension-free marginal bias up to n = 10^6",
        ok,
        ", ".join(f"{m} max-marginal spread {sp:.2e}, full slope {sl:.6f}"
                  for m, (sp, sl) in checks.items()) + f", {el:.1f}s",
    )


def test_acceptance_stationary_law_closed_form(rng):
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 33))
        A = random_spd(rng, n)
        tgt = orc.GaussianTarget(A)
        h = 1.0 / (2.0 * tgt.beta)
        closed = orc.lmc_stationary_law(tgt, h).cov
        fixed = orc.lyapunov_fixed_point(A, h)
        worst = max(worst, float(np.linalg.norm(closed - fixed)))
    el = time.monotonic() - t0
    ok = worst <= 1e-10 and el < 5.0
    gate(
        "stationary law closed form",
        ok,
        f"worst Frobenius gap {worst:.2e} over 20 random SPD targets (n <= 32), {el:.1f}s",
    )


def test_acceptance_sampler_matches_stationary_oracle():
    t0 = time.monotonic()
    rep = run_experiment(ExperimentConfig("sampler-vs-oracle", seed=0))
    el = time.monotonic() - t0
    cov_rows = rep.select(metric="cov-entry")
    marg_rows = rep.select(metric="w2sq-marginal")
    ok = (
        len(cov_rows) == 3
        and len(marg_rows) == 2
        and not rep.failures()
        and el < 60.0
    )
    gate(
        "long-run sampler vs oracle",
        ok,
        f"{len(cov_rows)} covariance entries within 4 SE, "
        f"{len(marg_rows)} marginal W2^2 estimates within 3 SE, {el:.1f}s",
    )


def test_acceptance_constants_pinned():
    t0 = time.monotonic()
    poly = bnd.sparse_poly_constants(1.0, 1.0, 1.0, 1.0, 1.0)
    exact = poly.valid and poly["C"] == 360.0 and poly["h_star"] == 0.25
    weak = bnd.weak_constants(1.0, 1.0, 2.0, 3.0, 0.0)
    eta_one = weak.valid and weak["eta"] == 1.0
    at_crit = not bnd.sparse_exp_constants(1.0, 1.0, 1.0, 1.0, 2.0).valid
    above = not bnd.sparse_exp_constants(2.0, 3.0, 0.5, 1.0, 1.9).valid
    below = bnd.sparse_exp_constants(2.0, 3.0, 0.5, 1.0, 1.8).valid
    el = time.monotonic() - t0
    ok = exact and eta_one and at_crit and above and below
    gate(
        "closed-form constants",
        ok,
        f"poly (C, h*) = ({poly['C']}, {poly['h_star']}); weak eta(R1=0) = {weak['eta']}; "
        f"supercritical growth rejected at and above r_critical, {el:.2f}s",
    )


def test_acceptance_stationary_marginal_bounds_hold():
    t0 = time.monotonic()
    rep = run_experiment(
        ExperimentConfig(
            "bound-vs-truth", dims=(8,), subsets="singletons+all-pairs"
        )
    )
    el = time.monotonic() - t0
    kl_rows = rep.select(metric="kl-marginal")
    w2_rows = rep.select(metric="w2sq-marginal")
    cells = 20 * (8 + 28)  # 20-point h grid, singletons plus all pairs
    ok = (
        len(kl_rows) == cells
        and len(w2_rows) == cells
        and not rep.failures()
        and el < 30.0
    )
    gate(
        "stationary marginal bounds",
        ok,
        f"KL <= C h |u| and W2^2 <= (2/alpha) KL on {cells} cells each, "
        f"0 violations, {el:.1f}s",
    )


def test_acceptance_growth_constant_at_scale():
    """c from hop distances: 3 on an 8192-vertex path, 6.5 on a 64 x 64 grid at p = 2
    (|N_2| = 13 at k = 1).  The grid is built from its edges: grid_pairwise's band
    solver alone takes 3 s.  The budgets are 3x or more the 2.7 s and 1.4 s measured on
    a 2-core x86 box."""
    times, cs = [], []
    rows = cols = 64
    grid = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    grid += [(v, v + cols) for v in range(rows * cols - cols)]
    for n, edges, p in ((8192, [(i, i + 1) for i in range(8191)], 1.0), (4096, grid, 2.0)):
        t0 = time.monotonic()
        cs.append(_least_c(InteractionGraph(n, edges), "polynomial", p))
        times.append(time.monotonic() - t0)
    ok = cs == [3.0, 6.5] and times[0] < 9.0 and times[1] < 5.0
    gate(
        "growth constant at scale",
        ok,
        f"c = {cs[0]} on an 8192-vertex path in {times[0]:.1f}s, "
        f"c = {cs[1]} on a 64 x 64 grid (p = 2) in {times[1]:.1f}s",
    )


def test_acceptance_bound_vs_truth_at_4096():
    """c measured on a 4096-vertex path, then the 20-point h grid on [0], [2048] and
    [0, 1]: 0.7 s on a 2-core x86 box."""
    t0 = time.monotonic()
    rep = run_experiment(
        ExperimentConfig("bound-vs-truth", dims=(4096,), subsets=[[0], [2048], [0, 1]])
    )
    el = time.monotonic() - t0
    rows = rep.select(metric="kl-marginal")
    ok = len(rows) == 20 * 3 and not rep.failures() and el < 5.0
    gate(
        "stationary marginal bounds at n = 4096",
        ok,
        f"KL <= C h |u| and W2^2 <= (2/alpha) KL on {len(rows)} cells each, "
        f"0 violations, {el:.1f}s",
    )


def test_acceptance_operator_hierarchy(rng):
    t0 = time.monotonic()

    worst_res = 0.0
    for _ in range(20):
        n = 8
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        g = InteractionGraph(n, edges)
        gen = hie.SparseGenerator(g, float(rng.uniform(0.1, 3.0)))
        vals = rng.normal(size=1 << n)
        F = hie.SubsetFunction(lambda m, v=vals: float(v[m]))
        k = int(rng.integers(1, n + 1))
        u = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        worst_res = max(worst_res, commutation_residual_sparse(gen, F, u))
    ok_commute = worst_res <= 1e-12

    edges = [(i, i + 1) for i in range(5)]
    g = InteractionGraph(6, edges)
    sgen = hie.SparseGenerator.from_params(g, 1.0, 1.2, 0.8, 0.5)
    u, t = (1,), 0.5
    out = hie.semigroup_sparse(sgen, t, hie.SubsetFunction.size(), u)
    J = len(g.chain(u)) - 1
    sizes = np.array(
        [len(bfs_neighborhood(edges, 6, u, j)) for j in range(J + 1)], dtype=float
    )
    draws = rng.poisson(sgen.rate * t, size=1_000_000)
    vals = sizes[np.minimum(draws, J)]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    z = abs(out - vals.mean()) / se
    ok_mc = z <= 3.0

    weights = (
        (mask_from((0, 1)), 0.7),
        (mask_from((1, 2)), 0.4),
        (mask_from((2, 3)), 1.1),
        (mask_from((0, 3)), 0.9),
    )
    wgen = hie.WeakGenerator(weights, 1.3)
    F = hie.SubsetFunction(lambda m: float(size(m)) ** 2 + 0.25 * m)
    worst_expm, states_seen = 0.0, 0
    for wu in ((0,), (1, 3)):
        states, index, Q = weak_lattice_reference(weights, 1.3, mask_from(wu), False)
        states_seen = max(states_seen, len(states))
        f = np.array([F(s) for s in states])
        for wt in (0.2, 0.9, 2.5):
            ref = float((linalg.expm(wt * Q) @ f)[index[mask_from(wu)]])
            worst_expm = max(worst_expm, abs(hie.semigroup_weak(wgen, wt, F, wu) - ref))
    ok_expm = worst_expm <= 1e-9 and states_seen <= 32

    one = hie.SubsetFunction(lambda m: 1.0)
    worst_one = 0.0
    for ct in (0.0, 0.3, 1.0, 4.0):
        worst_one = max(worst_one, abs(hie.semigroup_sparse(sgen, ct, one, (2,)) - 1.0))
        worst_one = max(worst_one, abs(hie.semigroup_weak(wgen, ct, one, (0,)) - 1.0))
    ok_one = worst_one <= 1e-12

    el = time.monotonic() - t0
    ok = ok_commute and ok_mc and ok_expm and ok_one and el < 30.0
    gate(
        "operator hierarchy",
        ok,
        f"commutation residual {worst_res:.1e} (20 instances); semigroup vs 1e6-draw "
        f"MC |z| = {z:.2f}; uniformization vs expm gap {worst_expm:.1e} "
        f"({states_seen} states); e^tA 1 = 1 within {worst_one:.1e}; {el:.1f}s",
    )


def test_acceptance_exact_subadditivity():
    t0 = time.monotonic()
    rep = run_experiment(ExperimentConfig("subadditivity", dims=(8,)))
    el = time.monotonic() - t0
    rows = rep.select(metric="subadditivity-lhs")
    last = rows[-1]
    tight = abs(last.value - last.bound) <= 1e-10
    ok = len(rows) == 8 and not rep.failures() and tight and el < 20.0
    gate(
        "exact marginal subadditivity",
        ok,
        f"avg k-subset W2^2 <= (k/n) full for k=1..8, slack >= -1e-9, "
        f"equality gap at k=n {abs(last.value - last.bound):.1e}, {el:.1f}s",
    )


def test_acceptance_continuous_time_bound_dominates():
    t0 = time.monotonic()
    rep = run_experiment(
        ExperimentConfig(
            "continuous-time", dims=(6,), subsets="singletons+all-pairs"
        )
    )
    el = time.monotonic() - t0
    cells = 3 * 4 * (6 + 15)  # eps grid x time grid x (singletons + pairs)
    ok = len(rep.rows) == cells and not rep.failures() and el < 20.0
    gate(
        "continuous-time entropy bound",
        ok,
        f"bound >= exact relative entropy on all {cells} "
        f"(eps, t, subset) cells, {el:.1f}s",
    )


def test_acceptance_onestep_linf_bound_holds():
    t0 = time.monotonic()
    rep = run_experiment(ExperimentConfig("onestep-linf", dims=(4, 8), seed=0))
    el = time.monotonic() - t0
    rows = rep.select(metric="w2sq-linf-full")
    ok = (
        len(rows) == 2
        and all(r.valid for r in rows)
        and all(r.value <= r.bound + 3.0 * r.se for r in rows)
        and el < 60.0
    )
    gate(
        "one-step l_inf transport bound",
        ok,
        "empirical W2,linf^2 <= bound + 3 SE at "
        + ", ".join(f"n={r.n} ({r.value:.3g} vs {r.bound:.3g})" for r in rows)
        + f", {el:.1f}s",
    )


def test_acceptance_certified_trajectory_sandwich():
    t0 = time.monotonic()
    n = 6
    A = tridiagonal_precision(n, 2.0, -0.5)
    tgt = orc.GaussianTarget(A)
    graph = build_graph(gaussian_potential(A))
    alpha, beta = tgt.alpha, tgt.beta
    cert = dict(alpha=alpha, beta=beta, gamma=1.0, c=3.0, p=1.0)
    params = hie.SparseParams(alpha, beta, 1.0, 3.0, p=1.0)
    h_star = params.h_star()

    law = tgt.law()
    law0 = orc.GaussianLaw(np.zeros(n), 2.0 * law.cov)
    u = (2,)
    m = mask_from(u)
    chain = [
        neighborhood_mask(graph, m, j)
        for j in range(len(graph.chain(m)))
    ]
    kl0 = {
        w: orc.kl_gaussian(
            orc.marginal(law0, indices_from(w)), orc.marginal(law, indices_from(w))
        )
        for w in chain
    }
    C0 = max(kl0[w] / size(w) for w in chain)
    H0 = hie.SubsetFunction(lambda w: C0 * size(w), "dominating-initial-kl")

    k_max = 200
    violations = 0
    checked = 0
    for i in range(1, 11):
        h = h_star * i / 10.0
        curve = hie.certified_entropy_curve("sparse", params, graph, H0, h, k_max, u)
        lk = law0
        for k in range(k_max + 1):
            if k > 0:
                lk = orc.lmc_transient_law(A, h, 1, lk)
            exact = orc.kl_gaussian(orc.marginal(lk, u), orc.marginal(law, u))
            dyn = bnd.dynamic_bound("sparse-dyn-poly", cert, k, h, len(u), C0)
            checked += 1
            if not (exact <= curve[k] + 1e-12 and curve[k] <= dyn["bound_value"] + 1e-12):
                violations += 1
    el = time.monotonic() - t0
    ok = violations == 0 and checked == 10 * (k_max + 1) and el < 60.0
    gate(
        "certified entropy trajectory",
        ok,
        f"exact KL <= certified <= dynamic envelope on {checked} (h, k) cells, "
        f"{violations} violations, {el:.1f}s",
    )


def test_acceptance_delocalization_fails_without_structure():
    t0 = time.monotonic()
    rep = delocalization_failure_demo()
    el = time.monotonic() - t0
    growth = rep.select(metric="rotated-bias-growth")[0]
    spread = rep.select(metric="product-bias-variation")[0]
    ok = (
        not rep.failures()
        and growth.value >= 2.0
        and spread.value < 0.05
        and el < 10.0
    )
    gate(
        "delocalization needs structure",
        ok,
        f"rotated max marginal bias grows {growth.value:.2f}x from n=8 to 128, "
        f"product spread {spread.value:.3%}, {el:.1f}s",
    )
