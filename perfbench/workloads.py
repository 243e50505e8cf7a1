"""The benchmark's workloads.

Each workload is a sequence of parts.  A part turns the raw inputs (plain
numpy arrays and numbers drawn from the workload seed) into deloc objects
and results through deloc's public API, then a check compares those
results with a reference computed outside the timed pass.  Parts build
every target, potential and graph afresh, because those objects memoize
(eigendecompositions, neighbourhood chains, assembled matrices) and a user
pays for that on every run.

Sizes are chosen so that no part is much cheaper than a quarter of its
pass and so that the cost of a pass barely depends on the seed: random
targets have fixed dimensions and pinned extreme eigenvalues, and every
graph has a fixed shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import deloc

# Sizes of every part.  "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "scaling_dims": (256, 1024),
        "failure_dims": (16, 128, 768),
        "lyap_dims": (32, 32, 24, 16),
        "small_iters": 20_000,
        "large_n": 1024,
        "large_iters": 1_000,
        "callable_n": 64,
        "callable_iters": 1_000,
        "graph_n": 128,
        "curve_n": 32,
        "curve_k": 100,
        "weak_n": 10,
        "weak_k": 200,
        "linf_dims": (4, 8),
        "linf_runs": 4,
        "linf_samples": 512,
        "linf_boot": 4,
        "subadd_dim": 4,
        "subadd_runs": 2,
        "subadd_boot": 2,
    },
    "tiny": {
        "scaling_dims": (16, 64),
        "failure_dims": (8, 16, 32),
        "lyap_dims": (4, 3),
        "small_iters": 2_000,
        "large_n": 32,
        "large_iters": 400,
        "callable_n": 8,
        "callable_iters": 400,
        "graph_n": 12,
        "curve_n": 8,
        "curve_k": 10,
        "weak_n": 4,
        "weak_k": 10,
        "linf_dims": (2, 3),
        "linf_runs": 2,
        "linf_samples": 64,
        "linf_boot": 2,
        "subadd_dim": 3,
        "subadd_runs": 2,
        "subadd_boot": 2,
    },
}

SCALING_H = 0.01
FAILURE_H = 0.02
LYAP_COND = 50.0
QUAD_SMALL_PRECISION = ((3.0, 0.5), (0.5, 3.0))
SAMPLER_H = 0.05
CALLABLE_H = 0.2
CALLABLE_COUPLING = 0.25
GROWTH = ("polynomial", 3.0, 1.0)
CT_GRID = ((0.5, 0.5), (1.0, 0.25))  # (t, eps) for continuous_time_bound
WEAK_STRENGTH = 0.2
LINF_OFF = -0.3

Check = tuple[str, bool]


@dataclass(frozen=True)
class Part:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict, dict], list[Check]]  # (output, inputs, reference)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it exists."""

    name: str
    make_inputs: Callable[[int, dict], dict]
    reference: Callable[[dict], dict]
    parts: tuple[Part, ...]


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return bool(np.isfinite(a)) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def _tridiagonal(n: int, diag: float, off: float) -> np.ndarray:
    return (
        np.diag(np.full(n, diag))
        + np.diag(np.full(n - 1, off), 1)
        + np.diag(np.full(n - 1, off), -1)
    )


def _stationary_cov(A: np.ndarray, h: float) -> np.ndarray:
    """LMC stationary covariance (A (I - hA/2))^{-1}, by a dense inverse."""
    return np.linalg.inv(A @ (np.eye(A.shape[0]) - 0.5 * h * A))


def _batch_means_se(x: np.ndarray, batches: int) -> np.ndarray:
    """Column-wise SE of the mean of a correlated (T, n) series."""
    usable = (x.shape[0] // batches) * batches
    bm = x[:usable].reshape(batches, -1, *x.shape[1:]).mean(axis=1)
    return bm.std(axis=0, ddof=1) / math.sqrt(batches)


def _rows_valid(report) -> list[Check]:
    return [
        (f"{r.experiment} n={r.n} {r.subset} {r.metric} valid", bool(r.valid))
        for r in report.rows
        if r.valid is not None
    ]


# -- oracle-sweep ----------------------------------------------------------------


def _oracle_inputs(seed: int, sz: dict) -> dict:
    rng = np.random.default_rng([seed, 1])
    targets = []
    for n in sz["lyap_dims"]:
        # the acceptance gate's recipe, with the extreme eigenvalues pinned so
        # that the fixed-point iteration count does not depend on the seed
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(1.0 / LYAP_COND, 1.0, size=n)
        lam[0], lam[-1] = 1.0 / LYAP_COND, 1.0
        targets.append({"A": (Q * lam) @ Q.T, "Q": Q, "lam": lam})
    return {
        "scaling_dims": sz["scaling_dims"],
        "failure_dims": sz["failure_dims"],
        "lyap": targets,
        "seed": seed,
    }


def _oracle_reference(inp: dict) -> dict:
    full, marg = {}, {}
    for n in inp["scaling_dims"]:
        # tridiagonal(2, -0.5) has eigenvalues 2 - cos(k pi / (n + 1))
        lam = 2.0 - np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
        s_h = 1.0 / (lam * (1.0 - 0.5 * SCALING_H * lam))
        full[n] = float(np.sum((np.sqrt(s_h) - np.sqrt(1.0 / lam)) ** 2))
        A = _tridiagonal(n, 2.0, -0.5)
        d_h = np.diag(_stationary_cov(A, SCALING_H))
        d = np.diag(np.linalg.inv(A))
        marg[n] = float(np.max((np.sqrt(d_h) - np.sqrt(d)) ** 2))
    product = {}
    for n in inp["failure_dims"]:
        # unrotated product: coordinate variances 1/d against 1/(d (1 - h d/2))
        d = np.array([1.0, 50.0])
        s_h = 1.0 / (d * (1.0 - 0.5 * FAILURE_H * d))
        product[n] = float(np.max((np.sqrt(s_h) - np.sqrt(1.0 / d)) ** 2))
    lyap = []
    for t in inp["lyap"]:
        h = 0.5  # 1 / (2 beta) with beta pinned at 1
        lam = t["lam"]
        lyap.append((t["Q"] / (lam * (1.0 - 0.5 * h * lam))) @ t["Q"].T)
    return {"full": full, "marginal_max": marg, "product_max": product, "lyap": lyap}


def _run_scaling(inp: dict):
    cfg = deloc.ExperimentConfig(
        "gaussian-scaling",
        dims=inp["scaling_dims"],
        h_values=(SCALING_H,),
        seed=inp["seed"],
        options={"diag": 2.0, "off": -0.5},
    )
    return deloc.harness.run_experiment(cfg)


def _check_scaling(rep, inp: dict, ref: dict) -> list[Check]:
    dims = inp["scaling_dims"]
    tops = [rep.select(metric="w2sq-marginal-max", n=n)[0].value for n in dims]
    fulls = [rep.select(metric="w2sq-full", n=n)[0].value for n in dims]
    spread = (max(tops) - min(tops)) / min(tops)
    slope = deloc.fit_scaling(dims, fulls).slope
    out = [
        ("gaussian-scaling max-marginal spread < 5%", spread < 0.05),
        ("gaussian-scaling full-bias slope within 0.05 of 1", abs(slope - 1.0) <= 0.05),
    ]
    for n, top, full in zip(dims, tops, fulls):
        out.append((f"gaussian-scaling n={n} max marginal matches dense",
                    _rel_close(top, ref["marginal_max"][n], 1e-8)))
        out.append((f"gaussian-scaling n={n} full W2 matches spectrum",
                    _rel_close(full, ref["full"][n], 1e-8)))
    return out


def _run_failure(inp: dict):
    return deloc.delocalization_failure_demo(dims=inp["failure_dims"], h=FAILURE_H, seed=inp["seed"])


def _check_failure(rep, inp: dict, ref: dict) -> list[Check]:
    out = _rows_valid(rep)
    for n in inp["failure_dims"]:
        got = rep.select(metric="w2sq-marginal-max-product", n=n)[0].value
        out.append((f"delocalization-failure n={n} product max matches closed form",
                    _rel_close(got, ref["product_max"][n], 1e-8)))
    return out


def _run_lyapunov(inp: dict):
    pairs = []
    for t in inp["lyap"]:
        tgt = deloc.oracle.GaussianTarget(t["A"])
        h = 1.0 / (2.0 * tgt.beta)
        closed = deloc.oracle.lmc_stationary_law(tgt, h).cov
        fixed = deloc.oracle.lyapunov_fixed_point(t["A"], h)
        pairs.append((closed, fixed))
    return pairs


def _check_lyapunov(pairs, inp: dict, ref: dict) -> list[Check]:
    out = []
    for i, ((closed, fixed), want) in enumerate(zip(pairs, ref["lyap"])):
        label = f"lyapunov target {i} (n={closed.shape[0]})"
        out.append((f"{label} fixed point within 1e-10 of closed form",
                    float(np.linalg.norm(closed - fixed)) <= 1e-10))
        out.append((f"{label} closed form within 1e-10 of reference",
                    float(np.linalg.norm(closed - want)) <= 1e-10))
    return out


# -- sampler-chains ----------------------------------------------------------------


def _sampler_inputs(seed: int, sz: dict) -> dict:
    rng = np.random.default_rng([seed, 2])
    n_large, n_call = sz["large_n"], sz["callable_n"]
    return {
        "small_iters": sz["small_iters"],
        "small_seed": int(rng.integers(2**31)),
        "large_n": n_large,
        "large_iters": sz["large_iters"],
        "large_seed": int(rng.integers(2**31)),
        "large_x0": rng.standard_normal((2, n_large)),
        "callable_n": n_call,
        "callable_iters": sz["callable_iters"],
        "callable_seed": int(rng.integers(2**31)),
        "callable_x0": 0.8 * rng.standard_normal(n_call),
    }


def _large_precision(n: int) -> np.ndarray:
    # chain_pairwise(n) with confine 1 and couple 0.5
    A = _tridiagonal(n, 2.0, -0.5)
    A[0, 0] = A[-1, -1] = 1.5
    return A


def _sampler_reference(inp: dict) -> dict:
    return {
        "small_cov": _stationary_cov(np.array(QUAD_SMALL_PRECISION), SAMPLER_H),
        "large_var": np.diag(_stationary_cov(_large_precision(inp["large_n"]), SAMPLER_H)),
        # V'' of the confinement is 1 + sech^2 in [1, 2]; each coordinate has
        # at most two couplings with 0 <= V'' <= 0.25, so 1 <= Hessian <= 3
        "callable_var_range": (1.0 / 3.0, 1.0),
    }


def _run_quad_small(inp: dict):
    cfg = deloc.ExperimentConfig(
        "sampler-vs-oracle",
        h_values=(SAMPLER_H,),
        seed=inp["small_seed"],
        options={
            "precision": [list(r) for r in QUAD_SMALL_PRECISION],
            "iterations": inp["small_iters"],
            "chains": 4,
            "batches": 100,
            "thin": 5,
        },
    )
    return deloc.harness.run_experiment(cfg)


def _check_quad_small(rep, inp: dict, ref: dict) -> list[Check]:
    out = _rows_valid(rep)
    for r in rep.select(metric="cov-entry"):
        i, j = (int(s) for s in r.subset.split("|"))
        out.append((f"sampler-vs-oracle cov[{i},{j}] oracle matches reference",
                    _rel_close(r.bound, ref["small_cov"][i, j], 1e-10)))
    return out


def _run_quad_large(inp: dict):
    pot = deloc.chain_pairwise(inp["large_n"])
    cfg = deloc.SamplerConfig(
        h=SAMPLER_H, iterations=inp["large_iters"], num_chains=2, seed=inp["large_seed"]
    )
    return deloc.sampler.run_chain(pot, cfg, inp["large_x0"])


def _check_quad_large(store, inp: dict, ref: dict) -> list[Check]:
    x = store.rows()
    if not np.all(np.isfinite(x)):
        return [("quad-large states finite", False)]
    # coordinate-averaged ratio of the second moment (the mean is 0) to the
    # closed-form diagonal, within 4 batch-means SE of 1.  One z-score per
    # coordinate would raise false alarms: 1024 of them from 1800 correlated
    # states reach |z| > 7 on some seeds.
    r = (x * x / ref["large_var"]).mean(axis=1)
    z = (r.mean() - 1.0) / _batch_means_se(r, 20)
    return [
        ("quad-large states finite", True),
        ("quad-large mean variance ratio to closed form within 4 SE of 1", bool(abs(z) <= 4.0)),
    ]


def _logcosh(s):
    return np.logaddexp(s, -s) - math.log(2.0)


def _run_callable(inp: dict):
    n = inp["callable_n"]
    coupling = CALLABLE_COUPLING * (np.eye(n, k=1) + np.eye(n, k=-1))
    confine = (lambda s: 0.5 * s * s + _logcosh(s), lambda s: s + math.tanh(s))
    couple = (lambda s: CALLABLE_COUPLING * _logcosh(s), lambda s: CALLABLE_COUPLING * math.tanh(s))
    spec = deloc.PairwiseSpec(
        n=n,
        confine_bounds=np.full(n, 2.0),
        interaction_bounds=coupling,
        confine_fns=(confine,) * n,
        interaction_fns={(i, i + 1): couple for i in range(n - 1)},
    )
    pot = spec.to_structured(deloc.SmoothnessParams(alpha=1.0, beta=3.0))
    iters = inp["callable_iters"]
    cfg = deloc.SamplerConfig(
        h=CALLABLE_H, iterations=iters, burn_in=iters // 10, seed=inp["callable_seed"]
    )
    return deloc.sampler.run_chain(pot, cfg, inp["callable_x0"])


def _check_callable(store, inp: dict, ref: dict) -> list[Check]:
    x = store.rows()
    finite = bool(np.all(np.isfinite(x)))
    lo, hi = ref["callable_var_range"]
    var = x.var(axis=0) if finite else np.full(x.shape[1], np.nan)
    return [
        ("callable states finite", finite),
        ("callable variance in [1/beta, 1/alpha] on every coordinate",
         bool(np.all((var >= lo) & (var <= hi)))),
    ]


# -- certify-graph ----------------------------------------------------------------


def _graph_inputs(seed: int, sz: dict) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {
        "A": _tridiagonal(sz["graph_n"], 2.0, -0.5),
        "A_curve": _tridiagonal(sz["curve_n"], 2.0, -0.5),
        "c0": float(rng.uniform(0.5, 1.5)),
        "k": sz["curve_k"],
        "weak_n": sz["weak_n"],
        "weak_k": sz["weak_k"],
    }


def _poisson_series(mu: float, sizes: np.ndarray) -> float:
    """E sizes[min(Lambda, J)] for Lambda ~ Poisson(mu), in plain floats."""
    J = sizes.shape[0] - 1
    j = np.arange(J)
    pmf = np.exp(j * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in j]))
    return float(pmf @ sizes[:J] + max(0.0, 1.0 - pmf.sum()) * sizes[J])


def _graph_reference(inp: dict) -> dict:
    A = inp["A"]
    n = A.shape[0]
    lam = np.linalg.eigvalsh(A)
    alpha, beta = float(lam[0]), float(lam[-1])
    rate = beta**2 / (2.0 * alpha)  # gamma = 1
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    # on a path, |N_k(i)| = 1 + min(i, k) + min(n - 1 - i, k)
    sizes = 1.0 + np.minimum(i, k) + np.minimum(n - 1 - i, k)
    stab = np.maximum(np.arange(n), n - 1 - np.arange(n))
    _, c, p = GROWTH
    growth_ok = bool(np.all(sizes[:, 1:] <= c * (1.0 + np.arange(n - 1) ** p)[None, :] + 1e-12))
    ct = {}
    for t, eps in CT_GRID:
        for v in range(n):
            series = inp["c0"] * _poisson_series(rate * t / eps, sizes[v, : stab[v] + 1])
            ct[(t, eps, v)] = math.exp(-2.0 * alpha * (1.0 - eps) * t) * series
    return {"growth_passed": growth_ok, "growth_checked": int(stab.max()), "continuous_time": ct}


def _run_growth_bounds(inp: dict):
    pot = deloc.gaussian_potential(inp["A"])
    graph = deloc.graph.build_graph(pot)
    growth = deloc.graph.verify_growth(graph, deloc.GrowthCertificate(*GROWTH))
    alpha, beta = pot.smoothness.alpha, pot.smoothness.beta
    ct = {}
    for t, eps in CT_GRID:
        for v in range(graph.n):
            rep = deloc.bounds.continuous_time_bound(
                graph, 1 << v, t, eps, alpha, beta, 1.0, C0=inp["c0"]
            )
            ct[(t, eps, v)] = rep["bound_value"]
    return growth, ct


def _check_growth_bounds(out, inp: dict, ref: dict) -> list[Check]:
    growth, ct = out
    return [
        ("growth certificate passes", growth.passed == ref["growth_passed"] and growth.passed),
        ("growth certificate checked up to the largest stabilization index",
         growth.checked_up_to == ref["growth_checked"]),
        ("continuous-time bounds match the Poisson series on every vertex",
         all(_rel_close(ct[key], want, 1e-9) for key, want in ref["continuous_time"].items())),
    ]


def _run_sparse_curves(inp: dict):
    # a shorter path than the growth part: a curve costs O(k J) Poisson
    # evaluations, J being the vertex's stabilization index
    pot = deloc.gaussian_potential(inp["A_curve"])
    graph = deloc.graph.build_graph(pot)
    params = deloc.SparseParams(pot.smoothness.alpha, pot.smoothness.beta, 1.0, GROWTH[1], p=GROWTH[2])
    c0 = inp["c0"]
    H0 = deloc.SubsetFunction(lambda m: c0 * m.bit_count(), "linear")
    h = params.h_star() / 2.0
    return {
        v: deloc.hierarchy.certified_entropy_curve("sparse", params, graph, H0, h, inp["k"], (v,))
        for v in (graph.n // 2, 0)
    }


def _check_sparse_curves(curves, inp: dict, ref: dict) -> list[Check]:
    checks = []
    for v, curve in curves.items():
        checks.append((f"certified sparse curve at vertex {v} finite", bool(np.all(np.isfinite(curve)))))
        checks.append((f"certified sparse curve at vertex {v} starts at H0(u)",
                       _rel_close(curve[0], inp["c0"], 1e-12)))
    return checks


def _run_weak_certificate(inp: dict):
    pot = deloc.mean_field(inp["weak_n"], strength=WEAK_STRENGTH)
    consts = pot.interaction_constants
    params = deloc.WeakParams(pot.smoothness.alpha, 1.0)
    c0 = inp["c0"]
    H0 = deloc.SubsetFunction(lambda m: c0 * m.bit_count(), "linear")
    h = params.h_star(consts.M0, consts.M1, consts.R1) / 2.0
    return deloc.hierarchy.certified_entropy_curve("weak", params, pot, H0, h, inp["weak_k"], (0,))


def _check_weak_certificate(curve, inp: dict, ref: dict) -> list[Check]:
    return [
        ("certified weak curve finite", bool(np.all(np.isfinite(curve)))),
        ("certified weak curve starts at H0(u)", _rel_close(curve[0], inp["c0"], 1e-12)),
    ]


# -- transport-linf ----------------------------------------------------------------


def _transport_inputs(seed: int, sz: dict) -> dict:
    # several independent problems per pass: the time of an assignment solve
    # depends on the point clouds, and averaging over clouds keeps the pass
    # time from depending much on the seed
    rng = np.random.default_rng([seed, 4])
    d = sz["subadd_dim"]
    A = _tridiagonal(d, 2.0, LINF_OFF)
    cov_h = _stationary_cov(A, 1.0 / (2.0 * float(np.linalg.eigvalsh(A)[-1])))
    cov = np.linalg.inv(A)
    def cloud(c):
        return rng.multivariate_normal(np.zeros(d), c, size=512)

    return {
        "dims": sz["linf_dims"],
        "seeds": [int(s) for s in rng.integers(2**31, size=sz["linf_runs"])],
        "samples": sz["linf_samples"],
        "n_boot": sz["linf_boot"],
        "subadd": [
            (cloud(cov_h), cloud(cov)) for _ in range(sz["subadd_runs"])
        ],
        "subadd_boot": sz["subadd_boot"],
        "subadd_seed": int(rng.integers(2**31)),
    }


def _transport_reference(inp: dict) -> dict:
    bounds = {}
    for n in inp["dims"]:
        A = _tridiagonal(n, 2.0, LINF_OFF)
        lam = np.linalg.eigvalsh(A)
        alpha, beta = float(lam[0]), float(lam[-1])
        alpha0 = 2.0 * abs(LINF_OFF) if n > 2 else abs(LINF_OFF)
        h = 1.0 / (2.0 * beta)
        bounds[n] = h * math.log(2.0 * n) * (4.0 * beta / (alpha - alpha0)) ** 2
    d = inp["subadd"][0][0].shape[1]
    return {"linf_bound": bounds, "subsets": d * (d - 1) // 2}


def _run_onestep(inp: dict):
    return [
        deloc.harness.run_experiment(
            deloc.ExperimentConfig(
                "onestep-linf",
                dims=inp["dims"],
                seed=seed,
                options={"samples": inp["samples"], "n_boot": inp["n_boot"]},
            )
        )
        for seed in inp["seeds"]
    ]


def _check_onestep(reps, inp: dict, ref: dict) -> list[Check]:
    out = []
    for rep in reps:
        out += _rows_valid(rep)
        for r in rep.select(metric="w2sq-linf-full"):
            out.append((f"onestep-linf n={r.n} bound matches closed form",
                        _rel_close(r.bound, ref["linf_bound"][r.n], 1e-10)))
    return out


def _run_subadditivity(inp: dict):
    rng = np.random.default_rng(inp["subadd_seed"])
    return [
        deloc.metrics.subadditivity_check(a, b, 2, n_boot=inp["subadd_boot"], rng=rng)
        for a, b in inp["subadd"]
    ]


def _check_subadditivity(reps, inp: dict, ref: dict) -> list[Check]:
    out = []
    for i, rep in enumerate(reps):
        label = f"empirical subadditivity k=2 on cloud pair {i}"
        out.append((f"{label} passes", bool(rep.passed)))
        out.append((f"{label} covers every pair", rep.num_subsets == ref["subsets"]))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-sweep",
            _oracle_inputs,
            _oracle_reference,
            (
                Part("gaussian-scaling", _run_scaling, _check_scaling),
                Part("delocalization-failure", _run_failure, _check_failure),
                Part("lyapunov", _run_lyapunov, _check_lyapunov),
            ),
        ),
        Workload(
            "sampler-chains",
            _sampler_inputs,
            _sampler_reference,
            (
                Part("quad-small", _run_quad_small, _check_quad_small),
                Part("quad-large", _run_quad_large, _check_quad_large),
                Part("callable", _run_callable, _check_callable),
            ),
        ),
        Workload(
            "certify-graph",
            _graph_inputs,
            _graph_reference,
            (
                Part("growth-bounds", _run_growth_bounds, _check_growth_bounds),
                Part("sparse-curves", _run_sparse_curves, _check_sparse_curves),
                Part("weak", _run_weak_certificate, _check_weak_certificate),
            ),
        ),
        Workload(
            "transport-linf",
            _transport_inputs,
            _transport_reference,
            (
                Part("onestep-linf", _run_onestep, _check_onestep),
                Part("subadditivity", _run_subadditivity, _check_subadditivity),
            ),
        ),
    )
}
