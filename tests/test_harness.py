import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import deloc
from deloc.bounds import continuous_time_bound, dynamic_bound, sparse_poly_constants, weak_constants
from deloc import harness, oracle as orc
from deloc.cli import _emit, main
from deloc.graph import InteractionGraph, build_graph
from deloc.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    _Series,
    _precision_graph,
    _rotated_precision,
    _target_from_options,
    config_from_dict,
    delocalization_failure_demo,
    fit_scaling,
    resolve_panel,
    run_experiment,
)
from deloc.hierarchy import (
    SparseParams,
    SubsetFunction,
    WeakGenerator,
    WeakParams,
    certified_entropy_curve,
    semigroup_weak,
)
from deloc.potential import (
    gaussian_potential,
    load_potential,
    mean_field,
    potential_from_dict,
)
from deloc.subsets import mask_from

from conftest import (
    reference_csv,
    reference_sidecar,
    serial_w2sq_assignment,
    tridiagonal_precision,
)


def path_graph(n):
    return InteractionGraph(n, [(i, i + 1) for i in range(n - 1)])


def write_potential(path, n=6, alpha=1.0):
    spec = {
        "n": n,
        "smoothness": {"alpha": alpha, "gamma": 1.0},
        "terms": [
            {
                "kind": "builtin:gaussian",
                "support": list(range(n)),
                "params": {"tridiagonal": {"diag": 2.0, "off": -0.5}},
            }
        ],
    }
    path.write_text(json.dumps(spec))
    return str(path)


# ------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="no-such-experiment")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="subadditivity", dims=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="subadditivity", h_values=(-0.1,))
    cfg = ExperimentConfig(experiment="subadditivity", dims=(np.int64(4),), h_values=(0.1,))
    assert cfg.dims == (4,) and isinstance(cfg.dims[0], int)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("dims", (3.5,), "config 'dims' entries must be whole numbers"),
        ("dims", (True,), "config 'dims' entries must be numbers"),
        ("h_values", ("0.01",), "config 'h_values' entries must be numbers"),
        ("seed", 1.5, "config 'seed' must be an integer"),
    ],
)
def test_config_from_python_reads_fields_as_json_does(field, value, reason):
    with pytest.raises(ValueError, match=reason):
        ExperimentConfig(experiment="gaussian-scaling", **{field: value})
    as_json = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ValueError, match=reason):
        config_from_dict({"experiment": "gaussian-scaling", field: as_json})


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"experiment": "subadditivity", "step": 0.1})
    with pytest.raises(ValueError, match="'experiment'"):
        config_from_dict({"dims": [4]})
    cfg = config_from_dict({"experiment": "subadditivity", "dims": [4], "seed": 7})
    assert cfg.dims == (4,)
    assert cfg.seed == 7
    assert cfg.subsets is None  # subadditivity reads no panel
    assert cfg.options == {}


# ------------------------------------------------------------------- fitting

def test_fit_scaling_recovers_power_law():
    x = np.arange(1, 7, dtype=float)
    fit = fit_scaling(x, 3.0 * x**1.7)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_input_errors():
    with pytest.raises(ValueError):
        fit_scaling([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0], [2.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0], [-1.0, 2.0])


# -------------------------------------------------------------------- panels

def test_resolve_panel_variants():
    g = path_graph(4)
    assert resolve_panel(g, "singletons") == [(0,), (1,), (2,), (3,)]
    assert resolve_panel(g, "pairs") == [(0, 1), (1, 2), (2, 3)]
    assert len(resolve_panel(g, "all-pairs")) == 6
    assert len(resolve_panel(g, "singletons+pairs")) == 7
    assert resolve_panel(g, [[2, 0], [1]]) == [(0, 2), (1,)]
    with pytest.raises(ValueError):
        resolve_panel(g, "everything")


def test_resolve_panel_random_is_deterministic():
    g = path_graph(6)
    spec = {"random": {"size": 2, "count": 3, "seed": 7}}
    a = resolve_panel(g, spec)
    b = resolve_panel(g, spec)
    assert a == b
    assert all(len(u) == 2 and u[0] < u[1] < 6 for u in a)


# ------------------------------------------------------------------- reports

def small_report():
    return run_experiment(
        ExperimentConfig(experiment="gaussian-scaling", dims=(3,), h_values=(0.01,))
    )


def test_csv_schema_and_round_trip(tmp_path):
    rep = small_report()
    out = tmp_path / "rep.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment,n,h,subset,metric,value,se,bound,theorem,valid"
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(rep.rows) == 7  # 3 marginals + max + full, in W2 and in KL
    for got, src in zip(rows, rep.rows):
        assert got["experiment"] == "gaussian-scaling"
        assert got["theorem"] == "oracle"
        assert float(got["value"]) == src.value  # repr round-trips exactly
        assert got["se"] == "" and got["bound"] == "" and got["valid"] == ""


def test_csv_formats_booleans(tmp_path):
    rep = run_experiment(ExperimentConfig(experiment="subadditivity", dims=(3,)))
    out = tmp_path / "sub.csv"
    rep.to_csv(out)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert all(r["valid"] == "true" for r in rows)


def test_json_sidecar(tmp_path):
    rep = small_report()
    side = tmp_path / "rep.json"
    rep.to_json_sidecar(side)
    payload = json.loads(side.read_text())
    assert payload["config"]["experiment"] == "gaussian-scaling"
    assert payload["num_rows"] == 7
    assert payload["num_failures"] == 0
    assert "elapsed_seconds" in payload["metadata"]


def test_run_experiment_writes_no_file(tmp_path, monkeypatch):
    """The CSV path has one home, `deloc run --output`; a config with an `output` key is
    refused (test_cli_run_reports_mistyped_config_with_exit_2)."""
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig(experiment="subadditivity", dims=(3,)))
    assert list(tmp_path.iterdir()) == []


def test_failures_and_select_filters():
    cfg = ExperimentConfig(experiment="subadditivity", dims=(3,))
    rows = [
        ReportRow("subadditivity", 3, 0.1, "a", "m1", 1.0, valid=True),
        ReportRow("subadditivity", 3, 0.1, "b", "m1", 2.0, valid=False),
        ReportRow("subadditivity", 4, 0.1, "c", "m2", 3.0),
    ]
    rep = ExperimentReport(cfg, rows, {})
    assert rep.failures() == [rows[1]]
    assert rep.select(metric="m1") == rows[:2]
    assert rep.select(n=4) == [rows[2]]
    assert rep.select(metric="m1", n=3) == rows[:2]
    # a per-coordinate series between single rows: one block, expanded on reading rows
    values = [0.5, 0.25, 0.125]
    series = _Series("subadditivity", 3, 0.1, "m1", "oracle", np.array(values))
    mixed = ExperimentReport(cfg, [rows[0], series, rows[1], rows[2]], {})
    expanded = [
        rows[0],
        *(ReportRow("subadditivity", 3, 0.1, str(i), "m1", v, theorem="oracle")
          for i, v in enumerate(values)),
        rows[1],
        rows[2],
    ]
    assert mixed.rows == expanded
    assert all(type(r.value) is float for r in mixed.rows)
    assert mixed.select(metric="m1") == mixed.select(metric="m1", n=3) == expanded[:5]
    assert mixed.select(n=4) == [rows[2]]
    assert mixed.select(metric="m2", n=3) == []
    assert mixed.failures() == [rows[1]]
    assert mixed._num_rows() == 6


# --------------------------------------------------------------- experiments

def test_gaussian_scaling_structure_and_slope():
    rep = run_experiment(
        ExperimentConfig(experiment="gaussian-scaling", dims=(4, 8, 16), h_values=(0.01,))
    )
    assert len(rep.rows) == (4 + 4) + (8 + 4) + (16 + 4) + 4
    for n in (4, 8, 16):
        per = [r.value for r in rep.select(metric="w2sq-marginal", n=n)]
        top = rep.select(metric="w2sq-marginal-max", n=n)[0].value
        assert top == max(per)
        assert [r.metric for r in rep.select(n=n)[n: n + 4]] == [
            "w2sq-marginal-max", "w2sq-full", "kl-marginal-max", "kl-full"
        ]
    for metric in ("w2sq-full", "kl-full"):
        fit = fit_scaling((4, 8, 16), [r.value for r in rep.select(metric=metric)])
        assert 0.9 < fit.slope < 1.1  # full-law bias is extensive in n
        assert fit.r2 > 0.999
    assert not rep.failures()


def test_gaussian_scaling_reports_its_check_per_h():
    """After every per-n row: the max-marginal spread and the full-bias slope, per h,
    in W2 and then in KL."""
    dims, hs = (16, 64, 256), (0.01, 0.05)
    rep = run_experiment(ExperimentConfig("gaussian-scaling", dims=dims, h_values=hs))
    summary = rep.rows[-8:]
    assert [(r.metric, r.h) for r in summary] == [
        (f"{metric}-{check}", h) for h in hs for metric in ("w2sq", "kl")
        for check in ("marginal-max-spread", "full-slope")
    ]
    for i, (h, metric) in enumerate((h, m) for h in hs for m in ("w2sq", "kl")):
        spread, slope = summary[2 * i: 2 * i + 2]
        tops = [r.value for r in rep.select(metric=f"{metric}-marginal-max") if r.h == h]
        fulls = [r.value for r in rep.select(metric=f"{metric}-full") if r.h == h]
        assert spread.value == (max(tops) - min(tops)) / min(tops) and spread.bound == 0.05
        assert slope.value == fit_scaling(dims, fulls).slope and slope.bound == 1.0
        assert spread.valid is (spread.value < 0.05)
        assert slope.valid is (abs(slope.value - 1.0) <= 0.05)
        assert {spread.n, slope.n} == {256}
    assert not rep.failures()
    # one n gives no summary
    one = run_experiment(ExperimentConfig("gaussian-scaling", dims=(8,), h_values=(0.01,)))
    assert [r.metric for r in one.rows[-2:]] == ["kl-marginal-max", "kl-full"]
    # at n = 1, 2 each W2 check can fail on its own; the KL bias is not linear in n yet
    for h, failed in ((0.01, "w2sq-marginal-max-spread"), (0.3, "w2sq-full-slope")):
        small = run_experiment(ExperimentConfig("gaussian-scaling", dims=(1, 2), h_values=(h,)))
        assert [r.metric for r in small.failures()] == [
            failed, "kl-marginal-max-spread", "kl-full-slope"
        ]
    # below float resolution the bias is 0 and there is nothing to fit
    with pytest.raises(ValueError, match="the bias at h=1e-17 underflows to 0"):
        run_experiment(ExperimentConfig("gaussian-scaling", dims=(4, 8), h_values=(1e-17,)))


def _mp_inverse_diagonal(mpmath, n: int, a, b) -> list:
    """The diagonal of the n x n tridiagonal Toeplitz (a, b) inverse in closed form:
    sinh(i t) sinh((n + 1 - i) t) / (|b| sinh t sinh((n + 1) t)), cosh t = a / (2|b|)."""
    if b == 0:
        return [1 / a] * n
    t = mpmath.acosh(a / (2 * abs(b)))
    scale = abs(b) * mpmath.sinh(t) * mpmath.sinh((n + 1) * t)
    return [mpmath.sinh(i * t) * mpmath.sinh((n + 1 - i) * t) / scale for i in range(1, n + 1)]


@pytest.mark.parametrize("diag, off", [(2.0, -0.5), (2.0, 0.0), (3.0, 0.5)])
def test_gaussian_scaling_kl_rows_match_mpmath_and_cholesky(diag, off):
    """kl-marginal-max and kl-full against a 40-digit closed form, with
    S_h = (A (I - hA/2))^{-1} = A^{-1} + (2/h - A)^{-1}, and to 1e-10 against the
    dense Cholesky kl_gaussian, whose tr - n + log-det sum cancels more digits."""
    mpmath = pytest.importorskip("mpmath")
    dims, h = (1, 2, 3, 17, 256, 1024), 0.05
    rep = run_experiment(ExperimentConfig(
        "gaussian-scaling", dims=dims, h_values=(h,), options={"diag": diag, "off": off}
    ))
    with mpmath.workdps(40):
        a, b, hh = mpmath.mpf(diag), mpmath.mpf(off), mpmath.mpf(h)
        for n in dims:
            top = rep.select(metric="kl-marginal-max", n=n)[0].value
            full = rep.select(metric="kl-full", n=n)[0].value
            var = _mp_inverse_diagonal(mpmath, n, a, b)
            shift = _mp_inverse_diagonal(mpmath, n, 2 / hh - a, -b)
            ratios = [1 + s / v for v, s in zip(var, shift)]
            lams = [a + 2 * b * mpmath.cos(mpmath.pi * k / (n + 1)) for k in range(1, n + 1)]
            ratios_full = [1 / (1 - hh * lam / 2) for lam in lams]
            for got, rs, fold in ((top, ratios, max), (full, ratios_full, mpmath.fsum)):
                want = fold((r - 1 - mpmath.log(r)) / 2 for r in rs)
                assert abs(got - want) <= 1e-13 * want, (n, got, want)
            tgt = orc.GaussianTarget(tridiagonal_precision(n, diag, off))
            law, law_h = tgt.law(), orc.lmc_stationary_law(tgt, h)
            dense = orc.GaussianLaw(law.mean, law.cov)
            dense_h = orc.GaussianLaw(law_h.mean, law_h.cov)
            cholesky_top = max(
                orc.kl_gaussian(orc.marginal(dense_h, (i,)), orc.marginal(dense, (i,)))
                for i in range(n)
            )
            assert top == pytest.approx(cholesky_top, rel=1e-10, abs=0)
            assert full == pytest.approx(orc.kl_gaussian(dense_h, dense), rel=1e-10, abs=0)


def test_certified_trajectory_rows_start_and_h_star(tmp_path, capsys):
    """2 rows per (h, u, k) after the growth row; at k = 0 the exact KL of the start
    law under the curve's start C0 |u|; an h above h* is a valid=false run."""
    n, k = 5, 4
    panel = [[0], [2], [1, 2]]
    cfg = ExperimentConfig("certified-trajectory", dims=(n,), h_values=(0.002, 0.004),
                           subsets=panel, options={"k": k})
    rep = run_experiment(cfg)
    assert len(rep.rows) == 2 * len(panel) * 2 * (k + 1) + 1
    assert rep.rows[0].metric == "growth-certificate" and not rep.failures()
    assert [r.metric for r in rep.rows[1:5]] == ["kl-transient", "certified-curve"] * 2

    tgt = orc.GaussianTarget(sparse.csr_array(tridiagonal_precision(n)))  # as the harness's
    law = tgt.law()
    law0 = orc.GaussianLaw(np.zeros(n), 2.0 * law.cov)
    C0 = (2.0 - 1.0 - math.log(2.0)) / 2.0  # the start law is 2 Sigma: C0 in closed form
    for w in ([2], [1, 2], list(range(n))):  # the oracle's marginal KL, |w| = 1, 2 and n
        kl = orc.kl_gaussian(orc.marginal(law0, w), orc.marginal(law, w))
        assert kl == pytest.approx(C0 * len(w), rel=1e-13, abs=0)
    starts = rep.select(metric="kl-transient")[:: k + 1]
    assert [r.subset for r in starts] == ["0", "2", "1|2"] * 2
    for r, u in zip(starts, panel * 2):
        assert r.value == orc.kl_gaussian(orc.marginal(law0, u), orc.marginal(law, u))
        assert r.bound == C0 * len(u)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "certified-trajectory", "h_values": [0.1]}))
    rc = main(["run", str(path)])
    payload = cli_json(capsys)
    assert rc == 2 and payload["valid"] is False and "exceeds h*" in payload["reason"]


def _pattern_precision(n: int) -> list:
    """Tridiagonal, with the pair (1, 2) zero and a far pair (0, n - 1) coupled."""
    A = tridiagonal_precision(n)
    A[1, 2] = A[2, 1] = 0.0
    A[0, n - 1] = A[n - 1, 0] = 0.1
    return A.tolist()


@pytest.mark.parametrize("n", [8, 70])
@pytest.mark.parametrize("user", [False, True], ids=["default CSR", "dense user precision"])
def test_experiment_graph_is_the_precision_pattern(n, user):
    """The graph the experiments read, from A's nonzero strict upper triangle, is
    the graph of the potential gaussian_potential(A) builds."""
    options = {"precision": _pattern_precision(n)} if user else {}
    tgt = _target_from_options(n, ExperimentConfig("bound-vs-truth", dims=(n,), options=options))
    assert sparse.issparse(tgt.precision) is not user
    got = _precision_graph(tgt)
    assert got.edges() == build_graph(gaussian_potential(tgt.precision)).edges()
    assert ((1, 2) in got.edges()) is not user and ((0, n - 1) in got.edges()) is user


def test_bound_vs_truth_no_violations_at_smoke_scale():
    rep = run_experiment(
        ExperimentConfig(
            experiment="bound-vs-truth", dims=(4,), h_values=(0.005, 0.01)
        )
    )
    # growth row + (kl + talagrand) x 4 singleton subsets x 2 step sizes
    assert len(rep.rows) == 1 + 2 * 4 * 2
    assert rep.rows[0].metric == "growth-certificate"
    assert rep.rows[0].valid is True
    assert rep.failures() == []
    wide = run_experiment(
        ExperimentConfig(
            experiment="bound-vs-truth",
            dims=(4,),
            h_values=(0.01,),
            subsets="singletons+all-pairs",
        )
    )
    assert len(wide.rows) == 1 + 2 * (4 + 6)
    assert wide.failures() == []


def test_bound_vs_truth_measures_c_on_the_graph():
    """On mean_field(8) every vertex has |N_1(i)| = 8: the growth row holds at c = 8, and
    the default h grid steps by h*/20 with h* = alpha / (4 c beta^2) from that c."""
    A = mean_field(8).quadratic_matrix.toarray()
    rep = run_experiment(ExperimentConfig("bound-vs-truth", options={"precision": A.tolist()}))
    assert rep.rows[0].metric == "growth-certificate" and rep.rows[0].valid is True
    tgt = orc.GaussianTarget(A)
    consts = sparse_poly_constants(tgt.alpha, tgt.beta, 1.0, 8.0, 1.0)
    hs = sorted({r.h for r in rep.rows[1:]})
    assert hs == [consts["h_star"] * i / 20.0 for i in range(1, 21)]
    assert {r.bound for r in rep.select(metric="kl-marginal", n=8) if r.h == hs[-1]} == {
        consts["C"] * hs[-1]
    }
    assert not rep.failures()


def test_subadditivity_experiment_equality_at_full_size():
    rep = run_experiment(ExperimentConfig(experiment="subadditivity", dims=(4,)))
    assert len(rep.rows) == 4
    assert rep.failures() == []
    last = rep.select(metric="subadditivity-lhs")[-1]
    assert last.subset == "k=4"
    assert last.value == pytest.approx(last.bound, abs=1e-10)  # k = n is tight


def test_continuous_time_experiment_smoke():
    rep = run_experiment(
        ExperimentConfig(experiment="continuous-time", dims=(3,), subsets="singletons")
    )
    assert len(rep.rows) == 3 * 3 * 4  # each singleton at eps in (0.25, 0.5, 0.9), 4 times
    assert [r.metric for r in rep.rows[:4:3]] == ["kl-t=0.1-eps=0.25", "kl-t=0.5-eps=0.25"]
    assert rep.failures() == []
    assert all(r.theorem == "continuous-time" for r in rep.rows)


def test_continuous_time_experiment_reads_each_subsets_balls_once(monkeypatch):
    """Every (eps, t) cell of a panel entry takes its series from one hop-distance read."""
    calls = []
    rings = InteractionGraph._rings
    monkeypatch.setattr(InteractionGraph, "_rings", lambda g, u: calls.append(u) or rings(g, u))
    cfg = ExperimentConfig(experiment="continuous-time", dims=(64,), subsets="singletons+pairs")
    rep = run_experiment(cfg)
    panel = list(dict.fromkeys(r.subset for r in rep.rows))  # 64 singletons, 63 path edges
    assert len(panel) == 127 and len(rep.rows) == 12 * len(panel)
    assert ["|".join(map(str, u)) for u in calls] == panel  # one call each, not one per cell
    assert rep.failures() == []


def test_onestep_experiment_is_deterministic():
    cfg = ExperimentConfig(
        experiment="onestep-linf",
        dims=(3,),
        seed=5,
        options={"samples": 256, "n_boot": 4},
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows == b.rows
    metrics = [r.metric for r in a.rows]
    assert metrics == ["w2sq-linf-full", "w2sq-linf-full-extrap"]
    # the extrapolated value comes without an SE of its own
    assert a.rows[0].se > 0 and a.rows[1].se is None


def test_onestep_rows_equal_a_serial_computation_dim_by_dim():
    """The run solves every estimate as one batch; each dim's generator still
    draws its samples, then the full sample's replicates, as a dim-by-dim loop does."""
    cfg = ExperimentConfig("onestep-linf", dims=(2, 3), seed=4, options={"samples": 96, "n_boot": 3})
    before = threading.active_count()
    rows = run_experiment(cfg).rows
    assert threading.active_count() == before  # the batch's pool is gone
    assert len(rows) == 4
    for counter, n in enumerate(cfg.dims):
        tgt = _target_from_options(n, cfg)
        h = 1.0 / (2.0 * tgt.beta)
        rng = np.random.default_rng([cfg.seed, counter])
        a = orc.sample(orc.lmc_stationary_law(tgt, h), 96, rng)
        b = orc.sample(tgt.law(), 96, rng)
        value, se = serial_w2sq_assignment(a, b, "linf", 3, rng)
        half, _ = serial_w2sq_assignment(a[:48], b[:48], "linf", 0, rng)
        full, extrap = rows[2 * counter : 2 * counter + 2]
        assert (full.n, full.h, full.value, full.se) == (n, h, value, se)
        assert (extrap.n, extrap.value) == (n, value + (value - half) / (math.sqrt(2.0) - 1.0))


def test_sampler_vs_oracle_smoke():
    rep = run_experiment(
        ExperimentConfig(
            experiment="sampler-vs-oracle",
            seed=0,
            options={
                "iterations": 20_000,
                "chains": 2,
                "thin": 5,
                "marginal_samples": 2000,
                "batches": 50,
            },
        )
    )
    assert [r.metric for r in rep.rows] == ["cov-entry"] * 3 + ["w2sq-marginal"] * 2
    assert all(r.se is not None and r.se > 0 for r in rep.rows)
    assert rep.failures() == []


def test_sampler_vs_oracle_takes_n_from_dims():
    # without a precision option the target is tridiagonal(3, 0.5) of size dims[0]
    rep = run_experiment(
        ExperimentConfig(
            experiment="sampler-vs-oracle",
            dims=(4,),
            options={"iterations": 2000, "chains": 2, "batches": 10, "marginal_samples": 200},
        )
    )
    assert {r.n for r in rep.rows} == {4}
    assert len(rep.select(metric="cov-entry")) == 10
    assert [r.subset for r in rep.select(metric="w2sq-marginal")] == ["0", "1", "2", "3"]


def test_singleton_w2_rows_match_bures_of_marginals():
    # the closed-form coordinate W2^2 against the general Gaussian W2^2
    h = 0.05
    scaling = run_experiment(
        ExperimentConfig(
            experiment="gaussian-scaling", dims=(5,), h_values=(h,),
            options={"diag": 2.0, "off": -0.7},
        )
    )
    sampler = run_experiment(
        ExperimentConfig(
            experiment="sampler-vs-oracle", dims=(3,), h_values=(h,),
            options={"iterations": 2000, "chains": 2, "batches": 10, "marginal_samples": 200},
        )
    )
    for rep, A, col in [
        (scaling, tridiagonal_precision(5, 2.0, -0.7), "value"),
        (sampler, tridiagonal_precision(3, 3.0, 0.5), "bound"),
    ]:
        tgt = orc.GaussianTarget(A)
        law, law_h = tgt.law(), orc.lmc_stationary_law(tgt, h)
        rows = rep.select(metric="w2sq-marginal")
        assert len(rows) == A.shape[0]
        for r in rows:
            i = int(r.subset)
            ref = orc.w2sq_gaussian(orc.marginal(law_h, (i,)), orc.marginal(law, (i,)))
            assert getattr(r, col) == pytest.approx(ref, rel=1e-9, abs=0)


def test_delocalization_demo_small():
    rep = delocalization_failure_demo(dims=(4, 8))
    growth = rep.select(metric="rotated-bias-growth")[0]
    spread = rep.select(metric="product-bias-variation")[0]
    assert growth.value >= 2.0
    assert spread.value < 0.05
    assert rep.failures() == []


def test_delocalization_compares_the_largest_n_with_the_smallest():
    """The growth used to be the last n's bias over the first's: 1.0 for one dim
    and below 1 for descending dims, both a false counterexample."""
    across = ("rotated-bias-growth", "product-bias-variation")
    rows = lambda dims: delocalization_failure_demo(dims=dims).rows
    ascending, shuffled = rows((16, 32, 64)), rows((32, 64, 16))
    claims = lambda rows: [r for r in rows if r.metric in across]
    assert claims(shuffled) == claims(ascending) and [r.n for r in claims(shuffled)] == [64, 64]
    single = rows((16,))
    assert [r.metric for r in single] == ["w2sq-marginal-max-product", "w2sq-marginal-max-rotated"]
    assert not any(r.valid is False for r in shuffled + single)


def _householder_to_ones(n):
    """The reflection H = I - 2ww'/|w|^2 with w = e_1 - (1,...,1)/sqrt(n), so
    H e_1 = (1,...,1)/sqrt(n); the identity when that is e_1 already."""
    w = -np.full(n, 1.0 / math.sqrt(n))
    w[0] += 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n)
    w /= nw
    return np.eye(n) - 2.0 * np.outer(w, w)


@pytest.mark.parametrize("n", [1, 2, 16, 128])
def test_rotated_precision_is_householder_rotation(n):
    soft, stiff = 1.0, 50.0
    d = np.full(n, stiff)
    d[0] = soft
    H = _householder_to_ones(n)
    ref = H @ np.diag(d) @ H
    got = _rotated_precision(n, soft, stiff)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ----------------------------------------------------------------------- cli

def _reject_constant(name):
    raise ValueError(f"deloc printed {name}, which strict JSON does not have")


def cli_json(capsys):
    """The JSON document the command printed, parsed strictly: NaN and Infinity fail."""
    return json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_cli_run_ok(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "subadditivity", "dims": [4]}))
    out = tmp_path / "rep.csv"
    rc = main(["run", str(cfg), "--output", str(out)])
    payload = cli_json(capsys)
    assert rc == 0
    assert payload["failures"] == 0
    assert payload["rows"] == 4
    # one report format: the CSV and its sidecar, and no other file
    assert payload["files"] == [str(out), str(out) + ".json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "rep.csv", "rep.csv.json"]


def test_cli_run_reports_failures_with_exit_2(tmp_path, capsys):
    # n = 6 -> 8 is too small a jump for the rotated bias to double
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "delocalization-failure", "dims": [6, 8]})
    )
    rc = main(["run", str(cfg)])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["failures"] == 1
    assert payload["failed_metrics"] == ["rotated-bias-growth"]


def test_cli_run_reports_divergence_with_exit_2(tmp_path, capsys):
    # h = 1 is unstable for the default 2-d target: the chains diverge,
    # and the run reports one invalid row instead of a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"experiment": "sampler-vs-oracle", "h_values": [1.0], "options": {"iterations": 2000}}
    ))
    out = tmp_path / "rep.csv"
    rc = main(["run", str(cfg), "--output", str(out)])
    payload = cli_json(capsys)
    assert rc == 2
    assert (payload["rows"], payload["failures"]) == (1, 1)
    assert payload["failed_metrics"] == ["divergence"]
    row = out.read_text().splitlines()[1].split(",")
    assert row[3].startswith("chain=") and row[4] == "divergence"
    assert float(row[5]) >= 1 and row[-1] == "false"


@pytest.mark.parametrize("theorem", ["continuous-time", "sparse-dyn-poly"])
def test_an_overflowing_start_kl_is_a_reason_not_a_warning(theorem):
    """A start KL C0 |w| = 5e307 |w| overflows on a neighbourhood of 4 coordinates, or the
    envelope 2 c C0 built on it does: valid=False and the reason, no numpy warning."""
    if theorem == "continuous-time":
        path = InteractionGraph(4, [(0, 1), (1, 2), (2, 3)])
        rep = continuous_time_bound(path, [0], 0.1, 0.25, 1.0, 2.0, 1.0, C0=5e307)
        says = "the bound overflows at u=[0], t="  # the subset is named by its indices
    else:
        params = dict(alpha=1.0, beta=2.0, gamma=1.0, c=3.0, p=1.0)
        rep = dynamic_bound(theorem, params, 0, 0.01, 1, 5e307)
        says = "transient must be a number, got inf at theorem="
    assert rep.valid is False
    assert rep.reason.startswith(says) and rep.reason.endswith("C0=5e+307")


TINY_CONFIGS = {
    "gaussian-scaling": {"dims": [3, 4], "h_values": [0.01]},
    "bound-vs-truth": {"dims": [3], "h_values": [0.01], "subsets": "singletons"},
    "certified-trajectory": {"dims": [3], "options": {"k": 3}},
    "subadditivity": {"dims": [3]},
    "continuous-time": {"dims": [3], "subsets": "singletons"},
    "onestep-linf": {"dims": [2], "options": {"samples": 64, "n_boot": 2}},
    "sampler-vs-oracle": {
        "options": {"iterations": 2000, "chains": 2, "batches": 10, "marginal_samples": 200}
    },
    "delocalization-failure": {"dims": [4, 8]},
}


@pytest.mark.parametrize(
    "experiment",
    ["bound-vs-truth", "certified-trajectory", "subadditivity", "continuous-time",
     "sampler-vs-oracle"],
)
def test_a_dims_list_runs_each_n_in_turn(experiment):
    """Each n of dims runs as a run of that n alone: the rows are the single-n runs'
    rows in dims order, with the same values and Python types."""
    spec = {"experiment": experiment, **TINY_CONFIGS[experiment]}
    dims = [4, 3]
    typed = lambda rows: [[(type(v), v) for v in astuple(r)] for r in rows]
    rows = run_experiment(config_from_dict({**spec, "dims": dims})).rows
    alone = [run_experiment(config_from_dict({**spec, "dims": [n]})).rows for n in dims]
    assert [r.n for r in rows] == [n for n, part in zip(dims, alone) for _ in part]
    assert typed(rows) == typed([r for part in alone for r in part])


@pytest.mark.parametrize("experiment", ["bound-vs-truth", "certified-trajectory"])
def test_a_sparse_setup_walks_the_growth_chains_once(experiment, monkeypatch):
    """c is measured by one walk over every vertex's chain; the certificate at c holds
    by construction, so no second walk confirms it."""
    walks = []
    walk = deloc.graph._growth
    monkeypatch.setattr(deloc.graph, "_growth", lambda g, unit: walks.append(g.n) or walk(g, unit))
    spec = {"experiment": experiment, **TINY_CONFIGS[experiment], "dims": [3, 4]}
    rows = run_experiment(config_from_dict(spec)).select(metric="growth-certificate")
    assert walks == [3, 4]
    assert [(r.value, r.valid) for r in rows] == [(1.0, True)] * 2


@pytest.mark.parametrize("experiment,fields", [
    ("bound-vs-truth", {"h_values": [0.01, 0.02]}),
    ("certified-trajectory", {}),
    ("continuous-time", {}),
])
def test_each_marginal_of_a_law_is_formed_once(experiment, fields, monkeypatch):
    """The target's marginal on a subset is formed once and reused for every h, step k
    or (eps, t); no other law's marginal on a subset is formed twice either."""
    calls = []
    marginal = orc.marginal
    monkeypatch.setattr(orc, "marginal", lambda law, u: calls.append((law, u)) or marginal(law, u))
    spec = {"experiment": experiment, **TINY_CONFIGS[experiment], **fields, "subsets": "pairs"}
    run_experiment(config_from_dict(spec))
    formed = [(id(law), tuple(u)) for law, u in calls]  # calls holds every law alive
    assert len(formed) == len(set(formed)) > 3


def test_across_n_rows_sit_at_the_largest_n_once_per_h_entry():
    """The rows across n take the per-n values in ascending n, so dims in any order give
    the same rows at the largest n; a repeated h gives its rows once per entry, and one
    distinct n gives none."""
    run = lambda dims, hs=(0.01,): run_experiment(
        ExperimentConfig("gaussian-scaling", dims=dims, h_values=hs)
    ).rows
    ascending, shuffled = run((16, 64, 256)), run((256, 16, 64))
    assert shuffled[-4:] == ascending[-4:] and {r.n for r in shuffled[-4:]} == {256}
    assert run((16, 64), (0.01, 0.01))[-8:] == run((16, 64))[-4:] * 2
    assert [r.metric for r in run((16, 16))[-2:]] == ["kl-marginal-max", "kl-full"]


def test_delocalization_growth_fails_where_the_bias_has_saturated():
    """A negative control of the growth rule: the rotated bias rises toward the stiff
    product's value and stops there, so from n = 1000 to 4000 it grows by 2.6% only."""
    rep = run_experiment(ExperimentConfig("delocalization-failure", dims=(1000, 4000)))
    (growth,) = rep.select(metric="rotated-bias-growth")
    assert round(growth.value, 3) == 1.026 and growth.valid is False
    assert [r.metric for r in rep.failures()] == ["rotated-bias-growth"]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_report_files_match_a_row_by_row_formatter(experiment, tmp_path, monkeypatch):
    """The writers read row blocks; their files are those of the rows, byte for byte,
    also when a series is formatted in chunks of 2 rows."""
    spec = {"experiment": experiment, **TINY_CONFIGS[experiment]}
    rep = run_experiment(config_from_dict(spec))
    rows = rep.rows
    for chunk in (harness._CHUNK, 2):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        rep.to_csv(tmp_path / "rep.csv")
        assert (tmp_path / "rep.csv").read_text() == reference_csv(rows)
        rep.to_json_sidecar(tmp_path / "rep.json")
        assert (tmp_path / "rep.json").read_text() == reference_sidecar(rep)
    # and the writers, the count, failures and select build no row of a series
    monkeypatch.setattr(_Series, "_rows", None)
    rep.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == reference_csv(rows)
    assert rep._num_rows() == rep.metadata["rows"] == len(rows)
    assert rep.failures() == [r for r in rows if r.valid is False]
    assert rep.select(metric="w2sq-full") == [r for r in rows if r.metric == "w2sq-full"]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_cli_run_every_experiment_prints_json(experiment, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, **TINY_CONFIGS[experiment]}))
    rc = main(["run", str(cfg)])
    payload = cli_json(capsys)
    assert payload["experiment"] == experiment
    assert payload["rows"] > 0
    assert rc == (2 if payload["failures"] else 0)


@pytest.mark.parametrize(
    "spec,reason",
    [
        ({"experiment": "gaussian-scaling", "dims": [4], "h_values": [1.5]}, "stability region"),
        ({"experiment": "subadditivity", "dims": [12]}, "capped at n=10"),
        ({"experiment": "subadditivity", "h_values": [0.1, 0.2]}, "takes one entry in h_values"),
        # a rotated bias of 0 has no growth to check: a domain error, not a ZeroDivisionError
        ({"experiment": "delocalization-failure", "dims": [4, 8], "h_values": [1e-17]},
         "the bias at h=1e-17 underflows to 0"),
        ({"experiment": "delocalization-failure", "h_values": [0.01, 0.02]},
         "takes one entry in h_values"),
        ({"experiment": "sampler-vs-oracle", "dims": [4],
          "options": {"precision": [[3.0, 0.5], [0.5, 3.0]]}}, "does not match n=4"),
        ({"dims": [4]}, "'experiment'"),
        ({"experiment": "no-such-experiment"}, "unknown experiment"),
        ({"experiment": "bound-vs-truth", "dims": [3], "subsets": []}, "subset panel [] is empty"),
        ({"experiment": "continuous-time", "dims": [3], "subsets": []}, "subset panel [] is empty"),
        # an option or a step list that the experiment never reads
        ({"experiment": "gaussian-scaling", "options": {"diagonal": 5}},
         "unknown config 'options' keys ['diagonal']"),
        ({"experiment": "onestep-linf", "options": {"soft": 1.0, "samples": 64}},
         "unknown config 'options' keys ['soft']"),
        ({"experiment": "continuous-time", "dims": [3], "h_values": [0.01]},
         "continuous-time takes no h_values, got [0.01]"),
        ({"experiment": "certified-trajectory", "h_values": [0.1]}, "exceeds h*"),
        ({"experiment": "gaussian-scaling", "dims": [0]}, "'dims' entries must be integers >= 1"),
        ({"experiment": "gaussian-scaling", "h_values": [-0.1]},
         "'h_values' entries must be numbers > 0"),
        # no bootstrap SE from fewer than two replicates
        ({"experiment": "onestep-linf", "dims": [2], "options": {"samples": 64, "n_boot": 0}},
         "option 'n_boot' must be an integer >= 2 for a bootstrap SE, got 0"),
        ({"experiment": "onestep-linf", "dims": [2], "options": {"samples": 64, "n_boot": 1}},
         "option 'n_boot' must be an integer >= 2 for a bootstrap SE, got 1"),
        # the default sparse target: its sine spectrum has lambda_min < 0 at n = 8
        ({"experiment": "gaussian-scaling", "dims": [8], "options": {"diag": 1.0, "off": -0.6}},
         "precision must be positive definite"),
        # c is measured on the graph, so no run takes it
        ({"experiment": "bound-vs-truth", "options": {"c": 3.0}},
         "unknown config 'options' keys ['c']"),
        ({"experiment": "certified-trajectory", "options": {"c": 3.0}},
         "unknown config 'options' keys ['c']"),
    ],
)
def test_cli_run_reports_domain_errors_with_exit_2(spec, reason, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    rc = main(["run", str(cfg)])
    payload = cli_json(capsys)
    assert rc == 2
    assert set(payload) == {"experiment", "valid", "reason"}
    assert (payload["experiment"], payload["valid"]) == (spec.get("experiment"), False)
    assert reason in payload["reason"]


# the theorem parameters each experiment holds as constants: no config sets them
REMOVED_OPTIONS = [
    ("bound-vs-truth", "p", 1.0),
    ("bound-vs-truth", "gamma", 1.0),
    ("certified-trajectory", "cov0_scale", 2.0),
    ("subadditivity", "tol", 1e-9),
    ("continuous-time", "gamma", 1.0),
    ("continuous-time", "cov0_scale", 2.0),
    ("continuous-time", "eps", [0.5]),
    ("continuous-time", "times", [0.5]),
    ("delocalization-failure", "soft", 1.0),
    ("delocalization-failure", "stiff", 50.0),
]


@pytest.mark.parametrize("experiment, key, value", REMOVED_OPTIONS)
def test_cli_run_refuses_a_theorem_parameter_as_an_option(experiment, key, value, tmp_path,
                                                         capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "dims": [4], "options": {key: value}}))
    rc = main(["run", str(cfg)])
    payload = cli_json(capsys)
    assert rc == 2 and payload == {
        "experiment": experiment, "valid": False,
        "reason": f"unknown config 'options' keys ['{key}']",
    }


@pytest.mark.parametrize("blocked", ["csv", "sidecar"])
def test_cli_run_reports_an_unwritable_output(blocked, tmp_path, capsys):
    """A report file that cannot be written (a directory that does not exist, a sidecar
    path that is a directory) is the command's head plus valid=false and the OS reason."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "subadditivity", "dims": [3]}))
    out = tmp_path / "missing" / "rep.csv" if blocked == "csv" else tmp_path / "rep.csv"
    if blocked == "sidecar":
        (tmp_path / "rep.csv.json").mkdir()
    rc = main(["run", str(cfg), "--output", str(out)])
    payload = cli_json(capsys)
    assert rc == 2 and set(payload) == {"experiment", "valid", "reason"}
    assert (payload["experiment"], payload["valid"]) == ("subadditivity", False)
    assert payload["reason"].startswith("cannot write the report: [Errno ")
    assert str(out) + ("" if blocked == "csv" else ".json") in payload["reason"]


@pytest.mark.parametrize("argv, path, errno_name", [
    (["--output", "missing/s.csv"], "missing/s.csv", "No such file or directory"),
    (["--output", "s.csv"], "s.csv.json", "Is a directory"),
    (["--output", "s.csv.json"], "s.csv.json", "Is a directory"),
])
def test_cli_run_checks_its_report_paths_before_the_run(argv, path, errno_name, tmp_path,
                                                        capsys, monkeypatch):
    """The CSV and its sidecar are checked before run_experiment, and no file is created
    or truncated: a CSV or sidecar path that is a directory, or a missing directory, ends
    the command with the OS error writing would meet."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "subadditivity", "dims": [3]}))
    (tmp_path / "s.csv").write_text("kept")
    (tmp_path / "s.csv.json").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(deloc.cli, "run_experiment", lambda cfg: pytest.fail("the run started"))
    rc = main(["run", "cfg.json", *argv])
    payload = cli_json(capsys)
    assert rc == 2 and payload == {
        "experiment": "subadditivity", "valid": False,
        "reason": f"cannot write the report: [Errno {_ERRNO[errno_name]}] {errno_name}: '{path}'",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "s.csv").read_text() == "kept"


_ERRNO = {"No such file or directory": errno.ENOENT, "Is a directory": errno.EISDIR}


def test_cli_run_writes_over_an_existing_report(tmp_path, capsys):
    """Checking the paths first does not refuse a CSV or a sidecar that exists."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "subadditivity", "dims": [3]}))
    out = tmp_path / "s.csv"
    for path in (out, tmp_path / "s.csv.json"):
        path.write_text("old")
    rc = main(["run", str(cfg), "--output", str(out)])
    assert rc == 0 and len(cli_json(capsys)["files"]) == 2
    assert out.read_text().startswith("experiment,n,h,subset")
    assert json.loads((tmp_path / "s.csv.json").read_text())["num_rows"] == 3


def test_certified_trajectory_builds_each_envelope_once(monkeypatch):
    """The envelope depends on u only through |u|: one dynamic_bound call per (h, k, |u|)."""
    calls = []
    envelope = deloc.bounds.dynamic_bound
    monkeypatch.setattr(deloc.bounds, "dynamic_bound",
                        lambda *args: calls.append(args[2:5]) or envelope(*args))
    hs, k = (0.002, 0.004), 3
    cfg = ExperimentConfig("certified-trajectory", dims=(5,), h_values=hs,
                           subsets=[[0], [1, 2], [3], [2, 4]], options={"k": k})
    rep = run_experiment(cfg)
    assert sorted(calls) == sorted((j, h, s) for h in hs for j in range(k + 1) for s in (1, 2))
    assert len(rep.select(metric="certified-curve")) == len(hs) * 4 * (k + 1)
    assert not rep.failures()


@pytest.mark.parametrize(
    "spec,reason",
    [
        ({"experiment": "subadditivity", "dims": 4}, "'dims' must be a list"),
        ({"experiment": "subadditivity", "h_values": 0.1}, "'h_values' must be a list"),
        ({"experiment": "gaussian-scaling", "options": 3}, "'options' must be a JSON object"),
        ({"experiment": "subadditivity", "dims": [[3]]}, "'dims' entries must be numbers"),
        ({"experiment": "subadditivity", "h_values": [None]}, "'h_values' entries must be"),
        ({"experiment": "bound-vs-truth", "subsets": 3}, "'subsets' must be a string, list"),
        ({"experiment": ["subadditivity"]}, "unknown experiment"),
        ([{"experiment": "subadditivity"}], "config must be a JSON object"),
        ({"experiment": "subadditivity", "seed": [1]}, "'seed' must be an integer"),
        ({"experiment": "subadditivity", "seed": 1.5}, "'seed' must be an integer"),
        ({"experiment": "bound-vs-truth", "subsets": {"random": 3}},
         "subsets 'random' must be a JSON object"),
        ({"experiment": "bound-vs-truth", "dims": [3], "subsets": [0, 1]},
         "subsets entry must be a list of integers, distinct and non-negative, got 0"),
        ({"experiment": "gaussian-scaling", "dims": [3.5]}, "'dims' entries must be whole numbers"),
        # the CSV path is `deloc run --output`, no config field
        ({"experiment": "subadditivity", "dims": [3], "output": "x.csv"},
         "unknown config keys ['output']"),
        ({"experiment": "subadditivity", "dims": [3], "seed": True}, "'seed' must be an integer"),
        ({"experiment": "onestep-linf", "dims": [4], "options": {"samples": 64.7}},
         "option 'samples' must be an integer"),
        ({"experiment": "gaussian-scaling", "dims": ["8"]}, "'dims' entries must be numbers"),
        ({"experiment": "gaussian-scaling", "dims": [4], "h_values": ["0.01"]},
         "'h_values' entries must be numbers"),
        ({"experiment": "sampler-vs-oracle", "dims": [2],
          "options": {"precision": [["2", True], [True, "2"]]}},
         "option 'precision' must be a square list of number lists"),
        # |u| would count the repeated index, and the kl-marginal bound double
        ({"experiment": "bound-vs-truth", "dims": [3], "h_values": [0.01],
          "subsets": [[0, 0], [0]]},
         "subsets entry must be a list of integers, distinct and non-negative, got [0, 0]"),
        ({"experiment": "bound-vs-truth", "dims": [3], "subsets": {"draw": 3}},
         "unknown config 'subsets' keys ['draw']"),
        # finite and positive, but its inverse, the covariance, overflows to inf
        ({"experiment": "gaussian-scaling", "dims": [1], "options": {"precision": [[1e-310]]}},
         "covariance must be finite"),
    ],
)
def test_cli_run_reports_mistyped_config_with_exit_2(spec, reason, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    rc = main(["run", str(cfg)])
    payload = cli_json(capsys)
    assert rc == 2
    assert set(payload) == {"experiment", "valid", "reason"}
    experiment = spec.get("experiment") if isinstance(spec, dict) else None
    assert (payload["experiment"], payload["valid"]) == (experiment, False)
    assert reason in payload["reason"]


@pytest.mark.parametrize("text", ["not json", None])
def test_cli_run_unreadable_config_is_a_usage_error(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg)])
    assert exc.value.code == 2
    assert "cannot read JSON" in capsys.readouterr().err


def test_cli_rejects_non_finite_potential_constants(tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text('{"n": 2, "smoothness": {"alpha": NaN, "gamma": Infinity},'
                    ' "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1]}]}')
    rc = main(["hierarchy", str(path), "--t", "0.5", "--subset", "0"])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload == {"case": "sparse-poly", "t": 0.5, "valid": False,
                       "reason": payload["reason"]}
    assert "NaN is not a finite number" in payload["reason"]
    rc = main(["validate", str(path)])
    assert rc == 2
    assert cli_json(capsys) == {
        "valid": False, "error": f"ValueError: {payload['reason']}"
    }


def test_readme_potential_example_loads_and_validates(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### File formats", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    pot = potential_from_dict(json.loads(block))
    path = tmp_path / "readme.json"
    path.write_text(block)
    rc = main(["validate", str(path)])
    payload = cli_json(capsys)
    assert rc == 0 and payload["valid"] is True
    assert (payload["n"], payload["terms"]) == (pot.n, len(pot.terms))


def test_readme_library_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    """Every python block of the README's library quick start runs, in order and in one
    namespace as a reader would paste them, so a renamed or removed name breaks it here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```python")[1:]]
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    first, second = capsys.readouterr().out.splitlines()
    kl, bound = map(float, first.split(" <= "))
    assert kl <= bound and second == "[]" and (tmp_path / "scaling.csv").exists()
    assert namespace["x3"].shape == (4 * 45_000 // 10,)


def test_readme_studies_run_clean(tmp_path, capsys):
    """Every JSON config under the README's Studies heading runs with no failed row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Studies", 1)[1].split("\n### ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```json")[1:]]
    experiments = [json.loads(b)["experiment"] for b in blocks]
    assert experiments == ["gaussian-scaling", "delocalization-failure", "certified-trajectory"]
    for i, block in enumerate(blocks):
        path = tmp_path / f"study{i}.json"
        path.write_text(block)
        rc = main(["run", str(path)])
        payload = cli_json(capsys)
        assert (rc, payload["failures"]) == (0, 0), payload


def test_readme_options_table_names_each_experiments_options():
    """The README's options table names, in backticks, exactly the option keys of each
    experiment, so the table cannot drift from the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| name | options (default) |", 1)[1].split("\n\n", 1)[0]
    named = {}
    for line in table.strip().splitlines()[1:]:
        _, name, cell, _ = line.split("|")
        named[name.strip().strip("`")] = set(re.findall(r"`([^`]+)`", cell))
    assert named == {experiment: set(keys) for experiment, keys in harness._OPTIONS.items()}
    assert sum(map(len, named.values())) == 29


UNLOADABLE_POTENTIALS = [
    ({"n": 2, "smoothness": {"alpha": 0.5},
      "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                 "params": {"precision": [[2.0, 0.5], [0.0, 2.0]]}}]},
     "precision must be symmetric to 1e-10"),
    ({"n": 3, "smoothness": {"alpha": 0.5, "beta": 2.0},
      "terms": [{"kind": "builtin:chain-pairwise", "support": []}]},
     "term 'support' must be nonempty"),
    ({"n": 3, "terms": [], "smoothness": {}}, "missing required key 'alpha'"),
    ({"n": 3, "smoothness": {"alpha": 0.5}, "terms": [{"kind": "quadratic"}]},
     "missing required key 'support'"),
    ({"n": 3, "smoothness": {"alpha": 0.5}, "terms": [{"support": [0]}]},
     "missing required key 'kind'"),
    ({"n": 3, "smoothness": {"alpha": 0.5}, "terms": [{"kind": "quadratic", "support": [0]}]},
     "missing required key 'matrix'"),
    (None, "cannot read potential file"),  # no file at the path
]


@pytest.mark.parametrize("spec,reason", UNLOADABLE_POTENTIALS)
def test_cli_reports_unloadable_potential_with_exit_2(spec, reason, tmp_path, capsys):
    path = tmp_path / "pot.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    for argv, head in (
        (["hierarchy", str(path)], {"case": "sparse-poly", "t": 1.0}),
        (["hierarchy", str(path), "--certify"], {"case": "sparse-poly", "h": 0.01}),
        (["bounds", "continuous-time", "--potential", str(path)], {"theorem": "continuous-time"}),
    ):
        rc = main(argv)
        payload = cli_json(capsys)
        assert rc == 2
        assert payload == {**head, "valid": False, "reason": payload["reason"]}
        assert reason in payload["reason"]
    rc = main(["validate", str(path)])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload == {"valid": False, "error": payload["error"]}
    assert payload["error"].startswith("ValueError: ") and reason in payload["error"]


def test_cli_bounds_constants(capsys):
    rc = main(["bounds", "sparse-poly", "--alpha", "1", "--beta", "1",
               "--gamma", "1", "--c", "1", "--p", "1"])
    payload = cli_json(capsys)
    assert rc == 0
    assert payload["outputs"]["C"] == 360.0
    assert payload["outputs"]["h_star"] == 0.25


def test_cli_bounds_invalid_exits_2(capsys):
    rc = main(["bounds", "sparse-exp", "--r", "3.0"])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["valid"] is False
    assert "subcritical" in payload["reason"]


def test_cli_bounds_scalar_theorems(capsys):
    rc = main(["bounds", "poisson-moment", "--rate", "2", "--t", "3", "--p", "2"])
    assert rc == 0
    assert cli_json(capsys)["outputs"]["moment_bound"] == 64.0
    rc = main(["bounds", "subgaussian-linf", "--beta", "2", "--n", "8"])
    assert rc == 0
    assert cli_json(capsys)["outputs"]["bound"] == pytest.approx(8.0 * math.log(16.0))


@pytest.mark.parametrize(
    "argv",
    [
        ["poisson-moment", "--rate", "-1"],
        ["poisson-moment", "--p", "1.5"],
        ["subgaussian-linf", "--n", "0"],
        ["sparse-dyn-poly", "--k", "-1"],
    ],
)
def test_cli_bounds_domain_errors_exit_2(argv, capsys):
    rc = main(["bounds", *argv])
    payload = cli_json(capsys)
    assert rc == 2
    assert set(payload) == {"theorem", "valid", "reason"}
    assert (payload["theorem"], payload["valid"]) == (argv[0], False)


def test_cli_bounds_continuous_time_with_potential(tmp_path, capsys):
    pot = write_potential(tmp_path / "pot.json")
    rc = main(["bounds", "continuous-time", "--potential", pot,
               "--subset", "1", "--t", "0.5", "--eps", "0.5", "--C0", "1.0"])
    payload = cli_json(capsys)
    assert rc == 0
    assert payload["outputs"]["bound_value"] > 0

    with pytest.raises(SystemExit) as exc:  # argparse usage error
        main(["bounds", "continuous-time", "--subset", "1"])
    assert exc.value.code == 2
    capsys.readouterr()

    rc = main(["bounds", "continuous-time", "--potential", pot, "--subset", "2", "1"])
    assert rc == 0 and cli_json(capsys)["inputs"]["u"] == [1, 2]

    rc = main(["bounds", "continuous-time", "--potential", pot, "--subset", "1", "--eps", "1.5"])
    payload = cli_json(capsys)
    assert rc == 2
    assert set(payload) == {"theorem", "valid", "reason"}
    assert (payload["theorem"], payload["valid"]) == ("continuous-time", False)
    assert "eps must be a number in (0, 1)" in payload["reason"]


def test_cli_float_flags_reject_nan_and_infinity(tmp_path, capsys):
    pot = write_potential(tmp_path / "pot.json")
    for argv in (
        ["bounds", "continuous-time", "--potential", pot, "--subset", "1", "--t", "inf"],
        ["hierarchy", pot, "--certify", "--h", "nan"],
        ["bounds", "sparse-poly", "--alpha=-inf"],
        ["bounds", "weak", "--R1", "nan"],
        ["hierarchy", pot, "--eps", "NaN"],
    ):
        with pytest.raises(SystemExit) as exc:  # argparse usage error
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a number, got" in captured.err


def test_cli_prints_strict_json_only(capsys):
    # in the domain, but C = 10 M0 M1 / ... overflows to inf: the theorem reports it
    rc = main(["bounds", "weak", "--M0", "1e200", "--M1", "1e200"])
    payload = cli_json(capsys)
    assert rc == 2 and payload["valid"] is False and payload["outputs"] == {}
    assert payload["reason"].startswith("C must be a number, got inf at alpha=1.0")
    # so does an envelope C0 |u| e^{-tau k h} that overflows to inf
    rc = main(["bounds", "weak-dyn", "--C0", "1e308", "--usize", "10"])
    payload = cli_json(capsys)
    assert rc == 2 and payload["valid"] is False and payload["outputs"] == {}
    assert payload["reason"].startswith("transient must be a number, got inf at theorem='weak-dyn'")
    # without a gap alpha - alpha0 the one-step bound has no value
    rc = main(["bounds", "onestep-linf", "--alpha", "1", "--alpha0", "1", "--beta", "2"])
    payload = cli_json(capsys)
    assert rc == 2 and payload["valid"] is False
    assert payload["outputs"] == {"bound_value": None, "full_linf": None, "marginal": None}
    # h < 0 with p = 1.5 made the envelope (lam k h + 1)^p a complex number
    rc = main(["bounds", "sparse-dyn-poly", "--h=-1", "--p", "1.5"])
    payload = cli_json(capsys)
    assert rc == 2 and payload["reason"] == "h must be a number > 0, got -1.0"
    assert "transient" not in payload["outputs"]


def test_printer_refuses_nan_and_infinity(capsys):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"valid": True, "outputs": {"bound_value": bad}})
        assert capsys.readouterr().out == ""


def test_experiment_ignores_the_config_fields_it_does_not_read():
    """seed is a config field, not an option: gaussian-scaling takes it and draws
    nothing with it.  A subsets panel it would not read is refused."""
    cfg = ExperimentConfig("gaussian-scaling", dims=(4,), seed=5)
    plain = ExperimentConfig("gaussian-scaling", dims=(4,))
    rows, plain_rows = run_experiment(cfg).rows, run_experiment(plain).rows
    assert [astuple(r) for r in rows] == [astuple(r) for r in plain_rows]
    with pytest.raises(ValueError, match="^gaussian-scaling takes no subsets, got 'pairs'$"):
        ExperimentConfig("gaussian-scaling", dims=(4,), subsets="pairs")


def test_cli_hierarchy_semigroup_and_certify(tmp_path, capsys):
    pot = write_potential(tmp_path / "pot.json")
    rc = main(["hierarchy", pot, "--case", "sparse-poly", "--subset", "1", "--t", "0.5"])
    payload = cli_json(capsys)
    assert rc == 0
    assert 1.0 <= payload["value"] <= 6.0  # mean neighbourhood size on 6 vertices

    rc = main(["hierarchy", pot, "--case", "sparse-poly", "--certify",
               "--p", "1", "--h", "0.005", "--k", "10", "--subset", "1"])
    payload = cli_json(capsys)
    assert rc == 0
    assert len(payload["curve"]) == 11
    assert payload["curve"][0] == 1.0  # default C0 |u|
    assert payload["c"] == 3.0  # measured on the path
    assert payload["h_star"] == pytest.approx(1.0 / 108.0)


def test_cli_hierarchy_certifies_with_the_growth_constant_of_the_graph(tmp_path, capsys):
    """A 6-vertex path with alpha = 0.5 and beta = 2 has c = 3, so h* = 1/96: an h of
    0.02, below the h* = 1/32 of c = 1, is refused, and 0.005 is certified."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "n": 6, "smoothness": {"alpha": 0.5, "beta": 2.0},
        "terms": [{"kind": "builtin:chain-pairwise", "support": list(range(6))}],
    }))
    rc = main(["hierarchy", str(path), "--certify", "--subset", "2", "--h", "0.02"])
    payload = cli_json(capsys)
    assert rc == 2 and payload["valid"] is False
    assert "h=0.02 exceeds h* = 0.010416666666666666" in payload["reason"]

    rc = main(["hierarchy", str(path), "--certify", "--subset", "2", "--h", "0.005", "--k", "4"])
    payload = cli_json(capsys)
    params = SparseParams(0.5, 2.0, 1.0, 3.0, p=1.0)
    H0 = SubsetFunction.size()
    graph = build_graph(load_potential(str(path)))
    assert rc == 0
    assert (payload["c"], payload["h_star"]) == (3.0, 1.0 / 96.0)
    assert payload["curve"] == certified_entropy_curve(
        "sparse", params, graph, H0, 0.005, 4, (2,)
    ).tolist()

    # an exponent whose k^p overflows bounds every size: c is still measured, and the
    # theorem's constant that overflows is the reason
    rc = main(["hierarchy", str(path), "--certify", "--p", "1e300"])
    payload = cli_json(capsys)
    assert rc == 2 and "a constant overflows at" in payload["reason"]
    # an exponent below 1 is no growth certificate, so c is not measured
    rc = main(["hierarchy", str(path), "--certify", "--p", "0.5"])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["reason"] == "growth certificate exponent must be a number >= 1, got 0.5"


BOUNDS_VALUES = dict(alpha="0.8", beta="1.7", gamma="0.4", c="2", r="1.2", M0="1.2", M1="2.0",
                     R1="0.3", h="0.001", k="50", usize="2", C0="1.5")


def bounds_args(*names):
    """The flags names with their BOUNDS_VALUES, as an argv."""
    return [arg for name in names for arg in (f"--{name}", BOUNDS_VALUES[name])]


def test_cli_bounds_match_direct_calls(capsys):
    rc = main(["bounds", "weak", *bounds_args("alpha", "gamma", "M0", "M1", "R1")])
    payload = cli_json(capsys)
    rep = weak_constants(0.8, 0.4, 1.2, 2.0, 0.3)
    assert rc == 0
    assert (payload["inputs"], payload["outputs"], payload["valid"]) == (
        rep.inputs, rep.outputs, rep.valid
    )
    for theorem, params in (
        ("sparse-dyn-exp", dict(alpha=0.8, beta=1.7, gamma=0.4, c=2.0, r=1.2)),
        ("weak-dyn", dict(alpha=0.8, gamma=0.4, M0=1.2, M1=2.0, R1=0.3)),
    ):
        rc = main(["bounds", theorem, *bounds_args(*params, "h", "k", "usize", "C0")])
        payload = cli_json(capsys)
        rep = dynamic_bound(theorem, params, 50, 0.001, 2, 1.5)
        assert rc == 0
        assert (payload["outputs"], payload["valid"], payload["reason"]) == (
            rep.outputs, rep.valid, rep.reason
        )


def write_mean_field(path, strength):
    """mean_field(6, strength=strength) as a builtin term; its spectrum is {1, 1 + strength}."""
    spec = {
        "n": 6,
        "smoothness": {"alpha": 1.0, "beta": 1.0 + strength, "gamma": 1.0},
        "terms": [{"kind": "builtin:mean-field", "support": list(range(6)),
                   "params": {"strength": strength}}],
    }
    path.write_text(json.dumps(spec))
    return str(path)


def test_cli_hierarchy_matches_direct_calls(tmp_path, capsys):
    path = write_mean_field(tmp_path / "mf.json", strength=0.1)
    pot = load_potential(path)
    sm, consts = pot.smoothness, pot.interaction_constants
    weights = tuple((mask_from(t.support), t.lipschitz) for t in pot.active_terms)

    rc = main(["hierarchy", path, "--case", "weak", "--subset", "1", "--t", "0.5"])
    gen = WeakGenerator.from_params(weights, sm.alpha, sm.gamma, 0.5)
    assert rc == 0
    assert cli_json(capsys)["value"] == semigroup_weak(gen, 0.5, SubsetFunction.size(), (1,))

    H0 = SubsetFunction.size()
    rc = main(["hierarchy", path, "--case", "weak", "--certify", "--h", "0.01", "--k", "8"])
    params = WeakParams(sm.alpha, sm.gamma)
    payload = cli_json(capsys)
    assert rc == 0
    assert payload["h_star"] == params.h_star(consts.M0, consts.M1, consts.R1)
    assert payload["curve"] == certified_entropy_curve(
        "weak", params, weights, H0, 0.01, 8, (0,)
    ).tolist()

    rc = main(["hierarchy", path, "--case", "sparse-exp", "--certify",
               "--r", "1.05", "--h", "0.001", "--k", "8"])
    params = SparseParams(sm.alpha, pot.beta, sm.gamma, 6.0, r=1.05)  # |N_1(i)| = 6
    payload = cli_json(capsys)
    assert rc == 0
    assert (payload["c"], payload["h_star"]) == (6.0, params.h_star())
    assert payload["curve"] == certified_entropy_curve(
        "sparse", params, build_graph(pot), H0, 0.001, 8, (0,)
    ).tolist()


def test_cli_hierarchy_certify_reports_domain_violation(tmp_path, capsys):
    strong = write_mean_field(tmp_path / "strong.json", strength=0.5)  # gamma M0 R1 >= alpha^2
    rc = main(["hierarchy", strong, "--case", "weak", "--certify"])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["valid"] is False
    assert payload["case"] == "weak"
    assert "weak-interaction condition fails" in payload["reason"]

    pot = write_potential(tmp_path / "pot.json")
    rc = main(["hierarchy", pot, "--case", "sparse-poly", "--certify", "--h", "0.5"])
    payload = cli_json(capsys)
    assert rc == 2
    assert set(payload) == {"case", "h", "valid", "reason"}
    assert (payload["case"], payload["h"], payload["valid"]) == ("sparse-poly", 0.5, False)
    assert "exceeds h*" in payload["reason"]

    # the semigroup path (no --certify) reports bad input the same way
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "n": 4, "smoothness": {"alpha": 1.0, "gamma": 1.0},
        "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1, 2, 3]}],
    }))
    for argv, case, t, reason in (
        (["--eps", "1.5"], "sparse-poly", 1.0, "eps must be a number in (0, 1)"),
        (["--case", "weak", "--eps", "0"], "weak", 1.0, "eps must be a number in (0, 1)"),
        (["--t", "-1"], "sparse-poly", -1.0, "t must be a number >= 0"),
        (["--subset", "9"], "sparse-poly", 1.0, "not contained in range(4)"),
    ):
        rc = main(["hierarchy", str(chain), *argv])
        payload = cli_json(capsys)
        assert rc == 2
        assert set(payload) == {"case", "t", "valid", "reason"}
        assert (payload["case"], payload["t"], payload["valid"]) == (case, t, False)
        assert reason in payload["reason"]


# the flags each mode reads, 84 in all; {pot} is a potential file
MODE_READS = {
    "bounds sparse-poly": "alpha beta gamma c p",
    "bounds sparse-exp": "alpha beta gamma c r",
    "bounds weak": "alpha gamma M0 M1 R1",
    "bounds sparse-dyn-poly": "alpha beta gamma c p k h usize C0",
    "bounds sparse-dyn-exp": "alpha beta gamma c r k h usize C0",
    "bounds weak-dyn": "alpha gamma M0 M1 R1 k h usize C0",
    "bounds onestep-linf": "alpha alpha0 beta h n usize",
    "bounds continuous-time --potential {pot}": "potential subset t eps C0",
    "bounds poisson-moment": "rate t p",
    "bounds subgaussian-linf": "beta n",
    "hierarchy {pot} --certify --case sparse-poly": "subset eps h k C0 p",
    "hierarchy {pot} --certify --case sparse-exp": "subset eps h k C0 r",
    "hierarchy {pot} --certify --case weak": "subset eps h k C0",
    "hierarchy {pot} --case sparse-poly": "subset eps t",
    "hierarchy {pot} --case sparse-exp": "subset eps t",
    "hierarchy {pot} --case weak": "subset eps t",
}
# a value for each of the 20 flags that every mode of bounds and hierarchy once took
FLAG_VALUES = dict(
    subset="1", t="0.5", h="0.001", k="3", p="1", r="1.2", C0="1", eps="0.5", c="1", alpha="0.5",
    alpha0="0", beta="2", gamma="1", M0="1", M1="1", R1="0", n="2", usize="1", rate="1",
    potential="{pot}",
)


def assert_usage_error(argv, flags, capsys):
    """main(argv) is an argparse usage error whose message names each of flags."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    named = err.split("error: ", 1)[1].replace(",", " ").split()
    assert all(flag in named for flag in flags), err


@pytest.mark.parametrize("mode", MODE_READS)
def test_cli_mode_accepts_exactly_the_flags_it_reads(mode, tmp_path, capsys):
    pot = write_potential(tmp_path / "pot.json")
    base = mode.format(pot=pot).split()
    reads = MODE_READS[mode].split()
    for flag, value in FLAG_VALUES.items():
        argv = [*base, f"--{flag}", value.format(pot=pot)]
        if flag in reads:
            assert main(argv) in (0, 2), argv  # a payload, valid or not
            capsys.readouterr()
        else:
            assert_usage_error(argv, [f"--{flag}"], capsys)


def test_cli_refuses_a_flag_its_mode_does_not_read(tmp_path, capsys):
    """The first six once ran with exit 0 and dropped the flags they did not read."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "n": 6, "smoothness": {"alpha": 0.5, "beta": 2.0},
        "terms": [{"kind": "builtin:chain-pairwise", "support": list(range(6))}],
    }))
    pot = write_potential(tmp_path / "pot.json")
    for argv, flags in (
        # no prefix matching: --h is not --help, --r not --rate, --p not --potential
        (["bounds", "weak", "--h", "0.001"], ["--h"]),
        (["bounds", "poisson-moment", "--r", "2"], ["--r"]),
        (["bounds", "continuous-time", "--potential", pot, "--p", "2"], ["--p"]),
        (["hierarchy", str(chain), "--certify", "--subset", "2", "--h", "0.005", "--k", "3",
          "--r", "7", "--t", "9"], ["--r", "--t"]),
        (["hierarchy", str(chain), "--subset", "2", "--t", "0.5", "--h", "5", "--k", "3",
          "--C0", "9", "--p", "4"], ["--h", "--k", "--C0", "--p"]),
        (["bounds", "poisson-moment", "--rate", "2", "--t", "3", "--p", "2", "--alpha", "-1",
          "--beta", "0", "--potential", "x.json", "--subset", "99"],
         ["--alpha", "--beta", "--potential", "--subset"]),
        # before the theorem name too, where the refusal names the flag and the mode
        (["bounds", "--h", "1", "weak"], ["--h", "weak"]),
        (["bounds", "--alpha", "2", "--h", "1", "--rate", "3", "weak"], ["--h", "--rate", "weak"]),
        # a theorem is still required, and continuous-time needs a potential
        (["bounds", "--alpha", "2"], ["theorem"]),
        (["bounds", "continuous-time", "--subset", "1"], ["continuous-time", "--potential"]),
    ):
        assert_usage_error(argv, flags, capsys)


def _assert_subset_word_is_refused_with_the_fix(argv, word, capsys):
    """argv has --subset and its value at argv[1:3], then a positional: the usage error
    names the word and the fix, and written as the fix says, or with --subset moved after
    the positional, argv runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --subset: cannot read '{word}' as an index" in err
    assert "before a positional argument write --subset=2, or put --subset after it" in err
    fixed = main([argv[0], f"--subset={argv[2]}", *argv[3:]]), capsys.readouterr().out
    after = main([argv[0], *argv[3:], *argv[1:3]]), capsys.readouterr().out
    assert fixed == after and after[0] == 0


def test_cli_list_flag_before_the_theorem_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """--subset reads every value up to the next flag, so the theorem name after it is
    read as an index and refused, not taken as the theorem or dropped."""
    monkeypatch.chdir(tmp_path)
    write_potential(tmp_path / "chain.json")
    _assert_subset_word_is_refused_with_the_fix(
        ["bounds", "--subset", "1", "continuous-time", "--potential", "chain.json"],
        "continuous-time", capsys)


def test_cli_subset_before_a_positional_names_the_word_and_the_fix(tmp_path, capsys,
                                                                   monkeypatch):
    """The potential file after --subset is read as an index and refused, not taken as
    the potential or dropped."""
    monkeypatch.chdir(tmp_path)
    write_potential(tmp_path / "chain.json")
    _assert_subset_word_is_refused_with_the_fix(
        ["hierarchy", "--subset", "2", "chain.json"], "chain.json", capsys)


@pytest.mark.parametrize("mode", [m for m in MODE_READS if m.startswith("bounds ")])
def test_cli_bounds_flags_parse_the_same_before_and_after_the_theorem(mode, tmp_path, capsys):
    pot = write_potential(tmp_path / "pot.json")
    _, theorem, *flags = mode.format(pot=pot).split()  # flags: --potential {pot} or none
    for flag in MODE_READS[mode].split():
        if flag == "subset":  # one value wherever it stands; spaced and last, it reads the theorem
            flags.append(f"--subset={FLAG_VALUES[flag]}")
        elif flag != "potential":
            flags += [f"--{flag}", FLAG_VALUES[flag]]
    after = main(["bounds", theorem, *flags]), capsys.readouterr()
    before = main(["bounds", *flags, theorem]), capsys.readouterr()
    assert after[0] == before[0] and after[1].out == before[1].out
    assert json.loads(after[1].out)["theorem"] == theorem and after[1].err == before[1].err == ""


def test_cli_validate(tmp_path, capsys):
    good = write_potential(tmp_path / "good.json")
    rc = main(["validate", good])
    payload = cli_json(capsys)
    assert rc == 0
    assert payload["valid"] is True
    # only the checks that can fail; beta, the edges and the weak condition are facts
    assert payload["checks"] == [
        {"name": name, "ok": True}
        for name in ("constants-finite", "gradient-finite", "gradient-matches-value")
    ]
    assert (payload["beta"], payload["edges"]) == (3.0, 5)
    assert payload["weak_condition"] == {"holds": False, "eta": -2.0}

    # the weak condition is reported, not checked: a strongly coupled mean field fails it
    for strength, holds in ((0.1, True), (8.0, False)):
        mean_field = tmp_path / "mean-field.json"
        mean_field.write_text(json.dumps({
            "n": 4,
            "smoothness": {"alpha": 0.9, "gamma": 1.0},
            "terms": [{"kind": "builtin:mean-field", "support": [0, 1, 2, 3],
                       "params": {"strength": strength}}],
        }))
        rc = main(["validate", str(mean_field)])
        payload = cli_json(capsys)
        assert rc == 0 and payload["valid"] is True and payload["edges"] == 6
        assert payload["weak_condition"]["holds"] is holds
        assert (payload["weak_condition"]["eta"] > 0) is holds

    bad = write_potential(tmp_path / "bad.json", alpha=100.0)  # alpha above beta
    rc = main(["validate", bad])
    assert rc == 2
    assert cli_json(capsys)["valid"] is False

    # a negative index would wrap onto coordinate n-1
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({
        "n": 3,
        "smoothness": {"alpha": 0.5, "beta": 2.0},
        "terms": [{"kind": "quadratic", "support": [-1, 0],
                   "params": {"matrix": [[1.0, -0.5], [-0.5, 1.0]]}}],
    }))
    rc = main(["validate", str(negative)])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["valid"] is False

    asymmetric = tmp_path / "asymmetric.json"
    asymmetric.write_text(json.dumps({
        "n": 2,
        "smoothness": {"alpha": 0.5},
        "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                   "params": {"precision": [[2.0, 0.5], [0.0, 2.0]]}}],
    }))
    rc = main(["validate", str(asymmetric)])
    payload = cli_json(capsys)
    assert rc == 2
    assert payload["valid"] is False
    assert "symmetric" in payload["error"]


def test_python_m_deloc_cli_exits_with_the_status_main_returns(tmp_path):
    src = str(Path(deloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    good = write_potential(tmp_path / "good.json")
    for path, code in ((good, 0), (str(tmp_path / "missing.json"), 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "deloc.cli", "hierarchy", path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == code, proc.stderr
        payload = json.loads(proc.stdout)
        assert ("value" in payload) if code == 0 else (payload["valid"] is False)
