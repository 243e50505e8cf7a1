"""Experiment harness: named experiments over (dimension, step-size, subset)
grids, emitting flat report rows with a fixed CSV schema

    experiment,n,h,subset,metric,value,se,bound,theorem,valid

Every experiment that computes an empirical value also emits the matching
oracle value or theorem bound in the same row, so a report is
self-contained.  Rows are generated sequentially but carry per-row seeds
derived from (master seed, row counter), so any future parallel dispatch
cannot change results.  Reports are deterministic given (config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from . import bounds as bnd
from . import metrics as mtr
from . import oracle as orc
from ._json import read
from .graph import GrowthCertificate, InteractionGraph, build_graph, verify_growth
from .hierarchy import SubsetFunction
from .potential import gaussian_potential, tridiagonal_precision
from .sampler import DivergenceError, SamplerConfig, marginal_samples, run_chain
from .subsets import mask_from, indices_from

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "ScalingFit",
    "run_experiment",
    "fit_scaling",
    "fit_scaling_rows",
    "delocalization_failure_demo",
    "config_from_dict",
    "EXPERIMENTS",
]

CSV_COLUMNS = ("experiment", "n", "h", "subset", "metric", "value", "se", "bound", "theorem", "valid")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dims: tuple[int, ...] = ()
    h_values: tuple[float, ...] = ()
    seed: int = 0
    subsets: object = "singletons"
    options: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        for name, kind in (("dims", ["integer"]), ("h_values", ["number"]), ("seed", "integer")):
            value = read(vars(self), name, "config", kind)
            object.__setattr__(self, name, tuple(value) if isinstance(kind, list) else value)
        if any(n <= 0 for n in self.dims):
            raise ValueError("dimensions must be positive")
        if any(h <= 0 for h in self.h_values):
            raise ValueError("step sizes must be positive")


# a subset panel: a name, a list of subsets or a {"random": ...} draw (see resolve_panel)
_PANEL = ("string", ["indices"], {"random"})


def config_from_dict(spec: dict) -> ExperimentConfig:
    spec = read(spec, None, "config", {f.name for f in fields(ExperimentConfig)})
    return ExperimentConfig(
        experiment=read(spec, "experiment", "config"),
        dims=spec.get("dims", ()),
        h_values=spec.get("h_values", ()),
        seed=spec.get("seed", 0),
        subsets=read(spec, "subsets", "config", _PANEL, "singletons"),
        options=read(spec, "options", "config", "object", {}),
        output=read(spec, "output", "config", "string", None),
    )


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    n: int
    h: float | None
    subset: str
    metric: str
    value: float
    se: float | None = None
    bound: float | None = None
    theorem: str = ""
    valid: bool | None = None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow]
    metadata: dict

    def failures(self) -> list[ReportRow]:
        return [r for r in self.rows if r.valid is False]

    def select(self, metric: str | None = None, n: int | None = None) -> list[ReportRow]:
        out = self.rows
        if metric is not None:
            out = [r for r in out if r.metric == metric]
        if n is not None:
            out = [r for r in out if r.n == n]
        return out

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for r in self.rows:
                f.write(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) + "\n")

    def to_json_sidecar(self, path) -> None:
        payload = {
            "config": {k: v for k, v in vars(self.config).items() if k != "output"},
            "metadata": self.metadata,
            "num_rows": len(self.rows),
            "num_failures": len(self.failures()),
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)

    def to_gnuplot(self, prefix) -> list[str]:
        """One whitespace-separated file per metric: n h value se bound."""
        written = []
        by_metric: dict[str, list[ReportRow]] = {}
        for r in self.rows:
            by_metric.setdefault(r.metric, []).append(r)
        for metric, rows in sorted(by_metric.items()):
            path = f"{prefix}.{metric}.dat"
            with open(path, "w") as f:
                f.write("# n h value se bound\n")
                for r in rows:
                    f.write(
                        f"{r.n} {_fmt(r.h) or 'nan'} {_fmt(r.value)} "
                        f"{_fmt(r.se) or 'nan'} {_fmt(r.bound) or 'nan'}\n"
                    )
            written.append(path)
        return written


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r2: float


def fit_scaling(x, y) -> ScalingFit:
    """Least-squares fit of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ValueError("need at least two (x, y) points with matching length")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2)


def fit_scaling_rows(report: ExperimentReport, metric: str) -> ScalingFit:
    """fit_scaling of the metric's values against n."""
    rows = report.select(metric=metric)
    return fit_scaling([r.n for r in rows], [r.value for r in rows])


# -- subset panels -------------------------------------------------------------


def resolve_panel(graph: InteractionGraph, spec) -> list[tuple[int, ...]]:
    """Expand a panel spec into subsets: "singletons", "pairs" (graph
    edges), "all-pairs", combinations via "+", an explicit list, or
    {"random": {"size": k, "count": c}} using a fixed draw.  An empty
    panel is a ValueError."""
    if isinstance(spec, str):
        panel: list[tuple[int, ...]] = []
        for part in spec.split("+"):
            part = part.strip()
            if part == "singletons":
                panel.extend((i,) for i in range(graph.n))
            elif part == "pairs":
                panel.extend(graph.edges())
            elif part == "all-pairs":
                panel.extend(itertools.combinations(range(graph.n), 2))
            else:
                raise ValueError(f"unknown panel spec {part!r}")
    elif isinstance(spec, dict):
        draw = read(spec, "random", "subsets", {"size", "count", "seed"})
        where = "subsets 'random'"
        k, count = (read(draw, key, where, "integer") for key in ("size", "count"))
        rng = np.random.default_rng(read(draw, "seed", where, "integer", 0))
        draws = (rng.choice(graph.n, size=k, replace=False).tolist() for _ in range(count))
        panel = [tuple(sorted(u)) for u in draws]
    else:
        panel = [tuple(sorted(u)) for u in read(spec, None, "subsets", ["indices"])]
    if not panel:
        raise ValueError(f"subset panel {spec!r} is empty")
    return panel


def _subset_label(u) -> str:
    return "|".join(str(i) for i in u)


# -- experiments ---------------------------------------------------------------


def _option(options: dict, key: str, default):
    """options[key], or the default when the key is absent, read by the rule of
    the default's type: numbers for a tuple, an integer for an int, else a number."""
    kind = "integer" if isinstance(default, int) else "number"
    return read(options, key, "option", [kind] if isinstance(default, tuple) else kind, default)


def _target_from_options(n: int, options: dict) -> orc.GaussianTarget:
    A = read(options, "precision", "option", "matrix", None)
    if A is None:
        A = tridiagonal_precision(n, _option(options, "diag", 2.0), _option(options, "off", -0.5))
    elif A.shape != (n, n):
        raise ValueError(f"precision shape {A.shape} does not match n={n}")
    return orc.GaussianTarget(A)


def _single(config: ExperimentConfig, name: str, default):
    """The one entry of config.dims or config.h_values, or the default when empty."""
    values = getattr(config, name)
    if len(values) > 1:
        raise ValueError(f"{config.experiment} takes one entry in {name}, got {list(values)}")
    return values[0] if values else default


def _singleton_w2(law_h: orc.GaussianLaw, law: orc.GaussianLaw) -> list[float]:
    """Exact W2^2 between the coordinate marginals of law_h and law, one per
    coordinate: in one dimension (mean difference)^2 + (sd difference)^2."""
    sd_h, sd = np.sqrt(law_h.variances), np.sqrt(law.variances)
    return ((law_h.mean - law.mean) ** 2 + (sd_h - sd) ** 2).tolist()


def _exp_gaussian_scaling(config: ExperimentConfig) -> Iterator[ReportRow]:
    for n in config.dims or (16, 64, 256):
        tgt = _target_from_options(n, config.options)
        law = tgt.law()
        for h in config.h_values or (0.01,):
            law_h = orc.lmc_stationary_law(tgt, h)
            per_coord = _singleton_w2(law_h, law)
            for i, v in enumerate(per_coord):
                yield ReportRow(
                    config.experiment, n, h, str(i), "w2sq-marginal", v, theorem="oracle"
                )
            yield ReportRow(
                config.experiment, n, h, "singletons", "w2sq-marginal-max",
                float(np.max(per_coord)), theorem="oracle",
            )
            yield ReportRow(
                config.experiment, n, h, "full", "w2sq-full",
                orc.w2sq_gaussian(law_h, law), theorem="oracle",
            )


def _exp_bound_vs_truth(config: ExperimentConfig) -> Iterator[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 8)
    tgt = _target_from_options(n, opts)
    pot = gaussian_potential(tgt.precision)
    graph = build_graph(pot)
    cert = GrowthCertificate("polynomial", _option(opts, "c", 3.0), _option(opts, "p", 1.0))
    growth = verify_growth(graph, cert)
    yield ReportRow(
        config.experiment, n, None, "vertices", "growth-certificate",
        float(growth.passed), theorem="polynomial", valid=growth.passed,
    )
    alpha, beta, gamma = tgt.alpha, tgt.beta, _option(opts, "gamma", 1.0)
    consts = bnd.sparse_poly_constants(alpha, beta, gamma, cert.c, cert.exponent)
    if not consts.valid:
        raise ValueError(f"constants invalid: {consts.reason}")
    C, h_star = consts["C"], consts["h_star"]
    law = tgt.law()
    panel = resolve_panel(graph, config.subsets)
    h_grid = config.h_values or tuple(h_star * i / 20.0 for i in range(1, 21))
    for h in h_grid:
        law_h = orc.lmc_stationary_law(tgt, h)
        for u in panel:
            pair = (orc.marginal(law_h, u), orc.marginal(law, u))
            kl = orc.kl_gaussian(*pair)
            kl_bound = C * h * len(u)
            yield ReportRow(
                config.experiment, n, h, _subset_label(u), "kl-marginal",
                kl, bound=kl_bound, theorem="sparse-poly", valid=kl <= kl_bound,
            )
            w2 = orc.w2sq_gaussian(*pair)
            tal = (2.0 / alpha) * kl
            yield ReportRow(
                config.experiment, n, h, _subset_label(u), "w2sq-marginal",
                w2, bound=tal, theorem="talagrand", valid=w2 <= tal + 1e-12,
            )


def _exp_subadditivity(config: ExperimentConfig) -> Iterator[ReportRow]:
    n = _single(config, "dims", 8)
    tgt = _target_from_options(n, config.options)
    h = _single(config, "h_values", 1.0 / tgt.beta)
    law_h = orc.lmc_stationary_law(tgt, h)
    law = tgt.law()
    for k in range(1, n + 1):
        rep = mtr.subadditivity_check(law_h, law, k, tol=_option(config.options, "tol", 1e-9))
        yield ReportRow(
            config.experiment, n, h, f"k={k}", "subadditivity-lhs",
            rep.lhs_average, bound=rep.rhs_share, theorem="subadditivity",
            valid=rep.passed,
        )


def _exp_continuous_time(config: ExperimentConfig) -> Iterator[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 6)
    tgt = _target_from_options(n, opts)
    pot = gaussian_potential(tgt.precision)
    graph = build_graph(pot)
    alpha, beta, gamma = tgt.alpha, tgt.beta, _option(opts, "gamma", 1.0)
    law = tgt.law()
    law0 = orc.GaussianLaw(np.zeros(n), _option(opts, "cov0_scale", 2.0) * law.cov)

    H0 = SubsetFunction(
        lambda m: orc.kl_gaussian(
            orc.marginal(law0, indices_from(m)), orc.marginal(law, indices_from(m))
        ),
        "initial-kl",
    )
    panel = resolve_panel(graph, config.subsets)
    laws = [(t, orc.ou_law(tgt, t, law0)) for t in _option(opts, "times", (0.1, 0.5, 1.0, 2.0))]
    for eps in _option(opts, "eps", (0.25, 0.5, 0.9)):
        for t, law_t in laws:
            for u in panel:
                exact = orc.kl_gaussian(orc.marginal(law_t, u), orc.marginal(law, u))
                rep = bnd.continuous_time_bound(
                    graph, mask_from(u), t, eps, alpha, beta, gamma, H0=H0
                )
                yield ReportRow(
                    config.experiment, n, None, _subset_label(u), f"kl-t={t}-eps={eps}",
                    exact, bound=rep["bound_value"], theorem="continuous-time",
                    valid=exact <= rep["bound_value"] + 1e-12,
                )


def _exp_onestep_linf(config: ExperimentConfig) -> Iterator[ReportRow]:
    opts = config.options
    m = _option(opts, "samples", 2048)
    # each bootstrap replicate re-solves a full m x m assignment (~2 s at
    # m = 2048), so the default replicate count stays small
    n_boot = _option(opts, "n_boot", 10)
    counter = 0
    for n in config.dims or (4, 8):
        tgt = _target_from_options(n, {"off": -0.3, **opts})
        A = tgt.precision
        alpha0 = float(np.max(np.sum(np.abs(A - np.diag(np.diag(A))), axis=1)))
        alpha, beta = tgt.alpha, tgt.beta
        h = _single(config, "h_values", 1.0 / (2.0 * beta))
        law_h = orc.lmc_stationary_law(tgt, h)
        law = tgt.law()
        rng = np.random.default_rng([config.seed, counter])
        counter += 1
        a = orc.sample(law_h, m, rng)
        b = orc.sample(law, m, rng)
        est = mtr.w2sq_assignment(a, b, norm="linf", n_boot=n_boot, rng=rng)
        rep = bnd.onestep_linf_bound(alpha, alpha0, beta, h, n)
        ok = rep.valid and est.value <= rep["full_linf"] + 3.0 * est.standard_error
        yield ReportRow(
            config.experiment, n, h, "full", "w2sq-linf-full",
            est.value, se=est.standard_error, bound=rep["full_linf"],
            theorem="onestep-linf", valid=ok,
        )
        # bias-corrected variant: Richardson step from m/2 to m assuming
        # O(m^{-1/2}) estimator bias; no SE of it is computed
        half = mtr.w2sq_assignment(a[: m // 2], b[: m // 2], norm="linf", n_boot=0, rng=rng)
        extrap = est.value + (est.value - half.value) / (math.sqrt(2.0) - 1.0)
        yield ReportRow(
            config.experiment, n, h, "full", "w2sq-linf-full-extrap",
            extrap, bound=rep["full_linf"], theorem="onestep-linf",
        )


def _batch_mean_se(x: np.ndarray, batches: int) -> float:
    """SE of the mean of a correlated scalar series via batch means."""
    usable = (x.shape[0] // batches) * batches
    bm = x[:usable].reshape(batches, -1).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(batches))


def _exp_sampler_vs_oracle(config: ExperimentConfig) -> Iterator[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 2)
    tgt = _target_from_options(n, {"diag": 3.0, "off": 0.5, **opts})
    pot = gaussian_potential(tgt.precision)
    h = _single(config, "h_values", 0.05)
    scfg = SamplerConfig(
        h=h,
        iterations=_option(opts, "iterations", 500_000),
        num_chains=_option(opts, "chains", 4),
        seed=config.seed,
    )
    try:
        store = run_chain(pot, scfg, np.zeros(n))
    except DivergenceError as e:
        # value: the first iterate at which a chain's sup-norm reached the limit
        yield ReportRow(
            config.experiment, n, h, f"chain={e.chain}", "divergence",
            float(e.step), theorem="lmc", valid=False,
        )
        return
    law_h = orc.lmc_stationary_law(tgt, h)
    law = tgt.law()
    kept = store.rows()
    centered = kept - kept.mean(axis=0)
    nb = _option(opts, "batches", 200)
    for i in range(n):
        for j in range(i, n):
            series = centered[:, i] * centered[:, j]
            emp = float(series.mean())
            se = _batch_mean_se(series, nb)
            ref = float(law_h.cov[i, j])
            yield ReportRow(
                config.experiment, n, h, _subset_label((i, j)), "cov-entry",
                emp, se=se, bound=ref, theorem="lyapunov",
                valid=abs(emp - ref) <= 4.0 * se,
            )
    thin = _option(opts, "thin", 20)
    m_cmp = _option(opts, "marginal_samples", 100_000)
    rng = np.random.default_rng([config.seed, 1])
    for i, ref in enumerate(_singleton_w2(law_h, law)):
        lmc_i = marginal_samples(store, (i,))[::thin, 0][:m_cmp]
        exact_i = orc.sample(orc.marginal(law, (i,)), lmc_i.shape[0], rng)[:, 0]
        est = mtr.w2sq_1d(lmc_i, exact_i, rng=rng)
        yield ReportRow(
            config.experiment, n, h, str(i), "w2sq-marginal",
            est.value, se=est.standard_error, bound=ref, theorem="oracle",
            valid=abs(est.value - ref) <= 3.0 * est.standard_error,
        )


def _rotated_precision(n: int, soft: float, stiff: float) -> np.ndarray:
    """Q diag(soft, stiff, ..., stiff) Q' for every orthogonal Q with
    Q e_1 = (1,...,1)/sqrt(n): stiff I + (soft - stiff)/n 11'."""
    return stiff * np.eye(n) + (soft - stiff) / n


def _exp_delocalization_failure(config: ExperimentConfig) -> Iterator[ReportRow]:
    opts = config.options
    h = _single(config, "h_values", 0.02)
    soft = _option(opts, "soft", 1.0)
    stiff = _option(opts, "stiff", 50.0)
    dims = config.dims or (8, 32, 128)
    rot_max, prod_max = [], []
    for n in dims:
        d = np.full(n, stiff)
        d[0] = soft
        for label, A in (("product", np.diag(d)), ("rotated", _rotated_precision(n, soft, stiff))):
            tgt = orc.GaussianTarget(A)
            law_h = orc.lmc_stationary_law(tgt, h)
            law = tgt.law()
            per = _singleton_w2(law_h, law)
            top = float(np.max(per))
            (rot_max if label == "rotated" else prod_max).append(top)
            yield ReportRow(
                config.experiment, n, h, "singletons", f"w2sq-marginal-max-{label}",
                top, theorem="oracle",
            )
    ratio = rot_max[-1] / rot_max[0]
    yield ReportRow(
        config.experiment, dims[-1], h, "singletons", "rotated-bias-growth",
        ratio, bound=2.0, theorem="counterexample", valid=ratio >= 2.0,
    )
    spread = (max(prod_max) - min(prod_max)) / min(prod_max)
    yield ReportRow(
        config.experiment, dims[-1], h, "singletons", "product-bias-variation",
        spread, bound=0.05, theorem="counterexample", valid=spread < 0.05,
    )


def delocalization_failure_demo(
    dims=(8, 32, 128), h: float = 0.02, soft: float = 1.0, stiff: float = 50.0, seed: int = 0
) -> ExperimentReport:
    """Rotated anisotropic product: max single-coordinate W2^2 LMC bias grows
    with n, while the unrotated product stays flat.  Rotation mixes
    coordinate 1 into the all-ones direction."""
    cfg = ExperimentConfig(
        experiment="delocalization-failure",
        dims=tuple(dims),
        h_values=(h,),
        seed=seed,
        options={"soft": soft, "stiff": stiff},
    )
    return run_experiment(cfg)


EXPERIMENTS = {
    "gaussian-scaling": _exp_gaussian_scaling,
    "bound-vs-truth": _exp_bound_vs_truth,
    "subadditivity": _exp_subadditivity,
    "continuous-time": _exp_continuous_time,
    "onestep-linf": _exp_onestep_linf,
    "sampler-vs-oracle": _exp_sampler_vs_oracle,
    "delocalization-failure": _exp_delocalization_failure,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    t0 = time.time()
    rows = list(EXPERIMENTS[config.experiment](config))
    meta = {"seed": config.seed, "elapsed_seconds": round(time.time() - t0, 3), "rows": len(rows)}
    report = ExperimentReport(config=config, rows=rows, metadata=meta)
    if config.output:
        report.to_csv(config.output)
        report.to_json_sidecar(str(config.output) + ".json")
    return report
