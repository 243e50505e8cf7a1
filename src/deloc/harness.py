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

import numpy as np

from . import bounds as bnd
from . import metrics as mtr
from . import oracle as orc
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
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        if any(n <= 0 for n in self.dims):
            raise ValueError("dimensions must be positive")
        if any(h <= 0 for h in self.h_values):
            raise ValueError("step sizes must be positive")


# the JSON type of each optional config field, and its name in an error
_CONFIG_TYPES = {
    "dims": (list, "a list"), "h_values": (list, "a list"), "options": (dict, "an object"),
    "subsets": ((str, list, dict), "a string, list or object"), "seed": (int, "an integer"),
}
_RANDOM_PANEL = '{"random": {"size": k, "count": c}} of integers, with an optional "seed"'


def config_from_dict(spec: dict) -> ExperimentConfig:
    if not isinstance(spec, dict):
        raise ValueError("config must be a JSON object")
    extra = set(spec) - {f.name for f in fields(ExperimentConfig)}
    if extra:
        raise ValueError(f"unknown config keys {sorted(extra)}")
    if "experiment" not in spec:
        raise ValueError("config needs an 'experiment' key")
    for key, (types, what) in _CONFIG_TYPES.items():
        if key in spec and not isinstance(spec[key], types):
            raise ValueError(f"config {key!r} must be {what}, got {spec[key]!r}")
    for key in ("dims", "h_values"):
        # int() and float() take numbers and numeric strings, and raise TypeError on the rest
        if not all(isinstance(v, (int, float, str)) for v in spec.get(key, ())):
            raise ValueError(f"config {key!r} entries must be numbers, got {spec[key]!r}")
    subsets = spec.get("subsets", "singletons")
    draw = subsets.get("random") if isinstance(subsets, dict) else None
    if isinstance(subsets, dict) and not (
        isinstance(draw, dict) and {"size", "count"} <= set(draw)
        and all(isinstance(v, int) for v in draw.values())
    ):
        raise ValueError(f"config 'subsets' object must be {_RANDOM_PANEL}, got {subsets!r}")
    return ExperimentConfig(
        experiment=spec["experiment"],
        dims=tuple(spec.get("dims", ())),
        h_values=tuple(spec.get("h_values", ())),
        seed=int(spec.get("seed", 0)),
        subsets=subsets,
        options=dict(spec.get("options", {})),
        output=spec.get("output"),
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
            "config": {
                "experiment": self.config.experiment,
                "dims": list(self.config.dims),
                "h_values": list(self.config.h_values),
                "seed": self.config.seed,
                "subsets": self.config.subsets,
                "options": self.config.options,
            },
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
    elif isinstance(spec, dict) and "random" in spec:
        k = int(spec["random"]["size"])
        count = int(spec["random"]["count"])
        rng = np.random.default_rng(int(spec["random"].get("seed", 0)))
        panel = []
        for _ in range(count):
            panel.append(tuple(sorted(rng.choice(graph.n, size=k, replace=False).tolist())))
    else:
        panel = [tuple(sorted(int(i) for i in u)) for u in spec]
    if not panel:
        raise ValueError(f"subset panel {spec!r} is empty")
    return panel


def _subset_label(u) -> str:
    return "|".join(str(i) for i in u)


# -- experiments ---------------------------------------------------------------


def _target_from_options(n: int, options: dict) -> orc.GaussianTarget:
    if "precision" in options:
        A = np.asarray(options["precision"], dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"precision shape {A.shape} does not match n={n}")
    else:
        A = tridiagonal_precision(n, options.get("diag", 2.0), options.get("off", -0.5))
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
    sd_h, sd = np.sqrt(np.diag(law_h.cov)), np.sqrt(np.diag(law.cov))
    return ((law_h.mean - law.mean) ** 2 + (sd_h - sd) ** 2).tolist()


def _exp_gaussian_scaling(config: ExperimentConfig) -> list[ReportRow]:
    rows = []
    for n in config.dims or (16, 64, 256):
        tgt = _target_from_options(n, config.options)
        law = tgt.law()
        for h in config.h_values or (0.01,):
            law_h = orc.lmc_stationary_law(tgt, h)
            per_coord = _singleton_w2(law_h, law)
            for i, v in enumerate(per_coord):
                rows.append(
                    ReportRow(config.experiment, n, h, str(i), "w2sq-marginal", v, theorem="oracle")
                )
            rows.append(
                ReportRow(
                    config.experiment, n, h, "singletons", "w2sq-marginal-max",
                    float(np.max(per_coord)), theorem="oracle",
                )
            )
            rows.append(
                ReportRow(
                    config.experiment, n, h, "full", "w2sq-full",
                    orc.w2sq_gaussian(law_h, law), theorem="oracle",
                )
            )
    return rows


def _exp_bound_vs_truth(config: ExperimentConfig) -> list[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 8)
    tgt = _target_from_options(n, opts)
    pot = gaussian_potential(tgt.precision)
    graph = build_graph(pot)
    cert = GrowthCertificate("polynomial", opts.get("c", 3.0), opts.get("p", 1.0))
    growth = verify_growth(graph, cert)
    rows = [
        ReportRow(
            config.experiment, n, None, "vertices", "growth-certificate",
            float(growth.passed), theorem="polynomial", valid=growth.passed,
        )
    ]
    alpha, beta, gamma = tgt.alpha, tgt.beta, opts.get("gamma", 1.0)
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
            rows.append(
                ReportRow(
                    config.experiment, n, h, _subset_label(u), "kl-marginal",
                    kl, bound=kl_bound, theorem="sparse-poly", valid=kl <= kl_bound,
                )
            )
            w2 = orc.w2sq_gaussian(*pair)
            tal = (2.0 / alpha) * kl
            rows.append(
                ReportRow(
                    config.experiment, n, h, _subset_label(u), "w2sq-marginal",
                    w2, bound=tal, theorem="talagrand", valid=w2 <= tal + 1e-12,
                )
            )
    return rows


def _exp_subadditivity(config: ExperimentConfig) -> list[ReportRow]:
    n = _single(config, "dims", 8)
    tgt = _target_from_options(n, config.options)
    h = _single(config, "h_values", 1.0 / tgt.beta)
    law_h = orc.lmc_stationary_law(tgt, h)
    law = tgt.law()
    rows = []
    for k in range(1, n + 1):
        rep = mtr.subadditivity_check(law_h, law, k, tol=config.options.get("tol", 1e-9))
        rows.append(
            ReportRow(
                config.experiment, n, h, f"k={k}", "subadditivity-lhs",
                rep.lhs_average, bound=rep.rhs_share, theorem="subadditivity",
                valid=rep.passed,
            )
        )
    return rows


def _exp_continuous_time(config: ExperimentConfig) -> list[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 6)
    tgt = _target_from_options(n, opts)
    pot = gaussian_potential(tgt.precision)
    graph = build_graph(pot)
    alpha, beta, gamma = tgt.alpha, tgt.beta, opts.get("gamma", 1.0)
    law = tgt.law()
    cov0 = opts.get("cov0_scale", 2.0) * law.cov
    law0 = orc.GaussianLaw(np.zeros(n), cov0)

    H0 = SubsetFunction(
        lambda m: orc.kl_gaussian(
            orc.marginal(law0, indices_from(m)), orc.marginal(law, indices_from(m))
        ),
        "initial-kl",
    )
    panel = resolve_panel(graph, config.subsets)
    rows = []
    for eps in opts.get("eps", (0.25, 0.5, 0.9)):
        for t in opts.get("times", (0.1, 0.5, 1.0, 2.0)):
            law_t = orc.ou_law(tgt, cov0, t)
            for u in panel:
                exact = orc.kl_gaussian(orc.marginal(law_t, u), orc.marginal(law, u))
                rep = bnd.continuous_time_bound(
                    graph, mask_from(u), t, eps, alpha, beta, gamma, H0=H0
                )
                rows.append(
                    ReportRow(
                        config.experiment, n, None, _subset_label(u), f"kl-t={t}-eps={eps}",
                        exact, bound=rep["bound_value"], theorem="continuous-time",
                        valid=exact <= rep["bound_value"] + 1e-12,
                    )
                )
    return rows


def _exp_onestep_linf(config: ExperimentConfig) -> list[ReportRow]:
    opts = config.options
    m = int(opts.get("samples", 2048))
    # each bootstrap replicate re-solves a full m x m assignment (~2 s at
    # m = 2048), so the default replicate count stays small
    n_boot = int(opts.get("n_boot", 10))
    rows = []
    counter = 0
    for n in config.dims or (4, 8):
        tgt = _target_from_options(n, {**opts, "off": opts.get("off", -0.3)})
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
        rows.append(
            ReportRow(
                config.experiment, n, h, "full", "w2sq-linf-full",
                est.value, se=est.standard_error, bound=rep["full_linf"],
                theorem="onestep-linf", valid=ok,
            )
        )
        # bias-corrected variant: Richardson step from m/2 to m assuming
        # O(m^{-1/2}) estimator bias; no SE of it is computed
        half = mtr.w2sq_assignment(a[: m // 2], b[: m // 2], norm="linf", n_boot=0, rng=rng)
        extrap = est.value + (est.value - half.value) / (math.sqrt(2.0) - 1.0)
        rows.append(
            ReportRow(
                config.experiment, n, h, "full", "w2sq-linf-full-extrap",
                extrap, bound=rep["full_linf"], theorem="onestep-linf",
            )
        )
    return rows


def _batch_mean_se(x: np.ndarray, batches: int) -> float:
    """SE of the mean of a correlated scalar series via batch means."""
    usable = (x.shape[0] // batches) * batches
    bm = x[:usable].reshape(batches, -1).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(batches))


def _exp_sampler_vs_oracle(config: ExperimentConfig) -> list[ReportRow]:
    opts = config.options
    n = _single(config, "dims", 2)
    tgt = _target_from_options(n, {"diag": 3.0, "off": 0.5, **opts})
    pot = gaussian_potential(tgt.precision)
    h = _single(config, "h_values", 0.05)
    scfg = SamplerConfig(
        h=h,
        iterations=int(opts.get("iterations", 500_000)),
        num_chains=int(opts.get("chains", 4)),
        seed=config.seed,
    )
    try:
        store = run_chain(pot, scfg, np.zeros(n))
    except DivergenceError as e:
        # value: the first iterate at which a chain's sup-norm reached the limit
        return [
            ReportRow(
                config.experiment, n, h, f"chain={e.chain}", "divergence",
                float(e.step), theorem="lmc", valid=False,
            )
        ]
    law_h = orc.lmc_stationary_law(tgt, h)
    law = tgt.law()
    rows = []
    kept = store.rows()
    centered = kept - kept.mean(axis=0)
    nb = int(opts.get("batches", 200))
    for i in range(n):
        for j in range(i, n):
            series = centered[:, i] * centered[:, j]
            emp = float(series.mean())
            se = _batch_mean_se(series, nb)
            ref = float(law_h.cov[i, j])
            rows.append(
                ReportRow(
                    config.experiment, n, h, _subset_label((i, j)), "cov-entry",
                    emp, se=se, bound=ref, theorem="lyapunov",
                    valid=abs(emp - ref) <= 4.0 * se,
                )
            )
    thin = int(opts.get("thin", 20))
    m_cmp = int(opts.get("marginal_samples", 100_000))
    rng = np.random.default_rng([config.seed, 1])
    for i, ref in enumerate(_singleton_w2(law_h, law)):
        lmc_i = marginal_samples(store, (i,))[::thin, 0][:m_cmp]
        exact_i = orc.sample(orc.marginal(law, (i,)), lmc_i.shape[0], rng)[:, 0]
        est = mtr.w2sq_1d(lmc_i, exact_i, rng=rng)
        rows.append(
            ReportRow(
                config.experiment, n, h, str(i), "w2sq-marginal",
                est.value, se=est.standard_error, bound=ref, theorem="oracle",
                valid=abs(est.value - ref) <= 3.0 * est.standard_error,
            )
        )
    return rows


def _all_ones_householder(n: int) -> np.ndarray:
    """Symmetric orthogonal H with H e_1 = (1,...,1)/sqrt(n)."""
    v = np.full(n, 1.0 / math.sqrt(n))
    w = np.zeros(n)
    w[0] = 1.0
    w -= v
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n)
    w /= nw
    return np.eye(n) - 2.0 * np.outer(w, w)


def _exp_delocalization_failure(config: ExperimentConfig) -> list[ReportRow]:
    opts = config.options
    h = _single(config, "h_values", 0.02)
    soft = float(opts.get("soft", 1.0))
    stiff = float(opts.get("stiff", 50.0))
    dims = config.dims or (8, 32, 128)
    rot_max, prod_max = [], []
    rows = []
    for n in dims:
        d = np.full(n, stiff)
        d[0] = soft
        for label, rotate in (("product", False), ("rotated", True)):
            if rotate:
                Q = _all_ones_householder(n)
                A = Q @ np.diag(d) @ Q.T
            else:
                A = np.diag(d)
            tgt = orc.GaussianTarget(A)
            law_h = orc.lmc_stationary_law(tgt, h)
            law = tgt.law()
            per = _singleton_w2(law_h, law)
            top = float(np.max(per))
            (rot_max if rotate else prod_max).append(top)
            rows.append(
                ReportRow(
                    config.experiment, n, h, "singletons", f"w2sq-marginal-max-{label}",
                    top, theorem="oracle",
                )
            )
    ratio = rot_max[-1] / rot_max[0]
    rows.append(
        ReportRow(
            config.experiment, dims[-1], h, "singletons", "rotated-bias-growth",
            ratio, bound=2.0, theorem="counterexample", valid=ratio >= 2.0,
        )
    )
    spread = (max(prod_max) - min(prod_max)) / min(prod_max)
    rows.append(
        ReportRow(
            config.experiment, dims[-1], h, "singletons", "product-bias-variation",
            spread, bound=0.05, theorem="counterexample", valid=spread < 0.05,
        )
    )
    return rows


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
    rows = EXPERIMENTS[config.experiment](config)
    meta = {
        "seed": config.seed,
        "elapsed_seconds": round(time.time() - t0, 3),
        "rows": len(rows),
    }
    report = ExperimentReport(config=config, rows=rows, metadata=meta)
    if config.output:
        report.to_csv(config.output)
        report.to_json_sidecar(str(config.output) + ".json")
    return report
