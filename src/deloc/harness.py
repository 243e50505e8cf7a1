"""Experiment harness: named experiments over (dimension, step-size, subset)
grids, emitting report rows with a fixed CSV schema

    experiment,n,h,subset,metric,value,se,bound,theorem,valid

`run_experiment` runs an experiment over config.dims (or its default dims in
`EXPERIMENTS`), then adds the rows that check a claim across n (`_ACROSS_N`).
Every experiment that computes an empirical value also emits the matching
oracle value or theorem bound in the same row, so a report is
self-contained.  A report holds blocks: a per-coordinate series (one row per
coordinate, subsets "0" .. "n-1", sharing experiment, n, h, metric and
theorem) is one block of values, and every other row is a ReportRow, a block
of one.  The writers, `select`, `failures` and the row count read the blocks;
`rows` builds a ReportRow per row each time it is read.  Rows are generated
sequentially but carry per-row seeds derived from (master seed, row
counter), so any future parallel dispatch cannot change results.  Reports
are deterministic given (config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np
from scipy import sparse

from . import bounds as bnd
from . import metrics as mtr
from . import oracle as orc
from ._json import _SEQUENCE, _dense, read
from .graph import InteractionGraph, _least_c
from .hierarchy import SparseParams, SubsetFunction, certified_entropy_curve
from .potential import _tridiagonal, gaussian_potential
from .sampler import DivergenceError, SamplerConfig, marginal_samples, run_chain
from .subsets import size, sorted_indices

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "ScalingFit",
    "run_experiment",
    "fit_scaling",
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
    subsets: object = None
    options: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        for name, kind in (("dims", ["positive-integer"]), ("h_values", ["positive"])):
            object.__setattr__(self, name, tuple(read(vars(self), name, "config", kind)))
        object.__setattr__(self, "seed", read(vars(self), "seed", "config", "integer"))
        _, _, most_h, panel = EXPERIMENTS[self.experiment]
        if len(self.h_values) > most_h:
            takes = "one entry in" if most_h else "no"
            raise ValueError(f"{self.experiment} takes {takes} h_values, got {list(self.h_values)}")
        if panel:  # a panel experiment reads None as "singletons"
            if self.subsets is None:
                object.__setattr__(self, "subsets", "singletons")
            resolve_panel(None, self.subsets)
        elif self.subsets is not None:
            raise ValueError(f"{self.experiment} takes no subsets, got {self.subsets!r}")
        # every option, given or not, read once by its rule; the experiments look them up here
        table = _OPTIONS[self.experiment]
        given = {**table, **read(vars(self), "options", "config", set(table))}
        values = {key: read(given, key, "option", _kind(key, d), d) for key, d in table.items()}
        object.__setattr__(self, "_options", values)
        if self.experiment == "sampler-vs-oracle":  # each batch mean needs a kept row
            kept = values["chains"] * _sampler_config(self).kept_per_chain
            if values["batches"] > kept:
                raise ValueError(
                    f"option 'batches' must be at most the {kept} rows the chains keep, "
                    f"got {values['batches']}"
                )
        read(vars(self), "output", "config", "string", None)


def config_from_dict(spec: dict) -> ExperimentConfig:
    """The config of a JSON object; ExperimentConfig reads each field by its rule."""
    spec = read(spec, None, "config", {f.name for f in fields(ExperimentConfig)})
    read(spec, "experiment", "config")  # a missing one is a ValueError, not a TypeError
    return ExperimentConfig(**spec)


@dataclass(frozen=True, slots=True)
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

    # a row is a block of one; _Series is the other kind of block
    _size = 1

    def _rows(self) -> tuple[ReportRow]:
        return (self,)

    def _csv(self) -> tuple[str]:
        return (",".join(_fmt(getattr(self, c)) for c in CSV_COLUMNS) + "\n",)

    def _dat(self) -> tuple[str]:
        return (f"{self.n} {_fmt(self.h) or 'nan'} {_fmt(self.value)} "
                f"{_fmt(self.se) or 'nan'} {_fmt(self.bound) or 'nan'}\n",)


_CHUNK = 1 << 16  # rows of a series formatted at a time, so its text is never held whole


@dataclass(frozen=True, eq=False)
class _Series:
    """A block of rows, one per coordinate: row i has subset str(i) and value
    values[i], and shares experiment, n, h, metric and theorem; its se, bound
    and valid are empty."""

    experiment: str
    n: int
    h: float
    metric: str
    theorem: str
    values: np.ndarray

    @property
    def _size(self) -> int:
        return len(self.values)

    def _rows(self) -> list[ReportRow]:
        head = (self.experiment, self.n, self.h)
        return [ReportRow(*head, str(i), self.metric, v, theorem=self.theorem)
                for i, v in enumerate(self.values.tolist())]

    def _chunks(self) -> Iterator[tuple[int, list[float]]]:
        for start in range(0, len(self.values), _CHUNK):
            yield start, self.values[start:start + _CHUNK].tolist()

    def _csv(self) -> Iterator[str]:
        # _fmt of a float is repr(float(v)), which !r gives for the floats of tolist
        head = f"{self.experiment},{_fmt(self.n)},{_fmt(self.h)},"
        mid, tail = f",{self.metric},", f",,,{self.theorem},\n"
        for start, values in self._chunks():
            yield "".join(f"{head}{i}{mid}{v!r}{tail}" for i, v in enumerate(values, start))

    def _dat(self) -> Iterator[str]:
        head = f"{_fmt(self.n)} {_fmt(self.h) or 'nan'} "
        for _, values in self._chunks():
            yield "".join(f"{head}{v!r} nan nan\n" for v in values)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class ExperimentReport:
    """A run's config, its metadata and its rows, held as blocks (ReportRows and
    per-coordinate series); `rows` builds every ReportRow on each read."""

    def __init__(self, config: ExperimentConfig, rows, metadata: dict):
        self.config, self.metadata = config, metadata
        self._blocks = list(rows)

    @property
    def rows(self) -> list[ReportRow]:
        return [r for b in self._blocks for r in b._rows()]

    def _num_rows(self) -> int:
        return sum(b._size for b in self._blocks)

    def failures(self) -> list[ReportRow]:
        # a series has no valid column, so no failed row
        return [b for b in self._blocks if isinstance(b, ReportRow) and b.valid is False]

    def select(self, metric: str | None = None, n: int | None = None) -> list[ReportRow]:
        """The rows of this metric and this n; None matches any."""
        return [r for b in self._blocks if metric in (None, b.metric) and n in (None, b.n)
                for r in b._rows()]

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for b in self._blocks:
                f.writelines(b._csv())

    def to_json_sidecar(self, path) -> None:
        payload = {
            "config": {k: v for k, v in vars(self.config).items() if k not in ("output", "_options")},
            "metadata": self.metadata,
            "num_rows": self._num_rows(),
            "num_failures": len(self.failures()),
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)

    def to_gnuplot(self, prefix) -> list[str]:
        """One whitespace-separated file per metric: n h value se bound."""
        written = []
        by_metric: dict[str, list] = {}
        for b in self._blocks:
            by_metric.setdefault(b.metric, []).append(b)
        for metric, blocks in sorted(by_metric.items()):
            path = f"{prefix}.{metric}.dat"
            with open(path, "w") as f:
                f.write("# n h value se bound\n")
                for b in blocks:
                    f.writelines(b._dat())
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


# -- subset panels -------------------------------------------------------------


_PARTS = {  # the named parts of a panel, each expanded against the graph
    "singletons": lambda graph: [(i,) for i in range(graph.n)],
    "pairs": lambda graph: graph.edges(),
    "all-pairs": lambda graph: list(itertools.combinations(range(graph.n), 2)),
}


def resolve_panel(graph: InteractionGraph | None, spec) -> list[tuple[int, ...]] | None:
    """The subsets of a panel spec: "singletons", "pairs" (graph edges), "all-pairs", parts
    joined by "+", a list, or {"random": {"size": k, "count": c, "seed": s}}, a fixed draw.
    Each subset is read by the subset rule with n = graph.n, and an empty panel is a
    ValueError.  With graph None, as when a config is built, the spec is only read."""
    n = None if graph is None else graph.n
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split("+")]
        for part in parts:
            if part not in _PARTS:
                raise ValueError(f"unknown panel spec {part!r}")
        panel = None if graph is None else [u for part in parts for u in _PARTS[part](graph)]
    elif isinstance(spec, dict):
        draw = read(read(spec, None, "config 'subsets'", {"random"}), "random", "subsets",
                    {"size", "count", "seed"})
        where = "subsets 'random'"
        size, count = (read(draw, key, where, "positive-integer") for key in ("size", "count"))
        if n is not None and size > n:
            raise ValueError(f"{where} 'size' must be at most n={n}, got {size}")
        rng = np.random.default_rng(read(draw, "seed", where, "integer", 0))
        panel = None if graph is None else [
            tuple(sorted(rng.choice(n, size=size, replace=False).tolist())) for _ in range(count)
        ]
    elif isinstance(spec, _SEQUENCE):
        panel = [tuple(sorted_indices(u, n, "subsets entry")) for u in spec]
    else:
        raise ValueError(f"config 'subsets' must be a string, list or object, got {spec!r}")
    if panel == []:
        raise ValueError(f"subset panel {spec!r} is empty")
    return panel


def _subset_label(u) -> str:
    return "|".join(str(i) for i in u)


# -- experiments ---------------------------------------------------------------


def _kind(key: str, default):
    """The rule of an option, by its default's type: a matrix for None, numbers for a
    tuple, a number for a float, and for an int a count: >= 1, but k >= 0 and n_boot and
    batches >= 2 (a standard error needs two replicates or two batches)."""
    if isinstance(default, int):
        kinds = {"k": "count", "n_boot": "replicates", "batches": "batch-count"}
        return kinds.get(key, "positive-integer")
    return "matrix" if default is None else ["number"] if isinstance(default, tuple) else "number"


def _target_from_options(n: int, config: ExperimentConfig) -> orc.GaussianTarget:
    A = config._options["precision"]
    if A is None:  # CSR, so the target takes the sine basis and forms no n x n array
        A = _tridiagonal(n, config._options["diag"], config._options["off"])
    elif A.shape != (n, n):
        raise ValueError(f"precision shape {A.shape} does not match n={n}")
    return orc.GaussianTarget(A)


def _precision_graph(tgt: orc.GaussianTarget) -> InteractionGraph:
    """The interaction graph of x'Ax/2: an edge i - j wherever A_ij != 0."""
    rows, cols = sparse.triu(tgt.precision, 1).nonzero()
    return InteractionGraph(tgt.dim, zip(rows.tolist(), cols.tolist()))


def _single_h(config: ExperimentConfig, default: float) -> float:
    """The one entry of config.h_values, or the default when empty."""
    return config.h_values[0] if config.h_values else default


def _panel_kl(law_a: orc.GaussianLaw, panel, targets) -> list[float]:
    """KL(law_a || law) on each subset u of the panel; targets are law's marginals on them."""
    return [orc.kl_gaussian(orc.marginal(law_a, u), target) for u, target in zip(panel, targets)]


def _start_law(config: ExperimentConfig, tgt: orc.GaussianTarget):
    """The target law N(0, Sigma), the start law N(0, c Sigma) with c = cov0_scale, and
    C0 = (c - 1 - log c)/2: the start's KL on every marginal w is exactly C0 |w|."""
    law, c = tgt.law(), config._options["cov0_scale"]
    return law, orc.GaussianLaw(np.zeros(tgt.dim), c * law.cov), 0.5 * (c - 1.0 - math.log(c))


def _singleton_w2(law_h: orc.GaussianLaw, law: orc.GaussianLaw) -> np.ndarray:
    """Exact W2^2 between the coordinate marginals of law_h and law, one per
    coordinate: in one dimension (mean difference)^2 + (sd difference)^2."""
    sd_h, sd = np.sqrt(law_h.variances), np.sqrt(law.variances)
    return (law_h.mean - law.mean) ** 2 + (sd_h - sd) ** 2


def _singleton_kl(law_h: orc.GaussianLaw, law: orc.GaussianLaw) -> np.ndarray:
    """Exact KL(law_h || law) between the coordinate marginals, one per coordinate:
    in one dimension (r - 1 - log r + (mean difference)^2 / var) / 2, r = var_h / var."""
    var_h, var = law_h.variances, law.variances
    x = (var_h - var) / var  # r - 1
    return 0.5 * (x - np.log1p(x) + (law_h.mean - law.mean) ** 2 / var)


def _exp_gaussian_scaling(config: ExperimentConfig, n: int) -> Iterator[ReportRow | _Series]:
    tgt = _target_from_options(n, config)
    law = tgt.law()
    for h in config.h_values or (0.01,):
        law_h = orc.lmc_stationary_law(tgt, h)
        per_coord = _singleton_w2(law_h, law)
        yield _Series(config.experiment, n, h, "w2sq-marginal", "oracle", per_coord)
        # the max single-coordinate bias and the full-vector bias, in W2^2 and in KL
        for metric, top, full in (
            ("w2sq", float(np.max(per_coord)), orc.w2sq_gaussian(law_h, law)),
            ("kl", float(np.max(_singleton_kl(law_h, law))), orc.kl_gaussian(law_h, law)),
        ):
            yield ReportRow(
                config.experiment, n, h, "singletons", f"{metric}-marginal-max",
                top, theorem="oracle",
            )
            yield ReportRow(
                config.experiment, n, h, "full", f"{metric}-full", full, theorem="oracle"
            )


def _sparse_poly_setup(config: ExperimentConfig, n: int, gamma: float, p: float):
    """Build the target on n and its graph, and yield the row of the polynomial growth
    certificate: exponent p, c measured on the graph.  Returns (target, graph, panel,
    SparseParams at that c, its sparse-poly report); invalid constants raise.  The
    certificate holds at c by construction (test_graph checks that it does)."""
    tgt = _target_from_options(n, config)
    graph = _precision_graph(tgt)
    c = _least_c(graph, "polynomial", p)
    yield ReportRow(
        config.experiment, n, None, "vertices", "growth-certificate",
        1.0, theorem="polynomial", valid=True,
    )
    params = SparseParams(tgt.alpha, tgt.beta, gamma, c, p=p)
    consts = params.constants()
    if not consts.valid:
        raise ValueError(f"constants invalid: {consts.reason}")
    return tgt, graph, resolve_panel(graph, config.subsets), params, consts


def _exp_bound_vs_truth(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    setup = _sparse_poly_setup(config, n, config._options["gamma"], config._options["p"])
    tgt, graph, panel, _, consts = yield from setup
    C, h_star = consts["C"], consts["h_star"]
    law = tgt.law()
    targets = [orc.marginal(law, u) for u in panel]
    h_grid = config.h_values or tuple(h_star * i / 20.0 for i in range(1, 21))
    for h in h_grid:
        law_h = orc.lmc_stationary_law(tgt, h)
        for u, target in zip(panel, targets):
            pair = (orc.marginal(law_h, u), target)
            kl = orc.kl_gaussian(*pair)
            kl_bound = C * h * len(u)
            yield ReportRow(
                config.experiment, n, h, _subset_label(u), "kl-marginal",
                kl, bound=kl_bound, theorem="sparse-poly", valid=kl <= kl_bound,
            )
            w2 = orc.w2sq_gaussian(*pair)
            tal = (2.0 / tgt.alpha) * kl
            yield ReportRow(
                config.experiment, n, h, _subset_label(u), "w2sq-marginal",
                w2, bound=tal, theorem="talagrand", valid=w2 <= tal + 1e-12,
            )


def _exp_certified_trajectory(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    """Exact transient KL <= certified curve <= dynamic envelope, with p = gamma = 1."""
    tgt, graph, panel, params, consts = yield from _sparse_poly_setup(config, n, 1.0, 1.0)
    k_max = config._options["k"]
    law, law0, C0 = _start_law(config, tgt)
    H0 = SubsetFunction(lambda m: C0 * size(m), "c0-size")
    targets = [orc.marginal(law, u) for u in panel]
    for h in config.h_values or (consts["h_star"] / 2.0,):
        curves = [certified_entropy_curve("sparse", params, graph, H0, h, k_max, u) for u in panel]
        laws = (law0 if k == 0 else orc.lmc_transient_law(tgt, h, k, law0)
                for k in range(k_max + 1))
        exact = [_panel_kl(law_k, panel, targets) for law_k in laws]
        for i, (u, curve) in enumerate(zip(panel, curves)):
            for k, bound in enumerate(curve.tolist()):
                dyn = bnd.dynamic_bound("sparse-dyn-poly", vars(params), k, h, len(u), C0)
                if not dyn.valid:
                    raise ValueError(dyn.reason)
                yield ReportRow(
                    config.experiment, n, h, _subset_label(u), "kl-transient",
                    exact[k][i], bound=bound, theorem="certified-curve",
                    valid=exact[k][i] <= bound + 1e-12,
                )
                yield ReportRow(
                    config.experiment, n, h, _subset_label(u), "certified-curve",
                    bound, bound=dyn["bound_value"], theorem="sparse-dyn-poly",
                    valid=bound <= dyn["bound_value"] + 1e-12,
                )


def _exp_subadditivity(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    tgt = _target_from_options(n, config)
    h = _single_h(config, 1.0 / tgt.beta)
    law_h = orc.lmc_stationary_law(tgt, h)
    law = tgt.law()
    for k in range(1, n + 1):
        rep = mtr.subadditivity_check(law_h, law, k, tol=config._options["tol"])
        yield ReportRow(
            config.experiment, n, h, f"k={k}", "subadditivity-lhs",
            rep.lhs_average, bound=rep.rhs_share, theorem="subadditivity", valid=rep.passed,
        )


def _exp_continuous_time(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    tgt = _target_from_options(n, config)
    graph = _precision_graph(tgt)
    alpha, beta, gamma = tgt.alpha, tgt.beta, config._options["gamma"]
    law, law0, C0 = _start_law(config, tgt)
    panel = resolve_panel(graph, config.subsets)
    times = config._options["times"]
    targets = [orc.marginal(law, u) for u in panel]
    exact = [_panel_kl(orc.ou_law(tgt, t, law0), panel, targets) for t in times]
    for eps in config._options["eps"]:
        for t, kls in zip(times, exact):
            for u, kl in zip(panel, kls):
                rep = bnd.continuous_time_bound(graph, u, t, eps, alpha, beta, gamma, C0=C0)
                if not rep.valid:
                    raise ValueError(rep.reason)
                yield ReportRow(
                    config.experiment, n, None, _subset_label(u), f"kl-t={t}-eps={eps}",
                    kl, bound=rep["bound_value"], theorem="continuous-time",
                    valid=kl <= rep["bound_value"] + 1e-12,
                )


def _exp_onestep_linf(config: ExperimentConfig, dims: tuple[int, ...]) -> Iterator[ReportRow]:
    # every estimate of the run is one assignment batch: the full sample and
    # n_boot replicates at m, and the half sample at m/2, per dim.  At the
    # default m = 2048, n_boot = 10 and dims (4, 8), the run takes about 8 s
    # on 2 CPUs, so the default replicate count stays small
    m, n_boot = config._options["samples"], config._options["n_boot"]
    cases, problems = [], []
    for counter, n in enumerate(dims):
        tgt = _target_from_options(n, config)
        A = _dense(tgt.precision)
        alpha0 = float(np.max(np.sum(np.abs(A - np.diag(np.diag(A))), axis=1)))
        h = _single_h(config, 1.0 / (2.0 * tgt.beta))
        rng = np.random.default_rng([config.seed, counter])
        a = orc.sample(orc.lmc_stationary_law(tgt, h), m, rng)
        b = orc.sample(tgt.law(), m, rng)
        cases.append((n, h, bnd.onestep_linf_bound(tgt.alpha, alpha0, tgt.beta, h, n)))
        # the half sample is the bias-corrected variant's second point; it needs no SE
        problems += [(a, b, "linf", n_boot, rng), (a[: m // 2], b[: m // 2], "linf", 0, rng)]
    ests = mtr._assignment_batch(problems)
    for (n, h, rep), est, half in zip(cases, ests[::2], ests[1::2]):
        ok = rep.valid and est.value <= rep["full_linf"] + 3.0 * est.standard_error
        yield ReportRow(
            config.experiment, n, h, "full", "w2sq-linf-full",
            est.value, se=est.standard_error, bound=rep["full_linf"],
            theorem="onestep-linf", valid=ok,
        )
        # bias-corrected variant: Richardson step from m/2 to m assuming
        # O(m^{-1/2}) estimator bias; no SE of it is computed
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


def _sampler_config(config: ExperimentConfig) -> SamplerConfig:
    """The chains of a sampler-vs-oracle run."""
    return SamplerConfig(
        h=_single_h(config, 0.05),
        iterations=config._options["iterations"],
        num_chains=config._options["chains"],
        seed=config.seed,
    )


def _exp_sampler_vs_oracle(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    tgt = _target_from_options(n, config)
    pot = gaussian_potential(tgt.precision)
    scfg = _sampler_config(config)
    h = scfg.h
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
    for i in range(n):
        for j in range(i, n):
            series = centered[:, i] * centered[:, j]
            emp = float(series.mean())
            se = _batch_mean_se(series, config._options["batches"])
            ref = float(law_h.cov[i, j])
            yield ReportRow(
                config.experiment, n, h, _subset_label((i, j)), "cov-entry",
                emp, se=se, bound=ref, theorem="lyapunov",
                valid=abs(emp - ref) <= 4.0 * se,
            )
    thin, m_cmp = config._options["thin"], config._options["marginal_samples"]
    rng = np.random.default_rng([config.seed, 1])
    for i, ref in enumerate(_singleton_w2(law_h, law).tolist()):
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


def _exp_delocalization_failure(config: ExperimentConfig, n: int) -> Iterator[ReportRow]:
    h = _single_h(config, 0.02)
    soft, stiff = config._options["soft"], config._options["stiff"]
    # CSR, so the target reads no n x n array
    product = sparse.diags_array(np.r_[soft, np.full(n - 1, stiff)], format="csr")
    for label, A in (("product", product), ("rotated", _rotated_precision(n, soft, stiff))):
        tgt = orc.GaussianTarget(A)
        top = float(np.max(_singleton_w2(orc.lmc_stationary_law(tgt, h), tgt.law())))
        yield ReportRow(config.experiment, n, h, "singletons", f"w2sq-marginal-max-{label}",
                        top, theorem="oracle")


def delocalization_failure_demo(
    dims=(8, 32, 128), h: float = 0.02, soft: float = 1.0, stiff: float = 50.0, seed: int = 0
) -> ExperimentReport:
    """Rotated anisotropic product: its max single-coordinate W2^2 LMC bias rises with n
    toward the stiff product's and stops there, while the unrotated product stays flat.
    Rotation mixes coordinate 1 into the all-ones direction."""
    cfg = ExperimentConfig("delocalization-failure", dims=tuple(dims), h_values=(h,), seed=seed,
                           options={"soft": soft, "stiff": stiff})
    return run_experiment(cfg)


def _per_n(step):
    """The experiment that runs step(config, n) for each n of dims in turn."""
    return lambda config, dims: (block for n in dims for block in step(config, n))


EXPERIMENTS = {  # name -> (the run over a dims tuple, its default dims,
    # the most h_values entries it takes, whether it reads a subsets panel)
    "gaussian-scaling": (_per_n(_exp_gaussian_scaling), (16, 64, 256), math.inf, False),
    "bound-vs-truth": (_per_n(_exp_bound_vs_truth), (8,), math.inf, True),
    "certified-trajectory": (_per_n(_exp_certified_trajectory), (8,), math.inf, True),
    "subadditivity": (_per_n(_exp_subadditivity), (8,), 1, False),
    "continuous-time": (_per_n(_exp_continuous_time), (6,), 0, True),
    "onestep-linf": (_exp_onestep_linf, (4, 8), 1, False),  # one assignment batch over every dim
    "sampler-vs-oracle": (_per_n(_exp_sampler_vs_oracle), (2,), 1, False),
    "delocalization-failure": (_per_n(_exp_delocalization_failure), (8, 32, 128), 1, False),
}

_TARGET = {"precision": None, "diag": 2.0, "off": -0.5}
_OPTIONS = {  # each experiment's option keys and their defaults, read by _kind's rules
    "gaussian-scaling": _TARGET,
    "bound-vs-truth": {**_TARGET, "p": 1.0, "gamma": 1.0},
    "certified-trajectory": {**_TARGET, "cov0_scale": 2.0, "k": 200},
    "subadditivity": {**_TARGET, "tol": 1e-9},
    "continuous-time": {**_TARGET, "gamma": 1.0, "cov0_scale": 2.0, "eps": (0.25, 0.5, 0.9),
                        "times": (0.1, 0.5, 1.0, 2.0)},
    "onestep-linf": {**_TARGET, "off": -0.3, "samples": 2048, "n_boot": 10},
    "sampler-vs-oracle": {**_TARGET, "diag": 3.0, "off": 0.5, "iterations": 500_000, "chains": 4,
                          "batches": 200, "thin": 20, "marginal_samples": 100_000},
    "delocalization-failure": {"soft": 1.0, "stiff": 50.0},
}


_RULES = {  # rule -> (its value on the per-n values in ascending n, its bound, a pass test)
    "spread": (lambda ns, v: (max(v) - min(v)) / min(v), 0.05, lambda x: x < 0.05),
    "slope": (lambda ns, v: fit_scaling(ns, v).slope, 1.0, lambda x: abs(x - 1.0) <= 0.05),
    "growth": (lambda ns, v: v[-1] / v[0], 2.0, lambda x: x >= 2.0),
}
_ACROSS_N = {  # experiment -> (theorem, [(per-n metric, rule, row metric)]), rows in this order
    "gaussian-scaling": ("dimension-free", [
        ("w2sq-marginal-max", "spread", "w2sq-marginal-max-spread"),
        ("w2sq-full", "slope", "w2sq-full-slope"),
        ("kl-marginal-max", "spread", "kl-marginal-max-spread"),
        ("kl-full", "slope", "kl-full-slope"),
    ]),
    "delocalization-failure": ("counterexample", [
        ("w2sq-marginal-max-rotated", "growth", "rotated-bias-growth"),
        ("w2sq-marginal-max-product", "spread", "product-bias-variation"),
    ]),
}


def _across_n(experiment: str, dims: tuple[int, ...], blocks: list) -> Iterator[ReportRow]:
    """The rows that check a claim over n, at the largest n, none below two distinct dims:
    for each h in the order the run gave it, each check of _ACROSS_N[experiment], its rule
    on the per-n values of its metric taken in ascending n."""
    theorem, checks = _ACROSS_N.get(experiment, ("", []))
    if not checks or len(set(dims)) < 2:
        return
    by_n = sorted(range(len(dims)), key=dims.__getitem__)
    rows = {metric: [b for b in blocks if b.metric == metric] for metric, _, _ in checks}
    per_entry = len(rows[checks[0][0]]) // len(dims)  # a metric's rows per n, one per h
    for j in range(per_entry):
        for metric, rule, name in checks:
            series = [rows[metric][i * per_entry + j] for i in by_n]  # row j of each n, ascending
            last, values = series[-1], [r.value for r in series]
            if min(values) <= 0.0:
                raise ValueError(f"the bias at h={last.h} underflows to 0: "
                                 "no scaling in n to check")
            value_of, bound, passes = _RULES[rule]
            value = value_of([r.n for r in series], values)
            yield ReportRow(experiment, last.n, last.h, last.subset, name, value,
                            bound=bound, theorem=theorem, valid=passes(value))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """The experiment's blocks over config.dims (default when empty), then its rows across n."""
    t0 = time.perf_counter()
    run, default_dims, _, _ = EXPERIMENTS[config.experiment]
    dims = config.dims or default_dims
    blocks = list(run(config, dims))
    report = ExperimentReport(config, [*blocks, *_across_n(config.experiment, dims, blocks)], {})
    elapsed = round(time.perf_counter() - t0, 3)
    report.metadata.update(seed=config.seed, elapsed_seconds=elapsed, rows=report._num_rows())
    if config.output:
        report.to_csv(config.output)
        report.to_json_sidecar(str(config.output) + ".json")
    return report
