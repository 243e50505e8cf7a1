"""In-memory span recorder for the traced run.

The recorder wraps deloc's public functions from outside the package: it
replaces each function in every deloc module that holds it (so names
imported into another module, such as ``deloc.harness.run_chain``, are
traced too) and each method on its class.  Spans carry a name, start, end,
the index of the enclosing span and a few counters read from the call's
arguments.  The untraced run never installs the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the root
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sampler_steps(a) -> dict:
    cfg = a["config"]
    substeps = cfg.substeps if cfg.mode == "langevin-reference" else 1
    return {"steps": cfg.iterations * cfg.num_chains * substeps}


def _assignment_solves(a) -> dict:
    return {"solves": 1 + int(a["n_boot"])}


def _curve(a) -> dict:
    return {"case": a["case"], "steps": int(a["k_max"])}


# (module, attribute or Class.method, span name, counters from the bound arguments)
TARGETS = (
    ("deloc.potential", "gaussian_potential", "potential.build", None),
    ("deloc.potential", "chain_pairwise", "potential.build", None),
    ("deloc.potential", "mean_field", "potential.build", None),
    ("deloc.potential", "PairwiseSpec.to_structured", "potential.build", None),
    ("deloc.potential", "StructuredPotential.gradient", "potential.gradient", None),
    ("deloc.graph", "build_graph", "graph.build", None),
    ("deloc.graph", "verify_growth", "graph.verify_growth", None),
    ("deloc.sampler", "run_chain", "sampler.run_chain", _sampler_steps),
    ("deloc.oracle", "GaussianTarget.__post_init__", "oracle.target", None),
    ("deloc.oracle", "lmc_stationary_law", "oracle.stationary_law", None),
    ("deloc.oracle", "marginal", "oracle.marginal", None),
    ("deloc.oracle", "w2sq_gaussian", "oracle.w2sq_gaussian", None),
    ("deloc.oracle", "lyapunov_fixed_point", "oracle.lyapunov", None),
    ("deloc.oracle", "sample", "oracle.sample", None),
    ("deloc.metrics", "w2sq_1d", "metrics.w2sq_1d", None),
    ("deloc.metrics", "w2sq_assignment", "metrics.assignment", _assignment_solves),
    ("deloc.metrics", "subadditivity_check", "metrics.subadditivity", None),
    ("deloc.bounds", "continuous_time_bound", "bounds.continuous_time", None),
    ("deloc.bounds", "onestep_linf_bound", "bounds.onestep_linf", None),
    ("deloc.hierarchy", "certified_entropy_curve", "hierarchy.certified", _curve),
    ("deloc.harness", "run_experiment", "harness.run_experiment", None),
)

SAMPLER_PARTS = ("quad-small", "quad-large", "callable")
CURVE_CASES = ("sparse", "weak")

# name -> unit of every per-layer metric the traced run reports
LAYER_METRICS = {
    "potential.build_s": "s",
    "potential.gradient_calls": "count",
    "potential.gradient_s": "s",
    "graph.build_s": "s",
    "graph.verify_growth_s": "s",
    "sampler.run_chain_s": "s",
    "sampler.chain_steps": "count",
    **{f"sampler.us_per_step.{p}": "us" for p in SAMPLER_PARTS},
    "oracle.target_s": "s",
    "oracle.stationary_law_s": "s",
    "oracle.marginal_calls": "count",
    "oracle.marginal_s": "s",
    "oracle.w2sq_gaussian_calls": "count",
    "oracle.w2sq_gaussian_s": "s",
    "oracle.lyapunov_s": "s",
    "oracle.sample_s": "s",
    "metrics.w2sq_1d_s": "s",
    "metrics.assignment_calls": "count",
    "metrics.assignment_solves": "count",
    "metrics.assignment_s": "s",
    "metrics.subadditivity_s": "s",
    "bounds.continuous_time_calls": "count",
    "bounds.continuous_time_s": "s",
    "bounds.onestep_linf_s": "s",
    "hierarchy.certified_sparse_s": "s",
    "hierarchy.certified_weak_s": "s",
    "hierarchy.curve_steps": "count",
    **{f"hierarchy.ms_per_curve_step.{c}": "ms" for c in CURVE_CASES},
    "harness.run_experiment_s": "s",
    "harness.self_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, attrs))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, counters):
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = counters(bound.arguments)
            idx = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Call uninstall() to restore the originals."""
        modules = [m for k, m in list(sys.modules.items()) if k == "deloc" or k.startswith("deloc.")]
        for mod_name, attr, name, counters in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, self._wrap(original, name, counters))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, counters)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def reset(self) -> None:
        self.spans = []
        self._stack = []


# -- aggregation -------------------------------------------------------------------


def _outermost(spans: list[Span], name: str) -> dict[int, Span]:
    """Spans called `name` that are not nested inside another span of that
    name, by index."""
    out = {}
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out[i] = s
    return out


def _part_of(spans: list[Span], s: Span) -> str | None:
    p = s.parent
    while p >= 0:
        if spans[p].name == "part":
            return spans[p].attrs["part"]
        p = spans[p].parent
    return None


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans it recorded."""

    def secs(name):
        return sum(s.seconds for s in _outermost(spans, name).values())

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    m = {
        "potential.build_s": secs("potential.build"),
        "potential.gradient_calls": calls("potential.gradient"),
        "potential.gradient_s": secs("potential.gradient"),
        "graph.build_s": secs("graph.build"),
        "graph.verify_growth_s": secs("graph.verify_growth"),
        "oracle.target_s": secs("oracle.target"),
        "oracle.stationary_law_s": secs("oracle.stationary_law"),
        "oracle.marginal_calls": calls("oracle.marginal"),
        "oracle.marginal_s": secs("oracle.marginal"),
        "oracle.w2sq_gaussian_calls": calls("oracle.w2sq_gaussian"),
        "oracle.w2sq_gaussian_s": secs("oracle.w2sq_gaussian"),
        "oracle.lyapunov_s": secs("oracle.lyapunov"),
        "oracle.sample_s": secs("oracle.sample"),
        "metrics.w2sq_1d_s": secs("metrics.w2sq_1d"),
        "metrics.assignment_calls": calls("metrics.assignment"),
        "metrics.assignment_solves": sum(s.attrs["solves"] for s in spans if s.name == "metrics.assignment"),
        "metrics.assignment_s": secs("metrics.assignment"),
        "metrics.subadditivity_s": secs("metrics.subadditivity"),
        "bounds.continuous_time_calls": calls("bounds.continuous_time"),
        "bounds.continuous_time_s": secs("bounds.continuous_time"),
        "bounds.onestep_linf_s": secs("bounds.onestep_linf"),
        "harness.run_experiment_s": secs("harness.run_experiment"),
    }

    chains = list(_outermost(spans, "sampler.run_chain").values())
    m["sampler.run_chain_s"] = sum(s.seconds for s in chains)
    m["sampler.chain_steps"] = sum(s.attrs["steps"] for s in chains)
    for part in SAMPLER_PARTS:
        mine = [s for s in chains if _part_of(spans, s) == part]
        steps = sum(s.attrs["steps"] for s in mine)
        m[f"sampler.us_per_step.{part}"] = 1e6 * sum(s.seconds for s in mine) / steps if steps else 0.0

    curves = list(_outermost(spans, "hierarchy.certified").values())
    m["hierarchy.curve_steps"] = sum(s.attrs["steps"] for s in curves)
    for case in CURVE_CASES:
        mine = [s for s in curves if s.attrs["case"] == case]
        secs_case = sum(s.seconds for s in mine)
        steps = sum(s.attrs["steps"] for s in mine)
        m[f"hierarchy.certified_{case}_s"] = secs_case
        m[f"hierarchy.ms_per_curve_step.{case}"] = 1e3 * secs_case / steps if steps else 0.0

    # harness self time: each experiment span minus its direct children
    self_s = 0.0
    for idx, s in _outermost(spans, "harness.run_experiment").items():
        self_s += s.seconds - sum(c.seconds for c in spans if c.parent == idx)
    m["harness.self_s"] = self_s
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
