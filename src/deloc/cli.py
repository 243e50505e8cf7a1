"""Command-line front end.

Subcommands:

  deloc run <config.json>      run a named experiment, write CSV, print summary
  deloc bounds <theorem> ...   evaluate theorem constants / bound values
  deloc hierarchy ...          semigroup evaluation and certified curves
  deloc validate <pot.json>    sanity-check a potential file

All subcommands print a JSON document to stdout.  Exit status is 0 on
success and 2 if any check failed (a report row with valid=false, an
invalid bound, or a potential that fails validation)."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bnd
from . import hierarchy as hie
from .graph import build_graph
from .harness import config_from_dict, run_experiment
from .potential import load_potential
from .subsets import as_mask, size

EXIT_OK = 0
EXIT_CHECK_FAILED = 2


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=_coerce)
    sys.stdout.write("\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _cmd_run(args) -> int:
    with open(args.config) as f:
        spec = json.load(f)
    cfg = config_from_dict(spec)
    if args.output:
        cfg = config_from_dict({**spec, "output": args.output})
    report = run_experiment(cfg)
    written = []
    if cfg.output:
        written = [cfg.output, cfg.output + ".json"]
    if args.gnuplot:
        prefix = cfg.output or f"{cfg.experiment}"
        written += report.to_gnuplot(prefix)
    failures = report.failures()
    _emit(
        {
            "experiment": cfg.experiment,
            "rows": len(report.rows),
            "failures": len(failures),
            "failed_metrics": sorted({r.metric for r in failures}),
            "files": written,
            "metadata": report.metadata,
        }
    )
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _report_payload(rep: bnd.BoundReport) -> dict:
    return {
        "theorem": rep.theorem,
        "inputs": rep.inputs,
        "outputs": rep.outputs,
        "valid": rep.valid,
        "reason": rep.reason,
    }


def _cmd_bounds(args) -> int:
    pot = None
    if args.theorem == "continuous-time":
        if args.potential is None:
            args.usage_error("continuous-time needs --potential")
        pot = load_potential(args.potential)
    try:
        payload = _bound(args, pot)
    except ValueError as e:
        payload = {"theorem": args.theorem, "valid": False, "reason": str(e)}
    _emit(payload)
    return EXIT_OK if payload["valid"] else EXIT_CHECK_FAILED


def _bound(args, pot) -> dict:
    """The report of one theorem; an input outside its domain raises ValueError."""
    t = args.theorem
    if t in bnd.THEOREMS:
        rep = bnd.theorem_constants(t, vars(args))
    elif t == "onestep-linf":
        rep = bnd.onestep_linf_bound(
            args.alpha, args.alpha0, args.beta, args.h, args.n, usize=args.usize
        )
    elif t == "poisson-moment":
        val = bnd.poisson_moment_bound(args.rate, args.t, args.p)
        return {"theorem": t, "outputs": {"moment_bound": val}, "valid": True}
    elif t == "subgaussian-linf":
        val = bnd.subgaussian_grad_linf_bound(args.beta, args.n)
        return {"theorem": t, "outputs": {"bound": val}, "valid": True}
    elif t in bnd.DYNAMIC_THEOREMS:
        rep = bnd.dynamic_bound(t, vars(args), args.k, args.h, args.usize, args.C0)
    else:  # continuous-time over the loaded potential
        sm = pot.smoothness
        rep = bnd.continuous_time_bound(
            build_graph(pot), args.subset, args.t, args.eps, sm.alpha, pot.beta, sm.gamma,
            C0=args.C0,
        )
    return _report_payload(rep)


def _cmd_hierarchy(args) -> int:
    pot = load_potential(args.potential)
    at = {"h": args.h} if args.certify else {"t": args.t}
    try:
        out = _hierarchy(args, pot, as_mask(args.subset, pot.n))
    except ValueError as e:
        _emit({"case": args.case, **at, "valid": False, "reason": str(e)})
        return EXIT_CHECK_FAILED
    _emit({"case": args.case, **at, **out})
    return EXIT_OK


def _hierarchy(args, pot, u) -> dict:
    """h* and the certified curve with --certify, else e^{tA} of the size
    function at u; a domain violation raises ValueError."""
    sm = pot.smoothness
    if args.certify:
        C0 = 1.0 if args.C0 is None else args.C0
        H0 = hie.SubsetFunction(lambda m: C0 * size(m), "scaled-size")
        if args.case == "weak":
            params = hie.WeakParams(alpha=sm.alpha, gamma=sm.gamma, epsilon=args.eps)
            consts = pot.interaction_constants
            h_star = params.h_star(consts.M0, consts.M1, consts.R1)
            curve = hie.certified_entropy_curve("weak", params, pot, H0, args.h, args.k, u)
        else:
            growth = {"r": args.r} if args.case == "sparse-exp" else {"p": args.p}
            params = hie.SparseParams(
                sm.alpha, pot.beta, sm.gamma, args.c, epsilon=args.eps, **growth
            )
            h_star = params.h_star()
            curve = hie.certified_entropy_curve(
                "sparse", params, build_graph(pot), H0, args.h, args.k, u
            )
        return {"h_star": h_star, "curve": curve.tolist()}
    F = hie.SubsetFunction.size()
    eps = 0.5 if args.eps is None else args.eps
    if args.case == "weak":
        gen = hie.WeakGenerator.from_params(pot, sm.alpha, sm.gamma, eps)
        return {"value": hie.semigroup_weak(gen, args.t, F, u)}
    gen = hie.SparseGenerator.from_params(build_graph(pot), sm.alpha, pot.beta, sm.gamma, eps)
    return {"value": hie.semigroup_sparse(gen, args.t, F, u)}


def _cmd_validate(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    try:
        pot = load_potential(args.potential)
    except Exception as e:  # noqa: BLE001 - report, don't crash
        _emit({"valid": False, "error": f"{type(e).__name__}: {e}"})
        return EXIT_CHECK_FAILED

    check("loads", True)
    sm = pot.smoothness
    check("alpha-positive", sm.alpha > 0, f"alpha={sm.alpha}")
    try:
        beta = pot.beta
        check("beta-defined", True, f"beta={beta}")
        check("alpha-le-beta", sm.alpha <= beta + 1e-12)
    except ValueError as e:
        check("beta-defined", False, str(e))

    consts = pot.interaction_constants
    check("constants-finite", all(np.isfinite([consts.M0, consts.M1, consts.R0, consts.R1])))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(pot.n)
    g = pot.gradient(x)
    check("gradient-finite", bool(np.all(np.isfinite(g))))
    # finite-difference spot check of the gradient at one point
    eps = 1e-6
    idx = list(range(min(pot.n, 4)))
    fd_ok = True
    for i in idx:
        e = np.zeros(pot.n)
        e[i] = eps
        fd = (pot.value(x + e) - pot.value(x - e)) / (2 * eps)
        if abs(fd - g[i]) > 1e-4 * max(1.0, abs(fd)):
            fd_ok = False
    check("gradient-matches-value", fd_ok)
    graph = build_graph(pot)
    check("graph-buildable", True, f"edges={len(graph.edges())}")
    weak = bnd.theorem_constants("weak", {"alpha": sm.alpha, "gamma": sm.gamma, **vars(consts)})
    eta = weak.outputs.get("eta", float("nan"))
    check("weak-condition", True, f"holds={weak.valid} eta={eta:.6g}")

    all_ok = all(ok for _, ok, _ in checks)
    _emit(
        {
            "valid": all_ok,
            "n": pot.n,
            "terms": len(pot.terms),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        }
    )
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="deloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="CSV path (overrides config)")
    p_run.add_argument("--gnuplot", action="store_true", help="also write per-metric .dat files")
    p_run.set_defaults(func=_cmd_run)

    p_b = sub.add_parser("bounds", help="evaluate theorem constants and bounds")
    p_b.add_argument(
        "theorem",
        choices=[
            "sparse-poly", "sparse-exp", "weak",
            "sparse-dyn-poly", "sparse-dyn-exp", "weak-dyn",
            "onestep-linf", "continuous-time", "poisson-moment", "subgaussian-linf",
        ],
    )
    p_b.add_argument("--alpha", type=float, default=1.0)
    p_b.add_argument("--alpha0", type=float, default=0.0)
    p_b.add_argument("--beta", type=float, default=1.0)
    p_b.add_argument("--gamma", type=float, default=1.0)
    p_b.add_argument("--c", type=float, default=1.0)
    p_b.add_argument("--p", type=float, default=1.0)
    p_b.add_argument("--r", type=float, default=1.5)
    p_b.add_argument("--M0", type=float, default=1.0)
    p_b.add_argument("--M1", type=float, default=1.0)
    p_b.add_argument("--R1", type=float, default=0.0)
    p_b.add_argument("--h", type=float, default=0.01)
    p_b.add_argument("--k", type=int, default=100)
    p_b.add_argument("--n", type=int, default=2)
    p_b.add_argument("--t", type=float, default=1.0)
    p_b.add_argument("--eps", type=float, default=0.5)
    p_b.add_argument("--usize", type=int, default=1)
    p_b.add_argument("--C0", type=float, default=1.0)
    p_b.add_argument("--rate", type=float, default=1.0)
    p_b.add_argument("--subset", type=int, nargs="+", default=[0])
    p_b.add_argument("--potential", help="potential JSON (continuous-time only)")
    p_b.set_defaults(func=_cmd_bounds, usage_error=p_b.error)

    p_h = sub.add_parser("hierarchy", help="semigroup values and certified curves")
    p_h.add_argument("potential")
    p_h.add_argument("--case", choices=["sparse-poly", "sparse-exp", "weak"], default="sparse-poly")
    p_h.add_argument("--subset", type=int, nargs="+", default=[0])
    p_h.add_argument("--t", type=float, default=1.0)
    p_h.add_argument("--eps", type=float, default=None)
    p_h.add_argument("--certify", action="store_true", help="certified entropy curve instead")
    p_h.add_argument("--h", type=float, default=0.01)
    p_h.add_argument("--k", type=int, default=100)
    p_h.add_argument("--c", type=float, default=1.0)
    p_h.add_argument("--p", type=float, default=1.0)
    p_h.add_argument("--r", type=float, default=1.5)
    p_h.add_argument("--C0", type=float, default=None)
    p_h.set_defaults(func=_cmd_hierarchy)

    p_v = sub.add_parser("validate", help="check a potential JSON file")
    p_v.add_argument("potential")
    p_v.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
