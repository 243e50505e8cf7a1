"""Command-line front end.

Subcommands:

  deloc run <config.json>      run a named experiment, write CSV, print summary
  deloc bounds <theorem> ...   evaluate theorem constants / bound values
  deloc hierarchy ...          semigroup evaluation and certified curves
  deloc validate <pot.json>    sanity-check a potential file

Each subcommand returns its report and `main` prints it as one JSON
document.  Input outside a theorem's or an experiment's domain (a
ValueError) is reported as the command's head plus valid=false and the
reason.  Exit status is 0 on success and 2 if any check failed (a report
with valid=false or a run with failed rows)."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import bounds as bnd
from . import hierarchy as hie
from ._json import load
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


def _read_json(path: str):
    """The JSON document in the file at path; an unreadable file is a usage error."""
    try:
        return load(path)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _cmd_run(args) -> dict:
    cfg = config_from_dict(args.config)
    if args.output:
        cfg = replace(cfg, output=args.output)
    report = run_experiment(cfg)
    written = [cfg.output, cfg.output + ".json"] if cfg.output else []
    if args.gnuplot:
        written += report.to_gnuplot(cfg.output or cfg.experiment)
    failures = report.failures()
    return {
        "experiment": cfg.experiment,
        "rows": len(report.rows),
        "failures": len(failures),
        "failed_metrics": sorted({r.metric for r in failures}),
        "files": written,
        "metadata": report.metadata,
    }


def _cmd_bounds(args) -> dict:
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
        if args.potential is None:
            args.usage_error("continuous-time needs --potential")
        pot = load_potential(args.potential)
        sm = pot.smoothness
        rep = bnd.continuous_time_bound(
            build_graph(pot), args.subset, args.t, args.eps, sm.alpha, pot.beta, sm.gamma,
            C0=args.C0,
        )
    return vars(rep)


def _cmd_hierarchy(args) -> dict:
    """h* and the certified curve with --certify, else e^{tA} of the size
    function at the subset; a domain violation raises ValueError."""
    pot = load_potential(args.potential)
    u = as_mask(args.subset, pot.n)
    sm = pot.smoothness
    if args.certify:
        H0 = hie.SubsetFunction(lambda m: args.C0 * size(m), "scaled-size")
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
        return {**args.head(args), "h_star": h_star, "curve": curve.tolist()}
    F = hie.SubsetFunction.size()
    eps = 0.5 if args.eps is None else args.eps
    if args.case == "weak":
        gen = hie.WeakGenerator.from_params(pot, sm.alpha, sm.gamma, eps)
        value = hie.semigroup_weak(gen, args.t, F, u)
    else:
        gen = hie.SparseGenerator.from_params(build_graph(pot), sm.alpha, pot.beta, sm.gamma, eps)
        value = hie.semigroup_sparse(gen, args.t, F, u)
    return {**args.head(args), "value": value}


def _cmd_validate(args) -> dict:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    try:
        pot = load_potential(args.potential)
    except Exception as e:  # noqa: BLE001 - report, don't crash
        return {"valid": False, "error": f"{type(e).__name__}: {e}"}

    check("loads", True)
    sm = pot.smoothness
    check("alpha-positive", sm.alpha > 0, f"alpha={sm.alpha}")
    check("beta-defined", True, f"beta={pot.beta}")
    check("alpha-le-beta", sm.alpha <= pot.beta + 1e-12)

    consts = pot.interaction_constants
    check("constants-finite", all(np.isfinite([consts.M0, consts.M1, consts.R0, consts.R1])))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(pot.n)
    g = pot.gradient(x)
    check("gradient-finite", bool(np.all(np.isfinite(g))))
    # finite-difference spot check of the gradient at one point
    eps = 1e-6
    fd_ok = True
    for i in range(min(pot.n, 4)):
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

    return {
        "valid": all(ok for _, ok, _ in checks),
        "n": pot.n,
        "terms": len(pot.terms),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }


def _run_head(args) -> dict:
    spec = args.config
    return {"experiment": spec.get("experiment") if isinstance(spec, dict) else None}


def _hierarchy_head(args) -> dict:
    return {"case": args.case, **({"h": args.h} if args.certify else {"t": args.t})}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="deloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", type=_read_json)
    p_run.add_argument("--output", help="CSV path (overrides config)")
    p_run.add_argument("--gnuplot", action="store_true", help="also write per-metric .dat files")
    p_run.set_defaults(func=_cmd_run, head=_run_head)

    # the flags that bounds and hierarchy share, with the same defaults
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--subset", type=int, nargs="+", default=[0])
    shared.add_argument("--t", type=float, default=1.0)
    shared.add_argument("--h", type=float, default=0.01)
    shared.add_argument("--k", type=int, default=100)
    shared.add_argument("--c", type=float, default=1.0)
    shared.add_argument("--p", type=float, default=1.0)
    shared.add_argument("--r", type=float, default=1.5)
    shared.add_argument("--C0", type=float, default=1.0)

    p_b = sub.add_parser("bounds", parents=[shared], help="evaluate theorem constants and bounds")
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
    p_b.add_argument("--M0", type=float, default=1.0)
    p_b.add_argument("--M1", type=float, default=1.0)
    p_b.add_argument("--R1", type=float, default=0.0)
    p_b.add_argument("--n", type=int, default=2)
    p_b.add_argument("--eps", type=float, default=0.5)
    p_b.add_argument("--usize", type=int, default=1)
    p_b.add_argument("--rate", type=float, default=1.0)
    p_b.add_argument("--potential", help="potential JSON (continuous-time only)")
    p_b.set_defaults(
        func=_cmd_bounds, head=lambda a: {"theorem": a.theorem}, usage_error=p_b.error
    )

    p_h = sub.add_parser(
        "hierarchy", parents=[shared], help="semigroup values and certified curves"
    )
    p_h.add_argument("potential")
    p_h.add_argument("--case", choices=["sparse-poly", "sparse-exp", "weak"], default="sparse-poly")
    p_h.add_argument("--eps", type=float, default=None)
    p_h.add_argument("--certify", action="store_true", help="certified entropy curve instead")
    p_h.set_defaults(func=_cmd_hierarchy, head=_hierarchy_head)

    p_v = sub.add_parser("validate", help="check a potential JSON file")
    p_v.add_argument("potential")
    p_v.set_defaults(func=_cmd_validate, head=lambda a: {})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except ValueError as e:
        payload = {**args.head(args), "valid": False, "reason": str(e)}
    _emit(payload)
    failed = payload.get("valid") is False or payload.get("failures")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
