"""Command-line front end.

Subcommands:

  deloc run <config.json>      run a named experiment, write CSV, print summary
  deloc bounds <theorem> ...   evaluate theorem constants / bound values
  deloc hierarchy ...          semigroup evaluation and certified curves
  deloc validate <pot.json>    sanity-check a potential file

Each theorem of bounds and each mode of hierarchy takes the flags it reads
(_READS) and no others, before or after the theorem name; another flag is a
usage error that names it and the mode.  Each subcommand returns its report
and `main` prints it as one strict JSON document.  Input outside a theorem's
or an experiment's domain, a result holding NaN or an infinity (a ValueError),
or a report file of a run that cannot be written, is reported as the command's
head plus valid=false and the reason.  Exit status is 0 on success and 2 if
any check failed (a report with valid=false or a run with failed rows)."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import partial

import numpy as np

from . import bounds as bnd
from . import hierarchy as hie
from ._json import _check, load
from .graph import _least_c, build_graph
from .harness import config_from_dict, run_experiment
from .potential import load_potential
from .subsets import as_mask, size

EXIT_OK = 0
EXIT_CHECK_FAILED = 2


def _emit(payload: dict) -> None:
    """Print payload as strict JSON; a NaN or infinity is a ValueError, printing nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_coerce, allow_nan=False)
    sys.stdout.write(text + "\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _usage(read, text: str):
    """read(text), for an argparse type; a ValueError it raises is a usage error."""
    try:
        return read(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


_number = partial(_usage, lambda text: _check(float(text), "number", "value"))


def _index(text: str):
    """One --subset word read as JSON, so the subset rule judges 2.0, 0.7, -1 and true itself."""
    try:
        return json.loads(text)
    except ValueError:
        raise ValueError(f"cannot read {text!r} as an index: --subset takes every word up to the "
                         "next flag, so before a positional argument write --subset=2, or put "
                         "--subset after it") from None


# every flag of bounds and hierarchy: how it is parsed, and its default
_FLAGS = {
    **{name: dict(type=_number, default=d) for name, d in dict(
        t=1.0, h=0.01, p=1.0, r=1.5, C0=1.0, eps=0.5, c=1.0, alpha=1.0, alpha0=0.0, beta=1.0,
        gamma=1.0, M0=1.0, M1=1.0, R1=0.0, rate=1.0).items()},
    **{name: dict(type=int, default=d) for name, d in dict(k=100, n=2, usize=1).items()},
    "subset": dict(type=partial(_usage, _index), nargs="+", default=[0]),
    "potential": dict(default=None, help="potential JSON"),
}


def _reads(*names, **defaults) -> dict:
    """A mode's {flag: default}: names at their _FLAGS default, and the keyword defaults."""
    return {**{name: _FLAGS[name]["default"] for name in names}, **defaults}


# the flags each mode reads, with their defaults: each theorem of bounds, and
# hierarchy --certify for each --case (where eps None is 1 - eta/2) or without it
_READS = {
    "bounds": {
        **{t: _reads(*names) for t, (_, names) in bnd.THEOREMS.items()},
        **{t: _reads(*bnd.THEOREMS[t.replace("-dyn", "")][1], "k", "h", "usize", "C0")
           for t in bnd.DYNAMIC_THEOREMS},
        "onestep-linf": _reads("alpha", "alpha0", "beta", "h", "n", "usize"),
        "continuous-time": _reads("potential", "subset", "t", "eps", "C0"),
        "poisson-moment": _reads("rate", "t", "p"),
        "subgaussian-linf": _reads("beta", "n"),
    },
    "hierarchy": {
        **{f"--certify --case {case}": _reads("subset", "h", "k", "C0", *growth, eps=None)
           for case, growth in (("sparse-poly", ["p"]), ("sparse-exp", ["r"]), ("weak", []))},
        "without --certify": _reads("subset", "eps", "t"),
    },
}
# each command's flags: every flag some mode of it reads
_COMMAND_FLAGS = {cmd: dict.fromkeys(f for reads in modes.values() for f in reads)
                  for cmd, modes in _READS.items()}


def _cmd_run(args) -> dict:
    cfg = config_from_dict(args.config)
    written = [args.output, args.output + ".json"] if args.output else []
    for path in written:
        folder = os.path.dirname(path) or "."
        code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(folder)
                else errno.EACCES if not os.access(folder, os.W_OK) else 0)
        if code:  # before the run, the error that writing the file would meet; no traceback
            raise ValueError(f"cannot write the report: {OSError(code, os.strerror(code), path)}")
    report = run_experiment(cfg)
    try:
        if args.output:
            report.to_csv(args.output)
            report.to_json_sidecar(written[1])
    except OSError as e:
        raise ValueError(f"cannot write the report: {e}") from None
    failures = report.failures()
    return {
        "experiment": cfg.experiment,
        "rows": report.metadata["rows"],
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
            return {**args.head(args), "h_star": h_star, "curve": curve.tolist()}
        growth = {"r": args.r} if args.case == "sparse-exp" else {"p": args.p}
        graph = build_graph(pot)
        c = _least_c(graph, "exponential" if "r" in growth else "polynomial", *growth.values())
        params = hie.SparseParams(sm.alpha, pot.beta, sm.gamma, c, epsilon=args.eps, **growth)
        curve = hie.certified_entropy_curve("sparse", params, graph, H0, args.h, args.k, u)
        return {**args.head(args), "c": c, "h_star": params.h_star(), "curve": curve.tolist()}
    F = hie.SubsetFunction.size()
    if args.case == "weak":
        gen = hie.WeakGenerator.from_params(pot, sm.alpha, sm.gamma, args.eps)
        value = hie.semigroup_weak(gen, args.t, F, u)
    else:
        gen = hie.SparseGenerator.from_params(
            build_graph(pot), sm.alpha, pot.beta, sm.gamma, args.eps
        )
        value = hie.semigroup_sparse(gen, args.t, F, u)
    return {**args.head(args), "value": value}


def _cmd_validate(args) -> dict:
    try:
        pot = load_potential(args.potential)
    except Exception as e:  # noqa: BLE001 - report, don't crash
        return {"valid": False, "error": f"{type(e).__name__}: {e}"}

    consts, sm = pot.interaction_constants, pot.smoothness
    x = np.random.default_rng(0).standard_normal(pot.n)
    g = pot.gradient(x)
    # finite-difference spot check of the gradient at one point
    steps = [np.where(np.arange(pot.n) == i, 1e-6, 0.0) for i in range(min(pot.n, 4))]
    fd = [(pot.value(x + e) - pot.value(x - e)) / 2e-6 for e in steps]
    checks = {
        "constants-finite": bool(np.all(np.isfinite([consts.M0, consts.M1, consts.R1]))),
        "gradient-finite": bool(np.all(np.isfinite(g))),
        "gradient-matches-value": not any(
            abs(d - gi) > 1e-4 * max(1.0, abs(d)) for d, gi in zip(fd, g)
        ),
    }
    weak = bnd.theorem_constants("weak", {"alpha": sm.alpha, "gamma": sm.gamma, **vars(consts)})
    # beta, the graph and the weak condition are facts of a potential that loads, not checks:
    # one that fails the weak condition may still meet a sparse theorem
    return {
        "valid": all(checks.values()),
        "n": pot.n,
        "terms": len(pot.terms),
        "beta": pot.beta,
        "edges": len(build_graph(pot).edges()),
        "weak_condition": {"holds": weak.valid, "eta": weak.outputs.get("eta")},
        "checks": [{"name": name, "ok": ok} for name, ok in checks.items()],
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
    p_run.add_argument("config", type=partial(_usage, load))
    p_run.add_argument("--output", help="CSV path; its JSON sidecar is <path>.json")
    p_run.set_defaults(func=_cmd_run, head=_run_head)

    # no prefix matching where modes declare flags: --h would be --help, --p --potential
    p_b = sub.add_parser("bounds", help="evaluate theorem constants and bounds", allow_abbrev=False)
    p_b.add_argument("theorem", choices=_READS["bounds"])
    p_b.set_defaults(func=_cmd_bounds, head=lambda a: {"theorem": a.theorem})

    p_h = sub.add_parser(
        "hierarchy", help="semigroup values and certified curves", allow_abbrev=False
    )
    p_h.add_argument("potential")
    p_h.add_argument("--case", choices=["sparse-poly", "sparse-exp", "weak"], default="sparse-poly")
    p_h.add_argument("--certify", action="store_true", help="certified entropy curve instead")
    p_h.set_defaults(func=_cmd_hierarchy, head=_hierarchy_head)
    # with no default, a flag shows only when given: _mode refuses one its mode does not read
    for command, p in (("bounds", p_b), ("hierarchy", p_h)):
        for name in _COMMAND_FLAGS[command]:
            p.add_argument(f"--{name}", **{**_FLAGS[name], "default": argparse.SUPPRESS})

    p_v = sub.add_parser("validate", help="check a potential JSON file")
    p_v.add_argument("potential")
    p_v.set_defaults(func=_cmd_validate, head=lambda a: {})
    return ap


def _mode(args, usage_error) -> argparse.Namespace:
    """args with its mode's defaults; a flag the mode does not read, or continuous-time
    without --potential, is a usage error that names the flag and the mode."""
    mode = (args.theorem if args.command == "bounds" else
            f"--certify --case {args.case}" if args.certify else "without --certify")
    reads = _READS[args.command][mode]
    given = [name for name in _COMMAND_FLAGS[args.command] if name in vars(args)]
    unread = [f"--{name}" for name in given if name not in reads]
    if unread:
        usage_error(f"{args.command} {mode} does not read {', '.join(unread)}")
    if "potential" in reads and "potential" not in vars(args):
        usage_error(f"{args.command} {mode} requires --potential")
    return argparse.Namespace(**{**reads, **vars(args)})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _READS:
        args = _mode(args, parser.error)
    try:
        _emit(payload := args.func(args))
    except ValueError as e:
        _emit(payload := {**args.head(args), "valid": False, "reason": str(e)})
    failed = payload.get("valid") is False or payload.get("failures")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
