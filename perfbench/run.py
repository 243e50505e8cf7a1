"""deloc benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: deloc is imported from the checkout's
``src`` tree, and results go to ``.bench_out/``.  Without ``src/deloc`` the
run exits with status 2 and prints no result.

Load model: closed loop, one caller making sequential calls into deloc's
public API, BLAS pinned to one thread (at most nproc).  The program sees
only inputs generated from --seed.  A pass runs every part of the workload
once; passes repeat until --seconds is spent, and every pass's outputs are
checked against references computed before timing starts.

The last line of stdout is one JSON object.  With --trace 0 its metrics are
the end-to-end ones: wall_s (median pass time), setup_s (median over fresh
processes of ``import deloc`` plus raw-input generation) and peak_rss_mb.
Both times are at a fixed reference processor speed: a speedometer samples
the processor while the code runs and scales its time (speed.py), because
the shared host's speed changes by up to 2x from minute to minute.  The
wall-clock times and the sampled speeds are printed and saved as well.
With --trace 1 traced and untraced passes alternate; the metrics are the
per-layer ones from spans around deloc's public functions, on the wall
clock, plus the tracing overhead (median traced pass minus median untraced
pass, both on the wall clock).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
    }


def setup_probes(workload: str, seed: int, size: str) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), size],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run_pass(wl, inputs: dict, rec=None) -> tuple[dict, dict]:
    """Run every part once; returns each part's seconds and output.  A part
    that raises yields its exception as its output."""
    secs, outs = {}, {}
    for part in wl.parts:
        t0 = time.perf_counter()
        with rec.span("part", part=part.name) if rec else nullcontext():
            try:
                outs[part.name] = part.run(inputs)
            except Exception as exc:  # counted as a failed check
                outs[part.name] = exc
        secs[part.name] = time.perf_counter() - t0
    return secs, outs


def check_pass(wl, inputs: dict, ref: dict, outs: dict) -> list[tuple[str, bool]]:
    checks = []
    for part in wl.parts:
        out = outs[part.name]
        if isinstance(out, Exception):
            msg = "".join(traceback.format_exception_only(out)).strip()
            checks.append((f"{part.name} raised {msg}", False))
            continue
        try:
            checks.extend(part.check(out, inputs, ref))
        except Exception as exc:
            checks.append((f"{part.name} check raised {exc!r}", False))
    return checks


def run(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
    out_dir: Path | None = None,
) -> dict:
    """One benchmark run in this process; returns the result object."""
    import deloc
    import spans
    import speed
    import workloads

    if not Path(deloc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported deloc from {deloc.__file__}, not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[workload]
    env = environment(workload, seed)
    probes = setup_probes(workload, seed, size)

    inputs = wl.make_inputs(seed, workloads.SIZES[size])
    ref = wl.reference(inputs)

    rec = spans.Recorder() if trace else None
    passes = {False: [], True: []}
    per_pass, traced_spans, checks = [], [], []
    deadline = time.perf_counter() + seconds
    cycles = []
    while True:
        c0 = time.perf_counter()
        traced = trace and len(cycles) % 2 == 1  # untraced, traced, untraced, ...
        gc.collect()
        if traced:
            # spans time deloc on the wall clock, without a speedometer
            rec.reset()
            rec.install()
            try:
                part_s, outs = run_pass(wl, inputs, rec)
            finally:
                rec.uninstall()
            passes[True].append({"wall_s": sum(part_s.values())})
            per_pass.append(spans.pass_metrics(rec.spans))
            traced_spans.append([vars(s) for s in rec.spans])
        else:
            with speed.Speedometer() as meter:
                part_s, outs = run_pass(wl, inputs)
            passes[False].append({
                "part_s": part_s,
                "wall_s": meter.seconds,
                "speed": meter.speed,
                "ref_s": meter.reference_seconds,
            })
        checks.extend(check_pass(wl, inputs, ref, outs))
        del outs
        cycles.append(time.perf_counter() - c0)
        enough = len(cycles) >= (2 if trace else 1)
        if enough and time.perf_counter() + statistics.median(cycles) > deadline:
            break

    failed = [label for label, ok in checks if not ok]
    setup = [p["import_s"] + p["inputs_s"] for p in probes]
    if trace:
        metrics = spans.median_metrics(per_pass)
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        metrics["trace.wall_s"] = median_of(passes[True], "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_of(passes[False], "wall_s")
        units = spans.LAYER_METRICS
    else:
        metrics = {
            "wall_s": median_of(passes[False], "ref_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    detail = {
        "environment": env,
        "untraced_pass_s": [p["ref_s"] for p in passes[False]],
        "untraced_wall_pass_s": [p["wall_s"] for p in passes[False]],
        "untraced_speed": [p["speed"] for p in passes[False]],
        "traced_pass_s": [p["wall_s"] for p in passes[True]],
        "untraced_part_s": [p["part_s"] for p in passes[False]],
        "setup_probes": probes,
        "failed_checks": sorted(set(failed)),
        "failed_frac": len(failed) / len(checks) if checks else 1.0,
        "result": result,
    }
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
        if trace:
            (out_dir / f"{stem}-spans.json").write_text(json.dumps(traced_spans))
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "deloc" / "__init__.py").is_file():
        print(f"error: no deloc source tree at {ROOT / 'src' / 'deloc'}", file=sys.stderr)
        return 2
    # before numpy is first imported, so that BLAS starts with this many threads
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, ROOT / ".bench_out")
    print("environment: " + json.dumps(detail["environment"]))
    for key in ("untraced_pass_s", "untraced_wall_pass_s", "untraced_speed", "traced_pass_s"):
        xs = detail[key]
        if xs:
            q1, med, q3 = _quartiles(xs)
            print(f"{key}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(xs)}")
    for label in detail["failed_checks"]:
        print(f"FAILED CHECK: {label}")
    res = detail["result"]
    print(f"checks: {res['attempted']} attempted, {res['failed']} failed, "
          f"failed_frac {detail['failed_frac']:.4g}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
