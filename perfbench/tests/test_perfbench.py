"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

A smoke run at tiny sizes checks the output contract of every workload in
both modes, and a deliberately wrong reference checks that the output
checks can fail.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    res = _smoke(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_call_counts_repeat_between_runs():
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
        for res in (_smoke("sampler-chains", 1, seed=5) for _ in range(2))
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sampler.chain_steps"] > 0 and counts[0]["potential.gradient_calls"] > 0


def test_speedometer_samples_a_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(meter.ratios) >= 2 and meter.speed > 0
    assert 0 < meter.seconds < meter.elapsed_s
    assert meter.reference_seconds == pytest.approx(meter.seconds * meter.speed)


def test_speedometer_samples_a_block_too_short_to_be_sampled():
    with speed.Speedometer() as meter:
        pass
    assert meter.speed > 0 and len(meter.ratios) > 0


def _skewed(ref):
    """The reference with every number scaled by 1.5."""
    if isinstance(ref, dict):
        return {k: _skewed(v) for k, v in ref.items()}
    if isinstance(ref, (list, tuple)):
        return type(ref)(_skewed(v) for v in ref)
    if isinstance(ref, (np.ndarray, float, int)) and not isinstance(ref, bool):
        return ref * 1.5
    return ref


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_reference_fails_checks(workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(7, workloads.SIZES["tiny"])
    ref = wl.reference(inputs)
    _, outs = bench.run_pass(wl, inputs)
    assert all(ok for _, ok in bench.check_pass(wl, inputs, ref, outs))
    assert not all(ok for _, ok in bench.check_pass(wl, inputs, _skewed(ref), outs))


def test_wrong_reference_reaches_the_result(monkeypatch):
    wl = workloads.WORKLOADS["transport-linf"]
    skewed = workloads.Workload(
        wl.name, wl.make_inputs, lambda inp: _skewed(wl.reference(inp)), wl.parts
    )
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, skewed)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    detail = bench.run(wl.name, 7, 0.1, False, "tiny")
    res = detail["result"]
    assert not res["correct"] and res["failed"] > 0
    assert detail["failed_frac"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
