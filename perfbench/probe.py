"""Fresh-process set-up probe.

    python3 perfbench/probe.py <workload> <seed> <size>

Times ``import deloc`` from the checkout's ``src`` tree and the generation of
the workload's raw inputs, each at the reference speed of speed.py and on
the wall clock, and prints them as one JSON line.  run.py starts it several
times per run and reports the median.
"""

import json
import sys
from pathlib import Path

from speed import Speedometer


def main(argv: list[str]) -> int:
    workload, seed, size = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with Speedometer() as imp:
        import deloc  # noqa: F401
    import workloads

    with Speedometer() as gen:
        workloads.WORKLOADS[workload].make_inputs(int(seed), workloads.SIZES[size])
    print(json.dumps({
        "import_s": imp.reference_seconds,
        "inputs_s": gen.reference_seconds,
        "import_wall_s": imp.seconds,
        "inputs_wall_s": gen.seconds,
        "speed": imp.speed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
