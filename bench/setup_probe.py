"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up runs from the first import through `build_systems` to the first
oracle reply; for an external workload that includes spawning the STEP
server.  bench.py runs this script several times and reports the median.

    python3 bench/setup_probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from symabs.pipeline import build_systems  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    bundle = build_systems(workloads.WORKLOADS[name].config(seed))
    try:
        sig = bundle.subsystems[0].signature
        bundle.subsystems[0].step(sig.state_box.mean(axis=1), sig.input(0),
                                  sig.disturbance_box.mean(axis=1))
        elapsed = time.perf_counter() - _T0
    finally:
        if bundle.cleanup is not None:
            bundle.cleanup.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
