"""Time one set-up in a fresh process and print the seconds it took.

Set-up is what every `sgkink run` pays before integrating: importing sgkink
and building and validating the workload's config and initial data.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name]
    wl.build(wl.config(wl.params(seed)))
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
