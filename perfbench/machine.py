"""Facts about the machine and the software stack, stored with every result."""

from __future__ import annotations

import os
import platform
from time import perf_counter, process_time

# Thread settings the runner pins to 1 before numpy loads, so that one
# workload run uses one core and nothing competes with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SGKINK_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


# The reference kernel's wall time on a host of nominal speed: setup_s is
# reported in seconds at this speed.  A fixed value, so that results of
# different runs and commits compare.
REF_NOMINAL_S = 0.2


def reference_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of work, about 0.2 s here.

    It mixes numpy FFTs on a 4096-point array with a pure-Python loop, as
    the workloads mix numpy calls with Python-level loops.  Timed next to
    each workload iteration, it measures how fast the shared host runs at
    that moment.
    """
    import numpy

    x = numpy.linspace(0.0, 1.0, 4096)
    t0, c0 = perf_counter(), process_time()
    for _ in range(1500):
        numpy.fft.ifft(numpy.fft.fft(x))
    total = 0
    for i in range(250000):
        total += i * i
    return perf_counter() - t0, process_time() - c0


def pin_to_one_cpu() -> int:
    """Keep this process, and the set-up probes it starts, on one CPU.

    The host's CPUs drift in speed each in its own way, so the reference
    kernel cancels the drift only if it runs on the CPU the iteration ran on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
    }
