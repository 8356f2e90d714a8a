"""Helpers shared by the workloads: results, set-up timing, pins and host facts."""

from __future__ import annotations

import ctypes
import os
import platform
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Tuple

#: Repository root (the checkout the benchmark runs in).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything a run writes goes under this directory of the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Single-threaded BLAS/OpenMP in the benchmark and in every process it starts.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: glibc allocator settings for the measured processes (the benchmark and
#: the daemon): freed memory stays in the heap for reuse instead of going
#: back to the kernel.  Without them every fit page-faults its temporaries
#: afresh, and on a shared VM the kernel's fault cost varied between runs
#: by 0.1-0.9 s of a 5 s fit; with them only a process's first fit grows
#: the heap.  The memory probe keeps the default allocator.
MALLOC_PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(512 << 20),
    "MALLOC_TOP_PAD_": str(64 << 20),
}
_MALLOPT = {"MALLOC_TRIM_THRESHOLD_": -1, "MALLOC_TOP_PAD_": -2, "MALLOC_MMAP_THRESHOLD_": -3}
#: Median seconds of :func:`host_reference` on the 2-vCPU VM the benchmark
#: was tuned on.  Gated throughputs are scaled to a host that runs the
#: reference in this time (:func:`host_scaled`).
REFERENCE_S = 0.022


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    #: name -> (value, unit, samples): every end-to-end figure the run prints.
    report: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: The BENCHMARK.json end-to-end metrics: name -> (value, unit).
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: The BENCHMARK.json per-layer metrics (traced runs only).
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Raw samples behind the report (per dataset or per stream).
    samples: Dict[str, list] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The traced pass's :class:`tracing.Tracer` (traced runs only).
    trace: object = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok

    def fail(self, message: str) -> None:
        """A failed check on an operation already counted as attempted."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def host_reference() -> float:
    """Seconds of one fixed numpy workload that belongs to the benchmark.

    It has the program's kind of work (random draws, column sorts,
    histograms, a matrix product) but none of its code, so it reads the
    host's current speed and no change to the program moves it.
    """
    import numpy as np

    start = time.perf_counter()
    data = np.random.default_rng(0).standard_normal((4000, 64))
    edges = np.linspace(-3.0, 3.0, 20)
    for column in np.sort(data, axis=0).T:
        np.bincount(np.searchsorted(edges, column), minlength=21)
    (data[:400] @ data.T).argmax(axis=1)
    return time.perf_counter() - start


def host_scaled(rate: float, reference: List[float]) -> float:
    """``rate`` scaled to a host that runs :func:`host_reference` in :data:`REFERENCE_S`.

    The shared 2-vCPU VMs this benchmark was tuned on change speed by up
    to 1.8x from minute to minute with no change in the code, and the
    program's figures move with them.  The reference, timed between the
    run's operations, moves the same way: over 20 s blocks of repeated
    labeled fits, the median fit time spread (IQR/median) 0.09 and its
    ratio to the median reference time 0.02.
    """
    return rate * median(reference) / REFERENCE_S


def timed_setups(
    setup: Callable[[], object], repeats: int, close=None
) -> Tuple[object, List[float]]:
    """Run ``setup`` ``repeats`` times; keep the last product, close the rest."""
    product, seconds = None, []
    for _ in range(repeats):
        if product is not None and close is not None:
            close(product)
        product = None  # free the previous set-up's inputs before the next
        start = time.perf_counter()
        product = setup()
        seconds.append(time.perf_counter() - start)
    return product, seconds


def pin_allocator() -> None:
    """Apply :data:`MALLOC_PINS` to this running process (``mallopt``)."""
    libc = ctypes.CDLL("libc.so.6")
    for name, value in MALLOC_PINS.items():
        if not libc.mallopt(_MALLOPT[name], int(value)):
            raise RuntimeError("mallopt rejected %s=%s" % (name, value))


def host_fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pins": {**THREAD_PINS, **MALLOC_PINS},
    }
