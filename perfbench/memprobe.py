"""Peak memory of one fit, measured in a fresh process.

Usage: ``python3 perfbench/memprobe.py <fit_unlabeled|fit_labeled> <seed>``

Builds the workload's first dataset, resets the kernel's peak-RSS mark,
runs one fit and prints the peak resident size above the pre-fit level in
MiB, then the sha256 of the fit's labels (the caller compares it with
its own fit of the same data).  Nothing is traced, so the fit runs at
full speed; a fresh process with the default allocator keeps earlier
fits' allocator state out of the figure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def proc_status() -> dict:
    """This process's resident (``VmRSS``) and peak resident (``VmHWM``) MiB."""
    values = {}
    with open("/proc/self/status") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident size."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    config = {"fit_unlabeled": workloads.FIT_UNLABELED, "fit_labeled": workloads.FIT_LABELED}[
        workload
    ]
    data, _, knowledge, fit_seed = workloads.fit_inputs(config, seed)[0]
    reset_peak_rss()
    before = proc_status()["VmRSS"]
    model = workloads.fit_once(config, data, knowledge, fit_seed)
    peak = proc_status()["VmHWM"] - before
    print(peak, workloads.labels_digest(model.labels_))
    return 0


if __name__ == "__main__":
    sys.exit(main())
