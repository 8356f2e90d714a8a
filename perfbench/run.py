"""The repository benchmark: fit, serve and stream workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_unlabeled --seed 1 --seconds 15 --trace 0

Workloads: ``fit_unlabeled``, ``fit_labeled``, ``serve_mixed``,
``stream_drift`` (see ``perfbench/LAYERS.md`` for why each exists and
which layers it stresses or bypasses).  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` runs the same
measurement, then a fixed traced pass that attributes time to layers.

The report lines name every metric with its unit and sample count; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or the
per-layer metrics with ``--trace 1``).  The full record, the host
fingerprint and, when traced, a Chrome trace and the per-layer table
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import OUT_DIR, ROOT, THREAD_PINS, host_fingerprint, pin_allocator  # noqa: E402

# BLAS/OpenMP thread pools are sized when numpy loads, so pin them first.
os.environ.update(THREAD_PINS)

WORKLOADS = ("fit_unlabeled", "fit_labeled", "serve_mixed", "stream_drift")


def import_program() -> None:
    """Import the checkout's ``repro`` package, or exit without a result."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit("perfbench: no program to measure: %s/repro is missing" % source)
    sys.path.insert(0, source)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != source:
        sys.exit("perfbench: imported repro from %s, not the checkout" % repro.__file__)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import serve
    import workloads

    if name == "fit_unlabeled":
        return workloads.run_fit(name, workloads.FIT_UNLABELED, seed, seconds, trace)
    if name == "fit_labeled":
        return workloads.run_fit(name, workloads.FIT_LABELED, seed, seconds, trace)
    if name == "serve_mixed":
        return serve.run_serve(name, serve.SERVE_MIXED, seed, seconds, trace)
    return workloads.run_stream(name, workloads.STREAM_DRIFT, seed, seconds, trace)


def write_outputs(result, args, fingerprint) -> str:
    import tracing

    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "report": {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result.report.items()
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in result.end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in result.per_layer.items()},
        "samples": result.samples,
        "layers": result.layers,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if result.trace is not None:
        with open(stem + ".trace.json", "w") as handle:
            json.dump(tracing.chrome_trace(result.trace), handle)
    return stem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    pin_allocator()
    os.makedirs(OUT_DIR, exist_ok=True)
    fingerprint = host_fingerprint()
    # The benchmark, the processes it starts and the host reference share
    # one CPU: the vCPUs of a shared VM change speed independently, and the
    # reference (common.host_scaled) can only read the one it runs on.
    fingerprint["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {fingerprint["pinned_cpu"]})
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = write_outputs(result, args, fingerprint)

    print("host %s" % json.dumps(fingerprint, sort_keys=True))
    error_rate = (result.failed / result.attempted, "ratio", result.attempted)
    report = dict(result.report, error_rate=error_rate)
    for name, (value, unit, samples) in sorted(report.items()):
        print("metric %-22s %14.6g %-6s samples=%d" % (name, value, unit, samples))
    print("operations attempted=%d failed=%d" % (result.attempted, result.failed))
    for failure in result.failures:
        print("FAILED %s" % failure)
    if args.trace:
        print("%-24s %12s %12s %8s" % ("layer", "total_s", "self_s", "calls"))
        for name, row in sorted(result.layers.items(), key=lambda item: -item[1]["total_s"]):
            print("%-24s %12.6f %12.6f %8d" % (name, row["total_s"], row["self_s"], row["calls"]))
    print("records %s.json" % os.path.relpath(stem, ROOT))

    metrics = result.per_layer if args.trace else result.end_to_end
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
