"""The fit and stream workloads (the serving workload is in ``serve.py``).

Every workload takes the run's seed and derives all of its inputs from
it; the program under test receives only the generated inputs.  Each
returns a :class:`common.Result` holding the printed end-to-end metrics
(``report``), the BENCHMARK.json end-to-end metrics, and with tracing
the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import List, Optional

import numpy as np

import tracing
from common import ROOT, THREAD_PINS, Result, host_reference, host_scaled, timed_setups


# ---------------------------------------------------------------------- #
# fit_unlabeled / fit_labeled
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FitConfig:
    n_objects: int
    labeled: bool
    n_dimensions: int = 100
    n_clusters: int = 5
    cluster_dim: int = 8
    #: Independent datasets per run.  A fit's cost depends on its data
    #: (seed-group sizes set the max-min anchor's work: the fit times of
    #: twelve unlabeled datasets spread with a CV of 0.12), so the run's
    #: figures are read over datasets rather than one draw.
    n_datasets: int = 6
    #: The run's mean ARI over its datasets must reach this.  It is a mean
    #: because single unsupervised datasets legitimately land lower (one
    #: reached 0.53 on the seed code while its run's mean was 0.82).
    ari_floor: float = 0.6


# Sizes keep one fit near a second, so a run's median is taken over a dozen
# or more fits (4000 and 16000 objects took 4.4 s and 1.5 s per fit).  At
# n=2000 the seed-group build is still 95% of an unlabeled fit; at n=8000
# the iteration loop is 12-26% of a labeled fit.
FIT_UNLABELED = FitConfig(n_objects=2000, labeled=False)
FIT_LABELED = FitConfig(n_objects=8000, labeled=True)


def fit_inputs(config: FitConfig, seed: int):
    """``(data, planted labels, knowledge or None, fit seed)`` per dataset."""
    from repro.data.generator import make_projected_clusters
    from repro.semisupervision.sampling import sample_knowledge

    datasets = []
    for position in range(config.n_datasets):
        dataset_seed = seed * config.n_datasets + position
        dataset = make_projected_clusters(
            n_objects=config.n_objects,
            n_dimensions=config.n_dimensions,
            n_clusters=config.n_clusters,
            avg_cluster_dimensionality=config.cluster_dim,
            random_state=dataset_seed,
        )
        knowledge = None
        if config.labeled:
            knowledge = sample_knowledge(
                dataset.labels,
                dataset.relevant_dimensions,
                category="both",
                input_size=3,
                coverage=1.0,
                random_state=dataset_seed,
            )
        datasets.append((dataset.data, dataset.labels, knowledge, dataset_seed))
    return datasets


def fit_once(config: FitConfig, data, knowledge, fit_seed: int):
    from repro.core.sspc import SSPC

    return SSPC(n_clusters=config.n_clusters, m=0.5, random_state=fit_seed).fit(data, knowledge)


def labels_digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def memory_probe(workload: str, seed: int):
    """``(peak MiB, labels digest)`` of dataset 0's fit in a fresh process."""
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "memprobe.py"), workload, str(seed)],
        env=dict(os.environ, **THREAD_PINS),
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    peak, digest = completed.stdout.split()[-2:]
    return float(peak), digest


def run_fit(
    workload: str,
    config: FitConfig,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    measure_memory: bool = True,
) -> Result:
    from repro.evaluation import adjusted_rand_index

    result = Result(workload)
    setup_seconds: List[float] = []

    def set_up():
        start = time.perf_counter()
        datasets = fit_inputs(config, seed)
        setup_seconds.append(time.perf_counter() - start)
        return datasets

    datasets = set_up()
    digests: List[Optional[str]] = [None] * len(datasets)
    fit_seconds: List[List[float]] = [[] for _ in datasets]
    aris: List[float] = []

    def checked_fit(position: int) -> float:
        data, planted, knowledge, fit_seed = datasets[position]
        start = time.perf_counter()
        model = fit_once(config, data, knowledge, fit_seed)
        elapsed = time.perf_counter() - start
        digest = labels_digest(model.labels_)
        result.attempted += 1
        if digests[position] is None:
            digests[position] = digest
            aris.append(adjusted_rand_index(planted, model.labels_))
        elif digest != digests[position]:
            result.fail("dataset %d: fit labels differ from its first fit" % position)
        return elapsed

    reference = [host_reference() for _ in range(5)]
    began = time.perf_counter()
    count = 0
    while count < len(datasets) or time.perf_counter() - began < seconds:
        position = count % len(datasets)
        fit_seconds[position].append(checked_fit(position))
        count += 1
        # The set-up takes milliseconds; re-timing it between fits spreads
        # its samples over the run instead of one burst at the start.
        set_up()
        reference.append(host_reference())
    reference += [host_reference() for _ in range(5)]
    if measure_memory and not trace:
        peak, digest = memory_probe(workload, seed)
        result.report["fit_peak_mib"] = (peak, "MiB", 1)
        result.attempted += 1
        if digest != digests[0]:
            result.fail("dataset 0: a fresh process's fit gives different labels")

    if not np.mean(aris) >= config.ari_floor:
        result.fail("mean fit ARI %.4f (per dataset %s) is below the floor %.2f"
                    % (np.mean(aris), np.round(aris, 4).tolist(), config.ari_floor))
    result.samples["fit_s_per_dataset"] = fit_seconds
    result.samples["ari_per_dataset"] = aris
    every_fit = [elapsed for times in fit_seconds for elapsed in times]
    fit_s = median(every_fit)
    result.report.update(
        setup_s=(median(setup_seconds), "s", len(setup_seconds)),
        fit_s=(fit_s, "s", count),
        ari=(float(np.mean(aris)), "ratio", len(aris)),
        host_ref_ms=(median(reference) * 1e3, "ms", len(reference)),
    )
    result.samples["host_ref_s"] = reference
    result.end_to_end.update(
        setup_s=(median(setup_seconds), "s"),
        throughput_per_s=(host_scaled(config.n_objects / fit_s, reference), "1/s"),
    )

    if trace:
        tracer, traced_seconds = tracing.traced(
            "%s-%d" % (workload, seed), lambda: checked_fit(0)
        )
        overhead = (traced_seconds / median(fit_seconds[0]) - 1.0) * 100.0
        tracing.record(result, tracer, {"trace_overhead_pct": overhead})
    return result


# ---------------------------------------------------------------------- #
# stream_drift
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamConfig:
    n_dimensions: int = 100
    n_clusters: int = 5
    cluster_dim: int = 8
    warmup_points: int = 1000
    batch_size: int = 256
    n_batches: int = 300
    drift_batch: int = 100
    #: Independent streams per run, so one drift realisation does not set
    #: the run's figures.
    n_streams: int = 3
    ari_floor: float = 0.6
    setup_repeats: int = 3


STREAM_DRIFT = StreamConfig()


def stream_inputs(config: StreamConfig, seed: int):
    """Per stream: (warm-up artifact, batches, planted batch labels)."""
    from repro.core.sspc import SSPC
    from repro.data.streams import DriftingStreamGenerator, make_drift_schedule

    streams = []
    for position in range(config.n_streams):
        stream_seed = seed * config.n_streams + position
        generator = DriftingStreamGenerator(
            n_dimensions=config.n_dimensions,
            n_clusters=config.n_clusters,
            avg_cluster_dimensionality=config.cluster_dim,
            events=make_drift_schedule("mixed", drift_batch=config.drift_batch),
            random_state=stream_seed,
        )
        warmup = generator.warmup(config.warmup_points)
        model = SSPC(n_clusters=config.n_clusters, m=0.5, random_state=stream_seed).fit(
            warmup.data
        )
        batches = list(generator.batches(config.n_batches, config.batch_size))
        streams.append(
            (model.to_artifact(), [b.data for b in batches], [b.labels for b in batches])
        )
    return streams


def stream_pass(artifact, batches):
    """One pass of a fresh engine over ``batches``: (latencies, labels, engine)."""
    from repro.stream.engine import StreamingSSPC

    engine = StreamingSSPC(artifact)
    latencies: List[float] = []
    labels = []
    for batch in batches:
        start = time.perf_counter()
        outcome = engine.process_batch(batch)
        latencies.append(time.perf_counter() - start)
        labels.append(outcome.labels)
    return latencies, labels, engine


def mean_batch_ari(planted, labels) -> float:
    from repro.evaluation import adjusted_rand_index

    scores = []
    for truth, predicted in zip(planted, labels):
        clustered = truth >= 0
        if np.any(clustered):
            scores.append(adjusted_rand_index(truth[clustered], predicted[clustered]))
    return float(np.mean(scores))


def run_stream(
    workload: str, config: StreamConfig, seed: int, seconds: float, trace: bool
) -> Result:
    result = Result(workload)
    streams, setup_seconds = timed_setups(lambda: stream_inputs(config, seed), config.setup_repeats)

    per_stream = [[] for _ in streams]  # latencies of every pass, per stream
    digests: List[Optional[str]] = [None] * len(streams)
    aris: List[float] = []
    reference = [host_reference() for _ in range(5)]
    began = time.perf_counter()
    position = 0
    while position < len(streams) or time.perf_counter() - began < seconds:
        index = position % len(streams)
        artifact, batches, planted = streams[index]
        latencies, labels, _ = stream_pass(artifact, batches)
        per_stream[index].append(latencies)
        digest = labels_digest(np.concatenate(labels))
        result.attempted += len(batches)
        if digests[index] is None:
            digests[index] = digest
            aris.append(mean_batch_ari(planted, labels))
        elif digest != digests[index]:
            result.fail("stream %d labels differ between passes" % index)
        position += 1
        reference += [host_reference() for _ in range(2)]
    reference += [host_reference() for _ in range(5)]

    if not np.mean(aris) >= config.ari_floor:
        result.fail("mean batch ARI %.4f (per stream %s) is below the floor %.2f"
                    % (np.mean(aris), np.round(aris, 4).tolist(), config.ari_floor))
    points = config.n_batches * config.batch_size
    p50s, p90s, rates = [], [], []
    for passes in per_stream:
        flat = [latency for latencies in passes for latency in latencies]
        p50s.append(median(flat))
        p90s.append(float(np.percentile(flat, 90)))
        rates.append(points * len(passes) / sum(flat))
    pass_seconds = [[sum(latencies) for latencies in passes] for passes in per_stream]
    result.samples["pass_s_per_stream"] = pass_seconds
    result.samples["ari_per_stream"] = aris
    n_batches = sum(len(latencies) for passes in per_stream for latencies in passes)
    result.report.update(
        setup_s=(median(setup_seconds), "s", len(setup_seconds)),
        stream_pts_per_s=(float(np.mean(rates)), "pts/s", n_batches),
        stream_batch_p50_ms=(float(np.mean(p50s)) * 1e3, "ms", n_batches),
        stream_batch_p90_ms=(float(np.mean(p90s)) * 1e3, "ms", n_batches),
        ari=(float(np.mean(aris)), "ratio", len(aris)),
        host_ref_ms=(median(reference) * 1e3, "ms", len(reference)),
    )
    result.samples["host_ref_s"] = reference
    pass_s = median(seconds_ for passes in pass_seconds for seconds_ in passes)
    result.end_to_end.update(
        setup_s=(median(setup_seconds), "s"),
        throughput_per_s=(host_scaled(points / pass_s, reference), "1/s"),
    )

    if trace:
        artifact, batches, _ = streams[0]
        tracer, (latencies, labels, engine) = tracing.traced(
            "%s-%d" % (workload, seed), lambda: stream_pass(artifact, batches)
        )
        result.check(
            labels_digest(np.concatenate(labels)) == digests[0],
            "traced stream labels differ from the untraced pass",
        )
        untraced = median(pass_seconds[0])
        extra = {
            "trace_overhead_pct": (sum(latencies) / untraced - 1.0) * 100.0,
            "stream.spawns": engine.n_spawned,
            "stream.retires": engine.n_retired,
            "stream.drift_refreshes": engine.n_drift_refreshes,
        }
        tracing.record(result, tracer, extra)
    return result

