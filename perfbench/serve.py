"""The ``serve_mixed`` workload: the ``repro-server`` daemon under a closed-loop mix.

The daemon runs as a subprocess with its defaults (``workers=0``) on a
model fitted at set-up.  One client (this process) keeps two keep-alive
connections (at most the host's CPU count) busy in a closed loop over a seeded
request sequence: mostly single-point ``/predict``, some 256-point
``/predict`` and a few 64-point ``/partial_update``.  The loop is closed
because an open loop is not steady on a 2-core host.

Every response is checked afterwards against an in-process replay: the
same artifact served by :func:`repro.server.pool.build_serving_index`,
with the ``/partial_update`` sequence folded in generation order, must
give each response's labels at the ``generation`` the response carries.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

import numpy as np

import tracing
from common import (
    MALLOC_PINS, OUT_DIR, ROOT, THREAD_PINS, Result, host_reference, host_scaled, timed_setups,
)

SINGLE, BULK, UPDATE = 0, 1, 2
KIND_NAMES = ("single", "bulk", "update")
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


@dataclass(frozen=True)
class ServeConfig:
    n_train: int = 4000
    n_dimensions: int = 100
    n_clusters: int = 5
    cluster_dim: int = 8
    single_pool: int = 2048
    bulk_pool: int = 16
    bulk_size: int = 256
    update_pool: int = 32
    update_size: int = 64
    #: Keep-alive connections of the one client (at most the host's CPUs).
    connections: int = 2
    #: Request shares: single-point predict, 256-point predict, update.
    mix: tuple = (0.90, 0.08, 0.02)
    warmup_requests: int = 200
    #: Requests of the traced pass (a fixed amount of work).
    trace_requests: int = 3000
    setup_repeats: int = 3
    max_requests: int = 400_000
    ari_floor: float = 0.6


SERVE_MIXED = ServeConfig()


def _wire(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n" % path
    return (head + "Content-Length: %d\r\n\r\n" % len(body)).encode() + body


class Inputs:
    """Training data, request pools, their wire encodings and the sequence."""

    def __init__(self, config: ServeConfig, seed: int) -> None:
        from repro.data.generator import make_projected_clusters
        from repro.semisupervision.sampling import sample_knowledge

        n_updates = config.update_pool * config.update_size
        dataset = make_projected_clusters(
            n_objects=config.n_train + config.single_pool + n_updates,
            n_dimensions=config.n_dimensions,
            n_clusters=config.n_clusters,
            avg_cluster_dimensionality=config.cluster_dim,
            random_state=seed,
        )
        rng = np.random.default_rng([seed, 7])
        order = rng.permutation(dataset.data.shape[0])
        train, query, update = np.split(
            order, [config.n_train, config.n_train + config.single_pool]
        )
        self.train = dataset.data[train]
        self.knowledge = sample_knowledge(
            dataset.labels[train],
            dataset.relevant_dimensions,
            category="both",
            input_size=3,
            coverage=1.0,
            random_state=seed,
        )
        self.query = dataset.data[query]
        self.query_labels = dataset.labels[query]
        self.bulk_rows = [
            rng.choice(config.single_pool, size=config.bulk_size, replace=False)
            for _ in range(config.bulk_pool)
        ]
        self.update_rows = dataset.data[update].reshape(
            config.update_pool, config.update_size, config.n_dimensions
        )
        self.wires = (
            [_wire("/predict", {"point": row.tolist()}) for row in self.query],
            [_wire("/predict", {"points": self.query[rows].tolist()}) for rows in self.bulk_rows],
            [_wire("/partial_update", {"points": rows.tolist()}) for rows in self.update_rows],
        )
        self.kinds = rng.choice(3, size=config.max_requests, p=list(config.mix))
        self.bodies = np.empty(config.max_requests, dtype=np.int64)
        pools = (config.single_pool, config.bulk_pool, config.update_pool)
        for kind, pool in enumerate(pools):
            where = self.kinds == kind
            self.bodies[where] = np.arange(int(where.sum())) % pool

    def points(self, kind: int, body: int) -> np.ndarray:
        if kind == SINGLE:
            return self.query[body : body + 1]
        if kind == BULK:
            return self.query[self.bulk_rows[body]]
        return self.update_rows[body]

    def planted(self, kind: int, body: int) -> np.ndarray:
        if kind == SINGLE:
            return self.query_labels[body : body + 1]
        return self.query_labels[self.bulk_rows[body]]


class Daemon:
    """A ``repro-server`` subprocess bound to an ephemeral port."""

    def __init__(self, artifact: str, workdir: str, trace_out: Optional[str] = None) -> None:
        env = dict(os.environ, **THREAD_PINS, **MALLOC_PINS)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = workdir
        if trace_out is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable, os.path.join(ROOT, "perfbench", "daemon.py"), trace_out]
        command += [artifact, "--port", "0", "--state-dir", os.path.join(workdir, "state")]
        self.log_path = os.path.join(workdir, "daemon.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, env=env, stdout=self._log, stderr=subprocess.STDOUT, cwd=ROOT
        )
        self.host, self.port = self._wait_ready(timeout=60.0)

    def _wait_ready(self, timeout: float):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = re.search(rb"READY host=(\S+) port=(\d+)", handle.read())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path, "rb") as handle:
            raise RuntimeError("daemon did not start:\n" + handle.read().decode(errors="replace"))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Served:
    """One set-up: inputs, fitted model artifact and a running daemon."""

    def __init__(self, config: ServeConfig, seed: int, workdir: str) -> None:
        from repro.core.sspc import SSPC

        self.workdir = workdir
        self.inputs = Inputs(config, seed)
        self.model = SSPC(n_clusters=config.n_clusters, m=0.5, random_state=seed).fit(
            self.inputs.train, self.inputs.knowledge
        )
        self.artifact = os.path.join(workdir, "model")
        self.model.save(self.artifact)
        self.daemon = Daemon(self.artifact, workdir)

    def close(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


async def _drive(host, port, inputs: Inputs, kinds, bodies, connections, seconds=None, count=None):
    """Closed loop: each connection sends its next request when the last returns."""
    records: List[tuple] = []
    cursor = iter(range(len(kinds) if count is None else count))
    began = time.perf_counter()

    async def connection():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for position in cursor:
                if seconds is not None and time.perf_counter() - began >= seconds:
                    return
                kind, body = int(kinds[position]), int(bodies[position])
                start = time.perf_counter()
                try:
                    writer.write(inputs.wires[kind][body])
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(_CONTENT_LENGTH.search(head).group(1))
                    payload = await reader.readexactly(length)
                except (OSError, asyncio.IncompleteReadError, AttributeError) as exc:
                    records.append((kind, body, 0, repr(exc).encode(), time.perf_counter() - start))
                    return
                records.append((kind, body, int(head[9:12]), payload, time.perf_counter() - start))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(connection() for _ in range(connections)))
    return records, time.perf_counter() - began


def drive(host, port, inputs, kinds, bodies, connections, **limits):
    return asyncio.run(_drive(host, port, inputs, kinds, bodies, connections, **limits))


def fetch_metrics(host: str, port: int) -> dict:
    async def get():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        body = await reader.readexactly(int(_CONTENT_LENGTH.search(head).group(1)))
        writer.close()
        await writer.wait_closed()
        return json.loads(body)

    return asyncio.run(get())


def verify(result: Result, records, artifact: str, inputs: Inputs) -> List[tuple]:
    """Check every response against the in-process replay.

    Returns ``(kind, body, served labels)`` of the predict responses.
    """
    from repro.server.pool import build_serving_index

    predicts: Dict[int, list] = defaultdict(list)
    updates: Dict[int, tuple] = {}
    served = []
    for kind, body, status, payload, _ in records:
        if not result.check(status == 200, "%s request failed: status %d %s"
                            % (KIND_NAMES[kind], status, payload[:200])):
            continue
        message = json.loads(payload)
        generation = int(message["generation"])
        if kind == UPDATE:
            if generation in updates:
                result.fail("two updates answered with generation %d" % generation)
            updates[generation] = (body, message["applied_labels"])
        else:
            labels = [message["label"]] if kind == SINGLE else message["labels"]
            predicts[generation].append((kind, body, labels))
            served.append((kind, body, labels))
    last = max(updates, default=0)
    for missing in sorted(set(range(1, last + 1)) - set(updates)):
        result.fail("no update answered with generation %d" % missing)

    index = build_serving_index(artifact)
    for generation in range(last + 1):
        pending = predicts.pop(generation, [])
        if pending:
            rows = np.concatenate([inputs.points(kind, body) for kind, body, _ in pending])
            expected = index.predict(rows).tolist()
            offset = 0
            for kind, body, labels in pending:
                if labels != expected[offset : offset + len(labels)]:
                    result.fail(
                        "%s predict #%d at generation %d: served %s, replay %s"
                        % (KIND_NAMES[kind], body, generation, labels[:8],
                           expected[offset : offset + min(8, len(labels))])
                    )
                offset += len(labels)
        if generation + 1 in updates:
            body, applied = updates[generation + 1]
            replayed = index.partial_update(inputs.update_rows[body]).tolist()
            if applied != replayed:
                result.fail("update #%d (generation %d): applied %s, replay %s"
                            % (body, generation + 1, applied[:8], replayed[:8]))
    for generation, pending in predicts.items():
        for kind, body, _ in pending:
            result.fail("%s predict #%d stamped with unknown generation %d"
                        % (KIND_NAMES[kind], body, generation))
    return served


def run_serve(workload: str, config: ServeConfig, seed: int, seconds: float, trace: bool) -> Result:
    from repro.evaluation import adjusted_rand_index

    result = Result(workload)
    connections = min(config.connections, os.cpu_count() or 1)
    run_dir = os.path.join(OUT_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    setups = itertools.count()

    def setup():
        return Served(config, seed, os.path.join(run_dir, "setup-%d" % next(setups)))

    served, setup_seconds = timed_setups(setup, config.setup_repeats, close=Served.close)
    try:
        inputs, daemon = served.inputs, served.daemon
        warm_kinds = np.where(inputs.kinds[: config.warmup_requests] == UPDATE, SINGLE,
                              inputs.kinds[: config.warmup_requests])
        warmup, _ = drive(daemon.host, daemon.port, inputs, warm_kinds, inputs.bodies,
                          connections, count=config.warmup_requests)
        reference = [host_reference() for _ in range(10)]
        records, elapsed = drive(daemon.host, daemon.port, inputs, inputs.kinds,
                                 inputs.bodies, connections, seconds=seconds)
        reference += [host_reference() for _ in range(10)]
    finally:
        served.daemon.stop()
    served_labels = verify(result, warmup + records, served.artifact, inputs)

    latencies: Dict[int, List[float]] = defaultdict(list)
    for kind, _, status, _, latency in records:
        if status == 200:
            latencies[kind].append(latency)
    truth = np.concatenate([inputs.planted(kind, body) for kind, body, _ in served_labels])
    predicted = np.concatenate([labels for _, _, labels in served_labels])
    ari = adjusted_rand_index(truth, predicted)
    if not ari >= config.ari_floor:
        result.fail("served ARI %.4f is below the floor %.2f" % (ari, config.ari_floor))
    rps = len(records) / elapsed
    single = latencies[SINGLE]
    result.report.update(
        setup_s=(median(setup_seconds), "s", len(setup_seconds)),
        serve_rps=(rps, "req/s", len(records)),
        predict_p50_ms=(median(single) * 1e3, "ms", len(single)),
        predict_p99_ms=(float(np.percentile(single, 99)) * 1e3, "ms", len(single)),
        ari=(ari, "ratio", len(predicted)),
        host_ref_ms=(median(reference) * 1e3, "ms", len(reference)),
    )
    result.samples["host_ref_s"] = reference
    for kind, name in ((BULK, "bulk_p50_ms"), (UPDATE, "update_p50_ms")):
        if latencies[kind]:
            result.report[name] = (median(latencies[kind]) * 1e3, "ms", len(latencies[kind]))
    result.end_to_end.update(
        setup_s=(median(setup_seconds), "s"),
        throughput_per_s=(host_scaled(rps, reference), "1/s"),
    )
    if trace:
        _traced_pass(result, config, served, connections, rps, seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _traced_pass(result, config, served, connections, untraced_rps, seed) -> None:
    """Fixed work under the wrappers: artifact save, daemon start, requests."""
    workdir = os.path.join(served.workdir, "traced")
    os.makedirs(workdir)
    tracer, artifact = tracing.traced(
        "serve_mixed-%d" % seed, lambda: str(served.model.save(os.path.join(workdir, "model")))
    )
    daemon_trace = os.path.join(workdir, "daemon-trace.json")
    daemon = Daemon(artifact, workdir, trace_out=daemon_trace)
    try:
        inputs = served.inputs
        records, elapsed = drive(daemon.host, daemon.port, inputs, inputs.kinds,
                                 inputs.bodies, connections, count=config.trace_requests)
        metrics = fetch_metrics(daemon.host, daemon.port)
    finally:
        daemon.stop()
    with open(daemon_trace) as handle:
        tracer.merge(json.load(handle))
    verify(result, records, artifact, inputs)
    batcher = metrics["batcher"]
    predict_latency = metrics["telemetry"]["latency_seconds"]["predict"]["2xx"]
    extra = {
        "trace_overhead_pct": (untraced_rps / (len(records) / elapsed) - 1.0) * 100.0,
        "batcher.batch_size_p50": batcher.get("p50_batch_size", 0.0),
        "batcher.queue_wait_p50_ms": batcher.get("p50_queue_wait_us", 0.0) / 1e3,
        "batcher.flushes": batcher["n_flushes"],
        "server.predict_p50_ms": predict_latency["p50"] * 1e3,
    }
    tracing.record(result, tracer, extra)
