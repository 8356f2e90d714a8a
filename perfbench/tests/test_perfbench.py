"""The benchmark's own tests: span arithmetic and one tiny pass per workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import Result  # noqa: E402

PER_LAYER_NAMES = [name for name, _ in tracing.PER_LAYER]


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracing.covered((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 6.0, 7.5, parent=0),
    ]
    assert tracing.self_times(spans) == [5.5, 2.0, 1.0, 1.5]
    table = tracing.layer_table(spans)
    assert table["child"] == {"total_s": 4.5, "self_s": 3.5, "calls": 2}


def test_layer_metrics_loop_and_stream_self_time():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        span("sspc.fit", 0.0, 10.0),
        span("seed_groups.build", 0.5, 8.0, parent=0),
        span("grid.build", 1.0, 7.0, parent=1),
        span("stream.batch", 20.0, 21.0),
        span("index.partial_update", 20.1, 20.7, parent=3),
    ]
    tracer.counts.update({"engine.columns_requested": 10, "engine.columns_recomputed": 4})
    metrics = tracing.layer_metrics(tracer, {"trace_overhead_pct": 1.5})
    assert list(metrics) == PER_LAYER_NAMES
    assert metrics["sspc.loop_s"][0] == pytest.approx(2.0)
    assert metrics["seed_groups.self_s"][0] == pytest.approx(1.5)
    assert metrics["stream.self_s"][0] == pytest.approx(0.4)
    assert metrics["engine.dirty_ratio"][0] == pytest.approx(0.4)
    assert metrics["http.parse_s"] == (0.0, "s")
    assert metrics["trace_overhead_pct"] == (1.5, "%")


def test_install_wraps_and_restores():
    from repro.core import seed_groups
    from repro.core.grid import Grid

    original = seed_groups.one_dimensional_density_profile
    tracer = tracing.Tracer("t")
    patch = tracing.install(tracer)
    try:
        assert seed_groups.one_dimensional_density_profile is not original
        Grid(np.arange(20.0).reshape(10, 2), [0, 1], bins_per_dimension=2)
    finally:
        patch.restore()
    assert seed_groups.one_dimensional_density_profile is original
    assert "__wrapped__" not in Grid.__init__.__dict__
    assert tracer.counts["grid.builds"] == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER_NAMES
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracing.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "throughput_per_s"]


def assert_complete(result: Result, end_to_end=True):
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    if end_to_end:
        assert set(result.end_to_end) == {"setup_s", "throughput_per_s"}
        assert all(value > 0 for value, _ in result.end_to_end.values())
    assert list(result.per_layer) == PER_LAYER_NAMES


TINY_FIT = dict(n_dimensions=20, n_clusters=3, cluster_dim=4, n_datasets=2, ari_floor=0.0)


@pytest.mark.parametrize("labeled", [False, True])
def test_fit_workload_tiny_pass(labeled):
    config = workloads.FitConfig(n_objects=300, labeled=labeled, **TINY_FIT)
    result = workloads.run_fit("fit", config, 3, 0.0, True, measure_memory=False)
    assert_complete(result)
    assert result.per_layer["seed_groups.build_s"][0] > 0
    assert result.per_layer["sspc.iterations"][0] >= 1
    assert result.per_layer["grid.builds"][0] > 0
    assert result.per_layer["index.predict_s"][0] == 0.0


def test_stream_workload_tiny_pass():
    config = workloads.StreamConfig(
        n_dimensions=20, n_clusters=3, cluster_dim=4, warmup_points=300, batch_size=64,
        n_batches=12, drift_batch=4, n_streams=2, ari_floor=0.0, setup_repeats=1,
    )
    result = workloads.run_stream("stream", config, 3, 0.0, True)
    assert_complete(result)
    assert result.per_layer["stream.batch_s"][0] > result.per_layer["stream.self_s"][0] > 0
    assert result.per_layer["index.partial_update_points"][0] == 12 * 64


TINY_SERVE = serve.ServeConfig(
    n_train=400, n_dimensions=20, n_clusters=3, cluster_dim=4, single_pool=64, bulk_pool=2,
    bulk_size=16, update_pool=2, update_size=8, warmup_requests=10, trace_requests=60,
    setup_repeats=1, max_requests=5000, ari_floor=0.0,
)


def test_serve_workload_tiny_pass():
    result = serve.run_serve("serve", TINY_SERVE, 3, 0.5, True)
    assert_complete(result)
    layers = result.per_layer
    assert layers["http.decode_s"][0] > 0 and layers["artifact.load_s"][0] > 0
    assert layers["batcher.flushes"][0] > 0
    assert layers["index.predict_points"][0] > 0


def test_serve_replay_check_flags_a_wrong_label(tmp_path):
    from repro.core.sspc import SSPC

    inputs = serve.Inputs(TINY_SERVE, 5)
    model = SSPC(n_clusters=3, m=0.5, random_state=5).fit(inputs.train, inputs.knowledge)
    artifact = str(model.save(str(tmp_path / "model")))
    from repro.server.pool import build_serving_index

    label = int(build_serving_index(artifact).predict(inputs.points(serve.SINGLE, 0))[0])
    good = json.dumps({"label": label, "generation": 0}).encode()
    bad = json.dumps({"label": label + 1, "generation": 0}).encode()
    stale = json.dumps({"label": label, "generation": 1}).encode()
    for payload, failures in ((good, 0), (bad, 1), (stale, 1)):
        result = Result("serve")
        serve.verify(result, [(serve.SINGLE, 0, 200, payload, 0.001)], artifact, inputs)
        assert result.failed == failures, result.failures
