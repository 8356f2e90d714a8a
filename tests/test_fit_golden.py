"""Fixed-seed golden digests of fits and of the stream's spawn search.

The digests below were recorded before the seed-group initialisation was
rewritten for speed (running-min max-min anchor, vectorised grid cells,
cheaper index validation).  That rewrite claims bit-identical output, so
any change to ``labels_``, to a seed group's seeds or dimensions, or to a
spawn candidate shows up here as a changed sha256.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.seed_groups import SeedGroupBuilder
from repro.core.sspc import SSPC
from repro.core.thresholds import VarianceRatioThreshold
from repro.data.generator import make_projected_clusters
from repro.semisupervision.sampling import sample_knowledge
from repro.stream.lifecycle import find_spawn_candidate

GOLDEN = {
    "unlabeled": "ac7b7db783269ec4ff9352330a17e632dac0702a4b776d4cff011755261b290c",
    "labeled": "0ef7b64636b191c2891aec5457c861c6cc1154d27dd64bbbf5c836a19adf7f21",
    "spawn": "8ffa3ec547fdf491e86d86db6c35764e0fc414117f6484f5f7f6de0745790ac7",
}


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.int64)
        hasher.update(np.int64(array.size).tobytes())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _fit_digest(monkeypatch, *, labeled: bool) -> str:
    dataset = make_projected_clusters(
        n_objects=2000,
        n_dimensions=100,
        n_clusters=5,
        avg_cluster_dimensionality=8,
        random_state=11,
    )
    knowledge = None
    if labeled:
        knowledge = sample_knowledge(
            dataset.labels,
            dataset.relevant_dimensions,
            category="both",
            input_size=3,
            coverage=1.0,
            random_state=11,
        )
    built = []
    original_build = SeedGroupBuilder.build

    def capturing_build(self, *args, **kwargs):
        result = original_build(self, *args, **kwargs)
        built.append(result)
        return result

    monkeypatch.setattr(SeedGroupBuilder, "build", capturing_build)
    model = SSPC(n_clusters=5, m=0.5, random_state=3).fit(dataset.data, knowledge)
    assert len(built) == 1
    private_groups, public_groups = built[0]
    arrays = [model.labels_]
    for cluster in sorted(private_groups):
        arrays += [[cluster], private_groups[cluster].seeds, private_groups[cluster].dimensions]
    for group in public_groups:
        arrays += [group.seeds, group.dimensions]
    return _digest(*arrays)


@pytest.mark.parametrize("case", ["unlabeled", "labeled"])
def test_fit_and_seed_groups_match_golden(monkeypatch, case):
    assert _fit_digest(monkeypatch, labeled=case == "labeled") == GOLDEN[case]


def test_spawn_candidate_matches_golden():
    dataset = make_projected_clusters(
        n_objects=300,
        n_dimensions=30,
        n_clusters=2,
        avg_cluster_dimensionality=5,
        random_state=5,
    )
    threshold = VarianceRatioThreshold().fit(dataset.data)
    candidate = find_spawn_candidate(
        dataset.data, threshold, np.random.default_rng(9), min_points=10
    )
    assert candidate is not None
    seeds, dimensions, peak_density = candidate
    assert _digest(seeds, dimensions, [peak_density]) == GOLDEN["spawn"]
