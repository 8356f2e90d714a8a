"""Pin the per-grid and per-group calls that layer attribution counts.

The repository benchmark (``perfbench/tracing.py``) times grid builds by
wrapping ``Grid.__init__`` and the density profile by wrapping the
module-level ``one_dimensional_density_profile`` where ``seed_groups``
looks it up.  A fit that built its grids through another constructor or
called the profile under another name would silently read zero builds;
these tests count the calls a fit makes through those names.
"""

from __future__ import annotations

import pytest

import repro.core.seed_groups as seed_groups
from repro.core.grid import Grid
from repro.core.seed_groups import SeedGroupBuilder
from repro.core.sspc import SSPC
from repro.data.generator import make_projected_clusters
from repro.semisupervision.sampling import sample_knowledge


def _counted_fit(monkeypatch, *, labeled, grids_per_group):
    dataset = make_projected_clusters(
        n_objects=300,
        n_dimensions=20,
        n_clusters=3,
        avg_cluster_dimensionality=5,
        random_state=2,
    )
    knowledge = None
    if labeled:
        knowledge = sample_knowledge(
            dataset.labels,
            dataset.relevant_dimensions,
            category="both",
            input_size=3,
            coverage=1.0,
            random_state=2,
        )
    counts = {"grids": 0, "profiles": 0}
    built = []
    grid_init = Grid.__init__
    profile = seed_groups.one_dimensional_density_profile
    build = SeedGroupBuilder.build

    def counting_grid_init(self, *args, **kwargs):
        counts["grids"] += 1
        grid_init(self, *args, **kwargs)

    def counting_profile(*args, **kwargs):
        counts["profiles"] += 1
        return profile(*args, **kwargs)

    def capturing_build(self, *args, **kwargs):
        result = build(self, *args, **kwargs)
        built.append(result)
        return result

    monkeypatch.setattr(Grid, "__init__", counting_grid_init)
    monkeypatch.setattr(seed_groups, "one_dimensional_density_profile", counting_profile)
    monkeypatch.setattr(SeedGroupBuilder, "build", capturing_build)
    model = SSPC(
        n_clusters=3, m=0.5, random_state=5, grids_per_group=grids_per_group
    ).fit(dataset.data, knowledge)
    assert len(built) == 1
    private_groups, public_groups = built[0]
    return model, counts, private_groups, public_groups


@pytest.mark.parametrize("grids_per_group", [20, 7])
def test_unlabeled_fit_builds_each_grid_through_the_constructor(monkeypatch, grids_per_group):
    _, counts, private_groups, public_groups = _counted_fit(
        monkeypatch, labeled=False, grids_per_group=grids_per_group
    )
    assert not private_groups and len(public_groups) == 9
    assert counts["grids"] == grids_per_group * len(public_groups)
    assert counts["profiles"] == len(public_groups)


def test_labeled_fit_builds_grids_without_a_profile(monkeypatch):
    _, counts, private_groups, public_groups = _counted_fit(
        monkeypatch, labeled=True, grids_per_group=20
    )
    assert len(private_groups) == 3 and not public_groups
    assert counts["grids"] == 20 * len(private_groups)
    assert counts["profiles"] == 0

