"""Tests for the grid (multi-dimensional histogram) engine."""

import itertools

import numpy as np
import pytest

from repro.core.grid import Grid, GridSpace, one_dimensional_density


def build_grid(data, dimensions, bins, restrict_to=None):
    """A grid over a space whose only candidates are its building dimensions."""
    space = GridSpace(data, dimensions, restrict_to, bins=(bins,))
    return Grid(space, dimensions, bins_per_dimension=bins)


def moore_neighbours(cell, bins):
    """Every in-range cell differing from ``cell`` by at most 1 per coordinate."""
    for offset in itertools.product((-1, 0, 1), repeat=len(cell)):
        neighbour = tuple(c + delta for c, delta in zip(cell, offset))
        if any(offset) and all(0 <= c < bins for c in neighbour):
            yield neighbour


@pytest.fixture()
def clustered_data():
    """200 objects in 10 dims; objects 0-49 concentrated on dims 0-2."""
    rng = np.random.default_rng(21)
    data = rng.uniform(0, 100, size=(200, 10))
    data[:50, 0] = rng.normal(25, 2.0, size=50)
    data[:50, 1] = rng.normal(60, 2.0, size=50)
    data[:50, 2] = rng.normal(80, 2.0, size=50)
    return data


class TestGridConstruction:
    def test_all_objects_fall_in_some_cell(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1, 2], 4)
        total = sum(grid.cell_density(cell) for cell in grid.cells())
        assert total == clustered_data.shape[0]

    def test_restrict_to_limits_objects(self, clustered_data):
        subset = np.arange(50, 200)
        grid = build_grid(clustered_data, [0, 1], 4, subset)
        total = sum(grid.cell_density(cell) for cell in grid.cells())
        assert total == subset.size

    def test_cell_of_point_consistent_with_membership(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1, 2], 5)
        for index in (0, 10, 199):
            cell = grid.cell_of(clustered_data[index])
            assert index in grid.cell_members(cell)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_cell_of_rejects_non_finite_building_coordinate(self, clustered_data, bad):
        grid = build_grid(clustered_data, [0, 1, 2], 5)
        point = clustered_data[0].copy()
        point[1] = bad
        with pytest.raises(ValueError, match="finite"):
            grid.cell_of(point)
        with pytest.raises(ValueError, match="finite"):
            grid.hill_climb(point)

    def test_cell_of_ignores_non_building_coordinates(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1, 2], 5)
        point = clustered_data[0].copy()
        point[7] = np.nan
        assert grid.cell_of(point) == grid.cell_of(clustered_data[0])

    def test_far_out_point_lands_in_edge_cell(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1], 5)
        point = clustered_data[0].copy()
        point[0], point[1] = 1e300, -1e300
        assert grid.cell_of(point) == (4, 0)

    def test_cells_is_a_fresh_mapping(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1], 4)
        cells = grid.cells()
        assert len(cells) == grid.n_cells
        cell = next(iter(cells))
        cells[cell][:] = -1
        cells.clear()
        assert len(grid.cells()) == grid.n_cells
        assert (grid.cells()[cell] >= 0).all()
        assert (grid.cell_members(cell) >= 0).all()

    def test_lookups_of_keys_outside_the_grid_are_empty(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1], 4)
        for cell in [(4, 0), (-1, 0), (0,), (0, 0, 0), (0.5, 1), ("a", "b")]:
            assert grid.cell_density(cell) == 0
            assert grid.cell_members(cell).size == 0

    def test_invalid_dimension_rejected(self, clustered_data):
        with pytest.raises(ValueError):
            build_grid(clustered_data, [0, 99], 4)

    def test_requires_at_least_two_bins(self, clustered_data):
        with pytest.raises(ValueError):
            build_grid(clustered_data, [0], 1)

    def test_grids_share_one_space(self, clustered_data):
        subset = np.arange(20, 180)
        space = GridSpace(clustered_data, np.arange(10), subset, bins=(4, 8))
        for dims in ([0, 1, 2], [7, 3], [9]):
            for bins in (4, 8):
                shared = Grid(space, dims, bins_per_dimension=bins)
                alone = build_grid(clustered_data, dims, bins, subset)
                assert list(shared.cells()) == list(alone.cells())
                for cell, members in alone.cells().items():
                    np.testing.assert_array_equal(shared.cell_members(cell), members)

    def test_array_stands_for_a_space_over_every_object(self, clustered_data):
        grid = Grid(clustered_data, [2, 0], bins_per_dimension=6)
        expected = build_grid(clustered_data, [2, 0], 6)
        assert list(grid.cells()) == list(expected.cells())
        assert grid.absolute_peak().cell == expected.absolute_peak().cell

    def test_space_keeps_compact_read_only_bins(self, clustered_data):
        space = GridSpace(clustered_data, [0, 1, 2], bins=(5, 16))
        for bins in (5, 16):
            block = space.binned(bins)
            assert block.dtype == np.uint8 and block.shape == (3, 200)
            assert not block.flags.writeable
            assert block.max() == bins - 1
        assert not space.object_indices.flags.writeable

    def test_dimension_outside_the_candidates_rejected(self, clustered_data):
        space = GridSpace(clustered_data, [0, 1, 2], bins=(4,))
        with pytest.raises(ValueError, match="candidate"):
            Grid(space, [0, 5], bins_per_dimension=4)
        with pytest.raises(ValueError, match="must lie in"):
            Grid(space, [0, 99], bins_per_dimension=4)

    def test_unprepared_bin_count_rejected(self, clustered_data):
        space = GridSpace(clustered_data, [0, 1, 2], bins=(4,))
        with pytest.raises(ValueError, match="not prepared"):
            Grid(space, [0, 1], bins_per_dimension=5)
        with pytest.raises(ValueError):
            Grid(space, [0, 1], bins_per_dimension=1)

    def test_constant_dimension_handled(self):
        data = np.column_stack([np.ones(30), np.linspace(0, 1, 30)])
        grid = build_grid(data, [0, 1], 3)
        assert grid.n_cells >= 1


class TestPeakSearches:
    def test_absolute_peak_finds_cluster_core(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1, 2], 4)
        peak = grid.absolute_peak()
        # The dense region is the 50-object cluster; most peak members belong to it.
        assert peak.density >= 10
        assert np.mean(peak.members < 50) >= 0.85

    def test_peak_density_lower_with_irrelevant_dimension(self, clustered_data):
        relevant = build_grid(clustered_data, [0, 1, 2], 4).absolute_peak()
        mixed = build_grid(clustered_data, [0, 1, 7], 4).absolute_peak()
        assert relevant.density > mixed.density

    def test_hill_climb_from_cluster_median(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1, 2], 4)
        anchor = np.median(clustered_data[:50], axis=0)
        result = grid.hill_climb(anchor)
        assert result.density >= grid.cell_density(grid.cell_of(anchor))
        assert np.mean(result.members < 50) > 0.8

    def test_hill_climb_reaches_local_maximum(self, clustered_data):
        grid = build_grid(clustered_data, [0, 1], 5)
        result = grid.hill_climb(clustered_data[100])
        for neighbour in moore_neighbours(result.cell, 5):
            assert grid.cell_density(neighbour) <= result.density

    def test_hill_climb_from_biased_anchor_recovers_peak(self, clustered_data):
        # Start from a point offset from the cluster centre (simulating a
        # labeled-object median biased to one side of the class).
        grid = build_grid(clustered_data, [0, 1, 2], 4)
        biased = np.median(clustered_data[:50], axis=0)
        biased[0] += 8.0
        result = grid.hill_climb(biased)
        assert np.mean(result.members < 50) > 0.5

    def test_empty_grid_absolute_peak(self, clustered_data):
        grid = build_grid(clustered_data, [0], 3, [5])
        peak = grid.absolute_peak()
        assert peak.density == 1


class TestOneDimensionalDensity:
    def test_density_higher_on_relevant_dimension(self, clustered_data):
        anchor = clustered_data[10]  # a cluster member
        relevant = one_dimensional_density(clustered_data, 0, anchor[0], bins=10)
        irrelevant = one_dimensional_density(clustered_data, 7, anchor[7], bins=10)
        assert relevant > irrelevant

    def test_density_is_a_fraction(self, clustered_data):
        value = one_dimensional_density(clustered_data, 3, 50.0, bins=10)
        assert 0.0 <= value <= 1.0

    def test_restrict_to(self, clustered_data):
        # Restricted to the cluster members, the value range shrinks to the
        # cluster's own spread, so the anchor bin holds clearly more than the
        # uniform baseline (1/bins) but not necessarily a large fraction.
        value = one_dimensional_density(
            clustered_data, 0, 25.0, bins=10, restrict_to=np.arange(50)
        )
        assert value > 1.0 / 10

    def test_invalid_dimension(self, clustered_data):
        with pytest.raises(ValueError):
            one_dimensional_density(clustered_data, 99, 0.0)
