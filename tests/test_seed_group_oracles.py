"""Oracle tests for the fast seed-group initialisation.

Each fast path is checked against a test-local copy of the code it
replaced:

* the running-min max-min anchor against the recompute of every earlier
  group's distances for each new group;
* a grid over a shared, once-binned ``GridSpace`` against the per-grid
  gather, min/max and binning each grid once did for itself;
* ``Grid.cells()`` against the per-cell Python loop that keyed each cell;
* ``Grid.hill_climb`` against the greedy walk over a Moore-neighbour
  generator, and ``Grid.absolute_peak`` against ``max`` over the
  insertion-ordered cell dictionary;
* ``one_dimensional_density_profile`` over a space against the scalar
  ``one_dimensional_density`` of every candidate dimension;
* ``check_index_sequence`` against the ``list()``-then-``np.unique``
  validator, for accepted and rejected inputs alike.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import (
    Grid,
    GridSpace,
    one_dimensional_density,
    one_dimensional_density_profile,
)
from repro.core.seed_groups import SeedGroup, _MaxMinAnchor
from repro.utils.validation import check_index_sequence


# ---------------------------------------------------------------------- #
# the replaced implementations
# ---------------------------------------------------------------------- #
def recompute_max_min(data, existing_groups, excluded_objects, rng):
    """The max-min object, recomputing every earlier group's distances."""
    n_objects = data.shape[0]
    mask = np.ones(n_objects, dtype=bool)
    if excluded_objects:
        mask[list(excluded_objects)] = False
    available = np.flatnonzero(mask)
    if available.size == 0:
        available = np.arange(n_objects)
    groups_with_seeds = [
        group for group in existing_groups if group.n_seeds > 0 and group.dimensions.size > 0
    ]
    if not groups_with_seeds:
        return int(available[rng.integers(available.size)])
    min_distance = np.full(available.size, np.inf)
    for group in groups_with_seeds:
        dims = group.dimensions
        seeds = data[np.ix_(group.seeds, dims)]
        candidates = data[np.ix_(available, dims)]
        diffs = candidates[:, None, :] - seeds[None, :, :]
        distances = (diffs**2).sum(axis=2).min(axis=1) / dims.size
        min_distance = np.minimum(min_distance, distances)
    return int(available[int(np.argmax(min_distance))])


def per_grid_bins(data, dimensions, bins, object_indices):
    """The bin rows ``Grid._build`` computed for each grid on its own."""
    values = data.T[np.asarray(dimensions)].take(np.asarray(object_indices), axis=1)
    lows = values.min(axis=1)
    highs = values.max(axis=1)
    spans = np.where(highs > lows, highs - lows, 1.0)
    scaled = (values - lows[:, None]) / spans[:, None] * bins
    return np.minimum(scaled.astype(int), bins - 1)


def per_cell_loop_cells(data, dimensions, bins, object_indices):
    """``Grid.cells()`` as the per-cell ``tuple(int(b) ...)`` loop built it."""
    values = data[np.ix_(object_indices, dimensions)]
    lows = values.min(axis=0)
    highs = values.max(axis=0)
    spans = np.where(highs > lows, highs - lows, 1.0)
    scaled = (values - lows) / spans * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    cells = {}
    n_rows = bin_indices.shape[0]
    order = np.lexsort(bin_indices.T)
    sorted_bins = bin_indices[order]
    sorted_objects = np.asarray(object_indices, dtype=int)[order]
    changed = np.any(sorted_bins[1:] != sorted_bins[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    first_rows = order[starts]
    ends = np.concatenate((starts[1:], [n_rows]))
    for position in np.argsort(first_rows, kind="stable"):
        start, end = int(starts[position]), int(ends[position])
        cell = tuple(int(b) for b in bin_indices[first_rows[position]])
        cells[cell] = sorted_objects[start:end]
    return cells, lows, spans


def generator_neighbours(cell, bins):
    """All neighbouring cells of ``cell`` (Moore neighbourhood)."""
    offsets = itertools.product((-1, 0, 1), repeat=len(cell))
    for offset in offsets:
        if all(delta == 0 for delta in offset):
            continue
        neighbour = tuple(coordinate + delta for coordinate, delta in zip(cell, offset))
        if all(0 <= coordinate < bins for coordinate in neighbour):
            yield neighbour


def generator_hill_climb(cells, lows, spans, dimensions, bins, point):
    """``Grid.hill_climb`` as the greedy walk over the generator did it.

    Returns the final cell, its density and its members.
    """
    scaled = (np.asarray(point)[dimensions] - lows) / spans * bins
    current = tuple(int(b) for b in np.clip(scaled.astype(int), 0, bins - 1))

    def density(cell):
        members = cells.get(cell)
        return 0 if members is None else int(members.size)

    current_density = density(current)
    improved = True
    while improved:
        improved = False
        for neighbour in generator_neighbours(current, bins):
            neighbour_density = density(neighbour)
            if neighbour_density > current_density:
                current, current_density = neighbour, neighbour_density
                improved = True
    return current, current_density, cells.get(current, np.empty(0, dtype=int))


def dict_absolute_peak(cells):
    """``Grid.absolute_peak`` as ``max`` over the insertion-ordered dict."""
    best = max(cells, key=lambda cell: len(cells[cell]))
    return best, int(cells[best].size), cells[best]


def list_check_index_sequence(indices, upper, *, name="indices", allow_empty=True, unique=True):
    """``check_index_sequence`` before the ndarray fast path."""
    array = np.asarray(list(indices), dtype=int)
    if array.ndim != 1:
        raise ValueError("%s must be a flat sequence of integers" % name)
    if not allow_empty and array.size == 0:
        raise ValueError("%s may not be empty" % name)
    if array.size:
        if array.min() < 0 or array.max() >= upper:
            raise ValueError(
                "%s must lie in [0, %d), got range [%d, %d]"
                % (name, upper, array.min(), array.max())
            )
        if unique and len(np.unique(array)) != len(array):
            raise ValueError("%s contains duplicate entries" % name)
    return array


def _outcome(function, *args, **kwargs):
    try:
        result = function(*args, **kwargs)
    except Exception as error:  # compared by type and message
        return ("raised", type(error), str(error))
    return ("returned", result.dtype, result.tolist())


# ---------------------------------------------------------------------- #
# max-min anchor
# ---------------------------------------------------------------------- #
def _data(seed, n_objects, n_dimensions, coarse):
    rng = np.random.default_rng(seed)
    if coarse:
        # Few distinct values: distance ties and constant columns.
        return rng.integers(0, 3, size=(n_objects, n_dimensions)).astype(float)
    return rng.normal(size=(n_objects, n_dimensions))


@st.composite
def anchor_cases(draw):
    n_objects = draw(st.integers(1, 30))
    n_dimensions = draw(st.integers(1, 6))
    n_private = draw(st.integers(0, 3))
    n_public = draw(st.integers(0, 6))
    groups = []
    for position in range(n_private + n_public):
        # Seeds may repeat claimed objects or be empty; dimensions may be
        # empty.  Both kinds of group carry no distance and are skipped.
        seeds = draw(st.lists(st.integers(0, n_objects - 1), max_size=n_objects))
        dims = draw(st.lists(st.integers(0, n_dimensions - 1), max_size=n_dimensions))
        cluster = position if position < n_private else None
        groups.append(SeedGroup(seeds=seeds, dimensions=dims, cluster=cluster))
    return {
        "data_seed": draw(st.integers(0, 2**16)),
        "coarse": draw(st.booleans()),
        "n_objects": n_objects,
        "n_dimensions": n_dimensions,
        "groups": groups,
        "block": draw(st.sampled_from([1, 2, 7, 64, _MaxMinAnchor.BLOCK_ELEMENTS])),
        "rng_seed": draw(st.integers(0, 2**16)),
        # Whether to pick before each group: skipped picks leave several
        # groups to fold at once.
        "picks": draw(st.lists(st.booleans(), min_size=len(groups), max_size=len(groups))),
    }


@settings(max_examples=150, deadline=None)
@given(anchor_cases())
def test_running_min_anchor_matches_full_recompute(case):
    data = _data(case["data_seed"], case["n_objects"], case["n_dimensions"], case["coarse"])
    anchor = _MaxMinAnchor(data)
    anchor.BLOCK_ELEMENTS = case["block"]
    available = np.ones(data.shape[0], dtype=bool)
    rng_fast = np.random.default_rng(case["rng_seed"])
    rng_oracle = np.random.default_rng(case["rng_seed"])
    existing, excluded = [], set()
    # Picks between groups (private groups first), and one after the
    # last, which finds every object excluded when the groups' seeds
    # cover the data.
    for group, pick in zip(case["groups"] + [None], case["picks"] + [True]):
        if pick:
            expected = recompute_max_min(data, existing, excluded, rng_oracle)
            assert anchor.pick(np.flatnonzero(available), rng_fast) == expected
        if group is None:
            break
        available[group.seeds] = False
        anchor.add(group)
        existing.append(group)
        excluded.update(int(seed) for seed in group.seeds)


def test_all_objects_excluded_falls_back_to_every_object():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    anchor = _MaxMinAnchor(data)
    group = SeedGroup(seeds=[0, 1, 2], dimensions=[0])
    anchor.add(group)
    rng = np.random.default_rng(0)
    picked = anchor.pick(np.empty(0, dtype=int), rng)
    assert picked == recompute_max_min(data, [group], {0, 1, 2}, np.random.default_rng(0))


def test_groups_without_seeds_or_dimensions_leave_a_random_anchor():
    data = np.arange(12.0).reshape(6, 2)
    anchor = _MaxMinAnchor(data)
    anchor.add(SeedGroup(seeds=[], dimensions=[0, 1]))
    anchor.add(SeedGroup(seeds=[1, 2], dimensions=[]))
    assert anchor.groups == []
    assert np.isinf(anchor.min_distance).all()
    available = np.array([0, 3, 4, 5])
    expected = int(available[np.random.default_rng(4).integers(available.size)])
    assert anchor.pick(available, np.random.default_rng(4)) == expected


# ---------------------------------------------------------------------- #
# grid cells
# ---------------------------------------------------------------------- #
@st.composite
def grid_cases(draw):
    n_objects = draw(st.integers(1, 60))
    n_dimensions = draw(st.integers(1, 6))
    n_building = draw(st.integers(1, min(4, n_dimensions)))
    # The space's candidates: any order, a superset of the building
    # dimensions, which are drawn from them in any order.
    n_candidates = draw(st.integers(n_building, n_dimensions))
    candidates = draw(st.permutations(range(n_dimensions)))[:n_candidates]
    dimensions = draw(st.permutations(candidates))[:n_building]
    restrict = draw(st.booleans())
    restrict_to = None
    if restrict:
        size = draw(st.integers(1, n_objects))
        restrict_to = draw(st.permutations(range(n_objects)))[:size]
        if draw(st.booleans()):
            restrict_to = sorted(restrict_to)
    return {
        "data_seed": draw(st.integers(0, 2**16)),
        "coarse": draw(st.booleans()),
        "n_objects": n_objects,
        "n_dimensions": n_dimensions,
        "candidates": candidates,
        "dimensions": dimensions,
        "bins": draw(st.integers(2, 16)),
        # Another bin count the space prepares alongside (the density
        # profile's, in a public group's search).
        "other_bins": draw(st.integers(2, 16)),
        "restrict_to": restrict_to,
    }


def _space(data, case):
    restrict_to = case["restrict_to"]
    return GridSpace(
        data,
        case["candidates"],
        None if restrict_to is None else np.asarray(restrict_to),
        bins=(case["other_bins"], case["bins"]),
    )


def _grid_and_oracle_cells(case):
    data = _data(case["data_seed"], case["n_objects"], case["n_dimensions"], case["coarse"])
    restrict_to = case["restrict_to"]
    grid = Grid(_space(data, case), case["dimensions"], bins_per_dimension=case["bins"])
    object_indices = np.arange(data.shape[0]) if restrict_to is None else restrict_to
    cells, lows, spans = per_cell_loop_cells(data, case["dimensions"], case["bins"], object_indices)
    return data, object_indices, grid, cells, lows, spans


@settings(max_examples=200, deadline=None)
@given(grid_cases())
def test_grid_cells_match_per_cell_loop(case):
    data, object_indices, grid, expected, lows, spans = _grid_and_oracle_cells(case)
    # Keys, their insertion order (absolute_peak's tie-break) and members.
    cells = grid.cells()
    assert list(cells) == list(expected)
    for key in cells:
        assert all(type(b) is int for b in key)
        np.testing.assert_array_equal(cells[key], expected[key])
    np.testing.assert_array_equal(grid._lows, lows)
    np.testing.assert_array_equal(grid._spans, spans)
    np.testing.assert_array_equal(
        grid._bins, per_grid_bins(data, case["dimensions"], case["bins"], object_indices)
    )


def _anchor(data, object_indices, kind, seed):
    """A full-width anchor inside or outside the range of the gridded objects."""
    rng = np.random.default_rng(seed)
    block = data[np.asarray(object_indices, dtype=int)]
    lows, highs = block.min(axis=0), block.max(axis=0)
    if kind == "object":
        return block[rng.integers(block.shape[0])].copy()
    if kind == "inside":
        return rng.uniform(lows, highs)
    # Beyond the range on a random side of every dimension.
    beyond = (highs - lows + 1.0) * rng.uniform(0.01, 3.0, size=lows.size)
    return np.where(rng.random(lows.size) < 0.5, lows - beyond, highs + beyond)


def _assert_same_search(result, expected):
    cell, density, members = expected
    assert result.cell == cell
    assert all(type(b) is int for b in result.cell)
    assert result.density == density
    np.testing.assert_array_equal(result.members, members)


@settings(max_examples=300, deadline=None)
@given(
    grid_cases(),
    st.sampled_from(["inside", "outside", "object"]),
    st.integers(0, 2**16),
)
def test_hill_climb_matches_generator_walk(case, anchor_kind, anchor_seed):
    data, object_indices, grid, cells, lows, spans = _grid_and_oracle_cells(case)
    anchor = _anchor(data, object_indices, anchor_kind, anchor_seed)
    expected = generator_hill_climb(
        cells, lows, spans, np.asarray(case["dimensions"]), case["bins"], anchor
    )
    _assert_same_search(grid.hill_climb(anchor), expected)


@settings(max_examples=200, deadline=None)
@given(grid_cases())
def test_absolute_peak_matches_dict_max(case):
    _, _, grid, cells, _, _ = _grid_and_oracle_cells(case)
    _assert_same_search(grid.absolute_peak(), dict_absolute_peak(cells))


@settings(max_examples=200, deadline=None)
@given(
    grid_cases(),
    st.sampled_from(["inside", "outside", "object"]),
    st.integers(0, 2**16),
)
def test_density_profile_matches_scalar_helper(case, anchor_kind, anchor_seed):
    data = _data(case["data_seed"], case["n_objects"], case["n_dimensions"], case["coarse"])
    restrict_to = case["restrict_to"]
    object_indices = np.arange(data.shape[0]) if restrict_to is None else restrict_to
    anchor = _anchor(data, object_indices, anchor_kind, anchor_seed)
    profile = one_dimensional_density_profile(_space(data, case), anchor, bins=case["bins"])
    assert profile.shape == (len(case["candidates"]),)
    for position, dimension in enumerate(case["candidates"]):
        expected = one_dimensional_density(
            data, dimension, anchor[dimension], bins=case["bins"], restrict_to=restrict_to
        )
        assert profile[position] == expected


def test_coarse_data_searches_break_density_ties_like_the_oracles():
    # Six objects, two per occupied cell: every search ends on a tie.  The
    # first object's cell is not the one with the lowest bin tuple.
    data = np.array([[2.0, 2.0], [0.0, 0.0], [0.0, 2.0], [2.0, 2.0], [0.0, 0.0], [0.0, 2.0]])
    grid = Grid(GridSpace(data, [0, 1], bins=(3,)), [0, 1], bins_per_dimension=3)
    cells, lows, spans = per_cell_loop_cells(data, [0, 1], 3, np.arange(6))
    assert sorted(cells[cell].size for cell in cells) == [2, 2, 2]
    _assert_same_search(grid.absolute_peak(), dict_absolute_peak(cells))
    assert grid.absolute_peak().cell == (2, 2)
    for anchor in ([1.0, 1.0], [1.0, 0.0], [2.0, 0.0], [-5.0, 9.0]):
        expected = generator_hill_climb(cells, lows, spans, np.array([0, 1]), 3, anchor)
        _assert_same_search(grid.hill_climb(np.asarray(anchor)), expected)


def test_searches_match_oracles_past_the_int64_cell_range():
    # 4 building dimensions with bins ** 4 just above 2 ** 63: the cell
    # codes are re-ranked before the last digit.
    bins = int(2 ** (63 / 4)) + 1
    assert 2**63 < bins**4 < 2**64
    rng = np.random.default_rng(5)
    # A blob spanning a few bins per dimension (so cells hold 0-3
    # objects and climbs move), inside a range set by two corner rows.
    blob = rng.integers(20000, 20003, size=(60, 4)) + rng.uniform(0.2, 0.8, size=(60, 4))
    corners = np.array([[0.0] * 4, [float(bins)] * 4])
    data = np.vstack([corners, blob, rng.uniform(0, bins, size=(20, 4))])
    dimensions = np.arange(4)
    restrict_to = np.sort(rng.permutation(data.shape[0])[:70])
    restrict_to = np.union1d(restrict_to, [0, 1])
    grid = Grid(
        GridSpace(data, dimensions, restrict_to, bins=(bins,)),
        dimensions,
        bins_per_dimension=bins,
    )
    cells, lows, spans = per_cell_loop_cells(data, dimensions, bins, restrict_to)
    assert list(grid.cells()) == list(cells)
    _assert_same_search(grid.absolute_peak(), dict_absolute_peak(cells))
    anchors = [data[row] for row in range(data.shape[0])]
    anchors += [data[row] + rng.uniform(-2.5, 2.5, size=4) for row in range(2, 62)]
    climbed = 0
    for anchor in anchors:
        expected = generator_hill_climb(cells, lows, spans, dimensions, bins, anchor)
        result = grid.hill_climb(anchor)
        _assert_same_search(result, expected)
        climbed += result.cell != grid.cell_of(anchor)
    assert climbed > 0
    # A cell whose prefix never occurs among the objects is empty.
    assert grid.cell_density((bins - 1, 0, bins - 1, 0)) == 0


# ---------------------------------------------------------------------- #
# grid space validation
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_space_rejects_non_finite_candidate_column(bad):
    data = np.arange(40.0).reshape(10, 4)
    data[3, 2] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        GridSpace(data, [0, 2], bins=(3,))


@pytest.mark.parametrize(
    "restrict_to, message",
    [([0, 10], "must lie in"), ([-1, 2], "must lie in"), ([4, 1, 4], "duplicate")],
)
def test_space_rejects_bad_restrict_to(restrict_to, message):
    data = np.arange(40.0).reshape(10, 4)
    with pytest.raises(ValueError, match=message):
        GridSpace(data, [0, 2], restrict_to, bins=(3,))


def test_space_validates_once_for_all_its_grids(monkeypatch):
    import repro.core.grid as grid_module

    calls = []
    original = grid_module.check_array_2d

    def counting(data, **kwargs):
        calls.append(kwargs.get("name"))
        return original(data, **kwargs)

    monkeypatch.setattr(grid_module, "check_array_2d", counting)
    data = np.random.default_rng(3).normal(size=(30, 5))
    space = GridSpace(data, [0, 1, 3, 4], np.arange(2, 30), bins=(3, 6))
    for dimensions in ([0, 1], [4, 3, 0], [1]):
        Grid(space, dimensions, bins_per_dimension=3).absolute_peak()
    one_dimensional_density_profile(space, data[5], bins=6)
    assert calls == ["data"]


# ---------------------------------------------------------------------- #
# index validation
# ---------------------------------------------------------------------- #
index_values = st.lists(st.integers(-3, 12), max_size=12)


@st.composite
def index_inputs(draw):
    values = draw(index_values)
    kind = draw(
        st.sampled_from(["list", "int64", "int32", "uint8", "float", "bool", "2d", "0d", "sorted"])
    )
    if kind == "list":
        return values
    if kind == "sorted":
        return np.asarray(sorted(set(values)), dtype=np.int64)
    if kind == "uint8":
        return np.asarray([v for v in values if v >= 0], dtype=np.uint8)
    if kind == "float":
        return np.asarray(values, dtype=float) + draw(st.sampled_from([0.0, 0.5]))
    if kind == "bool":
        return np.asarray(values, dtype=np.int64) > 4
    if kind == "2d":
        return np.asarray(values[: len(values) // 2 * 2], dtype=np.int64).reshape(-1, 2)
    if kind == "0d":
        return np.asarray(values[0] if values else 0, dtype=np.int64)
    return np.asarray(values, dtype=kind)


@settings(max_examples=300, deadline=None)
@given(
    indices=index_inputs(),
    upper=st.integers(1, 12),
    allow_empty=st.booleans(),
    unique=st.booleans(),
)
def test_check_index_sequence_matches_list_validator(indices, upper, allow_empty, unique):
    kwargs = {"name": "idx", "allow_empty": allow_empty, "unique": unique}
    expected = _outcome(list_check_index_sequence, indices, upper, **kwargs)
    assert _outcome(check_index_sequence, indices, upper, **kwargs) == expected


@pytest.mark.parametrize(
    "indices, allow_empty, message",
    [
        (np.array([3, 1, 3]), True, "duplicate"),
        (np.array([0, 5]), True, "must lie in"),
        (np.array([-1, 2]), True, "must lie in"),
        (np.array([[0, 1], [2, 3]]), True, "flat sequence"),
        (np.array([], dtype=np.int64), False, "may not be empty"),
    ],
)
def test_check_index_sequence_rejects(indices, allow_empty, message):
    with pytest.raises(ValueError, match=message):
        check_index_sequence(indices, 5, allow_empty=allow_empty)


def test_check_index_sequence_copies_integer_arrays():
    source = np.array([0, 2, 4])
    result = check_index_sequence(source, 5)
    assert result.dtype == np.int64
    result[0] = 3
    assert source[0] == 0
