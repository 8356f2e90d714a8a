"""Multi-dimensional grid (histogram) engine used by SSPC's initialisation.

Section 4.2 of the paper locates cluster centres by building grids —
multi-dimensional histograms over a small number ``c`` (typically 3) of
candidate dimensions.  When all ``c`` building dimensions are relevant to
a cluster, one cell contains an unexpectedly large number of objects (the
cluster centre in that subspace); if any building dimension is
irrelevant, the peak density is much lower.  Several grids are built from
different dimension subsets and the densest peak wins.

Two peak-finding modes are needed:

* the *absolute peak* — the cell with the most objects anywhere in the
  grid (used when only labeled dimensions are available), and
* a *localized hill-climbing search* starting from the cell containing a
  given anchor point (the median of the labeled objects, or the max-min
  object) — used when an approximate cluster centre is known, and also to
  cope with grids whose building dimensions are relevant to several
  clusters (multiple peaks).

All ``g`` grids of one seed-group search place the same objects, so a
:class:`GridSpace` validates, gathers and bins those objects once per
search, and each :class:`Grid` reads its building dimensions' bin rows
from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_array_2d, check_index_sequence, check_positive_int

#: Number of distinct values an int64 cell code can take.
_CODE_LIMIT = 2**63


@dataclass
class GridSearchResult:
    """Outcome of a peak search on one grid.

    Attributes
    ----------
    cell:
        Index tuple of the winning cell (one bin index per building
        dimension).
    members:
        Object indices falling in the winning cell.
    density:
        Number of objects in the winning cell.
    dimensions:
        The building dimensions of the grid.
    """

    cell: Tuple[int, ...]
    members: np.ndarray
    density: int
    dimensions: np.ndarray


@functools.lru_cache(maxsize=None)
def _moore_offsets(n_dimensions: int) -> np.ndarray:
    """The ``3 ** c - 1`` Moore-neighbourhood offsets, in ``itertools.product`` order.

    Row-major :func:`numpy.indices` over ``(3,) * c`` enumerates the
    offsets in the order ``itertools.product((-1, 0, 1), repeat=c)``
    does; the all-zero offset (the cell itself) is dropped.
    """
    offsets = np.indices((3,) * n_dimensions).reshape(n_dimensions, -1).T - 1
    offsets = offsets[np.any(offsets != 0, axis=1)]
    offsets.flags.writeable = False  # shared by every grid with c dimensions
    return offsets


class GridSpace:
    """The objects of one seed-group search, validated and binned once.

    Every grid of a search places the same objects and takes its
    building dimensions from one candidate set, so the work the grids
    share happens here, once per search: validating the inputs,
    gathering the objects over the candidate dimensions, each
    dimension's low and span, and binning the block for every bin count
    asked for.  Only the bin indices are kept, one compact unsigned row
    per candidate dimension; the float block is dropped once binned.  A
    :class:`Grid` then folds just its building dimensions' rows into cell
    codes, and :func:`one_dimensional_density_profile` counts over the
    same rows.

    Parameters
    ----------
    data:
        The full ``(n, d)`` dataset.
    candidate_dimensions:
        The dimensions grids over this space may be built on.
    restrict_to:
        Optional subset of object indices to place in the grids (used
        when previously seeded clusters' likely members are excluded);
        every object by default.
    bins:
        The numbers of equal-width bins per dimension to prepare, each
        at least 2.  A grid or density profile over the space uses one
        of them.
    """

    def __init__(
        self,
        data,
        candidate_dimensions: Sequence[int],
        restrict_to: Optional[Sequence[int]] = None,
        *,
        bins: Sequence[int],
    ) -> None:
        data = check_array_2d(data, name="data")
        n_objects, self.n_dimensions = data.shape
        self.candidate_dimensions = check_index_sequence(
            candidate_dimensions, self.n_dimensions, name="candidate_dimensions", allow_empty=False
        )
        if restrict_to is None:
            self.object_indices = np.arange(n_objects)
        else:
            self.object_indices = check_index_sequence(
                restrict_to, n_objects, name="restrict_to", allow_empty=False
            )
        self.object_indices.flags.writeable = False  # shared by every grid of the space
        bin_counts = [check_positive_int(count, name="bins", minimum=2) for count in bins]
        # Block row of every dimension (-1 for a dimension that is no candidate).
        self._rows = np.full(self.n_dimensions, -1)
        self._rows[self.candidate_dimensions] = np.arange(self.candidate_dimensions.size)

        # One row per candidate dimension: every reduction below runs
        # along contiguous memory, and a grid's bin rows are contiguous.
        # The arithmetic is elementwise, so the bins are the ones a
        # row-per-object layout gives.
        values = data.T[self.candidate_dimensions].take(self.object_indices, axis=1)
        self.lows = values.min(axis=1)
        highs = values.max(axis=1)
        self.spans = np.where(highs > self.lows, highs - self.lows, 1.0)
        # Scale each coordinate into [0, bins) and clip the right edge so the
        # maximum falls in the last bin rather than a phantom extra bin.
        # (values - lows) / spans is shared by every bin count, in place.
        np.subtract(values, self.lows[:, None], out=values)
        np.divide(values, self.spans[:, None], out=values)
        self.lows.flags.writeable = self.spans.flags.writeable = False
        self._binned: Dict[int, np.ndarray] = {}
        for count in bin_counts:
            # Scaled values lie in [0, count]: the compact cast truncates
            # them the way an int cast does.
            binned = (values * count).astype(np.min_scalar_type(count))
            np.minimum(binned, count - 1, out=binned)
            binned.flags.writeable = False
            self._binned[count] = binned

    @property
    def n_objects(self) -> int:
        """Number of objects placed in the space."""
        return int(self.object_indices.size)

    def binned(self, bins: int) -> np.ndarray:
        """The ``(candidates, objects)`` bin indices for ``bins`` bins per dimension."""
        block = self._binned.get(bins)
        if block is None:
            raise ValueError(
                "bins=%r was not prepared for this grid space (prepared: %s)"
                % (bins, sorted(self._binned))
            )
        return block

    def rows_of(self, dimensions: np.ndarray) -> np.ndarray:
        """Block rows of validated ``dimensions``, which must be candidates."""
        rows = self._rows[dimensions]
        if (rows < 0).any():
            raise ValueError(
                "dimensions %s are not candidate dimensions of the grid space"
                % dimensions[rows < 0].tolist()
            )
        return rows


class Grid:
    """Equal-width multi-dimensional histogram over selected dimensions.

    Every object's cell is stored as one int64 *cell code*: its bin
    indices read as the digits of a mixed-radix number (first building
    dimension most significant), so codes sort like the bin tuples.  The
    grid keeps the sorted distinct codes and their counts; a density
    query is a ``searchsorted`` into them, and members are gathered only
    for the cell a search settles on.

    Parameters
    ----------
    space:
        The :class:`GridSpace` holding the objects to place, binned.  An
        ``(n, d)`` array stands for a space over all its objects with
        ``dimensions`` as the only candidates.
    dimensions:
        The building dimensions (the grid only spans these); each must be
        a candidate dimension of ``space``.
    bins_per_dimension:
        Number of equal-width bins per building dimension, one of the
        bin counts ``space`` prepared.  The paper keeps the number of
        building dimensions small (3) so each cell still holds enough
        objects; with ``b`` bins per dimension a grid has ``b ** c``
        cells.
    """

    def __init__(
        self,
        space,
        dimensions: Sequence[int],
        *,
        bins_per_dimension: int = 5,
    ) -> None:
        if not isinstance(space, GridSpace):
            # A caller that builds one grid passes the data itself.
            space = GridSpace(space, dimensions, bins=(bins_per_dimension,))
        self.space = space
        self.bins_per_dimension = check_positive_int(
            bins_per_dimension, name="bins_per_dimension", minimum=2
        )
        self.dimensions = check_index_sequence(
            dimensions, space.n_dimensions, name="dimensions", allow_empty=False
        )
        rows = space.rows_of(self.dimensions)
        self.object_indices = space.object_indices
        self._lows = space.lows[rows]
        self._spans = space.spans[rows]
        self._bins = space.binned(self.bins_per_dimension)[rows]
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        # Fold the bin rows into one code per object.  bins ** c may exceed
        # the int64 range, so before a digit that could overflow, the
        # partial codes are replaced by their ranks among their distinct
        # values (at most n of them).  Ranks keep the order, and the rank
        # table is kept so that a cell tuple's prefix is ranked the same
        # way on lookup.
        bins = self.bins_per_dimension
        bin_indices = self._bins
        self._rank_tables: Dict[int, np.ndarray] = {}
        codes = bin_indices[0].astype(np.int64)  # the compact bin rows would wrap
        n_codes = bins
        for position in range(1, bin_indices.shape[0]):
            if n_codes * bins > _CODE_LIMIT:
                table, codes = np.unique(codes, return_inverse=True)
                self._rank_tables[position] = table
                n_codes = table.size
            codes = codes * bins + bin_indices[position]
            n_codes *= bins
        self._codes = codes
        # No return_index here: it makes np.unique use a stable argsort,
        # about ten times slower than the default sort.
        self._cell_codes, self._counts = np.unique(codes, return_counts=True)

    # ------------------------------------------------------------------ #
    # cell queries
    # ------------------------------------------------------------------ #
    @property
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        return int(self._cell_codes.size)

    def cells(self) -> Dict[Tuple[int, ...], np.ndarray]:
        """Every non-empty cell and its object indices, built on demand.

        Keys are bin-index tuples in first-occurrence (row) order, the
        order :meth:`absolute_peak` breaks ties in; each cell's members
        keep their row order.  The mapping is a fresh copy on every call.
        """
        order = np.argsort(self._codes, kind="stable")
        sorted_objects = self.object_indices[order]
        ends = np.cumsum(self._counts)
        starts = ends - self._counts
        first_rows = order[starts]
        by_row = np.argsort(first_rows)
        keys = self._bins[:, first_rows[by_row]].T.tolist()
        return {
            tuple(key): sorted_objects[starts[slot] : ends[slot]]
            for key, slot in zip(keys, by_row.tolist())
        }

    def cell_members(self, cell: Tuple[int, ...]) -> np.ndarray:
        """Object indices in one cell (empty array for empty cells)."""
        row = self._cell_row(cell)
        if row is None:
            return np.empty(0, dtype=int)
        codes, densities = self._lookup(row)
        return self._members(codes[0], densities[0])

    def cell_density(self, cell: Tuple[int, ...]) -> int:
        """Number of objects in one cell."""
        row = self._cell_row(cell)
        return 0 if row is None else int(self._lookup(row)[1][0])

    def cell_of(self, point: Sequence[float]) -> Tuple[int, ...]:
        """The cell containing an arbitrary point (full ``d``-vector).

        Points outside the data range fall in the nearest edge cell; a
        point that is not finite in a building dimension has no cell.
        """
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != self.space.n_dimensions:
            raise ValueError("point must be a full d-dimensional vector")
        coords = point[self.dimensions]
        if not np.isfinite(coords).all():
            raise ValueError("point must be finite in the grid's building dimensions")
        scaled = (coords - self._lows) / self._spans * self.bins_per_dimension
        # Clip before the cast: a far-out coordinate would overflow int.
        clipped = np.clip(scaled, 0, self.bins_per_dimension - 1).astype(int)
        return tuple(clipped.tolist())

    def _cell_row(self, cell) -> Optional[np.ndarray]:
        """``cell`` as a ``(1, c)`` int64 array, or ``None`` if no cell has that key."""
        row = np.asarray(cell)
        if row.shape != self.dimensions.shape or not np.issubdtype(row.dtype, np.number):
            return None
        as_int = row.astype(np.int64)
        if not np.array_equal(as_int, row):
            return None
        if as_int.min() < 0 or as_int.max() >= self.bins_per_dimension:
            return None
        return as_int[None, :]

    def _lookup(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Codes and densities of the in-range cells in an ``(m, c)`` array.

        An empty cell has density 0; its code is then meaningless.
        """
        bins = self.bins_per_dimension
        codes = cells[:, 0]
        ranked = []  # whether each prefix occurs in a rank table
        for position in range(1, cells.shape[1]):
            table = self._rank_tables.get(position)
            if table is not None:
                ranks = np.minimum(table.searchsorted(codes), table.size - 1)
                ranked.append(table[ranks] == codes)
                codes = ranks
            codes = codes * bins + cells[:, position]
        slots = np.minimum(self._cell_codes.searchsorted(codes), self._cell_codes.size - 1)
        found = self._cell_codes[slots] == codes
        for prefix_found in ranked:
            found &= prefix_found
        return codes, np.where(found, self._counts[slots], 0)

    def _members(self, code: int, density: int) -> np.ndarray:
        """Object indices (in row order) of the cell with ``code``."""
        if density == 0:
            return np.empty(0, dtype=int)
        return self.object_indices[self._codes == code]

    # ------------------------------------------------------------------ #
    # peak searches
    # ------------------------------------------------------------------ #
    def absolute_peak(self) -> GridSearchResult:
        """The densest cell of the whole grid.

        Among equally dense cells the one whose first object comes
        earliest wins.
        """
        winners = self._cell_codes[self._counts == self._counts.max()]
        code = winners[0]
        if winners.size > 1:
            code = self._codes[np.argmax(np.isin(self._codes, winners))]
        rows = np.flatnonzero(self._codes == code)
        return GridSearchResult(
            cell=tuple(self._bins[:, rows[0]].tolist()),
            members=self.object_indices[rows],
            density=int(rows.size),
            dimensions=self.dimensions,
        )

    def hill_climb(self, start_point: Sequence[float]) -> GridSearchResult:
        """Localized hill-climbing search from the cell containing ``start_point``.

        Repeatedly moves to the densest neighbouring cell (including
        diagonal neighbours) until no neighbour is denser — this locates
        the local density peak nearest the anchor, which the paper uses
        both to deal with multi-peak grids and to correct anchors biased
        towards one side of the cluster.  Each step looks up every
        in-range neighbour at once and moves to the first densest one
        (in ``itertools.product`` order of the offsets) if it is strictly
        denser than the current cell.
        """
        current = np.asarray(self.cell_of(start_point), dtype=np.int64)
        codes, densities = self._lookup(current[None, :])
        code, density = codes[0], densities[0]
        offsets = _moore_offsets(current.size)
        while True:
            neighbours = current + offsets
            inside = ((neighbours >= 0) & (neighbours < self.bins_per_dimension)).all(axis=1)
            neighbours = neighbours[inside]
            codes, densities = self._lookup(neighbours)
            best = int(densities.argmax())
            if densities[best] <= density:
                break
            current, code, density = neighbours[best], codes[best], densities[best]
        members = self._members(code, density)
        return GridSearchResult(
            cell=tuple(current.tolist()),
            members=members,
            density=int(members.size),
            dimensions=self.dimensions,
        )


def one_dimensional_density(
    data,
    dimension: int,
    anchor_value: float,
    *,
    bins: int = 10,
    restrict_to: Optional[Sequence[int]] = None,
) -> float:
    """Object density around ``anchor_value`` along one dimension.

    Used by the no-knowledge initialisation case (Section 4.2.4): a
    one-dimensional histogram is built for every dimension and the
    density of the bin containing the max-min object measures how likely
    the dimension is to be relevant to the cluster centred around that
    object.  The value returned is the fraction of (restricted) objects
    falling in the anchor's bin, so it is comparable across dimensions.
    """
    data = check_array_2d(data, name="data")
    if not 0 <= dimension < data.shape[1]:
        raise ValueError("dimension %d outside [0, %d)" % (dimension, data.shape[1]))
    bins = check_positive_int(bins, name="bins", minimum=2)
    if restrict_to is None:
        column = data[:, dimension]
    else:
        indices = check_index_sequence(restrict_to, data.shape[0], name="restrict_to", allow_empty=False)
        column = data[indices, dimension]
    low, high = float(column.min()), float(column.max())
    span = high - low if high > low else 1.0
    scaled = (column - low) / span * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    anchor_scaled = (float(anchor_value) - low) / span * bins
    anchor_bin = int(np.clip(anchor_scaled, 0, bins - 1))
    count = int(np.count_nonzero(bin_indices == anchor_bin))
    return count / float(column.shape[0])


def one_dimensional_density_profile(
    space: GridSpace,
    anchor: Sequence[float],
    *,
    bins: int,
) -> np.ndarray:
    """:func:`one_dimensional_density` for every candidate dimension of ``space``.

    The no-knowledge initialisation case needs the anchor-bin density of
    *all* ``d`` dimensions; calling the scalar helper per dimension costs
    ``d`` validations and ``d`` Python-level passes.  This version counts
    over the bin rows ``space`` prepared for ``bins`` (the lows and spans
    its grids use) and returns one density per candidate dimension, in
    candidate order, with values identical to the scalar helper.
    ``anchor`` is a full ``d``-vector; an anchor coordinate outside the
    range falls in the nearest edge bin, and a non-finite one has no bin.
    """
    anchor = np.asarray(anchor, dtype=float).ravel()
    if anchor.shape[0] != space.n_dimensions:
        raise ValueError("anchor must provide one value per dimension")
    coords = anchor[space.candidate_dimensions]
    if not np.isfinite(coords).all():
        raise ValueError("anchor must be finite in the candidate dimensions")
    bin_indices = space.binned(bins)
    anchor_scaled = (coords - space.lows) / space.spans * bins
    # Clip before the cast: a far-out coordinate would overflow int.
    anchor_bins = np.clip(anchor_scaled, 0, bins - 1).astype(int)
    counts = np.count_nonzero(bin_indices == anchor_bins[:, None], axis=1)
    return counts / float(space.n_objects)
