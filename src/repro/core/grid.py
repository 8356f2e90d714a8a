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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_array_2d, check_index_sequence, check_positive_int


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


class Grid:
    """Equal-width multi-dimensional histogram over selected dimensions.

    Parameters
    ----------
    data:
        The full ``(n, d)`` dataset.
    dimensions:
        The building dimensions (the grid only spans these).
    bins_per_dimension:
        Number of equal-width bins per building dimension.  The paper
        keeps the number of building dimensions small (3) so each cell
        still holds enough objects; with ``b`` bins per dimension a grid
        has ``b ** c`` cells.
    restrict_to:
        Optional subset of object indices to place in the grid (used when
        previously seeded clusters' likely members are excluded).
    """

    def __init__(
        self,
        data,
        dimensions: Sequence[int],
        *,
        bins_per_dimension: int = 5,
        restrict_to: Optional[Sequence[int]] = None,
    ) -> None:
        self.data = check_array_2d(data, name="data")
        self.dimensions = check_index_sequence(
            dimensions, self.data.shape[1], name="dimensions", allow_empty=False
        )
        self.bins_per_dimension = check_positive_int(
            bins_per_dimension, name="bins_per_dimension", minimum=2
        )
        if restrict_to is None:
            self.object_indices = np.arange(self.data.shape[0])
        else:
            self.object_indices = check_index_sequence(
                restrict_to, self.data.shape[0], name="restrict_to", allow_empty=False
            )
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        # One row per building dimension: every reduction below then runs
        # along contiguous memory.  The arithmetic is elementwise, so the
        # bins are the ones a row-per-object layout gives.
        values = self.data.T[self.dimensions].take(self.object_indices, axis=1)
        lows = values.min(axis=1)
        highs = values.max(axis=1)
        spans = np.where(highs > lows, highs - lows, 1.0)
        # Scale each coordinate into [0, bins) and clip the right edge so the
        # maximum falls in the last bin rather than a phantom extra bin.
        scaled = (values - lows[:, None]) / spans[:, None] * self.bins_per_dimension
        bin_indices = np.minimum(scaled.astype(int), self.bins_per_dimension - 1)

        self._lows = lows
        self._spans = spans
        # Group objects by cell in one vectorised pass: stable lexsort of
        # the bin tuples brings equal cells together (lexsort handles any
        # number of building dimensions — no dense cell-id encoding that
        # could overflow for large bins ** c), then split at the boundaries.
        # Cells are inserted in first-occurrence (row) order and members
        # keep their row order, so the mapping — including the
        # iteration-order tie-breaking of :meth:`absolute_peak` — is
        # identical to a per-row dictionary build.  The cell keys come
        # from one ``tolist()`` of the cells' first rows.
        self._cells: Dict[Tuple[int, ...], np.ndarray] = {}
        n_rows = bin_indices.shape[1]
        if n_rows == 0:
            return
        order = np.lexsort(bin_indices)
        sorted_bins = bin_indices[:, order]
        sorted_objects = self.object_indices[order]
        changed = np.any(sorted_bins[:, 1:] != sorted_bins[:, :-1], axis=0)
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        first_rows = order[starts]
        ends = np.concatenate((starts[1:], [n_rows]))
        perm = np.argsort(first_rows, kind="stable")
        keys = bin_indices[:, first_rows[perm]].T.tolist()
        for key, start, end in zip(keys, starts[perm].tolist(), ends[perm].tolist()):
            self._cells[tuple(key)] = sorted_objects[start:end]

    # ------------------------------------------------------------------ #
    # cell queries
    # ------------------------------------------------------------------ #
    @property
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def cell_members(self, cell: Tuple[int, ...]) -> np.ndarray:
        """Object indices in one cell (empty array for empty cells)."""
        members = self._cells.get(tuple(cell))
        if members is None:
            return np.empty(0, dtype=int)
        return members

    def cell_density(self, cell: Tuple[int, ...]) -> int:
        """Number of objects in one cell."""
        members = self._cells.get(tuple(cell))
        return 0 if members is None else int(members.size)

    def cell_of(self, point: Sequence[float]) -> Tuple[int, ...]:
        """The cell containing an arbitrary point (full ``d``-vector)."""
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != self.data.shape[1]:
            raise ValueError("point must be a full d-dimensional vector")
        coords = point[self.dimensions]
        scaled = (coords - self._lows) / self._spans * self.bins_per_dimension
        clipped = np.clip(scaled.astype(int), 0, self.bins_per_dimension - 1)
        return tuple(int(b) for b in clipped)

    # ------------------------------------------------------------------ #
    # peak searches
    # ------------------------------------------------------------------ #
    def absolute_peak(self) -> GridSearchResult:
        """The densest cell of the whole grid."""
        if not self._cells:
            return GridSearchResult(
                cell=(), members=np.empty(0, dtype=int), density=0, dimensions=self.dimensions
            )
        best_cell = max(self._cells, key=lambda cell: len(self._cells[cell]))
        members = self.cell_members(best_cell)
        return GridSearchResult(
            cell=best_cell,
            members=members,
            density=int(members.size),
            dimensions=self.dimensions,
        )

    def hill_climb(self, start_point: Sequence[float]) -> GridSearchResult:
        """Localized hill-climbing search from the cell containing ``start_point``.

        Repeatedly moves to the densest neighbouring cell (including
        diagonal neighbours) until no neighbour is denser — this locates
        the local density peak nearest the anchor, which the paper uses
        both to deal with multi-peak grids and to correct anchors biased
        towards one side of the cluster.
        """
        current = self.cell_of(start_point)
        current_density = self.cell_density(current)
        improved = True
        while improved:
            improved = False
            for neighbour in self._neighbours(current):
                density = self.cell_density(neighbour)
                if density > current_density:
                    current, current_density = neighbour, density
                    improved = True
        members = self.cell_members(current)
        return GridSearchResult(
            cell=current,
            members=members,
            density=int(members.size),
            dimensions=self.dimensions,
        )

    def _neighbours(self, cell: Tuple[int, ...]):
        """All neighbouring cells of ``cell`` (Moore neighbourhood)."""
        offsets = itertools.product((-1, 0, 1), repeat=len(cell))
        for offset in offsets:
            if all(delta == 0 for delta in offset):
                continue
            neighbour = tuple(coordinate + delta for coordinate, delta in zip(cell, offset))
            if all(0 <= coordinate < self.bins_per_dimension for coordinate in neighbour):
                yield neighbour


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
    data,
    anchor: Sequence[float],
    *,
    bins: int = 10,
    restrict_to: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """:func:`one_dimensional_density` for every dimension in one pass.

    The no-knowledge initialisation case needs the anchor-bin density of
    *all* ``d`` dimensions; calling the scalar helper per dimension costs
    ``d`` validations and ``d`` Python-level passes.  This vectorised
    version bins every column at once and returns the length-``d``
    density vector, with values identical to the scalar helper.
    """
    data = check_array_2d(data, name="data")
    bins = check_positive_int(bins, name="bins", minimum=2)
    anchor = np.asarray(anchor, dtype=float).ravel()
    if anchor.shape[0] != data.shape[1]:
        raise ValueError("anchor must provide one value per dimension")
    if restrict_to is None:
        block = data
    else:
        indices = check_index_sequence(
            restrict_to, data.shape[0], name="restrict_to", allow_empty=False
        )
        block = data[indices]
    lows = block.min(axis=0)
    highs = block.max(axis=0)
    spans = np.where(highs > lows, highs - lows, 1.0)
    scaled = (block - lows) / spans * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    anchor_scaled = (anchor - lows) / spans * bins
    anchor_bins = np.clip(anchor_scaled.astype(int), 0, bins - 1)
    counts = np.count_nonzero(bin_indices == anchor_bins, axis=0)
    return counts / float(block.shape[0])
