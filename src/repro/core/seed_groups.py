"""Seed-group construction (Section 4.2 of the paper).

A *seed group* is a set of seed objects expected to come from a single
real cluster, together with an estimated set of relevant dimensions.
Whenever a cluster needs a (new) medoid it draws one of the seeds of its
seed group and adopts the group's estimated dimensions as its selected
dimensions.

SSPC builds two kinds of seed groups:

* **private** groups for clusters with input knowledge (labeled objects
  and/or labeled dimensions), used exclusively by those clusters, and
* **public** groups shared by all clusters without knowledge, so that
  medoids can be drawn from different seed-group combinations.

The construction differs per knowledge case (Sections 4.2.1-4.2.4):

1. *Both kinds of inputs*: the labeled objects form a temporary cluster
   ``C_i'``; grid-building dimensions are drawn (with probability
   proportional to ``phi_i'j``) from the candidate set ``SelectDim(C_i')
   union Iv_i``; the seeds are the objects in the densest peak cell found
   by hill-climbing from the cell containing the median of the labeled
   objects; the group's dimensions are ``SelectDim(G_i) union Iv_i``.
2. *Labeled objects only*: as case 1 but the candidate set and the
   group's dimensions omit ``Iv_i``.
3. *Labeled dimensions only*: grids are built from ``Iv_i`` only (uniform
   probabilities); the seeds come from the absolute peak of the grid; the
   group's dimensions are ``SelectDim(G_i)`` plus ``Iv_i``.
4. *No inputs*: a max-min object (remote from every already-picked seed
   in the corresponding subspaces) replaces the labeled-object median as
   the anchor; a one-dimensional histogram per dimension measures the
   density around the anchor and sets the probability of the dimension
   being used for grid building; then the procedure of case 2 runs.

Clusters with more knowledge are initialised first (both > objects only >
dimensions only > none; more items first within a category) because
accurately created groups let later groups exclude their likely members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.dimension_selection import select_dimensions
from repro.core.grid import Grid, GridSpace, one_dimensional_density_profile
from repro.core.objective import ObjectiveFunction
from repro.core.thresholds import ChiSquareThreshold
from repro.semisupervision.knowledge import Knowledge
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


@dataclass
class SeedGroup:
    """A set of seeds plus estimated relevant dimensions for one cluster.

    Attributes
    ----------
    seeds:
        Object indices expected to come from one real cluster.
    dimensions:
        Estimated relevant dimensions of that cluster.
    cluster:
        Index of the cluster that owns the group, or ``None`` for public
        groups.
    knowledge_kind:
        Which of the four construction cases produced the group.
    peak_density:
        Density of the winning grid cell (diagnostics).
    """

    seeds: np.ndarray
    dimensions: np.ndarray
    cluster: Optional[int] = None
    knowledge_kind: str = "none"
    peak_density: int = 0
    _untried: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.seeds = np.asarray(sorted(set(int(i) for i in np.asarray(self.seeds).ravel())), dtype=int)
        self.dimensions = np.asarray(
            sorted(set(int(j) for j in np.asarray(self.dimensions).ravel())), dtype=int
        )
        self._untried = list(self.seeds)

    @property
    def is_private(self) -> bool:
        """Whether the group belongs to a specific cluster."""
        return self.cluster is not None

    @property
    def n_seeds(self) -> int:
        """Number of seed objects in the group."""
        return int(self.seeds.size)

    def draw_medoid(self, rng: np.random.Generator) -> int:
        """Draw a seed to serve as a medoid, preferring untried seeds.

        Seeds are drawn without replacement until exhausted, after which
        the full seed list is recycled; this gives the representative-
        replacement step fresh medoid candidates for as long as possible.
        """
        if self.seeds.size == 0:
            raise RuntimeError("cannot draw a medoid from an empty seed group")
        if not self._untried:
            self._untried = list(self.seeds)
        position = int(rng.integers(len(self._untried)))
        return self._untried.pop(position)


class SeedGroupBuilder:
    """Builds private and public seed groups for SSPC's initialisation.

    Parameters
    ----------
    objective:
        The fitted objective function (provides the data, the thresholds
        and ``SelectDim``).
    n_clusters:
        The target number of clusters ``k``.
    knowledge:
        The semi-supervision inputs (possibly empty).
    grid_dimensions:
        Number of building dimensions per grid (the paper's ``c``,
        default 3).
    grids_per_group:
        Number of grids tried per seed group (the paper's ``g``,
        default 20).
    bins_per_dimension:
        Histogram resolution of each grid dimension; ``None`` (default)
        picks the resolution from the number of available objects so a
        background cell is expected to hold a handful of objects.
    public_group_factor:
        Number of public seed groups created per knowledge-free cluster
        ("some large number of public seed groups" in the paper).
    seed_selection_p:
        Significance level of the chi-square criterion used to estimate
        the relevant dimensions of a seed group (and the grid-building
        candidate set).  Seed groups are small object sets, so the
        size-adaptive chi-square criterion is used here regardless of the
        main optimisation's threshold scheme — this is the criterion the
        paper's own knowledge-requirement analysis (Section 4.5) is
        phrased in.
    """

    def __init__(
        self,
        objective: ObjectiveFunction,
        n_clusters: int,
        knowledge: Optional[Knowledge] = None,
        *,
        grid_dimensions: int = 3,
        grids_per_group: int = 20,
        bins_per_dimension: Optional[int] = None,
        public_group_factor: int = 3,
        seed_selection_p: float = 0.01,
    ) -> None:
        self.objective = objective
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
        self.knowledge = knowledge if knowledge is not None else Knowledge.empty()
        self.grid_dimensions = check_positive_int(grid_dimensions, name="grid_dimensions", minimum=1)
        self.grids_per_group = check_positive_int(grids_per_group, name="grids_per_group", minimum=1)
        if bins_per_dimension is not None:
            bins_per_dimension = check_positive_int(
                bins_per_dimension, name="bins_per_dimension", minimum=2
            )
        self.bins_per_dimension = bins_per_dimension
        self.public_group_factor = check_positive_int(
            public_group_factor, name="public_group_factor", minimum=1
        )
        self.seed_selection_p = check_probability(seed_selection_p, name="seed_selection_p")
        self._seed_threshold = ChiSquareThreshold(p=self.seed_selection_p)
        self._seed_threshold.fit_from_variance(objective.threshold.global_variance)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(self, random_state: RandomState = None) -> Tuple[Dict[int, SeedGroup], List[SeedGroup]]:
        """Create all seed groups.

        Returns
        -------
        (private_groups, public_groups)
            ``private_groups`` maps a cluster index to its private seed
            group; ``public_groups`` is the shared pool for clusters
            without knowledge.
        """
        rng = ensure_rng(random_state)
        order = self._initialisation_order()

        private_groups: Dict[int, SeedGroup] = {}
        # Objects not yet claimed as seeds by an earlier group, and the
        # max-min anchor's running distances to those groups' seeds.
        available = np.ones(self.objective.n_objects, dtype=bool)
        anchor = _MaxMinAnchor(self.objective.data)

        for cluster_index in order:
            kind = self.knowledge.knowledge_kind(cluster_index)
            if kind == "none":
                continue
            group = self._build_private_group(cluster_index, kind, available, rng)
            private_groups[cluster_index] = group
            available[group.seeds] = False
            anchor.add(group)

        n_without_knowledge = sum(
            1 for cluster_index in range(self.n_clusters) if cluster_index not in private_groups
        )
        public_groups: List[SeedGroup] = []
        n_public = self.public_group_factor * max(n_without_knowledge, 0)
        for _ in range(n_public):
            group = self._build_public_group(available, anchor, rng)
            if group.n_seeds == 0:
                continue
            public_groups.append(group)
            available[group.seeds] = False
            anchor.add(group)
        return private_groups, public_groups

    # ------------------------------------------------------------------ #
    # ordering
    # ------------------------------------------------------------------ #
    def _initialisation_order(self) -> List[int]:
        """Order clusters by knowledge kind then amount (Section 4.2)."""
        kind_rank = {"both": 0, "objects": 1, "dimensions": 2, "none": 3}

        def sort_key(cluster_index: int) -> Tuple[int, int, int]:
            kind = self.knowledge.knowledge_kind(cluster_index)
            return (kind_rank[kind], -self.knowledge.amount(cluster_index), cluster_index)

        return sorted(range(self.n_clusters), key=sort_key)

    # ------------------------------------------------------------------ #
    # private groups (cases 1-3)
    # ------------------------------------------------------------------ #
    def _build_private_group(
        self,
        cluster_index: int,
        kind: str,
        available: np.ndarray,
        rng: np.random.Generator,
    ) -> SeedGroup:
        available_objects = np.flatnonzero(available)
        labeled_objects = self.knowledge.objects.for_class(cluster_index)
        labeled_dimensions = self.knowledge.dimensions.for_class(cluster_index)

        if kind in ("both", "objects"):
            with obs.span("fit.seed_groups.select_dim", category="fit"):
                candidate_dims, candidate_weights = self._candidates_from_labeled_objects(
                    labeled_objects,
                    labeled_dimensions if kind == "both" else np.empty(0, dtype=int),
                )
            with obs.span("fit.seed_groups.anchor", category="fit"):
                anchor = self._labeled_object_anchor(labeled_objects)
        else:  # kind == "dimensions"
            candidate_dims = labeled_dimensions
            candidate_weights = np.ones(candidate_dims.size)
            anchor = None
        seeds, peak_density = self._search_grids(
            self._grid_space(candidate_dims, available_objects),
            candidate_weights,
            anchor,
            rng,
        )

        if seeds.size == 0:
            # Degenerate fall-back: use the labeled objects themselves (if
            # any) so the cluster still has a medoid to draw.
            seeds = labeled_objects if labeled_objects.size else np.empty(0, dtype=int)

        forced = labeled_dimensions if kind in ("both", "dimensions") else None
        with obs.span("fit.seed_groups.select_dim", category="fit"):
            dimensions = select_dimensions(
                self.objective, seeds, forced_dimensions=forced, threshold=self._seed_threshold
            )
        if dimensions.size == 0 and labeled_dimensions.size:
            dimensions = labeled_dimensions
        return SeedGroup(
            seeds=seeds,
            dimensions=dimensions,
            cluster=cluster_index,
            knowledge_kind=kind,
            peak_density=peak_density,
        )

    def _candidates_from_labeled_objects(
        self,
        labeled_objects: np.ndarray,
        labeled_dimensions: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate grid-building dimensions and their selection weights.

        The candidate set is ``SelectDim(C_i')`` (the temporary cluster of
        labeled objects) plus any labeled dimensions; each candidate's
        probability of being used in a grid is proportional to its
        ``phi_i'j`` score.
        """
        if labeled_objects.size >= 2:
            statistics = self.objective.cluster_statistics(labeled_objects)
            selected = select_dimensions(
                self.objective,
                labeled_objects,
                statistics=statistics,
                threshold=self._seed_threshold,
            )
            phi_scores = self.objective.phi_ij_all(labeled_objects, statistics=statistics)
        else:
            selected = np.empty(0, dtype=int)
            phi_scores = np.zeros(self.objective.n_dimensions)

        candidates = np.union1d(selected, labeled_dimensions).astype(int)
        if candidates.size < self.grid_dimensions:
            # Too few candidates to form a grid — pad with the dimensions
            # along which the labeled objects are tightest (best phi scores).
            needed = self.grid_dimensions - candidates.size
            order = np.argsort(-phi_scores)
            taken = set(candidates.tolist())
            extra = [int(j) for j in order if int(j) not in taken][:needed]
            candidates = np.union1d(candidates, np.asarray(extra, dtype=int)).astype(int)
        if candidates.size == 0:
            # No information at all — fall back to all dimensions, uniform.
            candidates = np.arange(self.objective.n_dimensions)
            return candidates, np.ones(candidates.size)
        weights = phi_scores[candidates]
        # phi scores can be negative (worse than threshold); shift to keep a
        # valid probability vector while preserving the ordering.
        weights = weights - weights.min() + 1e-9
        return candidates, weights

    def _labeled_object_anchor(self, labeled_objects: np.ndarray) -> Optional[np.ndarray]:
        """The median of the labeled objects (hill-climbing start point).

        Shares the statistics pass already performed for the candidate
        dimensions via the objective's :class:`ClusterStatsCache`.
        """
        if labeled_objects.size == 0:
            return None
        return self.objective.cluster_statistics(labeled_objects).median.copy()

    # ------------------------------------------------------------------ #
    # public groups (case 4)
    # ------------------------------------------------------------------ #
    def _build_public_group(
        self,
        available: np.ndarray,
        anchor: _MaxMinAnchor,
        rng: np.random.Generator,
    ) -> SeedGroup:
        available_objects = np.flatnonzero(available)
        if available_objects.size == 0:
            # Every object is already claimed by earlier seed groups; there is
            # nothing left to anchor a new public group on.
            return SeedGroup(seeds=[], dimensions=[], cluster=None, knowledge_kind="none")
        with obs.span("fit.seed_groups.anchor", category="fit"):
            anchor_index = anchor.pick(available_objects, rng)
        anchor_point = self.objective.data[anchor_index]

        histogram_bins = max(2 * self._effective_bins(available_objects.size), 8)
        space = self._grid_space(
            np.arange(self.objective.n_dimensions), available_objects, histogram_bins
        )
        with obs.span("fit.seed_groups.density_profile", category="fit"):
            densities = one_dimensional_density_profile(space, anchor_point, bins=histogram_bins)
        # Weight dimensions by their density *excess* over the uniform
        # baseline (1/bins): a dimension relevant to the cluster centred at
        # the anchor shows a clear excess, while irrelevant dimensions hover
        # around the baseline and receive only a small residual weight.
        baseline = 1.0 / histogram_bins
        weights = np.maximum(densities - baseline, 0.0) + 0.1 * baseline

        seeds, peak_density = self._search_grids(space, weights, anchor_point, rng)
        if seeds.size == 0:
            seeds = np.asarray([anchor_index], dtype=int)
        with obs.span("fit.seed_groups.select_dim", category="fit"):
            dimensions = select_dimensions(self.objective, seeds, threshold=self._seed_threshold)
        return SeedGroup(
            seeds=seeds,
            dimensions=dimensions,
            cluster=None,
            knowledge_kind="none",
            peak_density=peak_density,
        )

    def _effective_bins(self, n_available: int) -> int:
        """Bins per grid dimension.

        When ``bins_per_dimension`` is not fixed by the caller, the
        resolution is chosen so that a cell of the ``c``-dimensional grid
        is expected to hold a handful of background objects (about five):
        with ``b`` bins per dimension there are ``b**c`` cells, so
        ``b ~= (n / 5) ** (1/c)``, clipped to a sane range.  A cluster
        whose local spread is a few percent of the value range then falls
        almost entirely inside one cell and shows up as a strong peak.
        """
        if self.bins_per_dimension is not None:
            return self.bins_per_dimension
        target = (max(n_available, 1) / 5.0) ** (1.0 / self.grid_dimensions)
        return int(np.clip(round(target), 2, 8))

    # ------------------------------------------------------------------ #
    # grid search shared by all cases
    # ------------------------------------------------------------------ #
    def _grid_space(
        self,
        candidate_dimensions: np.ndarray,
        available: np.ndarray,
        *extra_bins: int,
    ) -> Optional[GridSpace]:
        """The ``available`` objects over the candidates, binned once for a search.

        Prepares the grids' bin count plus ``extra_bins``; ``None`` when
        there are no candidates or no objects to search.
        """
        if candidate_dimensions.size == 0 or available.size == 0:
            return None
        bins = (self._effective_bins(available.size),) + extra_bins
        with obs.span("fit.seed_groups.bin", category="fit"):
            return GridSpace(self.objective.data, candidate_dimensions, available, bins=bins)

    def _search_grids(
        self,
        space: Optional[GridSpace],
        weights: np.ndarray,
        anchor: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, int]:
        """Build ``grids_per_group`` grids over ``space``.

        ``weights`` holds one selection weight per candidate dimension.
        Returns the densest peak's members and its density.
        """
        if space is None:
            return np.empty(0, dtype=int), 0
        candidate_dimensions = space.candidate_dimensions
        weights = np.asarray(weights, dtype=float)
        probabilities = weights / weights.sum() if weights.sum() > 0 else None

        n_building = min(self.grid_dimensions, candidate_dimensions.size)
        bins = self._effective_bins(space.n_objects)
        best_members = np.empty(0, dtype=int)
        best_density = 0
        with obs.span("fit.seed_groups.grids", category="fit", grids=self.grids_per_group):
            for _ in range(self.grids_per_group):
                building = rng.choice(
                    candidate_dimensions,
                    size=n_building,
                    replace=False,
                    p=probabilities,
                )
                grid = Grid(space, building, bins_per_dimension=bins)
                if anchor is not None:
                    result = grid.hill_climb(anchor)
                else:
                    result = grid.absolute_peak()
                if result.density > best_density:
                    best_density = result.density
                    best_members = result.members
        return best_members, best_density


class _MaxMinAnchor:
    """The max-min object of Section 4.2.4, kept up to date group by group.

    A public group is anchored on the available object whose minimum
    distance to the seeds of every group built so far is largest.  The
    distance to one group is the squared Euclidean distance to its
    nearest seed in the group's dimensions, divided by their number.
    One length-``n`` vector keeps each object's running minimum, and each
    group is folded into it once, at the first pick after the group was
    added (so a build with no public groups computes no distances).
    Elementwise ``min`` does not depend on order and each row's distance
    does not depend on which other rows are evaluated with it, so the
    anchor is the one a recompute over every group picks.

    Groups without seeds or without dimensions carry no distance and are
    skipped.  Until a group with both has been added, the anchor is a
    random available object.
    """

    #: Elements of the ``(rows, seeds, dimensions)`` difference block
    #: evaluated at once (2 MiB): bounds the temporary memory of a fold and
    #: keeps the block in cache.
    BLOCK_ELEMENTS = 1 << 18

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.min_distance = np.full(data.shape[0], np.inf)
        self.groups: List[SeedGroup] = []
        self._n_folded = 0

    def add(self, group: SeedGroup) -> None:
        """Record a built group; its distances are folded in at the next pick."""
        if group.n_seeds > 0 and group.dimensions.size > 0:
            self.groups.append(group)

    def pick(self, available: np.ndarray, rng: np.random.Generator) -> int:
        """The max-min object among ``available`` (all objects if empty)."""
        for group in self.groups[self._n_folded :]:
            self._fold(group)
        self._n_folded = len(self.groups)
        if available.size == 0:
            available = np.arange(self.data.shape[0])
        if not self.groups:
            return int(available[rng.integers(available.size)])
        return int(available[int(np.argmax(self.min_distance[available]))])

    def _fold(self, group: SeedGroup) -> None:
        dims = group.dimensions
        seeds = self.data[np.ix_(group.seeds, dims)]
        block = max(self.BLOCK_ELEMENTS // (seeds.shape[0] * dims.size), 1)
        for start in range(0, self.data.shape[0], block):
            rows = self.data[start : start + block][:, dims]
            diffs = rows[:, None, :] - seeds[None, :, :]
            np.square(diffs, out=diffs)
            distances = diffs.sum(axis=2).min(axis=1) / dims.size
            np.minimum(
                self.min_distance[start : start + block],
                distances,
                out=self.min_distance[start : start + block],
            )
