"""Metamorphic tests of a full SSPC fit under uniform affine maps of the data.

The objective phi_ij = 1 - s^2_ij / sigma^2_j and the range-normalised
grids only see the data through ratios and ranks, so a fixed-seed fit
should not care how the whole matrix is scaled or shifted:

* Multiplying by a power of two is exact in float64 (only the exponent
  moves), so every intermediate value scales exactly and the labels stay
  bit-identical.
* A translation or a non-power-of-two scale rounds differently, so only
  the partition is asserted: the set of member sets, which ignores how
  clusters are numbered.

Per-dimension scales (a different factor per column) are *not* asserted:
at these seeds they change the partition of a full fit.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core.sspc import SSPC
from repro.data.generator import make_projected_clusters

SEEDS = range(6)


@lru_cache(maxsize=None)
def _dataset(seed: int) -> np.ndarray:
    return make_projected_clusters(600, 40, 4, 6, random_state=seed).data


def _fit_labels(data: np.ndarray, seed: int) -> np.ndarray:
    return SSPC(4, m=0.5, random_state=seed).fit(data).labels_


@lru_cache(maxsize=None)
def _base_labels(seed: int) -> np.ndarray:
    return _fit_labels(_dataset(seed), seed)


def _partition(labels: np.ndarray) -> frozenset:
    """Clusters as a frozenset of member frozensets (outliers form one set)."""
    return frozenset(
        frozenset(np.flatnonzero(labels == label).tolist()) for label in np.unique(labels)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", [4.0, 2.0 ** -5], ids=["x4", "x2^-5"])
def test_power_of_two_scaling_keeps_labels_bit_identical(seed, factor):
    labels = _fit_labels(_dataset(seed) * factor, seed)
    assert np.array_equal(labels, _base_labels(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "scale, shift", [(1.0, 1e3), (3.7, 12.5)], ids=["+1e3", "x3.7+12.5"]
)
def test_uniform_affine_map_keeps_the_partition(seed, scale, shift):
    labels = _fit_labels(_dataset(seed) * scale + shift, seed)
    assert _partition(labels) == _partition(_base_labels(seed))
