"""Fit memory stays a small multiple of the input.

The max-min anchor once broadcast every earlier seed group's
``(objects x seeds x dimensions)`` differences for each new public
group, which put the peak of the unlabeled n=5000 fit below at 63 times
the input's bytes.  The running-minimum anchor evaluates one group at a
time in row blocks of bounded size.
"""

from __future__ import annotations

import tracemalloc

from repro.core.sspc import SSPC
from repro.data.generator import make_projected_clusters

#: Peak traced allocation of a fit, as a multiple of the input's bytes.
PEAK_TO_INPUT_BOUND = 20.0


def test_unlabeled_fit_peak_memory_is_bounded_by_input():
    data = make_projected_clusters(
        n_objects=5000,
        n_dimensions=100,
        n_clusters=5,
        avg_cluster_dimensionality=8,
        random_state=0,
    ).data
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        SSPC(n_clusters=5, m=0.5, random_state=0).fit(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_TO_INPUT_BOUND * data.nbytes, (
        "fit peak %.1f MiB is %.1fx the %.1f MiB input"
        % (peak / 2**20, peak / data.nbytes, data.nbytes / 2**20)
    )
