"""Input validation helpers shared across the library.

The algorithms in this package operate on plain ``numpy`` arrays.  The
validators below convert inputs to the canonical representation
(``float64`` C-contiguous matrices) and raise informative errors early so
that failures do not surface deep inside the iterative optimisation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


def check_array_2d(
    data,
    *,
    name: str = "data",
    min_rows: int = 1,
    min_cols: int = 1,
    allow_nan: bool = False,
) -> np.ndarray:
    """Validate and convert ``data`` to a 2-D float64 array.

    Parameters
    ----------
    data:
        Anything convertible by :func:`numpy.asarray`.
    name:
        Name used in error messages.
    min_rows, min_cols:
        Minimum acceptable shape.
    allow_nan:
        If ``False`` (default) the presence of NaN or infinity raises.

    Returns
    -------
    numpy.ndarray
        A float64 array of shape ``(n, d)``.
    """
    array = np.asarray(data, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError("%s must be 2-dimensional, got %d dimensions" % (name, array.ndim))
    n_rows, n_cols = array.shape
    if n_rows < min_rows:
        raise ValueError("%s must have at least %d rows, got %d" % (name, min_rows, n_rows))
    if n_cols < min_cols:
        raise ValueError("%s must have at least %d columns, got %d" % (name, min_cols, n_cols))
    if not allow_nan and not np.all(np.isfinite(array)):
        raise ValueError("%s contains NaN or infinite values" % name)
    return np.ascontiguousarray(array)


def check_positive_int(value, *, name: str, minimum: int = 1) -> int:
    """Validate an integer parameter that must be at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError("%s must be an integer, got %r" % (name, type(value).__name__))
    value = int(value)
    if value < minimum:
        raise ValueError("%s must be >= %d, got %d" % (name, minimum, value))
    return value


def check_cluster_count(k, n_objects: int) -> int:
    """Validate the requested number of clusters against the dataset size."""
    k = check_positive_int(k, name="n_clusters", minimum=1)
    if k > n_objects:
        raise ValueError(
            "n_clusters=%d cannot exceed the number of objects (%d)" % (k, n_objects)
        )
    return k


def check_fraction(value, *, name: str, inclusive_low: bool = True, inclusive_high: bool = True) -> float:
    """Validate a parameter constrained to the unit interval."""
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low_bracket = "[" if inclusive_low else "("
        high_bracket = "]" if inclusive_high else ")"
        raise ValueError(
            "%s must lie in %s0, 1%s, got %r" % (name, low_bracket, high_bracket, value)
        )
    return value


def check_probability(value, *, name: str) -> float:
    """Validate a strictly-positive probability below one."""
    return check_fraction(value, name=name, inclusive_low=False, inclusive_high=False)


def check_membership_labels(labels, n_objects: int, *, name: str = "labels") -> np.ndarray:
    """Validate an integer label vector of length ``n_objects``.

    A value of ``-1`` denotes an outlier / unassigned object; values
    ``>= 0`` denote cluster indices.
    """
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ValueError("%s must be 1-dimensional" % name)
    if array.shape[0] != n_objects:
        raise ValueError(
            "%s has length %d, expected %d" % (name, array.shape[0], n_objects)
        )
    if not np.issubdtype(array.dtype, np.integer):
        as_int = array.astype(int)
        if not np.all(as_int == array):
            raise ValueError("%s must contain integers" % name)
        array = as_int
    if array.size and array.min() < -1:
        raise ValueError("%s may not contain values below -1" % name)
    return array.astype(int)


def check_index_sequence(
    indices: Iterable[int],
    upper: int,
    *,
    name: str = "indices",
    allow_empty: bool = True,
    unique: bool = True,
) -> np.ndarray:
    """Validate a sequence of indices into a dimension of size ``upper``.

    Flat signed-integer arrays are copied as they are; anything else
    goes through ``list()`` first.  The duplicate check is skipped for
    strictly increasing input, which cannot repeat.
    """
    if isinstance(indices, np.ndarray) and indices.dtype.kind == "i" and indices.ndim == 1:
        array = np.array(indices, dtype=int)
    else:
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
        if (
            unique
            and not np.all(array[1:] > array[:-1])
            and len(np.unique(array)) != len(array)
        ):
            raise ValueError("%s contains duplicate entries" % name)
    return array


def check_random_partition_sizes(sizes: Sequence[int], total: Optional[int] = None) -> np.ndarray:
    """Validate per-cluster sizes (all positive; optionally summing to ``total``)."""
    array = np.asarray(list(sizes), dtype=int)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("sizes must be a non-empty flat sequence")
    if np.any(array <= 0):
        raise ValueError("all cluster sizes must be positive")
    if total is not None and int(array.sum()) != int(total):
        raise ValueError(
            "cluster sizes sum to %d, expected %d" % (int(array.sum()), int(total))
        )
    return array
