"""Property test of the quality solve: the exact minimum held to the dense-grid oracle."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from qdel.deletion import _GRID, _bound_values, optimal_quality

# derandomized, so that every run draws the same examples and writes no example database
PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def pair(i: int) -> tuple[int, int]:
    """The i-th (N, M) with 1 <= M <= N, counted row by row: (1, 1), (2, 1), (2, 2), (3, 1), ..."""
    n = (math.isqrt(8 * i + 1) + 1) // 2
    return n, i - n * (n - 1) // 2 + 1


# an index over all 131,328 pairs with N <= 512 spreads the draws; drawn N and M crowd M = N
copy_counts = st.integers(0, 512 * 513 // 2 - 1).map(pair)


@PROPERTIES
@given(copy_counts)
def test_min_bound_is_at_or_below_the_dense_grid(counts):
    n, m = counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optimal_quality(n, m)
    assert report.min_bound <= _bound_values(_GRID, n, m).min()
    assert report.min_bound <= report.formula_value + 1e-12
    assert _bound_values(np.array([report.argmin_alpha_sq]), n, m)[0] == report.min_bound
