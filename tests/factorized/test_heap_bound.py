"""The factorized operators hold less memory than the dense target.

On a 10:1 key-foreign-key join (20 000 × 3 ⋈ 2 000 × 60, a 10.1 MB dense
target) the ``tracemalloc`` peak of one ``crossprod``, ``lmm`` and
``transpose_lmm`` on a fresh matrix, and of a five-iteration GD fit, each
stays below half the dense target's bytes: no operator expands a factor
to the join. ``tracemalloc`` sees numpy's buffers, so the peak counts
every array an operator allocates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized import AmalurMatrix
from repro.learning import LinearRegression

HEAP_BOUND = 0.5  # peak heap / dense target bytes


@pytest.fixture(scope="module")
def join_10_to_1():
    dataset = generate_integrated_pair(SyntheticSiloSpec(
        base_rows=20_000, base_columns=3, other_rows=2_000, other_columns=60,
        redundancy_in_target=True, seed=0,
    ))
    dataset.label_column = dataset.target_columns[0]
    return dataset


def _peak_over_dense(dataset, run) -> float:
    matrix = AmalurMatrix(dataset)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        run(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_rows, n_columns = dataset.shape
    return (peak - baseline) / (n_rows * n_columns * 8)


def _fit(matrix):
    LinearRegression(solver="gd", n_iterations=5).fit(
        matrix.feature_matrix_view(), matrix.labels()
    )


@pytest.mark.parametrize("operator", ["crossprod", "lmm", "transpose_lmm", "gd_fit"])
def test_operator_heap_peak_stays_below_half_the_dense_target(join_10_to_1, operator):
    rng = np.random.default_rng(0)
    n_rows, n_columns = join_10_to_1.shape
    runs = {
        "crossprod": lambda m: m.crossprod(),
        "lmm": lambda m: m.lmm(rng.standard_normal((n_columns, 1))),
        "transpose_lmm": lambda m: m.transpose_lmm(rng.standard_normal((n_rows, 1))),
        "gd_fit": _fit,
    }
    assert _peak_over_dense(join_10_to_1, runs[operator]) < HEAP_BOUND


def test_cross_term_is_charged_the_order_that_ran(join_10_to_1):
    """The fact × dimension term segment-sums the fact rows onto the 2 000
    dimension rows and multiplies there — the cheaper of the two orders —
    and ``crossprod.cross`` is that order's count."""
    matrix = AmalurMatrix(join_10_to_1)
    matrix.crossprod()
    outer, inner, composed = matrix._composed[(0, 1)]
    assert (outer, inner) == (1, 0)
    assert composed.shape == (2_000, 20_000) and composed.nnz == 20_000
    ran = 20_000 * 3 + 2_000 * 60 * 3
    other = 20_000 * 60 + 20_000 * 3 * 60
    assert ran < other
    assert matrix.counter.by_operation["crossprod.cross"] == ran
