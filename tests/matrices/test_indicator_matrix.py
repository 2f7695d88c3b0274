"""Tests for repro.matrices.indicator_matrix (paper §III-B, Figure 4b)."""

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.matrices.indicator_matrix import IndicatorMatrix


@pytest.fixture
def ci1():
    """CI1 of the running example under the full outer join: 6 target rows,
    the first four map to S1 rows 0..3, the last two are S2-only."""
    return IndicatorMatrix("S1", 6, 4, [0, 1, 2, 3, -1, -1])


@pytest.fixture
def ci2():
    """CI2: only target row 3 (Jane) maps to S2 row 2; rows 4-5 are S2-only."""
    return IndicatorMatrix("S2", 6, 3, [-1, -1, -1, 2, 0, 1])


class TestStructure:
    def test_shapes_and_counts(self, ci1, ci2):
        assert ci1.shape == (6, 4)
        assert ci1.n_mapped == 4
        assert ci2.n_mapped == 3
        assert ci1.density == pytest.approx(4 / 24)

    def test_dense_form(self, ci2):
        dense = ci2.to_dense()
        assert dense.shape == (6, 3)
        assert dense[3, 2] == 1.0
        assert dense[0].sum() == 0.0
        assert dense.sum() == 3.0

    def test_sparse_equals_dense(self, ci1):
        assert np.array_equal(ci1.to_sparse().toarray(), ci1.to_dense())

    def test_lookups(self, ci2):
        assert np.array_equal(ci2.mapped_target_rows(), [3, 4, 5])
        assert ci2.source_row_of(3) == 2
        assert ci2.source_row_of(0) is None

    def test_validation(self):
        with pytest.raises(MappingError):
            IndicatorMatrix("S", 2, 2, [0])  # wrong length
        with pytest.raises(MappingError):
            IndicatorMatrix("S", 2, 2, [0, 5])  # out of range
        with pytest.raises(MappingError):
            IndicatorMatrix("S", 2, 2, [-2, 0])  # invalid negative

    @pytest.mark.parametrize(
        "n_source_rows, compressed, injective",
        [
            (3, [], True),  # empty CI_k
            (0, [], True),  # no source rows at all
            (0, [-1, -1], True),
            (4, [-1, -1, -1], True),  # nothing mapped
            (2, [0, 0, 1, 1, 1], False),  # many-to-one join
            (4, [3, -1, 0, -1], True),  # a 1:1 join with gaps on both sides
            (4, [3, -1, 0, 3], False),
        ],
    )
    def test_is_injective(self, n_source_rows, compressed, injective):
        indicator = IndicatorMatrix("S", len(compressed), n_source_rows, compressed)
        assert indicator.is_injective is injective
        # injectivity is "no source row appears twice among the mapped entries"
        mapped = [j for j in compressed if j >= 0]
        assert injective == (len(set(mapped)) == len(mapped))
        scattered = indicator.apply_transpose(np.ones((len(compressed), 1)))
        assert scattered.shape == (n_source_rows, 1)
        assert scattered.sum() == len(mapped)


class TestApply:
    def test_apply_equals_dense_multiplication(self, ci2, rng):
        data = rng.standard_normal((3, 5))
        assert np.allclose(ci2.apply(data), ci2.to_dense() @ data)

    def test_apply_fill_value_for_unmapped_rows(self, ci2):
        data = np.ones((3, 1))
        lifted = ci2.apply(data, fill=-7.0)
        assert lifted[0, 0] == -7.0
        assert lifted[3, 0] == 1.0

    def test_apply_transpose_equals_dense(self, ci1, rng):
        target = rng.standard_normal((6, 2))
        assert np.allclose(ci1.apply_transpose(target), ci1.to_dense().T @ target)

    def test_apply_transpose_accumulates_duplicates(self):
        # Two target rows map to the same source row (a many-to-one join).
        indicator = IndicatorMatrix("S", 3, 2, [0, 0, 1])
        target = np.array([[1.0], [2.0], [3.0]])
        result = indicator.apply_transpose(target)
        assert result[0, 0] == pytest.approx(3.0)
        assert result[1, 0] == pytest.approx(3.0)

    def test_apply_shape_validation(self, ci1):
        with pytest.raises(MappingError):
            ci1.apply(np.ones((5, 1)))
        with pytest.raises(MappingError):
            ci1.apply_transpose(np.ones((5, 1)))


class TestRoundTrips:
    def test_from_row_pairs(self, ci2):
        rebuilt = IndicatorMatrix.from_row_pairs("S2", 6, 3, [(3, 2), (4, 0), (5, 1)])
        assert rebuilt == ci2

    def test_from_row_pairs_validation(self):
        with pytest.raises(MappingError):
            IndicatorMatrix.from_row_pairs("S", 2, 2, [(0, 0), (0, 1)])  # target row twice
        with pytest.raises(MappingError):
            IndicatorMatrix.from_row_pairs("S", 2, 2, [(5, 0)])
        with pytest.raises(MappingError):
            IndicatorMatrix.from_row_pairs("S", 2, 2, [(0, 5)])

    def test_from_dense_round_trip(self, ci1):
        rebuilt = IndicatorMatrix.from_dense("S1", ci1.to_dense())
        assert rebuilt == ci1

    def test_from_dense_rejects_multiple_sources_per_target_row(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(MappingError):
            IndicatorMatrix.from_dense("S", dense)

    def test_from_dense_rejects_non_binary(self):
        with pytest.raises(MappingError):
            IndicatorMatrix.from_dense("S", np.array([[0.5, 0.0]]))
