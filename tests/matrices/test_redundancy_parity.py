"""Representation parity for the polymorphic redundancy matrices.

Every physical representation of the same logical ``R_k`` — lazy all-ones,
CSR complement, dense mask — must produce identical results for ``apply()``
(dense and CSR contributions), ``column_mask()``, ``row_mask()``,
``redundancy_ratio`` and ``__eq__``. Checked across the four Table I
integration scenarios plus the one-hot generator.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.matrices.redundancy_matrix import (
    DenseRedundancy,
    RedundancyMatrix,
    SparseComplementRedundancy,
    TrivialRedundancy,
)


def equivalent_representations(redundancy):
    """Every representation that can encode this factor's mask."""
    dense_mask = redundancy.to_dense()
    complement = sparse.csr_matrix(dense_mask == 0)
    representations = [
        DenseRedundancy(redundancy.source_name, dense_mask),
        SparseComplementRedundancy(redundancy.source_name, complement),
    ]
    if redundancy.is_trivial:
        representations.append(TrivialRedundancy(redundancy.source_name, redundancy.shape))
    return representations


def all_factor_redundancies(dataset):
    return [factor.redundancy for factor in dataset.factors]


@pytest.fixture
def one_hot_dataset():
    return generate_one_hot_pair(OneHotSpec(n_rows=60, n_categories=9, seed=5))


class TestScenarioParity:
    """Parity over the four Table I scenarios (scenario_dataset fixture)."""

    def test_apply_dense_contribution(self, scenario_dataset, rng):
        for redundancy in all_factor_redundancies(scenario_dataset):
            contribution = rng.standard_normal(redundancy.shape)
            expected = contribution * redundancy.to_dense()
            for representation in equivalent_representations(redundancy):
                assert np.allclose(representation.apply(contribution), expected)

    def test_apply_csr_contribution_stays_csr(self, scenario_dataset, rng):
        for redundancy in all_factor_redundancies(scenario_dataset):
            dense = rng.standard_normal(redundancy.shape)
            dense[rng.random(redundancy.shape) < 0.8] = 0.0
            contribution = sparse.csr_matrix(dense)
            expected = dense * redundancy.to_dense()
            for representation in equivalent_representations(redundancy):
                masked = representation.apply(contribution)
                assert sparse.issparse(masked)
                assert np.allclose(masked.toarray(), expected)

    def test_aggregate_masks_and_ratio(self, scenario_dataset):
        for redundancy in all_factor_redundancies(scenario_dataset):
            representations = equivalent_representations(redundancy)
            reference = representations[0]
            for representation in representations[1:]:
                assert np.allclose(representation.column_mask(), reference.column_mask())
                assert np.allclose(representation.row_mask(), reference.row_mask())
                assert representation.redundancy_ratio == pytest.approx(reference.redundancy_ratio)
                assert representation.n_redundant == reference.n_redundant

    def test_equality_across_representations(self, scenario_dataset):
        for redundancy in all_factor_redundancies(scenario_dataset):
            representations = equivalent_representations(redundancy)
            for left in representations:
                for right in representations:
                    assert left == right
                assert left == redundancy

    def test_inequality_when_masks_differ(self, scenario_dataset):
        for redundancy in all_factor_redundancies(scenario_dataset):
            flipped = redundancy.to_dense()
            flipped[0, 0] = 0.0 if flipped[0, 0] == 1.0 else 1.0
            other = RedundancyMatrix("other", flipped)
            for representation in equivalent_representations(redundancy):
                assert representation != other

    def test_select_columns_parity(self, scenario_dataset):
        for redundancy in all_factor_redundancies(scenario_dataset):
            keep = list(range(0, redundancy.shape[1], 2))
            expected = redundancy.to_dense()[:, keep]
            for representation in equivalent_representations(redundancy):
                selected = representation.select_columns(keep)
                assert selected.shape == (redundancy.shape[0], len(keep))
                assert np.array_equal(selected.to_dense(), expected)

    def test_submatrix_parity(self, scenario_dataset):
        for redundancy in all_factor_redundancies(scenario_dataset):
            rows = np.arange(0, redundancy.shape[0], 3)
            cols = list(range(redundancy.shape[1]))[::-1]
            expected = redundancy.to_dense()[np.ix_(rows, cols)]
            for representation in equivalent_representations(redundancy):
                restricted = representation.submatrix(rows, cols)
                assert np.array_equal(restricted.to_dense(), expected)


class TestOneHotParity:
    """The one-hot generator produces trivial masks; all parity bars hold."""

    def test_masks_are_trivial_and_o1(self, one_hot_dataset):
        for factor in one_hot_dataset.factors:
            assert isinstance(factor.redundancy, TrivialRedundancy)
            assert factor.redundancy.nbytes == 0

    def test_apply_parity(self, one_hot_dataset, rng):
        for redundancy in all_factor_redundancies(one_hot_dataset):
            contribution = rng.standard_normal(redundancy.shape)
            for representation in equivalent_representations(redundancy):
                assert np.allclose(representation.apply(contribution), contribution)

    def test_equality_and_masks(self, one_hot_dataset):
        for redundancy in all_factor_redundancies(one_hot_dataset):
            for representation in equivalent_representations(redundancy):
                assert representation == redundancy
                assert representation.redundancy_ratio == 0.0
                assert not representation.column_mask().any()
                assert not representation.row_mask().any()


class TestAutoConstructor:
    """RedundancyMatrix(name, mask) picks the representation by ratio."""

    def test_all_ones_is_trivial(self):
        mask = np.ones((12, 6))
        assert isinstance(RedundancyMatrix("S", mask), TrivialRedundancy)

    def test_light_redundancy_is_sparse_complement(self):
        mask = np.ones((20, 10))
        mask[3, 4] = 0.0
        matrix = RedundancyMatrix("S", mask)
        assert isinstance(matrix, SparseComplementRedundancy)
        assert matrix.n_redundant == 1

    def test_heavy_redundancy_falls_back_to_dense(self):
        mask = np.ones((20, 10))
        mask[:, :5] = 0.0  # ratio 0.5, above the dispatch threshold
        matrix = RedundancyMatrix("S", mask)
        assert isinstance(matrix, DenseRedundancy)

    def test_from_rectangle_matches_dense_construction(self):
        rows = [1, 3, 4]
        cols = [0, 2]
        mask = np.ones((6, 4))
        mask[np.ix_(rows, cols)] = 0.0
        from_rectangle = RedundancyMatrix.from_rectangle("S", (6, 4), rows, cols)
        assert from_rectangle == RedundancyMatrix("S", mask)
        assert from_rectangle.n_redundant == 6

    def test_from_complement_rejects_shape_mismatch(self):
        from repro.exceptions import MappingError

        complement = sparse.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(MappingError):
            RedundancyMatrix.from_complement("S", (4, 4), complement)

    def test_subclass_constructors_accept_full_signatures(self):
        from repro.exceptions import MappingError

        complement = sparse.csr_matrix(np.eye(3))
        matrix = SparseComplementRedundancy("S", complement, shape=(3, 3))
        assert matrix.n_redundant == 3
        with pytest.raises(MappingError):
            SparseComplementRedundancy("S", complement, shape=(4, 4))

    def test_auto_constructor_copies_callers_mask(self):
        mask = np.ones((4, 4))
        mask[:, :2] = 0.0
        matrix = RedundancyMatrix("S", mask)
        mask[0, 2] = 0.0  # later caller mutation must not corrupt the matrix
        assert matrix.n_redundant == 8
        assert matrix.to_dense()[0, 2] == 1.0

    def test_keyword_invocation_dispatches(self):
        matrix = RedundancyMatrix(source_name="S", mask=np.ones((3, 3)))
        assert isinstance(matrix, TrivialRedundancy)

    def test_apply_accepts_array_like(self):
        mask = np.ones((2, 2))
        mask[0, 0] = 0.0
        for representation in equivalent_representations(RedundancyMatrix("S", mask)):
            masked = representation.apply([[1.0, 2.0], [3.0, 4.0]])
            assert masked[0, 0] == 0.0
            assert masked[1, 1] == 4.0
