"""Tests for repro.matrices.redundancy_matrix (paper §III-C, Figure 4c)."""

import numpy as np
import pytest
from scipy import sparse

from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.exceptions import MappingError
from repro.matrices.redundancy_matrix import RedundancyMatrix


@pytest.fixture
def r2():
    """R2 of the running example: the Jane row's m and a cells (already in S1)
    are redundant for S2 — zeros at target row 3, columns m (0) and a (1)."""
    mask = np.ones((6, 4))
    mask[3, 0] = 0.0
    mask[3, 1] = 0.0
    return RedundancyMatrix.from_mask("S2", mask)


def _heavy_mask(shape, n_redundant):
    """A seeded 0/1 mask with ``n_redundant`` zero cells scattered over it."""
    mask = np.ones(shape)
    cells = np.random.default_rng(0).choice(mask.size, n_redundant, replace=False)
    mask.flat[cells] = 0.0
    return mask


#: The ``R_k`` shapes the end-to-end workloads build above 10 % redundancy:
#: ``csv_facade_train``'s S2 (13 %), ``serving_mixed``'s row form (33 %), and
#: a block whose every cell is redundant (100 %).
HEAVY_MASKS = {
    "13%": ((3_000, 77), 30_000),
    "33%": ((6_000, 12), 24_000),
    "100%": ((750, 40), 30_000),
}


@pytest.fixture(params=list(HEAVY_MASKS), ids=str)
def heavy(request):
    shape, n_redundant = HEAVY_MASKS[request.param]
    mask = _heavy_mask(shape, n_redundant)
    return RedundancyMatrix.from_mask("S", mask), mask


class TestStructure:
    def test_counts(self, r2):
        assert r2.shape == (6, 4)
        assert r2.n_redundant == 2
        assert r2.redundancy_ratio == pytest.approx(2 / 24)
        assert not r2.is_trivial

    def test_all_ones_base_matrix(self):
        base = RedundancyMatrix.all_ones("S1", 6, 4)
        assert base.is_trivial
        assert base.n_redundant == 0
        assert RedundancyMatrix.from_mask("S1", np.ones((6, 4))) == base

    def test_validation(self):
        with pytest.raises(MappingError):
            RedundancyMatrix.from_mask("S", np.array([1.0, 0.0]))  # 1-D
        with pytest.raises(MappingError):
            RedundancyMatrix.from_mask("S", np.array([[0.5]]))  # non-binary
        with pytest.raises(MappingError):
            RedundancyMatrix("S", (-1, 2))
        with pytest.raises(MappingError, match="does not match"):
            RedundancyMatrix.from_complement("S", (4, 4), sparse.csr_matrix((3, 3)))

    def test_validation_rejects_nan_explicitly(self):
        with pytest.raises(MappingError, match="NaN"):
            RedundancyMatrix.from_mask("S", np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_validation_accepts_int_and_bool_masks(self):
        assert RedundancyMatrix.from_mask("S", np.ones((3, 2), dtype=int)).is_trivial
        mask = np.ones((3, 2), dtype=bool)
        mask[1, 1] = False
        assert RedundancyMatrix.from_mask("S", mask).n_redundant == 1

    def test_constructors_copy_the_callers_input(self):
        mask = np.ones((4, 4))
        mask[:, :2] = 0.0
        complement = sparse.csr_matrix(mask == 0)
        from_mask = RedundancyMatrix.from_mask("S", mask)
        from_complement = RedundancyMatrix.from_complement("S", (4, 4), complement)
        # Later caller mutations must not reach the matrices.
        mask[0, 2] = 0.0
        complement.data[:] = False
        for matrix in (from_mask, from_complement):
            assert matrix.n_redundant == 8
            assert np.array_equal(matrix.to_dense()[0], [0.0, 0.0, 1.0, 1.0])

    def test_trivial_is_lazy(self):
        # A mask dwarfing RAM as a dense array costs nothing stored lazily.
        base = RedundancyMatrix.all_ones("S1", 10**7, 10**5)
        assert base.nbytes == 0
        assert base.dense_nbytes == 10**7 * 10**5 * 8
        assert base.redundancy_ratio == 0.0
        # The one-hot generator's masks are trivial too.
        one_hot = generate_one_hot_pair(OneHotSpec(n_rows=60, n_categories=9, seed=5))
        for factor in one_hot.factors:
            assert factor.redundancy.is_trivial
            assert factor.redundancy.nbytes == 0

    def test_heavy_mask_bytes_bound(self, heavy):
        matrix, mask = heavy
        assert matrix.n_redundant == int((mask == 0).sum())
        bound = 12 * matrix.n_redundant + 8 * (matrix.shape[0] + 1)
        assert matrix.nbytes <= bound


class TestApplication:
    def test_apply_hadamard(self, r2, rng):
        contribution = rng.standard_normal((6, 4))
        # Array-likes are accepted as well as arrays.
        for operand in (contribution, contribution.tolist()):
            masked = r2.apply(operand)
            assert masked[3, 0] == 0.0
            assert masked[3, 1] == 0.0
            assert np.array_equal(masked[0], contribution[0])

    def test_apply_shape_mismatch(self, r2):
        with pytest.raises(MappingError):
            r2.apply(np.zeros((2, 2)))

    def test_sparse_complement_holds_redundant_cells(self, r2):
        complement = r2.to_sparse_complement()
        assert complement.nnz == 2
        assert complement[3, 0] == 1.0

    def test_row_and_column_masks(self, r2):
        assert r2.row_mask()[3] == pytest.approx(2 / 4)
        assert r2.column_mask()[0] == pytest.approx(1 / 6)
        assert r2.column_mask()[2] == 0.0

    def test_equality(self, r2):
        assert RedundancyMatrix.from_mask("S2", r2.to_dense()) == r2
        assert RedundancyMatrix.from_rectangle("S2", (6, 4), [3], [0, 1]) == r2
        assert RedundancyMatrix.all_ones("S2", 6, 4) != r2
        flipped = r2.to_dense()
        flipped[0, 0] = 0.0
        assert RedundancyMatrix.from_mask("S2", flipped) != r2
        flipped[3, 0] = 1.0  # same count, different cells
        assert RedundancyMatrix.from_mask("S2", flipped) != r2

    def test_apply_matches_the_dense_mask(self, heavy):
        matrix, mask = heavy
        rng = np.random.default_rng(1)
        dense = rng.standard_normal(mask.shape)
        dense[rng.random(mask.shape) < 0.8] = 0.0
        assert np.array_equal(matrix.apply(dense), dense * mask)
        masked = matrix.apply(sparse.csr_matrix(dense))
        assert sparse.issparse(masked)
        assert np.array_equal(masked.toarray(), dense * mask)

    def test_slices_match_the_dense_mask(self, heavy):
        matrix, mask = heavy
        keep = list(range(0, mask.shape[1], 2))
        assert np.array_equal(matrix.select_columns(keep).to_dense(), mask[:, keep])
        rows = np.arange(0, mask.shape[0], 3)
        cols = list(range(mask.shape[1]))[::-1]
        restricted = matrix.submatrix(rows, cols)
        assert np.array_equal(restricted.to_dense(), mask[np.ix_(rows, cols)])
        assert np.allclose(matrix.column_mask(), 1.0 - mask.mean(axis=0))
        assert np.allclose(matrix.row_mask(), 1.0 - mask.mean(axis=1))

    def test_apply_preserves_csr_storage(self, r2, rng):
        dense = rng.standard_normal((6, 4))
        dense[dense < 0] = 0.0
        masked = r2.apply(sparse.csr_matrix(dense))
        assert sparse.issparse(masked)
        assert masked[3, 0] == 0.0
        assert np.allclose(masked.toarray(), dense * r2.to_dense())

    def test_apply_no_op_for_trivial(self, rng):
        trivial = RedundancyMatrix.all_ones("S1", 6, 4)
        contribution = rng.standard_normal((6, 4))
        assert np.shares_memory(trivial.apply(contribution), contribution)
        csr = sparse.csr_matrix(contribution)
        assert trivial.apply(csr) is csr


def _scenario_matrices(dataset):
    """Each factor's ``R_k`` with its dense mask and its two rebuilds."""
    for factor in dataset.factors:
        matrix = factor.redundancy
        mask = matrix.to_dense()
        rebuilds = (
            RedundancyMatrix.from_mask(matrix.source_name, mask),
            RedundancyMatrix.from_complement(
                matrix.source_name, matrix.shape, sparse.csr_matrix(mask == 0)
            ),
        )
        yield matrix, mask, rebuilds


class TestScenarioMasks:
    """The ``R_k`` the builder derives for the four Table I scenarios
    (scenario_dataset fixture) against its dense 0/1 reference."""

    def test_apply_matches_the_dense_mask(self, scenario_dataset, rng):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            contribution = rng.standard_normal(matrix.shape)
            for candidate in (matrix, *rebuilds):
                assert np.array_equal(candidate.apply(contribution), contribution * mask)

    def test_apply_keeps_csr_contributions_sparse(self, scenario_dataset, rng):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            dense = rng.standard_normal(matrix.shape)
            dense[rng.random(matrix.shape) < 0.8] = 0.0
            for candidate in (matrix, *rebuilds):
                masked = candidate.apply(sparse.csr_matrix(dense))
                assert sparse.issparse(masked)
                assert np.array_equal(masked.toarray(), dense * mask)

    def test_aggregate_masks_and_ratio(self, scenario_dataset):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            for candidate in (matrix, *rebuilds):
                assert np.allclose(candidate.column_mask(), 1.0 - mask.mean(axis=0))
                assert np.allclose(candidate.row_mask(), 1.0 - mask.mean(axis=1))
                assert candidate.n_redundant == int((mask == 0).sum())
                assert candidate.redundancy_ratio == pytest.approx(1.0 - mask.mean())
                assert candidate.to_sparse_complement().nnz == candidate.n_redundant

    def test_rebuilds_compare_equal(self, scenario_dataset):
        for matrix, _, rebuilds in _scenario_matrices(scenario_dataset):
            for candidate in rebuilds:
                assert candidate == matrix
                assert matrix == candidate

    def test_flipped_cell_compares_unequal(self, scenario_dataset):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            flipped = mask.copy()
            flipped[0, 0] = 1.0 - flipped[0, 0]
            other = RedundancyMatrix.from_mask(matrix.source_name, flipped)
            for candidate in (matrix, *rebuilds):
                assert candidate != other

    def test_select_columns_matches_the_dense_mask(self, scenario_dataset):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            keep = list(range(0, matrix.shape[1], 2))
            for candidate in (matrix, *rebuilds):
                selected = candidate.select_columns(keep)
                assert selected.shape == (matrix.shape[0], len(keep))
                assert np.array_equal(selected.to_dense(), mask[:, keep])

    def test_submatrix_matches_the_dense_mask(self, scenario_dataset):
        for matrix, mask, rebuilds in _scenario_matrices(scenario_dataset):
            rows = np.arange(0, matrix.shape[0], 3)
            cols = list(range(matrix.shape[1]))[::-1]
            for candidate in (matrix, *rebuilds):
                restricted = candidate.submatrix(rows, cols)
                assert np.array_equal(restricted.to_dense(), mask[np.ix_(rows, cols)])
