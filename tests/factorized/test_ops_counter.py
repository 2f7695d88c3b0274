"""Tests for repro.factorized.ops_counter."""

import numpy as np
import pytest
from scipy import sparse

from repro.backends import SparseBackend
from repro.factorized.ops_counter import (
    FactorStats,
    FlopCounter,
    charges,
    dense_matmul_flops,
    lmm_charges,
    square_charges,
    transpose_lmm_charges,
)


def _csr_with_nnz(nnz: int, shape=(100, 100)) -> sparse.csr_matrix:
    flat = np.zeros(shape[0] * shape[1])
    flat[:nnz] = 1.0
    return sparse.csr_matrix(flat.reshape(shape))


class TestFlopFormulas:
    def test_dense_matmul(self):
        assert dense_matmul_flops(10, 20, 30) == 6000.0


class TestSparseFlopFormulas:
    def test_sparse_matmul(self):
        assert SparseBackend().matmul_flops(_csr_with_nnz(100), 3) == 300.0

    def test_sparse_matmul_undercuts_dense_below_full_density(self):
        # A 100x100 matrix with 500 stored cells (5% dense).
        sparse_local = lmm_charges(FactorStats(500, 100, 100, csr=True), 4)["lmm.local"]
        assert sparse_local < dense_matmul_flops(100, 100, 4)

    def test_sparse_crossprod(self):
        flops = SparseBackend().crossprod_flops(_csr_with_nnz(500))
        assert flops == 50_000.0
        assert flops < dense_matmul_flops(100, 100, 100)


class TestPriceList:
    def test_lmm_charges(self):
        factor = FactorStats(stored=60, rows=10, cols=6, correction=4)
        assert lmm_charges(factor, 3) == {
            "lmm.local": 180.0, "lmm.lift": 30.0, "lmm.correction": 12.0
        }

    def test_transpose_lmm_charges(self):
        factor = FactorStats(stored=60, rows=10, cols=6)
        assert transpose_lmm_charges(factor, 2) == {
            "tlmm.project": 20.0, "tlmm.local": 120.0, "tlmm.scatter": 12.0
        }

    def test_square_charges_the_stored_cells(self):
        assert square_charges(FactorStats(stored=7, rows=3, cols=4, csr=True)) == {"square": 7.0}

    def test_labels_is_a_one_column_lmm(self):
        factor = FactorStats(stored=60, rows=10, cols=6, correction=4)
        assert charges("labels", factor, 1) == lmm_charges(factor, 1)

    def test_unknown_operator_has_no_price(self):
        with pytest.raises(ValueError):
            charges("crossprod", FactorStats(1, 1, 1), 1)


class TestFlopCounter:
    def test_add_and_total(self):
        counter = FlopCounter()
        counter.add("a", 10)
        counter.add("a", 5)
        counter.add("b", 1)
        assert counter.total == 16
        assert counter.by_operation == {"a": 15.0, "b": 1.0}

    def test_merge_keeps_labels(self):
        left, right = FlopCounter(), FlopCounter()
        left.add("x", 2)
        right.add("x", 3)
        right.add("y", 4)
        left.merge(right)
        assert left.by_operation == {"x": 5.0, "y": 4.0}
        assert left.total == 9.0
