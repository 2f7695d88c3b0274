"""Tests for repro.factorized.ops_counter."""

from repro.factorized.ops_counter import (
    FlopCounter,
    dense_matmul_flops,
    sparse_crossprod_flops,
    sparse_matmul_flops,
)


class TestFlopFormulas:
    def test_dense_matmul(self):
        assert dense_matmul_flops(10, 20, 30) == 6000.0


class TestSparseFlopFormulas:
    def test_sparse_matmul(self):
        assert sparse_matmul_flops(100, 3) == 300.0

    def test_sparse_matmul_undercuts_dense_below_full_density(self):
        # A 100x100 matrix with 500 stored cells (5% dense).
        assert sparse_matmul_flops(500, 4) < dense_matmul_flops(100, 100, 4)

    def test_sparse_crossprod(self):
        assert sparse_crossprod_flops(500, 100) == 50_000.0
        assert sparse_crossprod_flops(500, 100) < dense_matmul_flops(100, 100, 100)


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
