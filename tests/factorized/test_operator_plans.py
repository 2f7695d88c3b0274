"""Parity and structure tests for the compiled operator plans.

Every operator (``lmm``/``rmm``/``transpose_lmm``/``crossprod``) running
on compiled :class:`~repro.factorized.OperatorPlan` index arrays must
match the materialized ground truth to 1e-10 across all four Table I
integration scenarios × every backend — including many-to-one joins and
partial column mappings — and the plan caches must be rebuilt (never
shared) by ``with_backend``/``select_columns``/``scale``.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.datagen.synthetic import (
    OneHotSpec,
    SyntheticSiloSpec,
    generate_integrated_pair,
    generate_one_hot_pair,
)
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.matrices.builder import star_schema
from repro.metadata.mappings import ScenarioType

ATOL = 1e-10
BACKENDS = ["dense", "sparse", "auto"]


def _scenario_dataset(scenario: ScenarioType):
    spec = ScenarioSpec(
        scenario=scenario,
        base_rows=40,
        other_rows=30,
        base_features=4,
        other_features=5,
        overlap_rows=12,
        overlap_columns=2,  # source redundancy → correction paths exercised
        seed=11,
    )
    return generate_scenario_dataset(spec)


def _assert_parity(matrix: AmalurMatrix, target: np.ndarray, rng) -> None:
    x = rng.standard_normal((target.shape[1], 3))
    y = rng.standard_normal((target.shape[0], 2))
    z = rng.standard_normal((2, target.shape[0]))
    np.testing.assert_allclose(matrix.lmm(x), target @ x, atol=ATOL, rtol=0)
    np.testing.assert_allclose(matrix.transpose_lmm(y), target.T @ y, atol=ATOL, rtol=0)
    np.testing.assert_allclose(matrix.rmm(z), z @ target, atol=ATOL, rtol=0)
    np.testing.assert_allclose(matrix.crossprod(), target.T @ target, atol=ATOL, rtol=0)


def _masked_many_to_one_dataset():
    # The second source feeds several target rows each *and* has
    # redundant cells, so its Gram rows are its covered rows, masked.
    return generate_integrated_pair(SyntheticSiloSpec(
        base_rows=120, base_columns=3, other_rows=24, other_columns=8,
        redundancy_in_target=True, redundancy_in_sources=True, seed=3,
    ))


def _three_dimension_star_dataset():
    rng = np.random.default_rng(4)
    n_rows = 90
    dimensions = [
        (f"R{i}", [f"r{i}_{j}" for j in range(width)], rng.standard_normal((n_dim, width)),
         rng.integers(0, n_dim, size=n_rows))
        for i, (n_dim, width) in enumerate([(7, 3), (12, 2), (5, 4)])
    ]
    entity = ("S", ["y", "s0", "s1"], rng.standard_normal((n_rows, 3)))
    return star_schema(entity, dimensions, label_column="y")


def _disjoint_rows_dataset():
    # A full outer join of two sources with no entity in common: the cross
    # term's composed indicator is empty.
    return generate_scenario_dataset(ScenarioSpec(
        scenario=ScenarioType.FULL_OUTER_JOIN, base_rows=40, other_rows=30,
        overlap_rows=0, overlap_columns=2, seed=2,
    ))


GRAM_CASES = {
    "masked_many_to_one": _masked_many_to_one_dataset,
    "star_three_dimensions": _three_dimension_star_dataset,
    "no_shared_rows": _disjoint_rows_dataset,
}


class TestCompiledPlanParity:
    """Compiled plans match materialize() across scenarios × backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    def test_scenario_backend_parity(self, scenario, backend, rng):
        dataset = _scenario_dataset(scenario)
        matrix = AmalurMatrix(dataset, backend=backend)
        _assert_parity(matrix, dataset.materialize(), rng)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_gram_shape_parity(self, case, backend, rng):
        dataset = GRAM_CASES[case]()
        matrix = AmalurMatrix(dataset, backend=backend)
        plans = matrix._plans
        if case == "masked_many_to_one":
            assert any(not p.rows_injective and p.has_correction for p in plans)
        elif case == "star_three_dimensions":
            assert len(plans) == 4 and sum(not p.rows_injective for p in plans) == 3
        _assert_parity(matrix, dataset.materialize(), rng)
        if case == "no_shared_rows":
            assert [entry[2].nnz for entry in matrix._composed.values()] == [0]
            assert "crossprod.cross" not in matrix.counter.by_operation

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_to_one_join_parity(self, backend, rng):
        # 12 entity rows feed 150 target rows: the indicator is not
        # injective, so the plan's CSR projector path is exercised.
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=150, n_categories=12, n_entities=12, seed=5),
            backend=backend,
        )
        matrix = AmalurMatrix(dataset)
        assert not matrix._plans[1].rows_injective
        assert sparse.issparse(matrix._plans[1].projector)
        _assert_parity(matrix, dataset.materialize(), rng)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_column_mapping_parity(self, backend, rng):
        # Column projection drops target columns, leaving factors whose
        # mappings cover the target schema only partially.
        dataset = _scenario_dataset(ScenarioType.FULL_OUTER_JOIN)
        matrix = AmalurMatrix(dataset, backend=backend)
        keep = dataset.target_columns[1:]
        selected = matrix.select_columns(keep)
        indices = [dataset.target_columns.index(c) for c in keep]
        _assert_parity(selected, dataset.materialize()[:, indices], rng)

    def test_hospital_running_example(self, hospital_dataset, rng):
        for backend in BACKENDS:
            matrix = AmalurMatrix(hospital_dataset, backend=backend)
            _assert_parity(matrix, hospital_dataset.materialize(), rng)

    def test_synthetic_redundant_parity(self, synthetic_redundant_dataset, rng):
        for backend in BACKENDS:
            matrix = AmalurMatrix(synthetic_redundant_dataset, backend=backend)
            _assert_parity(matrix, synthetic_redundant_dataset.materialize(), rng)


class TestPlanStructure:
    """The precomputed index arrays have compiled-kernel-ready form."""

    def test_index_arrays_are_intp_and_read_only(self):
        dataset = _scenario_dataset(ScenarioType.LEFT_JOIN)
        for plan in AmalurMatrix(dataset)._plans:
            for arr in (
                plan.target_cols,
                plan.source_cols,
                plan.target_rows,
                plan.source_rows,
            ):
                assert isinstance(arr, np.ndarray)
                assert arr.dtype == np.intp
                assert not arr.flags.writeable

    def test_injective_join_has_no_projector(self):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        for plan in AmalurMatrix(dataset)._plans:
            assert plan.rows_injective
            assert plan.projector is None

    def test_mapped_counts_match_metadata(self):
        dataset = _scenario_dataset(ScenarioType.FULL_OUTER_JOIN)
        for factor, plan in zip(dataset.factors, AmalurMatrix(dataset)._plans):
            assert plan.n_mapped_rows == factor.indicator.n_mapped
            assert plan.n_mapped_cols == factor.mapping.n_mapped

    def test_row_form_cached_and_dropped_by_invalidate(self):
        dataset = _scenario_dataset(ScenarioType.FULL_OUTER_JOIN)
        matrix = AmalurMatrix(dataset)
        plan = matrix._plans[1]
        form = plan.row_form()
        assert plan.row_form() is form
        gram = np.array(matrix.crossprod())
        composed = dict(matrix._composed)
        matrix.invalidate()
        assert plan.row_form() is not form
        np.testing.assert_array_equal(matrix.crossprod(), gram)
        # The composed indicators depend on the row maps only: kept.
        assert all(matrix._composed[pair][2] is entry[2] for pair, entry in composed.items())

    def test_correction_cached_on_plan(self, synthetic_redundant_dataset, rng):
        matrix = AmalurMatrix(synthetic_redundant_dataset)
        operand = rng.standard_normal((matrix.n_columns, 1))
        matrix.lmm(operand)
        assert matrix._correction(1) is matrix._correction(1)


class TestPlanInvalidation:
    """Operations producing a new factorized view rebuild their plans."""

    def test_with_backend_builds_new_plans(self):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        matrix = AmalurMatrix(dataset, backend="dense")
        rebound = matrix.with_backend("sparse")
        assert rebound._plans is not matrix._plans
        assert all(p.backend is rebound.backend for p in rebound._plans)

    def test_select_columns_builds_new_plans(self):
        dataset = _scenario_dataset(ScenarioType.FULL_OUTER_JOIN)
        matrix = AmalurMatrix(dataset)
        selected = matrix.select_columns(dataset.target_columns[1:])
        assert selected._plans is not matrix._plans
        assert selected._plans[0].n_mapped_cols <= matrix._plans[0].n_mapped_cols

    def test_scale_builds_new_plans_and_gram(self, rng):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        matrix = AmalurMatrix(dataset)
        gram = matrix.crossprod()
        scaled = matrix.scale(3.0)
        assert scaled._plans is not matrix._plans
        np.testing.assert_allclose(scaled.crossprod(), 9.0 * gram, atol=1e-8, rtol=0)


class TestGramCache:
    def test_crossprod_cached_and_read_only(self):
        dataset = _scenario_dataset(ScenarioType.LEFT_JOIN)
        matrix = AmalurMatrix(dataset)
        gram = matrix.crossprod()
        assert matrix.crossprod() is gram
        assert not gram.flags.writeable

    def test_cache_not_shared_across_views(self):
        dataset = _scenario_dataset(ScenarioType.LEFT_JOIN)
        matrix = AmalurMatrix(dataset)
        gram = matrix.crossprod()
        rebound = matrix.with_backend("sparse")
        assert rebound.gram_cache.value is None
        np.testing.assert_allclose(rebound.crossprod(), gram, atol=ATOL, rtol=0)

    def test_counter_not_recharged_on_cache_hit(self):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        matrix = AmalurMatrix(dataset)
        matrix.crossprod()
        total = matrix.counter.total
        matrix.crossprod()
        assert matrix.counter.total == total


class TestOperandFastPath:
    """Float64 operands pass through validation without copies."""

    def test_float64_2d_operand_not_copied(self):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        matrix = AmalurMatrix(dataset)
        x = np.zeros((matrix.n_columns, 2))
        assert matrix._check_lmm_operand(x) is x
        y = np.zeros((matrix.n_rows, 2))
        assert matrix._check_transpose_operand(y) is y
        z = np.zeros((2, matrix.n_rows))
        assert matrix._check_rmm_operand(z) is z

    def test_non_float64_operand_still_converted(self):
        dataset = _scenario_dataset(ScenarioType.INNER_JOIN)
        matrix = AmalurMatrix(dataset)
        x = np.zeros((matrix.n_columns, 2), dtype=np.float32)
        checked = matrix._check_lmm_operand(x)
        assert checked is not x
        assert checked.dtype == np.float64
