"""Backend integration: factors, datasets, cost model, optimizer, executor."""

import numpy as np
import pytest
from scipy import sparse

from repro.backends import AutoBackend, DenseBackend, SparseBackend
from repro.costmodel.decision import Decision
from repro.costmodel.parameters import CostParameters, SPARSE_DENSITY_THRESHOLD
from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.matrices.builder import IntegratedDataset, SourceFactor, integrate_tables
from repro.system.executor import Executor
from repro.system.optimizer import Optimizer
from repro.system.plan import ModelSpec

#: The cost sequence of one single-column LMM.
ONE_LMM = [("lmm", 1, 1)]


@pytest.fixture
def one_hot_dataset():
    return generate_one_hot_pair(OneHotSpec(n_rows=400, n_categories=40, seed=1))


class TestSourceFactorStorage:
    def test_storage_defaults_to_dense(self, one_hot_dataset):
        factor = one_hot_dataset.factors[1]
        assert isinstance(factor.storage(), np.ndarray)

    def test_storage_per_backend_and_cached(self, one_hot_dataset):
        factor = one_hot_dataset.factors[1]
        csr = factor.storage("sparse")
        assert sparse.issparse(csr)
        assert factor.storage(SparseBackend()) is csr  # cache hit
        assert isinstance(factor.storage("dense"), np.ndarray)

    def test_nnz_and_density(self, one_hot_dataset):
        one_hot = one_hot_dataset.factors[1]
        assert one_hot.nnz == one_hot.n_rows  # one 1 per entity row
        assert one_hot.density == pytest.approx(1 / 40)

    def test_with_backend_binds(self, one_hot_dataset):
        factor = one_hot_dataset.factors[1].with_backend("sparse")
        assert factor.backend.name == "sparse"
        assert sparse.issparse(factor.storage())

    def test_accepts_sparse_data_input(self, one_hot_dataset):
        template = one_hot_dataset.factors[1]
        factor = SourceFactor(
            template.name,
            sparse.csr_matrix(template.data),
            list(template.source_columns),
            template.mapping,
            template.indicator,
            template.redundancy,
            backend=SparseBackend(),
        )
        assert isinstance(factor.data, np.ndarray)
        assert np.allclose(factor.data, template.data)
        assert sparse.issparse(factor.storage())

    def test_sparse_input_not_densified_until_needed(self, one_hot_dataset):
        template = one_hot_dataset.factors[1]
        factor = SourceFactor(
            template.name,
            sparse.csr_matrix(template.data),
            list(template.source_columns),
            template.mapping,
            template.indicator,
            template.redundancy,
            backend=SparseBackend(),
        )
        # Construction, shapes, nnz/density and sparse compute never densify.
        assert factor.n_rows == template.n_rows
        assert factor.nnz == template.nnz
        assert factor.density == pytest.approx(template.density)
        factor.storage()
        assert factor._dense_data is None
        # Reading .data densifies lazily.
        _ = factor.data
        assert factor._dense_data is not None

    def test_storage_cache_distinguishes_configured_backends(self, one_hot_dataset):
        class ScaledBackend(SparseBackend):
            name = "scaled"

            def __init__(self, alpha):
                self.alpha = alpha

            def prepare(self, data):
                return super().prepare(data) * self.alpha

        factor = one_hot_dataset.factors[1]
        doubled = factor.storage(ScaledBackend(2.0))
        hundred = factor.storage(ScaledBackend(100.0))
        assert not np.allclose(doubled.toarray(), hundred.toarray())


class TestIntegratedDatasetBackend:
    def test_with_backend_rebinds_factors(self, one_hot_dataset):
        rebound = one_hot_dataset.with_backend("sparse")
        assert rebound.backend.name == "sparse"
        assert all(f.backend.name == "sparse" for f in rebound.factors)
        assert np.allclose(rebound.materialize(), one_hot_dataset.materialize())

    def test_density_statistics(self, one_hot_dataset):
        assert one_hot_dataset.total_source_nnz() == sum(
            f.nnz for f in one_hot_dataset.factors
        )
        densities = one_hot_dataset.source_densities()
        assert densities[0] > 0.9 and densities[1] == pytest.approx(1 / 40)
        assert 0.0 < one_hot_dataset.overall_density() < 1.0

    def test_integrate_tables_backend_param(self, hospital, hospital_matches):
        from repro.metadata.mappings import ScenarioType

        s1, s2 = hospital
        column_matches, row_matches = hospital_matches
        dataset = integrate_tables(
            s1, s2, column_matches, row_matches,
            target_columns=["m", "a", "hr", "o"],
            scenario=ScenarioType.FULL_OUTER_JOIN,
            backend="auto",
        )
        assert dataset.backend.name == "auto"
        assert all(f.backend is dataset.backend for f in dataset.factors)


class TestCostParametersDispatch:
    def test_from_dataset_captures_densities(self, one_hot_dataset):
        parameters = CostParameters.from_dataset(one_hot_dataset)
        assert parameters.source_densities[1] == pytest.approx(1 / 40)

    def test_backend_choice_threshold(self):
        parameters = CostParameters(
            source_shapes=[(100, 10), (100, 40)],
            n_target_rows=100,
            n_target_columns=50,
            source_densities=[1.0, 0.02],
        )
        assert parameters.backend_choices == ["dense", "sparse"]
        assert parameters.any_sparse_source
        assert parameters.nnz_of(1) == 100 * 40 * 0.02

    def test_default_threshold_constant(self):
        parameters = CostParameters(
            source_shapes=[(10, 10)], n_target_rows=10, n_target_columns=10
        )
        assert parameters.sparse_density_threshold == SPARSE_DENSITY_THRESHOLD

    def test_sparse_source_lowers_factorized_cost(self):
        from repro.costmodel.amalur_cost import AmalurCostModel

        dense = CostParameters(
            source_shapes=[(5000, 10), (5000, 100)],
            n_target_rows=5000,
            n_target_columns=110,
            source_densities=[1.0, 1.0],
        )
        sparse_params = CostParameters(
            source_shapes=[(5000, 10), (5000, 100)],
            n_target_rows=5000,
            n_target_columns=110,
            source_densities=[1.0, 0.01],
        )
        model = AmalurCostModel()
        assert (
            model.breakdown(sparse_params, ONE_LMM).factorized_total
            < model.breakdown(dense, ONE_LMM).factorized_total
        )
        assert model.breakdown(sparse_params, ONE_LMM).backend_choices == ["dense", "sparse"]

    def test_above_threshold_density_charges_full_dense_cost(self):
        from repro.costmodel.amalur_cost import AmalurCostModel

        half = CostParameters(
            source_shapes=[(1000, 100)],
            n_target_rows=1000,
            n_target_columns=100,
            source_densities=[0.5],
        )
        full = CostParameters(
            source_shapes=[(1000, 100)],
            n_target_rows=1000,
            n_target_columns=100,
            source_densities=[1.0],
        )
        model = AmalurCostModel()
        # A dense BLAS kernel cannot skip zeros, so 50% density costs the
        # same as 100% — only below the threshold does the sparse formula kick in.
        assert (
            model.breakdown(half, ONE_LMM).factorized_total
            == model.breakdown(full, ONE_LMM).factorized_total
        )


class TestPlanBackendSelection:
    def test_factorized_plan_carries_backend(self, one_hot_dataset):
        plan = Optimizer().plan(
            one_hot_dataset, ModelSpec(task="regression", n_iterations=100)
        )
        assert plan.strategy is Decision.FACTORIZE
        assert isinstance(plan.backend, AutoBackend)
        assert plan.cost_breakdown.backend_choices == ["dense", "sparse"]
        assert "sparse kernel" in plan.describe()

    def test_all_dense_sources_pick_dense_backend(self, synthetic_redundant_dataset):
        optimizer = Optimizer()
        parameters = CostParameters.from_dataset(synthetic_redundant_dataset)
        backend = optimizer._select_backend(parameters)
        assert isinstance(backend, DenseBackend)

    def test_all_sparse_sources_pick_sparse_backend(self):
        parameters = CostParameters(
            source_shapes=[(100, 50), (80, 40)],
            n_target_rows=100,
            n_target_columns=90,
            source_densities=[0.01, 0.02],
        )
        assert isinstance(Optimizer()._select_backend(parameters), SparseBackend)

    def test_executor_trains_on_plan_backend(self):
        dataset = generate_one_hot_pair(OneHotSpec(n_rows=300, n_categories=30, seed=6))
        # Attach a label column by rebuilding with the first base column as label.
        dataset.label_column = "x0"
        plan = Optimizer().plan(dataset, ModelSpec(task="regression", n_iterations=30))
        assert plan.strategy is Decision.FACTORIZE
        result = Executor().execute(plan)
        assert np.isfinite(result.metrics["mse"])
