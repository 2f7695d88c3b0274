"""The star-schema inner join (Morpheus's setting) on the one engine.

``star_schema`` builds the Area-I case of ``(D_k, M_k, I_k, R_k)``; these
tests check it against an independent numpy target, its typed input
errors, the FLOP charge of one ``lmm``, and the format-preserving
element-wise maps (``scale`` / ``square``) the learners run on it.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.exceptions import MappingError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning.gaussian_nmf import GaussianNMF
from repro.learning.kmeans import KMeans
from repro.matrices.builder import star_schema
from repro.metadata.mappings import ScenarioType


def _columns(prefix, count):
    return [f"{prefix}{i}" for i in range(count)]


@pytest.fixture
def star(rng):
    """50 entity rows with three features, two dimension tables."""
    entity = rng.standard_normal((50, 3))
    dim_a = rng.standard_normal((10, 4))
    dim_b = rng.standard_normal((5, 2))
    fk_a = rng.integers(0, 10, size=50)
    fk_b = rng.integers(0, 5, size=50)
    dataset = star_schema(
        ("S", _columns("s", 3), entity),
        [("A", _columns("a", 4), dim_a, fk_a), ("B", _columns("b", 2), dim_b, fk_b)],
    )
    target = np.hstack([entity, dim_a[fk_a], dim_b[fk_b]])
    return AmalurMatrix(dataset), target


class TestReference:
    """Every operator equals the same operation on the joined numpy table."""

    def test_dataset_shape(self, star):
        matrix, target = star
        assert matrix.shape == target.shape
        assert matrix.dataset.scenario is ScenarioType.INNER_JOIN
        assert [f.name for f in matrix.dataset.factors] == ["S", "A", "B"]
        assert all(f.redundancy.is_trivial for f in matrix.dataset.factors)

    def test_materialize(self, star):
        matrix, target = star
        assert np.allclose(matrix.materialize(), target)

    def test_lmm(self, star, rng):
        matrix, target = star
        operand = rng.standard_normal((target.shape[1], 3))
        assert np.allclose(matrix.lmm(operand), target @ operand)

    def test_lmm_vector(self, star, rng):
        matrix, target = star
        weights = rng.standard_normal(target.shape[1])
        assert np.allclose(matrix.lmm(weights)[:, 0], target @ weights)

    def test_transpose_lmm(self, star, rng):
        matrix, target = star
        operand = rng.standard_normal((target.shape[0], 2))
        assert np.allclose(matrix.transpose_lmm(operand), target.T @ operand)

    def test_rmm(self, star, rng):
        matrix, target = star
        operand = rng.standard_normal((2, target.shape[0]))
        assert np.allclose(matrix.rmm(operand), operand @ target)

    def test_crossprod(self, star):
        matrix, target = star
        assert np.allclose(matrix.crossprod(), target.T @ target)

    def test_aggregations(self, star):
        matrix, target = star
        assert np.allclose(matrix.row_sums(), target.sum(axis=1))
        assert np.allclose(matrix.column_sums(), target.sum(axis=0))
        assert matrix.total_sum() == pytest.approx(target.sum())

    def test_scale_and_square(self, star):
        matrix, target = star
        assert np.allclose(matrix.scale(-1.5).materialize(), -1.5 * target)
        assert np.allclose(matrix.square().materialize(), target * target)

    def test_label_column(self, rng):
        dataset = star_schema(
            ("S", ["label", "s0"], rng.standard_normal((6, 2))),
            [("A", ["a0"], rng.standard_normal((2, 1)), np.array([0, 1, 1, 0, 0, 1]))],
            label_column="label",
            name="labelled",
        )
        assert dataset.label_column == "label"
        assert dataset.name == "labelled"
        assert dataset.feature_columns == ["s0", "a0"]


class TestTypedErrors:
    @pytest.fixture
    def entity(self, rng):
        return ("S", ["s0", "s1"], rng.standard_normal((4, 2)))

    @pytest.fixture
    def dim(self, rng):
        return rng.standard_normal((3, 2))

    def test_dimension_without_foreign_keys(self, entity, dim):
        with pytest.raises(MappingError, match="foreign_keys"):
            star_schema(entity, [("A", ["a0", "a1"], dim)])

    def test_foreign_key_length_mismatch(self, entity, dim):
        with pytest.raises(MappingError, match="one foreign key per entity row"):
            star_schema(entity, [("A", ["a0", "a1"], dim, np.array([0, 1, 2]))])

    def test_foreign_key_out_of_range(self, entity, dim):
        with pytest.raises(MappingError, match="0 <= foreign key < 3"):
            star_schema(entity, [("A", ["a0", "a1"], dim, np.array([0, 1, 2, 3]))])

    def test_unmatched_foreign_key(self, entity, dim):
        """``-1`` (no dimension row) is an outer join, not a star schema."""
        with pytest.raises(MappingError, match="inner join"):
            star_schema(entity, [("A", ["a0", "a1"], dim, np.array([0, -1, 2, 1]))])

    def test_overlapping_columns(self, entity, dim):
        with pytest.raises(MappingError, match="disjoint"):
            star_schema(entity, [("A", ["s1", "a1"], dim, np.array([0, 1, 2, 1]))])


class TestFlops:
    def test_lmm_closed_form(self, rng):
        """One ``lmm`` over q dimensions: Σ_k D_k X_k locally, then q + 1 lifts.

        Morpheus's Eq. 1 multiplies the entity block ``S X_S`` in place; the
        engine treats the entity as a factor with an identity ``I_0``, so
        its lift (``n·m``) is the one charge Eq. 1 does not have.
        """
        n, m = 40, 3
        entity = rng.standard_normal((n, 2))
        dims = [rng.standard_normal((rows, cols)) for rows, cols in ((7, 3), (4, 5), (9, 1))]
        dataset = star_schema(
            ("S", _columns("s", 2), entity),
            [
                (f"D{k}", _columns(f"d{k}_", d.shape[1]), d, rng.integers(0, d.shape[0], size=n))
                for k, d in enumerate(dims)
            ],
        )
        matrix = AmalurMatrix(dataset)
        matrix.lmm(rng.standard_normal((matrix.n_columns, m)))
        flops = matrix.counter.by_operation
        q = len(dims)
        local = sum(matrix.backend.matmul_flops(d, m) for d in [entity] + dims)
        assert flops["lmm.local"] == local
        assert flops["lmm.lift"] == (q + 1) * n * m
        assert set(flops) == {"lmm.local", "lmm.lift"}


def _big_one_hot():
    return generate_one_hot_pair(
        OneHotSpec(n_rows=20_000, n_categories=2_000, n_entities=5_000, base_columns=4),
        backend="auto",
    )


class TestFactorMaps:
    """``scale`` / ``square`` keep every factor's format and backend."""

    @pytest.mark.parametrize("op", ["scale", "square"])
    def test_format_backend_memory_and_charge(self, op):
        matrix = AmalurMatrix(_big_one_hot())
        assert matrix.storage_formats() == ["dense", "csr"]
        tracemalloc.start()
        try:
            mapped = matrix.scale(2.0) if op == "scale" else matrix.square()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mapped.storage_formats() == ["dense", "csr"]
        assert mapped.backend.name == matrix.backend.name == "auto"
        assert peak < 5 * 2**20
        # Every cell of the dense 20 000 × 4 base, the 5 000 stored ones of the CSR.
        assert matrix.counter.by_operation[op] == 20_000 * 4 + 5_000

    def test_feature_view_leaves_the_parent_csr(self, rng):
        """Projecting columns slices the CSR ``D_k``; it never densifies it
        (nor caches a dense copy on the parent factor)."""
        dataset = _big_one_hot()
        dataset.label_column = "x0"
        matrix = AmalurMatrix(dataset)
        tracemalloc.start()
        try:
            view = matrix.feature_matrix_view()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.issparse(dataset.factor("S2")._raw_data())
        assert matrix.storage_formats() == view.storage_formats() == ["dense", "csr"]
        assert peak < 5 * 2**20
        target = dataset.materialize()[:, 1:]
        x = rng.standard_normal((view.n_columns, 2))
        y = rng.standard_normal((view.n_rows, 2))
        assert np.allclose(view.lmm(x), target @ x)
        assert np.allclose(view.transpose_lmm(y), target.T @ y)

    def test_learners_match_materialized(self):
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=2_000, n_categories=200, n_entities=500, base_columns=4),
            backend="auto",
        )
        matrix = AmalurMatrix(dataset)
        assert matrix.storage_formats() == ["dense", "csr"]
        dense = matrix.materialize()

        factorized = KMeans(n_clusters=4, n_iterations=10).fit(matrix)
        materialized = KMeans(n_clusters=4, n_iterations=10).fit(dense)
        assert np.array_equal(factorized.labels_, materialized.labels_)
        assert factorized.inertia_ == pytest.approx(materialized.inertia_, rel=1e-8)

        # NMF needs T >= 0; on the signed base columns multiplicative
        # updates amplify rounding, so fit both sides on T ∘ T.
        factorized = GaussianNMF(n_components=3, n_iterations=10).fit(matrix.square())
        materialized = GaussianNMF(n_components=3, n_iterations=10).fit(dense * dense)
        assert factorized.reconstruction_error_ == pytest.approx(
            materialized.reconstruction_error_, rel=1e-8
        )


def test_gnmf_refit_reports_its_own_error(rng):
    """A refit computes ||T||² for the new data, not the first fit's."""
    first = rng.random((50, 6))
    second = 10 * rng.random((50, 6))
    model = GaussianNMF(n_components=2, n_iterations=20).fit(first)
    model.fit(second)
    fresh = GaussianNMF(n_components=2, n_iterations=20).fit(second)
    assert model.reconstruction_error_ == fresh.reconstruction_error_
    assert model.error_history_ == fresh.error_history_
    truth = float(np.sum((second - fresh.weights_ @ fresh.components_) ** 2))
    assert fresh.reconstruction_error_ == pytest.approx(truth, rel=1e-8)


def test_one_hot_generator_matches_its_rng_draws():
    """``generate_one_hot_pair`` is the star schema of its own draws."""
    spec = OneHotSpec(n_rows=300, n_categories=20, n_entities=40, base_columns=3, seed=7)
    dataset = generate_one_hot_pair(spec)
    rng = np.random.default_rng(spec.seed)
    base = rng.standard_normal((spec.n_rows, spec.base_columns))
    categories = rng.integers(0, spec.n_categories, size=spec.n_entities)
    foreign_keys = rng.integers(0, spec.n_entities, size=spec.n_rows, dtype=np.int64)
    one_hot = np.zeros((spec.n_entities, spec.n_categories))
    one_hot[np.arange(spec.n_entities), categories] = 1.0

    assert [f.name for f in dataset.factors] == ["S1", "S2"]
    assert dataset.target_columns == _columns("x", 3) + _columns("cat_", 20)
    assert np.array_equal(dataset.factor("S2").indicator.compressed, foreign_keys)
    assert np.array_equal(dataset.materialize(), np.hstack([base, one_hot[foreign_keys]]))
