"""Tests for repro.datagen: hospital, scenarios, synthetic and hamlet."""

import numpy as np
import pytest

from repro.datagen.hamlet import HAMLET_DATASETS, generate_hamlet_dataset
from repro.datagen.hospital import hospital_integrated_dataset, hospital_tables
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset, generate_scenario_tables
from repro.datagen.synthetic import (
    OneHotSpec,
    SyntheticSiloSpec,
    generate_integrated_pair,
    generate_one_hot_pair,
    generate_table3_grid,
)
from repro.exceptions import MappingError
from repro.metadata.mappings import ScenarioType


class TestHospitalExample:
    def test_tables_match_figure2(self):
        s1, s2 = hospital_tables()
        assert s1.n_rows == 4 and s2.n_rows == 3
        assert s1.schema.names == ["m", "n", "a", "hr"]
        assert s2.schema.names == ["m", "n", "a", "o", "dd"]
        assert s1.cell(3, "n") == "Jane" and s2.cell(2, "n") == "Jane"

    @pytest.mark.parametrize(
        "scenario, expected_rows",
        [
            (ScenarioType.FULL_OUTER_JOIN, 6),
            (ScenarioType.INNER_JOIN, 1),
            (ScenarioType.LEFT_JOIN, 4),
            (ScenarioType.UNION, 7),
        ],
        ids=lambda v: v.value if isinstance(v, ScenarioType) else str(v),
    )
    def test_scenario_row_counts(self, scenario, expected_rows):
        assert hospital_integrated_dataset(scenario).n_target_rows == expected_rows


class TestScenarioGenerator:
    def test_overlap_rows_respected(self):
        spec = ScenarioSpec(scenario=ScenarioType.INNER_JOIN, base_rows=30, other_rows=20,
                            overlap_rows=12, seed=0)
        dataset = generate_scenario_dataset(spec)
        assert dataset.n_target_rows == 12

    def test_full_outer_join_row_count(self):
        spec = ScenarioSpec(scenario=ScenarioType.FULL_OUTER_JOIN, base_rows=30, other_rows=20,
                            overlap_rows=12, seed=0)
        assert generate_scenario_dataset(spec).n_target_rows == 30 + 20 - 12

    def test_union_stacks_all_rows(self):
        spec = ScenarioSpec(scenario=ScenarioType.UNION, base_rows=30, other_rows=20, seed=0)
        assert generate_scenario_dataset(spec).n_target_rows == 50

    def test_column_overlap_creates_source_redundancy(self):
        spec = ScenarioSpec(scenario=ScenarioType.LEFT_JOIN, base_rows=20, other_rows=15,
                            overlap_rows=10, overlap_columns=2, seed=1)
        dataset = generate_scenario_dataset(spec)
        assert dataset.factor("S2").redundancy.n_redundant > 0

    def test_overlap_clamped_to_table_sizes(self):
        spec = ScenarioSpec(scenario=ScenarioType.INNER_JOIN, base_rows=5, other_rows=4,
                            overlap_rows=100, overlap_columns=100)
        assert spec.overlap_rows == 4
        assert spec.overlap_columns <= 4

    def test_tables_and_metadata_shapes(self):
        spec = ScenarioSpec(scenario=ScenarioType.LEFT_JOIN, base_rows=12, other_rows=8,
                            overlap_rows=5, seed=3)
        base, other, column_matches, row_matches, target_columns = generate_scenario_tables(spec)
        assert base.n_rows == 12 and other.n_rows == 8
        assert len(row_matches) == 5
        assert "label" in target_columns
        assert any(m.left_column == "id" for m in column_matches)

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec(scenario=ScenarioType.INNER_JOIN, base_rows=10, other_rows=8,
                            overlap_rows=5, seed=9)
        first = generate_scenario_dataset(spec).materialize()
        second = generate_scenario_dataset(spec).materialize()
        assert np.allclose(first, second)


class TestSyntheticGenerator:
    def test_target_redundancy_reuses_other_rows(self):
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=100, base_columns=1, other_rows=10, other_columns=5,
                              redundancy_in_target=True, seed=0)
        )
        other_indicator = dataset.factor("S2").indicator
        assert other_indicator.n_mapped == 100  # every target row has an S2 row
        assert dataset.n_target_rows / 10 == pytest.approx(10.0)

    def test_no_target_redundancy_one_to_one(self):
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=100, base_columns=1, other_rows=20, other_columns=5,
                              redundancy_in_target=False, seed=0)
        )
        compressed = dataset.factor("S2").indicator.compressed
        mapped = compressed[compressed >= 0]
        assert len(mapped) == 20 and len(set(mapped.tolist())) == 20

    def test_source_redundancy_flag(self):
        redundant = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=50, base_columns=4, other_rows=10, other_columns=6,
                              redundancy_in_sources=True, seed=0)
        )
        clean = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=50, base_columns=4, other_rows=10, other_columns=6,
                              redundancy_in_sources=False, seed=0)
        )
        assert redundant.factor("S2").redundancy.n_redundant > 0
        assert clean.factor("S2").redundancy.n_redundant == 0
        assert len(redundant.target_columns) < len(clean.target_columns)

    def test_null_ratio_zeroes_cells(self):
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=100, base_columns=10, other_rows=20, other_columns=10,
                              null_ratio=0.5, seed=1)
        )
        base_data = dataset.factor("S1").data
        assert np.mean(base_data == 0.0) > 0.3

    def test_invalid_spec_rejected(self):
        with pytest.raises(MappingError):
            SyntheticSiloSpec(base_rows=0, base_columns=1, other_rows=1, other_columns=1)
        with pytest.raises(MappingError):
            SyntheticSiloSpec(base_rows=1, base_columns=0, other_rows=1, other_columns=1)

    def test_one_to_one_clamps_other_rows(self):
        spec = SyntheticSiloSpec(base_rows=10, base_columns=1, other_rows=50, other_columns=2,
                                 redundancy_in_target=False)
        assert spec.other_rows == 10

    def test_table3_grid(self):
        specs = generate_table3_grid([10, 100], seeds_per_point=3)
        assert len(specs) == 6
        assert specs[0].other_rows == 2  # 0.2 × 10
        assert all(s.base_columns == 1 and s.other_columns == 100 for s in specs)


class TestHamletGenerator:
    def test_registry_contains_published_datasets(self):
        assert {"expedia", "movies", "yelp", "walmart", "lastfm", "books", "flights"} <= set(
            HAMLET_DATASETS
        )
        assert HAMLET_DATASETS["walmart"].tuple_ratios[1] > 1000

    def test_scaled_dataset_preserves_tuple_ratio_order_of_magnitude(self):
        dataset = generate_hamlet_dataset("walmart", row_scale=0.01, seed=0)
        spec = HAMLET_DATASETS["walmart"]
        generated_ratio = dataset.n_target_rows / dataset.factor("dim1").n_rows
        assert generated_ratio > 100  # published ratio is ~9000; scaling keeps it large

    def test_dataset_has_label_and_disjoint_columns(self):
        dataset = generate_hamlet_dataset("flights", row_scale=0.02, seed=1)
        assert dataset.label_column == "label"
        assert set(np.unique(dataset.labels())) <= {0.0, 1.0}
        for factor in dataset.factors:
            assert factor.redundancy.is_trivial

    def test_dataset_is_a_star_schema(self):
        dataset = generate_hamlet_dataset("expedia", row_scale=0.001, seed=2, with_label=False)
        spec = HAMLET_DATASETS["expedia"]
        assert dataset.n_target_rows == round(spec.entity_rows * 0.001)
        assert dataset.scenario is ScenarioType.INNER_JOIN
        entity, *dimensions = dataset.factors
        assert np.array_equal(entity.indicator.compressed, np.arange(dataset.n_target_rows))
        assert [f.n_rows for f in dimensions] == [round(r * 0.001) for r, _ in spec.dimensions]
        for factor in dimensions:
            assert factor.indicator.n_mapped == dataset.n_target_rows  # an inner join
            keys = factor.indicator.compressed
            assert keys.min() >= 0 and keys.max() < factor.n_rows

    def test_without_label(self):
        dataset = generate_hamlet_dataset("yelp", row_scale=0.005, with_label=False)
        assert dataset.label_column is None


class TestOneHotGenerator:
    def test_shapes_and_density(self):
        spec = OneHotSpec(n_rows=200, n_categories=25, base_columns=4)
        dataset = generate_one_hot_pair(spec)
        base, one_hot = dataset.factors
        assert base.data.shape == (200, 4)
        assert one_hot.data.shape == (25, 25)  # n_entities defaults to n_categories
        assert one_hot.density == pytest.approx(spec.one_hot_density) == pytest.approx(1 / 25)
        assert spec.sparsity == pytest.approx(0.96)
        assert dataset.n_target_rows == 200
        assert len(dataset.target_columns) == 4 + 25

    def test_each_entity_row_is_one_hot(self):
        dataset = generate_one_hot_pair(OneHotSpec(n_rows=50, n_categories=10, n_entities=30))
        one_hot = dataset.factors[1].data
        assert one_hot.shape == (30, 10)
        assert np.all(one_hot.sum(axis=1) == 1.0)
        assert set(np.unique(one_hot)) == {0.0, 1.0}

    def test_materialization_equals_factorized(self):
        dataset = generate_one_hot_pair(OneHotSpec(n_rows=80, n_categories=12, seed=3))
        from repro.factorized.normalized_matrix import AmalurMatrix

        target = dataset.materialize()
        x = np.random.default_rng(0).standard_normal((target.shape[1], 2))
        assert np.allclose(AmalurMatrix(dataset).lmm(x), target @ x)

    def test_no_redundancy(self):
        dataset = generate_one_hot_pair(OneHotSpec(n_rows=40, n_categories=8))
        for factor in dataset.factors:
            assert factor.redundancy.is_trivial

    def test_backend_attachment(self):
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=40, n_categories=20), backend="auto"
        )
        assert dataset.backend.name == "auto"
        assert dataset.factors[1].backend is dataset.backend

    def test_validation(self):
        with pytest.raises(MappingError):
            OneHotSpec(n_rows=0, n_categories=5)
        with pytest.raises(MappingError):
            OneHotSpec(n_rows=10, n_categories=1)
