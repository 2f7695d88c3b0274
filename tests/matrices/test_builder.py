"""Tests for repro.matrices.builder: the integrated (factorized) dataset."""

from functools import partial

import numpy as np
import pytest
from scipy import sparse
from dense_reference import assert_matches_dense, assert_two_source_matches_dense

from repro import parallel, telemetry
from repro.exceptions import MappingError
from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.matrices import builder
from repro.matrices.builder import (
    IntegratedDataset,
    SourceFactor,
    build_integrated_dataset,
    integrate_tables,
    star_schema,
    target_row_values,
)
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.table import Table
from repro.datagen.hospital import (
    hospital_column_matches,
    hospital_integrated_dataset,
    hospital_row_matches,
    hospital_tables,
)
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_dataset,
    generate_scenario_tables,
)
from repro.streaming import SpillStore, integrate_streams
from repro.streaming.chunks import DEFAULT_CHUNK_ROWS


class TestHospitalRunningExample:
    def test_figure2d_target_table(self, hospital_dataset):
        """The materialized full-outer-join target must match Figure 2d."""
        target = hospital_dataset.materialize()
        assert target.shape == (6, 4)
        expected = np.array(
            [
                [0, 20, 60, 0],
                [1, 35, 58, 0],
                [0, 22, 65, 0],
                [1, 37, 70, 92],  # Jane: merged from both sources
                [1, 45, 0, 95],
                [0, 20, 0, 97],
            ],
            dtype=float,
        )
        assert np.array_equal(target, expected)

    def test_redundancy_zeroes_janes_duplicate_cells(self, hospital_dataset):
        s2_factor = hospital_dataset.factor("S2")
        redundancy = s2_factor.redundancy.to_dense()
        # Jane is target row 3; S2's m and a values repeat S1's.
        assert redundancy[3, 0] == 0.0
        assert redundancy[3, 1] == 0.0
        assert s2_factor.redundancy.n_redundant == 2

    def test_contribution_plus_mask_identity(self, hospital_dataset):
        """T1 + (T2 ∘ R2) == T, but T1 + T2 != T (the Figure 4c point)."""
        t1 = hospital_dataset.factors[0].masked_contribution()
        t2_raw = hospital_dataset.factors[1].contribution()
        t2_masked = hospital_dataset.factors[1].masked_contribution()
        target = hospital_dataset.materialize()
        assert np.allclose(t1 + t2_masked, target)
        assert not np.allclose(t1 + t2_raw, target)

    def test_labels_and_features(self, hospital_dataset):
        assert hospital_dataset.label_column == "m"
        assert hospital_dataset.labels().tolist() == [0, 1, 0, 1, 1, 0]
        assert hospital_dataset.features().shape == (6, 3)

    def test_materialize_table_roles(self, hospital_dataset):
        table = hospital_dataset.materialize_table()
        assert table.schema["m"].is_label
        assert table.n_rows == 6


class TestDatasetStatistics:
    def test_tuple_and_feature_ratios(self, synthetic_redundant_dataset):
        dataset = synthetic_redundant_dataset
        assert dataset.tuple_ratio() == pytest.approx(1.0)
        assert dataset.feature_ratio() > 1.0
        assert dataset.total_source_cells() == 120 * 3 + 24 * 8
        # half of min(3, 8) = 2 columns overlap, so c_T = 3 + 8 - 2 = 9
        assert dataset.target_cells() == 120 * 9

    def test_redundancy_in_target_detects_overlap(self, hospital_dataset):
        # Jane's m and a: 2 of the 6 × 4 target cells.
        assert hospital_dataset.redundancy_in_target() == 2 / 24

    @pytest.mark.parametrize(
        "scenario, overlapping, cells",
        [
            (ScenarioType.FULL_OUTER_JOIN, 18, 34 * 6),
            (ScenarioType.INNER_JOIN, 18, 9 * 6),
            (ScenarioType.LEFT_JOIN, 18, 25 * 6),
            (ScenarioType.UNION, 0, 43 * 4),
        ],
        ids=lambda v: v.value if isinstance(v, ScenarioType) else None,
    )
    def test_redundancy_in_target_per_scenario(self, scenario, overlapping, cells):
        """Nine overlap rows × two overlap columns are covered twice."""
        dataset = _scenario_dataset(scenario)
        assert dataset.redundancy_in_target() == overlapping / cells

    def test_factor_lookup(self, hospital_dataset):
        assert hospital_dataset.factor("S1").name == "S1"
        with pytest.raises(MappingError):
            hospital_dataset.factor("missing")


def _scenario_dataset(scenario):
    return generate_scenario_dataset(ScenarioSpec(
        scenario, base_rows=25, other_rows=18, base_features=3, other_features=4,
        overlap_rows=9, overlap_columns=2, seed=7,
    ))


def _reversed_columns_dataset():
    """Target columns in reverse order: each column is its own run of
    ``CM_k``, beside target rows the other source does not feed."""
    spec = ScenarioSpec(
        ScenarioType.FULL_OUTER_JOIN, base_rows=25, other_rows=18, base_features=9,
        other_features=10, overlap_rows=9, overlap_columns=2, seed=7,
    )
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)
    return integrate_tables(base, other, matches, row_matches, targets[::-1], spec.scenario)


def _star_dataset():
    rng = np.random.default_rng(5)
    return star_schema(
        ("S", ["s0", "s1", "s2"], rng.standard_normal((50, 3))),
        [("A", ["a0", "a1"], rng.standard_normal((10, 2)), rng.integers(0, 10, 50)),
         ("B", ["b0"], rng.standard_normal((5, 1)), rng.integers(0, 5, 50))],
    )


def _one_hot_dataset():
    dataset = generate_one_hot_pair(
        OneHotSpec(n_rows=300, n_categories=20, n_entities=40, base_columns=3), backend="auto"
    )
    assert sparse.issparse(dataset.factor("S2")._raw_data())
    return dataset


GATHER_DATASETS = {
    **{f"table1-{s.value}": partial(_scenario_dataset, s) for s in ScenarioType},
    "table1-reversed-columns": _reversed_columns_dataset,
    "star": _star_dataset,
    "one-hot-csr": _one_hot_dataset,
}


def _pick_rows(dataset, which):
    unmapped = np.flatnonzero(dataset.factors[-1].indicator.compressed < 0)
    return {
        "empty": np.empty(0, dtype=np.int64),
        "unmapped": unmapped,
        "random": np.random.default_rng(1).integers(0, dataset.n_target_rows, 40),
        "all": np.arange(dataset.n_target_rows),
    }[which]


class TestTargetGather:
    """``materialize``, ``target_row_values`` and the contributions are one
    gather; its blocks and slices change no bit of the result."""

    @pytest.mark.parametrize("which", ["empty", "unmapped", "random", "all"])
    @pytest.mark.parametrize("make", GATHER_DATASETS.values(), ids=GATHER_DATASETS.keys())
    def test_row_values_are_the_materialized_rows(self, make, which):
        dataset = make()
        rows = _pick_rows(dataset, which)
        assert np.array_equal(target_row_values(dataset, rows), dataset.materialize()[rows])

    @pytest.mark.parametrize("make", GATHER_DATASETS.values(), ids=GATHER_DATASETS.keys())
    def test_any_block_size_gives_the_dense_formula(self, make, monkeypatch):
        dataset = make()
        whole = dataset.materialize()
        rows = _pick_rows(dataset, "random")
        monkeypatch.setattr(builder, "_GATHER_CELLS", 7)  # a block is one or two rows
        assert dataset.materialize().tobytes() == whole.tobytes()
        assert target_row_values(dataset, rows).tobytes() == whole[rows].tobytes()
        masked = [f.masked_contribution() for f in dataset.factors]
        unmasked = [f.contribution() for f in dataset.factors]
        assert np.array_equal(sum(masked), whole)
        # Σ_k (I_k D_k M_kᵀ) ∘ R_k with every matrix explicit (reading
        # ``data`` densifies a CSR D_k, so it comes after the gathers).
        for factor, part, raw in zip(dataset.factors, masked, unmasked):
            lifted = factor.indicator.to_dense() @ np.asarray(factor.data)
            assert np.array_equal(raw, lifted @ factor.mapping.to_dense().T)
            assert np.array_equal(part, raw * factor.redundancy.to_dense())


class TestValidation:
    def test_label_column_must_be_in_target(self, hospital):
        s1, s2 = hospital
        with pytest.raises(MappingError):
            integrate_tables(
                s1, s2, hospital_column_matches(), hospital_row_matches(),
                ["m", "a", "hr", "o"], ScenarioType.INNER_JOIN, label_column="missing",
            )

    def test_source_without_numeric_mapped_columns_rejected(self):
        base = Table.from_dict("B", {"id": [1, 2], "x": [1.0, 2.0]}, id={"is_key": True})
        other = Table.from_dict("O", {"id": [1, 2], "note": ["a", "b"]}, id={"is_key": True})
        with pytest.raises(MappingError):
            integrate_tables(base, other, [], [], ["x", "note"], ScenarioType.LEFT_JOIN)

    @pytest.mark.parametrize("build", [integrate_tables, integrate_streams])
    @pytest.mark.parametrize(
        "row_matches, offender",
        [
            ((np.array([-1]), np.array([0])), "base row -1"),
            ((np.array([0]), np.array([999])), "other row 999"),
            ((np.array([20]), np.array([0])), "base row 20"),
            ((np.array([0, 1]), np.array([0])), "2 base rows with 1 other rows"),
        ],
    )
    def test_row_matches_outside_the_tables_rejected(self, build, row_matches, offender):
        spec = ScenarioSpec(ScenarioType.LEFT_JOIN, base_rows=20, other_rows=14, seed=1)
        base, other, matches, _, targets = generate_scenario_tables(spec)
        with pytest.raises(MappingError, match=offender):
            build(base, other, matches, row_matches, targets, ScenarioType.LEFT_JOIN)

    def test_many_to_one_row_matches_stay_legal(self):
        spec = ScenarioSpec(ScenarioType.LEFT_JOIN, base_rows=20, other_rows=14, seed=1)
        base, other, matches, _, targets = generate_scenario_tables(spec)
        row_matches = (np.array([0, 1, 2]), np.array([5, 5, 5]))
        dataset = integrate_tables(
            base, other, matches, row_matches, targets, ScenarioType.LEFT_JOIN
        )
        assert dataset.factors[1].indicator.compressed[:3].tolist() == [5, 5, 5]

    def test_empty_dataset_rejected(self):
        with pytest.raises(MappingError):
            IntegratedDataset(target_columns=["a"], n_target_rows=1, factors=[])

    def test_factor_shape_validation(self):
        mapping = MappingMatrix("S", ["a"], ["x"], {"x": "a"})
        indicator = IndicatorMatrix("S", 2, 2, [0, 1])
        redundancy = RedundancyMatrix.all_ones("S", 2, 1)
        with pytest.raises(MappingError):
            SourceFactor("S", np.zeros((2, 2)), ["x"], mapping, indicator, redundancy)
        with pytest.raises(MappingError):
            SourceFactor("S", np.zeros((3, 1)), ["x"], mapping, indicator, redundancy)

    def test_dataset_factor_consistency(self):
        mapping = MappingMatrix("S", ["a"], ["x"], {"x": "a"})
        indicator = IndicatorMatrix("S", 2, 2, [0, 1])
        redundancy = RedundancyMatrix.all_ones("S", 2, 1)
        factor = SourceFactor("S", np.zeros((2, 1)), ["x"], mapping, indicator, redundancy)
        with pytest.raises(MappingError):
            IntegratedDataset(target_columns=["a", "b"], n_target_rows=2, factors=[factor])
        with pytest.raises(MappingError):
            IntegratedDataset(target_columns=["a"], n_target_rows=5, factors=[factor])


class TestGenericBuilder:
    def test_three_source_integration(self):
        base = Table.from_dict("A", {"x": [1.0, 2.0, 3.0]})
        second = Table.from_dict("B", {"y": [10.0, 20.0, 30.0]})
        third = Table.from_dict("C", {"x": [9.0, 9.0, 9.0]})  # redundant with A
        dataset = build_integrated_dataset(
            sources=[base, second, third],
            correspondences={"A": {"x": "x"}, "B": {"y": "y"}, "C": {"x": "x"}},
            row_maps={"A": [0, 1, 2], "B": [0, 1, 2], "C": [0, 1, 2]},
            target_columns=["x", "y"],
            n_target_rows=3,
        )
        target = dataset.materialize()
        # The base table's x wins; C's overlapping values are masked out.
        assert target[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert target[:, 1].tolist() == [10.0, 20.0, 30.0]
        assert dataset.factor("C").redundancy.n_redundant == 3

    def test_three_sources_match_the_dense_reference(self):
        # x is shared by all three, y by B and C; NULLs and unfed target rows
        # make every complement irregular.
        sources = [
            Table.from_dict("A", {"x": [1.0, None, 3.0, 4.0], "a": [1.0, 1.0, 1.0, 1.0]}),
            Table.from_dict("B", {"x": [None, 20.0, 30.0], "y": [5.0, None, 7.0]}),
            Table.from_dict("C", {"x": [9.0, 9.0, None, 9.0, 9.0], "y": [8.0] * 5}),
        ]
        correspondences = [{"x": "x", "a": "a"}, {"x": "x", "y": "y"}, {"x": "x", "y": "y"}]
        row_maps = [[0, 1, 2, 3, -1, -1], [0, 1, -1, 2, 2, -1], [4, 3, 2, 1, 0, 0]]
        dataset = build_integrated_dataset(
            sources=sources,
            correspondences={t.name: c for t, c in zip(sources, correspondences)},
            row_maps={t.name: m for t, m in zip(sources, row_maps)},
            target_columns=["x", "y", "a"],
            n_target_rows=6,
        )
        assert_matches_dense(dataset, sources, correspondences, row_maps)
        assert dataset.factor("C").redundancy.n_redundant > 0

    def test_row_map_length_validation(self):
        base = Table.from_dict("A", {"x": [1.0]})
        with pytest.raises(MappingError):
            build_integrated_dataset(
                sources=[base],
                correspondences={"A": {"x": "x"}},
                row_maps={"A": [0, 1]},
                target_columns=["x"],
                n_target_rows=1,
            )

    def test_needs_at_least_one_source(self):
        with pytest.raises(MappingError):
            build_integrated_dataset(
                sources=[], correspondences={}, row_maps={}, target_columns=["x"], n_target_rows=0
            )


class TestNonNumericColumnIsNotAProvider:
    """A STRING base column matched into the target is not in ``D_1``, so it
    cannot shadow the numeric values the other source supplies for it."""

    def _inputs(self):
        base = Table.from_dict(
            "B", {"id": [1, 2, 3], "m": ["a", "b", "c"], "x": [1.0, 2.0, 3.0]},
            id={"is_key": True},
        )
        other = Table.from_dict(
            "O", {"id": [1, 2, 3], "m": [10.0, 20.0, 30.0]}, id={"is_key": True}
        )
        matches = [ColumnMatch("B", "id", "O", "id", 1.0), ColumnMatch("B", "m", "O", "m", 1.0)]
        row_matches = (np.arange(3), np.arange(3))
        return base, other, matches, row_matches, ["x", "m"]

    def test_two_source_entry_points(self):
        base, other, matches, row_matches, targets = self._inputs()
        scenario = ScenarioType.LEFT_JOIN
        with SpillStore() as store:
            for dataset in (
                integrate_tables(base, other, matches, row_matches, targets, scenario),
                integrate_streams(
                    base, other, matches, row_matches, targets, scenario, chunk_rows=2
                ),
                integrate_streams(
                    base, other, matches, row_matches, targets, scenario, store=store
                ),
            ):
                assert dataset.materialize()[:, 1].tolist() == [10.0, 20.0, 30.0]
                assert dataset.factors[1].redundancy.is_trivial
                assert_two_source_matches_dense(
                    dataset, base, other, matches, row_matches, scenario
                )

    def test_n_source_entry_point(self):
        base, other, _, _, targets = self._inputs()
        dataset = build_integrated_dataset(
            sources=[base, other],
            correspondences={"B": {"x": "x", "m": "m"}, "O": {"m": "m"}},
            row_maps={"B": [0, 1, 2], "O": [0, 1, 2]},
            target_columns=targets,
            n_target_rows=3,
        )
        assert dataset.materialize()[:, 1].tolist() == [10.0, 20.0, 30.0]


def test_one_chunk_build_never_touches_the_pool():
    spec = ScenarioSpec(ScenarioType.LEFT_JOIN, base_rows=50, other_rows=30, seed=3)
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)
    assert base.n_rows < DEFAULT_CHUNK_ROWS
    with parallel.num_threads(2), telemetry.collect(sample_memory=False) as session:
        integrate_tables(base, other, matches, row_matches, targets, spec.scenario)
        counters = session.report().counters
    assert counters.get("parallel.tasks", 0) == 0
