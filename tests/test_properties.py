"""Property-based tests (hypothesis) for the core invariants of DESIGN.md §5."""

import os
import zlib
from unittest import mock

import numpy as np
import pytest
from dense_reference import assert_two_source_matches_dense
from hypothesis import given, settings, strategies as st

from repro import parallel
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.exceptions import SchemaError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.matrices.builder import integrate_tables
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.metadata.entity_resolution import KeyBasedResolver, declared_key_pairs
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import (
    ColumnMatch,
    ColumnProfile,
    HybridMatcher,
    InstanceBasedMatcher,
    NameBasedMatcher,
)
from repro.metadata.similarity import (
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    ngram_jaccard_similarity,
    token_sort_similarity,
    value_overlap,
)
from repro.parallel import pool as parallel_pool
from repro.relational.io import read_csv
from repro.relational.table import Table
from repro.relational.types import (
    NULL_LITERALS,
    DataType,
    _coerce_column_fallback,
    coerce_column,
    infer_type,
    parse_cell,
)
from repro.serving import DatasetSession
from repro.streaming import SpillStore, ingest, integrate_streams
from repro.system.requests import DeltaBatch, IntegrationConfig

# Bounded sizes keep each hypothesis example fast while still exploring the
# structural space (scenario type, overlaps, redundancy axes, seeds).
synthetic_specs = st.builds(
    SyntheticSiloSpec,
    base_rows=st.integers(min_value=2, max_value=40),
    base_columns=st.integers(min_value=1, max_value=5),
    other_rows=st.integers(min_value=1, max_value=30),
    other_columns=st.integers(min_value=1, max_value=6),
    redundancy_in_target=st.booleans(),
    redundancy_in_sources=st.booleans(),
    overlap_column_fraction=st.floats(min_value=0.1, max_value=1.0),
    null_ratio=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=1000),
)

scenario_specs = st.builds(
    ScenarioSpec,
    scenario=st.sampled_from(list(ScenarioType)),
    base_rows=st.integers(min_value=2, max_value=20),
    other_rows=st.integers(min_value=2, max_value=15),
    base_features=st.integers(min_value=1, max_value=4),
    other_features=st.integers(min_value=1, max_value=4),
    overlap_rows=st.integers(min_value=0, max_value=20),
    overlap_columns=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=500),
)


class TestFactorizedOperatorEquivalence:
    """Invariant 2: every factorized operator equals its materialized version."""

    @settings(max_examples=40, deadline=None)
    @given(spec=synthetic_specs, operand_seed=st.integers(min_value=0, max_value=100))
    def test_lmm_and_transpose_lmm(self, spec, operand_seed):
        dataset = generate_integrated_pair(spec)
        matrix = AmalurMatrix(dataset)
        target = dataset.materialize()
        rng = np.random.default_rng(operand_seed)
        x = rng.standard_normal((target.shape[1], 2))
        y = rng.standard_normal((target.shape[0], 2))
        assert np.allclose(matrix.lmm(x), target @ x)
        assert np.allclose(matrix.transpose_lmm(y), target.T @ y)

    @settings(max_examples=25, deadline=None)
    @given(spec=synthetic_specs)
    def test_crossprod_rmm_and_aggregates(self, spec):
        dataset = generate_integrated_pair(spec)
        matrix = AmalurMatrix(dataset)
        target = dataset.materialize()
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((2, target.shape[0]))
        assert np.allclose(matrix.crossprod(), target.T @ target)
        assert np.allclose(matrix.rmm(z), z @ target)
        assert np.allclose(matrix.row_sums(), target.sum(axis=1))
        assert np.allclose(matrix.column_sums(), target.sum(axis=0))


class TestOperatorGrid:
    """The block grid is a function of the shape and the two grid settings:
    every worker count, one included, gives the same bits over it."""

    @settings(max_examples=30, deadline=None)
    @given(
        spec=scenario_specs,
        block_rows=st.sampled_from([1, 7, 29, 10_000]),
        blocked=st.booleans(),
    )
    def test_same_bits_at_every_worker_count(self, spec, block_rows, blocked):
        dataset = generate_scenario_dataset(spec)
        target = dataset.materialize()
        rng = np.random.default_rng(spec.seed)
        x = rng.standard_normal((target.shape[1], 2))
        y = rng.standard_normal((target.shape[0], 2))
        expected = (target @ x, target.T @ y, target.T @ target, y.T @ target)
        saved = (
            parallel.get_num_workers(), parallel.get_min_parallel_rows(),
            parallel.get_block_rows(), parallel_pool._break_even,
        )
        try:
            # every block fans out, small as it is (see fan_out_every_block)
            parallel_pool._break_even = 0.0
            parallel.set_block_rows(block_rows)
            # threshold 0 cuts every target into the grid; one above
            # ``n_rows`` keeps it in one block
            parallel.set_min_parallel_rows(0 if blocked else target.shape[0] + 1)
            runs = {}
            for workers in (1, 2, 8):
                parallel.set_num_workers(workers)
                matrix = AmalurMatrix(dataset)
                runs[workers] = (
                    matrix.lmm(x), matrix.transpose_lmm(y), matrix.crossprod(),
                    matrix.rmm(y.T), matrix.counter.total,
                )
        finally:
            parallel.set_num_workers(saved[0])
            parallel.set_min_parallel_rows(saved[1])
            parallel.set_block_rows(saved[2])
            parallel_pool._break_even = saved[3]
        for result, reference in zip(runs[1][:4], expected):
            assert np.max(np.abs(result - reference), initial=0.0) <= 1e-8
        for workers in (2, 8):
            for result, reference in zip(runs[workers][:4], runs[1][:4]):
                assert np.array_equal(result, reference), f"at {workers} workers"
            assert runs[workers][4] == runs[1][4]


class TestScenarioReconstruction:
    """Invariant 1: reconstruction equals integration for all Table I scenarios."""

    @settings(max_examples=30, deadline=None)
    @given(spec=scenario_specs)
    def test_materialization_is_consistent(self, spec):
        dataset = generate_scenario_dataset(spec)
        target = dataset.materialize()
        assert target.shape == dataset.shape
        # The label column comes only from the base table in non-union
        # scenarios, so every non-appended row's label equals the base value.
        base = dataset.factors[0]
        base_rows = base.indicator.compressed
        label_index = dataset.target_columns.index("label")
        for target_row, source_row in enumerate(base_rows):
            if source_row >= 0:
                label_source_col = base.mapping.compressed[label_index]
                if label_source_col >= 0:
                    assert target[target_row, label_index] == base.data[source_row, label_source_col]

    @settings(max_examples=30, deadline=None)
    @given(spec=scenario_specs)
    def test_each_target_cell_contributed_at_most_once(self, spec):
        """Invariant 5: redundancy masks prevent double counting."""
        dataset = generate_scenario_dataset(spec)
        if dataset.n_target_rows == 0:
            # An inner join with no overlapping entities has an empty target.
            return
        contributions = np.zeros(dataset.shape)
        for factor in dataset.factors:
            row_mask = (factor.indicator.compressed >= 0).astype(float)
            col_mask = (factor.mapping.compressed >= 0).astype(float)
            coverage = np.outer(row_mask, col_mask) * factor.redundancy.to_dense()
            contributions += coverage
        assert contributions.max() <= 1.0 + 1e-12


nullable_floats = st.one_of(st.none(), st.floats(-9, 9, allow_nan=False, width=16))


@st.composite
def keyed_table_pairs(draw):
    """Two tables over a small key domain (so keys repeat on both sides) with
    NULL-ridden columns: ``v`` shared, ``w`` / ``z`` private."""
    keys = st.integers(min_value=0, max_value=4)
    base_keys = draw(st.lists(keys, min_size=1, max_size=12))
    other_keys = draw(st.lists(keys, min_size=1, max_size=10))

    def table(name, table_keys, private):
        n = len(table_keys)
        values = st.lists(nullable_floats, min_size=n, max_size=n)
        return Table.from_dict(
            name,
            {"id": table_keys, "v": draw(values), private: draw(values)},
            id={"is_key": True},
            v={"dtype": DataType.FLOAT},
            **{private: {"dtype": DataType.FLOAT}},
        )

    base, other = table("B", base_keys, "w"), table("O", other_keys, "z")
    # Key-foreign-key matching: every base row meets the first other row
    # carrying its key, so one other row may feed several target rows.
    pairs = [(i, other_keys.index(k)) for i, k in enumerate(base_keys) if k in other_keys]
    left = np.array([i for i, _ in pairs], dtype=np.int64)
    right = np.array([j for _, j in pairs], dtype=np.int64)
    return base, other, (left, right)


class TestFactorBuild:
    """Every drive of the one build loop equals the dense reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        tables=keyed_table_pairs(),
        scenario=st.sampled_from(list(ScenarioType)),
        chunk_rows=st.integers(min_value=1, max_value=8),
        spilled=st.booleans(),
    )
    def test_null_masks_and_key_multiplicities_at_any_chunk_grid(
        self, tables, scenario, chunk_rows, spilled
    ):
        base, other, row_matches = tables
        matches = [ColumnMatch("B", "id", "O", "id", 1.0), ColumnMatch("B", "v", "O", "v", 1.0)]
        with SpillStore(checksums=True) as store:
            dataset = integrate_streams(
                base, other, matches, row_matches, ["v", "w", "z"], scenario,
                store=store if spilled else None, chunk_rows=chunk_rows,
            )
            assert_two_source_matches_dense(
                dataset, base, other, matches, row_matches, scenario
            )


# -- serving: appended rows matched by the rebuild's resolver ---------------------------------
#: key shape -> per key column (base dtype, other dtype, non-NULL cells). The
#: domains are small so keys repeat on both sides; appends draw from the same
#: cells, so they re-use existing keys, introduce absent ones and carry NULLs.
KEY_SHAPES = {
    "int": {"id": (DataType.INT, DataType.INT, st.integers(0, 5))},
    "int_vs_float": {"id": (DataType.INT, DataType.FLOAT, st.integers(0, 5))},
    "string": {"id": (DataType.STRING, DataType.STRING, st.sampled_from(["a", "b", "cc", "d"]))},
    "composite": {
        "id": (DataType.INT, DataType.INT, st.integers(0, 2)),
        "site": (DataType.STRING, DataType.STRING, st.sampled_from(["x", "y"])),
    },
}


def keyed_rows(draw, shape, side, n_rows):
    """Column payload for ``n_rows`` rows of the base (0) or other (1) table."""
    rows = {
        # one cell in four is NULL
        key: draw(st.lists(
            st.one_of(spec[2], spec[2], spec[2], st.none()), min_size=n_rows, max_size=n_rows
        ))
        for key, spec in KEY_SHAPES[shape].items()
    }
    floats = st.lists(nullable_floats, min_size=n_rows, max_size=n_rows)
    if side == 0:
        rows["label"] = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    rows["v"] = draw(floats)
    rows["wz"[side]] = draw(floats)
    return rows


@st.composite
def keyed_session_scripts(draw):
    """Two keyed tables plus a random interleaving of base / other appends."""
    shape = draw(st.sampled_from(sorted(KEY_SHAPES)))
    tables = []
    for side, name in enumerate("BO"):
        rows = keyed_rows(draw, shape, side, draw(st.integers(1, 8)))
        overrides = {column: {"dtype": DataType.FLOAT} for column in rows if column != "label"}
        for key, spec in KEY_SHAPES[shape].items():
            overrides[key] = {"dtype": spec[side], "is_key": True}
        tables.append(Table.from_dict(name, rows, **overrides))
    appends = [
        DeltaBatch("BO"[side], "append", rows=keyed_rows(draw, shape, side, n_rows))
        for side, n_rows in draw(st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 4)), min_size=1, max_size=5
        ))
    ]
    return tables[0], tables[1], appends


def assert_session_is_the_rebuild(session):
    """The maintained factors are ``integrate_tables`` over ``resolve_index``
    of the session's current tables, and both are the dense oracle's."""
    base, other, config = session.table("B"), session.table("O"), session.config
    row_matches = KeyBasedResolver(declared_key_pairs(base, other)).resolve_index(base, other)
    rebuilt = integrate_tables(
        base, other, session.column_matches, row_matches,
        config.target_columns, config.scenario, label_column=config.label_column,
    )
    assert session.n_target_rows == rebuilt.n_target_rows
    for ours, theirs in zip(session.dataset.factors, rebuilt.factors):
        assert np.array_equal(ours.data, theirs.data)
        assert np.array_equal(ours.indicator.compressed, theirs.indicator.compressed)
        assert ours.redundancy == theirs.redundancy
    assert_two_source_matches_dense(
        session.dataset, base, other, session.column_matches, row_matches, config.scenario
    )
    target = rebuilt.materialize()
    assert np.allclose(session.matrix.crossprod(), target.T @ target, atol=1e-8)
    assert np.allclose(session.matrix.column_sums(), target.sum(axis=0), atol=1e-8)
    return row_matches


class TestSessionAppendMatching:
    """The session matches appended rows with the resolver its rebuild calls,
    on the keys ``generate_scenario_tables`` never draws: duplicates on both
    sides, NULLs, composite, INT-vs-FLOAT and STRING keys."""

    @settings(max_examples=80, deadline=None)
    @given(script=keyed_session_scripts(), scenario=st.sampled_from(list(ScenarioType)))
    def test_any_append_interleaving_is_the_rebuild(self, script, scenario):
        base, other, appends = script
        config = IntegrationConfig(
            base="B", other="O", target_columns=["label", "v", "w", "z"],
            scenario=scenario, label_column="label",
        )
        matches = [
            ColumnMatch("B", column, "O", column, 1.0)
            for column in [key for key, _ in declared_key_pairs(base, other)] + ["v"]
        ]
        session = DatasetSession(
            base, other, config, column_matches=matches, staleness_threshold=float("inf")
        )
        assert_session_is_the_rebuild(session)
        for batch in appends:
            other_only_rows = session.dataset.factors[0].indicator.compressed < 0
            n_other = session.table("O").n_rows
            summary = session.apply_delta(batch)
            _, matched_other = assert_session_is_the_rebuild(session)
            if batch.table == "B":
                absorbed = scenario is not ScenarioType.UNION and not (
                    scenario is ScenarioType.FULL_OUTER_JOIN and other_only_rows.any()
                )
            else:
                absorbed = not (
                    scenario is ScenarioType.INNER_JOIN and (matched_other >= n_other).any()
                )
            assert summary["mode"] == ("incremental" if absorbed else "rebuild")
            assert summary["n_target_rows"] == session.n_target_rows


class TestCompressedRoundTrips:
    """Invariant 4: compressed vectors round-trip to full matrices."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_target=st.integers(min_value=1, max_value=12),
        n_source=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mapping_matrix_round_trip(self, n_target, n_source, seed):
        rng = np.random.default_rng(seed)
        target_columns = [f"t{i}" for i in range(n_target)]
        source_columns = [f"s{j}" for j in range(n_source)]
        # Random injective partial mapping source→target.
        n_mapped = int(rng.integers(0, min(n_target, n_source) + 1))
        targets = rng.choice(n_target, size=n_mapped, replace=False)
        sources = rng.choice(n_source, size=n_mapped, replace=False)
        correspondences = {
            source_columns[s]: target_columns[t] for s, t in zip(sources, targets)
        }
        mapping = MappingMatrix("S", target_columns, source_columns, correspondences)
        assert MappingMatrix.from_compressed(
            "S", target_columns, source_columns, mapping.compressed
        ) == mapping
        assert MappingMatrix.from_dense(
            "S", target_columns, source_columns, mapping.to_dense()
        ) == mapping
        assert mapping.n_mapped == n_mapped

    @settings(max_examples=50, deadline=None)
    @given(
        n_target=st.integers(min_value=1, max_value=15),
        n_source=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_indicator_matrix_round_trip(self, n_target, n_source, seed):
        rng = np.random.default_rng(seed)
        compressed = rng.integers(-1, n_source, size=n_target)
        indicator = IndicatorMatrix("S", n_target, n_source, compressed)
        assert IndicatorMatrix.from_dense("S", indicator.to_dense()) == indicator
        data = rng.standard_normal((n_source, 3))
        assert np.allclose(indicator.apply(data), indicator.to_dense() @ data)


def dynamic_program_levenshtein(a, b):
    """The edit-distance table, row by row: the oracle for the bit-parallel distance."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(min(
                current[j - 1] + 1, previous[j] + 1, previous[j - 1] + (char_a != char_b)
            ))
        previous = current
    return previous[-1]


class TestSimilarityProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.text(max_size=40), st.text("ab_", max_size=40)),
        st.one_of(st.text(max_size=40), st.text("ab_", max_size=40)),
    )
    def test_levenshtein_equals_the_dynamic_program(self, a, b):
        assert levenshtein_distance(a, b) == dynamic_program_levenshtein(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_levenshtein_symmetry_and_bounds(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)
        similarity = levenshtein_similarity(a, b)
        assert 0.0 <= similarity <= 1.0
        assert levenshtein_similarity(a, a) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_jaro_winkler_and_ngram_bounds(self, a, b):
        assert 0.0 <= jaro_winkler_similarity(a, b) <= 1.0 + 1e-9
        assert 0.0 <= ngram_jaccard_similarity(a, b) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=1, max_size=10))
    def test_identity(self, a):
        assert jaro_winkler_similarity(a, a) == pytest.approx(1.0)
        assert ngram_jaccard_similarity(a, a) == 1.0


# -- schema matching: one profile per column, the same scores ---------------------------------
#
# The per-pair scorers as they stood before columns were profiled once, kept
# verbatim as the reference. The only edit is where a sample comes from: the
# profile, because a STRING column over ``sample_size`` distinct values is now
# sampled by checksum (``test_profile_sample`` pins every other sample to
# ``list(distinct_values)[:sample_size]``).


def reference_name_score(left_column, right_column):
    a, b = left_column.lower(), right_column.lower()
    if a == b:
        return 1.0
    return max(
        levenshtein_similarity(a, b),
        jaro_winkler_similarity(a, b),
        ngram_jaccard_similarity(a, b),
        token_sort_similarity(a, b),
    )


def reference_range_overlap(left_values, right_values):
    left_lo, left_hi = min(left_values), max(left_values)
    right_lo, right_hi = min(right_values), max(right_values)
    intersection = min(left_hi, right_hi) - max(left_lo, right_lo)
    if intersection <= 0:
        return 0.0
    union = max(left_hi, right_hi) - min(left_lo, right_lo)
    if union <= 0:
        return 1.0
    return intersection / union


def reference_instance_score(matcher, left, left_column, right, right_column):
    left_dtype = left.schema[left_column].dtype
    right_dtype = right.schema[right_column].dtype
    if left_dtype.is_numeric != right_dtype.is_numeric:
        return 0.0
    left_values = list(matcher.profile(left, left_column).values)
    right_values = list(matcher.profile(right, right_column).values)
    if not left_values or not right_values:
        return 0.0
    overlap = value_overlap(left_values, right_values)
    if left_dtype.is_numeric and right_dtype.is_numeric:
        overlap = max(overlap, reference_range_overlap(left_values, right_values))
    return overlap


def reference_score(matcher, left, left_column, right, right_column):
    if isinstance(matcher, NameBasedMatcher):
        return reference_name_score(left_column, right_column)
    if isinstance(matcher, InstanceBasedMatcher):
        return reference_instance_score(matcher, left, left_column, right, right_column)
    name_score = reference_name_score(left_column, right_column)
    instance_score = reference_instance_score(matcher, left, left_column, right, right_column)
    return matcher.name_weight * name_score + matcher.instance_weight * instance_score


def reference_match(matcher, left, right, scores):
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    used_left, used_right, matches = set(), set(), []
    for (left_column, right_column), score in ranked:
        if score < matcher.threshold:
            break
        if left_column in used_left or right_column in used_right:
            continue
        used_left.add(left_column)
        used_right.add(right_column)
        matches.append(ColumnMatch(left.name, left_column, right.name, right_column, score))
    return matches


#: small domains, so values repeat inside a column and are shared between
#: tables, and distinct counts land on both sides of the drawn ``sample_size``
MATCH_CELLS = {
    DataType.INT: st.one_of(
        st.integers(0, 7), st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1])
    ),
    # no NaN: a table reads it as NULL (``TestValueOverlapCodes`` draws NaN samples)
    DataType.FLOAT: st.one_of(
        st.floats(-2, 2, allow_nan=False, width=16),
        st.sampled_from([-0.0, 2.0**53, 2.0**53 + 2, 2.0**63, float("inf")]),
    ),
    DataType.STRING: st.sampled_from(["a", "b", "cc", "d", "ee", "1", "2", "True"]),
    DataType.BOOL: st.booleans(),
}
MATCH_NAMES = ["id", "ID", "age", "Age_Years", "years age", "heart_rate", "heartrate", "x1"]


@st.composite
def matchable_tables(draw, name):
    """1-4 columns of mixed dtypes over 0-12 rows, NULLs and all-NULL columns included."""
    n_rows = draw(st.integers(0, 12))
    names = draw(st.lists(st.sampled_from(MATCH_NAMES), min_size=1, max_size=4, unique=True))
    data, overrides = {}, {}
    for column in names:
        dtype = draw(st.sampled_from(list(MATCH_CELLS)))
        all_null = draw(st.integers(0, 5)) == 0
        cells = st.none() if all_null else st.one_of(st.none(), MATCH_CELLS[dtype])
        data[column] = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        overrides[column] = {"dtype": dtype}
    return Table.from_dict(name, data, **overrides)


class TestSchemaMatchingProfiles:
    """Scoring from per-column profiles is the per-pair scoring, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        left=matchable_tables("L"),
        right=matchable_tables("R"),
        sample_size=st.integers(1, 6),
        threshold=st.sampled_from([0.0, 0.3, 0.6]),
    )
    def test_score_matrix_and_matches_equal_the_per_pair_scorers(
        self, left, right, sample_size, threshold
    ):
        for matcher in (
            NameBasedMatcher(threshold),
            InstanceBasedMatcher(threshold, sample_size=sample_size),
            HybridMatcher(threshold, name_weight=0.3, instance_weight=0.5),
        ):
            reference = {
                (lc, rc): reference_score(matcher, left, lc, right, rc)
                for lc in left.schema.names
                for rc in right.schema.names
            }
            scores = matcher.score_matrix(left, right)
            assert scores == reference
            assert list(scores) == list(reference)
            assert all(
                matcher.score(left, lc, right, rc) == score for (lc, rc), score in scores.items()
            )
            assert matcher.match(left, right) == reference_match(matcher, left, right, reference)

    @settings(max_examples=100, deadline=None)
    @given(table=matchable_tables("T"), sample_size=st.integers(1, 6))
    def test_profile_sample(self, table, sample_size):
        matcher = InstanceBasedMatcher(sample_size=sample_size)
        for column in table.schema.names:
            profile = matcher.profile(table, column)
            distinct = table.distinct_values(column)
            dtype = table.schema[column].dtype
            if dtype is DataType.STRING and len(distinct) > sample_size:
                by_checksum = sorted(distinct, key=lambda v: (zlib.crc32(v.encode("utf-8")), v))
                assert profile.values == frozenset(by_checksum[:sample_size])
            else:
                sample = list(distinct)[:sample_size]
                assert profile.values == frozenset(sample)
                if dtype.is_numeric and sample:
                    assert (profile.lo, profile.hi) == (min(sample), max(sample))
            assert profile.name == column.lower() and profile.is_numeric == dtype.is_numeric


#: sample values where Python ``==`` is not float64 equality: ints past 2**53,
#: signed zeros, infinities, NaN (a fresh object per draw, as ``tolist()``
#: gives), and bools beside strings that spell them
OVERLAP_VALUES = {
    DataType.INT: st.sampled_from([0, 1, 2, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]),
    DataType.FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0**53, 2.0**53 + 2, 2.0**63, -(2.0**63),
                         float("inf"), float("-inf")]),
        st.builds(float, st.just("nan")),
    ),
    DataType.STRING: st.sampled_from(["", "0", "1", "True", "nan", "inf"]),
    DataType.BOOL: st.booleans(),
}


@st.composite
def sample_profiles(draw):
    dtype = draw(st.sampled_from(list(OVERLAP_VALUES)))
    values = frozenset(draw(st.lists(OVERLAP_VALUES[dtype], max_size=8)))
    lo, hi = (min(values), max(values)) if dtype.is_numeric and values else (None, None)
    return ColumnProfile("c", dtype, values, lo, hi)


def reference_profile_score(a, b):
    """The instance score of one pair of profiles, with the frozenset intersection."""
    if a.is_numeric != b.is_numeric or not a.values or not b.values:
        return 0.0
    overlap = len(a.values & b.values) / min(len(a.values), len(b.values))
    if a.is_numeric:
        intersection = min(a.hi, b.hi) - max(a.lo, b.lo)
        union = max(a.hi, b.hi) - min(a.lo, b.lo)
        if intersection <= 0:
            ranged = 0.0
        else:
            ranged = 1.0 if union <= 0 else intersection / union
        overlap = max(overlap, ranged)
    return overlap


class TestValueOverlapCodes:
    """One sparse product counts what every pair's frozenset intersection counts."""

    @settings(max_examples=200, deadline=None)
    @given(
        lefts=st.lists(sample_profiles(), min_size=1, max_size=4),
        rights=st.lists(sample_profiles(), min_size=1, max_size=4),
    )
    def test_score_grid_equals_the_frozenset_scores(self, lefts, rights):
        grid = InstanceBasedMatcher().score_grid(lefts, rights)
        assert grid == [[reference_profile_score(a, b) for b in rights] for a in lefts]


# -- CSV cell kernel -------------------------------------------------------------------------
#
# A grammar of cell spellings, so that the cases a sweep must not mistype come
# up far more often than random text would produce them.

DIGIT_ZEROS = "0\u0660\u0966\uff10"  # ASCII, Arabic-Indic, Devanagari, fullwidth


@st.composite
def digit_runs(draw):
    zero = ord(draw(st.sampled_from(DIGIT_ZEROS)))
    run = draw(st.text(alphabet="0123456789", min_size=1, max_size=6))
    return "".join(chr(zero + int(d)) for d in run)


integer_cells = st.builds(
    lambda sign, pad, groups: sign + pad + "_".join(groups),
    st.sampled_from(["", "", "+", "-"]),
    st.sampled_from(["", "", "0", "000"]),
    st.lists(digit_runs(), min_size=1, max_size=3),
)
beyond_int64_cells = st.one_of(
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2).map(str),
    st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 2).map(str),
    st.integers(min_value=2**63, max_value=10**40).map(str),
    st.just("1" + "0" * 400),  # float() says inf; int() reads every digit
)
float_cells = st.one_of(
    st.sampled_from([
        "12.0", "-3.0", "1e3", "1E-4", ".5", "5.", "-0.0", "1e400", "-1e400", "1_0.5", "1_0e1_0",
        "inf", "-inf", "+Infinity", "nan", "-nan", "+NaN",
    ]),
    st.floats(allow_nan=False).map(repr),
    st.builds("{}.{}".format, st.integers(-999, 999), digit_runs()),
)
numeric_cells = st.one_of(integer_cells, integer_cells, float_cells, beyond_int64_cells)


def any_case(literals):
    return st.sampled_from(literals).flatmap(
        lambda word: st.tuples(*[st.sampled_from([ch.lower(), ch.upper()]) for ch in word]).map("".join)
    )


null_cells = any_case(NULL_LITERALS)
bool_cells = any_case(["true", "false"])
# No NUL: csv.reader refuses a line holding one, so no cell ever carries it.
text_cells = st.text(st.characters(exclude_characters="\x00", exclude_categories=["Cs"]), max_size=8)
near_misses = st.sampled_from(
    ["--5", "+-5", "5 5", "0x10", "1__0", "_1", "1_", "\u00b2", "12.0x", "nulls", "falsey", "t", "a_b"]
)
plain_cells = st.one_of(numeric_cells, null_cells, bool_cells, text_cells, near_misses)
escaped_cells = plain_cells.map("\\{}".format)
paddings = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0", "\u2003", "\u3000 "])


def padded(cells):
    return st.builds("{}{}{}".format, paddings, cells, paddings)


def columns(*cells):
    return st.lists(padded(st.one_of(*cells)), min_size=1, max_size=12)


cell_columns = st.one_of(
    columns(numeric_cells),
    columns(numeric_cells, numeric_cells, null_cells),
    columns(plain_cells, escaped_cells),
)


def storage_or_error(coerce, dtype):
    """``coerce(dtype)`` as comparable lists, or the error class it raised.

    The raw ``OverflowError`` is ``float()`` of an integer beyond the float
    range; both sides let it through from ``coerce_value``.
    """
    try:
        values, valid = coerce(dtype)
    except (SchemaError, OverflowError) as exc:
        return type(exc)
    assert values.dtype == coerce_column([], dtype)[0].dtype
    # the placeholder under a NULL is storage detail the masks make unreadable
    return [v for v, ok in zip(values.tolist(), valid.tolist()) if ok], valid.tolist()


class TestCsvCellKernel:
    """``parse_cell_block`` is ``parse_cell`` per cell, ``infer_type`` and
    ``coerce_column`` per column — whichever sweeps a column takes."""

    @settings(max_examples=400, deadline=None)
    @given(cells=cell_columns)
    def test_block_equals_scalar_pipeline(self, cells, assert_matches_scalar_parser):
        block = assert_matches_scalar_parser(cells)
        parsed = [parse_cell(cell) for cell in cells]
        # A cell parsed to a string stays one ("\\5" is the text "5"), whereas
        # infer_type would parse a string value once more.
        assert block.flags.infer() is infer_type(
            ["text" if isinstance(value, str) else value for value in parsed]
        )
        # coerce_column sends a mixed list through float64, which rounds an
        # integer beyond 2**53; its element-wise fallback is exact there.
        rounds = any(type(v) is int and abs(v) > 2**53 for v in parsed)
        reference = _coerce_column_fallback if rounds else coerce_column
        for dtype in DataType:
            got = storage_or_error(block.finalize, dtype)
            want = storage_or_error(lambda dt: reference(parsed, dt), dtype)
            if isinstance(want, type) or isinstance(got, type):
                # which bad cell is reported first is not part of the contract
                assert isinstance(want, type) and isinstance(got, type), (dtype, got, want)
            elif dtype is DataType.FLOAT:
                assert got[1] == want[1] and np.array_equal(got[0], want[0]), (dtype, got, want)
            else:
                assert got == want, (dtype, got, want)


# -- the C tier's typed pass across blocks -------------------------------------------------------
#
# Multi-block plain files (ASCII, unquoted, no blank line) whose columns change
# integral spelling at a block boundary or mid-block, so that the typed pass's
# int64 guess is right, wrong, or dropped from one block to the next. Their
# lines end in LF, CRLF or a mix, with now and then a lone CR (the text reader
# ends a line there, so the bytes read ahead of it must not take that block).

ascii_integer_cells = st.one_of(
    *[st.integers(-(10**12), 10**12).map(str)] * 4,
    st.builds(  # the cell grammar's signs and zero pads, with ASCII digits
        "{}{}{}".format,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "000"]),
        st.text(alphabet="0123456789", min_size=1, max_size=6),
    ),
)
fractional_cells = st.builds("{}.{:02d}".format, st.integers(-99, 99), st.integers(1, 99))
# Spellings an int64 field rejects although float() reads them (or reads them as
# NaN); numpy rejects "1_000" outright, so the rest of its file takes csv.reader.
int_breakers = st.one_of(
    st.sampled_from(["3.0", "-0.0", "1e3", "12.0", "nan", "-nan", "inf", "1e400", "1_000"]),
    beyond_int64_cells,
)
# Cells that send a float column to the per-column path: integral or NaN.
float_breakers = st.sampled_from(["nan", "-nan", "NaN", "3.0", "1e3", "inf", "-7", "0"])
block_kinds = st.sampled_from(
    ["int", "int", "float", "int then float", "int with a breaker", "float with a breaker"]
)


@st.composite
def typed_pass_files(draw):
    """``(text, chunk_rows)``: a CSV of 2-4 blocks and 1-4 columns."""
    chunk_rows = draw(st.integers(1, 5))
    n_rows = draw(st.integers(chunk_rows + 1, 4 * chunk_rows))
    width = draw(st.integers(1, 4))
    pad = st.sampled_from(["", "", "", " ", "\t"])
    columns = []
    for _ in range(width):
        cells: list = []
        while len(cells) < n_rows:
            kind = draw(block_kinds)
            block = draw(st.lists(
                fractional_cells if kind == "float" else ascii_integer_cells,
                min_size=chunk_rows, max_size=chunk_rows,
            ))
            at = draw(st.integers(0, chunk_rows - 1))
            if kind == "int then float":
                tail = chunk_rows - at
                block[at:] = draw(st.lists(fractional_cells, min_size=tail, max_size=tail))
            elif kind == "int with a breaker":
                block[at] = draw(int_breakers)
            elif kind == "float with a breaker":
                block[at] = draw(float_breakers)
            cells.extend(block)
        columns.append([draw(pad) + cell + draw(pad) for cell in cells[:n_rows]])
    lines = [",".join(f"c{j}" for j in range(width)), *map(",".join, zip(*columns))]
    eol = st.sampled_from(["\n", "\r\n"]).flatmap(
        lambda common: st.sampled_from([common] * 30 + ["\n", "\r\n", "\r"])
    )
    ends = draw(st.lists(eol, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)), chunk_rows


def ingest_outcome(path, chunk_rows):
    """Replay records, chunk bytes and ``read_csv`` storage of ``path``, or the error raised."""
    reader = ingest.ChunkedCsvReader(path, chunk_rows=chunk_rows)
    try:
        reader.scan()
        replay = reader._replay
        records = [os.pread(replay._file.fileno(), size, at) for at, size in replay._spans]
        chunks = [
            (chunk.offset, [(chunk.column_values(c).tobytes(), chunk.column_valid(c).tobytes())
                            for c in chunk.schema.names])
            for chunk in reader.chunks()
        ]
        table = read_csv(path)
    except SchemaError as exc:
        return type(exc), str(exc)
    storage = []
    for name in table.schema.names:
        values = table.column_values(name)  # bit for bit: a NULL's NaN is not == itself
        storage.append((values.tobytes() if values.dtype.kind == "f" else values.tolist(),
                        table.column_valid(name).tolist()))
    return str(reader.schema), records, chunks, str(table.schema), storage


class TestTypedPass:
    """The C tier's one typed ``np.loadtxt`` per block, its fallback, its
    int64 guess from block to block and the bytes read ahead of the text
    reader give every file what ``csv.reader`` alone gives."""

    @settings(max_examples=200, deadline=None)
    @given(typed_pass_files())
    def test_same_chunks_records_and_table_as_csv_reader(self, tmp_path_factory, csv_file):
        text, chunk_rows = csv_file
        path = tmp_path_factory.mktemp("typed") / "blocks.csv"
        path.write_bytes(text.encode())
        with_c_tier = ingest_outcome(path, chunk_rows)
        with mock.patch.object(np, "loadtxt", side_effect=ValueError("C tier off")), \
                mock.patch.object(ingest, "_is_plain_bytes", return_value=False):
            assert ingest_outcome(path, chunk_rows) == with_c_tier
