"""The factor build does not depend on how it is driven.

``integrate_tables`` is ``integrate_streams`` without a store, so comparing
the two checks one engine at two chunk grids: the build must not depend on
chunk rows, on resident vs spilled vs spilled + checksums, or on the worker
count. What the factors *should* be comes from the independent dense
formulation in ``tests/dense_reference.py``.
"""

import mmap

import numpy as np
import pytest
from dense_reference import assert_two_source_matches_dense

from repro import parallel
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_streams,
    generate_scenario_tables,
)
from repro.matrices.builder import integrate_tables
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.table import Table
from repro.streaming import InMemoryTableStream, SpillStore, integrate_streams
from repro.telemetry.memory import rss_breakdown

CHUNK_SIZES = (1, 7, 10_000)
STORAGE_ROUTES = ("resident", "spilled", "spilled+checksums")


def _build_on_route(route, *args, **kwargs):
    """``integrate_streams`` on one storage route; spilled data read back resident."""
    if route == "resident":
        return integrate_streams(*args, **kwargs)
    with SpillStore(checksums=route.endswith("checksums")) as store:
        dataset = integrate_streams(*args, store=store, **kwargs)
        for factor in dataset.factors:
            factor.data = np.array(factor.data)
    return dataset


def _assert_datasets_identical(mem, streamed):
    assert streamed.n_target_rows == mem.n_target_rows
    assert streamed.target_columns == mem.target_columns
    for factor_mem, factor_stream in zip(mem.factors, streamed.factors):
        assert factor_stream.source_columns == factor_mem.source_columns
        # CI_k row maps identical.
        assert np.array_equal(
            factor_stream.indicator.compressed, factor_mem.indicator.compressed
        )
        # CM_k column maps identical.
        assert np.array_equal(
            factor_stream.mapping.compressed, factor_mem.mapping.compressed
        )
        # Factor cells identical (spilled memmap vs resident array).
        assert np.array_equal(np.asarray(factor_stream.data), factor_mem.data)
        # Redundancy masks semantically identical (cell-for-cell).
        assert factor_stream.redundancy == factor_mem.redundancy
    assert np.array_equal(streamed.materialize(), mem.materialize())


class TestScenarioParity:
    @pytest.mark.parametrize("scenario", list(ScenarioType))
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_spilled_build_matches_in_memory(self, scenario, chunk_rows):
        spec = ScenarioSpec(
            scenario, base_rows=80, other_rows=60, base_features=4,
            other_features=5, overlap_rows=25, overlap_columns=2, seed=9,
        )
        base, other, matches, row_matches, targets = generate_scenario_tables(spec)
        mem = integrate_tables(
            base, other, matches, row_matches, targets, scenario, label_column="label"
        )
        with SpillStore() as store:
            streamed = integrate_streams(
                InMemoryTableStream(base, chunk_rows),
                InMemoryTableStream(other, chunk_rows),
                matches, row_matches, targets, scenario,
                label_column="label", store=store,
            )
            _assert_datasets_identical(mem, streamed)

    @pytest.mark.parametrize("scenario", list(ScenarioType))
    @pytest.mark.parametrize("route", STORAGE_ROUTES)
    @pytest.mark.parametrize("workers", (1, 2, 8))
    def test_every_route_matches_the_dense_reference(self, scenario, route, workers):
        spec = ScenarioSpec(
            scenario, base_rows=80, other_rows=60, base_features=4,
            other_features=5, overlap_rows=25, overlap_columns=2, seed=9,
        )
        base, other, matches, row_matches, targets = generate_scenario_tables(spec)
        with parallel.num_threads(workers):
            for chunk_rows in CHUNK_SIZES:
                built = _build_on_route(
                    route, base, other, matches, row_matches, targets, scenario,
                    label_column="label", chunk_rows=chunk_rows,
                )
                assert_two_source_matches_dense(
                    built, base, other, matches, row_matches, scenario
                )

    def test_resident_build_without_store(self):
        spec = ScenarioSpec(ScenarioType.INNER_JOIN, base_rows=50, other_rows=40,
                            overlap_rows=20, overlap_columns=1, seed=2)
        base, other, matches, row_matches, targets = generate_scenario_tables(spec)
        mem = integrate_tables(
            base, other, matches, row_matches, targets, spec.scenario,
            label_column="label",
        )
        streamed = integrate_streams(
            base, other, matches, row_matches, targets, spec.scenario,
            label_column="label", chunk_rows=13,
        )
        _assert_datasets_identical(mem, streamed)


class TestChunkBoundaries:
    """Chunk boundaries that split duplicate-key runs must not change the build."""

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, 7))
    def test_duplicate_key_runs_split_across_chunks(self, chunk_rows):
        # Keys repeat in runs longer than the chunk size, with NULL-bearing
        # overlap columns so the redundancy complement is irregular.
        base = Table.from_dict(
            "B",
            {
                "id": [0, 0, 0, 1, 1, 2, 2, 2, 2, 3],
                "v": [1.0, None, 3.0, 4.0, None, 6.0, 7.0, None, 9.0, 10.0],
                "w": [0.5] * 10,
            },
            id={"is_key": True},
        )
        other = Table.from_dict(
            "O",
            {
                "id": [0, 0, 1, 2, 2, 2, 4],
                "v": [None, 2.0, 30.0, 60.0, None, 80.0, 99.0],
                "z": [9.0, 8.0, 7.0, 6.0, 5.0, None, 3.0],
            },
            id={"is_key": True},
        )
        matches = [
            ColumnMatch("B", "id", "O", "id", 1.0),
            ColumnMatch("B", "v", "O", "v", 1.0),
        ]
        # Many-to-one row matches onto duplicate-key runs.
        row_matches = (
            np.array([0, 1, 2, 3, 5, 6, 7], dtype=np.int64),
            np.array([0, 1, 1, 2, 3, 4, 5], dtype=np.int64),
        )
        targets = ["v", "w", "z"]
        for scenario in (ScenarioType.INNER_JOIN, ScenarioType.LEFT_JOIN,
                         ScenarioType.FULL_OUTER_JOIN):
            mem = integrate_tables(
                base, other, matches, row_matches, targets, scenario
            )
            assert_two_source_matches_dense(
                mem, base, other, matches, row_matches, scenario
            )
            with SpillStore() as store:
                streamed = integrate_streams(
                    InMemoryTableStream(base, chunk_rows),
                    InMemoryTableStream(other, chunk_rows),
                    matches, row_matches, targets, scenario, store=store,
                )
                _assert_datasets_identical(mem, streamed)
            for route in STORAGE_ROUTES:
                built = _build_on_route(
                    route, base, other, matches, row_matches, targets, scenario,
                    chunk_rows=chunk_rows,
                )
                assert_two_source_matches_dense(
                    built, base, other, matches, row_matches, scenario
                )


class TestHashedStreamSources:
    @pytest.mark.parametrize("scenario", list(ScenarioType))
    def test_generated_streams_build_like_their_materialization(self, scenario):
        spec = ScenarioSpec(scenario, base_rows=120, other_rows=90, base_features=3,
                            other_features=4, overlap_rows=40, overlap_columns=1, seed=4)
        base, other, matches, row_matches, targets = generate_scenario_streams(
            spec, chunk_rows=29
        )
        mem = integrate_tables(
            base.read_table(), other.read_table(), matches, row_matches,
            targets, scenario, label_column="label",
        )
        with SpillStore() as store:
            streamed = integrate_streams(
                base, other, matches, row_matches, targets, scenario,
                label_column="label", store=store,
            )
            _assert_datasets_identical(mem, streamed)

    def test_chunk_size_invariance(self):
        spec = ScenarioSpec(ScenarioType.LEFT_JOIN, base_rows=70, other_rows=50,
                            overlap_rows=30, overlap_columns=2, seed=8)
        small, *_ = generate_scenario_streams(spec, chunk_rows=3)
        large, *_ = generate_scenario_streams(spec, chunk_rows=10_000)
        assert small.read_table().equals(large.read_table())


class TestSpillStore:
    def test_allocate_release_cleanup(self, tmp_path):
        store = SpillStore(tmp_path / "spill")
        matrix = store.allocate("d", 10, 3)
        matrix[:] = 1.5
        store.release()  # drop pages without writing back; data must survive
        assert np.all(np.asarray(matrix) == 1.5)
        assert store.spilled_bytes == 10 * 3 * 8
        assert (tmp_path / "spill" / "d.f64").exists()
        store.cleanup()

    def test_release_drops_pages_without_writing_back(self, tmp_path, monkeypatch):
        flushes = []

        class SpyMmap(mmap.mmap):
            def flush(self, *args):
                flushes.append("mmap.mmap.flush")
                return super().flush(*args)

        real_memmap_flush = np.memmap.flush

        def spy_memmap_flush(matrix):
            flushes.append("np.memmap.flush")
            real_memmap_flush(matrix)

        monkeypatch.setattr(mmap, "mmap", SpyMmap)  # numpy's memmap maps through it
        monkeypatch.setattr(np.memmap, "flush", spy_memmap_flush)
        store = SpillStore(tmp_path / "spill")
        rows, columns = 2048, 1024  # 16 MiB of float64
        matrix = store.allocate("d", rows, columns)
        assert isinstance(matrix._mmap, SpyMmap)
        expected = np.arange(rows * columns, dtype=np.float64).reshape(rows, columns)
        matrix[:] = expected
        before = rss_breakdown()
        store.release()
        after = rss_breakdown()
        assert flushes == []
        assert np.array_equal(matrix, expected)
        store.cleanup()
        if not before["available"]:
            pytest.skip("no /proc/self/smaps_rollup: file-backed RSS is not readable")
        dropped = before["file_backed_bytes"] - after["file_backed_bytes"]
        assert dropped > 0.75 * matrix.nbytes

    def test_duplicate_name_rejected(self):
        with SpillStore() as store:
            store.allocate("d", 2, 2)
            with pytest.raises(ValueError):
                store.allocate("d", 2, 2)

    def test_owned_directory_removed_on_cleanup(self):
        store = SpillStore()
        directory = store.directory
        store.allocate("d", 4, 4)
        store.cleanup()
        assert not directory.exists()
