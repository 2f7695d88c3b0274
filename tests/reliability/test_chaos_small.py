"""Small chaos matrix: injected faults must not change a single bit.

A fault plan covering every wired site runs the full spilled build +
streaming training pipeline; retries and checksum repair must reproduce
the fault-free run exactly. Trigger budgets stay below the wired retry
policies' ``max_attempts`` (8), so completion is guaranteed by
construction.
"""

import zlib

import numpy as np
import pytest

from repro import parallel, telemetry
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.exceptions import IntegrityError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.relational.io import write_csv
from repro.reliability import faults
from repro.streaming import ChunkedCsvReader, InMemoryTableStream, SpillStore, integrate_streams

CHAOS_PLAN = (
    "spill.read:p=0.4,n=5,seed=3;"
    "ingest.chunk:p=0.5,n=4,seed=5;"
    "parallel.task:p=0.2,n=6,seed=7;"
    "spill.write:kind=corrupt,p=0.5,n=3,seed=11"
)


def _scenario_inputs():
    spec = ScenarioSpec(
        ScenarioType.LEFT_JOIN, base_rows=160, other_rows=110, base_features=4,
        other_features=5, overlap_rows=50, overlap_columns=2, seed=29,
    )
    return generate_scenario_tables(spec)


def _table_streams(base, other):
    return InMemoryTableStream(base, 23), InMemoryTableStream(other, 23)


def _csv_streams(directory):
    """The scenario's tables as CSV files, each read by a fresh reader."""

    def streams(base, other):
        readers = []
        for table in (base, other):
            path = directory / f"{table.name}.csv"
            write_csv(table, path)
            labels = [column.name for column in table.schema.label_columns]
            readers.append(ChunkedCsvReader(
                path, name=table.name, key_columns=[c.name for c in table.schema.key_columns],
                label_column=labels[0] if labels else None, chunk_rows=23,
            ))
        return readers

    return streams


def _build_and_train(store, streams=_table_streams):
    base, other, matches, row_matches, targets = _scenario_inputs()
    dataset = integrate_streams(
        *streams(base, other),
        matches, row_matches, targets, ScenarioType.LEFT_JOIN,
        label_column="label", store=store,
    )
    materialized = np.array(dataset.materialize())
    model = StreamingGD(task="linear", block_rows=31, n_iterations=8)
    model.fit(AmalurMatrix(dataset))
    return materialized, np.array(model.coef_), float(model.intercept_)


@pytest.mark.parametrize("source", ["table", "csv"])
@pytest.mark.parametrize("workers", [1, 2])
def test_chaos_run_matches_fault_free_bit_for_bit(workers, source, tmp_path):
    parallel.set_num_workers(workers)
    parallel.set_min_parallel_rows(0)
    streams = _table_streams if source == "table" else _csv_streams(tmp_path)
    with SpillStore() as store:
        reference_matrix, reference_coef, reference_intercept = _build_and_train(store, streams)

    telemetry.enable(sample_memory=False)
    with faults.active_plan(CHAOS_PLAN) as injector:
        with SpillStore(checksums=True) as store:
            chaos_matrix, chaos_coef, chaos_intercept = _build_and_train(store, streams)
        snapshot = injector.snapshot()
    report = telemetry.run_report()
    telemetry.disable()

    # The chaos plan actually fired: at least one site triggered, and the
    # recovery machinery left its telemetry trail.
    total_triggers = sum(triggers for _, triggers in snapshot.values())
    assert total_triggers > 0, snapshot
    assert report.counters.get("faults.injected", 0) == total_triggers
    if snapshot["spill.write"][1]:
        assert report.counters.get("spill.crc_mismatch", 0) >= 1
        assert report.counters.get("spill.blocks_repaired", 0) >= 1

    # Recovery is invisible in the results: bit-identical build and weights.
    assert np.array_equal(chaos_matrix, reference_matrix)
    assert np.array_equal(chaos_coef, reference_coef)
    assert chaos_intercept == reference_intercept
    assert np.allclose(chaos_coef, reference_coef, atol=1e-8)  # the CI bound


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_rows", [23, 10_000])
def test_ingest_faults_guard_random_access_chunks_at_every_worker_count(
    workers, chunk_rows
):
    """A random-access stream's ``chunk_at`` sits behind the ``ingest.chunk``
    fault site and ``INGEST_RETRY`` whatever the schedule — one worker and a
    one-chunk stream included — and the retried build is the same bits."""
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = _scenario_inputs()

    def build(store):
        dataset = integrate_streams(
            InMemoryTableStream(base, chunk_rows), InMemoryTableStream(other, chunk_rows),
            matches, row_matches, targets, ScenarioType.LEFT_JOIN,
            label_column="label", store=store,
        )
        return [np.array(factor.data) for factor in dataset.factors]

    with SpillStore() as store:
        reference = build(store)

    telemetry.enable(sample_memory=False)
    with faults.active_plan("ingest.chunk:p=1.0,n=2,seed=5") as injector:
        with SpillStore() as store:
            retried = build(store)
        crossings, triggers = injector.snapshot()["ingest.chunk"]
    report = telemetry.run_report()
    telemetry.disable()

    chunk_count = sum(-(-table.n_rows // chunk_rows) for table in (base, other))
    assert triggers == 2
    assert crossings == chunk_count + triggers  # every chunk read crossed the site
    assert report.counters.get("retry.attempts.ingest.chunk", 0) == 2
    for built, expected in zip(retried, reference):
        assert np.array_equal(built, expected)


def test_csv_reader_retries_ingest_faults(tmp_path):
    """The reader's own ``chunks()`` — behind ``read_table`` and
    ``write_csv`` — reads every chunk behind the ``ingest.chunk`` fault
    site and ``INGEST_RETRY``; the retried table is the fault-free one."""
    rows = "".join(f"{i},{i / 7:.6f},{'' if i % 11 else 'n/a'}\n" for i in range(300))
    path = tmp_path / "faulty.csv"
    path.write_text("id,x,note\n" + rows)
    reference = ChunkedCsvReader(path, chunk_rows=64).read_table()

    telemetry.enable(sample_memory=False)
    with faults.active_plan("ingest.chunk:p=1.0,n=2,seed=5") as injector:
        retried = ChunkedCsvReader(path, chunk_rows=64).read_table()
        crossings, triggers = injector.snapshot()["ingest.chunk"]
    report = telemetry.run_report()
    telemetry.disable()

    assert retried.schema == reference.schema and retried.equals(reference)
    assert triggers == 2 and crossings == 5 + triggers  # ceil(300 / 64) chunks
    assert report.counters.get("retry.attempts.ingest.chunk", 0) == 2


def test_corrupt_write_without_checksums_goes_undetected_by_design():
    """Checksums are the detection mechanism: with them off, a torn write
    silently lands in the factor — which is why the chaos matrix always
    pairs corrupt faults with ``SpillStore(checksums=True)``."""
    parallel.set_num_workers(1)
    base, other, matches, row_matches, targets = _scenario_inputs()
    with SpillStore() as store:
        reference = integrate_streams(
            InMemoryTableStream(base, 23), InMemoryTableStream(other, 23),
            matches, row_matches, targets, ScenarioType.LEFT_JOIN,
            label_column="label", store=store,
        ).materialize()
    with faults.active_plan("spill.write:kind=corrupt,n=1"):
        with SpillStore() as store:
            damaged = integrate_streams(
                InMemoryTableStream(base, 23), InMemoryTableStream(other, 23),
                matches, row_matches, targets, ScenarioType.LEFT_JOIN,
                label_column="label", store=store,
            ).materialize()
    assert not np.array_equal(damaged, reference)


def test_torn_write_fault_exists_only_where_a_write_can_tear():
    """``spill.write`` is crossed by blocks going to a ``SpillStore`` only: a
    resident array has no recorded CRC that could notice the damage, so a
    resident build under the plan is the clean build and consumes nothing,
    while a spilled checksummed build is torn once and repairs itself."""
    parallel.set_num_workers(1)
    base, other, matches, row_matches, targets = _scenario_inputs()

    def build(store):
        return np.array(
            integrate_streams(
                base, other, matches, row_matches, targets, ScenarioType.LEFT_JOIN,
                label_column="label", store=store, chunk_rows=23,
            ).materialize()
        )

    reference = build(None)
    with faults.active_plan("spill.write:kind=corrupt,n=1") as injector:
        resident = build(None)
        assert injector.snapshot()["spill.write"] == (0, 0)
        with SpillStore(checksums=True) as store:
            repaired = build(store)
        assert injector.snapshot()["spill.write"][1] == 1
    assert np.array_equal(resident, reference)
    assert np.array_equal(repaired, reference)


def test_unrepairable_corruption_raises_integrity_error(tmp_path):
    """A repair whose source refill is itself corrupted must raise, not
    silently keep the bad block."""
    with SpillStore(tmp_path, checksums=True) as store:
        matrix = store.allocate("m", 4, 2)
        block = np.arange(8, dtype=np.float64).reshape(4, 2)
        store.record_crc("m", 0, 4, zlib.crc32(block.tobytes()))
        matrix[:] = block
        matrix[2:] = -1.0  # torn write

        def bad_repair(row_start, row_stop, destination):
            destination[...] = -2.0  # still wrong

        with pytest.raises(IntegrityError, match="still"):
            store.verify("m", repair=bad_repair)

        def good_repair(row_start, row_stop, destination):
            destination[...] = block[row_start:row_stop]

        assert store.verify("m", repair=good_repair) == 1
        assert np.array_equal(np.asarray(matrix), block)
