"""Serving guard: incremental maintenance vs rebuild, mixed-workload throughput.

Run standalone to emit ``benchmarks/results/BENCH_SERVING.json`` (exits
non-zero when a guard fails — the CI ``serving-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_serving.py

Two phases:

* **Incremental maintenance** (left join, ~20k base rows): a resident
  :class:`DatasetSession` absorbs append batches through delta
  maintenance (rank-k Gram updates, CI/complement growth, seeded Gram
  cache) while the same batches are also refit from scratch (entity
  resolution + ``integrate_tables`` + fresh Gram + normal solve). Guards:
  weights and materialized values within 1e-8 of the rebuild at every
  batch, and total incremental time at least **1.25x** faster than the
  rebuilds. (The floor was 5x while a fresh session spent ~60 % of its
  build in a per-row Python key index. That index is gone: refit and
  delta path now run the same vectorized steps, both O(table), and what
  the delta path still saves is schema matching, ``integrate_tables`` and
  the fresh Gram.)

* **Mixed serving workload**: an :class:`AmalurService` worker pool
  serves ~200 windowed predict requests from concurrent client threads
  interleaved with append deltas and a warm-start retrain. Guards: every
  request succeeds, post-delta predictions match a from-scratch session
  within 1e-8, and sustained throughput stays above a conservative
  requests/sec floor.

The committed JSON is the trajectory baseline: CI re-runs the benchmark
and additionally checks the fresh incremental-vs-rebuild speedup retains
at least half the committed value. Absolute wall-times and requests/sec
are never compared across machines.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_serving.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.metadata.mappings import ScenarioType
from repro.serving import AmalurService, DatasetSession
from repro.system.plan import ModelSpec
from repro.system.requests import DeltaBatch, IntegrationConfig, PredictRequest, TrainRequest

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_SERVING.json"

SPEEDUP_FLOOR = 1.25  # incremental maintenance vs from-scratch refit
PARITY_TOL = 1e-8
RPS_FLOOR = 25.0  # deliberately conservative; CI tracks the trajectory JSON

BASE_ROWS = 20_000
OTHER_ROWS = 8_000
OVERLAP_ROWS = 6_000
N_BATCHES = 8
ROWS_PER_BATCH = 200


def build_inputs(seed: int = 0):
    spec = ScenarioSpec(
        scenario=ScenarioType.LEFT_JOIN,
        base_rows=BASE_ROWS,
        other_rows=OTHER_ROWS,
        overlap_rows=OVERLAP_ROWS,
        base_features=4,
        other_features=5,
        overlap_columns=2,
        seed=seed,
    )
    base, other, matches, _, target_columns = generate_scenario_tables(spec)
    config = IntegrationConfig(
        base="S1", other="S2", target_columns=target_columns,
        scenario=ScenarioType.LEFT_JOIN, label_column="label",
    )
    return base, other, matches, config


def append_batch(session, rng, next_id):
    """~half brand-new entities, ~half matching existing S2-only rows."""
    table = session.table("S1")
    other_ids = session.table("S2").column_values("id")
    ids = []
    for i in range(ROWS_PER_BATCH):
        if i % 2 == 0:
            ids.append(int(next_id))
            next_id += 1
        else:
            ids.append(int(other_ids[rng.integers(0, other_ids.size)]))
    rows = {"id": ids}
    for column in table.schema:
        if column.name == "id":
            continue
        if column.name == "label":
            rows["label"] = rng.integers(0, 2, size=ROWS_PER_BATCH).tolist()
        else:
            rows[column.name] = np.round(
                rng.standard_normal(ROWS_PER_BATCH), 4
            ).tolist()
    return DeltaBatch(table="S1", kind="append", rows=rows), next_id


def refit_from_scratch(base, other, matches, config):
    """The full refit a delta forces without incremental maintenance.

    This is exactly the session's rebuild fallback: entity resolution,
    ``integrate_tables``, a fresh Gram, and the normal-equation solve —
    everything incremental maintenance amortizes except the one
    ``resolve_index`` call an append also makes.
    """
    session = DatasetSession(base, other, config, column_matches=matches)
    model = session.train(TrainRequest(model=ModelSpec(task="regression")))
    return session.dataset, model


def phase_incremental():
    base, other, matches, config = build_inputs()
    session = DatasetSession(base, other, config, column_matches=matches)
    session.train(TrainRequest(model=ModelSpec(task="regression")))
    rng = np.random.default_rng(42)
    next_id = BASE_ROWS + OTHER_ROWS + 1_000

    incremental_s = 0.0
    rebuild_s = 0.0
    max_weight_err = 0.0
    max_value_err = 0.0
    for _ in range(N_BATCHES):
        batch, next_id = append_batch(session, rng, next_id)

        started = time.perf_counter()
        outcome = session.apply_delta(batch)
        model = session.train(TrainRequest(model=ModelSpec(task="regression")))
        incremental_s += time.perf_counter() - started
        assert outcome["mode"] == "incremental", outcome

        started = time.perf_counter()
        refit_dataset, refit_model = refit_from_scratch(
            session.table("S1"), session.table("S2"), matches, config
        )
        rebuild_s += time.perf_counter() - started

        weight_err = float(
            max(
                np.abs(model.coef_ - refit_model.coef_).max(),
                abs(model.intercept_ - refit_model.intercept_),
            )
        )
        value_err = float(
            np.abs(session.dataset.materialize() - refit_dataset.materialize()).max()
        )
        max_weight_err = max(max_weight_err, weight_err)
        max_value_err = max(max_value_err, value_err)

    speedup = rebuild_s / incremental_s
    print(
        f"incremental: {N_BATCHES} x {ROWS_PER_BATCH}-row appends "
        f"maintained in {incremental_s:.3f}s vs {rebuild_s:.3f}s refit "
        f"({speedup:.1f}x); weight err {max_weight_err:.2e}, "
        f"value err {max_value_err:.2e}"
    )
    assert max_weight_err <= PARITY_TOL, (
        f"incremental weights drifted {max_weight_err:.2e} from the rebuild"
    )
    assert max_value_err <= PARITY_TOL, (
        f"incremental factors drifted {max_value_err:.2e} from the rebuild"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental maintenance only {speedup:.2f}x faster than refit "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    return {
        "n_batches": N_BATCHES,
        "rows_per_batch": ROWS_PER_BATCH,
        "base_rows": BASE_ROWS,
        "incremental_s": round(incremental_s, 4),
        "rebuild_s": round(rebuild_s, 4),
        "speedup": round(speedup, 2),
        "max_weight_err": max_weight_err,
        "max_value_err": max_value_err,
    }


def phase_serving():
    base, other, matches, config = build_inputs(seed=7)
    session = DatasetSession(base, other, config, column_matches=matches)
    rng = np.random.default_rng(11)
    next_id = BASE_ROWS + OTHER_ROWS + 500_000

    n_clients = 4
    predicts_per_client = 50
    window = 512
    latencies = []
    latencies_lock = threading.Lock()
    errors = []

    with AmalurService(n_workers=4, max_queue=256,
                       max_rows_per_request=window) as service:
        service.register_session("bench", session)
        service.train("bench", TrainRequest(model=ModelSpec(task="regression")))

        def client(seed):
            client_rng = np.random.default_rng(seed)
            mine = []
            try:
                for _ in range(predicts_per_client):
                    n_rows = service.session("bench").n_target_rows
                    start = int(client_rng.integers(0, max(n_rows - window, 1)))
                    result = service.predict(
                        "bench", PredictRequest(row_range=(start, start + window))
                    )
                    mine.append(result.latency_s)
            except Exception as error:  # pragma: no cover - failure evidence
                errors.append(error)
            with latencies_lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(100 + i,))
                   for i in range(n_clients)]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        n_deltas = 0
        for _ in range(N_BATCHES):
            batch, next_id = append_batch(session, rng, next_id)
            service.apply_delta("bench", batch)
            service.train(
                "bench",
                TrainRequest(
                    model=ModelSpec(task="regression"), warm_start=True
                ),
            )
            n_deltas += 1
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_started

        assert not errors, errors[0]

        # post-delta parity: the served state equals a from-scratch session
        reference = DatasetSession(
            session.table("S1"), session.table("S2"), config,
            column_matches=matches,
        )
        reference.train(TrainRequest(model=ModelSpec(task="regression")))
        served = session.predict(PredictRequest())  # full table: off-pool read
        expected = reference.predict(PredictRequest())
        parity = float(np.abs(served - expected).max())
        assert parity <= PARITY_TOL, (
            f"served predictions drifted {parity:.2e} from a fresh rebuild"
        )

    n_requests = n_clients * predicts_per_client + 2 * n_deltas + 1
    requests_per_sec = n_requests / wall
    latencies_ms = np.asarray(latencies) * 1e3
    p50 = float(np.percentile(latencies_ms, 50))
    p99 = float(np.percentile(latencies_ms, 99))
    print(
        f"serving: {n_requests} requests ({n_clients} clients, {n_deltas} delta "
        f"batches) in {wall:.3f}s -> {requests_per_sec:.0f} req/s; "
        f"predict p50 {p50:.2f}ms p99 {p99:.2f}ms; parity {parity:.2e}"
    )
    assert requests_per_sec >= RPS_FLOOR, (
        f"throughput {requests_per_sec:.1f} req/s below floor {RPS_FLOOR}"
    )
    return {
        "n_requests": n_requests,
        "n_clients": n_clients,
        "n_delta_batches": n_deltas,
        "window_rows": window,
        "wall_s": round(wall, 4),
        "requests_per_sec": round(requests_per_sec, 1),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "post_delta_parity": parity,
    }


def main() -> None:
    record = {
        "version": 1,
        "incremental": phase_incremental(),
        "serving": phase_serving(),
    }
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULTS}")


if __name__ == "__main__":
    main()
