"""Out-of-core streaming guard: build + train under a hard RSS budget.

Run standalone to emit ``benchmarks/results/BENCH_STREAMING.json`` (exits
non-zero when a guard fails — the CI ``streaming-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_streaming.py

Two phases:

* **Parity** (small scale): chunked CSV ingest must equal ``read_csv``
  exactly; the spilled build at a small chunk grid must produce the
  identical ``CI_k`` / factor cells / redundancy masks as the resident one
  (``integrate_tables``: the same loop, no store, default grid); and
  ``StreamingGD`` weights must match full-batch GD within 1e-8 — for both
  linear and logistic regression.

* **Budget** (wide scale): a left-join scenario whose materialized dense
  target would be ~1 GB and whose on-disk factors alone exceed the RSS
  budget is generated, built and trained entirely through the streaming
  path — hashed chunk generation, memmap-spilled factors, row-block GD —
  under a hard peak-RSS budget of **1/4 of the dense materialized
  footprint**. ``SpillStore.release`` (``MADV_DONTNEED``) after every
  block is what keeps file-backed pages out of the resident set; dropped
  pages stay in the page cache and are never forced to disk. The guard
  fails if the process high-water RSS ever crosses the budget.

The committed JSON is the trajectory baseline: CI re-runs the benchmark
and additionally checks the fresh RSS-to-dense ratio has not regressed to
more than 1.5x the committed one.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_streaming.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import parallel, telemetry
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_streams,
    generate_scenario_tables,
)
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, LogisticRegression, StreamingGD
from repro.matrices.builder import integrate_tables
from repro.metadata.mappings import ScenarioType
from repro.relational.io import read_csv, write_csv
from repro.streaming import InMemoryTableStream, SpillStore, integrate_streams
from repro.telemetry.memory import peak_rss_bytes as _peak_rss_bytes

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_STREAMING.json"

PARITY_TOLERANCE = 1e-8
RSS_BUDGET_FRACTION = 0.25  # peak RSS must stay ≤ 1/4 of the dense footprint

# Wide budget scenario: dense target ~1.03 GB, on-disk factors ~0.8 GB.
BUDGET_SPEC = ScenarioSpec(
    ScenarioType.LEFT_JOIN,
    base_rows=450_000,
    other_rows=220_000,
    base_features=150,
    other_features=140,
    overlap_rows=60_000,
    overlap_columns=4,
    seed=17,
)
BUDGET_CHUNK_ROWS = 8_192
BUDGET_TRAIN_ITERATIONS = 6


# -- parity phase ---------------------------------------------------------------------


def run_parity(tmp_dir: Path) -> dict:
    spec = ScenarioSpec(
        ScenarioType.INNER_JOIN,
        base_rows=3_000, other_rows=2_200, base_features=8, other_features=9,
        overlap_rows=900, overlap_columns=3, seed=13,
    )
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)

    # Chunked CSV ingest == read_csv, exactly.
    csv_path = tmp_dir / "base.csv"
    write_csv(base, csv_path)
    from repro.streaming.ingest import ChunkedCsvReader

    resident = read_csv(csv_path, key_columns=["id"], label_column="label")
    streamed_table = ChunkedCsvReader(
        csv_path, key_columns=["id"], label_column="label", chunk_rows=256
    ).read_table()
    ingest_exact = streamed_table.equals(resident) and (
        streamed_table.schema == resident.schema
    )

    # One engine at two drives: spilled at 517-row chunks == resident at the
    # default grid (integrate_tables is integrate_streams without a store).
    # The independent reference lives in tests/dense_reference.py.
    mem = integrate_tables(
        base, other, matches, row_matches, targets, spec.scenario,
        label_column="label",
    )
    with SpillStore() as store:
        streamed = integrate_streams(
            InMemoryTableStream(base, 517), InMemoryTableStream(other, 517),
            matches, row_matches, targets, spec.scenario,
            label_column="label", store=store,
        )
        build_exact = all(
            np.array_equal(fs.indicator.compressed, fm.indicator.compressed)
            and np.array_equal(np.asarray(fs.data), fm.data)
            and fs.redundancy == fm.redundancy
            for fm, fs in zip(mem.factors, streamed.factors)
        )

        # StreamingGD == full-batch GD (linear and logistic).
        matrix = AmalurMatrix(mem)
        features = matrix.feature_matrix_view()
        labels = matrix.labels()
        spilled_matrix = AmalurMatrix(streamed)
        linear_ref = LinearRegression(solver="gd", n_iterations=30).fit(features, labels)
        linear_stream = StreamingGD(
            task="linear", block_rows=701, n_iterations=30,
            release_pages=store.release,
        ).fit(spilled_matrix)
        logistic_ref = LogisticRegression(n_iterations=30).fit(features, labels)
        logistic_stream = StreamingGD(
            task="logistic", block_rows=701, n_iterations=30,
            release_pages=store.release,
        ).fit(spilled_matrix)
        linear_diff = float(np.max(np.abs(linear_stream.coef_ - linear_ref.coef_)))
        logistic_diff = float(np.max(np.abs(logistic_stream.coef_ - logistic_ref.coef_)))
    return {
        "ingest_exact": bool(ingest_exact),
        "build_exact": bool(build_exact),
        "linear_max_weight_diff": linear_diff,
        "logistic_max_weight_diff": logistic_diff,
    }


# -- budget phase ---------------------------------------------------------------------


def run_budget(tmp_dir: Path) -> dict:
    spec = BUDGET_SPEC
    base, other, matches, row_matches, targets = generate_scenario_streams(
        spec, chunk_rows=BUDGET_CHUNK_ROWS
    )
    n_target_rows = base.n_rows  # left join keeps every base row
    n_target_cols = len(targets)
    dense_bytes = n_target_rows * n_target_cols * 8
    factor_bytes = (
        base.n_rows * (len(base.schema) - 1) * 8
        + other.n_rows * (len(other.schema)) * 8
    )
    budget_bytes = int(dense_bytes * RSS_BUDGET_FRACTION)
    rss_before = _peak_rss_bytes()

    session = telemetry.enable()
    with SpillStore(tmp_dir / "budget-spill") as store:
        build_start = time.perf_counter()
        dataset = integrate_streams(
            base, other, matches, row_matches, targets, spec.scenario,
            label_column="label", store=store,
        )
        matrix = AmalurMatrix(dataset)
        build_seconds = time.perf_counter() - build_start

        train_start = time.perf_counter()
        model = StreamingGD(
            task="linear",
            block_rows=BUDGET_CHUNK_ROWS,
            n_iterations=BUDGET_TRAIN_ITERATIONS,
            release_pages=store.release,
        ).fit(matrix)
        train_seconds = time.perf_counter() - train_start
        spilled_bytes = store.spilled_bytes
        final_loss = model.loss_history_[-1]
    telemetry.disable()
    report = session.report()

    # The probe the telemetry subsystem reports must be byte-for-byte this
    # guard's own measurement: both read ru_maxrss through the same helper.
    peak_rss = _peak_rss_bytes()
    return {
        "target_shape": [int(n_target_rows), int(n_target_cols)],
        "dense_bytes": int(dense_bytes),
        "declared_factor_bytes": int(factor_bytes),
        "spilled_bytes": int(spilled_bytes),
        "budget_bytes": budget_bytes,
        "rss_before_bytes": int(rss_before),
        "peak_rss_bytes": int(peak_rss),
        "rss_to_dense_ratio": peak_rss / dense_bytes,
        "build_seconds": build_seconds,
        "train_seconds": train_seconds,
        "train_iterations": BUDGET_TRAIN_ITERATIONS,
        "final_loss": float(final_loss),
        "telemetry": report.to_dict(),
    }


def run_benchmark() -> dict:
    import tempfile

    # The RSS budget measures the minimum-residency *serial* configuration:
    # block-parallel ingest/build/train keeps a window of chunks in flight,
    # which is bench_parallel.py's trade to measure, not this guard's.
    parallel.set_num_workers(1)
    with tempfile.TemporaryDirectory(prefix="bench-streaming-") as tmp:
        tmp_dir = Path(tmp)
        parity = run_parity(tmp_dir)
        budget = run_budget(tmp_dir)
    return {"cores": parallel.available_cores(), "parity": parity, "budget": budget}


def check_guards(results: dict) -> list:
    failures = []
    parity = results["parity"]
    if not parity["ingest_exact"]:
        failures.append("chunked CSV ingest does not match read_csv")
    if not parity["build_exact"]:
        failures.append("factor build depends on the chunk grid or the spill store")
    for key in ("linear_max_weight_diff", "logistic_max_weight_diff"):
        if parity[key] > PARITY_TOLERANCE:
            failures.append(
                f"{key} {parity[key]:.2e} exceeds tolerance {PARITY_TOLERANCE:.0e}"
            )
    budget = results["budget"]
    if budget["spilled_bytes"] <= budget["budget_bytes"]:
        failures.append(
            "budget scenario too small: spilled factors fit inside the RSS budget"
        )
    if budget["peak_rss_bytes"] > budget["budget_bytes"]:
        failures.append(
            f"peak RSS {budget['peak_rss_bytes']:,} bytes exceeds the budget "
            f"{budget['budget_bytes']:,} (dense footprint {budget['dense_bytes']:,})"
        )
    telemetry_peak = budget.get("telemetry", {}).get("memory", {}).get("peak_rss_bytes", 0)
    if abs(telemetry_peak - budget["peak_rss_bytes"]) > 0.05 * budget["peak_rss_bytes"]:
        failures.append(
            f"telemetry memory probe {telemetry_peak:,} bytes disagrees with the "
            f"guard's own measurement {budget['peak_rss_bytes']:,} by more than 5%"
        )
    return failures


def save_results(results: dict) -> Path:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return RESULTS_PATH


def report_lines(results: dict) -> list:
    parity = results["parity"]
    budget = results["budget"]
    return [
        "streaming parity: ingest exact=%s build exact=%s "
        "linear diff=%.2e logistic diff=%.2e"
        % (
            parity["ingest_exact"], parity["build_exact"],
            parity["linear_max_weight_diff"], parity["logistic_max_weight_diff"],
        ),
        "budget scenario %dx%d: dense %.2f GB, spilled factors %.2f GB on disk"
        % (
            budget["target_shape"][0], budget["target_shape"][1],
            budget["dense_bytes"] / 1e9, budget["spilled_bytes"] / 1e9,
        ),
        "peak RSS %.1f MB vs budget %.1f MB (%.1f%% of dense; build %.1fs, "
        "%d GD iterations %.1fs)"
        % (
            budget["peak_rss_bytes"] / 1e6, budget["budget_bytes"] / 1e6,
            100 * budget["rss_to_dense_ratio"], budget["build_seconds"],
            budget["train_iterations"], budget["train_seconds"],
        ),
    ]


if __name__ == "__main__":
    benchmark_results = run_benchmark()
    path = save_results(benchmark_results)
    print("\n".join(report_lines(benchmark_results)))
    print(f"\nresults written to {path}")
    guard_failures = check_guards(benchmark_results)
    if guard_failures:
        print("STREAMING GUARD FAILED:", "; ".join(guard_failures), file=sys.stderr)
        raise SystemExit(1)
    print("streaming guards passed")
