"""Reliability guard: checkpoint overhead, recovery latency, disabled-path cost.

Run standalone to emit ``benchmarks/results/BENCH_RELIABILITY.json`` (exits
non-zero when a guard fails — the CI ``fault-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_reliability.py

Three phases over one spilled left-join scenario:

* **Checkpoint overhead**: a logistic ``StreamingGD`` with a checkpoint
  written every epoch must cost at most **5%** more wall-clock than the
  identical run without one. Checkpoints are a weight vector plus a short
  loss history (kilobytes) against an epoch of row-block matmuls — the
  atomic write-then-rename plus fsync and CRC32 has to disappear into
  that. A linear fit's epochs are no longer block passes (one statistics
  pass, then ``d × d`` steps), so every epoch's durable write meets a
  step of microseconds: its overhead is recorded under
  ``checkpoint_linear`` but not gated.

* **Recovery latency**: a cold N-epoch fit versus a crash simulated at
  epoch ``3N/4`` and resumed from the newest checkpoint. The resumed run
  must be cheaper than the cold run *and* finish with bit-identical
  weights — resume correctness is the parity guard, resume speed is the
  point of checkpointing at all.

* **Disabled-path overhead**: with no fault plan installed every fault
  site is one module attribute load and a falsy branch. The guard prices
  that exactly: measure ns/call on the inactive ``fault_point``, count the
  sites an epoch actually crosses (a zero-probability plan counts hits
  without ever triggering), and require sites x cost ≤ **2%** of the
  measured epoch time.

The committed JSON is the trajectory baseline; CI re-runs the benchmark
and fails on any guard regression.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_reliability.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import parallel
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_streams
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.reliability import faults
from repro.reliability.checkpoint import CheckpointManager
from repro.streaming import SpillStore, integrate_streams

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_RELIABILITY.json"

CHECKPOINT_OVERHEAD_LIMIT = 0.05  # ≤5% per-epoch cost for every-epoch checkpoints
DISABLED_OVERHEAD_LIMIT = 0.02  # ≤2% epoch cost for dormant fault sites
RESUME_PARITY_TOLERANCE = 0.0  # resume is bit-identical, not merely close

SPEC = ScenarioSpec(
    ScenarioType.LEFT_JOIN,
    base_rows=90_000,
    other_rows=45_000,
    base_features=40,
    other_features=30,
    overlap_rows=18_000,
    overlap_columns=3,
    seed=21,
)
CHUNK_ROWS = 4_096
N_EPOCHS = 8
CRASH_EPOCH = 6  # simulated crash point: resume replays the final quarter
REPEATS = 3  # best-of-N timing for the overhead comparison
FAULT_POINT_CALLS = 200_000  # microbenchmark loop for the disabled path

ZERO_PLAN = ";".join(
    f"{site}:p=0" for site in sorted(faults.KNOWN_SITES)
)


def _build(tmp_dir: Path):
    base, other, matches, row_matches, targets = generate_scenario_streams(
        SPEC, chunk_rows=CHUNK_ROWS
    )
    store = SpillStore(tmp_dir / "spill")
    dataset = integrate_streams(
        base, other, matches, row_matches, targets, SPEC.scenario,
        label_column="label", store=store,
    )
    return store, AmalurMatrix(dataset)


def _fit(
    matrix, store, n_iterations, manager=None, checkpoint_every=1, task="linear", labels=None
):
    return StreamingGD(
        task=task,
        block_rows=CHUNK_ROWS,
        n_iterations=n_iterations,
        release_pages=store.release,
        checkpoint=manager,
        checkpoint_every=checkpoint_every,
    ).fit(matrix, labels)


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# -- checkpoint overhead --------------------------------------------------------------


def run_checkpoint_overhead(matrix, store, tmp_dir: Path, task: str, labels=None) -> dict:
    plain_seconds = _best_of(
        REPEATS, lambda: _fit(matrix, store, N_EPOCHS, task=task, labels=labels)
    )

    def checkpointed():
        ckpt_dir = tmp_dir / f"ckpt-overhead-{time.monotonic_ns()}"
        _fit(
            matrix, store, N_EPOCHS, CheckpointManager(ckpt_dir, keep=2),
            task=task, labels=labels,
        )

    checkpointed_seconds = _best_of(REPEATS, checkpointed)
    overhead = (checkpointed_seconds - plain_seconds) / plain_seconds
    return {
        "task": task,
        "epochs": N_EPOCHS,
        "plain_seconds": plain_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "overhead_fraction": overhead,
        "checkpoints_written": N_EPOCHS,
    }


# -- recovery latency -----------------------------------------------------------------


def run_recovery(matrix, store, tmp_dir: Path) -> dict:
    cold_start = time.perf_counter()
    cold = _fit(matrix, store, N_EPOCHS)
    cold_seconds = time.perf_counter() - cold_start

    # Crash at CRASH_EPOCH: the first run simply stops there, leaving its
    # newest checkpoint behind, exactly what a killed process leaves.
    manager = CheckpointManager(tmp_dir / "ckpt-recovery", keep=2)
    _fit(matrix, store, CRASH_EPOCH, manager)

    resume_start = time.perf_counter()
    resumed = _fit(matrix, store, N_EPOCHS, manager)
    resume_seconds = time.perf_counter() - resume_start

    weight_diff = float(np.max(np.abs(resumed.coef_ - cold.coef_)))
    return {
        "epochs": N_EPOCHS,
        "crash_epoch": CRASH_EPOCH,
        "resumed_from": resumed.resumed_from_,
        "cold_seconds": cold_seconds,
        "resume_seconds": resume_seconds,
        "resume_speedup": cold_seconds / resume_seconds,
        "bit_identical": bool(np.array_equal(resumed.coef_, cold.coef_)),
        "max_weight_diff": weight_diff,
    }


# -- disabled-path overhead -----------------------------------------------------------


def run_disabled_overhead(matrix, store) -> dict:
    # Price one dormant fault_point: module attribute load + falsy branch.
    assert not faults.ACTIVE
    fault_point = faults.fault_point
    loop_start = time.perf_counter()
    for _ in range(FAULT_POINT_CALLS):
        fault_point("spill.read")
    per_call_seconds = (time.perf_counter() - loop_start) / FAULT_POINT_CALLS

    # Count the sites one epoch actually crosses: a zero-probability plan
    # records every hit without ever triggering, so the run is still the
    # production code path and the snapshot is an exact site census.
    with faults.active_plan(ZERO_PLAN) as injector:
        _fit(matrix, store, 1)
        hits_per_epoch = sum(
            hits for hits, _ in injector.snapshot().values()
        )

    epoch_start = time.perf_counter()
    _fit(matrix, store, 1)
    epoch_seconds = time.perf_counter() - epoch_start

    overhead = hits_per_epoch * per_call_seconds / epoch_seconds
    return {
        "fault_point_ns": per_call_seconds * 1e9,
        "sites_crossed_per_epoch": int(hits_per_epoch),
        "epoch_seconds": epoch_seconds,
        "overhead_fraction": overhead,
    }


def run_benchmark() -> dict:
    import tempfile

    parallel.set_num_workers(1)  # serial timing floor: no pool jitter in guards
    faults.clear()
    with tempfile.TemporaryDirectory(prefix="bench-reliability-") as tmp:
        tmp_dir = Path(tmp)
        store, matrix = _build(tmp_dir)
        with store:
            labels = matrix.labels()
            binary = (labels > np.median(labels)).astype(float)
            checkpoint = run_checkpoint_overhead(matrix, store, tmp_dir, "logistic", binary)
            checkpoint_linear = run_checkpoint_overhead(matrix, store, tmp_dir, "linear")
            recovery = run_recovery(matrix, store, tmp_dir)
            disabled = run_disabled_overhead(matrix, store)
    return {
        "cores": parallel.available_cores(),
        "scenario": {
            "rows": SPEC.base_rows,
            "columns": SPEC.base_features + SPEC.other_features
            + 2 * SPEC.overlap_columns,
            "chunk_rows": CHUNK_ROWS,
        },
        "checkpoint": checkpoint,
        "checkpoint_linear": checkpoint_linear,
        "recovery": recovery,
        "disabled": disabled,
    }


def check_guards(results: dict) -> list:
    failures = []
    checkpoint = results["checkpoint"]
    if checkpoint["overhead_fraction"] > CHECKPOINT_OVERHEAD_LIMIT:
        failures.append(
            f"every-epoch checkpointing costs {checkpoint['overhead_fraction']:.1%}"
            f" of a {checkpoint['task']} run, over the {CHECKPOINT_OVERHEAD_LIMIT:.0%} limit"
        )
    recovery = results["recovery"]
    if not recovery["bit_identical"]:
        failures.append(
            f"resumed weights differ from the cold run by "
            f"{recovery['max_weight_diff']:.2e} — resume must be bit-identical"
        )
    if recovery["resumed_from"] != CRASH_EPOCH:
        failures.append(
            f"resume started from epoch {recovery['resumed_from']}, "
            f"expected the crash checkpoint at {CRASH_EPOCH}"
        )
    if recovery["resume_seconds"] >= recovery["cold_seconds"]:
        failures.append(
            f"resume ({recovery['resume_seconds']:.2f}s) is not cheaper than a "
            f"cold run ({recovery['cold_seconds']:.2f}s)"
        )
    disabled = results["disabled"]
    if disabled["overhead_fraction"] > DISABLED_OVERHEAD_LIMIT:
        failures.append(
            f"dormant fault sites cost {disabled['overhead_fraction']:.2%} of an "
            f"epoch, over the {DISABLED_OVERHEAD_LIMIT:.0%} limit"
        )
    return failures


def save_results(results: dict) -> Path:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return RESULTS_PATH


def report_lines(results: dict) -> list:
    recovery = results["recovery"]
    disabled = results["disabled"]
    return [
        "checkpoint overhead (%s%s): %.2fs plain vs %.2fs checkpointed over %d "
        "epochs (%+.1f%%)"
        % (
            checkpoint["task"], "" if gated else ", not gated",
            checkpoint["plain_seconds"], checkpoint["checkpointed_seconds"],
            checkpoint["epochs"], 100 * checkpoint["overhead_fraction"],
        )
        for checkpoint, gated in (
            (results["checkpoint"], True), (results["checkpoint_linear"], False)
        )
    ] + [
        "recovery: cold %.2fs vs resume-from-epoch-%d %.2fs (%.1fx), "
        "bit identical=%s"
        % (
            recovery["cold_seconds"], recovery["resumed_from"],
            recovery["resume_seconds"], recovery["resume_speedup"],
            recovery["bit_identical"],
        ),
        "disabled path: %.0f ns per dormant site, %d sites per epoch = %.3f%% "
        "of a %.2fs epoch"
        % (
            disabled["fault_point_ns"], disabled["sites_crossed_per_epoch"],
            100 * disabled["overhead_fraction"], disabled["epoch_seconds"],
        ),
    ]


if __name__ == "__main__":
    benchmark_results = run_benchmark()
    path = save_results(benchmark_results)
    print("\n".join(report_lines(benchmark_results)))
    print(f"\nresults written to {path}")
    guard_failures = check_guards(benchmark_results)
    if guard_failures:
        print("RELIABILITY GUARD FAILED:", "; ".join(guard_failures), file=sys.stderr)
        raise SystemExit(1)
    print("reliability guards passed")
