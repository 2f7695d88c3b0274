"""Block-parallel engine guard: worker-count parity always, scaling on multi-core.

Run standalone to emit ``benchmarks/results/BENCH_PARALLEL.json`` (exits
non-zero when a guard fails — the CI ``scaling-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

Three phases:

* **Parity** (every machine): the spilled stream build + ``StreamingGD``
  and the factorized operators run at 1, 2 and 8 workers on a small
  scenario.  Built factors and GD weights must be bit-identical at every
  worker count (one worker is the plain loop of the same block map),
  operator outputs within 1e-8 of the one-worker run (which multiplies
  one block), and the ``FlopCounter`` totals exactly equal (parallel
  paths charge the legacy per-factor formulas).

* **Scaling** (core-count aware): the 450k×287 streaming scenario from
  ``bench_streaming`` — hashed chunk ingest → spilled factor build → six
  ``StreamingGD`` iterations — timed end-to-end at 1 worker and at 4
  workers in alternating rounds (a lone serial shot of the same code has
  read 8 s, 12 s and 44 s on one 2-core box: page-fault luck); the
  speedup is the median of the per-round ratios and every round is
  recorded.  The speedup floor scales with the machine: on ≥4 cores the
  4-worker run must be ≥2.0× faster, on 2-3 cores ≥1.2×; on a single
  core no speedup is physically possible — four workers time-slice one
  CPU and the blocked reduction buffers are pure cost — so the guard
  only bounds the engine's overhead (the 4-worker run may be at most 2×
  slower than serial) and the floor is recorded as skipped.  Every run
  must produce bit-identical spilled factors (SHA-256 over the memmap
  blocks) and bit-identical weights.

* **Resident many-to-one** (core-count aware): a 10:1 key–foreign-key
  join held in memory, four row blocks above ``REPRO_PARALLEL_MIN_ROWS``
  — the regime the first two phases never reach (they run a 1:1 spilled
  left join), which is how the blocked operators once re-materialized
  the join inside every block, 13× slower than one worker, unseen.
  ``lmm`` / ``transpose_lmm`` / a 20-iteration GD fit are timed in
  alternating serial / blocked rounds; ``blocked_over_serial`` is serial
  seconds over blocked seconds (1.0 = parity, higher = the blocked engine
  wins).  At m = 1 a block's priced work does not pay for a pool round
  trip, so ``repro.parallel.should_parallelize`` keeps these maps on the
  calling thread: on ≥2 cores all three must reach 0.9; results must
  agree within 1e-8 on every machine.

The committed JSON records the core count it was generated on.  The CI
job always enforces the fresh in-run guards on its own runner and only
consults a committed ratio when the baseline came from comparable
hardware (≥4 cores for the scaling speedup, ≥2 for the resident ratio).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_parallel.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_streaming import BUDGET_CHUNK_ROWS, BUDGET_SPEC, BUDGET_TRAIN_ITERATIONS

from repro import parallel
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_dataset,
    generate_scenario_streams,
)
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.parallel import pool as parallel_pool
from repro.streaming import SpillStore, integrate_streams

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_PARALLEL.json"

PARITY_TOLERANCE = 1e-8
PARITY_WORKERS = (1, 2, 8)
SCALING_WORKERS = 4
SCALING_ROUNDS = 3
# Core-count-aware speedup floors for the 4-worker scaling run.
SPEEDUP_FLOOR_4_CORES = 2.0
SPEEDUP_FLOOR_2_CORES = 1.2
SERIAL_OVERHEAD_CEILING = 2.0  # on 1 core the engine may cost at most 2x

# Resident 10:1 join: four full row blocks at the default block size.
RESIDENT_SPEC = SyntheticSiloSpec(
    base_rows=4 * parallel.DEFAULT_BLOCK_ROWS, base_columns=3,
    other_rows=4 * parallel.DEFAULT_BLOCK_ROWS // 10, other_columns=60,
    redundancy_in_target=True, seed=13,
)
RESIDENT_GD_ITERATIONS = 20
RESIDENT_OP_CALLS = 20
RESIDENT_ROUNDS = 9
BLOCKED_OVER_SERIAL_FLOOR = 0.9  # each resident call vs one worker, on >= 2 cores

PARITY_SPEC = ScenarioSpec(
    ScenarioType.LEFT_JOIN,
    base_rows=4_000, other_rows=3_000, base_features=12, other_features=10,
    overlap_rows=1_200, overlap_columns=3, seed=29,
)
PARITY_CHUNK_ROWS = 512


# -- parity phase ---------------------------------------------------------------------


def _build_and_train(workers: int) -> tuple:
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        PARITY_SPEC, chunk_rows=PARITY_CHUNK_ROWS
    )
    with SpillStore() as store:
        dataset = integrate_streams(
            base, other, matches, row_matches, targets, PARITY_SPEC.scenario,
            label_column="label", store=store,
        )
        factors = [np.array(factor.data) for factor in dataset.factors]
        model = StreamingGD(
            task="linear", block_rows=701, n_iterations=10,
            num_workers=workers, release_pages=store.release,
        ).fit(AmalurMatrix(dataset))
    return factors, model.coef_.copy(), float(model.intercept_)


def run_parity() -> dict:
    # Spilled build + streaming fit across worker counts.
    runs = {workers: _build_and_train(workers) for workers in PARITY_WORKERS}
    serial_factors, serial_coef, _ = runs[1]
    factors_identical = all(
        np.array_equal(built, reference)
        for workers in PARITY_WORKERS[1:]
        for built, reference in zip(runs[workers][0], serial_factors)
    )
    max_weight_diff = max(
        float(np.max(np.abs(runs[workers][1] - serial_coef)))
        for workers in PARITY_WORKERS[1:]
    )

    # Factorized operators across worker counts, forced onto the blocked
    # path and, with a zero break-even, onto the pool regardless of scale.
    parallel.set_min_parallel_rows(0)
    parallel.set_block_rows(997)
    dataset = generate_scenario_dataset(PARITY_SPEC)
    outputs = {}
    break_even, parallel_pool._break_even = parallel_pool._break_even, 0.0
    try:
        for workers in PARITY_WORKERS:
            parallel.set_num_workers(workers)
            matrix = AmalurMatrix(dataset)
            x = np.random.default_rng(5).standard_normal((matrix.n_columns, 4))
            xt = np.random.default_rng(6).standard_normal((matrix.n_rows, 3))
            outputs[workers] = (
                matrix.lmm(x), matrix.transpose_lmm(xt), matrix.crossprod(),
                matrix.counter.total,
            )
    finally:
        parallel_pool._break_even = break_even
    lmm1, tlmm1, gram1, flops1 = outputs[1]
    max_operator_diff = max(
        float(np.max(np.abs(outputs[workers][i] - serial)))
        for workers in PARITY_WORKERS[1:]
        for i, serial in enumerate((lmm1, tlmm1, gram1))
    )
    flops_equal = all(outputs[workers][3] == flops1 for workers in PARITY_WORKERS[1:])
    return {
        "worker_counts": list(PARITY_WORKERS),
        "factors_bit_identical": bool(factors_identical),
        "max_weight_diff": max_weight_diff,
        "max_operator_diff": max_operator_diff,
        "flop_counters_equal": bool(flops_equal),
    }


# -- scaling phase --------------------------------------------------------------------


def _factor_digests(dataset, release, block_rows: int = 16_384) -> list:
    """SHA-256 per spilled factor, streamed block-wise to keep RSS flat."""
    digests = []
    for factor in dataset.factors:
        digest = hashlib.sha256()
        data = factor.data
        for start in range(0, data.shape[0], block_rows):
            digest.update(np.ascontiguousarray(data[start:start + block_rows]))
            release()
        digests.append(digest.hexdigest())
    return digests


def _timed_run(workers: int, tmp_dir: Path) -> dict:
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        BUDGET_SPEC, chunk_rows=BUDGET_CHUNK_ROWS
    )
    with SpillStore(tmp_dir / f"spill-{workers}") as store:
        build_start = time.perf_counter()
        dataset = integrate_streams(
            base, other, matches, row_matches, targets, BUDGET_SPEC.scenario,
            label_column="label", store=store,
        )
        build_seconds = time.perf_counter() - build_start
        train_start = time.perf_counter()
        model = StreamingGD(
            task="linear", block_rows=BUDGET_CHUNK_ROWS,
            n_iterations=BUDGET_TRAIN_ITERATIONS,
            num_workers=workers, release_pages=store.release,
        ).fit(AmalurMatrix(dataset))
        train_seconds = time.perf_counter() - train_start
        digests = _factor_digests(dataset, store.release)
        coef = model.coef_.copy()
        final_loss = float(model.loss_history_[-1])
    return {
        "workers": workers,
        "build_seconds": build_seconds,
        "train_seconds": train_seconds,
        "total_seconds": build_seconds + train_seconds,
        "final_loss": final_loss,
        "_digests": digests,
        "_coef": coef,
    }


def run_scaling(tmp_dir: Path, cores: int) -> dict:
    """Serial vs 4-worker end-to-end runs in alternating rounds; the
    speedup is the median per-round ratio, ``serial`` / ``parallel`` the
    shots of the round that read it."""
    rounds = []
    for round_index in range(SCALING_ROUNDS):
        order = (SCALING_WORKERS, 1) if round_index % 2 else (1, SCALING_WORKERS)
        rounds.append({workers: _timed_run(workers, tmp_dir) for workers in order})
    shots = [shot for pair in rounds for shot in pair.values()]
    coefs = [shot.pop("_coef") for shot in shots]
    digests = [shot.pop("_digests") for shot in shots]
    max_weight_diff = max(float(np.max(np.abs(coef - coefs[0]))) for coef in coefs[1:])
    factors_identical = all(digest == digests[0] for digest in digests[1:])
    ratios = [
        pair[1]["total_seconds"] / pair[SCALING_WORKERS]["total_seconds"] for pair in rounds
    ]
    speedup = float(np.median(ratios))  # an odd round count: one of the ratios
    median_pair = rounds[ratios.index(speedup)]
    serial, threaded = median_pair[1], median_pair[SCALING_WORKERS]
    if cores >= 4:
        floor, guard = SPEEDUP_FLOOR_4_CORES, f">= {SPEEDUP_FLOOR_4_CORES}x enforced"
    elif cores >= 2:
        floor, guard = SPEEDUP_FLOOR_2_CORES, f">= {SPEEDUP_FLOOR_2_CORES}x enforced"
    else:
        # No speedup is possible on one core; only bound the overhead.
        floor = 1.0 / SERIAL_OVERHEAD_CEILING
        guard = f"speedup floor skipped (1 core); overhead <= {SERIAL_OVERHEAD_CEILING}x"
    return {
        "scenario": "%s %dx%d" % (
            BUDGET_SPEC.scenario.value, BUDGET_SPEC.base_rows, BUDGET_SPEC.other_rows,
        ),
        "chunk_rows": BUDGET_CHUNK_ROWS,
        "train_iterations": BUDGET_TRAIN_ITERATIONS,
        "rounds": [
            {
                "order": list(pair),
                "serial_seconds": pair[1]["total_seconds"],
                "parallel_seconds": pair[SCALING_WORKERS]["total_seconds"],
                "speedup": ratio,
            }
            for pair, ratio in zip(rounds, ratios)
        ],
        "serial": serial,
        "parallel": threaded,
        "speedup": speedup,
        "required_speedup": floor,
        "guard": guard,
        "factors_bit_identical": bool(factors_identical),
        "max_weight_diff": max_weight_diff,
    }


# -- resident many-to-one phase --------------------------------------------------------


def run_resident(cores: int) -> dict:
    """Serial vs blocked operators on a resident 10:1 join, same process,
    alternating rounds. The blocked side runs at the machine's worker
    count (two on a single core, so the code path is still exercised)."""
    workers = max(2, cores)
    dataset = generate_integrated_pair(RESIDENT_SPEC)
    dataset.label_column = dataset.target_columns[0]
    full = AmalurMatrix(dataset)
    labels = full.labels()
    matrix = full.feature_matrix_view()
    weights = np.random.default_rng(1).standard_normal((matrix.n_columns, 1))
    residuals = np.random.default_rng(2).standard_normal((matrix.n_rows, 1))

    def gd_fit() -> np.ndarray:
        return LinearRegression(
            solver="gd", learning_rate=0.01, n_iterations=RESIDENT_GD_ITERATIONS
        ).fit(matrix, labels).coef_

    def repeated(operator, operand):
        # One sample = RESIDENT_OP_CALLS back-to-back calls (a GD fit makes
        # 20 of each): a lone sub-millisecond call mostly times the page
        # faults of its freshly mapped result.
        def call() -> np.ndarray:
            for _ in range(RESIDENT_OP_CALLS):
                result = operator(operand)
            return result
        return call

    calls = {
        "lmm": repeated(matrix.lmm, weights),
        "transpose_lmm": repeated(matrix.transpose_lmm, residuals),
        "gd_fit": gd_fit,
    }
    calls_per_sample = {
        "lmm": RESIDENT_OP_CALLS, "transpose_lmm": RESIDENT_OP_CALLS, "gd_fit": 1,
    }
    # Parity first; it also warms both sides up. The timed calls drop their
    # results at once, as a GD loop does, so the allocator hands the same
    # pages back instead of faulting fresh ones in on every call.
    max_abs_diff = 0.0
    for call in calls.values():
        with parallel.num_threads(1):
            serial = call()
        with parallel.num_threads(workers):
            max_abs_diff = max(max_abs_diff, float(np.max(np.abs(call() - serial))))
    seconds = {name: {1: [], workers: []} for name in calls}
    for round_index in range(RESIDENT_ROUNDS):
        order = (1, workers) if round_index % 2 else (workers, 1)
        for name, call in calls.items():
            for count in order:
                with parallel.num_threads(count):
                    start = time.perf_counter()
                    call()
                    seconds[name][count].append(time.perf_counter() - start)

    def per_call_ms(count: int) -> dict:
        return {
            name: float(np.median(seconds[name][count])) * 1e3 / calls_per_sample[name]
            for name in calls
        }

    serial_ms, blocked_ms = per_call_ms(1), per_call_ms(workers)
    ratios = {name: serial_ms[name] / blocked_ms[name] for name in calls}
    if cores >= 2:
        guard = f"lmm, transpose_lmm, gd_fit >= {BLOCKED_OVER_SERIAL_FLOOR}x enforced"
    else:
        guard = "blocked-over-serial floor skipped (1 core)"
    return {
        "scenario": "10:1 key-foreign-key join %dx%d + %dx%d" % (
            RESIDENT_SPEC.base_rows, RESIDENT_SPEC.base_columns,
            RESIDENT_SPEC.other_rows, RESIDENT_SPEC.other_columns,
        ),
        "workers": workers,
        "block_rows": parallel.get_block_rows(),
        "gd_iterations": RESIDENT_GD_ITERATIONS,
        "rounds": RESIDENT_ROUNDS,
        "serial_ms": serial_ms,
        "blocked_ms": blocked_ms,
        "blocked_over_serial": ratios,
        "required": BLOCKED_OVER_SERIAL_FLOOR if cores >= 2 else 0.0,
        "guard": guard,
        "max_abs_diff": max_abs_diff,
    }


def run_benchmark() -> dict:
    import tempfile

    cores = parallel.available_cores()
    # First, on a fresh heap: after the scaling phase has mapped and freed
    # gigabytes, the same sub-millisecond operators time up to 20 % apart.
    resident = run_resident(cores)
    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        parity = run_parity()
        # run_parity leaves the tuned thresholds behind; restore defaults
        # so the scaling phase sees the stock configuration.
        parallel.set_min_parallel_rows(parallel.DEFAULT_MIN_PARALLEL_ROWS)
        parallel.set_block_rows(parallel.DEFAULT_BLOCK_ROWS)
        scaling = run_scaling(Path(tmp), cores)
    parallel.set_num_workers(None)
    return {"cores": cores, "parity": parity, "scaling": scaling, "resident": resident}


def check_guards(results: dict) -> list:
    failures = []
    parity = results["parity"]
    if not parity["factors_bit_identical"]:
        failures.append("parallel build factors are not bit-identical to serial")
    if parity["max_weight_diff"] != 0.0:
        failures.append(
            f"GD weights differ across worker counts {PARITY_WORKERS} by "
            f"{parity['max_weight_diff']:.2e} (must be bit-identical)"
        )
    if parity["max_operator_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"parallel operators off serial by {parity['max_operator_diff']:.2e}"
        )
    if not parity["flop_counters_equal"]:
        failures.append("parallel FLOP counters diverged from the serial formulas")
    scaling = results["scaling"]
    if not scaling["factors_bit_identical"]:
        failures.append("scaling-run factor digests differ between 1 and 4 workers")
    if scaling["max_weight_diff"] != 0.0:
        failures.append(
            f"scaling-run weights differ between 1 and 4 workers by "
            f"{scaling['max_weight_diff']:.2e} (must be bit-identical)"
        )
    if scaling["speedup"] < scaling["required_speedup"]:
        failures.append(
            f"4-worker speedup {scaling['speedup']:.2f}x below the floor "
            f"{scaling['required_speedup']:.2f}x on {results['cores']} core(s)"
        )
    resident = results["resident"]
    if resident["max_abs_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"resident blocked operators off serial by {resident['max_abs_diff']:.2e}"
        )
    for name, ratio in resident["blocked_over_serial"].items():
        if ratio < resident["required"]:
            failures.append(
                f"resident blocked {name} runs at {ratio:.2f}x of serial, below the "
                f"floor {resident['required']:.2f}x on {results['cores']} core(s)"
            )
    return failures


def save_results(results: dict) -> Path:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return RESULTS_PATH


def report_lines(results: dict) -> list:
    parity = results["parity"]
    scaling = results["scaling"]
    resident = results["resident"]
    ratios = resident["blocked_over_serial"]
    return [
        "parallel parity: factors identical=%s weight diff=%.2e operator diff=%.2e "
        "flops equal=%s"
        % (
            parity["factors_bit_identical"], parity["max_weight_diff"],
            parity["max_operator_diff"], parity["flop_counters_equal"],
        ),
        "scaling %s (%d cores): serial %.1fs, %d workers %.1fs -> %.2fx, median of "
        "%d alternated rounds %s (%s)"
        % (
            scaling["scenario"], results["cores"], scaling["serial"]["total_seconds"],
            SCALING_WORKERS, scaling["parallel"]["total_seconds"], scaling["speedup"],
            len(scaling["rounds"]),
            "/".join("%.2f" % r["speedup"] for r in scaling["rounds"]), scaling["guard"],
        ),
        "resident %s, %d workers: blocked over serial lmm %.2fx, transpose_lmm %.2fx, "
        "GD fit %.2fx (%s)"
        % (
            resident["scenario"], resident["workers"], ratios["lmm"],
            ratios["transpose_lmm"], ratios["gd_fit"], resident["guard"],
        ),
    ]


if __name__ == "__main__":
    benchmark_results = run_benchmark()
    path = save_results(benchmark_results)
    print("\n".join(report_lines(benchmark_results)))
    print(f"\nresults written to {path}")
    guard_failures = check_guards(benchmark_results)
    if guard_failures:
        print("SCALING GUARD FAILED:", "; ".join(guard_failures), file=sys.stderr)
        raise SystemExit(1)
    print("parallel guards passed")
