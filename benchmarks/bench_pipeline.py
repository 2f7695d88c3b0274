"""End-to-end pipeline wall time: seed row-at-a-time vs vectorized columnar.

Run standalone to emit ``benchmarks/results/BENCH_PIPELINE.json`` (exits
non-zero when a parity or perf guard fails — the CI ``pipeline-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py

``--telemetry-only`` runs just the telemetry phase (the CI
``telemetry-guard`` job): the 100k pipeline with telemetry enabled vs
disabled, enforcing the instrumentation-overhead budget, exact FLOP-counter
parity with the legacy ``FlopCounter`` and peak-RSS probe agreement, and
writing the Chrome trace + run report artifacts without touching the
committed benchmark cases.

PR 3 made the factorized operators pure NumPy/CSR; this benchmark guards the
layers *in front* of them: entity resolution and the ``(D_k, M_k, I_k, R_k)``
builder, which defines each of the four Table I targets. The timed pipeline
is the paper's integration flow from source tables to a trained model:

    entity-resolve -> build factorized dataset -> train (GD linear regression)

measured twice per workload — once with the **seed row-at-a-time
implementations** (per-cell ``table.cell`` loops, dict-probe key matching,
``for i in range(n_rows)`` builder loops, per-value ``to_matrix``), preserved
verbatim below as the baseline, and once with the **vectorized columnar
engine** (factorized key matching, array row maps, cached column-stack
projections). Both paths construct the same ``IntegratedDataset`` and train
with the same compiled operators, so the only difference measured is the
integration substrate.

Workloads: the four Table I scenarios at medium size, plus a 100k-row
two-source inner join. Guards: exact parity (<= 1e-10) of the materialized
target matrix and trained weights between the two paths; the 100k case must
build-and-train >= 5x faster end to end (machine-invariant: both paths are
re-measured in the same run); no case may be slower than the seed path
beyond a 1.25x tolerance.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_pipeline.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import parallel, telemetry
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning.linear_regression import LinearRegression
from repro.matrices.builder import IntegratedDataset, SourceFactor, integrate_tables
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.mappings import ScenarioType
from repro.relational.table import Table
from repro.relational.types import is_null

PARITY_ATOL = 1e-10
MIN_SPEEDUP_100K = 5.0  # required end-to-end speedup on the 100k case
SMALL_TOLERANCE = 1.25  # vectorized may never be slower than seed × this
SMALL_REPEATS = 3
LARGE_REPEATS = 1
TRAIN_ITERATIONS = 20

TELEMETRY_OVERHEAD_TOLERANCE = 1.05  # enabled may cost <= 5% over disabled
TELEMETRY_REPEATS = 5  # interleaved disabled/enabled pairs, best-of each side
RSS_PARITY_TOLERANCE = 0.05  # report peak RSS within 5% of the direct probe

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_PIPELINE.json"
TRACE_PATH = Path(__file__).parent / "results" / "TRACE_PIPELINE.json"
REPORT_PATH = Path(__file__).parent / "results" / "PIPELINE_RUN_REPORT.json"

SCENARIO_SPECS = {
    "inner_join": ScenarioSpec(
        ScenarioType.INNER_JOIN,
        base_rows=2_000, other_rows=1_500, base_features=10, other_features=12,
        overlap_rows=800, overlap_columns=3, seed=7,
    ),
    "left_join": ScenarioSpec(
        ScenarioType.LEFT_JOIN,
        base_rows=2_000, other_rows=1_500, base_features=10, other_features=12,
        overlap_rows=800, overlap_columns=3, seed=7,
    ),
    "outer_join": ScenarioSpec(
        ScenarioType.FULL_OUTER_JOIN,
        base_rows=2_000, other_rows=1_500, base_features=10, other_features=12,
        overlap_rows=800, overlap_columns=3, seed=7,
    ),
    "union": ScenarioSpec(
        ScenarioType.UNION,
        base_rows=2_000, other_rows=1_500, base_features=10, other_features=12,
        overlap_rows=800, overlap_columns=3, seed=7,
    ),
}
SCALE_SPEC = ScenarioSpec(
    ScenarioType.INNER_JOIN,
    base_rows=100_000, other_rows=60_000, base_features=8, other_features=8,
    overlap_rows=40_000, overlap_columns=2, seed=11,
)

# ---------------------------------------------------------------------------------
# Seed (pre-columnar) implementations, preserved verbatim as the baseline:
# dict-probe entity resolution and per-cell builder loops.
# They run against the same Table API, so the only difference measured is the
# row-at-a-time algorithm vs the vectorized one.
# ---------------------------------------------------------------------------------


def seed_to_matrix(table: Table, columns: Sequence[str], null_value: float = 0.0) -> np.ndarray:
    out = np.empty((table.n_rows, len(columns)), dtype=float)
    for j, name in enumerate(columns):
        values = table.column(name)
        out[:, j] = [null_value if is_null(v) else float(v) for v in values]
    return out


def seed_resolve(left: Table, right: Table, pairs: Sequence[Tuple[str, str]]):
    """The seed KeyBasedResolver.resolve: dict probe per row, greedy 1:1."""
    right_index: Dict[Tuple, List[int]] = {}
    for j in range(right.n_rows):
        key = tuple(right.cell(j, rc) for _, rc in pairs)
        if any(is_null(v) for v in key):
            continue
        right_index.setdefault(key, []).append(j)
    matches: List[Tuple[int, int]] = []
    used_right: set = set()
    for i in range(left.n_rows):
        key = tuple(left.cell(i, lc) for lc, _ in pairs)
        if any(is_null(v) for v in key):
            continue
        for j in right_index.get(key, []):
            if j in used_right:
                continue
            matches.append((i, j))
            used_right.add(j)
            break
    return matches


def seed_target_rows(base, other, matches, scenario: ScenarioType):
    matched_other_by_base = {i: j for i, j in matches}
    matched_other_rows = set(matched_other_by_base.values())
    base_rows: List[int] = []
    other_rows: List[int] = []
    if scenario is ScenarioType.INNER_JOIN:
        for i in range(base.n_rows):
            if i in matched_other_by_base:
                base_rows.append(i)
                other_rows.append(matched_other_by_base[i])
    elif scenario is ScenarioType.LEFT_JOIN:
        for i in range(base.n_rows):
            base_rows.append(i)
            other_rows.append(matched_other_by_base.get(i, -1))
    elif scenario is ScenarioType.FULL_OUTER_JOIN:
        for i in range(base.n_rows):
            base_rows.append(i)
            other_rows.append(matched_other_by_base.get(i, -1))
        for j in range(other.n_rows):
            if j not in matched_other_rows:
                base_rows.append(-1)
                other_rows.append(j)
    else:  # UNION
        for i in range(base.n_rows):
            base_rows.append(i)
            other_rows.append(-1)
        for j in range(other.n_rows):
            base_rows.append(-1)
            other_rows.append(j)
    return base_rows, other_rows


def seed_contribution_mask(table, row_map, correspondences, target_columns):
    target_index = {c: i for i, c in enumerate(target_columns)}
    mask = np.zeros((len(row_map), len(target_columns)), dtype=bool)
    for source_column, target_column in correspondences.items():
        if target_column not in target_index:
            continue
        j = target_index[target_column]
        for i, source_row in enumerate(row_map):
            if source_row < 0:
                continue
            mask[i, j] = not is_null(table.cell(source_row, source_column))
    return mask


def seed_build_factor(table, row_map, correspondences, target_columns, redundancy):
    wanted = {
        s for s, t in correspondences.items() if t in target_columns
    }
    source_columns = [
        c.name for c in table.schema if c.name in wanted and c.dtype.is_numeric
    ]
    data = seed_to_matrix(table, source_columns)
    mapping = MappingMatrix(
        table.name, list(target_columns), source_columns,
        {c: correspondences[c] for c in source_columns},
    )
    pairs = [(i, j) for i, j in enumerate(row_map) if j >= 0]
    indicator = IndicatorMatrix.from_row_pairs(
        table.name, len(row_map), table.n_rows, pairs
    )
    return SourceFactor(table.name, data, source_columns, mapping, indicator, redundancy)


def seed_integrate(base, other, column_matches, matches, target_columns, scenario,
                   label_column):
    """The seed integrate_tables, driven by the row-at-a-time helpers above."""
    target_columns = list(target_columns)
    matched_base_by_other = {m.right_column: m.left_column for m in column_matches}
    base_correspondences = {
        c: c for c in base.schema.names if c in target_columns
    }
    other_correspondences = {}
    for column in other.schema.names:
        target = matched_base_by_other.get(column, column)
        if target in target_columns:
            other_correspondences[column] = target

    base_rows, other_rows = seed_target_rows(base, other, matches, scenario)
    n_target_rows = len(base_rows)
    base_mask = seed_contribution_mask(base, base_rows, base_correspondences, target_columns)
    other_mask = seed_contribution_mask(other, other_rows, other_correspondences, target_columns)
    target_shape = (n_target_rows, len(target_columns))
    base_redundancy = RedundancyMatrix.all_ones(base.name, *target_shape)
    other_redundancy = RedundancyMatrix.from_complement(
        other.name, target_shape, base_mask & other_mask
    )
    return IntegratedDataset(
        target_columns=target_columns,
        n_target_rows=n_target_rows,
        factors=[
            seed_build_factor(base, base_rows, base_correspondences, target_columns,
                              base_redundancy),
            seed_build_factor(other, other_rows, other_correspondences, target_columns,
                              other_redundancy),
        ],
        scenario=scenario,
        label_column=label_column,
    )


# ---------------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------------


def _best_of(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _train(dataset: IntegratedDataset) -> LinearRegression:
    matrix = AmalurMatrix(dataset)
    model = LinearRegression(
        solver="gd", learning_rate=0.01, n_iterations=TRAIN_ITERATIONS
    )
    return model.fit(matrix.feature_matrix_view(), matrix.labels())


def _max_abs_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _bench_case(name: str, spec: ScenarioSpec, repeats: int, failures: List[str]) -> Dict[str, Any]:
    base, other, column_matches, _, target_columns = generate_scenario_tables(spec)
    is_union = spec.scenario is ScenarioType.UNION
    key_pairs = [("id", "id")]
    resolver = KeyBasedResolver(key_pairs)

    # -- seed path ----------------------------------------------------------
    def run_seed():
        matches = [] if is_union else seed_resolve(base, other, key_pairs)
        dataset = seed_integrate(
            base, other, column_matches, matches, target_columns, spec.scenario, "label"
        )
        model = _train(dataset)
        return dataset, model

    # -- vectorized path ----------------------------------------------------
    def run_vectorized():
        if is_union:
            matches = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        else:
            matches = resolver.resolve_index(base, other)
        dataset = integrate_tables(
            base=base, other=other, column_matches=column_matches, row_matches=matches,
            target_columns=target_columns, scenario=spec.scenario, label_column="label",
        )
        model = _train(dataset)
        return dataset, model

    seed_s, (seed_dataset, seed_model) = _best_of(run_seed, repeats)
    vec_s, (vec_dataset, vec_model) = _best_of(run_vectorized, repeats)

    # -- parity: target matrix and trained model ----------------------------
    seed_target = seed_dataset.materialize()
    vec_target = vec_dataset.materialize()
    target_err = _max_abs_err(seed_target, vec_target)
    model_err = max(
        _max_abs_err(seed_model.coef_, vec_model.coef_),
        abs(seed_model.intercept_ - vec_model.intercept_),
    )

    parity_err = max(target_err, model_err)
    if parity_err > PARITY_ATOL:
        failures.append(
            f"{name}: parity broke (target={target_err:.2e}, model={model_err:.2e})"
        )

    speedup = seed_s / vec_s if vec_s else float("inf")
    record = {
        "target_shape": list(seed_dataset.shape),
        "scenario": spec.scenario.value,
        "base_rows": spec.base_rows,
        "other_rows": spec.other_rows,
        "seed_end_to_end_s": seed_s,
        "vectorized_end_to_end_s": vec_s,
        "end_to_end_speedup": speedup,
        "train_iterations": TRAIN_ITERATIONS,
        "parity_max_abs_err": parity_err,
    }
    print(
        f"  {name:<14} {record['target_shape'][0]:>7}x{record['target_shape'][1]:<4} "
        f"seed {seed_s * 1e3:9.1f} ms  vectorized {vec_s * 1e3:8.1f} ms  "
        f"speedup {speedup:6.1f}x  "
        f"parity {parity_err:.1e}"
    )
    return record


# ---------------------------------------------------------------------------------
# Telemetry phase: overhead budget, FLOP-counter parity, memory-probe parity
# ---------------------------------------------------------------------------------


def _telemetry_phase(failures: List[str]) -> Dict[str, Any]:
    """Run the 100k pipeline with telemetry off vs on; guard the budget.

    Emits the Chrome trace and run report artifacts from the fastest
    enabled run, whose session covers exactly one pipeline execution — the
    basis of the exact FLOP parity check against the legacy FlopCounter.
    """
    from repro.telemetry.memory import peak_rss_bytes

    spec = SCALE_SPEC
    base, other, column_matches, _, target_columns = generate_scenario_tables(spec)
    resolver = KeyBasedResolver([("id", "id")])

    def run_once() -> AmalurMatrix:
        matches = resolver.resolve_index(base, other)
        dataset = integrate_tables(
            base=base, other=other, column_matches=column_matches, row_matches=matches,
            target_columns=target_columns, scenario=spec.scenario, label_column="label",
        )
        matrix = AmalurMatrix(dataset)
        model = LinearRegression(
            solver="gd", learning_rate=0.01, n_iterations=TRAIN_ITERATIONS
        )
        model.fit(matrix.feature_matrix_view(), matrix.labels())
        return matrix

    telemetry.disable()
    run_once()  # warm lazy structure and caches outside timing

    # Interleave disabled/enabled pairs so slow monotonic drift (thermal,
    # allocator growth) hits both sides equally instead of biasing the ratio.
    disabled_s = float("inf")
    enabled_s = float("inf")
    session = None
    matrix = None
    for _ in range(TELEMETRY_REPEATS):
        start = time.perf_counter()
        run_once()
        disabled_s = min(disabled_s, time.perf_counter() - start)

        telemetry.enable()
        start = time.perf_counter()
        result = run_once()
        elapsed = time.perf_counter() - start
        finished = telemetry.disable()
        if elapsed < enabled_s:
            enabled_s, session, matrix = elapsed, finished, result
    peak_rss_direct = peak_rss_bytes()

    report = session.report()
    overhead = enabled_s / disabled_s if disabled_s else float("inf")
    if overhead > TELEMETRY_OVERHEAD_TOLERANCE:
        failures.append(
            f"telemetry: enabled pipeline is {overhead:.3f}x the disabled one "
            f"(budget {TELEMETRY_OVERHEAD_TOLERANCE}x)"
        )

    # Exact parity: every legacy FlopCounter operation has an identical
    # telemetry twin (and no telemetry FLOP counter lacks a legacy twin).
    legacy = matrix.counter.by_operation
    telemetry_flops = {
        name[len("flops."):]: value
        for name, value in report.counters.items()
        if name.startswith("flops.")
    }
    if telemetry_flops != {op: v for op, v in legacy.items()}:
        failures.append(
            f"telemetry: FLOP counters diverged from the legacy FlopCounter "
            f"(telemetry={sorted(telemetry_flops)}, legacy={sorted(legacy)})"
        )

    report_peak = report.memory.get("peak_rss_bytes", 0)
    rss_err = abs(report_peak - peak_rss_direct) / peak_rss_direct
    if rss_err > RSS_PARITY_TOLERANCE:
        failures.append(
            f"telemetry: report peak RSS {report_peak} differs from the direct "
            f"probe {peak_rss_direct} by {rss_err:.1%} (tolerance {RSS_PARITY_TOLERANCE:.0%})"
        )

    TRACE_PATH.parent.mkdir(exist_ok=True)
    TRACE_PATH.write_text(json.dumps(session.chrome_trace()) + "\n")
    report.save(REPORT_PATH)
    print(
        f"  telemetry      disabled {disabled_s * 1e3:9.1f} ms  "
        f"enabled {enabled_s * 1e3:9.1f} ms  overhead {overhead:5.3f}x  "
        f"flop-parity {'exact' if telemetry_flops == legacy else 'BROKEN'}  "
        f"rss-err {rss_err:.2%}"
    )
    print(f"  wrote {TRACE_PATH}")
    print(f"  wrote {REPORT_PATH}")
    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_ratio": overhead,
        "overhead_tolerance": TELEMETRY_OVERHEAD_TOLERANCE,
        "flop_parity_exact": telemetry_flops == legacy,
        "peak_rss_bytes": report_peak,
        "peak_rss_direct_bytes": peak_rss_direct,
        "rss_parity_tolerance": RSS_PARITY_TOLERANCE,
        "report": report.to_dict(),
    }


def run_telemetry_only() -> int:
    failures: List[str] = []
    print("Telemetry guard (100k pipeline, enabled vs disabled, best of N):")
    _telemetry_phase(failures)
    if failures:
        print("\ntelemetry-guard FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("telemetry-guard ok")
    return 0


def run() -> int:
    failures: List[str] = []
    cases: Dict[str, Any] = {}

    print("Pipeline wall time (resolve -> build -> train), best of N:")
    for name, spec in SCENARIO_SPECS.items():
        cases[name] = _bench_case(name, spec, SMALL_REPEATS, failures)
    cases["pipeline_100k"] = _bench_case(
        "pipeline_100k", SCALE_SPEC, LARGE_REPEATS, failures
    )

    # -- guards -------------------------------------------------------------
    for name, record in cases.items():
        ratio = record["vectorized_end_to_end_s"] / record["seed_end_to_end_s"]
        if ratio > SMALL_TOLERANCE:
            failures.append(
                f"{name}: vectorized pipeline is {ratio:.2f}x the seed path "
                f"(tolerance {SMALL_TOLERANCE}x)"
            )
    scale_speedup = cases["pipeline_100k"]["end_to_end_speedup"]
    if scale_speedup < MIN_SPEEDUP_100K:
        failures.append(
            f"pipeline_100k: end-to-end speedup {scale_speedup:.1f}x is below "
            f"the required {MIN_SPEEDUP_100K}x"
        )

    print("Telemetry phase (100k pipeline, enabled vs disabled):")
    telemetry_record = _telemetry_phase(failures)

    record = {
        "benchmark": "pipeline",
        "parity_atol": PARITY_ATOL,
        "min_speedup_100k": MIN_SPEEDUP_100K,
        "small_tolerance": SMALL_TOLERANCE,
        "cases": cases,
        "telemetry": telemetry_record,
        "guards_failed": failures,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {RESULTS_PATH}")

    if failures:
        print("\npipeline-guard FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"pipeline-guard ok: 100k end-to-end speedup {scale_speedup:.1f}x "
        f"(bar {MIN_SPEEDUP_100K}x), parity <= {PARITY_ATOL}"
    )
    return 0


if __name__ == "__main__":
    # The 1e-10 parity guards compare against the serial engine; blocked
    # parallel reductions reassociate float sums and only promise 1e-8.
    parallel.set_num_workers(1)
    if "--telemetry-only" in sys.argv[1:]:
        sys.exit(run_telemetry_only())
    sys.exit(run())
