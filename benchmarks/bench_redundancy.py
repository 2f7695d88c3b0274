"""Memory and wall-time of the redundancy matrices ``R_k``.

Run standalone to emit JSON (exits non-zero if a memory guard fails,
which is how the CI ``memory-guard`` job gates regressions)::

    PYTHONPATH=src python benchmarks/bench_redundancy.py

or through pytest for the report + acceptance checks::

    PYTHONPATH=src python -m pytest benchmarks/bench_redundancy.py -s -q

Two workloads:

* **mask cases** — build a trivial mask, a 0.5 % overlap rectangle and a
  heavy 30 % mask (through the validated dense-mask constructor) at
  100k × 1k and apply each to a CSR contribution, recording tracemalloc
  peak, process peak RSS, wall-time and the payload bytes. The guards: a
  trivial mask never allocates more than 1 MB, the rectangle stays at or
  below 1 % of the dense footprint and the heavy mask at or below half.
* **scale case** — the 1M × 10k one-hot scenario the backend subsystem
  was built for: build the integrated dataset and run two gradient-descent
  iterations end to end. The guard: total mask memory stays at or below
  1% of the dense ``r_T × c_T`` footprint (which would be 160 GB).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import sparse

if __name__ == "__main__":  # allow `python benchmarks/bench_redundancy.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import parallel
from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix

MASK_SHAPE = (100_000, 1_000)
CONTRIBUTION_DENSITY = 0.01
TRIVIAL_BUDGET_BYTES = 1_000_000  # the memory-guard bar: 1 MB
SCALE_ROWS = 1_000_000
SCALE_CATEGORIES = 10_000
SCALE_ITERATIONS = 2
MASK_FOOTPRINT_CEILING = 0.01  # masks may use at most 1% of the dense bytes
HEAVY_FOOTPRINT_CEILING = 0.5  # a 30% mask stores at most half the dense bytes

RESULTS_PATH = Path(__file__).parent / "results" / "redundancy.json"


def _build_trivial() -> RedundancyMatrix:
    return RedundancyMatrix.all_ones("S", *MASK_SHAPE)


def _build_sparse() -> RedundancyMatrix:
    # A 5000-row × 100-column overlap rectangle: 500k redundant cells,
    # redundancy ratio 0.5%.
    return RedundancyMatrix.from_rectangle("S", MASK_SHAPE, np.arange(5_000), np.arange(100))


def _build_heavy() -> RedundancyMatrix:
    # 30% of the columns redundant on every row, handed over as a dense mask:
    # at 12 B per redundant cell the complement is 0.45x the mask's 8 B per cell.
    mask = np.ones(MASK_SHAPE)
    mask[:, : MASK_SHAPE[1] * 3 // 10] = 0.0
    return RedundancyMatrix.from_mask("S", mask)


def _peak_rss_bytes() -> int:
    """Process high-water RSS in bytes (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _random_csr_contribution(rng: np.random.Generator) -> sparse.csr_matrix:
    matrix = sparse.random(
        *MASK_SHAPE, density=CONTRIBUTION_DENSITY, format="csr", random_state=rng
    )
    return matrix.tocsr().astype(np.float64)


def run_mask_cases() -> dict:
    rng = np.random.default_rng(11)
    contribution = _random_csr_contribution(rng)
    builders = {
        "trivial": _build_trivial,
        "sparse": _build_sparse,
        "heavy": _build_heavy,
    }
    cases = {}
    for name, builder in builders.items():
        tracemalloc.start()
        start = time.perf_counter()
        mask = builder()
        build_seconds = time.perf_counter() - start
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        start = time.perf_counter()
        masked = mask.apply(contribution)
        apply_seconds = time.perf_counter() - start
        assert sparse.issparse(masked), f"{name}: CSR contribution must stay CSR"

        cases[name] = {
            "n_redundant": mask.n_redundant,
            "build_seconds": round(build_seconds, 6),
            "apply_seconds": round(apply_seconds, 6),
            "traced_peak_bytes": int(traced_peak),
            "mask_nbytes": int(mask.nbytes),
            "dense_equivalent_bytes": int(mask.dense_nbytes),
            "rss_peak_bytes": _peak_rss_bytes(),
        }
        del mask, masked
    return cases


def run_scale_case() -> dict:
    spec = OneHotSpec(
        n_rows=SCALE_ROWS,
        n_categories=SCALE_CATEGORIES,
        base_columns=5,
        n_entities=SCALE_CATEGORIES,
        seed=0,
    )
    tracemalloc.start()
    start = time.perf_counter()
    dataset = generate_one_hot_pair(spec, backend="auto")
    build_seconds = time.perf_counter() - start
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    mask_bytes = sum(f.redundancy.nbytes for f in dataset.factors)
    dense_bytes = sum(f.redundancy.dense_nbytes for f in dataset.factors)

    matrix = AmalurMatrix(dataset, backend="auto")
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((matrix.n_columns, 1))
    labels = rng.standard_normal((matrix.n_rows, 1))
    start = time.perf_counter()
    for _ in range(SCALE_ITERATIONS):
        gradient = matrix.transpose_lmm(matrix.lmm(weights) - labels) / matrix.n_rows
        weights = weights - 0.1 * gradient
    train_seconds = time.perf_counter() - start

    return {
        "shape": [dataset.n_target_rows, len(dataset.target_columns)],
        "masks_trivial": all(f.redundancy.is_trivial for f in dataset.factors),
        "storage_formats": matrix.storage_formats(),
        "build_seconds": round(build_seconds, 4),
        "train_seconds": round(train_seconds, 4),
        "gd_iterations": SCALE_ITERATIONS,
        "build_traced_peak_bytes": int(traced_peak),
        "mask_nbytes": int(mask_bytes),
        "dense_equivalent_bytes": int(dense_bytes),
        "mask_footprint_ratio": mask_bytes / dense_bytes,
        "rss_peak_bytes": _peak_rss_bytes(),
    }


def run_benchmark() -> dict:
    return {
        "mask_shape": list(MASK_SHAPE),
        "contribution_density": CONTRIBUTION_DENSITY,
        "cases": run_mask_cases(),
        "scale": run_scale_case(),
    }


def check_guards(results: dict) -> list:
    """Return the list of guard violations (empty = all bars met)."""
    failures = []
    trivial = results["cases"]["trivial"]
    if trivial["traced_peak_bytes"] > TRIVIAL_BUDGET_BYTES:
        failures.append(
            f"trivial mask allocated {trivial['traced_peak_bytes']} bytes "
            f"(budget {TRIVIAL_BUDGET_BYTES})"
        )
    if trivial["mask_nbytes"] > TRIVIAL_BUDGET_BYTES:
        failures.append(f"trivial mask payload is {trivial['mask_nbytes']} bytes")
    sparse_case = results["cases"]["sparse"]
    sparse_ratio = sparse_case["mask_nbytes"] / sparse_case["dense_equivalent_bytes"]
    if sparse_ratio > MASK_FOOTPRINT_CEILING:
        failures.append(f"sparse mask uses {sparse_ratio:.2%} of the dense footprint")
    heavy = results["cases"]["heavy"]
    heavy_ratio = heavy["mask_nbytes"] / heavy["dense_equivalent_bytes"]
    if heavy_ratio > HEAVY_FOOTPRINT_CEILING:
        failures.append(f"heavy mask uses {heavy_ratio:.2%} of the dense footprint")
    scale = results["scale"]
    if scale["mask_footprint_ratio"] > MASK_FOOTPRINT_CEILING:
        failures.append(
            f"scale masks use {scale['mask_footprint_ratio']:.2%} of the dense footprint"
        )
    if not scale["masks_trivial"]:
        failures.append("scale masks are not all trivial")
    return failures


def save_results(results: dict) -> Path:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return RESULTS_PATH


def report_lines(results: dict):
    lines = ["redundancy masks at %dx%d" % MASK_SHAPE]
    header = (
        f"{'case':<8} {'redundant':>11} {'build s':>9} {'apply s':>9} "
        f"{'peak alloc':>12} {'payload':>12}"
    )
    lines.append(header)
    for name, case in results["cases"].items():
        lines.append(
            f"{name:<8} {case['n_redundant']:>11,} {case['build_seconds']:>9.4f} "
            f"{case['apply_seconds']:>9.4f} {case['traced_peak_bytes']:>12,} "
            f"{case['mask_nbytes']:>12,}"
        )
    scale = results["scale"]
    lines.append(
        "scale %dx%d one-hot: masks %s, %s bytes vs %.0f GB dense (%.4f%%), "
        "build %.2fs, %d GD iterations %.2fs"
        % (
            scale["shape"][0],
            scale["shape"][1],
            "trivial" if scale["masks_trivial"] else "NOT trivial",
            f"{scale['mask_nbytes']:,}",
            scale["dense_equivalent_bytes"] / 1e9,
            100 * scale["mask_footprint_ratio"],
            scale["build_seconds"],
            scale["gd_iterations"],
            scale["train_seconds"],
        )
    )
    return lines


# -- pytest entry points --------------------------------------------------------------


def test_report_redundancy(report):
    """Regenerate the mask memory/perf record and check the memory guards."""
    results = run_benchmark()
    save_results(results)
    report("redundancy", report_lines(results))
    failures = check_guards(results)
    assert not failures, "; ".join(failures)


def test_trivial_mask_is_o1_memory():
    tracemalloc.start()
    mask = RedundancyMatrix.all_ones("S", 10_000_000, 100_000)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert mask.is_trivial
    assert peak <= TRIVIAL_BUDGET_BYTES
    assert mask.nbytes == 0


if __name__ == "__main__":
    # tracemalloc budgets assume the serial engine: parallel operators add
    # per-block partial buffers that are not what this guard measures.
    parallel.set_num_workers(1)
    benchmark_results = run_benchmark()
    path = save_results(benchmark_results)
    print("\n".join(report_lines(benchmark_results)))
    print(f"\nresults written to {path}")
    guard_failures = check_guards(benchmark_results)
    if guard_failures:
        print("MEMORY GUARD FAILED:", "; ".join(guard_failures), file=sys.stderr)
        raise SystemExit(1)
    print("memory guards passed")
