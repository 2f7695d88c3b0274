"""End-to-end benchmark of the Amalur reproduction: one command, every metric.

    python benchmarks/e2e/run.py                       # all six workloads
    python benchmarks/e2e/run.py --workload NAME ...   # a subset
    python benchmarks/e2e/run.py --quick               # smoke, about a minute
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --selfcheck

    # one run in the driver's format (last stdout line is the result object):
    python benchmarks/e2e/run.py --workload NAME --seed 3 --seconds 8 --trace 0

Every run is a fresh subprocess (see ``_harness.child_env``). Without
``--trace`` each workload gets ``--repeats`` untraced runs, whose medians
and quartiles are the end-to-end numbers, and one traced run for the
per-layer numbers; every metric is printed as ``workload metric value
unit``. The exit code is non-zero when a run or an output check fails.
README.md has the metric catalogue and the run protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import _harness as h
import catalogue as cat

DEFAULT_REPEATS = 3
# set-up is repeated until 0.6 s have passed (3 to 15 times); setup_s is the median
SETUP_REPEATS = (3, 15, 0.6)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=cat.WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=0, help="seeds every generator")
    parser.add_argument("--seconds", type=float, default=cat.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="do ONE run and print its result object: 0 = end-to-end "
                             "metrics, 1 = per-layer metrics from the traced pass")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="untraced runs per workload (fresh subprocess each)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke: 1 run, 1 pass, no warm-up, short serving sequence")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the results JSON (default: out/results_seed<N>.json)")
    parser.add_argument("--append", action="store_true",
                        help="add this invocation's runs to the ones --out already holds, so "
                             "that two sides of a comparison can be measured alternately")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files row by row")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check BENCHMARK.json against the catalogue and the harness arithmetic")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the child: one run of one workload ------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import workloads  # numpy + repro: only ever loaded in the child

    name = args.workload[0]
    workload = workloads.REGISTRY[name]()
    workdir = h.OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        made = {}  # only the latest inputs are kept: set-ups must not pile up in RSS

        def timed_setup() -> float:
            begin = h.now()
            made["inputs"] = workload.setup(args.seed, workdir)
            return h.now() - begin

        once = args.quick or args.trace  # setup_s is an untraced run's metric
        setups = h.sample(timed_setup, *((1, 1, 0.0) if once else SETUP_REPEATS))
        inputs = made["inputs"]
        seconds = 0.0 if args.quick else args.seconds  # quick: the minimum of passes
        if args.trace:
            outcome = workload.trace(inputs, seconds, args.quick, args.seed)
            names = cat.TRACE_NAMES
        else:
            outcome = workload.measure(inputs, seconds, args.quick)
            outcome.metrics["setup_s"] = h.median(setups)
            outcome.samples["setup_s"] = setups
            names = cat.E2E_NAMES
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = [c for c in outcome.checks if not c.ok]
    result = {
        "correct": not failed_checks,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed + len(failed_checks)),
        "metrics": {
            n: {"value": float(outcome.metrics[n]), "unit": cat.ALL_METRICS[n].unit}
            for n in names
        },
    }
    h.write_json(
        h.OUT_DIR / f"run_{name}_seed{args.seed}_trace{int(bool(args.trace))}.json",
        dict(result, workload=name, seed=args.seed, seconds=args.seconds, quick=args.quick,
             cores=len(os.sched_getaffinity(0)), params=workload.params,
             env={k: os.environ.get(k) for k in (*h.BLAS_ENV, *h.MALLOC_ENV, "REPRO_NUM_THREADS")},
             all_metrics=outcome.metrics, samples=outcome.samples, detail=outcome.detail,
             checks=[vars(c) for c in outcome.checks]),
    )
    for check in failed_checks:
        print(f"CHECK FAILED [{name}] {check.name}: {check.detail}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if failed_checks else 0


# -- the parent ----------------------------------------------------------------------------------


def one_run(name: str, seed: int, seconds: float, trace: int, quick: bool):
    """Spawn one run; returns ``(exit code, result object or None)``."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--quick"] if quick else [])
    code, result, stdout = h.spawn_run(argv)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        print(f"run failed: {name} seed {seed} trace {trace} (exit {code})", file=sys.stderr)
        return code or 1, None
    return code, result


def driver_main(args: argparse.Namespace) -> int:
    """One run; the result object is the last line of stdout."""
    code, result = one_run(args.workload[0], args.seed, args.seconds, args.trace, args.quick)
    if result is None:
        return code
    print(json.dumps(result))
    return code


def human_main(args: argparse.Namespace) -> int:
    names = args.workload or cat.WORKLOAD_NAMES
    repeats = 1 if args.quick else max(1, args.repeats)
    document = {
        "seed": args.seed, "run_seconds": args.seconds, "repeats": repeats,
        "quick": args.quick, "cores": len(os.sched_getaffinity(0)),
        "env": dict({k: "1" for k in h.BLAS_ENV}, **h.MALLOC_ENV, REPRO_NUM_THREADS="default"),
        "cache_bytes": h.cache_sizes(),
        "calibration": {"matmul_n": h.MATMUL_N, "memcpy_bytes": h.MEMCPY_BYTES},
        "params": {w.name: w.params for w in cat.WORKLOADS if w.name in names},
        "workloads": {},
    }
    path = args.out or h.OUT_DIR / f"results_seed{args.seed}.json"
    earlier = {}
    if args.append and path.exists():
        previous = json.loads(path.read_text())
        if any(previous.get(k) != document[k] for k in ("seed", "run_seconds", "quick")):
            print(f"error: {path} was measured with other settings", file=sys.stderr)
            return 2
        earlier = previous["workloads"]
    status = 0
    started = time.time()
    for name in names:
        samples: Dict[str, List[float]] = {}
        correct = True
        for trace in [0] * repeats + [1]:
            code, result = one_run(name, args.seed, args.seconds, trace, args.quick)
            status = status or code
            if result is None:
                correct = False
                continue
            correct = correct and result["correct"]
            # The run's own file holds every metric it computed, the serving
            # workload's scoped end-to-end metrics included.
            detail = json.loads(
                (h.OUT_DIR / f"run_{name}_seed{args.seed}_trace{trace}.json").read_text())
            wanted = cat.PER_LAYER if trace else cat.END_TO_END + cat.SCOPED
            for spec in wanted:
                if spec.name in detail["all_metrics"]:
                    samples.setdefault(spec.name, []).append(detail["all_metrics"][spec.name])
            if not trace:  # a failed output check counts the whole run as failed
                share = result["failed"] / result["attempted"] if result["correct"] else 1.0
                samples.setdefault("failed_share", []).append(share)
        before = earlier.get(name, {})
        entry = {"correct": correct and before.get("correct", True), "metrics": {}}
        for metric, values in samples.items():
            values = before.get("metrics", {}).get(metric, {}).get("values", []) + values
            cell = dict(h.summarize(values), unit=cat.ALL_METRICS[metric].unit, values=values)
            entry["metrics"][metric] = cell
            print_row(name, metric, cell)
        document["workloads"][name] = entry
    document["elapsed_s"] = time.time() - started
    document["workloads"] = dict(earlier, **document["workloads"])
    h.write_json(path, document)
    print(f"# {len(names)} workloads x ({repeats} untraced runs + 1 traced) in "
          f"{document['elapsed_s']:.0f} s; results: {path}; traces: {h.OUT_DIR}")
    print("# all runs ended and every output check passed" if status == 0
          else "# FAILED: a run or an output check failed, see stderr")
    return status


def print_row(workload: str, metric: str, cell: dict) -> None:
    print(f"{workload} {metric} {cell['median']:.6g} {cell['unit']}"
          f"  (q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n {cell['n']})")


def main() -> int:
    args = parse_args()
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.compare:
        import compare

        return compare.main(Path(args.compare[0]), Path(args.compare[1]))
    if not (h.SRC_DIR / "repro").is_dir():
        print(f"error: {h.SRC_DIR / 'repro'} not found: the benchmark measures the "
              "repository's own source and needs a full checkout", file=sys.stderr)
        return 2
    if args.child:
        try:
            return child_main(args)
        except Exception:  # noqa: BLE001 - the parent needs the traceback, then a failure code
            traceback.print_exc()
            return 3
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("error: --trace needs exactly one --workload", file=sys.stderr)
            return 2
        return driver_main(args)
    return human_main(args)


if __name__ == "__main__":
    sys.exit(main())
