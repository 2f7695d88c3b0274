"""Perf-regression detector over the committed benchmark trajectory.

The repo commits one JSON per benchmark family under
``benchmarks/results/`` (``BENCH_OPERATORS.json``, ``BENCH_PIPELINE.json``,
…). Those files mix machine-invariant evidence (speedup ratios, parity
errors, overhead fractions, boolean guards) with absolute wall times that
depend on the machine that produced them. This module pins down the
invariant subset as a typed trajectory — :data:`TRAJECTORY` — and checks
it two ways:

* **audit** (the default) — every metric in the committed trajectory
  exists and satisfies its absolute bound. This is what the CI obs-guard
  runs: it catches a PR that commits a regressed benchmark file.

* **compare** (``--fresh DIR``) — a freshly generated results directory
  is audited *and* ratio metrics must retain at least ``retention`` of
  the committed baseline value (default 0.5: a fresh speedup may be up
  to 2x worse than the committed one before it counts as a regression —
  loose enough for machine variance, tight enough to catch a lost
  optimization).

Only ratios, parity errors, fractions and booleans are ever compared —
never absolute seconds. Metrics that need parallel hardware
(``BENCH_PARALLEL``'s scaling speedup and blocked-over-serial ratio) carry
``requires_cores`` and are skipped, with a note, when the recorded run had
fewer cores.

CLI::

    python -m repro.telemetry.regress                 # audit committed trajectory
    python -m repro.telemetry.regress --results DIR   # audit another directory
    python -m repro.telemetry.regress --fresh DIR     # compare DIR vs committed
    python -m repro.telemetry.regress --json OUT      # also write the findings
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["MetricSpec", "TRAJECTORY", "audit", "compare", "main"]

#: Metric kinds: how the value is bounded.
KINDS = ("higher", "lower", "parity", "bool")


class MetricSpec:
    """One machine-invariant metric inside a benchmark JSON.

    Parameters
    ----------
    path:
        Dotted path into the JSON document; a ``*`` segment expands over
        every key of the dict at that level (``cases.*.gd_iteration_speedup``).
    kind:
        ``higher`` — value must be >= ``bound`` (a floor: speedups,
        retention ratios). ``lower`` — value must be <= ``bound`` (a
        ceiling: overhead ratios, memory fractions). ``parity`` —
        ``abs(value)`` must be <= ``bound`` (numerical error).
        ``bool`` — value must be exactly ``True``.
    bound:
        The absolute bound; ``None`` for ``bool``.
    retention:
        For ``higher`` metrics in compare mode: fresh value must be
        >= ``retention * baseline``. ``None`` disables the relative check.
    requires_cores:
        Skip the metric (with a note) when the document's top-level
        ``cores`` is below this — scaling speedups are meaningless on
        one core.
    """

    __slots__ = ("path", "kind", "bound", "retention", "requires_cores", "description")

    def __init__(
        self,
        path: str,
        kind: str,
        bound: Optional[float] = None,
        retention: Optional[float] = None,
        requires_cores: int = 0,
        description: str = "",
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; expected one of {KINDS}")
        if kind != "bool" and bound is None:
            raise ValueError(f"metric {path!r} of kind {kind!r} needs a bound")
        self.path = path
        self.kind = kind
        self.bound = bound
        self.retention = retention
        self.requires_cores = int(requires_cores)
        self.description = description


#: The committed trajectory: benchmark file -> its invariant metrics.
TRAJECTORY: Dict[str, List[MetricSpec]] = {
    "BENCH_OPERATORS.json": [
        MetricSpec("cases.*.gd_iteration_speedup", "higher", 0.8, retention=0.5,
                   description="factorized GD beats (or ~matches) materialized per case"),
        MetricSpec("cases.wide_one_hot.gd_iteration_speedup", "higher", 10.0, retention=0.5,
                   description="wide one-hot case keeps its order-of-magnitude win"),
        MetricSpec("cases.*.parity_max_abs_err", "parity", 1e-10,
                   description="factorized == materialized numerically"),
    ],
    "BENCH_PIPELINE.json": [
        MetricSpec("cases.*.end_to_end_speedup", "higher", 0.8, retention=0.5,
                   description="end-to-end factorized pipeline vs materialize-then-train"),
        MetricSpec("cases.pipeline_100k.end_to_end_speedup", "higher", 5.0, retention=0.5,
                   description="the 100k-row case keeps a >=5x end-to-end win"),
        MetricSpec("cases.*.parity_max_abs_err", "parity", 1e-10),
        MetricSpec("telemetry.overhead_ratio", "lower", 1.05,
                   description="telemetry-on vs telemetry-off stays within 5%"),
        MetricSpec("telemetry.flop_parity_exact", "bool",
                   description="FLOP counters identical with telemetry on/off"),
    ],
    "BENCH_PARALLEL.json": [
        MetricSpec("parity.factors_bit_identical", "bool"),
        MetricSpec("parity.flop_counters_equal", "bool"),
        MetricSpec("parity.max_weight_diff", "parity", 0.0,
                   description="StreamingGD weights bit-identical at 1, 2 and 8 workers"),
        MetricSpec("scaling.speedup", "higher", 1.5, retention=0.5, requires_cores=4,
                   description="block-parallel GD speedup (needs real cores)"),
        *(
            MetricSpec(f"resident.blocked_over_serial.{call}", "higher", 0.9, retention=0.5,
                       requires_cores=2,
                       description=f"blocked {call} on a resident 10:1 join keeps >= 0.9x "
                                   "of the one-worker speed (needs real cores)")
            for call in ("lmm", "transpose_lmm", "gd_fit")
        ),
        MetricSpec("resident.max_abs_diff", "parity", 1e-8,
                   description="blocked resident operators match serial"),
    ],
    "BENCH_RELIABILITY.json": [
        MetricSpec("checkpoint.overhead_fraction", "lower", 0.05,
                   description="checkpointing costs <=5% of training time"),
        MetricSpec("disabled.overhead_fraction", "lower", 0.01,
                   description="disabled fault sites are ~free"),
        MetricSpec("recovery.bit_identical", "bool",
                   description="resume-from-checkpoint reproduces the cold run"),
        MetricSpec("recovery.resume_speedup", "higher", 1.5, retention=0.5,
                   description="resuming beats retraining from scratch"),
    ],
    "BENCH_SERVING.json": [
        MetricSpec("incremental.speedup", "higher", 1.25, retention=0.5,
                   description="incremental factor maintenance vs full rebuild"),
        MetricSpec("incremental.max_weight_err", "parity", 1e-10),
        MetricSpec("serving.post_delta_parity", "parity", 1e-10,
                   description="predictions after deltas match a fresh rebuild"),
    ],
    "BENCH_STREAMING.json": [
        MetricSpec("budget.rss_to_dense_ratio", "lower", 0.25,
                   description="streaming build peak RSS vs dense materialization"),
        MetricSpec("parity.build_exact", "bool"),
        MetricSpec("parity.ingest_exact", "bool"),
        MetricSpec("parity.linear_max_weight_diff", "parity", 1e-10),
    ],
    "BENCH_OBSERVABILITY.json": [
        MetricSpec("overhead.ratio", "lower", 1.05,
                   description="live metrics + exporter stay within 5% of exporter-off"),
        MetricSpec("scrape.all_valid", "bool",
                   description="every concurrent scrape parsed as valid OpenMetrics"),
        MetricSpec("flight.breaker_opened", "bool",
                   description="the fault plan actually forced the breaker open"),
        MetricSpec("flight.dump_contains_request_span", "bool",
                   description="the post-mortem dump holds the failing request's span"),
    ],
}

#: Repo-relative default results directory.
DEFAULT_RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def resolve_path(document: Any, path: str) -> List[Tuple[str, Any]]:
    """``(concrete_path, value)`` pairs for a dotted path; ``*`` expands."""
    matches: List[Tuple[str, Any]] = [("", document)]
    for segment in path.split("."):
        next_matches: List[Tuple[str, Any]] = []
        for prefix, node in matches:
            if not isinstance(node, dict):
                continue
            if segment == "*":
                for key in sorted(node):
                    next_matches.append(
                        (f"{prefix}.{key}" if prefix else key, node[key])
                    )
            elif segment in node:
                next_matches.append(
                    (f"{prefix}.{segment}" if prefix else segment, node[segment])
                )
        matches = next_matches
    return matches


def _check_bound(spec: MetricSpec, value: Any) -> Optional[str]:
    """Audit one value against the spec's absolute bound; None = ok."""
    if spec.kind == "bool":
        if value is not True:
            return f"expected True, found {value!r}"
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return f"expected a number, found {value!r}"
    if spec.kind == "higher" and number < spec.bound:
        return f"{number:.6g} below floor {spec.bound:g}"
    if spec.kind == "lower" and number > spec.bound:
        return f"{number:.6g} above ceiling {spec.bound:g}"
    if spec.kind == "parity" and abs(number) > spec.bound:
        return f"|{number:.6g}| above parity tolerance {spec.bound:g}"
    return None


def _check_file(
    file_name: str,
    specs: Sequence[MetricSpec],
    document: Any,
    baseline: Optional[Any],
) -> List[Dict[str, Any]]:
    findings: List[Dict[str, Any]] = []
    cores = document.get("cores", 0) if isinstance(document, dict) else 0
    for spec in specs:
        base = {
            "file": file_name,
            "metric": spec.path,
            "kind": spec.kind,
            "bound": spec.bound,
        }
        if spec.requires_cores and cores < spec.requires_cores:
            findings.append({
                **base, "status": "skip",
                "detail": f"needs >= {spec.requires_cores} cores, run had {cores}",
            })
            continue
        matches = resolve_path(document, spec.path)
        if not matches:
            findings.append({**base, "status": "fail", "detail": "metric missing"})
            continue
        for concrete, value in matches:
            finding = {**base, "metric": concrete, "value": value}
            problem = _check_bound(spec, value)
            if problem is None and baseline is not None and spec.retention is not None:
                baseline_matches = dict(resolve_path(baseline, spec.path))
                reference = baseline_matches.get(concrete)
                if reference is not None:
                    finding["baseline"] = reference
                    floor = spec.retention * float(reference)
                    if float(value) < floor:
                        problem = (
                            f"{float(value):.6g} retains less than "
                            f"{spec.retention:g} of baseline {float(reference):.6g}"
                        )
            finding["status"] = "fail" if problem else "ok"
            if problem:
                finding["detail"] = problem
            findings.append(finding)
    return findings


def audit(results_dir: Path) -> List[Dict[str, Any]]:
    """Check every trajectory file in ``results_dir`` against its bounds."""
    findings: List[Dict[str, Any]] = []
    for file_name, specs in sorted(TRAJECTORY.items()):
        path = results_dir / file_name
        if not path.exists():
            findings.append({
                "file": file_name, "metric": "-", "status": "fail",
                "detail": f"missing from {results_dir}",
            })
            continue
        document = json.loads(path.read_text())
        findings.extend(_check_file(file_name, specs, document, baseline=None))
    return findings


def compare(fresh_dir: Path, baseline_dir: Path) -> List[Dict[str, Any]]:
    """Audit fresh results and check ratio retention vs the baseline.

    Files absent from ``fresh_dir`` are skipped with a note (a partial
    re-run compares only what it produced); comparing nothing at all is
    a failure.
    """
    findings: List[Dict[str, Any]] = []
    compared = 0
    for file_name, specs in sorted(TRAJECTORY.items()):
        fresh_path = fresh_dir / file_name
        if not fresh_path.exists():
            findings.append({
                "file": file_name, "metric": "-", "status": "skip",
                "detail": "not generated by this run",
            })
            continue
        compared += 1
        document = json.loads(fresh_path.read_text())
        baseline_path = baseline_dir / file_name
        baseline = (
            json.loads(baseline_path.read_text()) if baseline_path.exists() else None
        )
        findings.extend(_check_file(file_name, specs, document, baseline))
    if compared == 0:
        findings.append({
            "file": "-", "metric": "-", "status": "fail",
            "detail": f"no trajectory files found in {fresh_dir}",
        })
    return findings


def render_text(findings: Sequence[Dict[str, Any]]) -> str:
    lines = []
    counts = {"ok": 0, "fail": 0, "skip": 0}
    for finding in findings:
        status = finding["status"]
        counts[status] += 1
        marker = {"ok": "ok  ", "fail": "FAIL", "skip": "skip"}[status]
        detail = finding.get("detail", "")
        value = finding.get("value")
        shown = ""
        if value is not None and status == "ok":
            shown = f" = {value:.6g}" if isinstance(value, float) else f" = {value!r}"
        lines.append(
            f"[{marker}] {finding['file']}: {finding['metric']}{shown}"
            + (f"  ({detail})" if detail else "")
        )
    lines.append(
        f"-- {counts['ok']} ok, {counts['fail']} failed, {counts['skip']} skipped"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.regress",
        description="Check benchmark results against the committed perf trajectory.",
    )
    parser.add_argument(
        "--results", type=Path, default=DEFAULT_RESULTS,
        help="directory to audit (default: the committed benchmarks/results/)",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="freshly generated results directory; compared against --results",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write findings as JSON",
    )
    options = parser.parse_args(argv)
    if options.fresh is not None:
        findings = compare(options.fresh, options.results)
    else:
        findings = audit(options.results)
    print(render_text(findings))
    if options.json is not None:
        options.json.parent.mkdir(parents=True, exist_ok=True)
        options.json.write_text(json.dumps(findings, indent=2) + "\n")
    failed = any(f["status"] == "fail" for f in findings)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
