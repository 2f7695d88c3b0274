"""``run.py --compare A.json B.json``: one row per (workload, metric).

A is the parent (baseline), B the change. Each file is the results JSON a
full ``run.py`` invocation wrote, with one value per run. Verdicts follow
the choosing-metrics guide (sections 6 and 8):

* **regressed** — B's median is worse than A's by more than the metric's
  bound, and either the run-to-run spread is within the bound or every run
  of B reads worse than every run of A;
* **improved** — there are at least ten run pairs, B wins at least nine
  tenths of them and the medians differ by more than the distance between
  A's own quartiles;
* **unresolved** — the spread is wider than the bound and the runs
  interleave, so the bound cannot be checked either way; or B looks better
  by the rule above but on fewer than ten pairs, which is too few to claim;
* **unchanged** — otherwise.

Pair i is run i of A with run i of B, so alternate the two sides when you
measure (A, B, B, A, ...): the sandbox's speed drifts by up to 20 % over tens
of minutes, and two blocks of runs taken one after the other differ by that.

Exact counts must be identical. The exit code is 1 when any row regressed
or any exact count differs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence

import _harness as h
import catalogue as cat


MIN_PAIRS_TO_CLAIM = 10  # choosing-metrics guide, section 8


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = larger, after the sign flip
    a, b = [sign * v for v in a], [sign * v for v in b]
    sa, sb = h.summarize(a), h.summarize(b)
    base = abs(sa["median"])
    if base == 0.0:
        return "regressed" if sb["median"] > 0.0 else "unchanged"
    worse = (sb["median"] - sa["median"]) / base
    spread = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]) / base
    all_worse, all_better = min(b) > max(a), max(b) < min(a)
    if worse > bound and (spread <= bound or all_worse):
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(y < x for x, y in pairs)
    if wins >= 0.9 * len(pairs) and sa["median"] - sb["median"] > sa["q3"] - sa["q1"]:
        return "improved" if len(pairs) >= MIN_PAIRS_TO_CLAIM else "unresolved"
    if spread > bound and not (all_worse or all_better):
        return "unresolved"
    return "unchanged"


def rows(doc_a: dict, doc_b: dict) -> List[dict]:
    out = []
    for workload in cat.WORKLOAD_NAMES:
        cells_a = doc_a["workloads"].get(workload, {}).get("metrics", {})
        cells_b = doc_b["workloads"].get(workload, {}).get("metrics", {})
        for spec in cat.END_TO_END + cat.SCOPED:
            if spec.name not in cells_a or spec.name not in cells_b:
                continue
            a, b = cells_a[spec.name]["values"], cells_b[spec.name]["values"]
            if not any(a) and not any(b) and spec.name != "failed_share":
                continue  # the metric does not apply to this workload
            out.append({
                "workload": workload, "metric": spec.name, "unit": spec.unit,
                "a": h.summarize(a), "b": h.summarize(b), "bound": spec.bound,
                "verdict": verdict(a, b, spec.better, spec.bound),
            })
        for name in cat.EXACT_COUNTS:
            if name in cells_a and name in cells_b:
                a, b = cells_a[name]["values"], cells_b[name]["values"]
                out.append({
                    "workload": workload, "metric": name, "unit": cat.ALL_METRICS[name].unit,
                    "a": h.summarize(a), "b": h.summarize(b), "bound": 0.0,
                    "verdict": "identical" if a == b else "differs",
                })
    return out


def main(path_a: Path, path_b: Path) -> int:
    doc_a, doc_b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    for key in ("seed", "run_seconds", "cores", "params"):
        if doc_a.get(key) != doc_b.get(key):
            print(f"# warning: {key} differs: {doc_a.get(key)!r} vs {doc_b.get(key)!r}")
    table = rows(doc_a, doc_b)
    print("workload metric unit A_median [A_q1 A_q3 n] B_median [B_q1 B_q3 n] change bound verdict")
    for row in table:
        a, b = row["a"], row["b"]
        change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
        print(f"{row['workload']} {row['metric']} {row['unit']} "
              f"{a['median']:.6g} [{a['q1']:.6g} {a['q3']:.6g} {a['n']}] "
              f"{b['median']:.6g} [{b['q1']:.6g} {b['q3']:.6g} {b['n']}] "
              f"{change:+.3f} {row['bound']:g} {row['verdict']}")
    bad = [r for r in table if r["verdict"] in ("regressed", "differs")]
    tally = {v: sum(r["verdict"] == v for r in table) for v in
             ("improved", "unchanged", "regressed", "unresolved", "identical", "differs")}
    print("# " + ", ".join(f"{count} {name}" for name, count in tally.items()))
    return 1 if bad else 0
