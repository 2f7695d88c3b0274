"""``run.py --selfcheck``: the benchmark checks its own bookkeeping.

No workload runs. It checks that BENCHMARK.json is what the catalogue says
and fits the driver's contract, that README.md names every workload and
metric, and that the statistics, the span arithmetic and the ``--compare``
verdicts give the right answers on hand-made inputs.
"""

from __future__ import annotations

import json
import re
import sys
import time

import _harness as h
import catalogue as cat
from compare import verdict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract_errors(doc: dict) -> list:
    errors = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != want:
        errors.append(f"keys {sorted(doc)} != {sorted(want)}")
        return errors
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    errors += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    errors += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)):
        if not low <= len(doc[key]) <= high:
            errors.append(f"{len(doc[key])} {key}, allowed {low}..{high}")
    for entry in doc["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 or "\n" in entry["why"]:
            errors.append(f"workload entry {entry.get('name')}")
    for entry in doc["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 <= entry["bound"] <= 0.25:
            errors.append(f"end_to_end entry {entry.get('name')}")
    for entry in doc["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            errors.append(f"per_layer entry {entry.get('name')}")
    for entry in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.match(entry["unit"]) or entry["better"] not in ("lower", "higher"):
            errors.append(f"unit/better of {entry['name']}")
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        errors.append("run_seconds")
    if not 1 <= len(doc["paths"]) <= 16 or not 1 <= len(doc["command"]) <= 32:
        errors.append("paths/command length")
    if len(json.dumps(doc)) > 64 * 1024:
        errors.append("larger than 64 KiB")
    return errors


def main() -> int:
    failures = []

    def expect(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(label)

    path = h.REPO_ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    expect("BENCHMARK.json equals catalogue.benchmark_json()", doc == cat.benchmark_json())
    errors = contract_errors(cat.benchmark_json())
    expect("BENCHMARK.json fits the driver's contract", not errors, "; ".join(errors))

    readme = (h.HERE / "README.md").read_text()
    missing = [n for n in list(cat.ALL_METRICS) + cat.WORKLOAD_NAMES if f"`{n}`" not in readme]
    expect("README.md names every workload and metric", not missing, ", ".join(missing))
    collected = [p.name for p in h.HERE.rglob("*.py")
                 if p.name.startswith("test_") or p.name.endswith("_test.py")]
    expect("no file here matches pytest's collection patterns", not collected, str(collected))

    s = h.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    expect("summarize: median and quartiles", (s["median"], s["q1"], s["q3"], s["n"])
           == (5.5, 2.75, 8.25, 10), str(s))
    expect("percentile: nearest rank", h.percentile(range(1, 101), 99) == 99
           and h.percentile([5, 1, 3], 50) == 3 and h.percentile([7], 99) == 7)
    expect("covered: union of overlapping intervals",
           abs(h.covered([(0, 2), (1, 3), (5, 9)], 0.5, 6) - 3.5) < 1e-12)

    rec = h.Recorder("selfcheck")
    with rec.span("run") as root:
        with rec.span("a.outer"):
            time.sleep(0.02)
            with rec.span("b.inner"):
                time.sleep(0.03)
        time.sleep(0.01)
    selves = rec.layer_self_times(root)
    outer = next(s for s in rec.spans if s.name == "a.outer")
    inner = next(s for s in rec.spans if s.name == "b.inner")
    expect("recorder: self time = span minus children",
           abs(selves["a"] - (outer.duration - inner.duration)) < 1e-9
           and abs(selves["b"] - inner.duration) < 1e-9 and inner.parent == outer.id)
    expect("recorder: coverage leaves the uncovered tail out",
           abs(rec.coverage(root) - outer.duration) < 1e-9 and root.duration > outer.duration)
    events = rec.chrome_trace()["traceEvents"]
    expect("recorder: chrome trace has one complete event per span",
           len(events) == 3 and all(e["ph"] == "X" for e in events))

    base = [1.00, 1.02, 0.98, 1.01, 0.99] * 2
    expect("compare: A/A is unchanged", verdict(base, base[::-1], "lower", 0.1) == "unchanged")
    expect("compare: +30 % on a lower-is-better metric regressed",
           verdict(base, [v * 1.3 for v in base], "lower", 0.1) == "regressed")
    expect("compare: -30 % improved, but only on ten pairs or more",
           verdict(base, [v * 0.7 for v in base], "lower", 0.1) == "improved"
           and verdict(base[:3], [v * 0.7 for v in base[:3]], "lower", 0.1) == "unresolved")
    expect("compare: higher-is-better drop regressed",
           verdict(base, [v * 0.7 for v in base], "higher", 0.1) == "regressed")
    noisy_a, noisy_b = [1.0, 1.5, 0.7, 1.3, 0.8], [1.2, 0.8, 1.6, 0.9, 1.4]
    expect("compare: wide interleaved runs are unresolved",
           verdict(noisy_a, noisy_b, "lower", 0.1) == "unresolved")
    expect("compare: any failure against a zero bound regressed",
           verdict([0.0, 0.0], [0.0, 0.01], "lower", 0.0) == "regressed"
           and verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0) == "unchanged")

    print(f"# {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
