"""Tests for repro.telemetry.regress: the bench-trajectory detector."""

import json

import pytest

from repro.telemetry import regress
from repro.telemetry.regress import MetricSpec, audit, compare, resolve_path


def write(directory, name, payload):
    (directory / name).write_text(json.dumps(payload))


GOOD_SERVING = {
    "incremental": {"speedup": 7.0, "max_weight_err": 1e-16},
    "serving": {"post_delta_parity": 1e-16},
}


class TestResolvePath:
    def test_wildcard_expands_sorted(self):
        document = {"cases": {"b": {"x": 2}, "a": {"x": 1}}}
        matches = resolve_path(document, "cases.*.x")
        assert matches == [("cases.a.x", 1), ("cases.b.x", 2)]

    def test_missing_segment_yields_nothing(self):
        assert resolve_path({"a": {"b": 1}}, "a.c") == []


class TestMetricSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec("x", "sideways", 1.0)

    def test_bound_required_for_numeric_kinds(self):
        with pytest.raises(ValueError):
            MetricSpec("x", "higher")


class TestAudit:
    def test_missing_file_fails(self, tmp_path):
        findings = audit(tmp_path)
        assert all(finding["status"] == "fail" for finding in findings)
        assert {finding["file"] for finding in findings} == set(regress.TRAJECTORY)

    def test_committed_trajectory_passes(self):
        findings = audit(regress.DEFAULT_RESULTS)
        failures = [f for f in findings if f["status"] == "fail"]
        assert failures == [], regress.render_text(failures)


class TestCompare:
    def test_fresh_subset_compares_only_what_exists(self, tmp_path):
        fresh, baseline = tmp_path / "fresh", tmp_path / "baseline"
        fresh.mkdir(), baseline.mkdir()
        write(fresh, "BENCH_SERVING.json", GOOD_SERVING)
        write(baseline, "BENCH_SERVING.json", GOOD_SERVING)
        findings = compare(fresh, baseline)
        serving = [f for f in findings if f["file"] == "BENCH_SERVING.json"]
        assert all(finding["status"] == "ok" for finding in serving)
        others = [f for f in findings if f["file"] != "BENCH_SERVING.json"]
        assert all(finding["status"] == "skip" for finding in others)

    def test_absolute_floor_violation_fails(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        bad = {
            "incremental": {"speedup": 0.4, "max_weight_err": 1e-16},
            "serving": {"post_delta_parity": 1e-16},
        }
        write(fresh, "BENCH_SERVING.json", bad)
        findings = compare(fresh, tmp_path)
        failed = [f for f in findings if f["status"] == "fail"]
        assert any(f["metric"] == "incremental.speedup" for f in failed)

    def test_retention_violation_fails(self, tmp_path):
        fresh, baseline = tmp_path / "fresh", tmp_path / "baseline"
        fresh.mkdir(), baseline.mkdir()
        regressed = {
            # Above the 1.25 floor, but far below 0.5 * the 20.0 baseline.
            "incremental": {"speedup": 4.0, "max_weight_err": 1e-16},
            "serving": {"post_delta_parity": 1e-16},
        }
        strong = {
            "incremental": {"speedup": 20.0, "max_weight_err": 1e-16},
            "serving": {"post_delta_parity": 1e-16},
        }
        write(fresh, "BENCH_SERVING.json", regressed)
        write(baseline, "BENCH_SERVING.json", strong)
        findings = compare(fresh, baseline)
        failed = [f for f in findings if f["status"] == "fail"]
        assert any("retains less" in f.get("detail", "") for f in failed)

    def test_parity_bound_is_absolute(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        drifted = {
            "incremental": {"speedup": 7.0, "max_weight_err": 1e-3},
            "serving": {"post_delta_parity": 1e-16},
        }
        write(fresh, "BENCH_SERVING.json", drifted)
        findings = compare(fresh, tmp_path)
        failed = [f for f in findings if f["status"] == "fail"]
        assert any(f["metric"] == "incremental.max_weight_err" for f in failed)

    def test_scaling_speedup_gated_on_cores(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        one_core = {
            "cores": 1,
            "parity": {
                "factors_bit_identical": True,
                "flop_counters_equal": True,
                "max_weight_diff": 0.0,
            },
            # Would fail the 1.5 / 0.8 floors on a multi-core run.
            "scaling": {"speedup": 1.0},
            "resident": {
                "blocked_over_serial": {"lmm": 0.1, "transpose_lmm": 0.1, "gd_fit": 0.1},
                "max_abs_diff": 0.0,
            },
        }
        write(fresh, "BENCH_PARALLEL.json", one_core)
        findings = compare(fresh, tmp_path)
        parallel = [f for f in findings if f["file"] == "BENCH_PARALLEL.json"]
        gated = [
            f for f in parallel
            if f["metric"] == "scaling.speedup"
            or f["metric"].startswith("resident.blocked_over_serial.")
        ]
        assert len(gated) == 4 and all(f["status"] == "skip" for f in gated)
        assert not any(f["status"] == "fail" for f in parallel)

    def test_blocked_over_serial_floor_enforced_on_two_cores(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        pessimized = {
            "cores": 2,
            "parity": {
                "factors_bit_identical": True,
                "flop_counters_equal": True,
                "max_weight_diff": 0.0,
            },
            "scaling": {"speedup": 1.3},
            # The default-path pessimization this floor exists for: two
            # workers 13x slower than one.
            "resident": {
                "blocked_over_serial": {"lmm": 1.0, "transpose_lmm": 1.0, "gd_fit": 0.078},
                "max_abs_diff": 0.0,
            },
        }
        write(fresh, "BENCH_PARALLEL.json", pessimized)
        failed = [f for f in compare(fresh, tmp_path) if f["status"] == "fail"]
        assert [f["metric"] for f in failed] == ["resident.blocked_over_serial.gd_fit"]

    def test_worker_count_weight_parity_is_bitwise(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        last_bit = {
            "cores": 1,
            "parity": {
                "factors_bit_identical": True,
                "flop_counters_equal": True,
                # One worker and two once differed in the last bit.
                "max_weight_diff": 2.2e-16,
            },
            "scaling": {"speedup": 1.0},
            "resident": {
                "blocked_over_serial": {"lmm": 1.0, "transpose_lmm": 1.0, "gd_fit": 1.0},
                "max_abs_diff": 0.0,
            },
        }
        write(fresh, "BENCH_PARALLEL.json", last_bit)
        failed = [f for f in compare(fresh, tmp_path) if f["status"] == "fail"]
        assert [f["metric"] for f in failed] == ["parity.max_weight_diff"]

    def test_missing_bool_guard_fails(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        write(
            fresh, "BENCH_OBSERVABILITY.json",
            {"overhead": {"ratio": 1.0}, "scrape": {"all_valid": True},
             "flight": {"breaker_opened": True}},  # dump_contains_request_span absent
        )
        findings = compare(fresh, tmp_path)
        failed = [f for f in findings if f["status"] == "fail"]
        assert any(
            f["metric"] == "flight.dump_contains_request_span" for f in failed
        )


class TestCli:
    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        write(fresh, "BENCH_SERVING.json", GOOD_SERVING)
        out_file = tmp_path / "findings.json"
        code = regress.main([
            "--fresh", str(fresh), "--results", str(tmp_path),
            "--json", str(out_file),
        ])
        assert code == 0
        assert json.loads(out_file.read_text())
        assert "failed" in capsys.readouterr().out

    def test_cli_fails_on_empty_fresh_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert regress.main(["--fresh", str(empty), "--results", str(tmp_path)]) == 1
