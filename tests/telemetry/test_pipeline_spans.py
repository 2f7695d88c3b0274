"""End-to-end: the instrumented layers emit the expected spans/counters."""

import numpy as np

from repro import telemetry
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_tables,
)
from repro.learning.linear_regression import LinearRegression
from repro.metadata.mappings import ScenarioType
from repro.streaming.builder import integrate_streams
from repro.streaming.spill import SpillStore


class TestStreamingSpans:
    def test_spilled_integration_emits_build_and_spill_telemetry(self):
        spec = ScenarioSpec(
            scenario=ScenarioType.FULL_OUTER_JOIN, base_rows=64, other_rows=48,
            overlap_rows=16, overlap_columns=1, seed=11,
        )
        base, other, column_matches, row_matches, target_columns = (
            generate_scenario_tables(spec)
        )
        telemetry.enable(sample_memory=False)
        with SpillStore() as store:
            integrate_streams(
                base, other, column_matches, row_matches, target_columns,
                spec.scenario, label_column="label", store=store, chunk_rows=16,
            )
            report = telemetry.run_report()
        telemetry.disable()
        assert report.spans["build.integrate_streams"]["count"] == 1
        assert report.spans["build.ingest_stream"]["count"] == 2
        assert report.counters["spill.matrices"] == 2
        assert report.counters["spill.bytes_written"] > 0
        assert report.counters["spill.bytes_allocated"] > 0
        assert report.counters["spill.releases"] > 0


class TestTrainingSpans:
    def test_linear_gd_span_and_loss_histogram(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((64, 3))
        targets = features @ np.array([1.0, -2.0, 0.5]) + 0.1
        telemetry.enable(sample_memory=False)
        model = LinearRegression(solver="gd", n_iterations=25).fit(features, targets)
        report = telemetry.run_report()
        telemetry.disable()
        assert report.spans["train.linear_gd"]["count"] == 1
        losses = report.histograms["gd.linear.loss"]
        assert losses["count"] == 25
        assert losses["values"] == model.loss_history_
        assert report.counters["gd.iterations"] == 25
