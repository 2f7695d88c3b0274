"""Tests for repro.telemetry.exporter: rendering, validation, the endpoint."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.telemetry.exporter import (
    MetricFamily,
    MetricsServer,
    metric_name,
    registry_families,
    render,
    slo_families,
    validate_openmetrics,
)
from repro.telemetry.live import SloTracker
from repro.telemetry.metrics import MetricsRegistry


class TestMetricName:
    def test_dots_become_underscores_with_prefix(self):
        assert metric_name("serving.latency_ms") == "repro_serving_latency_ms"

    def test_arbitrary_junk_is_sanitized(self):
        name = metric_name("a b/c-d.e")
        assert name == "repro_a_b_c_d_e"


class TestRenderAndValidate:
    def test_counter_gauge_summary_round_trip(self):
        counter = MetricFamily("repro_hits", "counter", "Hits.").add(
            3, suffix="_total", session="s"
        )
        gauge = MetricFamily("repro_depth", "gauge").add(2.5)
        summary = MetricFamily("repro_lat", "summary")
        summary.add(0.1, session="s", quantile="0.5")
        summary.add(4, suffix="_count", session="s")
        summary.add(0.5, suffix="_sum", session="s")
        text = render([counter, gauge, summary])
        assert text.endswith("# EOF\n")
        assert 'repro_hits_total{session="s"} 3' in text
        assert validate_openmetrics(text) == []

    def test_label_escaping_survives_validation(self):
        family = MetricFamily("repro_x", "gauge").add(
            1.0, session='we"ird\\name\nwith newline'
        )
        text = render([family])
        assert validate_openmetrics(text) == []

    def test_missing_eof_is_an_error(self):
        text = render([MetricFamily("repro_x", "gauge").add(1.0)])
        errors = validate_openmetrics(text.replace("# EOF\n", ""))
        assert any("EOF" in error for error in errors)

    def test_sample_without_type_is_an_error(self):
        errors = validate_openmetrics("repro_x 1\n# EOF\n")
        assert any("no TYPE" in error for error in errors)

    def test_duplicate_family_is_an_error(self):
        text = "# TYPE repro_x gauge\n# TYPE repro_x gauge\nrepro_x 1\n# EOF\n"
        assert any("twice" in error for error in validate_openmetrics(text))

    def test_duplicate_sample_is_an_error(self):
        text = "# TYPE repro_x gauge\nrepro_x 1\nrepro_x 2\n# EOF\n"
        assert any("duplicate sample" in error for error in validate_openmetrics(text))

    def test_non_numeric_value_is_an_error(self):
        text = "# TYPE repro_x gauge\nrepro_x banana\n# EOF\n"
        assert any("not a number" in error for error in validate_openmetrics(text))


class TestAdapters:
    def test_registry_families_use_the_telemetry_prefix(self):
        registry = MetricsRegistry()
        registry.counter("serving.requests").add(2.0)
        registry.gauge("serving.queue_depth").set(1.0)
        registry.histogram("gd.loss").observe(0.5)
        text = render(registry_families(registry))
        assert "repro_telemetry_serving_requests_total 2" in text
        assert "repro_telemetry_serving_queue_depth" in text
        assert "repro_telemetry_gd_loss_count 1" in text
        assert validate_openmetrics(text) == []

    def test_slo_families_expose_quantiles_and_lifetimes(self):
        tracker = SloTracker("demo")
        tracker.record("ok", 0.010)
        tracker.record("error", 0.030)
        text = render(slo_families([tracker.snapshot()]))
        assert validate_openmetrics(text) == []
        assert 'repro_serving_requests_total{outcome="ok",session="demo"} 1' in text
        assert 'quantile="0.99"' in text
        assert 'repro_serving_failure_ratio{mode="error",session="demo"} 0.5' in text


def fetch(url):
    """The body at ``url``, with the response closed."""
    with urllib.request.urlopen(url) as response:
        return response.read().decode()


class TestMetricsServer:
    def test_metrics_health_and_404(self):
        state = {"status": "ok"}
        server = MetricsServer(
            lambda: render([MetricFamily("repro_up", "gauge").add(1.0)]),
            lambda: dict(state),
        )
        try:
            assert validate_openmetrics(fetch(server.url("/metrics"))) == []
            with urllib.request.urlopen(server.url("/health")) as health:
                assert health.status == 200
                assert json.loads(health.read())["status"] == "ok"

            state["status"] = "degraded"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url("/health"))
            excinfo.value.close()
            assert excinfo.value.code == 503

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url("/nope"))
            excinfo.value.close()
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = MetricsServer(lambda: "# EOF\n", lambda: {"status": "ok"})
        server.stop()
        server.stop()

    def test_concurrent_scrapes_never_see_a_torn_exposition(self):
        """Writers hammer a tracker while scrapers validate every response."""
        tracker = SloTracker("demo")
        server = MetricsServer(
            lambda: render(slo_families([tracker.snapshot()])),
            lambda: {"status": "ok"},
        )
        stop = threading.Event()
        problems = []

        def writer():
            while not stop.is_set():
                tracker.record("ok", 0.001)
                tracker.record("error", 0.002)

        def scraper():
            for _ in range(20):
                errors = validate_openmetrics(fetch(server.url("/metrics")))
                if errors:
                    problems.append(errors)

        try:
            writers = [threading.Thread(target=writer) for _ in range(2)]
            scrapers = [threading.Thread(target=scraper) for _ in range(3)]
            for thread in writers + scrapers:
                thread.start()
            for thread in scrapers:
                thread.join()
            stop.set()
            for thread in writers:
                thread.join()
        finally:
            stop.set()
            server.stop()
        assert problems == []
