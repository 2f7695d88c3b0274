"""Pipeline telemetry: spans, counters and memory probes, ingest → training.

The subsystem is off by default and near-free while off: every
instrumented call site in the hot layers tests the module-level
:data:`ENABLED` boolean (one attribute load + branch) before doing any
work. Turning it on installs a :class:`TelemetrySession` — a
:class:`~repro.telemetry.tracer.Tracer` for nestable spans, a
:class:`~repro.telemetry.metrics.MetricsRegistry` for counters / gauges /
histograms, and an optional background RSS sampler — which renders into a
Chrome ``trace_event`` JSON and a flat :class:`~repro.telemetry.report.
RunReport`.

Typical use::

    from repro import telemetry

    with telemetry.collect() as session:
        dataset = amalur.integrate(config)
        amalur.train(TrainRequest(model=spec, dataset=dataset))
    report = session.report()           # RunReport: spans/counters/memory
    trace = session.chrome_trace()      # load in Perfetto / chrome://tracing

Instrumented call sites use the module facade::

    from repro import telemetry as _telemetry

    with _telemetry.span("resolve.key", left_rows=n) as sp:
        ...
        sp.set(matches=int(left_rows.size))

    if _telemetry.ENABLED:              # hot loops: guard the whole block
        _telemetry.counter_add("spill.bytes_read", block.nbytes)

Beyond this offline, session-scoped tier the package also houses the
*live* tier for long-running services: :mod:`repro.telemetry.live`
(always-on sliding-window SLO trackers), :mod:`repro.telemetry.exporter`
(OpenMetrics rendering and the ``/metrics`` + ``/health`` endpoint),
:mod:`repro.telemetry.flight` (the post-mortem flight recorder) and
:mod:`repro.telemetry.regress` (the bench-trajectory regression
detector, ``python -m repro.telemetry.regress``). Those are imported
explicitly by their consumers — nothing here changes the near-free
disabled cost of this facade.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.memory import (
    RssSampler,
    current_rss_bytes,
    peak_rss_bytes,
    rss_breakdown,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import NOOP_SPAN, NoopSpan, Span, SpanRecord, Tracer

__all__ = [
    "ENABLED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopSpan",
    "NOOP_SPAN",
    "RssSampler",
    "Span",
    "SpanRecord",
    "TelemetrySession",
    "Tracer",
    "active_session",
    "collect",
    "counter_add",
    "current_rss_bytes",
    "disable",
    "enable",
    "gauge_set",
    "is_enabled",
    "observe",
    "peak_rss_bytes",
    "record_op",
    "rss_breakdown",
    "run_report",
    "span",
]

#: The one branch every instrumented hot path tests. Mutated only by
#: :func:`enable` / :func:`disable`; read directly (``telemetry.ENABLED``)
#: so the disabled cost of a call site is a single attribute load.
ENABLED = False

_session: Optional["TelemetrySession"] = None
_state_lock = threading.Lock()


class TelemetrySession:
    """One enable→disable window of collected telemetry."""

    def __init__(self, sample_memory: bool = True, sample_interval: float = 0.05):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        self.finished_at: Optional[float] = None
        self.sampler: Optional[RssSampler] = None
        if sample_memory:
            self.sampler = RssSampler(interval=sample_interval)
            self.sampler.start()

    def finish(self) -> None:
        """Stop background sampling; the session stays readable."""
        if self.finished_at is None:
            self.finished_at = time.time()
        if self.sampler is not None:
            self.sampler.stop()

    def memory_snapshot(self) -> dict:
        if self.sampler is not None:
            snapshot = self.sampler.snapshot()
        else:
            snapshot = {
                "peak_rss_bytes": peak_rss_bytes(),
                "sampled_peak_rss_bytes": 0,
                "n_samples": 0,
                "sampled_peak_anonymous_bytes": 0,
                "sampled_peak_file_backed_bytes": 0,
            }
        breakdown = rss_breakdown()
        if breakdown.get("available"):
            # Where the resident set sits *now*: anonymous (heap/arrays)
            # vs file-backed (mapped libraries, page cache) pages.
            snapshot["final_rss_bytes"] = breakdown["rss_bytes"]
            snapshot["final_anonymous_bytes"] = breakdown["anonymous_bytes"]
            snapshot["final_file_backed_bytes"] = breakdown["file_backed_bytes"]
        return snapshot

    def report(self):
        """Build the flat :class:`~repro.telemetry.report.RunReport`."""
        from repro.telemetry.report import build_report

        return build_report(self)

    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` JSON object for this session."""
        return self.tracer.to_chrome_trace()


def enable(sample_memory: bool = True, sample_interval: float = 0.05) -> TelemetrySession:
    """Turn telemetry on with a fresh session (discarding any previous one)."""
    global ENABLED, _session
    with _state_lock:
        if _session is not None:
            _session.finish()
        _session = TelemetrySession(
            sample_memory=sample_memory, sample_interval=sample_interval
        )
        ENABLED = True
        return _session


def disable() -> Optional[TelemetrySession]:
    """Turn telemetry off; returns the (finished, still readable) session."""
    global ENABLED, _session
    with _state_lock:
        ENABLED = False
        session, _session = _session, None
        if session is not None:
            session.finish()
        return session


def is_enabled() -> bool:
    return ENABLED


def active_session() -> Optional[TelemetrySession]:
    return _session


@contextmanager
def collect(
    sample_memory: bool = True, sample_interval: float = 0.05
) -> Iterator[TelemetrySession]:
    """Enable telemetry for a block; the yielded session outlives the block
    (read ``session.report()`` / ``session.chrome_trace()`` after exit)."""
    session = enable(sample_memory=sample_memory, sample_interval=sample_interval)
    try:
        yield session
    finally:
        if _session is session:
            disable()
        else:  # a nested enable() replaced us; just stop our sampler
            session.finish()


# -- instrumentation facade (what the hot layers call) ----------------------------------
def span(name: str, **attrs):
    """A nestable span context manager; the shared no-op when disabled."""
    if not ENABLED:
        return NOOP_SPAN
    session = _session
    if session is None:  # pragma: no cover - disable() raced us
        return NOOP_SPAN
    return session.tracer.span(name, attrs)


def counter_add(name: str, amount: float = 1.0) -> None:
    if not ENABLED:
        return
    session = _session
    if session is not None:
        session.metrics.counter(name).add(amount)


def gauge_set(name: str, value: float) -> None:
    if not ENABLED:
        return
    session = _session
    if session is not None:
        session.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    if not ENABLED:
        return
    session = _session
    if session is not None:
        session.metrics.histogram(name).observe(value)


def record_op(name: str, seconds: float, flops: float) -> None:
    """Account one timed kernel call: ``<name>.calls/.seconds/.flops``."""
    if not ENABLED:
        return
    session = _session
    if session is not None:
        metrics = session.metrics
        metrics.counter(name + ".calls").add(1.0)
        metrics.counter(name + ".seconds").add(seconds)
        metrics.counter(name + ".flops").add(flops)


def run_report():
    """The :class:`~repro.telemetry.report.RunReport` of the active session
    (``None`` while telemetry is disabled)."""
    session = _session
    if session is None:
        return None
    return session.report()


def export_chrome_trace() -> Optional[dict]:
    """Chrome-trace JSON of the active session (``None`` while disabled)."""
    session = _session
    if session is None:
        return None
    return session.chrome_trace()
