"""The six workloads: inputs from a seed, the timed calls, baseline and checks.

Every layer is measured from outside, by timing calls into its public
functions; nothing under ``src/`` knows about this file. A pass runs the
same calls untraced (``rec`` is the no-op recorder) or traced (each public
call inside a span). Where a facade hides layers — ``Amalur.integrate`` =
``match_schemas`` + ``resolve_entities`` + ``integrate_tables``;
``Executor.execute`` = ``AmalurMatrix(...)`` + learner ``fit`` — the traced
pass calls those public functions directly in the same order, and
``harness.attribution_residual`` reports how far the spans are from the
facade call.

Imported by the child process only (needs numpy and ``repro`` on the path).
"""

from __future__ import annotations

import gc
import itertools
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import Amalur, parallel, telemetry
from repro.costmodel.decision import Decision
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_streams,
    generate_scenario_tables,
)
from repro.datagen.synthetic import (
    OneHotSpec,
    SyntheticSiloSpec,
    generate_integrated_pair,
    generate_one_hot_pair,
)
from repro.exceptions import CapacityExceeded, RequestTimeout
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, StreamingGD
from repro.learning.base import DenseMatrix
from repro.matrices.builder import integrate_tables
from repro.metadata.entity_resolution import resolve_entities
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import match_schemas
from repro.relational.io import read_csv, write_csv
from repro.serving import AmalurService, DatasetSession
from repro.silos.orchestrator import Orchestrator
from repro.streaming import SpillStore, integrate_streams
from repro.streaming.chunks import TableChunk, TableChunkStream
from repro.streaming.ingest import ChunkedCsvReader
from repro.system.executor import Executor
from repro.system.optimizer import Optimizer
from repro.system.plan import ExecutionPlan, ModelSpec
from repro.system.requests import (
    DeltaBatch,
    IntegrationConfig,
    PredictRequest,
    ServiceResult,
    TrainRequest,
)

import _harness as h
from catalogue import TRACE_NAMES, WORKLOADS

TOLERANCE = 1e-8
WARMUP_PASSES = 2  # discarded; the second still runs ~2x slow on cold page cache
PREDICT_CALLS, PREDICT_SECONDS = (3, 15), 0.15  # predict calls timed after every pass
PROBE_CALLS = 5

_pass_ids = itertools.count()


# -- shared pieces --------------------------------------------------------------------------


class TimedStream(TableChunkStream):
    """A chunk stream whose every chunk pull is a span — the stream layer
    timed through its public interface, on whichever thread pulls."""

    def __init__(self, inner: TableChunkStream, rec, span_name: str):
        self._inner = inner
        self._rec = rec
        self._span_name = span_name
        self.name = inner.name
        self.supports_random_access = inner.supports_random_access

    @property
    def schema(self):
        return self._inner.schema

    @property
    def n_rows(self) -> int:
        return self._inner.n_rows

    @property
    def chunk_rows(self) -> int:
        return self._inner.chunk_rows

    def chunk_at(self, index: int) -> TableChunk:
        with self._rec.span(self._span_name, chunk=index):
            return self._inner.chunk_at(index)

    def chunks(self) -> Iterator[TableChunk]:
        iterator = iter(self._inner.chunks())
        while True:
            with self._rec.span(self._span_name):
                chunk = next(iterator, None)
            if chunk is None:
                return
            yield chunk


def timed(stream: TableChunkStream, rec, span_name: str) -> TableChunkStream:
    return TimedStream(stream, rec, span_name) if rec.enabled else stream


class CountingSpillStore(SpillStore):
    """A spill store that counts ``release`` calls (builder's and trainer's)."""

    release_calls = 0

    def release(self) -> None:
        self.release_calls += 1
        super().release()


def numpy_gd(features: np.ndarray, labels: np.ndarray, learning_rate: float,
             iterations: int) -> Tuple[np.ndarray, float]:
    """Plain-numpy full-batch least-squares GD: the reference every trained
    model is checked against (zero start, centred targets, uncentred features)."""
    offset = float(labels.mean())
    centred = labels - offset
    weights = np.zeros(features.shape[1])
    for _ in range(iterations):
        residuals = features @ weights - centred
        weights = weights - learning_rate * (features.T @ residuals) / features.shape[0]
    return weights, offset


def split_label(target: np.ndarray, columns: List[str], label: str):
    index = columns.index(label)
    return np.delete(target, index, axis=1), target[:, index]


def scenario_reference(base, other, targets: List[str], overlap_rows: int) -> np.ndarray:
    """The left-join target assembled by hand from the generator's tables:
    base columns from S1; ``o_*`` columns from S2 on the overlap rows (row i
    of both tables is the same entity there), 0 elsewhere."""
    out = np.zeros((base.n_rows, len(targets)))
    for j, name in enumerate(targets):
        if name in base.schema:
            out[:, j] = base.column_values(name)
        else:
            out[:overlap_rows, j] = other.column_values(name)[:overlap_rows]
    return out


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def close_to(name: str, got: np.ndarray, want: np.ndarray) -> Check:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} != {want.shape}")
    error = float(np.max(np.abs(got - want))) if got.size else 0.0
    return Check(name, error <= TOLERANCE, f"max abs diff {error:.3e}")


@dataclass
class Outcome:
    """What one run reports: metric values, the samples behind them, checks."""

    metrics: Dict[str, float]
    samples: Dict[str, List[float]] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class Pass:
    """One timed pass of a pipeline workload and what it produced."""

    time_to_model_s: float
    cpu_s: float
    build_s: float  # raw input -> integrated dataset (0 where the input is resident)
    train_s: float  # plan + compile + training of the default path
    predict_ms: List[float]
    strategy: Decision
    weights: np.ndarray
    intercept: float
    predictions: np.ndarray
    dataset: object
    operand: object  # AmalurMatrix over the feature columns
    spec: ModelSpec
    bytes_transferred: int = 0
    spilled_bytes: int = 0
    release_calls: int = 0
    rec: object = h.NULL
    root: Optional[h.Span] = None
    closer: Optional[Callable[[], None]] = None

    def close(self) -> None:
        self.dataset = self.operand = None
        if self.closer is not None:
            self.closer()
            self.closer = None


@dataclass
class Baseline:
    """The other strategy (materialize, unless the default path chose it)."""

    wall_s: float
    weights: np.ndarray
    bytes_transferred: int
    strategy: Decision


def params_of(name: str) -> Dict[str, object]:
    return dict(next(w.params for w in WORKLOADS if w.name == name))


def left_join_spec(params: Dict[str, object], seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        ScenarioType.LEFT_JOIN, base_rows=params["base_rows"], other_rows=params["other_rows"],
        base_features=params["base_features"], other_features=params["other_features"],
        overlap_rows=params["overlap_rows"], overlap_columns=params["overlap_columns"],
        seed=seed,
    )


# -- pipeline workloads: the shared protocol -------------------------------------------------


class PipelineWorkload:
    """Raw input -> trained weights -> predictions, through the default path."""

    name: str

    def __init__(self):
        self.params = params_of(self.name)

    # subclasses: setup(seed, workdir) -> inputs; run(inputs, rec) -> Pass;
    # input_checks(inputs, last) -> [Check]; layer_metrics(inputs, pass) -> {name: value}

    # -- the other strategy -------------------------------------------------------------
    def baseline(self, last: Pass, rec=h.NULL) -> Baseline:
        """Train the same model with the strategy the default path did not run.

        Untraced it is one ``Executor.execute`` of the forced plan (silo
        export + materialize + dense train); traced, the same public calls
        in the same order, each in a span.
        """
        other = (
            Decision.MATERIALIZE if last.strategy is Decision.FACTORIZE else Decision.FACTORIZE
        )
        dataset, spec = last.dataset, last.spec
        start = h.now()
        if not rec.enabled or other is Decision.FACTORIZE:
            result = Executor().execute(ExecutionPlan(other, dataset, spec))
            weights, transferred = result.model.coef_, result.bytes_transferred
        else:
            orchestrator = Orchestrator()
            with rec.span("relational.materialize"):
                target = orchestrator.materialize_target(dataset)
            features, labels = split_label(target, dataset.target_columns, dataset.label_column)
            with rec.span("learning.gd.fit_dense"):
                model = LinearRegression(
                    solver="gd", learning_rate=spec.learning_rate,
                    n_iterations=spec.n_iterations,
                ).fit(DenseMatrix(features), labels)
            with rec.span("system.executor.predict_dense"):
                model.predict(DenseMatrix(features))
            weights, transferred = model.coef_, orchestrator.network.total_bytes
        return Baseline(h.now() - start, np.array(weights), int(transferred), other)

    def steady_baseline(self, last: Pass) -> Baseline:
        """The baseline with its wall as the median of 1 to 3 calls (a short
        baseline is called again until 0.25 s have passed)."""
        calls = h.sample(lambda: self.baseline(last), 1, 3, 0.25)
        calls[-1].wall_s = h.median(call.wall_s for call in calls)
        return calls[-1]

    # -- output checks (outside every timed interval) -------------------------------------
    def check(self, inputs, last: Pass, base: Baseline) -> List[Check]:
        dataset = last.dataset
        target = dataset.materialize()
        features, labels = split_label(target, dataset.target_columns, dataset.label_column)
        weights, offset = numpy_gd(
            features, labels, last.spec.learning_rate, last.spec.n_iterations
        )
        checks = [
            close_to("weights == numpy GD on materialize()", last.weights, weights),
            close_to("intercept == label mean", np.array([last.intercept]), np.array([offset])),
            close_to("predictions == X w + b", last.predictions, features @ weights + offset),
            close_to("factorized weights == materialized weights", last.weights, base.weights),
        ]
        return checks + self.input_checks(inputs, last, target)

    def input_checks(self, inputs, last: Pass, target: np.ndarray) -> List[Check]:
        return []

    # -- untraced run: the end-to-end metrics ----------------------------------------------
    def measure(self, inputs, seconds: float, quick: bool) -> Outcome:
        for _ in range(0 if quick else WARMUP_PASSES):
            self.run(inputs, h.NULL).close()
        passes: List[Pass] = []
        bases: List[Baseline] = []
        held: List[Pass] = []
        peak_rss = 0

        def one_pass(first: bool = False) -> None:
            """A pass and, right after it, its baseline: the two sides of the
            headline ratio are measured seconds apart, so machine drift cancels."""
            nonlocal peak_rss
            if held:
                held.pop().close()  # outside the next pass's timed interval
            gc.collect()
            held.append(self.run(inputs, h.NULL))
            passes.append(held[-1])
            if first:
                peak_rss = h.peak_rss_bytes()  # before the first materialized baseline
                if not quick:
                    self.baseline(held[-1])  # discarded: the dense target's first touch
            bases.append(self.steady_baseline(held[-1]))

        one_pass(first=True)  # its cold baseline stays out of the measured seconds
        if not quick:
            h.repeat_for(seconds, 2, one_pass)
        last = passes[-1]
        checks = self.check(inputs, last, bases[-1])
        dense_bytes = last.dataset.n_target_rows * len(last.dataset.target_columns) * 8
        last.close()

        default = [p.train_s for p in passes]
        other = [b.wall_s for b in bases]
        fact, mat = (default, other) if last.strategy is Decision.FACTORIZE else (other, default)
        samples = {
            "time_to_model_s": [p.time_to_model_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "predict_p50_ms": [ms for p in passes for ms in p.predict_ms],
            "factorized_train_s": fact,
            "materialized_train_s": mat,
        }
        metrics = {
            "time_to_model_s": h.median(samples["time_to_model_s"]),
            "cpu_s": h.median(samples["cpu_s"]),
            "peak_rss_over_dense": peak_rss / dense_bytes,
            "mat_over_fact_time": h.median(m / f for m, f in zip(mat, fact)),
            "predict_p50_ms": h.median(samples["predict_p50_ms"]),
        }
        return Outcome(
            metrics, samples, checks,
            attempted=len(passes) + len(bases) + len(checks),
            detail={"strategy": last.strategy.value, "dense_bytes": dense_bytes,
                    "peak_rss_bytes": peak_rss},
        )

    # -- traced run: the per-layer metrics ------------------------------------------------
    def trace(self, inputs, seconds: float, quick: bool, seed: int) -> Outcome:
        calib = h.calibrate(quick)  # first: its buffers then stay warm in the heap
        if not quick:
            self.run(inputs, h.NULL).close()
        plain: List[Pass] = []
        traced: List[Pass] = []
        per_pass: List[Dict[str, float]] = []
        held: List[Pass] = []

        def pair() -> None:
            for recorder, bucket in (
                (h.NULL, plain),
                (h.Recorder(f"{self.name}/{seed}/{len(traced)}"), traced),
            ):
                if held:
                    held.pop().close()
                held.append(self.run(inputs, recorder))
                bucket.append(held[-1])
            per_pass.append(self.layer_metrics(inputs, traced[-1]))

        h.repeat_for(seconds, 1, pair)
        held.pop().close()

        with parallel.num_threads(1):
            serial = self.run(inputs, h.NULL)
        serial.close()
        with telemetry.collect(sample_memory=False) as session:
            last = self.run(inputs, h.NULL)  # kept open for baseline, probes and checks
        counters = session.metrics.counter_values()
        if not quick:
            self.baseline(last)
        base = self.steady_baseline(last)
        base_rec = h.Recorder(f"{self.name}/{seed}/baseline")
        self.baseline(last, base_rec)
        probes, lmm_flops = operator_probes(last.operand)
        checks = self.check(inputs, last, base)

        e2e = h.median(p.time_to_model_s for p in plain)
        fit_s = h.median(
            t.rec.total("learning.gd.fit") + t.rec.total("learning.streaming_gd.fit")
            for t in traced
        )
        iterations = last.spec.n_iterations
        default_s, other_s = h.median(p.train_s for p in plain), base.wall_s
        is_fact = last.strategy is Decision.FACTORIZE
        fact_s, mat_s = (default_s, other_s) if is_fact else (other_s, default_s)
        streaming = any(t.rec.named("learning.streaming_gd") for t in traced)
        build_s = h.median(p.build_s for p in plain)

        metrics = dict.fromkeys(TRACE_NAMES, 0.0)
        for key in per_pass[0]:
            metrics[key] = h.median(layers[key] for layers in per_pass)
        metrics.update(calib)
        metrics.update(probes)
        metrics.update({
            "mat_over_fact_time": mat_s / fact_s,
            "predict_p50_ms": h.median(ms for p in plain for ms in p.predict_ms),
            "relational.materialize_s": base_rec.total("relational.materialize"),
            "factorized.compile_s": h.median(t.rec.total("factorized.compile") for t in traced),
            "factorized.flops_eff": (
                2.0 * probes["factorized.flops_per_iter"] * iterations / fit_s
                / (calib["calib.matmul_gflops"] * 1e9)
            ),
            "learning.streaming_gd_ms_per_iter" if streaming else "learning.gd_ms_per_iter":
                fit_s / iterations * 1e3,
            "learning.iterations": float(iterations),
            "system.optimizer.plan_ms": h.median(
                t.rec.total("system.optimizer.plan") for t in traced) * 1e3,
            "system.optimizer.plan_regret": default_s / min(default_s, other_s),
            "system.executor.factorized_s": fact_s,
            "system.executor.materialized_s": mat_s,
            "system.executor.predict_s": h.median(
                s.duration for t in traced for s in t.rec.named("system.executor.predict")),
            "silos.network.bytes_factorized": float(
                last.bytes_transferred if is_fact else base.bytes_transferred),
            "silos.network.bytes_materialized": float(
                base.bytes_transferred if is_fact else last.bytes_transferred),
            "parallel.build_speedup": serial.build_s / build_s if build_s else 0.0,
            "parallel.gd_speedup": serial.train_s / default_s,
            "telemetry.session_overhead_ratio": last.time_to_model_s / e2e,
            "harness.trace_overhead_ratio": h.median(t.time_to_model_s for t in traced) / e2e,
            "harness.attribution_residual": h.median(
                abs(e2e - t.rec.coverage(t.root)) / e2e for t in traced),
            "harness.ingest_share": h.median(
                t.rec.coverage(t.root, "streaming.ingest") / t.root.duration for t in traced),
            "harness.metadata_share": h.median(
                t.rec.coverage(t.root, "metadata") / t.root.duration for t in traced),
        })
        if metrics["streaming.builder.integrate_streams_s"]:
            metrics["streaming.builder.copy_eff"] = (
                last.spilled_bytes / metrics["streaming.builder.integrate_streams_s"]
                / (calib["calib.memcpy_gb_per_s"] * 1e9)
            )
        metrics["streaming.spill.bytes_written"] = float(last.spilled_bytes)
        metrics["streaming.spill.release_calls"] = float(last.release_calls)
        checks += self.share_checks(metrics)
        checks += counters_agree(counters, last, probes["factorized.flops_per_iter"],
                                 lmm_flops, getattr(inputs, "csv_rows", 0))
        last.close()
        failed = sum(not c.ok for c in checks)
        metrics["failed_share"] = 1.0 if failed else 0.0

        trace_path = h.write_json(
            h.OUT_DIR / f"trace_{self.name}_seed{seed}.json", traced[-1].rec.chrome_trace())
        return Outcome(
            metrics, checks=checks,
            attempted=len(plain) + len(traced) + 3 + len(checks),
            detail={"trace": str(trace_path.relative_to(h.REPO_ROOT)),
                    "layer_self_s": traced[-1].rec.layer_self_times(traced[-1].root),
                    "telemetry_counters": counters, "strategy": last.strategy.value},
        )

    def layer_metrics(self, inputs, traced: Pass) -> Dict[str, float]:
        return {}

    def share_checks(self, metrics: Dict[str, float]) -> List[Check]:
        """The workload does what it says (from the traced pass)."""
        return []


def counters_agree(counters: Dict[str, float], last: Pass, flops_per_iter: float,
                   lmm_flops: float, csv_rows: int) -> List[Check]:
    """Counts taken from outside against the ``repro.telemetry`` counters that
    already exist, read from the one pass that ran inside ``collect()``."""
    checks = []
    if "spill.bytes_written" in counters:
        checks.append(Check(
            "telemetry spill.bytes_written == bytes in the spill store",
            counters["spill.bytes_written"] == last.spilled_bytes,
            f"{counters['spill.bytes_written']:.0f} vs {last.spilled_bytes}"))
    if "ingest.rows" in counters:
        checks.append(Check(
            "telemetry ingest.rows == rows in the CSV files",
            counters["ingest.rows"] == csv_rows,
            f"{counters['ingest.rows']:.0f} vs {csv_rows}"))
    charged = sum(v for k, v in counters.items()
                  if k.startswith("flops.") and k != "flops.materialize")
    if charged:
        # The resident GD loop charges one lmm + one transpose_lmm per iteration;
        # label extraction, the executor's own predict and each timed predict
        # charge one lmm more (the label lmm spans one extra column: within 1 %).
        expected = (flops_per_iter * last.spec.n_iterations
                    + lmm_flops * (2 + len(last.predict_ms)))
        checks.append(Check(
            "telemetry flops.* == iterations x FlopCounter's per-iteration count",
            abs(charged - expected) <= 0.01 * expected, f"{charged:.0f} vs {expected:.0f}"))
    return checks


def operator_probes(operand: AmalurMatrix) -> Tuple[Dict[str, float], float]:
    """Standalone operator calls on the workload's feature matrix: medians of
    ``PROBE_CALLS`` calls, and the exact multiply-add count of one GD
    iteration (one lmm + one transpose_lmm, single-column operands) read
    from the matrix's public ``FlopCounter``. Also returns the lmm's share."""
    weights = np.ones((operand.n_columns, 1))
    residuals = np.ones((operand.n_rows, 1))

    def timed_ms(call) -> float:
        samples = []
        for _ in range(PROBE_CALLS):
            start = h.now()
            call()
            samples.append((h.now() - start) * 1e3)
        return h.median(samples)

    def crossprod():
        operand.invalidate_gram()
        operand.crossprod()

    before = operand.counter.total
    operand.lmm(weights)
    lmm_flops = operand.counter.total - before
    operand.transpose_lmm(residuals)
    flops = operand.counter.total - before
    return {
        "factorized.lmm_ms": timed_ms(lambda: operand.lmm(weights)),
        "factorized.transpose_lmm_ms": timed_ms(lambda: operand.transpose_lmm(residuals)),
        "factorized.crossprod_ms": timed_ms(crossprod),
        "factorized.flops_per_iter": float(flops),
    }, float(lmm_flops)


def timed_predicts(rec, call: Callable[[], np.ndarray]) -> Tuple[List[float], np.ndarray]:
    """3 to 15 predict calls, stopping after 0.15 s; (latencies in ms, last output)."""
    def one() -> Tuple[float, np.ndarray]:
        start = h.now()
        with rec.span("system.executor.predict"):
            out = call()
        return (h.now() - start) * 1e3, out

    calls = h.sample(one, *PREDICT_CALLS, PREDICT_SECONDS)
    return [ms for ms, _ in calls], calls[-1][1]


# -- the two spilled workloads -----------------------------------------------------------------


@dataclass
class ScenarioInputs:
    spec: ScenarioSpec
    base: object  # generator's resident table (ground truth)
    other: object
    column_matches: list
    row_matches: object
    targets: List[str]
    workdir: Path
    sources: Tuple[object, object] = ()  # CSV paths or hashed streams
    csv_bytes: int = 0
    csv_rows: int = 0


def csv_scenario_inputs(spec: ScenarioSpec, workdir: Path) -> ScenarioInputs:
    """The scenario's two tables written as CSV files (and kept as ground truth)."""
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)
    paths = (workdir / "S1.csv", workdir / "S2.csv")
    write_csv(base, paths[0])
    write_csv(other, paths[1])
    return ScenarioInputs(
        spec, base, other, matches, row_matches, targets, workdir, paths,
        csv_bytes=sum(path.stat().st_size for path in paths),
        csv_rows=base.n_rows + other.n_rows,
    )


class SpilledWorkload(PipelineWorkload):
    """streams -> spilled ``integrate_streams`` -> ``StreamingGD`` -> predict."""

    def open_streams(self, inputs: ScenarioInputs, rec) -> Tuple[object, object]:
        raise NotImplementedError

    def run(self, inputs: ScenarioInputs, rec) -> Pass:
        p = self.params
        spec = ModelSpec("regression", learning_rate=0.01, n_iterations=p["gd_iterations"])
        directory = inputs.workdir / f"spill-{next(_pass_ids)}"
        cpu0, start = h.cpu_seconds(), h.now()
        with rec.span("run") as root:
            base, other = self.open_streams(inputs, rec)
            store = CountingSpillStore(directory)
            with rec.span("streaming.builder.integrate_streams"):
                dataset = integrate_streams(
                    base, other, inputs.column_matches, inputs.row_matches, inputs.targets,
                    inputs.spec.scenario, label_column="label", store=store,
                )
            built = h.now()
            with rec.span("factorized.compile"):
                matrix = AmalurMatrix(dataset)
            with rec.span("learning.streaming_gd.fit"):
                model = StreamingGD(
                    "linear", block_rows=p["chunk_rows"], n_iterations=spec.n_iterations,
                    learning_rate=spec.learning_rate, release_pages=store.release,
                ).fit(matrix)
            done = h.now()
        cpu1 = h.cpu_seconds()
        predict_ms, predictions = timed_predicts(rec, lambda: model.predict(matrix))

        def closer() -> None:
            store.cleanup()
            shutil.rmtree(directory, ignore_errors=True)

        return Pass(
            done - start, cpu1 - cpu0, built - start, done - built, predict_ms,
            Decision.FACTORIZE, model.coef_, model.intercept_, predictions, dataset,
            matrix.feature_matrix_view(), spec, spilled_bytes=store.spilled_bytes,
            release_calls=store.release_calls, rec=rec, root=root, closer=closer,
        )

    def input_checks(self, inputs: ScenarioInputs, last: Pass, target) -> List[Check]:
        checks = [close_to(
            "materialize() == left join assembled from the generator's tables", target,
            scenario_reference(inputs.base, inputs.other, inputs.targets,
                               inputs.spec.overlap_rows),
        )]
        for factor, table in zip(last.dataset.factors, (inputs.base, inputs.other)):
            same = np.array_equal(np.asarray(factor.data), table.to_matrix(factor.source_columns))
            checks.append(Check(f"spilled D_k of {factor.name} == generator cells", bool(same)))
        return checks

    def layer_metrics(self, inputs: ScenarioInputs, traced: Pass) -> Dict[str, float]:
        rec = traced.rec
        return {
            "streaming.builder.integrate_streams_s":
                rec.layer_self_times(traced.root).get("streaming.builder", 0.0),
            "datagen.chunks_s": rec.total("datagen.chunk"),
        }


class CsvStreamSpill(SpilledWorkload):
    name = "csv_stream_spill"

    def setup(self, seed: int, workdir: Path) -> ScenarioInputs:
        return csv_scenario_inputs(left_join_spec(self.params, seed), workdir)

    def readers(self, inputs: ScenarioInputs) -> Tuple[ChunkedCsvReader, ChunkedCsvReader]:
        rows = self.params["chunk_rows"]
        return (
            ChunkedCsvReader(inputs.sources[0], name="S1", key_columns=["id"],
                             label_column="label", chunk_rows=rows),
            ChunkedCsvReader(inputs.sources[1], name="S2", key_columns=["id"], chunk_rows=rows),
        )

    def open_streams(self, inputs: ScenarioInputs, rec):
        readers = self.readers(inputs)
        for reader in readers:
            with rec.span("streaming.ingest.scan", file=reader.name):
                reader.scan()
        return tuple(timed(reader, rec, "streaming.ingest.chunk") for reader in readers)

    def input_checks(self, inputs, last, target) -> List[Check]:
        checks = super().input_checks(inputs, last, target)
        for reader, table in zip(self.readers(inputs), (inputs.base, inputs.other)):
            ingested = reader.read_table()
            same = ingested.schema == table.schema and ingested.equals(table)
            checks.append(Check(f"ingested {table.name} == generator (values and NULL masks)",
                                bool(same)))
        return checks

    def layer_metrics(self, inputs, traced) -> Dict[str, float]:
        rec = traced.rec
        scan_s, chunks_s = rec.total("streaming.ingest.scan"), rec.total("streaming.ingest.chunk")
        return dict(super().layer_metrics(inputs, traced), **{
            "streaming.ingest.scan_s": scan_s,
            "streaming.ingest.chunks_s": chunks_s,
            "streaming.ingest.rows_per_s": inputs.csv_rows / (scan_s + chunks_s),
            "streaming.ingest.mb_per_s": inputs.csv_bytes / 1e6 / (scan_s + chunks_s),
        })

    def share_checks(self, metrics) -> List[Check]:
        share = metrics["harness.ingest_share"]
        return [Check("ingest share >= 0.6", share >= 0.6, f"{share:.3f}")]


class HashedSpillTrain(SpilledWorkload):
    name = "hashed_spill_train"

    def setup(self, seed: int, workdir: Path) -> ScenarioInputs:
        spec = left_join_spec(self.params, seed)
        base, other, matches, row_matches, targets = generate_scenario_streams(
            spec, chunk_rows=self.params["chunk_rows"]
        )
        # The generator's cells, resident, as the ground truth of the checks.
        return ScenarioInputs(
            spec, base.read_table(), other.read_table(), matches, row_matches, targets,
            workdir, (base, other),
        )

    def open_streams(self, inputs, rec):
        return tuple(timed(stream, rec, "datagen.chunk") for stream in inputs.sources)

    def share_checks(self, metrics) -> List[Check]:
        share = metrics["harness.ingest_share"]
        return [Check("ingest share <= 0.05", share <= 0.05, f"{share:.3f}")]


# -- the facade workload ------------------------------------------------------------------------


class CsvFacadeTrain(PipelineWorkload):
    name = "csv_facade_train"

    def setup(self, seed: int, workdir: Path) -> ScenarioInputs:
        return csv_scenario_inputs(left_join_spec(self.params, seed), workdir)

    def read_tables(self, inputs: ScenarioInputs, rec):
        with rec.span("relational.read_csv", file="S1"):
            base = read_csv(inputs.sources[0], name="S1", key_columns=["id"],
                            label_column="label")
        with rec.span("relational.read_csv", file="S2"):
            other = read_csv(inputs.sources[1], name="S2", key_columns=["id"])
        return base, other

    def run(self, inputs: ScenarioInputs, rec) -> Pass:
        spec = ModelSpec("regression", n_iterations=self.params["gd_iterations"])
        config = IntegrationConfig(
            base="S1", other="S2", target_columns=inputs.targets,
            scenario=ScenarioType.LEFT_JOIN, label_column="label",
        )
        cpu0, start = h.cpu_seconds(), h.now()
        with rec.span("run") as root:
            base, other = self.read_tables(inputs, rec)
            amalur = Amalur()
            with rec.span("system.amalur.register"):
                amalur.add_silo("silo-1")
                amalur.add_table("silo-1", base)
                amalur.add_silo("silo-2")
                amalur.add_table("silo-2", other)
            if not rec.enabled:
                dataset = amalur.integrate(config)
                built = h.now()
                result = amalur.train(TrainRequest(model=spec, dataset=dataset))
                model, strategy = result.model, result.strategy
                transferred = result.bytes_transferred
            else:
                with rec.span("metadata.schema_matching.match"):
                    matches = match_schemas(base, other, matcher=amalur.matcher)
                with rec.span("metadata.entity_resolution.resolve"):
                    row_matches = resolve_entities(base, other, column_matches=matches)
                with rec.span("matrices.builder.integrate_tables"):
                    dataset = integrate_tables(
                        base=base, other=other, column_matches=matches,
                        row_matches=row_matches, target_columns=config.target_columns,
                        scenario=config.scenario, label_column=config.label_column,
                    )
                built = h.now()
                model, plan = traced_execute(dataset, spec, rec)
                strategy, transferred = plan.strategy, 0
            done = h.now()
        cpu1 = h.cpu_seconds()
        operand = AmalurMatrix(dataset).feature_matrix_view()
        if rec.enabled:
            predict_ms, predictions = timed_predicts(rec, lambda: model.predict(operand))
        else:
            predict_ms, predictions = timed_predicts(
                rec, lambda: amalur.predict(dataset, PredictRequest(model=result.handle)))
        return Pass(
            done - start, cpu1 - cpu0, built - start, done - built, predict_ms, strategy,
            model.coef_, model.intercept_, predictions, dataset, operand, spec,
            bytes_transferred=transferred, rec=rec, root=root,
        )

    def input_checks(self, inputs, last, target) -> List[Check]:
        checks = []
        for ingested, table in zip(self.read_tables(inputs, h.NULL), (inputs.base, inputs.other)):
            same = ingested.schema == table.schema and ingested.equals(table)
            checks.append(Check(f"read_csv {table.name} == generator (values and NULL masks)",
                                bool(same)))
        return checks

    def layer_metrics(self, inputs, traced) -> Dict[str, float]:
        rec = traced.rec
        read_s = rec.total("relational.read_csv")
        match_s = rec.total("metadata.schema_matching.match")
        resolve_s = rec.total("metadata.entity_resolution.resolve")
        build_s = rec.total("matrices.builder.integrate_tables")
        pairs = len(inputs.base.schema) * len(inputs.other.schema)
        cells = inputs.base.n_rows * len(inputs.targets)  # left join keeps every base row
        return {
            "relational.read_csv_s": read_s,
            "relational.read_csv_mb_per_s": inputs.csv_bytes / 1e6 / read_s,
            "metadata.schema_matching.match_s": match_s,
            "metadata.schema_matching.pairs_per_s": pairs / match_s,
            "metadata.entity_resolution.resolve_s": resolve_s,
            "metadata.entity_resolution.rows_per_s": inputs.csv_rows / resolve_s,
            "matrices.builder.integrate_tables_s": build_s,
            "matrices.builder.cells_per_s": cells / build_s,
        }

    def share_checks(self, metrics) -> List[Check]:
        share = metrics["harness.metadata_share"]
        return [Check("metadata share >= 0.5", share >= 0.5, f"{share:.3f}")]


def traced_execute(dataset, spec: ModelSpec, rec):
    """``Optimizer.plan`` + ``Executor.execute`` as the public calls they make:
    plan, compile the factorized matrix (or materialize), fit, predict."""
    with rec.span("system.optimizer.plan"):
        plan = Optimizer().plan(dataset, spec)
    if plan.strategy is Decision.FACTORIZE:
        with rec.span("factorized.compile"):
            matrix = AmalurMatrix(dataset, backend=plan.backend)
            labels = matrix.labels()
            operand = matrix.feature_matrix_view()
    else:
        with rec.span("relational.materialize"):
            target = Orchestrator().materialize_target(dataset)
        features, labels = split_label(target, dataset.target_columns, dataset.label_column)
        operand = DenseMatrix(features)
    with rec.span("learning.gd.fit"):
        model = LinearRegression(
            solver="gd", learning_rate=spec.learning_rate, n_iterations=spec.n_iterations,
            l2_penalty=spec.l2_penalty,
        ).fit(operand, labels)
    with rec.span("system.executor.predict"):
        model.predict(operand)
    return model, plan


# -- the two resident workloads -----------------------------------------------------------------


class ResidentWorkload(PipelineWorkload):
    """resident factors -> ``Optimizer.plan`` -> ``Executor.execute``."""

    def model_spec(self) -> ModelSpec:
        return ModelSpec("regression", learning_rate=self.params["learning_rate"],
                         n_iterations=self.params["gd_iterations"])

    def run(self, dataset, rec) -> Pass:
        spec = self.model_spec()
        cpu0, start = h.cpu_seconds(), h.now()
        with rec.span("run") as root:
            if not rec.enabled:
                plan = Optimizer().plan(dataset, spec)
                result = Executor().execute(plan)
                model, transferred = result.model, result.bytes_transferred
            else:
                model, plan = traced_execute(dataset, spec, rec)
                transferred = 0
            done = h.now()
        cpu1 = h.cpu_seconds()
        operand = AmalurMatrix(dataset, backend=plan.backend).feature_matrix_view()
        predict_ms, predictions = timed_predicts(rec, lambda: model.predict(operand))
        return Pass(
            done - start, cpu1 - cpu0, 0.0, done - start, predict_ms, plan.strategy, model.coef_,
            model.intercept_, predictions, dataset, operand, spec,
            bytes_transferred=transferred, rec=rec, root=root,
        )


class ResidentDenseRedundant(ResidentWorkload):
    name = "resident_dense_redundant"

    def setup(self, seed: int, workdir: Path):
        p = self.params
        dataset = generate_integrated_pair(SyntheticSiloSpec(
            base_rows=p["base_rows"], base_columns=p["base_columns"],
            other_rows=p["other_rows"], other_columns=p["other_columns"],
            redundancy_in_target=True, seed=seed,
        ))
        dataset.label_column = dataset.target_columns[0]
        return dataset


class ResidentOnehotSparse(ResidentWorkload):
    name = "resident_onehot_sparse"

    def setup(self, seed: int, workdir: Path):
        p = self.params
        dataset = generate_one_hot_pair(OneHotSpec(
            n_rows=p["n_rows"], n_categories=p["n_categories"],
            base_columns=p["base_columns"], seed=seed,
        ))
        dataset.label_column = "x0"
        return dataset


# -- the serving workload -------------------------------------------------------------------------


@dataclass
class ServingInputs:
    seed: int
    base: object
    other: object
    column_matches: list
    config: IntegrationConfig
    batches: List[DeltaBatch]


class Client:
    """One closed-loop client: latency samples per request kind and its own
    tallies (each client thread owns one, so no count is shared)."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {"predict": [], "delta": [], "retrain": []}
        self.attempted = self.failed = self.refused = 0

    def request(self, kind: str, call: Callable[[], ServiceResult]) -> None:
        self.attempted += 1
        start = h.now()
        try:
            result = call()
        except (CapacityExceeded, RequestTimeout):
            self.refused += 1
            self.failed += 1
            return
        except Exception:  # noqa: BLE001 - a failed request is counted, never raised
            self.failed += 1
            return
        self.samples[kind].append((h.now() - start) * 1e3)
        if not isinstance(result, ServiceResult):
            self.failed += 1


@dataclass
class Round:
    """One closed-loop round: the fixed write sequence beside the reader."""

    wall_s: float
    cpu_s: float
    predict_ms: List[float]
    delta_ms: List[float]
    retrain_ms: List[float]
    attempted: int
    failed: int
    refused: int
    session: DatasetSession


class ServingMixed:
    name = "serving_mixed"

    def __init__(self):
        self.params = params_of(self.name)
        self.spec = ModelSpec("regression")

    # -- inputs: tables and the fixed, seeded write sequence --------------------------------
    def setup(self, seed: int, workdir: Path) -> ServingInputs:
        spec = left_join_spec(self.params, seed)
        base, other, matches, _, targets = generate_scenario_tables(spec)
        config = IntegrationConfig(
            base="S1", other="S2", target_columns=targets,
            scenario=ScenarioType.LEFT_JOIN, label_column="label",
        )
        return ServingInputs(
            seed, base, other, matches, config, self.write_sequence(seed, base, other))

    def write_sequence(self, seed: int, base, other) -> List[DeltaBatch]:
        """80 % 100-row appends (half new entities, half filling S2-only keys),
        18 % 50-row updates of non-key, non-shared features, every
        ``delete_every``-th a 20-row delete (forces the rebuild fallback).
        Depends on the seed and the initial row counts only, so the sequence
        of dataset states is the same on every commit."""
        p = self.params
        rng = np.random.default_rng(seed)
        other_ids = other.column_values("id")
        s2_only = other_ids[other_ids >= base.n_rows]
        features = [c.name for c in base.schema if c.name not in ("id", "label")]
        local = [name for name in features if name.startswith("b_")]
        next_id = 10_000_000
        n_rows = base.n_rows
        batches: List[DeltaBatch] = []
        for write in range(1, p["writes"] + 1):
            if write % p["delete_every"] == 0:
                rows = rng.choice(n_rows, size=20, replace=False)
                batches.append(DeltaBatch("S1", "delete", row_indices=rows.tolist()))
                n_rows -= 20
            elif write % 11 in (3, 8):  # 2 of 11 ~ 18 %
                rows = rng.choice(n_rows, size=50, replace=False)
                payload = {name: np.round(rng.standard_normal(50), 4).tolist() for name in local}
                batches.append(DeltaBatch("S1", "update", rows=payload, row_indices=rows.tolist()))
            else:
                fresh = np.arange(next_id, next_id + 50)
                next_id += 50
                filling = rng.choice(s2_only, size=50)
                ids = np.empty(100, dtype=np.int64)
                ids[0::2], ids[1::2] = fresh, filling
                payload = {"id": ids.tolist(), "label": rng.integers(0, 2, size=100).tolist()}
                for name in features:
                    payload[name] = np.round(rng.standard_normal(100), 4).tolist()
                batches.append(DeltaBatch("S1", "append", rows=payload))
                n_rows += 100
        return batches

    def open_session(self, inputs: ServingInputs) -> DatasetSession:
        return DatasetSession(inputs.base, inputs.other, inputs.config,
                              column_matches=inputs.column_matches)

    # -- time to model: tables -> resident session -> first weights --------------------------
    def build_and_train(self, inputs: ServingInputs, rec=h.NULL):
        cpu0, start = h.cpu_seconds(), h.now()
        with rec.span("run") as root:
            with rec.span("serving.session.build"):
                session = self.open_session(inputs)
            built = h.now()
            with rec.span("serving.session.train"):
                model = session.train(TrainRequest(model=self.spec))
            done = h.now()
        return session, model, done - start, built - start, h.cpu_seconds() - cpu0, root

    # -- the closed loop ---------------------------------------------------------------------
    def serve_round(self, inputs: ServingInputs, batches: List[DeltaBatch]) -> Round:
        p = self.params
        window = p["predict_window"]
        session = self.open_session(inputs)
        writer, reader = Client(), Client()
        writer_done = threading.Event()

        with AmalurService(n_workers=p["n_workers"], max_queue=p["max_queue"],
                           max_rows_per_request=window) as service:
            service.register_session("bench", session)
            service.train("bench", TrainRequest(model=self.spec))

            def read_loop() -> None:
                rng = np.random.default_rng(inputs.seed + 1)
                while not writer_done.is_set():
                    first = int(rng.integers(0, session.n_target_rows - window))
                    reader.request("predict", lambda: service.predict(
                        "bench", PredictRequest(row_range=(first, first + window))))

            thread = threading.Thread(target=read_loop, name="e2e-reader")
            cpu0, start = h.cpu_seconds(), h.now()
            thread.start()
            try:
                for index, batch in enumerate(batches, start=1):
                    writer.request("delta", lambda: service.apply_delta("bench", batch))
                    if index % p["retrain_every"] == 0:
                        writer.request("retrain", lambda: service.train(
                            "bench", TrainRequest(model=self.spec, warm_start=True)))
            finally:
                writer_done.set()
                thread.join()
            wall, cpu = h.now() - start, h.cpu_seconds() - cpu0
        return Round(
            wall, cpu, reader.samples["predict"], writer.samples["delta"],
            writer.samples["retrain"], writer.attempted + reader.attempted,
            writer.failed + reader.failed, writer.refused + reader.refused, session,
        )

    # -- checks -----------------------------------------------------------------------------
    def check(self, inputs: ServingInputs, batches: List[DeltaBatch], first_model,
              first_session, served: Round) -> List[Check]:
        target = first_session.dataset.materialize()
        columns = first_session.dataset.target_columns
        features, labels = split_label(target, columns, "label")
        offset = labels.mean()
        weights = np.linalg.solve(
            features.T @ features + 1e-12 * np.eye(features.shape[1]),
            features.T @ (labels - offset),
        )
        session = served.session
        reference = DatasetSession(
            session.table("S1"), session.table("S2"), inputs.config,
            column_matches=inputs.column_matches,
        )
        reference.train(TrainRequest(model=self.spec))
        return [
            close_to("first weights == numpy normal equations on materialize()",
                     first_model.coef_, weights),
            Check("every request resolved to a ServiceResult", served.failed == 0,
                  f"{served.failed} of {served.attempted} failed"),
            Check("the whole write sequence was applied",
                  len(served.delta_ms) == len(batches)),
            close_to("served predictions == from-scratch session over the final tables",
                     session.predict(PredictRequest()), reference.predict(PredictRequest())),
            close_to("maintained target == from-scratch target",
                     session.dataset.materialize(), reference.dataset.materialize()),
        ]

    def materialized_train_s(self, session: DatasetSession) -> float:
        """materialize + dense normal equations: the other side of the headline."""
        start = h.now()
        target = session.dataset.materialize()
        features, labels = split_label(target, session.dataset.target_columns, "label")
        np.linalg.solve(
            features.T @ features + 1e-12 * np.eye(features.shape[1]),
            features.T @ (labels - labels.mean()),
        )
        return h.now() - start

    # -- untraced run --------------------------------------------------------------------------
    def measure(self, inputs: ServingInputs, seconds: float, quick: bool) -> Outcome:
        batches = inputs.batches[:40] if quick else inputs.batches
        if not quick:
            self.serve_round(inputs, inputs.batches[:40])  # discarded warm-up
            self.materialized_train_s(self.build_and_train(inputs)[0])
        time_to_model, cpu, headline = [], [], []
        for _ in range(1 if quick else 15):
            gc.collect()
            first_session, first_model, total_s, build_s, cpu_s, _ = self.build_and_train(inputs)
            time_to_model.append(total_s)
            cpu.append(cpu_s)
            # both sides start from the raw tables: build + (materialize + dense
            # solve) over build + factorized train.
            headline.append((build_s + self.materialized_train_s(first_session)) / total_s)
        rounds: List[Round] = h.repeat_for(
            seconds, 1, lambda: self.serve_round(inputs, batches))
        served = rounds[-1]
        peak_rss = h.peak_rss_bytes()
        checks = self.check(inputs, batches, first_model, first_session, served)

        dataset = served.session.dataset
        dense_bytes = dataset.n_target_rows * len(dataset.target_columns) * 8
        pooled = {
            "predict": [ms for r in rounds for ms in r.predict_ms],
            "delta": [ms for r in rounds for ms in r.delta_ms],
            "retrain": [ms for r in rounds for ms in r.retrain_ms],
        }
        wall = sum(r.wall_s for r in rounds)
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        metrics = {
            "time_to_model_s": h.median(time_to_model),
            "cpu_s": h.median(cpu),
            "peak_rss_over_dense": peak_rss / dense_bytes,
            "mat_over_fact_time": h.median(headline),
            "predict_p50_ms": h.median(pooled["predict"]),
            "predict_p99_ms": h.percentile(pooled["predict"], 99),
            "delta_p50_ms": h.median(pooled["delta"]),
            "delta_p95_ms": h.percentile(pooled["delta"], 95),
            "retrain_p50_ms": h.median(pooled["retrain"]),
            "predicts_per_s": len(pooled["predict"]) / wall,
            "writes_per_s": len(pooled["delta"]) / wall,
        }
        return Outcome(
            metrics,
            samples={"time_to_model_s": time_to_model, "cpu_s": cpu,
                     "round_wall_s": [r.wall_s for r in rounds],
                     "round_cpu_s": [r.cpu_s for r in rounds],
                     "n_predicts": [float(len(pooled["predict"]))]},
            checks=checks, attempted=attempted + len(time_to_model) + len(checks), failed=failed,
            detail={"rounds": len(rounds), "dense_bytes": dense_bytes,
                    "peak_rss_bytes": peak_rss, "session": served.session.stats()},
        )

    # -- traced run: the session timed directly, off the pool ---------------------------------
    def replay(self, inputs: ServingInputs, batches: List[DeltaBatch], rec):
        """The write sequence applied straight to a session (no service, no
        reader): what the session layer costs when nothing queues."""
        p = self.params
        session, _, time_to_model, _, _, root = self.build_and_train(inputs, rec)
        rng = np.random.default_rng(inputs.seed + 1)
        modes: List[str] = []
        start = h.now()
        for index, batch in enumerate(batches, start=1):
            with rec.span("serving.session.apply_delta", kind=batch.kind) as span:
                summary = session.apply_delta(batch)
            modes.append(summary["mode"])
            if span is not None:
                span.args["mode"] = summary["mode"]
            if index % p["retrain_every"] == 0:
                with rec.span("serving.session.retrain"):
                    session.train(TrainRequest(model=self.spec, warm_start=True))
            first = int(rng.integers(0, session.n_target_rows - p["predict_window"]))
            with rec.span("serving.session.predict"):
                session.predict(PredictRequest(row_range=(first, first + p["predict_window"])))
        return session, time_to_model, h.now() - start, modes, root

    def trace(self, inputs: ServingInputs, seconds: float, quick: bool, seed: int) -> Outcome:
        calib = h.calibrate(quick)
        batches = inputs.batches[: 40 if quick else 120]
        if not quick:
            self.replay(inputs, batches[:40], h.NULL)
        served = self.serve_round(inputs, batches)
        _, plain_ttm, plain_s, _, _ = self.replay(inputs, batches, h.NULL)
        rec = h.Recorder(f"{self.name}/{seed}/0")
        session, traced_ttm, traced_s, modes, root = self.replay(inputs, batches, rec)
        with telemetry.collect(sample_memory=False):
            _, _, counted_s, _, _ = self.replay(inputs, batches, h.NULL)

        def span_ms(name: str, keep=lambda s: True) -> float:
            return h.median(s.duration * 1e3 for s in rec.named(name) if keep(s))

        start = h.now()
        row_matches = resolve_entities(session.table("S1"), session.table("S2"),
                                       column_matches=inputs.column_matches)
        resolve_s = h.now() - start
        start = h.now()
        rebuilt = integrate_tables(
            base=session.table("S1"), other=session.table("S2"),
            column_matches=inputs.column_matches, row_matches=row_matches,
            target_columns=inputs.config.target_columns, scenario=inputs.config.scenario,
            label_column="label",
        )
        integrate_s = h.now() - start
        probes, _ = operator_probes(session.matrix)
        direct_predict_ms = span_ms("serving.session.predict")
        fresh, _, fresh_ttm, fresh_build_s, _, _ = self.build_and_train(inputs)

        metrics = dict.fromkeys(TRACE_NAMES, 0.0)
        metrics.update(calib)
        metrics.update(probes)
        metrics.update({
            "mat_over_fact_time":
                (fresh_build_s + self.materialized_train_s(fresh)) / fresh_ttm,
            "metadata.entity_resolution.resolve_s": resolve_s,
            "metadata.entity_resolution.rows_per_s":
                (session.table("S1").n_rows + session.table("S2").n_rows) / resolve_s,
            "matrices.builder.integrate_tables_s": integrate_s,
            "matrices.builder.cells_per_s":
                rebuilt.n_target_rows * len(rebuilt.target_columns) / integrate_s,
            "serving.session.build_s": rec.total("serving.session.build"),
            "serving.session.apply_delta_incremental_ms": span_ms(
                "serving.session.apply_delta", lambda s: s.args["mode"] == "incremental"),
            "serving.session.apply_delta_rebuild_ms": span_ms(
                "serving.session.apply_delta", lambda s: s.args["mode"] == "rebuild"),
            "serving.session.rebuild_share": modes.count("rebuild") / len(modes),
            "serving.session.train_ms": span_ms("serving.session.retrain"),
            "serving.session.predict_ms": direct_predict_ms,
            "serving.service.queue_overhead_ms":
                h.median(served.predict_ms) - direct_predict_ms,
            "serving.service.refused": float(served.refused),
            "telemetry.session_overhead_ratio": counted_s / plain_s,
            "harness.trace_overhead_ratio": traced_s / plain_s,
            "harness.attribution_residual": abs(plain_ttm - rec.coverage(root)) / plain_ttm,
        })
        for name, samples, p in (
            ("predict_p50_ms", served.predict_ms, 50),
            ("predict_p99_ms", served.predict_ms, 99), ("delta_p50_ms", served.delta_ms, 50),
            ("delta_p95_ms", served.delta_ms, 95), ("retrain_p50_ms", served.retrain_ms, 50),
        ):
            metrics[name] = h.percentile(samples, p)
        metrics["predicts_per_s"] = len(served.predict_ms) / served.wall_s
        metrics["writes_per_s"] = len(served.delta_ms) / served.wall_s
        checks = [
            Check("every request resolved to a ServiceResult", served.failed == 0,
                  f"{served.failed} of {served.attempted} failed"),
            close_to("replayed target == served target", session.dataset.materialize(),
                     served.session.dataset.materialize()),
        ]
        metrics["failed_share"] = (
            1.0 if any(not c.ok for c in checks) else served.failed / served.attempted)
        trace_path = h.write_json(
            h.OUT_DIR / f"trace_{self.name}_seed{seed}.json", rec.chrome_trace())
        return Outcome(
            metrics, checks=checks, attempted=served.attempted + len(checks),
            failed=served.failed,
            detail={"trace": str(trace_path.relative_to(h.REPO_ROOT)),
                    "layer_self_s": rec.layer_self_times(), "writes_traced": len(batches),
                    "time_to_model_traced_s": traced_ttm},
        )


REGISTRY = {
    cls.name: cls
    for cls in (CsvStreamSpill, HashedSpillTrain, CsvFacadeTrain, ResidentDenseRedundant,
                ResidentOnehotSparse, ServingMixed)
}
