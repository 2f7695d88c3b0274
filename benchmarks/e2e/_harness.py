"""Shared machinery of the end-to-end benchmark.

* the subprocess-per-run driver (:func:`child_env`, :func:`spawn_run`): every
  run is a fresh interpreter with BLAS pinned to one thread and
  ``REPRO_NUM_THREADS`` left at its default (``nproc`` — what users get);
* summary statistics (:func:`summarize`: median, quartiles, n);
* the span recorder (:class:`Recorder`) the traced pass uses to time calls
  into each layer *from outside*, its self-time arithmetic and the
  Chrome-trace writer;
* same-run calibration (:func:`calibrate`) and the process probes.

Only the standard library is imported at module level, so the parent
process can use the driver and the statistics without loading numpy.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = HERE / "out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Keep freed arrays inside the process (no mmap per large array, no heap
#: trim). On this class of VM a page handed back to the kernel is returned
#: to the hypervisor within ~2 s and costs 20-40 ms/MB to touch again —
#: seconds of noise that belong to the sandbox, not to the program.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}

#: A run (set-up, warm-up, measured passes, baseline, checks) must end
#: within the driver's 180 s; the child is killed a little earlier.
RUN_TIMEOUT_S = 170

now = time.perf_counter


# -- subprocess-per-run driver ----------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of a run: BLAS pinned, allocator steady, workers default."""
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    env.update(MALLOC_ENV)
    env.pop("REPRO_NUM_THREADS", None)  # default = nproc, what users get
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONHASHSEED", None)
    return env


def spawn_run(argv: Sequence[str]) -> Tuple[int, Optional[dict], str]:
    """Run ``run.py --child <argv>`` in a fresh interpreter and wait for it.

    Returns ``(exit code, the result object of its last stdout line or None,
    its stdout)``. The child is killed (and reaped) on timeout.
    """
    command = [sys.executable, str(HERE / "run.py"), "--child", *argv]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as expired:
        return 124, None, expired.stdout or ""
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stdout


# -- statistics ---------------------------------------------------------------------------


def summarize(values: Iterable[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n of a sample."""
    data = [float(v) for v in values]
    if not data:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(data) == 1:
        return {"median": data[0], "q1": data[0], "q3": data[0], "n": 1}
    q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def median(values: Iterable[float]) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the sample value at rank ceil(p/100 * n))."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = max(1, -(-int(p * len(data)) // 100))
    return float(data[min(rank, len(data)) - 1])


def repeat_for(seconds: float, min_repeats: int, fn: Callable[[], object]) -> list:
    """Call ``fn`` until another call would overrun ``seconds`` (>= min_repeats)."""
    results = []
    start = now()
    while True:
        results.append(fn())
        elapsed = now() - start
        if len(results) >= min_repeats and elapsed + elapsed / len(results) > seconds:
            return results


def sample(fn: Callable[[], object], at_least: int, at_most: int, seconds: float) -> list:
    """Call ``fn`` ``at_least`` times, then on until ``seconds`` have passed or
    ``at_most`` calls are made: short operations get more samples."""
    results, begun = [], now()
    while len(results) < at_least or (len(results) < at_most and now() - begun < seconds):
        results.append(fn())
    return results


# -- process probes -----------------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process so far, every thread included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_bytes() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def cache_sizes() -> Dict[str, int]:
    """Per-level cache sizes of cpu0 in bytes, as the kernel reports them."""
    sizes: Dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            raw = (index / "size").read_text().strip()
        except OSError:
            continue
        factor = {"K": 1 << 10, "M": 1 << 20}.get(raw[-1:], 1)
        sizes[f"L{level}{'i' if kind == 'Instruction' else ''}"] = int(raw.rstrip("KM")) * factor
    return sizes


# -- span recorder ------------------------------------------------------------------------


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "args")

    def __init__(self, id_, parent, name, start, thread, args):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """``streaming.ingest.scan`` -> ``streaming.ingest``."""
        return self.name.rsplit(".", 1)[0]


class NullRecorder:
    """The recorder of untraced passes: spans cost one shared no-op context."""

    enabled = False
    _NOOP = nullcontext()

    def span(self, name: str, **args):
        return self._NOOP


NULL = NullRecorder()


class Recorder:
    """In-memory spans around calls into the layers' public functions.

    A span records name, start, end, the span that caused it and the run
    id. The causing span is the innermost open span of the same thread; a
    pool thread with no open span is attributed to the innermost open span
    of the thread that owns the recorder (the call that fanned out).
    """

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: List[int] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **args):
        thread = threading.get_ident()
        if thread == self._owner:
            stack = self._owner_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        record = Span(next(self._ids), parent, name, now(), thread, args)
        stack.append(record.id)
        try:
            yield record
        finally:
            record.end = now()
            stack.pop()
            self.spans.append(record)

    # -- arithmetic ---------------------------------------------------------------------
    def named(self, prefix: str) -> List[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def total(self, prefix: str) -> float:
        """Summed duration of the spans under ``prefix`` (busy time)."""
        return sum(s.duration for s in self.named(prefix))

    def _children(self) -> Dict[int, List[Span]]:
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return children

    def self_times(self) -> Dict[int, float]:
        """Per span: its duration minus the part its child spans cover."""
        children = self._children()
        return {
            s.id: s.duration - covered(
                [(c.start, c.end) for c in children.get(s.id, ())], s.start, s.end
            )
            for s in self.spans
        }

    def layer_self_times(self, within: Optional[Span] = None) -> Dict[str, float]:
        """Self time summed per layer (optionally only descendants of a span)."""
        selves = self.self_times()
        keep = self.descendants(within) if within is not None else self.spans
        out: Dict[str, float] = {}
        for s in keep:
            out[s.layer] = out.get(s.layer, 0.0) + selves[s.id]
        return out

    def descendants(self, root: Span) -> List[Span]:
        by_parent = self._children()
        found, frontier = [], [root.id]
        while frontier:
            kids = by_parent.get(frontier.pop(), [])
            found.extend(kids)
            frontier.extend(k.id for k in kids)
        return found

    def coverage(self, root: Span, prefix: str = "") -> float:
        """Wall of ``root`` covered by its descendants under ``prefix``,
        concurrent spans counted once."""
        spans = [
            s for s in self.descendants(root)
            if not prefix or s.name == prefix or s.name.startswith(prefix + ".")
        ]
        return covered([(s.start, s.end) for s in spans], root.start, root.end)

    # -- export -------------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.thread,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": dict(s.args, id=s.id, parent=s.parent, run=self.run_id),
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


# -- calibration --------------------------------------------------------------------------

MATMUL_N = 2048
MEMCPY_BYTES = 64 << 20  # 16x the two L2s; 4x the reported (host-wide) L3 does not fit the cap


def calibrate(quick: bool = False) -> Dict[str, float]:
    """Ceilings measured in this run on this machine, so efficiency metrics
    are ratios and never compare seconds across machines.

    ``matmul_gflops``: one BLAS thread, ``2048 x 2048`` float64 product
    (2 n^3 FLOP), best of two. ``memcpy_gb_per_s``: ``np.copyto`` of a
    64 MiB float64 array into a warm destination, best of three. ``quick``
    (smoke runs) quarters both sizes: a fresh process pays seconds of cold
    page faults for the full buffers.
    """
    import numpy as np

    n, copy_bytes = (MATMUL_N // 2, MEMCPY_BYTES // 4) if quick else (MATMUL_N, MEMCPY_BYTES)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty_like(a)
    best = float("inf")
    for _ in range(2):
        start = now()
        np.matmul(a, b, out=out)
        best = min(best, now() - start)
    gflops = 2.0 * n ** 3 / best / 1e9

    source = np.ones(copy_bytes // 8)
    destination = np.empty_like(source)
    np.copyto(destination, source)  # first touch of the destination
    best = float("inf")
    for _ in range(3):
        start = now()
        np.copyto(destination, source)
        best = min(best, now() - start)
    return {
        "calib.matmul_gflops": gflops,
        "calib.memcpy_gb_per_s": copy_bytes / best / 1e9,
    }


# -- output -------------------------------------------------------------------------------


def write_json(path: Path, document: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
