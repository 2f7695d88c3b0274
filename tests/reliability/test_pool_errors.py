"""Pool error reporting: site/block annotation and poison-task escalation."""

import pytest

from repro import parallel
from repro.exceptions import PoisonTaskError, TransientError
from repro.reliability import faults


def _explode_at(bad_index):
    def fn(item):
        if item == bad_index:
            raise ValueError(f"bad item {item}")
        return item * 10

    return fn


class TestAnnotation:
    def test_parallel_map_annotates_site_and_block(self):
        with pytest.raises(ValueError) as excinfo:
            parallel.parallel_map(
                _explode_at(2), range(6), workers=2, label="op.lmm"
            )
        assert "bad item 2 [parallel site=op.lmm, block=2]" in str(excinfo.value)

    def test_imap_ordered_annotates_site_and_block(self):
        def consume():
            list(parallel.imap_ordered(
                _explode_at(3), range(8), workers=2, label="ingest.chunk"
            ))

        with pytest.raises(ValueError) as excinfo:
            consume()
        assert "[parallel site=ingest.chunk, block=3]" in str(excinfo.value)

    def test_unlabeled_failures_carry_the_default_site(self):
        with pytest.raises(ValueError, match=r"site=parallel\.task, block=1"):
            parallel.parallel_map(_explode_at(1), range(4), workers=2)

    def test_exception_type_is_preserved(self):
        class Custom(RuntimeError):
            pass

        def fn(item):
            raise Custom("x")

        with pytest.raises(Custom, match=r"\[parallel site=s, block=0\]"):
            parallel.parallel_map(fn, [1, 2], workers=2, label="s")

    def test_annotation_survives_non_string_args(self):
        def fn(item):
            if item == 7:
                raise KeyError(item)
            return item

        with pytest.raises(KeyError) as excinfo:
            parallel.parallel_map(fn, [7, 8], workers=2, label="s")
        assert "[parallel site=s, block=0]" in repr(excinfo.value.args)

    def test_single_task_serial_fallback_stays_legacy(self):
        # One effective worker routes through the exact legacy loop, whose
        # exceptions stay untouched (PR 8 parity invariant).
        with pytest.raises(ValueError) as excinfo:
            parallel.parallel_map(_explode_at(0), [0], workers=2, label="s")
        assert "[parallel" not in str(excinfo.value)


class TestFaultInjection:
    def test_transient_faults_are_retried_transparently(self):
        calls = []
        with faults.active_plan("parallel.task:p=1,n=3,seed=1") as injector:
            result = parallel.parallel_map(
                lambda x: calls.append(x) or x + 1, [5], workers=1, label="s"
            )
        assert result == [6]
        # n=3 < max_attempts=8: the single task absorbed all three triggers.
        assert injector.snapshot()["parallel.task"] == (4, 3)
        assert calls == [5]

    def test_serial_fallback_still_injects_faults(self):
        # One configured worker takes the serial path, but chaos plans must
        # still exercise it — a 1-core machine is a valid chaos target.
        with faults.active_plan("parallel.task:p=1,n=1"):
            assert parallel.parallel_map(lambda x: x, [1, 2], workers=1) == [1, 2]
            assert list(parallel.imap_ordered(lambda x: x, [3], workers=1)) == [3]

    def test_unbounded_faults_escalate_to_poison_task(self):
        with faults.active_plan("parallel.task:p=1"):
            with pytest.raises(PoisonTaskError) as excinfo:
                parallel.parallel_map(lambda x: x, [1], workers=1, label="gd.block")
        poison = excinfo.value
        assert poison.site == "gd.block"
        assert poison.index == 0
        assert "kept failing after 8 attempts" in str(poison)
        assert "[parallel site=gd.block, block=0]" in str(poison)
        assert isinstance(poison.__cause__, TransientError)

    def test_non_transient_task_failures_are_not_retried(self):
        calls = []

        def fn(item):
            calls.append(item)
            raise ValueError("not transient")

        with faults.active_plan("spill.read:p=1"):  # active plan, other site
            with pytest.raises(ValueError, match=r"\[parallel site=s, block=0\]"):
                parallel.parallel_map(fn, [1], workers=1, label="s")
        assert calls == [1]
