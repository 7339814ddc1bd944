"""Tests for the sharded multi-process executor.

The centerpiece is the equivalence suite: across every program the
synthesizer produces for the 47-task benchmark suite, ``run``,
``run_iter`` and ``run_parallel`` must yield identical
:class:`TransformOutcome` sequences — sharding is an execution detail,
never a semantics change.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.phone import phone_dataset
from repro.bench.suite import benchmark_suite
from repro.core.session import CLXSession
from repro.engine.parallel import ShardedExecutor
from repro.util.errors import CLXError, SynthesisError, ValidationError


def _engines_for_suite():
    """(task, engine) for every synthesizable task of the 47-task suite."""
    pairs = []
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            engine = session.engine()
        except SynthesisError:
            continue
        pairs.append((task, engine))
    return pairs


def _signature(outcomes):
    return [(o.output, o.matched, o.pattern) for o in outcomes]


class TestSuiteEquivalence:
    def test_run_run_iter_and_run_parallel_agree_across_the_suite(self):
        pairs = _engines_for_suite()
        assert len(pairs) >= 40  # almost all of the 47 tasks synthesize
        for task, engine in pairs:
            report = engine.run(task.inputs)
            batch = list(
                zip(
                    report.outputs,
                    [pattern is not None for pattern in report.matched_pattern],
                    report.matched_pattern,
                )
            )
            streamed = _signature(engine.run_iter(iter(task.inputs), chunk_size=7))
            assert streamed == batch, task.task_id
            with ShardedExecutor(engine, workers=2, chunk_size=5) as executor:
                sharded = _signature(executor.run_iter(iter(task.inputs)))
            assert sharded == batch, task.task_id

    def test_run_parallel_report_equals_run_report(self):
        values, _ = phone_dataset(count=2000, format_count=6, seed=41)
        raw, _ = phone_dataset(count=300, format_count=6, seed=331)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        engine = session.engine()
        single = engine.run(values)
        parallel = engine.run_parallel(values, workers=2, chunk_size=256)
        assert parallel.inputs == single.inputs
        assert parallel.outputs == single.outputs
        assert parallel.matched_pattern == single.matched_pattern
        assert parallel.target == single.target
        assert parallel.flagged_count == single.flagged_count


@pytest.fixture
def phone_engine():
    raw, _ = phone_dataset(count=100, format_count=4, seed=13)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    return session.engine()


class TestShardedExecutor:
    def test_results_preserve_input_order(self, phone_engine):
        values, _ = phone_dataset(count=997, format_count=4, seed=23)
        expected = [phone_engine.run_one(value).output for value in values]
        with ShardedExecutor(phone_engine, workers=2, chunk_size=64) as executor:
            assert [o.output for o in executor.run_iter(iter(values))] == expected

    def test_executor_is_reusable_across_runs(self, phone_engine):
        values, _ = phone_dataset(count=60, format_count=4, seed=29)
        with ShardedExecutor(phone_engine, workers=2, chunk_size=16) as executor:
            first = executor.run(values)
            second = executor.run(values)
        assert first.outputs == second.outputs

    def test_consumes_a_generator_lazily(self, phone_engine):
        pulled = []

        def source():
            values, _ = phone_dataset(count=500, format_count=4, seed=31)
            for value in values:
                pulled.append(value)
                yield value

        with ShardedExecutor(phone_engine, workers=2, chunk_size=10) as executor:
            iterator = executor.run_iter(source())
            next(iterator)
            # A bounded window of chunks may be in flight, but the whole
            # 500-value generator must not have been drained eagerly.
            assert len(pulled) <= 10 * (executor.workers + 3)

    def test_accepts_engine_or_compiled(self, phone_engine):
        ShardedExecutor(phone_engine, workers=1).close()
        ShardedExecutor(phone_engine.compiled, workers=1).close()

    def test_rejects_bad_arguments(self, phone_engine):
        with pytest.raises(ValidationError):
            ShardedExecutor(phone_engine, workers=0)
        with pytest.raises(ValidationError):
            ShardedExecutor(phone_engine, chunk_size=0)
        with pytest.raises(ValidationError):
            ShardedExecutor("not a program")

    def test_close_is_idempotent(self, phone_engine):
        executor = ShardedExecutor(phone_engine, workers=1)
        executor.close()
        executor.close()

    def test_dead_worker_raises_clx_error_instead_of_hanging(self, phone_engine):
        class Kamikaze(str):
            """Unpickling this value kills the worker that receives it."""

            def __reduce__(self):
                return (os._exit, (13,))

        values = ["734-422-8073"] * 30 + [Kamikaze("906-555-1234")]
        with ShardedExecutor(phone_engine, workers=2, chunk_size=8) as executor:
            with pytest.raises(CLXError, match="worker process died"):
                list(executor.run_iter(iter(values)))

    def test_worker_death_mid_stream_raises_clx_error(self, phone_engine):
        # The poison chunk sits near the front of a long stream, so the
        # pool breaks while later chunks are still being *submitted* —
        # submit-side BrokenProcessPool must be translated too.
        class Kamikaze(str):
            def __reduce__(self):
                return (os._exit, (13,))

        values = (
            ["734-422-8073"] * 3
            + [Kamikaze("906-555-1234")]
            + ["734-422-8073"] * 5000
        )
        with ShardedExecutor(phone_engine, workers=2, chunk_size=2) as executor:
            with pytest.raises(CLXError, match="worker process died"):
                list(executor.run_iter(iter(values)))


class TestRunParallelFallback:
    def test_single_worker_falls_back_to_in_process_run(self, phone_engine, monkeypatch):
        import repro.engine.parallel as parallel_module

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("no pool should be spawned for workers=1")

        monkeypatch.setattr(parallel_module.ShardedExecutor, "_ensure_pool", boom)
        values, _ = phone_dataset(count=40, format_count=4, seed=37)
        report = phone_engine.run_parallel(values, workers=1)
        assert report.outputs == phone_engine.run(values).outputs

    def test_accepts_an_iterator_when_falling_back(self, phone_engine):
        values, _ = phone_dataset(count=20, format_count=4, seed=43)
        report = phone_engine.run_parallel(iter(values), workers=1)
        assert report.row_count == 20
