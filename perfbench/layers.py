"""The traced run: per-layer numbers from timed calls into each layer.

Each round calls the public functions of every layer once, in process,
over the workload's table and tasks, with a span around every call.
After an untimed warm-up round, rounds alternate traced and untraced
(the tracer disabled); the difference of their median wall times is
the tracing overhead.  Spans sit only around the calls listed here,
never inside the program.
"""

from __future__ import annotations

import hashlib
import io
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import check
from batch import Cli, Data, Tally
from loop import STEPS, Task, run_task
from spans import Tracer

#: Child-side timing of ``import repro.cli`` in a fresh interpreter.
IMPORT_PROBE = (
    "import time; began = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - began)"
)


class _DigestStream(io.TextIOBase):
    """A text sink that keeps only a digest of what was written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        return len(text)


class Layers:
    """One workload's per-layer calls, their samples, and their checks."""

    def __init__(
        self, cli: Cli, data: Data, tasks: Sequence[Task], wmax: int, tally: Tally,
        wrong_rows_allowed: int,
    ) -> None:
        self.cli = cli
        self.wrong_rows_allowed = wrong_rows_allowed
        self.data = data
        self.tasks = tasks
        self.wmax = wmax
        self.tally = tally
        self.sinks = check.SinkReference(
            data.workload, check.expected_rows(data.truths, data.phones))
        self.artifact_text = data.artifact.read_text(encoding="utf-8")
        self.samples: Dict[str, List[float]] = {}
        self._rounds = 0

    def _engine(self) -> Any:
        """A freshly loaded engine: empty memo, artifact defaults."""
        from repro.engine.executor import TransformEngine

        return TransformEngine.loads(self.artifact_text)

    def _apply(self, tracer: Tracer, workers: int, sink: str) -> Tuple[float, int]:
        """``apply_dataset`` through ``ShardedTableExecutor``: (seconds, chunks)."""
        from repro.dataset import Dataset
        from repro.engine.parallel import ShardedTableExecutor, apply_dataset

        dataset = Dataset.resolve([str(self.data.path)])
        engine = self._engine()
        chunks = 0
        out = self.cli.work / "layers.out.csv"
        stream = _DigestStream()
        began = time.perf_counter()
        with tracer.span(f"parallel.apply.{sink}.w{workers}"):
            with ShardedTableExecutor(
                {"phone": engine}, dataset.header(","),
                output_columns={"phone": "phone_transformed"}, workers=workers,
            ) as executor:
                run_dataset = executor.run_dataset

                def counted(*args, **kwargs):  # type: ignore[no-untyped-def]
                    nonlocal chunks
                    for item in run_dataset(*args, **kwargs):
                        chunks += 1
                        yield item

                executor.run_dataset = counted  # type: ignore[method-assign]
                if sink == "file":
                    apply_dataset(executor, dataset, output=out)
                else:
                    apply_dataset(executor, dataset, stream=stream)
        seconds = time.perf_counter() - began
        if sink == "file":
            body = out.read_bytes()
            out.unlink()
            verdict = self.sinks.check("apply_dataset to a file",
                                       hashlib.sha256(body).hexdigest(), body)
        else:
            verdict = self.sinks.check(f"apply_dataset to a stream, w{workers}",
                                       stream.digest.hexdigest())
        self.tally.add(self.data.rows, verdict)
        return seconds, chunks

    def data_layers(self, tracer: Tracer) -> Dict[str, float]:
        from repro.analysis import check_conflicts, reachability_only
        from repro.clustering.incremental import IncrementalProfiler
        from repro.clustering.parallel import ParallelProfiler
        from repro.dataset import Dataset
        from repro.dataset.backends import backend_by_name
        from repro.engine.executor import TransformEngine
        from repro.engine.parallel import DEFAULT_APPLY_SHARD_BYTES, ShardedTableExecutor
        from repro.util.csvio import record_open_after

        values: Dict[str, float] = {}

        def timed(name: str, call: Callable[[], Any], metric: str = "") -> Any:
            began = time.perf_counter()
            with tracer.span(name):
                result = call()
            values[metric or f"{name}_s"] = time.perf_counter() - began
            return result

        with tracer.span("cli.import"):
            probe = self.cli.python("-c", IMPORT_PROBE)
        self.tally.add(1, check.check_exit(self.data.workload, "import probe",
                                           probe.code, 0, 1))
        values["cli.import_s"] = float(probe.stdout.strip() or "nan")

        engine = timed("engine.load", lambda: TransformEngine.loads(self.artifact_text))
        compiled = engine.compiled
        timed("analysis.preflight", lambda: (
            check_conflicts([("artifact", compiled)]),
            reachability_only(compiled, "artifact"),
        ))

        locator = str(self.data.path)
        dataset = Dataset.resolve([locator])
        column = timed("dataset.read", lambda: list(dataset.iter_values("phone")))
        if column != list(self.data.phones):
            self.tally.add(self.data.rows, (self.data.rows, [
                f"{self.data.workload}: Dataset.iter_values disagrees with the input"]))
        with tracer.span("dataset.plan_shards"):
            executor = ShardedTableExecutor(
                {"phone": engine}, dataset.header(","),
                output_columns={"phone": "phone_transformed"}, workers=1)
            # CSV parts plan record-aligned byte ranges here; the
            # backend's ``plan_shards`` hook serves rowgroup formats only.
            values["dataset.shards"] = sum(
                1 for part in dataset.parts
                for _ in executor._plan_part_shards(part, DEFAULT_APPLY_SHARD_BYTES)
            )
            executor.close()

        backend = backend_by_name("csv")
        _header, start, first_line = backend.data_region(locator, ",")
        lines = list(backend.read_shard_lines(locator, start, None, first_line=first_line))

        def frame() -> None:
            state = False
            for line in lines:
                state = record_open_after(line, ",", state)

        timed("csvio.frame", frame)

        fresh = self._engine().compiled
        run_one = fresh.run_one
        outcomes = timed("compiled.dispatch", lambda: [run_one(value) for value in column])
        stats = fresh.memo_stats()
        lookups = stats["hits"] + stats["misses"]
        values["compiled.memo_lookups"] = lookups
        values["compiled.memo_hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
        values["compiled.flagged"] = sum(1 for outcome in outcomes if not outcome.matched)

        # Orders flip every two rounds, so the traced rounds (every other
        # one) see each order equally often: w1 and wmax swap, and the
        # file sink runs first or last.  The first round, an untimed
        # warm-up, runs the file sink first: it sets the reference.
        reverse = self._rounds // 2 % 2 == 1
        self._rounds += 1
        plan = [(1, "w1"), (self.wmax, "wmax")]
        applies = [("file", 1, "w1"), ("stream", 1, "w1"), ("stream", self.wmax, "wmax")]
        if reverse:
            plan.reverse()
            applies.reverse()
        for sink, workers, label in applies:
            seconds, chunks = self._apply(tracer, workers, sink)
            if sink == "file":
                file_s = seconds
                continue
            values[f"parallel.apply_s.{label}"] = seconds
            if label == "wmax":
                values["parallel.chunks"] = chunks
        values["sinks.write_s"] = file_s - values["parallel.apply_s.w1"]
        values["parallel.self_s.w1"] = (
            values["parallel.apply_s.w1"] - values["compiled.dispatch_s"]
            - values["csvio.frame_s"]
        )
        values["parallel.scaling"] = (
            values["parallel.apply_s.w1"] / values["parallel.apply_s.wmax"]
        )

        profile = timed("clustering.profile", lambda: IncrementalProfiler().profile(column))
        values["clustering.clusters"] = profile.cluster_count
        for workers, label in plan:
            merged = timed(
                f"clustering.parallel_profile.{label}",
                lambda: ParallelProfiler(profiler=IncrementalProfiler(), workers=workers)
                .profile_dataset(dataset, "phone"),
                f"clustering.parallel_profile_s.{label}",
            )
            if merged.row_count != self.data.rows:
                self.tally.add(self.data.rows, (self.data.rows, [
                    f"{self.data.workload}: ParallelProfiler w{workers} counted "
                    f"{merged.row_count} rows for {self.data.rows}"]))
        return values

    def loop_layers(self, tracer: Tracer) -> Dict[str, float]:
        results = [run_task(task, tracer) for task in self.tasks]
        self.tally.add(*check.check_pass(self.data.workload, results,
                                         self.wrong_rows_allowed))
        values: Dict[str, float] = {
            f"{step}_s": sum(result.steps[step] for result in results) for step in STEPS
        }
        values["synthesis.repairs"] = sum(result.repairs for result in results)
        values["loop.rows"] = sum(result.rows for result in results)
        values["loop.wrong_rows"] = sum(result.wrong_rows for result in results)
        values["loop.wrong_row_share"] = values["loop.wrong_rows"] / values["loop.rows"]
        for severity in ("error", "warn", "info"):
            values[f"analysis.findings.{severity}"] = sum(
                result.findings.get(severity, 0) for result in results)
        return values

    def round(self, tracer: Tracer) -> float:
        """One traced or untraced round; returns its wall time."""
        began = time.perf_counter()
        with tracer.span("round"):
            values = self.data_layers(tracer)
            values.update(self.loop_layers(tracer))
        seconds = time.perf_counter() - began
        if tracer.enabled:
            for name, value in values.items():
                self.samples.setdefault(name, []).append(value)
        return seconds


def measure(layers: Layers, tracer: Tracer, seconds: float) -> Dict[str, float]:
    """Alternate traced and untraced rounds; per-layer medians plus overhead.

    An untimed warm-up round comes first; then at least one round of
    each kind, and further rounds while the projected end stays within
    ``seconds``.
    """
    off = Tracer(tracer.run, enabled=False)
    walls: Dict[bool, List[float]] = {True: [], False: []}
    began = time.perf_counter()
    layers.round(off)  # first-call caches, and the reference sink
    rounds = 1
    while rounds < 3 or (time.perf_counter() - began) * (rounds + 1) / rounds <= seconds:
        traced = rounds % 2 == 1
        spans_before = len(tracer.spans)
        walls[traced].append(layers.round(tracer if traced else off))
        if traced:
            layers.samples.setdefault("trace.spans", []).append(
                len(tracer.spans) - spans_before)
        rounds += 1
    metrics = {name: statistics.median(values) for name, values in layers.samples.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False])
    )
    return metrics
