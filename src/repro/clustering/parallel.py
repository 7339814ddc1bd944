"""Parallel shard-merge profiling — Cluster on all cores.

:class:`~repro.clustering.incremental.IncrementalProfiler` made one core
profile arbitrarily large columns in bounded memory, and
:meth:`~repro.clustering.incremental.ColumnProfile.merge` made the
result associative.  :class:`ParallelProfiler` supplies the shard
sources: it profiles every shard in a worker process and reduces in
input order with
:meth:`~repro.clustering.incremental.ColumnProfile.merge_all`, producing
the same leaf patterns and counts — and therefore the same lowered
:class:`~repro.clustering.hierarchy.PatternHierarchy` — as the serial
pass.

Two shard sources are supported:

* **iterables** (:meth:`ParallelProfiler.profile`) — chunks of values
  are fanned out through a bounded in-flight window, so a generator
  over a huge stream is pulled at the pace shard profiles come back;
* **partitioned datasets** (:meth:`ParallelProfiler.profile_dataset`,
  and :meth:`ParallelProfiler.profile_file` for one CSV file) — every
  part is split by the backend shard planner
  (:meth:`~repro.dataset.backends.base.Backend.plan_shards`), the same
  record-aligned planner apply uses: exact byte ranges for CSV/JSONL
  (quoted embedded newlines included), row-group ranges for
  Parquet/Arrow.  Each worker reads its own shard through
  :meth:`~repro.dataset.backends.base.Backend.read_shard_lines`; the
  parent reads only headers and the cut scan.

With one worker every entry point runs the serial profiler in process
and no pool is spawned.  Otherwise the work runs on a
:class:`~repro.util.pools.ResilientPool`, so a worker process that dies
mid-shard has its window replayed once and then raises
:class:`~repro.util.errors.CLXError` in the parent instead of hanging
it.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.clustering.hierarchy import PatternHierarchy
from repro.clustering.incremental import ColumnProfile, IncrementalProfiler
from repro.dataset.backends import Shard, backend_by_name
from repro.dataset.dataset import Dataset, DatasetPart
from repro.dataset.readers import jsonl_value, parse_jsonl_row
from repro.util.csvio import resolve_column
from repro.util.errors import ValidationError
from repro.util.faults import maybe_fire
from repro.util.pools import ResilientPool, chunked
from repro.util.validate import validated_chunk_size, validated_workers

#: Default number of values per fan-out chunk for iterable inputs; large
#: enough to amortize pickling, small enough to keep every worker busy.
DEFAULT_CHUNK_ROWS = 16_384

#: One shard-profiling task: the shard, the column (an index for headed
#: parts, resolved against that part's header), and the CSV delimiter.
ShardTask = Tuple[Shard, Union[str, int], str]

Task = TypeVar("Task")

# Worker global installed by the pool initializer (one pool profiles
# exactly one column, so a module global is safe).
_WORKER_PROFILER: Optional[IncrementalProfiler] = None


def _init_profiler_worker(profiler: IncrementalProfiler) -> None:
    global _WORKER_PROFILER
    _WORKER_PROFILER = profiler


def _profile_chunk(values: List[str]) -> ColumnProfile:
    """Profile one fan-out chunk of raw values in a worker."""
    assert _WORKER_PROFILER is not None, "worker used before initialization"
    return _WORKER_PROFILER.new_profile().observe_all(values)


def _profile_shard(task: ShardTask) -> ColumnProfile:
    """Read and profile one planned shard in a worker.

    Line shards decode through the backend's exact byte-range reader,
    so an undecodable byte names its file, line, and absolute offset
    exactly as the serial pass does.  Rows shorter than the header
    contribute ``""`` for a missing column and surplus cells are
    ignored, like the streaming readers.
    """
    assert _WORKER_PROFILER is not None, "worker used before initialization"
    shard, column, delimiter = task
    maybe_fire("worker.shard", key=f"{shard.path}:{shard.start}")
    profile = _WORKER_PROFILER.new_profile()
    backend = backend_by_name(shard.format)
    if not backend.line_records:
        return profile.observe_all(
            backend.iter_shard_values(shard.path, shard.start, shard.end, column)
        )
    lines = backend.read_shard_lines(
        shard.path, shard.start, shard.end, first_line=shard.first_line
    )
    if backend.csv_quoting:
        assert isinstance(column, int)
        for row in csv.reader(lines, delimiter=delimiter):
            if not row:
                continue  # blank line, as csv.DictReader skips them
            profile.observe(row[column] if column < len(row) else "")
    else:
        assert isinstance(column, str)
        for number, line in enumerate(lines, start=shard.first_line):
            if line.strip():
                profile.observe(jsonl_value(parse_jsonl_row(line, shard.path, number), column))
    return profile


@dataclass
class ParallelProfiler:
    """Profile a column across worker processes, shard-then-merge.

    The per-shard work is an ordinary
    :class:`~repro.clustering.incremental.IncrementalProfiler` pass and
    the reduce is the associative
    :meth:`~repro.clustering.incremental.ColumnProfile.merge_all`, so
    the result has exactly the serial path's leaf patterns and counts
    (exemplar *selection* may differ once a reservoir fills — the same
    caveat shard-merge always had).

    Attributes:
        profiler: Configuration of the per-shard profiling pass.
        workers: Worker process count; ``None`` means ``os.cpu_count()``.
            With one worker everything runs in-process.
        chunk_size: Values per fan-out chunk for iterable inputs.
    """

    profiler: IncrementalProfiler = field(default_factory=IncrementalProfiler)
    workers: Optional[int] = None
    chunk_size: int = DEFAULT_CHUNK_ROWS

    def __post_init__(self) -> None:
        self.workers = validated_workers(self.workers)
        self.chunk_size = validated_chunk_size(self.chunk_size)
        if not isinstance(self.profiler, IncrementalProfiler):
            raise ValidationError(
                "ParallelProfiler requires an IncrementalProfiler, "
                f"got {type(self.profiler).__name__}"
            )

    # ------------------------------------------------------------------
    # Iterable fan-out
    # ------------------------------------------------------------------
    def profile(self, values: Iterable[str]) -> ColumnProfile:
        """Profile any iterable by fanning chunks across the workers.

        Chunks are submitted through a bounded in-flight window and the
        shard profiles are merged in input order, so the input is
        consumed lazily and exemplar reservoirs fill in stream order
        like the serial pass.

        Raises:
            ValidationError: If the iterable is empty and the underlying
                profiler does not ``allow_empty``.
        """
        if self.workers == 1:
            return self.profiler.profile(values)
        merged: Optional[ColumnProfile] = None
        chunks = enumerate(chunked(values, self.chunk_size))
        for shard in self._map(_profile_chunk, chunks, self.workers, self.workers + 2):
            merged = shard if merged is None else merged.merge(shard)
        if merged is None:
            merged = self.profiler.new_profile()
        return self._checked(merged)

    # ------------------------------------------------------------------
    # Dataset (and single-file) fan-out
    # ------------------------------------------------------------------
    def profile_file(
        self,
        path: Union[str, Path],
        column: Union[str, int],
        delimiter: str = ",",
    ) -> ColumnProfile:
        """Profile one column of a CSV file, whatever its suffix.

        The file is a one-part CSV dataset handed to
        :meth:`profile_dataset`, so it shards, decodes, and reports
        errors exactly like a dataset part.

        Raises:
            ValidationError: If the header is missing, the column is
                unknown, or the file has no data rows (and the profiler
                does not ``allow_empty``).
        """
        source = Path(path)
        part = DatasetPart(path=source, format="csv", size=source.stat().st_size)
        return self.profile_dataset(Dataset([part]), column, delimiter)

    def profile_dataset(
        self,
        dataset: Union[Dataset, str, Sequence[Union[str, Path]]],
        column: Union[str, int],
        delimiter: str = ",",
    ) -> ColumnProfile:
        """Profile one column across every part of a partitioned dataset.

        The backend shard planner cuts the dataset into record-aligned
        shards of about ``ceil(total bytes / workers)`` each — a small
        part stays whole, a large one splits — and the shard profiles
        merge in stable (part, offset) order, so the result has the same
        leaf patterns and counts as profiling the concatenated column
        serially.  Headed parts resolve ``column`` against their own
        header.

        Args:
            dataset: A resolved :class:`~repro.dataset.dataset.Dataset`,
                or any spec(s) :meth:`Dataset.resolve` accepts (paths,
                globs, directories).
            column: Column name, or zero-based index (CSV parts only).
            delimiter: CSV delimiter.

        Raises:
            CLXError: If the specs resolve to no files, or a shard holds
                a byte that is not UTF-8 (naming file, line, and offset).
            ValidationError: If some part cannot supply the column, or
                the dataset has no data rows (and the profiler does not
                ``allow_empty``).
        """
        if not isinstance(dataset, Dataset):
            dataset = Dataset.resolve(dataset)
        dataset.check_column(column, delimiter)

        if self.workers == 1:
            profile = self.profiler.new_profile().observe_all(
                dataset.iter_values(column, delimiter)
            )
            return self._checked(profile)

        tasks = list(self._shard_tasks(dataset, column, delimiter))
        if not tasks:
            return self._checked(self.profiler.new_profile())
        keyed = ((f"{task[0].path}:{task[0].start}", task) for task in tasks)
        profiles = self._map(_profile_shard, keyed, min(self.workers, len(tasks)), len(tasks))
        return self._checked(ColumnProfile.merge_all(list(profiles)))

    # ------------------------------------------------------------------
    # Shard planning and execution
    # ------------------------------------------------------------------
    def _shard_tasks(
        self, dataset: Dataset, column: Union[str, int], delimiter: str
    ) -> Iterator[ShardTask]:
        """Plan every part through its backend, in stable part order."""
        shard_bytes = max(1, -(-dataset.total_size // self.workers))
        indices: Dict[str, int] = {}

        def resolve_index(locator: str, header: List[str]) -> None:
            indices[locator] = header.index(resolve_column(header, column))

        for part in dataset.parts:
            backend = backend_by_name(part.format)
            for shard in backend.plan_shards(part, shard_bytes, delimiter, resolve_index):
                yield shard, indices.get(shard.path, column), delimiter

    def _map(
        self,
        fn: Callable[[Task], ColumnProfile],
        keyed_tasks: Iterable[Tuple[object, Task]],
        processes: int,
        window: int,
    ) -> Iterator[ColumnProfile]:
        """Ordered bounded-window map through a one-shot resilient pool."""

        def factory() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=processes,
                initializer=_init_profiler_worker,
                initargs=(self.profiler,),
            )

        with ResilientPool(factory) as pool:
            for _, profile in pool.map_ordered_keyed(fn, keyed_tasks, window):
                yield profile

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def hierarchy(self, values: Iterable[str]) -> PatternHierarchy:
        """Profile ``values`` in parallel and lower into a hierarchy."""
        return self.profile(values).to_hierarchy(allow_empty=self.profiler.allow_empty)

    def _checked(self, profile: ColumnProfile) -> ColumnProfile:
        if profile.row_count == 0 and not self.profiler.allow_empty:
            raise ValidationError("cannot profile an empty dataset")
        return profile
