"""The stateless transformation executor.

:class:`TransformEngine` is the execution half of the CLX split: it holds
nothing but an immutable :class:`~repro.engine.compiled.CompiledProgram`
and can therefore be reused across datasets, shared between threads, or
rebuilt in a different process from a serialized artifact.  Three apply
shapes are supported:

* :meth:`TransformEngine.run` — batch apply, returning the same
  :class:`~repro.core.result.TransformReport` the session API produces;
* :meth:`TransformEngine.run_iter` — streaming apply over any iterable,
  holding at most ``chunk_size`` values in memory at a time;
* :meth:`TransformEngine.transform_table` /
  :meth:`TransformEngine.transform_table_iter` — multi-column table
  apply, one compiled program per column, one pass over the table,
  batch or streaming, optionally fanned across worker processes;
* :meth:`TransformEngine.apply_dataset` — the same program over a whole
  partitioned dataset on disk (CSV and JSONL parts mixed freely), into
  one spliced sink or one output per partition, with cross-partition
  worker fan-out.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Union,
)

if TYPE_CHECKING:  # circular at runtime: dataset/parallel import engines
    from pathlib import Path

    from repro.dataset import Dataset
    from repro.engine.parallel import DatasetApplyResult

from repro.core.result import TransformReport
from repro.dsl.ast import UniFiProgram
from repro.dsl.interpreter import TransformOutcome
from repro.engine.compiled import DEFAULT_MEMO_SIZE, CompiledProgram
from repro.patterns.pattern import Pattern
from repro.util.errors import ValidationError
from repro.util.pools import chunked, indexed_chunks
from repro.util.validate import validated_chunk_size, validated_workers

#: Anything :meth:`TransformEngine.transform_table` accepts per column.
ProgramLike = Union["TransformEngine", CompiledProgram]


class TransformEngine:
    """Stateless, reusable executor for one compiled program.

    Args:
        compiled: The compiled program to execute.
    """

    __slots__ = ("_compiled",)

    def __init__(self, compiled: CompiledProgram) -> None:
        if not isinstance(compiled, CompiledProgram):
            raise ValidationError(
                f"TransformEngine requires a CompiledProgram, got {type(compiled).__name__}"
            )
        self._compiled = compiled

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(
        cls,
        program: UniFiProgram,
        target: Pattern,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "TransformEngine":
        """Compile a raw program + target pattern into an engine."""
        return cls(CompiledProgram(program, target, metadata=metadata))

    @classmethod
    def loads(
        cls,
        text: str,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
        merged_dispatch: bool = True,
    ) -> "TransformEngine":
        """Rebuild an engine from a serialized compiled-program artifact.

        ``memo_size`` / ``merged_dispatch`` configure the rebuilt
        program's hot-loop dispatch (see
        :class:`~repro.engine.compiled.CompiledProgram`); they are
        runtime knobs, not part of the artifact.
        """
        return cls(
            CompiledProgram.loads(
                text, memo_size=memo_size, merged_dispatch=merged_dispatch
            )
        )

    def dumps(self, indent: Optional[int] = None) -> str:
        """Serialize the underlying compiled program."""
        return self._compiled.dumps(indent=indent)

    @property
    def compiled(self) -> CompiledProgram:
        """The immutable compiled program this engine executes."""
        return self._compiled

    @property
    def target(self) -> Pattern:
        """The target pattern of the compiled program."""
        return self._compiled.target

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, value: str) -> TransformOutcome:
        """Transform a single value."""
        return self._compiled.run_one(value)

    def run(self, values: Sequence[str]) -> TransformReport:
        """Batch-apply the program to ``values`` (order preserved)."""
        return self._compiled.run(values)

    def run_iter(
        self,
        values: Iterable[str],
        chunk_size: int = 1024,
    ) -> Iterator[TransformOutcome]:
        """Stream ``values`` through the program with constant memory.

        The input iterable is consumed lazily in chunks of ``chunk_size``
        values, so a generator over a huge file is never materialized;
        outcomes are yielded one by one in input order.

        Args:
            values: Any iterable of raw strings.
            chunk_size: Number of values pulled from the iterable at a
                time (must be positive).

        Yields:
            One :class:`~repro.dsl.interpreter.TransformOutcome` per value.
        """
        chunk_size = validated_chunk_size(chunk_size)
        run_one = self._compiled.run_one
        for chunk in chunked(values, chunk_size):
            for value in chunk:
                yield run_one(value)

    def run_parallel(
        self,
        values: Iterable[str],
        workers: Optional[int] = None,
        chunk_size: int = 8192,
    ) -> TransformReport:
        """Batch-apply across ``workers`` processes (order preserved).

        The compiled program is serialized once and rebuilt in each
        worker; chunks of values are fanned out and reassembled in input
        order, so the report is identical to :meth:`run`'s.  With one
        worker (or on a single-CPU host when ``workers`` is None) this
        falls back to the in-process :meth:`run` — no pool is spawned.

        Args:
            values: The values to transform.
            workers: Worker process count; defaults to ``os.cpu_count()``.
            chunk_size: Values per worker task.

        Returns:
            The same :class:`~repro.core.result.TransformReport` that
            :meth:`run` produces.
        """
        resolved = validated_workers(workers)
        chunk_size = validated_chunk_size(chunk_size)
        if resolved <= 1:
            return self.run(list(values))
        from repro.engine.parallel import ShardedExecutor

        with ShardedExecutor(self._compiled, workers=resolved, chunk_size=chunk_size) as executor:
            return executor.run(values)

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def apply_dataset(
        self,
        dataset: Union["Dataset", str, "Path", Sequence[Union[str, "Path"]]],
        columns: Union[str, Sequence[str]],
        output: Union[str, "Path", None] = None,
        output_dir: Union[str, "Path", None] = None,
        stream: Optional[TextIO] = None,
        out_format: str = "csv",
        delimiter: str = ",",
        in_place: bool = False,
        output_columns: Optional[Mapping[str, str]] = None,
        workers: Optional[int] = None,
        chunk_size: int = 4096,
        shard_bytes: int = 1 << 20,
        on_error: str = "abort",
        quarantine_dir: Union[str, "Path", None] = None,
        shard_timeout: Optional[float] = None,
        max_retries: int = 0,
        resume: bool = False,
        assume_csv: bool = False,
    ) -> "DatasetApplyResult":
        """Apply this engine's program across a partitioned dataset.

        The compile-once/apply-anywhere path for data that lives on
        disk: ``dataset`` may be a resolved
        :class:`~repro.dataset.dataset.Dataset` or any spec(s) its
        :meth:`~repro.dataset.dataset.Dataset.resolve` accepts (paths,
        globs, directories — CSV and JSONL parts mixed freely).  Every
        named column is transformed by this program in one pass;
        partitions stream through the worker pool concurrently
        (:meth:`ShardedTableExecutor.run_dataset
        <repro.engine.parallel.ShardedTableExecutor.run_dataset>`) and
        the sink bytes are identical at any worker count.

        Args:
            dataset: A dataset, or specs to resolve into one.
            columns: Column name(s) this program transforms.
            output: Splice every partition into this one file.
            output_dir: Write one output per partition here instead,
                preserving partition names (final extension follows
                ``out_format``).
            stream: Splice into an open text stream instead of a file.
            out_format: Any sink format the backend registry exposes:
                ``"csv"`` (default), ``"jsonl"``, or — with the
                pyarrow extra installed — ``"parquet"``/``"arrow"``.
            delimiter: CSV delimiter (parse and encode).
            in_place: Overwrite the source columns instead of adding
                ``<column>_transformed`` ones.
            output_columns: Explicit input→sink column mapping,
                overriding the default naming (ignores ``in_place``).
            workers: Worker process count; ``None`` means all cores,
                1 runs in-process.
            chunk_size: Physical lines per transform batch inside each
                worker.
            shard_bytes: Partitions larger than this split into
                record-aligned byte-range shards.
            on_error: ``"abort"`` (default) or ``"quarantine"`` —
                divert bad records to ``quarantine_dir`` instead of
                failing the run.
            quarantine_dir: Where quarantined records land (one JSONL
                file per partition); required with quarantine mode.
            shard_timeout: Seconds before an in-flight shard counts as
                hung and its worker is replaced (``None`` = no limit).
            max_retries: Infrastructure-fault retries per shard before
                it is declared poison.
            resume: With ``output_dir``, skip partitions the run
                manifest records as complete.
            assume_csv: Treat extensionless partition files as CSV
                instead of refusing them (only used when ``dataset``
                arrives as unresolved specs).

        Returns:
            The :class:`~repro.engine.parallel.DatasetApplyResult`
            (rows, flagged cells, partitions, files written,
            quarantine summary).
        """
        from repro.dataset import Dataset
        from repro.engine.parallel import ShardedTableExecutor, apply_dataset
        from repro.util.pools import FaultPolicy

        from repro.util.csvio import resolve_column

        if not isinstance(dataset, Dataset):
            dataset = Dataset.resolve(dataset, assume_csv=assume_csv)
        names = [columns] if isinstance(columns, str) else list(columns)
        if not names:
            raise ValidationError("apply_dataset needs at least one column name")
        header = dataset.header(delimiter, strict=on_error != "quarantine")
        # Resolve up front so index addressing ("1") and the output
        # naming rules below agree on the real column name.
        names = [resolve_column(header, name) for name in names]
        if output_columns is None:
            if in_place:
                output_columns = {name: name for name in names}
            else:
                output_columns = {name: f"{name}_transformed" for name in names}
        with ShardedTableExecutor(
            {name: self for name in names},
            header,
            output_columns=output_columns,
            out_format=out_format,
            delimiter=delimiter,
            source=str(dataset.parts[0].path),
            workers=workers,
            chunk_size=chunk_size,
            on_error=on_error,
            fault_policy=FaultPolicy(max_retries=max_retries, shard_timeout=shard_timeout),
        ) as executor:
            return apply_dataset(
                executor,
                dataset,
                output=output,
                output_dir=output_dir,
                stream=stream,
                shard_bytes=shard_bytes,
                quarantine_dir=quarantine_dir,
                resume=resume,
            )

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    @staticmethod
    def transform_table_iter(
        rows: Iterable[Mapping[str, Any]],
        programs: Mapping[str, ProgramLike],
        chunk_size: int = 1024,
    ) -> Iterator[Dict[str, Any]]:
        """Stream a table through one program per column in a single pass.

        The streaming counterpart of :meth:`transform_table`: rows are
        pulled lazily in chunks of ``chunk_size``, every programmed
        column is transformed within the chunk, and finished rows are
        yielded in input order — so a table far larger than memory flows
        through with at most one chunk resident, instead of the
        materialize-then-one-pass-per-column shape of the batch API.

        Args:
            rows: Iterable of row mappings (e.g. ``csv.DictReader`` rows).
                Rows are copied; the input is never mutated.
            programs: Mapping from column name to the
                :class:`TransformEngine` or
                :class:`~repro.engine.compiled.CompiledProgram` that
                transforms it.  ``None`` cells are treated as ``""``.
            chunk_size: Rows resident at a time (must be positive).

        Yields:
            New row dicts with each programmed column replaced by its
            transformed value.

        Raises:
            ValidationError: If a programmed column is missing from some
                row or a program value has an unsupported type.
        """
        from repro.engine.parallel import _apply_columns_to_rows

        chunk_size = validated_chunk_size(chunk_size)
        compiled = [
            (column, _as_engine(column, program).compiled)
            for column, program in programs.items()
        ]

        def generate() -> Iterator[Dict[str, Any]]:
            for base_index, chunk in indexed_chunks(rows, chunk_size):
                yield from _apply_columns_to_rows(compiled, base_index, chunk)

        return generate()

    @staticmethod
    def transform_table(
        rows: Iterable[Mapping[str, Any]],
        programs: Mapping[str, ProgramLike],
        workers: Optional[int] = None,
        chunk_size: int = 8192,
    ) -> List[Dict[str, Any]]:
        """Apply one program per column to a table of rows, in one pass.

        Args:
            rows: Iterable of row mappings (e.g. ``csv.DictReader`` rows).
                Rows are copied; the input is never mutated.
            programs: Mapping from column name to the
                :class:`TransformEngine` or
                :class:`~repro.engine.compiled.CompiledProgram` that
                transforms it.  ``None`` cells are treated as ``""``.
            workers: ``None`` (default) or 1 runs in-process; larger
                values fan chunks of rows across that many worker
                processes (``run_parallel``-style: compiled artifacts
                rebuilt per worker, ordered results, bounded in-flight
                window).  The output is identical either way.
            chunk_size: Rows per chunk / worker task.

        Returns:
            New row dicts with each programmed column replaced by its
            transformed value.

        Raises:
            ValidationError: If a programmed column is missing from some
                row, a program value has an unsupported type, or
                ``workers`` / ``chunk_size`` is invalid.
        """
        resolved = 1 if workers is None else validated_workers(workers)
        chunk_size = validated_chunk_size(chunk_size)
        if resolved <= 1:
            return list(
                TransformEngine.transform_table_iter(rows, programs, chunk_size=chunk_size)
            )
        from repro.engine.parallel import transform_table_parallel

        compiled = [
            (column, _as_engine(column, program).compiled)
            for column, program in programs.items()
        ]
        return list(transform_table_parallel(rows, compiled, resolved, chunk_size))


def _as_engine(column: str, program: ProgramLike) -> TransformEngine:
    if isinstance(program, TransformEngine):
        return program
    if isinstance(program, CompiledProgram):
        return TransformEngine(program)
    raise ValidationError(
        f"column {column!r}: expected TransformEngine or CompiledProgram, "
        f"got {type(program).__name__}"
    )
