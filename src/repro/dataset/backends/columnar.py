"""The rowgroup backends: Parquet and Arrow IPC, gated on ``pyarrow``.

Columnar parts join the pipeline through a deliberate trick: the worker
wire is the **JSONL rendering of each row group** (one JSON object per
row, ``json.dumps(..., default=str)``), so parsing, key reconciliation,
transform dispatch, quarantine, and re-encoding all reuse the JSONL
machinery unchanged — the executor cannot drift between a ``.jsonl``
part and a ``.parquet`` part holding the same rows.  Shard geometry is
**row-group index ranges** instead of byte offsets: row groups (record
batches for Arrow IPC) are the format's own record-aligned cut points,
sized against each group's storage footprint so ``--shard-bytes`` keeps
its meaning.

On the sink side workers still emit JSONL wire text; the parent decodes
it through a :class:`ColumnarWriter` that batches rows at a fixed flush
size into all-string columns — row-group boundaries depend only on row
count, never on chunk or worker geometry, so columnar output is as
deterministic as the text sinks.  Everything is gated on ``pyarrow``
with a :class:`CLXError` naming the missing extra, so the no-extras
install degrades cleanly.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dataset.backends.base import Backend, HeaderCheck, RowSpec, Shard
from repro.dataset.backends.remote import open_locator
from repro.dataset.backends.text import parse_jsonl_chunk
from repro.util.csvio import resolve_column
from repro.util.errors import CLXError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.dataset.dataset import DatasetPart


def _pyarrow() -> Any:
    """Import pyarrow, or fail with the extra spelled out."""
    try:
        import pyarrow  # type: ignore[import-not-found,import-untyped]
    except ImportError:
        raise CLXError(
            "parquet/arrow partitions need the optional dependency 'pyarrow', "
            "which is not installed; install the arrow extra "
            "(pip install repro-clx[arrow])"
        ) from None
    return pyarrow


def pyarrow_available() -> bool:
    """Whether the optional ``pyarrow`` dependency is importable."""
    try:
        _pyarrow()
    except CLXError:
        return False
    return True


def _columnar_cell(value: object) -> str:
    """Stringify one columnar value exactly like the apply wire does.

    The wire renders whole rows with ``json.dumps(row, default=str)``
    and re-ingests cells through
    :func:`~repro.dataset.readers.jsonl_cell`; this mirrors that
    composition value-by-value so profiling a column sees the same
    strings apply transforms.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (dict, list)):
        return json.dumps(value, ensure_ascii=False, default=str)
    try:
        return json.dumps(value, ensure_ascii=False)
    except TypeError:
        return str(value)


def _wire_line(row: dict) -> str:
    """One row as worker wire text (the JSONL rendering)."""
    return json.dumps(row, ensure_ascii=False, default=str) + "\n"


class ColumnarWriter:
    """Parent-side sink writer: JSONL wire text in, columnar file out.

    Buffers decoded rows and flushes them as all-string record batches
    every ``flush_rows`` rows — a boundary that depends only on row
    count, so the written row groups are identical at any worker count,
    chunk size, or shard geometry.  The caller owns the binary handle
    (an :class:`~repro.util.sinks.AtomicSink` temp file) and commits it
    only after :meth:`finish` has closed the format's own footer.
    """

    #: Rows per flushed row group / record batch.
    FLUSH_ROWS = 65536

    def __init__(
        self, handle: IO[bytes], output_fields: Sequence[str], kind: str,
        flush_rows: int = FLUSH_ROWS,
    ) -> None:
        pa = _pyarrow()
        self._pa = pa
        self._fields = tuple(output_fields)
        self._schema = pa.schema([(name, pa.string()) for name in self._fields])
        self._rows: List[List[str]] = []
        self._flush_rows = flush_rows
        self._kind = kind
        if kind == "parquet":
            import pyarrow.parquet as pq  # type: ignore[import-not-found]

            self._writer: Any = pq.ParquetWriter(handle, self._schema)
        else:
            self._writer = pa.ipc.new_file(handle, self._schema)

    def _flush(self, rows: List[List[str]]) -> None:
        pa = self._pa
        arrays = [
            pa.array([row[index] for row in rows], type=pa.string())
            for index in range(len(self._fields))
        ]
        if self._kind == "parquet":
            self._writer.write_table(
                pa.Table.from_arrays(arrays, schema=self._schema)
            )
        else:
            self._writer.write_batch(
                pa.record_batch(arrays, schema=self._schema)
            )

    def write(self, wire_text: str) -> None:
        """Decode one chunk of wire text and buffer its rows."""
        for line in wire_text.splitlines():
            if not line:
                continue
            payload = json.loads(line)
            self._rows.append([payload.get(name, "") for name in self._fields])
        while len(self._rows) >= self._flush_rows:
            self._flush(self._rows[: self._flush_rows])
            del self._rows[: self._flush_rows]

    def finish(self) -> None:
        """Flush the tail rows and close the file's footer."""
        if self._rows:
            self._flush(self._rows)
            self._rows = []
        self._writer.close()


class _ColumnarBackend(Backend):
    """Shared rowgroup plumbing; subclasses bind the pyarrow reader."""

    line_records = False
    csv_quoting = False
    has_header_row = False
    binary_sink = True

    def require(self) -> None:
        _pyarrow()

    # -- format binding ------------------------------------------------
    def _open_reader(self, locator: str) -> Tuple[Any, Any]:
        """(reader, owned handle) for one part; caller closes the handle."""
        raise NotImplementedError

    def _num_groups(self, reader: Any) -> int:
        raise NotImplementedError

    def _group_rows(self, reader: Any, index: int) -> int:
        raise NotImplementedError

    def _group_bytes(self, reader: Any, index: int) -> int:
        raise NotImplementedError

    def _read_group(
        self, reader: Any, index: int, columns: Optional[List[str]] = None
    ) -> Any:
        """One row group / record batch as a pyarrow Table."""
        raise NotImplementedError

    def _schema_names(self, reader: Any) -> List[str]:
        raise NotImplementedError

    # -- schema side ---------------------------------------------------
    def field_order(
        self, part: "DatasetPart", delimiter: str, strict: bool = True
    ) -> Optional[List[str]]:
        self.require()
        reader, handle = self._open_reader(part.locator)
        try:
            return self._schema_names(reader) or None
        finally:
            handle.close()

    def column_names(
        self, part: "DatasetPart", delimiter: str
    ) -> Optional[List[str]]:
        return self.field_order(part, delimiter)

    def check_column(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> None:
        names = self.field_order(part, delimiter) or []
        try:
            resolve_column(names, column)
        except ValidationError as error:
            raise ValidationError(f"{part.locator}: {error}") from None

    def iter_values(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> Iterator[str]:
        self.require()
        reader, handle = self._open_reader(part.locator)
        try:
            name = resolve_column(self._schema_names(reader), column)
            for index in range(self._num_groups(reader)):
                table = self._read_group(reader, index, columns=[name])
                for value in table.column(0).to_pylist():
                    yield _columnar_cell(value)
        finally:
            handle.close()

    # -- apply input ---------------------------------------------------
    def plan_shards(
        self,
        part: "DatasetPart",
        shard_bytes: int,
        delimiter: str = ",",
        on_header: Optional[HeaderCheck] = None,
    ) -> Iterator[Shard]:
        """Row-group index spans, each covering about ``shard_bytes`` of storage."""
        self.require()
        locator = part.locator
        reader, handle = self._open_reader(locator)
        try:
            groups = self._num_groups(reader)
            first_row = 1
            span_start = 0
            span_rows = 0
            span_bytes = 0
            for index in range(groups):
                span_bytes += self._group_bytes(reader, index)
                span_rows += self._group_rows(reader, index)
                if span_bytes >= shard_bytes:
                    yield Shard(locator, self.name, span_start, index + 1, first_row)
                    span_start = index + 1
                    first_row += span_rows
                    span_rows = 0
                    span_bytes = 0
            if span_start < groups:
                yield Shard(locator, self.name, span_start, groups, first_row)
        finally:
            handle.close()

    def read_shard_lines(
        self,
        locator: str,
        start: int,
        end: Optional[int],
        collect_bad: bool = False,
        first_line: int = 1,
    ) -> Iterator[str]:
        self.require()
        reader, handle = self._open_reader(locator)
        try:
            stop = self._num_groups(reader) if end is None else end
            for index in range(start, stop):
                for row in self._read_group(reader, index).to_pylist():
                    yield _wire_line(row)
        finally:
            handle.close()

    def parse_rows(
        self, spec: RowSpec, first_line: int, lines: List[str], label: str
    ) -> List[List[str]]:
        return parse_jsonl_chunk(spec, first_line, lines, label)

    def iter_shard_values(
        self, locator: str, start: int, end: int, column: Union[str, int]
    ) -> Iterator[str]:
        self.require()
        reader, handle = self._open_reader(locator)
        try:
            name = resolve_column(self._schema_names(reader), column)
            for index in range(start, end):
                table = self._read_group(reader, index, columns=[name])
                for value in table.column(0).to_pylist():
                    yield _columnar_cell(value)
        finally:
            handle.close()

    # -- sink side -----------------------------------------------------
    def encode_rows(
        self, output_fields: Sequence[str], rows: List[List[str]], delimiter: str
    ) -> str:
        # Lazy: repro.engine imports this package via engine.parallel, so
        # the reverse edge must resolve at call time, not import time.
        from repro.engine.serialize import encode_rows_jsonl

        return encode_rows_jsonl(output_fields, rows)

    def open_sink_writer(
        self, handle: IO[bytes], output_fields: Sequence[str]
    ) -> ColumnarWriter:
        return ColumnarWriter(handle, output_fields, kind=self.name)


class ParquetBackend(_ColumnarBackend):
    """Parquet in and out; shards are row-group index ranges."""

    name = "parquet"
    suffixes = (".parquet",)
    sink_suffix = ".parquet"

    def _open_reader(self, locator: str) -> Tuple[Any, Any]:
        import pyarrow.parquet as pq  # type: ignore[import-not-found]

        handle = open_locator(locator)
        return pq.ParquetFile(handle), handle

    def _num_groups(self, reader: Any) -> int:
        return int(reader.metadata.num_row_groups)

    def _group_rows(self, reader: Any, index: int) -> int:
        return int(reader.metadata.row_group(index).num_rows)

    def _group_bytes(self, reader: Any, index: int) -> int:
        return int(reader.metadata.row_group(index).total_byte_size)

    def _read_group(
        self, reader: Any, index: int, columns: Optional[List[str]] = None
    ) -> Any:
        return reader.read_row_group(index, columns=columns)

    def _schema_names(self, reader: Any) -> List[str]:
        return list(reader.schema_arrow.names)


class ArrowBackend(_ColumnarBackend):
    """Arrow IPC (Feather v2) in and out; shards are record-batch ranges."""

    name = "arrow"
    suffixes = (".arrow", ".feather", ".ipc")
    sink_suffix = ".arrow"

    def _open_reader(self, locator: str) -> Tuple[Any, Any]:
        pa = _pyarrow()
        handle = open_locator(locator)
        return pa.ipc.open_file(handle), handle

    def _num_groups(self, reader: Any) -> int:
        return int(reader.num_record_batches)

    def _group_rows(self, reader: Any, index: int) -> int:
        return int(reader.get_batch(index).num_rows)

    def _group_bytes(self, reader: Any, index: int) -> int:
        return int(reader.get_batch(index).nbytes)

    def _read_group(
        self, reader: Any, index: int, columns: Optional[List[str]] = None
    ) -> Any:
        pa = self._pa_module()
        batch = reader.get_batch(index)
        table = pa.Table.from_batches([batch])
        if columns is not None:
            table = table.select(columns)
        return table

    def _schema_names(self, reader: Any) -> List[str]:
        return list(reader.schema.names)

    @staticmethod
    def _pa_module() -> Any:
        return _pyarrow()
