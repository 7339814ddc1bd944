"""The IO backend protocol, the one shard planner, and the registry.

A :class:`Backend` packages everything the pipeline needs to speak one
partition format — schema discovery, value streaming, shard planning,
the worker-side raw-chunk parse, and the sink-side chunk encoding — so
:class:`~repro.engine.parallel.ShardedTableExecutor`,
:class:`~repro.clustering.parallel.ParallelProfiler`, and
:func:`~repro.engine.parallel.apply_dataset` dispatch through the
registry instead of ``if part.format == "csv"`` branches.

Profile and apply read the same partitions as the same record-aligned
spans: :meth:`Backend.plan_shards` turns one part into :class:`Shard`
records, and :meth:`Backend.read_shard_lines` reads one back.  Two
capability axes shape the contracts:

* **line-record backends** (CSV, JSONL) own text files whose physical
  lines carry records.  Shards are exact byte ranges, cut after the
  header with one lazy quote-parity scan
  (:func:`~repro.util.csvio.iter_record_cut_points`) that also yields
  each shard's first physical line number.  ``csv_quoting`` states
  whether a record may span physical lines (quoted embedded newline),
  ``has_header_row`` whether the file leads with a header record.
* **rowgroup backends** (Parquet, Arrow IPC) own binary columnar
  files.  Shard bounds are **row-group indices**, not byte offsets,
  and the worker wire is the JSONL rendering of each row group — so
  parse, transform, quarantine, and re-encode reuse the JSONL
  machinery unchanged.

Backends register under a name plus one or more file suffixes.  An
unregistered suffix fails loudly (:func:`backend_for_path`);
``assume_csv`` is the escape hatch for extensionless partition files
only.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    TYPE_CHECKING,
)

from repro.dataset.backends.remote import open_locator
from repro.util.csvio import iter_record_cut_points
from repro.util.errors import CLXError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.dataset.dataset import DatasetPart


class RowSpec(Protocol):
    """The slice of the executor's TableSpec a parse/encode stage needs."""

    @property
    def fieldnames(self) -> Tuple[str, ...]: ...

    @property
    def output_fields(self) -> Tuple[str, ...]: ...

    @property
    def delimiter(self) -> str: ...


@dataclass(frozen=True)
class Shard:
    """One picklable, record-aligned span of one partition.

    For line-record backends ``start`` and ``end`` are byte offsets at
    record boundaries, so a reader owns exactly the lines beginning in
    ``[start, end)`` and ``first_line`` is the true physical line
    number at ``start``.  For rowgroup backends the bounds are
    **row-group indices** and ``first_line`` is the 1-based index of
    the span's first row.  Either way error messages stay exact at any
    shard geometry.
    """

    path: str
    format: str
    start: int
    end: int
    first_line: int


#: Receives ``(locator, header)`` once per headed part, before any of
#: its shards is yielded; raising from it aborts the plan.
HeaderCheck = Callable[[str, List[str]], None]


class SinkWriter(Protocol):
    """A committed-on-finish writer consuming worker wire-text chunks."""

    def write(self, wire_text: str) -> None: ...

    def finish(self) -> None: ...


class Backend(abc.ABC):
    """One partition format's reader/writer contract.

    Attributes:
        name: Registry key; also the ``DatasetPart.format`` /
            ``--format`` value.
        suffixes: File suffixes (lower-case, dot included) resolving to
            this backend.
        line_records: Physical text lines carry records (CSV/JSONL).
        csv_quoting: A record may span physical lines while a quoted
            field is open (CSV); line backends only.
        has_header_row: The file leads with a header record naming the
            columns (CSV); line backends only.
        binary_sink: Sink files are binary and written through a
            format-aware :class:`SinkWriter` instead of spliced text.
        sink_suffix: Suffix of files this backend writes.
    """

    name: str = ""
    suffixes: Tuple[str, ...] = ()
    line_records: bool = True
    csv_quoting: bool = False
    has_header_row: bool = False
    binary_sink: bool = False
    sink_suffix: str = ""

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def require(self) -> None:
        """Raise :class:`CLXError` naming the missing extra, if any."""

    def available(self) -> bool:
        """Whether this backend's optional dependencies are importable."""
        try:
            self.require()
        except CLXError:
            return False
        return True

    # ------------------------------------------------------------------
    # Schema discovery and value streaming (resolution side)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def field_order(
        self, part: "DatasetPart", delimiter: str, strict: bool = True
    ) -> Optional[List[str]]:
        """The dataset field order this part defines, or None to defer.

        ``None`` lets an empty part (e.g. a rowless JSONL file) defer
        to the next partition instead of blanking the schema.
        """

    @abc.abstractmethod
    def column_names(
        self, part: "DatasetPart", delimiter: str
    ) -> Optional[List[str]]:
        """Column names an index can resolve against, or None.

        Cheap — a header or schema read, never a full scan.  ``None``
        means this format addresses columns by name only (JSONL).
        """

    @abc.abstractmethod
    def check_column(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> None:
        """Verify the part can supply ``column``, naming it on failure."""

    @abc.abstractmethod
    def iter_values(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> Iterator[str]:
        """Stream one column of the part, ``""`` for rows missing it."""

    # ------------------------------------------------------------------
    # Shard geometry and the worker wire (profile and apply alike)
    # ------------------------------------------------------------------
    def data_region(
        self, locator: str, delimiter: str
    ) -> Tuple[Optional[List[str]], int, int]:
        """(header, data-start offset, first data line) of one file.

        Line backends only; :meth:`plan_shards` hands the header (when
        any) to its caller before cutting byte ranges.
        """
        raise CLXError(f"{self.name} partitions have no byte data region")

    def plan_shards(
        self,
        part: "DatasetPart",
        shard_bytes: int,
        delimiter: str = ",",
        on_header: Optional[HeaderCheck] = None,
    ) -> Iterator[Shard]:
        """Split one part into record-aligned shards of about ``shard_bytes``.

        A part no larger than ``shard_bytes`` is one whole-part shard,
        so the parent reads nothing but a header.  A larger line-record
        part is cut after its header by one
        :func:`~repro.util.csvio.iter_record_cut_points` scan, which
        also yields the first line number of every shard.  Shards are
        **yielded as cuts are found**, so on a huge file workers start
        on the head while the parent still scans the tail.  Rowgroup
        backends override this with row-group index spans.
        """
        self.require()
        locator = part.locator
        header, data_start, first_line = self.data_region(locator, delimiter)
        if header is not None and on_header is not None:
            on_header(locator, header)
        size = part.size
        if size <= data_start:
            return
        span = size - data_start
        pieces = -(-span // shard_bytes)
        start, line = data_start, first_line
        if pieces > 1:
            step = -(-span // pieces)
            for cut, cut_line in iter_record_cut_points(
                locator,
                data_start,
                size,
                range(data_start + step, size, step),
                delimiter=delimiter,
                first_line=first_line,
                csv_quoting=self.csv_quoting,
                opener=open_locator,
            ):
                if start < cut:
                    yield Shard(locator, self.name, start, cut, line)
                    start, line = cut, cut_line
        if start < size:
            yield Shard(locator, self.name, start, size, line)

    @abc.abstractmethod
    def read_shard_lines(
        self,
        locator: str,
        start: int,
        end: Optional[int],
        collect_bad: bool = False,
        first_line: int = 1,
    ) -> Iterator[str]:
        """The worker wire: physical lines of the shard ``[start, end)``.

        Line backends read and decode the exact byte range (both bounds
        are record boundaries from the planner); ``end=None`` streams to
        the file's end.  Rowgroup backends render row groups
        ``[start, end)`` as JSONL — one JSON object per row — so the
        downstream parse/transform/encode pipeline is shared.
        ``collect_bad`` defers UTF-8 decode failures as
        :class:`~repro.util.textio.BadLine` markers (quarantine mode).
        """

    @abc.abstractmethod
    def parse_rows(
        self, spec: RowSpec, first_line: int, lines: List[str], label: str
    ) -> List[List[str]]:
        """Parse one wire chunk into padded row lists, in field order.

        Every failure raises :class:`CLXError` naming ``label`` and the
        absolute line number — the quarantine salvage pass replays
        records through this same method to divert exactly the bad one.
        """

    def iter_shard_values(
        self, locator: str, start: int, end: int, column: Union[str, int]
    ) -> Iterator[str]:
        """One column's values out of a rowgroup shard (profiling side)."""
        raise CLXError(f"{self.name} partitions profile via line shards")

    # ------------------------------------------------------------------
    # Sink side
    # ------------------------------------------------------------------
    def require_sink(self) -> None:
        """Raise unless this process can *write* the format (parent side)."""
        self.require()

    @abc.abstractmethod
    def encode_rows(
        self, output_fields: Sequence[str], rows: List[List[str]], delimiter: str
    ) -> str:
        """Encode transformed rows as sink wire text (worker side).

        For binary sinks this is the *internal* wire (JSONL) the parent
        decodes into the real format; for text sinks it is the final
        sink bytes.
        """

    def header_text(self, output_fields: Sequence[str], delimiter: str) -> str:
        """The encoded sink header ("" for formats without one)."""
        return ""

    def open_sink_writer(
        self, handle: IO[bytes], output_fields: Sequence[str]
    ) -> SinkWriter:
        """A :class:`SinkWriter` materializing wire text into ``handle``.

        Binary-sink backends only; the caller owns the handle's
        lifecycle (atomic temp file + rename).
        """
        raise CLXError(f"{self.name} sinks are plain text; write chunks directly")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Backend] = {}
_BY_SUFFIX: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register a backend under its name and every suffix it claims."""
    if not backend.name:
        raise CLXError("a backend needs a name")
    _BACKENDS[backend.name] = backend
    for suffix in backend.suffixes:
        _BY_SUFFIX[suffix.lower()] = backend


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name, registration order."""
    return tuple(_BACKENDS)


def input_format_names() -> Tuple[str, ...]:
    """Formats the apply/profile input side accepts."""
    return tuple(_BACKENDS)


def sink_format_names() -> Tuple[str, ...]:
    """Formats the apply sink side can write."""
    return tuple(name for name, backend in _BACKENDS.items() if backend.sink_suffix)


def supported_suffixes() -> Tuple[str, ...]:
    """Every registered file suffix, sorted."""
    return tuple(sorted(_BY_SUFFIX))


def backend_by_name(name: str) -> Backend:
    """The backend registered under ``name``.

    Raises:
        CLXError: For an unregistered format name.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise CLXError(
            f"unsupported partition format {name!r}; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    return backend


def backend_for_path(
    path: Union[str, Path], assume_csv: bool = False
) -> Backend:
    """Resolve a partition file's backend from its suffix — loudly.

    Unknown suffixes are an error (the historical behavior silently
    parsed ``.parquet``, ``.txt``, ``.gz``, ... as CSV and profiled
    garbage).  An extensionless file is also an error unless
    ``assume_csv`` says otherwise — the one-release escape hatch for
    suffixless partition layouts.

    Raises:
        CLXError: Naming the file and the supported suffixes.
    """
    suffix = Path(str(path)).suffix.lower()
    backend = _BY_SUFFIX.get(suffix)
    if backend is not None:
        return backend
    if not suffix:
        if assume_csv:
            return _BACKENDS["csv"]
        raise CLXError(
            f"{path}: partition file has no extension, so its format is "
            f"unknown (supported: {', '.join(supported_suffixes())}); "
            "pass --assume-csv to read extensionless files as CSV"
        )
    raise CLXError(
        f"{path}: unsupported partition extension {suffix!r} "
        f"(supported: {', '.join(supported_suffixes())}); "
        "rename the file or convert it to a supported format"
    )
