"""CSV record-boundary detection over physical lines.

The pipelined fan-out layers chunk CSV *lines* without parsing them, so
they need one question answered cheaply and correctly: after this
physical line, is a record still open (i.e. does a quoted field continue
onto the next line)?  Counting quote characters is not enough — the csv
module only treats ``"`` as a quote when it opens a field, so a stray
inch-mark in an unquoted cell (``6" nail``) is literal data, and exactly
that kind of messy value is this project's bread and butter.

:func:`record_open_after` walks a line with the same state machine the
csv module applies (field-start quoting, ``""`` escapes, delimiter
resets), carrying the open/closed state across lines of the same
record.  It is on every framing path (worker chunking, the header
scan, the cut scan), so it costs next to nothing on the common line:
one that starts a record and holds no quote returns ``False`` after a
single ``in`` test, and a line with quotes jumps from quote to quote
with ``str.find`` instead of stepping through every character.

:func:`iter_record_cut_points` lifts that state machine to whole
files: one sequential quote-parity scan maps byte targets to the
nearest *record* boundaries at or past them, with their line numbers.
The backend shard planner
(:meth:`~repro.dataset.backends.base.Backend.plan_shards`) cuts every
profile and apply shard with it, so files whose quoted fields contain
embedded newlines shard correctly.
"""

from __future__ import annotations

from typing import IO, Callable, Iterator, Optional, Sequence, Tuple, Union

from repro.util.errors import ValidationError

QUOTE = '"'
_QUOTE_BYTE = b'"'


def _open_local(path: str) -> IO[bytes]:
    return open(path, "rb")


def resolve_column(header: Sequence[str], column: Union[str, int]) -> str:
    """Resolve a column given by name or zero-based index against a header.

    Accepts a column name, an ``int`` index, or a digit string (how an
    index arrives from the CLI).  Every layer that addresses CSV columns
    (the CLI, the parallel profiler, the table executor) resolves
    through here, so the lookup rules and the error message stay in
    lockstep.

    Raises:
        ValidationError: If the column matches nothing in the header.
    """
    if isinstance(column, int) and not isinstance(column, bool):
        if 0 <= column < len(header):
            return header[column]
    elif isinstance(column, str):
        if column in header:
            return column
        if column.isdigit() and int(column) < len(header):
            return header[int(column)]
    raise ValidationError(
        f"column {column!r} not found; available: {', '.join(header)}"
    )


def record_open_after(line: str, delimiter: str, open_before: bool = False) -> bool:
    """Whether a CSV record is still inside a quoted field after ``line``.

    Args:
        line: One physical line, with or without its trailing newline.
        delimiter: The CSV delimiter.
        open_before: State carried from the previous physical line of
            the same record (``False`` at a record boundary).

    Returns:
        ``True`` when the line ends inside a quoted field, i.e. the
        record continues on the next physical line.
    """
    if not open_before and QUOTE not in line:
        return False  # no quote to open a field with: nothing to track
    find = line.find
    # Characters that leave the field-start state alone (the csv module
    # skips line breaks there), unless one of them is the delimiter.
    neutral = "\r\n".replace(delimiter, "")
    in_quotes = open_before
    # A quote is only special at the start of a field; when resuming a
    # continuation line we are mid-field by definition.
    field_start = not open_before
    position = 0
    while True:
        quote = find(QUOTE, position)
        if quote < 0:
            return in_quotes
        if in_quotes:
            if line.startswith(QUOTE, quote + 1):
                position = quote + 2  # "" escape: stays inside the field
                continue
            in_quotes = False
        else:
            # The quote opens a field iff the last character before it
            # that is not a line break is a delimiter; with none since
            # ``position``, the field-start state carries over.
            back = quote - 1
            while back >= position and line[back] in neutral:
                back -= 1
            if back >= position:
                field_start = line[back] == delimiter
            in_quotes = field_start
        field_start = False
        position = quote + 1


def iter_record_cut_points(
    path: str,
    start: int,
    end: int,
    targets: Sequence[int],
    delimiter: str = ",",
    first_line: int = 1,
    csv_quoting: bool = True,
    opener: Optional[Callable[[str], IO[bytes]]] = None,
) -> Iterator[Tuple[int, int]]:
    """Stream record-aligned cuts with their line numbers, one per target.

    One sequential pass over ``path``'s byte range ``[start, end)``
    (``start`` must be a record boundary, e.g. the first data byte after
    the header) maps each ascending target offset to the first
    **record** start at or after it, so splitting at the cuts never
    cuts a quoted field.  The shard planner still owes callers exact
    error locations, so each cut comes out as ``(offset,
    line_number)`` — the 1-based *physical* line number of the line
    beginning at ``offset``, counted from ``first_line`` at ``start``.
    Cuts are **yielded as the scan finds them**, so a consumer can
    dispatch work on early cuts while the tail of a huge file is still
    being scanned.  Targets at or past the last record start map to
    ``(end, <line scanning stopped at>)``; the resulting empty shard is
    the caller's to drop.

    Two scanning modes:

    * ``csv_quoting=True`` — full csv record semantics.  The quote
      state machine only runs on lines that *contain* a quote byte (or
      continue an open record); quote-free regions advance at
      ``readline`` speed.
    * ``csv_quoting=False`` — every physical line is a record (JSON
      Lines: a literal newline cannot appear inside a JSON string), so
      alignment is pure newline alignment plus line counting.

    ``opener`` substitutes the binary open (remote partitions hand in
    :func:`~repro.dataset.backends.remote.open_locator`); the default is
    the builtin local open.  Scanned lines decode with
    ``errors="replace"``: a quote is an ASCII byte no invalid sequence
    can swallow, so alignment stays exact over undecodable bytes and
    the *reader* of the shard owns reporting (or quarantining) them.
    """
    remaining = list(targets)
    if any(later < earlier for earlier, later in zip(remaining, remaining[1:])):
        raise ValidationError("record cut-point targets must be ascending")
    line_number = first_line
    open_binary = opener if opener is not None else _open_local
    with open_binary(path) as handle:
        handle.seek(start)
        position = start
        record_open = False
        while remaining and position < end:
            if not record_open:
                while remaining and remaining[0] <= position:
                    yield position, line_number
                    remaining.pop(0)
            line = handle.readline()
            if not line:
                break
            if csv_quoting and (record_open or _QUOTE_BYTE in line):
                record_open = record_open_after(
                    line.decode("utf-8", errors="replace"), delimiter, record_open
                )
            line_number += 1
            position = handle.tell()
    for _ in remaining:
        yield end, line_number
