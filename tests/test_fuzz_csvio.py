"""Fuzz tests for CSV record-boundary scanning at shard boundaries.

The byte-range fan-out stands on two primitives in :mod:`repro.util.csvio`:

* :func:`record_open_after` — the per-line quote-parity state machine
  (csv-module semantics: a quote is only special at field start, ``""``
  escapes, a stray inch-mark in an unquoted cell is data);
* :func:`iter_record_cut_points` — one sequential scan mapping byte
  targets to *record* boundaries (with their line numbers), which is
  what lets shards split files whose quoted fields contain embedded
  newlines.

The fuzz corpus generates messy CSVs — quoted embedded newlines, ``""``
escapes, stray quotes in unquoted cells, empty fields, CRLF endings —
and asserts, at random shard boundaries:

1. the state machine agrees with the csv module's own parse about where
   records end;
2. aligned offsets always land on true record starts, tagged with the
   physical line number beginning there;
3. byte-range profiling equals whole-file profiling (the lifted
   embedded-newline caveat), at multiple worker counts;
4. the quote-free exit and quote-to-quote jumps of
   :func:`record_open_after` agree with a per-character reference
   state machine, for both carried states and several delimiters.

Seeds print per test; replay with ``CLX_PROPERTY_SEED=<seed>``.
"""

from __future__ import annotations

import csv
import io

import pytest

from repro.clustering.incremental import IncrementalProfiler
from repro.clustering.parallel import ParallelProfiler
from repro.util.csvio import iter_record_cut_points, record_open_after

#: Fuzz rounds per property.
ROUNDS = 25

#: Cell ingredients skewed toward quoting edge cases.
_CELL_POOLS = (
    "plain",
    "has\nnewline",
    "has\n\ntwo newlines",
    'quote " inside',
    '6" nail',
    'starts"with',
    "comma, inside",
    "",
    "ends with space ",
    '""',
    "'single'",
    "multi\nline, with comma",
)


def _random_cell(rng) -> str:
    base = rng.choice(_CELL_POOLS)
    if rng.random() < 0.3:
        base += str(rng.randrange(100))
    return base


def _random_row(rng, columns: int) -> list:
    row = [_random_cell(rng) for _ in range(columns)]
    if not any(row):
        # An all-empty row encodes as a blank line, which csv.reader
        # reports as [] — keep the corpus round-trippable instead.
        row[0] = "x"
    return row


def _random_csv(rng) -> tuple[str, list[list[str]]]:
    """A messy CSV (text, rows) written by the csv module itself."""
    columns = rng.randint(1, 4)
    rows = [_random_row(rng, columns) for _ in range(rng.randint(1, 60))]
    buffer = io.StringIO()
    writer = csv.writer(
        buffer, lineterminator="\r\n" if rng.random() < 0.3 else "\n"
    )
    writer.writerows(rows)
    return buffer.getvalue(), rows


class TestRecordOpenAfter:
    def test_agrees_with_the_csv_module_on_fuzzed_files(self, property_rng):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            context = f"seed={rng.seed_value} round={round_index}"
            # Replaying the state machine over physical lines must close
            # exactly len(rows) records, in order, and end closed.
            open_state = False
            records = 0
            for line in text.splitlines(keepends=True):
                open_state = record_open_after(line, ",", open_state)
                if not open_state:
                    records += 1
            assert open_state is False, context
            assert records == len(rows), context
            # And the csv module parses the text back to the same rows,
            # so the fuzz corpus itself is well-formed.
            assert list(csv.reader(io.StringIO(text))) == rows, context


def _reference_record_open_after(line: str, delimiter: str, open_before: bool) -> bool:
    """The per-character csv state machine ``record_open_after`` must equal."""
    in_quotes = open_before
    field_start = not open_before
    position, length = 0, len(line)
    while position < length:
        char = line[position]
        if in_quotes:
            if char == '"':
                if position + 1 < length and line[position + 1] == '"':
                    position += 2
                    continue
                in_quotes = False
            position += 1
        else:
            if char == '"':
                if field_start:
                    in_quotes = True
                field_start = False
            elif char == delimiter:
                field_start = True
            elif char not in ("\r", "\n"):
                field_start = False
            position += 1
    return in_quotes


#: Lines that stress the quote-free exit and the quote-to-quote jumps.
_HAND_PICKED_LINES = (
    "continuation without quotes\n",  # must stay open when open_before
    "a,b,c\n",
    '7,6" nail,box\n',  # stray mid-field quote is data
    'x,"6"" nail",y\n',
    '"""",""\n',
    '"a""b\n',
    'tail"" of a field",z\n',
    '"lone\rcr",x\r\n',
    "a,\r\n",
    'a,\r"opened after a line break\n',
    '"",\r\n',
    "\r",
    "\r\n",
    "",
    'a;"b;c";d\n',
    'a\t"b\tc"\td\n',
    'a,"b;c\n',
)


class TestRecordOpenAfterMatchesReference:
    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    @pytest.mark.parametrize("open_before", [False, True])
    def test_hand_picked_lines(self, delimiter, open_before):
        for line in _HAND_PICKED_LINES:
            assert record_open_after(line, delimiter, open_before) == (
                _reference_record_open_after(line, delimiter, open_before)
            ), (line, delimiter, open_before)

    def test_quote_free_continuation_stays_open(self):
        assert record_open_after("no quote here\n", ",", True) is True
        assert record_open_after("no quote here\n", ",", False) is False

    def test_fuzzed_physical_lines(self, property_rng):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, _rows = _random_csv(rng)
            context = f"seed={rng.seed_value} round={round_index}"
            for line in text.splitlines(keepends=True):
                for delimiter in (",", ";", "\t"):
                    for open_before in (False, True):
                        assert record_open_after(line, delimiter, open_before) == (
                            _reference_record_open_after(line, delimiter, open_before)
                        ), (context, line, delimiter, open_before)


class TestRecordAlignedOffsets:
    def test_aligned_offsets_are_true_record_starts(self, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            raw = text.encode("utf-8")
            path = tmp_path / f"fuzz-{round_index}.csv"
            path.write_bytes(raw)
            context = f"seed={rng.seed_value} round={round_index}"

            # Ground truth: byte offsets where records begin, via a
            # sequential replay of the state machine.
            starts = []
            position = 0
            open_state = False
            with path.open("rb") as handle:
                while True:
                    if not open_state:
                        starts.append(position)
                    line = handle.readline()
                    if not line:
                        break
                    open_state = record_open_after(line.decode("utf-8"), ",", open_state)
                    position = handle.tell()
            true_starts = set(starts) | {len(raw)}

            targets = sorted(rng.randrange(len(raw) + 1) for _ in range(rng.randint(1, 6)))
            cuts = list(iter_record_cut_points(str(path), 0, len(raw), targets))
            aligned = [offset for offset, _ in cuts]
            assert len(aligned) == len(targets), context
            assert aligned == sorted(aligned), context
            for target, (offset, line) in zip(targets, cuts):
                assert offset >= target, context
                assert offset in true_starts, (context, target, offset)
                assert line == raw.count(b"\n", 0, offset) + 1, (context, offset, line)

    def test_splitting_at_aligned_offsets_partitions_the_records(
        self, property_rng, tmp_path
    ):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            raw = text.encode("utf-8")
            path = tmp_path / f"fuzz-{round_index}.csv"
            path.write_bytes(raw)
            targets = sorted(rng.randrange(len(raw) + 1) for _ in range(rng.randint(1, 5)))
            bounds = (
                [0]
                + [offset for offset, _ in iter_record_cut_points(str(path), 0, len(raw), targets)]
                + [len(raw)]
            )
            pieces = [
                raw[start:end].decode("utf-8")
                for start, end in zip(bounds, bounds[1:])
                if start < end
            ]
            reassembled = [
                row
                for piece in pieces
                for row in csv.reader(io.StringIO(piece))
            ]
            assert reassembled == rows, f"seed={rng.seed_value} round={round_index}"


class TestByteRangeEqualsWholeFile:
    def test_fuzzed_files_profile_identically_at_any_worker_count(
        self, property_rng, tmp_path
    ):
        # The lifted caveat, end to end: byte-range profiling of files
        # with quoted embedded newlines at shard boundaries must equal
        # the whole-file pass.
        rng = property_rng
        for round_index in range(min(ROUNDS, 8)):
            columns = rng.randint(1, 3)
            header = [f"c{i}" for i in range(columns)]
            rows = [_random_row(rng, columns) for _ in range(rng.randint(1, 80))]
            path = tmp_path / f"fuzz-{round_index}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
            column = rng.choice(header)
            expected_values = [row[header.index(column)] for row in rows]
            serial = IncrementalProfiler().profile(iter(expected_values))
            whole = ParallelProfiler(workers=1).profile_file(path, column)
            signature = lambda profile: sorted(
                (pattern.notation(), count)
                for pattern, count in profile.leaf_counts().items()
            )
            context = f"seed={rng.seed_value} round={round_index}"
            assert signature(whole) == signature(serial), context
            for workers in (2, 3, 5):
                sharded = ParallelProfiler(workers=workers).profile_file(path, column)
                assert sharded.row_count == len(rows), (context, workers)
                assert signature(sharded) == signature(serial), (context, workers)
