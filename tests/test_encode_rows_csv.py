"""``encode_rows_csv``'s one-scan path must equal the per-row encoder.

The sink codec encodes a whole chunk with one ``writerows`` call and
keeps that text unless it holds a ``\\r``.  These tests pin the result
byte-for-byte to a per-row reference (the C writer for clean rows, a
manual minimal-quoting path for rows with a ``\\r`` cell) over
hand-picked and fuzzed chunks.

Seeds print per test; replay with ``CLX_PROPERTY_SEED=<seed>``.
"""

from __future__ import annotations

import csv
import io

import pytest

from repro.engine.serialize import encode_rows_csv

#: Fuzz rounds per delimiter.
ROUNDS = 40

DELIMITERS = (",", ";", "\t")


def _reference_quoted_cell(cell: str, delimiter: str) -> str:
    if '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    if delimiter in cell or "\r" in cell or "\n" in cell:
        return '"' + cell + '"'
    return cell


def _reference_encode(rows, delimiter):
    """Row-at-a-time encoding: the bytes the sink has always written."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    for row in rows:
        if any(isinstance(cell, str) and "\r" in cell for cell in row):
            buffer.write(
                delimiter.join(_reference_quoted_cell(str(cell), delimiter) for cell in row)
                + "\n"
            )
        else:
            writer.writerow(row)
    return buffer.getvalue()


def _chunks(delimiter):
    return {
        "clean": [["1", "734-422-8073", "note"], ["2", "", "x"]],
        "line breaks": [["a\nb", "c"], ["d\r\ne", "f"], ["g\rh", "i"]],
        "quotes": [['6" nail', '""', 'say "hi"'], ['"', "plain"]],
        "delimiters": [[f"x{delimiter}y", delimiter, f"{delimiter}lead"]],
        "other delimiters": [["a,b", "c;d", "e\tf"]],
        "non-str cells": [[1, 2.5, None, True], [3, "\r", 4]],
        "empty rows": [[], [""], [], ["a"]],
        "only last row has a cr": [["a", "b"]] * 5 + [["c", "d\re"]],
        "cr next to quote": [['x\r"y"', "z"]],
        "no rows": [],
    }


class TestOneScanMatchesPerRow:
    @pytest.mark.parametrize("delimiter", DELIMITERS)
    def test_hand_picked_chunks(self, delimiter):
        for name, rows in _chunks(delimiter).items():
            assert encode_rows_csv(rows, delimiter) == _reference_encode(rows, delimiter), (
                name,
                delimiter,
            )

    @pytest.mark.parametrize("delimiter", DELIMITERS)
    def test_fuzzed_chunks(self, delimiter, property_rng):
        rng = property_rng
        pieces = ("a", "7", " ", '"', "\r", "\n", "\r\n", ",", ";", "\t", "")
        for round_index in range(ROUNDS):
            width = rng.randint(0, 4)
            rows = [
                [
                    "".join(rng.choice(pieces) for _ in range(rng.randint(0, 5)))
                    for _ in range(width)
                ]
                for _ in range(rng.randint(0, 30))
            ]
            if rng.random() < 0.3:
                # Keep only the last row's \r, the one-scan path's edge.
                rows = [[cell.replace("\r", "") for cell in row] for row in rows]
                rows.append(["tail\r"])
            assert encode_rows_csv(rows, delimiter) == _reference_encode(rows, delimiter), (
                f"seed={rng.seed_value} round={round_index}",
                rows,
            )

    @pytest.mark.parametrize("delimiter", DELIMITERS)
    def test_output_parses_back(self, delimiter):
        rows = [["a\rb", 'c"d', f"e{delimiter}f"], ["g", "h\r\ni", ""]]
        text = encode_rows_csv(rows, delimiter)
        assert list(csv.reader(io.StringIO(text), delimiter=delimiter)) == rows
