"""Seeded truth -> render generator for the benchmark's input files.

Truth is what a row *is*: a phone number's (area, prefix, line) and a
free-text note.  Rendering is how it was written down: which phone
format, whether values repeat (all distinct, or drawn from a Zipf pool
of heavy hitters), and how hostile the CSV is (quote-free, or notes
with commas, doubled quotes, embedded newlines and carriage returns).
The renderer writes the input CSV; the truth stays with the benchmark
and yields the expected output of every row, so the checker never
trusts anything the program produced.

The same seed gives byte-identical files; nothing here imports the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

#: The six separable phone formats and their weights (the bare
#: 10-digit run is left out: no token-level program can split it).
FORMATS: Sequence[Tuple[str, float]] = (
    ("paren_space", 0.30),  # (734) 645-8397
    ("paren_tight", 0.20),  # (734)586-7252
    ("dashes", 0.22),  # 734-422-8073
    ("dots", 0.12),  # 734.236.3466
    ("spaces", 0.08),  # 734 422 8073
    ("plus_one", 0.05),  # +1 734-285-5210
)

#: The Zipf pool: how many distinct numbers, and the rank exponent.
ZIPF_POOL = 512
ZIPF_S = 1.1

#: The target every phone cell is normalized to: the dash rendering.
TARGET_NOTATION = "<D>3'-'<D>3'-'<D>4"

HEADER = ["id", "phone", "note"]

_WORDS = (
    "call", "back", "after", "lunch", "front", "desk", "manager", "closed",
    "weekend", "fax", "mobile", "office", "ext", "voicemail", "cash", "only",
)
_HOSTILE = (
    'said "call me", maybe',
    'a ""quoted"" word',
    "line one\nline two",
    "carriage\rreturn",
    "both\r\nendings, here",
    '"', ",", "trailing newline\n", "trailing return\r",
)


@dataclass(frozen=True)
class Truth:
    """One row's ground truth."""

    area: str
    prefix: str
    line: str
    note: str

    @property
    def expected(self) -> str:
        return render_phone("dashes", self)


def render_phone(fmt: str, truth: Truth) -> str:
    area, prefix, line = truth.area, truth.prefix, truth.line
    return {
        "paren_space": f"({area}) {prefix}-{line}",
        "paren_tight": f"({area}){prefix}-{line}",
        "dashes": f"{area}-{prefix}-{line}",
        "dots": f"{area}.{prefix}.{line}",
        "spaces": f"{area} {prefix} {line}",
        "plus_one": f"+1 {area}-{prefix}-{line}",
    }[fmt]


@dataclass(frozen=True)
class Render:
    """Rendering knobs: value distribution and CSV hostility."""

    distribution: str  # "distinct" or "zipf"
    hostile_share: float  # share of rows whose note needs CSV quoting


def _number(rng: random.Random) -> Tuple[str, str, str]:
    return (
        str(rng.randrange(200, 990)),
        str(rng.randrange(200, 990)),
        f"{rng.randrange(10000):04d}",
    )


def _note(rng: random.Random, hostile_share: float) -> str:
    if hostile_share and rng.random() < hostile_share:
        return rng.choice(_WORDS) + " " + rng.choice(_HOSTILE)
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 4)))


def _format(rng: random.Random) -> str:
    names = [name for name, _ in FORMATS]
    return rng.choices(names, weights=[weight for _, weight in FORMATS])[0]


def generate(
    rows: int, render: Render, seed: int
) -> Tuple[List[Truth], List[str], List[str]]:
    """(truths, rendered phone cells, their format names) for ``rows`` rows."""
    rng = random.Random(f"perfbench:{seed}:{render}")
    if render.distribution == "distinct":
        cells = []
        numbers = []
        for _ in range(rows):
            numbers.append(_number(rng))
            cells.append(_format(rng))
    elif render.distribution == "zipf":
        pool = [(_number(rng), _format(rng)) for _ in range(ZIPF_POOL)]
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ZIPF_POOL)]
        picks = rng.choices(pool, weights=weights, k=rows)
        numbers = [number for number, _ in picks]
        cells = [fmt for _, fmt in picks]
    else:
        raise ValueError(f"unknown distribution {render.distribution!r}")
    truths = [
        Truth(area, prefix, line, _note(rng, render.hostile_share))
        for area, prefix, line in numbers
    ]
    phones = [render_phone(fmt, truth) for fmt, truth in zip(cells, truths)]
    return truths, phones, cells


def compile_sample(seed: int, rows: int = 300) -> Tuple[List[Truth], List[str]]:
    """A separate sample over all six formats, as the artifact is compiled from."""
    rng = random.Random(f"perfbench-sample:{seed}")
    names = [name for name, _ in FORMATS]
    formats = names + [_format(rng) for _ in range(rows - len(names))]
    rng.shuffle(formats)
    truths = [Truth(*_number(rng), note="") for _ in formats]
    return truths, [render_phone(fmt, truth) for fmt, truth in zip(formats, truths)]


def row_id(index: int) -> str:
    return f"r{index:07d}"


def _cell(value: str) -> str:
    # csv.writer leaves a lone "\r" unquoted under a "\n" terminator,
    # which makes the file ambiguous; quote every cell that needs it.
    if any(char in value for char in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_csv(path: Path, truths: Sequence[Truth], phones: Sequence[str]) -> None:
    """Write the rendered input table (``id,phone,note``, "\\n" records)."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(HEADER) + "\n")
        handle.writelines(
            f"{row_id(index)},{_cell(phone)},{_cell(truth.note)}\n"
            for index, (truth, phone) in enumerate(zip(truths, phones))
        )


def write_header_only(path: Path) -> None:
    path.write_text(",".join(HEADER) + "\n", encoding="utf-8")
