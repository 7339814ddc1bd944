"""Output checks against the generator's truth.

Every check returns the number of failed operations (rows) and a list
of messages, each naming the workload and the row or task at fault.
The checks read only the files the program wrote and the truth the
generator kept; they never import the program.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import gen

if TYPE_CHECKING:
    from loop import TaskResult

OUTPUT_HEADER = gen.HEADER + ["phone_transformed"]

Verdict = Tuple[int, List[str]]

_ROWS_CELL = re.compile(r"\s{2,}(\d+)(?:\s{2,}|$)")

#: Messages kept per check; the failure count is always complete.
_MAX_MESSAGES = 5


def expected_rows(truths: Sequence[gen.Truth], phones: Sequence[str]) -> List[List[str]]:
    """The exact output rows a correct apply writes, in input order."""
    return [
        [gen.row_id(index), phone, truth.note, truth.expected]
        for index, (truth, phone) in enumerate(zip(truths, phones))
    ]


def check_apply_text(
    workload: str, text: str, expected: Sequence[Sequence[str]]
) -> Verdict:
    """Compare an apply sink with the expected rows, position by position.

    A wrong cell, a dropped row or a swapped row each fail the rows
    they displace; a missing or wrong header fails every row.
    """
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0] != OUTPUT_HEADER:
        got = rows[0] if rows else None
        return len(expected), [f"{workload}: output header {got!r} != {OUTPUT_HEADER!r}"]
    body = rows[1:]
    failed = 0
    messages: List[str] = []
    for index in range(max(len(body), len(expected))):
        got = body[index] if index < len(body) else None
        want = list(expected[index]) if index < len(expected) else None
        if got == want:
            continue
        failed += 1
        if len(messages) < _MAX_MESSAGES:
            messages.append(f"{workload}: row {index + 1}: got {got!r}, want {want!r}")
    if len(body) != len(expected):
        messages.append(f"{workload}: {len(body)} output rows for {len(expected)} input rows")
    return min(failed, len(expected)), messages


class SinkReference:
    """Checks a workload's apply sinks against the first one.

    The first sink is checked in full against the truth; every later
    one must have its digest.  A later sink known by its bytes is also
    checked in full when it differs, so its messages name the rows; one
    known only by its digest (a stream) fails all its rows.
    """

    def __init__(self, workload: str, expected: Sequence[Sequence[str]]) -> None:
        self.workload = workload
        self.expected = expected
        self.digest: Optional[str] = None
        self.failed = 0

    def check(self, what: str, digest: str, body: Optional[bytes] = None) -> Verdict:
        rows = len(self.expected)
        if digest == self.digest:
            return self.failed, []
        if body is None:
            return rows, [f"{self.workload}: {what} differs from the first apply sink"]
        failed, messages = check_apply_text(
            f"{self.workload} ({what})", body.decode("utf-8", errors="replace"),
            self.expected,
        )
        if self.digest is None:
            self.digest, self.failed = digest, failed
            return failed, messages
        messages.insert(0, f"{self.workload}: {what} is not byte-identical to the "
                           "first apply sink")
        return max(failed, 1), messages


def check_exit(workload: str, what: str, code: int, want: int, rows: int) -> Verdict:
    """A CLI call with an unexpected exit code fails all its rows."""
    if code == want:
        return 0, []
    return rows, [f"{workload}: {what} exited {code}, want {want}"]


def check_profile(
    workload: str, stdout: str, truths_formats: Sequence[str]
) -> Verdict:
    """The profile table's per-pattern row counts match the truth's format mix."""
    rows = len(truths_formats)
    # Columns are separated by two or more spaces; a pattern holds at
    # most single spaces (inside quotes).
    counts = [
        int(match.group(1))
        for match in map(_ROWS_CELL.search, stdout.splitlines()[2:])
        if match
    ]
    want = sorted(
        truths_formats.count(name) for name in set(truths_formats)
    )
    if sorted(counts) != want:
        return rows, [f"{workload}: profile pattern counts {sorted(counts)} != {want}"]
    return 0, []


def check_artifact(workload: str, path: Path, rows: int) -> Verdict:
    """A compiled artifact exists, parses, and targets the dash rendering."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        target: Optional[str] = payload["target"]
        payload["program"]["branches"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return rows, [f"{workload}: compile artifact {path.name} unreadable: {exc}"]
    if target != gen.TARGET_NOTATION:
        return rows, [f"{workload}: compile target {target!r} != {gen.TARGET_NOTATION!r}"]
    return 0, []


def check_loop(
    workload: str,
    task: str,
    rows: int,
    verified: bool,
    check_errors: int,
) -> Verdict:
    """A labelling loop must end in a verified artifact that passes check."""
    messages = []
    if not verified:
        messages.append(f"{workload}: task {task}: artifact is UNVERIFIED")
    if check_errors:
        messages.append(
            f"{workload}: task {task}: check --fail-on error found {check_errors} error(s)"
        )
    return (rows if messages else 0), messages


def check_wrong_rows(workload: str, wrong_by_task: Dict[str, int], allowed: int) -> Verdict:
    """One pass of the loop may get at most ``allowed`` rows wrong.

    The suite allows the rows CLX gets wrong against ``task.expected``
    at the reference commit: its accuracy, not a failed call.  The
    excess over ``allowed`` fails.
    """
    total = sum(wrong_by_task.values())
    if total <= allowed:
        return 0, []
    messages = [f"{workload}: {total} rows wrong against the expected outputs "
                f"in one pass, at most {allowed} allowed"]
    messages += [f"{workload}: task {task}: {count} wrong rows"
                 for task, count in wrong_by_task.items() if count][:_MAX_MESSAGES]
    return total - allowed, messages


def check_pass(
    workload: str, results: Sequence["TaskResult"], allowed: int
) -> Tuple[int, Verdict]:
    """Check one pass of the loop: (rows attempted, verdict).

    Every task must end verified and pass check; the whole pass may get
    at most ``allowed`` rows wrong (``check_wrong_rows``).
    """
    rows, failed, messages = 0, 0, []
    for result in results:
        verdict = check_loop(workload, result.task_id, result.rows, result.verified,
                             result.check_errors)
        rows += result.rows
        failed += verdict[0]
        messages += verdict[1]
    wrong = check_wrong_rows(
        workload, {result.task_id: result.wrong_rows for result in results}, allowed)
    return rows, (failed + wrong[0], messages + wrong[1])
