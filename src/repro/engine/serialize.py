"""JSON serialization of UniFi programs and their parts.

A synthesized program is the expensive artifact of a CLX session — the
user verified it once, and the whole economic argument of the paper is
that it is then applied to the *rest* of the data.  This module gives
every program component a stable JSON form so that a program can outlive
the session that produced it:

* patterns serialize as their compact notation string (``"<D>3'-'<D>4"``),
  which :func:`repro.patterns.parse.parse_pattern` round-trips exactly;
* string expressions, plans, guards, and branches serialize as small
  tagged dicts;
* :func:`program_to_dict` / :func:`program_from_dict` handle a whole
  Switch, and :class:`repro.engine.compiled.CompiledProgram` wraps them
  in a versioned artifact envelope.

Decoding is strict: unknown tags, missing fields, or malformed values
raise :class:`~repro.util.errors.SerializationError` rather than
producing a program that silently misbehaves.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, StringExpression, UniFiProgram
from repro.dsl.guards import ContainsGuard
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.util.errors import CLXError, PatternParseError, SerializationError

#: Registry of guard type tags -> decoder.  New guard kinds register here
#: so serialized programs stay forward-extensible.
GUARD_DECODERS: Dict[str, Callable[[dict], Any]] = {
    "contains": ContainsGuard.from_dict,
}


def _require(payload: Any, key: str, context: str) -> Any:
    if not isinstance(payload, dict):
        raise SerializationError(f"{context} must be an object, got {type(payload).__name__}")
    if key not in payload:
        raise SerializationError(f"{context} is missing required field {key!r}")
    return payload[key]


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
def pattern_to_json(pattern: Pattern) -> str:
    """Serialize a pattern as its notation string (the paper's own syntax)."""
    return pattern.notation()


def pattern_from_json(text: Any) -> Pattern:
    """Parse a serialized pattern, wrapping parse failures as serialization errors."""
    if not isinstance(text, str):
        raise SerializationError(f"pattern must be a notation string, got {type(text).__name__}")
    try:
        return parse_pattern(text)
    except PatternParseError as error:
        raise SerializationError(f"invalid pattern notation {text!r}: {error}") from error


# ----------------------------------------------------------------------
# String expressions and plans
# ----------------------------------------------------------------------
def expression_to_dict(expression: StringExpression) -> dict:
    """Serialize one ``ConstStr`` / ``Extract`` string expression."""
    if isinstance(expression, ConstStr):
        return {"op": "const", "text": expression.text}
    if isinstance(expression, Extract):
        return {"op": "extract", "start": expression.start, "end": expression.end}
    raise SerializationError(f"unsupported string expression {expression!r}")


def expression_from_dict(payload: Any) -> StringExpression:
    """Decode one string expression from its tagged-dict form."""
    op = _require(payload, "op", "string expression")
    try:
        if op == "const":
            text = _require(payload, "text", "ConstStr expression")
            if not isinstance(text, str):
                raise SerializationError(
                    f"ConstStr text must be a string, got {type(text).__name__}"
                )
            return ConstStr(text=text)
        if op == "extract":
            start = _require(payload, "start", "Extract expression")
            end = payload.get("end", start)
            if not isinstance(start, int) or not isinstance(end, int):
                raise SerializationError("Extract start/end must be integers")
            return Extract(start, end)
    except (ValueError, TypeError) as error:
        raise SerializationError(f"invalid string expression {payload!r}: {error}") from error
    raise SerializationError(f"unknown string expression op {op!r}")


def plan_to_dict(plan: AtomicPlan) -> List[dict]:
    """Serialize an atomic plan as the ordered list of its expressions."""
    return [expression_to_dict(expression) for expression in plan.expressions]


def plan_from_dict(payload: Any) -> AtomicPlan:
    """Decode an atomic plan from a list of expression dicts."""
    if not isinstance(payload, list):
        raise SerializationError(f"plan must be a list of expressions, got {type(payload).__name__}")
    return AtomicPlan([expression_from_dict(item) for item in payload])


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
def guard_to_dict(guard: Any) -> Optional[dict]:
    """Serialize a branch guard (``None`` stays ``None``)."""
    if guard is None:
        return None
    to_dict = getattr(guard, "to_dict", None)
    if to_dict is None:
        raise SerializationError(f"guard {guard!r} does not support serialization")
    payload = to_dict()
    if payload.get("type") not in GUARD_DECODERS:
        raise SerializationError(f"guard type {payload.get('type')!r} has no registered decoder")
    return payload


def guard_from_dict(payload: Any) -> Any:
    """Decode a branch guard (``None`` stays ``None``)."""
    if payload is None:
        return None
    kind = _require(payload, "type", "guard")
    decoder = GUARD_DECODERS.get(kind)
    if decoder is None:
        raise SerializationError(f"unknown guard type {kind!r}")
    try:
        return decoder(payload)
    except (KeyError, ValueError, TypeError) as error:
        raise SerializationError(f"invalid guard payload {payload!r}: {error}") from error


# ----------------------------------------------------------------------
# Branches and programs
# ----------------------------------------------------------------------
def branch_to_dict(branch: Branch) -> dict:
    """Serialize one Switch branch."""
    payload = {
        "pattern": pattern_to_json(branch.pattern),
        "plan": plan_to_dict(branch.plan),
    }
    guard = guard_to_dict(branch.guard)
    if guard is not None:
        payload["guard"] = guard
    return payload


def branch_from_dict(payload: Any) -> Branch:
    """Decode one Switch branch."""
    pattern = pattern_from_json(_require(payload, "pattern", "branch"))
    plan = plan_from_dict(_require(payload, "plan", "branch"))
    guard = guard_from_dict(payload.get("guard"))
    return Branch(pattern=pattern, plan=plan, guard=guard)


def program_to_dict(program: UniFiProgram) -> dict:
    """Serialize a whole UniFi program (ordered Switch of branches)."""
    return {"branches": [branch_to_dict(branch) for branch in program.branches]}


def program_from_dict(payload: Any) -> UniFiProgram:
    """Decode a whole UniFi program."""
    branches = _require(payload, "branches", "program")
    if not isinstance(branches, list):
        raise SerializationError("program branches must be a list")
    try:
        return UniFiProgram([branch_from_dict(branch) for branch in branches])
    except SerializationError:
        raise
    except CLXError as error:
        raise SerializationError(f"invalid program payload: {error}") from error


# ----------------------------------------------------------------------
# Sink chunk codecs
# ----------------------------------------------------------------------
# The pipelined table apply ships *encoded* chunks over the worker ->
# parent wire so the parent never runs a codec on its hot path.  Both
# the worker side and the serial (workers=1) path encode through these
# two helpers, so the sink bytes are identical regardless of fan-out.
def _quoted_cell(cell: str, delimiter: str) -> str:
    """Minimal-quote one cell the way csv.QUOTE_MINIMAL would, plus CR."""
    if '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    if delimiter in cell or "\r" in cell or "\n" in cell:
        return '"' + cell + '"'
    return cell


def encode_rows_csv(rows: List[List[str]], delimiter: str = ",") -> str:
    """Encode rows (lists of cells) as CSV text with ``\\n`` line ends.

    With ``lineterminator="\\n"`` the stdlib writer leaves a bare ``\\r``
    inside a cell unquoted — output the csv module itself then refuses
    to parse back ("new-line character seen in unquoted field").  Rows
    containing ``\\r`` therefore take a manual minimal-quoting path that
    treats ``\\r`` like the line break it is; all other rows keep the
    C writer's exact bytes.

    The whole chunk is encoded in one ``writerows`` call first.  The C
    writer copies a cell's ``\\r`` into its output, so when that output
    holds no ``\\r`` no cell had one and the text is final; otherwise
    the chunk is re-encoded row by row.
    """
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=delimiter, lineterminator="\n").writerows(rows)
    text = buffer.getvalue()
    if "\r" not in text:
        return text
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    for row in rows:
        if any(isinstance(cell, str) and "\r" in cell for cell in row):
            buffer.write(
                delimiter.join(_quoted_cell(str(cell), delimiter) for cell in row)
                + "\n"
            )
        else:
            writer.writerow(row)
    return buffer.getvalue()


def encode_rows_jsonl(fieldnames: Sequence[str], rows: List[List[str]]) -> str:
    """Encode rows as JSON Lines, one object per row keyed by the header."""
    return "".join(
        json.dumps(dict(zip(fieldnames, row)), ensure_ascii=False) + "\n" for row in rows
    )
