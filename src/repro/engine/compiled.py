"""Compiled UniFi programs: the serializable compile-once artifact.

The interpreter in :mod:`repro.dsl.interpreter` re-resolves everything
per value: every branch match goes through the pattern-keyed regex cache
(hashing the pattern each time) and every plan expression is re-dispatched
with ``isinstance`` checks.  That is fine inside an interactive session
but wrong for CLX's economics — the program is synthesized *once* under
user verification and then applied to the rest of the data, so the apply
half should be as close to raw regex matching as Python allows.

:class:`CompiledProgram` is that artifact.  Compiling resolves, up front:

* the target pattern into a single anchored pass-through regex,
* every branch pattern into a precompiled regex with one capture group
  per token,
* every plan into a flat tuple of ops — constant strings and 0-based
  capture-group slices — with ``Extract`` ranges bounds-checked against
  the branch pattern at compile time, and those ops into one
  ``str.format`` template (constant braces escaped, one positional
  field per extracted group), so rendering an output is a single
  ``render(*match.groups())`` call,
* every guard into a bound predicate (unguarded branches pay nothing),
* the maximal leading run of *unguarded* branches into one merged
  dispatch regex (an alternation with per-branch group namespaces), so
  dispatch costs a single scan instead of one ``match`` per branch.

At run time two further optimizations apply:

* **Merged dispatch.**  Branch order is first-match-wins, which is
  exactly the semantics of a regex alternation — but only while no
  guard can veto a branch.  The merged regex therefore covers the
  leading unguarded branches; ``match.lastindex`` always lands inside
  the alternative that matched (backtracking clears the groups of
  failed alternatives), so a precomputed group→branch table identifies
  the winner without re-matching.  Guarded branches, and every branch
  after the first guard, fall back to the sequential per-branch loop.
* **Value memo.**  Guards and plans are pure functions of the input
  value, so the full :class:`TransformOutcome` for a value can be
  cached.  Real columns are heavy-hitter distributed; a small bounded
  LRU (``memo_size`` entries, least-recently-used eviction) lets
  repeated values skip regex work entirely.  The memo is a runtime
  knob — it is not part of the artifact, does not affect equality or
  serialization, and ``memo_size=0`` disables it.  On mostly-distinct
  columns a memo is pure dict churn, so one bypass policy, shared by
  :meth:`~CompiledProgram.run_one` and :meth:`~CompiledProgram.run`,
  judges it per window of misses: a window under 5% hits parks the memo
  for a fixed stretch of values, after which a new window probes it
  again.  Bypassed values still count as misses, so ``hits + misses``
  is always the number of values seen.

A compiled program is immutable in its observable behaviour, safe to
share across threads (the memo tolerates concurrent access: entries are
pure and eviction races are swallowed), and round-trips through JSON via
:meth:`to_dict` / :meth:`from_dict` / :meth:`dumps` / :meth:`loads`, so
it can be saved to disk and applied by a process that never saw the
original data or session.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.result import TransformReport
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.interpreter import TransformOutcome
from repro.engine.serialize import (
    pattern_from_json,
    pattern_to_json,
    program_from_dict,
    program_to_dict,
)
from repro.patterns.matching import compiled_with_groups
from repro.patterns.pattern import Pattern
from repro.patterns.regex import compile_pattern
from repro.util.errors import SerializationError, TransformError
from repro.util.validate import validated_memo_size

#: One plan op: a constant output string, or a 0-based ``(start, stop)``
#: slice over the branch regex's capture groups.
PlanOp = Union[str, Tuple[int, int]]

#: Default bounded-LRU size for the per-program value memo.
DEFAULT_MEMO_SIZE = 4096

#: Memo misses per probe window.  When a window closes with a hit rate
#: under 5%, the memo is bypassed for the next stretch of values.
_MEMO_BYPASS_WINDOW = 1024

#: Values that skip the memo after a losing window, before it is probed
#: again (so a column that turns heavy-hitter wins the memo back).
_MEMO_BYPASS_STRETCH = 16 * _MEMO_BYPASS_WINDOW


def _compile_plan_ops(
    plan: AtomicPlan, token_count: int, pattern: Pattern, branch_index: int
) -> Tuple[PlanOp, ...]:
    """Flatten ``plan`` into ops, bounds-checking extracts at compile time.

    ``Extract`` carries 1-based, inclusive token indices.  The AST
    constructor validates them, but artifacts rebuilt from the JSON wire
    format (or any other out-of-band construction) can smuggle a
    malformed range past it — and a ``start < 1`` would compile to a
    negative slice that wraps around the capture groups and silently
    emits wrong output.  Every range is therefore re-checked here, and
    rejected with an error naming the branch.
    """
    ops: List[PlanOp] = []
    for expression in plan.expressions:
        if isinstance(expression, ConstStr):
            ops.append(expression.text)
        elif isinstance(expression, Extract):
            if expression.start < 1 or expression.end < expression.start:
                raise TransformError(
                    f"branch {branch_index + 1}: {expression} has an invalid "
                    f"token range (indices are 1-based and end >= start)"
                )
            if expression.end > token_count:
                raise TransformError(
                    f"branch {branch_index + 1}: {expression} out of range for "
                    f"source pattern {pattern.notation()} with {token_count} tokens"
                )
            ops.append((expression.start - 1, expression.end))
        else:  # pragma: no cover - AtomicPlan already rejects these
            raise TransformError(f"unsupported expression {expression!r}")
    return tuple(ops)


def _plan_renderer(ops: Tuple[PlanOp, ...], base: int = 0) -> Callable[..., str]:
    """A ``str.format`` template for ``ops``, called as ``render(*groups)``.

    Constant text is brace-escaped; each group slice becomes one
    positional field per capture group, offset by ``base`` (a branch's
    group offset inside the merged regex).
    """
    parts: List[str] = []
    for op in ops:
        if type(op) is str:
            parts.append(op.replace("{", "{{").replace("}", "}}"))
        else:
            parts.extend(f"{{{group + base}}}" for group in range(op[0], op[1]))
    return "".join(parts).format


class _CompiledBranch:
    """One precompiled Switch arm of the dispatch table."""

    __slots__ = ("pattern", "match", "guard", "ops", "render")

    def __init__(self, branch: Branch, index: int) -> None:
        self.pattern = branch.pattern
        self.match = compiled_with_groups(branch.pattern).match
        self.guard: Optional[Callable[[str], bool]] = (
            branch.guard.holds if branch.guard is not None else None
        )
        self.ops = _compile_plan_ops(
            branch.plan, len(branch.pattern), branch.pattern, index
        )
        self.render = _plan_renderer(self.ops)


def _build_merged_dispatch(
    branches: Sequence[_CompiledBranch],
) -> Tuple[Optional[Callable[[str], Optional[re.Match[str]]]], Tuple[int, ...], Tuple[Callable[..., str], ...], int]:
    """Merge the leading unguarded branches into one alternation regex.

    Returns ``(match, group_to_branch, shifted_renders, prefix)`` where
    ``prefix`` is how many leading branches the merged regex covers.
    ``group_to_branch`` maps a 1-based capture-group number to the index
    of the branch that owns it, and ``shifted_renders[i]`` renders
    branch ``i``'s plan with every group field offset by the branch's
    group base, so it takes the merged match's ``groups()`` directly.

    A merged regex is only built when at least two leading branches are
    unguarded — a guard is a per-value veto the alternation cannot
    express, so the first guarded branch (and everything after it, which
    must not be tried before it) stays on the sequential loop.
    """
    prefix = 0
    for branch in branches:
        if branch.guard is not None:
            break
        prefix += 1
    if prefix < 2:
        return None, (), (), 0
    alternatives: List[str] = []
    group_to_branch: List[int] = [-1]  # capture-group numbers are 1-based
    shifted_renders: List[Callable[..., str]] = []
    for index in range(prefix):
        branch = branches[index]
        tokens = branch.pattern.tokens
        base = len(group_to_branch) - 1  # 0-based offset into match.groups()
        if tokens:
            alternatives.append(
                "(?:" + "".join(f"({token.to_regex()})" for token in tokens) + ")"
            )
            group_to_branch.extend([index] * len(tokens))
        else:
            # An empty pattern matches only "": an empty capture group
            # participates on that match, keeping lastindex dispatch valid.
            alternatives.append("()")
            group_to_branch.append(index)
        shifted_renders.append(_plan_renderer(branch.ops, base))
    merged = re.compile("^(?:" + "|".join(alternatives) + ")$")
    return merged.match, tuple(group_to_branch), tuple(shifted_renders), prefix


class CompiledProgram:
    """A UniFi program + target pattern compiled into a regex dispatch table.

    Args:
        program: The synthesized (and user-verified) UniFi program.
        target: The target pattern; values already matching it pass
            through untouched, exactly as
            :func:`repro.core.transformer.transform_column` does.
        metadata: Optional JSON-serializable annotations (source column
            name, provenance, …) carried through serialization verbatim.
        memo_size: Bound on the value→outcome LRU memo; ``0`` disables
            memoization.  A runtime knob — not serialized, and excluded
            from equality/hashing.
        merged_dispatch: Whether to build the merged dispatch regex over
            the leading unguarded branches.  Disabling it (together with
            ``memo_size=0``) recovers the naive sequential branch loop,
            which the differential test suite uses as its oracle.

    Raises:
        TransformError: If any plan extracts token indices that do not
            exist in its branch's source pattern.
        ValidationError: If ``memo_size`` is not a non-negative integer.
    """

    #: Artifact envelope markers checked on load.
    FORMAT = "clx/compiled-program"
    VERSION = 1

    __slots__ = (
        "_program",
        "_target",
        "_metadata",
        "_target_match",
        "_branches",
        "_memo",
        "_memo_size",
        "_memo_hits",
        "_memo_misses",
        "_probe_start",
        "_probe_hits",
        "_merged_match",
        "_group_to_branch",
        "_merged_renders",
        "_merged_prefix",
    )

    def __init__(
        self,
        program: UniFiProgram,
        target: Pattern,
        metadata: Optional[Dict[str, Any]] = None,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
        merged_dispatch: bool = True,
    ) -> None:
        self._program = program
        self._target = target
        self._metadata: Dict[str, Any] = dict(metadata) if metadata else {}
        # Validate serializability up front: a bad metadata value must
        # fail here, at the call site that supplied it, not later inside
        # dumps() deep in a compile --cache-dir store.
        if self._metadata:
            try:
                # allow_nan=False: NaN/Infinity serialize to non-JSON
                # literals that other readers reject.
                json.dumps(self._metadata, allow_nan=False)
            except (TypeError, ValueError) as error:
                raise SerializationError(
                    f"artifact metadata must be JSON-serializable: {error}"
                ) from error
        self._target_match = compile_pattern(target).match
        self._branches = tuple(
            _CompiledBranch(branch, index)
            for index, branch in enumerate(program.branches)
        )
        self._memo_size = validated_memo_size(memo_size)
        self._memo: Optional[Dict[str, TransformOutcome]] = (
            {} if self._memo_size else None
        )
        self._memo_hits = 0
        self._memo_misses = 0
        # Bypass policy state (see _close_probe_window): the memo is
        # parked while _memo_misses < _probe_start, and _probe_hits is
        # _memo_hits as of the current probe window's start.
        self._probe_start = 0
        self._probe_hits = 0
        if merged_dispatch:
            (
                self._merged_match,
                self._group_to_branch,
                self._merged_renders,
                self._merged_prefix,
            ) = _build_merged_dispatch(self._branches)
        else:
            self._merged_match = None
            self._group_to_branch = ()
            self._merged_renders = ()
            self._merged_prefix = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> UniFiProgram:
        """The source UniFi program."""
        return self._program

    @property
    def target(self) -> Pattern:
        """The target pattern."""
        return self._target

    @property
    def metadata(self) -> Dict[str, Any]:
        """A copy of the artifact's metadata annotations."""
        return dict(self._metadata)

    @property
    def memo_size(self) -> int:
        """The configured memo bound (``0`` = memoization disabled)."""
        return self._memo_size

    @property
    def merged_dispatch(self) -> bool:
        """Whether a merged dispatch regex is active."""
        return self._merged_match is not None

    @property
    def merged_prefix(self) -> int:
        """How many leading branches the merged regex covers (0 if none)."""
        return self._merged_prefix

    def memo_stats(self) -> Dict[str, int]:
        """Memo counters: hits, misses, live entries, and the bound."""
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "entries": len(self._memo) if self._memo is not None else 0,
            "size": self._memo_size,
        }

    def clear_memo(self) -> None:
        """Drop all memo entries and reset the hit/miss counters."""
        if self._memo is not None:
            self._memo.clear()
        self._memo_hits = 0
        self._memo_misses = 0
        self._probe_start = 0
        self._probe_hits = 0

    def __len__(self) -> int:
        return len(self._program)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledProgram):
            return NotImplemented
        return self._program == other._program and self._target == other._target

    def __hash__(self) -> int:
        return hash((self._program, self._target))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(target={self._target.notation()!r}, "
            f"branches={len(self._branches)})"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, value: str) -> Tuple[str, Optional[Pattern]]:
        """One value's ``(output, matched pattern)``, without the memo.

        The pattern is the target for pass-through values and ``None``
        for values no branch matches (output = input).
        """
        if self._target_match(value) is not None:
            return value, self._target
        merged_match = self._merged_match
        if merged_match is not None:
            match = merged_match(value)
            if match is not None:
                last = match.lastindex
                assert last is not None  # every alternative has >= 1 group
                index = self._group_to_branch[last]
                return (
                    self._merged_renders[index](*match.groups()),
                    self._branches[index].pattern,
                )
        for branch in self._branches[self._merged_prefix :]:
            guard = branch.guard
            if guard is not None and not guard(value):
                continue
            match = branch.match(value)
            if match is not None:
                return branch.render(*match.groups()), branch.pattern
        return value, None

    def run_one(self, value: str) -> TransformOutcome:
        """Transform one value (memo, then merged dispatch, then branch loop)."""
        memo = self._memo
        if memo is None or self._memo_misses < self._probe_start:
            output, pattern = self._dispatch(value)
            if memo is not None:
                self._memo_misses += 1  # parked: still counts as a miss
            return TransformOutcome(output, pattern is not None, pattern)
        outcome = memo.pop(value, None)
        if outcome is not None:
            memo[value] = outcome  # re-insert: most-recently-used position
            self._memo_hits += 1
            return outcome
        output, pattern = self._dispatch(value)
        outcome = TransformOutcome(output, pattern is not None, pattern)
        self._memo_misses += 1
        memo[value] = outcome
        if len(memo) > self._memo_size:
            try:
                del memo[next(iter(memo))]  # oldest = least recently used
            except (KeyError, StopIteration):  # pragma: no cover - thread race
                pass
        if self._memo_misses - self._probe_start >= _MEMO_BYPASS_WINDOW:
            self._close_probe_window()
        return outcome

    def _close_probe_window(self) -> None:
        """Judge the memo after a window of misses; park it if it lost.

        Mostly-distinct streams turn the memo into pure dict churn (an
        LRU sees a cyclic stream larger than itself as 100% misses), so
        a window whose hit rate is under 5% parks the memo for the next
        :data:`_MEMO_BYPASS_STRETCH` values; then a new window probes it
        again.  Parking is kept on the miss counter itself: the memo is
        parked while ``_memo_misses < _probe_start``, and parked values
        count as misses, so the stretch ends after exactly that many.
        """
        misses = self._memo_misses
        if (self._memo_hits - self._probe_hits) * 19 < misses - self._probe_start:
            misses += _MEMO_BYPASS_STRETCH
        self._probe_start = misses
        self._probe_hits = self._memo_hits

    def run(self, values: Sequence[str]) -> TransformReport:
        """Batch-transform ``values`` into a :class:`TransformReport`.

        Semantically identical to calling :meth:`run_one` per value, and
        sharing its memo policy; values the memo skips (all of them when
        it is disabled) are dispatched without building an outcome each.
        """
        inputs = list(values)
        outputs: List[str] = []
        matched: List[Optional[Pattern]] = []
        append_output = outputs.append
        append_matched = matched.append
        dispatch = self._dispatch
        run_one = self.run_one
        memo = self._memo
        for value in inputs:
            if memo is None or self._memo_misses < self._probe_start:
                output, pattern = dispatch(value)
                if memo is not None:
                    self._memo_misses += 1
            else:
                outcome = run_one(value)
                output, pattern = outcome.output, outcome.pattern
            append_output(output)
            append_matched(pattern)
        return TransformReport(
            inputs=inputs,
            outputs=outputs,
            matched_pattern=matched,
            target=self._target,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned JSON-serializable artifact envelope."""
        payload = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "target": pattern_to_json(self._target),
            "program": program_to_dict(self._program),
        }
        if self._metadata:
            payload["metadata"] = dict(self._metadata)
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Any,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
        merged_dispatch: bool = True,
    ) -> "CompiledProgram":
        """Rebuild (and recompile) a program from its :meth:`to_dict` form.

        ``memo_size`` and ``merged_dispatch`` configure the rebuilt
        program's runtime dispatch; they are not part of the artifact.

        Raises:
            SerializationError: On a wrong format marker, unsupported
                version, or malformed program payload.
        """
        if not isinstance(payload, dict):
            raise SerializationError(
                f"compiled-program artifact must be an object, got {type(payload).__name__}"
            )
        marker = payload.get("format")
        if marker != cls.FORMAT:
            raise SerializationError(f"unexpected artifact format {marker!r} (want {cls.FORMAT!r})")
        version = payload.get("version")
        if version != cls.VERSION:
            raise SerializationError(f"unsupported artifact version {version!r} (want {cls.VERSION})")
        metadata = payload.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise SerializationError("artifact metadata must be an object")
        if "target" not in payload or "program" not in payload:
            raise SerializationError("artifact is missing 'target' or 'program'")
        return cls(
            program=program_from_dict(payload["program"]),
            target=pattern_from_json(payload["target"]),
            metadata=metadata,
            memo_size=memo_size,
            merged_dispatch=merged_dispatch,
        )

    def dumps(self, indent: Optional[int] = None) -> str:
        """Serialize the artifact to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def loads(
        cls,
        text: str,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
        merged_dispatch: bool = True,
    ) -> "CompiledProgram":
        """Parse a JSON string produced by :meth:`dumps`.

        Raises:
            SerializationError: On malformed JSON or an invalid artifact.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"artifact is not valid JSON: {error}") from error
        return cls.from_dict(
            payload, memo_size=memo_size, merged_dispatch=merged_dispatch
        )


def compile_program(
    program: UniFiProgram,
    target: Pattern,
    metadata: Optional[Dict[str, Any]] = None,
    *,
    memo_size: int = DEFAULT_MEMO_SIZE,
    merged_dispatch: bool = True,
) -> CompiledProgram:
    """Functional spelling of :class:`CompiledProgram`'s constructor."""
    return CompiledProgram(
        program,
        target,
        metadata=metadata,
        memo_size=memo_size,
        merged_dispatch=merged_dispatch,
    )
