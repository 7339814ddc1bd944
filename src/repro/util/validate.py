"""Shared validation of the knobs every scale path exposes.

``workers`` and ``chunk_size`` appear on :meth:`TransformEngine.run_iter`,
:meth:`TransformEngine.run_parallel`, :class:`ShardedExecutor`, the
parallel profiler, and three CLI subcommands.  Before this module each
layer checked them differently (or not at all); these helpers give one
message shape, so a bad value fails the same way no matter which door
it came in through.

:func:`validated_workers` resolves ``None`` to ``os.cpu_count()`` for
the entry points whose contract is "default to all cores"
(``run_parallel``, the executors, ``ParallelProfiler``).  One
deliberate exception: the table APIs (``transform_table`` /
``apply_table``) treat ``workers=None`` as the in-process single pass
for backward compatibility, and only route explicit values through
this check.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.errors import ValidationError


def validated_workers(workers: Optional[int], name: str = "workers") -> int:
    """Resolve and validate a worker count.

    ``None`` resolves to ``os.cpu_count()``; anything below 1 (or a
    non-integer) raises :class:`~repro.util.errors.ValidationError`.
    """
    if workers is None:
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValidationError(
            f"{name} must be a positive integer, got {type(workers).__name__}"
        )
    if workers < 1:
        raise ValidationError(f"{name} must be >= 1, got {workers}")
    return workers


def validated_chunk_size(chunk_size: int, name: str = "chunk_size") -> int:
    """Validate a chunk size (must be a positive integer)."""
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise ValidationError(
            f"{name} must be a positive integer, got {type(chunk_size).__name__}"
        )
    if chunk_size < 1:
        raise ValidationError(f"{name} must be >= 1, got {chunk_size}")
    return chunk_size


def validated_memo_size(memo_size: int, name: str = "memo_size") -> int:
    """Validate a dispatch-memo bound.

    Unlike ``workers``/``chunk_size``, zero is a meaningful value here —
    it disables memoization rather than asking for an empty cache — so
    only negative values and non-integers are rejected.
    """
    if isinstance(memo_size, bool) or not isinstance(memo_size, int):
        raise ValidationError(
            f"{name} must be a non-negative integer, got {type(memo_size).__name__}"
        )
    if memo_size < 0:
        raise ValidationError(f"{name} must be >= 0, got {memo_size}")
    return memo_size
