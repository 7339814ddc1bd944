"""Command-line interface for the CLX reproduction.

The CLI exposes the cluster–label–transform loop over CSV files so the
library can be used without writing Python:

``repro-clx profile data.csv --column phone``
    Print the pattern clusters of a column (the Figure 3 view).  The
    column is profiled in one streaming pass with bounded memory, so
    arbitrarily large CSVs work.  Inputs may be several paths, globs
    (``'data/part-*.csv'``), or directories — a partitioned dataset
    profiles as one column, CSV and JSONL parts alike.

``repro-clx transform data.csv --column phone --target-example "734-422-8073"``
    Synthesize a program for the column, print the explained Replace
    operations, and write the transformed CSV (stdout or ``--output``).

``repro-clx compile data.csv --column phone --target-example "734-422-8073" --output phone.clx.json``
    Synthesize a program and save it as a serializable ``.clx.json``
    artifact instead of transforming anything — the compile-once half.

``repro-clx apply phone.clx.json other.csv --column phone``
    Stream any CSV through a saved artifact without re-profiling or
    re-synthesizing — the apply-anywhere half.  Several artifacts apply
    to several columns in the same single pass (``apply a.clx.json
    b.clx.json table.csv --column one --column two``); ``--workers N``
    fans raw CSV chunks across N processes that parse, transform, and
    re-encode worker-side, so the parent only splices ordered encoded
    chunks into the sink; ``--format jsonl`` emits JSON Lines through
    the same streaming writer.  The input may be a glob or directory
    (plus extra ``--input`` paths) mixing CSV and JSONL partitions
    freely — every part is parsed worker-side in its own format, and
    whole parts (byte-range shards of large ones) stream through the
    pool *concurrently*, so small-file latencies overlap.  Partitions
    either splice into one sink in stable order, or — with
    ``--output-dir`` — write one output per partition, preserving
    partition names (final extension follows the sink format).  File
    sinks are crash-safe (same-directory temp + atomic rename), and
    ``--output-dir`` runs keep a ``.clx-apply.json`` manifest so
    ``--resume`` skips already-complete partitions.  ``--on-error
    quarantine --quarantine-dir DIR`` diverts bad records (and, with
    ``--max-retries``/``--shard-timeout``, poison shards) to
    per-partition JSONL quarantine files instead of aborting; exit
    codes: 0 clean, 1 rows flagged for review, 2 error, 3 records
    quarantined.

``repro-clx check phone.clx.json [--json] [--fail-on warn]``
    Statically analyze saved artifacts *before* trusting them with a
    blind apply: dead dispatch arms (subsumed or shadowed branches),
    order-dependent overlaps, ReDoS-prone regexes (structural scan plus
    a bounded empirical probe), degenerate plans and guards, the
    output-language flow verdicts, and — with ``--profile data.csv
    --column C`` — profiled clusters no branch matches.  Several
    artifacts are also checked for cross-artifact conflicts and static
    pipeline composition.  Findings carry stable rule ids (``CLX001``…);
    the exit code is 1 when any finding reaches ``--fail-on`` (default
    ``error``), 0 otherwise.  With ``--cache-dir DIR`` an artifact may
    be named by its registry fingerprint prefix (the ``fingerprint``
    column of ``artifacts list``) instead of a file path.

``repro-clx verify phone.clx.json [--json] [--fail-on warn]``
    The flow verdicts alone, with one verdict line per artifact:
    ``verified`` means every live transforming branch provably emits
    only target-shaped values (rules CLX015/CLX016), so applying the
    artifact never produces a malformed value it didn't already
    receive.  Several artifacts are additionally checked as a pipeline
    (CLX019–CLX021: broken, leaky, or re-transforming chains).  Accepts
    registry fingerprint prefixes with ``--cache-dir`` like ``check``.

``repro-clx artifacts list --cache-dir DIR`` / ``artifacts gc``
    Inspect and garbage-collect a compile cache through its
    ``registry.json`` manifest: ``list`` shows every compiled artifact
    (column fingerprint, target, stats, lint summary, and the
    ``verified`` proof bit — ``stale`` when the row was stamped by an
    older analyzer ruleset; ``--json`` for machines), ``gc``
    prunes dangling manifest rows and unreferenced artifact files — and
    with ``--keep-days N`` also evicts artifacts whose last use (cache
    hits stamp ``last_used_at``) is older than N days, while
    ``--max-bytes N`` evicts least-recently-used artifacts until the
    survivors fit an N-byte budget.

``repro-clx suite``
    Print the statistics of the bundled 47-task benchmark suite (Table 6).

Every command is also callable programmatically via :func:`main`, which
takes an ``argv`` list and returns a process exit code — that is how the
test suite drives it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.dataset.dataset import Dataset
    from repro.engine.cache import ArtifactCache
    from repro.engine.compiled import CompiledProgram

from repro.clustering.incremental import DEFAULT_EXEMPLAR_CAP, IncrementalProfiler
from repro.core.session import CLXSession
from repro.engine.compiled import DEFAULT_MEMO_SIZE
from repro.engine.executor import TransformEngine
from repro.util.csvio import resolve_column
from repro.util.errors import CLXError
from repro.util.text import format_table
from repro.util.validate import (
    validated_chunk_size,
    validated_memo_size,
    validated_workers,
)


# Column addressing (name or zero-based index) resolves through the
# shared helper so the CLI, profiler, and table executor agree.
_resolve_column = resolve_column


def _reject_ragged(row: dict, line_num: int, header: List[str], path: Path) -> None:
    """Refuse rows with more cells than the header (DictReader restkey).

    ``csv.DictReader`` parks surplus cells under the ``None`` restkey;
    left alone they later explode inside ``csv.DictWriter`` as an opaque
    ``ValueError: dict contains fields not in fieldnames``.  Fail fast
    and name the offending row instead.
    """
    extras = row.get(None)
    if extras:
        raise CLXError(
            f"{path} line {line_num}: row has {len(header) + len(extras)} cells "
            f"but the header has {len(header)} columns; fix the row or re-export "
            "the CSV"
        )


def _read_column(path: Path, column: str, delimiter: str) -> tuple[List[dict], List[str], str]:
    """Read a CSV file and return (rows, header, resolved column name)."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise CLXError(f"{path} has no header row")
        header = list(reader.fieldnames)
        rows = []
        for row in reader:
            _reject_ragged(row, reader.line_num, header, path)
            rows.append(row)
    return rows, header, _resolve_column(header, column)


def _dataset_column_name(dataset: "Dataset", column: str, delimiter: str) -> str:
    """The resolved column name recorded on artifacts, per the dataset.

    Resolved against the first part whose backend exposes column names
    (a CSV header, a parquet schema) so a zero-based index becomes a
    name; an all-JSONL dataset addresses keys by name already.
    """
    from repro.dataset.backends import backend_by_name

    for part in dataset.parts:
        names = backend_by_name(part.format).column_names(part, delimiter)
        if names is not None:
            return _resolve_column(names, column)
    return str(column)


def _command_profile(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise CLXError(f"--samples must be >= 0, got {args.samples}")
    workers = validated_workers(args.workers, "--workers")
    profiler = IncrementalProfiler(exemplar_cap=max(args.samples, DEFAULT_EXEMPLAR_CAP))
    # One shard source per partition (byte ranges within large parts),
    # merged via the associative profile reduce; with one worker the
    # same dataset streams serially in process, constant memory.
    from repro.clustering.parallel import ParallelProfiler
    from repro.dataset import Dataset

    dataset = Dataset.resolve(args.inputs, assume_csv=args.assume_csv)
    parallel = ParallelProfiler(profiler=profiler, workers=workers)
    profile = parallel.profile_dataset(dataset, args.column, delimiter=args.delimiter)
    session = CLXSession.from_profile(profile)
    table = [
        (summary.pattern.notation(), summary.count, ", ".join(summary.samples))
        for summary in session.pattern_summary(max_samples=args.samples)
    ]
    print(format_table(["pattern", "rows", "examples"], table))
    return 0


def _resolve_output_column(header: List[str], column: str, requested: Optional[str]) -> str:
    """Pick the added column's name, refusing collisions with the header."""
    output_column = requested or f"{column}_transformed"
    if output_column in header:
        raise CLXError(
            f"output column {output_column!r} already exists in the CSV header; "
            "pick a different --output-column"
        )
    return output_column


def _label_session(session: CLXSession, args: argparse.Namespace) -> bool:
    """Label the session's target from the CLI flags (False = usage error)."""
    if args.target_pattern:
        session.label_target_from_notation(args.target_pattern)
    elif args.target_example:
        session.label_target_from_string(args.target_example, generalize=args.generalize)
    else:
        print("error: provide --target-pattern or --target-example", file=sys.stderr)
        return False
    return True


def _command_transform(args: argparse.Namespace) -> int:
    rows, header, column = _read_column(Path(args.csv), args.column, args.delimiter)
    output_column = _resolve_output_column(header, column, args.output_column)
    values = [row[column] or "" for row in rows]
    session = CLXSession(values)
    if not _label_session(session, args):
        return 2

    report = session.transform()
    print("Synthesized Replace operations:", file=sys.stderr)
    for operation in session.explain():
        print(f"  {operation}", file=sys.stderr)
    print(
        f"{report.conforming_count}/{report.row_count} rows match the target; "
        f"{report.flagged_count} flagged for review",
        file=sys.stderr,
    )

    out_header = header + [output_column]
    destination = Path(args.output) if args.output else None
    handle = destination.open("w", newline="", encoding="utf-8") if destination else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=out_header, delimiter=args.delimiter)
        writer.writeheader()
        for row, output in zip(rows, report.outputs):
            row = dict(row)
            row[output_column] = output
            writer.writerow(row)
    finally:
        if destination:
            handle.close()
    return 0 if report.flagged_count == 0 else 1


def _command_compile(args: argparse.Namespace) -> int:
    if not (args.target_pattern or args.target_example):
        print("error: provide --target-pattern or --target-example", file=sys.stderr)
        return 2
    # Streaming path: profile the column with bounded memory, then open
    # the session on the profile — the raw data is never materialized.
    # Inputs resolve as a dataset, so globs and partitioned columns
    # compile exactly like a single CSV.
    from repro.dataset import Dataset

    dataset = Dataset.resolve(args.inputs, assume_csv=args.assume_csv)
    dataset.check_column(args.column, args.delimiter)
    column = _dataset_column_name(dataset, args.column, args.delimiter)
    profile = IncrementalProfiler().profile(
        dataset.iter_values(args.column, args.delimiter)
    )

    # Content-addressed artifact cache: same column distribution + same
    # target + same flags = same program, so a hit skips synthesis.
    # Hits resolve through the registry manifest, so separate sessions
    # (and hosts sharing the directory) discover each other's programs.
    cache: Optional["ArtifactCache"] = None
    key: Optional[str] = None
    compiled: Optional["CompiledProgram"] = None
    target_spec = ""
    flags: Dict[str, Any] = {}
    if args.cache_dir:
        from repro.engine.cache import ArtifactCache, cache_key

        cache = ArtifactCache(args.cache_dir)
        if args.target_pattern:
            target_spec, flags = f"pattern:{args.target_pattern}", {}
        else:
            target_spec, flags = (
                f"example:{args.target_example}",
                {"generalize": args.generalize},
            )
        # The column name is part of the key: the artifact's metadata
        # records it, and a later `apply` resolves the column from that
        # metadata — a hit across identically-distributed but
        # differently-named columns would silently transform the wrong
        # column.
        flags["column"] = column
        key = cache_key(profile.fingerprint(), target_spec, flags)
        compiled = cache.load_registered(key)

    cache_hit = compiled is not None
    if compiled is None:
        session = CLXSession.from_profile(profile)
        if not _label_session(session, args):
            return 2
        compiled = session.compile(
            metadata={
                "column": column,
                "source_csv": dataset.describe(),
                "source_rows": profile.row_count,
            }
        )

    # Lint the artifact before it is cached or written: dead arms,
    # order-dependent overlaps, ReDoS-prone regexes, flow verdicts, and
    # clusters of this very profile the program does not cover.
    # Warnings go to stderr; --strict refuses to emit an artifact with
    # any of them — in particular an unverifiable one.
    from repro.analysis import RULESET_VERSION, Severity, analyze_program, is_verified

    artifact_name = Path(args.output).name if args.output else "<compile>"
    analysis = analyze_program(
        compiled, name=artifact_name, hierarchy=profile.to_hierarchy()
    )
    verified = is_verified(analysis.findings)
    flagged = analysis.at_least(Severity.WARN)
    if flagged:
        print("analysis findings:", file=sys.stderr)
        for item in flagged:
            print(f"  {item.render()}", file=sys.stderr)
    if args.strict and not verified:
        print(
            "error: --strict compile refused: the artifact is not verifiable — "
            "some live branch may emit a value outside the target (CLX015/"
            "CLX016, see above); no artifact written",
            file=sys.stderr,
        )
        return 1
    if args.strict and flagged:
        print(
            f"error: --strict compile refused: {len(flagged)} finding(s) at "
            "warn severity or above (see above); no artifact written",
            file=sys.stderr,
        )
        return 1

    if cache_hit:
        assert cache is not None and key is not None
        print(
            f"cache hit: reusing artifact {cache.path(key)} (no synthesis)",
            file=sys.stderr,
        )
    elif cache is not None:
        assert key is not None
        # The manifest row carries the severity counts plus the flow
        # verdict and the ruleset version that produced them, so
        # `artifacts list` can surface the proof — and flag summaries
        # stamped by an older analyzer as stale.
        analysis_summary = analysis.summary()
        analysis_summary["verified"] = int(verified)
        analysis_summary["rules"] = RULESET_VERSION
        stored = cache.store_registered(
            key,
            compiled,
            fingerprint=profile.fingerprint(),
            target=target_spec,
            flags=flags,
            source=dataset.describe(),
            stats={"rows": profile.row_count, "clusters": profile.cluster_count},
            analysis=analysis_summary,
        )
        print(f"cached artifact at {stored}", file=sys.stderr)

    from repro.dsl.explain import explain_program

    print("Synthesized Replace operations:", file=sys.stderr)
    for operation in explain_program(compiled.program):
        print(f"  {operation}", file=sys.stderr)

    text = compiled.dumps(indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(
            f"wrote {len(compiled)}-branch program for target "
            f"{compiled.target.notation()} to {args.output}",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def _paired_apply_columns(
    engines: List[TransformEngine], requested: List[str], header: List[str]
) -> List[str]:
    """Resolve one input column per artifact, by flag or artifact metadata."""
    if requested and len(requested) != len(engines):
        raise CLXError(
            f"{len(engines)} program(s) but {len(requested)} --column flag(s); "
            "give one --column per program (in order) or none to use the "
            "columns recorded in the artifacts"
        )
    columns: List[str] = []
    for position, engine in enumerate(engines):
        if requested:
            column = requested[position]
        else:
            column = engine.compiled.metadata.get("column")
            if not column:
                raise CLXError(
                    f"artifact #{position + 1} records no source column; provide --column"
                )
        column = _resolve_column(header, column)
        if column in columns:
            raise CLXError(f"column {column!r} is targeted by more than one program")
        columns.append(column)
    return columns


def _command_apply(args: argparse.Namespace) -> int:
    workers = validated_workers(args.workers, "--workers")
    chunk_size = validated_chunk_size(args.chunk_size, "--chunk-size")
    memo_size = validated_memo_size(args.memo_size, "--memo-size")
    if args.output_column and len(args.program) > 1:
        raise CLXError(
            "--output-column is ambiguous with multiple programs; "
            "use --in-place or the default <column>_transformed names"
        )
    if args.output and args.output_dir:
        raise CLXError("--output and --output-dir are mutually exclusive")
    if args.on_error == "quarantine" and not args.quarantine_dir:
        raise CLXError("--on-error quarantine needs --quarantine-dir")
    if args.quarantine_dir and args.on_error != "quarantine":
        raise CLXError("--quarantine-dir is only meaningful with --on-error quarantine")
    if args.resume and not args.output_dir:
        raise CLXError("--resume needs --output-dir (it reads the run manifest there)")
    engines = [
        TransformEngine.loads(
            Path(program).read_text(encoding="utf-8"), memo_size=memo_size
        )
        for program in args.program
    ]

    # Cheap pre-flight lint: conflicting artifacts abort before any row
    # streams; dead dispatch arms are only a hint (the artifact still
    # works, it just carries baggage), so they go to stderr.  No regex
    # probes here — apply startup must stay fast.
    from repro.analysis import check_composition, check_conflicts, reachability_only

    if not args.column:
        # Explicit --column flags override artifact metadata, so the
        # metadata-level conflict and composition checks only apply
        # without them (the resolved-column duplicate check below still
        # guards both paths).
        named_programs = [
            (path, engine.compiled) for path, engine in zip(args.program, engines)
        ]
        preflight = check_conflicts(named_programs)
        conflicts = [item for item in preflight if item.rule_id == "CLX013"]
        if conflicts:
            raise CLXError(
                "; ".join(item.message for item in conflicts)
                + " (run 'repro-clx check' on these artifacts for details)"
            )
        for item in preflight:
            if item.rule_id != "CLX013":
                print(f"warning: {item.render()}", file=sys.stderr)
        if len(named_programs) > 1:
            # Static pipeline composition: an artifact reading another's
            # <col>_transformed output forms a chain.  A provably broken
            # chain (CLX019: nothing the producer emits can ever match)
            # aborts before any row streams; leaks and re-transforms are
            # warnings — data still flows, just not the way intended.
            composition = check_composition(named_programs)
            broken = [item for item in composition if item.rule_id == "CLX019"]
            if broken:
                raise CLXError(
                    "; ".join(item.message for item in broken)
                    + " (run 'repro-clx verify' on these artifacts for details)"
                )
            for item in composition:
                print(f"warning: {item.render()}", file=sys.stderr)
    for path, engine in zip(args.program, engines):
        for item in reachability_only(engine.compiled, path):
            print(f"warning: {item.render()}", file=sys.stderr)

    from repro.dataset import Dataset
    from repro.engine.parallel import ShardedTableExecutor, apply_dataset

    dataset = Dataset.resolve(
        [args.csv] + (args.input or []), assume_csv=args.assume_csv
    )

    # The first part defines the dataset field order (CSV header or the
    # keys of the first JSONL object); the executor reconciles every
    # further part against it, so drifted partitions fail loudly
    # instead of splicing mismatched columns into one sink.  Quarantine
    # mode relaxes the pre-flight key scan: a malformed JSONL line must
    # end up quarantined by the apply pass, not abort the run before it
    # starts.
    header = dataset.header(args.delimiter, strict=args.on_error != "quarantine")
    columns = _paired_apply_columns(engines, args.column or [], header)
    if args.in_place:
        output_columns = {column: column for column in columns}
    else:
        output_columns = {
            column: _resolve_output_column(
                header, column, args.output_column if len(columns) == 1 else None
            )
            for column in columns
        }

    from repro.util.pools import FaultPolicy

    fault_policy = FaultPolicy(
        max_retries=args.max_retries, shard_timeout=args.shard_timeout
    )
    with ShardedTableExecutor(
        dict(zip(columns, engines)),
        header,
        output_columns=output_columns,
        out_format=args.format,
        delimiter=args.delimiter,
        source=str(dataset.parts[0].path),
        workers=workers,
        chunk_size=chunk_size,
        on_error=args.on_error,
        fault_policy=fault_policy,
    ) as executor:
        shard_bytes = validated_chunk_size(args.shard_bytes, "--shard-bytes")
        if args.output_dir:
            result = apply_dataset(
                executor, dataset, output_dir=Path(args.output_dir),
                shard_bytes=shard_bytes,
                quarantine_dir=args.quarantine_dir,
                resume=args.resume,
            )
            if result.skipped_parts:
                print(
                    f"resume: skipped {result.skipped_parts} already-complete "
                    "partition(s) recorded in the run manifest",
                    file=sys.stderr,
                )
            print(
                f"wrote {len(result.outputs)} partition(s) to {args.output_dir}",
                file=sys.stderr,
            )
        elif args.output:
            result = apply_dataset(
                executor, dataset, output=Path(args.output), shard_bytes=shard_bytes,
                quarantine_dir=args.quarantine_dir,
            )
        else:
            result = apply_dataset(
                executor, dataset, stream=sys.stdout, shard_bytes=shard_bytes,
                quarantine_dir=args.quarantine_dir,
            )

    branches = sum(len(engine.compiled) for engine in engines)
    print(
        f"applied {branches}-branch program{'s' if len(engines) > 1 else ''} "
        f"to {result.rows} rows; {result.flagged} flagged for review",
        file=sys.stderr,
    )
    if result.quarantined:
        print(
            f"quarantined {result.quarantined} record(s) across "
            f"{len(result.quarantine_files)} partition(s) into {args.quarantine_dir}",
            file=sys.stderr,
        )
        if result.hint:
            print(f"hint: {result.hint}", file=sys.stderr)
        return 3
    return 0 if result.flagged == 0 else 1


def _load_artifact(path_str: str) -> "CompiledProgram":
    """Load one ``.clx.json`` artifact as a CompiledProgram."""
    from repro.engine.compiled import CompiledProgram

    return CompiledProgram.loads(Path(path_str).read_text(encoding="utf-8"))


def _resolve_artifacts(
    specs: Sequence[str], cache_dir: Optional[str]
) -> List[Tuple[str, "CompiledProgram"]]:
    """Resolve artifact specs — file paths or registry fingerprint prefixes.

    A spec naming an existing file loads as a ``.clx.json`` artifact.
    Anything else is treated (with ``--cache-dir``) as a prefix of a
    column fingerprint from the cache's registry manifest — the form
    ``artifacts list`` prints — and must match exactly one row; the
    resolved artifact is then named after the row's artifact file, so
    findings point at something that exists on disk.
    """
    named: List[Tuple[str, "CompiledProgram"]] = []
    registry = None
    for spec in specs:
        path = Path(spec)
        if path.is_file():
            named.append((spec, _load_artifact(spec)))
            continue
        if not cache_dir:
            raise CLXError(
                f"artifact {spec!r} is not a file; to address a cached artifact "
                "by registry fingerprint prefix, pass --cache-dir"
            )
        if registry is None:
            from repro.engine.cache import ArtifactRegistry

            registry = ArtifactRegistry(cache_dir)
        matches = registry.lookup_fingerprint_prefix(spec)
        if not matches:
            raise CLXError(
                f"no registry row in {cache_dir} matches fingerprint prefix "
                f"{spec!r} (see 'repro-clx artifacts list --cache-dir {cache_dir}')"
            )
        if len(matches) > 1:
            listing = ", ".join(
                f"{entry.fingerprint[:12]} -> {entry.artifact or '?'}"
                for entry in matches[:5]
            )
            raise CLXError(
                f"fingerprint prefix {spec!r} is ambiguous in {cache_dir} "
                f"({len(matches)} rows: {listing}); use a longer prefix or "
                "the artifact path"
            )
        entry = matches[0]
        if not entry.artifact:
            raise CLXError(
                f"registry row {entry.fingerprint[:12]} records no artifact file"
            )
        named.append((entry.artifact, _load_artifact(str(Path(cache_dir) / entry.artifact))))
    return named


def _command_check(args: argparse.Namespace) -> int:
    from repro.analysis import Severity, analyze_artifacts, render_json, render_text

    fail_on = Severity.parse(args.fail_on)
    if args.profile and not args.column:
        raise CLXError("--profile requires --column (the column to profile)")
    if args.column and not args.profile:
        raise CLXError("--column only applies together with --profile")

    named = _resolve_artifacts(args.artifact, args.cache_dir)

    hierarchies = None
    if args.profile:
        from repro.dataset import Dataset

        dataset = Dataset.resolve(args.profile)
        dataset.check_column(args.column, args.delimiter)
        profile = IncrementalProfiler().profile(
            dataset.iter_values(args.column, args.delimiter)
        )
        hierarchy = profile.to_hierarchy()
        hierarchies = {name: hierarchy for name, _ in named}

    report = analyze_artifacts(
        named, probe=not args.no_probe, hierarchies=hierarchies
    )
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(fail_on)


def _command_verify(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Severity,
        render_verify_json,
        render_verify_text,
        verify_artifacts,
    )

    fail_on = Severity.parse(args.fail_on)
    named = _resolve_artifacts(args.artifact, args.cache_dir)
    report, verified = verify_artifacts(named)
    if args.json:
        print(render_verify_json(report, verified))
    else:
        print(render_verify_text(report, verified))
    return report.exit_code(fail_on)


def _analysis_cell(analysis: dict) -> str:
    """Compact lint status for the artifacts table, e.g. ``1E/2W``."""
    if not analysis:
        return "-"
    errors = analysis.get("error", 0)
    warns = analysis.get("warn", 0)
    infos = analysis.get("info", 0)
    if not (errors or warns or infos):
        return "clean"
    parts = [
        f"{count}{letter}"
        for count, letter in ((errors, "E"), (warns, "W"), (infos, "I"))
        if count
    ]
    return "/".join(parts)


def _verified_cell(analysis: dict) -> str:
    """Flow-verdict status for the artifacts table.

    ``-`` for pre-analyzer rows, ``stale`` when the summary was stamped
    by a different ruleset than the current analyzer (re-compile to
    refresh the proof), otherwise the recorded verdict.
    """
    from repro.analysis import RULESET_VERSION

    if not analysis:
        return "-"
    if analysis.get("rules") != RULESET_VERSION:
        return "stale"
    return "yes" if analysis.get("verified") else "no"


def _command_artifacts(args: argparse.Namespace) -> int:
    from repro.engine.cache import ArtifactRegistry

    registry = ArtifactRegistry(args.cache_dir)
    if args.action != "gc" and args.keep_days is not None:
        raise CLXError("--keep-days only applies to 'artifacts gc'")
    if args.action != "gc" and args.max_bytes is not None:
        raise CLXError("--max-bytes only applies to 'artifacts gc'")
    if args.action == "gc":
        if args.keep_days is not None and args.keep_days < 0:
            raise CLXError(f"--keep-days must be >= 0, got {args.keep_days}")
        if args.max_bytes is not None and args.max_bytes < 0:
            raise CLXError(f"--max-bytes must be >= 0, got {args.max_bytes}")
        report = registry.gc(keep_days=args.keep_days, max_bytes=args.max_bytes)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                f"removed {len(report['removed_entries'])} manifest row(s) and "
                f"{len(report['removed_files'])} unreferenced artifact file(s)"
            )
        return 0

    entries = registry.entries()
    if args.json:
        print(json.dumps([entry.to_dict() for entry in entries], indent=2, sort_keys=True))
        return 0
    table = [
        (
            entry.fingerprint[:12],
            entry.target,
            entry.flags.get("column", ""),
            entry.stats.get("rows", ""),
            _analysis_cell(entry.analysis),
            _verified_cell(entry.analysis),
            entry.source,
            entry.artifact,
        )
        for entry in entries
    ]
    print(
        format_table(
            [
                "fingerprint",
                "target",
                "column",
                "rows",
                "lint",
                "verified",
                "source",
                "artifact",
            ],
            table,
        )
    )
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    from repro.bench.suite import suite_statistics

    stats = suite_statistics()
    table = [
        (
            row.source,
            row.test_count,
            f"{row.average_size:.1f}",
            f"{row.average_length:.1f}",
            row.max_length,
            ", ".join(row.data_types) if args.verbose else f"{len(row.data_types)} types",
        )
        for row in stats
    ]
    print(format_table(["source", "# tests", "avg size", "avg len", "max len", "data types"], table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-clx",
        description="CLX pattern profiling and verifiable data transformation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    profile = subparsers.add_parser("profile", help="print the pattern clusters of a CSV column")
    profile.add_argument(
        "inputs",
        nargs="+",
        metavar="input",
        help="input file(s): CSV/JSONL paths, globs (quote them), or "
        "directories — a partitioned dataset profiles as one column",
    )
    profile.add_argument("--column", required=True, help="column name or zero-based index")
    profile.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    profile.add_argument(
        "--samples", type=int, default=3, help="sample values per pattern (>= 0)"
    )
    profile.add_argument(
        "--workers",
        type=int,
        default=1,
        help="profile byte-range shards of the file across this many worker "
        "processes and merge (default 1, single-process streaming)",
    )
    profile.add_argument(
        "--assume-csv",
        action="store_true",
        help="treat extensionless input files as CSV instead of refusing "
        "them (files with a known extension keep their format)",
    )
    profile.set_defaults(handler=_command_profile)

    transform = subparsers.add_parser("transform", help="normalize a CSV column to a target pattern")
    transform.add_argument("csv", help="input CSV file (with a header row)")
    transform.add_argument("--column", required=True, help="column name or zero-based index")
    transform.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    transform.add_argument("--target-example", help="a value already in the desired format")
    transform.add_argument(
        "--target-pattern", help="explicit target pattern notation, e.g. \"<D>3'-'<D>4\""
    )
    transform.add_argument(
        "--generalize",
        type=int,
        default=0,
        choices=range(0, 4),
        help="refinement rounds applied to the target example's pattern (0-3)",
    )
    transform.add_argument("--output", help="write the transformed CSV here instead of stdout")
    transform.add_argument("--output-column", help="name of the added column (default <column>_transformed)")
    transform.set_defaults(handler=_command_transform)

    compile_cmd = subparsers.add_parser(
        "compile",
        help="synthesize a program and save it as a .clx.json artifact",
    )
    compile_cmd.add_argument(
        "inputs",
        nargs="+",
        metavar="input",
        help="input file(s): CSV/JSONL paths, globs (quote them), or "
        "directories — the column is profiled across every part",
    )
    compile_cmd.add_argument("--column", required=True, help="column name or zero-based index")
    compile_cmd.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    compile_cmd.add_argument("--target-example", help="a value already in the desired format")
    compile_cmd.add_argument(
        "--target-pattern", help="explicit target pattern notation, e.g. \"<D>3'-'<D>4\""
    )
    compile_cmd.add_argument(
        "--generalize",
        type=int,
        default=0,
        choices=range(0, 4),
        help="refinement rounds applied to the target example's pattern (0-3)",
    )
    compile_cmd.add_argument(
        "--output", help="write the .clx.json artifact here instead of stdout"
    )
    compile_cmd.add_argument(
        "--cache-dir",
        help="content-addressed artifact cache: reuse a previously compiled "
        "artifact when the column distribution, target, and flags match "
        "(zero synthesis on a hit)",
    )
    compile_cmd.add_argument(
        "--strict",
        action="store_true",
        help="refuse to emit an artifact with any analysis finding at warn "
        "severity or above (dead branches, overlaps, ReDoS-prone "
        "regexes, uncovered clusters)",
    )
    compile_cmd.add_argument(
        "--assume-csv",
        action="store_true",
        help="treat extensionless input files as CSV instead of refusing "
        "them (files with a known extension keep their format)",
    )
    compile_cmd.set_defaults(handler=_command_compile)

    check = subparsers.add_parser(
        "check",
        help="statically analyze .clx.json artifacts (dead branches, "
        "overlaps, ReDoS-prone regexes, coverage residuals, conflicts)",
    )
    check.add_argument(
        "artifact",
        nargs="+",
        help=".clx.json artifact(s) written by 'compile', or — with "
        "--cache-dir — registry fingerprint prefixes; several artifacts "
        "are additionally checked for cross-artifact conflicts",
    )
    check.add_argument(
        "--cache-dir",
        help="resolve non-file artifact specs as fingerprint prefixes "
        "against this cache's registry manifest (the 'fingerprint' "
        "column of 'artifacts list')",
    )
    check.add_argument(
        "--profile",
        nargs="+",
        metavar="input",
        help="profile these CSV/JSONL inputs and audit coverage: report "
        "clusters that no branch matches (requires --column)",
    )
    check.add_argument(
        "--column",
        help="column to profile for the coverage audit (name or zero-based "
        "index; only with --profile)",
    )
    check.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    check.add_argument(
        "--fail-on",
        default="error",
        metavar="SEVERITY",
        help="exit 1 when any finding is at or above this severity: "
        "info, warn, or error (default error)",
    )
    check.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the empirical ReDoS probe (structural findings only)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON report (format clx/analysis-report)",
    )
    check.set_defaults(handler=_command_check)

    verify = subparsers.add_parser(
        "verify",
        help="flow-verify .clx.json artifacts: prove every live branch "
        "emits only target-shaped values, and statically check "
        "multi-artifact pipeline composition",
    )
    verify.add_argument(
        "artifact",
        nargs="+",
        help=".clx.json artifact(s) written by 'compile', or — with "
        "--cache-dir — registry fingerprint prefixes; several artifacts "
        "are additionally checked as a pipeline (broken/leaky/"
        "re-transforming chains)",
    )
    verify.add_argument(
        "--cache-dir",
        help="resolve non-file artifact specs as fingerprint prefixes "
        "against this cache's registry manifest (the 'fingerprint' "
        "column of 'artifacts list')",
    )
    verify.add_argument(
        "--fail-on",
        default="error",
        metavar="SEVERITY",
        help="exit 1 when any finding is at or above this severity: "
        "info, warn, or error (default error)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON report (format clx/analysis-report "
        "plus a per-artifact 'verified' map)",
    )
    verify.set_defaults(handler=_command_verify)

    apply_cmd = subparsers.add_parser(
        "apply",
        help="stream CSV/JSONL data through saved .clx.json artifacts "
        "(no re-profiling)",
    )
    apply_cmd.add_argument(
        "program",
        nargs="+",
        help=".clx.json artifact(s) written by 'compile'; several artifacts "
        "transform several columns in the same single pass",
    )
    apply_cmd.add_argument(
        "csv",
        help="input file, glob (quote it), or directory of partitions — "
        "CSV and JSONL parts mixed freely",
    )
    apply_cmd.add_argument(
        "--input",
        action="append",
        help="additional input path/glob/directory (repeatable); all "
        "resolved partitions apply in stable sorted order",
    )
    apply_cmd.add_argument(
        "--column",
        action="append",
        help="column to transform, one per program in order (default: the "
        "column recorded in each artifact)",
    )
    apply_cmd.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    apply_cmd.add_argument("--output", help="write the transformed output here instead of stdout")
    apply_cmd.add_argument(
        "--output-dir",
        help="write one output file per input partition into this directory "
        "(preserving partition names) instead of one spliced sink",
    )
    from repro.dataset.backends import sink_format_names

    apply_cmd.add_argument(
        "--format",
        choices=sink_format_names(),
        default="csv",
        help="sink format: csv (default), jsonl (one JSON object per row, "
        "no header), or a columnar format from the backend registry "
        "(parquet/arrow need the pyarrow extra)",
    )
    apply_cmd.add_argument(
        "--assume-csv",
        action="store_true",
        help="treat extensionless input files as CSV instead of refusing "
        "them (files with a known extension keep their format)",
    )
    destination_group = apply_cmd.add_mutually_exclusive_group()
    destination_group.add_argument(
        "--output-column", help="name of the added column (default <column>_transformed)"
    )
    destination_group.add_argument(
        "--in-place",
        action="store_true",
        help="overwrite the source column instead of adding a new one",
    )
    apply_cmd.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="physical lines per transform batch inside each worker "
        "(default 4096)",
    )
    apply_cmd.add_argument(
        "--shard-bytes",
        type=int,
        default=1 << 20,
        help="split partitions larger than this many bytes into "
        "record-aligned byte-range shards for cross-partition dispatch "
        "(default 1 MiB)",
    )
    apply_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan raw CSV chunks across this many worker processes that "
        "parse, transform, and re-encode worker-side (default 1, "
        "single-process)",
    )
    apply_cmd.add_argument(
        "--on-error",
        choices=("abort", "quarantine"),
        default="abort",
        help="what a bad record does: abort the run (default), or divert "
        "the record to --quarantine-dir and keep going — the run then "
        "exits 3 when anything was quarantined",
    )
    apply_cmd.add_argument(
        "--quarantine-dir",
        help="directory collecting quarantined records, one "
        "<partition>.quarantine.jsonl per source partition "
        "(required with --on-error quarantine)",
    )
    apply_cmd.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="seconds before an in-flight shard counts as hung and its "
        "worker is replaced (default: no limit)",
    )
    apply_cmd.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per shard on infrastructure faults (dead or hung "
        "worker, with jittered exponential backoff) before the shard "
        "is declared poison (default 0)",
    )
    apply_cmd.add_argument(
        "--resume",
        action="store_true",
        help="with --output-dir: skip partitions the .clx-apply.json run "
        "manifest already records as complete",
    )
    apply_cmd.add_argument(
        "--memo-size",
        type=int,
        default=DEFAULT_MEMO_SIZE,
        help="bound on each program's value->output dispatch memo; repeated "
        "values skip regex work entirely, and the memo parks itself while "
        "its hit rate stays under 5%% (default "
        f"{DEFAULT_MEMO_SIZE}; 0 disables memoization)",
    )
    apply_cmd.set_defaults(handler=_command_apply)

    artifacts = subparsers.add_parser(
        "artifacts",
        help="inspect or garbage-collect a compile cache's registry manifest",
    )
    artifacts.add_argument(
        "action",
        choices=("list", "gc"),
        help="list: show every registered artifact (fingerprint, target, "
        "stats); gc: prune dangling manifest rows and unreferenced "
        "artifact files",
    )
    artifacts.add_argument(
        "--cache-dir",
        required=True,
        help="the cache directory holding registry.json",
    )
    artifacts.add_argument(
        "--keep-days",
        type=float,
        default=None,
        help="gc only: also evict artifacts not used (cache hit or "
        "compile) in this many days",
    )
    artifacts.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc only: also evict least-recently-used artifacts until "
        "the surviving files total at most this many bytes",
    )
    artifacts.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON output",
    )
    artifacts.set_defaults(handler=_command_artifacts)

    suite = subparsers.add_parser("suite", help="print the 47-task benchmark suite statistics")
    suite.add_argument("--verbose", action="store_true", help="list every data type")
    suite.set_defaults(handler=_command_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CLXError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. `repro-clx apply ... | head`).  Point
        # stdout at /dev/null so the interpreter's exit-time flush cannot
        # raise again, and exit with the conventional 128 + SIGPIPE code.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
