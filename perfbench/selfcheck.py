#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py          # fast checks (a few seconds)
    python3 perfbench/selfcheck.py --runs   # also run every workload briefly

Checks that the same seed renders identical bytes and another seed
different bytes; that a planted wrong cell, dropped row, swapped row or
wrong profile count raises the failure count; that the metric names in
``run.py`` equal those in ``BENCHMARK.json``; and that the benchmark
refuses to run, printing no result, from a directory holding only
``BENCHMARK.json`` and ``perfbench/``.  With ``--runs`` every workload
runs in both modes and the printed metric names are compared with
``BENCHMARK.json``.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys

import check
import gen
import run
from loop import TaskResult

WORK = run.ROOT / ".perfbench" / "selfcheck"


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        sys.exit(1)


def rendered(workload: str, seed: int) -> bytes:
    truths, phones, _formats = gen.generate(2_000, run.WORKLOADS[workload], seed)
    path = WORK / f"{workload}-{seed}.csv"
    gen.write_csv(path, truths, phones)
    return path.read_bytes()


def sink_text(rows: list) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)  # "\r\n" records, so a lone "\r" gets quoted
    writer.writerow(check.OUTPUT_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def check_determinism() -> None:
    for workload in run.WORKLOADS:
        expect(rendered(workload, 7) == rendered(workload, 7),
               f"{workload}: the same seed renders identical bytes")
        expect(rendered(workload, 7) != rendered(workload, 8),
               f"{workload}: another seed renders different bytes")
    sample = gen.compile_sample(7)
    shapes = {re.sub(r"\d", "D", phone) for phone in sample[1]}
    expect(sample == gen.compile_sample(7) and sample != gen.compile_sample(8)
           and len(shapes) == len(gen.FORMATS),
           "the compile sample is seeded and covers all six formats")


def check_planted_faults() -> None:
    truths, phones, formats = gen.generate(500, gen.Render("zipf", 0.3), 3)
    expected = check.expected_rows(truths, phones)
    good = [list(row) for row in expected]
    expect(check.check_apply_text("t", sink_text(good), expected)[0] == 0,
           "a correct sink (with quoted notes and embedded newlines) passes")
    wrong = [list(row) for row in good]
    wrong[17][3] = wrong[17][3][::-1]
    expect(check.check_apply_text("t", sink_text(wrong), expected)[0] >= 1,
           "a planted wrong cell fails its row")
    note = [list(row) for row in good]
    note[5][2] = note[5][2].replace("\n", "\r\n") + " "
    expect(check.check_apply_text("t", sink_text(note), expected)[0] >= 1,
           "a note that does not round-trip byte for byte fails its row")
    dropped = good[:40] + good[41:]
    expect(check.check_apply_text("t", sink_text(dropped), expected)[0] >= 1,
           "a dropped row fails")
    swapped = [list(row) for row in good]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    expect(check.check_apply_text("t", sink_text(swapped), expected)[0] == 2,
           "a swapped row pair fails both rows")
    sinks = check.SinkReference("t", expected)
    first = sink_text(good).encode()
    expect(sinks.check("first", hashlib.sha256(first).hexdigest(), first)[0] == 0
           and sinks.check("stream", hashlib.sha256(first).hexdigest())[0] == 0,
           "a sink byte-identical to the checked first sink passes")
    other = sink_text(swapped).encode()
    expect(sinks.check("stream", hashlib.sha256(other).hexdigest())[0] == len(expected)
           and sinks.check("file", hashlib.sha256(other).hexdigest(), other)[0] == 2,
           "a sink that differs from the first fails: all rows by digest, "
           "the wrong rows by bytes")
    counts = [formats.count(name) for name in sorted(set(formats))]

    def table(counts: list) -> str:
        return "pattern  rows  examples\n-------  ----  --------\n" + "".join(
            f"'p' {index}  {count}  x, y\n" for index, count in enumerate(counts))

    expect(check.check_profile("t", table(counts), formats)[0] == 0,
           "a profile table with the truth's counts passes")
    expect(check.check_profile("t", table([counts[0] + 1] + counts[1:]), formats)[0]
           == len(formats), "a profile table with a wrong count fails every row")
    expect(check.check_loop("t", "task", 10, False, 0)[0] == 10,
           "an unverified artifact fails its task's rows")
    expect(check.check_exit("t", "apply", 2, 0, 10)[0] == 10,
           "a failed CLI call fails all its rows")
    results = [TaskResult("a", 0.1, 10, 3, True, 0, 0, {}),
               TaskResult("b", 0.1, 10, 0, False, 0, 0, {})]
    rows, (failed, _messages) = check.check_pass("t", results, 2)
    expect(rows == 20 and failed == 10 + 1,
           "a pass fails its unverified task's rows and the wrong rows beyond the allowed")
    expect(check.check_wrong_rows("t", {"a": 58}, 58)[0] == 0
           and check.check_wrong_rows("t", {"a": 58, "b": 2}, 58)[0] == 2
           and check.check_wrong_rows("t", {"a": 1}, 0)[0] == 1,
           "loop rows wrong beyond the allowed count fail")


def check_names() -> None:
    end_to_end, per_layer = run.declared_names()
    expect(sorted(end_to_end) == sorted(run.END_TO_END),
           "end-to-end metric names equal BENCHMARK.json")
    expect(sorted(per_layer) == sorted(run.PER_LAYER),
           "per-layer metric names equal BENCHMARK.json")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    result = subprocess.run(
        spec["command"] + ["--workload", "distinct", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(result.returncode != 0 and '"correct"' not in result.stdout,
           "without the program's sources the benchmark exits non-zero, no result")


def check_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "5",
                                   "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            last = json.loads(result.stdout.strip().splitlines()[-1])
            expect(result.returncode == 0 and last["correct"]
                   and sorted(last) == ["attempted", "correct", "failed", "metrics"]
                   and sorted(last["metrics"]) == sorted(names),
                   f"{workload} --trace {trace}: correct, with exactly the declared metrics")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", action="store_true", help="also run every workload")
    args = parser.parse_args()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_determinism()
        check_planted_faults()
        check_names()
        check_bare_directory()
        if args.runs:
            check_runs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
