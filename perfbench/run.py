#!/usr/bin/env python3
"""The repo benchmark: CLI throughput and label-to-verified latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 60 --trace 0

One client drives the program in a closed loop: each CLI call or
library call starts only after the previous one returned.  Both
workloads run the same two halves, over inputs rendered from ``--seed``:

* the batch half: ``repro-clx apply`` (1 worker and ``nproc`` workers),
  ``profile`` (both worker counts) and the set-up probe, each a fresh
  process over the workload's table;
* the loop half: the paper's interactive loop over the 47-task suite
  (cluster, label, synthesize, repair, compile, check, verify,
  transform), a slice of it after every CLI call.

With ``--trace 0`` the run reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of ``layers.py`` plus the tracing
overhead, and writes the spans to ``.perfbench/traces/``.  Every output
is checked against the generator's truth.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``DESIGN.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import check
import gen
from batch import Batch, Cli, Data, Tally, deadline
from loop import TaskResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Rows of each workload's table.
ROWS = 40_000
#: CLI calls per round; a slice of the suite runs after each.
CALLS_PER_ROUND = 5
#: Rounds one pass over the suite is spread over.
ROUNDS_PER_PASS = 2
#: Rounds every run makes, however short ``--seconds`` is: three whole
#: passes, so p90 of the loop has 14 of its 141 samples beyond it.
MIN_ROUNDS = 3 * ROUNDS_PER_PASS
#: Rows the suite's 47 tasks get wrong against ``task.expected`` per
#: pass at the reference commit: CLX's accuracy, not a failed call.  A
#: pass with more wrong rows fails the excess (see check_wrong_rows).
SUITE_WRONG_ROWS = 58

#: Each workload's table rendering; both run the suite as the loop half.
WORKLOADS: Dict[str, gen.Render] = {
    "distinct": gen.Render("distinct", 0.0),
    "zipf_quoted": gen.Render("zipf", 0.3),
}

END_TO_END: Dict[str, str] = {
    "apply_rows_per_s.wmax": "rows/s",
    "profile_rows_per_s.wmax": "rows/s",
    "setup_s": "s",
    "apply_peak_rss_mb": "MB",
    "profile_peak_rss_mb": "MB",
    "verify_loop_ms.p90": "ms",
}

PER_LAYER: Dict[str, str] = {
    "cli.import_s": "s",
    "engine.load_s": "s",
    "analysis.preflight_s": "s",
    "dataset.read_s": "s",
    "dataset.shards": "count",
    "csvio.frame_s": "s",
    "compiled.dispatch_s": "s",
    "compiled.memo_hit_ratio": "ratio",
    "compiled.memo_lookups": "count",
    "compiled.flagged": "count",
    "parallel.apply_s.w1": "s",
    "parallel.apply_s.wmax": "s",
    "parallel.self_s.w1": "s",
    "parallel.scaling": "ratio",
    "parallel.chunks": "count",
    "sinks.write_s": "s",
    "clustering.profile_s": "s",
    "clustering.parallel_profile_s.w1": "s",
    "clustering.parallel_profile_s.wmax": "s",
    "clustering.clusters": "count",
    "clustering.task_profile_s": "s",
    "synthesis.synthesize_s": "s",
    "synthesis.repair_s": "s",
    "synthesis.repairs": "count",
    "engine.compile_s": "s",
    "analysis.check_s": "s",
    "analysis.verify_s": "s",
    "analysis.findings.error": "count",
    "analysis.findings.warn": "count",
    "analysis.findings.info": "count",
    "compiled.task_transform_s": "s",
    "loop.rows": "count",
    "loop.wrong_rows": "count",
    "loop.wrong_row_share": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def declared_names() -> Tuple[List[str], List[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        [metric["name"] for metric in spec["end_to_end"]],
        [metric["name"] for metric in spec["per_layer"]],
    )


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git repo."""
    if not shutil.which("git"):
        return "unknown"
    found = subprocess.run(
        ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=False,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    ).stdout.split()
    return found[1] if len(found) == 2 and Path(found[0]) == ROOT else "unknown"


def provenance(workload: str, seed: int, rows: int, wmax: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "rows": rows,
        "nproc": os.cpu_count(),
        "wmax": wmax,
        "python": platform.python_version(),
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
        "fsspec": importlib.util.find_spec("fsspec") is not None,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "clients": 1,
        "loop": "closed",
    }


def prepare(name: str, seed: int, work: Path, cli: Cli, tally: Tally) -> Data:
    """Render the workload's inputs and compile its artifact (untimed)."""
    truths, phones, formats = gen.generate(ROWS, WORKLOADS[name], seed)
    data = Data(name, work / "table.csv", work / "empty.csv", work / "phone.clx.json",
                truths, phones, formats)
    gen.write_csv(data.path, truths, phones)
    gen.write_header_only(data.empty)
    sample_truths, sample_phones = gen.compile_sample(seed)
    sample = work / "sample.csv"
    gen.write_csv(sample, sample_truths, sample_phones)
    call = cli.run("compile", str(sample), "--column", "phone",
                   "--target-pattern", gen.TARGET_NOTATION, "--output", str(data.artifact))
    verdict = check.check_exit(name, "compile of the sample", call.code, 0,
                               len(sample_truths))
    if not verdict[0]:
        verdict = check.check_artifact(name, data.artifact, len(sample_truths))
    tally.add(len(sample_truths), verdict)
    if verdict[0]:
        raise RuntimeError(f"{name}: compiling the sample failed: {verdict[1]} "
                           f"{cli.last_error()}")

    return data


class LoopHalf:
    """The loop half: one warm interpreter (``loop.py``) that runs the
    suite's tasks on request, a slice of a pass at a time.

    Slices sit between the CLI calls, so the task samples spread over
    the whole run as finely as the CLI samples do.
    """

    def __init__(self, name: str, seed: int, cli: Cli, tally: Tally, slices: int) -> None:
        self.name, self.tally, self.slices = name, tally, slices
        self.latencies: List[float] = []  # ms per task, whole passes only
        self._pass: List[TaskResult] = []
        self._slice = 0
        self._errors = (cli.work / "loop.err").open("wb")
        self._process = cli.spawn([str(HERE / "loop.py"), "--seed", str(seed)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self._errors, text=True)
        self._tasks = int(self._reply())

    def _reply(self) -> str:
        with deadline(self._process):
            line = self._process.stdout.readline()  # type: ignore[union-attr]
        if not line:
            code = self._process.wait()
            self._errors.flush()
            tail = Path(self._errors.name).read_text(errors="replace")[-400:]
            raise RuntimeError(f"{self.name}: loop.py exited {code}: {tail}")
        return line

    def step(self) -> None:
        """Run the next slice of the pass; the last slice ends the pass."""
        start = self._slice * self._tasks // self.slices
        stop = (self._slice + 1) * self._tasks // self.slices
        self._process.stdin.write(f"{start} {stop}\n")  # type: ignore[union-attr]
        self._process.stdin.flush()  # type: ignore[union-attr]
        for result in json.loads(self._reply()):
            if "error" in result:
                self.tally.add(1, (1, [f"{self.name}: task {result['task_id']} raised "
                                       f"{result['error']}"]))
            else:
                self._pass.append(TaskResult(**result))
        self._slice += 1
        if self._slice == self.slices:
            self.tally.add(*check.check_pass(self.name, self._pass, SUITE_WRONG_ROWS))
            self.latencies += [result.seconds * 1000.0 for result in self._pass]
            self._pass, self._slice = [], 0

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.stdin.close()  # type: ignore[union-attr]
            with deadline(self._process):
                self._process.wait()
        self._errors.close()


def measure_end_to_end(
    name: str, seed: int, data: Data, cli: Cli, wmax: int, tally: Tally, seconds: float
) -> Dict[str, float]:
    batch = Batch(cli, data, wmax, tally)
    loop = LoopHalf(name, seed, cli, tally, ROUNDS_PER_PASS * CALLS_PER_ROUND)
    began = time.perf_counter()
    rounds = 0
    try:
        # Whole passes only, so every run samples each suite task equally
        # often; another pass starts while its projected end stays within
        # ``seconds``.
        while rounds < MIN_ROUNDS or (
            time.perf_counter() - began) * (rounds + ROUNDS_PER_PASS) / rounds <= seconds:
            for _ in range(ROUNDS_PER_PASS):
                # Many short rounds, so each metric's samples spread over
                # the whole run; the worker order flips every round.
                first, second = [(1, "w1"), (wmax, "wmax")][:: 1 if rounds % 2 == 0 else -1]
                calls = [batch.setup, lambda: batch.apply(*first),
                         lambda: batch.profile(*first), lambda: batch.apply(*second),
                         lambda: batch.profile(*second)]
                assert len(calls) == CALLS_PER_ROUND
                for call in calls:
                    call()
                    loop.step()
                rounds += 1
    finally:
        loop.close()
    print(f"{name}: {rounds} rounds, {rounds // ROUNDS_PER_PASS} suite passes, in "
          f"{time.perf_counter() - began:.1f} s")
    samples = dict(batch.samples)
    samples["verify_loop_ms.p50"] = samples["verify_loop_ms.p90"] = loop.latencies
    metrics = {metric: statistics.median(values) for metric, values in samples.items() if values}
    if loop.latencies:
        metrics["verify_loop_ms.p90"] = percentile(loop.latencies, 0.9)

    def show(metric: str) -> None:
        values = samples.get(metric) or [math.nan]
        how = "nearest rank" if metric.endswith("p90") else "median"
        print(f"  {metric:26s} {metrics.get(metric, math.nan):14.4f} "
              f"{END_TO_END.get(metric, ''):7s} "
              f"({how} of {len(values)}; {min(values):.4f} .. {max(values):.4f})")

    for metric in END_TO_END:
        show(metric)
    # Their run-to-run spread on the reference host exceeded the largest
    # bound, so they are printed but not declared (see DESIGN.md).
    print("  measured, not declared:")
    for metric in sorted(set(metrics) - set(END_TO_END)):
        show(metric)
    return metrics


def measure_layers(
    name: str, seed: int, data: Data, cli: Cli, wmax: int, tally: Tally, seconds: float
) -> Dict[str, float]:
    from layers import Layers, measure
    from loop import build_tasks
    from spans import Tracer

    tracer = Tracer(f"{name}-seed{seed}")
    layers = Layers(cli, data, build_tasks(seed), wmax, tally, SUITE_WRONG_ROWS)
    metrics = measure(layers, tracer, seconds)
    out = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.json"
    tracer.write(out)
    print(f"{name}: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    print("  self time per span, all traced rounds:")
    for span, total in sorted(tracer.self_times().items(), key=lambda item: -item[1]):
        print(f"    {span:40s} {total:10.4f} s")
    for metric, unit in PER_LAYER.items():
        print(f"  {metric:36s} {metrics[metric]:14.6f} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_names()
    if sorted(end_to_end) != sorted(END_TO_END) or sorted(per_layer) != sorted(PER_LAYER):
        print("error: metric names in BENCHMARK.json differ from perfbench/run.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wmax = os.cpu_count() or 1
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cli = Cli(ROOT, work)
    tally = Tally()
    try:
        data = prepare(args.workload, args.seed, work, cli, tally)
        gc.collect()
        gc.freeze()  # the truth tables are never freed; keep them out of GC passes
        # Untimed warm-up: fills the page cache and, unless bytecode
        # writing is off, the sources' bytecode cache.
        cli.run("apply", str(data.artifact), str(data.empty), "--output",
                str(work / "warm.csv"))
        if args.trace:
            metrics = measure_layers(args.workload, args.seed, data, cli, wmax, tally,
                                     args.seconds)
            units = PER_LAYER
        else:
            metrics = measure_end_to_end(args.workload, args.seed, data, cli, wmax,
                                         tally, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"failed_ratio {tally.failed / max(1, tally.attempted):.6f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages:
        print(f"  FAIL {message}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, data.rows, wmax)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
