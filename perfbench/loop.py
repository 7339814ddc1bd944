"""The paper's interactive loop, one labelling task at a time.

For each task: profile the column into pattern clusters, label the
target, synthesize, let the oracle repair wrong plans, compile, run the
analyzer (with the ReDoS probe), verify the output language, and
transform the column.  One client runs one task after another (a closed
loop); a task's latency runs from the first step to the checked,
verified, applied artifact.

The tasks are the 47-task suite, in an order drawn from the seed.  Run
as a script, it serves untraced runs on request: it prints the number
of tasks once it is warm, then reads lines ``START STOP`` from standard
input and answers each with one JSON line, the results of tasks
``START`` to ``STOP`` (exclusive); a task the program fails with an
exception is answered with its ``error``::

    echo "0 3" | python3 perfbench/loop.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from spans import Tracer

#: Steps of one task, in order; each is one span in a traced pass.
STEPS = (
    "clustering.task_profile",
    "synthesis.synthesize",
    "synthesis.repair",
    "engine.compile",
    "analysis.check",
    "analysis.verify",
    "compiled.task_transform",
)


@dataclass
class Task:
    task_id: str
    inputs: List[str]
    expected: Dict[str, str]
    label: Callable[[], object]  # returns the target Pattern


@dataclass
class TaskResult:
    task_id: str
    seconds: float
    rows: int
    wrong_rows: int
    verified: bool
    check_errors: int
    repairs: int
    findings: Dict[str, int]
    steps: Dict[str, float] = field(default_factory=dict)


def build_tasks(seed: int) -> List[Task]:
    """The 47-task suite in a seeded order."""
    from repro.bench.suite import benchmark_suite

    tasks = [
        Task(task.task_id, list(task.inputs), dict(task.expected), task.target_pattern)
        for task in benchmark_suite()
    ]
    random.Random(seed).shuffle(tasks)
    return tasks


def run_task(task: Task, tracer: Tracer) -> TaskResult:
    from repro.analysis import Severity, analyze_program, verify_program
    from repro.clustering.profiler import PatternProfiler
    from repro.engine.compiled import compile_program
    from repro.synthesis.repair import oracle_repair
    from repro.synthesis.synthesizer import Synthesizer

    marks = [time.perf_counter()]

    def mark() -> None:
        marks.append(time.perf_counter())

    with tracer.span("loop.task"):
        with tracer.span(STEPS[0]):
            hierarchy = PatternProfiler().profile(task.inputs)
            target = task.label()
        mark()
        with tracer.span(STEPS[1]):
            result = Synthesizer().synthesize(hierarchy, target)
        mark()
        with tracer.span(STEPS[2]):
            repaired, repairs = oracle_repair(result, task.expected)
        mark()
        with tracer.span(STEPS[3]):
            compiled = compile_program(repaired.program, target)
        mark()
        with tracer.span(STEPS[4]):
            report = analyze_program(compiled, name=task.task_id, probe=True)
        mark()
        with tracer.span(STEPS[5]):
            _flow, verified = verify_program(compiled, name=task.task_id)
        mark()
        with tracer.span(STEPS[6]):
            outputs = [compiled.run_one(value).output for value in task.inputs]
        mark()
    wrong = sum(
        1
        for value, output in zip(task.inputs, outputs)
        if output != task.expected.get(value, value)
    )
    return TaskResult(
        task_id=task.task_id,
        seconds=marks[-1] - marks[0],
        rows=len(task.inputs),
        wrong_rows=wrong,
        verified=verified,
        check_errors=len(report.at_least(Severity.ERROR)),
        repairs=repairs,
        findings=report.summary(),
        steps={step: marks[i + 1] - marks[i] for i, step in enumerate(STEPS)},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="Serve the loop's tasks on request.")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tasks = build_tasks(args.seed)
    off = Tracer("loop", enabled=False)
    run_task(tasks[0], off)  # imports and first-call caches, untimed
    print(len(tasks), flush=True)

    def served(task: Task) -> Dict[str, object]:
        try:
            return asdict(run_task(task, off))
        except Exception as exc:  # the program failed the task; report it
            return {"task_id": task.task_id, "error": repr(exc)}

    for request in sys.stdin:
        start, stop = map(int, request.split())
        print(json.dumps([served(task) for task in tasks[start:stop]]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
