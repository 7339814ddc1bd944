"""The batch half: ``repro-clx`` profile and apply as a user runs them.

Every call is a fresh ``repro.cli`` process, timed from spawn to exit,
with its own peak RSS.  Outputs are checked against the generator's
truth: the first apply sink in full, every later one (both worker
counts) for byte identity with it (``check.SinkReference``).
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

import check
import gen


#: Seconds one child may take; calls take a few seconds, and a run must
#: end within 180 s.
CALL_TIMEOUT_S = 60

#: Runs ``python -m repro.cli`` and records the child's own peak RSS
#: (``VmHWM``) at exit.  ``wait4``'s ``ru_maxrss`` cannot serve: Linux
#: carries the forking parent's high-water mark into the child.
CLI_LAUNCHER = """
import atexit, os, runpy
def _peak():
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next((l.split()[1] for l in status if l.startswith("VmHWM:")), "0"))
atexit.register(_peak)
runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
"""


@contextmanager
def deadline(process: "subprocess.Popen[Any]") -> Iterator[None]:
    """Kill ``process`` and its group if the block runs past
    ``CALL_TIMEOUT_S``; the run then aborts.

    Waits inside the block should block (``wait()``, a pipe read):
    ``Popen.wait(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round every timing.
    """
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        os.killpg(process.pid, signal.SIGKILL)

    watchdog = threading.Timer(CALL_TIMEOUT_S, kill)
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()
        watchdog.join()
        if expired.is_set():
            process.wait()
            raise subprocess.TimeoutExpired(process.args, CALL_TIMEOUT_S)


@dataclass
class Call:
    seconds: float
    code: int
    rss_mb: float
    stdout: str


class Cli:
    """Runs the program's CLI from the checkout's sources."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PERFBENCH_HWM=str(work / "peak_rss_kb"))

    def run(self, *args: str) -> Call:
        """One ``repro-clx`` call."""
        return self.python("-c", CLI_LAUNCHER, *args)

    def python(self, *args: str) -> Call:
        """One child interpreter, timed from spawn to exit."""
        out, err = self.work / "cli.out", self.work / "cli.err"
        peak = Path(self.env["PERFBENCH_HWM"])
        peak.unlink(missing_ok=True)
        with out.open("wb") as stdout, err.open("wb") as stderr:
            began = time.perf_counter()
            process = self.spawn(list(args), stdout=stdout, stderr=stderr)
            with deadline(process):
                code = process.wait()
            seconds = time.perf_counter() - began
        rss_kb = float(peak.read_text() or 0) if peak.exists() else 0.0
        return Call(
            seconds, code, rss_kb / 1024.0,
            out.read_text(encoding="utf-8", errors="replace"),
        )

    def spawn(self, args: List[str], **streams: Any) -> "subprocess.Popen[Any]":
        """A child interpreter in its own process group, so a kill takes
        everything it started."""
        return subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                start_new_session=True, **streams)

    def last_error(self) -> str:
        return (self.work / "cli.err").read_text(errors="replace")[-400:]


@dataclass
class Tally:
    """Operations attempted and failed, with the first messages."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def add(self, rows: int, verdict: check.Verdict) -> None:
        failed, messages = verdict
        self.attempted += rows
        self.failed += failed
        self.messages.extend(messages[: max(0, 20 - len(self.messages))])


@dataclass
class Data:
    """One workload's rendered table plus the truth it came from."""

    workload: str
    path: Path
    empty: Path
    artifact: Path
    truths: Sequence[gen.Truth]
    phones: Sequence[str]
    formats: Sequence[str]

    @property
    def rows(self) -> int:
        return len(self.truths)


class Batch:
    """One workload's CLI calls, their samples, and their checks."""

    def __init__(self, cli: Cli, data: Data, wmax: int, tally: Tally) -> None:
        self.cli = cli
        self.data = data
        self.wmax = wmax
        self.tally = tally
        self.samples: Dict[str, List[float]] = {}
        self.sinks = check.SinkReference(
            data.workload, check.expected_rows(data.truths, data.phones))

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _exit(self, what: str, call: Call, rows: int, want: int = 0) -> bool:
        verdict = check.check_exit(self.data.workload, what, call.code, want, rows)
        if verdict[0]:
            verdict[1].append(self.cli.last_error())
            self.tally.add(rows, verdict)
            return False
        return True

    def setup(self) -> None:
        """``setup_s``: apply over a header-only file (start, import, load, preflight)."""
        out = self.cli.work / "empty.out.csv"
        call = self.cli.run("apply", str(self.data.artifact), str(self.data.empty),
                            "--output", str(out))
        if self._exit("apply (header only)", call, 1):
            want = ",".join(check.OUTPUT_HEADER) + "\n"
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            if text.replace("\r\n", "\n") != want:
                self.tally.add(1, (1, [f"{self.data.workload}: header-only apply "
                                       f"wrote {text!r}"]))
            else:
                self.tally.add(1, (0, []))
        self._sample("setup_s", call.seconds)

    def apply(self, workers: int, label: str) -> None:
        out = self.cli.work / f"apply.{label}.csv"
        call = self.cli.run("apply", str(self.data.artifact), str(self.data.path),
                            "--output", str(out), "--workers", str(workers))
        if self._exit(f"apply --workers {workers}", call, self.data.rows):
            body = out.read_bytes() if out.exists() else b""
            self.tally.add(self.data.rows, self.sinks.check(
                f"apply --workers {workers}", hashlib.sha256(body).hexdigest(), body))
        out.unlink(missing_ok=True)
        self._sample(f"apply_rows_per_s.{label}", self.data.rows / call.seconds)
        if label == "w1":
            self._sample("apply_peak_rss_mb", call.rss_mb)

    def profile(self, workers: int, label: str) -> None:
        call = self.cli.run("profile", str(self.data.path), "--column", "phone",
                            "--workers", str(workers))
        if self._exit(f"profile --workers {workers}", call, self.data.rows):
            self.tally.add(self.data.rows, check.check_profile(
                self.data.workload, call.stdout, self.data.formats))
        self._sample(f"profile_rows_per_s.{label}", self.data.rows / call.seconds)
        if label == "w1":
            self._sample("profile_peak_rss_mb", call.rss_mb)
