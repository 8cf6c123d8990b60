"""The two sweep workloads: one client replaying the spec stream through a
``repro serve`` daemon or through ``submit_many(backend="local")``.

Both run as a closed loop: a group of at most two specs (``nproc`` on the
reference machine) is submitted and every outcome awaited before the
next group goes out.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

#: Workers of the local Runner pool and the most specs outstanding.
POOL_WORKERS = 2
#: Seconds to wait for a daemon to answer ``ping`` or to exit.
DAEMON_TIMEOUT_S = 30.0
#: Seconds any one outcome may take before the run is declared failed.
OUTCOME_TIMEOUT_S = 120.0


@dataclass
class Record:
    """One submission and its outcome."""

    spec: object  # specs.StreamSpec
    submitted: float  # perf_counter at submit
    done: float  # perf_counter when the outcome arrived
    outcome: object  # RunResult or RunFailure
    status: str  # "queued"/"attached"/"cached" (served), "ok"/"cached" (local)

    @property
    def latency_s(self) -> float:
        return self.done - self.submitted

    @property
    def executed(self) -> bool:
        """Did this submission run a simulation of its own?"""
        return self.status in ("queued", "ok")


@dataclass
class SweepRun:
    records: List[Record]
    wall_s: float
    #: Runner retries and worker losses (local backend).
    retried: int = 0
    worker_lost: int = 0
    #: The daemon's ``status()`` counters (served backend).
    status: Dict[str, int] = field(default_factory=dict)


class Daemon:
    """A ``repro serve`` process with one process worker, started in its
    own session so it and its pool can be reaped as a group."""

    def __init__(self, workdir: Path, env: Dict[str, str]) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # A relative socket path keeps it under the sun_path limit; the
        # daemon and this client share the checkout as cwd.
        self.address = os.path.relpath(workdir / "serve.sock")
        self._log = open(workdir / "serve.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.address,
             "--workers", "1", "--mode", "process",
             "--cache-dir", str(workdir / "cache"),
             "--journal", str(workdir / "journal.jsonl"), "--quiet"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.client = self._connect(started)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _connect(self, started: float):
        from repro.serve.client import ServeClient, ServeError

        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}; "
                    f"see {self.workdir / 'serve.log'}")
            try:
                client = ServeClient(self.address, name="perfbench",
                                     connect_timeout_s=1.0)
            except (OSError, ServeError):
                if time.perf_counter() - started > DAEMON_TIMEOUT_S:
                    raise
                time.sleep(0.005)
                continue
            if client.ping():
                return client
            client.close()

    def stop(self) -> None:
        """Abort the daemon and reap it and its worker pool."""
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown_daemon(drain=False)
            except Exception:  # noqa: BLE001 - falls through to the kill
                pass
            client.close()
            self.client = None
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        # The pool workers share the daemon's process group; kill what is
        # left of it and wait (bounded) until the group is gone.
        deadline = time.perf_counter() + 5.0
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            while time.perf_counter() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.01)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()


def _await(handle):
    outcome = handle.outcome(timeout=OUTCOME_TIMEOUT_S)
    return outcome, time.perf_counter()


def _replayed(groups, stop: Callable[[int], bool]):
    """``groups`` up to the first round for which ``stop(round)`` holds
    when the round is about to start."""
    current = None
    for group in groups:
        round_ = group[0].round
        if round_ != current:
            if stop(round_):
                return
            current = round_
        yield group


def run_served(groups, daemon: Daemon, speed,
               stop: Callable[[int], bool]) -> SweepRun:
    """Replay ``groups`` through ``daemon``; returns every record."""
    client = daemon.client
    records: List[Record] = []
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=POOL_WORKERS,
                            thread_name_prefix="perfbench-wait") as waiters:
        for group in _replayed(groups, stop):
            sent = []
            for spec in group:
                t0 = time.perf_counter()
                handle = client.submit(spec.to_runspec(), stream=False)
                sent.append((spec, t0, handle,
                             waiters.submit(_await, handle)))
            for spec, t0, handle, future in sent:
                outcome, done = future.result()
                records.append(Record(spec, t0, done, outcome,
                                      handle.status))
            speed.sample(group[0].round)
    wall = time.perf_counter() - start
    return SweepRun(records, wall,
                    status=client.status().get("counters", {}))


_NOTE = re.compile(r"(g\d+\.\d+:\S+): (ok|cached|FAILED)")


def run_local(groups, workdir: Path, speed,
              stop: Callable[[int], bool]) -> SweepRun:
    """Replay ``groups`` through ``submit_many(backend="local")`` with a
    process-pool Runner, a fresh cache and a journal."""
    from repro.api import submit_many
    from repro.lab.cache import ResultCache
    from repro.lab.journal import SweepJournal
    from repro.lab.runner import Runner

    marks: Dict[str, float] = {}

    def note(message: str) -> None:
        match = _NOTE.search(message)
        if match:
            marks[match.group(1)] = time.perf_counter()

    runner = Runner(workers=POOL_WORKERS, mode="process",
                    cache=ResultCache(workdir / "cache"), progress=note)
    records: List[Record] = []
    retried = lost = 0
    start = time.perf_counter()
    with SweepJournal(workdir / "journal.jsonl") as journal:
        for group in _replayed(groups, stop):
            runspecs = [spec.to_runspec() for spec in group]
            marks.clear()
            t0 = time.perf_counter()
            batch = submit_many(runspecs, backend="local", runner=runner,
                                journal=journal)
            report = batch.report
            end = time.perf_counter()
            retried += report.retried
            lost += report.worker_losses
            for spec, runspec, outcome in zip(group, runspecs,
                                              report.results):
                done = marks.get(runspec.label, end)
                status = ("cached" if getattr(outcome, "from_cache", False)
                          else "ok")
                records.append(Record(spec, t0, done, outcome, status))
            speed.sample(group[0].round)
    wall = time.perf_counter() - start
    return SweepRun(records, wall, retried=retried, worker_lost=lost)


def run_reference(keys_to_specs, workdir: Path) -> Dict:
    """Execute each distinct spec once through a fresh local Runner (the
    served-vs-local cross-check); returns ``{key: outcome}``."""
    from repro.api import submit_many
    from repro.lab.cache import ResultCache
    from repro.lab.runner import Runner

    keys = list(keys_to_specs)
    runner = Runner(workers=POOL_WORKERS, mode="process",
                    cache=ResultCache(workdir / "cache"))
    batch = submit_many([keys_to_specs[k].to_runspec() for k in keys],
                        backend="local", runner=runner)
    return dict(zip(keys, batch.report.results))
