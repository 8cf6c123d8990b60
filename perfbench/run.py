#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer performance of repro.

    python3 perfbench/run.py --workload sync-gtx480 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` runs the same inputs once untraced and once with
span-recording wrappers on every layer's public functions, checks both
give identical results, and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it give
every figure with its unit and sample count.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of a run (caches, journals, sockets) and span files.
WORK = ROOT / ".perfbench_run"

WORKLOADS = ("sync-gtx480", "syncfree-gtx480", "served-sweep", "local-sweep")
SIM_WORKLOADS = WORKLOADS[:2]
#: Fresh-interpreter set-ups measured per run (the median is reported).
SETUP_REPEATS = 3
#: Sweep rounds every run replays, however slow the host; the sweeps'
#: ``sim_cycles`` and ``bows_speedup`` cover exactly these rounds.
MIN_ROUNDS = 8


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC.name}/repro; "
              "run from the root of a repro checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_BENCH_ENGINE", None)
    return env


def _stream(seed: int, seconds: int):
    import specs

    # More rounds than any host replays in ``seconds`` (a round takes
    # over a second); the clock ends the replay.
    return specs.stream(seed, MIN_ROUNDS + 2 * seconds)


# -- set-up ----------------------------------------------------------------


def setup_probe(workload: str, seed: int, seconds: int) -> None:
    """Fresh-interpreter set-up: import repro, build the first input."""
    import repro  # noqa: F401
    import specs

    if workload in SIM_WORKLOADS:
        kernel, params, mode = specs.simulations(workload, seed)[0]
        repro.kernels.build(kernel, **params)
        specs.gtx480_config(mode)
    else:
        _stream(seed, seconds)[0][0].to_runspec().content_hash()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, seconds: int, speed) -> list:
    """Wall times from spawning an interpreter to its first input."""
    from calibrate import SETUP

    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(SETUP)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             workload, "--seed", str(seed), "--seconds", str(seconds)],
            env=_child_env(), stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed for {workload}")
    speed.sample(SETUP)
    return times


def import_times() -> dict:
    """Cumulative import time (s) of repro, numpy and networkx, from
    ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=_child_env(), capture_output=True, text=True, cwd=ROOT,
        check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            if name in ("repro", "numpy", "networkx"):
                out[name] = int(parts[1]) / 1e6
    return out


# -- simulation workloads --------------------------------------------------


def run_sim_pass(workload: str, seed: int, unit: int, speed=None,
                 tracer=None) -> dict:
    """Build and simulate every run of one pass (validation on); the
    machine speed is probed before each simulation and after the last."""
    import repro.kernels
    import specs
    from repro.api import simulate

    runs = []
    for i, (kernel, params, mode) in enumerate(
            specs.simulations(workload, seed)):
        if tracer is not None:
            tracer.sim_id = i
        if speed is not None:
            speed.sample(unit)
        start = time.perf_counter()
        built = repro.kernels.build(kernel, **params)
        result = simulate(built, config=specs.gtx480_config(mode),
                          engine="fast", validate=True)
        runs.append({
            "key": (kernel, tuple(sorted(params.items())), mode),
            "latency_s": time.perf_counter() - start,
            "cycles": result.cycles,
            "stats": result.stats,
            "summary": result.stats.summary(),
            "predicted": sorted(result.predicted_sibs()),
            "true_sibs": sorted(built.launch.program.true_sibs()),
            "ddos": mode == "bows",
        })
    if speed is not None:
        speed.sample(unit)
    return {"runs": runs, "wall_s": sum(r["latency_s"] for r in runs)}


def sim_workload(args, report) -> None:
    import specs

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_sim_pass(args.workload, args.seed, len(passes),
                                   speed=report.speed))
        # Another pass only if at least half of it fits in the budget.
        if args.trace or (deadline - time.perf_counter()
                          < passes[-1]["wall_s"] / 2):
            break
    first = passes[0]["runs"]
    for other in passes[1:]:
        for a, b in zip(first, other["runs"]):
            report.check(a["summary"] == b["summary"],
                         f"{a['key'][0]}/{a['key'][2]}: repeated pass "
                         "changed stats.summary()")
    report.sim_results(passes)
    if not args.trace:
        return
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_sim_pass(args.workload, args.seed, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(first, traced["runs"]):
        report.check(a["summary"] == b["summary"],
                     f"{a['key'][0]}/{a['key'][2]}: traced run changed "
                     "stats.summary()")
    report.trace_sim(tracer, traced["wall_s"] / passes[0]["wall_s"],
                     traced["runs"], specs.GTX480_SMS, WORK / "traces")


# -- sweep workloads -------------------------------------------------------


def sweep_workload(args, report, workdir: Path) -> None:
    import sweep
    from calibrate import SETUP
    from report import digest

    groups = _stream(args.seed, args.seconds)
    served = args.workload == "served-sweep"
    daemons = []

    def start_daemon(tag: str):
        daemon = sweep.Daemon(workdir / tag, _child_env())
        daemons.append(daemon)
        return daemon

    def replay(tag: str, stop):
        if not served:
            return sweep.run_local(groups, workdir / tag, report.speed,
                                   stop)
        daemon = start_daemon(tag)
        try:
            return sweep.run_served(groups, daemon, report.speed, stop)
        finally:
            daemon.stop()

    try:
        if served:
            # Daemon start to first ping is set-up, measured several
            # times; the last daemon started serves the stream.
            for i in range(SETUP_REPEATS - 1):
                start_daemon(f"setup{i}").stop()
                report.speed.sample(SETUP)
        deadline = time.perf_counter() + args.seconds
        run = replay("untraced", lambda r: (r >= MIN_ROUNDS and
                                            time.perf_counter() > deadline))
        report.daemon_starts = [d.start_s for d in daemons]
        report.sweep_results(run, MIN_ROUNDS)
        if served:
            # Every distinct spec again through a fresh local Runner: the
            # two backends must agree exactly.
            specs_by_key, served_by_key = {}, {}
            for rec in run.records:
                specs_by_key.setdefault(rec.spec.key, rec.spec)
                served_by_key.setdefault(rec.spec.key, rec.outcome)
            local = sweep.run_reference(specs_by_key, workdir / "local-check")
            for key, outcome in local.items():
                report.check(
                    outcome.ok and served_by_key[key].ok
                    and digest(outcome) == digest(served_by_key[key]),
                    f"{key[0]}/{key[2]}: served and local results differ")
        if not args.trace:
            return
        from tracer import Tracer

        rounds = 1 + max(rec.spec.round for rec in run.records)
        tracer = Tracer()
        tracer.install()
        try:
            traced = replay("traced", lambda r: r >= rounds)
        finally:
            tracer.uninstall()
        untraced = {rec.spec.key: rec.outcome for rec in run.records}
        for rec in traced.records:
            base = untraced[rec.spec.key]
            report.check(
                rec.outcome.ok and base.ok
                and digest(rec.outcome) == digest(base),
                f"{rec.spec.kernel}/{rec.spec.mode}: traced run changed "
                "the result")
        report.trace_sweep(tracer, traced, traced.wall_s / run.wall_s,
                           WORK / "traces")
    finally:
        for daemon in daemons:
            if daemon.proc.returncode is None:
                daemon.stop()


# -- main -------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _on_term(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    from report import Report

    signal.signal(signal.SIGTERM, _on_term)
    os.environ.pop("REPRO_BENCH_ENGINE", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Anything that falls back to the default cache lands here, never in
    # the checkout's .lab_cache/.
    os.environ["REPRO_LAB_CACHE_DIR"] = str(workdir / "default-cache")

    report = Report(args.workload)
    setup_times = []
    try:
        setup_times = measure_setup(args.workload, args.seed, args.seconds,
                                    report.speed)
        if args.workload in SIM_WORKLOADS:
            sim_workload(args, report)
        else:
            sweep_workload(args, report, workdir)
        if args.trace:
            for name, value in import_times().items():
                report.put(report.layers, f"import.{name}_s", value, "s",
                           "cumulative, -X importtime")
    except Exception as exc:  # noqa: BLE001 - a crash is a failed run
        traceback.print_exc()
        report.attempted += 1
        report.failed += 1
        report.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.setup(setup_times)
    report.peak_rss(_peak_rss_mb())

    metrics = report.layers if args.trace else report.e2e
    for name, metric in sorted(metrics.items()):
        note = report.notes.get(name)
        print(f"{name} = {metric['value']:.6g} {metric['unit']}"
              + (f"  [{note}]" if note else ""))
    print(f"failed_frac = {report.failed / max(report.attempted, 1):.6g} "
          f"({report.failed}/{report.attempted}); machine probe median "
          f"{report.speed.median_s() * 1e3:.3f} ms")
    for failure in report.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not report.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed if correct else max(report.failed, 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
