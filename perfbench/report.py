"""Turns one run's records into checks, end-to-end and per-layer metrics."""

from __future__ import annotations

import math
import statistics
from pathlib import Path

from calibrate import SETUP, SpeedLog
from tracer import OP_CLASSES, percentile_rule

#: Reference points printed beside bows_speedup.
PAPER_FIG9_GEOMEAN = 1.4
EXPERIMENTS_SCALED_GEOMEAN = 1.37

#: Spans whose call count and self time are per-layer metrics.
COUNTED_SPANS = (
    "sim.sm.step", "sim.sm.next_event", "sim.schedulers.select",
    "sim.progress.sample", *(f"sim.executor.{op}" for op in OP_CLASSES),
    "sim.simt_stack.branch", "sim.simt_stack.advance",
    "sim.registers.read", "sim.registers.write",
    "memory.memsys.load", "memory.memsys.store", "memory.memsys.atomic",
    "core.ddos.on_setp", "core.ddos.on_backward_branch", "core.ddos.is_sib",
    "core.bows.on_issue", "core.bows.select_backed_off", "kernels.build",
    "lab.execute_run", "lab.cache.get", "lab.cache.put",
    "lab.journal.append", "lab.spec.hash",
)
#: Spans whose self time alone is a per-layer metric.
SELF_TIME_SPANS = ("sim.gpu.run", "memory.coalescer.coalesce",
                   "sim.executor.decode_program", "isa.assemble",
                   "serve.wire.decode")
#: Spans whose call count alone is a per-layer metric.
CALL_COUNT_SPANS = ("memory.cache.access", "core.adaptive.end_window")
#: Daemon ``status()`` counters reported per layer.
SERVE_COUNTERS = ("submitted", "cache_hits", "attached", "dispatched",
                  "failed", "retried", "worker_losses")


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def frac(num, den):
    return num / den if den else 0.0


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bows_speedup(cycles_by_key):
    """Geomean GTO/BOWS cycles over the kernels run in both modes."""
    ratios = [cycles / cycles_by_key[(kernel, params, "bows")]
              for (kernel, params, mode), cycles in cycles_by_key.items()
              if mode == "gto" and (kernel, params, "bows") in cycles_by_key]
    return geomean(ratios), len(ratios)


def digest(outcome):
    """What must match between two runs of one spec."""
    return (outcome.cycles, outcome.stats.summary(),
            list(outcome.predicted_sibs), outcome.ddos)


class Report:
    """Checks, end-to-end metrics and per-layer metrics of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.e2e = {}
        self.layers = {}
        self.notes = {}
        self.speed = SpeedLog()
        self.daemon_starts = []
        self.miss = []  # (latency s, unit)
        self.hit = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def put(self, target: dict, name: str, value, unit: str,
            note: str = "") -> None:
        target[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    # -- end to end -----------------------------------------------------

    def setup(self, probe_times) -> None:
        """``setup_s``: median fresh-interpreter set-up, plus the median
        daemon start for the served sweep, at reference machine speed."""
        raw = median(probe_times) + median(self.daemon_starts)
        scale = self.speed.slowdown(SETUP)
        note = f"median of {len(probe_times)} fresh interpreters"
        if self.daemon_starts:
            note += (f" + median of {len(self.daemon_starts)} daemon "
                     "starts to first ping")
        self.put(self.e2e, "setup_s", raw / scale, "s",
                 f"{note}; raw {raw:.4g} s")

    def modelled(self, cycles_by_key, runs_note: str) -> None:
        self.put(self.e2e, "sim_cycles", sum(cycles_by_key.values()),
                 "count", f"{len(cycles_by_key)} distinct simulations"
                 f"{runs_note}")
        speedup, pairs = bows_speedup(cycles_by_key)
        self.put(self.e2e, "bows_speedup", speedup, "x",
                 f"geomean GTO/BOWS cycles over {pairs} kernels; paper "
                 f"Fig. 9: {PAPER_FIG9_GEOMEAN}x, EXPERIMENTS.md at scaled "
                 f"size: {EXPERIMENTS_SCALED_GEOMEAN}x; GTX480-shape model "
                 "unvalidated (no error figure); modelled caches start empty")

    def throughput(self, units, what: str, latencies, latency_note: str
                   ) -> None:
        """Rates are medians over ``units`` — ``(unit id, specs, warp
        instructions, cycles, busy seconds)`` of each pass or round —
        and the latency is the median of ``latencies``, ``(seconds, unit
        id)``; each figure is scaled by the machine slowdown probed in
        its unit."""
        def rate(i, scaled=True):
            return median(u[i] / u[4] * (self.speed.slowdown(u[0])
                                         if scaled else 1.0)
                          for u in units if u[4] > 0)

        n = len(units)
        for name, i in (("sim_winstr_per_s", 2), ("sim_cycles_per_s", 3),
                        ("specs_per_s", 1)):
            self.put(self.e2e, name, rate(i), "1/s",
                     f"median of {n} {what}; {sum(u[i] for u in units)} in "
                     f"total; raw {rate(i, False):.5g} 1/s")
        scaled = [lat / self.speed.slowdown(unit) for lat, unit in latencies]
        self.put(self.e2e, "miss_latency_p50_ms", median(scaled) * 1e3,
                 "ms", f"{latency_note}; raw "
                 f"{median(lat for lat, _ in latencies) * 1e3:.4g} ms")

    def sim_results(self, passes) -> None:
        first = passes[0]["runs"]
        self.attempted += sum(len(p["runs"]) for p in passes)
        self.modelled({r["key"]: r["cycles"] for r in first}, "")
        self.miss = [(r["latency_s"], i) for i, p in enumerate(passes)
                     for r in p["runs"]]
        # A pass mixes kernels whose latencies differ several-fold, so a
        # median over single simulations sits on the edge between two
        # kernels and jumps with it; the per-pass mean does not.
        self.throughput(
            [(i, len(p["runs"]),
              sum(r["stats"].warp_instructions for r in p["runs"]),
              sum(r["cycles"] for r in p["runs"]), p["wall_s"])
             for i, p in enumerate(passes)], "passes",
            [(p["wall_s"] / len(p["runs"]), i)
             for i, p in enumerate(passes)],
            f"median over {len(passes)} passes of the mean simulation "
            f"latency; {len(self.miss)} simulations")
        self.sim_first = first

    def sweep_results(self, run, min_rounds: int) -> None:
        records = run.records
        self.attempted += len(records)
        for rec in records:
            if not rec.outcome.ok:
                self.failed += 1
                self.failures.append(f"{rec.spec.kernel}/{rec.spec.mode}: "
                                     f"{rec.outcome.describe()}")
        good = [r for r in records if r.outcome.ok]
        first = {}
        for rec in good:
            base = first.setdefault(rec.spec.key, rec.outcome)
            self.check(digest(base) == digest(rec.outcome),
                       f"{rec.spec.kernel}/{rec.spec.mode}: repeat "
                       "submissions gave different results")
            if rec.spec.kind == "hit":
                self.check(rec.status == "cached",
                           f"{rec.spec.kernel}/{rec.spec.mode}: repeat of "
                           f"a completed spec was {rec.status}, not cached")
        # The modelled totals cover the rounds every run replays, so the
        # host's speed cannot change them.
        early = {r.spec.key for r in good if r.spec.round < min_rounds}
        self.modelled({key: first[key].cycles for key in early},
                      f" in the first {min_rounds} rounds")
        self.miss = [(r.latency_s, r.spec.round) for r in records
                     if r.spec.kind != "hit"]
        self.hit = [r.latency_s for r in records if r.spec.kind == "hit"]
        units = []
        for round_ in sorted({rec.spec.round for rec in records}):
            chunk = [rec for rec in records if rec.spec.round == round_]
            executed = [rec.outcome for rec in chunk
                        if rec.outcome.ok and rec.executed]
            # Busy time: each group from its first submit to its last
            # outcome; the gaps between groups hold the speed probe.
            busy = {}
            for rec in chunk:
                lo, hi = busy.get(rec.spec.group, (rec.submitted, rec.done))
                busy[rec.spec.group] = (min(lo, rec.submitted),
                                        max(hi, rec.done))
            units.append((round_, len(chunk),
                          sum(o.stats.warp_instructions for o in executed),
                          sum(o.cycles for o in executed),
                          sum(hi - lo for lo, hi in busy.values())))
        self.throughput(units, "rounds", self.miss, f"n={len(self.miss)}")

    def peak_rss(self, mb: float) -> None:
        self.put(self.e2e, "peak_rss_mb", mb, "MB",
                 "this process + its largest descendant")

    # -- per layer ------------------------------------------------------

    def spans(self, tracer, overhead: float, trace_dir: Path) -> dict:
        spans = tracer.summarize()

        def get(name, field):
            return spans.get(name, {}).get(field, 0)

        L = self.layers
        for name in SELF_TIME_SPANS:
            self.put(L, f"{name}.self_s", get(name, "self_s"), "s")
        self.put(L, "isa.program.analysis_s",
                 get("isa.program.analysis", "self_s"), "s")
        for name in COUNTED_SPANS:
            self.put(L, f"{name}.calls", get(name, "calls"), "count")
            self.put(L, f"{name}.self_s", get(name, "self_s"), "s")
        for name in CALL_COUNT_SPANS:
            self.put(L, f"{name}.calls", get(name, "calls"), "count")
        counters = tracer.counters
        self.put(L, "sim.sm.idle_step_frac",
                 frac(counters.get("sim.sm.idle_steps", 0),
                      get("sim.sm.step", "calls")), "ratio",
                 "SM steps that issued nothing")
        self.put(L, "core.bows.select_hit_frac",
                 frac(counters.get("core.bows.select_hits", 0),
                      get("core.bows.select_backed_off", "calls")), "ratio",
                 "back-off selections that found a warp")
        gets = get("lab.cache.get", "calls")
        self.put(L, "lab.cache.hit_ratio",
                 frac(gets - counters.get("lab.cache.misses", 0), gets),
                 "ratio")
        rpc = tracer.durations("serve.submit_rpc")
        self.put(L, "serve.submit_rpc_ms_p50", median(rpc) * 1e3, "ms",
                 f"n={len(rpc)}")
        self.put(L, "trace.overhead_ratio", overhead, "x",
                 "traced wall time / untraced wall time of the same inputs")
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{self.workload}.spans"
        self.put(L, "trace.spans", tracer.write(path), "count",
                 f"written to {path.name}")
        return spans

    def modelled_layers(self, stats_list, sib_pairs) -> None:
        """Modelled per-layer counters, from the runs' SimStats."""
        L = self.layers

        def total(get):
            return sum(get(s) for s in stats_list)

        self.put(L, "sim.sm.issue_ratio",
                 frac(total(lambda s: s.issued_slots),
                      total(lambda s: s.issue_slots)), "ratio",
                 "issued / issue slots")
        mem = [s.memory for s in stats_list]
        for level in ("l1", "l2"):
            hits = sum(getattr(m, f"{level}_hits") for m in mem)
            misses = sum(getattr(m, f"{level}_misses") for m in mem)
            self.put(L, f"memory.cache.{level}_hit_ratio",
                     frac(hits, hits + misses), "ratio")
        self.put(L, "memory.memsys.transactions",
                 sum(m.total_transactions for m in mem), "count")
        fails = total(lambda s: s.locks.inter_warp_fail
                      + s.locks.intra_warp_fail)
        self.put(L, "core.lock.fail_frac",
                 frac(fails, fails + total(lambda s: s.locks.lock_success)),
                 "ratio")
        self.put(L, "core.backed_off_frac",
                 frac(total(lambda s: s.backed_off_warp_cycles),
                      total(lambda s: s.resident_warp_cycles)), "ratio")
        self.put(L, "core.sib_instr_frac",
                 frac(total(lambda s: s.sib_warp_instructions),
                      total(lambda s: s.warp_instructions)), "ratio")
        self.put(L, "core.ddos.false_sibs",
                 sum(len(set(p) - set(t)) for p, t in sib_pairs), "count",
                 "DDOS-predicted SIBs without a !sib annotation")

    def latency_layers(self) -> None:
        L = self.layers
        for name, samples in (("miss", [lat for lat, _ in self.miss]),
                              ("hit", self.hit)):
            tail = percentile_rule(samples)
            note = (f"p{tail[0]:g}, the highest with 10 samples beyond"
                    if tail else "median: under 20 samples")
            value = tail[1] if tail else median(samples)
            self.put(L, f"{name}_latency_tail_ms", value * 1e3, "ms",
                     f"{note}; n={len(samples)}")
        self.put(L, "hit_latency_p50_ms", median(self.hit) * 1e3, "ms",
                 f"n={len(self.hit)}")

    def lab_layers(self, executed, run) -> None:
        """Lab and run-phase metrics of sweep executions, which happen in
        worker processes: taken from the RunResult timings the worker
        measured around ``execute_run``."""
        L = self.layers
        if executed:
            self.put(L, "lab.execute_run.calls", len(executed), "count",
                     "from RunResult.elapsed_s and phases")
            self.put(L, "lab.execute_run.self_s", sum(
                r.outcome.elapsed_s - sum(r.outcome.phases.values())
                for r in executed), "s")
        for phase in ("build", "simulate", "score"):
            self.put(L, f"run.{phase}_s", sum(
                r.outcome.phases[f"{phase}_s"] for r in executed), "s",
                "sum of RunResult.phases")
        local = run if self.workload == "local-sweep" else None
        self.put(L, "lab.runner.retries", local.retried if local else 0,
                 "count")
        self.put(L, "lab.runner.worker_lost",
                 local.worker_lost if local else 0, "count")
        waits = [r.latency_s - r.outcome.elapsed_s for r in executed] \
            if local else []
        self.put(L, "lab.runner.queue_wait_ms_p50", median(waits) * 1e3,
                 "ms", f"latency - elapsed_s, n={len(waits)}")

    def serve_layers(self, run, executed) -> None:
        L = self.layers
        served = run if self.workload == "served-sweep" else None
        counters = served.status if served else {}
        for name in SERVE_COUNTERS:
            self.put(L, f"serve.status.{name}", counters.get(name, 0),
                     "count")
        self.put(L, "serve.dedup_ratio", frac(
            counters.get("cache_hits", 0) + counters.get("attached", 0),
            counters.get("submitted", 0)), "ratio",
            "(cache hits + attaches) / submits")
        waits = sorted(r.latency_s - r.outcome.elapsed_s
                       for r in executed) if served else []
        for p in (50, 90):
            value = (statistics.quantiles(waits, n=100)[p - 1]
                     if len(waits) > 1 else median(waits))
            self.put(L, f"serve.queue_wait_ms_p{p}", value * 1e3, "ms",
                     f"latency - elapsed_s, n={len(waits)}")
        busy = sum(r.outcome.elapsed_s for r in executed) if served else 0.0
        self.put(L, "serve.worker_util",
                 frac(busy, served.wall_s) if served else 0.0, "ratio",
                 "sum of elapsed_s / wall time")

    def trace_sim(self, tracer, overhead, traced_runs, num_sms: int,
                  trace_dir: Path) -> None:
        spans = self.spans(tracer, overhead, trace_dir)
        steps = spans.get("sim.sm.step", {}).get("calls", 0)
        cycles = sum(r["cycles"] for r in traced_runs)
        self.put(self.layers, "sim.gpu.ff_ratio",
                 1 - frac(steps / num_sms, cycles) if cycles else 0.0,
                 "ratio", "cycles skipped by fast-forward / cycles")
        self.modelled_layers(
            [r["stats"] for r in self.sim_first],
            [(r["predicted"], r["true_sibs"]) for r in self.sim_first
             if r["ddos"]])
        self.lab_layers([], None)
        self.serve_layers(None, [])
        self.latency_layers()

    def trace_sweep(self, tracer, traced, overhead, trace_dir: Path) -> None:
        import repro.kernels

        self.spans(tracer, overhead, trace_dir)
        self.put(self.layers, "sim.gpu.ff_ratio", 0.0, "ratio",
                 "simulations run in worker processes, not traced")
        first = {}
        for rec in traced.records:
            first.setdefault(rec.spec.key, rec.outcome)
        sib_pairs = [
            (outcome.predicted_sibs, sorted(repro.kernels.build(
                kernel, **dict(params)).launch.program.true_sibs()))
            for (kernel, params, mode), outcome in first.items()
            if mode == "bows"]
        self.modelled_layers([o.stats for o in first.values()], sib_pairs)
        executed = [r for r in traced.records
                    if r.outcome.ok and r.executed]
        self.lab_layers(executed, traced)
        self.serve_layers(traced, executed)
        self.latency_layers()
