"""Top-level GPU: kernel launch, CTA dispatch, and the simulation loop.

The loop advances one cycle at a time over the SMs that hold warps, and
steps an SM only once ``now`` reaches its wake cycle (``SM._wake``): the
first cycle at which it can issue, which the fast engine recomputes
after every step and a CTA launch resets to 0.  CAWA SMs and
reference-engine SMs are due at every cycle, since CAWA charges its
stall counters at each step.  An SM that is not stepped could not have
issued, so its schedulers' empty issue slots are added to
``stats.issue_slots`` in bulk before the sampler and monitor run.
Whenever no SM issues, the loop fast-forwards directly to the earliest
cycle at which any warp might become ready (a memory writeback, a fence
completing, a BOWS back-off delay expiring).  Both are purely
host-performance optimizations: per-cycle accounting (occupancy
sampling, CAWA stall charging) is weighted by the skipped interval, so
results are identical to stepping every SM every cycle.

If no warp can ever become ready again the workload has deadlocked; the
simulator raises :class:`SimulationDeadlock` with per-warp diagnostics —
this is exactly how SIMT-induced deadlocks (paper Section IV) manifest.
Livelocks (warps issuing spin iterations forever) are classified by the
:class:`~repro.sim.progress.ProgressMonitor`, sampled from the loop every
``config.progress_epoch`` cycles; see :mod:`repro.sim.progress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.energy.model import EnergyModel
from repro.isa.program import Program
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.metrics.stats import SimStats
from repro.obs import Observability, as_observability
from repro.sim.config import GPUConfig
# Re-exported here for backwards compatibility: these were defined in
# this module before the forward-progress guard existed.
from repro.sim.progress import (  # noqa: F401
    HangReport,
    ProgressMonitor,
    SimulationDeadlock,
    SimulationHang,
    SimulationLivelock,
    SimulationTimeout,
    build_hang_report,
)
from repro.sim.sm import ENGINES, SM, WarpKey


@dataclass
class KernelLaunch:
    """A kernel invocation: program, grid geometry, scalar parameters."""

    program: Program
    grid_dim: int
    block_dim: int
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ValueError("grid and block dimensions must be positive")


@dataclass
class SimResult:
    """Outcome of one kernel execution."""

    stats: SimStats
    cycles: int
    memory: GlobalMemory
    config: GPUConfig
    launch: KernelLaunch
    sms: List[SM]
    #: Attached :class:`repro.obs.Observability` (event bus + time
    #: series) when the run collected any; None otherwise.
    obs: Optional[Observability] = None
    #: Attached :class:`repro.analysis.Sanitizer` when the run executed
    #: with ``sanitize=``; None otherwise.  Inspect ``.diagnostics`` /
    #: ``.ok`` / ``.render()``.
    sanitizer: Optional[object] = None

    @property
    def ddos_engines(self):
        return [sm.ddos for sm in self.sms if sm.ddos is not None]

    def predicted_sibs(self) -> set:
        """Union of SIB predictions across all SMs' DDOS engines."""
        predicted = set()
        for engine in self.ddos_engines:
            predicted |= engine.predicted_sibs()
        return predicted


class GPU:
    """A multi-SM GPU instance bound to one global-memory image."""

    def __init__(self, config: GPUConfig,
                 memory: Optional[GlobalMemory] = None,
                 tracer=None, engine: str = "fast", obs=None,
                 sanitizer=None) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.config = config
        self.memory = memory if memory is not None else GlobalMemory()
        #: Optional :class:`repro.sim.trace.Tracer` capturing issues.
        self.tracer = tracer
        #: Optional :class:`repro.obs.Observability` (accepts ``True``
        #: or an :class:`repro.obs.ObsConfig` as shorthand): collects
        #: decision events and interval time series during launches.
        self.obs = as_observability(obs)
        #: Optional :class:`repro.analysis.Sanitizer` (accepts ``True``
        #: or a :class:`repro.analysis.SanitizerConfig` as shorthand):
        #: execution-time synchronization checking.  A pure observer —
        #: stats are bitwise identical with it on or off.
        from repro.analysis.sanitizer import as_sanitizer

        self.sanitizer = as_sanitizer(sanitizer)
        #: ``"fast"`` (pre-decoded, event-driven readiness — the default)
        #: or ``"reference"`` (the seed per-cycle re-scan implementation).
        #: Both produce bitwise-identical statistics; see
        #: :mod:`repro.sim.sm`.
        self.engine = engine

    def begin(self, launch: KernelLaunch) -> "Simulation":
        """Construct (but do not run) a resumable simulation of ``launch``."""
        config = self.config
        stats = SimStats()
        memsys = MemorySubsystem(config)
        obs = self.obs
        bus = obs.bus if obs is not None else None
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.begin_run(launch.program.name, bus=bus)
            sanitizer.attach_memory(self.memory)
        lock_table: Dict[int, Tuple[WarpKey, int]] = {}
        sms = [
            SM(
                sm_id=i,
                config=config,
                program=launch.program,
                params=launch.params,
                memory=self.memory,
                memsys=memsys,
                lock_table=lock_table,
                stats=stats,
                tracer=self.tracer,
                engine=self.engine,
                bus=bus,
                sanitizer=sanitizer,
            )
            for i in range(config.num_sms)
        ]

        warp_size = config.warp_size
        warps_per_cta = -(-launch.block_dim // warp_size)
        if warps_per_cta > config.max_warps_per_sm:
            raise ValueError(
                f"CTA of {launch.block_dim} threads needs {warps_per_cta} "
                f"warps; SM holds only {config.max_warps_per_sm}"
            )

        sim = Simulation(
            config=config,
            launch=launch,
            memory=self.memory,
            memsys=memsys,
            stats=stats,
            sms=sms,
            lock_table=lock_table,
            tracer=self.tracer,
            obs=obs,
            sanitizer=sanitizer,
            engine=self.engine,
            warps_per_cta=warps_per_cta,
        )
        sim._dispatch()
        if config.no_progress_window > 0:
            sim.monitor = ProgressMonitor(
                config, sms, self.memory, stats, tracer=self.tracer,
                bus=bus,
            )
        if obs is not None:
            sim.sampler = obs.begin_run(
                stats, memsys.stats, warp_size=config.warp_size
            )
        return sim

    def launch(self, launch: KernelLaunch) -> SimResult:
        """Run ``launch`` to completion and return statistics."""
        return self.begin(launch).run()


class Simulation:
    """One in-flight kernel execution, advanceable and checkpointable.

    Created by :meth:`GPU.begin`; :meth:`run` drives it to completion
    (optionally autocheckpointing every N cycles), :meth:`run_until`
    advances to a cycle boundary, and :meth:`checkpoint` captures the
    complete machine state as a :class:`~repro.sim.checkpoint.SimCheckpoint`.

    Checkpoints are only ever taken *between* loop iterations — the
    state is exactly "about to execute cycle ``now``" — which is what
    makes a resumed run bitwise-identical to an uninterrupted one.  The
    object pickles as a whole graph: classes that hold closures
    (pre-bound emitters, the decoded program) drop them in their own
    ``__getstate__`` and :meth:`_rebind` rebuilds every one of them
    after restore, so ordering hazards between partially-restored
    objects cannot arise.
    """

    def __init__(self, config, launch, memory, memsys, stats, sms,
                 lock_table, tracer, obs, sanitizer, engine,
                 warps_per_cta) -> None:
        self.config = config
        self.launch = launch
        self.memory = memory
        self.memsys = memsys
        self.stats = stats
        self.sms = sms
        self.lock_table = lock_table
        self.tracer = tracer
        self.obs = obs
        self.sanitizer = sanitizer
        self.engine = engine
        self.warps_per_cta = warps_per_cta
        self.monitor: Optional[ProgressMonitor] = None
        self.sampler = None
        self.now = 0
        self.next_cta = 0
        self.age_counter = 0
        self.finished = False
        self.result: Optional[SimResult] = None

    # -- dispatch -------------------------------------------------------

    def _dispatch(self) -> None:
        launch = self.launch
        warps_per_cta = self.warps_per_cta
        for sm in self.sms:
            while (
                self.next_cta < launch.grid_dim
                and sm.can_accept_cta(warps_per_cta)
            ):
                sm.launch_cta(
                    cta_id=self.next_cta,
                    warps_per_cta=warps_per_cta,
                    cta_dim=launch.block_dim,
                    grid_dim=launch.grid_dim,
                    age_base=self.age_counter,
                )
                self.next_cta += 1
                self.age_counter += warps_per_cta

    # -- the cycle loop -------------------------------------------------

    def _advance(self, stop_cycle: Optional[int] = None) -> bool:
        """Advance until completion (→ True) or ``now >= stop_cycle``
        at an iteration boundary (→ False).  Raises on hang/timeout."""
        if self.finished:
            return True
        config = self.config
        launch = self.launch
        sms = self.sms
        monitor = self.monitor
        sampler = self.sampler
        bus = self.obs.bus if self.obs is not None else None
        stats = self.stats
        now = self.now
        num_sms = len(sms)
        n_sched = config.num_schedulers_per_sm
        # The SMs holding warps, the only ones that can issue.  A local:
        # rebuilt only when a CTA dispatches or an SM empties, and never
        # part of checkpointed state.
        active = [sm for sm in sms if sm.warps]
        try:
            while True:
                if stop_cycle is not None and now >= stop_cycle:
                    return False
                issued = 0
                stepped = 0
                regroup = False
                for sm in active:
                    if sm._wake <= now:
                        stepped += 1
                        n = sm.step(now)
                        if n:
                            issued += n
                            if not sm.warps:
                                regroup = True
                # An SM that was not stepped could not have issued: count
                # its schedulers' empty issue slots here instead.
                stats.issue_slots += (num_sms - stepped) * n_sched
                if issued:
                    # Only an issue retires a CTA, so only then can an SM
                    # empty or free slots for the dispatcher to refill.
                    if self.next_cta < launch.grid_dim:
                        before = self.next_cta
                        self._dispatch()
                        regroup = regroup or self.next_cta != before
                    if regroup:
                        active = [sm for sm in sms if sm.warps]
                        if not active and self.next_cta >= launch.grid_dim:
                            break
                if sampler is not None and now >= sampler.next_sample:
                    sampler.sample(now)  # before the monitor, which can raise
                if monitor is not None and now >= monitor.next_sample:
                    monitor.sample(now)  # raises on a classified hang
                if now >= config.max_cycles:
                    report = None
                    if monitor is not None:
                        report = monitor.timeout_report(now)
                    else:
                        report = build_hang_report(
                            "timeout", now, sms, memory=self.memory,
                            stats=stats, tracer=self.tracer,
                            reason="exceeded max_cycles (watchdog disabled)",
                            bus=bus,
                        )
                    raise SimulationTimeout(
                        f"kernel {launch.program.name!r} exceeded "
                        f"{config.max_cycles} cycles\n" + report.describe(),
                        report,
                    )
                if issued:
                    next_now = now + 1
                else:
                    next_now = None
                    for sm in active:
                        e = sm.next_event(now)
                        if e is not None and (next_now is None
                                              or e < next_now):
                            next_now = e
                    if next_now is None:
                        report = build_hang_report(
                            "deadlock", now, sms, memory=self.memory,
                            stats=stats, tracer=self.tracer,
                            reason="no warp can ever become ready again",
                            bus=bus,
                        )
                        raise SimulationDeadlock(report.describe(), report)
                dt = next_now - now
                for sm in active:
                    sm.accumulate_occupancy(dt)
                now = next_now
        finally:
            self.now = now
        self._finish()
        return True

    def _finish(self) -> SimResult:
        stats = self.stats
        now = self.now
        stats.cycles = now
        stats.memory.merge(self.memsys.stats)
        if self.obs is not None:
            self.obs.end_run(now)
        energy = EnergyModel(num_sms=self.config.num_sms).evaluate(stats)
        stats.dynamic_energy_pj = energy.total_pj
        self.finished = True
        self.result = SimResult(
            stats=stats,
            cycles=now,
            memory=self.memory,
            config=self.config,
            launch=self.launch,
            sms=self.sms,
            obs=self.obs,
            sanitizer=self.sanitizer,
        )
        return self.result

    # -- public driving -------------------------------------------------

    def run_until(self, cycle: int) -> bool:
        """Advance to the first iteration boundary at/after ``cycle``;
        returns True when the kernel completed before reaching it."""
        return self._advance(stop_cycle=cycle)

    def run(self, checkpoint_every=None, checkpoint_path=None) -> SimResult:
        """Drive the simulation to completion.

        With ``checkpoint_every`` (``True`` → ``config.progress_epoch``
        cycles, or an explicit positive cycle count), the machine state
        is saved to ``checkpoint_path`` between advance chunks, so a
        run killed or timed out mid-flight resumes from the last epoch
        instead of restarting.  The final checkpoint file is removed on
        successful completion by the *lab* layer (which owns retries),
        not here.
        """
        interval = self._resolve_interval(checkpoint_every)
        if interval is None:
            self._advance()
            return self.result
        if checkpoint_path is None:
            raise ValueError(
                "checkpoint_every requires checkpoint_path "
                "(where should the state go?)"
            )
        while True:
            if self._advance(stop_cycle=self.now + interval):
                return self.result
            self.save_checkpoint(checkpoint_path)

    def _resolve_interval(self, checkpoint_every) -> Optional[int]:
        if checkpoint_every is None or checkpoint_every is False:
            return None
        if checkpoint_every is True:
            return self.config.progress_epoch
        interval = int(checkpoint_every)
        if interval <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        return interval

    # -- checkpointing --------------------------------------------------

    def checkpoint(self):
        """Capture the full machine state (see :mod:`repro.sim.checkpoint`)."""
        from repro.sim.checkpoint import SimCheckpoint

        return SimCheckpoint.capture(self)

    def save_checkpoint(self, path):
        """Capture + atomically write a checkpoint, emitting
        :class:`~repro.obs.events.CheckpointSaved` when a bus is attached."""
        saved = self.checkpoint().save(path)
        bus = self.obs.bus if self.obs is not None else None
        if bus is not None:
            from repro.obs.events import CheckpointSaved

            bus.publish(CheckpointSaved(
                cycle=self.now,
                path=str(saved),
                size_bytes=saved.stat().st_size,
            ))
        return saved

    # -- pickling -------------------------------------------------------

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._rebind()

    def _rebind(self) -> None:
        """Rebuild every closure dropped by ``__getstate__`` hooks.

        Runs once, after the *entire* object graph has been restored, so
        no hook ever touches a partially-restored peer.
        """
        bus = self.obs.bus if self.obs is not None else None
        for sm in self.sms:
            sm._rebind_events(bus)
        if self.monitor is not None:
            self.monitor._rebind_events(bus)
        if self.sanitizer is not None:
            self.sanitizer._rebind_events()
