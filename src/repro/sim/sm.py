"""Streaming multiprocessor: issue arbitration and instruction execution.

Per cycle, each of the SM's warp schedulers issues at most one instruction
from a ready warp.  Readiness = not finished, not blocked at a barrier or
memory fence, and the instruction's registers clear the scoreboard.

BOWS arbitration (paper Figure 8) is layered on the base policy:

1. the base policy chooses among ready warps that are *not* backed off
   (greedy/oldest/criticality per policy);
2. only if none exists is the backed-off queue consulted, FIFO, and a
   backed-off warp is eligible only once its pending back-off delay has
   expired;
3. a warp leaving the backed-off state reverts to normal priority and its
   pending delay register restarts.

DDOS hooks: ``setp`` executions update the issuing warp's path/value
history (profiled thread = first active lane); backward branches consult
and train the SIB-PT.

Two engines share this class and produce bitwise-identical statistics:

* ``engine="reference"`` (the default for directly-constructed SMs) —
  the seed implementation: every scheduler re-scans all of its warps'
  readiness each cycle and every issue re-reads operands through
  :func:`repro.sim.executor.read_operand`.
* ``engine="fast"`` (what :class:`repro.sim.gpu.GPU` uses by default) —
  warps are pre-decoded once per program
  (:func:`repro.sim.executor.decode_program`) and tracked in
  per-scheduler ready sets plus a ready-event heap keyed by each warp's
  next possible issue cycle, so idle warps cost no per-cycle host work.
  A warp's readiness inputs (scoreboard, memory fence) only change when
  the warp itself issues, so its cached ``_ready_from`` is refreshed
  exactly there; barrier releases re-register freed warps immediately
  so a warp freed by an earlier scheduler's issue can still issue from
  a later scheduler in the same cycle, as in the reference engine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bows import BOWSUnit
from repro.core.cawa import CAWAPredictor
from repro.core.ddos import DDOSEngine
from repro.isa.instructions import Instruction, Mem, Opcode
from repro.isa.program import Program
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.metrics.stats import SimStats
from repro.obs.bus import null_emitter
from repro.obs.events import (
    BarrierArrive,
    BarrierRelease,
    LockAcquireFail,
    LockAcquireSuccess,
)
from repro.sim.config import GPUConfig
from repro.sim.executor import (
    decode_program,
    effective_addresses,
    eval_alu,
    eval_cmp,
    read_operand,
)
from repro.sim.schedulers import make_scheduler
from repro.sim.warp import Warp

#: Identifies a warp across the whole GPU for lock-holder tracking.
WarpKey = Tuple[int, int]  # (cta_id, warp_in_cta)

#: Valid values for the ``engine`` argument of :class:`SM` and
#: :class:`repro.sim.gpu.GPU`.
ENGINES = ("fast", "reference")


#: ``_wake`` of an SM that can never issue again without a CTA launch.
_NEVER = 1 << 62


def _noop_trace(cycle, warp, instr, active_lanes) -> None:
    """Pre-bound sink used when no tracer is attached (hot path)."""


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        program: Program,
        params: Dict[str, int],
        memory: GlobalMemory,
        memsys: MemorySubsystem,
        lock_table: Dict[int, Tuple[WarpKey, int]],
        stats: SimStats,
        tracer=None,
        engine: str = "reference",
        bus=None,
        sanitizer=None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.tracer = tracer
        self.sm_id = sm_id
        self.config = config
        self.program = program
        self.params = params
        self.memory = memory
        self.memsys = memsys
        self.lock_table = lock_table
        self.stats = stats
        #: Dynamic sanitizer (None when off — every hook site guards on
        #: ``self.san is not None`` so the hot path pays one test).
        self.san = sanitizer

        self.warps: Dict[int, Warp] = {}
        self._free_slots: List[int] = list(range(config.max_warps_per_sm))
        self._cta_slots: Dict[int, List[int]] = {}
        self._barrier_pending: Dict[int, Set[int]] = {}

        n_sched = config.num_schedulers_per_sm
        self.schedulers = [
            make_scheduler(
                config.scheduler,
                config,
                [s for s in range(config.max_warps_per_sm) if s % n_sched == i],
                salt=sm_id * n_sched + i,
            )
            for i in range(n_sched)
        ]
        self.bows: Optional[BOWSUnit] = (
            BOWSUnit(config.bows, sm_id=sm_id, bus=bus)
            if config.bows is not None else None
        )
        self.ddos: Optional[DDOSEngine] = (
            DDOSEngine(config.ddos, program, config.max_warps_per_sm,
                       sm_id=sm_id, bus=bus)
            if config.ddos is not None
            else None
        )
        #: Pre-bound obs event sinks (no-ops when no bus is attached);
        #: all emission sites are off the per-issue critical path.
        if bus is not None:
            self._emit_lock_ok = bus.emitter(LockAcquireSuccess)
            self._emit_lock_fail = bus.emitter(LockAcquireFail)
            self._emit_bar_arrive = bus.emitter(BarrierArrive)
            self._emit_bar_release = bus.emitter(BarrierRelease)
        else:
            self._emit_lock_ok = null_emitter
            self._emit_lock_fail = null_emitter
            self._emit_bar_arrive = null_emitter
            self._emit_bar_release = null_emitter
        self.cawa: Optional[CAWAPredictor] = (
            CAWAPredictor() if config.scheduler == "cawa" else None
        )
        #: Static SIB annotations, used when BOWS runs without DDOS
        #: (the paper's "programmer or compiler identified" mode).
        self._static_sibs = program.true_sibs()
        self._last_charge = 0
        #: First cycle at which this SM can issue again; the GPU loop
        #: steps the SM only once ``now`` reaches it.  Recomputed after
        #: every fast-engine step (see :meth:`_step_fast`); it stays 0
        #: -- always due -- on the reference engine and under CAWA,
        #: whose stall charging must run at every visited cycle.
        self._wake = 0

        self.engine = engine
        self._fast = engine == "fast"
        #: Pre-bound tracer sink: no per-issue branch on ``tracer``.
        self._trace = tracer.record if tracer is not None else _noop_trace
        if self._fast:
            self._decoded_prog = decode_program(program, config, params)
            #: Per-scheduler sets of slots ready to issue right now,
            #: split by BOWS state so the reference loop's per-cycle
            #: "normal" subset is available without recomputation.
            self._ready_normal: List[Set[int]] = [
                set() for _ in self.schedulers
            ]
            self._ready_backed: List[Set[int]] = [
                set() for _ in self.schedulers
            ]
            #: (ready_from, slot) heap of warps waiting on a known cycle.
            self._wait_heap: List[Tuple[int, int]] = []
            #: slot -> its live heap key (guards against stale entries).
            self._waiting: Dict[int, int] = {}
            self._sched_of = [
                slot % n_sched for slot in range(config.max_warps_per_sm)
            ]
            #: O(1) occupancy counters mirrored from the warp states.
            self._n_live = 0
            self._n_backed = 0
            for scheduler in self.schedulers:
                scheduler.enable_order_cache()
            # Skip the per-SM dispatch wrapper frames on the hot path.
            self.step = self._step_fast
            self.next_event = self._next_event_fast

    # ------------------------------------------------------------------
    # Checkpointing

    def __getstate__(self):
        """Drop the closures (emitters, decoded program) for pickling.

        Everything else — warps, schedulers, ready sets, wait heap,
        BOWS/DDOS units — pickles as-is with shared identity preserved;
        :meth:`repro.sim.gpu.Simulation._rebind` calls
        :meth:`_rebind_events` after the whole graph is restored.
        """
        state = self.__dict__.copy()
        state["_emit_lock_ok"] = None
        state["_emit_lock_fail"] = None
        state["_emit_bar_arrive"] = None
        state["_emit_bar_release"] = None
        if self._fast:
            state["_decoded_prog"] = None
        return state

    def _rebind_events(self, bus) -> None:
        """Rebuild dropped closures after a checkpoint restore."""
        if bus is not None:
            self._emit_lock_ok = bus.emitter(LockAcquireSuccess)
            self._emit_lock_fail = bus.emitter(LockAcquireFail)
            self._emit_bar_arrive = bus.emitter(BarrierArrive)
            self._emit_bar_release = bus.emitter(BarrierRelease)
        else:
            self._emit_lock_ok = null_emitter
            self._emit_lock_fail = null_emitter
            self._emit_bar_arrive = null_emitter
            self._emit_bar_release = null_emitter
        if self.bows is not None:
            self.bows._rebind_events(bus)
        if self.ddos is not None:
            self.ddos._rebind_events(bus)
        if self._fast:
            # Re-decode deterministically; each live warp's cached op is
            # re-derived from its restored PC.  The pickled _sb_max /
            # _ready_from ints are kept verbatim (recomputing them could
            # observe a differently-pruned scoreboard).
            self._decoded_prog = decode_program(
                self.program, self.config, self.params
            )
            ops = self._decoded_prog.ops
            for warp in self.warps.values():
                # Finished warps never issue again (the live engine stops
                # refreshing them, and their PC may sit past the program
                # end); leave their cache unset.
                if not warp.finished:
                    warp._decoded = ops[warp.stack.pc]

    # ------------------------------------------------------------------
    # CTA residency

    def can_accept_cta(self, warps_per_cta: int) -> bool:
        within_cta_limit = len(self._cta_slots) < self.config.max_ctas_per_sm
        return within_cta_limit and len(self._free_slots) >= warps_per_cta

    def launch_cta(self, cta_id: int, warps_per_cta: int, cta_dim: int,
                   grid_dim: int, age_base: int) -> None:
        """Place one CTA's warps into free warp slots."""
        if not self.can_accept_cta(warps_per_cta):
            raise RuntimeError(f"SM{self.sm_id} cannot accept CTA {cta_id}")
        slots = [self._free_slots.pop(0) for _ in range(warps_per_cta)]
        self._cta_slots[cta_id] = slots
        for i, slot in enumerate(slots):
            self.warps[slot] = Warp(
                program=self.program,
                warp_slot=slot,
                sm_id=self.sm_id,
                cta_id=cta_id,
                warp_in_cta=i,
                cta_dim=cta_dim,
                grid_dim=grid_dim,
                warp_size=self.config.warp_size,
                age=age_base + i,
            )
            if self.bows is not None:
                self.bows.on_warp_reset(slot)
            if self._fast:
                # Fresh warps are always immediately issuable (empty
                # scoreboard, no fence): straight to the ready set.
                warp = self.warps[slot]
                self._refresh(warp)
                self._ready_normal[self._sched_of[slot]].add(slot)
                self._n_live += 1
        for scheduler in self.schedulers:
            scheduler.invalidate_order()
        self._wake = 0

    @property
    def resident_ctas(self) -> int:
        return len(self._cta_slots)

    @property
    def idle(self) -> bool:
        return not self.warps

    # ------------------------------------------------------------------
    # Per-cycle operation

    def step(self, now: int) -> int:
        """Let every scheduler try to issue; returns instructions issued."""
        if self._fast:
            return self._step_fast(now)
        if self.cawa is not None:
            self._charge_cawa(now)
        issued = 0
        for scheduler in self.schedulers:
            self.stats.issue_slots += 1
            ready = {
                slot
                for slot in scheduler.slots
                if slot in self.warps and self._ready(self.warps[slot], now)
            }
            if not ready:
                continue
            if self.bows is not None:
                normal = {
                    slot for slot in ready if not self.warps[slot].backed_off
                }
                slot = scheduler.select(normal, self.warps, now)
                if slot is None:
                    slot = self.bows.select_backed_off(ready, now, self.warps)
            else:
                slot = scheduler.select(ready, self.warps, now)
            if slot is None:
                continue
            warp = self.warps[slot]
            self._issue(warp, now)
            scheduler.notify_issue(slot, now)
            self.stats.issued_slots += 1
            issued += 1
            if warp.finished:
                # A finished warp never blocks its CTA's barrier: its
                # exit may release warp-mates already waiting there.
                self._barrier_arrive(warp.cta_id, now=now)
                self._retire_if_cta_done(warp.cta_id, now=now)
        return issued

    def _step_fast(self, now: int) -> int:
        """Fast-engine :meth:`step`: O(schedulers + ready warps) per cycle.

        Semantics are identical to the reference loop; only the ready-set
        computation differs — instead of re-scanning every warp, warps
        whose wake-up cycle arrived are drained from the wait heap into
        their scheduler's ready set, and issuing warps are re-registered
        with a freshly cached ``_ready_from``.

        Afterwards it sets ``_wake``, the first cycle at which a step can
        issue: ``now + 1`` while a non-backed-off warp is ready,
        otherwise the earliest of the wait-heap top and the ready
        backed-off warps' pending delays.  Until then a step would only
        count empty issue slots, which the GPU loop does in bulk.
        """
        if self.cawa is not None:
            self._charge_cawa(now)
        heap = self._wait_heap
        waiting = self._waiting
        warps = self.warps
        while heap and heap[0][0] <= now:
            t, slot = heappop(heap)
            if waiting.get(slot) == t:
                del waiting[slot]
                sets = (
                    self._ready_backed
                    if warps[slot].backed_off else self._ready_normal
                )
                sets[self._sched_of[slot]].add(slot)
        issued = 0
        stats = self.stats
        bows = self.bows
        for i, scheduler in enumerate(self.schedulers):
            stats.issue_slots += 1
            normal = self._ready_normal[i]
            backed = self._ready_backed[i]
            if not normal and not backed:
                continue
            slot = scheduler.select(normal, warps, now)
            if slot is not None:
                normal.discard(slot)
            elif bows is not None:
                slot = bows.select_backed_off(backed, now, warps)
                if slot is None:
                    continue
                backed.discard(slot)
            else:
                continue
            warp = warps[slot]
            was_backed = warp.backed_off
            self._issue_fast(warp, now)
            if warp.backed_off != was_backed:
                self._n_backed += 1 if warp.backed_off else -1
            scheduler.notify_issue(slot, now)
            stats.issued_slots += 1
            issued += 1
            if warp.finished:
                self._n_live -= 1
                # A finished warp never blocks its CTA's barrier: its
                # exit may release warp-mates already waiting there.
                self._barrier_arrive(warp.cta_id, now=now, skip_slot=slot)
                self._retire_if_cta_done(warp.cta_id, now=now)
            else:
                self._refresh(warp)
                if not warp.at_barrier:
                    self._register(warp, now)
        if self.cawa is not None:
            return issued  # CAWA charges stalls every cycle: always due
        for ready in self._ready_normal:
            if ready:
                self._wake = now + 1
                return issued
        # Every heap key is > now here: due entries were drained above,
        # and _register pushes only keys > now.
        wake = heap[0][0] if heap else _NEVER
        for backed in self._ready_backed:
            for slot in backed:
                t = warps[slot].pending_delay_until
                if t < wake:
                    wake = t
        self._wake = wake if wake > now else now + 1
        return issued

    def _refresh(self, warp: Warp) -> None:
        """Re-cache the warp's decoded op and earliest issue cycle.

        Called after every issue by ``warp`` (and at launch) — the only
        points where its PC, scoreboard, or memory fence can change.
        """
        dop = self._decoded_prog.ops[warp.stack.pc]
        warp._decoded = dop
        pending = warp.scoreboard._pending
        sb_max = 0
        if pending:
            for key in dop.hazard_keys:
                release = pending.get(key)
                if release is not None and release > sb_max:
                    sb_max = release
        warp._sb_max = sb_max
        membar = warp.membar_until
        warp._ready_from = membar if membar > sb_max else sb_max

    def _register(self, warp: Warp, now: int) -> None:
        """File the warp under ready-now or the wait heap."""
        t = warp._ready_from
        slot = warp.warp_slot
        if t <= now:
            sets = (
                self._ready_backed if warp.backed_off
                else self._ready_normal
            )
            sets[self._sched_of[slot]].add(slot)
        else:
            heappush(self._wait_heap, (t, slot))
            self._waiting[slot] = t

    def _ready(self, warp: Warp, now: int) -> bool:
        if warp.finished or warp.at_barrier:
            return False
        if warp.membar_until > now:
            return False
        instr = warp.current_instruction()
        return warp.scoreboard.ready(warp.hazard_names(instr), now)

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` when some warp may become ready."""
        if self._fast:
            return self._next_event_fast(now)
        best: Optional[int] = None

        def consider(t: Optional[int]) -> None:
            nonlocal best
            if t is not None and t > now and (best is None or t < best):
                best = t

        for warp in self.warps.values():
            if warp.finished or warp.at_barrier:
                continue
            if warp.membar_until > now:
                consider(warp.membar_until)
                continue
            instr = warp.current_instruction()
            release = warp.scoreboard.next_release(
                warp.hazard_names(instr), now
            )
            if release is not None:
                consider(release)
                continue
            # Ready except (possibly) for its BOWS pending delay.
            if warp.backed_off and warp.pending_delay_until > now:
                consider(warp.pending_delay_until)
            else:
                consider(now + 1)
        return best

    def _next_event_fast(self, now: int) -> Optional[int]:
        """Fast-engine :meth:`next_event` over the cached per-warp scalars.

        Requires every wait-heap key to be ``> now``: either the SM
        stepped at ``now`` (which drains due entries), or it was not
        stepped because ``_wake > now``, and ``_wake`` never exceeds the
        heap top.  The ready sets and the waiting map then partition
        exactly the warps the reference scan would visit (non-finished,
        non-barrier), so no per-warp state checks are needed:

        * a ready non-backed-off warp contributes ``now + 1`` — the
          smallest candidate any warp can contribute, so return it;
        * a ready backed-off warp contributes its pending delay (or
          ``now + 1`` once expired);
        * a waiting warp replicates the reference chain's fence-first
          quirk: ``membar_until`` if fenced — even when a scoreboard
          release lands later — else the scoreboard release.  The heap
          keys (``max`` of the two) must not be used here.
        """
        for ready in self._ready_normal:
            if ready:
                return now + 1
        best: Optional[int] = None
        warps = self.warps
        for ready in self._ready_backed:
            for slot in ready:
                warp = warps[slot]
                t = warp.pending_delay_until
                if t <= now:
                    return now + 1
                if best is None or t < best:
                    best = t
        for slot in self._waiting:
            warp = warps[slot]
            membar = warp.membar_until
            t = membar if membar > now else warp._sb_max
            if best is None or t < best:
                best = t
        return best

    def accumulate_occupancy(self, dt: float) -> None:
        """Weight the current backed-off/live warp counts by ``dt`` cycles."""
        if self._fast:
            self.stats.resident_warp_cycles += dt * self._n_live
            self.stats.backed_off_warp_cycles += dt * self._n_backed
            return
        live = sum(1 for w in self.warps.values() if not w.finished)
        backed = sum(
            1 for w in self.warps.values()
            if not w.finished and w.backed_off
        )
        self.stats.resident_warp_cycles += dt * live
        self.stats.backed_off_warp_cycles += dt * backed

    # ------------------------------------------------------------------
    # Issue / execute

    def _issue(self, warp: Warp, now: int) -> None:
        instr = warp.current_instruction()
        exec_mask = warp.exec_mask(instr)
        n_exec = int(exec_mask.sum())
        is_sib = self._is_sib(instr)
        if self.tracer is not None:
            self.tracer.record(now, warp, instr, n_exec)

        # Bookkeeping common to all instructions.
        stats = self.stats
        stats.warp_instructions += 1
        stats.thread_instructions += n_exec
        stats.active_lane_sum += n_exec
        if instr.has_role("sync"):
            stats.sync_thread_instructions += n_exec
        else:
            stats.useful_thread_instructions += n_exec
        if is_sib:
            stats.sib_warp_instructions += 1
            stats.sib_thread_instructions += n_exec
        warp.issued_instructions += 1
        warp.thread_instructions += n_exec
        if self.cawa is not None:
            self.cawa.on_issue(warp, instr, now)
        if self.bows is not None:
            self.bows.on_issue(
                warp, now, is_sib,
                is_store=instr.opcode is Opcode.ST_GLOBAL,
            )

        op = instr.opcode
        if op is Opcode.BRA:
            self._execute_branch(warp, instr, exec_mask, now)
        elif op is Opcode.EXIT:
            self._execute_exit(warp, instr, exec_mask)
        elif op is Opcode.SETP:
            self._execute_setp(warp, instr, exec_mask, now)
        elif op is Opcode.BAR_SYNC:
            warp.stack.advance()
            warp.at_barrier = True
            stats.barrier_waits += 1
            self._emit_bar_arrive(
                cycle=now, sm_id=self.sm_id, cta_id=warp.cta_id,
                warp_slot=warp.warp_slot,
            )
            if self.san is not None:
                self.san.note_barrier(
                    self.sm_id, warp.cta_id, warp.warp_in_cta,
                    instr.index, now, warp.stack.depth,
                )
            self._barrier_arrive(warp.cta_id, now=now)
        elif op is Opcode.MEMBAR:
            warp.membar_until = max(now + 1, warp.last_store_completion)
            warp.stack.advance()
        elif op is Opcode.CLOCK:
            values = np.full(self.config.warp_size, now, dtype=np.int64)
            warp.regs.write(instr.dst.name, values, exec_mask)
            self._reserve(warp, instr, now + self.config.alu_latency)
            warp.stack.advance()
        elif op is Opcode.LD_PARAM:
            value = self.params[instr.srcs[0].name]
            values = np.full(self.config.warp_size, value, dtype=np.int64)
            warp.regs.write(instr.dst.name, values, exec_mask)
            self._reserve(warp, instr, now + self.config.alu_latency)
            warp.stack.advance()
        elif op in (Opcode.LD_GLOBAL, Opcode.LD_GLOBAL_CG):
            self._execute_load(warp, instr, exec_mask, now)
        elif op is Opcode.ST_GLOBAL:
            self._execute_store(warp, instr, exec_mask, now)
        elif instr.is_atomic:
            self._execute_atomic(warp, instr, exec_mask, now)
            stats.atomic_warp_instructions += 1
        elif op is Opcode.NOP:
            warp.stack.advance()
        else:
            self._execute_alu(warp, instr, exec_mask, now)

    def _issue_fast(self, warp: Warp, now: int) -> None:
        """Fast-engine :meth:`_issue`: pre-decoded record, no dispatch.

        Mirrors the reference prologue field for field, then jumps
        straight to the op's specialized handler.
        """
        dop = warp._decoded
        exec_mask = dop.mask_fn(warp)
        n_exec = int(np.count_nonzero(exec_mask))
        ddos = self.ddos
        if dop.is_branch:
            if ddos is not None:
                is_sib = ddos.is_sib(dop.index)
            else:
                is_sib = dop.static_sib if self.bows is not None else False
        else:
            is_sib = False
        self._trace(now, warp, dop.instr, n_exec)

        stats = self.stats
        stats.warp_instructions += 1
        stats.thread_instructions += n_exec
        stats.active_lane_sum += n_exec
        if dop.is_sync:
            stats.sync_thread_instructions += n_exec
        else:
            stats.useful_thread_instructions += n_exec
        if is_sib:
            stats.sib_warp_instructions += 1
            stats.sib_thread_instructions += n_exec
        warp.issued_instructions += 1
        warp.thread_instructions += n_exec
        if self.cawa is not None:
            self.cawa.on_issue(warp, dop.instr, now)
        if self.bows is not None:
            self.bows.on_issue(warp, now, is_sib, is_store=dop.is_store)

        dop.handler(self, warp, dop, exec_mask, now)

    # -- straight-line ops ---------------------------------------------

    def _execute_alu(self, warp: Warp, instr: Instruction,
                     exec_mask: np.ndarray, now: int) -> None:
        if instr.opcode is Opcode.SELP:
            a = read_operand(warp, instr.srcs[0], self.params)
            b = read_operand(warp, instr.srcs[1], self.params)
            pred = warp.regs.read_pred(instr.srcs[2].name)
            result = np.where(pred, a, b)
        else:
            srcs = [read_operand(warp, s, self.params) for s in instr.srcs]
            result = eval_alu(instr.opcode, srcs)
        warp.regs.write(instr.dst.name, result, exec_mask)
        latency = self.config.alu_latency
        if instr.opcode in (Opcode.MUL, Opcode.MAD, Opcode.DIV, Opcode.REM):
            latency = self.config.sfu_latency
        self._reserve(warp, instr, now + latency)
        warp.stack.advance()

    def _execute_setp(self, warp: Warp, instr: Instruction,
                      exec_mask: np.ndarray, now: int) -> None:
        a = read_operand(warp, instr.srcs[0], self.params)
        b = read_operand(warp, instr.srcs[1], self.params)
        result = eval_cmp(instr.cmp, a, b)
        warp.regs.write_pred(instr.dst.name, result, exec_mask)
        self._reserve(warp, instr, now + self.config.alu_latency)
        # DDOS profiles one fixed thread per warp (the first live lane);
        # setp executions that do not include it leave the history
        # registers untouched, exactly as a per-thread tracker would.
        lane = warp.profiled_lane
        if self.ddos is not None and lane >= 0 and exec_mask[lane]:
            self.ddos.on_setp(
                warp.warp_slot, instr, int(a[lane]), int(b[lane]), now
            )
        warp.stack.advance()

    # -- control flow ----------------------------------------------------

    def _execute_branch(self, warp: Warp, instr: Instruction,
                        exec_mask: np.ndarray, now: int) -> None:
        assert instr.target_index is not None
        active = warp.stack.active_mask
        if instr.guard is None:
            taken_mask = active.copy()
            warp.stack.uniform_jump(instr.target_index)
        else:
            guard = warp.regs.read_pred(instr.guard.name)
            if instr.guard_negated:
                guard = ~guard
            taken_mask = np.logical_and(guard, active)
            rpc = self.program.reconvergence_point(instr.index)
            warp.stack.branch(guard, instr.target_index, rpc)
        taken_any = bool(taken_mask.any())
        n_taken = int(taken_mask.sum())
        n_not_taken = int(active.sum()) - n_taken

        if instr.has_role("wait_branch"):
            # Backward branch of a wait/signal loop: lanes that take it
            # failed to observe the signal this iteration.
            self.stats.locks.wait_exit_fail += n_taken
            self.stats.locks.wait_exit_success += n_not_taken

        if self.ddos is not None and instr.is_backward_branch:
            self.ddos.on_backward_branch(
                warp.warp_slot, instr, taken_any, now
            )
        if self.cawa is not None:
            self.cawa.on_branch(warp, instr, taken_any)
        if (
            self.bows is not None
            and taken_any
            and self._is_sib(instr)
        ):
            self.bows.on_sib_executed(warp, now)

    def _execute_exit(self, warp: Warp, instr: Instruction,
                      exec_mask: np.ndarray) -> None:
        if exec_mask.any():
            warp.stack.exit_lanes(exec_mask)
            warp.refresh_profiled_lane()
        if not warp.finished and warp.stack.pc == instr.index:
            # Guarded exit: surviving lanes continue past it.
            warp.stack.advance()

    # -- memory ----------------------------------------------------------

    def _execute_load(self, warp: Warp, instr: Instruction,
                      exec_mask: np.ndarray, now: int) -> None:
        mem_op = instr.srcs[0]
        addrs = effective_addresses(warp, mem_op)
        active_addrs = addrs[exec_mask]
        values = np.zeros(self.config.warp_size, dtype=np.int64)
        if active_addrs.size:
            values[exec_mask] = self.memory.read(active_addrs)
        warp.regs.write(instr.dst.name, values, exec_mask)
        if self.san is not None:
            self.san.note_load(
                self.sm_id, warp.cta_id, warp.warp_in_cta,
                np.nonzero(exec_mask)[0], active_addrs, instr.index, now,
            )
        bypass = instr.opcode is Opcode.LD_GLOBAL_CG
        result = self.memsys.load(
            self.sm_id, active_addrs, now,
            bypass_l1=bypass, sync=instr.has_role("sync"),
        )
        self._reserve(warp, instr, result.completion)
        warp.stack.advance()

    def _execute_store(self, warp: Warp, instr: Instruction,
                       exec_mask: np.ndarray, now: int) -> None:
        mem_op = instr.dst
        addrs = effective_addresses(warp, mem_op)
        values = read_operand(warp, instr.srcs[0], self.params)
        active_addrs = addrs[exec_mask]
        if active_addrs.size:
            self.memory.write(active_addrs, values[exec_mask])
        if self.san is not None:
            self.san.note_store(
                self.sm_id, warp.cta_id, warp.warp_in_cta,
                np.nonzero(exec_mask)[0], active_addrs, instr.index, now,
                release=instr.has_role("lock_release"),
            )
        result = self.memsys.store(
            self.sm_id, active_addrs, now, sync=instr.has_role("sync")
        )
        warp.last_store_completion = max(
            warp.last_store_completion, result.completion
        )
        if instr.has_role("lock_release"):
            for addr in active_addrs:
                self.lock_table.pop(int(addr), None)
        warp.stack.advance()

    def _execute_atomic(self, warp: Warp, instr: Instruction,
                        exec_mask: np.ndarray, now: int) -> None:
        mem_op = instr.srcs[0]
        addrs = effective_addresses(warp, mem_op)
        operands = [
            read_operand(warp, s, self.params) for s in instr.srcs[1:]
        ]
        old_values = np.zeros(self.config.warp_size, dtype=np.int64)
        warp_key: WarpKey = (warp.cta_id, warp.warp_in_cta)
        is_lock_try = instr.has_role("lock_try")
        magic = self.config.magic_locks and is_lock_try
        for lane in np.nonzero(exec_mask)[0]:
            addr = int(addrs[lane])
            old = self.memory.read_word(addr)
            op = instr.opcode
            if op is Opcode.ATOM_CAS:
                compare = int(operands[0][lane])
                new = int(operands[1][lane])
                if magic:
                    # Ideal-blocking proxy: every acquire succeeds at
                    # once and the lock is never observed held.
                    old = compare
                elif old == compare:
                    self.memory.write_word(addr, new)
            elif op is Opcode.ATOM_EXCH:
                self.memory.write_word(addr, int(operands[0][lane]))
            elif op is Opcode.ATOM_ADD:
                self.memory.write_word(addr, old + int(operands[0][lane]))
            elif op is Opcode.ATOM_MIN:
                self.memory.write_word(addr, min(old, int(operands[0][lane])))
            elif op is Opcode.ATOM_MAX:
                self.memory.write_word(addr, max(old, int(operands[0][lane])))
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unhandled atomic {op}")
            old_values[lane] = old

            if is_lock_try and instr.opcode is Opcode.ATOM_CAS:
                self._record_lock_attempt(
                    addr, old == int(operands[0][lane]) or magic,
                    warp, warp_key, int(lane), now,
                )
            if instr.has_role("lock_release"):
                self.lock_table.pop(addr, None)
            if self.san is not None:
                # magic mode already forced ``old = compare`` above, so
                # the CAS-success test below covers it too.
                cas_hit = (op is Opcode.ATOM_CAS
                           and old == int(operands[0][lane]))
                self.san.note_atomic(
                    self.sm_id, warp.cta_id, warp.warp_in_cta, int(lane),
                    addr, instr.index, now,
                    lock_try=is_lock_try,
                    success=is_lock_try
                    and (cas_hit or op is not Opcode.ATOM_CAS),
                    release=instr.has_role("lock_release"),
                    wrote=op is not Opcode.ATOM_CAS
                    or (cas_hit and not magic),
                )

        if instr.dst is not None:
            warp.regs.write(instr.dst.name, old_values, exec_mask)
        result = self.memsys.atomic(
            self.sm_id, addrs[exec_mask], now,
            sync=instr.has_role("sync") or is_lock_try,
        )
        if instr.dst is not None:
            self._reserve(warp, instr, result.completion)
        warp.stack.advance()

    def _record_lock_attempt(self, addr: int, success: bool, warp: Warp,
                             warp_key: WarpKey, lane: int,
                             now: int = 0) -> None:
        locks = self.stats.locks
        if success:
            locks.lock_success += 1
            self.lock_table[addr] = (warp_key, lane)
            warp.lock_fail_addr = None
            self._emit_lock_ok(
                cycle=now, sm_id=self.sm_id, warp_slot=warp.warp_slot,
                addr=addr, lane=lane,
            )
        else:
            holder = self.lock_table.get(addr)
            if holder is not None and holder[0] == warp_key:
                locks.intra_warp_fail += 1
                conflict = "intra"
            else:
                locks.inter_warp_fail += 1
                conflict = "inter"
            # Hang forensics: remember which lock this warp is stuck on.
            warp.lock_fail_addr = addr
            warp.lock_fails += 1
            self._emit_lock_fail(
                cycle=now, sm_id=self.sm_id, warp_slot=warp.warp_slot,
                addr=addr, lane=lane, conflict=conflict,
            )

    # ------------------------------------------------------------------
    # Helpers

    def _reserve(self, warp: Warp, instr: Instruction,
                 release_cycle: int) -> None:
        name = warp.dst_name(instr)
        if name is not None:
            warp.scoreboard.reserve([name], release_cycle)

    def _is_sib(self, instr: Instruction) -> bool:
        """Is this branch currently identified as spin-inducing?"""
        if not instr.is_branch:
            return False
        if self.ddos is not None:
            return self.ddos.is_sib(instr.index)
        if self.bows is not None:
            # Programmer/compiler annotation mode.
            return instr.index in self._static_sibs
        return False

    def _barrier_arrive(self, cta_id: int, now: Optional[int] = None,
                        skip_slot: Optional[int] = None) -> None:
        slots = self._cta_slots.get(cta_id, [])
        waiting = [
            self.warps[s] for s in slots if not self.warps[s].finished
        ]
        if waiting and all(w.at_barrier for w in waiting):
            self._emit_bar_release(
                cycle=now, sm_id=self.sm_id, cta_id=cta_id,
                released=len(waiting),
            )
            if self.san is not None:
                self.san.note_barrier_release(cta_id, now)
            for w in waiting:
                w.at_barrier = False
                # Fast engine: released warps become schedulable at once,
                # so a warp freed by an earlier scheduler's issue can
                # still issue from a later scheduler this same cycle.
                # The issuing warp itself (``skip_slot``) is registered
                # by the post-issue code in ``_step_fast``.
                if self._fast and w.warp_slot != skip_slot:
                    self._register(w, now)

    def _retire_if_cta_done(self, cta_id: int,
                            now: Optional[int] = None) -> None:
        slots = self._cta_slots.get(cta_id)
        if slots is None:
            return
        if all(self.warps[s].finished for s in slots):
            # A finished warp can never block a barrier.
            self._barrier_arrive(cta_id, now=now)
            for slot in slots:
                del self.warps[slot]
                if self.bows is not None:
                    self.bows.on_warp_reset(slot)
            del self._cta_slots[cta_id]
            self._free_slots.extend(slots)
            self._free_slots.sort()
            for scheduler in self.schedulers:
                scheduler.invalidate_order()

    def _charge_cawa(self, now: int) -> None:
        dt = now - self._last_charge
        if dt <= 0:
            return
        self._last_charge = now
        if self._fast:
            for warp in self.warps.values():
                if warp.finished:
                    continue
                warp.cawa_cycles += dt
                if warp.at_barrier or warp._ready_from > now:
                    warp.cawa_nstall += dt
            return
        for warp in self.warps.values():
            if warp.finished:
                continue
            warp.cawa_cycles += dt
            if not self._ready(warp, now):
                warp.cawa_nstall += dt
