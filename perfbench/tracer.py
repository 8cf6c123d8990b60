"""Span recording around the public functions of each repro layer.

The benchmark measures the simulator from outside: :meth:`Tracer.install`
replaces module and class attributes with thin wrappers that record one
span (name, start, end, parent span, simulation id) per call and restores
every original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is
edited.  Spans live in memory, in one column buffer per thread, and are
written out once at the end of a run.

A layer's self time is its span time minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import copy
import functools
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Instruction classes the executor handlers are grouped into.
OP_CLASSES = ("alu", "setp", "branch", "load", "store", "atomic", "other")

#: Spans per self-time batch; bounds the memory of :meth:`Tracer.summarize`.
BATCH = 1 << 20

#: Column typecodes of a span buffer: name id, parent index (-1 for a
#: root), simulation id, start (s, perf_counter), duration (s).
COLUMNS = (("name", "H"), ("parent", "i"), ("sim", "i"), ("start", "d"),
           ("dur", "f"))


class _Buffer:
    """Span columns and the open-span stack of one thread."""

    __slots__ = tuple(name for name, _ in COLUMNS) + ("stack",)

    def __init__(self) -> None:
        for name, code in COLUMNS:
            setattr(self, name, array(code))
        self.stack: List[int] = []

    def column(self, name: str) -> np.ndarray:
        """A read-only view; take it only once recording has stopped
        (an exported buffer makes the next append raise)."""
        values = getattr(self, name)
        return np.frombuffer(values, dtype=values.typecode) if values \
            else np.zeros(0, dtype=values.typecode)


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._buffers_lock = threading.Lock()
        #: Id of the simulation or spec the next spans belong to.
        self.sim_id = -1
        #: Outcome counters kept beside the spans (e.g. idle SM steps).
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, bool, object]] = []
        self._decoded: Dict[int, tuple] = {}

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn: Callable, name: str,
             count_if: Optional[Callable[[object], bool]] = None,
             counter: Optional[str] = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        With ``count_if``, every call whose return value satisfies it
        also increments ``counters[counter]``.
        """
        nid = self._name_id(name)
        local = self._local
        buffer_for = self._buffer
        clock = time.perf_counter
        tracer = self
        counters = self.counters
        if count_if is not None:
            counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or buffer_for()
            stack = buf.stack
            index = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.sim.append(tracer.sim_id)
            buf.dur.append(0.0)
            stack.append(index)
            start = clock()
            buf.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.dur[index] = clock() - start
                stack.pop()
            if count_if is not None and count_if(result):
                counters[counter] += 1
            return result

        return wrapper

    # -- reading (after recording has stopped) --------------------------

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}``.

        Each thread's spans are processed in batches of whole root
        trees: a span and all its descendants sit in one contiguous
        index range of their thread's buffer.
        """
        n_names = len(self.names)
        calls = np.zeros(n_names, dtype=np.int64)
        total = np.zeros(n_names)
        own_total = np.zeros(n_names)
        for buf in self._buffers:
            names = buf.column("name")
            parent = buf.column("parent")
            start = buf.column("start")
            dur = buf.column("dur").astype(np.float64)
            roots = np.flatnonzero(parent < 0)
            n = len(names)
            lo = 0
            while lo < n:
                # Cut at the last root within BATCH spans, or after the
                # one tree when it alone is larger.
                hi = n
                if lo + BATCH < n:
                    j = np.searchsorted(roots, lo + BATCH, side="right") - 1
                    k = np.searchsorted(roots, lo, side="right")
                    if roots[j] > lo:
                        hi = roots[j]
                    elif k < len(roots):
                        hi = roots[k]
                local = parent[lo:hi].astype(np.int64)
                local[local >= 0] -= lo
                own = self_times(start[lo:hi], start[lo:hi] + dur[lo:hi],
                                 local)
                ids = names[lo:hi]
                calls += np.bincount(ids, minlength=n_names)
                total += np.bincount(ids, weights=dur[lo:hi],
                                     minlength=n_names)
                own_total += np.bincount(ids, weights=own,
                                         minlength=n_names)
                lo = hi
        return {name: {"calls": int(calls[nid]), "total_s": float(total[nid]),
                       "self_s": float(own_total[nid])}
                for nid, name in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of every span named ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        return np.concatenate(
            [np.zeros(0)] + [buf.column("dur")[buf.column("name") == nid]
                             for buf in self._buffers]).astype(np.float64)

    def write(self, path) -> int:
        """Write every span to ``path``: one JSON header line, then each
        thread buffer's columns as raw arrays; returns the span count."""
        header = {
            "names": self.names,
            "columns": [[name, code] for name, code in COLUMNS],
            "buffers": [len(buf.start) for buf in self._buffers],
            "counters": self.counters,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                for name, _ in COLUMNS:
                    getattr(buf, name).tofile(handle)
        return self.span_count()

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def span_attr(self, owner, attr: str, name: str, **kwargs) -> None:
        """Wrap ``owner.attr`` (a function or method) in a span."""
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name,
                                          **kwargs))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._decoded.clear()

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        import repro.api
        import repro.kernels
        import repro.lab.runner
        import repro.memory.memsys
        import repro.serve.wire
        import repro.sim.sm
        import repro.submit
        from repro.core.adaptive import AdaptiveDelayController
        from repro.core.bows import BOWSUnit
        from repro.core.ddos import DDOSEngine
        from repro.isa.program import Program
        from repro.lab.cache import ResultCache
        from repro.lab.journal import SweepJournal
        from repro.lab.spec import RunSpec
        from repro.memory.cache import Cache
        from repro.serve.client import ServeClient
        from repro.sim import schedulers
        from repro.sim.gpu import Simulation
        from repro.sim.progress import ProgressMonitor
        from repro.sim.registers import RegisterFile
        from repro.sim.simt_stack import SIMTStack
        from repro.sim.sm import SM

        is_none = lambda result: result is None  # noqa: E731
        # sim
        self.span_attr(Simulation, "run", "sim.gpu.run")
        self.span_attr(SM, "_step_fast", "sim.sm.step",
                       count_if=lambda issued: issued == 0,
                       counter="sim.sm.idle_steps")
        self.span_attr(SM, "_next_event_fast", "sim.sm.next_event")
        for cls in vars(schedulers).values():
            if (isinstance(cls, type) and "select" in vars(cls)
                    and issubclass(cls, schedulers.WarpScheduler)):
                self.span_attr(cls, "select", "sim.schedulers.select")
        self.span_attr(ProgressMonitor, "sample", "sim.progress.sample")
        self.span_attr(SIMTStack, "branch", "sim.simt_stack.branch")
        self.span_attr(SIMTStack, "advance", "sim.simt_stack.advance")
        for attr in ("read", "read_pred"):
            self.span_attr(RegisterFile, attr, "sim.registers.read")
        for attr in ("write", "write_pred"):
            self.span_attr(RegisterFile, attr, "sim.registers.write")
        self.patch(repro.sim.sm, "decode_program",
                   self._wrap_decode(repro.sim.sm.decode_program))
        # memory
        for attr in ("load", "store", "atomic"):
            self.span_attr(repro.memory.memsys.MemorySubsystem, attr,
                           f"memory.memsys.{attr}")
        self.span_attr(repro.memory.memsys, "coalesce",
                       "memory.coalescer.coalesce")
        self.span_attr(Cache, "access", "memory.cache.access")
        # core
        for attr in ("on_setp", "on_backward_branch", "is_sib"):
            self.span_attr(DDOSEngine, attr, f"core.ddos.{attr}")
        self.span_attr(BOWSUnit, "on_issue", "core.bows.on_issue")
        self.span_attr(BOWSUnit, "select_backed_off",
                       "core.bows.select_backed_off",
                       count_if=lambda slot: slot is not None,
                       counter="core.bows.select_hits")
        self.span_attr(AdaptiveDelayController, "end_window",
                       "core.adaptive.end_window")
        # isa / kernels
        build = self.wrap(repro.kernels.build, "kernels.build")
        self.patch(repro.kernels, "build", build)
        self.patch(repro.api, "build_workload", build)
        assemble = None
        for module in _kernel_modules():
            if assemble is None:
                assemble = self.wrap(module.assemble, "isa.assemble")
            self.patch(module, "assemble", assemble)
        self.span_attr(Program, "__post_init__", "isa.program.analysis")
        # lab
        self.span_attr(repro.lab.runner, "execute_run", "lab.execute_run")
        self.span_attr(ResultCache, "get", "lab.cache.get",
                       count_if=is_none, counter="lab.cache.misses")
        self.span_attr(ResultCache, "put", "lab.cache.put")
        self.span_attr(SweepJournal, "_append", "lab.journal.append")
        self.span_attr(RunSpec, "content_hash", "lab.spec.hash")
        # serve / submit
        self.span_attr(repro.serve.wire, "result_from_wire",
                       "serve.wire.decode")
        self.span_attr(ServeClient, "submit", "serve.submit_rpc")
        self.span_attr(repro.submit, "submit_many", "submit.submit_many")

    def _wrap_decode(self, decode_program):
        """``decode_program`` whose result carries span-wrapped handlers.

        The simulator memoizes decoded programs on the Program object,
        so the wrapped ops go into a copy and the memoized original is
        left untouched (an untraced run after this one sees no
        wrappers).
        """
        timed = self.wrap(decode_program, "sim.executor.decode_program")
        wrapped = self._decoded
        handler_wrappers: Dict[Tuple[int, int], Callable] = {}

        def wrap_handler(handler, op_class):
            key = (id(handler), op_class)
            entry = handler_wrappers.get(key)
            if entry is None or entry[0] is not handler:
                entry = (handler, self.wrap(
                    handler, f"sim.executor.{op_class}"))
                handler_wrappers[key] = entry
            return entry[1]

        def decode(program, config, params):
            decoded = timed(program, config, params)
            hit = wrapped.get(id(decoded))
            if hit is not None and hit[0] is decoded:
                return hit[1]
            clone = copy.copy(decoded)
            clone.ops = []
            for op in decoded.ops:
                op = copy.copy(op)
                op.handler = wrap_handler(op.handler, op_class(op.opcode))
                clone.ops.append(op)
            wrapped[id(decoded)] = (decoded, clone)
            return clone

        return decode


def _kernel_modules():
    from repro.kernels import (atm, barneshut, cloth, hashtable, nw,
                               rodinia, tsp)

    return (atm, barneshut, cloth, hashtable, nw, rodinia, tsp)


def op_class(opcode) -> str:
    """Executor handler class of an opcode (one of :data:`OP_CLASSES`)."""
    from repro.isa.instructions import Opcode

    if opcode is Opcode.SETP:
        return "setp"
    if opcode is Opcode.BRA:
        return "branch"
    if opcode in (Opcode.LD_GLOBAL, Opcode.LD_GLOBAL_CG):
        return "load"
    if opcode is Opcode.ST_GLOBAL:
        return "store"
    if opcode.name.startswith("ATOM_"):
        return "atomic"
    if opcode in (Opcode.EXIT, Opcode.BAR_SYNC, Opcode.MEMBAR,
                  Opcode.CLOCK, Opcode.NOP, Opcode.LD_PARAM):
        return "other"
    return "alu"


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and where children
    overlap each other (spans recorded on several threads) the covered
    part is their union, so no instant is subtracted twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return own
    par = parent[child]
    c_start = np.maximum(start[child], start[par])
    c_end = np.minimum(end[child], end[par])
    keep = c_end > c_start
    par, c_start, c_end = par[keep], c_start[keep], c_end[keep]
    order = np.lexsort((c_start, par))
    par, c_start, c_end = par[order], c_start[order], c_end[order]
    # Sorted by start, a group's children are pairwise disjoint exactly
    # when no child starts before its predecessor ends; only groups that
    # break this need the interval-union walk.
    same = par[1:] == par[:-1]
    overlap = same & (c_start[1:] < c_end[:-1])
    covered = np.bincount(par, weights=c_end - c_start,
                          minlength=len(own))
    for p in np.unique(par[1:][overlap]):
        lo, hi = np.searchsorted(par, [p, p + 1])
        covered[p] = _union_length(c_start[lo:hi], c_end[lo:hi])
    return own - covered


def _union_length(starts: Sequence[float], ends: Sequence[float]) -> float:
    """Length of the union of intervals sorted by start."""
    total = 0.0
    cur_start, cur_end = starts[0], ends[0]
    for s, e in zip(starts[1:], ends[1:]):
        if s > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    return total + (cur_end - cur_start)


def percentile_rule(samples: Sequence[float],
                    candidates: Sequence[float] = (50, 90, 99, 99.9)
                    ) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest candidate percentile that has at
    least ten samples beyond it, or None when even the median lacks
    them."""
    n = len(samples)
    best = None
    for p in sorted(candidates):
        if round(n * (100 - p) / 100, 9) >= 10:
            best = (p, float(np.percentile(samples, p)))
    return best
