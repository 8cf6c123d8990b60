"""Machine-speed probe taken alongside the measured work.

The sandboxes this benchmark runs on share their cores with other
tenants: one fixed pure-Python loop runs up to 1.7x slower for minutes at
a time.  A probe that uses no repro code is timed between units of work
(a pass of simulations, a sweep round), and each unit's host-time figures
are scaled to the reference machine state, where the probe takes
:data:`REFERENCE_S`.  The unscaled figures are printed beside them.

The probe slows down more than the simulator does: over eight batches of
runs on the reference machine, the run-to-run spread of the simulator's
throughput was smallest when scaled by the square root of the probe's
slowdown (:data:`SENSITIVITY`), not by the slowdown itself.
"""

from __future__ import annotations

import statistics
import time
from heapq import heappop, heappush
from typing import Dict, List, Optional

import numpy as np

#: Probe time (s) of the machine state every host-time metric is scaled
#: to: an idle 2-vCPU Xeon (Sapphire Rapids) KVM guest.
REFERENCE_S = 0.007

#: Exponent applied to the probe's slowdown (see the module docstring).
SENSITIVITY = 0.5

#: The unit id of probes taken around set-up.
SETUP = -1

_LANES = np.arange(32)
_HALF = _LANES < 16


class _Slot:
    __slots__ = ("pc", "ready")

    def __init__(self) -> None:
        self.pc = 0
        self.ready = 0


def probe() -> float:
    """Seconds one fixed interpreter-bound loop takes (about 7 ms).

    It mixes what the simulator's hot loop does (slot-object attribute
    updates, set and heap traffic, small numpy mask operations) but runs
    none of its code, so a change to repro cannot move it.
    """
    start = time.perf_counter()
    slots = [_Slot() for _ in range(48)]
    ready = set()
    heap: List[int] = []
    acc = 0
    for i in range(6000):
        slot = slots[i % 48]
        slot.pc = slot.pc + 1
        slot.ready = i + (slot.pc & 7)
        if slot.ready & 1:
            ready.add(i % 48)
        else:
            ready.discard(i % 48)
        if len(heap) < 32:
            heappush(heap, (i * 7919) & 1023)
        else:
            acc += heappop(heap)
        if i & 3 == 0:
            acc += int(np.count_nonzero(np.where(_HALF, _LANES, 0) > (i & 31)))
    return time.perf_counter() - start


class SpeedLog:
    """Probe samples of one run, keyed by the unit of work they bracket."""

    def __init__(self) -> None:
        self.samples: Dict[int, List[float]] = {}

    def sample(self, unit: int) -> float:
        value = probe()
        self.samples.setdefault(unit, []).append(value)
        return value

    def median_s(self, unit: Optional[int] = None) -> float:
        """Median probe time of ``unit`` (of the whole run for None)."""
        values = (self.samples.get(unit, []) if unit is not None
                  else [v for vs in self.samples.values() for v in vs])
        return statistics.median(values) if values else REFERENCE_S

    def slowdown(self, unit: int) -> float:
        """How much slower than the reference the machine ran ``unit``:
        multiply a rate by it, divide a time by it."""
        return (self.median_s(unit) / REFERENCE_S) ** SENSITIVITY
