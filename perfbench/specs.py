"""Seeded inputs for every workload: GTX480-shape simulations and the
quick-shape spec stream both sweeps replay.

Everything here is a pure function of the benchmark seed; the simulator
only ever sees the generated workloads and specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Kernels that take no ``seed=`` parameter; the stream varies their
#: shape parameters instead.
SEEDLESS = ("nw1", "nw2", "st")

# -- GTX480-shape simulations --------------------------------------------

#: Lock kernels of ``sync-gtx480``, sized so one pass takes a few
#: seconds and every SM gets at least one CTA.  ``atm`` is scaled down:
#: at the ht thread count its GTO run is several times slower than ht's.
SYNC_GTX480 = {
    "ht": dict(n_threads=1280, n_buckets=48, items_per_thread=1,
               block_dim=64),
    "atm": dict(n_threads=480, n_accounts=48, rounds=1, block_dim=32),
}

#: Synchronization-free kernels of ``syncfree-gtx480``.
SYNCFREE_GTX480 = {
    "stencil": dict(n_threads=2880, per_thread=4, block_dim=192),
    "kmeans": dict(n_threads=2880, per_thread=4, block_dim=192),
    "ms": dict(n_threads=2880, iterations=4, stride=4096, block_dim=192),
    "histogram": dict(n_threads=2880, per_thread=4, block_dim=192),
}

#: SMs of the GTX480-shaped machine.
GTX480_SMS = 15

#: The two scheduler modes every simulation workload runs.
MODES = ("gto", "bows")


def gtx480_config(mode: str):
    """15 SMs x 48 warps; ``bows`` is adaptive BOWS with DDOS."""
    from repro.sim.config import GPUConfig

    return GPUConfig.preset(
        "fermi", num_sms=GTX480_SMS, max_warps_per_sm=48,
        bows="adaptive" if mode == "bows" else None,
    )


def quick_config(mode: str):
    """The scaled Fermi preset the sweeps' quick-shape specs run on."""
    from repro.sim.config import GPUConfig

    return GPUConfig.preset("fermi",
                            bows="adaptive" if mode == "bows" else None)


def simulations(workload: str, seed: int) -> List[Tuple[str, Dict, str]]:
    """``(kernel, params, mode)`` for one pass of a simulation workload.

    The seed orders the runs and draws the sync-free kernels' data.  The
    lock kernels keep their builders' default data: their GTO cycle
    counts move by about a fifth between data seeds at this size, which
    would swamp any change a later optimisation makes (the sweeps vary
    lock-kernel data instead, over many small instances).
    """
    rng = random.Random(f"{workload}:{seed}")
    runs = []
    if workload == "sync-gtx480":
        for kernel, shape in SYNC_GTX480.items():
            runs.extend((kernel, dict(shape), mode) for mode in MODES)
    else:
        for kernel, shape in SYNCFREE_GTX480.items():
            params = dict(shape, seed=rng.randrange(1, 2**31))
            runs.extend((kernel, params, mode) for mode in MODES)
    rng.shuffle(runs)
    return runs


# -- the quick-shape spec stream -------------------------------------------

#: Lock kernels of the stream; each appears under GTO and BOWS per round.
#: ``atm`` is left to ``sync-gtx480``: at quick shape it costs as much as
#: the rest of a round and its cycle count swings most with the data.
STREAM_LOCK = {
    "ht": dict(n_threads=256, n_buckets=8, items_per_thread=1,
               block_dim=128),
    "tsp": dict(n_threads=128, eval_iters=32, block_dim=64),
    "tb": dict(n_threads=256, n_cells=16, items_per_thread=1,
               block_dim=128),
    "nw1": dict(n_threads=256, n_cols=32, block_dim=128),
    "nw2": dict(n_threads=256, n_cols=32, block_dim=128),
    "st": dict(n_threads=256, n_cells=1024, block_dim=128),
}

#: Shape choices for the seedless kernels.
SEEDLESS_SHAPES = {
    "nw1": dict(cell_work=(6, 8, 10)),
    "nw2": dict(cell_work=(6, 8, 10)),
    "st": dict(cell_work=(6, 8, 10)),
}

#: Synchronization-free kernels of the stream (GTO only).
STREAM_SYNCFREE = {
    "kmeans": dict(n_threads=128, per_thread=8, block_dim=64),
    "ms": dict(n_threads=128, iterations=12, stride=256, block_dim=64),
    "stencil": dict(n_threads=128, per_thread=4, block_dim=64),
    "histogram": dict(n_threads=128, per_thread=4, block_dim=64),
}

#: Per round: cold specs submitted as adjacent duplicate pairs, and
#: groups that repeat an already-completed spec (cache hits).
DUP_PAIRS_PER_ROUND = 4
HIT_GROUPS_PER_ROUND = 8

#: Seeds reserved for confirming a gain on data not used while the
#: change was written; never use them to tune.
HELD_OUT_SEEDS = (9001,)


@dataclass(frozen=True)
class StreamSpec:
    """One submission: kernel, params (seed folded in), mode, and its
    position in the stream (``group``, ``slot``)."""

    kernel: str
    params: Tuple[Tuple[str, int], ...]
    mode: str
    kind: str  # "cold", "dup" or "hit"
    round: int
    group: int
    slot: int

    @property
    def key(self) -> Tuple:
        return (self.kernel, self.params, self.mode)

    def to_runspec(self):
        from repro.lab.spec import RunSpec

        return RunSpec(kernel=self.kernel, config=quick_config(self.mode),
                       params=dict(self.params), engine="fast",
                       label=f"g{self.group}.{self.slot}:{self.kernel}")


def _round_cold(rng: random.Random, rotation: int) -> List[Tuple]:
    cold = []
    for kernel, shape in STREAM_LOCK.items():
        params = dict(shape)
        if kernel in SEEDLESS:
            for name, choices in SEEDLESS_SHAPES[kernel].items():
                params[name] = choices[rotation % len(choices)]
        else:
            params["seed"] = rng.randrange(1, 2**31)
        frozen = tuple(sorted(params.items()))
        cold.extend([(kernel, frozen, "gto"), (kernel, frozen, "bows")])
    for kernel, shape in STREAM_SYNCFREE.items():
        params = dict(shape, seed=rng.randrange(1, 2**31))
        cold.append((kernel, tuple(sorted(params.items())), "gto"))
    rng.shuffle(cold)
    return cold


def stream(seed: int, rounds: int) -> List[List[StreamSpec]]:
    """The sweep stream: groups of one or two submissions.

    A group is submitted as a whole and waited for before the next one,
    so at most two specs are outstanding.  Each round holds every
    stream kernel once (lock kernels under both modes) with fresh data,
    some of those cold specs as adjacent duplicate pairs (the second
    copy arrives while the first is in flight), and groups repeating
    specs that completed in earlier groups (cache hits).  The seedless
    kernels step through their shapes from a seeded offset, so after
    three rounds they have run every shape and drop out of the cold
    specs.
    """
    rng = random.Random(f"stream:{seed}")
    offset = rng.randrange(1 << 16)
    groups: List[Tuple[int, List[Tuple], List[str]]] = []
    done: List[Tuple] = []
    for r in range(rounds):
        cold = [key for key in _round_cold(rng, offset + r)
                if key not in done]
        dups = set(rng.sample(range(len(cold)), DUP_PAIRS_PER_ROUND))
        cold_groups = []
        i = 0
        while i < len(cold):
            if i in dups:
                cold_groups.append(([cold[i], cold[i]], ["cold", "dup"]))
                i += 1
            elif (i + 1 < len(cold) and i + 1 not in dups
                  and rng.random() < 0.3):
                cold_groups.append(([cold[i], cold[i + 1]], ["cold", "cold"]))
                i += 2
            else:
                cold_groups.append(([cold[i]], ["cold"]))
                i += 1
        hits_after = [0] * len(cold_groups)
        for _ in range(HIT_GROUPS_PER_ROUND):
            hits_after[rng.randrange(len(cold_groups))] += 1
        for (keys, kinds), n_hits in zip(cold_groups, hits_after):
            groups.append((r, keys, kinds))
            done.extend(k for k in dict.fromkeys(keys) if k not in done)
            for _ in range(n_hits):
                size = 2 if rng.random() < 0.4 and len(done) > 1 else 1
                repeats = rng.sample(done, size)
                groups.append((r, repeats, ["hit"] * len(repeats)))
    return [
        [StreamSpec(kernel, params, mode, kind, r, g, slot)
         for slot, ((kernel, params, mode), kind)
         in enumerate(zip(keys, kinds))]
        for g, (r, keys, kinds) in enumerate(groups)
    ]
