"""Golden determinism: the fast engine is bitwise-identical to the seed.

The fast engine (pre-decoded instructions, ready-event heap, hoisted
tracer/stats branches — see :mod:`repro.sim.sm`) is a pure performance
transformation: for every workload and configuration it must visit the
same cycles, issue the same instructions, and land on the same final
state as the reference engine it replaced.  These tests run each
configuration once per engine and diff the **full**
``SimStats.summary()`` dict — cycles, instruction counts, SIMD
efficiency, lock outcomes, memory transactions, energy — plus the
validated memory image (``validate=True``).

The matrix deliberately crosses the features whose interaction the fast
engine had to re-derive: all three base schedulers, fixed and adaptive
BOWS back-off, DDOS on/off, schedule perturbation (seeded RNG draw
order is part of the contract), and both sync and sync-free kernels.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import simulate
from repro.sim.config import GPUConfig, PerturbConfig

#: Small-but-representative workload shapes (a run stays well under a
#: second so the whole matrix fits in the tier-1 budget).
PARAMS = {
    "ht": dict(n_threads=128, n_buckets=8, items_per_thread=1,
               block_dim=64),
    "nw1": dict(n_threads=128, n_cols=32, cell_work=4, block_dim=64),
    "atm": dict(n_threads=128, n_accounts=16, rounds=1, block_dim=64),
    "reduction": dict(n_threads=128, block_dim=64),
}

CONFIGS = [
    pytest.param("ht", {"scheduler": "gto"}, id="ht-gto"),
    pytest.param("ht", {"scheduler": "lrr"}, id="ht-lrr"),
    pytest.param("ht", {"scheduler": "cawa"}, id="ht-cawa"),
    pytest.param("ht", {"scheduler": "gto", "bows": "adaptive"},
                 id="ht-bows-adaptive"),
    pytest.param("ht", {"scheduler": "gto", "bows": 1000},
                 id="ht-bows-fixed"),
    pytest.param("ht", {"scheduler": "gto", "ddos": False},
                 id="ht-static-sibs"),
    pytest.param("nw1", {"scheduler": "gto"}, id="nw1-gto"),
    pytest.param("nw1", {"scheduler": "gto", "bows": "adaptive"},
                 id="nw1-bows-adaptive"),
    pytest.param("atm", {"scheduler": "gto"}, id="atm-gto"),
    pytest.param("atm", {"scheduler": "gto", "bows": "adaptive"},
                 id="atm-bows-adaptive"),
    pytest.param("reduction", {"scheduler": "gto"}, id="reduction-gto"),
]


def _run(kernel: str, config: GPUConfig, engine: str):
    return simulate(kernel, config=config, params=PARAMS[kernel],
                    engine=engine)


@pytest.mark.parametrize("kernel, preset_kwargs", CONFIGS)
def test_engines_bitwise_identical(kernel, preset_kwargs):
    config = GPUConfig.preset("fermi", **preset_kwargs)
    reference = _run(kernel, config, "reference")
    fast = _run(kernel, config, "fast")
    assert fast.stats.summary() == reference.stats.summary()
    assert fast.cycles == reference.cycles
    assert sorted(fast.predicted_sibs()) == sorted(
        reference.predicted_sibs())


def test_engines_identical_under_perturbation():
    """Seeded schedule perturbation draws its RNG in the same order on
    both engines — any divergence in draw order shows up as different
    cycle counts immediately."""
    for seed in (0, 7):
        config = GPUConfig.preset("fermi", scheduler="gto").replace(
            perturb=PerturbConfig(seed=seed, sched_jitter=0.2,
                                  mem_jitter_cycles=8,
                                  rotation_period=101),
        )
        reference = _run("ht", config, "reference")
        fast = _run("ht", config, "fast")
        assert fast.stats.summary() == reference.stats.summary(), seed


def test_engines_identical_on_pascal_preset():
    config = GPUConfig.preset("pascal", scheduler="gto", bows="adaptive")
    reference = _run("ht", config, "reference")
    fast = _run("ht", config, "fast")
    assert fast.stats.summary() == reference.stats.summary()


def _begin(kernel: str, config: GPUConfig, engine: str,
           obs=None, sanitize=None, params=None):
    """A live mid-runnable Simulation over a fresh workload build."""
    from repro.kernels import build as build_workload
    from repro.sim.gpu import GPU

    workload = build_workload(kernel, **(params or PARAMS[kernel]))
    gpu = GPU(config, memory=workload.memory, engine=engine, obs=obs,
              sanitizer=sanitize)
    return workload, gpu.begin(workload.launch)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("kernel, preset_kwargs", CONFIGS)
def test_checkpoint_resume_is_bitwise_identical(kernel, preset_kwargs,
                                                engine):
    """Checkpoint/resume is invisible to the golden contract: for every
    configuration in the matrix, stopping mid-run, serializing the
    complete machine state through bytes, and resuming in a fresh object
    graph lands on the same cycles, the same full stats summary, and a
    validating memory image as the uninterrupted run — with and without
    observability and the sanitizer attached."""
    from repro.sim.checkpoint import checkpoint_bytes_roundtrip

    config = GPUConfig.preset("fermi", **preset_kwargs)
    baseline = _run(kernel, config, engine)
    mid = max(1, baseline.cycles // 2)
    for mode in ("plain", "obs", "sanitize"):
        workload, sim = _begin(
            kernel, config, engine,
            obs=True if mode == "obs" else None,
            sanitize=True if mode == "sanitize" else None,
        )
        sim.run_until(mid)
        assert not sim.finished, mode
        restored = checkpoint_bytes_roundtrip(sim)
        assert restored is not sim
        result = restored.run()
        assert result.stats.summary() == baseline.stats.summary(), mode
        assert result.cycles == baseline.cycles, mode
        workload.validate(result.memory)


@pytest.mark.parametrize("kernel", ["ht", "nw1"])
def test_sanitizer_is_invisible_to_the_golden_contract(kernel):
    """The dynamic sanitizer is a pure observer: with it on, both
    engines still match each other *and* the sanitizer-off baseline
    bitwise (same cycles, same full stats summary)."""
    config = GPUConfig.preset("fermi", scheduler="gto")
    baseline = _run(kernel, config, "fast")
    for engine in ("fast", "reference"):
        sanitized = simulate(kernel, config=config, params=PARAMS[kernel],
                             engine=engine, sanitize=True)
        assert sanitized.stats.summary() == baseline.stats.summary()
        assert sanitized.cycles == baseline.cycles
        assert sanitized.sanitizer.ok, sanitized.sanitizer.render()


# ----------------------------------------------------------------------
# Frozen digests at the GTX480 shape
#
# The tests above compare the engines against each other, which cannot
# catch a bug in code both engines share (the GPU cycle loop, CTA
# dispatch).  These compare both engines against digests frozen from a
# trusted commit instead: the full ``stats.summary()``, every raw
# ``SimStats`` counter, the cycle count and sha256 hashes of the obs
# event stream and time series, on the 15-SM x 48-warp machine where
# most SMs sit empty or stalled.

GOLDEN_GTX480 = Path(__file__).parent / "data" / "golden_gtx480.json"

_HT = dict(n_threads=256, n_buckets=16, items_per_thread=1, block_dim=64)
_ATM = dict(n_threads=128, n_accounts=16, rounds=1, block_dim=32)

#: id -> (kernel, params, preset kwargs).  ``histogram-oversize`` launches
#: 128 one-warp CTAs on a machine that holds 120, so CTAs retire and are
#: replaced mid-run; ``vecadd-refill`` allows one CTA per SM, so every SM
#: empties and is refilled, under CAWA's per-step stall charging.
GTX480_CASES = {
    "ht-gto": ("ht", _HT, {}),
    "ht-bows-adaptive": ("ht", _HT, {"bows": "adaptive"}),
    "ht-cawa": ("ht", _HT, {"scheduler": "cawa"}),
    "ht-lrr": ("ht", _HT, {"scheduler": "lrr"}),
    "atm-gto": ("atm", _ATM, {}),
    "atm-bows-adaptive": ("atm", _ATM, {"bows": "adaptive"}),
    "histogram-gto": (
        "histogram", dict(n_threads=512, per_thread=2, block_dim=64), {}),
    "ht-perturbed": ("ht", _HT, {"perturb": PerturbConfig(
        seed=3, sched_jitter=0.2, mem_jitter_cycles=8,
        rotation_period=101)}),
    "histogram-oversize": (
        "histogram", dict(n_threads=4096, per_thread=1, block_dim=32), {}),
    "vecadd-refill": (
        "vecadd", dict(n_threads=1536, per_thread=1, block_dim=32),
        {"scheduler": "cawa", "max_ctas_per_sm": 1}),
}


def _gtx480_config(preset_kwargs) -> GPUConfig:
    return GPUConfig.preset("fermi", num_sms=15, max_warps_per_sm=48,
                            **preset_kwargs)


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def gtx480_digest(case: str, engine: str) -> dict:
    """Summary, counters, cycles and obs hashes of one validated run."""
    kernel, params, preset_kwargs = GTX480_CASES[case]
    result = simulate(kernel, config=_gtx480_config(preset_kwargs),
                      params=params, engine=engine, obs=True)
    obs = result.obs.to_dict()
    return {
        "cycles": result.cycles,
        # A JSON round trip, so a fresh digest compares equal to the
        # committed one (tuples become lists).
        "summary": json.loads(json.dumps(result.stats.summary())),
        # Every raw counter, including the unrounded occupancy sums and
        # ``issue_slots``, which the summary only shows as ratios.
        "counters": json.loads(json.dumps(dataclasses.asdict(result.stats))),
        "events_sha256": _sha256(obs["events"]),
        "series_sha256": _sha256(obs["series"]),
    }


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("case", sorted(GTX480_CASES))
def test_gtx480_runs_match_frozen_digests(case, engine):
    frozen = json.loads(GOLDEN_GTX480.read_text())[case]
    assert gtx480_digest(case, engine) == frozen


#: ht at 640 threads places 8 CTAs on SM0 and 2 on SM1, leaving 13 of
#: the 15 SMs empty for the whole run.
_HT_TWO_SMS = dict(n_threads=640, n_buckets=16, items_per_thread=1,
                   block_dim=64)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_checkpoint_resume_with_sleeping_sms(engine):
    """A checkpoint taken while most SMs are empty and (fast engine) the
    occupied ones sleep until a future wake cycle resumes bitwise: the
    wake cycles pickle with their SMs, and the loop's list of occupied
    SMs is rebuilt on resume rather than checkpointed."""
    from repro.sim.checkpoint import checkpoint_bytes_roundtrip

    config = _gtx480_config({"bows": "adaptive"})
    baseline = simulate("ht", config=config, params=_HT_TWO_SMS,
                        engine=engine)
    for mode in ("plain", "obs", "sanitize"):
        workload, sim = _begin(
            "ht", config, engine,
            obs=True if mode == "obs" else None,
            sanitize=True if mode == "sanitize" else None,
            params=_HT_TWO_SMS,
        )
        stop = baseline.cycles // 10
        while True:
            assert not sim.run_until(stop), mode
            empty = [sm for sm in sim.sms if not sm.warps]
            sleeping = [sm for sm in sim.sms
                        if sm.warps and sm._wake > sim.now]
            if engine == "reference" or sleeping:
                break
            stop += 1
        assert len(empty) == 13, mode
        wakes = [sm._wake for sm in sim.sms]
        restored = checkpoint_bytes_roundtrip(sim)
        assert [sm._wake for sm in restored.sms] == wakes, mode
        result = restored.run()
        assert result.cycles == baseline.cycles, mode
        assert result.stats.summary() == baseline.stats.summary(), mode
        assert (dataclasses.asdict(result.stats)
                == dataclasses.asdict(baseline.stats)), mode
        workload.validate(result.memory)


if __name__ == "__main__":
    # Regenerate the frozen digests:
    #   PYTHONPATH=src python tests/test_golden_equivalence.py
    # Only do this on a commit whose simulator output is trusted; the
    # file is an oracle, so regenerating it on a suspect tree hides the
    # bug it exists to catch.
    digests = {case: gtx480_digest(case, "fast")
               for case in sorted(GTX480_CASES)}
    for case in digests:
        assert gtx480_digest(case, "reference") == digests[case], case
    GOLDEN_GTX480.write_text(json.dumps(digests, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_GTX480}")
