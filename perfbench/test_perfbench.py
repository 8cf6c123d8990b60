"""Tests of the benchmark's own arithmetic and patching.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
from tracer import Tracer, percentile_rule, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    start = [0.0, 1.0, 4.0]
    end = [10.0, 3.0, 6.0]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([6.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    # Children [1, 5] and [3, 8] overlap on [3, 5]; [2, 4] lies inside
    # both.  Together they cover [1, 8]: 7 of the parent's 10 seconds.
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 5.0, 8.0, 4.0]
    parent = [-1, 0, 0, 0]
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(3.0)
    assert own[1:] == pytest.approx([4.0, 5.0, 2.0])


def test_self_time_clips_children_to_the_parent():
    # A child recorded on another thread may outlive its parent.
    own = self_times([0.0, 8.0, 12.0], [10.0, 15.0, 13.0], [-1, 0, 0])
    assert own[0] == pytest.approx(8.0)


def test_self_time_of_grandchildren_is_charged_to_the_child():
    own = self_times([0.0, 1.0, 2.0], [10.0, 9.0, 3.0], [-1, 0, 1])
    assert own == pytest.approx([2.0, 7.0, 1.0])


def test_percentile_rule_picks_highest_with_ten_samples_beyond():
    assert percentile_rule(range(19)) is None
    assert percentile_rule(range(20))[0] == 50
    assert percentile_rule(range(99))[0] == 50
    assert percentile_rule(range(100))[0] == 90
    p, value = percentile_rule(list(range(1000)))
    assert p == 99
    assert value == pytest.approx(np.percentile(range(1000), 99))


def _patched_attributes():
    import repro.api
    import repro.kernels
    import repro.lab.runner
    import repro.memory.memsys
    import repro.serve.wire
    import repro.sim.sm
    import repro.submit
    from repro.core.bows import BOWSUnit
    from repro.isa.program import Program
    from repro.lab.cache import ResultCache
    from repro.sim import schedulers
    from repro.sim.registers import RegisterFile
    from repro.sim.sm import SM

    owners = [repro.api, repro.kernels, repro.lab.runner, repro.memory.memsys,
              repro.serve.wire, repro.sim.sm, repro.submit, BOWSUnit, Program,
              ResultCache, RegisterFile, SM, *vars(schedulers).values()]
    owners += [m for m in __import__("tracer")._kernel_modules()]
    return {(id(owner), name): value
            for owner in owners if hasattr(owner, "__dict__")
            for name, value in list(vars(owner).items())}


def test_every_patched_attribute_is_restored():
    before = _patched_attributes()
    tracer = Tracer()
    tracer.install()
    assert tracer._patches
    patched = [(owner, attr) for owner, attr, _, _ in tracer._patches]
    tracer.uninstall()
    after = _patched_attributes()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value
    for owner, attr in patched:
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_traced_simulation_matches_untraced_and_restores_decode():
    from repro.api import simulate
    import repro.kernels

    params = dict(n_threads=64, n_buckets=8, items_per_thread=1,
                  block_dim=64, seed=3)
    config = specs.quick_config("bows")
    plain = simulate(repro.kernels.build("ht", **params), config=config)
    tracer = Tracer()
    tracer.install()
    try:
        traced = simulate(repro.kernels.build("ht", **params), config=config)
    finally:
        tracer.uninstall()
    assert traced.stats.summary() == plain.stats.summary()
    spans = tracer.summarize()
    assert spans["sim.sm.step"]["calls"] > 0
    assert spans["sim.executor.atomic"]["calls"] > 0
    assert spans["core.ddos.is_sib"]["calls"] > 0
    # The program's memoized decode holds no wrapped handlers.
    program = traced.launch.program
    for decoded in program.__dict__.get("_decoded_cache", {}).values():
        for op in decoded.ops:
            assert not hasattr(op.handler, "__wrapped__")


def test_stream_is_seeded_and_places_duplicates_adjacently():
    a = specs.stream(5, 3)
    assert a == specs.stream(5, 3)
    assert a != specs.stream(6, 3)
    kinds = [s.kind for group in a for s in group]
    assert kinds.count("dup") == 3 * specs.DUP_PAIRS_PER_ROUND
    for group in a:
        if any(s.kind == "dup" for s in group):
            assert [s.kind for s in group] == ["cold", "dup"]
            assert group[0].key == group[1].key
    done = set()
    for group in a:
        for s in group:
            if s.kind == "hit":
                assert s.key in done
        done.update(s.key for s in group)


def test_seedless_kernels_never_get_a_seed():
    for group in specs.stream(11, 4):
        for s in group:
            if s.kernel in specs.SEEDLESS:
                assert "seed" not in dict(s.params)


def test_summary_batches_match_one_pass(monkeypatch):
    import tracer as tracer_module

    t = Tracer()
    leaf = t.wrap(lambda: None, "leaf")
    mid = t.wrap(lambda: [leaf() for _ in range(3)], "mid")
    root = t.wrap(lambda: [mid() for _ in range(2)], "root")
    for _ in range(5):
        root()
    whole = t.summarize()
    monkeypatch.setattr(tracer_module, "BATCH", 4)
    batched = t.summarize()
    assert whole.keys() == batched.keys()
    for name in whole:
        assert batched[name]["calls"] == whole[name]["calls"]
        assert batched[name]["self_s"] == pytest.approx(whole[name]["self_s"])
    assert whole["leaf"]["calls"] == 30
    assert whole["root"]["self_s"] >= 0
