"""Tests for the benchmark's span tracer and layer wrappers.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _tiny_single_channel(config=None):
    from repro.adversaries.blocking import EpochTargetJammer
    from repro.adversaries.budget import BudgetCap
    from repro.experiments.runner import replicate
    from repro.protocols.one_to_one import OneToOneBroadcast

    return replicate(
        OneToOneBroadcast,
        lambda: BudgetCap(EpochTargetJammer(6, q=0.5), 3000),
        3, seed=5, config=config,
    )


def _tiny_multichannel(config=None):
    from repro.arena.space import protocol_factory
    from repro.experiments.runner import mc_replicate
    from repro.multichannel.adversaries import MCBudgetCap, MCEpochTargetJammer

    return mc_replicate(
        protocol_factory("cz-c4"),
        lambda: MCBudgetCap(MCEpochTargetJammer(6, q=0.5), 3000),
        2, seed=3, n_channels=4, config=config,
    )


def _traced(work):
    tracer = Tracer(run_id="test")
    layers.install(tracer)
    try:
        with tracer.span("bench", "pass"):
            t0 = time.perf_counter()
            result = work()
            wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, result, wall


def _bindings() -> dict:
    """Every function a ``repro`` module binds and every class-dict
    entry of the program's classes, by identity."""
    _traced(_tiny_multichannel)  # import everything install() touches
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(mod).items():
                out[name, key] = id(value)
                if isinstance(value, type) and value.__module__.startswith("repro"):
                    for attr, entry in vars(value).items():
                        out[name, key, attr] = id(entry)
    return out


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    tracer, _results, _wall = _traced(_tiny_single_channel)
    assert tracer.counts["sim.runs"] == 3
    after = _bindings()
    assert after == before


def test_functions_are_patched_where_drivers_bind_them():
    import repro.engine.sampling as sampling
    import repro.engine.simulator as simulator
    import repro.multichannel.engine as mc_engine
    from repro.adversaries.basic import SilentAdversary
    from repro.adversaries.budget import BudgetCap
    from repro.engine.simulator import Simulator
    from repro.protocols.one_to_one import OneToOneBroadcast

    original = sampling.sample_action_events
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert simulator.sample_action_events is not original
        assert mc_engine.sample_action_events is simulator.sample_action_events
        assert "plan_phase" in vars(BudgetCap)
        assert vars(BudgetCap)["plan_phase"].__wrapped__ is not None
        sim = Simulator(OneToOneBroadcast(), SilentAdversary())
        assert sim.resolve_phase is simulator.resolve_phase
        assert sim.resolve_phase.__wrapped__ is not None
    finally:
        tracer.restore()
    assert simulator.sample_action_events is original
    assert not hasattr(vars(BudgetCap)["plan_phase"], "__wrapped__")


def test_self_times_are_non_negative_and_within_wall():
    from repro.experiments import RunConfig, run_experiment

    tracer, _report, wall = _traced(
        lambda: run_experiment("E4", RunConfig(seed=1))
    )
    times = tracer.self_times()
    assert times, "no spans recorded"
    assert all(seconds >= -1e-9 for seconds in times.values())
    root = [s for s in tracer.spans if s[3] == "bench"]
    assert len(root) == 1
    traced_wall = root[0][6] - root[0][5]
    assert wall <= traced_wall
    assert sum(times.values()) <= traced_wall + 1e-9
    assert {"sampling", "resolve", "protocol", "adversary", "sim"} <= {
        layer for layer, _name in times
    }


@pytest.mark.parametrize("batch", [1, 2])
def test_sim_slots_match_run_results(batch):
    from repro.experiments import RunConfig

    tracer, results, _wall = _traced(
        lambda: _tiny_single_channel(RunConfig(batch=batch))
    )
    assert tracer.counts["sim.runs"] == len(results) == 3
    assert tracer.counts["sim.slots"] == sum(r.slots for r in results)
    assert tracer.counts["sim.phases"] == sum(r.phases for r in results)


def test_multichannel_slots_match_run_results():
    tracer, results, _wall = _traced(_tiny_multichannel)
    assert tracer.counts["sim.slots"] == sum(r.slots for r in results)
    assert tracer.counts["sim.phases"] == sum(r.phases for r in results)
    assert tracer.counts["adversary.calls"] == tracer.counts["sim.phases"]


def test_nested_budget_cap_is_charged_once():
    """BudgetCap delegates plan_phase and observe_outcome to its inner
    adversary; only the outer call of each may be recorded."""
    tracer, results, _wall = _traced(_tiny_single_channel)
    phases = sum(r.phases for r in results)
    assert tracer.counts["adversary.calls"] == 2 * phases
    names = {name for _i, _p, _r, layer, name, _s, _e in tracer.spans
             if layer == "adversary"}
    assert names == {"BudgetCap.plan_phase", "BudgetCap.observe_outcome"}


def test_pinned_counts_repeat_exactly():
    from repro.experiments import RunConfig

    counts = []
    for _ in range(2):
        tracer, _results, _wall = _traced(
            lambda: _tiny_single_channel(RunConfig())
        )
        counts.append({k: tracer.counts[k] for k in layers.PIN_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["sim.phases"] > 0


def test_run_fails_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arena-mc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
