"""The runner's single trial path: cache lookup, per-point batching,
path choice and the per-replication timeout, driven through
``replicate`` and ``sweep_epoch_targets``."""

from __future__ import annotations

import time

import pytest

from repro.adversaries import EpochTargetJammer, SilentAdversary
from repro.engine.simulator import Simulator
from repro.experiments.registry import RunConfig
from repro.experiments.runner import replicate, sweep_epoch_targets
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

PARAMS = OneToOneParams.sim()
TARGETS = [PARAMS.first_epoch + 1, PARAMS.first_epoch + 2, PARAMS.first_epoch + 3]


def mk_protocol():
    return OneToOneBroadcast(PARAMS)


def sweep(targets, n_reps, config=None, make_adversary=None):
    return sweep_epoch_targets(
        mk_protocol,
        make_adversary or (lambda t: EpochTargetJammer(t, q=1.0)),
        targets,
        n_reps,
        seed=7,
        config=config,
    )


class SleepyAdversary(SilentAdversary):
    """Spends 0.3 s of wall clock per replication before the first phase."""

    def begin_run(self, n_nodes, n_groups, rng):
        time.sleep(0.3)
        super().begin_run(n_nodes, n_groups, rng)


class TestBatchedSweepOverWarmStore:
    def test_matches_serial_and_never_mixes_targets(self, tmp_path, monkeypatch):
        def cached(**kw):
            return RunConfig(cache=True, cache_dir=tmp_path, experiment="TD", **kw)

        # Warm a different number of replications per target: 1 of the
        # first, 3 of the second, none of the third.
        sweep(TARGETS[:1], 1, cached())
        sweep(TARGETS[1:2], 3, cached())

        made: list[int] = []
        batch_targets: list[set[int]] = []
        original = Simulator.run_batch

        def recording_run_batch(self, seeds, **kw):
            made.clear()
            out = original(self, seeds, **kw)
            batch_targets.append(set(made))
            return out

        def make_adversary(t):
            made.append(t)
            return EpochTargetJammer(t, q=1.0)

        monkeypatch.setattr(Simulator, "run_batch", recording_run_batch)
        config = cached(batch=3)
        batched = sweep(TARGETS, 4, config, make_adversary)
        monkeypatch.undo()

        assert batched == sweep(TARGETS, 4)
        stats = config.stats
        assert stats.cache_hits == 1 + 3
        assert stats.cache_misses == 3 + 1 + 4
        assert stats.batch_trials == stats.cache_misses
        # Misses per target: 3 -> [3], 1 -> [1], 4 -> [3, 1].
        assert stats.batch_tasks == 4
        assert batch_targets == [{TARGETS[0]}, {TARGETS[1]}, {TARGETS[2]}, {TARGETS[2]}]


class TestPathChoice:
    @pytest.mark.parametrize("batch, used, unused", [
        (1, "run", "run_batch"),
        (4, "run_batch", "run"),
    ])
    def test_one_engine_entry_per_batch_mode(self, monkeypatch, batch, used, unused):
        calls = {"run": 0, "run_batch": 0}

        def counting(name):
            original = getattr(Simulator, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(Simulator, name, counting(name))
        replicate(mk_protocol, SilentAdversary, 5, seed=1, config=RunConfig(batch=batch))
        sweep(TARGETS[:2], 3, RunConfig(batch=batch))
        assert calls[unused] == 0
        assert calls[used] == (5 + 6 if batch == 1 else 2 + 2)


class TestBatchedTimeout:
    def test_timeout_is_per_replication_not_per_task(self):
        # Four 0.3 s replications in one batched task take 1.2 s, over a
        # 1.0 s per-replication limit; the task's limit is 4 x 1.0 s.
        config = RunConfig(batch=4, timeout=1.0, retries=0)
        results = replicate(mk_protocol, SleepyAdversary, 4, seed=2, config=config)
        assert len(results) == 4
        assert config.stats.timeouts == 0
