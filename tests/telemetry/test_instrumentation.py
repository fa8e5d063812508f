"""Instrumentation-site coverage: each subsystem emits what it claims.

Every test runs the real subsystem under an active sink and checks the
advertised records land — and, where it matters, that enabling the sink
does not change the science (bit-identical results on/off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries import SilentAdversary
from repro.arena.search import evolve, random_search
from repro.arena.space import StrategySpace, protocol_factory
from repro.cache import cached_run_tasks
from repro.cache.store import CacheStore
from repro.engine.simulator import run
from repro.experiments import RunConfig, run_experiment
from repro.protocols import OneToOneBroadcast, OneToOneParams
from repro.telemetry import deactivate, read_events, session

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def no_leaked_sink():
    yield
    deactivate()


def events_named(run_dir, name):
    return [e for e in read_events(run_dir) if e["name"] == name]


class TestSimulatorSpans:
    def test_sim_run_span_emitted(self, tmp_path):
        with session(tmp_path) as sink:
            result = run(
                OneToOneBroadcast(OneToOneParams.sim()),
                SilentAdversary(), seed=7,
            )
        (span,) = events_named(sink.run_dir, "sim.run")
        assert span["ev"] == "span"
        assert span["attrs"]["phases"] == result.phases
        assert span["attrs"]["slots"] == result.slots
        assert span["attrs"]["events"] >= 0
        expected = round(span["attrs"]["events"] / result.slots, 6)
        assert span["attrs"]["events_per_slot"] == expected

    def test_results_identical_with_and_without_sink(self, tmp_path):
        plain = run(
            OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), seed=7
        )
        with session(tmp_path):
            traced = run(
                OneToOneBroadcast(OneToOneParams.sim()),
                SilentAdversary(), seed=7,
            )
        assert np.array_equal(plain.node_costs, traced.node_costs)
        assert plain.adversary_cost == traced.adversary_cost
        assert plain.slots == traced.slots


class TestMultichannelObservability:
    """The channel axis rides the same telemetry and profile hooks as
    single-channel runs."""

    C = 4

    def _sim(self, **kwargs):
        from repro.engine.simulator import Simulator
        from repro.multichannel import CZBroadcast, CZParams, FractionJammer

        return Simulator(
            CZBroadcast(CZParams.sim(n_nodes=16, n_channels=self.C)),
            FractionJammer(0.15, max_total=2000),
            n_channels=self.C, max_slots=100_000, **kwargs,
        )

    def test_run_span_matches_result(self, tmp_path):
        sim = self._sim()
        resolve = sim.resolve_phase
        seen = []

        def counting(length, n_nodes, sends, listens, plan, groups=None):
            seen.append(len(sends) + len(listens))
            return resolve(length, n_nodes, sends, listens, plan, groups)

        sim.resolve_phase = counting
        with session(tmp_path) as sink:
            result = sim.run(3)
        (span,) = events_named(sink.run_dir, "sim.run")
        assert span["attrs"]["phases"] == result.phases == len(seen)
        assert span["attrs"]["slots"] == result.slots
        assert span["attrs"]["events"] == sum(seen) > 0

    def test_run_batch_span(self, tmp_path):
        with session(tmp_path) as sink:
            batch = self._sim().run_batch([3, 4, 5])
        (span,) = events_named(sink.run_dir, "sim.run_batch")
        assert span["attrs"]["trials"] == 3
        assert span["attrs"]["phases"] == int(batch.phases.sum())
        assert span["attrs"]["slots"] == int(batch.slots.sum())
        assert span["attrs"]["events"] > 0

    def test_profile_accumulates_stages_without_perturbing(self):
        from repro.store import run_result_to_dict

        stages = ("protocol", "sampling", "adversary", "resolve", "accounting")
        for call in (lambda sim: [sim.run(3)], lambda sim: sim.run_batch([3, 4])):
            prof: dict = {}
            got = call(self._sim(profile=prof))
            want = call(self._sim())
            assert all(prof.get(stage, -1.0) >= 0.0 for stage in stages), prof
            assert [run_result_to_dict(r) for r in got] == [
                run_result_to_dict(r) for r in want
            ]


class TestCacheTelemetry:
    def _tasks(self, n):
        keys = [f"{i:064x}" for i in range(n)]
        tasks = [
            lambda i=i: run(
                OneToOneBroadcast(OneToOneParams.sim()),
                SilentAdversary(), seed=i,
            )
            for i in range(n)
        ]
        return keys, tasks

    def test_miss_then_hit_counters_and_put_spans(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        keys, tasks = self._tasks(3)
        with session(tmp_path / "tele") as sink:
            cached_run_tasks(tasks, keys, store=store)  # all misses
            cached_run_tasks(tasks, keys, store=store)  # all hits
        events = read_events(sink.run_dir)
        counters = {}
        for e in events:
            if e["ev"] == "counter":
                counters[e["name"]] = counters.get(e["name"], 0) + e["value"]
        assert counters["cache.misses"] == 3
        assert counters["cache.hits"] == 3
        assert counters["cache.bytes_written"] > 0
        assert counters["cache.bytes_read"] > 0
        assert len(events_named(sink.run_dir, "cache.put")) == 3
        get_spans = events_named(sink.run_dir, "cache.get_many")
        assert [s["attrs"]["hits"] for s in get_spans] == [0, 3]


class TestExperimentTelemetry:
    def test_run_experiment_opens_scoped_session(self, tmp_path, capsys):
        cfg = RunConfig(seed=5, quick=True, telemetry=tmp_path)
        run_experiment("E1", cfg)
        capsys.readouterr()
        runs = sorted(tmp_path.iterdir())
        assert len(runs) == 1
        (span,) = events_named(runs[0], "experiment.run")
        assert span["attrs"]["eid"] == "E1"
        assert span["attrs"]["seed"] == 5
        assert span["attrs"]["config_fingerprint"] == cfg.fingerprint()
        names = [e["name"] for e in read_events(runs[0])]
        assert names[0] == "run.start" and names[-1] == "run.end"

    def test_fingerprint_covers_science_fields_only(self):
        base = RunConfig(seed=5, quick=True)
        assert base.fingerprint() == RunConfig(
            seed=5, quick=True, jobs=8, telemetry="/tmp/x"
        ).fingerprint()
        assert base.fingerprint() != RunConfig(seed=6, quick=True).fingerprint()
        assert base.fingerprint() != RunConfig(seed=5, quick=False).fingerprint()


SPACE = StrategySpace(families=["suffix", "random"], budget_log2=(8, 10))
FIG1 = protocol_factory("fig1")


class TestArenaTelemetry:
    def test_random_search_gauge(self, tmp_path):
        with session(tmp_path) as sink:
            result = random_search(
                SPACE, FIG1, iterations=3, n_reps=1, seed=21
            )
        (gauge,) = events_named(sink.run_dir, "arena.best_index")
        assert gauge["value"] == result.best.index
        assert gauge["attrs"]["algo"] == "random"
        assert gauge["attrs"]["evaluated"] == result.n_evaluated

    def test_evolve_gauge_per_generation(self, tmp_path):
        with session(tmp_path) as sink:
            result = evolve(
                SPACE, FIG1,
                generations=2, population=3, n_reps=1, seed=5,
            )
        gauges = events_named(sink.run_dir, "arena.best_index")
        assert [g["attrs"]["generation"] for g in gauges] == [0, 1]
        assert [g["value"] for g in gauges] == result.history
