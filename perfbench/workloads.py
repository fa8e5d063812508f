"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload drives only public entry points at the program's default
settings, so a change of default shows up in the numbers:

* ``sweep-1ton`` -- ``run_experiment`` for quick E6 then E8;
* ``arena-mc`` -- ``arena.search.evolve`` against the ``cz-c8``
  multichannel defender;
* ``service-replay`` -- ``JobManager`` + ``ServiceServer`` driven by two
  ``ServiceClient`` connections over a half pre-filled cache.

A pass returns what it timed (``wall_s``, one latency per request), the
bytes each request produced (for the cross-pass and traced-vs-untraced
comparisons in ``run.py``) and the requests that failed a check.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import importlib
import json
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Pass", "WORKLOADS"]


@dataclass
class Pass:
    """What one timed pass of a workload measured and produced."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Request key -> output bytes (reports, leaderboards, results).
    outputs: dict[str, bytes] = field(default_factory=dict)
    #: Request key -> why it failed a check or did not complete.
    failures: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    #: ``ExecutorStats`` of every run the pass issued, as dicts.
    stats: list[dict] = field(default_factory=list)
    #: Server-side samples (service workload only).
    service: dict | None = None


def _import_experiments(eids) -> None:
    from repro.experiments.registry import get_experiment

    for eid in eids:
        importlib.import_module(get_experiment(eid).module)


# -- sweep-1ton ---------------------------------------------------------------


class SweepOneToN:
    """Quick E6 then E8: few long 1-to-n trials, where the engine
    kernels (sampling, resolve) do most of the work."""

    name = "sweep-1ton"
    experiments = ("E6", "E8")
    min_passes = 1

    def setup(self, workdir: Path) -> None:
        _import_experiments(self.experiments)

    def prepare(self, seed: int, workdir: Path, root: Path) -> dict:
        baseline = None
        if seed == 0:
            # Seed 0 at the defaults is what results/baseline/ stores.
            baseline = {
                eid: (root / "results" / "baseline" / f"{eid}.json").read_bytes()
                for eid in self.experiments
            }
        return {"seed": seed, "baseline": baseline}

    def run_pass(self, inputs: dict, tracer=None) -> Pass:
        from repro.experiments import RunConfig, run_experiment
        from repro.store import report_to_bytes

        out = Pass()
        reports = {}
        start = time.perf_counter()
        for eid in self.experiments:
            out.attempted += 1
            config = RunConfig(seed=inputs["seed"])
            t0 = time.perf_counter()
            try:
                reports[eid] = run_experiment(eid, config)
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                out.failures[eid] = f"{type(exc).__name__}: {exc}"
                continue
            out.latencies_s.append(time.perf_counter() - t0)
            out.stats.append(dataclasses.asdict(config.stats))
        out.wall_s = time.perf_counter() - start

        for eid, report in reports.items():
            data = report_to_bytes(report)
            out.outputs[eid] = data
            failed = sorted(k for k, ok in report.checks.items() if not ok)
            if failed:
                out.failures[eid] = f"report checks failed: {failed}"
            elif inputs["baseline"] and data != inputs["baseline"][eid]:
                out.failures[eid] = "report differs from results/baseline"
        return out


# -- arena-mc -----------------------------------------------------------------


class ArenaMC:
    """Evolutionary adversary searches against the 8-channel Chen-Zheng
    defender: hundreds of short multichannel trials per search.

    One search's time depends strongly on its seed (the budgets the
    search wanders into), so a pass runs a fixed campaign of
    ``searches`` searches whose seeds derive from the workload seed,
    and the campaign is the request a caller waits on: a handful of
    search times per run is too few for steady percentiles.  The quick
    genome space (budgets up to 2**13) keeps a search short enough for
    a campaign of 12 to fit one run.
    """

    name = "arena-mc"
    min_passes = 1
    searches = 12
    generations = 10
    population = 16
    n_reps = 3
    n_channels = 8

    def setup(self, workdir: Path) -> None:
        import repro.arena.search  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.multichannel.engine  # noqa: F401

    def prepare(self, seed: int, workdir: Path, root: Path) -> dict:
        rng = np.random.default_rng([seed, 0xA7E])
        seeds = rng.choice(1_000_000, self.searches, replace=False)
        return {"seeds": [int(s) for s in seeds]}

    def run_pass(self, inputs: dict, tracer=None) -> Pass:
        from repro.arena.search import evolve
        from repro.arena.space import multichannel_space, protocol_factory
        from repro.experiments import RunConfig

        out = Pass()
        start = time.perf_counter()
        for seed in inputs["seeds"]:
            key = f"evolve/seed{seed}"
            config = RunConfig()
            out.attempted += 1
            try:
                result = evolve(
                    multichannel_space(quick=True),
                    protocol_factory("cz-c8"),
                    generations=self.generations,
                    population=self.population,
                    n_reps=self.n_reps,
                    seed=seed,
                    n_channels=self.n_channels,
                    config=config,
                )
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                out.failures[key] = f"{type(exc).__name__}: {exc}"
                continue
            out.stats.append(dataclasses.asdict(config.stats))
            out.outputs[key] = leaderboard_bytes(result)
            problems = self.check(result)
            if problems:
                out.failures[key] = "; ".join(problems)
        out.wall_s = time.perf_counter() - start
        out.latencies_s.append(out.wall_s)
        return out

    def check(self, result) -> list[str]:
        """Invariants every search result must satisfy."""
        board = result.leaderboard
        problems = []
        fingerprints = [ev.fingerprint for ev in board]
        if result.n_evaluated != len(board) or len(set(fingerprints)) != len(board):
            problems.append("leaderboard is not one entry per evaluated genome")
        if board != sorted(board, key=lambda ev: (-ev.index, ev.fingerprint)):
            problems.append("leaderboard is not ranked")
        if board and result.best is not board[0]:
            problems.append("best is not the top of the leaderboard")
        for ev in board:
            values = (ev.mean_T, ev.mean_cost, ev.index, ev.ratio)
            if not all(math.isfinite(v) for v in values) or ev.index < 0:
                problems.append(f"bad evaluation {ev.fingerprint[:12]}")
                break
            if not 0.0 <= ev.success_rate <= 1.0 or ev.n_reps != self.n_reps:
                problems.append(f"bad evaluation {ev.fingerprint[:12]}")
                break
        history = result.history
        if len(history) != self.generations or any(
            b < a for a, b in zip(history, history[1:])
        ):
            # Elites survive unchanged, so the best index never drops.
            problems.append("best-index history is not non-decreasing")
        return problems


def leaderboard_bytes(result) -> bytes:
    """Canonical bytes of a search result (ranked rows and history)."""
    return json.dumps(
        {
            "baseline": result.baseline,
            "n_evaluated": result.n_evaluated,
            "history": result.history,
            "rows": [list(ev.row()) for ev in result.leaderboard],
        },
        sort_keys=True,
    ).encode("utf-8")


# -- service-replay -----------------------------------------------------------


class _ServerThread:
    """A ``ServiceServer`` on its own event-loop thread."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self.url = ""
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._error: Exception | None = None
        self._thread = threading.Thread(
            target=self._main, name="perfbench-server", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # noqa: BLE001 -- re-raised by start()
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.service import ServiceServer

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = ServiceServer(self.manager)
        await server.start()
        self.url = server.url
        self._ready.set()
        serving = asyncio.ensure_future(server.serve_forever())
        await self._stop.wait()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        await server.aclose()

    def start(self) -> str:
        self._thread.start()
        if not self._ready.wait(60) or self._error is not None:
            raise RuntimeError(f"service did not start: {self._error!r}")
        return self.url

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")


class ServiceReplay:
    """Two closed-loop clients replaying one shuffled list of quick
    1-to-1 jobs against an in-process service whose cache holds half
    of the job set."""

    name = "service-replay"
    experiments = ("E1", "E3", "E4", "A4")
    seeds_per_experiment = 6  # half pre-filled, half cold
    clients = 2
    min_passes = 3  # 3 x 48 requests, so p90 has >= 10 samples above it
    request_timeout = 120.0

    def setup(self, workdir: Path) -> None:
        from repro.service import JobManager, ServiceClient  # noqa: F401

        _import_experiments(self.experiments)
        manager = JobManager(cache_dir=workdir / "setup-cache")
        try:
            server = _ServerThread(manager)
            server.start()
            server.stop()
        finally:
            manager.close()

    def prepare(self, seed: int, workdir: Path, root: Path) -> dict:
        """Job list, a cache pre-filled with half of it, and the
        reference bytes of every job (``run_experiment`` directly)."""
        from repro.experiments import RunConfig, run_experiment
        from repro.store import report_to_bytes

        rng = np.random.default_rng([seed, 0x5E7])
        half = self.seeds_per_experiment // 2
        warm, cold = [], []
        for eid in self.experiments:
            seeds = rng.choice(1_000_000, self.seeds_per_experiment, replace=False)
            warm += [(eid, int(s)) for s in seeds[:half]]
            cold += [(eid, int(s)) for s in seeds[half:]]
        template = workdir / "cache-template"
        reference = {}
        for eid, s in warm:
            config = RunConfig(seed=s, cache=True, cache_dir=template)
            reference[eid, s] = report_to_bytes(run_experiment(eid, config))
        for eid, s in cold:
            reference[eid, s] = report_to_bytes(
                run_experiment(eid, RunConfig(seed=s))
            )
        # Both clients submit this one list, so each spec is submitted
        # twice: one submission creates the job, the other joins it
        # through the dedupe index.  With both clients waiting on the
        # same job, a request's latency is its job's service time.
        specs = warm + cold
        order = [specs[i] for i in rng.permutation(len(specs))]
        return {
            "order": order,
            "workdir": workdir,
            "template": template,
            "reference": reference,
            "passes": 0,
        }

    def _client(self, url, order, results, tracer) -> None:
        from repro.service import ServiceClient

        with ServiceClient(url, timeout=self.request_timeout) as client:
            for eid, s in order:
                span = (
                    tracer.span("client", "request", run=f"{eid}/seed{s}")
                    if tracer is not None else contextlib.nullcontext()
                )
                with span:
                    t0 = time.perf_counter()
                    try:
                        job = client.submit(eid, seed=s)
                        body = client.result(
                            job["job_id"], wait=True,
                            timeout=self.request_timeout,
                        )
                    except Exception as exc:  # noqa: BLE001 -- counted as failed
                        results.append(
                            (eid, s, None, None, f"{type(exc).__name__}: {exc}")
                        )
                        continue
                    results.append((eid, s, job, body, time.perf_counter() - t0))

    def run_pass(self, inputs: dict, tracer=None) -> Pass:
        from repro.service import JobManager

        inputs["passes"] += 1
        pass_dir = inputs["workdir"] / f"pass{inputs['passes']}"
        shutil.copytree(inputs["template"], pass_dir / "cache")
        manager = JobManager(cache_dir=pass_dir / "cache")
        server = _ServerThread(manager)
        out = Pass()
        try:
            url = server.start()
            results: list[list] = [[] for _ in range(self.clients)]
            threads = [
                threading.Thread(
                    target=self._client,
                    args=(url, inputs["order"], res, tracer),
                )
                for res in results
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            out.wall_s = time.perf_counter() - start

            creators = {}
            for eid, s, job, body, took in (r for res in results for r in res):
                key = f"{eid}/seed{s}"
                out.attempted += 1
                if job is None:
                    out.failures[f"{key}#{out.attempted}"] = took
                    continue
                out.latencies_s.append(took)
                if body != inputs["reference"][eid, s]:
                    out.failures[f"{key}#{out.attempted}"] = (
                        "service result differs from run_experiment"
                    )
                out.outputs[key] = body
                if job["submissions"] == 1:
                    creators[job["job_id"]] = took
            if tracer is not None:
                out.service = self._server_samples(url, manager, creators, out)
        finally:
            server.stop()
            manager.close()
            shutil.rmtree(pass_dir, ignore_errors=True)
        return out

    @staticmethod
    def _server_samples(url, manager, creators, out: Pass) -> dict:
        """Job records (via ``GET /v1/jobs/{id}``) and manager counters."""
        from repro.service import ServiceClient

        queue_wait, run, http = [], [], []
        with ServiceClient(url) as client:
            for job_id, took in creators.items():
                record = client.status(job_id)
                if record["started"] is None or record["finished"] is None:
                    continue
                queue_wait.append(1000 * (record["started"] - record["created"]))
                run.append(1000 * (record["finished"] - record["started"]))
                http.append(1000 * (took - (record["finished"] - record["created"])))
                if record["stats"] is not None:
                    out.stats.append(record["stats"])
        counters = manager.counters()
        return {
            "queue_wait_ms": queue_wait,
            "run_ms": run,
            "http_ms": http,
            "deduped": counters["deduped"],
            "executed": counters["executed"],
            "failed": counters["failed"],
            "memory_hits": counters["cache"]["memory_hits"],
        }


WORKLOADS = {w.name: w for w in (SweepOneToN(), ArenaMC(), ServiceReplay())}
