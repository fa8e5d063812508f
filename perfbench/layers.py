"""Which of the program's functions each layer's spans wrap, what they
count, and how spans and counts become the per-layer metrics.

Layers are the program's modules:

========== ===========================================================
layer      wrapped calls
========== ===========================================================
sampling   ``sample_action_events``, ``sample_action_events_batch``
resolve    ``resolve_phase``, ``resolve_phase_batch``,
           ``resolve_phase_batch_core``, ``resolve_phase_dense``
protocol   every protocol class's own ``reset``/``next_phase``/
           ``observe`` and their ``*_batch`` forms
adversary  every adversary class's own ``plan_phase``/
           ``plan_phase_batch``/``observe_outcome`` (single- and
           multichannel zoos)
accounting ``EnergyLedger.charge_phase``,
           ``BatchEnergyLedger.charge_phase_batch``
sim        ``Simulator``/``MCSimulator`` ``run`` and ``run_batch``
executor   ``run_tasks`` (counts come from ``ExecutorStats``)
cache      ``CacheStore``/``ReadThroughStore`` ``get_many`` and ``put``
arena      ``evolve``, ``evaluate_genomes``, ``baseline_cost``
experiments ``run_experiment``, ``replicate``, ``mc_replicate``,
           ``sweep_epoch_targets``
========== ===========================================================

The benchmark's own spans use the layers ``bench`` (one root per
timed pass) and ``client`` (one per service request, on the client
threads).
"""

from __future__ import annotations

import statistics

__all__ = ["METRICS", "PIN_COUNTS", "install", "layer_metrics", "percentile"]

#: Counts that must repeat exactly across two traced runs of one seed.
PIN_COUNTS = (
    "sim.phases",
    "sim.slots",
    "sampling.events",
    "resolve.events",
    "adversary.calls",
    "executor.tasks",
    "cache.hits",
    "cache.misses",
    "arena.unique_genomes",
)

_PROTOCOL_METHODS = (
    "reset", "next_phase", "observe",
    "reset_batch", "next_phase_batch", "observe_batch",
)


def _subclasses(base: type) -> list[type]:
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return [c for c in seen if c.__module__.startswith("repro")]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- counters (called after each recorded call) ---------------------------


def _count_calls(key: str):
    def count(tracer, result, args, kwargs) -> None:
        tracer.add(key)

    return count


def _count_sample(tracer, result, args, kwargs) -> None:
    sends, listens = result
    tracer.add("sampling.calls")
    tracer.add("sampling.events", len(sends) + len(listens))
    sim = tracer.open_span("sim")
    if sim is not None and sim.endswith("run_batch"):
        tracer.add("sampling.serial_fallbacks")


def _count_sample_batch(tracer, result, args, kwargs) -> None:
    tracer.add("sampling.calls")
    tracer.add("sampling.events", sum(len(s) + len(l) for s, l in result))


def _count_resolve(tracer, result, args, kwargs) -> None:
    sends = _arg(args, kwargs, 2, "sends")
    listens = _arg(args, kwargs, 3, "listens")
    tracer.add("resolve.calls")
    tracer.add("resolve.events", len(sends) + len(listens))


def _count_resolve_batch(tracer, result, args, kwargs) -> None:
    sends = _arg(args, kwargs, 2, "sends_list")
    listens = _arg(args, kwargs, 3, "listens_list")
    tracer.add("resolve.calls")
    tracer.add(
        "resolve.events",
        sum(len(s) for s in sends) + sum(len(l) for l in listens),
    )


def _count_plan(tracer, result, args, kwargs) -> None:
    tracer.add("adversary.calls")
    tracer.add("adversary.jam_slots", result.cost)


def _count_plan_batch(tracer, result, args, kwargs) -> None:
    tracer.add("adversary.calls")
    tracer.add("adversary.jam_slots", sum(plan.cost for plan in result))


def _count_run(tracer, result, args, kwargs) -> None:
    tracer.add("sim.runs")
    tracer.add("sim.phases", result.phases)
    tracer.add("sim.slots", result.slots)


def _count_run_batch(tracer, result, args, kwargs) -> None:
    tracer.add("sim.runs", len(result.results))
    tracer.add("sim.phases", sum(r.phases for r in result.results))
    tracer.add("sim.slots", sum(r.slots for r in result.results))


def _count_get_many(tracer, result, args, kwargs) -> None:
    hits, bytes_read = result
    wanted = len(set(_arg(args, kwargs, 1, "keys")))
    tracer.add("cache.hits", len(hits))
    tracer.add("cache.misses", wanted - len(hits))
    tracer.add("cache.bytes_read", bytes_read)


def _count_put(tracer, result, args, kwargs) -> None:
    tracer.add("cache.bytes_written", result)


def _count_evaluate(tracer, result, args, kwargs) -> None:
    tracer.add("arena.evaluations", len(_arg(args, kwargs, 1, "genomes")))


def _count_evolve(tracer, result, args, kwargs) -> None:
    tracer.add("arena.unique_genomes", result.n_evaluated)


def _experiment_run(args, kwargs) -> str:
    eid = _arg(args, kwargs, 0, "eid")
    config = args[1] if len(args) > 1 else kwargs.get("config")
    seed = config.seed if config is not None else 0
    return f"{eid}/seed{seed}"


def install(tracer) -> None:
    """Patch every layer's calls; ``tracer.restore()`` undoes it.

    Call after the workload's modules are imported: only loaded modules
    and existing subclasses are patched.
    """
    from repro.adversaries.base import Adversary
    from repro.arena import search
    from repro.cache.memory import ReadThroughStore
    from repro.cache.store import CacheStore
    from repro.channel import accounting, model, model_dense
    from repro.engine import executor, sampling
    from repro.engine.simulator import Simulator
    from repro.experiments import registry, runner
    from repro.multichannel.adversaries import MCAdversary
    from repro.multichannel.engine import MCSimulator
    from repro.protocols.base import Protocol

    fn = tracer.patch_function
    fn(sampling, "sample_action_events", "sampling", _count_sample)
    fn(sampling, "sample_action_events_batch", "sampling", _count_sample_batch)
    fn(model, "resolve_phase", "resolve", _count_resolve)
    fn(model_dense, "resolve_phase_dense", "resolve", _count_resolve)
    fn(model, "resolve_phase_batch", "resolve", _count_resolve_batch)
    fn(model, "resolve_phase_batch_core", "resolve", _count_resolve_batch)
    fn(executor, "run_tasks", "executor")
    fn(registry, "run_experiment", "experiments", run_of=_experiment_run)
    for name in ("replicate", "mc_replicate", "sweep_epoch_targets"):
        fn(runner, name, "experiments")
    fn(search, "evolve", "arena", _count_evolve)
    # evolve calls evaluate_genomes: count the nested calls as well.
    fn(search, "evaluate_genomes", "arena", _count_evaluate, count_nested=True)
    fn(search, "baseline_cost", "arena")

    method = tracer.patch_method
    for cls in _subclasses(Protocol):
        for name in _PROTOCOL_METHODS:
            method(cls, name, "protocol", _count_calls("protocol.calls"))
    for cls in _subclasses(Adversary) + _subclasses(MCAdversary):
        method(cls, "plan_phase", "adversary", _count_plan)
        method(cls, "plan_phase_batch", "adversary", _count_plan_batch)
        method(
            cls, "observe_outcome", "adversary",
            _count_calls("adversary.calls"),
        )
    method(accounting.EnergyLedger, "charge_phase", "accounting")
    method(accounting.BatchEnergyLedger, "charge_phase_batch", "accounting")
    for cls in (Simulator, MCSimulator):
        method(cls, "run", "sim", _count_run)
        method(cls, "run_batch", "sim", _count_run_batch)
    for cls in (CacheStore, ReadThroughStore):
        method(cls, "get_many", "cache", _count_get_many)
        method(cls, "put", "cache", _count_put)


# -- metrics ----------------------------------------------------------------

#: ``(metric, unit)`` for every per-layer metric, in output order.
METRICS = (
    ("sampling.calls", "count"),
    ("sampling.events", "count"),
    ("sampling.s", "s"),
    ("sampling.serial_fallbacks", "count"),
    ("resolve.calls", "count"),
    ("resolve.events", "count"),
    ("resolve.s", "s"),
    ("protocol.calls", "count"),
    ("protocol.s", "s"),
    ("adversary.calls", "count"),
    ("adversary.s", "s"),
    ("adversary.jam_slots", "count"),
    ("accounting.s", "s"),
    ("sim.runs", "count"),
    ("sim.phases", "count"),
    ("sim.slots", "count"),
    ("sim.self_s", "s"),
    ("executor.tasks", "count"),
    ("executor.busy_s", "s"),
    ("executor.overhead_s", "s"),
    ("executor.retries", "count"),
    ("executor.trials_per_task", "ratio"),
    ("executor.batch_fill", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.memory_hits", "count"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.http_ms", "ms"),
    ("service.deduped", "count"),
    ("service.executed", "count"),
    ("service.failed", "count"),
    ("arena.evaluations", "count"),
    ("arena.unique_genomes", "count"),
    ("arena.self_s", "s"),
    ("experiments.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _executor_totals(stats: list[dict]) -> dict:
    """Sum ``ExecutorStats`` fields (as dicts) over a workload's runs."""
    keys = (
        "tasks", "retries", "wall_time", "busy_time",
        "batch_tasks", "batch_trials", "batch_capacity",
    )
    return {k: sum(s.get(k, 0) for s in stats) for k in keys}


def layer_metrics(
    tracer, stats: list[dict], service: dict | None, overhead_ratio: float
) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``stats`` are the pass's ``ExecutorStats`` as dicts; ``service``
    holds the server-side samples of a service pass (``None`` when the
    workload has no service).  Layers a workload does not reach read 0.
    """
    times = tracer.self_times()
    layer_s: dict[str, float] = {}
    for (layer, _name), seconds in times.items():
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
    counts = tracer.counts
    ex = _executor_totals(stats)
    # Unbatched tasks run one trial each and fill their single slot.
    trials_per_task = (
        ex["batch_trials"] / ex["batch_tasks"] if ex["batch_tasks"]
        else float(ex["tasks"] > 0)
    )
    batch_fill = (
        ex["batch_trials"] / ex["batch_capacity"] if ex["batch_capacity"]
        else float(ex["tasks"] > 0)
    )
    lookups = counts["cache.hits"] + counts["cache.misses"]
    svc = service or {}
    out = {
        "sampling.calls": counts["sampling.calls"],
        "sampling.events": counts["sampling.events"],
        "sampling.s": layer_s.get("sampling", 0.0),
        "sampling.serial_fallbacks": counts["sampling.serial_fallbacks"],
        "resolve.calls": counts["resolve.calls"],
        "resolve.events": counts["resolve.events"],
        "resolve.s": layer_s.get("resolve", 0.0),
        "protocol.calls": counts["protocol.calls"],
        "protocol.s": layer_s.get("protocol", 0.0),
        "adversary.calls": counts["adversary.calls"],
        "adversary.s": layer_s.get("adversary", 0.0),
        "adversary.jam_slots": counts["adversary.jam_slots"],
        "accounting.s": layer_s.get("accounting", 0.0),
        "sim.runs": counts["sim.runs"],
        "sim.phases": counts["sim.phases"],
        "sim.slots": counts["sim.slots"],
        "sim.self_s": layer_s.get("sim", 0.0),
        "executor.tasks": ex["tasks"],
        "executor.busy_s": ex["busy_time"],
        "executor.overhead_s": ex["wall_time"] - ex["busy_time"],
        "executor.retries": ex["retries"],
        "executor.trials_per_task": trials_per_task,
        "executor.batch_fill": batch_fill,
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "cache.bytes_read": counts["cache.bytes_read"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "cache.get_s": sum(
            s for (layer, name), s in times.items()
            if layer == "cache" and name.endswith("get_many")
        ),
        "cache.put_s": sum(
            s for (layer, name), s in times.items()
            if layer == "cache" and name.endswith("put")
        ),
        "cache.memory_hits": svc.get("memory_hits", 0),
        "service.queue_wait_ms_p50": percentile(svc.get("queue_wait_ms", []), 50),
        "service.queue_wait_ms_p90": percentile(svc.get("queue_wait_ms", []), 90),
        "service.run_ms_p50": percentile(svc.get("run_ms", []), 50),
        "service.http_ms": (
            statistics.median(svc["http_ms"]) if svc.get("http_ms") else 0.0
        ),
        "service.deduped": svc.get("deduped", 0),
        "service.executed": svc.get("executed", 0),
        "service.failed": svc.get("failed", 0),
        "arena.evaluations": counts["arena.evaluations"],
        "arena.unique_genomes": counts["arena.unique_genomes"],
        "arena.self_s": layer_s.get("arena", 0.0),
        "experiments.self_s": layer_s.get("experiments", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    return out
