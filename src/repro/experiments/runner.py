"""Shared experiment machinery: tables, replication, jam sweeps.

``replicate`` and ``sweep_epoch_targets`` describe their trials as
points (one adversary setting each, with the ``derive`` seed path of
every replication) and hand them to one dispatcher, ``_run_points``,
which fans them out through :mod:`repro.engine.executor`; pass a
:class:`~repro.experiments.registry.RunConfig` via ``config=`` to run
them on several worker processes or in ``run_batch`` groups.  Seeds are
derived per trial from paths fixed before execution starts, so serial,
parallel and batched runs are bit-identical.

With ``config.cache`` enabled, every trial is first looked up in the
content-addressed result cache (:mod:`repro.cache`) by a fingerprint of
its protocol, adversary, simulator options, and derived seed; hits are
served from disk and misses are written back as they complete, so an
interrupted sweep resumes from its finished cells on the next identical
invocation.  Trials whose inputs cannot be canonically fingerprinted
(callable predicates, trace recorders, history-keeping runs) execute
uncached and are counted in ``ExecutorStats.cache_uncached`` and the
``cache.uncached`` telemetry counter.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.adversaries.base import Adversary
from repro.engine.executor import run_tasks
from repro.engine.simulator import RunResult, Simulator
from repro.errors import ConfigurationError
from repro.protocols.base import Protocol
from repro.rng import derive

__all__ = [
    "Table",
    "mc_replicate",
    "replicate",
    "stable_hash",
    "sweep_epoch_targets",
    "SweepPoint",
]


def stable_hash(*parts) -> int:
    """Process-independent hash for deriving per-cell seeds.

    Python's built-in ``hash`` is salted per interpreter process, which
    would make experiment replications irreproducible across runs.
    Returns the full 32-bit CRC range: an earlier version collapsed it
    to 10,000 values, which made seed collisions between sweep cells
    likely at scale (birthday bound ~120 cells).
    """
    import zlib

    return zlib.crc32(repr(parts).encode("utf-8"))


@dataclass
class Table:
    """A plain-text results table (what the paper would print as a
    figure's data series)."""

    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> np.ndarray:
        """Extract one column as a float array (for fits)."""
        idx = self.columns.index(name)
        return np.asarray([row[idx] for row in self.rows], dtype=float)

    def to_dict(self) -> dict:
        """Plain-container snapshot (the persisted form in ``repro.store``)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> Table:
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(data["title"], list(data["columns"]))
        for row in data["rows"]:
            table.add_row(*row)
        return table

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1000 or abs(v) < 0.01:
                    return f"{v:.3g}"
                return f"{v:.3f}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(c), *(len(r[j]) for r in cells)) if cells else len(c)
            for j, c in enumerate(self.columns)
        ]
        lines = [self.title]
        lines.append("  ".join(c.rjust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


def _fingerprint_base(
    config, store, kind: str, make_protocol, sim_kwargs: dict
) -> dict | None:
    """Shared (protocol + simulator + run context) part of the cache
    key payload, or ``None`` when these tasks cannot be cached.

    History-keeping runs are never cached: ``run_result_to_dict``
    deliberately drops ``phase_history`` (forensic, not archival), so a
    warm hit could not reproduce a cold run bit-for-bit.
    """
    if store is None or sim_kwargs.get("keep_history"):
        return None
    from repro.cache.fingerprint import fingerprint
    from repro.errors import FingerprintError

    try:
        return fingerprint(
            kind=kind,
            protocol=make_protocol(),
            adversary=None,  # group-specific; filled in per adversary
            sim_kwargs=sim_kwargs,
            experiment=config.experiment,
            quick=config.quick,
        )
    except FingerprintError:
        return None


def _group_keys(base: dict | None, make_adversary, seed_paths) -> list:
    """Content keys for one adversary's replications (``None`` entries
    mean "run uncached")."""
    if base is None:
        return [None] * len(seed_paths)
    from repro.cache.fingerprint import describe, task_key
    from repro.errors import FingerprintError

    try:
        with_adv = dict(base, adversary=describe(make_adversary()))
    except FingerprintError:
        return [None] * len(seed_paths)
    return [task_key(with_adv, path) for path in seed_paths]


#: One adversary setting: its factory and the ``derive`` path of each
#: replication run against it.
_Point = tuple[Callable[[], Adversary], Sequence[tuple[int, ...]]]


def _run_points(
    make_protocol: Callable[[], Protocol],
    points: Sequence[_Point],
    kind: str,
    config,
    sim_kwargs: dict,
) -> list[list[RunResult]]:
    """Run every trial of every point; results come back per point, in
    path order.

    Trial ``path`` of a point runs on ``derive(*path)``, derived inside
    the task body so a retried task starts from a fresh stream.  With a
    cache store configured, all trials are looked up in one
    ``get_many`` and hits are served in place (``config.resume = False``
    skips the lookup, so every trial runs and rewrites its entry).
    Each point's misses are chunked into groups of at most
    ``config.batch`` trials, never across points (one ``run_batch``
    call uses one adversary factory), and each group runs as one
    executor task: ``Simulator.run`` when ``batch == 1``, ``run_batch``
    above it.  Every cacheable trial writes its own entry back from
    inside the worker, so an interrupted sweep leaves its finished cells
    behind and batching changes neither the cache granularity nor the
    bits: a trial's streams do not depend on which group it ran in.
    """
    batch = 1 if config is None else getattr(config, "batch", 1)
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    if config is not None and config.history:
        sim_kwargs.setdefault("keep_history", True)
    store = config.resolve_cache_store() if config is not None else None
    base = _fingerprint_base(config, store, kind, make_protocol, sim_kwargs)
    trials = [(adv, path) for adv, paths in points for path in paths]
    keys = [
        key for adv, paths in points for key in _group_keys(base, adv, paths)
    ]

    hits: dict = {}
    bytes_read = 0
    keyed = [k for k in keys if k is not None]
    if keyed and config.resume:
        hits, bytes_read = store.get_many(keyed)
    results = [hits.get(k) for k in keys]

    spans: list[tuple[int, int]] = []
    groups: list[list[int]] = []
    stop = 0
    for _, paths in points:
        start, stop = stop, stop + len(paths)
        spans.append((start, stop))
        miss = [i for i in range(start, stop) if keys[i] not in hits]
        groups.extend(miss[j : j + batch] for j in range(0, len(miss), batch))

    meta = {"experiment": config.experiment} if store is not None else None

    def make_task(group: list[int]) -> Callable[[], tuple[list[RunResult], int]]:
        make_adversary = trials[group[0]][0]
        paths = [trials[i][1] for i in group]
        group_keys = [keys[i] for i in group]

        def task() -> tuple[list[RunResult], int]:
            sim = Simulator(make_protocol(), make_adversary(), **sim_kwargs)
            if batch == 1:
                values = [sim.run(derive(*paths[0]))]
            else:
                values = list(
                    sim.run_batch(
                        [derive(*path) for path in paths],
                        make_protocol=make_protocol,
                        make_adversary=make_adversary,
                    )
                )
            n_bytes = sum(
                store.put(key, value, meta=meta)
                for key, value in zip(group_keys, values)
                if key is not None
            )
            return values, n_bytes

        return task

    kwargs = {}
    if config is not None:
        # The limit is per replication, and a group holds up to `batch`.
        timeout = config.timeout
        kwargs = {
            "jobs": config.jobs,
            "timeout": timeout * batch if timeout is not None else None,
            "retries": config.retries,
            "stats": config.stats,
            "pool": getattr(config, "pool", None),
        }
    outs = run_tasks([make_task(g) for g in groups], **kwargs)

    bytes_written = 0
    for group, (values, n_bytes) in zip(groups, outs):
        bytes_written += n_bytes
        for i, value in zip(group, values):
            results[i] = value

    stats = kwargs.get("stats")
    if stats is not None and batch > 1:
        stats.batch_tasks += len(groups)
        stats.batch_trials += sum(len(g) for g in groups)
        stats.batch_capacity += len(groups) * batch
    if store is not None:
        n_hits = sum(1 for k in keys if k in hits)
        n_misses = len(keyed) - n_hits
        n_uncached = len(keys) - len(keyed)
        if stats is not None:
            stats.cache_hits += n_hits
            stats.cache_misses += n_misses
            stats.cache_bytes_read += bytes_read
            stats.cache_bytes_written += bytes_written
            stats.cache_uncached += n_uncached
        from repro.telemetry.sink import get_sink

        sink = get_sink()
        if sink is not None and keyed:
            sink.counter("cache.hits", n_hits)
            sink.counter("cache.misses", n_misses)
            sink.counter("cache.bytes_read", bytes_read)
            sink.counter("cache.bytes_written", bytes_written)
        if sink is not None and n_uncached:
            sink.counter("cache.uncached", n_uncached)
    return [results[start:stop] for start, stop in spans]


def replicate(
    make_protocol: Callable[[], Protocol],
    make_adversary: Callable[[], Adversary],
    n_reps: int,
    seed: int = 0,
    *,
    config=None,
    n_channels: int | None = None,
    **sim_kwargs,
) -> list[RunResult]:
    """Run ``n_reps`` independent executions with derived seeds.

    Fresh protocol/adversary instances are built per replication so
    that stateful strategies cannot leak across runs; replication ``r``
    uses the generator ``derive(seed, r)`` regardless of which worker
    executes it, so results are identical for any ``config.jobs``.

    ``config`` is an optional
    :class:`~repro.experiments.registry.RunConfig` supplying the
    executor options (jobs, batch, timeout, retries, history); ``None``
    runs serially in-process.  With ``config.batch > 1`` replications
    are packed into :meth:`~repro.engine.simulator.Simulator.run_batch`
    tasks of that size — bit-identical results, per-trial cache entries.

    ``n_channels`` runs every trial on that many channels against a
    multichannel adversary.  The cache fingerprint then folds
    ``n_channels`` into the task identity (kind ``"mc_replicate"``), so
    single- and multi-channel runs of the same protocol can never
    collide in the store; ``None`` (the default) is the single-channel
    kind ``"replicate"``.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    kind = "replicate"
    if n_channels is not None:
        kind = "mc_replicate"
        sim_kwargs["n_channels"] = n_channels
    point = (make_adversary, [(seed, r) for r in range(n_reps)])
    (results,) = _run_points(make_protocol, [point], kind, config, sim_kwargs)
    return results


def mc_replicate(*args, n_channels: int, **kwargs) -> list[RunResult]:
    """:func:`replicate` on ``n_channels`` channels."""
    return replicate(*args, n_channels=n_channels, **kwargs)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated replications at one sweep setting."""

    setting: float
    mean_T: float
    mean_max_cost: float
    mean_mean_cost: float
    mean_slots: float
    success_rate: float
    n_reps: int
    truncated_rate: float = 0.0


def _aggregate_point(target: int, results: list[RunResult], n_reps: int) -> SweepPoint:
    return SweepPoint(
        setting=float(target),
        mean_T=float(np.mean([r.adversary_cost for r in results])),
        mean_max_cost=float(np.mean([r.max_node_cost for r in results])),
        mean_mean_cost=float(np.mean([r.node_costs.mean() for r in results])),
        mean_slots=float(np.mean([r.slots for r in results])),
        success_rate=float(np.mean([r.success for r in results])),
        n_reps=n_reps,
        truncated_rate=float(np.mean([r.truncated for r in results])),
    )


def sweep_epoch_targets(
    make_protocol: Callable[[], Protocol],
    make_adversary: Callable[[int], Adversary],
    targets: Sequence[int],
    n_reps: int,
    seed: int = 0,
    *,
    config=None,
    **sim_kwargs,
) -> list[SweepPoint]:
    """The workhorse sweep behind E1/E3/E4/E6/E7: attack up to epoch
    ``target`` (larger target = larger adversary budget ``T``), measure
    costs.

    ``make_adversary`` receives the target epoch and returns a fresh
    strategy (usually an
    :class:`~repro.adversaries.blocking.EpochTargetJammer`).

    The whole ``(target, replication)`` grid is submitted as one task
    batch, so with ``config.jobs > 1`` parallelism spans sweep points —
    a slow largest-budget point no longer serializes behind the cheap
    ones.  Replication ``r`` of target ``t`` always uses
    ``derive(seed + 1000 * t, r)``, matching the historical per-point
    seeding exactly.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    targets = list(targets)
    points = [
        (
            lambda t=t: make_adversary(t),
            [(seed + 1000 * t, r) for r in range(n_reps)],
        )
        for t in targets
    ]
    per_point = _run_points(
        make_protocol, points, "sweep_epoch_targets", config, sim_kwargs
    )
    return [
        _aggregate_point(target, results, n_reps)
        for target, results in zip(targets, per_point)
    ]
