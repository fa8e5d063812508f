"""Deterministic adversary-strategy search loops.

The objective is the attack's *sqrt-normalized exchange index*

    index = max(0, mean max-node cost - silent baseline) / sqrt(mean T)

— the constant ``c`` in the ``cost ~ c * sqrt(T)`` law that Theorems
1+2 bound.  Maximising the raw competitive ratio ``cost / T`` would
degenerate (it diverges as the adversary spends nothing), so the
search maximises the theorem's own normalisation; the raw ratio is
still measured and reported on every :class:`Evaluation`.

Determinism contract (pinned by the ``arena`` CI gate): a search is a
pure function of ``(space, protocol, seed, sizes)``.  Genome
generation, mutation, and selection draw from generators derived from
the root seed; each genome's replications run through
:func:`repro.experiments.runner.replicate` with a seed derived from the
genome's fingerprint, so results are bit-identical at any ``--jobs``
and memoizable by :mod:`repro.cache` — a killed search re-run with the
same arguments resumes from its cached evaluations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.arena.space import Genome, StrategySpace
from repro.errors import ConfigurationError
from repro.experiments.runner import Table, replicate, stable_hash
from repro.protocols.base import Protocol
from repro.rng import derive
from repro.telemetry.sink import get_sink

__all__ = [
    "Evaluation",
    "SearchResult",
    "evaluate_genomes",
    "evolve",
    "random_search",
]

#: Simulator safety cap shared by every arena evaluation (matches E14).
MAX_SLOTS = 20_000_000


@dataclass(frozen=True)
class Evaluation:
    """Measured performance of one genome against one protocol."""

    genome: Genome
    fingerprint: str
    mean_T: float
    mean_cost: float
    success_rate: float
    index: float
    ratio: float
    n_reps: int

    def row(self) -> tuple:
        """Leaderboard table row (see :func:`leaderboard_table`)."""
        return (
            self.genome.describe_short(),
            self.mean_T,
            self.mean_cost,
            self.index,
            self.ratio,
            self.success_rate,
            self.fingerprint[:12],
        )


def leaderboard_table(title: str, evaluations: list[Evaluation]) -> Table:
    """Render ranked evaluations as a :class:`Table` (best first)."""
    table = Table(
        title,
        ["strategy", "T", "max_cost", "index", "cost/T", "success", "key"],
    )
    for ev in evaluations:
        table.add_row(*ev.row())
    return table


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best: Evaluation
    leaderboard: list[Evaluation]
    baseline: float
    n_evaluated: int
    n_generations: int = 0
    history: list[float] = field(default_factory=list)

    def table(self, top: int = 10) -> Table:
        return leaderboard_table(
            f"arena leaderboard (baseline {self.baseline:.1f}, "
            f"{self.n_evaluated} genomes evaluated)",
            self.leaderboard[:top],
        )


def _rank_key(ev: Evaluation):
    # Descending index; fingerprint tiebreak keeps ordering total and
    # deterministic even if two genomes measure identically.
    return (-ev.index, ev.fingerprint)


def baseline_cost(
    make_protocol: Callable[[], Protocol],
    n_reps: int,
    seed: int,
    config=None,
    n_channels: int | None = None,
) -> float:
    """Mean max-node cost against the silent adversary (the efficiency
    term subtracted from every attack's cost)."""
    from repro.adversaries.basic import SilentAdversary

    if n_channels is None:
        make_silent = SilentAdversary
    else:
        from repro.multichannel.adversaries import ChannelBandJammer

        # A zero-width band: the MC engine's silent adversary.
        def make_silent():
            return ChannelBandJammer(0)

    runs = replicate(
        make_protocol, make_silent, n_reps, seed,
        config=config, n_channels=n_channels, max_slots=MAX_SLOTS,
    )
    return float(np.mean([r.max_node_cost for r in runs]))


def evaluate_genomes(
    space: StrategySpace,
    genomes: list[Genome],
    make_protocol: Callable[[], Protocol],
    *,
    baseline: float,
    n_reps: int,
    seed: int,
    config=None,
    memo: dict[str, Evaluation] | None = None,
    n_channels: int | None = None,
) -> list[Evaluation]:
    """Measure each genome with ``n_reps`` independent replications.

    The per-genome seed is ``seed + stable_hash(fingerprint)`` — a pure
    function of the root seed and the genome, so a genome reached by
    two different search paths (or two different ``--jobs`` settings,
    or a resumed search) is always measured on the same streams.
    ``memo`` short-circuits fingerprints already evaluated this search;
    the cross-process analogue is the result cache, which ``config``
    enables.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    memo = memo if memo is not None else {}
    out: list[Evaluation] = []
    for genome in genomes:
        fp = genome.fingerprint()
        cached = memo.get(fp)
        if cached is not None:
            out.append(cached)
            continue
        results = replicate(
            make_protocol,
            lambda g=genome: space.build(g),
            n_reps,
            seed + stable_hash("arena", fp),
            config=config,
            n_channels=n_channels,
            max_slots=MAX_SLOTS,
        )
        mean_T = float(np.mean([r.adversary_cost for r in results]))
        mean_cost = float(np.mean([r.max_node_cost for r in results]))
        marginal = max(0.0, mean_cost - baseline)
        ev = Evaluation(
            genome=genome,
            fingerprint=fp,
            mean_T=mean_T,
            mean_cost=mean_cost,
            success_rate=float(np.mean([r.success for r in results])),
            index=marginal / float(np.sqrt(max(mean_T, 1.0))),
            ratio=marginal / max(mean_T, 1.0),
            n_reps=n_reps,
        )
        memo[fp] = ev
        out.append(ev)
    return out


def random_search(
    space: StrategySpace,
    make_protocol: Callable[[], Protocol],
    *,
    iterations: int,
    n_reps: int = 3,
    seed: int = 0,
    config=None,
    n_channels: int | None = None,
) -> SearchResult:
    """Pure random search: sample ``iterations`` genomes, keep the best.

    The unbiased baseline the evolutionary loop must beat — and often a
    respectable optimizer in its own right over a space this small.
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    rng = derive(seed, 901)
    genomes = [space.random_genome(rng) for _ in range(iterations)]
    memo: dict[str, Evaluation] = {}
    baseline = baseline_cost(make_protocol, n_reps, seed, config, n_channels)
    evaluate_genomes(
        space, genomes, make_protocol,
        baseline=baseline, n_reps=n_reps, seed=seed, config=config, memo=memo,
        n_channels=n_channels,
    )
    ranked = sorted(memo.values(), key=_rank_key)
    sink = get_sink()
    if sink is not None:
        sink.gauge(
            "arena.best_index", ranked[0].index,
            algo="random", evaluated=len(memo),
        )
    return SearchResult(
        best=ranked[0],
        leaderboard=ranked,
        baseline=baseline,
        n_evaluated=len(memo),
    )


def evolve(
    space: StrategySpace,
    make_protocol: Callable[[], Protocol],
    *,
    generations: int,
    population: int,
    n_reps: int = 3,
    seed: int = 0,
    elite_frac: float = 0.35,
    config=None,
    n_channels: int | None = None,
) -> SearchResult:
    """(mu + lambda) evolutionary search over the genome space.

    Generation 0 is random; afterwards the top ``elite_frac`` survive
    unchanged and children are bred by crossover of two ranked elites
    followed by mutation.  Selection, breeding, and evaluation order
    are all derived from ``seed``, so the whole run — including the
    final leaderboard — is reproducible bit-for-bit.
    """
    if generations < 1:
        raise ConfigurationError(f"generations must be >= 1, got {generations}")
    if population < 2:
        raise ConfigurationError(f"population must be >= 2, got {population}")
    baseline = baseline_cost(make_protocol, n_reps, seed, config, n_channels)
    memo: dict[str, Evaluation] = {}
    history: list[float] = []

    rng = derive(seed, 902)
    current = [space.random_genome(rng) for _ in range(population)]
    n_elite = max(1, int(round(elite_frac * population)))

    for gen in range(generations):
        evaluated = evaluate_genomes(
            space, current, make_protocol,
            baseline=baseline, n_reps=n_reps, seed=seed, config=config,
            memo=memo, n_channels=n_channels,
        )
        ranked = sorted(evaluated, key=_rank_key)
        history.append(ranked[0].index)
        sink = get_sink()
        if sink is not None:
            sink.gauge(
                "arena.best_index", ranked[0].index,
                algo="evolve", generation=gen, evaluated=len(memo),
            )
        if gen == generations - 1:
            break
        elites = [ev.genome for ev in ranked[:n_elite]]
        children: list[Genome] = []
        while len(children) < population - len(elites):
            i = int(rng.integers(0, len(elites)))
            j = int(rng.integers(0, len(elites)))
            # The fitter-ranked parent leads the crossover.
            a, b = (elites[min(i, j)], elites[max(i, j)])
            children.append(space.mutate(space.crossover(a, b, rng), rng))
        current = elites + children

    ranked = sorted(memo.values(), key=_rank_key)
    return SearchResult(
        best=ranked[0],
        leaderboard=ranked,
        baseline=baseline,
        n_evaluated=len(memo),
        n_generations=generations,
        history=history,
    )
