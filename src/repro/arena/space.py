"""The adversary genome: a parametric, canonically-describable strategy
space with seeded mutation and crossover.

A :class:`Genome` is pure data — a family name plus a flat dict of
scalar parameters (plus the interval list of the splice family).  It
maps onto an executable :class:`~repro.adversaries.base.Adversary` via
:meth:`StrategySpace.build`, always wrapped in a
:class:`~repro.adversaries.budget.BudgetCap` so every candidate fights
with a declared budget ``T`` cap; and it maps onto a canonical
fingerprint via :meth:`Genome.fingerprint`, which is what lets the
search memoize evaluations through :mod:`repro.cache` and the corpus
key its regression entries.

The parameter ranges are deliberately generous: the point of the arena
is to search *outside* the hand-picked presets of E14, not to re-run
them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.adversaries.base import Adversary
from repro.adversaries.basic import (
    PeriodicJammer,
    RandomJammer,
    SuffixJammer,
)
from repro.adversaries.blocking import EpochTargetJammer, QBlockingJammer
from repro.adversaries.budget import BudgetCap
from repro.adversaries.reactive import ReactiveProductJammer
from repro.adversaries.spliced import SplicedScheduleJammer
from repro.adversaries.stochastic import (
    GreedyAdaptiveJammer,
    MarkovJammer,
    WindowedJammer,
)
from repro.errors import ConfigurationError
from repro.protocols.base import Protocol

__all__ = [
    "FloatGene",
    "IntGene",
    "BoolGene",
    "Genome",
    "StrategySpace",
    "default_space",
    "multichannel_space",
    "protocol_channels",
    "protocol_factory",
    "protocol_names",
]


# ---------------------------------------------------------------------------
# Defender presets: the named protocol factories duels, searches, and
# corpus replays share.  Names, not callables, are what persists.
# ---------------------------------------------------------------------------


def _fig1() -> Protocol:
    from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

    return OneToOneBroadcast(OneToOneParams.sim())


def _ksy() -> Protocol:
    from repro.protocols.ksy import KSYOneToOne, KSYParams

    return KSYOneToOne(KSYParams.sim())


def _combined() -> Protocol:
    from repro.protocols.combined import CombinedOneToOne

    return CombinedOneToOne()


def _deterministic() -> Protocol:
    from repro.protocols.naive import AlwaysOnSender

    return AlwaysOnSender()


def _cz(n_channels: int) -> Callable[[], Protocol]:
    def make() -> Protocol:
        from repro.multichannel.protocols import CZBroadcast, CZParams

        return CZBroadcast(CZParams.sim(n_nodes=16, n_channels=n_channels))

    return make


_PROTOCOLS: dict[str, Callable[[], Protocol]] = {
    "fig1": _fig1,
    "ksy": _ksy,
    "combined": _combined,
    "deterministic": _deterministic,
    "cz-c1": _cz(1),
    "cz-c2": _cz(2),
    "cz-c4": _cz(4),
    "cz-c8": _cz(8),
}

#: Presets that face the multichannel adversary zoo, mapped to their
#: band width ``C``.  Absence means a single-channel preset — note
#: ``cz-c1`` *is* listed: its opponents are
#: :class:`~repro.multichannel.adversaries.MCAdversary` instances and
#: its cache entries are keyed as multichannel runs, so the dispatch
#: key is "which zoo", not "how many channels".
_PROTOCOL_CHANNELS: dict[str, int] = {
    "cz-c1": 1,
    "cz-c2": 2,
    "cz-c4": 4,
    "cz-c8": 8,
}


def protocol_names() -> list[str]:
    """Registered defender preset names, in registry order."""
    return list(_PROTOCOLS)


def protocol_factory(name: str) -> Callable[[], Protocol]:
    """A zero-argument factory for the named defender preset."""
    try:
        return _PROTOCOLS[name]
    except KeyError:
        known = ", ".join(_PROTOCOLS)
        raise ConfigurationError(
            f"unknown protocol preset {name!r}; known: {known}"
        ) from None


def protocol_channels(name: str) -> int | None:
    """Band width of a multichannel preset, ``None`` for single-channel.

    The arena keys dispatch off this: a non-``None`` value runs
    evaluation through :func:`repro.experiments.runner.replicate` with
    ``n_channels`` set and restricts the genome space to the multichannel families.
    """
    if name not in _PROTOCOLS:
        protocol_factory(name)  # raise the canonical error
    return _PROTOCOL_CHANNELS.get(name)


# ---------------------------------------------------------------------------
# Gene descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatGene:
    """A continuous parameter in ``[lo, hi]``.

    Values are quantized to 4 decimals so that genomes remain canonical
    JSON (`repr` round-trips exactly) and shrinking has a finite lattice
    to walk.
    """

    lo: float
    hi: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.clip(float(rng.uniform(self.lo, self.hi)))

    def perturb(self, value: float, rng: np.random.Generator) -> float:
        step = 0.2 * (self.hi - self.lo)
        return self.clip(value + float(rng.normal(0.0, step)))

    def clip(self, value: float) -> float:
        return round(min(self.hi, max(self.lo, value)), 4)


@dataclass(frozen=True)
class IntGene:
    """An integer parameter in ``[lo, hi]`` (inclusive)."""

    lo: int
    hi: int

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    def perturb(self, value: int, rng: np.random.Generator) -> int:
        span = max(1, (self.hi - self.lo) // 4)
        step = int(rng.integers(-span, span + 1))
        return self.clip(value + (step if step != 0 else 1))

    def clip(self, value: int) -> int:
        return int(min(self.hi, max(self.lo, value)))


@dataclass(frozen=True)
class BoolGene:
    """A boolean parameter."""

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.integers(0, 2))

    def perturb(self, value: bool, rng: np.random.Generator) -> bool:
        del rng
        return not value


#: Marker for the splice family's interval-list parameter, which has
#: its own mutation operators (see ``StrategySpace._mutate_intervals``).
_INTERVALS = "intervals"


@dataclass(frozen=True)
class Genome:
    """One candidate adversary as pure data.

    ``params`` holds only JSON-able scalars (and, for the ``spliced``
    family, a sorted list of ``[start, end]`` fraction pairs), so the
    canonical form — and hence the fingerprint — is stable across
    processes and numpy versions.
    """

    family: str
    params: dict = field(default_factory=dict)

    def canonical(self) -> list:
        """Canonical JSON-able form (sorted keys, tagged floats)."""
        from repro.cache.fingerprint import describe

        return ["genome", self.family, describe(self.params)]

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical form."""
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        """Plain-container snapshot (the corpus's persisted form)."""
        return {"family": self.family, "params": json.loads(json.dumps(self.params))}

    @classmethod
    def from_json(cls, data: dict) -> "Genome":
        return cls(family=str(data["family"]), params=dict(data["params"]))

    def describe_short(self) -> str:
        """One-line human-readable form for tables and logs."""
        parts = []
        for key in sorted(self.params):
            value = self.params[key]
            if key == _INTERVALS:
                parts.append(
                    "iv=" + "+".join(f"{s:g}:{e:g}" for s, e in value)
                )
            elif isinstance(value, bool):
                if value:
                    parts.append(key)
            elif isinstance(value, float):
                parts.append(f"{key}={value:g}")
            else:
                parts.append(f"{key}={value}")
        return f"{self.family}({', '.join(parts)})"


# ---------------------------------------------------------------------------
# The space
# ---------------------------------------------------------------------------

#: Builders: family name -> (gene dict, constructor taking the sampled
#: params minus the budget).  ``budget_log2`` is shared by every family
#: (appended by the space) and applied as a BudgetCap.
def _build_suffix(p, budget):
    return BudgetCap(SuffixJammer(p["fraction"]), budget)


def _build_qblock(p, budget):
    return BudgetCap(
        QBlockingJammer(p["q"], target_listener=p["target_listener"]), budget
    )


def _build_epoch_target(p, budget):
    return BudgetCap(
        EpochTargetJammer(
            p["target_epoch"],
            q=p["q"],
            target_listener=p["target_listener"],
            phase_fraction=p["phase_fraction"],
        ),
        budget,
    )


def _build_reactive(p, budget):
    del p
    return ReactiveProductJammer(budget)


def _build_random(p, budget):
    return BudgetCap(RandomJammer(p["p"]), budget)


def _build_periodic(p, budget):
    return BudgetCap(PeriodicJammer(p["period"]), budget)


def _build_markov(p, budget):
    return BudgetCap(MarkovJammer(p_enter=p["p_enter"], p_exit=p["p_exit"]), budget)


def _build_windowed(p, budget):
    return BudgetCap(WindowedJammer(rho=p["rho"], window=p["window"]), budget)


def _build_greedy(p, budget):
    return GreedyAdaptiveJammer(budget, q_hot=p["q_hot"], smoothing=p["smoothing"])


def _build_spliced(p, budget):
    return BudgetCap(
        SplicedScheduleJammer(
            p[_INTERVALS], target_listener=p["target_listener"]
        ),
        budget,
    )


_FAMILIES: dict[str, tuple[dict, Callable]] = {
    "suffix": ({"fraction": FloatGene(0.05, 1.0)}, _build_suffix),
    "qblock": (
        {"q": FloatGene(0.05, 1.0), "target_listener": BoolGene()},
        _build_qblock,
    ),
    "epoch_target": (
        {
            "target_epoch": IntGene(6, 18),
            "q": FloatGene(0.05, 1.0),
            "phase_fraction": FloatGene(0.1, 1.0),
            "target_listener": BoolGene(),
        },
        _build_epoch_target,
    ),
    "reactive": ({}, _build_reactive),
    "random": ({"p": FloatGene(0.02, 0.6)}, _build_random),
    "periodic": ({"period": IntGene(2, 64)}, _build_periodic),
    "markov": (
        {"p_enter": FloatGene(0.005, 0.2), "p_exit": FloatGene(0.02, 0.5)},
        _build_markov,
    ),
    "windowed": (
        {"rho": FloatGene(0.05, 1.0), "window": IntGene(8, 256)},
        _build_windowed,
    ),
    "greedy": (
        {"q_hot": FloatGene(0.1, 1.0), "smoothing": FloatGene(0.05, 1.0)},
        _build_greedy,
    ),
    "spliced": (
        {_INTERVALS: None, "target_listener": BoolGene()},
        _build_spliced,
    ),
}


# Multichannel families: genomes whose adversaries buy
# per-(channel,slot) cells over the virtual slots.  Kept in a separate
# registry because the two zoos' plans are not interchangeable —
# a space mixes one kind or the other, never both — while Genome,
# mutation, crossover, fingerprints, and the corpus treat both
# identically.
def _build_mc_fraction(p, budget):
    from repro.multichannel.adversaries import FractionJammer, MCBudgetCap

    return MCBudgetCap(FractionJammer(p["eps"]), budget)


def _build_mc_band(p, budget):
    from repro.multichannel.adversaries import ChannelBandJammer, MCBudgetCap

    return MCBudgetCap(
        ChannelBandJammer(p["n_channels_jammed"], q=p["q"]), budget
    )


def _build_mc_sweep(p, budget):
    from repro.multichannel.adversaries import ChannelSweepJammer, MCBudgetCap

    return MCBudgetCap(
        ChannelSweepJammer(p["width"], step=p["step"], q=p["q"]), budget
    )


def _build_mc_follower(p, budget):
    from repro.multichannel.adversaries import ChannelFollowerJammer, MCBudgetCap

    return MCBudgetCap(ChannelFollowerJammer(p["q"]), budget)


_MC_FAMILIES: dict[str, tuple[dict, Callable]] = {
    "mc_fraction": ({"eps": FloatGene(0.05, 0.9)}, _build_mc_fraction),
    "mc_band": (
        {"n_channels_jammed": IntGene(1, 8), "q": FloatGene(0.05, 1.0)},
        _build_mc_band,
    ),
    "mc_sweep": (
        {
            "width": IntGene(1, 8),
            "step": IntGene(1, 7),
            "q": FloatGene(0.05, 1.0),
        },
        _build_mc_sweep,
    ),
    "mc_follower": ({"q": FloatGene(0.05, 1.0)}, _build_mc_follower),
}

#: Union namespace used for validation, gene lookup, and build — a
#: genome's family name is globally unique, so corpus records and cache
#: fingerprints need no engine qualifier.
_ALL_FAMILIES: dict[str, tuple[dict, Callable]] = {**_FAMILIES, **_MC_FAMILIES}

_MAX_SPLICE_INTERVALS = 5


class StrategySpace:
    """The searchable genome space.

    Parameters
    ----------
    families:
        Family names to include (default: all of
        :data:`default_space`'s families).
    budget_log2:
        Inclusive ``(lo, hi)`` range of the shared ``budget_log2``
        dimension; every genome carries a budget cap of
        ``2 ** budget_log2``.

    All operators take an explicit
    :class:`numpy.random.Generator` — the space holds no hidden state,
    so a search driving it with a derived generator is deterministic.
    """

    def __init__(
        self,
        families: list[str] | None = None,
        budget_log2: tuple[int, int] = (10, 14),
    ) -> None:
        names = list(_FAMILIES) if families is None else list(families)
        unknown = [n for n in names if n not in _ALL_FAMILIES]
        if unknown:
            raise ConfigurationError(
                f"unknown adversary families: {unknown}; "
                f"known: {', '.join(_ALL_FAMILIES)}"
            )
        lo, hi = budget_log2
        if not 1 <= lo <= hi:
            raise ConfigurationError(
                f"budget_log2 must satisfy 1 <= lo <= hi, got {budget_log2!r}"
            )
        self.families = names
        self.budget_gene = IntGene(lo, hi)

    # -- genome generation -------------------------------------------

    def _genes(self, family: str) -> dict:
        genes, _ = _ALL_FAMILIES[family]
        return genes

    def _sample_intervals(self, rng: np.random.Generator) -> list:
        n = int(rng.integers(1, _MAX_SPLICE_INTERVALS + 1))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * n))
        pairs = []
        for i in range(n):
            start = round(float(cuts[2 * i]), 4)
            end = round(float(cuts[2 * i + 1]), 4)
            if end <= start:
                end = round(min(1.0, start + 0.01), 4)
            if end > start:
                pairs.append([start, end])
        return sorted(pairs) or [[0.0, 0.5]]

    def random_genome(self, rng: np.random.Generator) -> Genome:
        """Sample a uniformly random genome (seeded by ``rng``)."""
        family = self.families[int(rng.integers(0, len(self.families)))]
        params: dict = {}
        for name, gene in self._genes(family).items():
            if name == _INTERVALS:
                params[name] = self._sample_intervals(rng)
            else:
                params[name] = gene.sample(rng)
        params["budget_log2"] = self.budget_gene.sample(rng)
        return Genome(family, params)

    # -- mutation -----------------------------------------------------

    def _mutate_intervals(self, intervals: list, rng: np.random.Generator) -> list:
        pairs = [list(p) for p in intervals]
        op = int(rng.integers(0, 4))
        i = int(rng.integers(0, len(pairs)))
        if op == 0:  # shift one interval
            start, end = pairs[i]
            delta = float(rng.normal(0.0, 0.1))
            start = min(0.99, max(0.0, start + delta))
            end = min(1.0, max(start + 0.005, end + delta))
            pairs[i] = [round(start, 4), round(end, 4)]
        elif op == 1:  # resize one interval
            start, end = pairs[i]
            end = min(1.0, max(start + 0.005, end + float(rng.normal(0.0, 0.1))))
            pairs[i] = [round(start, 4), round(end, 4)]
        elif op == 2 and len(pairs) < _MAX_SPLICE_INTERVALS:  # add a burst
            start = round(float(rng.uniform(0.0, 0.99)), 4)
            end = round(min(1.0, start + float(rng.uniform(0.01, 0.3))), 4)
            if end > start:
                pairs.append([start, end])
        elif len(pairs) > 1:  # drop a burst
            pairs.pop(i)
        cleaned = sorted(
            [s, e] for s, e in pairs if 0.0 <= s < e <= 1.0
        )
        return cleaned or [list(p) for p in intervals]

    def mutate(self, genome: Genome, rng: np.random.Generator) -> Genome:
        """Perturb one parameter (or, rarely, jump family)."""
        if len(self.families) > 1 and rng.random() < 0.1:
            return self.random_genome(rng)
        params = dict(genome.params)
        names = sorted(params)
        name = names[int(rng.integers(0, len(names)))]
        if name == "budget_log2":
            params[name] = self.budget_gene.perturb(params[name], rng)
        elif name == _INTERVALS:
            params[name] = self._mutate_intervals(params[name], rng)
        else:
            params[name] = self._genes(genome.family)[name].perturb(
                params[name], rng
            )
        return Genome(genome.family, params)

    def crossover(
        self, a: Genome, b: Genome, rng: np.random.Generator
    ) -> Genome:
        """Uniform parameter mix of two same-family parents; parents of
        different families contribute the fitter-ranked one's structure
        (the caller passes it first)."""
        if a.family != b.family:
            return Genome(a.family, dict(a.params))
        params = {
            name: (a.params[name] if rng.random() < 0.5 else b.params[name])
            for name in a.params
        }
        return Genome(a.family, params)

    # -- realisation --------------------------------------------------

    def build(self, genome: Genome) -> Adversary:
        """Construct the executable adversary for ``genome``."""
        if genome.family not in _ALL_FAMILIES:
            raise ConfigurationError(
                f"unknown adversary family {genome.family!r}"
            )
        _, builder = _ALL_FAMILIES[genome.family]
        budget = 1 << int(genome.params["budget_log2"])
        return builder(genome.params, budget)


def default_space(quick: bool = True) -> StrategySpace:
    """The space E17 and the CLI search use.

    Quick mode caps budgets at ``2**13`` so a CI-sized search completes
    in seconds; full mode reaches ``2**16``, comparable to E14's full
    budgets.
    """
    return StrategySpace(budget_log2=(9, 13) if quick else (11, 16))


def multichannel_space(quick: bool = True) -> StrategySpace:
    """The genome space for multichannel presets (``cz-c*``).

    Same budget ranges as :func:`default_space`, restricted to the
    ``mc_*`` families — the two zoos' plans are not interchangeable,
    so a search against a multichannel defender must draw
    only :class:`~repro.multichannel.adversaries.MCAdversary` genomes.
    """
    return StrategySpace(
        families=list(_MC_FAMILIES),
        budget_log2=(9, 13) if quick else (11, 16),
    )
