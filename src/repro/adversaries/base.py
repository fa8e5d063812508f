"""Adversary interface.

The contract mirrors the paper's adaptivity model (Section 1.2):

* the adversary knows the protocol (it can read the phase tags — epoch
  index, phase kind — that the protocol itself derives from public
  parameters);
* she observes all node actions of previous slots.  Because protocols
  are phase-oblivious, Lemma 1 lets her equivalently observe the whole
  phase's sampled action sets and commit to jamming a suffix; the
  context therefore carries the sampled events;
* she cannot see random bits of the *current* slot before acting — an
  implementation honouring the model must derive its plan only from the
  context, never by peeking at engine internals beyond it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.channel.events import JamPlan, ListenEvents, PhaseOutcome, SendEvents

__all__ = ["Adversary", "AdversaryContext"]


@dataclass(frozen=True)
class AdversaryContext:
    """Everything the adversary may condition a phase plan on.

    Attributes
    ----------
    phase_index:
        0-based index of the phase within the run.
    length:
        Phase length in slots.
    n_nodes / n_groups:
        System dimensions (the adversary knows who it is attacking).
    tags:
        The protocol's public metadata for this phase (epoch, kind, ...).
    sends / listens:
        The nodes' sampled actions for this phase (Lemma 1 power).
    send_probs / listen_probs:
        The per-slot action *probabilities* the protocol committed to —
        the Theorem 2 reactive adversary keys off the product
        ``a_i * b_i`` of exactly these.
    spent:
        The adversary's own cumulative cost before this phase.
    n_channels:
        Number of frequency channels ``C``.  At ``C > 1`` the events
        sit on the ``C * length`` virtual slots (channel ``c``, real
        slot ``t`` → virtual slot ``c * length + t``) and the plan must
        cover all of them; ``length`` stays the real phase length.
    """

    phase_index: int
    length: int
    n_nodes: int
    n_groups: int
    tags: dict
    sends: SendEvents
    listens: ListenEvents
    send_probs: np.ndarray
    listen_probs: np.ndarray
    spent: int = 0
    extra: dict = field(default_factory=dict)
    n_channels: int = 1


class Adversary(ABC):
    """Base class for jamming strategies.

    Subclasses implement :meth:`plan_phase`; :meth:`begin_run` and
    :meth:`observe_outcome` are optional hooks for stateful strategies.
    """

    def begin_run(
        self, n_nodes: int, n_groups: int, rng: np.random.Generator
    ) -> None:
        """Called once before the first phase.

        ``rng`` is the adversary's private random stream, independent of
        the nodes' streams.
        """
        self._rng = rng
        self._n_nodes = n_nodes
        self._n_groups = n_groups

    @abstractmethod
    def plan_phase(self, ctx: AdversaryContext) -> JamPlan:
        """Produce the jam/spoof plan for one phase."""

    @classmethod
    def plan_phase_batch(
        cls, advs: "list[Adversary]", ctxs: "list[AdversaryContext]"
    ) -> "list[JamPlan]":
        """Plans for B parallel trials — ``advs[t]`` answers ``ctxs[t]``.

        The batched engine keeps one adversary *instance per trial*
        (strategies are stateful); this classmethod is the batch-shaped
        entry point so stateless interval strategies can emit all B
        plans with shared work.  The default simply loops
        :meth:`plan_phase` per trial, which is always semantically
        correct — overriding is purely a performance optimisation and
        must stay bit-identical to the loop.
        """
        return [a.plan_phase(c) for a, c in zip(advs, ctxs)]

    def observe_outcome(self, ctx: AdversaryContext, outcome: PhaseOutcome) -> None:
        """Optional hook: see the resolved phase (the adversary is
        omniscient about the past)."""

    @property
    def rng(self) -> np.random.Generator:
        rng = getattr(self, "_rng", None)
        if rng is None:
            # Strategies used standalone in tests without begin_run.
            rng = np.random.default_rng(0)
            self._rng = rng
        return rng
