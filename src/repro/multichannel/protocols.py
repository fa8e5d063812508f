"""Chen–Zheng-style multichannel broadcast (arXiv 1904.06328, 2001.03936).

The multichannel broadcast literature beats the single-channel energy
game not by hopping *better* — experiment E15 shows forced uniform
hopping is energy-neutral for a 1-to-1 protocol, the ``sqrt(C)`` rate
boost exactly cancelling the adversary's ``C``-fold blocking bill — but
by *multiplicity*: once several informed nodes spread across the band,
channel coverage removes the ``1/C`` meeting dilution while the
(1−ε)-fraction adversary still pays ``(1-eps) * C`` per blocked slot.
At a fixed budget ``T`` her battery dies after ``T / ((1-eps) C)``
slots — ``C``-fold sooner — so for large ``C`` the protocol finishes at
near-unjammed cost where the C=1 run pays the full jammed bill.

:class:`CZBroadcast` distils that mechanism onto the repo's
phase-driven :class:`~repro.protocols.base.Protocol` API:

* **epoch structure** — epoch ``i`` is one phase of ``2**i`` slots,
  exactly the paper's doubling schedule, so the same Lemma-1-style
  suffix attacks and epoch-tag adversaries apply unchanged;
* **sender/listener roles** — informed nodes send the message with the
  epoch rate (capped at ``C / n`` so the *expected* number of senders
  per channel stays ~1 once everyone is informed — the Chen–Zheng
  "one broadcaster per channel" discipline), uninformed nodes listen
  with the uncapped epoch rate;
* **channel hopping** — supplied by the engine's uniform per-slot hop
  (:class:`~repro.engine.simulator.Simulator` with ``n_channels=C``);
  the protocol itself is
  channel-oblivious and at ``C = 1`` degenerates to a single-channel
  1-to-n epidemic broadcast (the Theorem 3 setting).

The epoch rate ``r_i = min(cap, sqrt(lambda / 2**(i-1)))`` with
``lambda = ln(eps_denom / epsilon)`` is Figure 1/2's birthday-paradox
schedule: per epoch each informed–uninformed pair meets on a clean cell
``~lambda`` times in expectation once the active rate saturates, and
total per-node energy across epochs forms the usual geometric series.

One modeling simplification, stated loudly: the run stops when every
node is informed (an oracle stop).  Per-node halting rules — Figure 2's
noisy-slot estimators, Chen–Zheng's termination subroutines — are about
*detecting* completion, an orthogonal concern already exercised by the
single-channel zoo; here the measured quantities are the cost and
latency to completion, which the stopping rule does not affect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.events import SlotStatus, TxKind
from repro.engine.phase import (
    BatchPhaseObservation,
    BatchPhaseSpec,
    PhaseObservation,
    PhaseSpec,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.base import Protocol

__all__ = ["CZParams", "CZBroadcast", "cz_pair_protocol"]


@dataclass(frozen=True)
class CZParams:
    """Parameters for :class:`CZBroadcast`.

    Attributes
    ----------
    n_nodes:
        Population size ``n >= 2``; node 0 is the source.
    n_channels:
        Band width ``C`` the protocol is tuned for (the engine must be
        constructed with the same ``n_channels``).  Only
        the ``C / n`` send cap depends on it; ``C = 1`` is the
        single-channel degeneration.
    epsilon:
        Target failure probability.
    eps_denom:
        Denominator in ``lambda = ln(eps_denom / epsilon)`` (Figure 1
        uses 8).
    first_epoch / max_epoch:
        Epoch range; the run aborts (failure) past ``max_epoch``.
    send_cap:
        Hard ceiling on any per-slot probability.
    """

    n_nodes: int = 16
    n_channels: int = 1
    epsilon: float = 0.1
    eps_denom: float = 8.0
    first_epoch: int = 4
    max_epoch: int = 24
    send_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.n_channels < 1:
            raise ConfigurationError(
                f"n_channels must be >= 1, got {self.n_channels}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.eps_denom <= self.epsilon:
            raise ConfigurationError("eps_denom must exceed epsilon")
        if self.first_epoch < 1 or self.max_epoch < self.first_epoch:
            raise ConfigurationError(
                f"need 1 <= first_epoch <= max_epoch, got "
                f"{self.first_epoch}, {self.max_epoch}"
            )
        if not 0.0 < self.send_cap <= 1.0:
            raise ConfigurationError(f"send_cap must be in (0, 1], got {self.send_cap!r}")

    @property
    def lam(self) -> float:
        """``lambda = ln(eps_denom / epsilon)`` — meetings needed per epoch."""
        return math.log(self.eps_denom / self.epsilon)

    def rate(self, epoch: int) -> float:
        """The epoch's birthday-paradox action rate ``r_i``."""
        return min(self.send_cap, math.sqrt(self.lam / 2.0 ** (epoch - 1)))

    def send_probability(self, epoch: int) -> float:
        """Informed-node per-slot send probability (``C/n``-capped)."""
        return min(self.rate(epoch), self.n_channels / self.n_nodes)

    def listen_probability(self, epoch: int) -> float:
        """Uninformed-node per-slot listen probability."""
        return self.rate(epoch)

    def phase_length(self, epoch: int) -> int:
        return 1 << epoch

    @classmethod
    def sim(
        cls,
        n_nodes: int = 16,
        n_channels: int = 1,
        epsilon: float = 0.1,
        eps_denom: float = 8.0,
    ) -> "CZParams":
        """Simulation-friendly instance: the first epoch is the smallest
        at which the uncapped rate drops below ~1/2, so the schedule
        starts where the analysis is valid instead of idling through
        saturated epochs."""
        lam = math.log(eps_denom / epsilon)
        first = 1 + math.ceil(math.log2(max(2.0, 4.0 * lam)))
        return cls(
            n_nodes=n_nodes,
            n_channels=n_channels,
            epsilon=epsilon,
            eps_denom=eps_denom,
            first_epoch=first,
            max_epoch=first + 20,
        )


class CZBroadcast(Protocol):
    """Epoch-structured 1-to-n epidemic broadcast for ``C`` channels.

    Each epoch is one phase; informed nodes are senders, uninformed
    nodes listeners (roles per :class:`CZParams`).  A node that decodes
    the message in any listening slot becomes informed and switches
    roles from the next epoch.  The protocol consumes no randomness of
    its own — all sampling happens engine-side from the emitted
    probabilities — so the default lockstep batch driver reproduces
    serial runs bit-for-bit by construction.
    """

    def __init__(self, params: CZParams | None = None) -> None:
        self.params = params if params is not None else CZParams()
        self.n_nodes = self.params.n_nodes
        self._informed: np.ndarray | None = None
        self._epoch = self.params.first_epoch
        self._final_epoch = self.params.first_epoch
        self._done = False
        self._aborted = False

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng  # unused: the protocol is deterministic given observations
        self._informed = np.zeros(self.n_nodes, dtype=bool)
        self._informed[0] = True  # the source
        self._epoch = self.params.first_epoch
        self._final_epoch = self.params.first_epoch
        self._done = False
        self._aborted = False

    def next_phase(self) -> PhaseSpec | None:
        if self._done:
            return None
        if self._epoch > self.params.max_epoch:
            self._aborted = True
            self._done = True
            return None
        p = self.params
        s = p.send_probability(self._epoch)
        q = p.listen_probability(self._epoch)
        send_probs = np.where(self._informed, s, 0.0)
        listen_probs = np.where(self._informed, 0.0, q)
        self._final_epoch = self._epoch
        return PhaseSpec(
            length=p.phase_length(self._epoch),
            send_probs=send_probs,
            send_kinds=np.full(self.n_nodes, TxKind.DATA, dtype=np.int8),
            listen_probs=listen_probs,
            tags={
                "protocol": "cz",
                "kind": "spread",
                "epoch": self._epoch,
                "p": s,
                "q": q,
            },
        )

    def observe(self, obs: PhaseObservation) -> None:
        heard_data = obs.heard[:, SlotStatus.DATA] > 0
        self._informed |= heard_data
        self._epoch += 1
        if self._informed.all():
            self._done = True

    @property
    def done(self) -> bool:
        return self._done

    def summary(self) -> dict:
        informed = 0 if self._informed is None else int(self._informed.sum())
        return {
            "success": self._informed is not None and bool(self._informed.all()),
            "n_informed": informed,
            "final_epoch": self._final_epoch,
            "aborted": self._aborted,
        }

    # -- lockstep batch implementation ------------------------------------
    #
    # Per-trial state stacked on a leading trial axis.  The protocol
    # draws no randomness, so bit-identity to serial reduces to the
    # per-epoch rate arithmetic — which goes through the very same
    # scalar CZParams methods, cached per distinct epoch (lockstep
    # trials share epochs until the first finishes, so the cache has
    # one entry on almost every step).

    def reset_batch(self, rng_streams: list[np.random.Generator]) -> None:
        b = len(rng_streams)
        p = self.params
        self._informed_b = np.zeros((b, self.n_nodes), dtype=bool)
        self._informed_b[:, 0] = True  # the source
        self._epoch_b = np.full(b, p.first_epoch, dtype=np.int64)
        self._final_epoch_b = np.full(b, p.first_epoch, dtype=np.int64)
        self._done_b = np.zeros(b, dtype=bool)
        self._aborted_b = np.zeros(b, dtype=bool)
        self._awaiting_b = np.zeros(b, dtype=bool)

    def done_batch(self) -> np.ndarray:
        return self._done_b.copy()

    def next_phase_batch(self, mask: np.ndarray) -> BatchPhaseSpec | None:
        if (self._awaiting_b & mask).any():
            raise ProtocolError("next_phase called before observe")
        p = self.params
        emit = np.asarray(mask, dtype=bool) & ~self._done_b
        over = emit & (self._epoch_b > p.max_epoch)
        if over.any():
            self._aborted_b |= over
            self._done_b |= over
            emit = emit & ~over
        if not emit.any():
            return None

        b = len(emit)
        rows = np.flatnonzero(emit)
        rates: dict[int, tuple[float, float]] = {}
        s_rows = np.empty(len(rows), dtype=np.float64)
        q_rows = np.empty(len(rows), dtype=np.float64)
        tags: list = [None] * b
        for i, t in enumerate(rows):
            epoch = int(self._epoch_b[t])
            sq = rates.get(epoch)
            if sq is None:
                sq = rates[epoch] = (
                    p.send_probability(epoch),
                    p.listen_probability(epoch),
                )
            s_rows[i], q_rows[i] = sq
            tags[t] = {
                "protocol": "cz",
                "kind": "spread",
                "epoch": epoch,
                "p": sq[0],
                "q": sq[1],
            }
        lengths = np.ones(b, dtype=np.int64)
        lengths[emit] = np.int64(1) << self._epoch_b[emit]
        send_probs = np.zeros((b, self.n_nodes), dtype=np.float64)
        listen_probs = np.zeros((b, self.n_nodes), dtype=np.float64)
        send_probs[rows] = np.where(
            self._informed_b[rows], s_rows[:, None], 0.0
        )
        listen_probs[rows] = np.where(
            self._informed_b[rows], 0.0, q_rows[:, None]
        )
        self._final_epoch_b[emit] = self._epoch_b[emit]
        self._awaiting_b = emit.copy()
        return BatchPhaseSpec(
            lengths=lengths,
            send_probs=send_probs,
            send_kinds=np.full((b, self.n_nodes), TxKind.DATA, dtype=np.int8),
            listen_probs=listen_probs,
            active=emit,
            tags=tags,
        )

    def observe_batch(self, obs: BatchPhaseObservation) -> None:
        act = obs.active
        if (act & ~self._awaiting_b).any():
            raise ProtocolError("observe called with no phase outstanding")
        self._awaiting_b &= ~act
        heard_data = obs.heard[:, :, SlotStatus.DATA] > 0
        self._informed_b[act] |= heard_data[act]
        self._epoch_b[act] += 1
        self._done_b[act] = self._informed_b[act].all(axis=1)

    def summary_batch(self) -> list[dict]:
        return [
            {
                "success": bool(self._informed_b[t].all()),
                "n_informed": int(self._informed_b[t].sum()),
                "final_epoch": int(self._final_epoch_b[t]),
                "aborted": bool(self._aborted_b[t]),
            }
            for t in range(len(self._done_b))
        ]


def cz_pair_protocol(n_channels: int, params=None):
    """The hop-corrected 1-to-1 baseline as a protocol factory.

    Figure 1 with :func:`~repro.multichannel.engine.hopping_rate_params`
    applied — at ``C = 1`` literally the paper's protocol.  This is the
    *no-speedup* member of the multichannel zoo (E15's net-neutrality),
    kept alongside :class:`CZBroadcast` so arena searches can contrast
    the pair game against the epidemic game on the same band.
    """
    from repro.multichannel.engine import hopping_rate_params
    from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

    base = params if params is not None else OneToOneParams.sim()
    return OneToOneBroadcast(hopping_rate_params(base, n_channels))
