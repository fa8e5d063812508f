"""Figure 2: 1-to-n BROADCAST (Theorem 3).

One sender must deliver an authenticated message ``m`` to all ``n``
nodes; neither ``n`` nor the adversary's budget ``T`` is known.  Epoch
``i`` consists of ``b * i**2`` *repetitions* of ``2**i`` slots.  Every
node ``u`` keeps a sending-rate variable ``S_u`` (reset to its initial
value at each epoch start) and a status in
``{uninformed, informed, helper}``:

* per slot, an informed/helper node sends ``m`` w.p. ``S_u / 2**i``; an
  uninformed node sends *noise* with the same probability (so that the
  channel occupancy reveals ``n`` relative to ``2**i``); every node
  listens w.p. ``S_u * d * i**3 / 2**i``;
* after a repetition, ``u`` counts its clear slots ``C_u``, takes the
  surplus over half its expected listening budget,
  ``C'_u = max(0, C_u - budget/2)``, and grows
  ``S_u <- S_u * 2**(C'_u / (budget * i))`` — hearing *silence* (which
  is free!) is what drives rates up;
* then exactly one of Figure 2's cases applies:

  1. ``S_u > 360 * 2**(i/2)`` — terminate (safety valve; keeps the
     expected cost finite for pathologically unlucky nodes);
  2. uninformed and heard ``m`` — become informed;
  3. informed and heard ``m`` more than ``d * i**3 / 200`` times —
     become a *helper* and estimate ``n_u = 2**i / S_u**2``;
  4. helper with ``S_u >= 360 * sqrt(2**i / n_u)`` — terminate (the
     analysis shows that when rates climb this high, everyone is a
     helper, w.h.p.).

Saturation handling (a deliberate, documented deviation needed at
laptop scale): when ``S_u * d * i**e > 2**i`` a node cannot listen in
more than every slot, so the listening probability is capped at 1 and
the *expected* listening budget ``E = min(S*d*i**e, L)`` replaces the
nominal budget in the baseline and the growth denominator.  With the
paper's constants the cap never binds (the analysis starts at epochs
where ``S*d*i**3 << 2**i``); with scaled-down constants this keeps the
update ``2**(max(0, q - 1/2) / i)`` intact instead of freezing ``S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.events import STATUS_CLEAR, STATUS_DATA, TxKind
from repro.constants import (
    FIG2_CLEAR_BASELINE_FRAC,
    FIG2_HELPER_DIV,
    FIG2_S_INIT,
    FIG2_TERM_GLOBAL,
    FIG2_TERM_HELPER,
)
from repro.engine.phase import (
    BatchPhaseObservation,
    BatchPhaseSpec,
    PhaseObservation,
    PhaseSpec,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.base import NodeStatus, Protocol

__all__ = ["OneToNParams", "OneToNBroadcast"]

# Plain-int copies of the enum values read in per-phase code: on Python
# 3.11 every ``NodeStatus.X`` / ``TxKind.X`` read is an
# ``EnumType.__getattr__`` call.
_UNINFORMED = int(NodeStatus.UNINFORMED)
_INFORMED = int(NodeStatus.INFORMED)
_HELPER = int(NodeStatus.HELPER)
_TERMINATED = int(NodeStatus.TERMINATED)
_TX_DATA = int(TxKind.DATA)
_TX_NOISE = int(TxKind.NOISE)


@dataclass(frozen=True)
class OneToNParams:
    """Tuning constants of Figure 2.

    The ``paper()`` preset uses the published values (``b >= 10``,
    ``d > 79.2``, cubic listening polynomial); they exist to close
    union bounds, not to shape the dynamics, and make single epochs
    cost millions of slots.  The ``sim()`` preset keeps every *relation*
    between thresholds (all scale with the same ``d * i**e`` budget)
    while shrinking the absolute sizes so that full executions complete
    in milliseconds-to-seconds; DESIGN.md §3 records the substitution.

    One calibration matters for the quality of the ``n_u`` estimate:
    Case 3 promotion fires when ``p_m * S_u`` crosses ``helper_frac``,
    and in the noise-floor regime (``2**i`` comparable to
    ``n * s_init``) the per-slot message probability ``p_m`` can peak
    at ``1/e`` while ``S_u`` is still stuck at ``s_init``.  Choosing
    ``helper_frac > s_init / e`` makes that regime unable to cross the
    threshold, so promotion happens where
    ``p_m ~ n * S**2 / 2**i`` and hence
    ``n_u = 2**i / S**2 ~ n / helper_frac`` — a faithful estimate.
    (The paper's constants do not enforce this inequality; its Lemma 10
    only bounds the estimate on one side, which is why Case 1 exists.)

    Attributes
    ----------
    b:
        Repetition multiplier: epoch ``i`` has ``ceil(b * i**2)``
        repetitions.
    d:
        Listening budget multiplier.
    listen_exp:
        The exponent ``e`` in the listening budget ``S * d * i**e``
        (3 in the paper).
    first_epoch:
        First epoch index (the paper's "sufficiently large constant").
    s_init:
        Epoch-start value of every ``S_u`` (16 in the paper).
    helper_frac:
        Case 3 threshold is ``helper_frac * d * i**e`` heard messages
        (1/200 in the paper).
    clear_baseline_frac:
        The 1/2 in ``C'_u = max(0, C_u - frac * budget)``.
    c_term_global / c_term_helper:
        The two 360s (Cases 1 and 4).
    max_epoch:
        Safety cap; runs that pass it are aborted and flagged.
    aggressive_growth:
        Ablation A1: drop the extra ``1/i`` damping from the rate
        update (``S <- S * 2**(C'/budget)`` instead of
        ``2**(C'/(budget*i))``).  Section 3.1 explains why the paper
        grows slowly: fast growth overshoots the ideal rate and lets
        ``S_u/S_v`` diverge (Lemma 5 breaks).
    uninformed_noise:
        Ablation A3: when False, uninformed nodes stay silent instead
        of sending noise, removing the occupancy signal nodes use to
        gauge ``n`` — rates then grow while the network is still large,
        and ``n_u`` estimates degrade.
    """

    b: float = 2.0
    d: float = 1.0
    listen_exp: int = 1
    first_epoch: int = 3
    s_init: float = 2.0
    helper_frac: float = 1.5
    clear_baseline_frac: float = FIG2_CLEAR_BASELINE_FRAC
    c_term_global: float = 12.0
    c_term_helper: float = 2.5
    max_epoch: int = 26
    aggressive_growth: bool = False
    uninformed_noise: bool = True

    def __post_init__(self) -> None:
        if self.b <= 0 or self.d <= 0:
            raise ConfigurationError("b and d must be positive")
        if self.listen_exp < 0:
            raise ConfigurationError("listen_exp must be >= 0")
        if self.first_epoch < 1:
            raise ConfigurationError("first_epoch must be >= 1")
        if self.s_init <= 0:
            raise ConfigurationError("s_init must be positive")
        if not 0.0 < self.helper_frac:
            raise ConfigurationError("helper_frac must be positive")
        if not 0.0 <= self.clear_baseline_frac < 1.0:
            raise ConfigurationError("clear_baseline_frac must be in [0, 1)")
        if self.c_term_global <= 0 or self.c_term_helper <= 0:
            raise ConfigurationError("termination constants must be positive")
        if self.max_epoch < self.first_epoch:
            raise ConfigurationError("max_epoch must be >= first_epoch")

    @classmethod
    def paper(cls, max_epoch: int = 30) -> "OneToNParams":
        """Faithful Figure 2 constants — expensive; for spot checks."""
        return cls(
            b=10.0,
            d=80.0,
            listen_exp=3,
            first_epoch=11,
            s_init=FIG2_S_INIT,
            helper_frac=1.0 / FIG2_HELPER_DIV,
            c_term_global=FIG2_TERM_GLOBAL,
            c_term_helper=FIG2_TERM_HELPER,
            max_epoch=max_epoch,
        )

    @classmethod
    def sim(cls, **overrides) -> "OneToNParams":
        """Laptop-scale preset (the class defaults)."""
        return cls(**overrides)

    # -- derived per-epoch quantities -------------------------------------

    def phase_length(self, epoch: int) -> int:
        return 1 << epoch

    def n_repetitions(self, epoch: int) -> int:
        return int(math.ceil(self.b * epoch * epoch))

    def listen_budget(self, epoch: int, s: np.ndarray) -> np.ndarray:
        """Nominal listening budget ``S * d * i**e`` (before the cap)."""
        return s * self.d * float(epoch) ** self.listen_exp

    def helper_threshold(self, epoch: int) -> float:
        """Case 3: heard-``m`` count needed to become a helper."""
        return self.helper_frac * self.d * float(epoch) ** self.listen_exp

    def term_global_threshold(self, epoch: int) -> float:
        """Case 1: terminate when ``S`` exceeds this."""
        return self.c_term_global * 2.0 ** (epoch / 2.0)


class OneToNBroadcast(Protocol):
    """Figure 2's 1-to-n BROADCAST as a phase-driven protocol.

    Parameters
    ----------
    n_nodes:
        System size ``n`` (the *nodes* never read it; it only sizes the
        state arrays).
    params:
        Tuning constants; defaults to :meth:`OneToNParams.sim`.
    sender:
        Index of the initially informed node.
    """

    def __init__(
        self,
        n_nodes: int,
        params: OneToNParams | None = None,
        sender: int = 0,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if not 0 <= sender < n_nodes:
            raise ConfigurationError(f"sender {sender} out of range")
        self.n_nodes = n_nodes
        self.params = params or OneToNParams.sim()
        self.sender = sender
        self.reset(np.random.default_rng(0))

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng
        n = self.n_nodes
        self.epoch = self.params.first_epoch
        self.repetition = 0
        self.S = np.full(n, self.params.s_init, dtype=np.float64)
        self.status = np.full(n, _UNINFORMED, dtype=np.int64)
        self.status[self.sender] = _INFORMED
        self.ever_informed = np.zeros(n, dtype=bool)
        self.ever_informed[self.sender] = True
        self.n_est = np.full(n, np.nan)
        self.terminated_epoch = np.full(n, -1, dtype=np.int64)
        self.max_s_ratio = 1.0
        # Lemma 6 instrumentation: repetitions after which a helper and
        # an uninformed node coexisted (the analysis says w.h.p. never).
        self.helper_uninformed_overlaps = 0
        self.aborted = False
        self._awaiting = False
        self._emitted_listen_probs: np.ndarray | None = None

    # -- Protocol interface ------------------------------------------------

    @property
    def done(self) -> bool:
        return bool((self.status == _TERMINATED).all())

    @property
    def active(self) -> np.ndarray:
        return self.status != _TERMINATED

    def next_phase(self) -> PhaseSpec | None:
        if self._awaiting:
            raise ProtocolError("next_phase called before observe")
        if self.done:
            return None
        if self.epoch > self.params.max_epoch:
            self.aborted = True
            self.terminated_epoch[self.active] = self.epoch
            self.status[:] = _TERMINATED
            return None

        p = self.params
        i = self.epoch
        L = p.phase_length(i)
        active = self.active

        send_probs = np.where(active, np.minimum(1.0, self.S / L), 0.0)
        has_message = (self.status == _INFORMED) | (
            self.status == _HELPER
        )
        send_kinds = np.where(has_message, _TX_DATA, _TX_NOISE).astype(np.int8)
        if not p.uninformed_noise:
            # Ablation A3: silent uninformed nodes.
            send_probs = np.where(has_message, send_probs, 0.0)
        listen_probs = np.where(
            active, np.minimum(1.0, p.listen_budget(i, self.S) / L), 0.0
        )

        self._awaiting = True
        self._emitted_listen_probs = listen_probs
        return PhaseSpec(
            length=L,
            send_probs=send_probs,
            send_kinds=send_kinds,
            listen_probs=listen_probs,
            tags={
                "protocol": "fig2",
                "kind": "repetition",
                "epoch": i,
                "repetition": self.repetition,
                "n_repetitions": p.n_repetitions(i),
                "hear_threshold": p.helper_threshold(i),
            },
        )

    def observe(self, obs: PhaseObservation) -> None:
        if not self._awaiting:
            raise ProtocolError("observe called with no phase outstanding")
        self._awaiting = False

        p = self.params
        i = self.epoch
        L = p.phase_length(i)
        active = self.active

        # Rate update: grow on the clear-slot surplus over half the
        # expected listening budget.
        expected_listens = self._emitted_listen_probs * L
        clear = obs.heard_clear.astype(np.float64)
        surplus = np.maximum(0.0, clear - p.clear_baseline_frac * expected_listens)
        damping = 1.0 if p.aggressive_growth else float(i)
        with np.errstate(divide="ignore", invalid="ignore"):
            exponent = np.where(
                expected_listens > 0.0, surplus / (expected_listens * damping), 0.0
            )
        self.S = np.where(active, self.S * np.exp2(exponent), self.S)

        # Lemma 5 instrumentation: track the worst S_u/S_v divergence
        # among live nodes (ablation A1 shows it blow up).
        live = self.S[active]
        if live.size > 1:
            ratio = float(live.max() / live.min())
            self.max_s_ratio = max(self.max_s_ratio, ratio)

        heard_m = obs.heard_data

        # Figure 2's cases — at most one per node, in order.
        case1 = active & (self.S > p.term_global_threshold(i))
        case2 = (
            ~case1 & (self.status == _UNINFORMED) & (heard_m >= 1)
        )
        case3 = (
            ~case1
            & (self.status == _INFORMED)
            & (heard_m > p.helper_threshold(i))
        )
        with np.errstate(invalid="ignore"):
            helper_done = self.S >= p.c_term_helper * np.sqrt(L / self.n_est)
        case4 = (
            ~case1 & ~case3 & (self.status == _HELPER) & helper_done
        )

        self._apply_cases(case1, case2, case3, case4, L)

        if (
            (self.status == _HELPER).any()
            and (self.status == _UNINFORMED).any()
        ):
            self.helper_uninformed_overlaps += 1

        # Advance repetition / epoch counters.
        self.repetition += 1
        if self.repetition >= p.n_repetitions(i):
            self.repetition = 0
            self.epoch += 1
            self.S[self.active] = p.s_init

    def _apply_cases(
        self,
        case1: np.ndarray,
        case2: np.ndarray,
        case3: np.ndarray,
        case4: np.ndarray,
        L: int,
    ) -> None:
        """Apply Figure 2's at-most-one-case-per-node transitions.

        Split out so that the naive-halting strawman can override the
        helper machinery while reusing everything else.
        """
        self.status[case1] = _TERMINATED
        self.terminated_epoch[case1] = self.epoch

        self.status[case2] = _INFORMED
        self.ever_informed |= case2

        self.status[case3] = _HELPER
        self.n_est[case3] = L / self.S[case3] ** 2

        self.status[case4] = _TERMINATED
        self.terminated_epoch[case4] = self.epoch

    def summary(self) -> dict:
        informed = int(self.ever_informed.sum())
        return {
            "success": bool(self.ever_informed.all()),
            "n_informed": informed,
            "final_epoch": self.epoch,
            "aborted": self.aborted,
            "n_helpers": int((~np.isnan(self.n_est)).sum()),
            "n_estimates": self.n_est.copy(),
            "terminated_epoch": self.terminated_epoch.copy(),
            "max_s_ratio": self.max_s_ratio,
            "helper_uninformed_overlaps": self.helper_uninformed_overlaps,
        }

    # -- lockstep batch implementation ------------------------------------
    #
    # Per-node state gains a leading trial axis: ``S_b`` is ``(B, n)``,
    # epoch/repetition counters are ``(B,)``.  Scalar per-epoch factors
    # come from lookup tables computed with the serial params methods so
    # every float matches serial bit-for-bit; per-node float updates use
    # the same elementwise expressions (and association order) as serial.

    def reset_batch(self, rng_streams: list[np.random.Generator]) -> None:
        b = len(rng_streams)
        n = self.n_nodes
        self._rngs = list(rng_streams)
        p = self.params
        epochs = range(p.first_epoch, p.max_epoch + 1)
        self._tab_len = np.array([p.phase_length(e) for e in epochs], dtype=np.int64)
        self._tab_lenf = self._tab_len.astype(np.float64)
        self._tab_reps = np.array([p.n_repetitions(e) for e in epochs], dtype=np.int64)
        # listen_budget(e, s) evaluates (s * d) * float(e)**exp — keep the
        # epoch factor separate to preserve the association order.
        self._tab_epow = np.array([float(e) ** p.listen_exp for e in epochs])
        self._tab_helper = np.array([p.helper_threshold(e) for e in epochs])
        self._tab_term = np.array([p.term_global_threshold(e) for e in epochs])

        self.epoch_b = np.full(b, p.first_epoch, dtype=np.int64)
        self.repetition_b = np.zeros(b, dtype=np.int64)
        self.S_b = np.full((b, n), p.s_init, dtype=np.float64)
        self.status_b = np.full((b, n), _UNINFORMED, dtype=np.int64)
        self.status_b[:, self.sender] = _INFORMED
        self.ever_informed_b = np.zeros((b, n), dtype=bool)
        self.ever_informed_b[:, self.sender] = True
        self.n_est_b = np.full((b, n), np.nan)
        self.terminated_epoch_b = np.full((b, n), -1, dtype=np.int64)
        self.max_s_ratio_b = np.ones(b, dtype=np.float64)
        self.overlaps_b = np.zeros(b, dtype=np.int64)
        self.aborted_b = np.zeros(b, dtype=bool)
        self._awaiting_b = np.zeros(b, dtype=bool)
        self._emitted_listen_probs_b: np.ndarray | None = None

    def _epoch_index(self) -> np.ndarray:
        return np.minimum(self.epoch_b, self.params.max_epoch) - self.params.first_epoch

    def done_batch(self) -> np.ndarray:
        return (self.status_b == _TERMINATED).all(axis=1)

    def next_phase_batch(self, mask: np.ndarray) -> BatchPhaseSpec | None:
        if (self._awaiting_b & mask).any():
            raise ProtocolError("next_phase called before observe")
        run = mask & ~self.done_batch()
        over = run & (self.epoch_b > self.params.max_epoch)
        if over.any():
            self.aborted_b |= over
            sel = over[:, None] & (self.status_b != _TERMINATED)
            self.terminated_epoch_b[sel] = np.broadcast_to(
                self.epoch_b[:, None], sel.shape
            )[sel]
            self.status_b[over] = _TERMINATED
            run &= ~over
        if not run.any():
            return None

        p = self.params
        b = len(run)
        ei = self._epoch_index()
        lengths = np.where(run, self._tab_len[ei], 1)
        Lf = self._tab_lenf[ei][:, None]
        active = self.status_b != _TERMINATED

        send_probs = np.where(active, np.minimum(1.0, self.S_b / Lf), 0.0)
        has_message = (self.status_b == _INFORMED) | (
            self.status_b == _HELPER
        )
        send_kinds = np.where(has_message, _TX_DATA, _TX_NOISE).astype(np.int8)
        if not p.uninformed_noise:
            send_probs = np.where(has_message, send_probs, 0.0)
        budget = (self.S_b * p.d) * self._tab_epow[ei][:, None]
        listen_probs = np.where(active, np.minimum(1.0, budget / Lf), 0.0)
        dead = ~run
        if dead.any():
            send_probs[dead] = 0.0
            listen_probs[dead] = 0.0

        tags = self._batch_tags(run, ei)
        self._awaiting_b = run.copy()
        self._emitted_listen_probs_b = listen_probs
        return BatchPhaseSpec(
            lengths=lengths,
            send_probs=send_probs,
            send_kinds=send_kinds,
            listen_probs=listen_probs,
            active=run,
            groups=None,
            tags=tags,
        )

    def _batch_tags(self, run: np.ndarray, ei: np.ndarray) -> list:
        tags: list = [None] * len(run)
        for t in np.flatnonzero(run):
            e = ei[t]
            tags[t] = {
                "protocol": "fig2",
                "kind": "repetition",
                "epoch": int(self.epoch_b[t]),
                "repetition": int(self.repetition_b[t]),
                "n_repetitions": int(self._tab_reps[e]),
                "hear_threshold": float(self._tab_helper[e]),
            }
        return tags

    def observe_batch(self, obs: BatchPhaseObservation) -> None:
        act = obs.active
        if (act & ~self._awaiting_b).any():
            raise ProtocolError("observe called with no phase outstanding")
        self._awaiting_b &= ~act

        p = self.params
        ei = self._epoch_index()
        Lf = self._tab_lenf[ei][:, None]
        active = self.status_b != _TERMINATED
        acted = act[:, None] & active

        expected_listens = self._emitted_listen_probs_b * Lf
        clear = obs.heard[:, :, STATUS_CLEAR].astype(np.float64)
        surplus = np.maximum(0.0, clear - p.clear_baseline_frac * expected_listens)
        if p.aggressive_growth:
            denom = expected_listens
        else:
            denom = expected_listens * self.epoch_b.astype(np.float64)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            exponent = np.where(expected_listens > 0.0, surplus / denom, 0.0)
        self.S_b = np.where(acted, self.S_b * np.exp2(exponent), self.S_b)

        live_counts = active.sum(axis=1)
        smax = np.where(active, self.S_b, -np.inf).max(axis=1)
        smin = np.where(active, self.S_b, np.inf).min(axis=1)
        multi = act & (live_counts > 1)
        if multi.any():
            ratio = np.where(multi, smax / np.where(multi, smin, 1.0), 1.0)
            self.max_s_ratio_b = np.where(
                multi, np.maximum(self.max_s_ratio_b, ratio), self.max_s_ratio_b
            )

        heard_m = obs.heard[:, :, STATUS_DATA]
        case1 = acted & (self.S_b > self._tab_term[ei][:, None])
        case2 = ~case1 & acted & (self.status_b == _UNINFORMED) & (heard_m >= 1)
        case3 = (
            ~case1
            & acted
            & (self.status_b == _INFORMED)
            & (heard_m > self._tab_helper[ei][:, None])
        )
        with np.errstate(invalid="ignore"):
            helper_done = self.S_b >= p.c_term_helper * np.sqrt(Lf / self.n_est_b)
        case4 = (
            ~case1 & ~case3 & acted & (self.status_b == _HELPER) & helper_done
        )

        self._apply_cases_batch(case1, case2, case3, case4, Lf, acted)

        overlap = (
            act
            & (self.status_b == _HELPER).any(axis=1)
            & (self.status_b == _UNINFORMED).any(axis=1)
        )
        self.overlaps_b += overlap

        self.repetition_b[act] += 1
        roll = act & (self.repetition_b >= self._tab_reps[ei])
        if roll.any():
            self.repetition_b[roll] = 0
            self.epoch_b[roll] += 1
            sel = roll[:, None] & (self.status_b != _TERMINATED)
            self.S_b[sel] = p.s_init

    def _apply_cases_batch(
        self,
        case1: np.ndarray,
        case2: np.ndarray,
        case3: np.ndarray,
        case4: np.ndarray,
        Lf: np.ndarray,
        acted: np.ndarray,
    ) -> None:
        """Batched :meth:`_apply_cases`; masks are ``(B, n)``, gated on
        ``acted`` (rows outside this step's phase stay frozen)."""
        epoch_grid = np.broadcast_to(self.epoch_b[:, None], self.status_b.shape)
        self.status_b[case1] = _TERMINATED
        self.terminated_epoch_b[case1] = epoch_grid[case1]

        self.status_b[case2] = _INFORMED
        self.ever_informed_b |= case2

        self.status_b[case3] = _HELPER
        if case3.any():
            self.n_est_b[case3] = (Lf / self.S_b**2)[case3]

        self.status_b[case4] = _TERMINATED
        self.terminated_epoch_b[case4] = epoch_grid[case4]

    def summary_batch(self) -> list[dict]:
        return [
            {
                "success": bool(self.ever_informed_b[t].all()),
                "n_informed": int(self.ever_informed_b[t].sum()),
                "final_epoch": int(self.epoch_b[t]),
                "aborted": bool(self.aborted_b[t]),
                "n_helpers": int((~np.isnan(self.n_est_b[t])).sum()),
                "n_estimates": self.n_est_b[t].copy(),
                "terminated_epoch": self.terminated_epoch_b[t].copy(),
                "max_s_ratio": float(self.max_s_ratio_b[t]),
                "helper_uninformed_overlaps": int(self.overlaps_b[t]),
            }
            for t in range(len(self.epoch_b))
        ]
