"""The run loop: protocol × adversary → costs, latency, outcome.

One :func:`run` call plays a complete execution of a protocol against an
adversary on the slotted channel, with full energy accounting.  The loop
is phase-granular; all slot-level work happens vectorised inside
:func:`repro.channel.model.resolve_phase`.

The engine has a channel axis, ``n_channels = C`` (the Chen–Zheng
multichannel model).  A phase of ``L`` slots over ``C`` channels is
resolved as a single-channel phase of ``C * L`` virtual slots, where
real slot ``t`` on channel ``c`` is virtual slot ``c * L + t``:

* a transmission/listen in real slot ``t`` is placed on one uniformly
  random channel, i.e. mapped to virtual slot ``rng.integers(C) * L + t``;
* collisions happen exactly within (channel, slot) cells;
* the adversary's plan is a set of (channel, slot) cells (1 energy
  each), i.e. an ordinary :class:`~repro.channel.events.JamPlan` over
  the virtual slots.

Because a node takes at most one action per *real* slot and each action
occupies exactly one virtual slot, per-slot energy accounting, the
half-duplex rule, and the own-transmission exclusion all carry over
from the single-channel resolver untouched — the reduction is exact,
not an approximation.  At ``C = 1`` this channel stage is the identity:
it draws nothing and keeps the protocol's jam groups, so the paper's
single-channel model is exactly the ``C = 1`` case.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.adversaries.base import Adversary, AdversaryContext
from repro.channel.accounting import BatchEnergyLedger, EnergyLedger
from repro.channel.events import N_STATUS, ListenEvents, SendEvents
from repro.channel.model import (
    BatchPhaseOutcome,
    resolve_phase,
    resolve_phase_batch_core,
    resolve_phase_dense,
    resolve_resolver_name,
)
from repro.engine.phase import BatchPhaseObservation, PhaseObservation
from repro.engine.sampling import sample_action_events, sample_action_events_batch
from repro.errors import BudgetExceededError, ConfigurationError, ProtocolError
from repro.protocols.base import Protocol
from repro.rng import RngFactory
from repro.telemetry.sink import get_sink

__all__ = ["Simulator", "RunResult", "BatchResult", "run", "run_batch"]


def _hop(slots: np.ndarray, length: int, n_channels: int,
         rng: np.random.Generator) -> np.ndarray:
    """Map real-slot events to virtual slots via uniform channel hops."""
    if len(slots) == 0:
        return slots
    channels = rng.integers(0, n_channels, len(slots))
    return channels * length + slots


def _half_duplex(sends: SendEvents, listens: ListenEvents,
                 length: int) -> ListenEvents:
    """Drop listens that collide with the same node's sends in the same
    *real* slot.

    Half-duplex must be enforced before the hop: a node cannot send on
    one channel while listening on another.  (The virtual-slot resolver
    would only catch same-channel conflicts.)
    """
    if not len(sends) or not len(listens):
        return listens
    send_keys = np.sort(sends.nodes * length + sends.slots)
    listen_keys = listens.nodes * length + listens.slots
    pos = np.searchsorted(send_keys, listen_keys)
    safe = np.minimum(pos, len(send_keys) - 1)
    keep = send_keys[safe] != listen_keys
    return ListenEvents(listens.nodes[keep], listens.slots[keep])


def _hop_events(sends: SendEvents, listens: ListenEvents, length: int,
                n_channels: int, rng: np.random.Generator):
    """The channel stage at ``C > 1``: one trial's real-slot events
    onto the ``C * length`` virtual slots.

    ``rng`` is the trial's private ``hopping`` stream, and its draw
    order is the bit-identity contract shared by :meth:`Simulator.run`
    and the lockstep :meth:`Simulator.run_batch`: the half-duplex
    filter runs on real slots first (it changes how many listen events
    remain, hence how many channel draws the hop makes), then sends
    hop, then listens.  Merging the two hops into one draw, or hopping
    listens before the filter, would silently permute every stream.
    """
    listens = _half_duplex(sends, listens, length)
    v_sends = SendEvents(
        sends.nodes, _hop(sends.slots, length, n_channels, rng), sends.kinds
    )
    v_listens = ListenEvents(
        listens.nodes, _hop(listens.slots, length, n_channels, rng)
    )
    return v_sends, v_listens


@dataclass(frozen=True)
class RunResult:
    """Outcome of one complete execution.

    Attributes
    ----------
    node_costs:
        ``(n_nodes,)`` total energy per good node.
    adversary_cost:
        The adversary's total spend — the paper's ``T``.
    slots:
        Total latency in slots (sum of phase lengths until the last node
        halted).
    phases:
        Number of phases executed.
    truncated:
        True when the run hit the safety cap instead of halting; such
        runs should be treated as censored observations.
    stats:
        The protocol's :meth:`~repro.protocols.base.Protocol.summary`.
    phase_history:
        Per-phase cost records (empty when history is disabled).
    """

    node_costs: np.ndarray
    adversary_cost: int
    slots: int
    phases: int
    truncated: bool
    stats: dict
    phase_history: list = field(default_factory=list)
    node_send_costs: np.ndarray | None = None
    node_listen_costs: np.ndarray | None = None

    @property
    def max_node_cost(self) -> int:
        """``max_u C(u)`` — the resource-competitive cost measure."""
        return int(self.node_costs.max())

    def weighted_node_costs(self, model) -> np.ndarray:
        """Per-node energy under a weighted radio
        :class:`~repro.channel.accounting.CostModel`."""
        if self.node_send_costs is None or self.node_listen_costs is None:
            raise ValueError("run was recorded without a send/listen split")
        return model.weight(self.node_send_costs, self.node_listen_costs)

    @property
    def success(self) -> bool:
        return bool(self.stats.get("success", False))

    @property
    def T(self) -> int:
        """Alias for :attr:`adversary_cost`, matching the paper's ``T``."""
        return self.adversary_cost


@dataclass(frozen=True)
class BatchResult:
    """Outcome of :meth:`Simulator.run_batch` — B trials, one object.

    ``results`` holds one full :class:`RunResult` per trial (the
    per-trial *views*: element ``t`` is bit-identical to what
    ``run(seeds[t])`` returns), and the stacked properties expose the
    cross-trial arrays analysis code wants without a Python loop.
    """

    results: tuple[RunResult, ...]
    seeds: tuple

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def node_costs(self) -> np.ndarray:
        """``(B, n_nodes)`` stacked per-node costs."""
        return np.stack([r.node_costs for r in self.results])

    @property
    def max_node_costs(self) -> np.ndarray:
        """``(B,)`` per-trial ``max_u C(u)``."""
        return np.array([r.max_node_cost for r in self.results], dtype=np.int64)

    @property
    def adversary_costs(self) -> np.ndarray:
        """``(B,)`` per-trial adversary spend ``T``."""
        return np.array([r.adversary_cost for r in self.results], dtype=np.int64)

    @property
    def slots(self) -> np.ndarray:
        return np.array([r.slots for r in self.results], dtype=np.int64)

    @property
    def phases(self) -> np.ndarray:
        return np.array([r.phases for r in self.results], dtype=np.int64)

    @property
    def successes(self) -> np.ndarray:
        return np.array([r.success for r in self.results], dtype=bool)

    @property
    def truncated(self) -> np.ndarray:
        return np.array([r.truncated for r in self.results], dtype=bool)


class Simulator:
    """Reusable runner binding a protocol, an adversary, and limits.

    Parameters
    ----------
    protocol / adversary:
        The parties.  Both are reset at the start of every :meth:`run`.
        Any phase-driven protocol runs on any channel count unmodified;
        at ``n_channels > 1`` the adversary plans over the
        ``C * length`` virtual slots (the strategies in
        :mod:`repro.multichannel.adversaries`).
    n_channels:
        Number of frequency channels ``C >= 1``.  A protocol whose
        parameters declare ``n_channels`` must be run on that many.
    max_slots / max_phases:
        Safety caps.  By default a run that exceeds them is truncated
        and flagged; with ``strict=True`` it raises
        :class:`~repro.errors.BudgetExceededError` instead.  ``max_slots``
        caps *real* slots — the sum of phase lengths, i.e. latency,
        which does not grow with band width — even though the ledger's
        per-phase records charge the ``C * length`` virtual extent.
    keep_history:
        Keep per-phase cost records on the result (off for big sweeps).
    trace:
        Optional :class:`repro.trace.TraceRecorder` capturing raw
        slot-level material of every phase (small runs only).
    resolver:
        ``"sparse"`` (default) for the O(events) kernel, ``"dense"``
        for the O(L) oracle (:mod:`repro.channel.model_dense`);
        ``None`` defers to the ``REPRO_RESOLVER`` environment variable.
        Both produce bit-identical outcomes; the oracle exists for
        differential testing and byte-identity CI gates.
    profile:
        Optional dict accumulating per-stage wall seconds
        (``protocol`` / ``sampling`` / ``adversary`` / ``resolve`` /
        ``accounting`` keys; the channel hop counts as ``sampling``)
        across runs; ``None`` (default) disables the stage clocks
        entirely.
    """

    def __init__(
        self,
        protocol: Protocol,
        adversary: Adversary,
        *,
        n_channels: int = 1,
        max_slots: int = 50_000_000,
        max_phases: int = 200_000,
        strict: bool = False,
        keep_history: bool = False,
        trace=None,
        resolver: str | None = None,
        profile: dict | None = None,
    ) -> None:
        if n_channels < 1:
            raise ConfigurationError(f"n_channels must be >= 1, got {n_channels}")
        declared = getattr(getattr(protocol, "params", None), "n_channels", None)
        if declared is not None and declared != n_channels:
            raise ConfigurationError(
                f"protocol is tuned for {declared} channels but the engine "
                f"was given n_channels={n_channels}"
            )
        self.protocol = protocol
        self.adversary = adversary
        self.n_channels = n_channels
        self.max_slots = max_slots
        self.max_phases = max_phases
        self.strict = strict
        self.keep_history = keep_history
        self.trace = trace
        self.resolver = resolve_resolver_name(resolver)
        self.resolve_phase = (
            resolve_phase_dense if self.resolver == "dense" else resolve_phase
        )
        self.profile = profile

    def _clock(self, stage: str, since: float) -> float:
        """Charge ``now - since`` to a profile stage; returns ``now``."""
        now = time.perf_counter()
        prof = self.profile
        prof[stage] = prof.get(stage, 0.0) + (now - since)
        return now

    def run(self, seed: int | np.random.Generator | None = None) -> RunResult:
        """Play one execution and return its :class:`RunResult`."""
        factory = RngFactory(seed)
        protocol_rng = factory.get("protocol")
        adversary_rng = factory.get("adversary")
        C = self.n_channels
        hop_rng = factory.get("hopping") if C > 1 else None

        protocol = self.protocol
        adversary = self.adversary
        protocol.reset(protocol_rng)

        ledger = EnergyLedger(protocol.n_nodes, keep_history=self.keep_history)
        slots = 0
        phases = 0
        truncated = False
        n_groups_seen = 1
        # Telemetry: aggregate per-phase resolve timing into one span
        # per run — a phase-granular log would dwarf the science output
        # at 200k-phase scale.  ``sink is None`` is the entire disabled
        # overhead.
        sink = get_sink()
        prof = self.profile
        resolve_time = 0.0
        n_events = 0

        t_stage = time.perf_counter() if prof is not None else 0.0
        spec = protocol.next_phase()
        if prof is not None:
            t_stage = self._clock("protocol", t_stage)
        if C == 1 and spec is not None and spec.groups is not None:
            n_groups_seen = int(spec.groups.max()) + 1
        adversary.begin_run(protocol.n_nodes, n_groups_seen, adversary_rng)

        while spec is not None:
            if spec.n_nodes != protocol.n_nodes:
                raise ProtocolError(
                    f"phase for {spec.n_nodes} nodes from a protocol with "
                    f"{protocol.n_nodes}"
                )
            if slots + spec.length > self.max_slots or phases >= self.max_phases:
                if self.strict:
                    raise BudgetExceededError(
                        f"run exceeded caps (slots={slots}, phases={phases})"
                    )
                truncated = True
                break

            if prof is not None:
                t_stage = time.perf_counter()
            sends, listens = sample_action_events(
                protocol_rng,
                spec.length,
                spec.send_probs,
                spec.send_kinds,
                spec.listen_probs,
            )
            # The channel stage.  Jam groups are a single-channel notion
            # (jamming "near a node"); on C channels the adversary buys
            # (channel, slot) cells that disrupt everyone hopping onto
            # them, so the groups are dropped with the hop.
            extent = C * spec.length
            groups = spec.groups
            if C > 1:
                sends, listens = _hop_events(
                    sends, listens, spec.length, C, hop_rng
                )
                groups = None
            if prof is not None:
                t_stage = self._clock("sampling", t_stage)
            ctx = AdversaryContext(
                phase_index=phases,
                length=spec.length,
                n_nodes=protocol.n_nodes,
                n_groups=n_groups_seen,
                tags=dict(spec.tags),
                sends=sends,
                listens=listens,
                send_probs=spec.send_probs,
                listen_probs=spec.listen_probs,
                spent=ledger.adversary_cost,
                n_channels=C,
            )
            plan = adversary.plan_phase(ctx)
            if C > 1 and plan.length != extent:
                raise ProtocolError(
                    f"plan must cover {C}x{spec.length} virtual slots, "
                    f"got {plan.length}"
                )
            if prof is not None:
                t_stage = self._clock("adversary", t_stage)
            if sink is not None:
                t0 = time.perf_counter()
            outcome = self.resolve_phase(
                extent, protocol.n_nodes, sends, listens, plan, groups=groups
            )
            if sink is not None:
                resolve_time += time.perf_counter() - t0
                n_events += len(sends) + len(listens)
            if prof is not None:
                t_stage = self._clock("resolve", t_stage)
            ledger.charge_phase(
                extent,
                outcome.send_cost + outcome.listen_cost,
                outcome.adversary_cost,
                tags=spec.tags,
                send_costs=outcome.send_cost,
                listen_costs=outcome.listen_cost,
            )
            if self.trace is not None:
                self.trace.record(
                    phases, extent, protocol.n_nodes, spec.tags,
                    sends, listens, plan, groups, outcome,
                )
            slots += spec.length
            phases += 1

            if prof is not None:
                t_stage = self._clock("accounting", t_stage)
            protocol.observe(
                PhaseObservation(
                    length=spec.length,
                    heard=outcome.heard,
                    send_cost=outcome.send_cost,
                    listen_cost=outcome.listen_cost,
                    tags=dict(spec.tags),
                )
            )
            adversary.observe_outcome(ctx, outcome)
            spec = protocol.next_phase()
            if prof is not None:
                t_stage = self._clock("protocol", t_stage)

        if spec is None and not protocol.done:
            raise ProtocolError("protocol returned no phase but reports not done")

        ledger.check_conservation()
        if sink is not None:
            sink.span_event(
                "sim.run", resolve_time,
                phases=phases, slots=slots, events=n_events,
                events_per_slot=round(n_events / slots, 6) if slots else 0.0,
            )
        return RunResult(
            node_costs=ledger.node_costs,
            adversary_cost=ledger.adversary_cost,
            slots=slots,
            phases=phases,
            truncated=truncated,
            stats=protocol.summary(),
            phase_history=ledger.history,
            node_send_costs=ledger.send_costs,
            node_listen_costs=ledger.listen_costs,
        )

    def run_batch(
        self,
        seeds,
        *,
        make_protocol=None,
        make_adversary=None,
    ) -> BatchResult:
        """Play B independent trials as one stacked lockstep computation.

        Bit-identical per trial to ``[self.run(s) for s in seeds]``:
        every trial keeps its own rng streams (``protocol``,
        ``adversary`` and, at ``C > 1``, ``hopping``) and sees exactly
        the rng call sequence of a serial run.  The protocol holds every
        trial's state as arrays with a leading trial axis and advances
        all of them per step
        (:meth:`~repro.protocols.base.Protocol.next_phase_batch` /
        :meth:`~repro.protocols.base.Protocol.observe_batch`); event
        sampling, collision resolution and plan emission are stacked
        across trials; phase costs accumulate in one
        :class:`~repro.channel.accounting.BatchEnergyLedger`.

        Trials that halt early (or trip the caps) are masked out of the
        runnable set, never compacted: their rows ride along frozen,
        which keeps every surviving trial's rng consumption on the
        serial schedule.

        Parameters
        ----------
        seeds:
            One rng seed per trial.
        make_protocol / make_adversary:
            Optional zero-argument factories building the batch's
            protocol and each trial's adversary.  By default the
            simulator's own protocol is reset for the batch and each
            trial gets a ``copy.deepcopy`` of its adversary — equivalent
            for every protocol/adversary in the repo, whose
            ``reset_batch`` / ``begin_run`` hooks (re-)initialise all
            run state, so state left behind by an earlier ``run`` or
            ``run_batch`` never leaks into the next.

        Returns
        -------
        BatchResult
            Per-trial :class:`RunResult` views plus stacked arrays.
        """
        if self.trace is not None:
            raise ConfigurationError(
                "trace recording is per-run; use run() for traced executions"
            )
        seeds = list(seeds)
        if len(seeds) == 0:
            return BatchResult(results=(), seeds=())
        B = len(seeds)
        C = self.n_channels
        protocol = (
            make_protocol() if make_protocol is not None else self.protocol
        )
        adversaries = [
            make_adversary() if make_adversary is not None
            else copy.deepcopy(self.adversary)
            for _ in range(B)
        ]
        n_nodes = protocol.n_nodes
        adv_type = type(adversaries[0])
        if any(type(a) is not adv_type for a in adversaries):
            adv_type = Adversary  # heterogeneous batch: per-trial loop
        # Outcome feedback is an opt-in hook; when nobody overrides it,
        # skip materialising per-trial PhaseOutcome views entirely.
        observe_hooked = any(
            type(a).observe_outcome is not Adversary.observe_outcome
            for a in adversaries
        )

        factories = [RngFactory(seed) for seed in seeds]
        protocol_rngs = [f.get("protocol") for f in factories]
        adversary_rngs = [f.get("adversary") for f in factories]
        hop_rngs = [f.get("hopping") for f in factories] if C > 1 else None

        ledger = BatchEnergyLedger(B, n_nodes, keep_history=self.keep_history)
        slots = np.zeros(B, dtype=np.int64)
        phases = np.zeros(B, dtype=np.int64)
        truncated = np.zeros(B, dtype=bool)
        sink = get_sink()
        prof = self.profile
        resolve_time = 0.0
        n_events = 0

        t_stage = time.perf_counter() if prof is not None else 0.0
        protocol.reset_batch(protocol_rngs)
        spec = protocol.next_phase_batch(np.ones(B, dtype=bool))
        if prof is not None:
            t_stage = self._clock("protocol", t_stage)

        shared_groups = (
            int(spec.groups.max()) + 1
            if C == 1 and spec is not None and spec.groups is not None
            else 1
        )
        first_active = (
            spec.active if spec is not None else np.zeros(B, dtype=bool)
        )
        n_groups_seen = np.where(first_active, shared_groups, 1)
        for t in range(B):
            adversaries[t].begin_run(
                n_nodes, int(n_groups_seen[t]), adversary_rngs[t]
            )

        while spec is not None:
            if spec.n_nodes != n_nodes:
                raise ProtocolError(
                    f"phase for {spec.n_nodes} nodes from a protocol "
                    f"with {n_nodes}"
                )
            runnable = spec.active & ~truncated
            over = runnable & (
                (slots + spec.lengths > self.max_slots)
                | (phases >= self.max_phases)
            )
            if over.any():
                if self.strict:
                    t = int(np.flatnonzero(over)[0])
                    raise BudgetExceededError(
                        f"run exceeded caps (slots={int(slots[t])}, "
                        f"phases={int(phases[t])})"
                    )
                truncated |= over
                runnable &= ~over
            if not runnable.any():
                break
            idx = np.flatnonzero(runnable)

            if prof is not None:
                t_stage = time.perf_counter()
            full = len(idx) == B
            lengths = spec.lengths if full else spec.lengths[idx]
            events = sample_action_events_batch(
                protocol_rngs if full else [protocol_rngs[t] for t in idx],
                lengths,
                spec.send_probs if full else spec.send_probs[idx],
                spec.send_kinds if full else spec.send_kinds[idx],
                spec.listen_probs if full else spec.listen_probs[idx],
                validate=False,
            )
            # The channel stage, per trial on its own hopping stream
            # exactly as in run().
            groups = spec.groups
            if C > 1:
                events = [
                    _hop_events(sends, listens, int(length), C, hop_rngs[t])
                    for (sends, listens), length, t in zip(events, lengths, idx)
                ]
                groups = None
            if prof is not None:
                t_stage = self._clock("sampling", t_stage)

            adv_spent = ledger.adversary_costs
            ctxs = [
                AdversaryContext(
                    phase_index=int(phases[t]),
                    length=int(spec.lengths[t]),
                    n_nodes=n_nodes,
                    n_groups=int(n_groups_seen[t]),
                    tags=dict(spec.tags[t]),
                    sends=events[i][0],
                    listens=events[i][1],
                    send_probs=spec.send_probs[t],
                    listen_probs=spec.listen_probs[t],
                    spent=int(adv_spent[t]),
                    n_channels=C,
                )
                for i, t in enumerate(idx)
            ]
            plans = adv_type.plan_phase_batch(
                [adversaries[t] for t in idx], ctxs
            )
            if C > 1:
                for i, t in enumerate(idx):
                    if plans[i].length != C * int(spec.lengths[t]):
                        raise ProtocolError(
                            f"plan must cover {C}x{int(spec.lengths[t])} "
                            f"virtual slots, got {plans[i].length}"
                        )
            if prof is not None:
                t_stage = self._clock("adversary", t_stage)
            if sink is not None:
                t0 = time.perf_counter()
            if self.resolver == "dense":
                core = BatchPhaseOutcome.from_outcomes([
                    resolve_phase_dense(
                        C * int(spec.lengths[t]), n_nodes,
                        events[i][0], events[i][1], plans[i],
                        groups=groups,
                    )
                    for i, t in enumerate(idx)
                ])
            else:
                core = resolve_phase_batch_core(
                    C * lengths,
                    n_nodes,
                    [ev[0] for ev in events],
                    [ev[1] for ev in events],
                    plans,
                    [groups] * len(idx),
                    validate=False,
                )
            if sink is not None:
                resolve_time += time.perf_counter() - t0
                n_events += sum(len(ev[0]) + len(ev[1]) for ev in events)
            if prof is not None:
                t_stage = self._clock("resolve", t_stage)

            # Scatter the step rows back onto the full batch axis: one
            # stacked observation replaces B PhaseObservation objects.
            if full:
                heard_full = core.heard
                send_full = core.send_cost
                listen_full = core.listen_cost
                advc_full = core.adversary_costs
            else:
                heard_full = np.zeros((B, n_nodes, N_STATUS), dtype=np.int64)
                send_full = np.zeros((B, n_nodes), dtype=np.int64)
                listen_full = np.zeros((B, n_nodes), dtype=np.int64)
                advc_full = np.zeros(B, dtype=np.int64)
                heard_full[idx] = core.heard
                send_full[idx] = core.send_cost
                listen_full[idx] = core.listen_cost
                advc_full[idx] = core.adversary_costs

            # Virtual extent in the ledger, real slots on the latency
            # counter — the same split as run().
            ledger.charge_phase_batch(
                runnable, C * spec.lengths, send_full, listen_full, advc_full,
                spec.tags,
            )
            slots[runnable] += spec.lengths[runnable]
            phases[runnable] += 1
            if prof is not None:
                t_stage = self._clock("accounting", t_stage)

            protocol.observe_batch(
                BatchPhaseObservation(
                    lengths=spec.lengths,
                    heard=heard_full,
                    send_cost=send_full,
                    listen_cost=listen_full,
                    active=runnable,
                    tags=spec.tags,
                )
            )
            if observe_hooked:
                for i, t in enumerate(idx):
                    adversaries[t].observe_outcome(ctxs[i], core.outcome_for(i))
            spec = protocol.next_phase_batch(runnable)
            if prof is not None:
                t_stage = self._clock("protocol", t_stage)

        bad = ~protocol.done_batch() & ~truncated
        if bad.any():
            raise ProtocolError(
                "protocol returned no phase but reports not done"
            )
        ledger.check_conservation()
        stats = protocol.summary_batch()
        results = [
            RunResult(
                node_costs=ledger.node_costs_for(t),
                adversary_cost=ledger.adversary_cost(t),
                slots=int(slots[t]),
                phases=int(phases[t]),
                truncated=bool(truncated[t]),
                stats=stats[t],
                phase_history=ledger.history_for(t),
                node_send_costs=ledger.send_costs_for(t),
                node_listen_costs=ledger.listen_costs_for(t),
            )
            for t in range(B)
        ]
        if sink is not None:
            total_slots = int(slots.sum())
            sink.span_event(
                "sim.run_batch", resolve_time,
                trials=B, phases=int(phases.sum()), slots=total_slots,
                events=n_events,
                events_per_slot=(
                    round(n_events / total_slots, 6) if total_slots else 0.0
                ),
            )
        return BatchResult(results=tuple(results), seeds=tuple(seeds))


def run(
    protocol: Protocol,
    adversary: Adversary,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    Examples
    --------
    >>> from repro.protocols import OneToOneBroadcast, OneToOneParams
    >>> from repro.adversaries import SilentAdversary
    >>> result = run(OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), seed=7)
    >>> result.success
    True
    """
    return Simulator(protocol, adversary, **kwargs).run(seed)


def run_batch(
    protocol: Protocol,
    adversary: Adversary,
    seeds,
    **kwargs,
) -> BatchResult:
    """One-shot convenience wrapper around :meth:`Simulator.run_batch`.

    Examples
    --------
    >>> from repro.protocols import OneToOneBroadcast, OneToOneParams
    >>> from repro.adversaries import SilentAdversary
    >>> batch = run_batch(
    ...     OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), range(4)
    ... )
    >>> len(batch) == 4 and bool(batch.successes.all())
    True
    """
    return Simulator(protocol, adversary, **kwargs).run_batch(seeds)
