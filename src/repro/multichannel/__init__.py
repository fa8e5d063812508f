"""Multichannel extension: what spectrum is (and is not) worth.

The paper's related work (Dolev et al. [14, 15], Gilbert et al. [18],
Emek–Wattenhofer [16]) studies jamming when communication may hop among
``C`` frequency channels.  This subpackage composes the paper's
protocols with uniform channel hopping and measures the energy game
(experiment E15).  The findings are sharper than "more channels help":

* **blocking costs the adversary C-fold** — to block a slot against an
  unpredictable hop she must buy every (channel, slot) cell;
* **but meeting costs the defenders sqrt(C)-fold** — without shared
  hopping sequences (the model has no shared secrets) sender and
  receiver coincide w.p. ``1/C``, so preserving Figure 1's ``1 - eps``
  guarantee requires boosting rates by ``sqrt(C)``
  (:func:`hopping_rate_params`); run *uncorrected*, hopping silently
  degrades correctness;
* **net: energy-neutral** — at equal budgets the corrected protocol's
  cost is flat in ``C``; per-slot-energy accounting alone buys no
  asymptotic advantage;
* **spectrum wins against band-limited adversaries** — a jammer
  restricted to ``k`` channels with ``k/C`` below the protocol's ~1/8
  noise threshold is diluted into complete irrelevance, which is the
  regime the multichannel literature actually targets;
* **1-to-n multiplicity is what spectrum actually buys** (experiment
  E18) — :class:`CZBroadcast` keeps ~1 expected sender *per channel*
  once informed, so a (1-eps)-fraction jammer
  (:class:`FractionJammer`) pays ``(1-eps) * C`` cells per slot and
  her fixed battery dies ``C``-fold sooner; the measured cost stays
  inside the resource-competitive envelope and beats the
  single-channel baselines for ``C >= 4``.

Structured per-channel schedules live in
:mod:`repro.multichannel.schedules` (:class:`ChannelJamPlan`: channel
→ slot intervals, O(1) band constructors, time-major budget trimming,
exact round-trips to compiled virtual-slot plans), and the whole
adversary zoo registers in :mod:`repro.adversaries.canonical` with
describe→rebuild round-trips so multichannel attacks cache and replay
like single-channel ones.

Mechanics (the channel stage of :mod:`repro.engine.simulator`, run
with ``Simulator(..., n_channels=C)``): per slot, an acting node picks
one of the ``C`` channels uniformly at random; transmissions collide
only within a (channel, slot) cell; jamming is bought per (channel,
slot).  The whole thing reduces to the single-channel resolver over
``C * L`` *virtual slots*, so channel semantics, costs, and the audit
trail are identical by construction — and any existing
:class:`~repro.protocols.base.Protocol` runs unmodified.
"""

from repro.multichannel.adversaries import (
    ChannelBandJammer,
    ChannelFollowerJammer,
    ChannelSweepJammer,
    FractionJammer,
    MCBudgetCap,
    MCEpochTargetJammer,
)
from repro.multichannel.engine import MCSimulator, hopping_rate_params, mc_run
from repro.multichannel.protocols import CZBroadcast, CZParams, cz_pair_protocol
from repro.multichannel.schedules import ChannelJamPlan

__all__ = [
    "CZBroadcast",
    "CZParams",
    "ChannelBandJammer",
    "ChannelFollowerJammer",
    "ChannelJamPlan",
    "ChannelSweepJammer",
    "FractionJammer",
    "MCBudgetCap",
    "MCEpochTargetJammer",
    "MCSimulator",
    "cz_pair_protocol",
    "hopping_rate_params",
    "mc_run",
]
