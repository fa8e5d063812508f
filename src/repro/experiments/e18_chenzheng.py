"""E18 — Chen–Zheng spectrum speedup against the (1-eps)-fraction jammer.

E15 established that 1-to-1 channel hopping is energy-*neutral*: per-cell
accounting hands the adversary a ``C``-fold blocking bill but the
hop-corrected defender pays a ``sqrt(C)`` rate boost, and the two cancel.
The multichannel literature's speedup needs 1-to-*n* multiplicity, which
is what :class:`~repro.multichannel.protocols.CZBroadcast` supplies: with
all ``n`` nodes informed the protocol keeps ~1 expected sender *per
channel*, so every extra channel is an independent chance to spread.

Against that protocol the canonical strong adversary is the
**(1-eps)-fraction jammer** (:class:`~repro.multichannel.adversaries
.FractionJammer`): she keeps a ``1-eps`` fraction of every (channel,
slot) grid jammed, the densest schedule that still leaves the protocol a
sliver to finish through.  Her per-slot bill is ``(1-eps) * C`` cells, so
at a *fixed* battery ``T`` she sustains it for only ``T / ((1-eps) C)``
slots — ``C``-fold fewer.  The measured consequence, checked here:

* at ``C = 1`` her battery outlives the protocol, which pays the full
  jammed bill to thread the ``eps``-sliver;
* for large ``C`` her battery dies early (spend hits ``T`` exactly) and
  the protocol finishes near its unjammed cost;
* per-node cost stays inside the resource-competitive envelope
  ``K * (sqrt(lam * T / C) + unjammed(C))`` at every ``C``, and for
  ``C >= 4`` beats both the ``C = 1`` run and the Theorem 1
  single-channel pairwise baseline at the same budget.

The spectrum-speedup curve ``cost(1) / cost(C)`` is rendered as a bar
chart — the headline figure of the multichannel extension.
"""

from __future__ import annotations

import numpy as np

from repro.adversaries import BudgetCap, RandomJammer
from repro.analysis.asciiplot import bar_chart
from repro.experiments.registry import ExperimentReport, RunConfig
from repro.experiments.runner import Table, replicate
from repro.multichannel import (
    ChannelBandJammer,
    CZBroadcast,
    CZParams,
    FractionJammer,
)
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

#: Envelope constant for the resource-competitive check.  Measured K at
#: the shipped seeds sits in [1.5, 2.2] across C; 3.0 leaves seed slack
#: without admitting a linear-in-T regression (which would blow past it
#: at the full-mode budget).
ENVELOPE_K = 3.0

#: The jammer's clear sliver.  Small eps makes C = 1 expensive (the
#: protocol threads a 5% window) while barely changing the big-C
#: picture, sharpening the contrast the theorem predicts.
EPS = 0.05

N_NODES = 16


def _mc_point(C, T, n_reps, seed, cfg):
    """Mean (cost, adversary spend, slots, success) for one (C, T) cell."""
    res = replicate(
        lambda: CZBroadcast(CZParams.sim(n_nodes=N_NODES, n_channels=C)),
        lambda: FractionJammer(EPS, max_total=T),
        n_reps, seed, n_channels=C, max_slots=2_000_000, config=cfg,
    )
    return (
        float(np.mean([r.max_node_cost for r in res])),
        float(np.mean([r.adversary_cost for r in res])),
        float(np.mean([r.slots for r in res])),
        float(np.mean([r.success for r in res])),
    )


def run(config: RunConfig | None = None) -> ExperimentReport:
    cfg = config if config is not None else RunConfig()
    seed, quick = cfg.seed, cfg.quick
    channel_counts = (1, 2, 4, 8) if quick else (1, 2, 4, 8, 16)
    n_reps = 6 if quick else 15
    T = 1000 if quick else 2000
    report = ExperimentReport(eid="E18", title="", anchor="")

    # Unjammed per-C floors: the same protocol against a zero-channel
    # band jammer (structurally silent), so the envelope's additive term
    # reflects what spreading over C channels costs with nobody jamming.
    unjammed = {}
    for C in channel_counts:
        res = replicate(
            lambda C=C: CZBroadcast(CZParams.sim(n_nodes=N_NODES, n_channels=C)),
            lambda: ChannelBandJammer(0),
            n_reps, seed, n_channels=C, max_slots=2_000_000, config=cfg,
        )
        unjammed[C] = float(np.mean([r.max_node_cost for r in res]))

    table = Table(
        f"E18: CZ broadcast vs (1-eps)-fraction jammer, eps={EPS}, "
        f"budget T={T}, n={N_NODES} ({n_reps} reps/point)",
        ["C", "max_cost", "adv_spent", "slots", "success",
         "unjammed", "envelope"],
    )
    cost, spent, succ = {}, {}, {}
    for C in channel_counts:
        lam = CZParams.sim(n_nodes=N_NODES, n_channels=C).lam
        envelope = ENVELOPE_K * (float(np.sqrt(lam * T / C)) + unjammed[C])
        cost[C], spent[C], slots, succ[C] = _mc_point(C, T, n_reps, seed, cfg)
        table.add_row(C, cost[C], spent[C], slots, succ[C],
                      unjammed[C], envelope)
    report.tables.append(table)

    # Theorem 1 baseline: the paper's single-channel pairwise protocol
    # against a q-blocking jammer on the same battery.  This is what a
    # node pays for delivery with no spectrum at all.
    thm1_runs = replicate(
        lambda: OneToOneBroadcast(OneToOneParams.sim()),
        lambda: BudgetCap(RandomJammer(0.9), T),
        n_reps, seed, max_slots=2_000_000, config=cfg,
    )
    thm1_cost = float(np.mean([r.max_node_cost for r in thm1_runs]))
    report.notes.append(
        f"Theorem 1 single-channel baseline at the same budget: "
        f"max_cost {thm1_cost:.1f} "
        f"(success {float(np.mean([r.success for r in thm1_runs])):.2f})"
    )

    speedup = {C: cost[channel_counts[0]] / cost[C] for C in channel_counts}
    report.notes.append(
        "spectrum speedup cost(1)/cost(C):\n"
        + bar_chart(
            [f"C={C}" for C in channel_counts],
            [speedup[C] for C in channel_counts],
        )
    )

    envelope_ok = all(
        cost[C]
        <= ENVELOPE_K
        * (float(np.sqrt(CZParams.sim(n_nodes=N_NODES, n_channels=C).lam * T / C))
           + unjammed[C])
        for C in channel_counts
    )
    big = [C for C in channel_counts if C >= 4]
    report.checks["broadcast succeeds at every C"] = bool(
        all(succ[C] == 1.0 for C in channel_counts)
    )
    report.checks[
        f"cost within the resource-competitive envelope (K={ENVELOPE_K})"
    ] = bool(envelope_ok)
    report.checks["spectrum pays: C>=4 beats C=1 by >=1.2x"] = bool(
        all(speedup[C] >= 1.2 for C in big)
    )
    report.checks["C>=4 beats the Theorem 1 single-channel baseline"] = bool(
        all(cost[C] < thm1_cost for C in big)
    )
    # The mechanism itself: the fraction jammer's per-slot bill scales
    # with C, so at the largest C she burns the whole battery in a few
    # hundred slots and the protocol then finishes nearly unjammed —
    # her jammed-vs-unjammed overhead collapses relative to C = 1.
    C_lo, C_hi = channel_counts[0], channel_counts[-1]
    report.checks["a full battery buys the jammer little at large C"] = bool(
        spent[C_hi] == float(T)
        and cost[C_hi] / unjammed[C_hi]
        < 0.6 * (cost[C_lo] / unjammed[C_lo])
    )
    report.notes.append(
        "1-to-1 hopping was energy-neutral (E15); the speedup above is "
        "the 1-to-n multiplicity effect — ~1 expected sender per channel "
        "once informed — which makes the (1-eps)-fraction jammer's bill "
        "scale with C while the defenders' does not."
    )
    return report
