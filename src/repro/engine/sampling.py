"""Exact, vectorized sampling of per-slot Bernoulli action processes.

Every protocol in the paper has each node act independently per slot
with some probability ``p`` ("send with probability S_u / 2**i", "listen
with probability p_i", ...).  Materialising an ``(n_nodes, L)`` Bernoulli
matrix is wasteful when ``p`` is small (and ``L`` reaches ``2**20`` in
the sweeps), so we sample the *positions* of the successes directly.

The geometric-gap ("skip") method is exact: in a Bernoulli(p) process
the gaps between consecutive successes are i.i.d. Geometric(p), so we
draw gaps via inverse-CDF, prefix-sum them, and truncate at ``L``.  Cost
is ``O(pL)`` instead of ``O(L)``.  For large ``p`` a dense draw is
cheaper and we switch automatically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.events import ListenEvents, SendEvents
from repro.channel.intervals import sorted_distinct as _sorted_distinct
from repro.errors import SimulationError

__all__ = [
    "bernoulli_positions",
    "sample_action_events",
    "sample_action_events_batch",
    "DENSE_P_THRESHOLD",
]

#: Above this probability a dense length-``L`` draw beats skip sampling.
DENSE_P_THRESHOLD: float = 0.2


def _geometric_gaps(
    rng: np.random.Generator, p: float, count: int, cap: int
) -> np.ndarray:
    """Draw ``count`` i.i.d. Geometric(p) gaps (support ``{1, 2, ...}``).

    Uses the inverse CDF ``ceil(log(1-U) / log(1-p))``, exact for
    float64 ``U`` up to representability.  Gaps are clipped to ``cap``
    (any value beyond the phase length is equivalent) so that extreme
    draws at tiny ``p`` cannot overflow the integer cast.
    """
    u = rng.random(count)
    # log1p(-u) is log(1-u) computed stably; log1p(-p) likewise.  The
    # division can overflow to inf for astronomically small p; those
    # draws are beyond any phase and the clip handles them.
    with np.errstate(over="ignore"):
        raw = np.ceil(np.log1p(-u) / math.log1p(-p))
    gaps = np.clip(raw, 1.0, float(cap)).astype(np.int64)
    return gaps


def bernoulli_positions(
    rng: np.random.Generator, length: int, p: float
) -> np.ndarray:
    """Positions of successes of a length-``length`` Bernoulli(p) process.

    Returns a sorted int64 array of distinct slot indices in
    ``[0, length)``.  The distribution is *exactly* that of flipping an
    independent p-coin per slot: the count is Binomial(length, p) and,
    conditioned on the count, the positions are a uniform random subset.

    Parameters
    ----------
    rng:
        Source of randomness.
    length:
        Number of slots.
    p:
        Per-slot success probability; values outside ``[0, 1]`` raise.
    """
    if length < 0:
        raise SimulationError(f"length must be non-negative, got {length}")
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {p!r}")
    if length == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(length, dtype=np.int64)

    if p >= DENSE_P_THRESHOLD:
        return np.flatnonzero(rng.random(length) < p).astype(np.int64)

    # Skip sampling: draw a batch of gaps sized for the expected count
    # plus slack; extend in the (rare) case the prefix sum falls short.
    mean = length * p
    batch = int(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16.0)
    cap = length + 1
    positions = np.cumsum(_geometric_gaps(rng, p, batch, cap)) - 1
    while positions[-1] < length - 1:
        extra = np.cumsum(_geometric_gaps(rng, p, batch, cap)) + positions[-1]
        positions = np.concatenate([positions, extra])
    return positions[positions < length]


#: Largest segment count whose index fits above a 53-bit mantissa in an
#: int64 sort key (``1023 << 53`` is the last multiple below ``2**63``).
_COMPOSITE_MAX_SEGMENTS = 1023


def _trim_segments(
    keys: np.ndarray, rand: np.ndarray, have: np.ndarray, want: np.ndarray
) -> np.ndarray:
    """Keep a uniformly random ``want[j]``-subset of each key segment.

    ``keys`` is sorted and split into consecutive segments of
    ``have[j]`` keys; ``rand`` holds one ``Generator.random`` tie-break
    per key.  Each segment is ranked by its tie-breaks and its first
    ``want[j]`` keys are kept, in that ranked order — exactly the
    result of ranking with ``np.lexsort((rand, segment))``.

    ``Generator.random`` emits multiples of ``2**-53``, so ``rand`` scales
    exactly to 53-bit integers.  With the segment index in the high
    bits, one stable ``argsort`` of the composite int64 key reproduces
    the lexsort order bit-for-bit at a fraction of its cost.  Past
    :data:`_COMPOSITE_MAX_SEGMENTS` segments the key would overflow, and
    the lexsort runs instead.
    """
    m = len(have)
    if m <= _COMPOSITE_MAX_SEGMENTS:
        key = np.repeat(np.arange(m, dtype=np.int64) << 53, have)
        key += (rand * 9007199254740992.0).astype(np.int64)
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort((rand, np.repeat(np.arange(m), have)))
    # Keep a ranked position when it lies below its segment's start plus
    # ``want``.
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(have[:-1], out=starts[1:])
    thresh = np.repeat(starts + want, have)
    return keys[order[np.arange(len(keys)) < thresh]]


def _invert_complement(
    heavy_idx: np.ndarray,
    length: int,
    comp_nodes: np.ndarray,
    comp_slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert sampled complements: each heavy node's slots are
    ``[0, length)`` minus its complement slots, emitted node-major with
    slots ascending (the order a row-major mask scan produces).

    ``p == 1`` actions (every-slot listeners dominate the broadcast
    protocols) have empty complements, so that case skips the dense
    mask entirely and writes the full rows directly.
    """
    if not len(comp_nodes):
        nodes = np.repeat(heavy_idx, length)
        slots = np.tile(np.arange(length, dtype=np.int64), len(heavy_idx))
        return nodes, slots
    mask = np.ones((len(heavy_idx), length), dtype=bool)
    remap = np.full(int(heavy_idx.max()) + 1, -1, dtype=np.int64)
    remap[heavy_idx] = np.arange(len(heavy_idx))
    mask[remap[comp_nodes], comp_slots] = False
    rows, cols = np.nonzero(mask)
    return heavy_idx[rows], cols.astype(np.int64)


def _distinct_positions_batch(
    rng: np.random.Generator, length: int, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each node ``u``, a uniform random ``counts[u]``-subset of
    ``[0, length)`` — all nodes at once.

    Exactness: conditioned on its Binomial count, a Bernoulli process's
    success positions are a uniform subset, and sequential rejection of
    duplicates samples uniform subsets exactly.  Nodes wanting more
    than half the slots are handled by sampling the *complement* (a
    uniform (L-k)-subset's complement is a uniform k-subset), which
    keeps the rejection loop away from the coupon-collector regime.

    Rng contract (what every stored baseline depends on): per rejection
    round one ``integers`` draw, sized by the overdraw of *every* light
    node; then one ``random`` draw over all distinct keys iff some node
    holds a surplus, trimmed by :func:`_trim_segments`; then the same
    again for the heavy nodes' complements.

    Returns ``(node_ids, slots)`` arrays: light nodes first, node-major
    (slots ascending when nothing was trimmed, in tie-break rank order
    otherwise), then heavy nodes, node-major with slots ascending.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    heavy = counts > length // 2

    node_parts: list[np.ndarray] = []
    slot_parts: list[np.ndarray] = []

    # Light nodes: rejection sampling on (node, slot) keys.  Each round
    # overdraws slightly so one dedup pass usually collects enough
    # distinct slots per node; surpluses are trimmed afterwards by a
    # per-node uniformly random subset (value-symmetric, hence exact).
    light_idx = np.flatnonzero(~heavy & (counts > 0))
    if len(light_idx):
        want = counts[light_idx]
        # Node u owns keys [u * length, (u + 1) * length); every key
        # lands in some light node's range, so per-node counts are
        # differences of two boundary searches into the sorted keys.
        lo_edges = light_idx * length
        hi_edges = lo_edges + length
        keys = np.empty(0, dtype=np.int64)
        need = want
        while True:
            total = int(need.sum())
            if total == 0:
                break
            overdraw = need + need // 16 + 4
            draw_slots = rng.integers(0, length, int(overdraw.sum()))
            new_keys = np.repeat(lo_edges, overdraw) + draw_slots
            keys = _sorted_distinct(np.concatenate([keys, new_keys]))
            have = (
                np.searchsorted(keys, hi_edges)
                - np.searchsorted(keys, lo_edges)
            )
            need = np.maximum(0, want - have)

        if (have > want).any():
            keys = _trim_segments(keys, rng.random(len(keys)), have, want)
        # The loop exits with ``have >= want`` per node, and a trim keeps
        # exactly ``want``; either way node j holds ``want[j]`` keys,
        # node-major, so the decode is a repeat rather than a division.
        node_parts.append(np.repeat(light_idx, want))
        slot_parts.append(keys - np.repeat(lo_edges, want))

    # Heavy nodes: sample the complement, then invert with a mask.
    heavy_idx = np.flatnonzero(heavy)
    if len(heavy_idx):
        comp_counts = np.zeros(n, dtype=np.int64)
        comp_counts[heavy_idx] = length - counts[heavy_idx]
        comp_nodes, comp_slots = _distinct_positions_batch(
            rng, length, comp_counts
        )
        nodes, slots = _invert_complement(
            heavy_idx, length, comp_nodes, comp_slots
        )
        node_parts.append(nodes)
        slot_parts.append(slots)

    if not node_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate(node_parts),
        np.concatenate(slot_parts).astype(np.int64),
    )


def sample_action_events(
    rng: np.random.Generator,
    length: int,
    send_probs: np.ndarray,
    send_kinds: np.ndarray,
    listen_probs: np.ndarray,
) -> tuple[SendEvents, ListenEvents]:
    """Sample every node's send and listen slots for one phase.

    The per-node, per-slot Bernoulli processes are sampled exactly but
    fully batched: one vectorised Binomial draw for the counts, then a
    batched uniform-subset draw for the positions (see
    :func:`_distinct_positions_batch`).  No Python-level loop over
    nodes — this is the engine's hottest path.

    Parameters
    ----------
    rng:
        Source of randomness (one stream for the whole phase; node
        streams need not be separated because the draws are independent
        by construction).
    length:
        Phase length in slots.
    send_probs / listen_probs:
        ``(n_nodes,)`` per-slot action probabilities.
    send_kinds:
        ``(n_nodes,)`` :class:`~repro.channel.events.TxKind` value each
        node transmits when it sends.

    Returns
    -------
    (SendEvents, ListenEvents)
        Sparse event sets, node-grouped.
    """
    send_probs = np.asarray(send_probs, dtype=np.float64)
    listen_probs = np.asarray(listen_probs, dtype=np.float64)
    send_kinds = np.asarray(send_kinds, dtype=np.int8)
    n = len(send_probs)
    if listen_probs.shape != (n,) or send_kinds.shape != (n,):
        raise SimulationError("send_probs, send_kinds, listen_probs length mismatch")
    if ((send_probs < 0) | (send_probs > 1)).any() or (
        (listen_probs < 0) | (listen_probs > 1)
    ).any():
        raise SimulationError("action probabilities must lie in [0, 1]")

    send_counts = rng.binomial(length, send_probs)
    send_nodes, send_slots = _distinct_positions_batch(rng, length, send_counts)
    sends = (
        SendEvents(send_nodes, send_slots, send_kinds[send_nodes])
        if len(send_nodes)
        else SendEvents.empty()
    )

    listen_counts = rng.binomial(length, listen_probs)
    listen_nodes, listen_slots = _distinct_positions_batch(
        rng, length, listen_counts
    )
    listens = (
        ListenEvents(listen_nodes, listen_slots)
        if len(listen_nodes)
        else ListenEvents.empty()
    )
    return sends, listens


#: Positions budget marking the array-bound regime.  A batch that
#: degenerates to a single drawing trial gains nothing from the global
#: key axis and is handed to the serial helper; past this scale even
#: the bookkeeping constants stop mattering (the dispatch tests build
#: such a trial to pin the regimes against each other).
_LOCKSTEP_MAX_WANT = 512


def _lockstep_light_subsets(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    counts2d: np.ndarray,
    lock: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Global-axis uniform subsets for the light regime, many trials at
    once.

    ``counts2d[lock[i]]`` are trial ``lock[i]``'s per-node wants, every
    entry in the light regime (``<= lengths[lock[i]] // 2``) and at
    least one positive.  Per trial the rng call sequence — one
    ``integers`` draw per rejection round while the trial still needs
    positions, one ``random`` draw if it trims — and the emitted
    (node, slot) order match :func:`_distinct_positions_batch`'s light
    path exactly, which is what pins per-trial streams under batching.
    All deterministic processing — dedup, counting, trimming — runs
    once on a global key axis: trial ``i`` owns keys
    ``[K_i, K_i + n * L_i)``, so one sort-dedup resolves every
    trial's rejection round at once, and per-trial segments of the
    sorted global array equal the trials' serial results.
    """
    nt = len(lock)
    L = lengths[lock]
    C = counts2d[lock]
    n = C.shape[1]
    uniform_l = int(L[0]) if (L == L[0]).all() else 0
    # Row-major nonzero is trial-major with nodes ascending — the
    # construction order the serial per-trial scans produce.
    tr, nd = np.nonzero(C)
    # Global key layout: trial i's (node, slot) pairs map injectively to
    # [K[i], K[i] + n * L_i); bases[j] is light node j's key origin.
    dom = n * L
    K = np.zeros(nt, dtype=np.int64)
    np.cumsum(dom[:-1], out=K[1:])
    bases = K[tr] + nd * L[tr]
    trial_of = tr
    want = C[tr, nd]
    # Every key lands in some light node's range, so per-node counts are
    # differences of boundary positions — searching the few node edges
    # into the big sorted key array is O(n log K), not O(K log n).
    edges = np.append(bases, K[-1] + dom[-1])

    keys = np.empty(0, dtype=np.int64)
    need = want.copy()
    have = np.zeros(len(bases), dtype=np.int64)
    while True:
        need_per_trial = np.bincount(
            trial_of, weights=need, minlength=nt
        ).astype(np.int64)
        act_node = need_per_trial[trial_of] > 0
        if not act_node.any():
            break
        # Serial semantics: an active trial overdraws for *all* its
        # light nodes each round (satisfied nodes included), so the
        # per-trial draw sizes — and hence the rng streams — match.
        od = (need + need // 16 + 4)[act_node]
        nd_per_trial = np.bincount(
            trial_of[act_node], weights=od, minlength=nt
        ).astype(np.int64)
        slot_parts = [
            rngs[lock[i]].integers(0, L[i], int(nd_per_trial[i]))
            for i in np.flatnonzero(nd_per_trial)
        ]
        new_keys = np.repeat(bases[act_node], od) + np.concatenate(slot_parts)
        keys = _sorted_distinct(np.concatenate([keys, new_keys]))
        have = np.diff(np.searchsorted(keys, edges))
        need = np.maximum(0, want - have)

    # Trim surpluses per trial, only in trials that would trim serially
    # (untrimmed trials keep sorted-key order; trimmed ones keep the
    # serial tie-break rank order, both of which downstream content
    # resolution depends on for bit-identity).
    trial_trim = np.zeros(nt, dtype=bool)
    over = have > want
    if over.any():
        trial_trim[trial_of[over]] = True
    any_trim = bool(trial_trim.any())
    t_edges = np.append(K, K[-1] + dom[-1])
    kept = np.empty(0, dtype=np.int64)
    kept_bounds = np.zeros(nt + 1, dtype=np.int64)
    if any_trim:
        # Keys are sorted on a trial-major axis, so each trial is a
        # contiguous slice between its two edges — splitting into the
        # trimmed/untrimmed halves is slicing, never a per-key search.
        tb = np.searchsorted(keys, t_edges)
        sizes = np.diff(tb)
        trim_ids = np.flatnonzero(trial_trim)
        keys_sub = np.concatenate(
            [keys[tb[i]:tb[i + 1]] for i in trim_ids]
        )
        rand = np.concatenate(
            [rngs[lock[i]].random(int(sizes[i])) for i in trim_ids]
        )
        # The trimmed trials' light nodes, in key order, are exactly the
        # segments of ``keys_sub``: every node of a trimmed trial holds
        # at least its ``want >= 1`` keys.
        node_mask = trial_trim[trial_of]
        want_m = want[node_mask]
        kept = _trim_segments(keys_sub, rand, have[node_mask], want_m)
        # ``kept`` is node-major (hence trial-major) and the rejection
        # loop only exits once every node holds at least ``want`` keys,
        # so each trimmed node keeps exactly ``want`` — per-trial kept
        # counts follow without touching the keys.
        per_trial = np.bincount(
            trial_of[node_mask], weights=want_m, minlength=nt
        ).astype(np.int64)
        np.cumsum(per_trial, out=kept_bounds[1:])
        untrimmed = np.concatenate(
            [keys[tb[i]:tb[i + 1]]
             for i in np.flatnonzero(~trial_trim)]
        ) if not trial_trim.all() else np.empty(0, dtype=np.int64)
    else:
        untrimmed = keys
    # Both sources are trial-major, so each trial's result is a
    # contiguous segment; sorted ``untrimmed`` segments come from one
    # boundary search of the trial edges.  Decoding keys back to
    # (node, slot) runs once over each whole source array, and the
    # per-trial results are zero-copy views of the decoded arrays.
    un_bounds = np.searchsorted(untrimmed, t_edges)

    def _decode(src: np.ndarray, bounds: np.ndarray):
        owner = np.repeat(np.arange(nt), np.diff(bounds))
        rel = src - K[owner]
        if uniform_l:
            nodes = rel // uniform_l
            return nodes, rel - nodes * uniform_l
        l_of = L[owner]
        nodes = rel // l_of
        return nodes, rel - nodes * l_of

    un_nodes, un_slots = _decode(untrimmed, un_bounds)
    if any_trim:
        kp_nodes, kp_slots = _decode(kept, kept_bounds)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(nt):
        if trial_trim[i]:
            lo, hi = kept_bounds[i], kept_bounds[i + 1]
            out.append((kp_nodes[lo:hi], kp_slots[lo:hi]))
        else:
            lo, hi = un_bounds[i], un_bounds[i + 1]
            out.append((un_nodes[lo:hi], un_slots[lo:hi]))
    return out


def _distinct_positions_multi(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    counts2d: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-trial uniform subsets, batched across B trials.

    Trial ``t`` draws ``counts2d[t, u]`` distinct slots of
    ``[0, lengths[t])`` for each node ``u`` — with *exactly* the rng call
    sequence of B independent :func:`_distinct_positions_batch` calls.
    Entropy stays per-trial (each trial's generator sees the same draws
    it would serially), while the deterministic bookkeeping is shared
    across trials by :func:`_lockstep_light_subsets` on whole ``(B, n)``
    arrays — the regime split, lock selection, and want layout are all
    2-D array ops, so per-phase Python cost does not scale with B.

    Heavy nodes (count > length/2, the complement-sampling regime) ride
    the same machinery: serially each trial samples its light nodes
    first and then the complements of its heavy nodes, and since every
    trial owns its own generator, running one lockstep pass over all
    trials' light nodes followed by a second over all complements
    preserves each generator's call order exactly.  Complements are
    light by construction, so the second pass never recurses.  A batch
    that degenerates to one drawing trial goes straight to the serial
    helper — which *is* the reference stream, so the dispatch is
    invisible in the output.
    """
    B = len(rngs)
    counts2d = np.asarray(counts2d, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    out: list = [empty] * B
    todo = np.flatnonzero(counts2d.any(axis=1))
    if not len(todo):
        return out
    if len(todo) == 1:
        t = int(todo[0])
        out[t] = _distinct_positions_batch(
            rngs[t], int(lengths[t]), counts2d[t]
        )
        return out

    heavy2d = counts2d > (lengths // 2)[:, None]
    light2d = np.where(heavy2d, 0, counts2d)
    comp2d = np.where(heavy2d, lengths[:, None] - counts2d, 0)
    heavy_any = heavy2d.any(axis=1)
    light_lock = np.flatnonzero(light2d.any(axis=1))
    comp_lock = np.flatnonzero(comp2d.any(axis=1))
    light_res = (
        _lockstep_light_subsets(rngs, lengths, light2d, light_lock)
        if len(light_lock) else []
    )
    comp_res = (
        _lockstep_light_subsets(rngs, lengths, comp2d, comp_lock)
        if len(comp_lock) else []
    )
    light_pos = np.full(B, -1, dtype=np.int64)
    light_pos[light_lock] = np.arange(len(light_lock))
    comp_pos = np.full(B, -1, dtype=np.int64)
    comp_pos[comp_lock] = np.arange(len(comp_lock))

    for t in todo:
        light = light_res[light_pos[t]] if light_pos[t] >= 0 else None
        if not heavy_any[t]:
            out[t] = light
            continue
        comp = comp_res[comp_pos[t]] if comp_pos[t] >= 0 else empty
        nodes, slots = _invert_complement(
            np.flatnonzero(heavy2d[t]), int(lengths[t]), *comp
        )
        if light is None:
            out[t] = (nodes, slots)
        else:
            out[t] = (
                np.concatenate([light[0], nodes]),
                np.concatenate([light[1], slots]),
            )
    return out


def _binomial_rows(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    probs: np.ndarray,
) -> np.ndarray:
    """Draw ``counts[t, i] ~ Binomial(lengths[t], probs[t, i])`` row by row.

    For small node counts the element-wise scalar draws beat NumPy's
    array-``p`` broadcast path by ~7x (the array path re-runs its
    parameter set-up per element); both consume the per-trial stream
    identically — ``Generator.binomial`` draws element-by-element in C
    order for array ``p`` — so the choice never changes the sampled
    counts.
    """
    B, n = probs.shape
    counts = np.empty((B, n), dtype=np.int64)
    if n <= 8:
        for t in range(B):
            g = rngs[t]
            length = int(lengths[t])
            row = probs[t]
            for i in range(n):
                counts[t, i] = g.binomial(length, float(row[i]))
    else:
        for t in range(B):
            counts[t] = rngs[t].binomial(int(lengths[t]), probs[t])
    return counts


def sample_action_events_batch(
    rngs: list[np.random.Generator],
    lengths,
    send_probs_list: list[np.ndarray],
    send_kinds_list: list[np.ndarray],
    listen_probs_list: list[np.ndarray],
    validate: bool = True,
) -> list[tuple[SendEvents, ListenEvents]]:
    """Sample B trials' phases at once; bit-identical per trial to B
    :func:`sample_action_events` calls.

    Each trial keeps its own generator and sees the serial call order —
    send Binomial, send positions, listen Binomial, listen positions —
    so per-trial streams are unchanged by batching; the deterministic
    subset-selection work is shared across trials via
    :func:`_distinct_positions_multi`.

    Parameters mirror :func:`sample_action_events`, one row per trial:
    each of ``send_probs_list`` / ``send_kinds_list`` /
    ``listen_probs_list`` is a ``(B, n)`` array or a length-B sequence
    of ``(n,)`` rows (trials in a batch share ``n_nodes``);
    ``lengths`` is a ``(B,)`` int array of phase lengths (trials in a
    lockstep batch may sit in different epochs).  ``validate=False``
    skips the shape/range checks for callers whose inputs are already
    validated (the engine's batch specs); it never changes the sampled
    events.

    The engine's channel stage reuses this sampler unchanged: events
    are drawn on *real* slots from each trial's ``protocol`` stream,
    and only afterwards does the stage filter half-duplex conflicts and
    hop the survivors onto virtual slots from the separate per-trial
    ``hopping`` streams — so the draws made here are identical whether
    the phase later resolves on one channel or many.

    Returns one ``(SendEvents, ListenEvents)`` pair per trial.
    """
    B = len(rngs)
    lengths = np.asarray(lengths, dtype=np.int64)
    try:
        send_probs = np.asarray(send_probs_list, dtype=np.float64)
        listen_probs = np.asarray(listen_probs_list, dtype=np.float64)
        send_kinds = np.asarray(send_kinds_list, dtype=np.int8)
    except ValueError as exc:
        raise SimulationError(
            "trials in a batch must share n_nodes"
        ) from exc
    if validate:
        if (
            send_probs.ndim != 2
            or listen_probs.shape != send_probs.shape
            or send_kinds.shape != send_probs.shape
        ):
            raise SimulationError(
                "send_probs, send_kinds, listen_probs length mismatch"
            )
        if ((send_probs < 0) | (send_probs > 1)).any() or (
            (listen_probs < 0) | (listen_probs > 1)
        ).any():
            raise SimulationError("action probabilities must lie in [0, 1]")

    n = send_probs.shape[1]
    send_counts = _binomial_rows(rngs, lengths, send_probs)
    send_pos = _distinct_positions_multi(rngs, lengths, send_counts)
    listen_counts = _binomial_rows(rngs, lengths, listen_probs)
    listen_pos = _distinct_positions_multi(rngs, lengths, listen_counts)

    results = []
    for t in range(B):
        send_nodes, send_slots = send_pos[t]
        sends = (
            SendEvents._from_arrays(
                send_nodes, send_slots, send_kinds[t][send_nodes]
            )
            if len(send_nodes)
            else SendEvents.empty()
        )
        listen_nodes, listen_slots = listen_pos[t]
        listens = (
            ListenEvents._from_arrays(listen_nodes, listen_slots)
            if len(listen_nodes)
            else ListenEvents.empty()
        )
        results.append((sends, listens))
    return results
