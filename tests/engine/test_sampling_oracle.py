"""Differential oracle for the uniform-subset sampler.

:func:`repro.engine.sampling._distinct_positions_batch` trims surplus
rejection draws with a composite-key ``argsort`` (``lexsort`` past
1023 segments) and decodes keys with ``repeat``.  Those are exact
rewrites of the reference below, which trims with ``np.lexsort`` and
decodes with ``//`` and ``%``.  Every stored baseline depends on the
sampler's streams, so the contract is total: identical arrays in
identical order, and an identical generator state afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import sampling
from repro.engine.sampling import (
    _distinct_positions_batch,
    _distinct_positions_multi,
    _invert_complement,
    _sorted_distinct,
)

pytestmark = pytest.mark.engine


def reference_distinct_positions(rng, length, counts):
    """The lexsort-trim sampler, kept verbatim as the oracle."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    heavy = counts > length // 2

    node_parts: list[np.ndarray] = []
    slot_parts: list[np.ndarray] = []

    light_idx = np.flatnonzero(~heavy & (counts > 0))
    if len(light_idx):
        want = counts[light_idx]
        keys = np.empty(0, dtype=np.int64)
        need = want.copy()
        while True:
            total = int(need.sum())
            if total == 0:
                break
            overdraw = need + need // 16 + 4
            draw_nodes = np.repeat(light_idx, overdraw)
            draw_slots = rng.integers(0, length, int(overdraw.sum()))
            keys = _sorted_distinct(
                np.concatenate([keys, draw_nodes * length + draw_slots])
            )
            have = np.bincount(keys // length, minlength=n)[light_idx]
            need = np.maximum(0, want - have)

        nodes_all = keys // length
        have = np.bincount(nodes_all, minlength=n)[light_idx]
        if (have > want).any():
            order = np.lexsort((rng.random(len(keys)), nodes_all))
            starts = np.zeros(len(light_idx), dtype=np.int64)
            np.cumsum(have[:-1], out=starts[1:])
            seg_of = np.repeat(np.arange(len(light_idx)), have)
            rank = np.arange(len(keys)) - starts[seg_of]
            keep_sorted = rank < want[seg_of]
            keys = keys[order[keep_sorted]]
            nodes_all = keys // length
        node_parts.append(nodes_all)
        slot_parts.append(keys % length)

    heavy_idx = np.flatnonzero(heavy)
    if len(heavy_idx):
        comp_counts = np.zeros(n, dtype=np.int64)
        comp_counts[heavy_idx] = length - counts[heavy_idx]
        comp_nodes, comp_slots = reference_distinct_positions(
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


def make_counts(
    length: int, n: int, seed: int, heavy_frac: float, zero_frac: float = 0.2
):
    """Per-node counts over ``[0, length]``: about ``heavy_frac`` of the
    nodes heavy (``> length // 2``), about ``zero_frac`` zero, the rest
    light."""
    g = np.random.default_rng(seed)
    counts = g.integers(0, length // 2 + 1, n)
    heavy = g.random(n) < heavy_frac
    counts[heavy] = g.integers(length // 2 + 1, length + 1, int(heavy.sum()))
    counts[g.random(n) < zero_frac] = 0
    return counts


def assert_same_as_reference(length, counts, seed):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    nodes, slots = _distinct_positions_batch(rng_new, length, counts)
    ref_nodes, ref_slots = reference_distinct_positions(rng_ref, length, counts)
    assert nodes.dtype == ref_nodes.dtype and slots.dtype == ref_slots.dtype
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(slots, ref_slots)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(1, 300),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    heavy_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_matches_reference(length, n, seed, heavy_frac):
    counts = make_counts(length, n, seed, heavy_frac)
    assert_same_as_reference(length, counts, seed)


@settings(max_examples=25, deadline=None)
@given(
    length=st.integers(2, 24),
    n=st.integers(1200, 1400),
    seed=st.integers(0, 2**32 - 1),
    heavy_frac=st.sampled_from([0.0, 0.05]),
)
def test_matches_reference_past_composite_key_range(length, n, seed, heavy_frac):
    """More than 1023 light segments take the lexsort branch."""
    counts = make_counts(length, n, seed, heavy_frac, zero_frac=0.0)
    counts[counts == 0] = 1
    assert ((counts > 0) & (counts <= length // 2)).sum() > 1023
    assert_same_as_reference(length, counts, seed)


def test_trim_and_no_trim_draws_both_match(monkeypatch):
    """Tiny phases sometimes draw exactly ``want`` distinct slots and
    skip the trim (and its ``random`` call); both outcomes must match."""
    trims = []
    real = sampling._trim_segments

    def spy(*args):
        trims.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(sampling, "_trim_segments", spy)
    trimmed = untrimmed = 0
    for seed in range(64):
        before = len(trims)
        assert_same_as_reference(2, np.array([1, 0, 1]), seed)
        if len(trims) > before:
            trimmed += 1
        else:
            untrimmed += 1
    assert trimmed and untrimmed


def test_lexsort_branch_taken(monkeypatch):
    """The >1023-segment case really reaches the lexsort fallback."""
    calls = []
    real = np.lexsort
    monkeypatch.setattr(
        sampling.np, "lexsort", lambda keys: calls.append(1) or real(keys)
    )
    assert_same_as_reference(16, np.full(1100, 3), 7)
    assert calls


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(2, 5),
    heavy_frac=st.sampled_from([0.0, 0.3]),
)
def test_multi_trial_matches_reference(n, seed, n_trials, heavy_frac):
    """The lockstep sampler shares the trim helper; each trial must
    still equal its own reference call."""
    g = np.random.default_rng(seed)
    lengths = g.choice([1, 2, 8, 32, 64], n_trials)
    counts2d = np.stack(
        [
            make_counts(int(lengths[t]), n, seed + t, heavy_frac)
            for t in range(n_trials)
        ]
    )
    rngs = [np.random.default_rng(seed + 1000 + t) for t in range(n_trials)]
    out = _distinct_positions_multi(rngs, lengths, counts2d)
    for t in range(n_trials):
        ref_rng = np.random.default_rng(seed + 1000 + t)
        ref_nodes, ref_slots = reference_distinct_positions(
            ref_rng, int(lengths[t]), counts2d[t]
        )
        np.testing.assert_array_equal(out[t][0], ref_nodes)
        np.testing.assert_array_equal(out[t][1], ref_slots)
        assert rngs[t].bit_generator.state == ref_rng.bit_generator.state
