"""Unit tests for canonical task fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.blocking import EpochTargetJammer, QBlockingJammer
from repro.cache.fingerprint import describe, fingerprint, task_key
from repro.errors import FingerprintError
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

pytestmark = pytest.mark.cache


def make_base(**overrides):
    kwargs = dict(
        kind="replicate",
        protocol=OneToOneBroadcast(OneToOneParams.sim()),
        adversary=EpochTargetJammer(14, q=1.0),
        sim_kwargs={},
        experiment="E1",
        quick=True,
    )
    kwargs.update(overrides)
    return fingerprint(**kwargs)


class TestDescribe:
    def test_scalars_and_containers(self):
        assert describe(3) == 3
        assert describe("x") == "x"
        assert describe(None) is None
        assert describe([1, (2, 3)]) == [1, [2, 3]]
        assert describe({"b": 1, "a": 2}) == ["dict", [["a", 2], ["b", 1]]]

    def test_float_round_trips_exactly(self):
        assert describe(0.1) == ["float", repr(0.1)]
        assert describe(float("nan")) == ["float", "nan"]
        assert describe(np.float64(0.1)) == describe(0.1)

    def test_ndarray_includes_dtype_and_shape(self):
        a32 = describe(np.zeros(3, dtype=np.int32))
        a64 = describe(np.zeros(3, dtype=np.int64))
        assert a32 != a64

    def test_dict_key_order_canonical(self):
        assert describe({"a": 1, "b": 2}) == describe({"b": 2, "a": 1})

    def test_objects_skip_private_state(self):
        # OneToOneBroadcast stashes a private _rng at construction; the
        # description must depend only on the public configuration.
        assert describe(OneToOneBroadcast(OneToOneParams.sim())) == describe(
            OneToOneBroadcast(OneToOneParams.sim())
        )

    def test_callables_rejected(self):
        with pytest.raises(FingerprintError):
            describe(lambda tags: True)
        # ... including ones buried inside an adversary.
        with pytest.raises(FingerprintError):
            describe(QBlockingJammer(0.5, predicate=lambda tags: True))

    def test_generators_rejected(self):
        with pytest.raises(FingerprintError):
            describe(np.random.default_rng(0))


class TestTaskKey:
    def test_stable_across_calls(self):
        assert task_key(make_base(), (0, 1)) == task_key(make_base(), (0, 1))

    def test_seed_path_separates_cells(self):
        base = make_base()
        assert task_key(base, (0, 1)) != task_key(base, (0, 2))
        assert task_key(base, (0, 1)) != task_key(base, (1000, 1))

    def test_params_separate_keys(self):
        a = make_base()
        b = make_base(adversary=EpochTargetJammer(15, q=1.0))
        c = make_base(protocol=OneToOneBroadcast(OneToOneParams.sim(epsilon=0.2)))
        d = make_base(quick=False)
        e = make_base(experiment="E4")
        f = make_base(sim_kwargs={"max_slots": 10})
        keys = {task_key(x, (0, 0)) for x in (a, b, c, d, e, f)}
        assert len(keys) == 6

    def test_engine_version_in_payload(self):
        from repro._version import __version__

        base = make_base()
        assert base["engine"] == __version__
        # Tampering with the version must change the key — that is the
        # invalidation rule for engine upgrades.
        assert task_key(base, (0, 0)) != task_key(
            dict(base, engine="0.0.0-other"), (0, 0)
        )

    def test_key_is_hex_sha256(self):
        key = task_key(make_base(), (0, 0))
        assert len(key) == 64
        int(key, 16)  # parses as hex


class TestLiteralKeyPins:
    """Keys a runner writes, pinned as literals: any change to the key
    composition (kind, simulator kwargs, describe forms, seed paths)
    turns every user's warm cache cold, and must show up here."""

    # replicate(OneToOne sim, EpochTargetJammer(12, q=1.0), 2, seed=0)
    # as experiment E1 (quick), single-channel.
    REPLICATE_KEYS = [
        "10eefe2ce2b1b74d73e1a3285b521eda7b03ad183ded97207737480578ab54bc",
        "9ebc28d73e9daa7da63692767810765cfd3bea61a2ce576ee8f0fcfa99b6e5a7",
    ]
    # replicate(CZ 16 nodes C=4, FractionJammer(0.15, max_total=2000),
    # 2, seed=0, n_channels=4, max_slots=2_000_000) as experiment E18.
    MC_REPLICATE_KEYS = [
        "d93a5e65db01e882a4e4ab48acc4ef53b9bdc353f816d2ed13cc8fd512cf232d",
        "8f979d8b26fa41611e1a01e02fe24e58203d532ff3a0e40ab7e96bcc6f47f930",
    ]

    class RecordingStore:
        """Wraps a real store, remembering every key written."""

        def __init__(self, root):
            from repro.cache.store import CacheStore

            self.inner = CacheStore(root)
            self.keys = []

        def get_many(self, keys):
            return self.inner.get_many(keys)

        def put(self, key, result, meta=None):
            self.keys.append(key)
            return self.inner.put(key, result, meta=meta)

    def _keys(self, tmp_path, experiment, batch, **replicate_kwargs):
        from repro.experiments.registry import RunConfig
        from repro.experiments.runner import replicate

        store = self.RecordingStore(tmp_path / f"b{batch}")
        config = RunConfig(
            cache=True, cache_store=store, experiment=experiment, batch=batch
        )
        replicate(n_reps=2, seed=0, config=config, **replicate_kwargs)
        return store.keys

    @pytest.mark.parametrize("batch", [1, 2])
    def test_replicate_keys(self, tmp_path, batch):
        keys = self._keys(
            tmp_path, "E1", batch,
            make_protocol=lambda: OneToOneBroadcast(OneToOneParams.sim()),
            make_adversary=lambda: EpochTargetJammer(12, q=1.0),
        )
        assert keys == self.REPLICATE_KEYS

    @pytest.mark.parametrize("batch", [1, 2])
    def test_multichannel_replicate_keys(self, tmp_path, batch):
        from repro.multichannel import CZBroadcast, CZParams, FractionJammer

        keys = self._keys(
            tmp_path, "E18", batch,
            make_protocol=lambda: CZBroadcast(
                CZParams.sim(n_nodes=16, n_channels=4)
            ),
            make_adversary=lambda: FractionJammer(0.15, max_total=2000),
            n_channels=4, max_slots=2_000_000,
        )
        assert keys == self.MC_REPLICATE_KEYS

    def test_mc_replicate_delegate_writes_the_same_keys(self, tmp_path):
        from repro.experiments.registry import RunConfig
        from repro.experiments.runner import mc_replicate
        from repro.multichannel import CZBroadcast, CZParams, FractionJammer

        store = self.RecordingStore(tmp_path)
        mc_replicate(
            lambda: CZBroadcast(CZParams.sim(n_nodes=16, n_channels=4)),
            lambda: FractionJammer(0.15, max_total=2000),
            2, 0, n_channels=4, max_slots=2_000_000,
            config=RunConfig(cache=True, cache_store=store, experiment="E18"),
        )
        assert store.keys == self.MC_REPLICATE_KEYS
