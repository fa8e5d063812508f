"""Multichannel entry points on the one engine.

:class:`~repro.engine.simulator.Simulator` carries the channel axis
(``n_channels=C``, the virtual-slot reduction described in
:mod:`repro.engine.simulator`); this module keeps the positional
spelling :class:`MCSimulator`, the one-shot :func:`mc_run`, and the
hop-dilution correction :func:`hopping_rate_params`.
"""

from __future__ import annotations

import numpy as np

# perfbench/tests/test_harness.py checks that this module binds the
# sampler the tracer patches.
from repro.engine.sampling import sample_action_events  # noqa: F401
from repro.engine.simulator import RunResult, Simulator
from repro.errors import ConfigurationError
from repro.protocols.base import Protocol

__all__ = ["MCSimulator", "mc_run"]


class MCSimulator(Simulator):
    """The one engine, taking ``n_channels`` as a positional argument."""

    def __init__(self, protocol, adversary, n_channels: int, **kwargs) -> None:
        super().__init__(protocol, adversary, n_channels=n_channels, **kwargs)


def mc_run(
    protocol: Protocol,
    adversary,
    n_channels: int,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> RunResult:
    """One-shot run on ``n_channels`` channels."""
    return Simulator(protocol, adversary, n_channels=n_channels, **kwargs).run(seed)


def hopping_rate_params(params, n_channels: int):
    """Figure 1 parameters corrected for channel-hop dilution.

    Without shared hopping sequences (the paper's model has no shared
    secrets), Alice and Bob meet in a slot only when their independent
    hops coincide — probability ``1/C`` — so running Figure 1 unchanged
    on ``C`` channels silently degrades its ``1 - eps`` guarantee.
    Restoring the per-phase meeting rate requires boosting the action
    probability by ``sqrt(C)``, i.e. replacing ``ln(8/eps)`` with
    ``C * ln(8/eps)``; we do that by substituting the effective epsilon
    ``eps' = denom * (eps/denom)**C`` and raising the first epoch so the
    boosted probability stays below 1.

    The corrected protocol's costs grow by ``sqrt(C)`` — which is
    exactly what cancels the adversary's C-fold per-slot jamming bill
    (experiment E15's net-neutrality finding).
    """
    import dataclasses
    import math

    from repro.protocols.one_to_one import OneToOneParams

    if n_channels < 1:
        raise ConfigurationError(f"n_channels must be >= 1, got {n_channels}")
    if not isinstance(params, OneToOneParams):
        raise ConfigurationError(
            "hopping_rate_params currently supports OneToOneParams"
        )
    if n_channels == 1:
        return params
    denom = params.eps_denom
    eff_eps = denom * (params.epsilon / denom) ** n_channels
    # Keep p_i <= ~0.5 at the first epoch: 2^(i-1) >= 4 C ln(denom/eps).
    min_first = 1 + math.ceil(
        math.log2(4.0 * n_channels * math.log(denom / params.epsilon))
    )
    return dataclasses.replace(
        params,
        epsilon=eff_eps,
        first_epoch=max(params.first_epoch, min_first),
        max_epoch=max(params.max_epoch, max(params.first_epoch, min_first) + 20),
    )
