"""Shared builders for seeded random test data."""

import numpy as np

from gauge import GaugeTransform
from ymflow.groups import GroupSpec
from ymflow.verify import random_connection  # noqa: F401  (re-exported)


def random_gauge(group: GroupSpec, cutoff: int, amplitude: float,
                 seed: int) -> GaugeTransform:
    """Band-limited exp(xi) gauge transform with O(amplitude) log."""
    rng = np.random.default_rng(seed)
    k = 2 * cutoff + 1
    x = rng.normal(size=(group.algebra_dim, k, k, k)) \
        + 1j * rng.normal(size=(group.algebra_dim, k, k, k))
    x = 0.5 * (x + np.conj(x[:, ::-1, ::-1, ::-1]))
    return GaugeTransform.from_log(group, cutoff, x * amplitude)
