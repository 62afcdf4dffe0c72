import numpy as np

import pytest

from reference import mode_gaussians_modewise, philox4x64_10
from ymflow.fields import canonical_half_modes
from ymflow.rng import mode_gaussians


def test_philox_matches_numpy_bit_generator():
    # numpy's Philox increments the 256-bit counter before producing each
    # block, so block k of random_raw corresponds to counter + k + 1
    rng = np.random.default_rng(0)
    for _ in range(25):
        counter = rng.integers(0, 2**63, size=4, dtype=np.uint64)
        key = rng.integers(0, 2**63, size=2, dtype=np.uint64)
        ref = np.random.Philox(counter=counter, key=key).random_raw(8)
        c1 = counter.copy()
        c1[0] += 1
        c2 = counter.copy()
        c2[0] += 2
        mine = np.concatenate([
            philox4x64_10(c1, key), philox4x64_10(c2, key),
        ])
        assert np.array_equal(mine, ref)


def test_philox_vectorized_equals_scalar():
    rng = np.random.default_rng(1)
    counters = rng.integers(0, 2**63, size=(40, 4), dtype=np.uint64)
    key = rng.integers(0, 2**63, size=2, dtype=np.uint64)
    batch = philox4x64_10(counters, key)
    for i in range(40):
        assert np.array_equal(batch[i], philox4x64_10(counters[i], key))


def test_mode_gaussians_deterministic_and_mode_keyed():
    modes = np.array([[1, 0, 0], [0, 2, -1], [-3, 1, 4]])
    a = mode_gaussians(7, 3, modes, 6)
    b = mode_gaussians(7, 3, modes, 6)
    assert np.array_equal(a, b)
    assert a.shape == (6, 3)
    # a column depends only on its own mode
    single = mode_gaussians(7, 3, modes[1:2], 6)
    assert np.array_equal(single[:, 0], a[:, 1])
    # a different seed or stream decorrelates
    assert not np.array_equal(a, mode_gaussians(8, 3, modes, 6))
    assert not np.array_equal(a, mode_gaussians(7, 4, modes, 6))


def test_mode_gaussians_odd_count_prefix():
    modes = np.array([[1, 2, 3]])
    full = mode_gaussians(5, 0, modes, 8)
    odd = mode_gaussians(5, 0, modes, 7)
    assert np.array_equal(odd, full[:7])


def test_mode_gaussians_moments():
    # 1e5 draws: mean within 5 SE of 0, variance within 5 SE of 1
    modes = np.stack([np.arange(1, 100001), np.zeros(100000, dtype=int),
                      np.zeros(100000, dtype=int)], axis=1)
    z = mode_gaussians(11, 0, modes, 2)[0]
    n = len(z)
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    var = z.var(ddof=1)
    assert abs(var - 1.0) < 5.0 * np.sqrt(2.0 / n)
    # finite and free of duplicates (a stuck counter would repeat values)
    assert np.all(np.isfinite(z))
    assert len(np.unique(z)) > n - 5


@pytest.mark.parametrize("count", [4, 7, 18, 48])
def test_mode_gaussians_match_modewise_reference_bitwise(count):
    # the broadcast-word rounds and word-major Box-Muller give the bits of
    # the full counter array run blockwise through philox4x64_10
    rng = np.random.default_rng(4)
    cases = [canonical_half_modes(c) for c in (1, 3, 8)]
    cases.append(rng.integers(-40, 41, size=(50, 3)))
    if count == 4:
        cases.append(canonical_half_modes(16))
    for modes in cases:
        for seed, stream in ((0, 0), (5, 1), (61, 7), (2**40 + 3, 2**33)):
            want = mode_gaussians_modewise(seed, stream, modes, count)
            got = mode_gaussians(seed, stream, modes, count)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
