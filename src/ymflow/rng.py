"""Counter-based Gaussian draws keyed by (seed, stream, Fourier mode).

The generator is Philox4x64-10 evaluated directly as a pure function of a
256-bit counter and a 128-bit key, vectorized over modes with numpy
integer arithmetic.  Gaussians come from Box-Muller applied to the 53-bit
uniforms carved out of the raw 64-bit words.  Because every mode owns its
own counter block, the draw for mode n depends only on (seed, stream, n):
truncating a field at a smaller cutoff reproduces the larger field's
coefficients exactly, which is what makes coupled-cutoff comparisons
pathwise meaningful.

The word packing is fixed and documented here:

    counter = (block, n1 << 32 | n2, n3 << 32 | tag, 0)
    key     = (seed, stream)

with the mode components mapped to uint32 two's complement and ``tag``
discriminating independent draw families.  Only tag 0 (TAG_COMPONENT,
the per-component field draws) is in use; the transverse frames of the
Coulomb sampler are deterministic functions of the mode.  ``block``
enumerates successive 256-bit blocks when a mode needs more than four
words.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox4x64_10", "mode_gaussians", "TAG_COMPONENT"]

TAG_COMPONENT = 0

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV53 = float(2.0 ** -53)


# each multiplier with its low and high 32-bit limbs
_M0_LIMBS = (_M0, _M0 & _MASK32, _M0 >> _S32)
_M1_LIMBS = (_M1, _M1 & _MASK32, _M1 >> _S32)


def _mulhilo(limbs, b, hi, t, u, v):
    """Full 64x64 -> 128 bit product of the constant with limbs (m, m_lo,
    m_hi) and b, via 32-bit limbs in wrapping uint64: the high word goes
    to ``hi`` and the low word overwrites b; t, u and v are scratch."""
    m, m_lo, m_hi = limbs
    np.bitwise_and(b, _MASK32, out=u)                  # b_lo
    np.right_shift(b, _S32, out=hi)                    # b_hi
    np.multiply(u, m_lo, out=t)
    t >>= _S32
    np.multiply(hi, m_lo, out=v)
    t += v                                             # m_lo b_hi + (m_lo b_lo >> 32)
    u *= m_hi
    np.bitwise_and(t, _MASK32, out=v)
    u += v
    u >>= _S32                                         # (m_hi b_lo + (t & mask)) >> 32
    t >>= _S32
    hi *= m_hi
    hi += t
    hi += u
    b *= m


def philox4x64_10(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64 with 10 rounds.

    counter: uint64 array (..., 4); key: uint64 array (..., 2), broadcast
    against counter's leading shape.  Returns uint64 (..., 4).  Matches
    numpy's Philox bit generator blockwise (tested against it).
    """
    counter = np.asarray(counter, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    c0, c1, c2, c3 = (counter[..., i].copy() for i in range(4))
    k0, k1 = key[..., 0], key[..., 1]     # scalars for a 1-D key, else broadcast
    hi0, hi1, t, u, v = (np.empty_like(c0) for _ in range(5))
    with np.errstate(over="ignore"):
        for _ in range(10):
            _mulhilo(_M0_LIMBS, c0, hi0, t, u, v)     # c0 <- lo0
            _mulhilo(_M1_LIMBS, c2, hi1, t, u, v)     # c2 <- lo1
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= k1
            # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); c1, c3 become scratch
            c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
            k0 = k0 + _W0
            k1 = k1 + _W1
    return np.stack([c0, c1, c2, c3], axis=-1)


def _to_u32(v: np.ndarray) -> np.ndarray:
    """Two's-complement map of small signed ints into uint64-held uint32."""
    return np.asarray(v, dtype=np.int64).astype(np.uint32).astype(np.uint64)


def mode_gaussians(seed: int, stream: int, modes: np.ndarray, count: int,
                   tag: int = TAG_COMPONENT) -> np.ndarray:
    """Standard normal draws, shape (n_modes, count).

    modes: integer array (n_modes, 3).  The draw for row i is a pure
    function of (seed, stream, modes[i], tag); rows never share Philox
    blocks.  ``count`` may be odd (the spare Box-Muller output is
    discarded deterministically).
    """
    modes = np.asarray(modes, dtype=np.int64)
    if modes.ndim == 1:
        modes = modes[None, :]
    n_modes = modes.shape[0]
    n_pairs = (count + 1) // 2
    n_words = 2 * n_pairs
    blocks_per_mode = (n_words + 3) // 4

    word1 = (_to_u32(modes[:, 0]) << _S32) | _to_u32(modes[:, 1])
    word2 = (_to_u32(modes[:, 2]) << _S32) | np.uint64(tag & 0xFFFFFFFF)

    counter = np.zeros((n_modes, blocks_per_mode, 4), dtype=np.uint64)
    counter[..., 0] = np.arange(blocks_per_mode, dtype=np.uint64)
    counter[..., 1] = word1[:, None]
    counter[..., 2] = word2[:, None]
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    key[1] = np.uint64(stream & 0xFFFFFFFFFFFFFFFF)

    raw = philox4x64_10(counter, key).reshape(n_modes, 4 * blocks_per_mode)
    raw = raw[:, :n_words]
    u = (raw >> _S11).astype(np.float64) * _INV53
    u = u.reshape(n_modes, n_pairs, 2)
    # radius from 1-u in (0, 1] keeps the log finite
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = (2.0 * np.pi) * u[..., 1]
    z = np.empty((n_modes, 2 * n_pairs))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :count]
