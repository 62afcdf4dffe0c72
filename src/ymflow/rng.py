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

The rounds run on the four counter words separately, each at its own
broadcast shape: the block index as a column over blocks, the two mode
words as rows over modes, the last word a zero scalar.  The first two
rounds mix only those small arrays; the state takes the full (blocks,
modes) shape from round 2 on.  The output words, and hence the draws, are
the ones the full counter array would give: this changes the cost, not
the packing.
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


def _mulhilo(limbs, b):
    """High and low words of the full 64x64 -> 128 bit product of the
    constant with limbs (m, m_lo, m_hi) and b, via 32-bit limbs in
    wrapping uint64."""
    m, m_lo, m_hi = limbs
    u = b & _MASK32                                    # b_lo
    hi = b >> _S32                                     # b_hi
    t = u * m_lo
    t >>= _S32
    t += hi * m_lo                                     # m_lo b_hi + (m_lo b_lo >> 32)
    u *= m_hi
    u += t & _MASK32
    u >>= _S32                                         # (m_hi b_lo + (t & mask)) >> 32
    t >>= _S32
    hi *= m_hi
    hi += t
    hi += u
    return hi, b * m


def _philox_rounds(c0, c1, c2, c3, k0, k1):
    """The ten Philox4x64 rounds on counter words c0..c3 and key words
    k0, k1, uint64 arrays that broadcast against each other; returns the
    four output words.

    Each word keeps its own shape until a round mixes it with another, so
    words that vary along different axes stay small through the first
    rounds and reach the broadcast shape only from round 2 on.
    """
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0_LIMBS, c0)
            hi1, lo1 = _mulhilo(_M1_LIMBS, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return c0, c1, c2, c3


def philox4x64_10(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64 with 10 rounds.

    counter: uint64 array (..., 4); key: uint64 array (..., 2), broadcast
    against counter's leading shape.  Returns uint64 (..., 4).  Matches
    numpy's Philox bit generator blockwise (tested against it).
    """
    counter = np.asarray(counter, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    words = _philox_rounds(*(counter[..., i] for i in range(4)),
                           key[..., 0], key[..., 1])
    return np.stack(np.broadcast_arrays(*words), axis=-1)


def _to_u32(v: np.ndarray) -> np.ndarray:
    """Two's-complement map of small signed ints into uint64-held uint32."""
    return np.asarray(v, dtype=np.int64).astype(np.uint32).astype(np.uint64)


def mode_gaussians(seed: int, stream: int, modes: np.ndarray, count: int,
                   tag: int = TAG_COMPONENT) -> np.ndarray:
    """Standard normal draws, word-major: shape (count, n_modes).

    modes: integer array (n_modes, 3).  Column i is a pure function of
    (seed, stream, modes[i], tag); columns never share Philox blocks.
    ``count`` may be odd (the spare Box-Muller output is discarded
    deterministically).  Row w holds draw w of every mode, so a sampler
    reshapes the rows into its components without a strided copy.
    """
    modes = np.asarray(modes, dtype=np.int64)
    if modes.ndim == 1:
        modes = modes[None, :]
    n_modes = modes.shape[0]
    blocks = (count + 3) // 4

    word1 = (_to_u32(modes[:, 0]) << _S32) | _to_u32(modes[:, 1])
    word2 = (_to_u32(modes[:, 2]) << _S32) | np.uint64(tag & 0xFFFFFFFF)
    # counter words: blocks down a (blocks, 1) column, modes along a
    # (1, n_modes) row, so each output word of one block is a row
    words = _philox_rounds(
        np.arange(blocks, dtype=np.uint64)[:, None], word1[None], word2[None],
        np.uint64(0), np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
        np.uint64(stream & 0xFFFFFFFFFFFFFFFF))

    # words (0, 1) of block b give draws 4b and 4b + 1, words (2, 3) the next two
    z = np.empty((blocks, 4, n_modes))
    for j in (0, 2):
        u0, u1 = ((w >> _S11).astype(np.float64) * _INV53 for w in words[j:j + 2])
        # radius from 1-u in (0, 1] keeps the log finite
        r = np.sqrt(-2.0 * np.log1p(-u0))
        theta = (2.0 * np.pi) * u1
        np.multiply(r, np.cos(theta), out=z[:, j])
        np.multiply(r, np.sin(theta), out=z[:, j + 1])
    return z.reshape(4 * blocks, n_modes)[:count]
