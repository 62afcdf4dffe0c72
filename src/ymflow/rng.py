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


def _mulhilo(a, b):
    """Full 64x64 -> 128 bit product via 32-bit limbs (wrapping uint64)."""
    a_lo = a & _MASK32
    a_hi = a >> _S32
    b_lo = b & _MASK32
    b_hi = b >> _S32
    lo = a * b
    t = a_lo * b_hi + ((a_lo * b_lo) >> _S32)
    hi = a_hi * b_hi + (t >> _S32) + ((a_hi * b_lo + (t & _MASK32)) >> _S32)
    return hi, lo


def philox4x64_10(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64 with 10 rounds.

    counter: uint64 array (..., 4); key: uint64 array (..., 2), broadcast
    against counter's leading shape.  Returns uint64 (..., 4).  Matches
    numpy's Philox bit generator blockwise (tested against it).
    """
    counter = np.asarray(counter, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    c0 = counter[..., 0].copy()
    c1 = counter[..., 1].copy()
    c2 = counter[..., 2].copy()
    c3 = counter[..., 3].copy()
    k0 = np.broadcast_to(key[..., 0], c0.shape).copy()
    k1 = np.broadcast_to(key[..., 1], c0.shape).copy()
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
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
