"""Random initial data: free-field samplers with mode-keyed randomness.

Two ensembles are provided.  The plain Gaussian free field draws one
standard complex Gaussian per (basis index, direction, mode) and scales it
by 1/|n|.  The U(1) Coulomb ensemble draws the two transverse complex
amplitudes of each mode with variance g^2/(32 pi^2 |n|^2) per real
component, so the sampled field is divergence-free by construction, not
just in expectation.

Randomness is keyed by (seed, stream, mode): the cutoff enters only by
selecting which modes are filled in, so the cutoff-N field is exactly the
restriction of the cutoff-N' field for N < N' at equal (seed, stream).
That coupling is what turns distributional convergence statements into
per-seed (pathwise) checks.

Mode bookkeeping: exactly one of n, -n is drawn, namely the
representative whose first nonzero coordinate is positive; the reflected
coefficient is filled in by the reality (respectively the U(1)
anti-reality) symmetry.  In the C-order flattened K^3 mode cube
(K = 2N+1) the flat index of n is c + n1 K^2 + n2 K + n3 with c the
centre, whose sign is that of the first nonzero coordinate of n: the
drawn modes, in lexicographic order, fill the flat indices above the
centre one after the other, and their reflections fill the ones below it
in reverse.  So the samplers write three contiguous slices of a fresh
array and need no index table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import SpectralConnection
from .groups import GroupSpec
from .rng import TAG_COMPONENT, mode_gaussians

__all__ = [
    "SamplerConfig",
    "canonical_half_modes",
    "transverse_frame",
    "sample_gff",
    "sample_u1_coulomb",
]


@dataclass(frozen=True)
class SamplerConfig:
    group: GroupSpec
    cutoff: int
    seed: int
    stream: int = 0
    coupling: float = 1.0

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")


@lru_cache(maxsize=None)
def canonical_half_modes(cutoff: int) -> np.ndarray:
    """All n with 0 < |n|_inf <= cutoff whose first nonzero coordinate is
    positive, in lexicographic order; int array (H, 3).  These are the
    modes at the flat C-order indices above the cube's centre, so the
    table is the upper half of the index grid, stored direction-major
    (each component one contiguous column)."""
    k = 2 * cutoff + 1
    grid = np.indices((k, k, k)).reshape(3, -1)
    out = (grid[:, (k**3 + 1) // 2:] - cutoff).T
    out.setflags(write=False)
    return out


def _frames(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames (u1, u2), each (3, H), of canonical integer rows h (H, 3):
    v = h x e1 = (0, h3, -h2), or h x e2 = (0, 0, h1) where that vanishes,
    and w = h x v, normalized.  The components are integers up to the
    normalization, so the squared norms are exact."""
    h1, h2, h3 = h.T
    v3 = np.where((h2 == 0) & (h3 == 0), h1, -h2)
    v = np.stack([np.zeros_like(h1), h3, v3])
    w = np.stack([h2 * v3 - h3 * h3, -h1 * v3, h1 * h3])
    return tuple(x / np.sqrt(np.sum(x * x, axis=0).astype(float)) for x in (v, w))


def transverse_frame(n) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (u1, u2) spanning the plane orthogonal to n.

    Built from integer cross products of the canonical representative of
    {n, -n}, so u(-n) = u(n) holds exactly and the dot products n.u are
    exact zeros in floating point.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.shape != (3,) or not n.any():
        raise ValueError("need a nonzero integer 3-vector")
    h = -n if n[np.flatnonzero(n)[0]] < 0 else n
    u1, u2 = _frames(h[None])
    return u1[:, 0], u2[:, 0]


@lru_cache(maxsize=None)
def _frames_for(cutoff: int):
    """transverse_frame of every canonical half mode, in one pass: u1 and
    u2 each (3, H), one contiguous row per direction."""
    u1, u2 = _frames(canonical_half_modes(cutoff))
    u1.setflags(write=False)
    u2.setflags(write=False)
    return u1, u2


@lru_cache(maxsize=None)
def _coulomb_denominators(cutoff: int) -> np.ndarray:
    """sqrt(32 pi^2 |n|^2) of every canonical half mode, (H,): the Coulomb
    standard deviation at coupling g is g over it."""
    radius_sq = np.sum(canonical_half_modes(cutoff).astype(float) ** 2, axis=1)
    out = np.sqrt(32.0 * np.pi**2 * radius_sq)
    out.setflags(write=False)
    return out


def _mirror_filled(upper: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficients (..., K, K, K) whose canonical half modes carry upper
    (..., H): the zero mode is 0 and each reflected mode -n the conjugate
    of n, written as slices of the flattened cube."""
    k = 2 * cutoff + 1
    h = upper.shape[-1]
    flat = np.empty(upper.shape[:-1] + (k**3,), dtype=complex)
    flat[..., h + 1:] = upper
    flat[..., h] = 0.0
    np.conjugate(flat[..., :h:-1], out=flat[..., :h])
    return flat.reshape(upper.shape[:-1] + (k, k, k))


def sample_gff(config: SamplerConfig) -> SpectralConnection:
    """g^3-valued Gaussian free field at the configured cutoff.

    Coefficient of component (a, j) at a drawn mode n is Z^a_j(n)/|n| with
    Z standard complex Gaussian; the zero mode vanishes.  The coupling
    constant does not enter this ensemble.
    """
    d = config.group.algebra_dim
    n_mod = canonical_half_modes(config.cutoff)
    z = mode_gaussians(config.seed, config.stream, n_mod, 6 * d, TAG_COMPONENT)
    z = z.reshape(d, 3, 2, len(n_mod))
    zc = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)  # E|Z|^2 = 1
    zc /= np.linalg.norm(n_mod, axis=1)
    coeffs = _mirror_filled(zc, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs)


def sample_u1_coulomb(config: SamplerConfig) -> SpectralConnection:
    """Coulomb-gauge U(1) Gaussian ensemble at coupling g.

    Each drawn mode carries Z_n = Z^1_n u^1_n + Z^2_n u^2_n with the four
    real components i.i.d. N(0, g^2/(32 pi^2 |n|^2)); the stored component
    coefficient is -i Z_n so that the field values are real multiples of
    the basis element [i] (equivalently, the matrix-valued field lies in
    i R).  n . Z_n = 0 termwise, hence d* of the output vanishes at the
    rounding level.
    """
    if config.group.kind != "u1":
        raise ValueError("the Coulomb-gauge ensemble is U(1)-only")
    n_mod = canonical_half_modes(config.cutoff)
    u1v, u2v = _frames_for(config.cutoff)
    z = mode_gaussians(config.seed, config.stream, n_mod, 4, TAG_COMPONENT)
    sigma = config.coupling / _coulomb_denominators(config.cutoff)
    z = z * sigma
    z1 = z[0] + 1j * z[1]
    z2 = z[2] + 1j * z[3]
    zn = z1 * u1v + z2 * u2v                         # (3, H), the i R part
    stored = -1j * zn                                # component convention
    coeffs = _mirror_filled(stored, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs[None])
