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
per-seed (pathwise) checks.  For the same reason one per-mode kernel
(_stored) draws either ensemble at any list of modes, each value bit for
bit the full draw's; the samplers fill in its full list.  Its per-mode
tables (modes, norms, frames, Coulomb scales; _mode_tables) are built
once per mode list by an ensemble's streams, and per call by a single
draw.

Mode bookkeeping: of n and -n only the canonical half mode is drawn
(fields.canonical_half_modes, the flat cube's upper half); the reflected
coefficient is filled in by the reality (respectively the U(1)
anti-reality) symmetry.  So one filler (_filled) writes three contiguous
slices of a fresh array (fields._mirrored) and needs no index table; it
also rescales the field to a given H^1 norm (_h1_factor, from the half
modes), refusing a NaN, infinite or nonpositive one.  The two samplers,
sample_initial (either sampler for one (seed, stream)) and every flowed
ensemble member build their fields through it; exact U(1) reads take the
half modes directly.
The seed, coupling and scale rules are raised here alone (_check_seed,
_check_coupling, _check_scale); the spec and the configuration call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import SpectralConnection, _mirrored, canonical_half_modes, half_norm_sq
from .groups import GroupSpec
from .rng import mode_gaussians

__all__ = [
    "SamplerConfig",
    "sample_gff",
    "sample_initial",
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
        _check_coupling(self.coupling)
        _check_seed(self.seed, self.stream)


# NaN fails every comparison, so each check asks for the good range
def _check_coupling(coupling: float) -> None:
    """Refuse a NaN, infinite or nonpositive coupling."""
    if not 0.0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")


def _check_seed(seed: int, stream: int = 0) -> None:
    """Refuse a seed or stream outside [0, 2^64): the Philox key words are
    64 bits wide, so a value outside would draw the field of the value it
    wraps to."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def _check_scale(scale_to_h1: float | None) -> None:
    """Refuse a NaN, infinite or nonpositive H^1 scale (None: no rescale)."""
    if scale_to_h1 is not None and not 0.0 < scale_to_h1 < math.inf:
        raise ValueError(f"scale_to_h1 must be finite and positive, got {scale_to_h1}")


def _check_sampler(kind: str, group: GroupSpec) -> None:
    """Refuse an unknown sampler kind, and u1_coulomb off U(1)."""
    if kind not in ("gff", "u1_coulomb"):
        raise ValueError(f"unknown sampler kind {kind!r}")
    if kind == "u1_coulomb" and group.kind != "u1":
        raise ValueError(f"u1_coulomb requires group u1, got {group.label()}")


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


class _ModeTables(NamedTuple):
    """Per-mode sampler tables of a list of canonical half modes, each
    read-only: the modes (M, 3), |n| (M,), the transverse frames u1 and u2
    (3, M) and the Coulomb denominators sqrt(32 pi^2 |n|^2) (M,)."""

    modes: np.ndarray
    norms: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    denominators: np.ndarray


def _mode_tables(modes: np.ndarray) -> _ModeTables:
    """_ModeTables of the canonical half modes ``modes`` (M, 3), built on
    those modes alone: every entry depends on its own mode only, so a
    sub-list's tables are bit for bit the gathered tables of a longer
    list."""
    modes = np.asarray(modes).view()       # read-only view, the caller's stays
    radius_sq = np.sum(modes.astype(float) ** 2, axis=1)
    out = _ModeTables(modes, np.linalg.norm(modes, axis=1), *_frames(modes),
                      np.sqrt(32.0 * np.pi**2 * radius_sq))
    for x in out:
        x.setflags(write=False)
    return out


def _filled(group: GroupSpec, cutoff: int, upper: np.ndarray,
            scale_to_h1: float | None = None) -> SpectralConnection:
    """The field whose canonical half modes of cutoff carry upper (d, 3, H):
    the zero mode is 0 and each reflected mode -n the conjugate of n,
    written as slices of the flattened cube (_mirrored).  When scale_to_h1
    is given, a nonzero field is rescaled to that H^1 norm (_h1_factor)."""
    factor = _h1_factor(upper, cutoff, scale_to_h1)
    if factor is not None:
        upper = upper * factor
    k = 2 * cutoff + 1
    return SpectralConnection(group, cutoff,
                              _mirrored(upper).reshape(upper.shape[:-1] + (k, k, k)))


def _h1_factor(upper: np.ndarray, cutoff: int, scale_to_h1: float | None):
    """The factor scale_to_h1 / h1_norm of the field whose canonical half
    modes of cutoff carry upper (d, 3, H), or None when there is nothing
    to rescale (no scale, or a zero field).  The norm's terms are formed
    per half mode and mirrored, so it is h1_norm of the filled cube bit
    for bit; the rescaled field is the filled one times the factor."""
    _check_scale(scale_to_h1)
    if scale_to_h1 is None:
        return None
    weight = 1.0 + 4.0 * np.pi**2 * half_norm_sq(cutoff)
    norm = float(np.sqrt(np.sum(_mirrored(weight * np.abs(upper) ** 2))))
    return scale_to_h1 / norm if norm > 0 else None


def sample_gff(config: SamplerConfig) -> SpectralConnection:
    """g^3-valued Gaussian free field at the configured cutoff (_stored)."""
    return _filled(config.group, config.cutoff, _stored("gff", config))


def sample_u1_coulomb(config: SamplerConfig) -> SpectralConnection:
    """Coulomb-gauge U(1) Gaussian ensemble at coupling g (_stored); d* of
    the output vanishes at the rounding level."""
    return _filled(config.group, config.cutoff, _stored("u1_coulomb", config))


def sample_initial(group: GroupSpec, sampler_kind: str, cutoff: int, seed: int,
                   stream: int = 0, coupling: float = 1.0,
                   scale_to_h1: float | None = None) -> SpectralConnection:
    """Draw the initial field of one (seed, stream) at this cutoff with the
    ``sampler_kind`` sampler ('gff' or 'u1_coulomb') and, when scale_to_h1
    is given, rescale it to that H^1 norm."""
    cfg = SamplerConfig(group, cutoff, seed=seed, stream=stream, coupling=coupling)
    return _filled(group, cutoff, _stored(sampler_kind, cfg), scale_to_h1)


def _stored(kind: str, config: SamplerConfig, tables: _ModeTables | None = None
            ) -> np.ndarray:
    """Stored coefficients (d, 3, M) of the ``kind`` draw at the modes of
    ``tables`` (_mode_tables of a list of canonical half modes; all of the
    cutoff's when None), each bit for bit the full draw's: the Philox
    words, Box-Muller, frames and scales are all per mode.

    gff: the coefficient of component (a, j) at n is Z^a_j(n)/|n| with Z
    standard complex Gaussian; the coupling constant does not enter.

    u1_coulomb: each mode carries Z_n = Z^1_n u^1_n + Z^2_n u^2_n with the
    four real components i.i.d. N(0, g^2/(32 pi^2 |n|^2)); the stored
    component coefficient is -i Z_n so that the field values are real
    multiples of the basis element [i] (equivalently, the matrix-valued
    field lies in i R).  n . Z_n = 0 termwise.
    """
    _check_sampler(kind, config.group)
    if tables is None:
        tables = _mode_tables(canonical_half_modes(config.cutoff))
    n_mod = tables.modes
    if kind == "gff":
        d = config.group.algebra_dim
        z = mode_gaussians(config.seed, config.stream, n_mod, 6 * d)
        z = z.reshape(d, 3, 2, len(n_mod))
        zc = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)  # E|Z|^2 = 1
        return zc / tables.norms
    z = mode_gaussians(config.seed, config.stream, n_mod, 4)
    z = z * (config.coupling / tables.denominators)
    z1 = z[0] + 1j * z[1]
    z2 = z[2] + 1j * z[3]
    zn = z1 * tables.u1 + z2 * tables.u2             # (3, M), the i R part
    return -1j * zn[None]                            # component convention
