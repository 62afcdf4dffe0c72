"""Reference helpers that only the tests use: loop rewrites, algebra
projection, the free-field two-point diagnostic and the samplers as first
written (zero-filled cubes and three-index scatters).

None of them is on a pipeline path, so they live here rather than in the
package; each is checked against the package code it shadows.
"""

from dataclasses import dataclass

import numpy as np

from ymflow.fields import SpectralConnection, mode_grids
from ymflow.gff import _frames, canonical_half_modes
from ymflow.groups import GroupSpec
from ymflow.rng import TAG_COMPONENT, mode_gaussians
from ymflow.wilson import FieldEvaluator, Loop, make_loop


# ---------------------------------------------------------------------------
# loops


def reparametrize(loop: Loop, subdivision: int) -> Loop:
    """Insert subdivision-1 evenly spaced vertices inside every segment;
    the image is unchanged."""
    if subdivision < 1:
        raise ValueError("subdivision must be >= 1")
    verts = [loop.vertices[0]]
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        for s in range(1, subdivision + 1):
            verts.append(p + (q - p) * (s / subdivision))
    return make_loop(np.asarray(verts), loop.winding, name=loop.name)


def reverse_loop(loop: Loop) -> Loop:
    return make_loop(loop.vertices[::-1], -loop.winding, name=loop.name + "-rev")


def format_loop_file(loops) -> str:
    """The loop-file text that parse_loop_file reads back to ``loops``."""
    out = []
    for lp in loops:
        out.append(f"loop {lp.name}")
        for v in lp.vertices:
            out.append("vertex " + " ".join(f"{c:.17g}" for c in v))
        out.append("winding " + " ".join(str(int(m)) for m in lp.winding))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Lie algebra


def project_algebra(m: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Nearest algebra element in Frobenius norm: skew-Hermitian part,
    minus the trace part for SU(N)."""
    m = np.asarray(m, dtype=complex)
    skew = 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))
    if spec.kind == "su":
        n = spec.matrix_dim
        tr = np.trace(skew, axis1=-2, axis2=-1) / n
        skew = skew - tr[..., None, None] * np.eye(n)
    return skew


def algebra_defect(x: np.ndarray, spec: GroupSpec) -> float:
    """Max-entry distance from the algebra (skew-Hermitian, traceless
    for SU(N))."""
    return float(np.max(np.abs(np.asarray(x) - project_algebra(x, spec))))


# ---------------------------------------------------------------------------
# covariance diagnostics


@dataclass
class CovarianceReport:
    pairs: list
    predicted: np.ndarray
    empirical: np.ndarray
    standard_error: np.ndarray
    max_sigma_deviation: float


def _truncated_green(cutoff: int, delta: np.ndarray) -> float:
    """sum over 0 < |n|_inf <= N of e^(i 2 pi n.delta)/|n|^2 (real)."""
    n1, n2, n3 = mode_grids(cutoff)
    nsq = (n1**2 + n2**2 + n3**2).astype(float)
    mask = nsq > 0
    phase = np.exp(1j * 2.0 * np.pi * (n1 * delta[0] + n2 * delta[1] + n3 * delta[2]))
    return float(np.sum(np.where(mask, phase / np.where(mask, nsq, 1.0), 0.0)).real)


def _transverse_green(cutoff: int, delta: np.ndarray, j: int, k: int,
                      coupling: float) -> float:
    """Coulomb ensemble covariance of components (j, k) at separation
    delta: sum_n e^(i 2 pi n.delta) g^2/(16 pi^2 |n|^2) (delta_jk -
    n_j n_k / |n|^2)."""
    n1, n2, n3 = mode_grids(cutoff)
    n = (n1, n2, n3)
    nsq = (n1**2 + n2**2 + n3**2).astype(float)
    mask = nsq > 0
    safe = np.where(mask, nsq, 1.0)
    proj = (1.0 if j == k else 0.0) - n[j] * n[k] / safe
    phase = np.exp(1j * 2.0 * np.pi * (n1 * delta[0] + n2 * delta[1] + n3 * delta[2]))
    weight = coupling**2 / (16.0 * np.pi**2 * safe)
    return float(np.sum(np.where(mask, phase * weight * proj, 0.0)).real)


def covariance_diagnostic(samples, pairs, kind: str = "gff",
                          coupling: float = 1.0,
                          components=None) -> CovarianceReport:
    """Empirical two-point function against the truncated series.

    samples: list of SpectralConnection (>= 1000 for meaningful errors);
    pairs: list of (x, y) point pairs; components: list of (a, j, b, k)
    component picks, defaulting to ((0, 0, 0, 0),).  kind 'gff' compares
    against the plain truncated Green's function (diagonal in components);
    'u1_coulomb' against its transverse projection.
    """
    samples = list(samples)
    if len(samples) < 1000:
        raise ValueError("need at least 1000 samples for the diagnostic")
    cutoff = samples[0].cutoff
    if components is None:
        components = ((0, 0, 0, 0),)
    points = []
    for x, y in pairs:
        points.append(np.asarray(x, dtype=float))
        points.append(np.asarray(y, dtype=float))
    points = np.stack(points)
    prods = []
    for s in samples:
        vals = FieldEvaluator(s).coefficients_at(points)
        row = []
        for ip in range(len(pairs)):
            for (a, j, b, k) in components:
                row.append(vals[a, j, 2 * ip] * vals[b, k, 2 * ip + 1])
        prods.append(row)
    prods = np.asarray(prods)
    emp = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(len(samples))
    pred = []
    for ip, (x, y) in enumerate(pairs):
        delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        for (a, j, b, k) in components:
            if kind == "gff":
                val = _truncated_green(cutoff, delta) if (a == b and j == k) else 0.0
            elif kind == "u1_coulomb":
                val = _transverse_green(cutoff, delta, j, k, coupling)
            else:
                raise ValueError(f"unknown ensemble kind {kind!r}")
            pred.append(val)
    pred = np.asarray(pred)
    sigma_dev = np.abs(emp - pred) / np.where(se > 0, se, 1e-300)
    return CovarianceReport(list(pairs), pred, emp, se, float(sigma_dev.max()))


# ---------------------------------------------------------------------------
# samplers as first written: a zero-filled cube, each drawn mode and its
# reflection scattered in with three index arrays


def _dense_fill(values: np.ndarray, n_mod: np.ndarray, cutoff: int) -> np.ndarray:
    """values (..., H) on the half modes n_mod, conjugates on -n_mod,
    zeros elsewhere: (..., K, K, K)."""
    k = 2 * cutoff + 1
    coeffs = np.zeros(values.shape[:-1] + (k, k, k), dtype=complex)
    ix, iy, iz = (n_mod + cutoff).T
    coeffs[..., ix, iy, iz] = values
    coeffs[..., k - 1 - ix, k - 1 - iy, k - 1 - iz] = np.conj(values)
    return coeffs


def sample_gff_dense(config) -> SpectralConnection:
    d = config.group.algebra_dim
    n_mod = canonical_half_modes(config.cutoff)
    z = mode_gaussians(config.seed, config.stream, n_mod, 6 * d, TAG_COMPONENT)
    z = z.reshape(len(n_mod), d, 3, 2)
    zc = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    zc /= np.linalg.norm(n_mod, axis=1)[:, None, None]
    coeffs = _dense_fill(np.moveaxis(zc, 0, -1), n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs)


def sample_u1_coulomb_dense(config) -> SpectralConnection:
    n_mod = canonical_half_modes(config.cutoff)
    u1v, u2v = _frames(n_mod)
    z = mode_gaussians(config.seed, config.stream, n_mod, 4, TAG_COMPONENT)
    radius_sq = np.sum(n_mod.astype(float) ** 2, axis=1)
    sigma = config.coupling / np.sqrt(32.0 * np.pi**2 * radius_sq)
    z = z * sigma[:, None]
    z1 = z[:, 0] + 1j * z[:, 1]
    z2 = z[:, 2] + 1j * z[:, 3]
    stored = -1j * (z1[:, None] * u1v + z2[:, None] * u2v)      # (H, 3)
    coeffs = _dense_fill(stored.T, n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs[None])
