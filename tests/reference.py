"""Reference helpers that only the tests use: loop rewrites, the loop
Fourier table as an exponential difference, algebra projection, the
free-field two-point diagnostic, and the samplers, their mode table,
frames and Gaussian draws as first written (zero-filled cubes and
three-index scatters, a sorted mode grid, np.cross frames, one Philox
counter array per mode).

None of them is on a pipeline path, so they live here rather than in the
package; each is checked against the package code it shadows.
"""

from dataclasses import dataclass

import numpy as np

from ymflow.fields import SpectralConnection, mode_grids
from ymflow.groups import GroupSpec
from ymflow.rng import TAG_COMPONENT, philox4x64_10
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


def loop_fourier_expdiff(loop: Loop, cutoff: int) -> np.ndarray:
    """The loop Fourier table (3, K, K, K) with each segment p -> q
    integrated as (q - p) e^(i 2 pi n.p) (e^(i 2 pi n.(q-p)) - 1) /
    (i 2 pi n.(q-p)), and (q - p) e^(i 2 pi n.p) where n.(q-p) vanishes."""
    n1, n2, n3 = mode_grids(cutoff)
    nmat = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=1).astype(float)
    k = 2 * cutoff + 1
    out = np.zeros((3, nmat.shape[0]), dtype=complex)
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        delta = q - p
        n_dot_d = nmat @ delta
        head = np.exp(1j * 2.0 * np.pi * (nmat @ p))
        parallel = np.abs(n_dot_d) < 1e-14
        safe = np.where(parallel, 1.0, n_dot_d)
        ramp = (np.exp(1j * 2.0 * np.pi * n_dot_d) - 1.0) / (1j * 2.0 * np.pi * safe)
        ramp = np.where(parallel, 1.0, ramp)
        out += (head * ramp)[None, :] * delta[:, None]
    return out.reshape(3, k, k, k)


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
# samplers as first written: a sorted mode table, frames from np.cross,
# mode-major draws with one Philox counter array per mode, and a
# zero-filled cube into which each drawn mode and its reflection are
# scattered with three index arrays


def canonical_half_modes_sorted(cutoff: int) -> np.ndarray:
    """Modes whose first nonzero coordinate is positive, picked from the
    full mode grid and sorted lexicographically: (H, 3)."""
    axis = np.arange(-cutoff, cutoff + 1)
    n1, n2, n3 = np.meshgrid(axis, axis, axis, indexing="ij")
    modes = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=1)
    first_nonzero_positive = np.zeros(len(modes), dtype=bool)
    undecided = np.ones(len(modes), dtype=bool)
    for k in range(3):
        col = modes[:, k]
        first_nonzero_positive |= undecided & (col > 0)
        undecided &= col == 0
    half = modes[first_nonzero_positive]
    return half[np.lexsort((half[:, 2], half[:, 1], half[:, 0]))]


def mode_gaussians_modewise(seed: int, stream: int, modes: np.ndarray,
                            count: int, tag: int = TAG_COMPONENT) -> np.ndarray:
    """Mode-major Gaussian draws (n_modes, count): a full (n_modes,
    blocks, 4) counter array through philox4x64_10, Box-Muller on
    interleaved word pairs."""
    modes = np.atleast_2d(np.asarray(modes, dtype=np.int64))
    n_modes = modes.shape[0]
    n_pairs = (count + 1) // 2
    n_words = 2 * n_pairs
    blocks_per_mode = (n_words + 3) // 4
    n1, n2, n3 = modes.astype(np.uint32).astype(np.uint64).T   # two's complement
    counter = np.zeros((n_modes, blocks_per_mode, 4), dtype=np.uint64)
    counter[..., 0] = np.arange(blocks_per_mode, dtype=np.uint64)
    counter[..., 1] = ((n1 << np.uint64(32)) | n2)[:, None]
    counter[..., 2] = ((n3 << np.uint64(32)) | np.uint64(tag & 0xFFFFFFFF))[:, None]
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    raw = philox4x64_10(counter, key).reshape(n_modes, 4 * blocks_per_mode)
    raw = raw[:, :n_words]
    u = (raw >> np.uint64(11)).astype(np.float64) * float(2.0 ** -53)
    u = u.reshape(n_modes, n_pairs, 2)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = (2.0 * np.pi) * u[..., 1]
    z = np.empty((n_modes, 2 * n_pairs))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :count]


def frames_crossed(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames (u1, u2), each (H, 3), of canonical integer rows h (H, 3):
    v = h x e1, or h x e2 where that vanishes, and w = h x v, normalized."""
    v = np.cross(h, [1, 0, 0])
    parallel = ~v.any(axis=1)
    v[parallel] = np.cross(h[parallel], [0, 1, 0])
    w = np.cross(h, v)
    u1 = v / np.linalg.norm(v, axis=1, keepdims=True)
    u2 = w / np.linalg.norm(w, axis=1, keepdims=True)
    return u1, u2


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
    n_mod = canonical_half_modes_sorted(config.cutoff)
    z = mode_gaussians_modewise(config.seed, config.stream, n_mod, 6 * d, TAG_COMPONENT)
    z = z.reshape(len(n_mod), d, 3, 2)
    zc = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    zc /= np.linalg.norm(n_mod, axis=1)[:, None, None]
    coeffs = _dense_fill(np.moveaxis(zc, 0, -1), n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs)


def sample_u1_coulomb_dense(config) -> SpectralConnection:
    n_mod = canonical_half_modes_sorted(config.cutoff)
    u1v, u2v = frames_crossed(n_mod)
    z = mode_gaussians_modewise(config.seed, config.stream, n_mod, 4, TAG_COMPONENT)
    radius_sq = np.sum(n_mod.astype(float) ** 2, axis=1)
    sigma = config.coupling / np.sqrt(32.0 * np.pi**2 * radius_sq)
    z = z * sigma[:, None]
    z1 = z[:, 0] + 1j * z[:, 1]
    z2 = z[:, 2] + 1j * z[:, 3]
    stored = -1j * (z1[:, None] * u1v + z2[:, None] * u2v)      # (H, 3)
    coeffs = _dense_fill(stored.T, n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs[None])
