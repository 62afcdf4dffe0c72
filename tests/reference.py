"""Reference helpers that only the tests use: d* of a 1-form, the
closed-form U(1) action and the U(1) Coulomb projection, loop rewrites,
the dense loop Fourier table and the same table as an exponential
difference, the U(1) Wilson phase on the amplitude cube Z = i A as first
written, the record of a U(1) exact ensemble member and its observation
rows as first written (one integrate run and one h_series call per loop
on the filled field; one tuple per row), the convergence report's
fraction of seeds with decreasing deviations as first written (a Python
max per seed), Philox4x64-10 on explicit counter arrays, algebra
projection, the free-field two-point diagnostic, the samplers,
their mode table, frames and Gaussian draws as first written
(zero-filled cubes and three-index scatters, a sorted mode grid,
np.cross frames, one Philox counter array per mode), and the YM/ZDDS
flow as first written on the full (K, K, K) spectrum.

None of them is on a pipeline path, so they live here rather than in the
package; each is checked against the package code it shadows.
"""

from dataclasses import dataclass

import numpy as np

from ymflow.ensemble import EnsembleRecord, _member_record
from ymflow.fields import (
    TWO_PI,
    SpectralConnection,
    _Workspace,
    _action_of,
    _cyclic_interior,
    _d_star,
    _dft_plan,
    _full_spectrum,
    _grid_bracket,
    _sup_of,
    _u1_actions,
    dealias_resolution,
    heat_weights,
    mode_grids,
    mode_norm_sq,
)
from ymflow.flow import (MAX_STEPS, MONOTONE_TOL, FlowTrajectory, _nonlinear_core,
                         _phi_funcs, integrate)
from ymflow.groups import GroupSpec
from ymflow.rng import _philox_rounds
from ymflow.wilson import (FieldEvaluator, Loop, _loop_table, h_series, make_loop,
                           u1_values)


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


def loop_fourier_coefficients(loop: Loop, cutoff: int) -> np.ndarray:
    """The dense loop Fourier table c_n of wilson._loop_table at every mode
    of the cutoff, shape (3, K, K, K), built afresh on every call."""
    k = 2 * cutoff + 1
    return _loop_table(loop, cutoff, slice(None)).reshape(3, k, k, k)


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


def u1_amplitudes(a: SpectralConnection) -> np.ndarray:
    """i R-convention Fourier data Z_n = i c(n) of a U(1) field, (3, K^3
    cube); satisfies Z(-n) = -conj(Z(n)) because the stored component
    coefficients satisfy c(-n) = conj(c(n))."""
    if a.group.kind != "u1":
        raise ValueError("U(1) fields only")
    return 1j * a.coeffs[0]


def h_series_amplitudes(a: SpectralConnection, loop: Loop, times) -> np.ndarray:
    """The U(1) phase at each of times as first written: the imaginary
    part of sum_n e^(-4 pi^2 |n|^2 t) Z_n . c_n on the amplitude cube,
    its real part checked to vanish."""
    z = u1_amplitudes(a)
    table = loop_fourier_coefficients(loop, a.cutoff)
    per_mode = z[0] * table[0] + z[1] * table[1] + z[2] * table[2]
    weights = heat_weights(a.cutoff, times)
    sums = weights.reshape(len(weights), -1) @ per_mode.reshape(-1, 1).view(float)
    assert np.all(np.abs(sums[:, 0]) <= 1e-9 * (1.0 + np.abs(sums[:, 1])))
    return sums[:, 1].copy()


def member_record(spec, stream: int, a0: SpectralConnection, config_hash: str):
    """ensemble._member_record, and for a u1_exact spec the member's record
    as first written: one integrate run from the filled field a0, and
    Wilson values in closed form from one h_series call per loop; the
    oracle of the per-mode read-out of ensemble._exact_members."""
    if spec.flow.flow_kind != "u1_exact":
        return _member_record(spec, stream, a0, config_hash)
    traj = integrate(a0, spec.flow, spec.times)
    return EnsembleRecord(
        seed=spec.seed, stream=stream, cutoff=a0.cutoff, group=spec.group.label(),
        g=spec.coupling, s_ym={t: traj.actions.get(t) for t in spec.times},
        wilson=u1_values([h_series(a0, lp, spec.times) for lp in spec.loops],
                         spec.loops, spec.characters, spec.times),
        attained_time=traj.attained_time, blew_up=traj.blew_up,
        config_hash=config_hash,
    )


def record_rows(rec):
    """The record's observation rows as first written, each a tuple in
    ensemble.RECORD_FIELDS order: the rows persist_records writes as
    json.dumps of their dicts and export_csv through csv.writer."""
    tail = (rec.attained_time, rec.blew_up, rec.config_hash)
    for t in sorted(rec.s_ym):
        head = (rec.seed, rec.stream, rec.cutoff, rec.group, rec.g, t, rec.s_ym[t])
        pairs = sorted((lp, ch) for (lp, ch, tt) in rec.wilson if tt == t)
        if not pairs:
            yield head + (None, None, None, None) + tail
        for lp, ch in pairs:
            w = rec.wilson[(lp, ch, t)]
            yield head + (lp, ch, w.real, w.imag) + tail


def decreasing_fraction(records, spec, reference) -> float:
    """The decreasing_fraction of ensemble.distribution_convergence_report
    as first written: per seed and cutoff the largest |W_member - W_ref|
    over every (loop, character, t), taken one Python max at a time
    (a NaN deviation is skipped), and the fraction of seeds whose largest
    deviation strictly decreases along the cutoffs."""
    streams = sorted({rec.stream for rec in records})
    by_member = {(rec.stream, rec.cutoff): rec for rec in records}
    dev_by_seed = {s: [] for s in streams}
    for m in sorted({rec.cutoff for rec in records}):
        per_seed = {s: 0.0 for s in streams}
        for lp in spec.loops:
            for ch in spec.characters:
                for t in spec.times:
                    key = (lp.name, ch.label(), t)
                    for s in streams:
                        dev = abs(by_member[(s, m)].wilson[key] - reference[s][key])
                        per_seed[s] = max(per_seed[s], dev)
        for s in streams:
            dev_by_seed[s].append(per_seed[s])
    decreasing = sum(1 for s in streams
                     if all(a > b for a, b in zip(dev_by_seed[s], dev_by_seed[s][1:])))
    return decreasing / len(streams)


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
# spectral 1-forms: d*, the closed-form U(1) action and the U(1) Coulomb
# projection


def d_star_1form(a: SpectralConnection) -> np.ndarray:
    """d*A = -sum_i d_i A_i, mode-wise -i 2 pi n . A(n): the coefficients
    (d_g, K, K, K) of the g-valued 0-form."""
    n = a.cutoff
    return _full_spectrum(_d_star(a.coeffs[..., n:], n))


def ym_action_u1_spectral(a: SpectralConnection) -> float:
    """Closed-form U(1) action 8 pi^2 sum_n (|n|^2 |A(n)|^2 - |n.A(n)|^2)."""
    if a.group.kind != "u1":
        raise ValueError("spectral action formula is U(1)-only")
    return float(_u1_actions(a.coeffs[0], a.cutoff))


def coulomb_project_u1(a: SpectralConnection) -> SpectralConnection:
    """Unique divergence-free gauge representative: kill the zero mode and
    subtract (A(n).n) n / |n|^2 mode-wise."""
    if a.group.kind != "u1":
        raise ValueError("Coulomb projection implemented for U(1) only")
    n = mode_grids(a.cutoff)
    c = a.coeffs.copy()
    nsq = mode_norm_sq(a.cutoff).copy()
    nsq[a.cutoff, a.cutoff, a.cutoff] = 1.0  # avoid 0/0; zero mode handled below
    dot = (n[0] * c[:, 0] + n[1] * c[:, 1] + n[2] * c[:, 2]) / nsq
    for i in range(3):
        c[:, i] -= dot * n[i]
    c[:, :, a.cutoff, a.cutoff, a.cutoff] = 0.0
    return SpectralConnection(a.group, a.cutoff, c)


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


def mode_gaussians_modewise(seed: int, stream: int, modes: np.ndarray,
                            count: int) -> np.ndarray:
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
    counter[..., 2] = (n3 << np.uint64(32))[:, None]            # low half: tag 0
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
    z = mode_gaussians_modewise(config.seed, config.stream, n_mod, 6 * d)
    z = z.reshape(len(n_mod), d, 3, 2)
    zc = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    zc /= np.linalg.norm(n_mod, axis=1)[:, None, None]
    coeffs = _dense_fill(np.moveaxis(zc, 0, -1), n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs)


def sample_u1_coulomb_dense(config) -> SpectralConnection:
    n_mod = canonical_half_modes_sorted(config.cutoff)
    u1v, u2v = frames_crossed(n_mod)
    z = mode_gaussians_modewise(config.seed, config.stream, n_mod, 4)
    radius_sq = np.sum(n_mod.astype(float) ** 2, axis=1)
    sigma = config.coupling / np.sqrt(32.0 * np.pi**2 * radius_sq)
    z = z * sigma[:, None]
    z1 = z[:, 0] + 1j * z[:, 1]
    z2 = z[:, 2] + 1j * z[:, 3]
    stored = -1j * (z1[:, None] * u1v + z2[:, None] * u2v)      # (H, 3)
    coeffs = _dense_fill(stored.T, n_mod, config.cutoff)
    return SpectralConnection(config.group, config.cutoff, coeffs[None])


# ---------------------------------------------------------------------------
# the flow on the full spectrum: every pass and every stage works on the
# whole (d, 3, K, K, K) cube, the n3 < 0 half recomputed alongside its
# mirror.  The package flow runs on the n3 >= 0 half and must equal this
# byte for byte.


def nonlinear_pass(a: SpectralConnection, deturck: bool, diagnostics: bool = True):
    """The package's half-spectrum nonlinear pass of a full-cube
    connection, its output mirrored back to the full cube."""
    n = a.cutoff
    nl, action, sup = _nonlinear_core(a.coeffs[..., n:], _Workspace(a.group, n, deturck),
                                      diagnostics)
    return _full_spectrum(nl), action, sup


def _half_to_values_full(half, cutoff, resolution):
    synth, _, synth3, _ = _dft_plan(cutoff, resolution)
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(synth, half.reshape(-1, k, h))
    g = np.matmul(synth, g.reshape(-1, k, m * h))
    values = np.matmul(g.view(float).reshape(-1, 2 * h), synth3)
    return values.reshape(half.shape[:-3] + (m, m, m))


def _values_to_spectral_full(values, cutoff, resolution):
    _, analysis, _, analysis3 = _dft_plan(cutoff, resolution)
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(values.reshape(-1, m), analysis3)
    g = np.matmul(analysis, g.view(complex).reshape(-1, m, m * h))
    upper = np.matmul(analysis, g.reshape(-1, m, h))
    upper = upper.reshape(values.shape[:-3] + (k, k, h))
    lower = np.conj(upper[..., ::-1, ::-1, :0:-1])
    return np.concatenate([lower, upper], axis=-1)


def _curl_full(c: np.ndarray, cutoff: int) -> np.ndarray:
    """(curl c)_k = i 2 pi (n_i c_j - n_j c_i) over cyclic (i, j, k) on
    full-cube stacks (d, 3, K, K, K)."""
    n = mode_grids(cutoff)
    out = np.empty_like(c)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        out[:, k] = (1j * TWO_PI) * (n[i] * c[:, j] - n[j] * c[:, i])
    return out


def _d_star_full(c, cutoff):
    n = mode_grids(cutoff)
    return (-1j * TWO_PI) * (n[0] * c[:, 0] + n[1] * c[:, 1] + n[2] * c[:, 2])


def _grad_full(f, cutoff):
    n = mode_grids(cutoff)
    return np.stack([(1j * TWO_PI) * n[i] * f for i in range(3)], axis=1)


def nonlinear_full_spectrum(a: SpectralConnection, deturck: bool,
                            diagnostics: bool = True):
    """(right-hand side minus the Laplacian term, S_YM, sup|A|) with
    every spectral array on the full cube."""
    group, n = a.group, a.cutoff
    m = dealias_resolution(n)
    c = a.coeffs
    if group.is_abelian:
        nl = np.zeros_like(c) if deturck else _grad_full(_d_star_full(c, n), n)
        if not diagnostics:
            return nl, None, None
    rows = 7 if deturck and not group.is_abelian else 6
    half = np.empty((group.algebra_dim, rows) + c.shape[2:4] + (n + 1,), dtype=complex)
    half[:, :3] = c[..., n:]
    half[:, 3:6] = _curl_full(c, n)[..., n:]
    if rows == 7:
        half[:, 6] = _d_star_full(c, n)[..., n:]
    grids = _half_to_values_full(half, n, m)
    avals = grids[:, :3]
    sup = _sup_of(avals) if diagnostics else None
    if group.is_abelian:
        return nl, _action_of(grids[:, 3:]), sup
    ab = np.empty((group.algebra_dim, 2, 5) + (m, m, m))
    a5, b5 = ab[:, 0], ab[:, 1]
    a5[:, :3] = avals
    b5[:, :3] = grids[:, 3:6]
    a5[:, 3:] = a5[:, :2]
    half_aa = _grid_bracket(a5[:, 1:4], a5[:, 2:5], group)
    b5[:, :3] += half_aa
    action = _action_of(b5[:, :3]) if diagnostics else None
    b5[:, 3:] = b5[:, :2]
    nl = _curl_full(_values_to_spectral_full(half_aa, n, m), n)
    inner = _cyclic_interior(group, ab)
    if deturck:
        inner += _grid_bracket(a5[:, :3], grids[:, 6:], group)
    nl += _values_to_spectral_full(inner, n, m)
    np.negative(nl, out=nl)
    if not deturck:
        nl += _grad_full(_d_star_full(c, n), n)
    return nl, action, sup


class _FullStepper:
    """The ETDRK3 tableau of one (cutoff, dt) on the full cube."""

    def __init__(self, cutoff: int, dt: float):
        lam = -4.0 * np.pi**2 * mode_norm_sq(cutoff)
        z = dt * lam
        p1, p2, p3 = _phi_funcs(z)
        p1h, _, _ = _phi_funcs(0.5 * z)
        self.e_full = np.exp(z)
        self.e_half = np.exp(0.5 * z)
        self.f_half = 0.5 * dt * p1h
        self.f_full = dt * p1
        self.w0 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.wa = dt * (4.0 * p2 - 8.0 * p3)
        self.wb = dt * (-p2 + 4.0 * p3)
        self.e0 = dt * (p1 - 2.0 * p2)
        self.ea = dt * (2.0 * p2)

    def step(self, a: SpectralConnection, n0: np.ndarray, deturck: bool):
        u = a.coeffs
        stage_a = SpectralConnection(a.group, a.cutoff, self.e_half * u + self.f_half * n0)
        na = nonlinear_full_spectrum(stage_a, deturck, diagnostics=False)[0]
        stage_b = SpectralConnection(
            a.group, a.cutoff, self.e_full * u + self.f_full * (2.0 * na - n0))
        nb = nonlinear_full_spectrum(stage_b, deturck, diagnostics=False)[0]
        u3 = self.e_full * u + self.w0 * n0 + self.wa * na + self.wb * nb
        u2 = self.e_full * u + self.e0 * n0 + self.ea * na
        err = float(np.sqrt(np.sum(np.abs(u3 - u2) ** 2)))
        return SpectralConnection(a.group, a.cutoff, u3), err


def integrate_full_spectrum(a0: SpectralConnection, config, times) -> FlowTrajectory:
    """flow.integrate for 'ym' and 'zdds' with the state, every stage and
    the error norms on the full cube."""
    targets = sorted(set(float(t) for t in times))
    traj = FlowTrajectory()
    deturck = config.flow_kind == "zdds"
    guard_action = not deturck
    steppers = {}
    state = SpectralConnection(a0.group, a0.cutoff, a0.coeffs.copy())
    t = 0.0
    n_state, action, _ = nonlinear_full_spectrum(state, deturck)
    dt_floor = config.dt_initial * 2.0**-40
    for target in targets:
        dt = config.dt_initial
        clean = 0
        # each stretch between observation times runs on its own clock
        span, tau = target - t, 0.0
        while tau < span - 1e-14 * span:
            if traj.step_count >= MAX_STEPS:
                traj.failure = "stalled"
                break
            h = min(dt, span - tau)
            if h not in steppers:
                steppers[h] = _FullStepper(a0.cutoff, h)
            candidate, err = steppers[h].step(state, n_state, deturck)
            traj.rhs_evaluations += 3
            if not (np.isfinite(err) and np.all(np.isfinite(candidate.coeffs))):
                traj.failure = "non-finite"
                break
            norm = float(np.sqrt(np.sum(np.abs(candidate.coeffs) ** 2)))
            ok = err / max(norm, 1e-30) <= config.error_tol
            if ok:
                n_new, new_action, sup = nonlinear_full_spectrum(candidate, deturck)
                if guard_action and \
                        new_action > action + MONOTONE_TOL * (1.0 + action):
                    ok = False
            if not ok:
                dt = h * config.dt_safety
                clean = 0
                if dt < dt_floor:
                    traj.failure = "stalled"
                    break
                continue
            state, n_state, action = candidate, n_new, new_action
            tau += h
            traj.step_count += 1
            clean += 1
            if clean >= 10:
                dt = min(dt / config.dt_safety, config.dt_initial)
                clean = 0
            if not np.isfinite(sup):
                traj.failure = "non-finite"
                break
            if sup > config.blowup_threshold:
                traj.failure = "threshold"
                break
        if traj.failure is not None:
            t += tau
            break
        t = target
        traj.states[target] = SpectralConnection(state.group, state.cutoff,
                                                 state.coeffs.copy())
        traj.actions[target] = action
    traj.attained_time = t
    traj.blew_up = traj.failure is not None
    return traj
