import math

import numpy as np
import pytest

from reference import (
    canonical_half_modes_sorted,
    covariance_diagnostic,
    sample_gff_dense,
    sample_u1_coulomb_dense,
)
from ymflow.fields import _spectral_to_values, d_star_1form, reality_defect
from ymflow.gff import (
    SamplerConfig,
    _frames_for,
    canonical_half_modes,
    sample_gff,
    sample_u1_coulomb,
    transverse_frame,
)
from ymflow.groups import SU2, U1, standard_basis


def test_half_modes_partition():
    for cutoff in (1, 2, 3):
        half = canonical_half_modes(cutoff)
        k = 2 * cutoff + 1
        assert len(half) == (k**3 - 1) // 2
        seen = {tuple(n) for n in half}
        assert all(tuple(-n) not in seen for n in half)
        assert (0, 0, 0) not in seen


def test_half_modes_match_sorted_reference_bitwise():
    for cutoff in range(1, 17):
        want = canonical_half_modes_sorted(cutoff)
        got = canonical_half_modes(cutoff)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_transverse_frame_basic_and_reflection():
    u1v, u2v = transverse_frame((1, 0, 0))
    # spans the (y, z) plane
    assert abs(u1v[0]) < 1e-15 and abs(u2v[0]) < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(-6, 7, size=3)
        if not n.any():
            continue
        a1, a2 = transverse_frame(n)
        b1, b2 = transverse_frame(-n)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    with pytest.raises(ValueError):
        transverse_frame((0, 0, 0))


def test_transverse_frame_gram():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = rng.integers(-8, 9, size=3)
        if not n.any():
            continue
        u1v, u2v = transverse_frame(n)
        assert abs(np.dot(n, u1v)) < 1e-14
        assert abs(np.dot(n, u2v)) < 1e-14
        assert abs(np.dot(u1v, u2v)) < 1e-14
        assert abs(np.dot(u1v, u1v) - 1) < 1e-14
        assert abs(np.dot(u2v, u2v) - 1) < 1e-14


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _frames_by_loop(cutoff):
    """One frame per canonical half mode, from exact integer cross products
    in plain Python: v = n x e1 (n x e2 where that vanishes), w = n x v."""
    u1v, u2v = [], []
    for n in canonical_half_modes(cutoff).tolist():
        v = _cross(n, (1, 0, 0))
        if not any(v):
            v = _cross(n, (0, 1, 0))
        w = _cross(n, v)
        for out, x in ((u1v, v), (u2v, w)):
            norm = math.sqrt(sum(c * c for c in x))
            out.append([c / norm for c in x])
    return np.array(u1v), np.array(u2v)


def test_frames_for_equals_per_mode_loop_bitwise():
    for cutoff in range(1, 17):
        got = _frames_for(cutoff)
        want = _frames_by_loop(cutoff)
        for g, w in zip(got, want):
            # stored transposed, (3, H)
            assert g.T.tobytes() == w.tobytes(), cutoff
            assert g.flags.c_contiguous and not g.flags.writeable
    modes = canonical_half_modes(3)
    u1v, u2v = _frames_for(3)
    for i in (0, 7, len(modes) - 1):
        for n in (modes[i], -modes[i]):
            a1, a2 = transverse_frame(n)
            assert a1.tobytes() == u1v[:, i].tobytes()
            assert a2.tobytes() == u2v[:, i].tobytes()


@pytest.mark.parametrize("coupling", [1.0, 0.7])
def test_coulomb_sampler_matches_dense_scatter_bitwise(coupling):
    # the slice-filled cube against the zero-filled, index-scattered one,
    # byte for byte (signed zeros included)
    for cutoff in range(1, 17):
        for stream in (0, 5):
            cfg = SamplerConfig(U1, cutoff, seed=29, stream=stream, coupling=coupling)
            got = sample_u1_coulomb(cfg).coeffs
            want = sample_u1_coulomb_dense(cfg).coeffs
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (cutoff, stream)


def test_gff_sampler_matches_dense_scatter_bitwise():
    for group in (U1, SU2):
        for cutoff in range(1, 9):
            cfg = SamplerConfig(group, cutoff, seed=30, stream=2)
            got = sample_gff(cfg).coeffs
            want = sample_gff_dense(cfg).coeffs
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (group, cutoff)


def test_gff_zero_mode_and_reality():
    a = sample_gff(SamplerConfig(SU2, 3, seed=5))
    assert np.max(np.abs(a.coeffs[:, :, 3, 3, 3])) == 0.0
    assert reality_defect(a) == 0.0


def test_gff_mode_variance_montecarlo():
    # E|c(n)|^2 = 1/|n|^2 within 5 standard errors; the sampler is a pure
    # function of the stream, so batch over streams via the low-level
    # generator after pinning one draw against the sampler output
    n = (2, 1, 0)
    from ymflow.rng import mode_gaussians
    z = mode_gaussians(123, 0, np.tile(np.asarray(n), (1, 1)), 6)
    # cross-check one draw against the sampler output
    a = sample_gff(SamplerConfig(U1, 2, seed=123, stream=0))
    idx = (0, 0, 2 + n[0], 2 + n[1], 2 + n[2])
    want = (z[0, 0] + 1j * z[1, 0]) / np.sqrt(2.0) / np.linalg.norm(n)
    assert abs(a.coeffs[idx] - want) < 1e-15
    # now the Monte Carlo over streams
    zs = np.stack(
        [mode_gaussians(123, s, np.asarray(n), 6)[:, 0] for s in range(0, 4000)]
    )
    zc = (zs[:, 0] + 1j * zs[:, 1]) / np.sqrt(2.0)
    sq = np.abs(zc) ** 2 / np.dot(n, n)
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 1.0 / np.dot(n, n)) < 5 * se


def test_cross_cutoff_coupling():
    small = sample_gff(SamplerConfig(SU2, 2, seed=9, stream=4))
    large = sample_gff(SamplerConfig(SU2, 4, seed=9, stream=4))
    assert np.array_equal(large.restricted(2).coeffs, small.coeffs)
    csmall = sample_u1_coulomb(SamplerConfig(U1, 2, seed=9, stream=4))
    clarge = sample_u1_coulomb(SamplerConfig(U1, 4, seed=9, stream=4))
    assert np.array_equal(clarge.restricted(2).coeffs, csmall.coeffs)


def test_coulomb_divergence_free_and_variance():
    a = sample_u1_coulomb(SamplerConfig(U1, 4, seed=17, coupling=2.5))
    assert np.max(np.abs(d_star_1form(a).coeffs)) < 1e-13
    # E|Z_n|^2 * |n|^2 * 8 pi^2 / g^2 = 1 within Monte Carlo error
    n = np.array([1, 1, 0])
    g = 2.5
    vals = []
    for s in range(4000):
        b = sample_u1_coulomb(SamplerConfig(U1, 1, seed=17, stream=s, coupling=g))
        z = 1j * b.coeffs[0, :, 2, 2, 1]  # mode (1,1,0) -> index n + 1
        vals.append(np.sum(np.abs(z) ** 2))
    vals = np.asarray(vals)
    scaled = vals * np.dot(n, n) * 8 * np.pi**2 / g**2
    se = scaled.std(ddof=1) / np.sqrt(len(scaled))
    assert abs(scaled.mean() - 1.0) < 5 * se


def test_coulomb_values_live_on_imaginary_axis():
    # the stored components are real, hence matrix values A = c * [[i]]
    # are purely imaginary
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=19))
    grid = _spectral_to_values(a.coeffs, a.cutoff, 14)
    assert np.isrealobj(grid)
    basis = standard_basis(U1)
    mat = grid[0, 0, 0, 0, 0] * basis[0]
    assert mat.real == 0.0


def test_determinism_bitwise():
    cfg = SamplerConfig(U1, 3, seed=23, stream=7, coupling=1.5)
    a = sample_u1_coulomb(cfg)
    b = sample_u1_coulomb(cfg)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.coeffs.tobytes() == b.coeffs.tobytes()


def _samples(kind, n, cutoff=2, seed=77, coupling=1.0):
    cfgs = (SamplerConfig(U1, cutoff, seed=seed, stream=s, coupling=coupling)
            for s in range(n))
    if kind == "gff":
        cfgs = (SamplerConfig(SU2, cutoff, seed=seed, stream=s) for s in range(n))
        return [sample_gff(c) for c in cfgs]
    return [sample_u1_coulomb(c) for c in cfgs]


def test_covariance_diagnostic_gff():
    samples = _samples("gff", 1500)
    x = np.array([0.15, 0.3, 0.45])
    y = np.array([0.65, 0.3, 0.45])
    rep = covariance_diagnostic(
        samples,
        pairs=[(x, x), (x, y)],
        kind="gff",
        components=((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0)),
    )
    # diagonal at x = y equals the truncated series; cross components 0
    assert rep.max_sigma_deviation < 4.0


def test_covariance_diagnostic_rejects_small_ensembles():
    with pytest.raises(ValueError):
        covariance_diagnostic(_samples("gff", 30), pairs=[((0, 0, 0), (0, 0, 0))])


def test_covariance_diagnostic_coulomb_and_off_diagonal():
    samples = _samples("u1_coulomb", 1500, coupling=1.3)
    x = np.array([0.1, 0.85, 0.4])
    y = x - np.array([0.5, 0.0, 0.0])  # the alternating-sign separation
    rep = covariance_diagnostic(
        samples,
        pairs=[(x, y)],
        kind="u1_coulomb",
        coupling=1.3,
        components=((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 0, 2)),
    )
    assert rep.max_sigma_deviation < 4.0


def test_translation_invariance_of_covariance():
    # equal separations give equal covariances within 4 SE of the
    # per-sample difference
    samples = _samples("u1_coulomb", 1500)
    d = np.array([0.3, 0.1, 0.0])
    x1 = np.array([0.2, 0.5, 0.7])
    x2 = np.array([0.8, 0.05, 0.35])
    from ymflow.wilson import FieldEvaluator
    pts = np.stack([x1, x1 + d, x2, x2 + d])
    diffs = []
    for s in samples:
        v = FieldEvaluator(s).coefficients_at(pts)
        diffs.append(v[0, 1, 0] * v[0, 1, 1] - v[0, 1, 2] * v[0, 1, 3])
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 4 * se
