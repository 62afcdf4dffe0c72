import numpy as np
import pytest

from conftest import random_connection, random_gauge
from gauge import GaugeTransform, gauge_transform, gauge_transform_spectral
from reference import (coulomb_project_u1, d_star_1form, nonlinear_full_spectrum,
                       nonlinear_pass, ym_action_u1_spectral)
from ymflow.fields import (
    SpectralConnection,
    _curl,
    _cyclic_interior,
    _full_spectrum,
    _grid_bracket,
    _spectral_to_values,
    _values_to_spectral,
    dealias_resolution,
    h1_norm,
    l2_norm,
    mode_grids,
    mode_norm_sq,
    reality_defect,
    ym_action,
    ym_rhs,
    zdds_rhs,
    zero_connection,
)
from ymflow.groups import SU2, U1, GroupSpec, bracket, standard_basis, structure_constants
from ymflow.verify import gradient_ratio, parseval_gap, round_trip_gap, zdds_path_gap

SU3 = GroupSpec("su", 3)
U2 = GroupSpec("u", 2)

# Antisymmetric pair storage of 2-forms in the reference code below:
# component p holds F_ij with (i, j) = PAIRS[p].
PAIRS = ((0, 1), (0, 2), (1, 2))


def dual(f):
    """Spatial dual B_k = (1/2) eps_ijk F_ij = (F_12, -F_02, F_01) of a
    (d, 3, ...) stack in PAIRS storage, the form the fused pass holds."""
    return np.stack([f[:, 2], -f[:, 1], f[:, 0]], axis=1)


def single_mode(group, cutoff, n, vector, basis_index=0):
    """Conjugate mode pair c(n) = vector, c(-n) = conj(vector)."""
    a = zero_connection(group, cutoff)
    idx = tuple(np.asarray(n) + cutoff)
    ridx = tuple(cutoff - np.asarray(n))
    for j in range(3):
        a.coeffs[(basis_index, j) + idx] = vector[j]
        a.coeffs[(basis_index, j) + ridx] = np.conj(vector[j])
    return a


# ---------------------------------------------------------------------------
# transforms


def to_grid(a, m):
    return _spectral_to_values(a.coeffs, a.cutoff, m)


def to_coeffs(values, cutoff, m):
    """_values_to_spectral mirrored to the full cube."""
    return _full_spectrum(_values_to_spectral(values, cutoff, m))


def full_curl(c, cutoff):
    """_curl of the half of a full-cube stack, mirrored to the full cube."""
    return _full_spectrum(_curl(c[..., cutoff:], cutoff))


def test_to_grid_zero():
    g = to_grid(zero_connection(SU2, 2), 10)
    assert np.max(np.abs(g)) == 0.0


def test_to_grid_single_mode_cosine():
    # real coefficient puts the cosine peak on the x = 0 grid point
    c = 0.45
    a = single_mode(U1, 2, (1, 0, 0), (c, 0, 0))
    g = to_grid(a, 16)
    assert abs(np.max(g[0, 0]) - 2 * abs(c)) < 1e-12
    # and a complex coefficient matches the two-term sum pointwise
    c2 = 0.4 - 0.3j
    a2 = single_mode(U1, 2, (1, 0, 0), (c2, 0, 0))
    g2 = to_grid(a2, 16)
    x = np.arange(16) / 16
    expected = 2 * np.real(c2 * np.exp(1j * 2 * np.pi * x))
    assert np.max(np.abs(g2[0, 0, :, 0, 0] - expected)) < 1e-12


def test_round_trip_and_parseval():
    a = random_connection(SU2, 3, seed=10)
    for m in (7, 9, 14):
        assert round_trip_gap(a, m) < 1e-12
    assert parseval_gap(a, 14) < 1e-12


def test_resolution_too_small_rejected():
    a = random_connection(SU2, 3, seed=11)
    with pytest.raises(ValueError):
        to_grid(a, 6)
    with pytest.raises(ValueError):
        to_coeffs(to_grid(a, 8), 4, 8)


def test_reality_defect_detects_breakage():
    a = random_connection(U1, 2, seed=12)
    assert reality_defect(a) < 1e-15
    a.coeffs[0, 0, 0, 0, 0] += 1.0
    assert reality_defect(a) > 0.5


def _reference_index(cutoff, m):
    idx = np.arange(-cutoff, cutoff + 1) % m
    return idx[:, None, None], idx[None, :, None], idx[None, None, :]


def _reference_to_values(coeffs, cutoff, m):
    """Complex-FFT synthesis on the full M^3 spectrum, real part kept."""
    full = np.zeros(coeffs.shape[:-3] + (m, m, m), dtype=complex)
    full[(...,) + _reference_index(cutoff, m)] = coeffs
    return (np.fft.ifftn(full, axes=(-3, -2, -1)) * m**3).real


def _reference_to_coeffs(values, cutoff, m):
    full = np.fft.fftn(values, axes=(-3, -2, -1)) / m**3
    return full[(...,) + _reference_index(cutoff, m)]


def _smallest_smooth_at_least(m):
    """The smallest 2*3*5-smooth integer >= m."""
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


@pytest.mark.parametrize("group", [U1, SU2, SU3], ids=lambda g: g.label())
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5, 6, 7, 8])
def test_real_transforms_match_complex_reference(group, cutoff):
    # the default grid, the dealiasing minimum 4N+1, a 5-smooth user size
    # above it and user sizes of both parities down to the smallest
    # admissible 2N+1
    a = random_connection(group, cutoff, seed=70 + cutoff)
    sizes = {dealias_resolution(cutoff), 4 * cutoff + 1, 4 * cutoff + 2,
             _smallest_smooth_at_least(4 * cutoff + 1), 2 * cutoff + 1,
             2 * cutoff + 2}
    for m in sorted(sizes):
        vals = to_grid(a, m)
        ref = _reference_to_values(a.coeffs, cutoff, m)
        assert vals.shape == ref.shape
        assert np.max(np.abs(vals - ref)) < 1e-12 * (1 + np.max(np.abs(ref)))
        back = to_coeffs(ref, cutoff, m)
        want = _reference_to_coeffs(ref, cutoff, m)
        assert np.max(np.abs(back - want)) < 1e-13 * (1 + np.max(np.abs(want)))
        assert np.max(np.abs(back - a.coeffs)) < 1e-12 * (1 + np.max(np.abs(a.coeffs)))


def test_dealias_resolution_is_4n_plus_1():
    # the minimal alias-free grid for cubic terms (Orszag's bound); the
    # matrix transforms need no smooth size
    for cutoff in range(0, 41):
        assert dealias_resolution(cutoff) == 4 * cutoff + 1
    assert [dealias_resolution(n) for n in (1, 2, 3, 4, 8)] == [5, 9, 13, 17, 33]


@pytest.mark.parametrize("group", [SU2, SU3, U2], ids=lambda g: g.label())
def test_sparse_bracket_matches_dense_structure_tensor(group):
    rng = np.random.default_rng(80)
    d = group.algebra_dim
    x = rng.normal(size=(d, 3, 4, 5, 6))
    y = rng.normal(size=(d, 3, 4, 5, 6))
    dense = np.einsum("a...,b...,abc->c...", x, y, structure_constants(group))
    got = _grid_bracket(x, y, group)
    assert np.max(np.abs(got - dense)) < 1e-13 * np.max(np.abs(dense))
    # broadcasting one argument against the other
    got_b = _grid_bracket(x, y[:, :1], group)
    dense_b = np.einsum("a...,b...,abc->c...", x, np.broadcast_to(y[:, :1], x.shape),
                        structure_constants(group))
    assert np.max(np.abs(got_b - dense_b)) < 1e-13 * np.max(np.abs(dense_b))


def interior(av, fv, group):
    """[A _| F]_i through the production kernel, for F in PAIRS storage:
    A and the dual of F are extended by their first two components."""
    ab = np.stack([av, dual(fv)], axis=1)[:, :, [0, 1, 2, 0, 1]]
    return _cyclic_interior(group, ab)


@pytest.mark.parametrize("group", [SU2, SU3, U2], ids=lambda g: g.label())
def test_interior_values_match_pairwise_loop(group):
    # [A _| F]_i = sum_{j != i} [A_j, F_ij], one dense bracket per (i, j),
    # with F_ji = -F_ij from the PAIRS storage
    rng = np.random.default_rng(84)
    d = group.algebra_dim
    av = rng.normal(size=(d, 3, 3, 4, 5))
    fv = rng.normal(size=(d, 3, 3, 4, 5))
    f = structure_constants(group)
    want = np.zeros_like(av)
    for i in range(3):
        for j in range(3):
            if j == i:
                continue
            p = PAIRS.index((min(i, j), max(i, j)))
            fij = fv[:, p] if i < j else -fv[:, p]
            want[:, i] += np.einsum("a...,b...,abc->c...", av[:, j], fij, f)
    got = interior(av, fv, group)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def reference_curvature(a, m):
    """(F_A, A) on the M^3 grid, F_ij = d_i A_j - d_j A_i + [A_i, A_j] in
    PAIRS storage: complex-FFT synthesis and the dense structure tensor,
    sharing no code with the fused nonlinear pass."""
    n, c = mode_grids(a.cutoff), a.coeffs
    da = np.stack([2j * np.pi * (n[i] * c[:, j] - n[j] * c[:, i]) for i, j in PAIRS],
                  axis=1)
    avals = _reference_to_values(c, a.cutoff, m)
    dvals = _reference_to_values(da, a.cutoff, m)
    f = structure_constants(a.group)
    fvals = np.stack([dvals[:, p] + np.einsum("a...,b...,abc->c...", avals[:, i],
                                              avals[:, j], f)
                      for p, (i, j) in enumerate(PAIRS)], axis=1)
    return fvals, avals


@pytest.mark.parametrize("group", [SU2, SU3, U1, U2], ids=lambda g: g.label())
def test_half_spectrum_pass_matches_full_spectrum_bits(group):
    # the pass on the n3 >= 0 half, mirrored, against the pass as first
    # written on the full cube: the same bytes for SU(N), where the term
    # has no exact zeros; with an Abelian component the term has exact
    # zeros, whose sign the mirror may flip, so there the values agree
    for cutoff in (1, 2, 4):
        a = random_connection(group, cutoff, seed=150 + cutoff, scale=0.4)
        for deturck in (False, True):
            got, want = nonlinear_pass(a, deturck), nonlinear_full_spectrum(a, deturck)
            assert got[0].shape == want[0].shape
            if group.kind == "su":
                assert got[0].tobytes() == want[0].tobytes()
            else:
                assert np.array_equal(got[0], want[0])
            assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


@pytest.mark.parametrize("group", [U1, SU2, SU3, U2], ids=lambda g: g.label())
def test_fused_nonlinear_diagnostics_match_standalone(group):
    # S_YM = sum over ordered (i, j) of the mean of |F_ij|^2, sup|A| the
    # largest pointwise Frobenius norm, on the dealiased grid M = 4N+1
    for cutoff in (1, 2, 3, 4):
        a = random_connection(group, cutoff, seed=81 + cutoff, scale=0.4)
        fvals, avals = reference_curvature(a, 4 * cutoff + 1)
        s_ref = 2.0 * np.mean(np.sum(fvals**2, axis=(0, 1)))
        sup_ref = np.sqrt(np.max(np.sum(avals**2, axis=(0, 1))))
        assert abs(ym_action(a) - s_ref) <= 1e-13 * s_ref
        for deturck in (False, True):
            _, s, sup = nonlinear_pass(a, deturck)
            assert abs(s - s_ref) <= 1e-13 * s_ref
            assert abs(sup - sup_ref) <= 1e-13 * sup_ref


# ---------------------------------------------------------------------------
# differential operators


# dA enters as its spatial dual curl A, (curl A)_k = (dA)_ij over cyclic
# (i, j, k), and d*F as the curl of the spatial dual of F.


def test_exterior_d_constant_vanishes():
    a = zero_connection(U1, 2)
    a.coeffs[0, :, 2, 2, 2] = (0.3, -1.0, 2.0)
    assert np.max(np.abs(full_curl(a.coeffs, 2))) == 0.0


def test_exterior_d_gradient_vanishes():
    # pure gradient: c(n) = alpha_n n has dA = 0
    a = zero_connection(U1, 3)
    rng = np.random.default_rng(13)
    for n in ((1, 2, -1), (0, 1, 1), (2, 0, 3)):
        alpha = rng.normal() + 1j * rng.normal()
        idx = tuple(np.asarray(n) + 3)
        ridx = tuple(3 - np.asarray(n))
        for j in range(3):
            a.coeffs[(0, j) + idx] = alpha * n[j]
            a.coeffs[(0, j) + ridx] = np.conj(alpha * n[j])
    assert np.max(np.abs(full_curl(a.coeffs, 3))) < 1e-14


def test_exterior_d_single_mode_hand_expansion():
    n = (1, -2, 0)
    v = (0.5 + 0.1j, -0.2j, 1.0)
    a = single_mode(U1, 3, n, v)
    curl = full_curl(a.coeffs, 3)
    idx = tuple(np.asarray(n) + 3)
    two_pi_i = 2j * np.pi
    # the dual (F_12, -F_02, F_01) of dA
    assert abs(curl[(0, 2) + idx] - two_pi_i * (n[0] * v[1] - n[1] * v[0])) < 1e-14
    assert abs(-curl[(0, 1) + idx] - two_pi_i * (n[0] * v[2] - n[2] * v[0])) < 1e-14
    assert abs(curl[(0, 0) + idx] - two_pi_i * (n[1] * v[2] - n[2] * v[1])) < 1e-14


def test_d_star_1form_cases():
    # Coulomb-projected field has d* = 0
    a = coulomb_project_u1(random_connection(U1, 3, seed=14))
    assert np.max(np.abs(d_star_1form(a))) < 1e-13
    # constants too
    c = zero_connection(U1, 2)
    c.coeffs[0, :, 2, 2, 2] = (1.0, 2.0, 3.0)
    assert np.max(np.abs(d_star_1form(c))) == 0.0
    # c(n) = n for one pair -> -i 2 pi |n|^2 at that mode
    n = (2, 1, -1)
    b = single_mode(U1, 3, n, n)
    ds = d_star_1form(b)
    idx = (0,) + tuple(np.asarray(n) + 3)
    assert abs(ds[idx] - (-2j * np.pi * 6.0)) < 1e-13


def test_d_star_1form_matches_grid_finite_differences():
    a = random_connection(U1, 2, seed=15)
    m = 64
    grid = to_grid(a, m)
    h = 1.0 / m
    div = np.zeros((m, m, m))
    for i in range(3):
        div -= (np.roll(grid[0, i], -1, axis=i)
                - np.roll(grid[0, i], 1, axis=i)) / (2 * h)
    ds_grid = _spectral_to_values(d_star_1form(a), 2, m)[0]
    # centered differences are O(h^2) accurate on band-limited data
    assert np.max(np.abs(div - ds_grid)) < 40.0 / m**2 * np.max(np.abs(ds_grid) + 1)


def test_d_star_2form_cases():
    f0 = np.zeros((1, 3, 5, 5, 5), dtype=complex)
    assert np.max(np.abs(full_curl(f0, 2))) == 0.0
    # divergence-free single mode: d*dA = -Lap A = 4 pi^2 |n|^2 A
    n = (1, 1, 0)
    v = np.array([1.0, -1.0, 0.7j])  # n.v = 0
    assert abs(np.dot(n, v)) < 1e-15
    a = single_mode(U1, 2, n, v)
    got = full_curl(full_curl(a.coeffs, 2), 2)
    want = 4 * np.pi**2 * 2.0 * a.coeffs
    assert np.max(np.abs(got - want)) < 1e-12


def test_d_star_2form_matches_finite_differences():
    rng = np.random.default_rng(16)
    k = 5
    comps = rng.normal(size=(1, 3, k, k, k)) + 1j * rng.normal(size=(1, 3, k, k, k))
    comps = 0.5 * (comps + np.conj(comps[:, :, ::-1, ::-1, ::-1]))
    # comps holds F in PAIRS storage; d*F is the curl of its dual
    out = full_curl(dual(comps), 2)
    m = 48
    f_grid = _spectral_to_values(comps, 2, m)
    out_grid = _spectral_to_values(out, 2, m)
    h = 1.0 / m
    pairs = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    for i in range(3):
        acc = np.zeros((m, m, m))
        for j in range(3):
            if i == j:
                continue
            if (i, j) in pairs:
                comp, sign = pairs[(i, j)], 1.0
            else:
                comp, sign = pairs[(j, i)], -1.0
            fij = sign * f_grid[0, comp]
            acc += (np.roll(fij, -1, axis=j) - np.roll(fij, 1, axis=j)) / (2 * h)
        scale = np.max(np.abs(out_grid[0, i])) + 1.0
        assert np.max(np.abs(acc - out_grid[0, i])) < 40.0 / m**2 * scale


# ---------------------------------------------------------------------------
# brackets


def wedge(av, bv, group):
    """[A ^ B]_ij = [A_i, B_j] - [A_j, B_i] in PAIRS storage, through the
    production pointwise bracket."""
    i, j = [p[0] for p in PAIRS], [p[1] for p in PAIRS]
    return _grid_bracket(av[:, i], bv[:, j], group) - \
        _grid_bracket(av[:, j], bv[:, i], group)


def test_wedge_abelian_zero_and_symmetry():
    a = to_grid(random_connection(U1, 2, seed=17), 10)
    b = to_grid(random_connection(U1, 2, seed=18), 10)
    assert np.max(np.abs(wedge(a, b, U1))) == 0.0
    a2 = to_grid(random_connection(SU2, 2, seed=19), 10)
    b2 = to_grid(random_connection(SU2, 2, seed=20), 10)
    ab = wedge(a2, b2, SU2)
    ba = wedge(b2, a2, SU2)
    assert np.max(np.abs(ab - ba)) < 1e-12


def test_wedge_single_point_matrix_oracle():
    rng = np.random.default_rng(21)
    for group in (SU2, SU3, U2):
        basis = standard_basis(group)
        d = group.algebra_dim
        av = rng.normal(size=(d, 3, 1, 1, 1))
        bv = rng.normal(size=(d, 3, 1, 1, 1))
        w = wedge(av, bv, group)
        mats_a = np.einsum("ai,ajk->ijk", av[:, :, 0, 0, 0], basis)
        mats_b = np.einsum("ai,ajk->ijk", bv[:, :, 0, 0, 0], basis)
        for p, (i, j) in enumerate(PAIRS):
            want = bracket(mats_a[i], mats_b[j]) - bracket(mats_a[j], mats_b[i])
            got = np.einsum("c,cjk->jk", w[:, p, 0, 0, 0], basis)
            assert np.max(np.abs(got - want)) < 1e-13


def test_interior_cases_and_matrix_oracle():
    a = to_grid(random_connection(U1, 2, seed=22), 10)
    assert np.max(np.abs(interior(a, wedge(a, a, U1), U1))) == 0.0
    rng = np.random.default_rng(23)
    for group in (SU2, SU3, U2):
        basis = standard_basis(group)
        d = group.algebra_dim
        av = rng.normal(size=(d, 3, 1, 1, 1))
        fv = rng.normal(size=(d, 3, 1, 1, 1))
        assert np.max(np.abs(interior(av, 0 * fv, group))) == 0.0
        got = interior(av, fv, group)
        mats_a = np.einsum("ai,ajk->ijk", av[:, :, 0, 0, 0], basis)
        full_f = np.zeros((3, 3) + basis.shape[1:], dtype=complex)
        for p, (i, j) in enumerate(PAIRS):
            fij = np.einsum("c,cjk->jk", fv[:, p, 0, 0, 0], basis)
            full_f[i, j] = fij
            full_f[j, i] = -fij
        for i in range(3):
            want = sum(bracket(mats_a[j], full_f[i, j]) for j in range(3))
            gmat = np.einsum("c,cjk->jk", got[:, i, 0, 0, 0], basis)
            assert np.max(np.abs(gmat - want)) < 1e-13


# ---------------------------------------------------------------------------
# curvature and action


def test_curvature_constant_fields():
    a = zero_connection(U1, 2)
    a.coeffs[0, :, 2, 2, 2] = (1.0, -0.5, 0.25)
    assert np.max(np.abs(reference_curvature(a, 9)[0])) == 0.0
    assert ym_action(a) == 0.0
    rng = np.random.default_rng(24)
    b = zero_connection(SU2, 2)
    co = rng.normal(size=(3, 3))
    b.coeffs[:, :, 2, 2, 2] = co
    f, _ = reference_curvature(b, 9)
    basis = standard_basis(SU2)
    mats = np.einsum("ai,ajk->ijk", co, basis)
    want_action = 0.0
    for p, (i, j) in enumerate(PAIRS):
        want = bracket(mats[i], mats[j])
        want_action += 2.0 * np.sum(np.abs(want) ** 2)
        got = np.einsum("c,cjk->jk", f[:, p, 0, 0, 0], basis)
        assert np.max(np.abs(got - want)) < 1e-12
        # constant in x
        assert np.max(np.abs(f[:, p] - f[:, p, :1, :1, :1])) < 1e-12
    assert abs(ym_action(b) - want_action) < 1e-12 * want_action


def test_curvature_u1_is_exterior_d():
    # F_A = dA for U(1); the fused pass holds dA as the curl, its dual
    a = single_mode(U1, 2, (1, 0, 2), (0.3, 0.7j, -0.2))
    f, _ = reference_curvature(a, 12)
    curl = _spectral_to_values(full_curl(a.coeffs, 2), 2, 12)
    assert np.max(np.abs(curl - dual(f))) < 1e-13


@pytest.mark.parametrize("group", [SU2, SU3, U2], ids=lambda g: g.label())
def test_ym_action_is_the_fused_pass_action_without_its_second_half(group, monkeypatch):
    import ymflow.fields as fields_mod
    cases = [random_connection(group, cutoff, seed=90 + cutoff, scale=0.4)
             for cutoff in (1, 2, 3)]
    want = [nonlinear_pass(a, False)[1] for a in cases]

    def unused(*args, **kwargs):
        raise AssertionError("an action-only pass ran the second half")

    monkeypatch.setattr(fields_mod, "_values_to_spectral", unused)
    monkeypatch.setattr(fields_mod, "_cyclic_interior", unused)
    assert [ym_action(a) for a in cases] == want


def test_mode_grids_are_read_only_axis_views():
    n1, n2, n3 = mode_grids(3)
    axis = np.arange(-3, 4)
    for i, n in enumerate((n1, n2, n3)):
        assert n.shape == (7, 7, 7) and n.dtype == np.int64
        assert not n.flags.writeable
        assert sum(st != 0 for st in n.strides) == 1
        assert np.array_equal(np.moveaxis(n, i, 0)[:, 0, 0], axis)
    dense = np.meshgrid(axis, axis, axis, indexing="ij")
    assert all(np.array_equal(n, d) for n, d in zip((n1, n2, n3), dense))


def test_ym_action_zero_and_single_pair():
    assert ym_action(zero_connection(SU2, 2)) == 0.0
    # single conjugate mode pair with Z orthogonal to n:
    # S = 16 pi^2 |n|^2 |Z|^2, from the spectral formula summed over +-n
    n = (1, 2, 0)
    v = np.array([2.0, -1.0, 0.5 + 0.5j])  # n.v = 0
    assert abs(np.dot(n, v)) == 0.0
    a = single_mode(U1, 3, n, v)
    want = 16 * np.pi**2 * 5.0 * np.sum(np.abs(v) ** 2)
    assert abs(ym_action(a) - want) < 1e-10 * want
    assert abs(ym_action_u1_spectral(a) - want) < 1e-12 * want


def test_ym_action_grid_vs_spectral_dual_route():
    a = random_connection(U1, 3, seed=25)
    s_grid = ym_action(a)
    s_spec = ym_action_u1_spectral(a)
    assert abs(s_grid - s_spec) < 1e-10 * (1 + abs(s_spec))
    with pytest.raises(ValueError):
        ym_action_u1_spectral(random_connection(SU2, 2, seed=26))


# ---------------------------------------------------------------------------
# Coulomb projection


def test_coulomb_projection_properties():
    a = random_connection(U1, 3, seed=28)
    p = coulomb_project_u1(a)
    assert np.max(np.abs(d_star_1form(p))) < 1e-12
    again = coulomb_project_u1(p)
    assert np.max(np.abs(again.coeffs - p.coeffs)) < 1e-14
    # pure gradient projects to zero
    n1, n2, n3 = mode_grids(3)
    rng = np.random.default_rng(29)
    alpha = rng.normal(size=(7, 7, 7)) + 1j * rng.normal(size=(7, 7, 7))
    alpha = 0.5 * (alpha + np.conj(alpha[::-1, ::-1, ::-1]))
    grad = SpectralConnection(
        U1, 3, np.stack([alpha * n1, alpha * n2, alpha * n3])[None, :]
    )
    assert np.max(np.abs(coulomb_project_u1(grad).coeffs)) < 1e-14
    # Pythagoras per mode
    nsq = mode_norm_sq(3)
    dot = n1 * a.coeffs[0, 0] + n2 * a.coeffs[0, 1] + n3 * a.coeffs[0, 2]
    lhs = np.sum(np.abs(p.coeffs[0]) ** 2, axis=0)
    rhs = np.sum(np.abs(a.coeffs[0]) ** 2, axis=0) - \
        np.where(nsq > 0, np.abs(dot) ** 2 / np.where(nsq > 0, nsq, 1), 0)
    mask = nsq > 0
    assert np.max(np.abs(lhs[mask] - rhs[mask])) < 1e-12


def test_u1_gauge_equivalence_characterization():
    # d(A1 - A2) = 0 iff the Coulomb projections agree
    a1 = random_connection(U1, 2, seed=30)
    n1g, n2g, n3g = mode_grids(2)
    rng = np.random.default_rng(31)
    alpha = rng.normal(size=(5, 5, 5)) + 1j * rng.normal(size=(5, 5, 5))
    alpha = 0.5 * (alpha + np.conj(alpha[::-1, ::-1, ::-1]))
    a2 = SpectralConnection(U1, 2, a1.coeffs + np.stack(
        [alpha * n1g, alpha * n2g, alpha * n3g]
    )[None, :])
    diff = SpectralConnection(U1, 2, a1.coeffs - a2.coeffs)
    assert np.max(np.abs(full_curl(diff.coeffs, 2))) < 1e-12
    p1, p2 = coulomb_project_u1(a1), coulomb_project_u1(a2)
    assert np.max(np.abs(p1.coeffs - p2.coeffs)) < 1e-10
    # and a genuinely different field fails both ways
    a3 = random_connection(U1, 2, seed=32)
    diff3 = SpectralConnection(U1, 2, a1.coeffs - a3.coeffs)
    assert np.max(np.abs(full_curl(diff3.coeffs, 2))) > 1e-3
    p3 = coulomb_project_u1(a3)
    assert np.max(np.abs(p1.coeffs - p3.coeffs)) > 1e-3


# ---------------------------------------------------------------------------
# gauge transforms


def test_gauge_transform_identity_and_constant_on_zero():
    a = random_connection(SU2, 2, seed=33)
    ident = GaugeTransform.identity(SU2)
    g = gauge_transform(a, ident, 10)
    assert np.max(np.abs(g - to_grid(a, 10))) < 1e-12
    zero = zero_connection(SU2, 2)
    const = GaugeTransform.constant(SU2, (0.4, -0.2, 0.9))
    g2 = gauge_transform(zero, const, 10)
    assert np.max(np.abs(g2)) < 1e-13


def test_gauge_transform_u1_winding_shift():
    a = random_connection(U1, 2, seed=34)
    m = (1, -2, 3)
    sig = GaugeTransform.winding_u1(m)
    out = to_coeffs(gauge_transform(a, sig, 10), 2, 10)
    want = a.coeffs.copy()
    for i in range(3):
        want[0, i, 2, 2, 2] += 2 * np.pi * m[i]
    assert np.max(np.abs(out - want)) < 1e-12


def test_ym_action_gauge_invariance():
    a = random_connection(SU2, 2, seed=35, scale=0.4)
    s0 = ym_action(a)
    for seed in (36, 37):
        sig = random_gauge(SU2, 1, 0.2, seed)
        trans = gauge_transform_spectral(a, sig, cutoff=14)
        assert abs(ym_action(trans) - s0) <= 1e-8 * (1 + s0)
    sig_c = GaugeTransform.constant(SU2, (0.3, 0.1, -0.5))
    assert abs(ym_action(gauge_transform_spectral(a, sig_c)) - s0) <= 1e-10 * (1 + s0)


def test_curvature_h1_bound_with_calibrated_constant():
    # sqrt(S_YM) <= C (|A|_H1 + |A|_H1^2): calibrate C on one seeded set,
    # then require it on a disjoint set
    def ratio(a):
        return np.sqrt(ym_action(a)) / (h1_norm(a) + h1_norm(a) ** 2)
    calib = [ratio(random_connection(SU2, 2, seed=s, scale=sc))
             for s in range(40, 46) for sc in (0.05, 0.5, 2.0)]
    c_fixed = 1.05 * max(calib)
    for s in range(60, 70):
        a = random_connection(SU2, 2, seed=s, scale=0.3)
        assert np.sqrt(ym_action(a)) <= c_fixed * (h1_norm(a) + h1_norm(a) ** 2)


# ---------------------------------------------------------------------------
# right-hand sides


def test_ym_rhs_zero_and_u1_single_mode():
    assert np.max(np.abs(ym_rhs(zero_connection(SU2, 2)).coeffs)) == 0.0
    n = (1, 1, 0)
    v = np.array([1.0, -1.0, 0.5j])
    a = single_mode(U1, 2, n, v)
    got = ym_rhs(a)
    want = -4 * np.pi**2 * 2.0 * a.coeffs
    assert np.max(np.abs(got.coeffs - want)) < 1e-11


def test_ym_rhs_is_action_gradient_with_one_constant():
    # c with d S_YM(A)[B] = c <ym_rhs(A), B> fixed on an Abelian instance,
    # then field- and direction-independent
    c = gradient_ratio(random_connection(U1, 2, seed=50, scale=0.5),
                       random_connection(U1, 2, seed=51, scale=0.5))
    assert abs(c + 4.0) < 1e-6
    ratios = [gradient_ratio(random_connection(SU2, 2, seed=s, scale=0.4),
                             random_connection(SU2, 2, seed=s + 100, scale=0.4))
              for s in range(52, 58)]
    spread = (max(ratios) - min(ratios)) / abs(np.median(ratios))
    assert spread < 1e-4


def test_zdds_rhs_cases():
    assert np.max(np.abs(zdds_rhs(zero_connection(SU2, 2)).coeffs)) == 0.0
    a = coulomb_project_u1(random_connection(U1, 2, seed=59))
    z = zdds_rhs(a)
    y = ym_rhs(a)
    assert np.max(np.abs(z.coeffs - y.coeffs)) < 1e-12
    b = random_connection(SU2, 3, seed=60, scale=0.5)
    assert zdds_path_gap(b) < 1e-10
    with pytest.raises(ValueError):
        zdds_rhs(b, path="magic")


def test_rhs_preserves_reality():
    a = random_connection(SU2, 2, seed=61, scale=0.5)
    assert reality_defect(ym_rhs(a)) < 1e-10
    assert reality_defect(zdds_rhs(a)) < 1e-10


def test_norms():
    a = random_connection(SU2, 2, seed=62)
    assert h1_norm(a) >= l2_norm(a)
    assert nonlinear_pass(a, False)[2] > 0
    n = (1, 0, 0)
    b = single_mode(U1, 2, n, (1.0, 0, 0))
    assert abs(l2_norm(b) - np.sqrt(2.0)) < 1e-13
    assert abs(h1_norm(b) - np.sqrt(2.0 * (1 + 4 * np.pi**2))) < 1e-12
