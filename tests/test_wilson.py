import numpy as np
import pytest

import ymflow.wilson as wilson_mod
from conftest import random_connection, random_gauge
from reference import format_loop_file, loop_fourier_expdiff, reparametrize, reverse_loop
from ymflow.fields import GaugeTransform, gauge_act, mode_grids, zero_connection
from ymflow.flow import heat_semigroup_u1
from ymflow.gff import SamplerConfig, sample_gff, sample_u1_coulomb
from ymflow.groups import (
    SU2,
    U1,
    GroupSpec,
    exp_map,
    standard_basis,
    unitarity_defect,
)
from ymflow.wilson import (
    Character,
    FieldEvaluator,
    GaugeTransformedEvaluator,
    LoopFileError,
    axis_cycle,
    h_series,
    holonomy,
    loop_fourier_coefficients,
    make_loop,
    parse_loop_file,
    rectangle_loop,
    u1_wilson_exact,
    wilson_loop,
)

PLAQ = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25, name="plaq")
SU3 = GroupSpec("su", 3)


def random_loops(seed, count=3):
    """Closed non-axis loops through random points, winding 0 and (1, 0, -1)."""
    rng = np.random.default_rng(seed)
    loops = []
    for i in range(count):
        pts = rng.uniform(size=(5, 3))
        end = pts[0] + (i % 2) * np.array([1.0, 0.0, -1.0])
        loops.append(make_loop(np.vstack([pts, end]), name=f"random{i}"))
    return loops


def u1_sample(cutoff=3, seed=1, g=1.0):
    return sample_u1_coulomb(SamplerConfig(U1, cutoff, seed=seed, coupling=g))


# ---------------------------------------------------------------------------
# loops


def test_make_loop_axis_cycle_and_plaquette():
    lp = make_loop([(0, 0, 0), (1, 0, 0)], winding=(1, 0, 0))
    assert np.array_equal(lp.winding, (1, 0, 0))
    assert abs(lp.total_length - 1.0) < 1e-15
    assert np.array_equal(PLAQ.winding, (0, 0, 0))
    assert abs(PLAQ.total_length - 1.0) < 1e-15


def test_make_loop_rejects_open_paths_and_degenerate_segments():
    with pytest.raises(ValueError, match="not closed|integer"):
        make_loop([(0, 0, 0), (0.5, 0.25, 0)])
    with pytest.raises(ValueError, match="zero-length"):
        make_loop([(0, 0, 0), (0, 0, 0), (1, 0, 0)], winding=(1, 0, 0))
    with pytest.raises(ValueError, match="winding"):
        make_loop([(0, 0, 0), (1, 0, 0)], winding=(0, 1, 0))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vertices_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        make_loop([(0, 0, 0), (float(bad), 0.2, 0.3), (0, 0, 0)])
    with pytest.raises(LoopFileError, match="line 3.*finite"):
        parse_loop_file(f"loop a\nvertex 0 0 0\nvertex {bad} 0.2 0.3\n"
                        "vertex 0 0 0\n")


def test_reparametrize_and_reverse():
    lp2 = reparametrize(PLAQ, 2)
    assert len(lp2.vertices) == 2 * (len(PLAQ.vertices) - 1) + 1
    assert abs(lp2.total_length - PLAQ.total_length) < 1e-14
    rev = reverse_loop(PLAQ)
    assert np.array_equal(rev.vertices, PLAQ.vertices[::-1])


def test_loop_parameter_breaks_arc_proportional():
    lp = make_loop([(0, 0, 0), (0.5, 0, 0), (0.5, 0.25, 0), (0, 0.25, 0), (0, 0, 0)])
    breaks = lp.parameter_breaks()
    lengths = np.diff(breaks)
    assert abs(lengths[0] - 1 / 3) < 1e-14  # 0.5 of total 1.5
    assert abs(lengths[1] - 1 / 6) < 1e-14


# ---------------------------------------------------------------------------
# loop files


def test_loop_file_round_trip():
    text = format_loop_file([PLAQ, axis_cycle(0, (0, 0.25, 0.5), name="cx")])
    loops = parse_loop_file(text)
    assert [lp.name for lp in loops] == ["plaq", "cx"]
    assert np.array_equal(loops[1].winding, (1, 0, 0))


def test_loop_file_errors_carry_line_numbers():
    with pytest.raises(LoopFileError, match="line 1"):
        parse_loop_file("vertex 0 0 0\n")
    with pytest.raises(LoopFileError, match="line 3"):
        parse_loop_file("loop a\nvertex 0 0 0\nvertex nope 0 0\n")
    with pytest.raises(LoopFileError, match="line 2"):
        parse_loop_file("loop a\nwiggle 1 2 3\n")
    with pytest.raises(LoopFileError, match="fewer than 2"):
        parse_loop_file("loop a\nvertex 0 0 0\n")


# ---------------------------------------------------------------------------
# characters


def test_character_identity_values_and_conjugation_invariance():
    chf = Character(SU2, "fundamental")
    chc = Character(SU2, "conjugate")
    assert chf.identity_value() == 2.0
    assert Character(U1, "u1_power", 5).identity_value() == 1.0
    rng = np.random.default_rng(2)
    basis = standard_basis(SU2)
    for _ in range(10):
        h = exp_map(np.einsum("a,aij->ij", rng.normal(size=3), basis))
        g = exp_map(np.einsum("a,aij->ij", rng.normal(size=3), basis))
        conj = g @ h @ np.conj(g.T)
        assert abs(chf(conj) - chf(h)) < 1e-12
        assert abs(chc(conj) - chc(h)) < 1e-12
    with pytest.raises(ValueError):
        Character(SU2, "u1_power", 2)


def test_u1_exponents():
    assert Character(U1, "u1_power", 3).u1_exponent() == 3
    assert Character(U1, "fundamental").u1_exponent() == 1
    assert Character(U1, "conjugate").u1_exponent() == -1


# ---------------------------------------------------------------------------
# loop Fourier coefficients


def test_loop_fourier_x_cycle_closed_form():
    y0, z0 = 0.3, 0.6
    table = loop_fourier_coefficients(axis_cycle(0, (0, y0, z0)), 2)
    n1, n2, n3 = mode_grids(2)
    pred = np.where(n1 == 0, np.exp(1j * 2 * np.pi * (n2 * y0 + n3 * z0)), 0.0)
    assert np.max(np.abs(table[0] - pred)) < 1e-14
    assert np.max(np.abs(table[1:])) == 0.0


def test_loop_fourier_zero_mode_is_winding():
    for lp in (PLAQ, axis_cycle(1), make_loop([(0, 0, 0), (1, 0, 0), (1, 1, 0)],
                                              winding=(1, 1, 0))):
        table = loop_fourier_coefficients(lp, 2)
        assert np.max(np.abs(table[:, 2, 2, 2] - lp.winding)) < 1e-14
    for lp in random_loops(5):
        table = loop_fourier_coefficients(lp, 16)
        assert np.max(np.abs(table[:, 16, 16, 16] - lp.winding)) < 1e-14


def test_loop_fourier_symmetries_random_loop():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(5, 3))
    lp = make_loop(np.vstack([pts, pts[:1]]))
    table = loop_fourier_coefficients(lp, 3)
    flipped = np.conj(table[:, ::-1, ::-1, ::-1])
    assert np.max(np.abs(flipped - table)) < 1e-13
    # every mode's value is formed from that mode alone, with odd phases
    # and an even sinc, so the symmetry is exact
    assert np.array_equal(flipped, table)
    n1, n2, n3 = mode_grids(3)
    ndot = n1 * table[0] + n2 * table[1] + n3 * table[2]
    assert np.max(np.abs(ndot)) < 1e-13


def test_loop_fourier_smaller_cutoff_is_central_slice():
    for lp in [PLAQ] + random_loops(6):
        big = loop_fourier_coefficients(lp, 16)
        for c in (2, 4, 8):
            centre = slice(16 - c, 17 + c)
            want = big[:, centre, centre, centre]
            assert loop_fourier_coefficients(lp, c).tobytes() == want.tobytes()


def test_loop_fourier_matches_exponential_difference():
    # the exponential-difference form loses digits to cancellation where
    # n.delta is small but nonzero; 1e-12 covers that error at cutoff 16
    # on loops inside the unit cube (winding 0).  The longer segments of
    # winding loops push it to a few 1e-12 against a 40-digit reference,
    # while the sinc form stays within 1e-14 there.
    for lp in [PLAQ] + random_loops(7, count=6)[::2]:
        table = loop_fourier_coefficients(lp, 16)
        assert np.max(np.abs(table - loop_fourier_expdiff(lp, 16))) < 1e-12


def test_loop_fourier_against_quadrature():
    # midpoint-rule oracle on a fine parameter grid
    lp = PLAQ
    table = loop_fourier_coefficients(lp, 2)
    m = 20000
    s = (np.arange(m) + 0.5) / m
    breaks = lp.parameter_breaks()
    seg = np.searchsorted(breaks, s, side="right") - 1
    seg = np.clip(seg, 0, len(lp.vertices) - 2)
    local = (s - breaks[seg]) / (breaks[seg + 1] - breaks[seg])
    pos = lp.vertices[seg] + local[:, None] * lp.segments[seg]
    vel = lp.segments[seg] / np.diff(breaks)[seg][:, None]
    for n in ((1, 0, 0), (2, -1, 1), (0, 2, 2)):
        phase = np.exp(1j * 2 * np.pi * (pos @ np.asarray(n)))
        integral = (phase[:, None] * vel).mean(axis=0)
        idx = tuple(np.asarray(n) + 2)
        assert np.max(np.abs(table[(slice(None),) + idx] - integral)) < 1e-6


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_zero_field_identity():
    h = holonomy(zero_connection(SU2, 2), PLAQ, steps=16)
    assert np.max(np.abs(h - np.eye(2))) < 1e-14


def test_holonomy_constant_u1_field():
    a = zero_connection(U1, 2)
    a.coeffs[0, 0, 2, 2, 2] = 0.8
    h = holonomy(a, axis_cycle(0), steps=16)
    assert abs(h[0, 0] - np.exp(1j * 0.8)) < 1e-13


def test_holonomy_constant_su2_field_matrix_exponential():
    rng = np.random.default_rng(4)
    a = zero_connection(SU2, 2)
    a.coeffs[:, :, 2, 2, 2] = rng.normal(size=(3, 3)) * 0.5
    basis = standard_basis(SU2)
    want = exp_map(np.einsum("a,aij->ij", a.coeffs[:, 0, 2, 2, 2].real, basis))
    h = holonomy(a, axis_cycle(0), steps=16)
    assert np.max(np.abs(h - want)) < 1e-12


def test_holonomy_unitary_and_wilson_bound():
    a = sample_gff(SamplerConfig(SU2, 3, seed=5)).scaled(0.5)
    ch = Character(SU2, "fundamental")
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(4, 3))
        lp = make_loop(np.vstack([pts, pts[:1]]))
        h = holonomy(a, lp, steps=64)
        assert unitarity_defect(h) <= 1e-9
        w = ch(h)
        assert abs(w) <= ch.identity_value() + 1e-9


def test_holonomy_convergence_order():
    # error against a 10x oversampled reference decays at order >= 3
    a = sample_gff(SamplerConfig(SU2, 3, seed=6)).scaled(0.8)
    lp = PLAQ
    ref = holonomy(a, lp, steps=2560)
    errs = []
    for steps in (32, 64, 128):
        errs.append(np.max(np.abs(holonomy(a, lp, steps=steps) - ref)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 2.7


def test_wilson_zero_field_is_identity_character():
    assert wilson_loop(zero_connection(SU2, 2), PLAQ,
                       Character(SU2, "fundamental")) == pytest.approx(2.0)
    assert wilson_loop(zero_connection(U1, 1), PLAQ,
                       Character(U1, "u1_power", 3)) == pytest.approx(1.0)


def test_wilson_loop_broadcasts_over_characters():
    # a sequence of characters gives a tuple from one holonomy, equal bit
    # for bit to one call per character
    cases = [(random_connection(SU2, 2, seed=90, scale=0.4),
              [Character(SU2, "fundamental"), Character(SU2, "conjugate")]),
             (random_connection(U1, 2, seed=91, scale=0.4),
              [Character(U1, "u1_power", k) for k in (1, 2, -1)])]
    for a, chars in cases:
        values = wilson_loop(a, PLAQ, chars, steps=64)
        assert isinstance(values, tuple)
        assert values == tuple(wilson_loop(a, PLAQ, ch, steps=64) for ch in chars)
        assert isinstance(wilson_loop(a, PLAQ, chars[0], steps=64), complex)


def test_wilson_u1_constant_field_power_character():
    a = zero_connection(U1, 1)
    a.coeffs[0, 0, 1, 1, 1] = 0.6
    for k in (1, -1, 2):
        w = wilson_loop(a, axis_cycle(0), Character(U1, "u1_power", k), steps=16)
        assert abs(w - np.exp(1j * k * 0.6)) < 1e-13


def test_wilson_gauge_invariance():
    a = sample_gff(SamplerConfig(SU2, 2, seed=7)).scaled(0.4)
    ch = Character(SU2, "fundamental")
    w0 = wilson_loop(a, PLAQ, ch, steps=1024)
    for seed in (8, 9):
        sig = random_gauge(SU2, 1, 0.1, seed)
        w1 = wilson_loop(GaugeTransformedEvaluator(a, sig), PLAQ, ch, steps=1024)
        assert abs(w1 - w0) <= 1e-7 * ch.identity_value()
    au = u1_sample(seed=10)
    chu = Character(U1, "u1_power", 1)
    w0 = wilson_loop(au, PLAQ, chu, steps=512)
    sigw = GaugeTransform.winding_u1((2, 0, 1))
    w1 = wilson_loop(GaugeTransformedEvaluator(au, sigw), PLAQ, chu, steps=512)
    assert abs(w1 - w0) <= 1e-9


def test_wilson_reparametrization_invariance_and_reversal():
    au = u1_sample(seed=11)
    chu = Character(U1, "u1_power", 1)
    w0 = wilson_loop(au, PLAQ, chu, steps=256)
    w_split = wilson_loop(au, reparametrize(PLAQ, 2), chu, steps=512)
    assert abs(w_split - w0) <= 1e-9
    w_rev = wilson_loop(au, reverse_loop(PLAQ), chu, steps=256)
    assert abs(w_rev - np.conj(w0)) <= 1e-9
    a2 = sample_gff(SamplerConfig(SU2, 2, seed=12)).scaled(0.3)
    ch2 = Character(SU2, "fundamental")
    w2 = wilson_loop(a2, PLAQ, ch2, steps=1024)
    w2r = wilson_loop(a2, reverse_loop(PLAQ), ch2, steps=1024)
    assert abs(w2r - np.conj(w2)) <= 1e-8


def test_wilson_continuity_in_connection():
    # halving a perturbation at least quarters the squared deviation
    a = u1_sample(seed=13)
    b = random_connection(U1, 3, seed=14, scale=0.05)
    ch = Character(U1, "u1_power", 1)
    w0 = wilson_loop(a, PLAQ, ch, steps=256)
    from ymflow.fields import SpectralConnection
    devs = []
    for eps in (1.0, 0.5):
        pert = SpectralConnection(U1, 3, a.coeffs + eps * b.coeffs)
        devs.append(abs(wilson_loop(pert, PLAQ, ch, steps=256) - w0) ** 2)
    assert devs[1] <= devs[0] / 4.0 * 1.05


# ---------------------------------------------------------------------------
# exact U(1) formulas


def test_u1_wilson_exact_trivial_cases():
    a = zero_connection(U1, 2)
    ch = Character(U1, "u1_power", 1)
    assert u1_wilson_exact(a, PLAQ, ch, 0.1) == pytest.approx(1.0)
    b = u1_sample(seed=15)
    assert abs(u1_wilson_exact(b, PLAQ, ch, 50.0) - 1.0) < 1e-12


def test_u1_wilson_exact_vs_ode_pipeline():
    b = u1_sample(cutoff=4, seed=16)
    for t in (0.01, 0.05):
        flowed = heat_semigroup_u1(b, t)
        for k in (1, -1, 2):
            ch = Character(U1, "u1_power", k)
            w_ode = wilson_loop(flowed, PLAQ, ch, steps=384)
            w_exact = u1_wilson_exact(b, PLAQ, ch, t)
            assert abs(w_ode - w_exact) <= 1e-8


def test_h_series_cases():
    b = u1_sample(cutoff=4, seed=17)
    assert abs(h_series(b, PLAQ, 80.0)) < 1e-12
    # single mode: one-term product
    a = zero_connection(U1, 2)
    z = 0.3 + 0.2j   # i R amplitude at n = (1,0,0), direction y
    a.coeffs[0, 1, 3, 2, 2] = -1j * z
    a.coeffs[0, 1, 1, 2, 2] = np.conj(-1j * z)
    t = 0.02
    table = loop_fourier_coefficients(PLAQ, 2)
    w = np.exp(-4 * np.pi**2 * t)
    term = w * (z * table[1, 3, 2, 2] + (-np.conj(z)) * table[1, 1, 2, 2])
    assert abs(term.real) < 1e-14
    assert abs(h_series(a, PLAQ, t) - term.imag) < 1e-14


def test_h_series_cutoff_tail_bound():
    b = u1_sample(cutoff=8, seed=18)
    t = 0.01
    h4 = h_series(b.restricted(4), PLAQ, t)
    h8 = h_series(b, PLAQ, t)
    # tail bound: sum over 4 < |n|_inf <= 8 of e^(-4 pi^2 |n|^2 t) |Z_n| |c_n|
    from ymflow.fields import mode_norm_sq
    table = loop_fourier_coefficients(PLAQ, 8)
    z = 1j * b.coeffs[0]
    nsq = mode_norm_sq(8)
    n1, n2, n3 = mode_grids(8)
    outer = np.maximum(np.abs(n1), np.maximum(np.abs(n2), np.abs(n3))) > 4
    weights = np.exp(-4 * np.pi**2 * nsq * t)
    bound = np.sum(
        outer * weights * np.linalg.norm(z, axis=0) * np.linalg.norm(table, axis=0)
    )
    assert abs(h8 - h4) <= bound + 1e-15


def test_field_evaluator_matches_grid():
    a = random_connection(SU2, 2, seed=19)
    ev = FieldEvaluator(a)
    from ymflow.fields import _spectral_to_values
    g = _spectral_to_values(a.coeffs, a.cutoff, 10)
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.9], [0.5, 0.5, 0.5]])
    vals = ev.coefficients_at(pts)
    assert np.max(np.abs(vals[:, :, 0] - g[:, :, 0, 0, 0])) < 1e-12
    idx = (np.array([0.5, 0.5, 0.5]) * 10).astype(int)
    assert np.max(np.abs(vals[:, :, 2] - g[:, :, idx[0], idx[1], idx[2]])) < 1e-12


def test_u1_exact_rejects_non_abelian():
    a = random_connection(SU2, 2, seed=20)
    with pytest.raises(ValueError):
        u1_wilson_exact(a, PLAQ, Character(U1, "u1_power", 1), 0.1)
    with pytest.raises(ValueError):
        h_series(a, PLAQ, 0.1)
    b = u1_sample(seed=21)
    with pytest.raises(ValueError):
        u1_wilson_exact(b, PLAQ, Character(U1, "u1_power", 1), -0.5)


def test_h_series_broadcasts_over_times():
    b = u1_sample(cutoff=4, seed=22)
    times = (0.0, 0.003, 0.01, 0.05)
    scalar = h_series(b, PLAQ, 0.01)
    assert isinstance(scalar, float)
    for field in (b, b.restricted(2)):
        vec = h_series(field, PLAQ, times)
        assert isinstance(vec, np.ndarray) and vec.shape == (len(times),)
        for t, v in zip(times, vec):
            assert abs(v - h_series(field, PLAQ, t)) <= 1e-15
    assert np.array_equal(h_series(b, PLAQ, np.array(times)), h_series(b, PLAQ, times))
    with pytest.raises(ValueError):
        h_series(b, PLAQ, [[0.01]])
    with pytest.raises(ValueError):
        h_series(b, PLAQ, [0.01, -0.01])


def test_h_series_imaginary_check_covers_every_time():
    # one mode without its conjugate partner: the mode sum has a real part,
    # invisible at t = 80 (weight e^(-4 pi^2 80) = 0) but not at t = 0.01
    a = zero_connection(U1, 2)
    a.coeffs[0, 1, 3, 2, 2] = 0.3
    assert h_series(a, PLAQ, 80.0) == 0.0
    with pytest.raises(AssertionError, match="purely imaginary"):
        h_series(a, PLAQ, 0.01)
    with pytest.raises(AssertionError, match="purely imaginary"):
        h_series(a, PLAQ, [80.0, 0.01])


def test_u1_wilson_exact_is_character_of_phase():
    b = u1_sample(cutoff=3, seed=24)
    for k in (1, -1, 2):
        ch = Character(U1, "u1_power", k)
        for t in (0.005, 0.02):
            phase = h_series(b, PLAQ, t)
            assert u1_wilson_exact(b, PLAQ, ch, t) == complex(np.exp(1j * k * phase))
            assert ch.u1_value(phase) == u1_wilson_exact(b, PLAQ, ch, t)


def _direct_fourier_values(coeffs, cutoff, points):
    """Reference evaluator: the full K^3 phase block at every point."""
    modes = np.stack([n.ravel() for n in mode_grids(cutoff)], axis=1)
    phases = np.exp(2j * np.pi * (points @ modes.T))          # (P, K^3)
    flat = coeffs.reshape(-1, modes.shape[0])
    return (flat @ phases.T).real.reshape(coeffs.shape[:-3] + (len(points),))


@pytest.mark.parametrize("group", [U1, SU2, SU3], ids=lambda g: g.label())
def test_field_evaluator_matches_direct_sum(group, monkeypatch):
    rng = np.random.default_rng(25)
    pts = rng.uniform(-2.0, 3.0, size=(29, 3))        # lifted and negative
    pts[0] = (0.0, 0.0, 0.0)
    pts[1] = (-1.25, 2.5, -0.75)
    for cutoff in range(1, 9):
        a = random_connection(group, cutoff, seed=cutoff)
        ref = _direct_fourier_values(a.coeffs, cutoff, pts)
        scale = np.max(np.abs(ref))
        for chunk in (1, 5, 512):
            monkeypatch.setattr(wilson_mod, "FIELD_EVAL_CHUNK", chunk)
            got = FieldEvaluator(a).coefficients_at(pts)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_gauge_transformed_evaluator_logs_match_direct_sum(monkeypatch):
    a = random_connection(SU2, 3, seed=26)
    sigma = random_gauge(SU2, 2, 0.02, seed=27)
    pts = np.array([[0.1, -0.4, 1.7], [2.25, 0.5, -1.0], [0.0, 0.0, 0.0]])
    vals = _direct_fourier_values(a.coeffs, 3, pts)
    logs = _direct_fourier_values(sigma.log_stack(), 2, pts)
    ref = gauge_act(SU2, vals, logs, sigma.winding)
    monkeypatch.setattr(wilson_mod, "FIELD_EVAL_CHUNK", 2)
    got = GaugeTransformedEvaluator(a, sigma).coefficients_at(pts)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
