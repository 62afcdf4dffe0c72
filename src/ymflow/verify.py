"""Built-in end-to-end property suites behind the `verify` subcommand.

Each suite re-derives a handful of exact identities with fresh seeded
data: they are cheap shadows of the full test suite meant to certify an
installation (or catch a miscompiled numpy) in seconds.
"""

from __future__ import annotations

import time

import numpy as np

from .fields import (
    SpectralConnection,
    _spectral_to_values,
    _values_to_spectral,
    coulomb_project_u1,
    d_star_1form,
    h1_norm,
    l2_norm,
    ym_action,
    ym_action_u1_spectral,
    ym_rhs,
    zdds_rhs,
    zero_connection,
)
from .flow import FlowConfig, heat_semigroup_u1, integrate
from .gff import SamplerConfig, sample_gff, sample_u1_coulomb
from .groups import SU2, U1, bracket, exp_map, standard_basis
from .wilson import Character, h_series, rectangle_loop, wilson_loop

__all__ = ["run_suites", "random_connection", "SUITES"]


def random_connection(group, cutoff, seed, scale=1.0) -> SpectralConnection:
    """Reality-symmetric random coefficients, O(scale) entries."""
    rng = np.random.default_rng(seed)
    k = 2 * cutoff + 1
    shape = (group.algebra_dim, 3, k, k, k)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = 0.5 * (c + np.conj(c[:, :, ::-1, ::-1, ::-1]))
    return SpectralConnection(group, cutoff, c * scale)


def _suite_algebra():
    basis = standard_basis(SU2)
    gram = np.array([[np.real(np.sum(np.conj(x) * y)) for y in basis] for x in basis])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12, "basis Gram matrix"
    rng = np.random.default_rng(101)
    for _ in range(20):
        co = rng.normal(size=(3, 3))
        x, y, z = (np.einsum("a,aij->ij", co[i], basis) for i in range(3))
        jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + \
            bracket(z, bracket(x, y))
        assert np.max(np.abs(jac)) < 1e-12, "Jacobi identity"
        e = exp_map(x)
        assert np.max(np.abs(e @ exp_map(-x) - np.eye(2))) < 1e-10, "exp inverse"


def _suite_transforms():
    a = random_connection(SU2, 3, 7)
    g = _spectral_to_values(a.coeffs, 3, 14)
    back = _values_to_spectral(g, 3, 14)
    assert np.max(np.abs(back - a.coeffs[..., 3:])) < 1e-12, "transform round trip"
    grid_l2 = float(np.sqrt(np.mean(np.sum(g**2, axis=(0, 1)))))
    assert abs(grid_l2 - l2_norm(a)) < 1e-12 * (1 + grid_l2), "Parseval"


def _suite_u1_oracle():
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=13))
    assert np.max(np.abs(d_star_1form(a))) < 1e-12, "Coulomb divergence"
    assert abs(ym_action(a) - ym_action_u1_spectral(a)) < \
        1e-10 * (1 + ym_action(a)), "action dual route"
    t = 0.02
    traj = integrate(a, FlowConfig("zdds"), (t,))
    exact = heat_semigroup_u1(a, t)
    gap = np.sqrt(np.sum(np.abs(traj.states[t].coeffs - exact.coeffs) ** 2))
    assert gap < 1e-8 * (1 + l2_norm(exact)), "flow vs heat semigroup"
    lp = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25)
    ch = Character(U1, "u1_power", 1)
    w_ode = wilson_loop(heat_semigroup_u1(a, t), lp, ch, steps=192)
    w_exact = ch.u1_value(h_series(a, lp, t))
    assert abs(w_ode - w_exact) < 1e-8, "Wilson loop dual route"


def _suite_zdds_consistency():
    for seed in (31, 32, 33):
        a = random_connection(SU2, 2, seed, scale=0.4)
        r_op = zdds_rhs(a, path="operator").coeffs
        r_ex = zdds_rhs(a, path="explicit").coeffs
        scale = np.max(np.abs(r_op)) + 1e-30
        assert np.max(np.abs(r_op - r_ex)) / scale < 1e-10, \
            "operator vs explicit right-hand side"


def _suite_ym_zdds_invariants():
    # ZDDS differs from YM by a gauge direction: on smooth data (a cutoff-1
    # draw at H^1 = 5, zero-padded) S_YM and a plaquette agree
    small = sample_gff(SamplerConfig(SU2, 1, seed=1))
    a = zero_connection(SU2, 2)
    a.coeffs[:, :, 1:4, 1:4, 1:4] = small.scaled(5.0 / h1_norm(small)).coeffs
    t = 0.02
    runs = [integrate(a, FlowConfig(kind), (t,)) for kind in ("ym", "zdds")]
    assert not any(run.blew_up for run in runs), "flow blew up"
    s_ym, s_zdds = (run.actions[t] for run in runs)
    assert abs(s_ym - s_zdds) <= 5e-6 * s_ym, "S_YM of YM vs ZDDS"
    plaq = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25)
    ch = Character(SU2, "fundamental")
    w_ym, w_zdds = (wilson_loop(run.states[t], plaq, ch) for run in runs)
    assert abs(w_ym - w_zdds) <= 2e-6, "plaquette of YM vs ZDDS"


def _suite_gradient():
    a = random_connection(SU2, 2, 41, scale=0.3)
    b = random_connection(SU2, 2, 42, scale=0.3)
    eps = 3e-6
    sp = SpectralConnection
    splus = ym_action(sp(SU2, 2, a.coeffs + eps * b.coeffs))
    sminus = ym_action(sp(SU2, 2, a.coeffs - eps * b.coeffs))
    fd = (splus - sminus) / (2 * eps)
    pair = float(np.sum(np.real(np.conj(ym_rhs(a).coeffs) * b.coeffs)))
    assert abs(fd + 4.0 * pair) < 1e-5 * (1 + abs(fd)), "gradient pairing"


def _suite_sampling():
    a1 = sample_gff(SamplerConfig(SU2, 2, seed=55, stream=3))
    a2 = sample_gff(SamplerConfig(SU2, 2, seed=55, stream=3))
    assert np.array_equal(a1.coeffs, a2.coeffs), "sampler determinism"
    big = sample_gff(SamplerConfig(SU2, 4, seed=55, stream=3))
    assert np.array_equal(big.restricted(2).coeffs, a1.coeffs), \
        "cross-cutoff coupling"
    c = coulomb_project_u1(sample_u1_coulomb(SamplerConfig(U1, 2, seed=56)))
    again = coulomb_project_u1(c)
    assert np.max(np.abs(again.coeffs - c.coeffs)) < 1e-14, \
        "Coulomb projection idempotence"


def _suite_determinism():
    import io
    from .ensemble import EnsembleSpec, run_ensemble

    spec = EnsembleSpec(
        group=U1, sampler_kind="u1_coulomb", seed=71, cutoffs=(2, 3),
        times=(0.02,), n_samples=6,
        flow=FlowConfig("u1_exact"),
        loops=(rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25, name="p"),),
        characters=(Character(U1, "u1_power", 1),),
    )

    def run_bytes(threads):
        buf = io.StringIO()
        recs, _ = run_ensemble(spec, threads=threads)
        for rec in recs:
            buf.write(repr(sorted(rec.wilson.items())))
            buf.write(repr(sorted(rec.s_ym.items())))
        return buf.getvalue()

    assert run_bytes(1) == run_bytes(2), "worker count changed the results"


SUITES = [
    ("algebra", _suite_algebra),
    ("transforms", _suite_transforms),
    ("u1-oracle", _suite_u1_oracle),
    ("zdds-consistency", _suite_zdds_consistency),
    ("ym-zdds-invariants", _suite_ym_zdds_invariants),
    ("gradient-pairing", _suite_gradient),
    ("sampling", _suite_sampling),
    ("determinism", _suite_determinism),
]


def run_suites(out=print) -> bool:
    """Run every suite; report pass/fail and timing; True iff all passed."""
    all_ok = True
    for name, fn in SUITES:
        start = time.perf_counter()
        try:
            fn()
            status = "PASS"
        except AssertionError as exc:
            status = f"FAIL ({exc})"
            all_ok = False
        elapsed = time.perf_counter() - start
        out(f"{name:<18} {status:<40} {elapsed:8.3f}s")
    return all_ok
