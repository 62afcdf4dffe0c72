"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line (visible with -s or in the captured
output) after its assertions; the stated runtime budgets are asserted too,
with large measured margins on the reference machine.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connection, random_gauge
from gauge import (
    GaugeTransform,
    GaugeTransformedEvaluator,
    action_decay_profile,
    axis_cycle,
    gauge_covariance_check,
)
from ymflow.ensemble import (
    EnsembleSpec,
    closed_form_sym_limit,
    closed_form_sym_mean,
    distribution_convergence_report,
    run_ensemble,
    tightness_report,
)
from ymflow.fields import SpectralConnection, h1_norm
from ymflow.flow import FlowConfig, integrate
from ymflow.gff import SamplerConfig, sample_gff, sample_u1_coulomb
from ymflow.groups import SU2, U1
from ymflow.verify import gradient_ratio, u1_flow_gap, u1_wilson_gap, zdds_path_gap
from ymflow.wilson import Character, make_loop, rectangle_loop, wilson_loop

N_SAMPLES_ORACLE = 20
CUTOFF_ORACLE = 4
TIMES_ORACLE = (0.01, 0.05, 0.2)

FIVE_LOOPS = (
    rectangle_loop((0.10, 0.20, 0.30), 0, 1, 0.25, 0.25, name="plaq-xy"),
    rectangle_loop((0.55, 0.15, 0.80), 1, 2, 0.40, 0.20, name="rect-yz"),
    axis_cycle(0, (0.0, 0.25, 0.50), name="cycle-x"),
    make_loop([(0.2, 0.2, 0.2), (0.6, 0.3, 0.2), (0.5, 0.7, 0.4),
               (0.2, 0.2, 0.2)], name="triangle"),
    make_loop([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
               (0.0, 0.0, 0.0)], name="diag-winding"),
)
THREE_CHARS = (
    Character(U1, "u1_power", 1),
    Character(U1, "u1_power", -1),
    Character(U1, "u1_power", 2),
)


def _coulomb(seed, stream=0, cutoff=CUTOFF_ORACLE):
    return sample_u1_coulomb(
        SamplerConfig(U1, cutoff, seed=seed, stream=stream, coupling=1.0)
    )


@pytest.fixture(scope="module")
def oracle_flows():
    """Numerically flowed trajectories for criteria 1 and 2 (shared)."""
    flows = {}
    start = time.perf_counter()
    for stream in range(N_SAMPLES_ORACLE):
        a0 = _coulomb(seed=2024, stream=stream)
        for kind in ("ym", "zdds"):
            cfg = FlowConfig(kind, dt_initial=1e-3)
            flows[(stream, kind)] = (a0, integrate(a0, cfg, TIMES_ORACLE))
    elapsed = time.perf_counter() - start
    return flows, elapsed


def test_criterion_1_u1_oracle_equivalence(oracle_flows):
    """Both integrators reproduce the exact heat semigroup on Coulomb
    data at relative L^2 error <= 1e-8."""
    flows, elapsed = oracle_flows
    worst = 0.0
    for (stream, kind), (a0, traj) in flows.items():
        assert not traj.blew_up
        for t in TIMES_ORACLE:
            rel = u1_flow_gap(a0, traj.states[t], t)
            worst = max(worst, rel)
            assert rel <= 1e-8
    assert elapsed <= 120.0
    print(f"\nACCEPTANCE 1 PASS: U(1) oracle equivalence, worst rel L2 "
          f"{worst:.3e} <= 1e-8 over {N_SAMPLES_ORACLE} samples x YM/ZDDS x "
          f"{TIMES_ORACLE} ({elapsed:.1f}s)")


def test_criterion_2_wilson_loop_exactness(oracle_flows):
    """Holonomy-ODE Wilson values on the flowed fields match the exact
    U(1) formula to 1e-8 over 5 loops x 3 characters x 3 times."""
    flows, _ = oracle_flows
    start = time.perf_counter()
    worst = 0.0
    for stream in range(N_SAMPLES_ORACLE):
        a0, traj = flows[(stream, "zdds")]
        for t in TIMES_ORACLE:
            for lp in FIVE_LOOPS:
                dev = u1_wilson_gap(a0, traj.states[t], t, lp, THREE_CHARS, steps=384)
                worst = max(worst, dev)
                assert dev <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 2 PASS: Wilson exactness, worst |ODE - exact| "
          f"{worst:.3e} <= 1e-8 over {N_SAMPLES_ORACLE} samples x 5 loops x "
          f"3 characters x 3 times ({elapsed:.1f}s)")


def test_criterion_3_tightness_statistic():
    """U(1) ensemble means of the flowed action match the closed-form
    truncated series within 4 SE and stay below the all-mode limit."""
    start = time.perf_counter()
    t_obs = 0.05
    spec = EnsembleSpec(
        group=U1, sampler_kind="u1_coulomb", seed=77,
        cutoffs=(2, 4, 8), times=(t_obs,), n_samples=400,
        flow=FlowConfig("u1_exact"),
        coupling=1.0,
    )
    records, _ = run_ensemble(spec, threads=4)
    rows = tightness_report(records, spec)
    assert len(rows) == 3
    assert all(row.n_used == 400 for row in rows)
    limit = closed_form_sym_limit(t_obs)
    msgs = []
    for row in rows:
        closed = closed_form_sym_mean(row.cutoff, t_obs)
        z = abs(row.mean - closed) / row.standard_error
        assert z <= 4.0
        msgs.append(f"M={row.cutoff}: z={z:.2f}")
        assert not row.flagged
    top = [r for r in rows if r.cutoff == 8][0]
    assert top.mean <= limit + 5.0 * top.standard_error
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    print(f"\nACCEPTANCE 3 PASS: tightness means within 4 SE of the closed "
          f"form ({', '.join(msgs)}); M=8 mean {top.mean:.6f} <= all-mode "
          f"limit {limit:.6f} + 5 SE ({elapsed:.1f}s)")


def test_criterion_4_pathwise_convergence():
    """Coupled-seed Wilson deviations from the cutoff-16 reference law
    strictly decrease across M = 2, 4, 8 for >= 90% of 200 seeds."""
    start = time.perf_counter()
    t_obs = 0.005  # resolvable truncation tails at every cutoff (ledger)
    spec = EnsembleSpec(
        group=U1, sampler_kind="u1_coulomb", seed=99,
        cutoffs=(2, 4, 8), times=(t_obs,), n_samples=200,
        flow=FlowConfig("u1_exact"),
        coupling=1.0,
        loops=(FIVE_LOOPS[0], FIVE_LOOPS[2]),
        characters=(THREE_CHARS[0], THREE_CHARS[2]),
        reference_cutoff=16,
    )
    records, reference = run_ensemble(spec, threads=4)
    rows, frac = distribution_convergence_report(records, spec, reference)
    assert frac >= 0.90
    elapsed = time.perf_counter() - start
    assert elapsed <= 180.0
    print(f"\nACCEPTANCE 4 PASS: per-seed deviation decreasing across "
          f"M=2,4,8 for {frac:.1%} of 200 seeds (>= 90%) ({elapsed:.1f}s)")


def test_criterion_5_su2_action_monotonicity():
    """50 SU(2) free-field samples at H^1 norm 0.5: the action never
    increases along the Yang-Mills flow within 1e-9 relative."""
    start = time.perf_counter()
    checkpoints = tuple(np.linspace(0.005, 0.05, 10))
    failures = 0
    for stream in range(50):
        a0 = sample_gff(SamplerConfig(SU2, 3, seed=555, stream=stream))
        a0 = SpectralConnection(a0.group, a0.cutoff, a0.coeffs * (0.5 / h1_norm(a0)))
        cfg = FlowConfig("ym", dt_initial=1e-3)
        traj = integrate(a0, cfg, checkpoints)
        assert not traj.blew_up
        profile, violations = action_decay_profile(traj, tol=1e-9)
        if violations:
            failures += 1
        actions = [s for _, s in profile]
        for s0, s1 in zip(actions, actions[1:]):
            assert s1 <= s0 + 1e-9 * (1.0 + s0)
    assert failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 180.0
    print(f"\nACCEPTANCE 5 PASS: S_YM non-increasing at every checkpoint "
          f"for 50 SU(2) samples (H1 = 0.5, t <= 0.05) ({elapsed:.1f}s)")


def test_criterion_6_gauge_covariance_and_invariance():
    """Flow covariance <= 1e-6 (U(1) oscillatory sigma, SU(2) constant
    sigma); Wilson gauge invariance <= 1e-7 chi(id) on 50 pairs/group."""
    start = time.perf_counter()
    # --- flow covariance
    a_u1 = _coulomb(seed=31, cutoff=3)
    sig_osc = GaugeTransform.winding_u1((1, -1, 2))
    cfg = FlowConfig("ym", dt_initial=1e-3)
    dev_u1 = gauge_covariance_check(a_u1, sig_osc, 0.02, cfg)
    assert dev_u1 <= 1e-6
    a_su2 = sample_gff(SamplerConfig(SU2, 2, seed=32))
    a_su2 = SpectralConnection(a_su2.group, a_su2.cutoff, a_su2.coeffs * 0.3)
    sig_const = GaugeTransform.constant(SU2, (0.5, -0.3, 0.8))
    dev_su2 = gauge_covariance_check(a_su2, sig_const, 0.02, cfg)
    assert dev_su2 <= 1e-6
    dev_su2_z = gauge_covariance_check(
        a_su2, sig_const, 0.02, FlowConfig("zdds", dt_initial=1e-3)
    )
    assert dev_su2_z <= 1e-6
    # --- Wilson gauge invariance, 50 random pairs per group
    worst = {"u1": 0.0, "su2": 0.0}
    loop_pool = (FIVE_LOOPS[0], FIVE_LOOPS[3])
    for k in range(50):
        a = _coulomb(seed=40, stream=k, cutoff=3)
        sig = random_gauge(U1, 1, 0.3, seed=1000 + k)
        lp = loop_pool[k % 2]
        ch = THREE_CHARS[0]
        w0 = wilson_loop(a, lp, ch, steps=512)
        w1 = wilson_loop(GaugeTransformedEvaluator(a, sig), lp, ch, steps=512)
        worst["u1"] = max(worst["u1"], abs(w1 - w0))
        assert abs(w1 - w0) <= 1e-7 * abs(ch(np.eye(ch.group.matrix_dim)))
    for k in range(50):
        a = sample_gff(SamplerConfig(SU2, 2, seed=41, stream=k))
        a = SpectralConnection(a.group, a.cutoff, a.coeffs * 0.25)
        sig = random_gauge(SU2, 1, 0.08, seed=2000 + k)
        lp = loop_pool[k % 2]
        ch = Character(SU2, "fundamental")
        w0 = wilson_loop(a, lp, ch, steps=1536)
        w1 = wilson_loop(GaugeTransformedEvaluator(a, sig), lp, ch, steps=1536)
        worst["su2"] = max(worst["su2"], abs(w1 - w0))
        assert abs(w1 - w0) <= 1e-7 * abs(ch(np.eye(ch.group.matrix_dim)))
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    print(f"\nACCEPTANCE 6 PASS: flow covariance u1={dev_u1:.2e}, "
          f"su2={dev_su2:.2e} (<= 1e-6); Wilson invariance worst "
          f"u1={worst['u1']:.2e}, su2={worst['su2']:.2e} "
          f"(<= 1e-7 chi(id)) ({elapsed:.1f}s)")


def test_criterion_7_gradient_flow_consistency():
    """Finite-difference directional derivatives of the action match
    <ym_rhs, B> through one global constant, spread <= 1e-4 over 30
    (field, direction) pairs."""
    start = time.perf_counter()
    # constant pinned on an Abelian instance first
    ratios = [gradient_ratio(random_connection(U1, 2, seed=300, scale=0.5),
                             random_connection(U1, 2, seed=301, scale=0.5))]
    for k in range(29):
        group = U1 if k % 3 == 0 else SU2
        ratios.append(gradient_ratio(random_connection(group, 2, seed=310 + k, scale=0.4),
                                     random_connection(group, 2, seed=400 + k, scale=0.4)))
    ratios = np.asarray(ratios)
    spread = (ratios.max() - ratios.min()) / abs(np.median(ratios))
    assert spread <= 1e-4
    assert abs(np.median(ratios) + 4.0) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 7 PASS: gradient constant c = {np.median(ratios):+.9f} "
          f"with relative spread {spread:.2e} <= 1e-4 over 30 pairs "
          f"({elapsed:.1f}s)")


def test_criterion_8_zdds_dual_path():
    """Operator-composition and componentwise ZDDS right-hand sides agree
    to 1e-10 on 30 random SU(2) fields at cutoff 3."""
    start = time.perf_counter()
    worst = 0.0
    for k in range(30):
        rel = zdds_path_gap(random_connection(SU2, 3, seed=500 + k, scale=0.6))
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(f"\nACCEPTANCE 8 PASS: ZDDS dual-path worst deviation "
          f"{worst:.3e} <= 1e-10 over 30 SU(2) fields ({elapsed:.1f}s)")


def test_criterion_9_desk_scale_limits_stated():
    """No finite computation here certifies the existence of the limiting
    measures or the non-Abelian limits; criteria 3-5 are their
    property-based desk-scale shadows.  This criterion only requires the
    limitation to be stated explicitly, which the README does."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "not certified at desk scale" in text
    print("\nACCEPTANCE 9 PASS (by statement): existence of limiting "
          "measures and non-Abelian limits are analytical statements with "
          "no finite-compute check; criteria 3-5 stand in as their "
          "property-based shadows, and README.md states this limitation.")
