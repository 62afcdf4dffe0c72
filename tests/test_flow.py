import numpy as np
import pytest

from conftest import random_connection
from ymflow.fields import (
    GaugeTransform,
    SpectralConnection,
    coulomb_project_u1,
    d_star_1form,
    h1_norm,
    heat_weights,
    l2_norm,
    mode_norm_sq,
    ym_action,
    ym_action_u1_spectral,
    ym_rhs,
    zero_connection,
)
from ymflow.flow import (
    FlowConfig,
    action_decay_profile,
    gauge_covariance_check,
    heat_semigroup_u1,
    integrate,
)
from ymflow.gff import SamplerConfig, sample_gff, sample_u1_coulomb
from ymflow.groups import SU2, U1


def gff_like_u1(cutoff, seed, scale=1.0):
    return sample_u1_coulomb(SamplerConfig(U1, cutoff, seed=seed)).scaled(scale)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig("warp", 1.0)
    with pytest.raises(ValueError):
        FlowConfig("ym", 0.0)
    with pytest.raises(ValueError):
        FlowConfig("ym", 1.0, dt_initial=-1e-3)
    with pytest.raises(ValueError):
        FlowConfig("ym", 1.0, checkpoint_times=(2.0,))
    with pytest.raises(ValueError):
        FlowConfig("ym", 1.0, checkpoint_times=(0.5, 0.2))
    with pytest.raises(ValueError):
        FlowConfig("ym", 1.0, dt_safety=1.5)


def test_heat_semigroup_u1_cases():
    a = gff_like_u1(2, seed=1)
    same = heat_semigroup_u1(a, 0.0)
    assert np.array_equal(same.coeffs, a.coeffs)
    const = zero_connection(U1, 2)
    const.coeffs[0, :, 2, 2, 2] = (1.0, 2.0, -0.5)
    for t in (0.1, 3.0):
        assert np.array_equal(heat_semigroup_u1(const, t).coeffs, const.coeffs)
    with pytest.raises(ValueError):
        heat_semigroup_u1(a, -0.1)
    with pytest.raises(ValueError):
        heat_semigroup_u1(random_connection(SU2, 2, seed=2), 0.1)


def test_heat_semigroup_single_mode_multiplier():
    a = zero_connection(U1, 2)
    a.coeffs[0, 0, 3, 2, 2] = 0.7  # n = (1, 0, 0)
    a.coeffs[0, 0, 1, 2, 2] = 0.7
    t = 1.0 / (4 * np.pi**2)
    out = heat_semigroup_u1(a, t)
    assert abs(out.coeffs[0, 0, 3, 2, 2] - 0.7 * np.exp(-1.0)) < 1e-15


def test_integrate_zero_field_is_fixed_point():
    cfg = FlowConfig("zdds", 0.05, checkpoint_times=(0.01, 0.05))
    traj = integrate(zero_connection(SU2, 2), cfg)
    assert traj.attained_time == 0.05
    assert not traj.blew_up
    for t, state in traj.states.items():
        assert np.max(np.abs(state.coeffs)) == 0.0


@pytest.mark.parametrize("kind", ["ym", "zdds"])
def test_u1_coulomb_oracle_equivalence(kind):
    a = gff_like_u1(3, seed=3)
    times = (0.01, 0.05, 0.2)
    cfg = FlowConfig(kind, 0.2, dt_initial=1e-3, checkpoint_times=times)
    traj = integrate(a, cfg)
    for t in times:
        exact = heat_semigroup_u1(a, t)
        num = traj.states[t]
        rel = l2_norm(SpectralConnection(U1, 3, num.coeffs - exact.coeffs)) \
            / l2_norm(exact)
        assert rel <= 1e-8
        # divergence preservation along the flow
        assert np.max(np.abs(d_star_1form(num).coeffs)) <= 1e-10


def test_u1_exact_flow_kind():
    a = gff_like_u1(2, seed=4)
    cfg = FlowConfig("u1_exact", 0.1, checkpoint_times=(0.02, 0.1))
    traj = integrate(a, cfg)
    for t in (0.02, 0.1):
        assert np.array_equal(
            traj.states[t].coeffs, heat_semigroup_u1(a, t).coeffs
        )
    with pytest.raises(ValueError):
        integrate(random_connection(SU2, 2, seed=5), cfg)


def test_su2_step_halving_convergence_order():
    a = random_connection(SU2, 2, seed=6)
    a = a.scaled(0.1 / h1_norm(a))
    t_end = 0.02
    sols = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = FlowConfig("zdds", t_end, dt_initial=dt, checkpoint_times=(t_end,),
                         error_tol=10.0)
        sols[dt] = integrate(a, cfg).states[t_end].coeffs
    e_coarse = np.sqrt(np.sum(np.abs(sols[4e-4] - sols[1e-4]) ** 2))
    e_fine = np.sqrt(np.sum(np.abs(sols[2e-4] - sols[1e-4]) ** 2))
    # (e_coarse/e_fine) ~ (2^p - ...); p >= 3 demands a ratio >= 8-ish
    order = np.log2(e_coarse / e_fine)
    assert order >= 3.0


def test_ym_monotonicity_and_profile():
    a = sample_gff(SamplerConfig(SU2, 2, seed=7))
    a = a.scaled(0.5 / h1_norm(a))
    cps = tuple(np.linspace(0.005, 0.05, 10))
    cfg = FlowConfig("ym", 0.05, dt_initial=1e-3, checkpoint_times=cps)
    traj = integrate(a, cfg)
    profile, violations = action_decay_profile(traj)
    assert violations == []
    actions = [s for _, s in profile]
    assert all(b < a_ for a_, b in zip(actions, actions[1:]))


def test_action_profile_zero_field():
    cfg = FlowConfig("ym", 0.01, checkpoint_times=(0.005, 0.01))
    traj = integrate(zero_connection(SU2, 1), cfg)
    profile, violations = action_decay_profile(traj)
    assert violations == []
    assert all(s == 0.0 for _, s in profile)


def test_u1_action_decay_matches_closed_form():
    # S_YM(t) = 8 pi^2 sum e^(-8 pi^2 |n|^2 t) |n|^2 |Z_n|^2 for a fixed
    # Coulomb sample
    a = gff_like_u1(2, seed=8)
    nsq = mode_norm_sq(2)
    amp = np.sum(np.abs(a.coeffs[0]) ** 2, axis=0)
    times = (0.01, 0.03, 0.1)
    cfg = FlowConfig("zdds", 0.1, dt_initial=1e-3, checkpoint_times=times)
    traj = integrate(a, cfg)
    profile, violations = action_decay_profile(traj)
    assert violations == []
    for t, s in profile:
        closed = 8 * np.pi**2 * np.sum(
            np.exp(-8 * np.pi**2 * nsq * t) * nsq * amp
        )
        assert abs(s - closed) <= 1e-8 * (1 + closed)


def test_blowup_threshold_detected():
    a = random_connection(SU2, 2, seed=9, scale=0.2)
    cfg = FlowConfig("zdds", 0.1, dt_initial=1e-3, checkpoint_times=(0.1,),
                     blowup_threshold=linf_cap(a) * 0.5)
    traj = integrate(a, cfg)
    assert traj.blew_up
    assert traj.failure == "threshold"
    assert traj.attained_time < 0.1


def linf_cap(a):
    from ymflow.fields import linf_norm
    return linf_norm(a)


def test_nonfinite_reported_distinctly():
    a = random_connection(SU2, 1, seed=10, scale=1.0)
    bad = a.copy()
    bad.coeffs[0, 0, 1, 1, 1] = np.nan
    cfg = FlowConfig("zdds", 0.01, checkpoint_times=(0.01,))
    traj = integrate(bad, cfg)
    assert traj.blew_up
    assert traj.failure == "non-finite"


def test_gauge_covariance_u1_winding():
    a = gff_like_u1(2, seed=11)
    sigma = GaugeTransform.winding_u1((1, 0, -1))
    cfg = FlowConfig("ym", 0.02, dt_initial=1e-3)
    dev = gauge_covariance_check(a, sigma, 0.02, cfg)
    assert dev <= 1e-6
    cfg_z = FlowConfig("zdds", 0.02, dt_initial=1e-3)
    dev_z = gauge_covariance_check(a, sigma, 0.02, cfg_z)
    assert dev_z <= 1e-6


def test_gauge_covariance_su2_constant_sigma():
    a = random_connection(SU2, 2, seed=12, scale=0.3)
    sigma = GaugeTransform.constant(SU2, (0.4, -0.7, 0.2))
    cfg = FlowConfig("zdds", 0.02, dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.02, cfg) <= 1e-6
    cfg_ym = FlowConfig("ym", 0.02, dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.02, cfg_ym) <= 1e-6


def test_gauge_covariance_identity_sigma_zero():
    a = random_connection(SU2, 2, seed=13, scale=0.2)
    sigma = GaugeTransform.identity(SU2)
    cfg = FlowConfig("zdds", 0.01, dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.01, cfg) < 1e-12


def test_zdds_rejects_oscillatory_sigma():
    from conftest import random_gauge
    a = random_connection(SU2, 2, seed=14, scale=0.2)
    sigma = random_gauge(SU2, 1, 0.2, seed=15)
    cfg = FlowConfig("zdds", 0.01, dt_initial=1e-3)
    with pytest.raises(ValueError):
        gauge_covariance_check(a, sigma, 0.01, cfg)


def test_checkpoint_states_land_exactly():
    a = gff_like_u1(2, seed=16)
    times = (0.013, 0.029, 0.05)
    cfg = FlowConfig("zdds", 0.05, dt_initial=1e-3, checkpoint_times=times)
    traj = integrate(a, cfg)
    assert tuple(traj.checkpoint_times()) == times
    for t in times:
        exact = heat_semigroup_u1(a, t)
        rel = l2_norm(SpectralConnection(U1, 2, traj.states[t].coeffs - exact.coeffs)) \
            / l2_norm(exact)
        assert rel < 1e-10


def test_resume_reproduces_uninterrupted_run():
    # the controller resets at checkpoints, so a resumed run retraces the
    # same steps; only the float arithmetic of the final partial step
    # width (t_end - t is not associative) separates the two runs
    a = random_connection(SU2, 2, seed=17, scale=0.3)
    full = integrate(a, FlowConfig("zdds", 0.02, dt_initial=1e-3,
                                   checkpoint_times=(0.01, 0.02)))
    first = integrate(a, FlowConfig("zdds", 0.01, dt_initial=1e-3,
                                    checkpoint_times=(0.01,)))
    resumed = integrate(first.states[0.01],
                        FlowConfig("zdds", 0.01, dt_initial=1e-3,
                                   checkpoint_times=(0.01,)))
    gap = np.max(np.abs(resumed.states[0.01].coeffs - full.states[0.02].coeffs))
    assert gap <= 5e-12 * max(np.max(np.abs(full.states[0.02].coeffs)), 1e-30)


def test_error_controller_shrinks_dt():
    a = random_connection(SU2, 2, seed=18, scale=0.5)
    tight = integrate(a, FlowConfig("zdds", 0.004, dt_initial=2e-3,
                                    checkpoint_times=(0.004,), error_tol=1e-9))
    loose = integrate(a, FlowConfig("zdds", 0.004, dt_initial=2e-3,
                                    checkpoint_times=(0.004,), error_tol=1e-2))
    assert tight.step_count > loose.step_count


def test_rhs_evaluation_count_recorded():
    a = random_connection(SU2, 1, seed=19, scale=0.1)
    traj = integrate(a, FlowConfig("zdds", 0.002, dt_initial=1e-3,
                                   checkpoint_times=(0.002,)))
    assert traj.step_count == 2
    assert traj.rhs_evaluations == 6


def test_one_nonlinear_call_per_stage_and_no_separate_diagnostics(monkeypatch):
    # the evaluation of each accepted state serves the action guard, the
    # blow-up check and stage 0 of the next step: three nonlinear calls per
    # accepted step plus one for the initial state, and no separate action
    # or sup-norm pass
    import ymflow.fields as fields_mod
    import ymflow.flow as flow_mod

    calls = {"nonlinear": 0, "diagnostic": 0}
    nonlinear = flow_mod._NONLINEAR["ym"]

    def counted(a, m):
        calls["nonlinear"] += 1
        return nonlinear(a, m)

    def forbidden(*args, **kwargs):
        calls["diagnostic"] += 1
        raise AssertionError("separate diagnostic called in the step loop")

    monkeypatch.setitem(flow_mod._NONLINEAR, "ym", counted)
    for mod in (fields_mod, flow_mod):
        for name in ("ym_action", "linf_norm"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    a = sample_gff(SamplerConfig(SU2, 2, seed=7))
    a = a.scaled(0.5 / h1_norm(a))
    traj = integrate(a, FlowConfig("ym", 0.006, dt_initial=1e-3,
                                   checkpoint_times=(0.003, 0.006)))
    assert not traj.blew_up
    assert traj.step_count == 6
    assert traj.rhs_evaluations == 3 * traj.step_count
    assert calls == {"nonlinear": 3 * traj.step_count + 1, "diagnostic": 0}


@pytest.mark.parametrize("kind", ["ym", "zdds"])
def test_checkpoint_actions_recorded(kind):
    a = random_connection(SU2, 2, seed=22, scale=0.3)
    traj = integrate(a, FlowConfig(kind, 0.004, dt_initial=1e-3,
                                   checkpoint_times=(0.002, 0.004)))
    assert sorted(traj.actions) == traj.checkpoint_times()
    for t, state in traj.states.items():
        want = ym_action(state)
        assert abs(traj.actions[t] - want) <= 1e-12 * want
    u1 = gff_like_u1(2, seed=23)
    exact = integrate(u1, FlowConfig("u1_exact", 0.01, checkpoint_times=(0.005,)))
    for t, state in exact.states.items():
        assert exact.actions[t] == ym_action_u1_spectral(state)


def test_user_resolution_matches_default_grid():
    # every M >= 4N+1 dealiases exactly, so a user grid of either parity
    # reproduces the default (M = 9 at N = 2) to rounding
    a = random_connection(SU2, 2, seed=24, scale=0.3)
    runs = [integrate(a, FlowConfig("ym", 0.003, dt_initial=1e-3,
                                    checkpoint_times=(0.003,), resolution=m))
            for m in (None, 10, 11)]
    base = runs[0].states[0.003].coeffs
    for run in runs[1:]:
        assert run.step_count == runs[0].step_count
        assert np.max(np.abs(run.states[0.003].coeffs - base)) < 1e-12 * np.max(np.abs(base))
    with pytest.raises(ValueError, match="dealiasing"):
        integrate(a, FlowConfig("ym", 0.003, resolution=8))


def test_debug_checks_assert_zdds_paths_each_step():
    a = random_connection(SU2, 2, seed=20, scale=0.3)
    cfg = FlowConfig("zdds", 0.003, dt_initial=1e-3, checkpoint_times=(0.003,),
                     debug_checks=True)
    traj = integrate(a, cfg)
    assert traj.step_count >= 3
    assert not traj.blew_up


def test_u1_oracle_equivalence_at_cutoff_eight():
    # the flow-vs-semigroup invariant holds up to cutoff 8 at dt <= 1e-3
    a = gff_like_u1(8, seed=21)
    t = 0.005
    cfg = FlowConfig("zdds", t, dt_initial=1e-3, checkpoint_times=(t,))
    traj = integrate(a, cfg)
    exact = heat_semigroup_u1(a, t)
    rel = l2_norm(SpectralConnection(U1, 8, traj.states[t].coeffs - exact.coeffs)) \
        / l2_norm(exact)
    assert rel <= 1e-8


def test_blowup_statistics_qualitative():
    # attained times are always positive, and the fraction halting before
    # t = 1e-3 never grows as the amplitude shrinks; at desk scale the
    # truncated flows did not blow up spontaneously at any tested
    # amplitude (the truncated cubic term is dissipative), so both
    # fractions are zero and the inequality is the meaningful residue
    fractions = []
    for scale in (10.0, 1.0):
        halted = 0
        for stream in range(6):
            a = sample_gff(SamplerConfig(SU2, 2, seed=77, stream=stream))
            a = a.scaled(scale / h1_norm(a))
            cfg = FlowConfig("zdds", 1e-3, dt_initial=5e-5,
                             checkpoint_times=(1e-3,), error_tol=0.05)
            traj = integrate(a, cfg)
            assert traj.attained_time > 0.0
            if traj.blew_up and traj.attained_time < 1e-3:
                halted += 1
        fractions.append(halted / 6.0)
    assert fractions[1] <= fractions[0]


def test_heat_weights_one_shared_read_only_table():
    w = heat_weights(3, (0.01, 0.02))
    assert w.shape == (2, 7, 7, 7)
    assert not w.flags.writeable
    assert heat_weights(3, [0.01, 0.02]) is w
    assert np.array_equal(w[0], np.exp(-4.0 * np.pi**2 * mode_norm_sq(3) * 0.01))
    assert np.array_equal(heat_weights(3, 0.02)[0], w[1])
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=8))
    assert np.array_equal(heat_semigroup_u1(a, 0.02).coeffs,
                          a.coeffs * heat_weights(3, 0.02)[0][None, None])
    with pytest.raises(ValueError):
        heat_weights(3, (0.01, -0.01))
