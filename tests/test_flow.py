import numpy as np
import pytest

from conftest import random_connection
from gauge import GaugeTransform, action_decay_profile, gauge_covariance_check
from reference import (d_star_1form, integrate_full_spectrum, nonlinear_pass,
                       ym_action_u1_spectral)
from ymflow.fields import (
    SpectralConnection,
    h1_norm,
    heat_weights,
    mode_norm_sq,
    ym_action,
    zero_connection,
)
from ymflow.flow import FlowConfig, heat_semigroup_u1, integrate
from ymflow.gff import SamplerConfig, sample_gff, sample_initial, sample_u1_coulomb
from ymflow.groups import SU2, U1, GroupSpec
from ymflow.verify import (smooth_su2, u1_flow_gap, ym_zdds_action_gap, ym_zdds_wilson_gap,
                           zdds_path_gap)
from ymflow.wilson import Character, rectangle_loop, wilson_loop

SU3 = GroupSpec("su", 3)


def gff_like_u1(cutoff, seed, scale=1.0):
    a = sample_u1_coulomb(SamplerConfig(U1, cutoff, seed=seed))
    return SpectralConnection(a.group, a.cutoff, a.coeffs * scale)


VERDICTS = ("accept", "reject-error", "reject-action", "non-finite")


def count_verdicts(monkeypatch):
    """Wrap flow._attempt, which integrate calls once per attempt, and
    return the Counter of its verdicts; (candidate, nonlinear term, action,
    sup) comes with 'accept' only."""
    import collections
    import ymflow.flow as flow_mod
    counts = collections.Counter()
    attempt = flow_mod._attempt

    def counted(*args):
        verdict, new = attempt(*args)
        assert verdict in VERDICTS
        assert (new is not None and len(new) == 4) == (verdict == "accept")
        counts[verdict] += 1
        return verdict, new

    monkeypatch.setattr(flow_mod, "_attempt", counted)
    return counts


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig("warp")
    with pytest.raises(ValueError):
        FlowConfig("ym", dt_initial=-1e-3)
    with pytest.raises(ValueError):
        FlowConfig("ym", dt_safety=1.5)
    # a NaN threshold would switch off the blow-up guard, a nonpositive or
    # NaN tolerance reject every step
    nan, inf = float("nan"), float("inf")
    for key, bad in [("dt_initial", inf), ("dt_initial", nan), ("dt_initial", 0.0),
                     ("blowup_threshold", nan), ("blowup_threshold", inf),
                     ("blowup_threshold", 0.0), ("error_tol", 0.0),
                     ("error_tol", -1e-3), ("error_tol", nan), ("dt_safety", nan)]:
        with pytest.raises(ValueError, match=key):
            FlowConfig("ym", **{key: bad})


@pytest.mark.parametrize("times", [(), (0.0,), (0.01, -0.01)])
@pytest.mark.parametrize("kind", ["ym", "u1_exact"])
def test_integrate_rejects_empty_or_nonpositive_times(kind, times):
    with pytest.raises(ValueError, match="observation times"):
        integrate(zero_connection(U1, 1), FlowConfig(kind), times)


@pytest.mark.parametrize("kind", ["ym", "u1_exact"])
def test_integrate_reads_times_like_heat_weights(kind):
    # a nested time list is refused with the observation-time message and
    # a scalar is one time, as for every other function taking times
    with pytest.raises(ValueError, match="observation times"):
        integrate(zero_connection(U1, 1), FlowConfig(kind), [[0.01]])
    traj = integrate(zero_connection(U1, 1), FlowConfig(kind), 0.01)
    assert list(traj.states) == [0.01] and traj.checkpoint_times() == [0.01]


@pytest.mark.parametrize("kind", ["ym", "u1_exact"])
def test_integrate_refuses_non_finite_times(kind, monkeypatch):
    # an infinite time gave a NaN action on the exact path and a YM run
    # that steps until MAX_STEPS; the small step budget keeps a run that
    # is not refused short
    import ymflow.flow as flow_mod
    monkeypatch.setattr(flow_mod, "MAX_STEPS", 3)
    nan, inf = float("nan"), float("inf")
    for times in [(inf,), (0.01, inf), (nan,), (0.01, nan), (-inf,)]:
        with pytest.raises(ValueError, match="observation times"):
            integrate(zero_connection(U1, 1), FlowConfig(kind), times)


def test_heat_semigroup_u1_refuses_non_finite_time():
    # at t = inf the zero mode's weight is e^(-0 * inf) = NaN
    a = gff_like_u1(2, seed=1)
    for t in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            heat_semigroup_u1(a, t)


def test_heat_weights_refuses_non_finite_times():
    for times in (float("nan"), float("inf"), [0.01, float("nan")],
                  (0.01, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            heat_weights(2, times)


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


def test_heat_semigroup_u1_refuses_several_times():
    # the semigroup returns one state, so a list of times would silently
    # give the state at the first of them
    a = gff_like_u1(2, seed=1)
    for times in ([0.01, 0.5], (0.01,), [[0.01]], np.array([0.01])):
        with pytest.raises(ValueError, match="one scalar time"):
            heat_semigroup_u1(a, times)
    assert np.array_equal(heat_semigroup_u1(a, np.float64(0.01)).coeffs,
                          heat_semigroup_u1(a, 0.01).coeffs)


def test_heat_semigroup_single_mode_multiplier():
    a = zero_connection(U1, 2)
    a.coeffs[0, 0, 3, 2, 2] = 0.7  # n = (1, 0, 0)
    a.coeffs[0, 0, 1, 2, 2] = 0.7
    t = 1.0 / (4 * np.pi**2)
    out = heat_semigroup_u1(a, t)
    assert abs(out.coeffs[0, 0, 3, 2, 2] - 0.7 * np.exp(-1.0)) < 1e-15


def test_integrate_zero_field_is_fixed_point():
    traj = integrate(zero_connection(SU2, 2), FlowConfig("zdds"), (0.01, 0.05))
    assert traj.attained_time == 0.05
    assert not traj.blew_up
    for t, state in traj.states.items():
        assert np.max(np.abs(state.coeffs)) == 0.0


@pytest.mark.parametrize("kind", ["ym", "zdds"])
def test_u1_coulomb_oracle_equivalence(kind):
    a = gff_like_u1(3, seed=3)
    times = (0.01, 0.05, 0.2)
    traj = integrate(a, FlowConfig(kind, dt_initial=1e-3), times)
    for t in times:
        assert u1_flow_gap(a, traj.states[t], t) <= 1e-8
        # divergence preservation along the flow
        assert np.max(np.abs(d_star_1form(traj.states[t]))) <= 1e-10


def test_u1_exact_flow_kind():
    a = gff_like_u1(2, seed=4)
    cfg = FlowConfig("u1_exact")
    traj = integrate(a, cfg, (0.02, 0.1))
    for t in (0.02, 0.1):
        assert np.array_equal(
            traj.states[t].coeffs, heat_semigroup_u1(a, t).coeffs
        )
    with pytest.raises(ValueError):
        integrate(random_connection(SU2, 2, seed=5), cfg, (0.02, 0.1))


def test_su2_step_halving_convergence_order():
    a = random_connection(SU2, 2, seed=6)
    a = SpectralConnection(a.group, a.cutoff, a.coeffs * (0.1 / h1_norm(a)))
    t_end = 0.02
    sols = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = FlowConfig("zdds", dt_initial=dt, error_tol=10.0)
        sols[dt] = integrate(a, cfg, (t_end,)).states[t_end].coeffs
    e_coarse = np.sqrt(np.sum(np.abs(sols[4e-4] - sols[1e-4]) ** 2))
    e_fine = np.sqrt(np.sum(np.abs(sols[2e-4] - sols[1e-4]) ** 2))
    # (e_coarse/e_fine) ~ (2^p - ...); p >= 3 demands a ratio >= 8-ish
    order = np.log2(e_coarse / e_fine)
    assert order >= 3.0


def test_ym_monotonicity_and_profile():
    a = sample_gff(SamplerConfig(SU2, 2, seed=7))
    a = SpectralConnection(a.group, a.cutoff, a.coeffs * (0.5 / h1_norm(a)))
    cps = tuple(np.linspace(0.005, 0.05, 10))
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-3), cps)
    profile, violations = action_decay_profile(traj)
    assert violations == []
    actions = [s for _, s in profile]
    assert all(b < a_ for a_, b in zip(actions, actions[1:]))


def test_action_profile_reads_recorded_actions_bit_for_bit():
    # the profile reads the actions the flow recorded; they equal a fresh
    # ym_action of each checkpoint state, the profile's former computation
    a = sample_gff(SamplerConfig(SU2, 3, seed=12))
    a = SpectralConnection(a.group, a.cutoff, a.coeffs * (0.5 / h1_norm(a)))
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-3), (0.002, 0.005, 0.008))
    assert not traj.blew_up
    profile, _ = action_decay_profile(traj)
    assert profile == [(t, ym_action(traj.states[t]))
                       for t in traj.checkpoint_times()]
    assert len(profile) == 3


def test_integrate_ends_at_last_time_and_checkpoints_each(monkeypatch):
    # unsorted, repeated observation times: one state per distinct time,
    # and the run ends at the last of them
    a = gff_like_u1(2, seed=25)
    for kind in ("zdds", "u1_exact"):
        traj = integrate(a, FlowConfig(kind, dt_initial=2e-3), (0.03, 0.01, 0.03))
        assert traj.attained_time == 0.03
        assert traj.checkpoint_times() == [0.01, 0.03]
        assert sorted(traj.actions) == [0.01, 0.03]
    # the step budget holds whatever the times
    import ymflow.flow as flow_mod
    monkeypatch.setattr(flow_mod, "MAX_STEPS", 9)
    traj = integrate(a, FlowConfig("zdds", dt_initial=2e-3), (0.7,))
    assert traj.failure == "stalled" and traj.step_count == 9


def test_action_profile_zero_field():
    traj = integrate(zero_connection(SU2, 1), FlowConfig("ym"), (0.005, 0.01))
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
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3), times)
    profile, violations = action_decay_profile(traj)
    assert violations == []
    for t, s in profile:
        closed = 8 * np.pi**2 * np.sum(
            np.exp(-8 * np.pi**2 * nsq * t) * nsq * amp
        )
        assert abs(s - closed) <= 1e-8 * (1 + closed)


def test_blowup_threshold_detected():
    a = random_connection(SU2, 2, seed=9, scale=0.2)
    cfg = FlowConfig("zdds", dt_initial=1e-3, blowup_threshold=linf_cap(a) * 0.5)
    traj = integrate(a, cfg, (0.1,))
    assert traj.blew_up
    assert traj.failure == "threshold"
    assert traj.attained_time < 0.1


def linf_cap(a):
    return nonlinear_pass(a, False)[2]


def test_nonfinite_reported_distinctly(monkeypatch):
    # the first attempt is non-finite and ends the run at t = 0
    verdicts = count_verdicts(monkeypatch)
    a = random_connection(SU2, 1, seed=10, scale=1.0)
    bad = SpectralConnection(a.group, a.cutoff, a.coeffs.copy())
    bad.coeffs[0, 0, 1, 1, 1] = np.nan
    traj = integrate(bad, FlowConfig("zdds"), (0.01,))
    assert traj.blew_up
    assert traj.failure == "non-finite"
    assert verdicts == {"non-finite": 1}
    assert (traj.step_count, traj.rhs_evaluations, traj.attained_time) == (0, 3, 0.0)


def test_gauge_covariance_u1_winding():
    a = gff_like_u1(2, seed=11)
    sigma = GaugeTransform.winding_u1((1, 0, -1))
    cfg = FlowConfig("ym", dt_initial=1e-3)
    dev = gauge_covariance_check(a, sigma, 0.02, cfg)
    assert dev <= 1e-6
    cfg_z = FlowConfig("zdds", dt_initial=1e-3)
    dev_z = gauge_covariance_check(a, sigma, 0.02, cfg_z)
    assert dev_z <= 1e-6


def test_gauge_covariance_su2_constant_sigma():
    a = random_connection(SU2, 2, seed=12, scale=0.3)
    sigma = GaugeTransform.constant(SU2, (0.4, -0.7, 0.2))
    cfg = FlowConfig("zdds", dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.02, cfg) <= 1e-6
    cfg_ym = FlowConfig("ym", dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.02, cfg_ym) <= 1e-6


def test_gauge_covariance_identity_sigma_zero():
    a = random_connection(SU2, 2, seed=13, scale=0.2)
    sigma = GaugeTransform.identity(SU2)
    cfg = FlowConfig("zdds", dt_initial=1e-3)
    assert gauge_covariance_check(a, sigma, 0.01, cfg) < 1e-12


def test_zdds_rejects_oscillatory_sigma():
    from conftest import random_gauge
    a = random_connection(SU2, 2, seed=14, scale=0.2)
    sigma = random_gauge(SU2, 1, 0.2, seed=15)
    cfg = FlowConfig("zdds", dt_initial=1e-3)
    with pytest.raises(ValueError):
        gauge_covariance_check(a, sigma, 0.01, cfg)


def test_checkpoint_states_land_exactly():
    a = gff_like_u1(2, seed=16)
    times = (0.013, 0.029, 0.05)
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3), times)
    assert tuple(traj.checkpoint_times()) == times
    for t in times:
        assert u1_flow_gap(a, traj.states[t], t) < 1e-10


def test_resume_reproduces_uninterrupted_run():
    # each stretch between observation times runs on its own clock with
    # the controller reset, so a run resumed from the state at 0.01 and run
    # for 0.01 (== 0.02 - 0.01 in floating point) takes the uninterrupted
    # run's steps and ends on its bytes
    a = random_connection(SU2, 2, seed=17, scale=0.3)
    for kind in ("ym", "zdds"):
        cfg = FlowConfig(kind, dt_initial=1e-3)
        full = integrate(a, cfg, (0.01, 0.02))
        first = integrate(a, cfg, (0.01,))
        resumed = integrate(first.states[0.01], cfg, (0.01,))
        assert first.step_count + resumed.step_count == full.step_count
        assert resumed.states[0.01].coeffs.tobytes() == full.states[0.02].coeffs.tobytes()
        assert resumed.actions[0.01].hex() == full.actions[0.02].hex()


def test_error_controller_shrinks_dt():
    a = random_connection(SU2, 2, seed=18, scale=0.5)
    tight = integrate(a, FlowConfig("zdds", dt_initial=2e-3, error_tol=1e-9),
                      (0.004,))
    loose = integrate(a, FlowConfig("zdds", dt_initial=2e-3, error_tol=1e-2),
                      (0.004,))
    assert tight.step_count > loose.step_count


def test_rhs_evaluation_count_recorded():
    a = random_connection(SU2, 1, seed=19, scale=0.1)
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3), (0.002,))
    assert traj.step_count == 2
    assert traj.rhs_evaluations == 6


def test_one_nonlinear_call_per_stage_and_no_separate_diagnostics(monkeypatch):
    # the evaluation of each accepted state serves the action guard, the
    # blow-up check and stage 0 of the next step: three nonlinear calls per
    # accepted step plus one for the initial state, and no separate action
    # or sup-norm pass; the two stage calls of each step skip the
    # diagnostics, and every call reuses the flow's one workspace
    import ymflow.fields as fields_mod
    import ymflow.flow as flow_mod

    calls = {"nonlinear": 0, "no_diagnostics": 0, "diagnostic": 0}
    workspaces = set()
    nonlinear = flow_mod._nonlinear_core

    def counted(a, work=None, diagnostics=True):
        calls["nonlinear"] += 1
        calls["no_diagnostics"] += not diagnostics
        workspaces.add(id(work))
        out = nonlinear(a, work, diagnostics=diagnostics)
        assert (out[1] is None) == (out[2] is None) == (not diagnostics)
        return out

    def forbidden(*args, **kwargs):
        calls["diagnostic"] += 1
        raise AssertionError("separate diagnostic called in the step loop")

    monkeypatch.setattr(flow_mod, "_nonlinear_core", counted)
    monkeypatch.setattr(fields_mod, "ym_action", forbidden)
    a = sample_gff(SamplerConfig(SU2, 2, seed=7))
    a = SpectralConnection(a.group, a.cutoff, a.coeffs * (0.5 / h1_norm(a)))
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-3), (0.003, 0.006))
    assert not traj.blew_up
    assert traj.step_count == 6
    assert traj.rhs_evaluations == 3 * traj.step_count
    assert calls == {"nonlinear": 3 * traj.step_count + 1,
                     "no_diagnostics": 2 * traj.step_count, "diagnostic": 0}
    assert len(workspaces) == 1 and id(None) not in workspaces


@pytest.mark.parametrize("kind", ["ym", "zdds"])
def test_checkpoint_actions_recorded(kind):
    a = random_connection(SU2, 2, seed=22, scale=0.3)
    traj = integrate(a, FlowConfig(kind, dt_initial=1e-3), (0.002, 0.004))
    assert sorted(traj.actions) == traj.checkpoint_times()
    for t, state in traj.states.items():
        want = ym_action(state)
        assert abs(traj.actions[t] - want) <= 1e-12 * want
    u1 = gff_like_u1(2, seed=23)
    exact = integrate(u1, FlowConfig("u1_exact"), (0.005, 0.01))
    for t, state in exact.states.items():
        assert exact.actions[t] == ym_action_u1_spectral(state)


def test_zdds_paths_agree_on_recorded_run_states():
    # the operator and componentwise right-hand sides match on the initial
    # state and on every state a ZDDS run stores along its way
    a = random_connection(SU2, 2, seed=20, scale=0.3)
    times = tuple(5e-4 * k for k in range(1, 7))
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3), times)
    assert not traj.blew_up
    assert traj.step_count >= 6 and traj.checkpoint_times() == list(times)
    for state in [a] + [traj.states[t] for t in times]:
        assert zdds_path_gap(state) <= 1e-10


@pytest.mark.parametrize("cutoff", [2, 4])
def test_ym_and_zdds_agree_on_gauge_invariants_of_smooth_data(cutoff):
    # ZDDS differs from YM by a gauge direction, so on a smooth datum (a
    # cutoff-1 draw at H^1 = 5, zero-padded) S_YM and a Wilson loop agree
    # to the time-stepping floor; measured: S_YM 4.0e-7 (N=2) and 1.5e-7
    # (N=4) relative, the plaquette 1.1e-7 and 1.9e-10 against a
    # deviation |chi(id) - W| of 5.0e-4
    a = smooth_su2(cutoff)
    t = 0.02
    plaq = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25)
    ch = Character(SU2, "fundamental")
    ym, zdds = (integrate(a, FlowConfig(kind), (t,)) for kind in ("ym", "zdds"))
    assert not (ym.blew_up or zdds.blew_up)
    assert ym_zdds_action_gap(ym, zdds, t) <= 5e-6
    assert ym_zdds_wilson_gap(ym, zdds, t, plaq, ch) <= 2e-6
    assert abs(ch(np.eye(2)) - wilson_loop(ym.states[t], plaq, ch)) > 1e-4


def test_u1_oracle_equivalence_at_cutoff_eight():
    # the flow-vs-semigroup invariant holds up to cutoff 8 at dt <= 1e-3
    a = gff_like_u1(8, seed=21)
    t = 0.005
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3), (t,))
    assert u1_flow_gap(a, traj.states[t], t) <= 1e-8


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
            a = SpectralConnection(a.group, a.cutoff, a.coeffs * (scale / h1_norm(a)))
            cfg = FlowConfig("zdds", dt_initial=5e-5, error_tol=0.05)
            traj = integrate(a, cfg, (1e-3,))
            assert traj.attained_time > 0.0
            if traj.blew_up and traj.attained_time < 1e-3:
                halted += 1
        fractions.append(halted / 6.0)
    assert fractions[1] <= fractions[0]


def test_heat_weights_one_shared_read_only_table():
    w = heat_weights(3, (0.01, 0.02))
    assert w.shape == (2, 7, 7, 7)
    assert np.array_equal(w[0], np.exp(-4.0 * np.pi**2 * mode_norm_sq(3) * 0.01))
    assert np.array_equal(heat_weights(3, 0.02)[0], w[1])
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=8))
    assert np.array_equal(heat_semigroup_u1(a, 0.02).coeffs,
                          a.coeffs * heat_weights(3, 0.02)[0][None, None])
    with pytest.raises(ValueError):
        heat_weights(3, (0.01, -0.01))


def test_heat_weights_refuses_nested_times():
    # the heat weights parse times like h_series does, so a 2-D time list
    # is refused with the same ValueError
    with pytest.raises(ValueError, match="1-D sequence of times"):
        heat_weights(2, [[0.01]])


_BLAS_THREADS_SCRIPT = """
import hashlib
from ymflow.flow import FlowConfig, integrate
from ymflow.groups import SU2, GroupSpec
from ymflow.verify import random_connection
for group, cutoff in ((SU2, 4), (GroupSpec("su", 3), 2)):
    a = random_connection(group, cutoff, seed=62, scale=0.3)
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-3), (0.005,))
    print(hashlib.sha256(traj.states[0.005].coeffs.tobytes()).hexdigest())
"""


def test_flow_bytes_independent_of_blas_threads():
    # the grid transforms are BLAS matrix products: a short SU(2) N=4 and
    # SU(3) N=2 YM flow must give the same bytes on 1 and 2 BLAS threads
    import os
    import subprocess
    import sys
    import ymflow
    src = os.path.dirname(os.path.dirname(os.path.abspath(ymflow.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


# SHA-256 of the final coefficients of 20-step flows (t = 0.02, dt = 1e-3,
# all steps accepted) from the GFF draw of seed 71 scaled to H^1 norm 0.5,
# with the actions at the checkpoints t = 0.01 and 0.02 as float.hex; the
# exact U(1) flow takes no step.
FLOW_PINS = [
    ("ym", SU2, 4,
     "692271288b1ad91001d1d4f7e1be3f1cf4e3fb3889cfbf379e6641f7269e89fb",
     "0x1.c239680ed5081p-9", "0x1.fac17b5022a0dp-11"),
    ("zdds", GroupSpec("su", 3), 2,
     "f9fec305fdd0fc67682147523a7dad29a24f64ec0c5abbfc87492ec0deee2d15",
     "0x1.5b3b28057d251p-6", "0x1.8089ff019b80bp-8"),
    ("ym", U1, 3,
     "c8e7d82c1c27137034434e41dcb6b7cfbf59cc82d5aed14c39f1ddf8861bc06e",
     "0x1.08a5189d3ebdbp-7", "0x1.45820af1818b2p-9"),
    ("zdds", U1, 3,
     "e8d9e07f112a0c8c5106f335d44b9b60f4c76d6a70113d34af700c6fb9784dfa",
     "0x1.08a5189d3ebdbp-7", "0x1.45820af1818b2p-9"),
    ("u1_exact", U1, 3,
     "44cc9b5191ec8dedde151902342ef07b794e492fcfeaa6850cf05e11f33d21fb",
     "0x1.08a5189d3ebd6p-7", "0x1.45820af1818acp-9"),
]


@pytest.mark.parametrize("kind, group, cutoff, digest, action_1, action_2",
                         FLOW_PINS, ids=[f"{pin[0]}-{pin[1].label()}-{pin[2]}"
                                         for pin in FLOW_PINS])
def test_flow_bytes_pinned(kind, group, cutoff, digest, action_1, action_2):
    import hashlib

    a = sample_initial(group, "gff", cutoff, 71, 0, scale_to_h1=0.5)
    traj = integrate(a, FlowConfig(kind, dt_initial=1e-3), (0.01, 0.02))
    steps = (0, 0) if kind == "u1_exact" else (20, 60)
    assert (traj.step_count, traj.rhs_evaluations) == steps
    assert hashlib.sha256(traj.states[0.02].coeffs.tobytes()).hexdigest() == digest
    assert (traj.actions[0.01].hex(), traj.actions[0.02].hex()) == \
        (action_1, action_2)


_FAULTS_SCRIPT = """
import resource
import ymflow.flow as flow_mod
from ymflow.gff import sample_initial
from ymflow.flow import FlowConfig, integrate
from ymflow.groups import SU2
marks = []
nonlinear = flow_mod._nonlinear_core
def counted(*args, **kwargs):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return nonlinear(*args, **kwargs)
flow_mod._nonlinear_core = counted
a = sample_initial(SU2, "gff", 4, 5, 0, scale_to_h1=0.5)
integrate(a, FlowConfig("ym", dt_initial=1e-3), (0.02,))
end = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(len(marks) - 5, end - marks[5])
"""


def test_flow_steps_fault_in_no_grid_memory():
    # the flow's workspace keeps every grid array of the nonlinear pass, so
    # once warm an SU(2) N=4 flow faults in (almost) no pages per pass
    import os
    import subprocess
    import sys
    import ymflow
    src = os.path.dirname(os.path.dirname(os.path.abspath(ymflow.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    calls, faults = map(int, out.stdout.split())
    assert calls >= 50
    assert faults / calls < 50


# The flow runs on the n3 >= 0 half spectrum; tests/reference.py keeps it
# as first written, with the state, every stage and the error norms on the
# full cube.  GFF draws of seed 5: scaled to H^1 = 0.5 to t = 0.02, and
# unscaled (S_YM ~ 2500, with rejected steps) to t = 0.05.
HALF_SPECTRUM_CASES = [
    ("ym", SU2, 2, 0.5, (0.01, 0.02)),
    ("ym", SU2, 4, 0.5, (0.01, 0.02)),
    ("zdds", SU3, 2, 0.5, (0.01, 0.02)),
    ("ym", U1, 3, 0.5, (0.01, 0.02)),
    ("zdds", U1, 3, 0.5, (0.01, 0.02)),
    ("ym", SU2, 2, None, (0.05,)),
    ("zdds", SU2, 2, None, (0.05,)),
]


@pytest.mark.parametrize("kind, group, cutoff, h1, times", HALF_SPECTRUM_CASES,
                         ids=[f"{c[0]}-{c[1].label()}-{c[2]}-{c[3] or 'unscaled'}"
                              for c in HALF_SPECTRUM_CASES])
def test_half_spectrum_flow_equals_full_spectrum_bytes(kind, group, cutoff, h1, times):
    a = sample_initial(group, "gff", cutoff, 5, 0, scale_to_h1=h1)
    got = integrate(a, FlowConfig(kind), times)
    want = integrate_full_spectrum(a, FlowConfig(kind), times)
    assert (got.step_count, got.rhs_evaluations) == (want.step_count, want.rhs_evaluations)
    if h1 is None:
        assert got.rhs_evaluations > 3 * got.step_count   # steps were rejected
    for t in times:
        assert got.states[t].coeffs.tobytes() == want.states[t].coeffs.tobytes()
        assert got.actions[t].hex() == want.actions[t].hex()


@pytest.mark.parametrize("kind", ["ym", "zdds"])
def test_half_spectrum_flow_of_coulomb_data_equals_full_spectrum_values(kind):
    # a Coulomb draw has exact zero coefficients (components along a
    # vanishing frame entry); the recorded state mirrors the half, so a
    # zero of the n3 < 0 half may carry the other sign than the full-cube
    # arithmetic gives it, and only the values are compared
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=5))
    got = integrate(a, FlowConfig(kind), (0.01, 0.02))
    want = integrate_full_spectrum(a, FlowConfig(kind), (0.01, 0.02))
    assert (got.step_count, got.rhs_evaluations) == (want.step_count, want.rhs_evaluations)
    for t in (0.01, 0.02):
        assert np.array_equal(got.states[t].coeffs, want.states[t].coeffs)
        assert got.actions[t].hex() == want.actions[t].hex()


def test_strong_field_flows_decay_through_rejected_steps(monkeypatch):
    # unscaled SU(2) GFF draws at N = 2 (S_YM ~ 2000-2500): neither flow
    # blows up, S_YM strictly decreases over the checkpoints (YM, seed 5:
    # 2490.5, 903.3, 179.2), and the error controller rejects 3 of the 75
    # attempts of each run, so its reject branch runs on the half spectrum
    import time

    verdicts = count_verdicts(monkeypatch)
    times = (0.01, 0.02, 0.05)
    start = time.perf_counter()
    for seed in (5, 7):
        a = sample_initial(SU2, "gff", 2, seed, 0)
        for kind in ("ym", "zdds"):
            verdicts.clear()
            traj = integrate(a, FlowConfig(kind), times)
            assert not traj.blew_up
            s = [traj.actions[t] for t in times]
            assert s[0] > s[1] > s[2]
            assert verdicts == {"accept": 72, "reject-error": 3}
            assert (traj.step_count, traj.rhs_evaluations) == (72, 3 * 75)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("budget", [10, 9])
def test_step_budget_is_checked_only_before_another_attempt(budget, monkeypatch):
    # the H^1 = 0.5 draw reaches t = 0.01 in exactly 10 accepted steps: a
    # budget of 10 lets the run end there, a budget of 9 stalls it before
    # the tenth step, after the state at 0.005 is recorded
    import ymflow.flow as flow_mod
    monkeypatch.setattr(flow_mod, "MAX_STEPS", budget)
    a = sample_initial(SU2, "gff", 2, 5, 0, scale_to_h1=0.5)
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-3), (0.005, 0.01))
    if budget == 10:
        assert traj.failure is None and not traj.blew_up
        assert traj.step_count == 10 and traj.attained_time == 0.01
        assert traj.checkpoint_times() == [0.005, 0.01]
    else:
        assert traj.failure == "stalled" and traj.blew_up
        assert traj.step_count == 9 and traj.attained_time < 0.01
        assert traj.checkpoint_times() == [0.005] and list(traj.actions) == [0.005]


def test_dt_floor_stalls_a_run_that_rejects_every_attempt(monkeypatch):
    # no estimate meets a tolerance of 1e-300, so every attempt is
    # rejected and halves dt; the 41st rejection leaves dt below
    # dt_initial 2^-40 and the stall check ends the run before an attempt
    verdicts = count_verdicts(monkeypatch)
    a = random_connection(SU2, 1, seed=19, scale=0.1)
    traj = integrate(a, FlowConfig("zdds", dt_initial=1e-3, error_tol=1e-300), (0.002,))
    assert traj.failure == "stalled" and traj.blew_up
    assert verdicts == {"reject-error": 41}
    assert (traj.step_count, traj.rhs_evaluations, traj.attained_time) == (0, 123, 0.0)
    assert traj.states == {}


def test_action_guard_rejects_every_rise(monkeypatch):
    # with an error tolerance no estimate exceeds, only the action guard
    # can reject: the unscaled draw (S_YM ~ 1.3e5) at dt 1e-2 has 5 of its
    # 57 candidates refused for a rising action, and the accepted actions
    # never rise
    import ymflow.flow as flow_mod
    actions = []
    nonlinear = flow_mod._nonlinear_core

    def recorded(a, work=None, diagnostics=True):
        out = nonlinear(a, work, diagnostics=diagnostics)
        if diagnostics:
            actions.append(out[1])
        return out

    monkeypatch.setattr(flow_mod, "_nonlinear_core", recorded)
    verdicts = count_verdicts(monkeypatch)
    a = sample_initial(SU2, "gff", 2, 5, 0)
    traj = integrate(a, FlowConfig("ym", dt_initial=1e-2, error_tol=1e300), (0.1,))
    assert traj.failure is None
    assert verdicts == {"accept": 52, "reject-action": 5}
    assert (traj.step_count, traj.rhs_evaluations) == (52, 171)
    # every candidate is evaluated; it is kept exactly when its action does
    # not exceed the last kept one beyond the guard's tolerance
    kept, rises = [actions[0]], 0
    for s in actions[1:]:
        if s > kept[-1] + flow_mod.MONOTONE_TOL * (1.0 + kept[-1]):
            rises += 1
        else:
            kept.append(s)
    assert (len(kept) - 1, rises) == (52, 5)
    assert kept[-1] == traj.actions[0.1]
    assert all(b <= a_ for a_, b in zip(kept, kept[1:]))
