"""Time integration of the gauge-field heat flows.

The linear part of both flows is handled exactly: the Laplacian is
diagonal in Fourier space, so each mode carries the multiplier
e^(-4 pi^2 |n|^2 dt) per step.  The remaining terms are advanced with a
three-stage exponential Runge-Kutta scheme (Cox-Matthews ETDRK3); for the
Yang-Mills flow the non-Laplacian remainder includes the linear dd*A
piece, which is what makes that flow only weakly parabolic, so the step
size stays conservative and a per-step action-monotonicity guard rejects
any step that would increase the action beyond rounding.

Step control: a step is rejected (and dt shrunk by dt_safety) when the
embedded second-order result differs from the third-order one by more
than error_tol in relative L^2, when the action guard trips, or when
non-finite values appear.  After ten clean steps dt grows back, capped by
dt_initial.  Steps are clipped to land exactly on checkpoint times, and
the controller state resets at each checkpoint so a run resumed from a
checkpoint file reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fields import (
    SpectralConnection,
    _ym_nonlinear,
    _zdds_nonlinear,
    dealias_resolution,
    heat_weights,
    mode_norm_sq,
    ym_action,
    ym_action_u1_spectral,
    l2_norm,
)

__all__ = [
    "FlowConfig",
    "FlowTrajectory",
    "heat_semigroup_u1",
    "integrate",
    "gauge_covariance_check",
    "action_decay_profile",
]

FLOW_KINDS = ("ym", "zdds", "u1_exact")


@dataclass
class FlowConfig:
    flow_kind: str
    t_end: float
    dt_initial: float = 1e-3
    checkpoint_times: tuple = ()
    dt_safety: float = 0.5
    blowup_threshold: float = 1e6
    resolution: int | None = None
    error_tol: float = 1e-3
    monotone_tol: float = 1e-9
    max_steps: int = 1_000_000
    debug_checks: bool = False   # per-step dual-path consistency assertions

    def __post_init__(self):
        if self.flow_kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {self.flow_kind!r}")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.dt_initial <= 0:
            raise ValueError("dt_initial must be positive")
        if not (0.0 < self.dt_safety < 1.0):
            raise ValueError("dt_safety must lie in (0, 1)")
        ts = tuple(float(t) for t in self.checkpoint_times)
        if any(t <= 0 or t > self.t_end * (1 + 1e-12) for t in ts):
            raise ValueError("checkpoint times must lie in (0, t_end]")
        if list(ts) != sorted(ts):
            raise ValueError("checkpoint times must be sorted")
        self.checkpoint_times = ts


@dataclass
class FlowTrajectory:
    group: object
    cutoff: int
    flow_kind: str
    states: dict = field(default_factory=dict)     # time -> SpectralConnection
    actions: dict = field(default_factory=dict)    # time -> S_YM of that state
    attained_time: float = 0.0
    blew_up: bool = False
    failure: str | None = None                     # 'threshold' | 'non-finite' | 'stalled'
    step_count: int = 0
    rhs_evaluations: int = 0

    def checkpoint_times(self):
        return sorted(self.states)


def heat_semigroup_u1(a: SpectralConnection, t: float) -> SpectralConnection:
    """Exact heat kernel on a U(1) field: multiply mode n by
    e^(-4 pi^2 |n|^2 t)."""
    if a.group.kind != "u1":
        raise ValueError("exact heat semigroup is the U(1) oracle path")
    w = heat_weights(a.cutoff, t)[0]
    return SpectralConnection(a.group, a.cutoff, a.coeffs * w[None, None])


def _phi_funcs(z: np.ndarray):
    """phi_1..phi_3 for real nonpositive z, series-switched near zero."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.25
    zs = np.where(small, 0.0, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        em1 = np.expm1(zs)
        p1 = em1 / zs
        p2 = (em1 - zs) / zs**2
        p3 = (em1 - zs - 0.5 * zs**2) / zs**3
    # Horner series sum_{k>=0} z^k / (k + m)!
    def series(m):
        out = np.zeros_like(z)
        for k in range(12, -1, -1):
            fact = 1.0
            for i in range(2, k + m + 1):
                fact *= i
            out = out * z + 1.0 / fact
        return out
    p1 = np.where(small, series(1), p1)
    p2 = np.where(small, series(2), p2)
    p3 = np.where(small, series(3), p3)
    return p1, p2, p3


class _EtdStepper:
    """Cached ETDRK3 tableau for one (cutoff, dt) pair.

    Stages (L = Laplacian multiplier, N = non-Laplacian remainder):
        a   = e^(hL/2) u + (h/2) phi1(hL/2) N(u)
        b   = e^(hL) u + h phi1(hL) (2 N(a) - N(u))
        u3  = e^(hL) u + h [(phi1 - 3 phi2 + 4 phi3) N(u)
                            + (4 phi2 - 8 phi3) N(a)
                            + (-phi2 + 4 phi3) N(b)]
    plus the stiff second-order embedded result
        u2  = e^(hL) u + h [(phi1 - 2 phi2) N(u) + 2 phi2 N(a)]
    whose gap to u3 drives the step controller.
    """

    def __init__(self, cutoff: int, dt: float):
        lam = -4.0 * np.pi**2 * mode_norm_sq(cutoff)
        z = dt * lam
        p1, p2, p3 = _phi_funcs(z)
        p1h, _, _ = _phi_funcs(0.5 * z)
        self.dt = dt
        self.e_full = np.exp(z)
        self.e_half = np.exp(0.5 * z)
        self.f_half = 0.5 * dt * p1h
        self.f_full = dt * p1
        self.w0 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.wa = dt * (4.0 * p2 - 8.0 * p3)
        self.wb = dt * (-p2 + 4.0 * p3)
        self.e0 = dt * (p1 - 2.0 * p2)
        self.ea = dt * (2.0 * p2)

    def step(self, a: SpectralConnection, n0: np.ndarray, nonlinear, m: int):
        """One step from a, whose nonlinear term n0 the caller holds."""
        u = a.coeffs
        stage_a = SpectralConnection(
            a.group, a.cutoff, self.e_half * u + self.f_half * n0
        )
        na = nonlinear(stage_a, m)[0]
        stage_b = SpectralConnection(
            a.group, a.cutoff, self.e_full * u + self.f_full * (2.0 * na - n0)
        )
        nb = nonlinear(stage_b, m)[0]
        u3 = self.e_full * u + self.w0 * n0 + self.wa * na + self.wb * nb
        u2 = self.e_full * u + self.e0 * n0 + self.ea * na
        err = float(np.sqrt(np.sum(np.abs(u3 - u2) ** 2)))
        return SpectralConnection(a.group, a.cutoff, u3), err


_NONLINEAR = {"ym": _ym_nonlinear, "zdds": _zdds_nonlinear}


def _assert_zdds_paths_agree(state: SpectralConnection, m: int) -> None:
    """Debug-run guard: the operator-composition and componentwise
    right-hand sides must match on every accepted state."""
    from .fields import zdds_rhs
    r_op = zdds_rhs(state, resolution=m, path="operator").coeffs
    r_ex = zdds_rhs(state, resolution=m, path="explicit").coeffs
    gap = np.max(np.abs(r_op - r_ex))
    if gap > 1e-10 * max(1.0, np.max(np.abs(r_op))):
        raise AssertionError(
            f"ZDDS right-hand-side paths disagree by {gap:.3e} during a "
            "debug-checked run"
        )


def integrate(a0: SpectralConnection, config: FlowConfig) -> FlowTrajectory:
    """Run the configured flow from a0, recording states and their actions
    at checkpoint times (always including t_end)."""
    traj = FlowTrajectory(a0.group, a0.cutoff, config.flow_kind)
    targets = list(config.checkpoint_times)
    if not targets or targets[-1] < config.t_end:
        targets.append(config.t_end)

    if config.flow_kind == "u1_exact":
        for t in targets:
            traj.states[t] = heat_semigroup_u1(a0, t)
            traj.actions[t] = ym_action_u1_spectral(traj.states[t])
        traj.attained_time = config.t_end
        return traj

    m = config.resolution or dealias_resolution(a0.cutoff)
    if m < 4 * a0.cutoff + 1:
        raise ValueError(
            f"resolution {m} below the dealiasing requirement {4 * a0.cutoff + 1}"
        )
    nonlinear = _NONLINEAR[config.flow_kind]
    guard_action = config.flow_kind == "ym"

    steppers: dict[float, _EtdStepper] = {}

    def stepper(h: float) -> _EtdStepper:
        s = steppers.get(h)
        if s is None:
            s = _EtdStepper(a0.cutoff, h)
            steppers[h] = s
        return s

    state = a0.copy()
    t = 0.0
    # the nonlinear term of the current state with its action and sup
    # norm: one evaluation serves the action guard, the blow-up check and
    # stage 0 of the next step
    n_state, action, _ = nonlinear(state, m)
    dt_floor = config.dt_initial * 2.0**-40

    for target in targets:
        # controller state resets here so a resumed run retraces the same
        # step ladder as the uninterrupted one
        dt = config.dt_initial
        clean = 0
        while t < target - 1e-14 * config.t_end:
            if traj.step_count >= config.max_steps:
                traj.failure = "stalled"
                break
            h = min(dt, target - t)
            candidate, err = stepper(h).step(state, n_state, nonlinear, m)
            traj.rhs_evaluations += 3
            ok = np.isfinite(err) and bool(np.all(np.isfinite(candidate.coeffs)))
            if not ok:
                traj.failure = "non-finite"
                break
            rel_err = err / max(l2_norm(candidate), 1e-30)
            ok = rel_err <= config.error_tol
            if ok:
                n_new, new_action, sup = nonlinear(candidate, m)
                if guard_action and \
                        new_action > action + config.monotone_tol * (1.0 + action):
                    ok = False
            if not ok:
                dt = h * config.dt_safety
                clean = 0
                if dt < dt_floor:
                    traj.failure = "stalled"
                    break
                continue
            if config.debug_checks and config.flow_kind == "zdds":
                _assert_zdds_paths_agree(candidate, m)
            state, n_state, action = candidate, n_new, new_action
            t += h
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
            break
        traj.states[target] = state.copy()
        traj.actions[target] = action

    traj.attained_time = t
    traj.blew_up = traj.failure is not None
    return traj


def action_decay_profile(traj: FlowTrajectory, tol: float = 1e-9):
    """Sorted (t, S_YM) pairs over checkpoints plus a monotonicity flag.

    Returns (profile, violations) where violations lists the checkpoint
    times at which the action rose beyond tol relative."""
    profile = []
    for t in traj.checkpoint_times():
        profile.append((t, ym_action(traj.states[t])))
    violations = []
    for (t0, s0), (t1, s1) in zip(profile, profile[1:]):
        if s1 > s0 + tol * (1.0 + s0):
            violations.append(t1)
    return profile, violations


def gauge_covariance_check(a0: SpectralConnection, sigma, t: float,
                           config: FlowConfig) -> float:
    """Relative L^2 gap between flow(A0^sigma)(t) and (flow(A0)(t))^sigma.

    The DeTurck-modified flow is covariant only under x-independent
    transforms, so that combination is rejected up front.
    """
    from .fields import gauge_transform_spectral

    oscillatory = sigma.log_coeffs is not None and sigma.cutoff > 0
    if config.flow_kind == "zdds" and oscillatory:
        raise ValueError("the modified flow is covariant only for constant sigma")
    if config.flow_kind == "u1_exact":
        raise ValueError("use flow_kind 'ym' or 'zdds' for covariance checks")
    run_cfg = replace(config, t_end=t, checkpoint_times=(t,))
    a0_t = gauge_transform_spectral(a0, sigma, cutoff=a0.cutoff)
    flow_plain = integrate(a0, run_cfg)
    flow_trans = integrate(a0_t, run_cfg)
    if flow_plain.blew_up or flow_trans.blew_up:
        raise RuntimeError("covariance check aborted: flow blew up")
    lhs = flow_trans.states[t]
    rhs = gauge_transform_spectral(flow_plain.states[t], sigma, cutoff=a0.cutoff)
    denom = max(l2_norm(flow_plain.states[t]), 1e-30)
    return float(np.sqrt(np.sum(np.abs(lhs.coeffs - rhs.coeffs) ** 2))) / denom

