"""Time integration of the gauge-field heat flows.

The linear part of both flows is handled exactly: the Laplacian is
diagonal in Fourier space, so each mode carries the multiplier
e^(-4 pi^2 |n|^2 dt) per step.  The remaining terms are advanced with a
three-stage exponential Runge-Kutta scheme (Cox-Matthews ETDRK3); for the
Yang-Mills flow the non-Laplacian remainder includes the linear dd*A
piece, which is what makes that flow only weakly parabolic, so the step
size stays conservative and a per-step action-monotonicity guard rejects
any step that would increase the action beyond rounding.

The state, the stages and the nonlinear terms live on the half spectrum
n3 >= 0, (d, 3, K, K, N+1); the n3 < 0 half, the conjugate of the
mirrored modes, is formed only for the states recorded.

Step control: each attempt (flow._attempt) returns one verdict:
'reject-error' when the embedded second-order result differs from the
third-order one by more than error_tol in relative L^2 (norms summed on
the half: weight 1 on the n3 = 0 plane, 2 above it), 'reject-action'
when the YM action guard trips, 'non-finite' when non-finite values
appear (the run ends), else 'accept'.  A rejection shrinks dt by
dt_safety; after ten accepted steps dt grows back, capped by dt_initial.
The step budget is checked only when another attempt is needed: a run
stalls there after MAX_STEPS accepted steps or with dt below dt_initial
2^-40, so one that lands on its last time in MAX_STEPS steps ends
normally.  Steps are clipped to land exactly on the observation times
given to integrate.  Each stretch between two times t1 < t2 runs on its
own clock, from 0 to t2 - t1, with the controller reset, so a run resumed
from the state at t1 ends bit for bit on the uninterrupted run's state at
t2 when its time equals t2 - t1 in floating point: 0.02 - 0.01 == 0.01,
but 0.03 - 0.01 != 0.02.
A FlowConfig says only how to integrate; the caller says when to observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SpectralConnection,
    _Workspace,
    _full_spectrum,
    _nonlinear_core,
    _times,
    _u1_actions,
    heat_weights,
    mode_norm_sq,
)

__all__ = [
    "FlowConfig",
    "FlowTrajectory",
    "heat_semigroup_u1",
    "integrate",
]

FLOW_KINDS = ("ym", "zdds", "u1_exact")

# a YM step is rejected when the action rises by more than this, relative
MONOTONE_TOL = 1e-9
# accepted steps after which a run that needs another attempt stalls
MAX_STEPS = 1_000_000


@dataclass
class FlowConfig:
    flow_kind: str
    dt_initial: float = 1e-3
    dt_safety: float = 0.5
    blowup_threshold: float = 1e6
    error_tol: float = 1e-3

    def __post_init__(self):
        if self.flow_kind not in FLOW_KINDS:
            raise ValueError(f"flow_kind must be one of {FLOW_KINDS}, got {self.flow_kind!r}")
        # NaN fails every comparison, so a NaN threshold or tolerance
        # would switch off its guard
        for name in ("dt_initial", "blowup_threshold", "error_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if not (0.0 < self.dt_safety < 1.0):
            raise ValueError(f"dt_safety must lie in (0, 1), got {self.dt_safety}")


@dataclass
class FlowTrajectory:
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
    """Exact heat kernel on a U(1) field at one time t: multiply mode n by
    e^(-4 pi^2 |n|^2 t)."""
    if np.ndim(t) != 0:
        raise ValueError("heat_semigroup_u1 takes one scalar time")
    return SpectralConnection(a.group, a.cutoff, _heat_stack_u1(a, t)[0])


def _check_exact_group(group) -> None:
    """Refuse a group other than U(1) for the exact heat semigroup."""
    if group.kind != "u1":
        raise ValueError(f"flow kind u1_exact is U(1)-only, got group {group.label()}")


def _heat_stack_u1(a: SpectralConnection, times) -> np.ndarray:
    """The coefficients of heat_semigroup_u1(a, t) for each of times, in
    one product: shape (T, 1, 3, K, K, K)."""
    _check_exact_group(a.group)
    return a.coeffs * heat_weights(a.cutoff, times)[:, None, None]


def _half_l2(c: np.ndarray) -> float:
    """L^2 norm from the half spectrum: the n3 = 0 plane once, the rest twice."""
    sq = np.abs(c) ** 2
    return float(np.sqrt(np.sum(sq[..., 0]) + 2.0 * np.sum(sq[..., 1:])))


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
    """Cached ETDRK3 tableau for one (cutoff, dt) pair, on the half spectrum.

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
        lam = -4.0 * np.pi**2 * mode_norm_sq(cutoff)[..., cutoff:]
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

    def step(self, u: np.ndarray, n0: np.ndarray, work: _Workspace):
        """(u3, |u3 - u2|) of one step from the half spectrum u, whose
        nonlinear term n0 the caller holds; the two stage passes skip the
        action and the sup norm."""
        stage_a = self.e_half * u + self.f_half * n0
        na = _nonlinear_core(stage_a, work, diagnostics=False)[0]
        # the linear part e^(hL) u, shared by stage b, u3 and u2
        eu = self.e_full * u
        stage_b = eu + self.f_full * (2.0 * na - n0)
        nb = _nonlinear_core(stage_b, work, diagnostics=False)[0]
        u3 = eu + self.w0 * n0 + self.wa * na + self.wb * nb
        u2 = eu + self.e0 * n0 + self.ea * na
        return u3, _half_l2(u3 - u2)


def _attempt(stepper: _EtdStepper, state, n_state, action, work, config):
    """One ETDRK3 attempt from state: (verdict, new), the verdict one of
    'accept', 'reject-error', 'reject-action' and 'non-finite', and new
    (candidate, its nonlinear term, action, sup) on 'accept', else None."""
    candidate, err = stepper.step(state, n_state, work)
    if not (np.isfinite(err) and np.all(np.isfinite(candidate))):
        return "non-finite", None
    if err / max(_half_l2(candidate), 1e-30) > config.error_tol:
        return "reject-error", None
    new = (candidate, *_nonlinear_core(candidate, work))
    if config.flow_kind == "ym" and new[2] > action + MONOTONE_TOL * (1.0 + action):
        return "reject-action", None
    return "accept", new


def integrate(a0: SpectralConnection, config: FlowConfig, times) -> FlowTrajectory:
    """Run the configured flow from a0 up to the last of ``times`` (a
    scalar or a 1-D sequence, read by fields._times), recording the state
    and its action at each of them."""
    targets = sorted(set(_times(times, "observation times")))
    if not targets or targets[0] == 0.0:
        raise ValueError("observation times must be positive and nonempty")
    traj = FlowTrajectory()

    if config.flow_kind == "u1_exact":
        # one heat product and one action pass for every time; the states
        # are views of the stack
        stack = _heat_stack_u1(a0, targets)
        actions = _u1_actions(stack[:, 0], a0.cutoff)
        for t, coeffs, action in zip(targets, stack, actions):
            traj.states[t] = SpectralConnection(a0.group, a0.cutoff, coeffs)
            traj.actions[t] = float(action)
        traj.attained_time = targets[-1]
        return traj

    # this flow's grid arrays, reused by every nonlinear pass below
    work = _Workspace(a0.group, a0.cutoff, deturck=config.flow_kind == "zdds")
    steppers: dict[float, _EtdStepper] = {}
    state = a0.coeffs[..., a0.cutoff:].copy()
    # the nonlinear term of the current state with its action and sup
    # norm: one evaluation serves the action guard, the blow-up check and
    # stage 0 of the next step
    n_state, action, _ = _nonlinear_core(state, work)
    dt_floor = config.dt_initial * 2.0**-40
    ahead = targets[::-1]           # the times still to observe, the next last
    t = tau = 0.0                   # the last time observed and the clock since
    dt, clean = config.dt_initial, 0
    while ahead and traj.failure is None:
        span = ahead[-1] - t
        if tau >= span - 1e-14 * span:
            t = ahead.pop()
            traj.states[t] = SpectralConnection(a0.group, a0.cutoff, _full_spectrum(state))
            traj.actions[t] = action
            tau, dt, clean = 0.0, config.dt_initial, 0      # the controller resets
            continue
        # out of budget, or rejections drove dt below the floor
        if traj.step_count >= MAX_STEPS or dt < dt_floor:
            traj.failure = "stalled"
            continue
        h = min(dt, span - tau)
        if h not in steppers:
            steppers[h] = _EtdStepper(a0.cutoff, h)
        verdict, new = _attempt(steppers[h], state, n_state, action, work, config)
        traj.rhs_evaluations += 3
        if verdict == "non-finite":
            traj.failure = verdict
        elif verdict != "accept":
            dt, clean = h * config.dt_safety, 0
        else:
            state, n_state, action, sup = new
            tau += h
            traj.step_count += 1
            clean += 1
            if clean >= 10:
                dt, clean = min(dt / config.dt_safety, config.dt_initial), 0
            if not np.isfinite(sup):
                traj.failure = "non-finite"
            elif sup > config.blowup_threshold:
                traj.failure = "threshold"

    traj.attained_time = t + tau
    traj.blew_up = traj.failure is not None
    return traj
