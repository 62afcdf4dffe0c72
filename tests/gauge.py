"""Gauge transforms and the checks built on them, which only the tests use:
the transform sigma = exp(xi) e^(i 2 pi m.x) itself, its pointwise action
A^sigma = sigma^-1 A sigma + sigma^-1 d sigma on grid values and at
off-grid points, the flow covariance gap of criterion 6, the action decay
profile, the fundamental axis cycles and the transverse frame of one mode.

No command runs a gauge transform: Wilson loops are functions of gauge
orbits, and these helpers check that property of the package code.
"""

from dataclasses import dataclass, field

import numpy as np

from ymflow.fields import (
    TWO_PI,
    SpectralConnection,
    _full_spectrum,
    _grad,
    _grid_bracket,
    _spectral_to_values,
    _values_to_spectral,
    dealias_resolution,
    l2_norm,
)
from ymflow.flow import FlowConfig, FlowTrajectory, integrate
from ymflow.gff import _frames
from ymflow.groups import U1, GroupSpec, exp_map, standard_basis
from ymflow.wilson import FieldEvaluator, Loop, _fourier_values, make_loop


# ---------------------------------------------------------------------------
# gauge transformations


@dataclass
class GaugeTransform:
    """sigma(x) = exp(xi(x)) . e^(i 2 pi m.x), with xi a band-limited
    g-valued 0-form (coefficients log_coeffs, may be None for pure
    winding) and m an integer winding vector (U(1) only)."""

    group: GroupSpec
    cutoff: int
    log_coeffs: np.ndarray | None = None
    winding: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=int))

    def __post_init__(self):
        self.winding = np.asarray(self.winding, dtype=int)
        if np.any(self.winding != 0) and self.group.kind != "u1":
            raise ValueError("winding gauge transforms exist only for U(1)")

    @staticmethod
    def identity(group: GroupSpec) -> "GaugeTransform":
        return GaugeTransform(group, 0, None)

    @staticmethod
    def from_log(group: GroupSpec, cutoff: int, log_coeffs: np.ndarray,
                 winding=(0, 0, 0)) -> "GaugeTransform":
        return GaugeTransform(group, cutoff, np.asarray(log_coeffs, dtype=complex),
                              np.asarray(winding, dtype=int))

    @staticmethod
    def winding_u1(m) -> "GaugeTransform":
        return GaugeTransform(U1, 0, None, np.asarray(m, dtype=int))

    @staticmethod
    def constant(group: GroupSpec, xi_coeffs) -> "GaugeTransform":
        """Constant-in-x transform exp(sum_a xi^a X^a)."""
        coeffs = np.asarray(xi_coeffs, dtype=complex).reshape(group.algebra_dim, 1, 1, 1)
        return GaugeTransform(group, 0, coeffs)

    def log_stack(self) -> np.ndarray | None:
        """Fourier data of xi and of its partials d_i xi, stacked along the
        second axis as (d, 4, K, K, K); None when sigma has no log part."""
        if self.log_coeffs is None:
            return None
        grad = _grad(self.log_coeffs[..., self.cutoff:], self.cutoff)
        return np.concatenate([self.log_coeffs[:, None], _full_spectrum(grad)], axis=1)


def _conjugate(group: GroupSpec, xi: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Basis coefficients of Ad_{sigma^-1} A = sigma^-1 A sigma, sigma =
    exp(xi), pointwise; xi (d, P), values (d, 3, P)."""
    basis = standard_basis(group)
    sig = exp_map(np.einsum("ap,aij->pij", xi, basis))
    sig_h = np.conj(np.swapaxes(sig, -1, -2))
    rotated = np.einsum("pik,akl,plj->apij", sig_h, basis, sig, optimize=True)
    rot = np.einsum("cij,apij->pac", basis.conj(), rotated, optimize=True).real
    return np.einsum("pac,aip->cip", rot, values, optimize=True)


def _dexp_neg(group: GroupSpec, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """dexp_{-xi}(eta) = sum_k ad_{-xi}^k (eta) / (k+1)!, pointwise, summed
    until a term drops below 1e-18 of max |eta|; xi (d, P), eta (d, 3, P)."""
    term = eta
    out = eta.copy()
    scale = float(np.max(np.abs(eta))) + 1e-300
    factorial = 1.0
    for k in range(1, 60):
        term = -_grid_bracket(xi[:, None], term, group)
        factorial *= k + 1
        out += term / factorial
        if np.max(np.abs(term)) / factorial < 1e-18 * scale:
            break
    return out


def gauge_act(group: GroupSpec, values: np.ndarray, log_values: np.ndarray | None,
              winding: np.ndarray) -> np.ndarray:
    """A^sigma = sigma^-1 A sigma + sigma^-1 d sigma at sample points, for
    sigma = exp(xi) e^(i 2 pi m.x).

    values: (d, 3, P) components of A; log_values: (d, 4, P) values of xi
    and d_i xi at the same points (see GaugeTransform.log_stack), or None
    when sigma has no log part.  The Maurer-Cartan term is dexp_{-xi}(d_i
    xi); the winding m (U(1) only) adds the constant 2 pi m_i.
    """
    out = values
    if log_values is not None:
        xi, dxi = log_values[:, 0], log_values[:, 1:]
        if group.is_abelian:
            out = out + dxi
        else:
            out = _conjugate(group, xi, out) + _dexp_neg(group, xi, dxi)
    if np.any(winding != 0):
        out = out + TWO_PI * winding[None, :, None]
    return out


def gauge_transform(a: SpectralConnection, sigma: GaugeTransform,
                    resolution: int | None = None) -> np.ndarray:
    """A^sigma_i = sigma^-1 A_i sigma + sigma^-1 d_i sigma on the M^3 grid,
    as component values (d_g, 3, M, M, M)."""
    if sigma.group != a.group:
        raise ValueError("gauge transform group mismatch")
    m = dealias_resolution(a.cutoff) if resolution is None else resolution
    d = a.group.algebra_dim
    vals = _spectral_to_values(a.coeffs, a.cutoff, m).reshape(d, 3, -1)
    stack = sigma.log_stack()
    logs = None if stack is None else \
        _spectral_to_values(stack, sigma.cutoff, m).reshape(d, 4, -1)
    out = gauge_act(a.group, vals, logs, sigma.winding)
    return out.reshape(d, 3, m, m, m)


def gauge_transform_spectral(a: SpectralConnection, sigma: GaugeTransform,
                             cutoff: int | None = None) -> SpectralConnection:
    """Gauge transform followed by re-truncation, on the dealiased grid of
    the output cutoff.

    Exact when sigma keeps the result band-limited (winding or constant
    transforms); otherwise the caller picks a cutoff high enough for the
    spectral tail to be negligible.
    """
    n_out = a.cutoff if cutoff is None else cutoff
    m = dealias_resolution(n_out)
    vals = gauge_transform(a, sigma, m)
    return SpectralConnection(a.group, n_out,
                              _full_spectrum(_values_to_spectral(vals, n_out, m)))


# ---------------------------------------------------------------------------
# gauge-transformed fields along loops


class GaugeTransformedEvaluator(FieldEvaluator):
    """Evaluator of A^sigma at arbitrary points without any truncation of
    the transformed field: the conjugation and the Maurer-Cartan term are
    formed pointwise from the spectral data of A and of log sigma."""

    def __init__(self, a: SpectralConnection, sigma: GaugeTransform):
        super().__init__(a)
        if sigma.group != a.group:
            raise ValueError("gauge transform group mismatch")
        self._sigma = sigma
        self._log_stack = sigma.log_stack()

    def coefficients_at(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = super().coefficients_at(points)          # (d, 3, P)
        logs = None
        if self._log_stack is not None:
            logs = _fourier_values(self._log_stack, self._sigma.cutoff, points)
        return gauge_act(self.group, vals, logs, self._sigma.winding)


def axis_cycle(axis: int, offset=(0.0, 0.0, 0.0), name=None) -> Loop:
    """The fundamental cycle along a coordinate axis through ``offset``."""
    p = np.asarray(offset, dtype=float)
    q = p.copy()
    q[axis] += 1.0
    return make_loop([p, q], name=name or f"cycle{'xyz'[axis]}")


# ---------------------------------------------------------------------------
# flows of gauge-related data


def action_decay_profile(traj: FlowTrajectory, tol: float = 1e-9):
    """Sorted (t, S_YM) pairs of the actions recorded at the checkpoints,
    plus a monotonicity flag.

    Returns (profile, violations) where violations lists the checkpoint
    times at which the action rose beyond tol relative."""
    profile = [(t, traj.actions[t]) for t in traj.checkpoint_times()]
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
    oscillatory = sigma.log_coeffs is not None and sigma.cutoff > 0
    if config.flow_kind == "zdds" and oscillatory:
        raise ValueError("the modified flow is covariant only for constant sigma")
    if config.flow_kind == "u1_exact":
        raise ValueError("use flow_kind 'ym' or 'zdds' for covariance checks")
    a0_t = gauge_transform_spectral(a0, sigma, cutoff=a0.cutoff)
    flow_plain = integrate(a0, config, (t,))
    flow_trans = integrate(a0_t, config, (t,))
    if flow_plain.blew_up or flow_trans.blew_up:
        raise RuntimeError("covariance check aborted: flow blew up")
    lhs = flow_trans.states[t]
    rhs = gauge_transform_spectral(flow_plain.states[t], sigma, cutoff=a0.cutoff)
    denom = max(l2_norm(flow_plain.states[t]), 1e-30)
    return float(np.sqrt(np.sum(np.abs(lhs.coeffs - rhs.coeffs) ** 2))) / denom


# ---------------------------------------------------------------------------
# mode frames


def transverse_frame(n) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (u1, u2) spanning the plane orthogonal to n.

    Built from integer cross products of the canonical representative of
    {n, -n}, so u(-n) = u(n) holds exactly and the dot products n.u are
    exact zeros in floating point.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.shape != (3,) or not n.any():
        raise ValueError("need a nonzero integer 3-vector")
    h = -n if n[np.flatnonzero(n)[0]] < 0 else n
    u1, u2 = _frames(h[None])
    return u1[:, 0], u2[:, 0]
