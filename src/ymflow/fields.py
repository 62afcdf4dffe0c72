"""Lie-algebra-valued 1-forms on the unit 3-torus in spectral and grid form.

A connection is stored through the real component functions of its
orthonormal algebra basis expansion: ``coeffs[a, j, n]`` is the Fourier
coefficient of component (a, j) at integer mode n, with n in the cube
|n|_inf <= cutoff and the reality symmetry coeff(a, j, -n) =
conj(coeff(a, j, n)).  Grid values carry the same components sampled on a
uniform M^3 grid.

Derivatives are always taken spectrally.  Nonlinear (bracket) terms are
evaluated pointwise on a grid of size M >= 4N+1 and re-truncated, which is
alias-free for products of up to three cutoff-N factors, so the retained
band of every right-hand side below is exact up to rounding; the default
M is the smallest 2*3*5-smooth size, where FFTs are fastest.  The
transforms are real: grid values are real, so only the half spectrum
n3 >= 0 is transformed, and the n3 < 0 half is the conjugate of the
mirrored modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec, standard_basis, structure_constants, exp_map

__all__ = [
    "SpectralConnection",
    "GridConnection",
    "SpectralTwoForm",
    "GridTwoForm",
    "SpectralScalar",
    "GaugeTransform",
    "PAIRS",
    "dealias_resolution",
    "mode_grids",
    "mode_norm_sq",
    "heat_weights",
    "zero_connection",
    "to_grid",
    "to_spectral",
    "exterior_d",
    "d_star_1form",
    "d_star_2form",
    "grad_0form",
    "wedge",
    "interior",
    "curvature",
    "ym_action",
    "ym_action_u1_spectral",
    "coulomb_project_u1",
    "gauge_act",
    "gauge_transform",
    "gauge_transform_spectral",
    "ym_rhs",
    "zdds_rhs",
    "l2_norm",
    "h1_norm",
    "linf_norm",
    "reality_defect",
    "u1_amplitudes",
]

TWO_PI = 2.0 * np.pi

# Antisymmetric pair storage order for 2-forms: component p holds F_{ij}
# with (i, j) = PAIRS[p]; F_{ji} = -F_{ij} is implicit.
PAIRS = ((0, 1), (0, 2), (1, 2))
_PAIR_OF = {}
for _p, (_i, _j) in enumerate(PAIRS):
    _PAIR_OF[(_i, _j)] = (_p, 1.0)
    _PAIR_OF[(_j, _i)] = (_p, -1.0)


def dealias_resolution(cutoff: int) -> int:
    """Default grid size for cubic nonlinearities at this cutoff: the
    smallest 2*3*5-smooth M >= 4N+1."""
    m = 4 * cutoff + 1
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


@functools.lru_cache(maxsize=None)
def mode_grids(cutoff: int):
    """Integer mode arrays (n1, n2, n3), each shaped (K, K, K), K = 2N+1."""
    axis = np.arange(-cutoff, cutoff + 1)
    n1, n2, n3 = np.meshgrid(axis, axis, axis, indexing="ij")
    for a in (n1, n2, n3):
        a.setflags(write=False)
    return n1, n2, n3


@functools.lru_cache(maxsize=None)
def mode_norm_sq(cutoff: int) -> np.ndarray:
    n1, n2, n3 = mode_grids(cutoff)
    out = (n1 * n1 + n2 * n2 + n3 * n3).astype(float)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _heat_table(cutoff: int, times: tuple) -> np.ndarray:
    lam = -4.0 * np.pi**2 * mode_norm_sq(cutoff)
    out = np.exp(lam[None] * np.asarray(times)[:, None, None, None])
    out.setflags(write=False)
    return out


def heat_weights(cutoff: int, times) -> np.ndarray:
    """Heat-kernel multipliers e^(-4 pi^2 |n|^2 t), one (K, K, K) row per
    time: a scalar or a 1-D sequence of times gives shape (T, K, K, K).

    The table is read-only and shared: the last 32 (cutoff, times) tables
    are cached, each T K^3 floats.
    """
    times = tuple(float(t) for t in np.atleast_1d(times))
    if any(t < 0 for t in times):
        raise ValueError("time must be nonnegative")
    return _heat_table(cutoff, times)


@dataclass
class SpectralConnection:
    """Fourier data of a g-valued 1-form: coeffs (d_g, 3, K, K, K)."""

    group: GroupSpec
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        k = 2 * self.cutoff + 1
        expected = (self.group.algebra_dim, 3, k, k, k)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    def copy(self) -> "SpectralConnection":
        return SpectralConnection(self.group, self.cutoff, self.coeffs.copy())

    def scaled(self, factor: float) -> "SpectralConnection":
        return SpectralConnection(self.group, self.cutoff, self.coeffs * factor)

    def restricted(self, cutoff: int) -> "SpectralConnection":
        """Truncation to a smaller cutoff (exact restriction of modes)."""
        if cutoff > self.cutoff:
            raise ValueError("restriction target exceeds current cutoff")
        lo = self.cutoff - cutoff
        hi = self.cutoff + cutoff + 1
        return SpectralConnection(
            self.group, cutoff, self.coeffs[:, :, lo:hi, lo:hi, lo:hi].copy()
        )


@dataclass
class GridConnection:
    """Real samples of the component functions: values (d_g, 3, M, M, M)."""

    group: GroupSpec
    resolution: int
    values: np.ndarray


@dataclass
class SpectralTwoForm:
    """Antisymmetric 2-form, components in PAIRS order: (d_g, 3, K, K, K)."""

    group: GroupSpec
    cutoff: int
    comps: np.ndarray


@dataclass
class GridTwoForm:
    group: GroupSpec
    resolution: int
    values: np.ndarray


@dataclass
class SpectralScalar:
    """g-valued 0-form, coeffs (d_g, K, K, K)."""

    group: GroupSpec
    cutoff: int
    coeffs: np.ndarray


def zero_connection(group: GroupSpec, cutoff: int) -> SpectralConnection:
    k = 2 * cutoff + 1
    return SpectralConnection(
        group, cutoff, np.zeros((group.algebra_dim, 3, k, k, k), dtype=complex)
    )


def _check_resolution(cutoff: int, resolution: int):
    if resolution < 2 * cutoff + 1:
        raise ValueError(
            f"grid resolution {resolution} too small for cutoff {cutoff} "
            f"(needs at least {2 * cutoff + 1})"
        )


@functools.lru_cache(maxsize=None)
def _grid_slots(cutoff: int, resolution: int) -> np.ndarray:
    """The transform plan of one (cutoff, M): the grid slot of each mode
    -N..N along one axis."""
    _check_resolution(cutoff, resolution)
    slots = np.arange(-cutoff, cutoff + 1) % resolution
    slots.setflags(write=False)
    return slots


# The grid transforms below are real: only the half spectrum n3 >= 0 is
# transformed, one axis at a time (complex on the first two axes, real on
# the last), skipping the rows that hold no retained mode.


def _spectral_to_values(coeffs: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    """sum_n c(n) e^(i 2 pi n.x) on the M^3 grid, for coeffs (..., K, K, K).

    Reads only the n3 >= 0 half of coeffs, so it assumes the reality
    symmetry c(-n) = conj(c(n)).
    """
    slots, n, m = _grid_slots(cutoff, resolution), cutoff, resolution
    lead = coeffs.shape[:-3]
    along1 = np.zeros(lead + (m, 2 * n + 1, n + 1), dtype=complex)
    along1[..., slots, :, :] = coeffs[..., n:]
    along1 = np.fft.ifft(along1, axis=-3, norm="forward")
    along2 = np.zeros(lead + (m, m, n + 1), dtype=complex)
    along2[..., slots, :] = along1
    along2 = np.fft.ifft(along2, axis=-2, norm="forward")
    return np.fft.irfft(along2, n=m, axis=-1, norm="forward")


def _values_to_spectral(values: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    """Discrete Fourier analysis of real grid values (..., M, M, M),
    normalized so constants sit in the n=0 slot; the n3 < 0 half is the
    conjugate of the mirrored modes."""
    slots, n = _grid_slots(cutoff, resolution), cutoff
    half = np.fft.rfft(values, axis=-1, norm="forward")[..., : n + 1]
    half = np.fft.fft(half, axis=-2, norm="forward")[..., slots, :]
    upper = np.fft.fft(half, axis=-3, norm="forward")[..., slots, :, :]
    lower = np.conj(upper[..., ::-1, ::-1, :0:-1])
    return np.concatenate([lower, upper], axis=-1)


def to_grid(a: SpectralConnection, resolution: int) -> GridConnection:
    """Inverse transform of the truncated series onto an M^3 grid."""
    return GridConnection(
        a.group, resolution, _spectral_to_values(a.coeffs, a.cutoff, resolution)
    )


def to_spectral(g: GridConnection, cutoff: int) -> SpectralConnection:
    """Discrete Fourier analysis, normalized so constants sit in the n=0 slot."""
    return SpectralConnection(
        g.group, cutoff, _values_to_spectral(g.values, cutoff, g.resolution)
    )


def exterior_d(a: SpectralConnection) -> SpectralTwoForm:
    """(dA)_{ij} = d_i A_j - d_j A_i, mode-wise i 2 pi (n_i A_j - n_j A_i)."""
    n = mode_grids(a.cutoff)
    c = a.coeffs
    comps = np.empty_like(c)
    for p, (i, j) in enumerate(PAIRS):
        comps[:, p] = (1j * TWO_PI) * (n[i] * c[:, j] - n[j] * c[:, i])
    return SpectralTwoForm(a.group, a.cutoff, comps)


def d_star_1form(a: SpectralConnection) -> SpectralScalar:
    """d*A = -sum_i d_i A_i, mode-wise -i 2 pi n . A(n)."""
    n = mode_grids(a.cutoff)
    c = a.coeffs
    dot = n[0] * c[:, 0] + n[1] * c[:, 1] + n[2] * c[:, 2]
    return SpectralScalar(a.group, a.cutoff, (-1j * TWO_PI) * dot)


def d_star_2form(f: SpectralTwoForm) -> SpectralConnection:
    """(d*F)_i = sum_j d_j F_{ij}, with the antisymmetric pair storage."""
    n = mode_grids(f.cutoff)
    c = f.comps
    out = np.empty_like(c)
    for i in range(3):
        acc = 0.0
        for j in range(3):
            if j == i:
                continue
            p, sign = _PAIR_OF[(i, j)]
            acc = acc + sign * n[j] * c[:, p]
        out[:, i] = (1j * TWO_PI) * acc
    return SpectralConnection(f.group, f.cutoff, out)


def grad_0form(f: SpectralScalar) -> SpectralConnection:
    """(df)_i = d_i f, mode-wise i 2 pi n_i f(n)."""
    n = mode_grids(f.cutoff)
    out = np.stack([(1j * TWO_PI) * n[i] * f.coeffs for i in range(3)], axis=1)
    return SpectralConnection(f.group, f.cutoff, out)


@functools.lru_cache(maxsize=None)
def _bracket_terms(group: GroupSpec):
    """The nonzero structure constants as (a, b, ((c, f[a, b, c]), ...))
    over a < b; f is antisymmetric in (a, b)."""
    f = structure_constants(group)
    d = group.algebra_dim
    terms = []
    for a in range(d):
        for b in range(a + 1, d):
            targets = tuple((c, float(f[a, b, c])) for c in range(d) if f[a, b, c])
            if targets:
                terms.append((a, b, targets))
    return tuple(terms)


def _grid_bracket(x: np.ndarray, y: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Pointwise algebra bracket of coefficient fields x, y (d, ...), which
    broadcast against each other: out^c = sum_{a<b} f[a,b,c] (x^a y^b -
    x^b y^a), summed over the nonzero structure constants only."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for a, b, targets in _bracket_terms(group):
        w = x[a] * y[b] - x[b] * y[a]
        for c, coef in targets:
            out[c] += coef * w
    return out


# the components (i, j) of each pair in PAIRS order
_PAIR_I = [i for i, _ in PAIRS]
_PAIR_J = [j for _, j in PAIRS]
# [A _| F]_i = sum_{j != i} [A_j, F_ij]: its six terms in (i, j) order, as
# the A component, the stored pair and the sign F_ij carries
_INTERIOR_TERMS = [(i, j) for i in range(3) for j in range(3) if j != i]
_INTERIOR_A = [j for _, j in _INTERIOR_TERMS]
_INTERIOR_F = [_PAIR_OF[t][0] for t in _INTERIOR_TERMS]
_INTERIOR_SIGN = np.array([_PAIR_OF[t][1] for t in _INTERIOR_TERMS])[:, None, None, None]


def _pair_brackets(group: GroupSpec, avals: np.ndarray) -> np.ndarray:
    """[A_i, A_j] pointwise for each (i, j) in PAIRS, shape (d_g, 3, ...)."""
    return _grid_bracket(avals[:, _PAIR_I], avals[:, _PAIR_J], group)


def _interior_values(group: GroupSpec, avals: np.ndarray,
                     fvals: np.ndarray) -> np.ndarray:
    """[A _| F]_i pointwise, all six brackets in one call."""
    terms = _grid_bracket(avals[:, _INTERIOR_A],
                          fvals[:, _INTERIOR_F] * _INTERIOR_SIGN, group)
    return terms[:, 0::2] + terms[:, 1::2]


def _action_of(fvals: np.ndarray) -> float:
    """sum_{ij} integral |F_ij|^2 by uniform-grid quadrature; the pairs
    store i<j only, so the full sum over ordered (i, j) doubles it."""
    return 2.0 * float(np.mean(np.sum(fvals**2, axis=(0, 1))))


def _sup_of(avals: np.ndarray) -> float:
    """max over grid points of the g^3 Frobenius norm."""
    return float(np.sqrt(np.max(np.sum(avals**2, axis=(0, 1)))))


def wedge(a: GridConnection, b: GridConnection) -> GridTwoForm:
    """[A ^ B]_{ij} = [A_i, B_j] - [A_j, B_i] pointwise."""
    if a.group != b.group or a.resolution != b.resolution:
        raise ValueError("wedge arguments must share group and resolution")
    av, bv = a.values, b.values
    out = _grid_bracket(av[:, _PAIR_I], bv[:, _PAIR_J], a.group) - \
        _grid_bracket(av[:, _PAIR_J], bv[:, _PAIR_I], a.group)
    return GridTwoForm(a.group, a.resolution, out)


def interior(a: GridConnection, f: GridTwoForm) -> GridConnection:
    """[A _| F]_i = sum_j [A_j, F_{ij}] pointwise."""
    if a.resolution != f.resolution:
        raise ValueError("interior arguments must share resolution")
    return GridConnection(
        a.group, a.resolution, _interior_values(a.group, a.values, f.values)
    )


def curvature(a: SpectralConnection, resolution: int | None = None) -> GridTwoForm:
    """F_{ij} = (dA)_{ij} + [A_i, A_j] on the (dealiased) grid."""
    m = dealias_resolution(a.cutoff) if resolution is None else resolution
    grids = _spectral_to_values(
        np.concatenate([a.coeffs, exterior_d(a).comps], axis=1), a.cutoff, m
    )
    return GridTwoForm(
        a.group, m, grids[:, 3:] + _pair_brackets(a.group, grids[:, :3])
    )


def ym_action(a: SpectralConnection | GridConnection,
              resolution: int | None = None) -> float:
    """S_YM(A) = sum_{ij} integral |F_{ij}(x)|^2 dx by uniform-grid
    quadrature (exact for the band-limited curvature at the dealiased
    resolution)."""
    if isinstance(a, GridConnection):
        a = to_spectral(a, (a.resolution - 1) // 2)
    return _action_of(curvature(a, resolution).values)


def ym_action_u1_spectral(a: SpectralConnection) -> float:
    """Closed-form U(1) action 8 pi^2 sum_n (|n|^2 |A(n)|^2 - |n.A(n)|^2)."""
    if a.group.kind != "u1":
        raise ValueError("spectral action formula is U(1)-only")
    n = mode_grids(a.cutoff)
    c = a.coeffs[0]
    norm_sq = np.sum(np.abs(c) ** 2, axis=0)
    dot = n[0] * c[0] + n[1] * c[1] + n[2] * c[2]
    total = np.sum(mode_norm_sq(a.cutoff) * norm_sq) - np.sum(np.abs(dot) ** 2)
    return float(8.0 * np.pi**2 * total)


def coulomb_project_u1(a: SpectralConnection) -> SpectralConnection:
    """Unique divergence-free gauge representative: kill the zero mode and
    subtract (A(n).n) n / |n|^2 mode-wise."""
    if a.group.kind != "u1":
        raise ValueError("Coulomb projection implemented for U(1) only")
    n = mode_grids(a.cutoff)
    c = a.coeffs.copy()
    nsq = mode_norm_sq(a.cutoff).copy()
    nsq[a.cutoff, a.cutoff, a.cutoff] = 1.0  # avoid 0/0; zero mode handled below
    dot = (n[0] * c[:, 0] + n[1] * c[:, 1] + n[2] * c[:, 2]) / nsq
    for i in range(3):
        c[:, i] -= dot * n[i]
    c[:, :, a.cutoff, a.cutoff, a.cutoff] = 0.0
    return SpectralConnection(a.group, a.cutoff, c)


def ym_rhs(a: SpectralConnection, resolution: int | None = None) -> SpectralConnection:
    """Right-hand side of the Yang-Mills heat flow, -(d*F_A + [A _| F_A]),
    truncated back to the input cutoff."""
    m = dealias_resolution(a.cutoff) if resolution is None else resolution
    lam = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    linear = lam[None, None] * a.coeffs
    nl = _ym_nonlinear(a, m)[0]
    return SpectralConnection(a.group, a.cutoff, linear + nl)


def _nonlinear_core(a: SpectralConnection, m: int, deturck: bool):
    """Right-hand side minus the Laplacian term, with S_YM(a) and sup|A|
    evaluated on the same grid.

    YM (deturck False):  -(1/2) d*[A ^ A] - [A _| F_A] + d d*A
    ZDDS (deturck True): -(1/2) d*[A ^ A] - [A _| F_A] - [A ^ d*A]

    Assembled without the large-term cancellation of the full operators.
    One inverse transform takes A, dA (and d*A) to the grid; one set of
    brackets [A_i, A_j] gives both F_A = dA + [A_i, A_j] and [A ^ A]_{ij} =
    2 [A_i, A_j]; one forward transform brings [A_i, A_j] and the other
    bracket terms back.  The ZDDS remainder vanishes for Abelian groups.
    """
    group, n = a.group, a.cutoff
    dstar = d_star_1form(a)
    parts = [a.coeffs, exterior_d(a).comps]
    if deturck and not group.is_abelian:
        parts.append(dstar.coeffs[:, None])
    grids = _spectral_to_values(np.concatenate(parts, axis=1), n, m)
    avals = grids[:, :3]
    sup = _sup_of(avals)
    if group.is_abelian:
        nl = np.zeros_like(a.coeffs) if deturck else grad_0form(dstar).coeffs
        return nl, _action_of(grids[:, 3:]), sup
    aa = _pair_brackets(group, avals)
    fvals = grids[:, 3:6] + aa
    inner = _interior_values(group, avals, fvals)
    if deturck:
        inner += _grid_bracket(avals, grids[:, 6:], group)
    back = _values_to_spectral(np.concatenate([aa, inner], axis=1), n, m)
    nl = -d_star_2form(SpectralTwoForm(group, n, back[:, :3])).coeffs - back[:, 3:]
    if not deturck:
        nl += grad_0form(dstar).coeffs
    return nl, _action_of(fvals), sup


def _ym_nonlinear(a: SpectralConnection, m: int):
    """(YM right-hand side minus the Laplacian term, S_YM(a), sup|A|)."""
    return _nonlinear_core(a, m, deturck=False)


def _zdds_nonlinear(a: SpectralConnection, m: int):
    """(ZDDS right-hand side minus the Laplacian term, S_YM(a), sup|A|)."""
    return _nonlinear_core(a, m, deturck=True)


def zdds_rhs(a: SpectralConnection, resolution: int | None = None,
             path: str = "operator") -> SpectralConnection:
    """Right-hand side of the DeTurck-modified flow.

    path='operator' assembles -(d*F_A + [A _| F_A]) - (d(d*A) + [A ^ d*A]);
    path='explicit' evaluates the componentwise form
    Lap A_i + sum_j [A_j, 2 d_j A_i - d_i A_j + [A_j, A_i]].  The two are
    algebraically identical and are kept as independent code paths.
    """
    m = dealias_resolution(a.cutoff) if resolution is None else resolution
    lam = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    if path == "operator":
        return SpectralConnection(
            a.group, a.cutoff, lam[None, None] * a.coeffs + _zdds_nonlinear(a, m)[0]
        )
    if path != "explicit":
        raise ValueError(f"unknown zdds path {path!r}")
    lap = lam[None, None] * a.coeffs
    if a.group.is_abelian:
        return SpectralConnection(a.group, a.cutoff, lap)
    n = mode_grids(a.cutoff)
    # d_j A_i for all (j, i), spectrally, then sampled on the dealiased grid
    partials = np.empty(a.coeffs.shape[:1] + (3,) + a.coeffs.shape[1:], dtype=complex)
    for j in range(3):
        partials[:, j] = (1j * TWO_PI) * n[j] * a.coeffs
    dgrid = _spectral_to_values(partials, a.cutoff, m)  # (d, j, i, x, y, z)
    agrid = to_grid(a, m).values
    out = np.zeros_like(agrid)
    for i in range(3):
        acc = np.zeros_like(agrid[:, 0])
        for j in range(3):
            inner = 2.0 * dgrid[:, j, i] - dgrid[:, i, j] + \
                _grid_bracket(agrid[:, j], agrid[:, i], a.group)
            acc += _grid_bracket(agrid[:, j], inner, a.group)
        out[:, i] = acc
    return SpectralConnection(
        a.group, a.cutoff, lap + _values_to_spectral(out, a.cutoff, m)
    )


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
        from .groups import U1
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
        grad = grad_0form(SpectralScalar(self.group, self.cutoff, self.log_coeffs))
        return np.concatenate([self.log_coeffs[:, None], grad.coeffs], axis=1)


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


def gauge_transform(a: SpectralConnection | GridConnection, sigma: GaugeTransform,
                    resolution: int | None = None) -> GridConnection:
    """A^sigma_i = sigma^-1 A_i sigma + sigma^-1 d_i sigma on the grid."""
    if isinstance(a, GridConnection):
        spec = to_spectral(a, (a.resolution - 1) // 2)
        m = a.resolution if resolution is None else resolution
        a = spec
    else:
        m = dealias_resolution(a.cutoff) if resolution is None else resolution
    if sigma.group != a.group:
        raise ValueError("gauge transform group mismatch")
    d = a.group.algebra_dim
    vals = to_grid(a, m).values.reshape(d, 3, -1)
    stack = sigma.log_stack()
    logs = None if stack is None else \
        _spectral_to_values(stack, sigma.cutoff, m).reshape(d, 4, -1)
    out = gauge_act(a.group, vals, logs, sigma.winding)
    return GridConnection(a.group, m, out.reshape(d, 3, m, m, m))


def gauge_transform_spectral(a: SpectralConnection, sigma: GaugeTransform,
                             cutoff: int | None = None,
                             resolution: int | None = None) -> SpectralConnection:
    """Gauge transform followed by re-truncation.

    Exact when sigma keeps the result band-limited (winding or constant
    transforms); otherwise the caller picks cutoff/resolution high enough
    for the spectral tail to be negligible.
    """
    n_out = a.cutoff if cutoff is None else cutoff
    m = dealias_resolution(n_out) if resolution is None else resolution
    return to_spectral(gauge_transform(a, sigma, m), n_out)


# ---------------------------------------------------------------------------
# norms and diagnostics


def l2_norm(a: SpectralConnection) -> float:
    """L^2 norm; by Parseval the root sum of squared coefficient moduli."""
    return float(np.sqrt(np.sum(np.abs(a.coeffs) ** 2)))


def h1_norm(a: SpectralConnection) -> float:
    """Discrete H^1 norm (sum (1 + 4 pi^2 |n|^2) |c(n)|^2)^(1/2)."""
    w = 1.0 + 4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    return float(np.sqrt(np.sum(w[None, None] * np.abs(a.coeffs) ** 2)))


def linf_norm(a: SpectralConnection | GridConnection,
              resolution: int | None = None) -> float:
    """max_x |A(x)| with the g^3 Frobenius norm at each point."""
    if isinstance(a, SpectralConnection):
        m = dealias_resolution(a.cutoff) if resolution is None else resolution
        a = to_grid(a, m)
    return _sup_of(a.values)


def reality_defect(a: SpectralConnection) -> float:
    """Max deviation from coeff(a, j, -n) = conj(coeff(a, j, n))."""
    flipped = a.coeffs[:, :, ::-1, ::-1, ::-1]
    return float(np.max(np.abs(np.conj(flipped) - a.coeffs)))


def u1_amplitudes(a: SpectralConnection) -> np.ndarray:
    """i R-convention Fourier data Z_n = i c(n) of a U(1) field, (3, K^3
    cube); satisfies Z(-n) = -conj(Z(n)) because the stored component
    coefficients satisfy c(-n) = conj(c(n))."""
    if a.group.kind != "u1":
        raise ValueError("U(1) fields only")
    return 1j * a.coeffs[0]
