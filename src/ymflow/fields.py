"""Lie-algebra-valued 1-forms on the unit 3-torus in spectral and grid form.

A connection is stored through the real component functions of its
orthonormal algebra basis expansion: ``coeffs[a, j, n]`` is the Fourier
coefficient of component (a, j) at integer mode n, with n in the cube
|n|_inf <= cutoff and the reality symmetry coeff(a, j, -n) =
conj(coeff(a, j, n)).  Grid values carry the same components sampled on a
uniform M^3 grid.

Derivatives are always taken spectrally.  Nonlinear (bracket) terms are
evaluated pointwise on a grid of size at least 2*(2N+1) and re-truncated,
which is alias-free for products of up to three cutoff-N factors, so the
retained band of every right-hand side below is exact up to rounding.
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
    "GridScalar",
    "GaugeTransform",
    "PAIRS",
    "dealias_resolution",
    "mode_grids",
    "mode_norm_sq",
    "zero_connection",
    "to_grid",
    "to_spectral",
    "exterior_d",
    "d_star_1form",
    "d_star_2form",
    "grad_0form",
    "wedge",
    "wedge_0form",
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
    """Smallest grid size used for cubic nonlinearities at this cutoff."""
    return 2 * (2 * cutoff + 1)


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


@functools.lru_cache(maxsize=None)
def _wrap_index(cutoff: int, resolution: int):
    idx = np.arange(-cutoff, cutoff + 1) % resolution
    return (
        idx[:, None, None],
        idx[None, :, None],
        idx[None, None, :],
    )


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


@dataclass
class GridScalar:
    group: GroupSpec
    resolution: int
    values: np.ndarray


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


def _spectral_to_values(coeffs: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    """Evaluate sum_n c(n) e^(i 2 pi n.x) on the grid; returns the real part."""
    _check_resolution(cutoff, resolution)
    lead = coeffs.shape[:-3]
    full = np.zeros(lead + (resolution,) * 3, dtype=complex)
    ix, iy, iz = _wrap_index(cutoff, resolution)
    full[..., ix, iy, iz] = coeffs
    vals = np.fft.ifftn(full, axes=(-3, -2, -1)) * resolution**3
    return np.ascontiguousarray(vals.real)


def _values_to_spectral(values: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    _check_resolution(cutoff, resolution)
    full = np.fft.fftn(values, axes=(-3, -2, -1)) / resolution**3
    ix, iy, iz = _wrap_index(cutoff, resolution)
    return np.ascontiguousarray(full[..., ix, iy, iz])


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


def _grid_bracket(x: np.ndarray, y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Pointwise algebra bracket of coefficient fields via the structure
    tensor: out^c = sum_{ab} x^a y^b f[a,b,c]."""
    return np.einsum("axyz,bxyz,abc->cxyz", x, y, f, optimize=True)


def wedge(a: GridConnection, b: GridConnection) -> GridTwoForm:
    """[A ^ B]_{ij} = [A_i, B_j] - [A_j, B_i] pointwise."""
    if a.group != b.group or a.resolution != b.resolution:
        raise ValueError("wedge arguments must share group and resolution")
    f = structure_constants(a.group)
    shape = (a.group.algebra_dim, 3) + a.values.shape[-3:]
    out = np.zeros(shape)
    if not a.group.is_abelian:
        for p, (i, j) in enumerate(PAIRS):
            out[:, p] = _grid_bracket(a.values[:, i], b.values[:, j], f) - \
                _grid_bracket(a.values[:, j], b.values[:, i], f)
    return GridTwoForm(a.group, a.resolution, out)


def wedge_0form(a: GridConnection, s: GridScalar) -> GridConnection:
    """[A ^ f]_i = [A_i, f] pointwise."""
    fstruct = structure_constants(a.group)
    out = np.zeros_like(a.values)
    if not a.group.is_abelian:
        for i in range(3):
            out[:, i] = _grid_bracket(a.values[:, i], s.values, fstruct)
    return GridConnection(a.group, a.resolution, out)


def interior(a: GridConnection, f: GridTwoForm) -> GridConnection:
    """[A _| F]_i = sum_j [A_j, F_{ij}] pointwise."""
    if a.resolution != f.resolution:
        raise ValueError("interior arguments must share resolution")
    fstruct = structure_constants(a.group)
    out = np.zeros_like(a.values)
    if not a.group.is_abelian:
        for i in range(3):
            acc = np.zeros_like(out[:, i])
            for j in range(3):
                if j == i:
                    continue
                p, sign = _PAIR_OF[(i, j)]
                acc += sign * _grid_bracket(a.values[:, j], f.values[:, p], fstruct)
            out[:, i] = acc
    return GridConnection(a.group, a.resolution, out)


def _pair_brackets(grid: GridConnection) -> np.ndarray:
    """[A_i, A_j] pointwise for each (i, j) in PAIRS, shape (d_g, 3, M, M, M)."""
    f = structure_constants(grid.group)
    v = grid.values
    return np.stack([_grid_bracket(v[:, i], v[:, j], f) for i, j in PAIRS], axis=1)


def curvature(a: SpectralConnection, resolution: int | None = None) -> GridTwoForm:
    """F_{ij} = (dA)_{ij} + [A_i, A_j] on the (dealiased) grid."""
    m = dealias_resolution(a.cutoff) if resolution is None else resolution
    da = _spectral_to_values(exterior_d(a).comps, a.cutoff, m)
    if not a.group.is_abelian:
        da += _pair_brackets(to_grid(a, m))
    return GridTwoForm(a.group, m, da)


def ym_action(a: SpectralConnection | GridConnection,
              resolution: int | None = None) -> float:
    """S_YM(A) = sum_{ij} integral |F_{ij}(x)|^2 dx by uniform-grid
    quadrature (exact for the band-limited curvature at the dealiased
    resolution)."""
    if isinstance(a, GridConnection):
        a = to_spectral(a, (a.resolution - 1) // 2)
    f = curvature(a, resolution)
    # pairs store i<j only; the full sum over ordered (i, j) doubles it
    return 2.0 * float(np.mean(np.sum(f.values**2, axis=(0, 1))))


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
    nl = _ym_nonlinear(a, m)
    return SpectralConnection(a.group, a.cutoff, linear + nl)


def _nonlinear_core(a: SpectralConnection, m: int):
    """The non-Abelian part YM and ZDDS share, -(1/2) d*[A ^ A] - [A _| F_A],
    and the grid of A it was assembled on.

    A is transformed to the grid once, and one set of brackets [A_i, A_j]
    serves both F_A = dA + [A_i, A_j] and [A ^ A]_{ij} = 2 [A_i, A_j].
    """
    grid = to_grid(a, m)
    aa = _pair_brackets(grid)
    fcurv = GridTwoForm(
        a.group, m, _spectral_to_values(exterior_d(a).comps, a.cutoff, m) + aa
    )
    dstar_aa = d_star_2form(
        SpectralTwoForm(a.group, a.cutoff, _values_to_spectral(aa, a.cutoff, m))
    ).coeffs
    aint = _values_to_spectral(interior(grid, fcurv).values, a.cutoff, m)
    return -dstar_aa - aint, grid


def _ym_nonlinear(a: SpectralConnection, m: int) -> np.ndarray:
    """YM right-hand side minus the Laplacian term, assembled without the
    large-term cancellation: the shared part plus dd*A."""
    ddstar = grad_0form(d_star_1form(a)).coeffs
    if a.group.is_abelian:
        return ddstar
    return _nonlinear_core(a, m)[0] + ddstar


def _zdds_nonlinear(a: SpectralConnection, m: int) -> np.ndarray:
    """ZDDS right-hand side minus the Laplacian term: the shared part minus
    [A ^ d*A].  Identically zero for Abelian groups."""
    if a.group.is_abelian:
        return np.zeros_like(a.coeffs)
    core, grid = _nonlinear_core(a, m)
    dstar = GridScalar(
        a.group, m, _spectral_to_values(d_star_1form(a).coeffs, a.cutoff, m)
    )
    return core - _values_to_spectral(wedge_0form(grid, dstar).values, a.cutoff, m)


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
            a.group, a.cutoff, lam[None, None] * a.coeffs + _zdds_nonlinear(a, m)
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
    fstruct = structure_constants(a.group)
    out = np.zeros_like(agrid)
    for i in range(3):
        acc = np.zeros_like(agrid[:, 0])
        for j in range(3):
            inner = 2.0 * dgrid[:, j, i] - dgrid[:, i, j] + \
                _grid_bracket(agrid[:, j], agrid[:, i], fstruct)
            acc += _grid_bracket(agrid[:, j], inner, fstruct)
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
    fstruct = structure_constants(group)
    term = eta
    out = eta.copy()
    scale = float(np.max(np.abs(eta))) + 1e-300
    factorial = 1.0
    for k in range(1, 60):
        term = -np.einsum("ap,bip,abc->cip", xi, term, fstruct, optimize=True)
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
    return float(np.sqrt(np.max(np.sum(a.values**2, axis=(0, 1)))))


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
