"""Lie-algebra-valued 1-forms on the unit 3-torus: spectral connections,
the transforms to and from grid values, d*, curl, the fused YM/ZDDS
nonlinear term with the action S_YM and sup|A| read off the same pass,
U(1) Coulomb projection, gauge transforms and norms.

A connection is stored through the real component functions of its
orthonormal algebra basis expansion: ``coeffs[a, j, n]`` is the Fourier
coefficient of component (a, j) at integer mode n, with n in the cube
|n|_inf <= cutoff and the reality symmetry coeff(a, j, -n) =
conj(coeff(a, j, n)).  Grid values, plain (d_g, 3, M, M, M) arrays, carry
the same components sampled on a uniform M^3 grid.

Derivatives are always taken spectrally.  Nonlinear (bracket) terms are
evaluated pointwise on the grid of size M = 4N+1 and re-truncated, which
is alias-free for products of up to three cutoff-N factors, so the
retained band of every right-hand side below is exact up to rounding; the
grid size is this module's choice, not the caller's.  The grid transforms
are pruned DFTs applied as matrix products, one cached plan per (cutoff,
M): only the 2N+1 retained modes per axis enter, and grid values are
real, so only the half spectrum n3 >= 0 is transformed and the n3 < 0
half is the conjugate of the mirrored modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec, standard_basis, structure_constants, exp_map

__all__ = [
    "SpectralConnection",
    "SpectralScalar",
    "GaugeTransform",
    "dealias_resolution",
    "mode_grids",
    "mode_norm_sq",
    "heat_weights",
    "zero_connection",
    "d_star_1form",
    "grad_0form",
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
    "reality_defect",
    "u1_amplitudes",
]

TWO_PI = 2.0 * np.pi


def dealias_resolution(cutoff: int) -> int:
    """Smallest grid size that dealiases cubic nonlinearities at this
    cutoff: M = 4N+1 (Orszag's bound)."""
    return 4 * cutoff + 1


@functools.lru_cache(maxsize=None)
def mode_grids(cutoff: int):
    """Integer mode arrays (n1, n2, n3), each shaped (K, K, K), K = 2N+1.

    They are read-only zero-stride views (``np.broadcast_to``) of one
    int64 axis -N..N, so a cutoff costs K integers, not 3 K^3; arithmetic
    on them gives new dense arrays as usual.
    """
    k = 2 * cutoff + 1
    axis = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    return tuple(np.broadcast_to(axis.reshape(shape), (k, k, k))
                 for shape in ((k, 1, 1), (1, k, 1), (1, 1, k)))


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
def _dft_plan(cutoff: int, resolution: int):
    """The transform plan of one (cutoff, M): read-only DFT matrices.

    synth (M, K) holds e^(i 2 pi x n / M) for x = 0..M-1, n = -N..N, and
    analysis (K, M) its conjugate transpose over M.  synth3 (2(N+1), M)
    maps the interleaved [Re, Im] of the n3 >= 0 modes to x3, with weight
    1 for n3 = 0 and 2 for n3 > 0; analysis3 (M, 2(N+1)) maps x3 back to
    the interleaved [Re, Im] of those modes over M.  Angles come from the
    integer (x n) mod M, so they stay accurate at large M.
    """
    _check_resolution(cutoff, resolution)
    x = np.arange(resolution)
    modes = np.arange(-cutoff, cutoff + 1)
    synth = np.exp((1j * TWO_PI / resolution) * ((x[:, None] * modes) % resolution))
    analysis = np.ascontiguousarray(synth.conj().T) / resolution
    half = (TWO_PI / resolution) * ((np.arange(cutoff + 1)[:, None] * x) % resolution)
    weight = np.where(np.arange(cutoff + 1) == 0, 1.0, 2.0)[:, None]
    synth3 = np.empty((2 * (cutoff + 1), resolution))
    synth3[0::2] = weight * np.cos(half)
    synth3[1::2] = -weight * np.sin(half)
    analysis3 = np.empty((resolution, 2 * (cutoff + 1)))
    analysis3[:, 0::2] = np.cos(half).T / resolution
    analysis3[:, 1::2] = -np.sin(half).T / resolution
    for arr in (synth, analysis, synth3, analysis3):
        arr.setflags(write=False)
    return synth, analysis, synth3, analysis3


# The grid transforms below are pruned DFTs applied as matrix products:
# only the retained modes and the half spectrum n3 >= 0 enter, and each
# axis is one (batched) BLAS product.  The n2 axis sits between the other
# two, so its product is batched over (lead, n1); it runs while that batch
# is K rows, not M, long.  Each product writes into the matching buffer of
# ``bufs`` when one is given (see _Workspace), else into a new array.


def _half_to_values(half: np.ndarray, cutoff: int, resolution: int,
                    bufs=(None, None, None)) -> np.ndarray:
    """Grid values (..., M, M, M) of the n3 >= 0 half spectrum
    (..., K, K, N+1), whose n3 < 0 half is the conjugate of the mirrored
    modes; the values are a view of the last product output."""
    synth, _, synth3, _ = _dft_plan(cutoff, resolution)
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(synth, half.reshape(-1, k, h), out=bufs[0])        # n2 -> x2
    g = np.matmul(synth, g.reshape(-1, k, m * h), out=bufs[1])       # n1 -> x1
    values = np.matmul(g.view(float).reshape(-1, 2 * h), synth3,
                       out=bufs[2])                                  # n3 -> x3
    return values.reshape(half.shape[:-3] + (m, m, m))


def _spectral_to_values(coeffs: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    """sum_n c(n) e^(i 2 pi n.x) on the M^3 grid, for coeffs (..., K, K, K).

    Reads only the n3 >= 0 half of coeffs, so it assumes the reality
    symmetry c(-n) = conj(c(n)).
    """
    return _half_to_values(coeffs[..., cutoff:], cutoff, resolution)


def _values_to_spectral(values: np.ndarray, cutoff: int, resolution: int,
                        bufs=(None, None, None)) -> np.ndarray:
    """Discrete Fourier analysis of real grid values (..., M, M, M),
    normalized so constants sit in the n=0 slot; the n3 < 0 half is the
    conjugate of the mirrored modes.  The result is a new array."""
    _, analysis, _, analysis3 = _dft_plan(cutoff, resolution)
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(values.reshape(-1, m), analysis3, out=bufs[0])     # x3 -> n3 >= 0
    g = np.matmul(analysis, g.view(complex).reshape(-1, m, m * h),
                  out=bufs[1])                                       # x1 -> n1
    upper = np.matmul(analysis, g.reshape(-1, m, h), out=bufs[2])    # x2 -> n2
    upper = upper.reshape(values.shape[:-3] + (k, k, h))
    lower = np.conj(upper[..., ::-1, ::-1, :0:-1])
    return np.concatenate([lower, upper], axis=-1)


def d_star_1form(a: SpectralConnection) -> SpectralScalar:
    """d*A = -sum_i d_i A_i, mode-wise -i 2 pi n . A(n)."""
    n = mode_grids(a.cutoff)
    c = a.coeffs
    dot = n[0] * c[:, 0] + n[1] * c[:, 1] + n[2] * c[:, 2]
    return SpectralScalar(a.group, a.cutoff, (-1j * TWO_PI) * dot)


def _curl(c: np.ndarray, cutoff: int, out: np.ndarray | None = None) -> np.ndarray:
    """(curl c)_k = i 2 pi (n_i c_j - n_j c_i) over cyclic (i, j, k), for
    coefficient 3-stacks (d, 3, K, K, K): the spatial dual of dA for a
    1-form A, and d*F when c is the spatial dual of a 2-form F.  A stack
    holding only the n3 >= 0 half (d, 3, K, K, N+1) gives that half."""
    n = [axis[..., -c.shape[-1]:] for axis in mode_grids(cutoff)]
    if out is None:
        out = np.empty_like(c)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        out[:, k] = (1j * TWO_PI) * (n[i] * c[:, j] - n[j] * c[:, i])
    return out


def grad_0form(f: SpectralScalar) -> SpectralConnection:
    """(df)_i = d_i f, mode-wise i 2 pi n_i f(n)."""
    n = mode_grids(f.cutoff)
    out = np.stack([(1j * TWO_PI) * n[i] * f.coeffs for i in range(3)], axis=1)
    return SpectralConnection(f.group, f.cutoff, out)


@functools.lru_cache(maxsize=None)
def _bracket_program(group: GroupSpec):
    """The nonzero structure constants as (steps, untouched): each step
    (a, b, targets) over a < b lists its targets (c, f[a, b, c], first),
    where ``first`` marks the first term a component c receives;
    ``untouched`` lists the components no term reaches."""
    f = structure_constants(group)
    d = group.algebra_dim
    seen = set()
    steps = []
    for a in range(d):
        for b in range(a + 1, d):
            targets = tuple((c, float(f[a, b, c]), c not in seen)
                            for c in range(d) if f[a, b, c])
            seen.update(c for c, _, _ in targets)
            if targets:
                steps.append((a, b, targets))
    return tuple(steps), tuple(c for c in range(d) if c not in seen)


def _grid_bracket(x: np.ndarray, y: np.ndarray, group: GroupSpec,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise algebra bracket of coefficient fields x, y (d, ...), which
    broadcast against each other: out^c = sum_{a<b} f[a,b,c] (x^a y^b -
    x^b y^a), summed over the nonzero structure constants only.

    One buffer of d + 2 rows holds the output, its first d rows, and two
    scratch rows: ``out`` when given, else a new one.  A component's first
    term is written, not accumulated, so only components no term reaches
    are zero-filled.
    """
    steps, untouched = _bracket_program(group)
    d = group.algebra_dim
    if out is None:
        out = np.empty((d + 2,) + np.broadcast_shapes(x.shape, y.shape)[1:])
    out, w, tmp = out[:d], out[d], out[d + 1]
    for a, b, targets in steps:
        np.multiply(x[a], y[b], out=w)
        np.multiply(x[b], y[a], out=tmp)
        w -= tmp
        for c, coef, first in targets:
            if first:
                np.multiply(w, coef, out=out[c])
            else:
                np.multiply(w, coef, out=tmp)
                out[c] += tmp
    for c in untouched:
        out[c] = 0.0
    return out


def _cyclic_interior(group: GroupSpec, ab: np.ndarray, terms=None,
                     out=None) -> np.ndarray:
    """[A _| F]_i = [A_j, B_k] + [B_j, A_k] over cyclic (i, j, k), where B is
    the spatial dual of F and ab (d, 2, 5, ...) holds A and B extended by
    their first two components, so the j- and k-components sit at [1:4] and
    [2:5]: the stacks (A_j, B_j) and (B_k, A_k) are views of ab, and one
    bracket forms both terms.  ``terms`` (d + 2, 2, 3, ...) and ``out``
    (d, 3, ...) are optional buffers for the bracket and the sum."""
    terms = _grid_bracket(ab[:, :, 1:4], ab[:, ::-1, 2:5], group, out=terms)
    return np.add(terms[:, 0], terms[:, 1], out=out)


def _action_of(fvals: np.ndarray) -> float:
    """sum_{ij} integral |F_ij|^2 by uniform-grid quadrature; the spatial
    dual holds each unordered pair once, so the full sum over ordered
    (i, j) doubles it."""
    return 2.0 * float(np.mean(np.sum(fvals**2, axis=(0, 1))))


def _sup_of(avals: np.ndarray) -> float:
    """max over grid points of the g^3 Frobenius norm."""
    return float(np.sqrt(np.max(np.sum(avals**2, axis=(0, 1)))))


def ym_action(a: SpectralConnection) -> float:
    """S_YM(A) = sum_{ij} integral |F_{ij}(x)|^2 dx by uniform-grid
    quadrature (exact for the band-limited field strength on the dealiased
    grid), read off the first half of the fused nonlinear pass."""
    return _nonlinear_core(a, False, action_only=True)[1]


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


def ym_rhs(a: SpectralConnection) -> SpectralConnection:
    """Right-hand side of the Yang-Mills heat flow, -(d*F_A + [A _| F_A]),
    truncated back to the input cutoff."""
    lam = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    linear = lam[None, None] * a.coeffs
    nl = _ym_nonlinear(a, diagnostics=False)[0]
    return SpectralConnection(a.group, a.cutoff, linear + nl)


class _Workspace:
    """Every grid array of the nonlinear pass of one (group, cutoff,
    kind) on the dealiased grid, allocated once so that repeated passes
    allocate (and fault in) no grid memory: the half-spectrum input stack
    of A, curl A and, for non-Abelian ZDDS, d*A; the product outputs of
    the inverse transform of that stack and of the forward transforms; the
    ``ab`` stack; the bracket buffers with their scratch rows; and the
    interior sum.

    A flow owns one for all its passes (see flow.integrate); flows that
    may run at the same time must not share one.
    """

    def __init__(self, group: GroupSpec, cutoff: int, deturck: bool):
        d, k, h = group.algebra_dim, 2 * cutoff + 1, cutoff + 1
        m = dealias_resolution(cutoff)
        rows = 7 if deturck and not group.is_abelian else 6
        grid = (m, m, m)
        self.half = np.empty((d, rows, k, k, h), dtype=complex)
        b = d * rows
        self.inverse = (np.empty((b * k, m, h), dtype=complex),
                        np.empty((b, m, m * h), dtype=complex),
                        np.empty((b * m * m, m)))
        if group.is_abelian:
            return
        self.ab = np.empty((d, 2, 5) + grid)
        self.bracket = np.empty((d + 2, 3) + grid)
        self.terms = np.empty((d + 2, 2, 3) + grid)
        self.inner = np.empty((d, 3) + grid)
        b = d * 3
        self.forward = (np.empty((b * m * m, 2 * h)),
                        np.empty((b, k, m * h), dtype=complex),
                        np.empty((b * k, k, h), dtype=complex))


def _nonlinear_core(a: SpectralConnection, deturck: bool,
                    work: _Workspace | None = None, diagnostics: bool = True,
                    action_only: bool = False):
    """Right-hand side minus the Laplacian term, with S_YM(a) and sup|A|
    evaluated on the same dealiased grid (None for both when
    ``diagnostics`` is off).  With ``action_only`` it returns (None,
    S_YM(a), None) as soon as the action is known, before the forward
    transforms and the interior bracket.

    YM (deturck False):  -(1/2) d*[A ^ A] - [A _| F_A] + d d*A
    ZDDS (deturck True): -(1/2) d*[A ^ A] - [A _| F_A] - [A ^ d*A]

    Assembled without the large-term cancellation of the full operators,
    with 2-forms held as their spatial duals B_k = (1/2) eps_ijk F_ij.  One
    inverse transform takes A, curl A (the dual of dA) and d*A to the grid;
    one bracket C_k = [A_i, A_j] over cyclic (i, j, k) gives both the dual
    curl A + C of F_A and the dual of (1/2)[A ^ A]; forward transforms
    bring C, where curl C = (1/2) d*[A ^ A], and the other bracket terms
    back.  For Abelian groups the remainder is linear (zero for ZDDS), so
    only the diagnostics need the grid.  Grid arrays live in ``work``, a
    temporary workspace when none is given.
    """
    group, n = a.group, a.cutoff
    m = dealias_resolution(n)
    if group.is_abelian and not action_only:
        nl = np.zeros_like(a.coeffs) if deturck else grad_0form(d_star_1form(a)).coeffs
        if not diagnostics:
            return nl, None, None
    if work is None:
        work = _Workspace(group, n, deturck)
    half = work.half
    half[:, :3] = a.coeffs[..., n:]
    _curl(half[:, :3], n, out=half[:, 3:6])
    if half.shape[1] == 7:
        half[:, 6] = d_star_1form(a).coeffs[..., n:]
    grids = _half_to_values(half, n, m, work.inverse)
    avals = grids[:, :3]
    sup = _sup_of(avals) if diagnostics and not action_only else None
    if group.is_abelian:
        return (None if action_only else nl), _action_of(grids[:, 3:]), sup
    ab = work.ab
    a5, b5 = ab[:, 0], ab[:, 1]
    a5[:, :3] = avals
    b5[:, :3] = grids[:, 3:6]
    a5[:, 3:] = a5[:, :2]
    half_aa = _grid_bracket(a5[:, 1:4], a5[:, 2:5], group, out=work.bracket)
    b5[:, :3] += half_aa
    action = _action_of(b5[:, :3]) if diagnostics else None
    if action_only:
        return None, action, None
    b5[:, 3:] = b5[:, :2]
    nl = _curl(_values_to_spectral(half_aa, n, m, work.forward), n)
    inner = _cyclic_interior(group, ab, work.terms, work.inner)
    if deturck:
        inner += _grid_bracket(a5[:, :3], grids[:, 6:], group, out=work.bracket)
    nl += _values_to_spectral(inner, n, m, work.forward)
    np.negative(nl, out=nl)
    if not deturck:
        nl += grad_0form(d_star_1form(a)).coeffs
    return nl, action, sup


def _ym_nonlinear(a: SpectralConnection, work: _Workspace | None = None,
                  diagnostics: bool = True):
    """(YM right-hand side minus the Laplacian term, S_YM(a), sup|A|)."""
    return _nonlinear_core(a, False, work, diagnostics)


def _zdds_nonlinear(a: SpectralConnection, work: _Workspace | None = None,
                    diagnostics: bool = True):
    """(ZDDS right-hand side minus the Laplacian term, S_YM(a), sup|A|)."""
    return _nonlinear_core(a, True, work, diagnostics)


def zdds_rhs(a: SpectralConnection, path: str = "operator") -> SpectralConnection:
    """Right-hand side of the DeTurck-modified flow.

    path='operator' assembles -(d*F_A + [A _| F_A]) - (d(d*A) + [A ^ d*A]);
    path='explicit' evaluates the componentwise form
    Lap A_i + sum_j [A_j, 2 d_j A_i - d_i A_j + [A_j, A_i]].  The two are
    algebraically identical and are kept as independent code paths.
    """
    lam = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    if path == "operator":
        return SpectralConnection(
            a.group, a.cutoff, lam[None, None] * a.coeffs
            + _zdds_nonlinear(a, diagnostics=False)[0]
        )
    if path != "explicit":
        raise ValueError(f"unknown zdds path {path!r}")
    lap = lam[None, None] * a.coeffs
    if a.group.is_abelian:
        return SpectralConnection(a.group, a.cutoff, lap)
    n, m = mode_grids(a.cutoff), dealias_resolution(a.cutoff)
    # d_j A_i for all (j, i), spectrally, then sampled on the dealiased grid
    partials = np.empty(a.coeffs.shape[:1] + (3,) + a.coeffs.shape[1:], dtype=complex)
    for j in range(3):
        partials[:, j] = (1j * TWO_PI) * n[j] * a.coeffs
    dgrid = _spectral_to_values(partials, a.cutoff, m)  # (d, j, i, x, y, z)
    agrid = _spectral_to_values(a.coeffs, a.cutoff, m)
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
    return SpectralConnection(a.group, n_out, _values_to_spectral(vals, n_out, m))


# ---------------------------------------------------------------------------
# norms and diagnostics


def l2_norm(a: SpectralConnection) -> float:
    """L^2 norm; by Parseval the root sum of squared coefficient moduli."""
    return float(np.sqrt(np.sum(np.abs(a.coeffs) ** 2)))


def h1_norm(a: SpectralConnection) -> float:
    """Discrete H^1 norm (sum (1 + 4 pi^2 |n|^2) |c(n)|^2)^(1/2)."""
    w = 1.0 + 4.0 * np.pi**2 * mode_norm_sq(a.cutoff)
    return float(np.sqrt(np.sum(w[None, None] * np.abs(a.coeffs) ** 2)))


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
