"""Lie-algebra-valued 1-forms on the unit 3-torus: spectral connections,
the transforms to and from grid values, d*, curl, the fused YM/ZDDS
nonlinear term with the action S_YM and sup|A| read off the same pass,
and norms.

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

The nonlinear pass of the flows (_nonlinear_core) reads and returns that
half, (d, 3, K, K, N+1); the full cube is mirrored (_full_spectrum) only
at the public boundary and for the states a flow records.

Samplers and per-mode U(1) reads use the other half: the canonical half
modes, those whose first nonzero coordinate is positive.  In the C-order
flattened K^3 cube (K = 2N+1) the flat index of n is c + n1 K^2 + n2 K +
n3 with c the centre, so those modes fill the flat indices above the
centre in lexicographic order (_upper_half, the one statement of this
layout: canonical_half_modes, half_norm_sq), and their reflections the
ones below it in reverse (_mirrored).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, structure_constants

__all__ = [
    "SpectralConnection",
    "dealias_resolution",
    "mode_grids",
    "mode_norm_sq",
    "canonical_half_modes",
    "half_norm_sq",
    "heat_weights",
    "heat_rows",
    "zero_connection",
    "ym_action",
    "ym_rhs",
    "zdds_rhs",
    "l2_norm",
    "h1_norm",
    "reality_defect",
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


def heat_rows(norm_sq: np.ndarray, times: tuple) -> np.ndarray:
    """e^(-4 pi^2 |n|^2 t) of the squared mode norms norm_sq, one row per
    time: shape (T,) + norm_sq.shape."""
    lam = -4.0 * np.pi**2 * norm_sq
    return np.exp(lam[None] * np.reshape(times, (-1,) + (1,) * lam.ndim))


def _times(t, what: str = "time") -> tuple:
    """A scalar time or a 1-D sequence of finite nonnegative times, as a
    tuple of floats; ``what`` names them in the error messages."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-D sequence of times")
    # a NaN or infinite time would give NaN weights (inf * 0 at n = 0)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{what} must be finite")
    if np.any(times < 0):
        raise ValueError(f"{what} must be nonnegative")
    return tuple(times.ravel().tolist())


def heat_weights(cutoff: int, times) -> np.ndarray:
    """Heat-kernel multipliers e^(-4 pi^2 |n|^2 t), one (K, K, K) row per
    time: a scalar or a 1-D sequence of times (_times) gives shape
    (T, K, K, K)."""
    return heat_rows(mode_norm_sq(cutoff), _times(times))


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

    def restricted(self, cutoff: int) -> "SpectralConnection":
        """Truncation to a smaller cutoff (exact restriction of modes)."""
        if cutoff > self.cutoff:
            raise ValueError("restriction target exceeds current cutoff")
        lo = self.cutoff - cutoff
        hi = self.cutoff + cutoff + 1
        return SpectralConnection(
            self.group, cutoff, self.coeffs[:, :, lo:hi, lo:hi, lo:hi].copy()
        )


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


@functools.lru_cache(maxsize=None)
def _half_tables(cutoff: int):
    """Read-only (5, K, K, N+1) tables on the half spectrum, rows n1 n2 n3
    n1 n2 so that cyclic index pairs are slices: the modes as complex
    numbers n_i + 0j, and the derivative multipliers (i 2 pi) n_i."""
    n = np.stack([mode_grids(cutoff)[i % 3] for i in range(5)])[..., cutoff:]
    tables = (n.astype(complex), (1j * TWO_PI) * n)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _full_spectrum(half: np.ndarray) -> np.ndarray:
    """The full cube (..., K, K, K) of a half spectrum (..., K, K, N+1) of
    real fields: the n3 < 0 half is the conjugate of the mirrored modes."""
    return np.concatenate([np.conj(half[..., ::-1, ::-1, :0:-1]), half], axis=-1)


# The grid transforms below are pruned DFTs applied as matrix products:
# only the retained modes and the half spectrum n3 >= 0 enter, and each
# axis is one (batched) BLAS product.  The n2 axis sits between the other
# two, so its product is batched over (lead, n1); it runs while that batch
# is K rows, not M, long.  Each product writes into the matching buffer of
# ``bufs`` when one is given (see _Workspace), else into a new array.


def _half_to_rows(half: np.ndarray, cutoff: int, resolution: int,
                  bufs=(None, None)) -> np.ndarray:
    """The first two stages of the synthesis of the n3 >= 0 half spectrum
    (..., K, K, N+1): rows (x1, x2) of the interleaved [Re, Im] n3 modes,
    (prod(...) M^2, 2(N+1)), which the matrix synth3 takes to x3."""
    synth = _dft_plan(cutoff, resolution)[0]
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(synth, half.reshape(-1, k, h), out=bufs[0])        # n2 -> x2
    g = np.matmul(synth, g.reshape(-1, k, m * h), out=bufs[1])       # n1 -> x1
    return g.view(float).reshape(-1, 2 * h)


def _spectral_to_values(coeffs: np.ndarray, cutoff: int, resolution: int) -> np.ndarray:
    """sum_n c(n) e^(i 2 pi n.x) on the M^3 grid, for coeffs (..., K, K, K).

    Reads only the n3 >= 0 half of coeffs, so it assumes the reality
    symmetry c(-n) = conj(c(n)).
    """
    synth3, m = _dft_plan(cutoff, resolution)[2], resolution
    values = _half_to_rows(coeffs[..., cutoff:], cutoff, resolution) @ synth3  # n3 -> x3
    return values.reshape(coeffs.shape[:-3] + (m, m, m))


def _values_to_spectral(values: np.ndarray, cutoff: int, resolution: int,
                        bufs=(None, None, None)) -> np.ndarray:
    """Discrete Fourier analysis of real grid values (..., M, M, M),
    normalized so constants sit in the n=0 slot: the n3 >= 0 half
    (..., K, K, N+1).  Axes before the last five batch the first product,
    so a strided stack of (d, 3) fields needs no copy."""
    _, analysis, _, analysis3 = _dft_plan(cutoff, resolution)
    k, h, m = 2 * cutoff + 1, cutoff + 1, resolution
    g = np.matmul(values.reshape(values.shape[:-5] + (-1, m)), analysis3,
                  out=bufs[0])                                       # x3 -> n3 >= 0
    g = np.matmul(analysis, g.view(complex).reshape(-1, m, m * h),
                  out=bufs[1])                                       # x1 -> n1
    upper = np.matmul(analysis, g.reshape(-1, m, h), out=bufs[2])    # x2 -> n2
    return upper.reshape(values.shape[:-3] + (k, k, h))


# The spectral operators below act on half-spectrum stacks (d, 3 or 1, K,
# K, N+1) by a few stacked ufunc calls against the _half_tables rows.


def _curl(c: np.ndarray, cutoff: int, out=None, ext=None) -> np.ndarray:
    """(curl c)_k = i 2 pi (n_i c_j - n_j c_i) over cyclic (i, j, k): the
    spatial dual of dA for a 1-form A, and d*F when c is the spatial dual
    of a 2-form F.  ``ext`` (d, 5, ...) takes c wrap-extended (0 1 2 0 1)."""
    modes = _half_tables(cutoff)[0]
    ext = np.take(c, range(5), axis=1, out=ext, mode="wrap")
    out = np.multiply(modes[1:4], ext[:, 2:5], out=out)              # n_i c_j
    np.multiply(modes[2:5], ext[:, 1:4], out=ext[:, 1:4])            # n_j c_i
    np.subtract(out, ext[:, 1:4], out=out)
    return np.multiply(1j * TWO_PI, out, out=out)


def _d_star(c: np.ndarray, cutoff: int, out=None, prod=None) -> np.ndarray:
    """d*c = -i 2 pi ((n1 c1 + n2 c2) + n3 c3); ``prod`` takes n_i c_i."""
    p = np.multiply(_half_tables(cutoff)[0][:3], c, out=prod)
    out = np.add(p[:, 0], p[:, 1], out=out)
    np.add(out, p[:, 2], out=out)
    return np.multiply(-1j * TWO_PI, out, out=out)


def _grad(f: np.ndarray, cutoff: int, out=None) -> np.ndarray:
    """(df)_i = i 2 pi n_i f(n), (d, 3, K, K, N+1)."""
    return np.multiply(_half_tables(cutoff)[1][:3], f[:, None], out=out)


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
    work = _Workspace(a.group, a.cutoff, False)
    return _nonlinear_core(a.coeffs[..., a.cutoff:], work, action_only=True)[1]


def _upper_half(cutoff: int) -> slice:
    """The flat C-order indices of the canonical half modes of cutoff:
    those above the cube's centre (K^3 - 1)/2, K = 2N+1."""
    return slice(((2 * cutoff + 1) ** 3 + 1) // 2, None)


@functools.lru_cache(maxsize=None)
def canonical_half_modes(cutoff: int) -> np.ndarray:
    """All n with 0 < |n|_inf <= cutoff whose first nonzero coordinate is
    positive, in lexicographic order; int array (H, 3), read-only.  These
    are the modes at the flat indices above the cube's centre, so the table
    is the upper half of the mode grids, stored direction-major (each
    component one contiguous column; its transpose is (3, H) C-order)."""
    # a copy of the half alone: a view would keep the whole grid alive
    out = np.stack(mode_grids(cutoff)).reshape(3, -1)[:, _upper_half(cutoff)].copy().T
    out.setflags(write=False)
    return out


def half_norm_sq(cutoff: int) -> np.ndarray:
    """|n|^2 (H,) of canonical_half_modes(cutoff): mode_norm_sq at the flat
    indices above the centre, a read-only view."""
    return mode_norm_sq(cutoff).reshape(-1)[_upper_half(cutoff)]


def _mirrored(upper: np.ndarray, centre=0.0) -> np.ndarray:
    """Flat values (..., 2H + 1), C-contiguous and of upper's type, of the
    modes whose upper half carries upper (..., H), a lexicographic list of
    canonical half modes: the conjugates of upper reversed (the reflected
    modes -n), centre for the zero mode, then upper.  On every half mode of
    a cutoff this is the flattened cube, and on a sub-list the cube's
    entries at those modes and their reflections, in flat order; a real
    upper (a per-mode term even under n -> -n) is reflected as it is."""
    h = upper.shape[-1]
    flat = np.empty(upper.shape[:-1] + (2 * h + 1,), dtype=upper.dtype)
    flat[..., h + 1:] = upper
    flat[..., h] = centre
    np.conjugate(flat[..., :h:-1], out=flat[..., :h])
    return flat


def _u1_actions(c: np.ndarray, cutoff: int) -> np.ndarray:
    """The closed-form U(1) action 8 pi^2 sum_n (|n|^2 |A(n)|^2 - |n.A(n)|^2)
    of every U(1) coefficient cube in c (..., 3, K, K, K), in one pass:
    shape (...).  Only the canonical half modes are read
    (canonical_half_modes); their terms are mirrored into flat cube order
    with a zero at n = 0, which is the full cube's sum bit for bit for a
    reflection-symmetric field."""
    k = 2 * cutoff + 1
    upper = c.reshape(c.shape[:-3] + (-1,))[..., _upper_half(cutoff)]
    terms = _mirrored(_u1_action_terms(upper, cutoff))
    return _u1_action_sums(terms.reshape(terms.shape[:-1] + (k, k, k)))


def _u1_action_terms(c: np.ndarray, cutoff: int) -> np.ndarray:
    """The per-mode terms of the U(1) action of coefficients c (..., 3, H)
    at the canonical half modes of cutoff, stacked (2, ..., H):
    |n|^2 sum_j |c_j|^2, then |n.c|^2, with temporaries reused in place.
    Each term is formed from its own mode alone and is even under n -> -n,
    c -> conj(c)."""
    n = canonical_half_modes(cutoff).T
    c0, c1, c2 = np.moveaxis(c, -2, 0)
    dot = n[0] * c0
    dot += n[1] * c1
    dot += n[2] * c2
    terms = np.empty((2,) + dot.shape)
    sq = np.abs(c)
    np.square(sq, out=sq)
    np.sum(sq, axis=-2, out=terms[0])
    terms[0] *= half_norm_sq(cutoff)
    np.abs(dot, out=terms[1])
    np.square(terms[1], out=terms[1])
    return terms


def _u1_action_sums(terms: np.ndarray) -> np.ndarray:
    """8 pi^2 times the difference of the cube sums of the stacked action
    terms (2, ..., K, K, K), C-contiguous: the summation order is the flat
    cube's."""
    sums = np.sum(terms, axis=(-3, -2, -1))
    return 8.0 * np.pi**2 * (sums[0] - sums[1])


def ym_rhs(a: SpectralConnection) -> SpectralConnection:
    """Right-hand side of the Yang-Mills heat flow, -(d*F_A + [A _| F_A]),
    truncated back to the input cutoff."""
    return _operator_rhs(a, False)


def _operator_rhs(a: SpectralConnection, deturck: bool) -> SpectralConnection:
    """The Laplacian term plus the nonlinear pass, on the full cube."""
    work = _Workspace(a.group, a.cutoff, deturck)
    nl = _nonlinear_core(a.coeffs[..., a.cutoff:], work, False)[0]
    lap = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)[None, None] * a.coeffs
    return SpectralConnection(a.group, a.cutoff, lap + _full_spectrum(nl))


class _Workspace:
    """Every array of the nonlinear pass of one (group, cutoff, deturck),
    allocated once so that repeated passes allocate (and fault in) no grid
    memory: the half-spectrum stack [A, curl A per component; d*A], of
    which ``stack`` goes to the grid (d*A for non-Abelian ZDDS only); the
    product outputs; ``ab``, which the last inverse product fills with A
    and curl A; the d*A grid; ``cb``, whose halves take C and [A _| F]
    (with two scratch rows each) for one forward transform.

    A flow owns one for all its passes (see flow.integrate); flows that
    may run at the same time must not share one.
    """

    def __init__(self, group: GroupSpec, cutoff: int, deturck: bool):
        d, k, h, m = group.algebra_dim, 2 * cutoff + 1, cutoff + 1, dealias_resolution(cutoff)
        self.group, self.cutoff, self.deturck = group, cutoff, deturck
        dual_rows = deturck and not group.is_abelian
        stack = np.empty((7 * d, k, k, h), dtype=complex)
        self.stack = stack if dual_rows else stack[:6 * d]
        self.half, self.dstar = stack[:6 * d].reshape(d, 6, k, k, h), stack[6 * d:]
        self.ext = np.empty((d, 5, k, k, h), dtype=complex)
        b, grid = len(self.stack), (m, m, m)
        self.inverse = (np.empty((b * k, m, h), dtype=complex),
                        np.empty((b, m, m * h), dtype=complex))
        self.ab = np.empty((d, 2, 3 if group.is_abelian else 5) + grid)
        self.dstar_grid = np.empty((d, 1) + grid) if dual_rows else None
        if group.is_abelian:
            return
        self.cb = np.empty((2, d + 2, 3) + grid)
        self.terms = np.empty((d + 2, 2, 3) + grid)
        self.forward = (np.empty((2, 3 * d * m * m, 2 * h)),
                        np.empty((6 * d, k, m * h), dtype=complex),
                        np.empty((6 * d * k, k, h), dtype=complex))


def _nonlinear_core(u: np.ndarray, work: _Workspace, diagnostics: bool = True,
                    action_only: bool = False):
    """Right-hand side minus the Laplacian term on the half spectrum: u
    and the result are (d, 3, K, K, N+1) n3 >= 0 halves of real fields,
    of the group and cutoff of ``work``, whose ``deturck`` picks the flow.
    S_YM and sup|A| are evaluated on the same dealiased grid (None for
    both when ``diagnostics`` is off).  With ``action_only`` it returns
    (None, S_YM, None) as soon as the action is known, before the forward
    transform and the interior bracket.

    YM (deturck False):  -(1/2) d*[A ^ A] - [A _| F_A] + d d*A
    ZDDS (deturck True): -(1/2) d*[A ^ A] - [A _| F_A] - [A ^ d*A]

    Assembled without the large-term cancellation of the full operators,
    with 2-forms held as their spatial duals B_k = (1/2) eps_ijk F_ij.  One
    inverse transform takes A, curl A (the dual of dA) and d*A to the grid;
    one bracket C_k = [A_i, A_j] over cyclic (i, j, k) gives both the dual
    curl A + C of F_A and the dual of (1/2)[A ^ A]; one forward transform
    brings C, where curl C = (1/2) d*[A ^ A], and the other bracket terms
    back.  For Abelian groups the remainder is linear (zero for ZDDS), so
    only the diagnostics need the grid.
    """
    group, n, deturck = work.group, work.cutoff, work.deturck
    d, m = group.algebra_dim, dealias_resolution(n)
    dstar = _d_star(u, n, out=work.dstar, prod=work.ext[:, :3])
    if group.is_abelian and not action_only:
        nl = np.zeros_like(u) if deturck else _grad(dstar, n)
        if not diagnostics:
            return nl, None, None
    work.half[:, :3] = u
    _curl(u, n, out=work.half[:, 3:], ext=work.ext)
    rows = _half_to_rows(work.stack, n, m, work.inverse)
    synth3, split = _dft_plan(n, m)[2], 6 * d * m * m
    # n3 -> x3: A and curl A straight into ab; then the d*A rows, if any
    ab = work.ab
    np.matmul(rows[:split].reshape(d, 2, 3 * m * m, -1), synth3,
              out=ab.reshape(d, 2, -1, m)[:, :, :3 * m * m])
    if len(rows) > split:
        np.matmul(rows[split:], synth3, out=work.dstar_grid.reshape(-1, m))
    a5, b5 = ab[:, 0], ab[:, 1]
    sup = _sup_of(a5[:, :3]) if diagnostics and not action_only else None
    if group.is_abelian:
        return (None if action_only else nl), _action_of(b5[:, :3]), sup
    a5[:, 3:] = a5[:, :2]
    half_aa = _grid_bracket(a5[:, 1:4], a5[:, 2:5], group, out=work.cb[0])
    b5[:, :3] += half_aa
    action = _action_of(b5[:, :3]) if diagnostics else None
    if action_only:
        return None, action, None
    b5[:, 3:] = b5[:, :2]
    inner = _cyclic_interior(group, ab, work.terms, work.cb[1, :d])
    if deturck:
        inner += _grid_bracket(a5[:, :3], work.dstar_grid, group, out=work.terms[:, 0])
    spec = _values_to_spectral(work.cb[:, :d], n, m, work.forward)   # (2, d, 3, ...)
    nl = _curl(spec[0], n, ext=work.ext)
    nl += spec[1]
    np.negative(nl, out=nl)
    if not deturck:
        nl += _grad(dstar, n, out=work.ext[:, :3])
    return nl, action, sup


def zdds_rhs(a: SpectralConnection, path: str = "operator") -> SpectralConnection:
    """Right-hand side of the DeTurck-modified flow.

    path='operator' assembles -(d*F_A + [A _| F_A]) - (d(d*A) + [A ^ d*A]);
    path='explicit' evaluates the componentwise form
    Lap A_i + sum_j [A_j, 2 d_j A_i - d_i A_j + [A_j, A_i]].  The two are
    algebraically identical and are kept as independent code paths.
    """
    if path == "operator":
        return _operator_rhs(a, True)
    if path != "explicit":
        raise ValueError(f"unknown zdds path {path!r}")
    lap = -4.0 * np.pi**2 * mode_norm_sq(a.cutoff)[None, None] * a.coeffs
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
        a.group, a.cutoff, lap + _full_spectrum(_values_to_spectral(out, a.cutoff, m))
    )


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
