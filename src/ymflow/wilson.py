"""Loops, holonomies, characters, and regularized Wilson loop observables.

Loops are closed piecewise-linear paths given by their lift to R^3: the
vertex list may end one integer vector away from where it started, and
that winding vector is part of the loop data.  Parametrization is
arc-proportional over [0, 1].  A loop is a value: two loops with the same
vertex bytes, winding and name compare and hash equal, so loops parsed
twice from one file are equal and key the same cached tables.

Holonomies solve h'(t) = h(t) A(l(t)).l'(t), h(0) = id with a third-order
Runge-Kutta-Munthe-Kaas scheme: each substep advances by the group
exponential of a stage-combined algebra element, so the result stays in
the group by construction and only rounding-level drift needs repair.
The connection is evaluated along the loop by truncated Fourier summation
(exact off-grid evaluation, no interpolation error); the phase
e^(i 2 pi n.x) factorizes over the axes, so each point costs 3K
exponentials rather than K^3 and the three mode axes are contracted in
turn.  A sweep (wilson_values) takes one holonomy per time and loop,
which every character reads.

For U(1) fields the regularized Wilson loop has a closed form: the
character applied to exp of a mode sum weighted by e^(-4 pi^2 |n|^2 t),
with per-segment line integrals of the Fourier basis known exactly: a
segment p -> q with delta = q - p and midpoint m contributes
delta e^(i 2 pi n.m) sinc(n.delta) at mode n.  The phase does not depend
on the character and the weights do not depend on the field, so one
per-mode product serves every observation time and every character
(Character.u1_value of one phase, _u1_powers of many).  The sum runs over
the modes visible at the earliest time, those whose weight there is at
least e^(-NEGLIGIBLE_HEAT) < 2^-60 (visible_modes).  Every exact read
takes one path: it gathers the field at the canonical half modes among
those (first nonzero coordinate positive; _visible_half), forms the
product with the loop table there (_mode_product), mirrors it into flat
cube order (fields._mirrored; the product at -n is the conjugate of the
one at n) and contracts it with the heat weights (_phase_sums).  The one
loop table is _half_table, cached per (loop, cutoff, t_min) and built at
the centre and those half modes only, so no dense table of a large cutoff
is built.  h_series reads a field this way, putting its constant mode's
product at the centre; an ensemble stream forms one product per loop at
its draw's visible half modes and contracts each member's and the
reference's own modes of it (ensemble module docstring).  Those exact
values, which u1_values keys like a sweep's, are the oracle the ODE
pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (SpectralConnection, _grid_bracket, _mirrored, _times, heat_rows,
                     mode_norm_sq)
from .groups import GroupSpec, exp_map, standard_basis, unitarize, unitarity_defect

__all__ = [
    "Loop",
    "LoopFileError",
    "make_loop",
    "rectangle_loop",
    "parse_loop_file",
    "Character",
    "FieldEvaluator",
    "holonomy",
    "wilson_loop",
    "wilson_values",
    "h_series",
    "u1_values",
    "visible_modes",
    "NEGLIGIBLE_HEAT",
]

TWO_PI = 2.0 * np.pi
# unitarity defect above which a holonomy is re-unitarized
REPAIR_THRESHOLD = 1e-9
# holonomy substeps per loop unless a caller gives its own ([loops] steps)
WILSON_STEPS = 128


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed piecewise-linear path on the torus, stored through its lift.
    Loops compare and hash by value: vertex bytes, winding and name."""

    vertices: np.ndarray        # (V, 3) float, lift coordinates
    winding: np.ndarray         # (3,) int
    name: str = "loop"

    def _key(self) -> tuple:
        return self.vertices.tobytes(), self.winding.tobytes(), self.name

    def __eq__(self, other):
        return isinstance(other, Loop) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def segments(self) -> np.ndarray:
        return self.vertices[1:] - self.vertices[:-1]

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.segments, axis=1)

    def parameter_breaks(self) -> np.ndarray:
        """Arc-proportional parameter values of the vertices in [0, 1]."""
        lengths = self.segment_lengths
        cums = np.concatenate([[0.0], np.cumsum(lengths)])
        return cums / cums[-1]


class LoopFileError(Exception):
    pass


def make_loop(vertices, winding=None, name: str = "loop") -> Loop:
    """Validated loop from lift vertices.

    The last vertex must sit an integer vector away from the first; that
    vector is the winding and may be supplied for cross-checking.
    Non-finite coordinates and zero-length segments are rejected.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 2:
        raise ValueError("need at least two 3D vertices")
    if not np.all(np.isfinite(verts)):
        raise ValueError("vertex coordinates must be finite")
    closure = verts[-1] - verts[0]
    rounded = np.round(closure).astype(int)
    if np.max(np.abs(closure - rounded)) > 1e-9:
        raise ValueError(
            f"path endpoints differ by {closure}, not an integer vector: "
            "the projection to the torus is not closed"
        )
    if winding is not None and np.any(np.asarray(winding, dtype=int) != rounded):
        raise ValueError(f"declared winding {winding} != endpoint gap {rounded}")
    seg_len = np.linalg.norm(verts[1:] - verts[:-1], axis=1)
    if np.any(seg_len <= 0):
        raise ValueError("zero-length segment")
    verts = verts.copy()
    verts.setflags(write=False)
    w = rounded.copy()
    w.setflags(write=False)
    return Loop(verts, w, name)


def rectangle_loop(origin, side_i: int, side_j: int, size_i: float, size_j: float,
                   name=None) -> Loop:
    """Axis-aligned rectangle in the (side_i, side_j) plane."""
    p0 = np.asarray(origin, dtype=float)
    p1 = p0.copy(); p1[side_i] += size_i
    p2 = p1.copy(); p2[side_j] += size_j
    p3 = p0.copy(); p3[side_j] += size_j
    return make_loop([p0, p1, p2, p3, p0],
                     name=name or f"rect{size_i}x{size_j}")


# ---------------------------------------------------------------------------
# loop definition files


def parse_loop_file(text: str) -> list[Loop]:
    """Plain-text loop list.

    Grammar (one directive per line, '#' comments):
        loop NAME
        vertex X Y Z
        winding M1 M2 M3      (optional, at most one per loop, cross-checked)
    Loop names are unique.  Raises LoopFileError with the offending line
    number.
    """
    loops = []
    first_line: dict = {}                # loop name -> line of its 'loop'
    name = None
    verts: list = []
    winding = winding_line = None

    def flush(line_no):
        nonlocal name, verts, winding, winding_line
        if name is None:
            return
        if len(verts) < 2:
            raise LoopFileError(f"line {first_line[name]}: loop {name!r} has "
                                "fewer than 2 vertices")
        try:
            loops.append(make_loop(np.asarray(verts), winding, name=name))
        except ValueError as exc:
            raise LoopFileError(f"line {line_no}: loop {name!r}: {exc}") from exc
        name, verts, winding, winding_line = None, [], None, None

    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
        if kw == "loop":
            flush(i)
            if len(parts) != 2:
                raise LoopFileError(f"line {i}: 'loop' needs exactly one name")
            name = parts[1]
            if name in first_line:
                raise LoopFileError(f"line {i}: loop {name!r} already defined "
                                    f"on line {first_line[name]}")
            first_line[name] = i
        elif kw == "vertex":
            if name is None:
                raise LoopFileError(f"line {i}: 'vertex' before any 'loop'")
            if len(parts) != 4:
                raise LoopFileError(f"line {i}: 'vertex' needs three coordinates")
            try:
                coords = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise LoopFileError(f"line {i}: bad coordinate: {exc}") from exc
            if not np.all(np.isfinite(coords)):
                raise LoopFileError(f"line {i}: vertex coordinates must be finite")
            verts.append(coords)
        elif kw == "winding":
            if name is None:
                raise LoopFileError(f"line {i}: 'winding' before any 'loop'")
            if len(parts) != 4:
                raise LoopFileError(f"line {i}: 'winding' needs three integers")
            if winding_line is not None:
                raise LoopFileError(f"line {i}: loop {name!r} already has a winding "
                                    f"on line {winding_line}")
            winding_line = i
            try:
                winding = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise LoopFileError(f"line {i}: bad winding: {exc}") from exc
        else:
            raise LoopFileError(f"line {i}: unknown directive {parts[0]!r}")
    flush(len(text.splitlines()))
    if not loops:
        raise LoopFileError("no loops defined")
    return loops


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class Character:
    """Conjugation-invariant trace function on the group."""

    group: GroupSpec
    kind: str                  # 'fundamental' | 'conjugate' | 'u1_power'
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("fundamental", "conjugate", "u1_power"):
            raise ValueError(f"unknown character kind {self.kind!r}")
        if self.kind == "u1_power" and self.group.kind != "u1":
            raise ValueError(f"u1:k characters need group u1, got {self.group.label()}")

    def __call__(self, h: np.ndarray) -> complex:
        h = np.asarray(h)
        if self.kind == "u1_power":
            return complex(h[0, 0] ** self.power)
        tr = complex(np.trace(h))
        return np.conj(tr) if self.kind == "conjugate" else tr

    def u1_exponent(self) -> int:
        """The integer k with chi(e^(i theta)) = e^(i k theta)."""
        if self.group.kind != "u1":
            raise ValueError("U(1) characters only")
        if self.kind == "u1_power":
            return self.power
        return -1 if self.kind == "conjugate" else 1

    def u1_value(self, phase: float) -> complex:
        """chi(e^(i phase)) = e^(i k phase) on U(1) (_u1_powers)."""
        return complex(_u1_powers(self.u1_exponent(), phase))

    def label(self) -> str:
        if self.kind == "u1_power":
            return f"u1:{self.power}"
        return self.kind


def _u1_powers(exponents, phases) -> np.ndarray:
    """e^(i k phase) for each exponent k of exponents (an int, or a
    sequence along the leading axis) and each of phases (a float or an
    array): shape np.shape(exponents) + np.shape(phases), in one exp."""
    k = np.asarray(exponents, dtype=float)
    p = np.asarray(phases, dtype=float)
    return np.exp(1j * (k.reshape(k.shape + (1,) * p.ndim) * p))


# ---------------------------------------------------------------------------
# loop Fourier coefficients (exact per-segment line integrals)


@lru_cache(maxsize=256)
def _half_table(loop: Loop, cutoff: int, t_min: float) -> np.ndarray:
    """The loop table (3, 1 + V) at the centre n = 0 and then the canonical
    half modes of cutoff visible at t_min (_visible_half).  Read-only and
    cached on (loop, cutoff, t_min), it is the one loop table of the exact
    reads: h_series and ensemble streams reuse it heavily, and no dense
    table of the cutoff is built."""
    table = _loop_table(loop, cutoff, _visible_half(cutoff, t_min))
    table.setflags(write=False)
    return table


def _loop_table(loop: Loop, cutoff: int, index) -> np.ndarray:
    """c_n = integral_0^1 e^(i 2 pi n.l(s)) l'(s) ds at the modes ``index``
    (flat C-order indices into the K^3 cube, or a slice of them), shape
    (3, M), direction first like the coefficient arrays of a connection;
    built afresh.

    A straight segment p -> q with delta = q - p and midpoint
    m = p + delta/2 contributes
        delta e^(i 2 pi n.m) sinc(n.delta),   sinc(x) = sin(pi x)/(pi x),
    in closed form, so there is no quadrature error and no special case
    where n.delta vanishes.  The phase factorizes over the axes (3K
    exponentials per segment).  Each entry is formed from its own mode
    alone, so c_(-n) = conj(c_n) holds exactly, and the table at a list
    of modes is the gathered dense one, whose central slice is a smaller
    cutoff's table.
    """
    axis = np.arange(-cutoff, cutoff + 1)
    k = len(axis)
    at = np.unravel_index(np.arange(k**3)[index], (k, k, k))
    n_axes = [axis[a] for a in at]
    out = np.zeros((3, len(at[0])), dtype=complex)
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        delta = q - p
        # phases[j, n] = e^(i 2 pi n m_j)
        phases = np.exp((1j * TWO_PI) * ((p + 0.5 * delta)[:, None] * axis))
        term = phases[0][at[0]] * phases[1][at[1]] * phases[2][at[2]]
        moving = np.flatnonzero(delta)
        term *= np.sinc(sum(delta[j] * n_axes[j] for j in moving))
        for j in moving:
            out[j] += delta[j] * term
    return out


# ---------------------------------------------------------------------------
# field evaluation along loops


# a batch of points in _fourier_values holds at most this many K^3 blocks
FIELD_EVAL_CHUNK = 512


def _fourier_values(coeffs: np.ndarray, cutoff: int,
                    points: np.ndarray) -> np.ndarray:
    """Re sum_n c(n) e^(i 2 pi n.x) at each point, exactly and separably:
    coeffs (..., K, K, K), points (P, 3) -> (..., P).

    The phase factorizes over the axes, so each point needs 3K
    exponentials e^(i 2 pi n_k x_k) instead of K^3; n3, n2 and n1 are then
    contracted in turn.  Points go in fixed chunks, sized so that no
    intermediate exceeds FIELD_EVAL_CHUNK x K^3 complex entries.
    """
    axis = np.arange(-cutoff, cutoff + 1)
    k = len(axis)
    lead = coeffs.shape[:-3]
    flat = coeffs.reshape(-1, k, k, k)
    rows = flat.shape[0]
    step = max(1, FIELD_EVAL_CHUNK * k // rows)
    out = np.empty((rows, len(points)))
    for lo in range(0, len(points), step):
        x = points[lo:lo + step]
        # phases[k, n, p] = e^(i 2 pi n x_k) of point p
        phases = np.exp((1j * TWO_PI) * (x.T[:, None, :] * axis[:, None]))
        part = (flat.reshape(-1, k) @ phases[2]).reshape(rows * k, k, -1)
        part = np.einsum("abp,bp->ap", part, phases[1]).reshape(rows, k, -1)
        out[:, lo:lo + step] = np.einsum("abp,bp->ap", part, phases[0]).real
    return out.reshape(lead + (len(points),))


class FieldEvaluator:
    """Exact off-grid evaluation of a band-limited connection.

    Returns algebra-basis coefficients; points are (P, 3) lift coordinates
    (only their fractional parts matter).
    """

    def __init__(self, a: SpectralConnection):
        self.connection = a
        self.group = a.group

    def coefficients_at(self, points: np.ndarray) -> np.ndarray:
        """(d_g, 3, P) real array of component values."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.connection
        return _fourier_values(a.coeffs, a.cutoff, points)


def _substep_allocation(loop: Loop, steps: int) -> list[int]:
    """Substeps per segment, proportional to arc length, at least 8."""
    lengths = loop.segment_lengths
    total = lengths.sum()
    return [max(8, int(np.ceil(steps * (l / total)))) for l in lengths]


def holonomy(evaluator: FieldEvaluator | SpectralConnection, loop: Loop,
             steps: int = WILSON_STEPS) -> np.ndarray:
    """Group element transporting around the loop.

    Per substep of width dl the scheme exponentiates the RKMK3 stage
    combination u = (dl/6)(k1 + 4 k2 + k3) with
        k1 = w(t),  k2 = w(t + dl/2) + (dl/4) [k1, w(t + dl/2)],
        k3 = w(t + dl) + (dl/2) [2 k2 - k1, w(t + dl)],
    where w(t) = A(l(t)).l'(t).  All stage elements are precomputed in
    one batched field evaluation; the group product is then accumulated
    and re-unitarized only if the defect exceeds REPAIR_THRESHOLD.
    """
    if isinstance(evaluator, SpectralConnection):
        evaluator = FieldEvaluator(evaluator)
    group = evaluator.group
    basis = standard_basis(group)

    breaks = loop.parameter_breaks()
    nsubs = _substep_allocation(loop, steps)

    # gather every stage point of every segment into one evaluation batch
    pts = []
    seg_meta = []
    for s, (p, nsub) in enumerate(zip(loop.vertices[:-1], nsubs)):
        delta = loop.segments[s]
        grid = np.arange(2 * nsub + 1) / (2.0 * nsub)     # 0, 1/2nsub, ..., 1
        pts.append(p[None, :] + grid[:, None] * delta[None, :])
        seg_meta.append((len(grid), delta, breaks[s + 1] - breaks[s]))
    points = np.concatenate(pts, axis=0)
    coeff_vals = evaluator.coefficients_at(points)        # (d, 3, P)

    us = []
    offset = 0
    for (count, delta, dt_seg), nsub in zip(seg_meta, nsubs):
        vals = coeff_vals[:, :, offset:offset + count]
        offset += count
        speed = delta / dt_seg
        omega = np.tensordot(speed, vals, axes=([0], [1]))  # (d, P) -> w^a
        dl = dt_seg / nsub
        k1 = omega[:, 0:-1:2]   # w at the start of each substep
        wh = omega[:, 1::2]     # midpoint
        w1 = omega[:, 2::2]     # end
        if group.is_abelian:
            k2, k3 = wh, w1
        else:
            k2 = wh + (dl / 4.0) * _grid_bracket(k1, wh, group)
            k3 = w1 + (dl / 2.0) * _grid_bracket(2.0 * k2 - k1, w1, group)
        u = (dl / 6.0) * (k1 + 4.0 * k2 + k3)
        us.append(u)
    u_all = np.concatenate(us, axis=1)
    mats = np.einsum("ap,aij->pij", u_all, basis)
    exps = exp_map(mats)
    h = np.eye(group.matrix_dim, dtype=complex)
    for e in exps:
        h = h @ e
    if unitarity_defect(h) > REPAIR_THRESHOLD:
        h = unitarize(h, group)
    return h


def wilson_loop(evaluator, loop: Loop, characters, steps: int = WILSON_STEPS):
    """chi(holonomy); magnitude never exceeds chi(id) for unitary
    representations.

    Broadcasts over characters: one Character gives a complex value, a
    sequence of them a tuple of values, all read off one holonomy.
    """
    h = holonomy(evaluator, loop, steps)
    if isinstance(characters, Character):
        return characters(h)
    return tuple(ch(h) for ch in characters)


def wilson_values(states, loops, characters, steps: int = WILSON_STEPS) -> dict:
    """Wilson values keyed (loop, character, t) of the connections
    states {t: connection}: one holonomy per time and loop, which every
    character reads, keys in time, loop, character order."""
    values = {}
    for t, state in states.items():
        for lp in loops:
            h = holonomy(state, lp, steps)
            for ch in characters:
                values[(lp.name, ch.label(), t)] = ch(h)
    return values


# heat weights below e^(-NEGLIGIBLE_HEAT) < 2^-60 are negligible: modes
# whose weight at every observation time is below it are left out
NEGLIGIBLE_HEAT = 41.6


@lru_cache(maxsize=32)
def visible_modes(cutoff: int, t_min: float) -> np.ndarray:
    """Flat C-order indices into the K^3 mode cube of the modes n with
    4 pi^2 |n|^2 t_min <= NEGLIGIBLE_HEAT, the ones a heat flow read at
    times t >= t_min can see (every mode at t_min <= 0), read-only.  The
    set is symmetric under n -> -n and holds n = 0, which therefore sits
    in the middle (_visible_half reads the half from there on)."""
    heat = (4.0 * np.pi**2 * mode_norm_sq(cutoff)) * t_min
    out = np.flatnonzero(heat <= NEGLIGIBLE_HEAT)
    out.setflags(write=False)
    return out


def _visible_half(cutoff: int, t_min: float) -> np.ndarray:
    """Flat indices (1 + V,) of the centre and then the canonical half modes
    of cutoff visible at t_min: visible_modes from its middle on, a view.
    The one place exact reads locate the visible half in flat order."""
    index = visible_modes(cutoff, t_min)
    return index[len(index) // 2:]


@lru_cache(maxsize=32)
def _visible_weights(cutoff: int, times: tuple) -> np.ndarray:
    """The heat weights (T, M) at visible_modes(cutoff, min(times)), formed
    there alone: the full (T, K^3) table of a large cutoff is not kept."""
    index = visible_modes(cutoff, min(times, default=0.0))
    out = heat_rows(mode_norm_sq(cutoff).reshape(-1)[index], times)
    out.setflags(write=False)
    return out


def _mode_product(coeffs: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """The per-mode product A_n . c_n (M,) of coefficients and a loop table,
    both (3, M), written to out when given.  Each entry is formed from its
    own mode alone, so at -n it is the conjugate of the entry at n."""
    per_mode = np.multiply(coeffs[0], table[0], out=out)
    per_mode += coeffs[1] * table[1]
    per_mode += coeffs[2] * table[2]
    return per_mode


def _phase_sums(per_mode: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The phases (..., T) of C-contiguous per-mode products per_mode
    (..., M) at visible_modes(cutoff, t_min), in flat order (as _mirrored
    lays them out), from that cutoff's heat weights (T, M)
    (_visible_weights): one contraction of each product for every time (a
    stack of products is one matmul of the same contractions)."""
    # (T, M) @ (..., M, 2): real and imaginary part of each time's sum
    sums = weights @ per_mode[..., None].view(float)
    # a handful of sums: checked one by one, cheaper than array calls
    for re, im in sums.reshape(-1, 2).tolist():
        if abs(im) > 1e-9 * (1.0 + abs(re)):
            raise AssertionError("mode sum failed to be purely imaginary")
    return sums[..., 0].copy()


def h_series(a: SpectralConnection, loop: Loop, t):
    """The phase of the regularized U(1) holonomy of the U(1) field a at
    the times t: the real part of the mode sum
    sum_n e^(-4 pi^2 |n|^2 t) A_n . c_n over the modes visible at the
    earliest time t_min (visible_modes; every mode of the cube unless its
    cutoff is large for that time).  Each mode left out weighs less than
    e^(-NEGLIGIBLE_HEAT) < 2^-60 at every time.  The sum is the imaginary
    part of the same sum over Z = i A; the imaginary part of the A-sum
    cancels in exact arithmetic and is discarded after a sanity bound at
    every time.

    Broadcasts over t like numpy: a scalar time gives a float, a 1-D
    sequence of times an array of phases.  The field is read at its
    constant mode and its visible canonical half modes only, which is the
    whole sum bit for bit for a reflection-symmetric field: the per-mode
    product with the loop table there (_half_table) is formed once,
    mirrored with the constant mode's product at the centre, and
    contracted with one row of the shared heat-weight table per time.
    """
    if a.group.kind != "u1":
        raise ValueError("U(1) fields only")
    times = _times(t)
    t_min = min(times, default=0.0)
    # the centre, then the visible half modes
    coeffs = a.coeffs[0].reshape(3, -1)[:, _visible_half(a.cutoff, t_min)]
    per_mode = _mode_product(coeffs, _half_table(loop, a.cutoff, t_min))
    phases = _phase_sums(_mirrored(per_mode[1:], per_mode[0]),
                         _visible_weights(a.cutoff, times))
    return float(phases[0]) if np.ndim(t) == 0 else phases


def u1_values(phases, loops, characters, times) -> dict:
    """Exact U(1) Wilson values keyed (loop, character, t) from phases
    (L, T), each loop's phase at each of times (h_series), which every
    character reads."""
    labels = [ch.label() for ch in characters]
    # Character.u1_value of every character, loop and time, in one call
    by_character = _u1_powers([ch.u1_exponent() for ch in characters], phases).tolist()
    return {(lp.name, label, t): rows[j][i] for j, lp in enumerate(loops)
            for i, t in enumerate(times) for label, rows in zip(labels, by_character)}
