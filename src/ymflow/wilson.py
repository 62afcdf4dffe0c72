"""Loops, holonomies, characters, and regularized Wilson loop observables.

Loops are closed piecewise-linear paths given by their lift to R^3: the
vertex list may end one integer vector away from where it started, and
that winding vector is part of the loop data.  Parametrization is
arc-proportional over [0, 1].

Holonomies solve h'(t) = h(t) A(l(t)).l'(t), h(0) = id with a third-order
Runge-Kutta-Munthe-Kaas scheme: each substep advances by the group
exponential of a stage-combined algebra element, so the result stays in
the group by construction and only rounding-level drift needs repair.
The connection is evaluated along the loop by truncated Fourier summation
(exact off-grid evaluation, no interpolation error); the phase
e^(i 2 pi n.x) factorizes over the axes, so each point costs 3K
exponentials rather than K^3 and the three mode axes are contracted in
turn.

For U(1) fields the regularized Wilson loop has a closed form: the
character applied to exp of a mode sum weighted by e^(-4 pi^2 |n|^2 t),
with per-segment line integrals of the Fourier basis known exactly: a
segment p -> q with delta = q - p and midpoint m contributes
delta e^(i 2 pi n.m) sinc(n.delta) at mode n.  The
phase does not depend on the character and the weights do not depend on
the field, so h_series forms the per-mode product once and contracts it
with the shared heat-weight table for every observation time at once;
characters are then applied to the phase.  Those exact values are the
oracle the ODE pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GaugeTransform,
    SpectralConnection,
    _grid_bracket,
    gauge_act,
    heat_weights,
    u1_amplitudes,
)
from .groups import GroupSpec, exp_map, standard_basis, unitarize, unitarity_defect

__all__ = [
    "Loop",
    "LoopFileError",
    "make_loop",
    "rectangle_loop",
    "axis_cycle",
    "parse_loop_file",
    "Character",
    "loop_fourier_coefficients",
    "FieldEvaluator",
    "GaugeTransformedEvaluator",
    "holonomy",
    "wilson_loop",
    "u1_wilson_exact",
    "h_series",
]

TWO_PI = 2.0 * np.pi
# unitarity defect above which a holonomy is re-unitarized
REPAIR_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Loop:
    """Closed piecewise-linear path on the torus, stored through its lift."""

    vertices: np.ndarray        # (V, 3) float, lift coordinates
    winding: np.ndarray         # (3,) int
    name: str = "loop"

    @property
    def segments(self) -> np.ndarray:
        return self.vertices[1:] - self.vertices[:-1]

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.segments, axis=1)

    @property
    def total_length(self) -> float:
        return float(self.segment_lengths.sum())

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


def axis_cycle(axis: int, offset=(0.0, 0.0, 0.0), name=None) -> Loop:
    """The fundamental cycle along a coordinate axis through ``offset``."""
    p = np.asarray(offset, dtype=float)
    q = p.copy()
    q[axis] += 1.0
    return make_loop([p, q], name=name or f"cycle{'xyz'[axis]}")


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
        winding M1 M2 M3      (optional, cross-checked)
    Raises LoopFileError with the offending line number.
    """
    loops = []
    name = None
    verts: list = []
    winding = None
    start_line = 0

    def flush(line_no):
        nonlocal name, verts, winding
        if name is None:
            return
        if len(verts) < 2:
            raise LoopFileError(f"line {start_line}: loop {name!r} has fewer than 2 vertices")
        try:
            loops.append(make_loop(np.asarray(verts), winding, name=name))
        except ValueError as exc:
            raise LoopFileError(f"line {line_no}: loop {name!r}: {exc}") from exc
        name, verts, winding = None, [], None

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
            start_line = i
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
            raise ValueError("integer-power characters live on U(1)")

    def identity_value(self) -> float:
        if self.kind == "u1_power":
            return 1.0
        return float(self.group.matrix_dim)

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
        """chi(e^(i phase)) = e^(i k phase) on U(1)."""
        return complex(np.exp(1j * self.u1_exponent() * float(phase)))

    def label(self) -> str:
        if self.kind == "u1_power":
            return f"u1:{self.power}"
        return self.kind


# ---------------------------------------------------------------------------
# loop Fourier coefficients (exact per-segment line integrals)


_LOOP_TABLE_CACHE: dict = {}


def loop_fourier_coefficients(loop: Loop, cutoff: int) -> np.ndarray:
    """c_n = integral_0^1 e^(i 2 pi n.l(s)) l'(s) ds, shape (3, K, K, K),
    direction first like the coefficient arrays of a connection.

    A straight segment p -> q with delta = q - p and midpoint
    m = p + delta/2 contributes
        delta e^(i 2 pi n.m) sinc(n.delta),   sinc(x) = sin(pi x)/(pi x),
    in closed form, so there is no quadrature error and no special case
    where n.delta vanishes.  The phase factorizes over the axes (3K
    exponentials per segment), and the sinc is formed on the axes where
    delta is nonzero only: a K-vector for an axis-aligned segment.  Each
    mode's value depends on that mode alone, so c_(-n) = conj(c_n) holds
    exactly and a smaller cutoff's table is the central slice of a larger
    one's.  Tables are cached on the loop geometry (ensemble reports reuse
    them heavily).
    """
    key = (loop.vertices.tobytes(), loop.winding.tobytes(), cutoff)
    cached = _LOOP_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    axis = np.arange(-cutoff, cutoff + 1)
    n_axes = np.ix_(axis, axis, axis)          # n_j along axis j of the cube
    k = len(axis)
    out = np.zeros((3, k, k, k), dtype=complex)
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        delta = q - p
        # phases[j, n] = e^(i 2 pi n m_j)
        phases = np.exp((1j * TWO_PI) * ((p + 0.5 * delta)[:, None] * axis))
        term = phases[0][:, None, None] * phases[1][:, None] * phases[2]
        moving = np.flatnonzero(delta)
        term *= np.sinc(sum(delta[j] * n_axes[j] for j in moving))
        for j in moving:
            out[j] += delta[j] * term
    out.setflags(write=False)
    if len(_LOOP_TABLE_CACHE) > 256:
        _LOOP_TABLE_CACHE.clear()
    _LOOP_TABLE_CACHE[key] = out
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


def _substep_allocation(loop: Loop, steps: int) -> list[int]:
    """Substeps per segment, proportional to arc length, at least 8."""
    lengths = loop.segment_lengths
    total = lengths.sum()
    return [max(8, int(np.ceil(steps * (l / total)))) for l in lengths]


def holonomy(evaluator: FieldEvaluator | SpectralConnection, loop: Loop,
             steps: int = 128) -> np.ndarray:
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


def wilson_loop(evaluator, loop: Loop, characters, steps: int = 128):
    """chi(holonomy); magnitude never exceeds chi(id) for unitary
    representations.

    Broadcasts over characters: one Character gives a complex value, a
    sequence of them a tuple of values, all read off one holonomy.
    """
    h = holonomy(evaluator, loop, steps)
    if isinstance(characters, Character):
        return characters(h)
    return tuple(ch(h) for ch in characters)


def u1_wilson_exact(a: SpectralConnection, loop: Loop, character: Character,
                    t: float) -> complex:
    """Closed-form regularized U(1) Wilson loop at one time: the character
    applied to the phase h_series(a, loop, t)."""
    return character.u1_value(h_series(a, loop, t))


def h_series(a: SpectralConnection, loop: Loop, t, amplitudes=None):
    """Phase of the regularized U(1) holonomy: the imaginary part of the
    mode sum sum_n e^(-4 pi^2 |n|^2 t) Z_n . c_n (Z = i times the stored
    coefficients); the real part cancels in exact arithmetic and is
    discarded after a sanity bound at every time.

    Broadcasts over t like numpy: a scalar time gives a float, a 1-D
    sequence of times an array of phases.  The per-mode product Z_n . c_n
    is formed once and contracted with one row of the shared heat-weight
    table per time, so every time and every character of one (field,
    loop) costs a single call.  A caller reading several loops off one
    field passes ``amplitudes`` = u1_amplitudes(a), formed once.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D sequence of times")
    z = u1_amplitudes(a) if amplitudes is None else amplitudes   # (3, K, K, K)
    table = loop_fourier_coefficients(loop, a.cutoff)    # (3, K, K, K)
    per_mode = z[0] * table[0] + z[1] * table[1] + z[2] * table[2]
    weights = heat_weights(a.cutoff, times)
    # (T, K^3) @ (K^3, 2): real and imaginary part of each time's sum
    sums = weights.reshape(len(weights), -1) @ per_mode.reshape(-1, 1).view(float)
    if np.any(np.abs(sums[:, 0]) > 1e-9 * (1.0 + np.abs(sums[:, 1]))):
        raise AssertionError("mode sum failed to be purely imaginary")
    phases = sums[:, 1].copy()
    return float(phases[0]) if times.ndim == 0 else phases
