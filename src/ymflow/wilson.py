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
with per-segment line integrals of the Fourier basis known exactly.  The
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
    gauge_act,
    heat_weights,
    mode_grids,
    u1_amplitudes,
)
from .groups import GroupSpec, exp_map, standard_basis, unitarize, unitarity_defect

__all__ = [
    "Loop",
    "LoopFileError",
    "make_loop",
    "reparametrize",
    "reverse_loop",
    "rectangle_loop",
    "axis_cycle",
    "parse_loop_file",
    "format_loop_file",
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
    vector is the winding and may be supplied for cross-checking.  Zero
    length segments are rejected.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 2:
        raise ValueError("need at least two 3D vertices")
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


def reparametrize(loop: Loop, subdivision: int) -> Loop:
    """Insert subdivision-1 evenly spaced vertices inside every segment;
    the image is unchanged."""
    if subdivision < 1:
        raise ValueError("subdivision must be >= 1")
    verts = [loop.vertices[0]]
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        for s in range(1, subdivision + 1):
            verts.append(p + (q - p) * (s / subdivision))
    return make_loop(np.asarray(verts), loop.winding, name=loop.name)


def reverse_loop(loop: Loop) -> Loop:
    return make_loop(loop.vertices[::-1], -loop.winding, name=loop.name + "-rev")


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
                verts.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise LoopFileError(f"line {i}: bad coordinate: {exc}") from exc
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


def format_loop_file(loops) -> str:
    out = []
    for lp in loops:
        out.append(f"loop {lp.name}")
        for v in lp.vertices:
            out.append("vertex " + " ".join(f"{c:.17g}" for c in v))
        out.append("winding " + " ".join(str(int(m)) for m in lp.winding))
    return "\n".join(out) + "\n"


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
    """c_n = integral_0^1 e^(i 2 pi n.l(s)) l'(s) ds, shape (K, K, K, 3).

    For a straight segment p -> q the integral is
        (q - p) e^(i 2 pi n.p) (e^(i 2 pi n.(q-p)) - 1) / (i 2 pi n.(q-p)),
    with the n.(q-p) = 0 branch equal to (q - p) e^(i 2 pi n.p); both are
    evaluated in closed form, so there is no quadrature error.  Tables are
    cached on the loop geometry (ensemble reports reuse them heavily).
    """
    key = (loop.vertices.tobytes(), loop.winding.tobytes(), cutoff)
    cached = _LOOP_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    n1, n2, n3 = mode_grids(cutoff)
    nmat = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=1).astype(float)
    k = 2 * cutoff + 1
    out = np.zeros((nmat.shape[0], 3), dtype=complex)
    for p, q in zip(loop.vertices[:-1], loop.vertices[1:]):
        delta = q - p
        n_dot_p = nmat @ p
        n_dot_d = nmat @ delta
        head = np.exp(1j * TWO_PI * n_dot_p)
        parallel = np.abs(n_dot_d) < 1e-14
        safe = np.where(parallel, 1.0, n_dot_d)
        ramp = (np.exp(1j * TWO_PI * n_dot_d) - 1.0) / (1j * TWO_PI * safe)
        ramp = np.where(parallel, 1.0, ramp)
        out += (head * ramp)[:, None] * delta[None, :]
    table = out.reshape(k, k, k, 3)
    table.setflags(write=False)
    if len(_LOOP_TABLE_CACHE) > 256:
        _LOOP_TABLE_CACHE.clear()
    _LOOP_TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# field evaluation along loops


def _fourier_values(coeffs: np.ndarray, cutoff: int, points: np.ndarray,
                    chunk: int) -> np.ndarray:
    """Re sum_n c(n) e^(i 2 pi n.x) at each point, exactly and separably:
    coeffs (..., K, K, K), points (P, 3) -> (..., P).

    The phase factorizes over the axes, so each point needs 3K
    exponentials e^(i 2 pi n_k x_k) instead of K^3; n3, n2 and n1 are then
    contracted in turn.  Points go in fixed chunks, sized so that no
    intermediate exceeds chunk x K^3 complex entries.
    """
    axis = np.arange(-cutoff, cutoff + 1)
    k = len(axis)
    lead = coeffs.shape[:-3]
    flat = coeffs.reshape(-1, k, k, k)
    rows = flat.shape[0]
    step = max(1, chunk * k // rows)
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
    (only their fractional parts matter).  ``chunk`` bounds the working
    set of one batch of points at chunk x K^3 complex entries.
    """

    def __init__(self, a: SpectralConnection, chunk: int = 512):
        self.connection = a
        self.group = a.group
        self._chunk = chunk

    def coefficients_at(self, points: np.ndarray) -> np.ndarray:
        """(d_g, 3, P) real array of component values."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.connection
        return _fourier_values(a.coeffs, a.cutoff, points, self._chunk)


class GaugeTransformedEvaluator(FieldEvaluator):
    """Evaluator of A^sigma at arbitrary points without any truncation of
    the transformed field: the conjugation and the Maurer-Cartan term are
    formed pointwise from the spectral data of A and of log sigma."""

    def __init__(self, a: SpectralConnection, sigma: GaugeTransform, chunk: int = 512):
        super().__init__(a, chunk)
        if sigma.group != a.group:
            raise ValueError("gauge transform group mismatch")
        self._sigma = sigma
        self._log_stack = sigma.log_stack()

    def coefficients_at(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = super().coefficients_at(points)          # (d, 3, P)
        logs = None
        if self._log_stack is not None:
            logs = _fourier_values(self._log_stack, self._sigma.cutoff, points,
                                   self._chunk)
        return gauge_act(self.group, vals, logs, self._sigma.winding)


def _substep_allocation(loop: Loop, steps: int) -> list[int]:
    """Substeps per segment, proportional to arc length, at least 8."""
    lengths = loop.segment_lengths
    total = lengths.sum()
    return [max(8, int(np.ceil(steps * (l / total)))) for l in lengths]


def holonomy(evaluator: FieldEvaluator | SpectralConnection, loop: Loop,
             steps: int = 128, repair_threshold: float = 1e-9) -> np.ndarray:
    """Group element transporting around the loop.

    Per substep of width dl the scheme exponentiates the RKMK3 stage
    combination u = (dl/6)(k1 + 4 k2 + k3) with
        k1 = w(t),  k2 = w(t + dl/2) + (dl/4) [k1, w(t + dl/2)],
        k3 = w(t + dl) + (dl/2) [2 k2 - k1, w(t + dl)],
    where w(t) = A(l(t)).l'(t).  All stage elements are precomputed in
    one batched field evaluation; the group product is then accumulated
    and re-unitarized only if the defect exceeds repair_threshold.
    """
    if isinstance(evaluator, SpectralConnection):
        evaluator = FieldEvaluator(evaluator)
    group = evaluator.group
    basis = standard_basis(group)
    fstruct_needed = not group.is_abelian
    if fstruct_needed:
        from .groups import structure_constants
        fstruct = structure_constants(group)

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
        omega = np.einsum("ap->pa", omega)
        dl = dt_seg / nsub
        w0 = omega[0:-1:2]      # start of each substep
        wh = omega[1::2]        # midpoint
        w1 = omega[2::2]        # end
        k1 = w0
        if fstruct_needed:
            br = lambda x, y: np.einsum("pa,pb,abc->pc", x, y, fstruct,
                                        optimize=True)
            k2 = wh + (dl / 4.0) * br(k1, wh)
            k3 = w1 + (dl / 2.0) * br(2.0 * k2 - k1, w1)
        else:
            k2, k3 = wh, w1
        u = (dl / 6.0) * (k1 + 4.0 * k2 + k3)
        us.append(u)
    u_all = np.concatenate(us, axis=0)
    mats = np.einsum("pa,aij->pij", u_all, basis)
    exps = exp_map(mats)
    h = np.eye(group.matrix_dim, dtype=complex)
    for e in exps:
        h = h @ e
    if unitarity_defect(h) > repair_threshold:
        h = unitarize(h, group)
    return h


def wilson_loop(evaluator, loop: Loop, character: Character,
                steps: int = 128) -> complex:
    """chi(holonomy); magnitude never exceeds chi(id) for unitary
    representations."""
    return character(holonomy(evaluator, loop, steps))


def u1_wilson_exact(a: SpectralConnection, loop: Loop, character: Character,
                    t: float) -> complex:
    """Closed-form regularized U(1) Wilson loop at one time: the character
    applied to the phase h_series(a, loop, t)."""
    return character.u1_value(h_series(a, loop, t))


def h_series(a: SpectralConnection, loop: Loop, t, cutoff: int | None = None):
    """Phase of the regularized U(1) holonomy: the imaginary part of the
    mode sum sum_n e^(-4 pi^2 |n|^2 t) Z_n . c_n (Z = i times the stored
    coefficients); the real part cancels in exact arithmetic and is
    discarded after a sanity bound at every time.

    Broadcasts over t like numpy: a scalar time gives a float, a 1-D
    sequence of times an array of phases.  The per-mode product Z_n . c_n
    is formed once and contracted with one row of the shared heat-weight
    table per time, so every time and every character of one (field,
    loop) costs a single call.  ``cutoff`` truncates the sum to a smaller
    mode cube.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D sequence of times")
    z = u1_amplitudes(a)                                 # (3, K, K, K)
    m = a.cutoff if cutoff is None else min(cutoff, a.cutoff)
    if m < a.cutoff:
        keep = slice(a.cutoff - m, a.cutoff + m + 1)
        z = z[:, keep, keep, keep]
    table = loop_fourier_coefficients(loop, m)           # (K, K, K, 3)
    per_mode = z[0] * table[..., 0] + z[1] * table[..., 1] + z[2] * table[..., 2]
    weights = heat_weights(m, times)
    # (T, K^3) @ (K^3, 2): real and imaginary part of each time's sum
    sums = weights.reshape(len(weights), -1) @ per_mode.reshape(-1, 1).view(float)
    if np.any(np.abs(sums[:, 0]) > 1e-9 * (1.0 + np.abs(sums[:, 1]))):
        raise AssertionError("mode sum failed to be purely imaginary")
    phases = sums[:, 1].copy()
    return float(phases[0]) if times.ndim == 0 else phases
