"""Monte Carlo orchestration over seeds and cutoffs, with auditable records.

A run is described by an EnsembleSpec: one master seed, the ensemble
member index as the RNG stream, a list of cutoffs sharing each member's
mode-keyed randomness (the coupling that makes per-seed convergence
checks meaningful), observation times, loops and characters, and a flow
configuration, which says only how to integrate: each member flows to
its last observation time and is read at each of them.

Because the draw at a smaller cutoff is the restriction of the draw at a
larger one, a task is one stream: one draw at the reference cutoff (or
at the largest member cutoff when there is none) gives the stream's
exact reference Wilson values and every member of the stream, and is
dropped before the next stream.  At the reference cutoff the draw holds
only the modes some output reads: those of the largest member, and
those whose heat weight at the earliest observation time is above
e^(-NEGLIGIBLE_HEAT); the draws being keyed by mode, each drawn value is
the full draw's.  Every stream takes this one path, with or without a
reference.  A YM or ZDDS member is one ``integrate`` run from the cube
that gff's one filler (gff._filled) builds from its own modes of that
draw (rescaled when the spec says so), read at the observation times; a
single initial field is gff.sample_initial.

A u1_exact member builds no cube: its heat flow is diagonal and its
Wilson phase a mode sum, so everything it reads is per mode.  A stream
forms the per-mode product A_n . c_n with each loop's table once, at the
drawn modes visible at the earliest observation time (wilson._half_table
of the top cutoff; every phase reads only visible modes), and the action
terms of the heat-flowed draw once per observation time, at the largest
member's half modes.  Each member and the reference gather their modes of
these, mirror them into flat cube order (conjugate reflection, zero at
n = 0; exact, as every entry is per mode) and reduce them with
h_series's contraction and the U(1) action's sums, so their values are
those of integrate + h_series on the member's own field bit for bit
(tests/reference.py keeps that per-member path as the oracle).
Rescaled members each make their own passes.  Tasks run independently,
optionally in forked worker processes (serially where the platform
cannot fork); records are always assembled and written in (stream,
cutoff) order, and a task computes the same bits in any process, so the
output bytes do not depend on the worker count.

The spec reads its observation times like every other function taking
times (fields._times), and compares by value: specs built from loops
parsed twice from one file are equal.  It refuses what a member would.

Records carry the hash of the exact configuration that produced them.
Persistence is newline-delimited JSON, one flat observation row per line,
mirrored by the CSV export; both writers render the fields a record's rows
share once, and write the bytes of json.dumps and csv.writer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fields import (SpectralConnection, _mirrored, _times, _u1_action_sums,
                     _u1_action_terms, canonical_half_modes, half_norm_sq, heat_rows)
from .flow import FlowConfig, _check_exact_group, integrate
from .gff import (SamplerConfig, _check_coupling, _check_sampler, _check_scale, _check_seed,
                  _filled, _h1_factor, _mode_tables, _stored)
from .groups import GroupSpec
from .storage import atomic_open
from .wilson import (NEGLIGIBLE_HEAT, WILSON_STEPS, _half_table, _mode_product,
                     _phase_sums, _visible_half, _visible_weights, u1_values,
                     wilson_values)

__all__ = [
    "EnsembleSpec",
    "EnsembleRecord",
    "RecordError",
    "run_ensemble",
    "persist_records",
    "load_records",
    "export_csv",
    "tightness_report",
    "distribution_convergence_report",
    "closed_form_sym_mean",
    "TightnessRow",
    "ConvergenceRow",
]

RECORD_FIELDS = [
    "seed", "stream", "cutoff", "group", "g", "t", "s_ym",
    "loop_id", "character_id", "wilson_re", "wilson_im",
    "attained_time", "blew_up", "config_hash",
]


# the fields every row of one (stream, cutoff) member repeats
_MEMBER_FIELDS = ("seed", "group", "g", "attained_time", "blew_up", "config_hash")
# the JSON types each field may take in a records file
_INT, _NUMBER, _STR, _NULL = (int,), (int, float), (str,), (type(None),)
_FIELD_TYPES = {
    "seed": _INT, "stream": _INT, "cutoff": _INT, "group": _STR, "g": _NUMBER,
    "t": _NUMBER, "s_ym": _NUMBER + _NULL, "loop_id": _STR + _NULL,
    "character_id": _STR + _NULL, "wilson_re": _NUMBER + _NULL,
    "wilson_im": _NUMBER + _NULL, "attained_time": _NUMBER, "blew_up": (bool,),
    "config_hash": _STR,
}


class RecordError(Exception):
    pass


def _check_times(times: tuple, what: str = "times") -> None:
    """Refuse a time that is not positive, or one given twice (its output
    rows would repeat); ``what`` names the list in the error messages."""
    for i, t in enumerate(times):
        if t <= 0:
            raise ValueError(f"{what} must be positive, got {t}")
        if t in times[:i]:
            raise ValueError(f"{what}: time {t!r} is repeated")


def _check_shape(cutoffs: tuple, n_samples: int, times: tuple,
                 reference_cutoff: int | None = None) -> None:
    """Refuse an ensemble shape: cutoffs strictly increasing from at least
    1, at least 2 samples, nonempty times (_check_times) and a reference
    cutoff above the largest cutoff."""
    if not cutoffs or list(cutoffs) != sorted(set(cutoffs)) or cutoffs[0] < 1:
        raise ValueError(f"cutoffs must strictly increase from at least 1, got {cutoffs}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    if not times:
        raise ValueError("times: an ensemble needs at least one time")
    _check_times(times)
    if reference_cutoff is not None and reference_cutoff <= cutoffs[-1]:
        raise ValueError(f"reference_cutoff = {reference_cutoff}: the reference cutoff "
                         f"must exceed the largest ensemble cutoff {cutoffs[-1]}")


@dataclass
class EnsembleSpec:
    group: GroupSpec
    sampler_kind: str            # 'gff' | 'u1_coulomb'
    seed: int
    cutoffs: tuple
    times: tuple
    n_samples: int
    flow: FlowConfig
    coupling: float = 1.0
    loops: tuple = ()
    characters: tuple = ()
    scale_to_h1: float | None = None
    wilson_steps: int = WILSON_STEPS
    # cutoff of each stream's exact reference Wilson values (None: no reference)
    reference_cutoff: int | None = None

    def __post_init__(self):
        self.cutoffs = tuple(int(c) for c in self.cutoffs)
        self.times = _times(self.times, "observation times")
        _check_shape(self.cutoffs, self.n_samples, self.times, self.reference_cutoff)
        _check_sampler(self.sampler_kind, self.group)
        if self.flow.flow_kind == "u1_exact":
            _check_exact_group(self.group)
        _check_coupling(self.coupling)
        _check_seed(self.seed)
        _check_scale(self.scale_to_h1)
        if self.reference_cutoff is None:
            return
        # the convergence report compares exact Wilson loops of unscaled
        # U(1) Coulomb fields
        if self.group.kind != "u1" or self.sampler_kind != "u1_coulomb":
            raise ValueError("reference_cutoff needs a U(1) ensemble sampled by u1_coulomb")
        if self.scale_to_h1 is not None:
            raise ValueError("reference_cutoff cannot be combined with scale_to_h1: no "
                             "reference field shares the law of rescaled members")
        if not self.loops:
            raise ValueError("reference_cutoff needs loops (a [loops] file)")

    def config_hash(self) -> str:
        """Digest of every field of the spec (flow configuration, loops,
        characters and reference cutoff included), so any change of an
        output changes it.  The flow configuration holds no observation
        time, so runs observed at the same ``times`` hash alike."""
        blob = json.dumps(asdict(self), sort_keys=True,
                          default=lambda v: v.tolist()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class EnsembleRecord:
    """Observables of one (seed, stream, cutoff) ensemble member."""

    seed: int
    stream: int
    cutoff: int
    group: str
    g: float
    s_ym: dict = field(default_factory=dict)       # t -> float or None
    wilson: dict = field(default_factory=dict)     # (loop, char, t) -> complex
    attained_time: float = 0.0
    blew_up: bool = False
    config_hash: str = ""


def _member_record(spec: EnsembleSpec, stream: int, a0: SpectralConnection,
                   config_hash: str) -> EnsembleRecord:
    """Observables of the member of this stream whose initial field is a0:
    one flow run, read at every observation time by the numerical
    holonomy (a u1_exact member is read per mode instead: _exact_members)."""
    traj = integrate(a0, spec.flow, spec.times)
    return EnsembleRecord(
        seed=spec.seed, stream=stream, cutoff=a0.cutoff, group=spec.group.label(),
        g=spec.coupling, s_ym={t: traj.actions.get(t) for t in spec.times},
        wilson=wilson_values(traj.states, spec.loops, spec.characters,
                             spec.wilson_steps),
        attained_time=traj.attained_time, blew_up=traj.blew_up,
        config_hash=config_hash,
    )


class _StreamModes(NamedTuple):
    """The index sets and tables of every stream of one shape
    (_stream_modes), each list in lexicographic mode order, all read-only:
    the drawn canonical half modes of the top cutoff (indices into
    canonical_half_modes), the positions among them of the visible ones
    and, per member cutoff, of its half modes; the sampler tables of the
    drawn modes (gff._mode_tables, for _stored); per member cutoff the
    positions of its visible half modes among the visible ones (its
    phases) and of its half modes among the largest member's (its action
    terms); and the heat weights (T, H) of the largest member's half
    modes."""

    drawn: np.ndarray
    visible: np.ndarray
    members: tuple
    tables: tuple
    seen: tuple
    own: tuple
    weights: np.ndarray


@lru_cache(maxsize=32)
def _stream_modes(top: int, cutoffs: tuple, targets: tuple) -> _StreamModes:
    """The _StreamModes of a stream that draws at cutoff top, has members
    at cutoffs and is observed at the sorted times targets.  It draws the
    canonical half modes of top inside the largest member cutoff and
    those visible at targets[0]; its loop products are formed at the
    visible ones alone, as every phase reads only visible modes.  The
    heat weights are formed as heat_rows forms them and held as complex
    numbers (the exact cast that a product with coefficients makes)."""
    half = canonical_half_modes(top)
    index = _visible_half(top, targets[0])
    visible = np.zeros(len(half), dtype=bool)
    visible[index[1:] - index[0] - 1] = True        # half modes follow the centre
    extent = np.max(np.abs(half), axis=1)
    drawn = visible | (extent <= cutoffs[-1])
    position = np.cumsum(drawn) - 1
    members = tuple(position[extent <= c] for c in cutoffs)
    shown = np.cumsum(visible) - 1
    seen = tuple(shown[visible & (extent <= c)] for c in cutoffs)
    own = tuple(np.searchsorted(members[-1], pos) for pos in members)
    weights = heat_rows(half_norm_sq(cutoffs[-1]), targets).astype(complex)
    out = (np.flatnonzero(drawn), position[visible], *members, *seen, *own, weights)
    for x in out:
        x.setflags(write=False)
    return _StreamModes(out[0], out[1], members, _mode_tables(half[out[0]]), seen, own,
                        weights)


def _loop_products(spec: EnsembleSpec, upper: np.ndarray, top: int,
                   visible: np.ndarray) -> np.ndarray:
    """The per-mode products A_n . c_n (L, V) of the stream's draw upper
    (3, D) at its visible modes, positions visible, with each loop's table
    there (_half_table, without its centre), one row per loop.  Where
    every drawn mode is visible the draw is read as it is."""
    t_min = min(spec.times)
    if len(visible) < upper.shape[-1]:
        upper = upper[:, visible]
    out = np.empty((len(spec.loops), len(visible)), dtype=complex)
    for row, lp in zip(out, spec.loops):
        _mode_product(upper, _half_table(lp, top, t_min)[:, 1:], out=row)
    return out


def _read_values(spec: EnsembleSpec, products: np.ndarray, cutoff: int) -> dict:
    """Wilson values keyed (loop, character, t) of the U(1) field of this
    cutoff whose loop products at its half modes visible at the earliest
    time are products (L, V): mirrored into flat cube order and contracted
    as h_series contracts them."""
    phases = _phase_sums(_mirrored(products), _visible_weights(cutoff, spec.times))
    return u1_values(phases, spec.loops, spec.characters, spec.times)


def _exact_members(spec: EnsembleSpec, stream: int, config_hash: str,
                   stored: np.ndarray, top: int, modes: _StreamModes,
                   products: np.ndarray | None) -> list:
    """The u1_exact members of one stream, read off per-mode passes over
    the stream's draw stored (1, 3, D) of _stream_modes ``modes``: the loop
    products (given, unless members are rescaled) and, at each observation
    time, the action terms of the heat-flowed draw at the largest member's
    half modes.  Each member gathers its own modes of them, mirrors them
    into flat cube order and reduces them with the sums of h_series and the
    U(1) action, so it equals integrate + h_series on its filled field bit
    for bit.  A rescaled member makes its own passes over the draw times
    its factor (gff._h1_factor)."""
    targets = tuple(sorted(spec.times))

    def action_terms(upper):
        # c = e^(-4 pi^2 |n|^2 t) A_n at each time, as integrate forms it
        return _u1_action_terms(np.take(upper, modes.members[-1], axis=1)
                                * modes.weights[:, None], spec.cutoffs[-1])

    scale = spec.scale_to_h1
    terms = None if scale is not None else action_terms(stored[0])
    records = []
    for c, pos, own, seen in zip(spec.cutoffs, modes.members, modes.own, modes.seen):
        if scale is not None:
            factor = _h1_factor(stored[..., pos], c, scale)
            upper = stored[0] if factor is None else stored[0] * factor
            products = _loop_products(spec, upper, top, modes.visible)
            terms = action_terms(upper)
        k = 2 * c + 1
        cube = _mirrored(np.take(terms, own, axis=-1)).reshape(2, -1, k, k, k)
        by_time = dict(zip(targets, map(float, _u1_action_sums(cube))))
        records.append(EnsembleRecord(
            seed=spec.seed, stream=stream, cutoff=c, group=spec.group.label(),
            g=spec.coupling, s_ym={t: by_time[t] for t in spec.times},
            wilson=_read_values(spec, np.take(products, seen, axis=1), c),
            attained_time=targets[-1], config_hash=config_hash))
    return records


def _stream_task(spec: EnsembleSpec, stream: int, config_hash: str):
    """The members of one stream and the stream's exact reference Wilson
    values (None without a reference cutoff).

    The stream draws once, at the reference cutoff R or else at the
    largest member cutoff, only the half modes some output reads
    (_stream_modes).  A u1_exact stream reads every member off per-mode
    passes over that draw (_exact_members); any other member is filled
    from all of its modes, so it is the restriction of a full draw bit for
    bit, rescaled when the spec says so, and flowed (_member_record).  The
    reference is read, like the members, off the per-loop products at the
    visible modes: what h_series reads off a full draw.  Members run in
    cutoff order.
    """
    ref = spec.reference_cutoff
    top = ref or spec.cutoffs[-1]
    modes = _stream_modes(top, spec.cutoffs, tuple(sorted(spec.times)))
    stored = _stored(spec.sampler_kind, SamplerConfig(
        spec.group, top, spec.seed, stream, spec.coupling), modes.tables)
    exact = spec.flow.flow_kind == "u1_exact"
    products = None
    if ref is not None or (exact and spec.scale_to_h1 is None):
        products = _loop_products(spec, stored[0], top, modes.visible)
    reference = None if ref is None else _read_values(spec, products, top)
    if exact:
        return _exact_members(spec, stream, config_hash, stored, top, modes,
                              products), reference
    records = [_member_record(spec, stream, _filled(spec.group, c, stored[..., pos],
                                                    spec.scale_to_h1), config_hash)
               for c, pos in zip(spec.cutoffs, modes.members)]
    return records, reference


def run_ensemble(spec: EnsembleSpec, threads: int = 1):
    """(records, reference): every (stream, cutoff) member in (stream,
    cutoff) order whatever the scheduling, and when the spec has a
    ``reference_cutoff`` each stream's exact Wilson values at that cutoff,
    keyed (loop, character, t) like a record's; else None.

    There is one task per stream, whatever the flow (module docstring).
    ``threads`` is the number of worker processes: with more than one,
    and where the platform can fork, tasks run in a pool of forked
    workers (which inherit the imported modules, so nothing is imported
    again), at most one per stream; otherwise serially in this process.
    An exception raised by a task reaches the caller with its type.
    """
    config_hash = spec.config_hash()
    streams = range(spec.n_samples)
    # a fork pool starts all its workers at once, so cap it first
    workers = min(threads, spec.n_samples)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        results = [_stream_task(spec, s, config_hash) for s in streams]
    else:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_stream_task, spec, s, config_hash)
                       for s in streams]
            try:
                results = [fut.result() for fut in futures]
            finally:
                pool.shutdown(cancel_futures=True)
    records = [rec for recs, _ in results for rec in recs]
    reference = None
    if spec.reference_cutoff is not None:
        reference = {s: ref for s, (_, ref) in zip(streams, results)}
    return records, reference


# ---------------------------------------------------------------------------
# persistence


def _rows_of(rec: EnsembleRecord):
    """The record's observation rows by time: for each t in order, the
    fields (t, s_ym) and, per row in sorted order, its (loop_id,
    character_id) pair with its wilson_re and wilson_im, or one row of
    Nones when t has no Wilson value.  A row is, in RECORD_FIELDS order,
    the record's seed, stream, cutoff, group and g, these fields, then its
    attained_time, blew_up and config_hash."""
    by_time: dict = {}
    for (lp, ch, t), w in rec.wilson.items():
        by_time.setdefault(t, []).append(((lp, ch), w.real, w.imag))
    for t in sorted(rec.s_ym):
        # each pair once per time, so the sort never compares values
        yield (t, rec.s_ym[t]), sorted(by_time.get(t) or [((None, None), None, None)])


def _lines(records, cell, keys, sep: str, end: str):
    """The rows of records as text lines: field i is keys[i] + cell(value),
    fields are joined by sep and a line is closed by end.  A record's own
    fields are rendered once per record and (t, s_ym) once per time, so a
    row adds its two Wilson values to the rendered loop and character
    names; each string is rendered once per call."""
    strings: dict = {}
    names: dict = {}                     # (loop, character) -> fields 7 to 9
    between = sep + keys[10]
    isfinite = math.isfinite

    def text(v):
        if type(v) is not str:
            return cell(v)
        if v not in strings:
            strings[v] = cell(v)
        return strings[v]

    def join(first, values):
        return sep.join(keys[first + j] + text(v) for j, v in enumerate(values))

    for rec in records:
        lead = join(0, (rec.seed, rec.stream, rec.cutoff, rec.group, rec.g)) + sep
        tail = sep + join(11, (rec.attained_time, rec.blew_up, rec.config_hash)) + end
        for at, observations in _rows_of(rec):
            prefix = lead + join(5, at) + sep
            for pair, re, im in observations:
                if pair not in names:
                    names[pair] = join(7, pair) + sep + keys[9]
                # a finite float is its repr in JSON and CSV alike
                re = float.__repr__(re) if type(re) is float and isfinite(re) else cell(re)
                im = float.__repr__(im) if type(im) is float and isfinite(im) else cell(im)
                yield f"{prefix}{names[pair]}{re}{between}{im}{tail}"


# '{"seed": ', '"stream": ', ...: each key as json.dumps writes a row's dict
_JSON_KEYS = tuple(("{" if i == 0 else "") + json.dumps(k) + ": "
                   for i, k in enumerate(RECORD_FIELDS))


def _json_cell(v) -> str:
    """json.dumps(v); a finite float is its repr, as json writes it."""
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def _csv_cell(v) -> str:
    """One cell as csv.writer writes it: None empty, a float its repr, a
    string quoted where csv quotes it (csv itself renders it), anything
    else str."""
    if v is None:
        return ""
    if isinstance(v, float):
        return float.__repr__(v)
    if isinstance(v, str):
        buf = io.StringIO()
        csv.writer(buf).writerow((v, None))
        return buf.getvalue()[:-3]            # drop the empty cell and "\r\n"
    return str(v)


def persist_records(records, path) -> None:
    """One JSON object per line, fields in RECORD_FIELDS order: the bytes
    of json.dumps of each row's dict."""
    with atomic_open(path) as fh:
        fh.write("".join(_lines(records, _json_cell, _JSON_KEYS, ", ", "}\n")))


def load_records(path, expect_hash: str | None = None) -> list[EnsembleRecord]:
    """Rebuild records from a JSONL file; bit-exact inverse of persist.

    Corrupt lines (not JSON, not an object, a field missing or of the
    wrong type, a repeated observation, a member field that differs from
    the member's first row, or an s_ym that differs from the first row of
    its member at its time) raise RecordError naming the line; a
    config-hash mismatch against expect_hash (resume integrity) is refused.
    """
    path = Path(path)
    grouped: dict = {}
    # (stream, cutoff), (stream, cutoff, t) and (stream, cutoff, t, loop,
    # character) -> first line
    first_line: dict = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{lineno}: corrupt record: {exc}") from exc
            if not isinstance(row, dict):
                raise RecordError(f"{path}:{lineno}: not a JSON object")
            missing = [k for k in RECORD_FIELDS if k not in row]
            if missing:
                raise RecordError(
                    f"{path}:{lineno}: missing fields {missing}"
                )
            wrong = [k for k in RECORD_FIELDS if type(row[k]) not in _FIELD_TYPES[k]]
            if row["loop_id"] is not None:
                # an observation row carries its character and its value
                wrong += [k for k in ("character_id", "wilson_re", "wilson_im")
                          if row[k] is None]
            if wrong:
                raise RecordError(f"{path}:{lineno}: fields of the wrong type {wrong}")
            if expect_hash is not None and row["config_hash"] != expect_hash:
                raise RecordError(
                    f"{path}:{lineno}: config hash {row['config_hash']} does not "
                    f"match expected {expect_hash}; refusing to mix runs"
                )
            key = (row["stream"], row["cutoff"])
            obs = (*key, row["t"], row["loop_id"], row["character_id"])
            if obs in first_line:
                raise RecordError(f"{path}:{lineno}: repeats the observation of "
                                  f"line {first_line[obs]}")
            first_line[obs] = lineno
            rec = grouped.get(key)
            if rec is None:
                rec = grouped[key] = EnsembleRecord(
                    stream=key[0], cutoff=key[1], **{k: row[k] for k in _MEMBER_FIELDS})
                first_line[key] = lineno
            # repr tells NaN, -0.0 and an int from a float apart
            differ = [k for k in _MEMBER_FIELDS if repr(row[k]) != repr(getattr(rec, k))]
            if differ:
                raise RecordError(f"{path}:{lineno}: member fields {differ} contradict "
                                  f"line {first_line[key]}")
            at = (*key, row["t"])
            if at not in first_line:
                first_line[at] = lineno
                rec.s_ym[row["t"]] = row["s_ym"]
            elif repr(row["s_ym"]) != repr(rec.s_ym[row["t"]]):
                raise RecordError(f"{path}:{lineno}: s_ym contradicts line {first_line[at]}")
            if row["loop_id"] is not None:
                rec.wilson[(row["loop_id"], row["character_id"], row["t"])] = \
                    complex(row["wilson_re"], row["wilson_im"])
    return [grouped[k] for k in sorted(grouped)]


def export_csv(records, path) -> None:
    """The rows of persist_records as CSV under a RECORD_FIELDS header,
    the bytes csv.writer writes; None is an empty cell."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow(RECORD_FIELDS)
        fh.write("".join(_lines(records, _csv_cell, ("",) * len(RECORD_FIELDS), ",",
                                "\r\n")))


# ---------------------------------------------------------------------------
# reports


def closed_form_sym_mean(cutoff: int, t: float, coupling: float = 1.0) -> float:
    """g^2 sum over 0 < |n|_inf <= cutoff of e^(-8 pi^2 |n|^2 t).

    The cube sum factors over the axes: with s = 2 sum_{k=1..N}
    e^(-8 pi^2 k^2 t) it is (1 + s)^3 - 1 = s (3 + 3 s + s^2), written
    so that no cancellation occurs; O(N), no mode grid.
    """
    k = np.arange(1, cutoff + 1)
    s = 2.0 * math.fsum(np.exp(-8.0 * np.pi**2 * (k * k) * t))
    return float(coupling**2 * (s * (3.0 + s * (3.0 + s))))


def closed_form_sym_limit(t: float, coupling: float = 1.0) -> float:
    """All-mode limit (t > 0) of the series above: the direct sum to the
    cutoff ceil(x) + 1, x = sqrt(NEGLIGIBLE_HEAT / (8 pi^2 t)), omits only
    terms below e^(-NEGLIGIBLE_HEAT) < 2^-60 of the first.  From x = 1e4 on
    (t below about 5.3e-9) Jacobi's transform
    1 + s = (1 + 2 sum_{k>=1} e^(-k^2/(8t))) / sqrt(8 pi t) replaces it, its
    sum being below e^(-10^7), zero in floating point; so the cost is
    bounded for every t."""
    x = math.sqrt(NEGLIGIBLE_HEAT / (8.0 * np.pi**2 * t))
    if x < 1e4:
        return closed_form_sym_mean(math.ceil(x) + 1, t, coupling)
    s = 1.0 / math.sqrt(8.0 * np.pi * t) - 1.0
    return float(coupling**2 * (s * (3.0 + s * (3.0 + s))))


@dataclass
class TightnessRow:
    cutoff: int
    t: float
    n_used: int
    n_excluded: int
    mean: float | None                 # None below 2 usable samples
    standard_error: float | None
    closed_form: float | None
    all_mode_limit: float | None
    flagged: bool


def tightness_report(records, spec: EnsembleSpec) -> list[TightnessRow]:
    """Per (cutoff, t) mean and SE of the action; when ``spec`` states the
    closed-form law (unscaled u1_coulomb members) its truncated series at
    ``spec.coupling`` stands alongside, and a row is flagged when its mean
    exceeds the all-mode series limit by more than five standard errors
    (the desk-scale boundedness check).  Other runs' rows carry None there
    and no flag.  Members that blew up before t are excluded and counted;
    a row with fewer than 2 usable samples has no mean or standard error.
    """
    by_key: dict = {}                  # (cutoff, t) -> action, None if excluded
    for rec in records:
        for t, s in rec.s_ym.items():
            ok = s is not None and (not rec.blew_up or rec.attained_time >= t)
            by_key.setdefault((rec.cutoff, t), []).append(s if ok else None)
    rows = []
    coulomb = spec.sampler_kind == "u1_coulomb" and spec.scale_to_h1 is None
    for (cutoff, t), seen in sorted(by_key.items()):
        vals = np.asarray([s for s in seen if s is not None])
        mean = se = None
        if len(vals) >= 2:
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        closed = closed_form_sym_mean(cutoff, t, spec.coupling) if coulomb else None
        limit = closed_form_sym_limit(t, spec.coupling) if coulomb else None
        flagged = bool(mean is not None and limit is not None
                       and mean > limit + 5.0 * se)
        rows.append(TightnessRow(cutoff, t, len(vals), len(seen) - len(vals),
                                 mean, se, closed, limit, flagged))
    return rows


@dataclass
class ConvergenceRow:
    loop_id: str
    character_id: str
    t: float
    cutoff: int
    ks_distance: float
    per_seed_max_dev: float
    per_seed_mean_dev: float


def _ks_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, reading values equal to
    rounding as ties: both empirical CDFs are evaluated at every sample
    value plus tol = 1e-12 (1 + max(|x|, |y|)), so samples that agree to
    rounding give 0, and samples whose values are all more than tol apart
    give the plain statistic."""
    xs = np.sort(x)
    ys = np.sort(y)
    tol = 1e-12 * (1.0 + max(np.max(np.abs(xs)), np.max(np.abs(ys))))
    grid = np.concatenate([xs, ys]) + tol
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def distribution_convergence_report(records, spec: EnsembleSpec, reference: dict):
    """Empirical Wilson distributions per cutoff against the coupled
    larger-cutoff reference law.

    ``reference`` is the second value of ``run_ensemble(spec)`` for a
    spec with a ``reference_cutoff`` R: per stream, the exact Wilson
    values of the same mode-keyed draw at cutoff R.  The report reads
    them and draws nothing.

    Returns (rows, decreasing_fraction): rows carry per-(loop, character,
    t, cutoff) KS distances (max over the real and imaginary marginals)
    and per-seed deviation summaries; decreasing_fraction is the fraction
    of seeds whose deviation from the reference strictly decreases along
    the cutoff list (the pathwise convergence view).
    """
    if reference is None:
        raise ValueError("no reference values: run the ensemble with a "
                         "reference cutoff")
    streams = sorted({rec.stream for rec in records})
    cutoffs = sorted({rec.cutoff for rec in records})
    by_member = {(rec.stream, rec.cutoff): rec for rec in records}

    rows = []
    dev_by_seed = []                     # per cutoff, max over observables
    for m in cutoffs:
        devs = []
        for lp in spec.loops:
            for ch in spec.characters:
                for t in spec.times:
                    key = (lp.name, ch.label(), t)
                    emp = np.array([by_member[(s, m)].wilson[key] for s in streams])
                    refv = np.array([reference[s][key] for s in streams])
                    ks = max(_ks_distance(emp.real, refv.real),
                             _ks_distance(emp.imag, refv.imag))
                    devs.append(np.abs(emp - refv))
                    rows.append(ConvergenceRow(
                        lp.name, ch.label(), t, m, ks,
                        float(devs[-1].max()), float(devs[-1].mean()),
                    ))
        # per seed, a NaN deviation is skipped
        dev_by_seed.append(np.fmax.reduce(np.reshape(devs, (-1, len(streams))),
                                          axis=0, initial=0.0))
    dev_by_seed = np.array(dev_by_seed)
    decreasing = int(np.sum(np.all(dev_by_seed[:-1] > dev_by_seed[1:], axis=0)))
    return rows, decreasing / len(streams)
