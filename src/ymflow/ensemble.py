"""Monte Carlo orchestration over seeds and cutoffs, with auditable records.

A run is described by an EnsembleSpec: one master seed, the ensemble
member index as the RNG stream, a list of cutoffs sharing each member's
mode-keyed randomness (the coupling that makes per-seed convergence
checks meaningful), observation times, loops and characters, and a flow
configuration.  Members run independently (optionally in worker threads);
records are always assembled and written in (stream, cutoff) order so the
output bytes do not depend on the thread count.

Records carry the hash of the exact configuration that produced them.
Persistence is newline-delimited JSON, one flat observation row per line,
mirrored by the CSV export.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .fields import SpectralConnection, h1_norm, ym_action_u1_spectral
from .flow import FlowConfig, heat_semigroup_u1, integrate
from .gff import SamplerConfig, sample_gff, sample_u1_coulomb
from .groups import GroupSpec
from .storage import atomic_open
from .wilson import h_series, wilson_loop

__all__ = [
    "EnsembleSpec",
    "EnsembleRecord",
    "RecordError",
    "run_ensemble",
    "sample_initial",
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


class RecordError(Exception):
    pass


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
    wilson_steps: int = 128

    def __post_init__(self):
        self.cutoffs = tuple(int(c) for c in self.cutoffs)
        self.times = tuple(float(t) for t in self.times)
        if list(self.cutoffs) != sorted(set(self.cutoffs)) or not self.cutoffs:
            raise ValueError("cutoffs must be strictly increasing and nonempty")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")
        if self.sampler_kind not in ("gff", "u1_coulomb"):
            raise ValueError(f"unknown sampler kind {self.sampler_kind!r}")
        if any(t <= 0 for t in self.times):
            raise ValueError("observation times must be positive")

    def config_hash(self) -> str:
        """Digest of every field of the spec, the flow configuration, loops
        and characters included, so any change of numerics changes it."""
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


def sample_initial(group: GroupSpec, sampler_kind: str, cutoff: int, seed: int,
                   stream: int = 0, coupling: float = 1.0,
                   scale_to_h1: float | None = None) -> SpectralConnection:
    """Draw the initial field of one (seed, stream) at this cutoff and, when
    scale_to_h1 is given, rescale it to that H^1 norm."""
    cfg = SamplerConfig(group, cutoff, seed=seed, stream=stream, coupling=coupling)
    a0 = sample_u1_coulomb(cfg) if sampler_kind == "u1_coulomb" else sample_gff(cfg)
    if scale_to_h1 is not None:
        norm = h1_norm(a0)
        if norm > 0:
            a0 = a0.scaled(scale_to_h1 / norm)
    return a0


def _member_record(spec: EnsembleSpec, stream: int, cutoff: int,
                   config_hash: str) -> EnsembleRecord:
    rec = EnsembleRecord(
        seed=spec.seed, stream=stream, cutoff=cutoff,
        group=spec.group.label(), g=spec.coupling, config_hash=config_hash,
    )
    a0 = sample_initial(spec.group, spec.sampler_kind, cutoff, spec.seed, stream,
                        spec.coupling, spec.scale_to_h1)
    if spec.flow.flow_kind == "u1_exact":
        # diagonal semigroup: observables in closed form, one phase per
        # (loop, time) that every character reads
        rec.attained_time = spec.flow.t_end
        phases = [h_series(a0, lp, spec.times) for lp in spec.loops]
        for i, t in enumerate(spec.times):
            rec.s_ym[t] = ym_action_u1_spectral(heat_semigroup_u1(a0, t))
            for lp, phase in zip(spec.loops, phases):
                for ch in spec.characters:
                    rec.wilson[(lp.name, ch.label(), t)] = ch.u1_value(phase[i])
        return rec
    run_cfg = replace(spec.flow, checkpoint_times=tuple(sorted(set(spec.times))))
    traj = integrate(a0, run_cfg)
    rec.attained_time = traj.attained_time
    rec.blew_up = traj.blew_up
    for t in spec.times:
        if t in traj.states:
            state = traj.states[t]
            rec.s_ym[t] = traj.actions[t]
            for lp in spec.loops:
                for ch in spec.characters:
                    rec.wilson[(lp.name, ch.label(), t)] = wilson_loop(
                        state, lp, ch, steps=spec.wilson_steps
                    )
        else:
            rec.s_ym[t] = None
    return rec


def run_ensemble(spec: EnsembleSpec, threads: int = 1) -> list[EnsembleRecord]:
    """All (stream, cutoff) members, deterministically ordered.

    Member computations are independent; the output list is sorted by
    (stream, cutoff) regardless of scheduling, so any thread count
    produces identical records.
    """
    config_hash = spec.config_hash()
    tasks = [(s, c) for s in range(spec.n_samples) for c in spec.cutoffs]
    if threads <= 1:
        results = {task: _member_record(spec, *task, config_hash) for task in tasks}
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {task: pool.submit(_member_record, spec, *task, config_hash)
                       for task in tasks}
            results = {task: fut.result() for task, fut in futures.items()}
    return [results[t] for t in sorted(results)]


# ---------------------------------------------------------------------------
# persistence


def _rows_of(rec: EnsembleRecord):
    times = sorted(rec.s_ym)
    for t in times:
        pairs = [(lp, ch) for (lp, ch, tt) in rec.wilson if tt == t]
        base = {
            "seed": rec.seed, "stream": rec.stream, "cutoff": rec.cutoff,
            "group": rec.group, "g": rec.g, "t": t, "s_ym": rec.s_ym[t],
            "attained_time": rec.attained_time, "blew_up": rec.blew_up,
            "config_hash": rec.config_hash,
        }
        if not pairs:
            yield {**base, "loop_id": None, "character_id": None,
                   "wilson_re": None, "wilson_im": None}
        for lp, ch in sorted(pairs):
            w = rec.wilson[(lp, ch, t)]
            yield {**base, "loop_id": lp, "character_id": ch,
                   "wilson_re": w.real, "wilson_im": w.imag}


def persist_records(records, path) -> None:
    """One JSON object per line, fields in RECORD_FIELDS order."""
    with atomic_open(path) as fh:
        for rec in records:
            for row in _rows_of(rec):
                ordered = {k: row[k] for k in RECORD_FIELDS}
                fh.write(json.dumps(ordered) + "\n")


def load_records(path, expect_hash: str | None = None) -> list[EnsembleRecord]:
    """Rebuild records from a JSONL file; bit-exact inverse of persist.

    Corrupt lines raise RecordError naming the line; a config-hash
    mismatch against expect_hash (resume integrity) is refused.
    """
    path = Path(path)
    grouped: dict = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{lineno}: corrupt record: {exc}") from exc
            missing = [k for k in RECORD_FIELDS if k not in row]
            if missing:
                raise RecordError(
                    f"{path}:{lineno}: missing fields {missing}"
                )
            if expect_hash is not None and row["config_hash"] != expect_hash:
                raise RecordError(
                    f"{path}:{lineno}: config hash {row['config_hash']} does not "
                    f"match expected {expect_hash}; refusing to mix runs"
                )
            key = (row["stream"], row["cutoff"])
            rec = grouped.get(key)
            if rec is None:
                rec = EnsembleRecord(
                    seed=row["seed"], stream=row["stream"], cutoff=row["cutoff"],
                    group=row["group"], g=row["g"],
                    attained_time=row["attained_time"], blew_up=row["blew_up"],
                    config_hash=row["config_hash"],
                )
                grouped[key] = rec
            rec.s_ym[row["t"]] = row["s_ym"]
            if row["loop_id"] is not None:
                rec.wilson[(row["loop_id"], row["character_id"], row["t"])] = \
                    complex(row["wilson_re"], row["wilson_im"])
    return [grouped[k] for k in sorted(grouped)]


def export_csv(records, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for rec in records:
            for row in _rows_of(rec):
                writer.writerow(row)


# ---------------------------------------------------------------------------
# reports


def closed_form_sym_mean(cutoff: int, t: float, coupling: float = 1.0) -> float:
    """g^2 sum over 0 < |n|_inf <= cutoff of e^(-8 pi^2 |n|^2 t)."""
    from .fields import mode_norm_sq
    nsq = mode_norm_sq(cutoff)
    mask = nsq > 0
    return float(coupling**2 * np.sum(np.where(mask, np.exp(-8.0 * np.pi**2 * nsq * t), 0.0)))


def closed_form_sym_limit(t: float, coupling: float = 1.0, rtol: float = 1e-14) -> float:
    """All-mode limit of the series above (converged to rtol)."""
    prev = 0.0
    cutoff = 4
    while True:
        cur = closed_form_sym_mean(cutoff, t, coupling)
        if cutoff > 4 and cur - prev <= rtol * max(cur, 1e-300):
            return cur
        prev = cur
        cutoff *= 2
        if cutoff > 4096:
            return cur


@dataclass
class TightnessRow:
    cutoff: int
    t: float
    n_used: int
    n_excluded: int
    mean: float
    standard_error: float
    closed_form: float | None
    all_mode_limit: float | None
    flagged: bool


def tightness_report(records, exact_comparison: bool = True,
                     min_samples: int = 100) -> list[TightnessRow]:
    """Per (cutoff, t) mean and SE of the action, with the closed-form
    truncated series alongside for U(1) ensembles.

    A row is flagged when its mean exceeds the all-mode series limit by
    more than five standard errors (the desk-scale boundedness check).
    Members that blew up before t are excluded and counted.
    """
    by_key: dict = {}
    coupling = None
    group = None
    for rec in records:
        coupling = rec.g
        group = rec.group
        for t, s in rec.s_ym.items():
            key = (rec.cutoff, t)
            ok = s is not None and (not rec.blew_up or rec.attained_time >= t)
            by_key.setdefault(key, {"vals": [], "excluded": 0})
            if ok:
                by_key[key]["vals"].append(s)
            else:
                by_key[key]["excluded"] += 1
    rows = []
    is_u1 = group == "u1"
    for (cutoff, t) in sorted(by_key):
        vals = np.asarray(by_key[(cutoff, t)]["vals"])
        if len(vals) < min_samples:
            raise ValueError(
                f"only {len(vals)} usable samples at cutoff {cutoff}, t={t}; "
                f"need at least {min_samples}"
            )
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        closed = closed_form_sym_mean(cutoff, t, coupling) \
            if (exact_comparison and is_u1) else None
        limit = closed_form_sym_limit(t, coupling) \
            if (exact_comparison and is_u1) else None
        flagged = bool(limit is not None and mean > limit + 5.0 * se)
        rows.append(TightnessRow(cutoff, t, len(vals),
                                 by_key[(cutoff, t)]["excluded"],
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
    """Two-sample Kolmogorov-Smirnov statistic."""
    xs = np.sort(x)
    ys = np.sort(y)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def distribution_convergence_report(records, spec: EnsembleSpec,
                                    reference_cutoff: int):
    """Empirical Wilson distributions per cutoff against the coupled
    larger-cutoff reference law.

    Returns (rows, decreasing_fraction): rows carry per-(loop, character,
    t, cutoff) KS distances (max over the real and imaginary marginals)
    and per-seed deviation summaries; decreasing_fraction is the fraction
    of seeds whose deviation from the reference strictly decreases along
    the cutoff list (the pathwise convergence view).
    """
    if spec.group.kind != "u1" or spec.sampler_kind != "u1_coulomb":
        raise ValueError("convergence report applies to the U(1) ensemble")
    if spec.scale_to_h1 is not None:
        raise ValueError(
            "convergence report needs unscaled members: each member is rescaled "
            "to its own H^1 norm, so no reference field shares their law"
        )
    streams = sorted({rec.stream for rec in records})
    cutoffs = sorted({rec.cutoff for rec in records})
    by_member = {(rec.stream, rec.cutoff): rec for rec in records}

    # reference values from the same mode-keyed draws at the big cutoff
    ref: dict = {}
    for s in streams:
        a_ref = sample_initial(spec.group, spec.sampler_kind, reference_cutoff,
                               spec.seed, s, spec.coupling)
        for lp in spec.loops:
            phases = h_series(a_ref, lp, spec.times)
            for ch in spec.characters:
                for t, phase in zip(spec.times, phases):
                    ref[(s, lp.name, ch.label(), t)] = ch.u1_value(phase)

    rows = []
    dev_by_seed = {s: [] for s in streams}   # per cutoff, max over observables
    for m in cutoffs:
        per_seed = {s: 0.0 for s in streams}
        for lp in spec.loops:
            for ch in spec.characters:
                for t in spec.times:
                    emp = np.array(
                        [by_member[(s, m)].wilson[(lp.name, ch.label(), t)]
                         for s in streams]
                    )
                    refv = np.array(
                        [ref[(s, lp.name, ch.label(), t)] for s in streams]
                    )
                    ks = max(_ks_distance(emp.real, refv.real),
                             _ks_distance(emp.imag, refv.imag))
                    devs = np.abs(emp - refv)
                    rows.append(ConvergenceRow(
                        lp.name, ch.label(), t, m, ks,
                        float(devs.max()), float(devs.mean()),
                    ))
                    for i, s in enumerate(streams):
                        per_seed[s] = max(per_seed[s], devs[i])
        for s in streams:
            dev_by_seed[s].append(per_seed[s])
    decreasing = sum(
        1 for s in streams
        if all(a > b for a, b in zip(dev_by_seed[s], dev_by_seed[s][1:]))
    )
    return rows, decreasing / len(streams)
