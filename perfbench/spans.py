"""In-memory spans around the calls between ymflow's layers.

A traced pass replaces, for its duration only, the names each ymflow
module imports from another (for example what ``flow`` imports from
``fields``, and what ``cli`` and ``ensemble`` import from ``flow``,
``gff`` and ``wilson``) with wrappers that record a span:
``(id, name, start, end, parent, thread, attrs)``.  A few module-internal
names that mark a layer's own inner boundary (the pointwise bracket, the
holonomy, the off-grid field evaluator, one ensemble member) and the
``numpy.fft`` entry points are wrapped the same way.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

Spans are kept in a list and written out by the caller when the run ends.
A span's parent is the innermost open span of its own thread; a span that
opens on an empty worker thread is adopted by the innermost open span of
the thread that installed the tracer (the ensemble run waiting on it).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("groups", "fields", "rng", "gff", "flow", "wilson", "ensemble",
          "storage", "cli")


def _fft_attrs(args, kwargs, out):
    x = args[0]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    ndim = 3 if axes is None else len(axes)
    grid = x.shape[-ndim:]
    batch = int(np.prod(x.shape[:-ndim], dtype=np.int64))
    points = int(np.prod(x.shape, dtype=np.int64))
    return {"transforms": batch, "points": points,
            "bytes": int(np.asarray(x).nbytes + out.nbytes),
            "grid_m": int(max(grid))}


def _integrate_attrs(args, kwargs, traj):
    return {"steps": traj.step_count, "rhs": traj.rhs_evaluations,
            "failed": int(traj.blew_up)}


def _field_eval_attrs(args, kwargs, out):
    evaluator, points = args[0], np.atleast_2d(args[1])
    k = 2 * evaluator.connection.cutoff + 1
    return {"points": len(points), "phase_exps": len(points) * k**3}


def _exp_map_attrs(args, kwargs, out):
    return {"matrices": int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))}


def _sample_attrs(args, kwargs, out):
    k = 2 * args[0].cutoff + 1
    return {"modes": (k**3 - 1) // 2}


def _draw_attrs(args, kwargs, out):
    return {"draws": int(out.size)}


def _file_bytes_attrs(path_index):
    def attrs(args, kwargs, out):
        return {"bytes": os.path.getsize(args[path_index])}
    return attrs


# (module, attribute, span name, attrs) -- an attribute may name a class
# method as "Class.method".
INSTRUMENTED = (
    ("numpy.fft", "fftn", "fields.fft", _fft_attrs),
    ("numpy.fft", "ifftn", "fields.fft", _fft_attrs),
    ("ymflow.fields", "_grid_bracket", "fields.bracket", None),
    ("ymflow.flow", "ym_action", "fields.action", None),
    ("ymflow.flow", "linf_norm", "fields.linf", None),
    ("ymflow.flow", "l2_norm", "fields.norm", None),
    ("ymflow.ensemble", "ym_action", "fields.action", None),
    ("ymflow.ensemble", "ym_action_u1_spectral", "fields.action", None),
    ("ymflow.ensemble", "h1_norm", "fields.norm", None),
    ("ymflow.cli", "ym_action", "fields.action", None),
    ("ymflow.cli", "h1_norm", "fields.norm", None),
    ("ymflow.ensemble", "integrate", "flow.integrate", _integrate_attrs),
    ("ymflow.cli", "integrate", "flow.integrate", _integrate_attrs),
    ("ymflow.ensemble", "heat_semigroup_u1", "flow.semigroup", None),
    ("ymflow.cli", "heat_semigroup_u1", "flow.semigroup", None),
    ("ymflow.ensemble", "wilson_loop", "wilson.loop", None),
    ("ymflow.cli", "wilson_loop", "wilson.loop", None),
    ("ymflow.wilson", "holonomy", "wilson.holonomy", None),
    ("ymflow.wilson", "FieldEvaluator.coefficients_at", "wilson.field_eval",
     _field_eval_attrs),
    ("ymflow.ensemble", "u1_wilson_exact", "wilson.exact", None),
    ("ymflow.cli", "u1_wilson_exact", "wilson.exact", None),
    ("ymflow.ensemble", "h_series", "wilson.exact", None),
    ("ymflow.cli", "parse_loop_file", "wilson.parse", None),
    ("ymflow.wilson", "exp_map", "groups.exp_map", _exp_map_attrs),
    ("ymflow.wilson", "unitarity_defect", "groups.unitary", None),
    ("ymflow.wilson", "unitarize", "groups.unitary", None),
    ("ymflow.ensemble", "sample_gff", "gff.sample", _sample_attrs),
    ("ymflow.ensemble", "sample_u1_coulomb", "gff.sample", _sample_attrs),
    ("ymflow.cli", "sample_gff", "gff.sample", _sample_attrs),
    ("ymflow.cli", "sample_u1_coulomb", "gff.sample", _sample_attrs),
    ("ymflow.gff", "mode_gaussians", "rng.gaussians", _draw_attrs),
    ("ymflow.cli", "run_ensemble", "ensemble.run", None),
    ("ymflow.ensemble", "_member_record", "ensemble.member", None),
    ("ymflow.ensemble", "EnsembleSpec.config_hash", "ensemble.config_hash",
     None),
    ("ymflow.cli", "tightness_report", "ensemble.reports", None),
    ("ymflow.cli", "distribution_convergence_report", "ensemble.reports",
     None),
    ("ymflow.cli", "persist_records", "ensemble.persist",
     _file_bytes_attrs(1)),
    ("ymflow.cli", "export_csv", "ensemble.persist", _file_bytes_attrs(1)),
    ("ymflow.cli", "write_manifest", "storage.write", _file_bytes_attrs(0)),
)

# flow dispatches through a dict built at import time, so its entries are
# wrapped in place.
NONLINEAR_TABLE = ("ymflow.flow", "_NONLINEAR", "fields.nonlinear")


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._owner = threading.get_ident()
        self._restore = []

    def _open(self):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            owner = self._stacks.get(self._owner)
            parent = owner[-1] if owner and tid != self._owner else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, tid, stack

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, tid, stack = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, out) if attrs is not None else None
            self.spans.append((sid, name, t0, t1, parent, tid, extra))
            return out
        return traced

    @contextmanager
    def span(self, name, extra=None):
        """A span around a call site in the benchmark itself."""
        sid, parent, tid, stack = self._open()
        t0 = time.perf_counter()
        try:
            yield extra
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, tid, extra))

    def install(self, modules):
        """Wrap every instrumented name; ``modules`` maps module names to
        the module objects of the ymflow import in use.  Returns the names
        that no longer exist (a later ymflow may rename them); their spans
        are simply absent."""
        missing = []
        for mod_name, attr, name, attrs in INSTRUMENTED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, attrs))
        mod_name, attr, name = NONLINEAR_TABLE
        table = getattr(modules[mod_name], attr, None)
        if table is None:
            missing.append(f"{mod_name}.{attr}")
            table = {}
        for kind, fn in list(table.items()):
            self._restore.append((table, kind, fn))
            table[kind] = self.wrap(fn, name)
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, fh, pass_index):
        """Append the spans to ``fh``, one JSON object a line."""
        for sid, name, t0, t1, parent, tid, extra in self.spans:
            fh.write(json.dumps({
                "pass": pass_index, "id": sid, "name": name, "start": t0,
                "end": t1, "parent": parent, "thread": tid, "attrs": extra,
            }) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map span id -> duration minus the part its children cover."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, t0, t1, _, _, _ in spans}


def layer_metrics(spans, workers):
    """Per-layer counts and self times of one traced pass; every layer in
    LAYERS has a ``<layer>.self_s`` entry."""
    own = self_times(spans)
    calls, self_s, attrs = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    busy, run_wall, pass_self, pass_wall = 0.0, 0.0, 0.0, 0.0
    for sid, name, t0, t1, _, _, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        for key, value in (extra or {}).items():
            if key == "grid_m":
                attrs[(name, key)] = max(attrs.get((name, key), 0), value)
            else:
                attrs[(name, key)] = attrs.get((name, key), 0) + value
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[sid]
        elif name == "bench.pass":
            pass_self += own[sid]
            pass_wall += t1 - t0
        if name == "ensemble.member":
            busy += t1 - t0
        elif name == "ensemble.run":
            run_wall += t1 - t0

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def a(name, key):
        return attrs.get((name, key), 0)

    attempted = a("flow.integrate", "rhs") // 3
    accepted = a("flow.integrate", "steps")
    loop_values = n("wilson.loop")
    layer_total = sum(layer_self.values())
    m = {
        "fields.nonlinear.calls": n("fields.nonlinear"),
        "fields.nonlinear.self_s": s("fields.nonlinear"),
        "fields.fft.calls": n("fields.fft"),
        "fields.fft.count": a("fields.fft", "transforms"),
        "fields.fft.points": a("fields.fft", "points"),
        "fields.fft.bytes_computed": a("fields.fft", "bytes"),
        "fields.fft.self_s": s("fields.fft"),
        "fields.bracket.calls": n("fields.bracket"),
        "fields.bracket.self_s": s("fields.bracket"),
        "fields.action.calls": n("fields.action"),
        "fields.action.self_s": s("fields.action"),
        "fields.linf.calls": n("fields.linf"),
        "fields.linf.self_s": s("fields.linf"),
        "fields.grid_m": a("fields.fft", "grid_m"),
        "fields.self_s": layer_self["fields"],
        "flow.integrate.calls": n("flow.integrate"),
        "flow.integrate.self_s": s("flow.integrate"),
        "flow.steps_attempted": attempted,
        "flow.steps_accepted": accepted,
        "flow.accept_ratio": accepted / attempted if attempted else 1.0,
        "flow.rhs_evals": a("flow.integrate", "rhs"),
        "flow.failures": a("flow.integrate", "failed"),
        "flow.self_s": layer_self["flow"],
        "wilson.holonomy.calls": n("wilson.holonomy"),
        "wilson.holonomy.self_s": s("wilson.holonomy"),
        "wilson.field_eval.points": a("wilson.field_eval", "points"),
        "wilson.field_eval.phase_exps": a("wilson.field_eval", "phase_exps"),
        "wilson.field_eval.self_s": s("wilson.field_eval"),
        "wilson.values": loop_values + n("wilson.exact"),
        "wilson.holonomy_per_value":
            n("wilson.holonomy") / loop_values if loop_values else 0.0,
        "wilson.exact.calls": n("wilson.exact"),
        "wilson.exact.self_s": s("wilson.exact"),
        "wilson.self_s": layer_self["wilson"],
        "groups.exp_map.calls": n("groups.exp_map"),
        "groups.exp_map.matrices": a("groups.exp_map", "matrices"),
        "groups.exp_map.self_s": s("groups.exp_map"),
        "groups.self_s": layer_self["groups"],
        "gff.sample.calls": n("gff.sample"),
        "gff.sample.modes": a("gff.sample", "modes"),
        "gff.sample.self_s": s("gff.sample"),
        "gff.self_s": layer_self["gff"],
        "rng.draws": a("rng.gaussians", "draws"),
        "rng.self_s": layer_self["rng"],
        "ensemble.members": n("ensemble.member"),
        "ensemble.run.self_s": s("ensemble.run"),
        "ensemble.worker_busy_fraction":
            busy / (run_wall * workers) if run_wall else 0.0,
        "ensemble.reports.self_s": s("ensemble.reports"),
        "ensemble.persist.bytes": a("ensemble.persist", "bytes"),
        "ensemble.persist.self_s": s("ensemble.persist"),
        "ensemble.config_hash.calls": n("ensemble.config_hash"),
        "ensemble.self_s": layer_self["ensemble"],
        "storage.write.calls": n("storage.write"),
        "storage.write.bytes": a("storage.write", "bytes"),
        "storage.write.self_s": s("storage.write"),
        "storage.self_s": layer_self["storage"],
        "cli.commands": n("cli.command"),
        "cli.self_s": layer_self["cli"],
        "cli.exit_nonzero": sum(1 for sp in spans if sp[1] == "cli.command"
                                and sp[6] and sp[6].get("exit")),
        "trace.spans": len(spans),
        # share of traced thread time inside some layer's span
        "trace.layer_sum_frac":
            layer_total / (layer_total + pass_self) if layer_total else 0.0,
        # 1 on one thread; the mean number of busy threads with workers
        "trace.self_sum_over_wall": layer_total / pass_wall if pass_wall else 0.0,
    }
    return m
