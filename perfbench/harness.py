"""One benchmark run: set-up, timed passes, gates and metrics.

Set-up is repeated at least ``SETUP_REPS`` times, and until it has taken
``SETUP_SECONDS`` (at most ``SETUP_MAX_REPS`` times); its median is
reported.  Each repetition drops every ``ymflow`` module, imports ymflow again (so its
lazy caches start empty), writes the inputs from the seed, and runs the
warm-up pass on the minimal input.  The last repetition's import is the
one the timed passes use.

Untraced run: passes of the timed input repeat until they cover
``seconds``, give or take half a pass; ``members_per_s`` is the members of
all passes over their summed wall time.  (A median over passes is unsteady
when a pass's time is bimodal, as it is with two workers and few members,
where which worker draws the last member decides the pass time.)
Traced run: untraced and traced passes alternate, so ``trace.overhead_frac``
compares passes made under the same machine conditions, and the per-layer
metrics come from the traced passes (counts from one pass, times as
medians over passes).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_REPS = 3
SETUP_SECONDS = 1.5
SETUP_MAX_REPS = 9
MIN_PASSES = 2


def _purge_ymflow():
    for name in [m for m in sys.modules if m == "ymflow"
                 or m.startswith("ymflow.")]:
        del sys.modules[name]


class _Modules:
    """The ymflow modules of the current import, by short name."""

    NAMES = ("cli", "config", "ensemble", "fields", "flow", "gff", "groups",
             "rng", "storage", "wilson")

    def __init__(self, src):
        for name in self.NAMES:
            mod = importlib.import_module(f"ymflow.{name}")
            if not Path(mod.__file__).resolve().is_relative_to(src):
                raise RuntimeError(f"ymflow imported from {mod.__file__}, "
                                   f"not from {src}")
            setattr(self, name, mod)

    def by_name(self):
        out = {f"ymflow.{name}": getattr(self, name) for name in self.NAMES}
        out["numpy.fft"] = np.fft
        return out


class Runner:
    def __init__(self, workload, seed, workdir, src):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.src = Path(src).resolve()
        self.ym = None
        self.commands = 0
        self.exit_nonzero = 0
        self.last_error = ""
        self.trace_missing = []
        self._tracer = None

    # -- driving the CLI ---------------------------------------------------

    def run_cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self._tracer is None:
                code = self.ym.cli.main(argv)
            else:
                with self._tracer.span("cli.command", {"exit": 0}) as extra:
                    code = self.ym.cli.main(argv)
                    extra["exit"] = code
        self.commands += 1
        if code != 0:
            self.exit_nonzero += 1
            self.last_error = sink.getvalue()[-2000:]
        return code

    def _pass(self, inputs, outdir, tracer=None):
        """One pass into a fresh ``outdir``; returns its wall time."""
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        self._tracer = tracer
        try:
            if tracer is not None:
                self.trace_missing = tracer.install(self.ym.by_name())
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.span("bench.pass"):
                    self.workload.run_pass(self.run_cli, inputs, outdir)
            else:
                self.workload.run_pass(self.run_cli, inputs, outdir)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            self._tracer = None
        return wall

    @staticmethod
    def digests(outdir):
        out = {}
        for path in sorted(p for p in Path(outdir).rglob("*") if p.is_file()):
            rel = path.relative_to(outdir).as_posix()
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    # -- phases -------------------------------------------------------------

    def setup(self, quick):
        times = []
        while len(times) < SETUP_REPS or (
                sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPS):
            t0 = time.perf_counter()
            _purge_ymflow()
            self.ym = _Modules(self.src)
            warm = self.workload.write_inputs(self.seed, self.workdir / "in",
                                              warm=True)
            full = warm if quick else self.workload.write_inputs(
                self.seed, self.workdir / "in", warm=False)
            self._pass(warm, self.workdir / "warm")
            times.append(time.perf_counter() - t0)
        return times, full

    def timed(self, inputs, seconds):
        """Untraced passes until the next would end past ``seconds`` by
        more than half a pass, so the passes cover ``seconds`` on average."""
        walls, digests = [], []
        start = time.perf_counter()
        while True:
            walls.append(self._pass(inputs, self.workdir / "out"))
            digests.append(self.digests(self.workdir / "out"))
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and \
                    elapsed + statistics.median(walls) / 2 > seconds:
                return walls, digests, []

    def traced(self, inputs, seconds):
        """Alternating untraced and traced passes."""
        walls, digests, tracers = [], [], []
        start = time.perf_counter()
        while True:
            walls.append(self._pass(inputs, self.workdir / "out"))
            digests.append(self.digests(self.workdir / "out"))
            tracer = spans.Tracer()
            tracers.append((self._pass(inputs, self.workdir / "out", tracer),
                            tracer))
            digests.append(self.digests(self.workdir / "out"))
            elapsed = time.perf_counter() - start
            pair = statistics.median(walls) + statistics.median(
                w for w, _ in tracers)
            if len(walls) >= 2 and elapsed + pair > seconds:
                return walls, digests, tracers


def blas_threads():
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": workers,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _value(x, unit):
    return {"value": x, "unit": unit}


def run(name, seed, seconds, trace, quick, root):
    """Returns (result, info); result is the benchmark's last output line."""
    root = Path(root)
    workers = min(2, len(os.sched_getaffinity(0)))
    workload = workloads.all_workloads(workers)[name]
    workdir = root / "perfbench" / ".work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workload, seed, workdir, root / "src")
    try:
        setup_times, inputs = runner.setup(quick)
        if trace:
            walls, digests, tracers = runner.traced(inputs, seconds)
        else:
            walls, digests, tracers = runner.timed(inputs, seconds)
        # before the gates, whose reference computations allocate more
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log = workloads.GateLog()
        checks = workload.gates(runner.ym, inputs, workdir / "out", log)
        for i, d in enumerate(digests[1:], start=1):
            log.check(d == digests[0], f"pass {i} outputs differ from pass 0")
        if runner.exit_nonzero:
            log.messages.append(f"{runner.exit_nonzero} CLI commands exited "
                                f"non-zero: {runner.last_error}")
        if tracers:
            spans_path = root / "perfbench" / ".work" / \
                f"spans-{name}-seed{seed}.jsonl"
            with open(spans_path, "w") as fh:
                for index, (_, tracer) in enumerate(tracers):
                    tracer.write(fh, index)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # operations: every CLI command run, and every value a gate checked
    # (one of them per member: whether its flow blew up or stalled)
    attempted = runner.commands + log.attempted
    failed = runner.exit_nonzero + log.failed
    correct = failed == 0
    info = {
        "workload": name, "seed": seed, "trace": trace, "quick": quick,
        "env": environment(workers),
        "input": {"sampler_seed": inputs.sampler_seed,
                  "n_samples": inputs.n_samples, "cutoffs": inputs.cutoffs,
                  "times": inputs.times, "characters": inputs.characters,
                  "members_per_pass": workload.members(inputs)},
        "setup_s": setup_times,
        "pass_s": walls,
        "traced_pass_s": [w for w, _ in tracers],
        "trace_missing": runner.trace_missing,
        "checks": checks,
        "digests": digests[0],
        "gate_failures": log.messages,
    }
    if trace:
        metrics = trace_metrics(workload, tracers, walls, checks,
                                failed / attempted, info)
    else:
        metrics = {
            "members_per_s": _value(
                workload.members(inputs) * len(walls) / sum(walls), "1/s"),
            "setup_s": _value(statistics.median(setup_times), "s"),
            "peak_rss_mb": _value(peak_rss / 1024.0, "MB"),
            "ok_fraction": _value(1.0 - failed / attempted, "ratio"),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


UNITS = {"check.u1_oracle_gap": "abs",
         "check.action_rise_max": "ratio", "check.final_action": "action",
         "_s": "s", ".bytes": "bytes", ".bytes_computed": "bytes",
         "_frac": "ratio", "_fraction": "ratio", "_ratio": "ratio",
         ".holonomy_per_value": "ratio"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


CHECK_METRICS = ("check.u1_oracle_gap", "check.action_rise_max",
                 "check.final_action")


def trace_metrics(workload, tracers, walls, checks, failed_fraction, info):
    per_pass = [spans.layer_metrics(tracer.spans, workload.threads)
                for _, tracer in tracers]
    timed_keys = {k for k in per_pass[0] if unit_of(k) in ("s", "ratio")}
    merged = {k: (statistics.median(p[k] for p in per_pass)
                  if k in timed_keys else per_pass[-1][k])
              for k in per_pass[0]}
    traced_wall = statistics.median(w for w, _ in tracers)
    merged["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
    merged["trace.pass_s"] = traced_wall
    for key in CHECK_METRICS:
        merged[key] = checks.get(key, 0.0)
    merged["failed_fraction"] = failed_fraction
    layer_self = {layer: merged[f"{layer}.self_s"] for layer in spans.LAYERS}
    info["layer_self_s"] = layer_self
    info["dominant_layer"] = max(layer_self, key=layer_self.get)
    return {k: _value(v, unit_of(k)) for k, v in merged.items()}
