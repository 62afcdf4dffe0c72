"""The two benchmark workloads: inputs from a seed, one pass, the gates.

Each workload writes a ymflow configuration and a loop file generated from
the workload seed, then drives ``ymflow.cli.main`` exactly as a user would
on the command line.  A pass repeats identical work, so every pass must
write byte-identical output files.  The gates read those outputs back and
check them against independent computations.

Sizes: ``full`` is the timed input; ``warm`` is the minimal input of the
set-up warm-up (same group, cutoffs, loops, loop steps and reference
cutoff, the fewest members, one character, and for numerically integrated
flows observation times two steps long) and is also the input of the
quick self-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MONOTONE_TOL = 1e-9      # criterion 5: relative S_YM rise allowed
ORACLE_TOL = 1e-8        # criterion 2: |W_ode - W_exact|
CHI_SLACK = 1e-12        # |W| <= chi(id) up to rounding


class GateLog:
    """Counts checked values and the ones outside their gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# ---------------------------------------------------------------------------
# generated inputs


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _fmt(x):
    return format(float(x), ".4f")


def _loop_text(name, vertices):
    lines = [f"loop {name}"]
    lines += ["vertex " + " ".join(_fmt(c) for c in v) for v in vertices]
    closure = np.round(np.asarray(vertices[-1]) - np.asarray(vertices[0]))
    lines.append("winding " + " ".join(str(int(c)) for c in closure))
    return "\n".join(lines)


def _axes(rng):
    i, j = rng.sample(range(3), 2)
    k = 3 - i - j
    return i, j, k


def _rectangle(rng, name, size_i, size_j):
    i, j, _ = _axes(rng)
    p0 = np.array([_u(rng, 0.0, 1.0) for _ in range(3)])
    p1 = p0.copy(); p1[i] += size_i
    p2 = p1.copy(); p2[j] += size_j
    p3 = p0.copy(); p3[j] += size_j
    return _loop_text(name, [p0, p1, p2, p3, p0])


def _winding_triangle(rng, name):
    """Three segments whose lift ends one period away along two axes."""
    i, j, k = _axes(rng)
    p0 = np.array([_u(rng, 0.0, 1.0) for _ in range(3)])
    v1 = p0.copy(); v1[i] += _u(rng, 0.3, 0.4); v1[k] += _u(rng, 0.1, 0.2)
    v2 = p0.copy(); v2[i] += _u(rng, 0.6, 0.7); v2[j] += _u(rng, 0.5, 0.6)
    v3 = p0.copy(); v3[i] += 1.0; v3[j] += 1.0
    return _loop_text(name, [p0, v1, v2, v3])


def make_loops(rng):
    """A plaquette and a winding triangle, of fixed shape, placed by the
    seed."""
    return "\n\n".join([_rectangle(rng, "plaq", 0.25, 0.25),
                         _winding_triangle(rng, "wind-tri")]) + "\n"


def config_text(sections):
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in items.items()]
        out.append("")
    return "\n".join(out)


def _times(ts):
    return " ".join(format(t, "g") for t in ts)


@dataclass
class Inputs:
    n_samples: int
    cutoffs: tuple
    times: tuple
    characters: tuple
    # set when the files are written
    sampler_seed: int = 0
    loops: str = ""
    config: str = ""


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    name = ""
    threads = 1
    group = ""

    def write_inputs(self, seed, directory, warm):
        """Config and loop files for the timed input or the warm-up."""
        rng = random.Random(seed)
        sampler_seed = rng.randrange(1, 2**31)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        tag = "warm" if warm else "full"
        loops_path = directory / f"loops-{tag}.txt"
        loops_path.write_text(make_loops(rng))
        inputs = self.shape(warm)
        inputs.sampler_seed = sampler_seed
        inputs.loops = str(loops_path)
        cfg_path = directory / f"{self.name}-{tag}.cfg"
        cfg_path.write_text(config_text(self.sections(inputs)))
        inputs.config = str(cfg_path)
        return inputs

    def members(self, inputs):
        return inputs.n_samples * len(inputs.cutoffs)

    def run_pass(self, run_cli, inputs, outdir):
        """One pass; returns the exit codes of the commands it ran."""
        return [run_cli(["ensemble", "--config", inputs.config,
                         "--threads", str(self.threads),
                         "--output", str(outdir)])]

    def ensemble_gates(self, ym, inputs, outdir, log):
        """Blow-ups, monotone action and |W| <= chi(id) on the records."""
        records = ym.ensemble.load_records(Path(outdir) / "records.jsonl")
        chi = 1.0 if self.group == "u1" else float(int(self.group[2:]))
        rise_max = -np.inf
        finals = []
        for rec in records:
            log.check(not rec.blew_up,
                      f"member ({rec.stream}, {rec.cutoff}) blew up")
            series = [rec.s_ym[t] for t in sorted(rec.s_ym)]
            log.check(all(s is not None for s in series),
                      f"member ({rec.stream}, {rec.cutoff}) lost an action")
            series = [s for s in series if s is not None]
            for s0, s1 in zip(series, series[1:]):
                rise = (s1 - s0) / (1.0 + s0)
                rise_max = max(rise_max, rise)
                log.check(rise <= MONOTONE_TOL,
                          f"S_YM rose by {rise:.3e} relative")
            if series:
                finals.append(series[-1])
            for key, w in rec.wilson.items():
                log.check(abs(w) <= chi * (1.0 + CHI_SLACK),
                          f"|W{key}| = {abs(w)} exceeds chi(id) = {chi}")
        expected = self.members(inputs)
        log.check(len(records) == expected,
                  f"{len(records)} records, expected {expected}")
        return records, {
            "check.action_rise_max": float(rise_max),
            "check.final_action": float(np.mean(finals)) if finals else 0.0,
        }


class Su2YmEnsemble(Workload):
    name = "su2_ym_ensemble"
    group = "su2"

    def __init__(self, workers):
        self.threads = workers

    def shape(self, warm):
        times = (0.001, 0.002) if warm else (0.01, 0.05)
        return Inputs(2, (2, 4), times,
                      ("fundamental",))

    def sections(self, inp):
        return {
            "sampler": {"kind": "gff", "group": "su2", "cutoff": 2,
                        "seed": inp.sampler_seed, "scale_to_h1": 0.5},
            "flow": {"kind": "ym", "t_end": inp.times[-1], "dt_initial": 1e-3,
                     "checkpoints": _times(inp.times)},
            "loops": {"file": inp.loops, "steps": 128},
            "wilson": {"characters": " ".join(inp.characters)},
            "ensemble": {"cutoffs": "2 4", "n_samples": inp.n_samples,
                         "times": _times(inp.times)},
        }

    def gates(self, ym, inputs, outdir, log):
        return self.ensemble_gates(ym, inputs, outdir, log)[1]


class U1ExactEnsemble(Workload):
    name = "u1_exact_ensemble"
    group = "u1"
    CHARACTERS = ("u1:1", "u1:-1", "u1:2")
    STEPS = 384

    def shape(self, warm):
        return Inputs(2 if warm else 40, (2, 4, 8), (0.005, 0.02),
                      ("u1:1",) if warm else self.CHARACTERS)

    def sections(self, inp):
        return {
            "sampler": {"kind": "u1_coulomb", "group": "u1", "cutoff": 2,
                        "seed": inp.sampler_seed},
            "flow": {"kind": "u1_exact", "t_end": inp.times[-1],
                     "checkpoints": _times(inp.times)},
            "loops": {"file": inp.loops, "steps": self.STEPS},
            "wilson": {"characters": " ".join(inp.characters)},
            "ensemble": {"cutoffs": " ".join(map(str, inp.cutoffs)),
                         "n_samples": inp.n_samples,
                         "times": _times(inp.times), "reference_cutoff": 16},
        }

    def gates(self, ym, inputs, outdir, log):
        """The ensemble gates, and the closed-form Wilson values of stream 0
        against the numerical holonomy on the exactly flowed field."""
        records, checks = self.ensemble_gates(ym, inputs, outdir, log)
        loops = {lp.name: lp for lp in
                 ym.wilson.parse_loop_file(Path(inputs.loops).read_text())}
        chars = {label: ym.wilson.Character(ym.groups.U1, "u1_power",
                                            int(label[3:]))
                 for label in inputs.characters}
        gap_max = 0.0
        for rec in (r for r in records if r.stream == 0):
            a0 = ym.gff.sample_u1_coulomb(ym.gff.SamplerConfig(
                ym.groups.U1, rec.cutoff, seed=rec.seed, stream=rec.stream,
                coupling=rec.g))
            flowed = {t: ym.flow.heat_semigroup_u1(a0, t) for t in inputs.times}
            for (loop, label, t), w in rec.wilson.items():
                w_ode = ym.wilson.wilson_loop(flowed[t], loops[loop],
                                              chars[label], steps=self.STEPS)
                gap = abs(w - w_ode)
                gap_max = max(gap_max, gap)
                log.check(gap <= ORACLE_TOL,
                          f"U(1) oracle gap {gap:.3e} at {loop} {label} t={t}")
        checks["check.u1_oracle_gap"] = gap_max
        return checks


def all_workloads(workers):
    return {w.name: w for w in (Su2YmEnsemble(workers), U1ExactEnsemble())}
