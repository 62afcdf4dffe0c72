"""Command-line entry point.

Subcommands: sample, flow, wilson, ensemble, verify.  Every command is
deterministic given its configuration file; parallel ensemble execution
reduces in a fixed order, so `--threads` never changes the output bytes.

Exit codes: 0 success, 1 configuration error, 2 numerical blow-up,
3 verification failure.

The output directory comes from, in increasing precedence, the [output]
section, the --output flag, and the YMFLOW_OUTPUT environment variable;
the choice and its source are echoed into every manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, default_characters, load_config
from .ensemble import (
    EnsembleSpec,
    distribution_convergence_report,
    export_csv,
    persist_records,
    run_ensemble,
    sample_initial,
    tightness_report,
)
from .fields import h1_norm, ym_action
from .flow import heat_semigroup_u1, integrate
# not called here: perfbench/spans.py wraps sampling under these cli names
from .gff import sample_gff, sample_u1_coulomb  # noqa: F401
from .storage import (
    FieldFileError,
    atomic_open,
    read_field,
    write_field,
    write_manifest,
)
from .wilson import LoopFileError, h_series, parse_loop_file, wilson_loop

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_VERIFY = 3

ENV_OUTPUT = "YMFLOW_OUTPUT"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_output(cfg: RunConfig, args) -> tuple[Path, str]:
    if os.environ.get(ENV_OUTPUT):
        return Path(os.environ[ENV_OUTPUT]), f"environment ({ENV_OUTPUT})"
    if args.output:
        return Path(args.output), "command line (--output)"
    return Path(cfg.output_dir), "config [output] dir"


def _load_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    outdir, source = _resolve_output(cfg, args)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.sampler_kind is None or cfg.group is None or cfg.seed is None:
        raise ConfigError("a complete [sampler] section is required")
    a0 = sample_initial(cfg.group, cfg.sampler_kind, cfg.cutoff, cfg.seed,
                        cfg.stream, cfg.coupling, cfg.scale_to_h1)
    name = f"field_{cfg.group.label()}_N{cfg.cutoff}_seed{cfg.seed}_s{cfg.stream}.ymf"
    path = outdir / name
    write_field(path, a0)
    s_ym, h1 = ym_action(a0), h1_norm(a0)
    print(f"wrote {path}")
    print(f"s_ym = {_fmt(s_ym)}")
    print(f"h1_norm = {_fmt(h1)}")
    write_manifest(outdir / (name + ".json"), {
        "command": "sample",
        "config": cfg.raw,
        "seed": cfg.seed,
        "stream": cfg.stream,
        "field_file": name,
        "s_ym": s_ym,
        "h1_norm": h1,
        "output_dir_source": source,
        "version": __version__,
    })
    return EXIT_OK


def cmd_flow(args) -> int:
    cfg = _load_config(args)
    if cfg.flow is None:
        raise ConfigError("a [flow] section is required")
    outdir, source = _resolve_output(cfg, args)
    outdir.mkdir(parents=True, exist_ok=True)
    a0 = read_field(args.input)
    traj = integrate(a0, cfg.flow)
    rows = []
    for t in traj.checkpoint_times():
        state = traj.states[t]
        fname = f"checkpoint_t{_fmt(t)}.ymf"
        write_field(outdir / fname, state)
        rows.append({"t": t, "s_ym": traj.actions[t], "file": fname})
    manifest = {
        "command": "flow",
        "config": cfg.raw,
        "input": str(args.input),
        "flow_kind": cfg.flow.flow_kind,
        "attained_time": traj.attained_time,
        "blew_up": traj.blew_up,
        "failure": traj.failure,
        "step_count": traj.step_count,
        "rhs_evaluations": traj.rhs_evaluations,
        "checkpoints": rows,
        "output_dir_source": source,
        "version": __version__,
    }
    write_manifest(outdir / "trajectory.json", manifest)
    print(f"{'t':>12}  {'S_YM':>24}")
    for row in rows:
        print(f"{_fmt(row['t']):>12}  {_fmt(row['s_ym']):>24}")
    if traj.blew_up:
        print(f"flow halted at t = {_fmt(traj.attained_time)}: {traj.failure}",
              file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_wilson(args) -> int:
    cfg = _load_config(args)
    outdir, source = _resolve_output(cfg, args)
    outdir.mkdir(parents=True, exist_ok=True)
    a0 = read_field(args.input)
    loops_path = args.loops or cfg.loops_file
    if not loops_path:
        raise ConfigError("no loops file: give [loops] file or --loops")
    loops = parse_loop_file(Path(loops_path).read_text())
    characters = cfg.characters or default_characters(a0.group)
    times = cfg.wilson_times
    if not times:
        raise ConfigError("[wilson] times is required")
    is_u1 = a0.group.kind == "u1"
    out_path = outdir / "wilson.csv"
    fieldnames = ["loop_id", "character_id", "t", "wilson_re", "wilson_im"]
    if is_u1:
        fieldnames += ["exact_re", "exact_im", "abs_diff"]
    # regularize once per observation time, then sweep loops and characters
    flowed = {}
    if is_u1:
        for t in times:
            flowed[t] = heat_semigroup_u1(a0, t)
    else:
        if cfg.flow is None:
            raise ConfigError(
                "non-Abelian Wilson evaluation needs a [flow] section to "
                "regularize the field"
            )
        run = replace(cfg.flow, t_end=max(times),
                      checkpoint_times=tuple(sorted(set(times))))
        traj = integrate(a0, run)
        if traj.blew_up:
            print(f"flow halted at t = {_fmt(traj.attained_time)}: "
                  f"{traj.failure}; no Wilson values", file=sys.stderr)
            return EXIT_BLOWUP
        flowed = traj.states
    with atomic_open(out_path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for lp in loops:
            # closed-form phases of this loop at every time (U(1) only)
            phases = h_series(a0, lp, times) if is_u1 else None
            for ch in characters:
                for i, t in enumerate(times):
                    w = wilson_loop(flowed[t], lp, ch, steps=cfg.wilson_steps)
                    row = {
                        "loop_id": lp.name, "character_id": ch.label(),
                        "t": _fmt(t),
                        "wilson_re": _fmt(w.real), "wilson_im": _fmt(w.imag),
                    }
                    if is_u1:
                        ex = ch.u1_value(phases[i])
                        row.update({
                            "exact_re": _fmt(ex.real), "exact_im": _fmt(ex.imag),
                            "abs_diff": _fmt(abs(w - ex)),
                        })
                    writer.writerow(row)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    if cfg.flow is None:
        raise ConfigError("a [flow] section is required")
    if not cfg.ens_cutoffs:
        raise ConfigError("an [ensemble] section is required")
    if cfg.ens_reference_cutoff and cfg.scale_to_h1 is not None:
        raise ConfigError(
            "[ensemble] reference_cutoff cannot be combined with [sampler] "
            "scale_to_h1: the convergence report compares unscaled fields"
        )
    outdir, source = _resolve_output(cfg, args)
    outdir.mkdir(parents=True, exist_ok=True)
    loops = ()
    if cfg.loops_file:
        loops = tuple(parse_loop_file(Path(cfg.loops_file).read_text()))
    characters = cfg.characters
    if loops and not characters:
        characters = default_characters(cfg.group)
    spec = EnsembleSpec(
        group=cfg.group,
        sampler_kind=cfg.sampler_kind,
        seed=cfg.seed,
        cutoffs=cfg.ens_cutoffs,
        times=cfg.ens_times,
        n_samples=cfg.ens_n_samples,
        flow=cfg.flow,
        coupling=cfg.coupling,
        loops=loops,
        characters=characters,
        scale_to_h1=cfg.scale_to_h1,
        wilson_steps=cfg.wilson_steps,
    )
    records = run_ensemble(spec, threads=max(1, args.threads))
    records_path = outdir / "records.jsonl"
    persist_records(records, records_path)
    export_csv(records, outdir / "records.csv")
    report_lines = []
    rows = tightness_report(records, min_samples=min(100, spec.n_samples))
    report_lines.append(
        f"{'cutoff':>6} {'t':>10} {'n':>6} {'excl':>5} {'mean':>22} "
        f"{'se':>22} {'closed_form':>22} {'limit':>22} {'flag':>5}"
    )
    for r in rows:
        closed = _fmt(r.closed_form) if r.closed_form is not None else "-"
        limit = _fmt(r.all_mode_limit) if r.all_mode_limit is not None else "-"
        report_lines.append(
            f"{r.cutoff:>6} {_fmt(r.t):>10} {r.n_used:>6} {r.n_excluded:>5} "
            f"{_fmt(r.mean):>22} {_fmt(r.standard_error):>22} {closed:>22} "
            f"{limit:>22} {str(r.flagged):>5}"
        )
    with atomic_open(outdir / "tightness.txt") as fh:
        fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    convergence = None
    if spec.sampler_kind == "u1_coulomb" and loops and cfg.ens_reference_cutoff:
        conv_rows, frac = distribution_convergence_report(
            records, spec, cfg.ens_reference_cutoff
        )
        convergence = {
            "reference_cutoff": cfg.ens_reference_cutoff,
            "decreasing_fraction": frac,
            "rows": [vars(r) for r in conv_rows],
        }
        print(f"per-seed deviation decreasing for {frac:.1%} of seeds")
        with atomic_open(outdir / "convergence.json") as fh:
            json.dump(convergence, fh, indent=2)
    write_manifest(outdir / "ensemble.json", {
        "command": "ensemble",
        "config": cfg.raw,
        "config_hash": spec.config_hash(),
        "n_records": len(records),
        "blowups": sum(1 for r in records if r.blew_up),
        "threads": max(1, args.threads),
        "output_dir_source": source,
        "version": __version__,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites
    ok = run_suites()
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ymflow",
        description="Gauge-field heat flows and Wilson loops on the 3-torus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override [sampler] seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for ensemble execution")
        p.add_argument("--output", default=None, help="output directory")

    p = sub.add_parser("sample", help="draw one random field and store it")
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("flow", help="integrate a stored field")
    common(p)
    p.add_argument("--input", required=True, help="field checkpoint file")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("wilson", help="Wilson loop values for a stored field")
    common(p)
    p.add_argument("--input", required=True, help="field checkpoint file")
    p.add_argument("--loops", default=None, help="loop definition file")
    p.set_defaults(fn=cmd_wilson)

    p = sub.add_parser("ensemble", help="run a seeded Monte Carlo ensemble")
    common(p)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("verify", help="run the built-in property suites")
    common(p, config_required=False)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, LoopFileError, FieldFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
