"""The ymflow benchmark.

Run one workload from the root of a ymflow checkout::

    python3 perfbench/run.py --workload su2_ym_ensemble --seed 1 \\
        --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it is a JSON object with the run's
environment (nproc, BLAS threads, workers, numpy, Python, platform), pass
times, accuracy fingerprint, output digests and any gate failures.  The
exit code is non-zero when a gate fails or ymflow cannot be found.

``--self-check`` runs every workload at its minimal size, untraced and
traced, and asserts that every metric named in ``BENCHMARK.json`` is
emitted with its unit.

The workload process pins its BLAS and OpenMP pools to one thread before
numpy is imported; ensemble workers come from the workload, at most the
number of usable CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("su2_ym_ensemble", "u1_exact_ensemble")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="time the minimal warm-up input instead")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload quickly and check the metrics")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    return args


def run_workload(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("YMFLOW_OUTPUT", None)
    src = ROOT / "src"
    if not (src / "ymflow" / "__init__.py").is_file():
        print(f"error: no ymflow sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    result, info = harness.run(args.workload, args.seed, args.seconds,
                               args.trace, args.quick, ROOT)
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, check=False)
            tag = f"{workload} trace={trace}"
            found = []
            if proc.returncode != 0:
                found.append(f"{tag}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = expected[trace]
                if got != want:
                    wrong = sorted(k for k in set(got) & set(want)
                                   if got[k] != want[k])
                    found.append(
                        f"{tag}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}, "
                        f"wrong units {wrong}")
                if not result["correct"] or result["attempted"] < 1:
                    found.append(f"{tag}: result not correct: {result}")
            print(f"{tag}: {'FAILED' if found else 'ok'}")
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
