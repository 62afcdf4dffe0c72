import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import ymflow
import ymflow.verify as verify_mod
from ymflow.cli import main
from ymflow.config import load_config
from ymflow.fields import SpectralConnection
from ymflow.storage import read_field, read_manifest


def write(path, text):
    path.write_text(text)
    return str(path)


BASE_CFG = """
[sampler]
kind = u1_coulomb
group = u1
cutoff = 3
coupling = {g}
seed = 11

[flow]
kind = {flow_kind}
t_end = 0.05
dt_initial = 1e-3
checkpoints = 0.01 0.05

[loops]
file = {loops}
steps = 256

[wilson]
characters = u1:1 u1:-1 u1:2
times = 0.01 0.05

[ensemble]
cutoffs = 2 4
n_samples = 120
times = 0.02
reference_cutoff = 8

[output]
dir = {out}
"""

LOOPS = """
loop plaq
vertex 0.1 0.2 0.3
vertex 0.35 0.2 0.3
vertex 0.35 0.45 0.3
vertex 0.1 0.45 0.3
vertex 0.1 0.2 0.3
winding 0 0 0

loop plaq-reparam   # same image, midpoint split
vertex 0.1 0.2 0.3
vertex 0.225 0.2 0.3
vertex 0.35 0.2 0.3
vertex 0.35 0.45 0.3
vertex 0.1 0.45 0.3
vertex 0.1 0.2 0.3
"""


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    cfg = write(tmp_path / "run.cfg", BASE_CFG.format(
        g="1.0", flow_kind="zdds", loops=loops, out=tmp_path / "out"))
    return tmp_path, cfg


def test_sample_deterministic_and_coupling_scaling(workspace, capsys):
    tmp, cfg = workspace
    assert main(["sample", "--config", cfg]) == 0
    first = capsys.readouterr().out
    field1 = (tmp / "out" / "field_u1_N3_seed11_s0.ymf").read_bytes()
    assert main(["sample", "--config", cfg]) == 0
    capsys.readouterr()
    field2 = (tmp / "out" / "field_u1_N3_seed11_s0.ymf").read_bytes()
    assert field1 == field2
    s_ym1 = float([l for l in first.splitlines() if l.startswith("s_ym")][0].split("=")[1])
    # doubled coupling quadruples the action exactly (binary scaling)
    cfg2 = write(tmp / "run2.cfg", BASE_CFG.format(
        g="2.0", flow_kind="zdds", loops=tmp / "loops.txt", out=tmp / "out2"))
    assert main(["sample", "--config", cfg2]) == 0
    out2 = capsys.readouterr().out
    s_ym2 = float([l for l in out2.splitlines() if l.startswith("s_ym")][0].split("=")[1])
    assert s_ym2 == 4.0 * s_ym1


def test_flow_and_exact_manifests_match(workspace, capsys):
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    assert main(["flow", "--config", cfg, "--input", field,
                 "--output", str(tmp / "zdds")]) == 0
    cfg_exact = write(tmp / "exact.cfg", BASE_CFG.format(
        g="1.0", flow_kind="u1_exact", loops=tmp / "loops.txt", out=tmp / "out"))
    assert main(["flow", "--config", cfg_exact, "--input", field,
                 "--output", str(tmp / "exact")]) == 0
    capsys.readouterr()
    m1 = read_manifest(tmp / "zdds" / "trajectory.json")
    m2 = read_manifest(tmp / "exact" / "trajectory.json")
    for r1, r2 in zip(m1["checkpoints"], m2["checkpoints"]):
        assert r1["t"] == r2["t"]
        assert abs(r1["s_ym"] - r2["s_ym"]) <= 1e-8 * (1 + abs(r2["s_ym"]))
        a = read_field(tmp / "zdds" / r1["file"])
        b = read_field(tmp / "exact" / r2["file"])
        num = np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2))
        den = np.sqrt(np.sum(np.abs(b.coeffs) ** 2))
        assert num / den <= 1e-8


def test_flow_rejects_zero_t_end(workspace, capsys):
    tmp, cfg = workspace
    bad = write(tmp / "bad.cfg",
                (tmp / "run.cfg").read_text().replace("t_end = 0.05", "t_end = 0"))
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    rc = main(["flow", "--config", bad, "--input", field])
    capsys.readouterr()
    assert rc == 1


def test_flow_blowup_exit_code_and_manifest(workspace, capsys):
    tmp, cfg = workspace
    blow = write(tmp / "blow.cfg", (tmp / "run.cfg").read_text().replace(
        "checkpoints = 0.01 0.05",
        "checkpoints = 0.01 0.05\nblowup_threshold = 1e-6"))
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    rc = main(["flow", "--config", blow, "--input", field,
               "--output", str(tmp / "blown")])
    capsys.readouterr()
    assert rc == 2
    manifest = read_manifest(tmp / "blown" / "trajectory.json")
    assert manifest["blew_up"] is True
    assert manifest["failure"] == "threshold"


ENSEMBLE_BLOWUP_CFG = """
[sampler]
kind = gff
group = su2
cutoff = 1
seed = 3

[flow]
kind = ym
dt_initial = 1e-3
blowup_threshold = 0.5

[ensemble]
cutoffs = 1 2
n_samples = 3
times = 0.002
"""


def test_ensemble_blowup_exit_code_and_manifest(tmp_path, monkeypatch, capsys):
    # members that blow up are recorded and reported: exit 2, with the
    # records, the tightness table and the manifest written
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    cfg = write(tmp_path / "blow.cfg", ENSEMBLE_BLOWUP_CFG)
    out = tmp_path / "out"
    rc = main(["ensemble", "--config", cfg, "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "6 of 6 members blew up" in err
    manifest = read_manifest(out / "ensemble.json")
    assert manifest["blowups"] == 6 and manifest["n_records"] == 6
    assert (out / "records.jsonl").exists() and (out / "records.csv").exists()
    lines = (out / "tightness.txt").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cutoff, t, n_used, n_excluded, mean, se = line.split()[:6]
        assert (n_used, n_excluded) == ("0", "3")
        assert mean == "-" and se == "-"


def test_ensemble_blowup_skips_convergence_report(workspace, capsys):
    # the convergence report compares every member with the reference, so
    # a run with blown-up members writes none and exits 2
    tmp, cfg = workspace
    blow = write(tmp / "blow.cfg", (tmp / "run.cfg").read_text()
                 .replace("n_samples = 120", "n_samples = 3")
                 .replace("checkpoints = 0.01 0.05",
                          "checkpoints = 0.01 0.05\nblowup_threshold = 1e-6"))
    rc = main(["ensemble", "--config", blow, "--output", str(tmp / "blown")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no convergence report" in err
    assert not (tmp / "blown" / "convergence.json").exists()
    assert read_manifest(tmp / "blown" / "ensemble.json")["blowups"] == 6
    assert (tmp / "blown" / "tightness.txt").exists()


def test_wilson_csv_exact_column_and_reparametrization(workspace, capsys):
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    assert main(["wilson", "--config", cfg, "--input", field,
                 "--output", str(tmp / "w")]) == 0
    capsys.readouterr()
    with (tmp / "w" / "wilson.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2  # loops x characters x times
    by = {(r["loop_id"], r["character_id"], r["t"]): r for r in rows}
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-8
        twin = by[("plaq-reparam" if row["loop_id"] == "plaq" else "plaq",
                   row["character_id"], row["t"])]
        # reparametrized duplicate loop reproduces the value
        assert abs(complex(float(row["exact_re"]), float(row["exact_im"]))
                   - complex(float(twin["exact_re"]), float(twin["exact_im"]))) < 1e-12


def test_wilson_zero_field_gives_identity_character(workspace, tmp_path, capsys):
    tmp, cfg = workspace
    from ymflow.fields import zero_connection
    from ymflow.groups import U1
    from ymflow.storage import write_field
    write_field(tmp / "zero.ymf", zero_connection(U1, 3))
    assert main(["wilson", "--config", cfg, "--input", str(tmp / "zero.ymf"),
                 "--output", str(tmp / "wz")]) == 0
    capsys.readouterr()
    with (tmp / "wz" / "wilson.csv").open() as fh:
        for row in csv.DictReader(fh):
            w = complex(float(row["wilson_re"]), float(row["wilson_im"]))
            assert abs(w - 1.0) < 1e-12


def test_wilson_malformed_loops_file(workspace, capsys):
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    write(tmp / "loops.txt", "loop broken\nvertex 0 0 zzz\n")
    rc = main(["wilson", "--config", cfg, "--input", field])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_ensemble_refuses_non_finite_loop_vertex(workspace, capsys, bad):
    # a non-finite vertex once passed the closure check and wrote NaN
    # Wilson values into records.jsonl
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("kind = zdds", "kind = u1_exact")
    exact = write(tmp / "exact.cfg", text.replace("n_samples = 120", "n_samples = 2"))
    write(tmp / "loops.txt", LOOPS.replace("vertex 0.35 0.45 0.3\nvertex 0.1 0.45",
                                           f"vertex 0.35 {bad} 0.3\nvertex 0.1 0.45", 1))
    rc = main(["ensemble", "--config", exact, "--output", str(tmp / "bad")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 5" in err and "finite" in err
    assert not (tmp / "bad" / "records.jsonl").exists()


@pytest.mark.parametrize("command", ["ensemble", "wilson"])
def test_repeated_loop_name_exits_one(workspace, capsys, command):
    # a second loop named plaq once replaced the first one's Wilson values
    # in the records, which then held half the rows
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("kind = zdds", "kind = u1_exact")
    exact = write(tmp / "exact.cfg", text.replace("n_samples = 120", "n_samples = 2"))
    main(["sample", "--config", exact])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    write(tmp / "loops.txt", LOOPS.replace("loop plaq-reparam", "loop plaq"))
    argv = {"ensemble": ["ensemble", "--config", exact],
            "wilson": ["wilson", "--config", exact, "--input", field]}[command]
    capsys.readouterr()
    rc = main(argv + ["--output", str(tmp / "dup")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 10: loop 'plaq' already defined on line 2" in err
    assert not (tmp / "dup" / "records.jsonl").exists()
    assert not (tmp / "dup" / "wilson.csv").exists()


@pytest.mark.parametrize("command", ["ensemble", "wilson"])
def test_repeated_time_exits_one(workspace, capsys, command):
    # a repeated time once wrote each of its convergence.json (ensemble) or
    # wilson.csv (wilson) rows twice, and exited 0
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("kind = zdds", "kind = u1_exact")
    text = text.replace("n_samples = 120", "n_samples = 2")
    main(["sample", "--config", write(tmp / "exact.cfg", text)])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    key, t = {"ensemble": ("times = 0.02", "0.02"),
              "wilson": ("times = 0.01 0.05", "0.05")}[command]
    dup = write(tmp / "dup.cfg", text.replace(key, f"{key} {t}"))
    argv = {"ensemble": ["ensemble", "--config", dup],
            "wilson": ["wilson", "--config", dup, "--input", field]}[command]
    capsys.readouterr()
    rc = main(argv + ["--output", str(tmp / "dup")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"[{command}] times: time {t} is repeated" in err
    assert not (tmp / "dup").exists()


def test_ensemble_thread_count_invariance(workspace, capsys):
    tmp, cfg = workspace
    assert main(["ensemble", "--config", cfg, "--threads", "1",
                 "--output", str(tmp / "e1")]) == 0
    assert main(["ensemble", "--config", cfg, "--threads", "3",
                 "--output", str(tmp / "e3")]) == 0
    capsys.readouterr()
    assert (tmp / "e1" / "records.jsonl").read_bytes() == \
        (tmp / "e3" / "records.jsonl").read_bytes()
    assert (tmp / "e1" / "tightness.txt").read_bytes() == \
        (tmp / "e3" / "tightness.txt").read_bytes()
    conv = json.loads((tmp / "e1" / "convergence.json").read_text())
    assert conv["reference_cutoff"] == 8
    assert read_manifest(tmp / "e3" / "ensemble.json")["threads"] == 3


def test_u1_exact_ensemble_bytes_independent_of_threads(workspace, capsys):
    # one task per stream, the reference computed inside it: every output
    # file is the same at one and two worker processes
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text()
    assert "kind = zdds" in text
    exact = write(tmp / "exact.cfg", text.replace("kind = zdds", "kind = u1_exact")
                  .replace("n_samples = 120", "n_samples = 12"))
    for threads in ("1", "2"):
        assert main(["ensemble", "--config", exact, "--threads", threads,
                     "--output", str(tmp / f"x{threads}")]) == 0
    capsys.readouterr()
    for name in ("records.jsonl", "records.csv", "tightness.txt",
                 "convergence.json"):
        assert (tmp / "x1" / name).read_bytes() == (tmp / "x2" / name).read_bytes()
    conv = json.loads((tmp / "x1" / "convergence.json").read_text())
    assert conv["reference_cutoff"] == 8 and conv["rows"]


def test_ensemble_refuses_reference_cutoff_with_scaling(workspace, capsys):
    # the convergence report compares unscaled exact U(1) Wilson loops, so
    # a reference cutoff with scaling, with a GFF sampler or without a
    # loops file is refused before any member runs
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("n_samples = 120", "n_samples = 4")
    cases = {
        "scaled": (("seed = 11", "seed = 11\nscale_to_h1 = 0.5"), "scale_to_h1"),
        "gff": (("kind = u1_coulomb", "kind = gff"), "u1_coulomb"),
        "noloops": (("[loops]\nfile", "[loops]\n# file"), "[loops] file"),
    }
    for name, ((old, new), word) in cases.items():
        assert old in text
        bad = write(tmp / f"{name}.cfg", text.replace(old, new))
        rc = main(["ensemble", "--config", bad, "--output", str(tmp / name)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "reference_cutoff" in err and word in err
        assert not (tmp / name / "records.jsonl").exists()


@pytest.mark.parametrize("old, new, words", [
    ("coupling = 1.0", "coupling = nan", ("[sampler] coupling", "finite")),
    ("dt_initial = 1e-3", "dt_initial = 1e-3\nblowup_threshold = inf",
     ("[flow] blowup_threshold", "finite")),
    ("dt_initial = 1e-3", "dt_initial = 1e-3\nresolution = 12",
     ("unknown key 'resolution'", "[flow]")),
], ids=["nan_coupling", "inf_threshold", "resolution_key"])
def test_ensemble_config_errors_exit_one(workspace, capsys, old, new, words):
    # non-finite numbers and the retired [flow] resolution key are config
    # errors: exit 1, naming the key, before any member runs
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text()
    assert old in text
    bad = write(tmp / "bad.cfg", text.replace(old, new))
    rc = main(["ensemble", "--config", bad, "--output", str(tmp / "bad")])
    err = capsys.readouterr().err
    assert rc == 1
    assert all(word in err for word in words)
    assert not (tmp / "bad" / "records.jsonl").exists()


def test_ensemble_refuses_reference_cutoff_not_above_cutoffs(workspace, capsys):
    tmp, cfg = workspace
    bad = write(tmp / "ref.cfg", (tmp / "run.cfg").read_text()
                .replace("reference_cutoff = 8", "reference_cutoff = 4"))
    rc = main(["ensemble", "--config", bad, "--output", str(tmp / "ref")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "reference_cutoff" in err
    assert not (tmp / "ref" / "records.jsonl").exists()


def test_ensemble_needs_no_t_end_and_hashes_without_it(workspace, capsys):
    # members flow to their observation times, so [flow] t_end is neither
    # required nor part of the config hash
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("n_samples = 120", "n_samples = 4")
    variants = {"t005": text, "t05": text.replace("t_end = 0.05", "t_end = 0.5"),
                "none": text.replace("t_end = 0.05\n", "")}
    for name, body in variants.items():
        path = write(tmp / f"{name}.cfg", body)
        assert main(["ensemble", "--config", path, "--output", str(tmp / name)]) == 0
    capsys.readouterr()
    hashes = {read_manifest(tmp / name / "ensemble.json")["config_hash"]
              for name in variants}
    assert len(hashes) == 1
    for name in ("t05", "none"):
        for out in ("records.jsonl", "tightness.txt", "convergence.json"):
            assert (tmp / name / out).read_bytes() == (tmp / "t005" / out).read_bytes()


def test_flow_requires_t_end(workspace, capsys):
    tmp, cfg = workspace
    no_end = write(tmp / "no_end.cfg",
                   (tmp / "run.cfg").read_text().replace("t_end = 0.05\n", ""))
    main(["sample", "--config", cfg])
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    capsys.readouterr()
    rc = main(["flow", "--config", no_end, "--input", field,
               "--output", str(tmp / "no_end")])
    assert rc == 1
    assert "[flow] t_end" in capsys.readouterr().err
    assert not (tmp / "no_end" / "trajectory.json").exists()


@pytest.mark.parametrize("command, manifest_name", [
    ("sample", "field_u1_N3_seed11_s0.ymf.json"),
    ("flow", "trajectory.json"),
    ("wilson", "wilson.json"),
    ("ensemble", "ensemble.json"),
], ids=["sample", "flow", "wilson", "ensemble"])
def test_output_dir_env_override(workspace, capsys, monkeypatch, command, manifest_name):
    # YMFLOW_OUTPUT outranks --output, and every manifest carries the
    # fields all commands share
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("kind = zdds", "kind = u1_exact")
    cfg = write(tmp / "run.cfg", text.replace("n_samples = 120", "n_samples = 4"))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    monkeypatch.setenv("YMFLOW_OUTPUT", str(tmp / "envout"))
    argv = [command, "--config", cfg, "--output", str(tmp / "flag")]
    assert main(argv + (["--input", field] if command in ("flow", "wilson") else [])) == 0
    capsys.readouterr()
    assert not (tmp / "flag").exists()
    manifest = read_manifest(tmp / "envout" / manifest_name)
    assert manifest["command"] == command
    assert manifest["config"] == load_config(cfg).raw
    assert manifest["config"]["flow"]["kind"] == "u1_exact"
    assert manifest["output_dir_source"] == "environment (YMFLOW_OUTPUT)"
    assert manifest["version"] == ymflow.__version__


def test_seed_flag_overrides_config(workspace, capsys):
    tmp, cfg = workspace
    assert main(["sample", "--config", cfg, "--seed", "99",
                 "--output", str(tmp / "s99")]) == 0
    capsys.readouterr()
    assert (tmp / "s99" / "field_u1_N3_seed99_s0.ymf").exists()


@pytest.mark.parametrize("command, edit, flags, words", [
    ("sample", ("seed = 11", "seed = -1"), [], ("[sampler] seed", "got -1")),
    ("sample", ("seed = 11", "seed = 11\nstream = -1"), [], ("[sampler] stream", "got -1")),
    ("sample", None, ["--seed=-1"], ("seed", "got -1")),
    ("ensemble", None, ["--seed", str(2**64)], ("seed", f"got {2**64}")),
], ids=["config_seed", "config_stream", "sample_flag", "ensemble_flag"])
def test_seed_and_stream_outside_64_bits_exit_one(workspace, capsys, command, edit,
                                                  flags, words):
    # the Philox key words are 64 bits wide: seed -1 would draw seed
    # 2**64 - 1's field under another name, so it is refused before any
    # output directory exists
    tmp, cfg = workspace
    if edit:
        cfg = write(tmp / "bad.cfg", (tmp / "run.cfg").read_text().replace(*edit))
    rc = main([command, "--config", cfg, "--output", str(tmp / "bad")] + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert all(word in err for word in words), err
    assert not (tmp / "bad").exists()


@pytest.mark.parametrize("case", ["flow_input_dir", "sample_config_dir",
                                  "sample_output_file"])
def test_path_errors_exit_one_naming_the_path(workspace, capsys, case):
    # a directory where a file is read, or a file where the output
    # directory goes, is an error line, not a traceback
    tmp, cfg = workspace
    (tmp / "adir").mkdir()
    (tmp / "afile").write_text("")
    argv, path = {
        "flow_input_dir": (["flow", "--config", cfg, "--input", "adir"], "adir"),
        "sample_config_dir": (["sample", "--config", "adir"], "adir"),
        "sample_output_file": (["sample", "--config", cfg, "--output", "afile"], "afile"),
    }[case]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and path in err and "Traceback" not in err


def test_unknown_config_key_exit_code(workspace, capsys):
    tmp, cfg = workspace
    bad = write(tmp / "bad2.cfg", "[sampler]\nwarp = 9\n")
    rc = main(["sample", "--config", bad])
    err = capsys.readouterr().err
    assert rc == 1
    assert "warp" in err


@pytest.mark.parametrize("argv", [
    ["flow", "--config", "run.cfg"],                          # no --input
    ["sample", "--config", "run.cfg", "--frobnicate"],        # unknown flag
    ["ensemble", "--config", "run.cfg", "--threads", "0"],
    ["ensemble", "--config", "run.cfg", "--threads", "-3"],
    ["flow", "--config", "run.cfg", "--input", "f.ymf", "--threads", "2"],
    ["wilson", "--config", "run.cfg", "--input", "f.ymf", "--seed", "3"],
    ["verify", "--threads", "7"],
    ["verify", "--output", "elsewhere"],
    [],
])
def test_usage_errors_exit_with_config_code(argv, capsys):
    # argparse's own exit code 2 is the blow-up code here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["flow", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[:2] for row in rows] == [[name, "PASS"] for name, _, _ in verify_mod.SUITES]
    assert [m[0] for m in MUTATIONS] == [row[0] for row in rows]
    assert all(float(gap) <= float(tol) for _, _, gap, tol, _ in rows)


def _scaled(a, factor):
    return SpectralConnection(a.group, a.cutoff, a.coeffs * factor)


def _zdds_slip(change):
    """A slip of integrate that passes each ZDDS trajectory through change."""
    def slip(integrate):
        def slipped(a, config, times):
            traj = integrate(a, config, times)
            return change(traj) if config.flow_kind == "zdds" else traj
        return slipped
    return slip


# one slip per verify row, in a name verify.py reads: (row, name, slip)
MUTATIONS = [
    ("round-trip", "_values_to_spectral", lambda f: lambda *a: f(*a) * (1 + 1e-9)),
    ("parseval", "l2_norm", lambda f: lambda a: f(a) * (1 + 1e-9)),
    ("u1-flow", "heat_semigroup_u1", lambda f: lambda a, t: _scaled(f(a, t), 1 + 1e-6)),
    ("u1-wilson", "h_series", lambda f: lambda *a: f(*a) + 1e-6),
    ("zdds-dual-path", "zdds_rhs", lambda f: lambda a, path: _scaled(
        f(a, path=path), -1.0 if path == "explicit" else 1.0)),
    ("ym-zdds-action", "integrate", _zdds_slip(lambda traj: replace(
        traj, actions={t: 1.001 * s for t, s in traj.actions.items()}))),
    ("ym-zdds-wilson", "integrate", _zdds_slip(lambda traj: replace(
        traj, states={t: _scaled(s, 1.1) for t, s in traj.states.items()}))),
    ("gradient-ratio", "ym_rhs", lambda f: lambda a: _scaled(f(a), 1.001)),
    ("jacobi", "bracket", lambda f: lambda x, y: x @ y),
    # the draw at the larger cutoff comes from another seed
    ("sampling", "sample_gff", lambda f: lambda config: f(
        replace(config, seed=config.seed + config.cutoff))),
    # the workers draw from another seed
    ("threads", "run_ensemble", lambda f: lambda spec, threads: f(
        spec if threads == 1 else replace(spec, seed=spec.seed + 1), threads=threads)),
]


@pytest.mark.parametrize("row, name, slip", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_verify_mutation_detected(row, name, slip, monkeypatch):
    # each slip fails exactly the row of the identity it breaks, so a gap
    # function the tests share cannot hide a fault
    monkeypatch.setattr(verify_mod, name, slip(getattr(verify_mod, name)))
    lines = []
    assert not verify_mod.run_suites(out=lines.append)
    assert len(lines) == len(verify_mod.SUITES)
    assert [line.split()[0] for line in lines if line.split()[1] == "FAIL"] == [row]


def test_verify_fails_raising_and_nan_rows_and_runs_the_rest(monkeypatch, capsys):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(verify_mod, "zdds_path_gap", singular)
    monkeypatch.setattr(verify_mod, "jacobi_gap", lambda x, y, z: float("nan"))
    assert main(["verify"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == len(verify_mod.SUITES)
    assert "Traceback" in err and "singular" in err
    failing = [line for line in lines if line.split()[1] == "FAIL"]
    assert [line.split()[0] for line in failing] == ["zdds-dual-path", "jacobi"]
    assert failing[0].endswith("LinAlgError: Singular matrix")


SU2_CFG = """
[sampler]
kind = gff
group = su2
cutoff = 2
seed = 5
scale_to_h1 = 0.4

[flow]
kind = zdds
t_end = 0.01
dt_initial = 1e-3
checkpoints = 0.005 0.01

[loops]
file = {loops}
steps = 128

[wilson]
characters = fundamental conjugate
times = 0.005 0.01

[output]
dir = {out}
"""


# SHA-256 of wilson.csv for the U(1) field of the workspace config (with
# the exact columns) and for the SU(2) field of SU2_CFG flowed by ZDDS
WILSON_CSV_PINS = [
    ("u1", "496b2b4c68638ea93a0c29c335811000808b9c6dd3f6be15207c4af4815bfac2"),
    ("su2_zdds", "9377c40cda32b083f47f6b9b38b6addef8afce84aca980ea8c4eed7981b21cd0"),
]


@pytest.mark.parametrize("case, digest", WILSON_CSV_PINS,
                         ids=[pin[0] for pin in WILSON_CSV_PINS])
def test_wilson_csv_bytes_pinned(tmp_path, monkeypatch, capsys, case, digest):
    import hashlib

    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    text = (BASE_CFG.format(g="1.0", flow_kind="zdds", loops=loops, out=tmp_path / "out")
            if case == "u1" else SU2_CFG.format(loops=loops, out=tmp_path / "out"))
    cfg = write(tmp_path / "run.cfg", text)
    assert main(["sample", "--config", cfg]) == 0
    field = next((tmp_path / "out").glob("*.ymf"))
    assert main(["wilson", "--config", cfg, "--input", str(field)]) == 0
    capsys.readouterr()
    got = hashlib.sha256((tmp_path / "out" / "wilson.csv").read_bytes()).hexdigest()
    assert got == digest


def test_wilson_non_abelian_flow_path(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    cfg = write(tmp_path / "su2.cfg", SU2_CFG.format(loops=loops,
                                                     out=tmp_path / "out"))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    assert main(["wilson", "--config", cfg, "--input", field]) == 0
    capsys.readouterr()
    with (tmp_path / "out" / "wilson.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        w = complex(float(row["wilson_re"]), float(row["wilson_im"]))
        assert abs(w) <= 2.0 + 1e-9
        assert "exact_re" not in row


def test_ensemble_refuses_exact_flow_on_su2_before_any_member(tmp_path, monkeypatch,
                                                                capsys):
    # the exact heat semigroup is U(1)-only: the spec refuses it before a
    # stream task runs, and no output directory is made
    import ymflow.ensemble as ens
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(ens, "_stream_task", lambda *args: calls.append(args))
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out")
    cfg = write(tmp_path / "exact.cfg", text.replace("kind = zdds", "kind = u1_exact")
                + "\n[ensemble]\ncutoffs = 2\nn_samples = 2\ntimes = 0.01\n")
    rc = main(["ensemble", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 1
    assert "u1_exact" in err and "U(1)-only" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_refused_commands_make_no_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path / "su2.cfg", text)]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    flow_only = write(tmp_path / "flow_only.cfg", "[flow]\nkind = ym\n")
    exact = write(tmp_path / "exact.cfg", text.replace("kind = zdds", "kind = u1_exact"))
    no_cutoff = write(tmp_path / "no_cutoff.cfg", text.replace("cutoff = 2\n", ""))
    for name, argv in [("sample", ["sample", "--config", flow_only]),
                       ("sample-cutoff", ["sample", "--config", no_cutoff]),
                       ("wilson", ["wilson", "--config", flow_only, "--input", field]),
                       ("flow", ["flow", "--config", exact, "--input", field]),
                       # integrate refuses the U(1)-only flow on the SU(2) field
                       ("wilson-flow", ["wilson", "--config", exact, "--input", field])]:
        assert main(argv + ["--output", str(tmp_path / name)]) == 1, name
        assert not (tmp_path / name).exists(), name
    capsys.readouterr()


def test_ensemble_without_sampler_section_exits_one(tmp_path, monkeypatch, capsys):
    # [flow] and [ensemble] alone: refused as sample refuses it, naming
    # the section, before the output directory is made
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "nosampler.cfg", "[flow]\nkind = u1_exact\n\n[ensemble]\n"
                "cutoffs = 2\nn_samples = 2\ntimes = 0.01\n")
    rc = main(["ensemble", "--config", cfg, "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "a complete [sampler] section is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_wilson_needs_no_t_end(tmp_path, monkeypatch, capsys):
    # the flow is read at [wilson] times; [flow] t_end changes nothing
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out")
    cfg = write(tmp_path / "su2.cfg", text)
    no_end = write(tmp_path / "no_end.cfg", text.replace("t_end = 0.01\n", ""))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    for path, out in ((cfg, "with"), (no_end, "without")):
        assert main(["wilson", "--config", path, "--input", field,
                     "--output", str(tmp_path / out)]) == 0
    capsys.readouterr()
    assert (tmp_path / "without" / "wilson.csv").read_bytes() == \
        (tmp_path / "with" / "wilson.csv").read_bytes()


def test_wilson_blowup_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    cfg = write(tmp_path / "su2.cfg", SU2_CFG.format(
        loops=loops, out=tmp_path / "out").replace(
        "checkpoints = 0.005 0.01",
        "checkpoints = 0.005 0.01\nblowup_threshold = 1e-9"))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    rc = main(["wilson", "--config", cfg, "--input", field])
    err = capsys.readouterr().err
    assert rc == 2
    assert "flow halted" in err
    assert not (tmp_path / "out" / "wilson.csv").exists()


def test_corrupt_field_file_exit_code(workspace, capsys):
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    path = tmp / "out" / "field_u1_N3_seed11_s0.ymf"
    raw = bytearray(path.read_bytes())
    raw[7] = 1
    path.write_bytes(bytes(raw))
    rc = main(["wilson", "--config", cfg, "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "reserved" in err


def test_impossible_group_field_file_exit_code(workspace, capsys):
    # a header naming su(1) is a corrupt file: exit 1, the file named
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    path = tmp / "out" / "field_u1_N3_seed11_s0.ymf"
    raw = bytearray(path.read_bytes())
    raw[5] = 1
    path.write_bytes(bytes(raw))
    rc = main(["wilson", "--config", cfg, "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(path) in err and "su(N) needs N >= 2" in err


def test_wilson_refuses_characters_of_another_group(tmp_path, monkeypatch, capsys):
    # [wilson] characters are read against [sampler] group, so a U(1)
    # configuration cannot evaluate an SU(2) field: exit 1 before any flow
    import ymflow.cli as cli
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    su2 = write(tmp_path / "su2.cfg", SU2_CFG.format(loops=loops,
                                                     out=tmp_path / "out"))
    assert main(["sample", "--config", su2]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    u1 = write(tmp_path / "u1.cfg", BASE_CFG.format(
        g="1.0", flow_kind="zdds", loops=loops, out=tmp_path / "u1out"))
    capsys.readouterr()

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(cli, "integrate", no_flow)
    rc = main(["wilson", "--config", u1, "--input", field])
    err = capsys.readouterr().err
    assert rc == 1
    assert "[wilson] characters" in err and "u1" in err and "su2" in err
    assert not (tmp_path / "u1out" / "wilson.csv").exists()


def test_flow_refuses_field_file_cut_short(workspace, capsys):
    # a payload that is not a whole number of coefficients is a corrupt
    # input named by its path, not a bare numpy error
    tmp, cfg = workspace
    main(["sample", "--config", cfg])
    raw = (tmp / "out" / "field_u1_N3_seed11_s0.ymf").read_bytes()
    cut = tmp / "cut.ymf"
    cut.write_bytes(raw[:-3])
    capsys.readouterr()
    rc = main(["flow", "--config", cfg, "--input", str(cut)])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(cut) in err and "payload" in err


def test_flow_stalled_exit_code_and_manifest(tmp_path, monkeypatch, capsys):
    # an error tolerance far below rounding rejects every step until dt
    # falls under its floor
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "su2.cfg", SU2_CFG.format(
        loops=write(tmp_path / "loops.txt", LOOPS), out=tmp_path / "out").replace(
        "checkpoints = 0.005 0.01", "checkpoints = 0.005 0.01\nerror_tol = 1e-300"))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    rc = main(["flow", "--config", cfg, "--input", field,
               "--output", str(tmp_path / "stalled")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "stalled" in err
    manifest = read_manifest(tmp_path / "stalled" / "trajectory.json")
    assert manifest["blew_up"] is True
    assert manifest["failure"] == "stalled"
    assert manifest["step_count"] == 0 and manifest["checkpoints"] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_non_finite_exit_code_and_manifest(tmp_path, monkeypatch, capsys):
    # finite coefficients of size 1e150 overflow the cubic terms
    from conftest import random_connection
    from ymflow.groups import SU2
    from ymflow.storage import write_field
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "su2.cfg", SU2_CFG.format(
        loops=write(tmp_path / "loops.txt", LOOPS), out=tmp_path / "out"))
    write_field(tmp_path / "huge.ymf", random_connection(SU2, 2, seed=3, scale=1e150))
    rc = main(["flow", "--config", cfg, "--input", str(tmp_path / "huge.ymf"),
               "--output", str(tmp_path / "nonfinite")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "non-finite" in err
    manifest = read_manifest(tmp_path / "nonfinite" / "trajectory.json")
    assert manifest["blew_up"] is True
    assert manifest["failure"] == "non-finite"


def test_wilson_without_sampler_section_takes_the_field_group(tmp_path, monkeypatch,
                                                              capsys):
    # [flow], [loops] and [wilson] times need no [sampler]: the group and
    # the default characters come from the input field.  Only [wilson]
    # characters are read against [sampler] group, so only they need it.
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out")
    cfg = write(tmp_path / "su2.cfg", text)
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    no_sampler = text[text.index("[flow]"):]
    bare = write(tmp_path / "bare.cfg",
                 no_sampler.replace("characters = fundamental conjugate\n", ""))
    assert main(["wilson", "--config", bare, "--input", field,
                 "--output", str(tmp_path / "without")]) == 0
    assert main(["wilson", "--config", cfg, "--input", field,
                 "--output", str(tmp_path / "with")]) == 0
    capsys.readouterr()
    assert (tmp_path / "without" / "wilson.csv").read_bytes() == \
        (tmp_path / "with" / "wilson.csv").read_bytes()
    chars = write(tmp_path / "chars.cfg", no_sampler)
    assert main(["wilson", "--config", chars, "--input", field,
                 "--output", str(tmp_path / "chars")]) == 1
    err = capsys.readouterr().err
    assert "[wilson] characters" in err and "[sampler]" in err
    assert not (tmp_path / "chars").exists()


def test_wilson_characters_need_only_the_sampler_group(tmp_path, monkeypatch, capsys):
    # [wilson] characters read [sampler] group alone: the cutoff and seed,
    # which wilson never reads, are not required
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out")
    cfg = write(tmp_path / "su2.cfg", text)
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    group_only = write(tmp_path / "group.cfg",
                       "[sampler]\ngroup = su2\n\n" + text[text.index("[flow]"):])
    for name, config in (("group", group_only), ("full", cfg)):
        assert main(["wilson", "--config", config, "--input", field,
                     "--output", str(tmp_path / name)]) == 0, name
    capsys.readouterr()
    assert (tmp_path / "group" / "wilson.csv").read_bytes() == \
        (tmp_path / "full" / "wilson.csv").read_bytes()


@pytest.mark.parametrize("drop, flags", [("cutoff = 3\n", []),
                                         ("seed = 11\n", ["--seed", "11"])],
                         ids=["no_cutoff", "seed_flag"])
def test_ensemble_needs_no_cutoff_and_takes_its_seed_from_the_flag(workspace, capsys,
                                                                   drop, flags):
    # ensemble never reads [sampler] cutoff, and --seed supplies a seed the
    # file leaves out: both give the file-seed run's bytes
    tmp, cfg = workspace
    text = (tmp / "run.cfg").read_text().replace("kind = zdds", "kind = u1_exact") \
        .replace("n_samples = 120", "n_samples = 4")
    assert drop in text
    full = write(tmp / "full.cfg", text)
    edited = write(tmp / "edited.cfg", text.replace(drop, ""))
    assert main(["ensemble", "--config", full, "--output", str(tmp / "full")]) == 0
    assert main(["ensemble", "--config", edited, "--output", str(tmp / "edited")]
                + flags) == 0
    capsys.readouterr()
    for name in ("records.jsonl", "records.csv", "tightness.txt", "convergence.json"):
        assert (tmp / "edited" / name).read_bytes() == (tmp / "full" / name).read_bytes()
    if flags:
        # without the flag the seed is missing, and nothing is written
        assert main(["ensemble", "--config", edited, "--output", str(tmp / "none")]) == 1
        err = capsys.readouterr().err
        assert "a complete [sampler] section is required (missing: seed)" in err
        assert not (tmp / "none").exists()


def test_ensemble_manifest_records_the_seed(tmp_path, monkeypatch, capsys):
    # a seed given by --seed alone is the records' seed, and ensemble.json
    # records it as the sample manifest does
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = EXACT_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS))
    assert "seed = 11\n" in text
    cfg = write(tmp_path / "noseed.cfg", text.replace("seed = 11\n", ""))
    assert main(["ensemble", "--config", cfg, "--seed", "42",
                 "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    manifest = read_manifest(tmp_path / "out" / "ensemble.json")
    assert "seed" not in manifest["config"]["sampler"]
    assert manifest["seed"] == 42
    with (tmp_path / "out" / "records.csv").open() as fh:
        assert {row["seed"] for row in csv.DictReader(fh)} == {"42"}


def test_flow_counts_time_from_its_input_field(tmp_path, monkeypatch, capsys):
    # a resumed flow names its checkpoints and records t by the time elapsed
    # since its input: from checkpoint_t0.01.ymf with t_end = 0.01 it writes
    # the uninterrupted run's t = 0.02 state as checkpoint_t0.01.ymf, and
    # trajectory.json holds the input path and the elapsed times only
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = SU2_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS),
                          out=tmp_path / "out").replace("kind = zdds", "kind = ym")
    full_cfg = write(tmp_path / "full.cfg", text.replace("t_end = 0.01", "t_end = 0.02")
                     .replace("checkpoints = 0.005 0.01", "checkpoints = 0.01"))
    resume_cfg = write(tmp_path / "resume.cfg",
                       text.replace("checkpoints = 0.005 0.01\n", ""))
    assert main(["sample", "--config", full_cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    assert main(["flow", "--config", full_cfg, "--input", field,
                 "--output", str(tmp_path / "full")]) == 0
    checkpoint = str(tmp_path / "full" / "checkpoint_t0.01.ymf")
    assert main(["flow", "--config", resume_cfg, "--input", checkpoint,
                 "--output", str(tmp_path / "resumed")]) == 0
    capsys.readouterr()
    assert (tmp_path / "resumed" / "checkpoint_t0.01.ymf").read_bytes() == \
        (tmp_path / "full" / "checkpoint_t0.02.ymf").read_bytes()
    full = read_manifest(tmp_path / "full" / "trajectory.json")
    resumed = read_manifest(tmp_path / "resumed" / "trajectory.json")
    assert (full["input"], resumed["input"]) == (field, checkpoint)
    assert [(r["t"], r["file"]) for r in full["checkpoints"]] == [
        (0.01, "checkpoint_t0.01.ymf"), (0.02, "checkpoint_t0.02.ymf")]
    assert [(r["t"], r["file"]) for r in resumed["checkpoints"]] == [
        (0.01, "checkpoint_t0.01.ymf")]
    assert (full["attained_time"], resumed["attained_time"]) == (0.02, 0.01)
    assert resumed["checkpoints"][0]["s_ym"] == full["checkpoints"][1]["s_ym"]


EXACT_CFG = """
[sampler]
kind = u1_coulomb
group = u1
seed = 11

[flow]
kind = u1_exact

[loops]
file = {loops}

[wilson]
characters = u1:1 u1:-1

[ensemble]
cutoffs = 2 4
n_samples = 4
times = 0.02
reference_cutoff = 8
"""


@pytest.mark.parametrize("section, line", [
    ("sampler", "stream = 0"),
    ("sampler", "cutoff = 9"),
    ("flow", "t_end = 0.05"),
    ("flow", "checkpoints = 0.01"),
    ("wilson", "times = 0.01"),
], ids=["stream", "cutoff", "t_end", "checkpoints", "wilson_times"])
def test_ensemble_notes_each_key_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                  section, line):
    # a key ensemble does not read is named in one stderr note, and the run
    # keeps the exit code, the config hash and the bytes of the run without it
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = EXACT_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS))
    plain = write(tmp_path / "plain.cfg", text)
    keyed = write(tmp_path / "keyed.cfg",
                  text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert main(["ensemble", "--config", plain, "--output", str(tmp_path / "plain")]) == 0
    assert "note:" not in capsys.readouterr().err
    assert main(["ensemble", "--config", keyed, "--output", str(tmp_path / "keyed")]) == 0
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"note: ensemble does not read [{section}] {key}\n"
    for name in ("records.jsonl", "records.csv", "tightness.txt", "convergence.json"):
        assert (tmp_path / "keyed" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    hashes = {read_manifest(tmp_path / run / "ensemble.json")["config_hash"]
              for run in ("plain", "keyed")}
    assert len(hashes) == 1


def test_ensemble_refuses_a_stream_other_than_zero(tmp_path, monkeypatch, capsys):
    # the members are streams 0..n_samples-1 whatever the file says, so a
    # nonzero stream is refused before the output directory is made
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    text = EXACT_CFG.format(loops=write(tmp_path / "loops.txt", LOOPS))
    cfg = write(tmp_path / "s3.cfg", text.replace("seed = 11", "seed = 11\nstream = 3"))
    assert main(["ensemble", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "[sampler] stream" in err and "got 3" in err
    assert not (tmp_path / "out").exists()


def test_u1_wilson_notes_the_flow_kind_it_does_not_read(workspace, capsys):
    # a U(1) field takes the exact heat semigroup: [flow] kind is named in
    # the note, and the values and the manifest's flow kind stay as without it
    tmp, cfg = workspace
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp / "out" / "field_u1_N3_seed11_s0.ymf")
    text = f"[loops]\nfile = {tmp / 'loops.txt'}\n\n[wilson]\ntimes = 0.01 0.05\n"
    plain = write(tmp / "plain.cfg", text)
    keyed = write(tmp / "keyed.cfg", "[flow]\nkind = zdds\n\n" + text)
    capsys.readouterr()
    assert main(["wilson", "--config", plain, "--input", field,
                 "--output", str(tmp / "plain")]) == 0
    assert "note:" not in capsys.readouterr().err
    assert main(["wilson", "--config", keyed, "--input", field,
                 "--output", str(tmp / "keyed")]) == 0
    assert capsys.readouterr().err == "note: wilson does not read [flow] kind\n"
    assert (tmp / "keyed" / "wilson.csv").read_bytes() == \
        (tmp / "plain" / "wilson.csv").read_bytes()
    assert {read_manifest(tmp / run / "wilson.json")["flow_kind"]
            for run in ("plain", "keyed")} == {"u1_exact"}


def test_wilson_writes_a_manifest(tmp_path, monkeypatch, capsys):
    # wilson.json echoes the config, the input, the loops file (--loops
    # here), the times, the flow kind that ran and the output source
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    cfg = write(tmp_path / "su2.cfg", SU2_CFG.format(loops="unused.txt",
                                                     out=tmp_path / "out"))
    assert main(["sample", "--config", cfg]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    assert main(["wilson", "--config", cfg, "--input", field, "--loops", loops,
                 "--output", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    manifest = read_manifest(tmp_path / "w" / "wilson.json")
    assert manifest["command"] == "wilson"
    assert manifest["config"]["flow"]["kind"] == "zdds"
    assert (manifest["input"], manifest["loops_file"]) == (field, loops)
    assert manifest["times"] == [0.005, 0.01]
    assert manifest["flow_kind"] == "zdds"
    assert manifest["output_dir_source"] == "command line (--output)"
    assert manifest["version"]


FLOW_SECTION = "[flow]\nkind = zdds\nt_end = 0.01\ndt_initial = 1e-3\ncheckpoints = 0.005 0.01\n"


@pytest.mark.parametrize("command, drop, words", [
    ("flow", FLOW_SECTION, "a [flow] section is required"),
    ("wilson", FLOW_SECTION, "a [flow] section is required"),
    ("wilson", "file = {loops}\n", "[loops] file is required"),
    ("wilson", "times = 0.005 0.01\n", "[wilson] times is required"),
    ("ensemble", "times = 0.01\n", "[ensemble] times is required"),
], ids=["flow_section", "su2_wilson_flow", "loops_file", "wilson_times", "ensemble_times"])
def test_a_missing_required_key_is_named_before_any_output(tmp_path, monkeypatch, capsys,
                                                           command, drop, words):
    # config.KEYS says which command requires which key: the one check
    # names the first one missing, and the output directory is never made
    monkeypatch.delenv("YMFLOW_OUTPUT", raising=False)
    monkeypatch.chdir(tmp_path)
    loops = write(tmp_path / "loops.txt", LOOPS)
    text = SU2_CFG.format(loops=loops, out=tmp_path / "out") \
        + "\n[ensemble]\ncutoffs = 2\nn_samples = 2\ntimes = 0.01\n"
    assert main(["sample", "--config", write(tmp_path / "su2.cfg", text)]) == 0
    field = str(tmp_path / "out" / "field_su2_N2_seed5_s0.ymf")
    drop = drop.format(loops=loops)
    assert drop in text
    cfg = write(tmp_path / "bad.cfg", text.replace(drop, ""))
    capsys.readouterr()
    argv = [command, "--config", cfg, "--output", str(tmp_path / "bad")]
    assert main(argv + (["--input", field] if command != "ensemble" else [])) == 1
    assert capsys.readouterr().err == f"error: {words}\n"
    assert not (tmp_path / "bad").exists()
