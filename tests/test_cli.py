import csv
import json

import numpy as np
import pytest

from ymflow.cli import main
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


def test_ensemble_refuses_reference_cutoff_with_scaling(workspace, capsys):
    tmp, cfg = workspace
    bad = write(tmp / "scaled.cfg", (tmp / "run.cfg").read_text()
                .replace("seed = 11", "seed = 11\nscale_to_h1 = 0.5")
                .replace("n_samples = 120", "n_samples = 4"))
    rc = main(["ensemble", "--config", bad, "--output", str(tmp / "scaled")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "reference_cutoff" in err and "scale_to_h1" in err
    assert not (tmp / "scaled" / "records.jsonl").exists()


def test_output_dir_env_override(workspace, capsys, monkeypatch):
    tmp, cfg = workspace
    monkeypatch.setenv("YMFLOW_OUTPUT", str(tmp / "envout"))
    assert main(["sample", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp / "envout" / "field_u1_N3_seed11_s0.ymf").exists()
    manifest = read_manifest(tmp / "envout" / "field_u1_N3_seed11_s0.ymf.json")
    assert "environment" in manifest["output_dir_source"]


def test_seed_flag_overrides_config(workspace, capsys):
    tmp, cfg = workspace
    assert main(["sample", "--config", cfg, "--seed", "99",
                 "--output", str(tmp / "s99")]) == 0
    capsys.readouterr()
    assert (tmp / "s99" / "field_u1_N3_seed99_s0.ymf").exists()


def test_unknown_config_key_exit_code(workspace, capsys):
    tmp, cfg = workspace
    bad = write(tmp / "bad2.cfg", "[sampler]\nwarp = 9\n")
    rc = main(["sample", "--config", bad])
    err = capsys.readouterr().err
    assert rc == 1
    assert "warp" in err


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "zdds-consistency" in out and "PASS" in out


def test_verify_mutation_detected(capsys):
    from ymflow.verify import run_suites
    lines = []
    ok = run_suites(mutations={"zdds-sign"}, out=lines.append)
    assert not ok
    failing = [l for l in lines if "FAIL" in l]
    assert any("zdds-consistency" in l for l in failing)
    assert all("zdds-consistency" in l for l in failing)
    with pytest.raises(ValueError):
        run_suites(mutations={"unknown-mutation"})


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
