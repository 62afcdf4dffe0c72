import json
import math
import multiprocessing
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from gauge import axis_cycle
from reference import (decreasing_fraction, format_loop_file, loop_fourier_coefficients,
                       member_record, record_rows)
from ymflow.fields import canonical_half_modes, mode_grids, mode_norm_sq
from ymflow.flow import FlowConfig, integrate
from ymflow.ensemble import (
    EnsembleRecord,
    EnsembleSpec,
    RecordError,
    closed_form_sym_limit,
    closed_form_sym_mean,
    distribution_convergence_report,
    export_csv,
    load_records,
    persist_records,
    run_ensemble,
    tightness_report,
)
from ymflow.gff import SamplerConfig, sample_initial
from ymflow.groups import SU2, U1, GroupSpec
from ymflow.wilson import (Character, h_series, parse_loop_file, rectangle_loop,
                           u1_values, visible_modes)

PLAQ = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25, name="plaq")
CYCLE = axis_cycle(0, (0, 0.25, 0.5), name="cx")
CHARS = (Character(U1, "u1_power", 1), Character(U1, "u1_power", 2))


def u1_spec(n_samples=8, cutoffs=(2, 4), times=(0.02,), g=1.0, seed=31,
            loops=(PLAQ, CYCLE), reference_cutoff=None):
    return EnsembleSpec(
        group=U1, sampler_kind="u1_coulomb", seed=seed, cutoffs=cutoffs,
        times=times, n_samples=n_samples,
        flow=FlowConfig("u1_exact"),
        coupling=g, loops=loops, characters=CHARS,
        reference_cutoff=reference_cutoff,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        u1_spec(cutoffs=(4, 2))
    with pytest.raises(ValueError):
        u1_spec(n_samples=1)
    with pytest.raises(ValueError):
        EnsembleSpec(group=U1, sampler_kind="magic", seed=1, cutoffs=(2,),
                     times=(0.1,), n_samples=4,
                     flow=FlowConfig("u1_exact"))
    # a NaN coupling would write NaN records, NaN times fail only inside
    # integrate, and scale_to_h1 = 0 or -1 zero or flip the members
    nan, inf = float("nan"), float("inf")
    for key, bad in [("coupling", nan), ("coupling", inf), ("coupling", 0.0),
                     ("times", (0.01, nan)), ("times", (inf,)),
                     ("scale_to_h1", 0.0), ("scale_to_h1", -1.0),
                     ("scale_to_h1", nan), ("cutoffs", (0, 2)), ("cutoffs", (-1,))]:
        with pytest.raises(ValueError, match=key):
            replace(u1_spec(), **{key: bad})
    for bad in (nan, inf, -1.0):
        with pytest.raises(ValueError, match="coupling"):
            SamplerConfig(U1, 2, seed=1, coupling=bad)


@pytest.mark.parametrize("sampler_kind, flow_kind", [
    ("gff", "u1_exact"), ("u1_coulomb", "ym")], ids=["u1_exact", "u1_coulomb"])
def test_spec_refuses_u1_only_kinds_on_su2(sampler_kind, flow_kind):
    # a member would refuse them only once it runs, after the workers start
    with pytest.raises(ValueError, match=r"U\(1\)-only|requires group u1"):
        EnsembleSpec(group=SU2, sampler_kind=sampler_kind, seed=1, cutoffs=(2,),
                     times=(0.1,), n_samples=4, flow=FlowConfig(flow_kind))


def test_spec_reads_times_like_integrate():
    with pytest.raises(ValueError, match="observation times"):
        u1_spec(times=[[0.01]])
    assert u1_spec(times=0.01).times == (0.01,)


def test_specs_of_separately_parsed_loops_compare_equal():
    text = format_loop_file([PLAQ, CYCLE])
    first, second = (u1_spec(loops=tuple(parse_loop_file(text))) for _ in range(2))
    assert first == second
    assert first.config_hash() == second.config_hash()


def test_spec_refuses_repeated_time():
    # a repeated time once repeated every convergence row observed at it
    with pytest.raises(ValueError, match="repeat"):
        u1_spec(times=(0.005, 0.02, 0.005))
    spec = u1_spec(times=(0.005, 0.02))
    with pytest.raises(ValueError, match="repeat"):
        replace(spec, times=(0.02, 0.02))


def test_record_count_and_bookkeeping():
    spec = u1_spec(n_samples=3, cutoffs=(2, 4, 8))
    recs, _ = run_ensemble(spec)
    assert len(recs) == 3 * 3
    assert all(r.config_hash == spec.config_hash() for r in recs)
    keys = [(r.stream, r.cutoff) for r in recs]
    assert keys == sorted(keys)


def test_zero_coupling_limit_wilson_values():
    spec = u1_spec(n_samples=2, cutoffs=(2,), g=1e-8)
    recs, _ = run_ensemble(spec)
    for rec in recs:
        for value in rec.wilson.values():
            assert abs(value - 1.0) < 1e-6   # chi(id) = 1 for u1 powers


def test_per_seed_cutoff_sequence_cauchy():
    # successive gaps |W_{2M} - W_M| shrink for the coupled draws
    spec = u1_spec(n_samples=6, cutoffs=(2, 4, 8), times=(0.005,))
    recs, _ = run_ensemble(spec)
    by = {(r.stream, r.cutoff): r for r in recs}
    key = (PLAQ.name, "u1:1", 0.005)
    for s in range(6):
        w2 = by[(s, 2)].wilson[key]
        w4 = by[(s, 4)].wilson[key]
        w8 = by[(s, 8)].wilson[key]
        assert abs(w4 - w2) > abs(w8 - w4)


def test_threads_do_not_change_records(tmp_path):
    spec = u1_spec(n_samples=4)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    persist_records(run_ensemble(spec, threads=1)[0], a)
    persist_records(run_ensemble(spec, threads=3)[0], b)
    assert a.read_bytes() == b.read_bytes()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes need fork; elsewhere members run serially")


def test_su2_ym_records_identical_in_worker_processes(tmp_path):
    # flowed members computed in forked workers persist to the same bytes
    # as the serial run
    spec = EnsembleSpec(
        group=SU2, sampler_kind="gff", seed=41, cutoffs=(2, 3),
        times=(0.002, 0.004), n_samples=2,
        flow=FlowConfig("ym", dt_initial=1e-3), scale_to_h1=0.5,
        loops=(PLAQ,), characters=(Character(SU2, "fundamental"),),
    )
    paths = []
    for threads in (1, 2):
        paths.append(tmp_path / f"records-{threads}.jsonl")
        persist_records(run_ensemble(spec, threads=threads)[0], paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


class MemberFailure(Exception):
    pass


@needs_fork
def test_member_exception_reaches_caller_with_its_type(monkeypatch):
    # the cutoff-4 members fail inside their worker process; the caller
    # sees the member's own exception type, raised in another process
    import ymflow.ensemble as ensemble_mod

    read_values = ensemble_mod._read_values

    def failing(spec, products, cutoff):
        if cutoff == 4:
            raise MemberFailure(f"raised in process {os.getpid()}")
        return read_values(spec, products, cutoff)

    monkeypatch.setattr(ensemble_mod, "_read_values", failing)
    with pytest.raises(MemberFailure) as info:
        run_ensemble(u1_spec(n_samples=3), threads=2)
    assert str(info.value) != f"raised in process {os.getpid()}"


@needs_fork
def test_worker_pool_capped_at_member_count(monkeypatch):
    # a fork pool launches every worker at once, so the cap comes first
    import ymflow.ensemble as ensemble_mod

    requested = []
    real_pool = ensemble_mod.ProcessPoolExecutor

    def recording_pool(workers, **kwargs):
        requested.append(workers)
        assert workers <= 2, "pool not capped before forking"
        return real_pool(workers, **kwargs)

    monkeypatch.setattr(ensemble_mod, "ProcessPoolExecutor", recording_pool)
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    assert len(run_ensemble(spec, threads=8)[0]) == 2
    assert requested == [2]
    assert len(run_ensemble(replace(spec, n_samples=3), threads=1)[0]) == 3
    assert requested == [2]


def test_reproducibility_byte_identical(tmp_path):
    spec = u1_spec(n_samples=4)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    persist_records(run_ensemble(spec)[0], a)
    persist_records(run_ensemble(spec)[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_persist_load_round_trip(tmp_path):
    spec = u1_spec(n_samples=3)
    recs, _ = run_ensemble(spec)
    path = tmp_path / "records.jsonl"
    persist_records(recs, path)
    back = load_records(path)
    assert len(back) == len(recs)
    for r1, r2 in zip(recs, back):
        assert r1.stream == r2.stream and r1.cutoff == r2.cutoff
        assert r1.s_ym == r2.s_ym
        assert r1.wilson == r2.wilson
    # bit-exact when re-persisted
    path2 = tmp_path / "again.jsonl"
    persist_records(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_reports_corrupt_line(tmp_path):
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec)[0], path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=r":3"):
        load_records(path)


def test_load_reports_rows_of_the_wrong_shape(tmp_path):
    # a line that is not an object, an observation row without its value
    # and a stream that is a list each name their line, not a TypeError
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec)[0], path)
    good = path.read_text().splitlines()
    row = json.loads(good[1])
    assert row["loop_id"] is not None
    bad_rows = ["5", "[1, 2]", "null",
                json.dumps({**row, "wilson_re": None}),
                json.dumps({**row, "character_id": None}),
                json.dumps({**row, "stream": [0]}),
                json.dumps({**row, "cutoff": 2.0}),
                json.dumps({**row, "blew_up": 0}),
                json.dumps({**row, "seed": True}),
                json.dumps({**row, "t": "0.02"}),
                json.dumps({**row, "config_hash": None})]
    for bad in bad_rows:
        lines = list(good)
        lines[1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match=r":2: "):
            load_records(path)
    # a row without an observation, or of a member without an action, loads
    # (as its member's only row: its s_ym must agree with the member's
    # other rows at its time)
    bare = {**row, "loop_id": None, "character_id": None, "wilson_re": None,
            "wilson_im": None, "s_ym": None}
    others = [line for line in good if json.loads(line)["stream"] != row["stream"]]
    path.write_text("\n".join([json.dumps(bare)] + others) + "\n")
    [rec] = [r for r in load_records(path) if r.stream == row["stream"]]
    assert rec.s_ym == {row["t"]: None} and not rec.wilson


def test_load_refuses_rows_that_contradict_their_member(tmp_path):
    # a repeated row once replaced the first one's action, and a member
    # field that differs from the member's first row was dropped unread
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec)[0], path)
    good = path.read_text().splitlines()
    row = json.loads(good[1])
    assert (row["stream"], row["cutoff"]) == tuple(json.loads(good[0])[k]
                                                   for k in ("stream", "cutoff"))
    again = json.dumps({**row, "s_ym": 123.0})
    path.write_text("\n".join(good + [again]) + "\n")
    with pytest.raises(RecordError, match=rf":{len(good) + 1}: repeats the "
                                          "observation of line 2"):
        load_records(path)
    for name, value in (("seed", row["seed"] + 1), ("group", "su2"), ("g", 2.0),
                        ("attained_time", 0.5), ("blew_up", True),
                        ("config_hash", "c0ffee"), ("g", int(row["g"]))):
        lines = list(good)
        lines[1] = json.dumps({**row, name: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match=rf":2: member fields \['{name}'\] "
                                              "contradict line 1"):
            load_records(path)


def test_load_refuses_an_s_ym_that_contradicts_its_time(tmp_path):
    # every (loop, character) row of a member at t repeats its s_ym; the
    # last row read once won silently
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec)[0], path)
    good = path.read_text().splitlines()
    first, row = json.loads(good[0]), json.loads(good[1])
    assert [first[k] for k in ("stream", "cutoff", "t")] == \
        [row[k] for k in ("stream", "cutoff", "t")]
    assert isinstance(row["s_ym"], float)
    for value in (999.0, None, -row["s_ym"], int(row["s_ym"])):
        lines = list(good)
        lines[1] = json.dumps({**row, "s_ym": value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match=r":2: s_ym contradicts line 1"):
            load_records(path)


def test_load_refuses_hash_mismatch(tmp_path):
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec)[0], path)
    with pytest.raises(RecordError, match="hash"):
        load_records(path, expect_hash="deadbeef")
    # records of a run with other numerics are refused too
    other = replace(spec, flow=replace(spec.flow, error_tol=1e-1))
    with pytest.raises(RecordError, match="hash"):
        load_records(path, expect_hash=other.config_hash())
    loaded = load_records(path, expect_hash=spec.config_hash())
    assert loaded


def _awkward_records():
    # NaN, +-inf and None actions and values, -0.0, a blown-up member with
    # no Wilson value, an int coupling, numpy scalars (a conjugate
    # character's values), and loop names with ',', '"' and non-ASCII
    # characters; dicts in the order load_records rebuilds them
    nan, inf = float("nan"), float("inf")
    return [
        EnsembleRecord(seed=7, stream=0, cutoff=2, group="u1", g=0.7,
                       s_ym={0.005: 1.25, 0.02: nan},
                       wilson={("a,b", "u1:1", 0.005): complex(0.5, -0.0),
                               ('q"x', "u1:1", 0.005): complex(inf, -inf),
                               ("é✓", "u1:2", 0.02): complex(nan, 1e-300)},
                       attained_time=0.02, config_hash="c0ffee"),
        EnsembleRecord(seed=7, stream=1, cutoff=2, group="u1", g=0.7,
                       s_ym={0.005: None, 0.02: -inf}, attained_time=0.004,
                       blew_up=True, config_hash="c0ffee"),
        EnsembleRecord(seed=7, stream=2, cutoff=4, group="su2", g=1,
                       s_ym={0.01: 3.0, 0.5: 1e22},
                       wilson={("plaq", "conjugate", 0.01): np.complex128(1.5 - 2.5e-17j),
                               ("plaq", "fundamental", 0.5): 1e-7 + 0j},
                       attained_time=0.5, config_hash="c0ffee"),
    ]


def test_record_writers_render_like_json_and_csv(tmp_path):
    # the once-per-record renderers write the bytes of json.dumps of each
    # row's dict and of csv.writer, and load_records reads them back
    import csv
    import io
    from ymflow.ensemble import RECORD_FIELDS
    recs = _awkward_records()
    persist_records(recs, tmp_path / "r.jsonl")
    export_csv(recs, tmp_path / "r.csv")
    rows = [row for rec in recs for row in record_rows(rec)]
    assert len(rows) == 7
    want = "".join(json.dumps(dict(zip(RECORD_FIELDS, row))) + "\n" for row in rows)
    assert (tmp_path / "r.jsonl").read_text() == want
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RECORD_FIELDS)
    writer.writerows(rows)
    with open(tmp_path / "r.csv", newline="") as fh:
        assert fh.read() == buf.getvalue()
    # the Python-valued records round-trip; repr tells NaN, -0.0 and types
    loaded = load_records(tmp_path / "r.jsonl")
    assert repr(loaded[:2]) == repr(recs[:2])
    persist_records(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "r.jsonl").read_bytes()


def test_export_csv_mirrors_fields(tmp_path):
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    recs, _ = run_ensemble(spec)
    path = tmp_path / "records.csv"
    export_csv(recs, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == [
        "seed", "stream", "cutoff", "group", "g", "t", "s_ym",
        "loop_id", "character_id", "wilson_re", "wilson_im",
        "attained_time", "blew_up", "config_hash",
    ]


def test_tightness_report_values_and_flags():
    spec = u1_spec(n_samples=150, cutoffs=(2, 4), times=(0.05,), loops=())
    recs, _ = run_ensemble(spec)
    rows = tightness_report(recs, spec)
    assert len(rows) == 2
    for row in rows:
        assert row.n_used == 150
        assert row.closed_form == pytest.approx(
            closed_form_sym_mean(row.cutoff, row.t), rel=1e-12
        )
        assert abs(row.mean - row.closed_form) < 4 * row.standard_error
        assert not row.flagged
        assert row.all_mode_limit >= row.closed_form - 1e-15


@pytest.mark.parametrize("kind, scale", [("gff", None), ("u1_coulomb", 50.0)],
                         ids=["gff", "rescaled"])
def test_tightness_closed_form_only_for_unscaled_coulomb(kind, scale):
    # the closed-form series is the law of unscaled u1_coulomb members;
    # U(1) members of another law sit far above its all-mode limit, so
    # only the spec can say that the series applies
    spec = EnsembleSpec(group=U1, sampler_kind=kind, seed=17, cutoffs=(2, 3),
                        times=(0.01, 0.05), n_samples=200,
                        flow=FlowConfig("u1_exact"), scale_to_h1=scale)
    recs, _ = run_ensemble(spec)
    rows = tightness_report(recs, spec)
    assert len(rows) == 4
    for row in rows:
        assert row.n_used == 200
        assert row.mean > closed_form_sym_limit(row.t) + 5.0 * row.standard_error
        assert row.closed_form is None and row.all_mode_limit is None
        assert not row.flagged
    # the same draws unscaled and Coulomb-sampled carry the series
    coulomb = replace(spec, sampler_kind="u1_coulomb", scale_to_h1=None)
    rows = tightness_report(run_ensemble(coulomb)[0], coulomb)
    assert all(r.closed_form is not None and not r.flagged for r in rows)


def test_tightness_report_excludes_blowups():
    rec_ok = EnsembleRecord(seed=1, stream=0, cutoff=2, group="su2", g=1.0,
                            s_ym={0.1: 1.0}, attained_time=0.2, blew_up=False)
    rec_bad = EnsembleRecord(seed=1, stream=1, cutoff=2, group="su2", g=1.0,
                             s_ym={0.1: None}, attained_time=0.05, blew_up=True)
    spec = EnsembleSpec(group=SU2, sampler_kind="gff", seed=1, cutoffs=(2,),
                        times=(0.1,), n_samples=2, flow=FlowConfig("ym"))
    rows = tightness_report([rec_ok, rec_bad] * 60, spec)
    assert rows[0].n_used == 60
    assert rows[0].n_excluded == 60
    # below 2 usable samples a row has no mean or standard error
    for recs in ([rec_ok, rec_bad, rec_bad], [rec_bad]):
        (row,) = tightness_report(recs, spec)
        assert row.mean is None and row.standard_error is None
        assert not row.flagged


def test_closed_form_limit_converges():
    lim = closed_form_sym_limit(0.05)
    assert lim >= closed_form_sym_mean(8, 0.05)
    assert lim == pytest.approx(closed_form_sym_mean(16, 0.05), rel=1e-12)


@pytest.mark.parametrize("t", [1e-8, 6e-9, 5e-9, 1e-9, 1e-12])
def test_closed_form_limit_at_small_times_matches_dual_series(t):
    # Jacobi's transform of the axis sum s = 2 sum_{k>=1} e^(-8 pi^2 k^2 t):
    # 1 + s = (1 + 2 sum_{k>=1} e^(-k^2/(8t))) / sqrt(8 pi t), whose terms
    # vanish at these times; the direct series needs thousands of terms
    # at 1e-8 and more on either side of the switch near 5.3e-9
    k = np.arange(1, 10)
    s = (1.0 + 2.0 * np.sum(np.exp(-k * k / (8.0 * t)))) / np.sqrt(8.0 * np.pi * t) - 1.0
    want = (1.0 + s) ** 3 - 1.0
    assert closed_form_sym_limit(t) == pytest.approx(want, rel=1e-13)
    assert closed_form_sym_limit(t, 0.5) == pytest.approx(0.25 * want, rel=1e-13)


def test_closed_form_mean_matches_direct_cube_sum():
    # the axis-factorized sum against fsum over every nonzero mode of the
    # cube, all cutoffs sharing the exponentials of the largest cube
    axis = np.arange(-32, 33)
    nsq = (axis[:, None, None] ** 2 + axis[None, :, None] ** 2
           + axis[None, None, :] ** 2).astype(float)
    for t in (1e-4, 2e-3, 0.02, 0.5):
        terms = np.exp(-8.0 * np.pi**2 * nsq * t)
        terms[32, 32, 32] = 0.0
        for cutoff in range(1, 33):
            lo, hi = 32 - cutoff, 33 + cutoff
            want = math.fsum(terms[lo:hi, lo:hi, lo:hi].ravel())
            got = closed_form_sym_mean(cutoff, t)
            assert abs(got - want) <= 2e-15 * want, (cutoff, t)
    assert closed_form_sym_mean(3, 0.0, coupling=2.0) == 4.0 * (7**3 - 1)


def test_u1_reports_build_no_mode_grid_above_run_cutoffs():
    # the closed forms need no mode grid: the reports only touch the
    # cutoffs the run itself uses
    spec = u1_spec(n_samples=100, cutoffs=(2, 4), times=(0.005, 0.02), loops=(PLAQ,),
                   reference_cutoff=8)
    recs, reference = run_ensemble(spec)
    mode_grids.cache_clear()
    mode_norm_sq.cache_clear()
    rows = tightness_report(recs, spec)
    assert all(r.all_mode_limit is not None for r in rows)
    distribution_convergence_report(recs, spec, reference)
    # the reports read the records and the reference values only
    assert mode_grids.cache_info().currsize == 0
    assert mode_norm_sq.cache_info().currsize == 0
    used = (2, 4, 8)
    for cutoff in used:
        mode_grids(cutoff)
        mode_norm_sq(cutoff)
    assert mode_grids.cache_info().currsize == len(used)
    assert mode_norm_sq.cache_info().currsize == len(used)


def test_distribution_convergence_report():
    spec = u1_spec(n_samples=40, cutoffs=(2, 4, 8), times=(0.005,),
                   reference_cutoff=16)
    recs, reference = run_ensemble(spec)
    rows, frac = distribution_convergence_report(recs, spec, reference)
    assert frac >= 0.9
    assert frac == decreasing_fraction(recs, spec, reference)
    by_cut = {}
    for r in rows:
        by_cut.setdefault(r.cutoff, []).append(r.per_seed_max_dev)
    # aggregate deviation falls with the cutoff; KS at M=8 below KS at M=2
    assert max(by_cut[8]) < min(by_cut[2])
    ks2 = max(r.ks_distance for r in rows if r.cutoff == 2)
    ks8 = max(r.ks_distance for r in rows if r.cutoff == 8)
    assert ks8 <= ks2
    with pytest.raises(ValueError, match="reference_cutoff needs a U"):
        EnsembleSpec(group=SU2, sampler_kind="gff", seed=1, cutoffs=(2,),
                     times=(0.1,), n_samples=4, flow=FlowConfig("zdds"),
                     loops=(PLAQ,), reference_cutoff=16)
    with pytest.raises(ValueError, match="reference"):
        distribution_convergence_report(recs, spec, None)


def test_convergence_report_refuses_rescaled_members():
    # members rescaled to an H^1 norm at their own cutoff share no law
    # with an unscaled reference draw, so the spec refuses to ask for one
    spec = replace(u1_spec(n_samples=4, cutoffs=(2,), times=(0.005,)),
                   scale_to_h1=0.5)
    with pytest.raises(ValueError, match="scale"):
        replace(spec, reference_cutoff=8)


def test_convergence_report_refuses_reference_at_or_below_largest_cutoff():
    # a reference no finer than the members reads the largest cutoff as
    # converged to itself, so the spec refuses to ask for one
    for reference_cutoff in (2, 4):
        with pytest.raises(ValueError, match="reference cutoff"):
            u1_spec(n_samples=4, cutoffs=(2, 4), times=(0.005,),
                    reference_cutoff=reference_cutoff)


def test_reference_run_builds_one_loop_table_per_loop(monkeypatch):
    # one table per loop, at the centre and the reference cutoff's half
    # modes visible at the earliest time (every phase reads only those):
    # members and the reference gather it, a second run of the same shape
    # reuses it, and the convergence report builds none
    import ymflow.wilson as wil
    built = []
    real = wil._loop_table

    def counting(loop, cutoff, index):
        built.append((loop.name, cutoff,
                      "dense" if isinstance(index, slice) else len(index)))
        return real(loop, cutoff, index)

    monkeypatch.setattr(wil, "_loop_table", counting)
    wil._half_table.cache_clear()
    spec = u1_spec(n_samples=4, cutoffs=(2, 4, 8), times=(0.005, 0.02),
                   reference_cutoff=12)
    recs, reference = run_ensemble(spec)
    upper = len(visible_modes(12, 0.005)) // 2 + 1
    assert upper < (25**3 + 1) // 2            # some modes are cut
    assert sorted(built) == [("cx", 12, upper), ("plaq", 12, upper)]
    run_ensemble(spec)
    distribution_convergence_report(recs, spec, reference)
    assert len(built) == 2


def test_convergence_report_refuses_reference_without_loops():
    # the report compares Wilson loops, so a reference needs some
    with pytest.raises(ValueError, match="reference_cutoff needs loops"):
        u1_spec(n_samples=4, cutoffs=(2,), times=(0.005,), loops=(),
                reference_cutoff=8)


@pytest.mark.parametrize("flow", [FlowConfig("u1_exact"),
                                  FlowConfig("ym", dt_initial=2.5e-3)],
                         ids=["u1_exact", "ym"])
def test_draws_once_per_stream(monkeypatch, flow):
    # one draw per stream, at the reference cutoff (of the modes it needs)
    # or else at the largest member cutoff, serves every member of the
    # stream whatever the flow, and a flowed run's reference values are
    # the exact run's
    import ymflow.ensemble as ens
    draws = []
    real = ens._stored

    def counting(kind, cfg, index=slice(None)):
        draws.append((cfg.stream, cfg.cutoff))
        return real(kind, cfg, index)

    exact = u1_spec(n_samples=3, cutoffs=(1, 2), times=(0.005,))
    _, want = run_ensemble(replace(exact, reference_cutoff=4))
    spec = replace(exact, flow=flow)
    monkeypatch.setattr(ens, "_stored", counting)
    recs, reference = run_ensemble(spec)
    assert len(recs) == 6 and reference is None
    assert sorted(draws) == [(s, 2) for s in range(3)]
    draws.clear()
    recs, reference = run_ensemble(replace(spec, reference_cutoff=4))
    assert len(recs) == 6 and sorted(reference) == list(range(3))
    assert sorted(draws) == [(s, 4) for s in range(3)]
    assert reference == want


@pytest.mark.parametrize("kind, scale_to_h1, reference_cutoff", [
    pytest.param("u1_exact", None, 12, id="None-12"),
    pytest.param("u1_exact", 0.5, None, id="0.5-None"),
    pytest.param("ym", None, 4, id="ym-None-4"),
    pytest.param("ym", 0.5, None, id="ym-0.5-None"),
    pytest.param("su2-ym", 0.5, None, id="su2-ym-0.5-None"),
])
def test_members_from_one_draw_equal_direct_draws(kind, scale_to_h1, reference_cutoff):
    # filling each member from the stream's draw gives its direct draw bit
    # for bit, and a member's actions are those of integrate on that draw
    if kind == "u1_exact":
        spec = u1_spec(n_samples=3, cutoffs=(2, 4, 8), times=(0.02, 0.005))
    elif kind == "ym":
        spec = replace(u1_spec(n_samples=3, cutoffs=(1, 2), times=(0.005, 0.0025)),
                       flow=FlowConfig("ym", dt_initial=2.5e-3))
    else:
        spec = replace(su2_ym_spec((0.002, 0.004)), cutoffs=(1, 2))
    spec = replace(spec, scale_to_h1=scale_to_h1, reference_cutoff=reference_cutoff)
    recs, reference = run_ensemble(spec)
    config_hash = spec.config_hash()
    for rec in recs:
        a0 = sample_initial(spec.group, spec.sampler_kind, rec.cutoff, spec.seed,
                            rec.stream, spec.coupling, scale_to_h1)
        assert rec == member_record(spec, rec.stream, a0, config_hash)
        traj = integrate(a0, spec.flow, spec.times)
        assert rec.s_ym == traj.actions
        assert rec.attained_time == traj.attained_time == max(spec.times)
    for stream, values in (reference or {}).items():
        a_ref = sample_initial(U1, "u1_coulomb", reference_cutoff, spec.seed,
                               stream, spec.coupling)
        assert values == u1_values([h_series(a_ref, lp, spec.times) for lp in spec.loops],
                                   spec.loops, spec.characters, spec.times)


def test_stream_draws_member_and_heat_visible_modes():
    # at R = 16 and t_min = 0.005 a stream draws 6446 of the 17968 half
    # modes: every mode of the largest member cutoff, and the modes of
    # weight above e^(-41.6) at t_min
    import ymflow.ensemble as ens
    drawn, visible, members, tables, *_ = ens._stream_modes(16, (2, 4, 8), (0.005,))
    half = canonical_half_modes(16)
    assert (len(drawn), len(half)) == (6446, 17968)
    assert np.array_equal(tables.modes, half[drawn])
    extent = np.max(np.abs(half), axis=1)
    for c, pos in zip((2, 4, 8), members):
        assert np.array_equal(drawn[pos], np.flatnonzero(extent <= c))
    index = visible_modes(16, 0.005)
    assert np.array_equal(drawn[visible], index[index > len(half)] - len(half) - 1)


@pytest.mark.parametrize("kind, group, top, cutoffs, t_min", [
    ("u1_coulomb", U1, 12, (2, 4, 8), 0.005), ("u1_coulomb", U1, 4, (2, 4), 0.02),
    ("gff", SU2, 6, (2, 4), 0.1), ("gff", GroupSpec("su", 3), 3, (1, 3), 0.02)])
def test_stream_tables_draw_the_full_draw(kind, group, top, cutoffs, t_min):
    # the sampler tables of a stream shape are built once and read-only,
    # and _stored on them gives the full draw's values at the drawn modes,
    # on the first call and on every later one
    import ymflow.ensemble as ens
    from ymflow.gff import _stored
    modes = ens._stream_modes(top, cutoffs, (t_min,))
    drawn, tables = modes.drawn, modes.tables
    assert ens._stream_modes(top, cutoffs, (t_min,)) is modes
    assert all(not x.flags.writeable for x in tables)
    assert np.array_equal(tables.modes, canonical_half_modes(top)[drawn])
    for stream in (0, 3, 0):
        cfg = SamplerConfig(group, top, seed=41, stream=stream, coupling=0.8)
        full = _stored(kind, cfg)
        assert _stored(kind, cfg, tables).tobytes() == full[..., drawn].tobytes()


@pytest.mark.parametrize("g", [1.0, 0.7])
def test_reference_phases_match_exact_sum_of_full_cube(g):
    # the reference reads only the modes visible at the earliest time; its
    # phases are those of every term of the cutoff-16 cube, summed exactly
    from ymflow.fields import heat_weights
    spec = u1_spec(n_samples=4, cutoffs=(2, 4, 8), times=(0.005, 0.02), g=g,
                   reference_cutoff=16)
    _, reference = run_ensemble(spec)
    for stream, values in reference.items():
        a = sample_initial(U1, "u1_coulomb", 16, spec.seed, stream, g)
        for lp in spec.loops:
            per_mode = np.sum(a.coeffs[0] * loop_fourier_coefficients(lp, 16), axis=0)
            for t, w in zip(spec.times, heat_weights(16, spec.times)):
                phase = math.fsum((w * per_mode.real).ravel())
                assert abs(values[(lp.name, "u1:1", t)] - np.exp(1j * phase)) <= 1e-14


def test_uncut_reference_equals_full_cube_h_series():
    # when no mode of R is cut at t_min the reference is h_series of the
    # full cutoff-R draw, bit for bit
    spec = u1_spec(n_samples=3, cutoffs=(2, 4), times=(0.02, 0.005),
                   reference_cutoff=6)
    assert len(visible_modes(6, 0.005)) == 13**3
    _, reference = run_ensemble(spec)
    for stream, values in reference.items():
        a = sample_initial(U1, "u1_coulomb", 6, spec.seed, stream)
        for lp in spec.loops:
            for t, phase in zip(spec.times, h_series(a, lp, spec.times)):
                for ch in CHARS:
                    assert values[(lp.name, ch.label(), t)] == ch.u1_value(phase)


def test_convergence_report_draws_nothing(monkeypatch):
    import ymflow.ensemble as ens
    import ymflow.gff as gff
    spec = u1_spec(n_samples=6, cutoffs=(2, 4), times=(0.005, 0.02),
                   reference_cutoff=8)
    recs, reference = run_ensemble(spec)
    want = distribution_convergence_report(recs, spec, reference)

    def no_draw(*args, **kwargs):
        raise AssertionError("the report drew a field")

    for mod, name in ((ens, "_stored"), (gff, "_stored"), (gff, "sample_u1_coulomb"),
                      (gff, "sample_gff")):
        monkeypatch.setattr(mod, name, no_draw)
    monkeypatch.setattr(gff, "mode_gaussians", no_draw)
    assert distribution_convergence_report(recs, spec, reference) == want


def test_g_to_zero_distribution_collapses():
    spec = u1_spec(n_samples=30, cutoffs=(2,), times=(0.01,), g=1e-7)
    recs, _ = run_ensemble(spec)
    vals = np.array([rec.wilson[(PLAQ.name, "u1:1", 0.01)] for rec in recs])
    assert np.max(np.abs(vals - 1.0)) < 1e-5


def test_tightness_means_tail_gap_between_cutoffs():
    # coupled seeds: mean(2M) - mean(M) estimates the closed-form tail
    # sum over M < |n|_inf <= 2M; assert it within 4 SE of that tail
    t_obs = 0.02
    spec = u1_spec(n_samples=200, cutoffs=(2, 4), times=(t_obs,), loops=())
    recs, _ = run_ensemble(spec)
    by = {}
    for r in recs:
        by.setdefault(r.cutoff, {})[r.stream] = r.s_ym[t_obs]
    diffs = np.array([by[4][s] - by[2][s] for s in sorted(by[2])])
    tail = closed_form_sym_mean(4, t_obs) - closed_form_sym_mean(2, t_obs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert diffs.min() >= 0.0          # per-seed tails are sums of squares
    assert abs(diffs.mean() - tail) <= 4 * se


def test_ensemble_records_blowups_not_fatal():
    # a sabotaged threshold makes every member halt at once; the run
    # completes, records carry the flag, and statistics exclude them
    flow = FlowConfig("zdds", dt_initial=1e-3, blowup_threshold=1e-9)
    spec = EnsembleSpec(
        group=SU2, sampler_kind="gff", seed=13, cutoffs=(2,), times=(0.02,),
        n_samples=4, flow=flow,
    )
    recs, _ = run_ensemble(spec)
    assert len(recs) == 4
    assert all(r.blew_up for r in recs)
    assert all(r.s_ym[0.02] is None for r in recs)
    assert all(r.attained_time < 0.02 for r in recs)
    (row,) = tightness_report(recs * 30, spec)
    assert (row.n_used, row.n_excluded) == (0, 120)
    assert row.mean is None


# one differing value per field; a field missing here fails the test below
FLOW_VARIANTS = {
    "flow_kind": "zdds", "dt_initial": 2e-3, "dt_safety": 0.25,
    "blowup_threshold": 1e3, "error_tol": 1e-1,
}
SPEC_VARIANTS = {
    "group": SU2, "sampler_kind": "gff", "seed": 32, "cutoffs": (2, 3),
    "times": (0.01,), "n_samples": 9, "coupling": 0.5, "loops": (PLAQ,),
    "characters": CHARS[:1], "scale_to_h1": 0.5, "wilson_steps": 64,
    "reference_cutoff": 8,
}


# an SU(2) spec needs a sampler and a flow that run on SU(2)
SU2_RUNNABLE = {"sampler_kind": "gff", "flow": FlowConfig("ym")}


def test_config_hash_covers_every_field():
    assert set(FLOW_VARIANTS) == {f.name for f in fields(FlowConfig)}
    assert set(SPEC_VARIANTS) | {"flow"} == {f.name for f in fields(EnsembleSpec)}
    base = u1_spec()
    variants = [replace(base, **{name: value},
                        **(SU2_RUNNABLE if name == "group" else {}))
                for name, value in SPEC_VARIANTS.items()]
    variants += [replace(base, flow=replace(base.flow, **{name: value}))
                 for name, value in FLOW_VARIANTS.items()]
    hashes = [base.config_hash()] + [v.config_hash() for v in variants]
    assert len(set(hashes)) == len(hashes)
    assert base.config_hash() == u1_spec().config_hash()


def test_member_flow_keeps_max_steps(monkeypatch):
    import ymflow.flow as flow_mod
    monkeypatch.setattr(flow_mod, "MAX_STEPS", 1)
    flow = FlowConfig("ym", dt_initial=1e-3)
    spec = EnsembleSpec(group=SU2, sampler_kind="gff", seed=5, cutoffs=(1,),
                        times=(0.003,), n_samples=2, flow=flow, scale_to_h1=0.3)
    for rec in run_ensemble(spec)[0]:
        assert rec.blew_up
        assert rec.attained_time < 0.003
        assert rec.s_ym[0.003] is None


def su2_ym_spec(times):
    return EnsembleSpec(
        group=SU2, sampler_kind="gff", seed=43, cutoffs=(2,), times=times,
        n_samples=2, flow=FlowConfig("ym", dt_initial=2e-3),
        scale_to_h1=0.5, loops=(PLAQ,),
        characters=(Character(SU2, "fundamental"),),
    )


def test_member_flow_ends_at_last_observation_time():
    # a member flows to its last observation time and reads its state
    # there, the same bits as a flow run to that time on its own
    spec = su2_ym_spec((0.02,))
    for rec in run_ensemble(spec)[0]:
        assert rec.attained_time == 0.02
        assert not rec.blew_up
        assert rec.s_ym[0.02] is not None and len(rec.wilson) == 1
        a0 = sample_initial(SU2, "gff", rec.cutoff, spec.seed, rec.stream,
                            scale_to_h1=spec.scale_to_h1)
        assert rec.s_ym[0.02] == integrate(a0, spec.flow, (0.02,)).actions[0.02]


def test_u1_exact_member_horizon_is_last_observation_time():
    spec = u1_spec(n_samples=2, cutoffs=(2,), times=(0.05, 0.02))
    for rec in run_ensemble(spec)[0]:
        assert rec.attained_time == 0.05
        assert all(rec.s_ym[t] is not None for t in spec.times)


def test_ym_member_observed_at_two_times_runs():
    for rec in run_ensemble(su2_ym_spec((0.004, 0.008)))[0]:
        assert not rec.blew_up
        assert rec.attained_time == 0.008
        assert all(rec.s_ym[t] is not None for t in (0.004, 0.008))
        assert len(rec.wilson) == 2


def test_u1_exact_member_values_match_scalar_formula():
    spec = u1_spec(n_samples=2, cutoffs=(2, 4), times=(0.005, 0.02))
    for rec in run_ensemble(spec)[0]:
        a0 = sample_initial(U1, "u1_coulomb", rec.cutoff, spec.seed, rec.stream,
                            spec.coupling)
        assert len(rec.wilson) == len(spec.loops) * len(CHARS) * len(spec.times)
        for lp in spec.loops:
            for ch in CHARS:
                for t in spec.times:
                    w = rec.wilson[(lp.name, ch.label(), t)]
                    assert abs(w - ch.u1_value(h_series(a0, lp, t))) <= 1e-14


def _visible_count(cutoff, t_min):
    return len(visible_modes(cutoff, t_min))


def _forbid(monkeypatch, *targets):
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact stream called a per-member path")

    for mod, name in targets:
        monkeypatch.setattr(mod, name, forbidden)


def test_exact_phases_one_contraction_per_member(monkeypatch):
    # the exact phases of a member or a reference are one _phase_sums
    # contraction of its loop products stacked (loops, modes), over its
    # cutoff's modes visible at the earliest time: one per (stream, member
    # cutoff or reference); h_series does not run, and the report
    # contracts nothing
    import ymflow.ensemble as ens
    import ymflow.wilson as wil
    calls = []
    real = ens._phase_sums

    def counting(per_mode, weights):
        calls.append(per_mode.shape)
        return real(per_mode, weights)

    monkeypatch.setattr(ens, "_phase_sums", counting)
    _forbid(monkeypatch, (wil, "h_series"))
    spec = u1_spec(n_samples=3, cutoffs=(2, 4), times=(0.005, 0.01, 0.02))
    run_ensemble(spec)
    per_stream = [(len(spec.loops), _visible_count(c, 0.005)) for c in (2, 4)]
    assert sorted(calls) == sorted(per_stream * 3)        # streams x cutoffs
    calls.clear()
    # the reference adds one contraction per stream at its cutoff
    spec = replace(spec, reference_cutoff=8)
    recs, reference = run_ensemble(spec)
    per_stream.append((len(spec.loops), _visible_count(8, 0.005)))
    assert sorted(calls) == sorted(per_stream * 3)
    calls.clear()
    distribution_convergence_report(recs, spec, reference)
    assert calls == []


def test_exact_stream_one_product_per_loop_and_no_member_cube(monkeypatch):
    # a u1_exact stream fills no member cube, runs no flow and calls no
    # h_series: one per-mode product per (stream, loop), at the drawn
    # modes visible at the earliest time, serves every member and the
    # reference; rescaled members each form their own
    import ymflow.ensemble as ens
    import ymflow.flow as flow_mod
    import ymflow.gff as gff_mod
    import ymflow.wilson as wil
    _forbid(monkeypatch, (gff_mod, "_filled"), (ens, "_filled"),
            (flow_mod, "integrate"), (ens, "integrate"),
            (wil, "h_series"))
    products = []
    real = ens._mode_product

    def counting(coeffs, table, out=None):
        products.append(coeffs.shape[-1])
        return real(coeffs, table, out)

    monkeypatch.setattr(ens, "_mode_product", counting)
    spec = u1_spec(n_samples=3, cutoffs=(2, 4), times=(0.005, 0.02),
                   reference_cutoff=12)
    run_ensemble(spec)
    # every drawn mode is visible here: the draw is read as it is
    visible = len(visible_modes(12, 0.005)) // 2
    assert visible == len(ens._stream_modes(12, (2, 4), (0.005, 0.02)).drawn)
    assert products == [visible] * (3 * len(spec.loops))
    products.clear()
    run_ensemble(replace(spec, reference_cutoff=None))
    assert products == [len(canonical_half_modes(4))] * (3 * len(spec.loops))
    products.clear()
    run_ensemble(replace(spec, reference_cutoff=None, scale_to_h1=0.5))
    assert products == [len(canonical_half_modes(4))] * (3 * 2 * len(spec.loops))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cutoffs, times, reference_cutoff", [
    pytest.param((2, 4), (0.02, 0.005), None, id="no-reference"),
    pytest.param((2, 4), (0.02, 0.005), 6, id="uncut-reference"),
    pytest.param((2, 4, 8), (0.005, 0.02), 12, id="cut-reference"),
    pytest.param((2, 8), (0.1, 0.05), None, id="member-modes-cut"),
    pytest.param((2, 4), (0.05, 0.1), None, id="largest-member-cut"),
    pytest.param((2, 4), (0.05, 0.1), 6, id="largest-member-cut-reference"),
])
def test_exact_read_out_equals_member_oracle(cutoffs, times, reference_cutoff, threads):
    # every record and reference value of the per-mode read-out equals
    # integrate + h_series on the member's own draw, bit for bit (repr
    # tells -0.0 from 0.0): with no reference, a reference uncut at t_min,
    # a cut one, and a largest member cutoff cut at t_min (at t = 0.05 the
    # visible radius is about 4.6), where the members' modes among the
    # visible ones are a proper gather, with or without a reference

    def cut(c):
        return len(visible_modes(c, min(times))) < (2 * c + 1) ** 3

    # every reference is cut at t_min but R = 6 at t = 0.005, and the
    # largest member exactly at t = 0.05
    if reference_cutoff is not None:
        assert cut(reference_cutoff) == ((reference_cutoff, min(times)) != (6, 0.005))
    assert cut(cutoffs[-1]) == (min(times) == 0.05)
    spec = u1_spec(n_samples=3, cutoffs=cutoffs, times=times,
                   reference_cutoff=reference_cutoff)
    recs, reference = run_ensemble(spec, threads=threads)
    config_hash = spec.config_hash()
    assert len(recs) == 3 * len(cutoffs)
    for rec in recs:
        a0 = sample_initial(U1, "u1_coulomb", rec.cutoff, spec.seed, rec.stream,
                            spec.coupling)
        assert repr(rec) == repr(member_record(spec, rec.stream, a0, config_hash))
    for stream, values in (reference or {}).items():
        a_ref = sample_initial(U1, "u1_coulomb", reference_cutoff, spec.seed, stream,
                               spec.coupling)
        want = u1_values([h_series(a_ref, lp, spec.times) for lp in spec.loops],
                         spec.loops, spec.characters, spec.times)
        assert repr(values) == repr(want)


def test_numerical_wilson_path_one_holonomy_per_member_loop_and_time(monkeypatch):
    # every character is read off one holonomy per (member, loop, t), and
    # the values equal per-character wilson_loop calls bit for bit
    import ymflow.wilson as wil
    calls = []
    real = wil.holonomy

    def counting(evaluator, loop, steps=128, **kwargs):
        calls.append(loop.name)
        return real(evaluator, loop, steps, **kwargs)

    monkeypatch.setattr(wil, "holonomy", counting)
    times = (0.005, 0.01)
    spec = replace(u1_spec(n_samples=2, cutoffs=(2,), times=times),
                   flow=FlowConfig("ym", dt_initial=2.5e-3))
    recs, _ = run_ensemble(spec)
    assert len(calls) == 2 * len(spec.loops) * len(times)
    monkeypatch.setattr(wil, "holonomy", real)
    rec = recs[0]
    a0 = sample_initial(spec.group, spec.sampler_kind, rec.cutoff, spec.seed,
                        rec.stream, spec.coupling)
    traj = integrate(a0, spec.flow, times)
    for t in times:
        for lp in spec.loops:
            for ch in spec.characters:
                want = wil.wilson_loop(traj.states[t], lp, ch, steps=spec.wilson_steps)
                assert rec.wilson[(lp.name, ch.label(), t)] == want


def _plain_ks(x, y):
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def test_ks_distance_reads_rounding_as_ties():
    from ymflow.ensemble import _ks_distance
    rng = np.random.default_rng(41)
    x = rng.normal(size=40)
    # one ulp (~1e-16 relative) above each value: a distance of 1/40 to
    # the plain statistic, none here
    assert _plain_ks(x, np.nextafter(x, np.inf)) == pytest.approx(1 / 40)
    assert _ks_distance(x, np.nextafter(x, np.inf)) == 0.0
    assert _ks_distance(x, x) == 0.0
    # values more than 1e-9 apart: exactly the plain statistic
    for shift in (0.0, 0.3, 2.0):
        y = rng.normal(size=25) + shift
        both = np.sort(np.concatenate([x, y]))
        assert np.min(np.diff(both)) > 1e-9
        assert _ks_distance(x, y) == _plain_ks(x, y)
        assert _ks_distance(y, x) == _plain_ks(y, x)


@pytest.mark.parametrize("writer", [persist_records, export_csv])
def test_failed_record_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    import ymflow.ensemble as ens
    recs, _ = run_ensemble(u1_spec(n_samples=2, cutoffs=(2,)))
    path = tmp_path / "records.out"
    writer(recs, path)
    before = path.read_bytes()
    real_rows = ens._rows_of

    def failing_rows(rec):
        yield next(real_rows(rec))
        raise OSError("disk full")

    monkeypatch.setattr(ens, "_rows_of", failing_rows)
    with pytest.raises(OSError, match="disk full"):
        writer(recs, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.out"]


# SHA-256 of the persist_records bytes and of repr(reference), pinned
# while members were still restricted copies of a full draw: an SU(2) GFF
# YM ensemble rescaled to an H^1 norm, a U(1) exact ensemble whose
# reference at R = 12 cuts the modes invisible at t = 0.005, and one
# without a reference
def _pinned_spec(case):
    if case == "su2-ym-h1":
        return replace(su2_ym_spec((0.004, 0.008)), cutoffs=(1, 2))
    spec = u1_spec(n_samples=3, cutoffs=(2, 4), times=(0.005, 0.02))
    return replace(spec, reference_cutoff=12) if case == "u1-reference-cut" else spec


# repr(None)
NONE_DIGEST = "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91"


@pytest.mark.parametrize("case, records_digest, reference_digest", [
    ("su2-ym-h1",
     "250c395f1b6909e01988d17ba835563d61aba8414d0002cb57eafcde5c277ad4", NONE_DIGEST),
    ("u1-reference-cut",
     "1f350a752d724089a440bf8f9e4d676ca3f875883649aeb60eb62024c887d3ac",
     "c1f1ffa0e602d90700e611559a72818e0ac8f4ce4787a6a2c0fb8d557a5ff90f"),
    ("u1-no-reference",
     "a768ac1c4af05429704d42937fd549f0d4a4533f524335f9df20ddf11028626f", NONE_DIGEST),
])
def test_stream_outputs_pinned(tmp_path, case, records_digest, reference_digest):
    import hashlib
    recs, reference = run_ensemble(_pinned_spec(case))
    persist_records(recs, tmp_path / "records.jsonl")
    got = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    assert got == records_digest
    assert hashlib.sha256(repr(reference).encode()).hexdigest() == reference_digest
