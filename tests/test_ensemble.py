from dataclasses import fields, replace

import numpy as np
import pytest

from ymflow.flow import FlowConfig
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
    sample_initial,
    tightness_report,
)
from ymflow.groups import SU2, U1
from ymflow.wilson import Character, axis_cycle, rectangle_loop, u1_wilson_exact

PLAQ = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25, name="plaq")
CYCLE = axis_cycle(0, (0, 0.25, 0.5), name="cx")
CHARS = (Character(U1, "u1_power", 1), Character(U1, "u1_power", 2))


def u1_spec(n_samples=8, cutoffs=(2, 4), times=(0.02,), g=1.0, seed=31,
            loops=(PLAQ, CYCLE)):
    return EnsembleSpec(
        group=U1, sampler_kind="u1_coulomb", seed=seed, cutoffs=cutoffs,
        times=times, n_samples=n_samples,
        flow=FlowConfig("u1_exact", max(times), checkpoint_times=tuple(sorted(times))),
        coupling=g, loops=loops, characters=CHARS,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        u1_spec(cutoffs=(4, 2))
    with pytest.raises(ValueError):
        u1_spec(n_samples=1)
    with pytest.raises(ValueError):
        EnsembleSpec(group=U1, sampler_kind="magic", seed=1, cutoffs=(2,),
                     times=(0.1,), n_samples=4,
                     flow=FlowConfig("u1_exact", 0.1))


def test_record_count_and_bookkeeping():
    spec = u1_spec(n_samples=3, cutoffs=(2, 4, 8))
    recs = run_ensemble(spec)
    assert len(recs) == 3 * 3
    assert all(r.config_hash == spec.config_hash() for r in recs)
    keys = [(r.stream, r.cutoff) for r in recs]
    assert keys == sorted(keys)


def test_zero_coupling_limit_wilson_values():
    spec = u1_spec(n_samples=2, cutoffs=(2,), g=1e-8)
    recs = run_ensemble(spec)
    for rec in recs:
        for value in rec.wilson.values():
            assert abs(value - 1.0) < 1e-6   # chi(id) = 1 for u1 powers


def test_per_seed_cutoff_sequence_cauchy():
    # successive gaps |W_{2M} - W_M| shrink for the coupled draws
    spec = u1_spec(n_samples=6, cutoffs=(2, 4, 8), times=(0.005,))
    recs = run_ensemble(spec)
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
    persist_records(run_ensemble(spec, threads=1), a)
    persist_records(run_ensemble(spec, threads=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_reproducibility_byte_identical(tmp_path):
    spec = u1_spec(n_samples=4)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    persist_records(run_ensemble(spec), a)
    persist_records(run_ensemble(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_persist_load_round_trip(tmp_path):
    spec = u1_spec(n_samples=3)
    recs = run_ensemble(spec)
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
    persist_records(run_ensemble(spec), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=r":3"):
        load_records(path)


def test_load_refuses_hash_mismatch(tmp_path):
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    path = tmp_path / "records.jsonl"
    persist_records(run_ensemble(spec), path)
    with pytest.raises(RecordError, match="hash"):
        load_records(path, expect_hash="deadbeef")
    # records of a run with other numerics are refused too
    other = replace(spec, flow=replace(spec.flow, error_tol=1e-1))
    with pytest.raises(RecordError, match="hash"):
        load_records(path, expect_hash=other.config_hash())
    loaded = load_records(path, expect_hash=spec.config_hash())
    assert loaded


def test_export_csv_mirrors_fields(tmp_path):
    spec = u1_spec(n_samples=2, cutoffs=(2,))
    recs = run_ensemble(spec)
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
    recs = run_ensemble(spec)
    rows = tightness_report(recs, min_samples=100)
    assert len(rows) == 2
    for row in rows:
        assert row.n_used == 150
        assert row.closed_form == pytest.approx(
            closed_form_sym_mean(row.cutoff, row.t), rel=1e-12
        )
        assert abs(row.mean - row.closed_form) < 4 * row.standard_error
        assert not row.flagged
        assert row.all_mode_limit >= row.closed_form - 1e-15
    with pytest.raises(ValueError):
        tightness_report(recs, min_samples=151)


def test_tightness_report_excludes_blowups():
    rec_ok = EnsembleRecord(seed=1, stream=0, cutoff=2, group="su2", g=1.0,
                            s_ym={0.1: 1.0}, attained_time=0.2, blew_up=False)
    rec_bad = EnsembleRecord(seed=1, stream=1, cutoff=2, group="su2", g=1.0,
                             s_ym={0.1: None}, attained_time=0.05, blew_up=True)
    rows = tightness_report([rec_ok, rec_bad] * 60, exact_comparison=False,
                            min_samples=10)
    assert rows[0].n_used == 60
    assert rows[0].n_excluded == 60


def test_closed_form_limit_converges():
    lim = closed_form_sym_limit(0.05)
    assert lim >= closed_form_sym_mean(8, 0.05)
    assert lim == pytest.approx(closed_form_sym_mean(16, 0.05), rel=1e-12)


def test_distribution_convergence_report():
    spec = u1_spec(n_samples=40, cutoffs=(2, 4, 8), times=(0.005,))
    recs = run_ensemble(spec)
    rows, frac = distribution_convergence_report(recs, spec, reference_cutoff=16)
    assert frac >= 0.9
    by_cut = {}
    for r in rows:
        by_cut.setdefault(r.cutoff, []).append(r.per_seed_max_dev)
    # aggregate deviation falls with the cutoff; KS at M=8 below KS at M=2
    assert max(by_cut[8]) < min(by_cut[2])
    ks2 = max(r.ks_distance for r in rows if r.cutoff == 2)
    ks8 = max(r.ks_distance for r in rows if r.cutoff == 8)
    assert ks8 <= ks2
    with pytest.raises(ValueError):
        gff_spec = EnsembleSpec(group=SU2, sampler_kind="gff", seed=1,
                                cutoffs=(2,), times=(0.1,), n_samples=4,
                                flow=FlowConfig("zdds", 0.1))
        distribution_convergence_report(recs, gff_spec, 16)


def test_convergence_report_refuses_rescaled_members():
    # members rescaled to an H^1 norm at their own cutoff share no law
    # with an unscaled reference draw
    spec = replace(u1_spec(n_samples=4, cutoffs=(2,), times=(0.005,)),
                   scale_to_h1=0.5)
    recs = run_ensemble(spec)
    with pytest.raises(ValueError, match="scale"):
        distribution_convergence_report(recs, spec, reference_cutoff=8)


def test_g_to_zero_distribution_collapses():
    spec = u1_spec(n_samples=30, cutoffs=(2,), times=(0.01,), g=1e-7)
    recs = run_ensemble(spec)
    vals = np.array([rec.wilson[(PLAQ.name, "u1:1", 0.01)] for rec in recs])
    assert np.max(np.abs(vals - 1.0)) < 1e-5


def test_tightness_means_tail_gap_between_cutoffs():
    # coupled seeds: mean(2M) - mean(M) estimates the closed-form tail
    # sum over M < |n|_inf <= 2M; assert it within 4 SE of that tail
    t_obs = 0.02
    spec = u1_spec(n_samples=200, cutoffs=(2, 4), times=(t_obs,), loops=())
    recs = run_ensemble(spec)
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
    flow = FlowConfig("zdds", 0.02, dt_initial=1e-3, checkpoint_times=(0.02,),
                      blowup_threshold=1e-9)
    spec = EnsembleSpec(
        group=SU2, sampler_kind="gff", seed=13, cutoffs=(2,), times=(0.02,),
        n_samples=4, flow=flow,
    )
    recs = run_ensemble(spec)
    assert len(recs) == 4
    assert all(r.blew_up for r in recs)
    assert all(r.s_ym[0.02] is None for r in recs)
    assert all(r.attained_time < 0.02 for r in recs)
    with pytest.raises(ValueError, match="usable samples"):
        tightness_report(recs * 30, exact_comparison=False, min_samples=1)


# one differing value per field; a field missing here fails the test below
FLOW_VARIANTS = {
    "flow_kind": "zdds", "t_end": 0.03, "dt_initial": 2e-3,
    "checkpoint_times": (0.01, 0.02), "dt_safety": 0.25,
    "blowup_threshold": 1e3, "resolution": 12, "error_tol": 1e-1,
    "monotone_tol": 1e-6, "max_steps": 7, "debug_checks": True,
}
SPEC_VARIANTS = {
    "group": SU2, "sampler_kind": "gff", "seed": 32, "cutoffs": (2, 3),
    "times": (0.01,), "n_samples": 9, "coupling": 0.5, "loops": (PLAQ,),
    "characters": CHARS[:1], "scale_to_h1": 0.5, "wilson_steps": 64,
}


def test_config_hash_covers_every_field():
    assert set(FLOW_VARIANTS) == {f.name for f in fields(FlowConfig)}
    assert set(SPEC_VARIANTS) | {"flow"} == {f.name for f in fields(EnsembleSpec)}
    base = u1_spec()
    variants = [replace(base, **{name: value})
                for name, value in SPEC_VARIANTS.items()]
    variants += [replace(base, flow=replace(base.flow, **{name: value}))
                 for name, value in FLOW_VARIANTS.items()]
    hashes = [base.config_hash()] + [v.config_hash() for v in variants]
    assert len(set(hashes)) == len(hashes)
    assert base.config_hash() == u1_spec().config_hash()


def test_member_flow_keeps_max_steps():
    flow = FlowConfig("ym", 0.003, dt_initial=1e-3, max_steps=1)
    spec = EnsembleSpec(group=SU2, sampler_kind="gff", seed=5, cutoffs=(1,),
                        times=(0.003,), n_samples=2, flow=flow, scale_to_h1=0.3)
    for rec in run_ensemble(spec):
        assert rec.blew_up
        assert rec.attained_time < 0.003
        assert rec.s_ym[0.003] is None


def test_u1_exact_member_values_match_scalar_formula():
    spec = u1_spec(n_samples=2, cutoffs=(2, 4), times=(0.005, 0.02))
    for rec in run_ensemble(spec):
        a0 = sample_initial(U1, "u1_coulomb", rec.cutoff, spec.seed, rec.stream,
                            spec.coupling)
        assert len(rec.wilson) == len(spec.loops) * len(CHARS) * len(spec.times)
        for lp in spec.loops:
            for ch in CHARS:
                for t in spec.times:
                    w = rec.wilson[(lp.name, ch.label(), t)]
                    assert abs(w - u1_wilson_exact(a0, lp, ch, t)) <= 1e-14


def test_h_series_called_once_per_member_and_loop(monkeypatch):
    import ymflow.ensemble as ens
    calls = []
    real = ens.h_series

    def counting(a, loop, t, cutoff=None):
        calls.append((a.cutoff, loop.name))
        return real(a, loop, t, cutoff)

    monkeypatch.setattr(ens, "h_series", counting)
    spec = u1_spec(n_samples=3, cutoffs=(2, 4), times=(0.005, 0.01, 0.02))
    recs = run_ensemble(spec)
    assert len(calls) == 3 * 2 * len(spec.loops)      # streams x cutoffs x loops
    assert len(set(calls)) == 2 * len(spec.loops)
    calls.clear()
    distribution_convergence_report(recs, spec, reference_cutoff=8)
    assert sorted(calls) == sorted((8, lp.name) for lp in spec.loops for _ in range(3))


@pytest.mark.parametrize("writer", [persist_records, export_csv])
def test_failed_record_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    import ymflow.ensemble as ens
    recs = run_ensemble(u1_spec(n_samples=2, cutoffs=(2,)))
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
