import pytest

from ymflow.config import ConfigError, default_characters, parse_config
from ymflow.groups import SU2, U1

GOOD = """
[sampler]
kind = u1_coulomb
group = u1
cutoff = 4
coupling = 1.5
seed = 7
stream = 2

[flow]
kind = zdds
t_end = 0.2
dt_initial = 1e-3
checkpoints = 0.01 0.05 0.2

[loops]
file = loops.txt
steps = 96

[wilson]
characters = u1:1 u1:-1
times = 0.01

[ensemble]
cutoffs = 2 4 8
n_samples = 10
times = 0.05
reference_cutoff = 16

[output]
dir = results
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.sampler_kind == "u1_coulomb"
    assert cfg.group == U1
    assert cfg.cutoff == 4
    assert cfg.coupling == 1.5
    assert cfg.seed == 7 and cfg.stream == 2
    assert cfg.flow.flow_kind == "zdds"
    assert cfg.flow_times == (0.01, 0.05, 0.2)
    assert cfg.wilson_steps == 96
    assert [ch.label() for ch in cfg.characters] == ["u1:1", "u1:-1"]
    assert cfg.ens_cutoffs == (2, 4, 8)
    assert cfg.ens_reference_cutoff == 16
    assert cfg.output_dir == "results"


def test_flow_section_with_only_kind_is_flow_config_defaults(monkeypatch):
    # the numerics a file leaves out take FlowConfig's defaults, which
    # parse_config does not restate: it passes only the keys that are set
    import ymflow.config as config_mod
    from ymflow.flow import FlowConfig
    for kind in ("ym", "zdds", "u1_exact"):
        assert parse_config(f"[flow]\nkind = {kind}\n").flow == FlowConfig(kind)
    passed = []

    def recording(**kwargs):
        passed.append(kwargs)
        return FlowConfig(**kwargs)

    monkeypatch.setattr(config_mod, "FlowConfig", recording)
    parse_config("[flow]\nkind = ym\n")
    parse_config("[flow]\nkind = zdds\nerror_tol = 1e-4\n")
    assert passed == [{"flow_kind": "ym"},
                      {"flow_kind": "zdds", "error_tol": 1e-4}]


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[warp]\nspeed = 9\n")
    with pytest.raises(ConfigError, match="unknown key 'speed'"):
        parse_config("[sampler]\nspeed = 9\n")


def test_physical_validation():
    with pytest.raises(ConfigError, match="coupling"):
        parse_config("[sampler]\nkind = gff\ngroup = su2\ncutoff = 2\n"
                     "coupling = -1\nseed = 1\n")
    with pytest.raises(ConfigError, match="cutoff"):
        parse_config("[sampler]\nkind = gff\ngroup = su2\ncutoff = 0\nseed = 1\n")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config("[flow]\nkind = ym\nt_end = 0\n")
    with pytest.raises(ConfigError, match="times"):
        parse_config(GOOD.replace("times = 0.05", "times = -0.05"))
    with pytest.raises(ConfigError, match="u1_coulomb requires"):
        parse_config("[sampler]\nkind = u1_coulomb\ngroup = su2\ncutoff = 2\nseed = 1\n")
    with pytest.raises(ConfigError, match="cutoffs"):
        parse_config(GOOD.replace("cutoffs = 2 4 8", "cutoffs = 8 4"))


def test_flow_times_union_of_checkpoints_and_t_end():
    cfg = parse_config("[flow]\nkind = ym\nt_end = 0.2\ncheckpoints = 0.05, 0.01\n")
    assert cfg.flow_times == (0.01, 0.05, 0.2)
    assert parse_config("[flow]\nkind = ym\nt_end = 0.2\n").flow_times == (0.2,)
    # a checkpoint at t_end, or within rounding past it, is the last time
    cfg = parse_config("[flow]\nkind = ym\nt_end = 0.2\ncheckpoints = 0.2\n")
    assert cfg.flow_times == (0.2,)
    cfg = parse_config("[flow]\nkind = ym\nt_end = 0.2\n"
                       "checkpoints = 0.1 0.20000000000000004\n")
    assert cfg.flow_times == (0.1, 0.20000000000000004)
    with pytest.raises(ConfigError, match=r"\[flow\] checkpoints"):
        parse_config("[flow]\nkind = ym\nt_end = 0.2\ncheckpoints = 0.1 0.3\n")
    with pytest.raises(ConfigError, match=r"\[flow\] checkpoints"):
        parse_config("[flow]\nkind = ym\nt_end = 0.2\ncheckpoints = 0 0.1\n")


def test_t_end_optional_outside_flow_command():
    cfg = parse_config("[flow]\nkind = zdds\ndt_initial = 2e-3\n")
    assert cfg.flow_times == ()
    assert (cfg.flow.flow_kind, cfg.flow.dt_initial) == ("zdds", 2e-3)
    # and neither time changes how the flow integrates
    assert parse_config(GOOD).flow == \
        parse_config(GOOD.replace("t_end = 0.2", "t_end = 0.5")).flow


def test_reference_cutoff_must_exceed_largest_cutoff():
    for ref in (2, 8):
        with pytest.raises(ConfigError, match=r"\[ensemble\] reference_cutoff"):
            parse_config(GOOD.replace("reference_cutoff = 16",
                                      f"reference_cutoff = {ref}"))
    assert parse_config(GOOD.replace("reference_cutoff = 16",
                                     "reference_cutoff = 9")).ens_reference_cutoff == 9


@pytest.mark.parametrize("section, old", [
    ("wilson", "times = 0.01"), ("ensemble", "times = 0.05"),
    ("flow", "checkpoints = 0.01 0.05 0.2")],
    ids=["wilson", "ensemble", "flow"])
def test_repeated_time_refused(section, old):
    # a repeated time once repeated every output row observed at it
    key = old.split()[0]
    text = GOOD.replace(old, old + " 0.03 " + old.split()[-1])
    with pytest.raises(ConfigError,
                       match=rf"\[{section}\] {key}: time {old.split()[-1]} is repeated"):
        parse_config(text)
    # the same time written another way is the same time
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        parse_config(GOOD.replace(old, f"{old} 1e-2 5e-2"))


def test_bad_numbers_named():
    with pytest.raises(ConfigError, match=r"\[sampler\] seed"):
        parse_config("[sampler]\nkind = gff\ngroup = su2\ncutoff = 2\nseed = abc\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("old, new, name", [
    ("coupling = 1.5", "coupling = {}", r"\[sampler\] coupling"),
    ("dt_initial = 1e-3", "dt_initial = 1e-3\nblowup_threshold = {}",
     r"\[flow\] blowup_threshold"),
    ("times = 0.05", "times = 0.05 {}", r"\[ensemble\] times"),
], ids=["coupling", "blowup_threshold", "ensemble_times"])
def test_nonfinite_numbers_rejected(old, new, name, value):
    # a NaN coupling would write NaN records, a NaN threshold would switch
    # the blow-up guard off
    with pytest.raises(ConfigError, match=name + ".*finite"):
        parse_config(GOOD.replace(old, new.format(value)))


def test_default_characters():
    u1c = default_characters(U1)
    assert [c.label() for c in u1c] == ["u1:1", "u1:-1", "u1:2"]
    su2c = default_characters(SU2)
    assert [c.label() for c in su2c] == ["fundamental", "conjugate"]
