"""Flat key=value run configuration with strict validation.

The format is INI-style sections of ``key = value`` pairs, diff-friendly
and hashable for provenance.  Unknown sections or keys are rejected by
name, and numbers must parse and be finite.  Physical quantities are
checked by the objects the configuration builds (FlowConfig, Character,
the sampler, seed, coupling, scale and ensemble checks), whose refusals
name the section, so commands can assume a valid configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .ensemble import _check_shape, _check_times
from .flow import FlowConfig
from .gff import _check_coupling, _check_sampler, _check_scale, _check_seed
from .groups import GroupSpec
from .wilson import WILSON_STEPS, Character

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(Exception):
    pass


_ALLOWED = {
    "sampler": {"kind", "group", "cutoff", "coupling", "seed", "stream",
                "scale_to_h1"},
    "flow": {"kind", "t_end", "dt_initial", "dt_safety", "checkpoints",
             "blowup_threshold", "error_tol"},
    "loops": {"file", "steps"},
    "wilson": {"characters", "times"},
    "ensemble": {"cutoffs", "n_samples", "times", "reference_cutoff"},
    "output": {"dir"},
}


# [flow] numerics passed to FlowConfig, which checks them
_FLOW_NUMERICS = ("dt_initial", "dt_safety", "blowup_threshold", "error_tol")


@dataclass
class RunConfig:
    path: str = "<memory>"
    sampler_kind: str | None = None
    group: GroupSpec | None = None
    cutoff: int | None = None
    coupling: float = 1.0
    seed: int | None = None
    stream: int = 0
    scale_to_h1: float | None = None
    flow: FlowConfig | None = None
    flow_times: tuple = ()      # [flow] checkpoints and t_end, read by `flow`
    loops_file: str | None = None
    wilson_steps: int = WILSON_STEPS
    characters: tuple = ()
    wilson_times: tuple = ()
    ens_cutoffs: tuple = ()
    ens_n_samples: int | None = None
    ens_times: tuple = ()
    ens_reference_cutoff: int | None = None
    output_dir: str = "out"
    raw: dict = dc_field(default_factory=dict)


def _fail(section, key, msg):
    raise ConfigError(f"[{section}] {key}: {msg}")


def _owned(where, check, *args, **kwargs):
    """check(*args, **kwargs), the owner of a rule, its ValueError raised
    as a ConfigError led by where ("[section]" or "[section] key:")."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _get_float(section, items, key, default=None, positive=False):
    if key not in items:
        if default is None:
            _fail(section, key, "missing required key")
        return default
    try:
        v = float(items[key])
    except ValueError:
        _fail(section, key, f"not a number: {items[key]!r}")
    if not math.isfinite(v):
        _fail(section, key, f"must be finite, got {v}")
    if positive and v <= 0:
        _fail(section, key, f"must be positive, got {v}")
    return v


def _get_int(section, items, key, default=None, minimum=None):
    if key not in items:
        if default is None:
            _fail(section, key, "missing required key")
        return default
    try:
        v = int(items[key])
    except ValueError:
        _fail(section, key, f"not an integer: {items[key]!r}")
    if minimum is not None and v < minimum:
        _fail(section, key, f"must be at least {minimum}, got {v}")
    return v


def _get_floats(section, items, key):
    if key not in items:
        return ()
    toks = items[key].replace(",", " ").split()
    try:
        values = tuple(float(t) for t in toks)
    except ValueError:
        _fail(section, key, f"expected numbers, got {items[key]!r}")
    if not all(math.isfinite(v) for v in values):
        _fail(section, key, f"expected finite numbers, got {items[key]!r}")
    return values


def _parse_characters(value, group: GroupSpec):
    chars = []
    for tok in value.replace(",", " ").split():
        if tok in ("fundamental", "conjugate"):
            chars.append(Character(group, tok))
        elif tok.startswith("u1:"):
            try:
                k = int(tok[3:])
            except ValueError:
                _fail("wilson", "characters", f"bad power in {tok!r}")
            chars.append(_owned("[wilson] characters:", Character, group, "u1_power", k))
        else:
            _fail("wilson", "characters", f"unknown character {tok!r}")
    return tuple(chars)


def parse_config(text: str, path: str = "<memory>") -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    cfg = RunConfig(path=path)
    for section in parser.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        cfg.raw[section] = dict(parser[section])

    if "sampler" in cfg.raw:
        items = cfg.raw["sampler"]
        if "group" not in items:
            _fail("sampler", "group", "missing required key")
        cfg.group = _owned("[sampler] group:", GroupSpec.from_label, items["group"])
        cfg.sampler_kind = items.get("kind", "gff").strip()
        _owned("[sampler] kind:", _check_sampler, cfg.sampler_kind, cfg.group)
        # cutoff and seed are checked where given; the commands that read
        # them require them (cli._require_sampler)
        if "cutoff" in items:
            cfg.cutoff = _get_int("sampler", items, "cutoff", minimum=1)
        cfg.coupling = _get_float("sampler", items, "coupling", 1.0)
        _owned("[sampler] coupling:", _check_coupling, cfg.coupling)
        if "seed" in items:
            cfg.seed = _get_int("sampler", items, "seed")
        cfg.stream = _get_int("sampler", items, "stream", 0)
        _owned("[sampler]", _check_seed, cfg.seed or 0, cfg.stream)
        if "scale_to_h1" in items:
            cfg.scale_to_h1 = _get_float("sampler", items, "scale_to_h1")
            _owned("[sampler] scale_to_h1:", _check_scale, cfg.scale_to_h1)

    if "flow" in cfg.raw:
        items = cfg.raw["flow"]
        checkpoints = _get_floats("flow", items, "checkpoints")
        _owned("[flow]", _check_times, checkpoints, "checkpoints")
        if "t_end" in items:
            t_end = _get_float("flow", items, "t_end", positive=True)
            if any(t > t_end * (1 + 1e-12) for t in checkpoints):
                _fail("flow", "checkpoints", "times must lie in (0, t_end]")
            # a checkpoint within rounding past t_end ends the run itself
            last = () if max(checkpoints, default=0.0) >= t_end else (t_end,)
            cfg.flow_times = tuple(sorted({*checkpoints, *last}))
        # only the keys the file sets: the defaults are FlowConfig's
        numerics = {key: _get_float("flow", items, key)
                    for key in _FLOW_NUMERICS if key in items}
        cfg.flow = _owned("[flow]", FlowConfig,
                          flow_kind=items.get("kind", "").strip(), **numerics)

    if "loops" in cfg.raw:
        items = cfg.raw["loops"]
        cfg.loops_file = items.get("file")
        cfg.wilson_steps = _get_int("loops", items, "steps", WILSON_STEPS, minimum=1)

    if "wilson" in cfg.raw:
        items = cfg.raw["wilson"]
        if "characters" in items:
            if cfg.group is None:
                _fail("wilson", "characters", "needs a [sampler] section for the group")
            cfg.characters = _parse_characters(items["characters"], cfg.group)
        cfg.wilson_times = _get_floats("wilson", items, "times")
        _owned("[wilson]", _check_times, cfg.wilson_times)

    if "ensemble" in cfg.raw:
        items = cfg.raw["ensemble"]
        cutoffs = _get_floats("ensemble", items, "cutoffs")
        if not cutoffs:
            _fail("ensemble", "cutoffs", "missing required key")
        if any(c != int(c) for c in cutoffs):
            _fail("ensemble", "cutoffs", "expected integers")
        cfg.ens_cutoffs = tuple(int(c) for c in cutoffs)
        cfg.ens_n_samples = _get_int("ensemble", items, "n_samples")
        cfg.ens_times = _get_floats("ensemble", items, "times")
        if "reference_cutoff" in items:
            cfg.ens_reference_cutoff = _get_int("ensemble", items, "reference_cutoff")
        _owned("[ensemble]", _check_shape, cfg.ens_cutoffs, cfg.ens_n_samples,
               cfg.ens_times, cfg.ens_reference_cutoff)

    if "output" in cfg.raw:
        cfg.output_dir = cfg.raw["output"].get("dir", "out")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(), str(path))


def default_characters(group: GroupSpec) -> tuple:
    if group.kind == "u1":
        return (Character(group, "u1_power", 1),
                Character(group, "u1_power", -1),
                Character(group, "u1_power", 2))
    return (Character(group, "fundamental"), Character(group, "conjugate"))
