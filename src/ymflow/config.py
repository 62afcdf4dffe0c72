"""Flat key=value run configuration with strict validation.

The format is INI-style sections of ``key = value`` pairs, diff-friendly
and hashable for provenance.  Sections or keys not in KEYS are rejected
by name, and numbers must parse and be finite.  Physical quantities are
checked by the objects the configuration builds (FlowConfig, Character,
the sampler, seed, coupling, scale and ensemble checks), whose refusals
name the section, so commands can assume a valid configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

from .ensemble import _check_shape, _check_times
from .flow import FlowConfig
from .gff import _check_coupling, _check_sampler, _check_scale, _check_seed
from .groups import GroupSpec
from .wilson import WILSON_STEPS, Character

__all__ = ["KEYS", "ConfigError", "RunConfig", "check_keys", "load_config",
           "parse_config"]


class ConfigError(Exception):
    pass


# (section, key): (the commands that read it, the commands that require
# it).  A key that enters EnsembleSpec.config_hash counts as read; wilson
# reads no [flow] key of a U(1) field, which takes the exact heat semigroup.
KEYS = {
    ("sampler", "kind"): ("sample ensemble", ""),
    ("sampler", "group"): ("sample wilson ensemble", "sample ensemble"),
    ("sampler", "cutoff"): ("sample", "sample"),
    ("sampler", "coupling"): ("sample ensemble", ""),
    ("sampler", "seed"): ("sample ensemble", "sample ensemble"),
    ("sampler", "stream"): ("sample", ""),
    ("sampler", "scale_to_h1"): ("sample ensemble", ""),
    ("flow", "kind"): ("flow wilson ensemble", "flow wilson ensemble"),
    ("flow", "t_end"): ("flow", "flow"),
    ("flow", "checkpoints"): ("flow", ""),
    ("flow", "dt_initial"): ("flow wilson ensemble", ""),
    ("flow", "dt_safety"): ("flow wilson ensemble", ""),
    ("flow", "blowup_threshold"): ("flow wilson ensemble", ""),
    ("flow", "error_tol"): ("flow wilson ensemble", ""),
    ("loops", "file"): ("wilson ensemble", "wilson"),
    ("loops", "steps"): ("wilson ensemble", ""),
    ("wilson", "characters"): ("wilson ensemble", ""),
    ("wilson", "times"): ("wilson", "wilson"),
    ("ensemble", "cutoffs"): ("ensemble", "ensemble"),
    ("ensemble", "n_samples"): ("ensemble", "ensemble"),
    ("ensemble", "times"): ("ensemble", "ensemble"),
    ("ensemble", "reference_cutoff"): ("ensemble", ""),
    ("output", "dir"): ("sample flow wilson ensemble", ""),
}
# the [flow] numerics: FlowConfig's fields after flow_kind
_FLOW_NUMERICS = tuple(f.name for f in fields(FlowConfig))[1:]


@dataclass
class RunConfig:
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


def _number(section, items, key, default=None, cast=float, minimum=None):
    """items[key] read by cast (float or int), a float finite, and at
    least minimum; default where the file leaves key out."""
    if key not in items:
        return default
    try:
        v = cast(items[key])
    except ValueError:
        _fail(section, key, f"not {'a number' if cast is float else 'an integer'}: "
                            f"{items[key]!r}")
    if cast is float and not math.isfinite(v):
        _fail(section, key, f"must be finite, got {v}")
    if minimum is not None and v < minimum:
        _fail(section, key, f"must be at least {minimum}, got {v}")
    return v


def _floats(section, items, key):
    """The numbers of a list key, separated by spaces or commas; () where
    the file leaves key out."""
    return tuple(_number(section, {key: tok}, key)
                 for tok in items.get(key, "").replace(",", " ").split())


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

    cfg = RunConfig()
    for section in parser.sections():
        if section not in {s for s, _ in KEYS}:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        cfg.raw[section] = dict(parser[section])

    # a key is checked where given; check_keys refuses a required one missing
    if "sampler" in cfg.raw:
        items = cfg.raw["sampler"]
        if "group" in items:
            cfg.group = _owned("[sampler] group:", GroupSpec.from_label, items["group"])
        cfg.sampler_kind = items.get("kind", "gff").strip()
        _owned("[sampler] kind:", _check_sampler, cfg.sampler_kind, cfg.group)
        cfg.cutoff = _number("sampler", items, "cutoff", cast=int, minimum=1)
        cfg.coupling = _number("sampler", items, "coupling", 1.0)
        _owned("[sampler] coupling:", _check_coupling, cfg.coupling)
        cfg.seed = _number("sampler", items, "seed", cast=int)
        cfg.stream = _number("sampler", items, "stream", 0, int)
        _owned("[sampler]", _check_seed, cfg.seed or 0, cfg.stream)
        cfg.scale_to_h1 = _number("sampler", items, "scale_to_h1")
        _owned("[sampler] scale_to_h1:", _check_scale, cfg.scale_to_h1)

    if "flow" in cfg.raw:
        items = cfg.raw["flow"]
        checkpoints = _floats("flow", items, "checkpoints")
        _owned("[flow]", _check_times, checkpoints, "checkpoints")
        if "t_end" in items:
            t_end = _number("flow", items, "t_end")
            _owned("[flow]", _check_times, (t_end,), "t_end")
            if any(t > t_end * (1 + 1e-12) for t in checkpoints):
                _fail("flow", "checkpoints", "times must lie in (0, t_end]")
            # a checkpoint within rounding past t_end ends the run itself
            last = () if max(checkpoints, default=0.0) >= t_end else (t_end,)
            cfg.flow_times = tuple(sorted({*checkpoints, *last}))
        # only the keys the file sets: the defaults are FlowConfig's
        numerics = {key: _number("flow", items, key)
                    for key in _FLOW_NUMERICS if key in items}
        cfg.flow = _owned("[flow]", FlowConfig,
                          flow_kind=items.get("kind", "").strip(), **numerics)

    if "loops" in cfg.raw:
        items = cfg.raw["loops"]
        cfg.loops_file = items.get("file")
        cfg.wilson_steps = _number("loops", items, "steps", WILSON_STEPS, int, 1)

    if "wilson" in cfg.raw:
        items = cfg.raw["wilson"]
        if "characters" in items:
            if cfg.group is None:
                _fail("wilson", "characters", "needs [sampler] group")
            cfg.characters = _parse_characters(items["characters"], cfg.group)
        cfg.wilson_times = _floats("wilson", items, "times")
        _owned("[wilson]", _check_times, cfg.wilson_times)

    if "ensemble" in cfg.raw:
        items = cfg.raw["ensemble"]
        cutoffs = _floats("ensemble", items, "cutoffs")
        if any(c != int(c) for c in cutoffs):
            _fail("ensemble", "cutoffs", "expected integers")
        cfg.ens_cutoffs = tuple(int(c) for c in cutoffs)
        cfg.ens_n_samples = _number("ensemble", items, "n_samples", cast=int)
        cfg.ens_times = _floats("ensemble", items, "times")
        cfg.ens_reference_cutoff = _number("ensemble", items, "reference_cutoff", cast=int)
        # the shape rules read cutoffs, n_samples and times, which ensemble requires
        if cfg.ens_cutoffs and cfg.ens_n_samples is not None and items.get("times"):
            _owned("[ensemble]", _check_shape, cfg.ens_cutoffs, cfg.ens_n_samples,
                   cfg.ens_times, cfg.ens_reference_cutoff)

    cfg.output_dir = cfg.raw.get("output", {}).get("dir", "out")
    return cfg


def check_keys(cfg: RunConfig, command: str, given=(), skip=()) -> list:
    """Refuse cfg when it lacks a key command requires (KEYS) or leaves it
    empty, the (section, key) pairs in given, which flags supplied, counting
    as set; else return the "[section] key" names cfg sets that command
    does not read.  A section in skip is neither read nor required."""
    missing = [(section, key) for (section, key), (_, required) in KEYS.items()
               if command in required.split() and section not in skip
               and not cfg.raw.get(section, {}).get(key) and (section, key) not in given]
    if not missing:
        return [f"[{s}] {key}" for s, items in cfg.raw.items() for key in items
                if s in skip or command not in KEYS[s, key][0].split()]
    section = missing[0][0]
    if section == "sampler":
        keys = ", ".join(key for s, key in missing if s == section)
        raise ConfigError(f"a complete [sampler] section is required (missing: {keys})")
    # FlowConfig refuses a [flow] section without kind: only an absent one lacks it
    if section == "flow" and section not in cfg.raw:
        raise ConfigError("a [flow] section is required")
    raise ConfigError("[%s] %s is required" % missing[0])


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(), str(path))


def default_characters(group: GroupSpec) -> tuple:
    return _parse_characters("u1:1 u1:-1 u1:2" if group.kind == "u1"
                             else "fundamental conjugate", group)
