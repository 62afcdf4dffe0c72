"""Flat key=value run configuration with strict validation.

The format is INI-style sections of ``key = value`` pairs, diff-friendly
and hashable for provenance.  Unknown sections or keys are rejected by
name; physical quantities are range-checked here so commands can assume
a valid configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .flow import FLOW_KINDS, FlowConfig
from .groups import GroupSpec
from .wilson import Character

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


# [flow] numerics passed to FlowConfig, with the check each value must pass
_FLOW_NUMERICS = {"dt_initial": {"positive": True}, "dt_safety": {"unit": True},
                  "blowup_threshold": {"positive": True},
                  "error_tol": {"positive": True}}


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
    wilson_steps: int = 128
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


def _get_float(section, items, key, default=None, positive=False, unit=False):
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
    if unit and not (0.0 < v < 1.0):
        _fail(section, key, f"must lie in (0, 1), got {v}")
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


def _get_floats(section, items, key, default=()):
    if key not in items:
        return tuple(default)
    toks = items[key].replace(",", " ").split()
    try:
        values = tuple(float(t) for t in toks)
    except ValueError:
        _fail(section, key, f"expected numbers, got {items[key]!r}")
    if not all(math.isfinite(v) for v in values):
        _fail(section, key, f"expected finite numbers, got {items[key]!r}")
    return values


def _get_times(section, items, key):
    """Observation times: positive, each at most once (a repeated time
    would repeat its output rows)."""
    times = _get_floats(section, items, key)
    if any(t <= 0 for t in times):
        _fail(section, key, "times must be positive")
    for i, t in enumerate(times):
        if t in times[:i]:
            _fail(section, key, f"time {t!r} is repeated")
    return times


def _parse_characters(section, value, group: GroupSpec):
    chars = []
    for tok in value.replace(",", " ").split():
        tok = tok.strip()
        if tok in ("fundamental", "conjugate"):
            chars.append(Character(group, tok))
        elif tok.startswith("u1:"):
            try:
                k = int(tok[3:])
            except ValueError:
                _fail(section, "characters", f"bad power in {tok!r}")
            if group.kind != "u1":
                _fail(section, "characters", "u1:k characters need group u1")
            chars.append(Character(group, "u1_power", k))
        else:
            _fail(section, "characters", f"unknown character {tok!r}")
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
        kind = items.get("kind", "gff").strip()
        if kind not in ("gff", "u1_coulomb"):
            _fail("sampler", "kind", f"unknown sampler {kind!r}")
        cfg.sampler_kind = kind
        if "group" not in items:
            _fail("sampler", "group", "missing required key")
        try:
            cfg.group = GroupSpec.from_label(items["group"])
        except ValueError as exc:
            _fail("sampler", "group", str(exc))
        if kind == "u1_coulomb" and cfg.group.kind != "u1":
            _fail("sampler", "kind", "u1_coulomb requires group u1")
        cfg.cutoff = _get_int("sampler", items, "cutoff", minimum=1)
        cfg.coupling = _get_float("sampler", items, "coupling", 1.0, positive=True)
        cfg.seed = _get_int("sampler", items, "seed")
        cfg.stream = _get_int("sampler", items, "stream", 0)
        if "scale_to_h1" in items:
            cfg.scale_to_h1 = _get_float("sampler", items, "scale_to_h1",
                                         positive=True)

    if "flow" in cfg.raw:
        items = cfg.raw["flow"]
        kind = items.get("kind", "").strip()
        if kind not in FLOW_KINDS:
            _fail("flow", "kind", f"must be one of {FLOW_KINDS}, got {kind!r}")
        checkpoints = _get_floats("flow", items, "checkpoints")
        if any(t <= 0 for t in checkpoints):
            _fail("flow", "checkpoints", "times must be positive")
        if "t_end" in items:
            t_end = _get_float("flow", items, "t_end", positive=True)
            if any(t > t_end * (1 + 1e-12) for t in checkpoints):
                _fail("flow", "checkpoints", "times must lie in (0, t_end]")
            # a checkpoint within rounding past t_end ends the run itself
            last = () if max(checkpoints, default=0.0) >= t_end else (t_end,)
            cfg.flow_times = tuple(sorted({*checkpoints, *last}))
        # only the keys the file sets: the defaults are FlowConfig's
        numerics = {key: _get_float("flow", items, key, **check)
                    for key, check in _FLOW_NUMERICS.items() if key in items}
        try:
            cfg.flow = FlowConfig(flow_kind=kind, **numerics)
        except ValueError as exc:
            raise ConfigError(f"[flow]: {exc}") from exc

    if "loops" in cfg.raw:
        items = cfg.raw["loops"]
        cfg.loops_file = items.get("file")
        cfg.wilson_steps = _get_int("loops", items, "steps", 128, minimum=1)

    if "wilson" in cfg.raw:
        items = cfg.raw["wilson"]
        if cfg.group is None:
            raise ConfigError("[wilson] needs a [sampler] section for the group")
        if "characters" in items:
            cfg.characters = _parse_characters("wilson", items["characters"],
                                               cfg.group)
        cfg.wilson_times = _get_times("wilson", items, "times")

    if "ensemble" in cfg.raw:
        items = cfg.raw["ensemble"]
        cutoffs = _get_floats("ensemble", items, "cutoffs")
        if not cutoffs:
            _fail("ensemble", "cutoffs", "missing required key")
        icutoffs = tuple(int(c) for c in cutoffs)
        if any(c != int(c) for c in cutoffs) or any(c < 1 for c in icutoffs):
            _fail("ensemble", "cutoffs", "expected integers >= 1")
        if list(icutoffs) != sorted(set(icutoffs)):
            _fail("ensemble", "cutoffs", "must be strictly increasing")
        cfg.ens_cutoffs = icutoffs
        cfg.ens_n_samples = _get_int("ensemble", items, "n_samples", minimum=2)
        cfg.ens_times = _get_times("ensemble", items, "times")
        if not cfg.ens_times:
            _fail("ensemble", "times", "missing required key")
        if "reference_cutoff" in items:
            cfg.ens_reference_cutoff = _get_int("ensemble", items,
                                                "reference_cutoff",
                                                minimum=icutoffs[-1] + 1)

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
