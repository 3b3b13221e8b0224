"""The JSON configuration file: one schema, validated once, and its mapping
onto the library's objects.

The schema fixes the allowed and required keys of every section and the type
of every value; a violation raises ConfigError.  Value ranges (positive
densities, subsonic states, positive step sizes, ...) are not repeated here:
they stay with the dataclasses and functions that own them, which raise
PhasewaveError subclasses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Tuple

from .equilibrium import (
    EquationOfState,
    FluidState,
    PhaseBoundary,
    make_phase_boundary,
    solve_reversible_boundary,
    vdw_eos,
)
from .simulate import InitSpec, SimConfig


class ConfigError(ValueError):
    """Configuration file cannot be used (exit code 2)."""


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _int_at_least(lo: int):
    return f"an integer >= {lo}", lambda v: type(v) is int and v >= lo


# A leaf kind is (what the value must be, its test).
_PROFILES = ("single_mode", "gaussian_bump", "random_smooth")
_NUMBER = ("a finite number", _finite)
_INTEGER = ("an integer", lambda v: type(v) is int)
_BOOLEAN = ("true or false", lambda v: type(v) is bool)
_STRING = ("a string", lambda v: type(v) is str)
_VECTOR = (
    "a nonempty array of finite numbers",
    lambda v: type(v) is list and len(v) > 0 and all(map(_finite, v)),
)
_BRACKETS = (
    "[[lo, hi], [lo, hi]] of finite numbers",
    lambda v: type(v) is list
    and len(v) == 2
    and all(type(b) is list and len(b) == 2 and all(map(_finite, b)) for b in v),
)
_PROFILE = ("one of " + ", ".join(_PROFILES), lambda v: v in _PROFILES)

# A section maps each allowed key to (kind or nested section, required).
_STATE = {key: (_NUMBER, True) for key in ("rho", "u", "c2", "pp")}
_EOS = {key: (_NUMBER, True) for key in ("a", "b", "RT")}
_SCAN = {
    "eta0_min": (_NUMBER, True),
    "eta0_max": (_NUMBER, True),
    "steps": (_int_at_least(2), True),
}
# `sim` and `sim.init` keys are the SimConfig / InitSpec field names, except
# for the renamings in _FIELD.
_INIT = {
    "name": (_PROFILE, True),
    "A": (_NUMBER, False),
    "k0": (_NUMBER, False),
    "s": (_NUMBER, False),
}
_FIELD = {"A": "amplitude", "s": "width"}
_SIM = {
    "dk": (_NUMBER, True),
    "N": (_int_at_least(8), True),
    "dt": (_NUMBER, True),
    "T": (_NUMBER, True),
    "init": (_INIT, True),
    "output_every": (_INTEGER, False),
    "snapshots": (_BOOLEAN, False),
    "physical": (_BOOLEAN, False),
}
_TOP = {
    "d": (_int_at_least(2), True),
    "left": (_STATE, False),
    "right": (_STATE, False),
    "mu": (_NUMBER, False),
    "eos": (_EOS, False),
    "brackets": (_BRACKETS, False),
    "mass_flux": (_NUMBER, False),
    "eta_t": (_VECTOR, True),
    "scan": (_SCAN, False),
    "sim": (_SIM, False),
    "output_dir": (_STRING, False),
    "seed": (_int_at_least(0), False),
}


def _requiring(table: dict, *keys: str) -> dict:
    return {key: (spec, required or key in keys) for key, (spec, required) in table.items()}


# The boundary is given either by two raw states and mu, or by an equation
# of state with one density bracket per phase.
_RAW_TOP = _requiring(_TOP, "left", "right", "mu")
_EOS_TOP = _requiring(_TOP, "eos", "brackets")


def _validate(obj, table: dict, path: str = "") -> None:
    where = path or "configuration"
    if type(obj) is not dict:
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = {key for key, (_, required) in table.items() if required} - set(obj)
    if missing:
        raise ConfigError(f"missing field(s) {sorted(missing)} in {where}")
    for key, val in obj.items():
        spec, name = table[key][0], f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            _validate(val, spec, name)
        elif not spec[1](val):
            raise ConfigError(f"{name} must be {spec[0]}")


def load_config(path: str, needs: Tuple[str, ...] = ()) -> dict:
    """Read and validate a configuration file, whose optional top-level
    sections named in `needs` are then required; raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    top = _EOS_TOP if type(cfg) is dict and "eos" in cfg else _RAW_TOP
    _validate(cfg, _requiring(top, *needs))
    if len(cfg["eta_t"]) != cfg["d"] - 1:
        raise ConfigError(f"eta_t must have length d-1={cfg['d'] - 1}")
    return cfg


def _fields(section: dict, table: dict) -> dict:
    """Dataclass keyword arguments from the leaf values of a validated section."""
    return {
        _FIELD.get(key, key): float(val) if table[key][0] is _NUMBER else val
        for key, val in section.items()
        if not isinstance(table[key][0], dict)
    }


def boundary_and_eos(cfg: dict) -> Tuple[PhaseBoundary, Optional[EquationOfState]]:
    """The configured boundary and the equation of state it was solved from
    (None for raw states)."""
    if "eos" not in cfg:
        left, right = (FluidState(**_fields(cfg[side], _STATE)) for side in ("left", "right"))
        return make_phase_boundary(left, right, cfg["d"], float(cfg["mu"])), None
    eos = vdw_eos(**cfg["eos"])
    lo, hi = cfg["brackets"]
    pb = solve_reversible_boundary(
        eos, tuple(lo), tuple(hi), cfg["d"], mass_flux=cfg.get("mass_flux")
    )
    return pb, eos


def build_boundary(cfg: dict) -> PhaseBoundary:
    return boundary_and_eos(cfg)[0]


def sim_config(cfg: dict) -> SimConfig:
    """The `sim` section as a SimConfig; its ranges are checked there."""
    sim = cfg["sim"]
    return SimConfig(init=InitSpec(**_fields(sim["init"], _INIT)), **_fields(sim, _SIM))
