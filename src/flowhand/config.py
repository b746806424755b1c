"""JSON config ingestion and emission for the assembled system.

A config file is a JSON object with up to four sections, each optional,
each overriding fields of the tuned reference system.  The sections
and keys are those of _TABLE below, which loading, emission,
apply_override and SCHEMA all read.

File values use bench units (L/min, mm^2, mm, kPa); they are folded to
SI on load.  f_block_knots pairs are [q1_lpm, force_N]; the curvature
gain is per (m*kPa); pressure_map_knots pairs are [q_src_lpm, p_kpa].
Giving q_ab_lpm instead of f_rot_N (not both) calibrates the
lever-rotation onset so the A -> B flip lands on that flow, using the
section's final alpha and s3.  Every other key sets its own field and
nothing else: an injector key such as h_t_mm or rho_lub keeps the
reference orifice, which design-search re-sizes.  The supply-tube area
VenturiConfig.s_t has no key: it cancels out of every output.

File loads and apply_override share one path, _apply.  It calls the
section's class once on the base's fields merged with the parsed keys,
so the section's checks run once, and it returns the base section
itself when no key is given.  q_ab_lpm alone builds the section once,
from the base's alpha and s3; next to other keys of the section, those
are built and checked first, then q_ab_lpm is checked and applied.  A
section no key names stays the same object, which sweep relies on.

Unknown sections or keys are errors carrying the dotted path; silent
ignores would let a typo masquerade as a tuned parameter.  For the same
reason read_json rejects a key given twice in one object, in config and
scenario files alike, where the parser alone would keep the last value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .core import (
    ConfigError,
    LPM_PER_M3S,
    PhysConstants,
    PiecewiseLinearCurve,
    kpa_to_pa,
    m2_to_mm2,
    m_to_mm,
    mm2_to_m2,
    mm_to_m,
    pa_to_kpa,
)
from .fcs import lever_force
from .system import SystemConfig, default_system


def _float(value: Any, path: str) -> float:
    """A JSON number as a float, which may be inf or nan: the caller
    checks the value."""
    # bool is an int subclass; a bare true/false here is always a mistake
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:      # an integer past the largest float
        raise ConfigError(f"{path}: expected a finite number, got an integer of "
                          f"{value.bit_length()} bits, too large for a float") from None


def _number(value: Any, path: str) -> float:
    number = _float(value, path)
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    n = _number(value, path)
    if n != int(n):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(n)


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _knots(value: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of [x, y] pairs")
    out = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected an [x, y] pair, got {pair!r}")
        out.append((_number(pair[0], f"{path}[{i}][0]"),
                    _number(pair[1], f"{path}[{i}][1]")))
    return tuple(out)


def _curve(value: Any, path: str) -> PiecewiseLinearCurve:
    try:
        return PiecewiseLinearCurve(_knots(value, path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _kpa_curve(value: Any, path: str) -> PiecewiseLinearCurve:
    knots = _knots(value, path)
    return _curve([[q, kpa_to_pa(p)] for q, p in knots], path)


def _scaled(to_si, from_si):
    """Kind of a number folded to SI by to_si; a value to_si rejects,
    such as a negative area or length, is a ConfigError naming the key.
    Its emitter returns the first of from_si's value and its two-ulp
    neighbours that to_si maps back onto the same SI float, else the value."""
    def parse(value: Any, path: str) -> float:
        number = _number(value, path)
        try:
            return to_si(number)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def emit(si: float) -> float:
        value = from_si(si)
        if to_si(value) == si:
            return value
        down, up = math.nextafter(value, -math.inf), math.nextafter(value, math.inf)
        nearby = (value, down, up, math.nextafter(down, -math.inf), math.nextafter(up, math.inf))
        return next((near for near in nearby if to_si(near) == si), value)
    return parse, emit


# A kind is (parse a file value at its key path to SI, emit an SI value).
_NUMBER = (_number, float)
_INTEGER = (_integer, int)
_BOOLEAN = (_boolean, bool)
_AREA = _scaled(mm2_to_m2, m2_to_mm2)
_LENGTH = _scaled(mm_to_m, m_to_mm)
_KPA = _scaled(kpa_to_pa, pa_to_kpa)
_PER_KILO = _scaled(lambda g: g / 1000.0, lambda g: g * 1000.0)  # file gains per kPa, SI per Pa
_CURVE = (_curve, lambda curve: [list(k) for k in curve.knots])
_KPA_CURVE = (_kpa_curve, lambda curve: [[q, _KPA[1](p)] for q, p in curve.knots])

# section -> file key -> (dataclass field, kind), in emission order.
# Only q_ab_lpm is applied apart: it recalibrates f_rot and is never emitted.
_TABLE: dict[str, dict[str, tuple[str, tuple]]] = {
    "fcs": {
        "alpha": ("alpha", _NUMBER),
        "epsilon": ("epsilon", _NUMBER),
        "s3_mm2": ("s3", _AREA),
        "gamma": ("gamma", _NUMBER),
        "f_rot_N": ("f_rot", _NUMBER),
        "q_ab_lpm": ("f_rot", _NUMBER),
        "f_block_knots": ("f_block_curve", _CURVE),
    },
    "venturi": {
        "s_in_mm2": ("s_in", _AREA),
        "s_out_mm2": ("s_out", _AREA),
        "h_t_mm": ("h_t", _LENGTH),
        "rho_lub": ("rho_lub", _NUMBER),
        "use_simplified_inlet": ("use_simplified_inlet", _BOOLEAN),
        "discharge_coeff": ("discharge_coeff", _NUMBER),
        "p_src_kpa_abs": ("p_src", _KPA),
        "s_src_mm2": ("s_src", _AREA),
        "s_e_mm2": ("s_e", _AREA),
    },
    "finger": {
        "finger_length_mm": ("finger_length", _LENGTH),
        "pressure_map_knots": ("pressure_map", _KPA_CURVE),
        "curvature_gain": ("curvature_gain", _PER_KILO),
        "tipforce_gain_n_per_kpa": ("tipforce_gain", _PER_KILO),
        "p_max_kpa": ("p_max", _KPA),
    },
    "hand": {
        "n_fingers": ("n_fingers", _INTEGER),
        "mu_high": ("mu_high", _NUMBER),
        "mu_low": ("mu_low", _NUMBER),
        "mu_pivot_crit": ("mu_pivot_crit", _NUMBER),
        "max_opening_mm": ("max_opening", _LENGTH),
    },
}

SCHEMA: dict[str, frozenset[str]] = {
    section: frozenset(rows) for section, rows in _TABLE.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ValueError."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def read_json(source: dict | str | Path) -> dict:
    """The parsed top-level object of a dict, returned as is, or of the
    JSON file at a path; a string is always read as a path."""
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # a repeated key, or an integer past the int-conversion limit
        raise ConfigError(f"{path}: cannot parse: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: cannot parse: arrays or objects nested "
                          f"deeper than the parser's recursion limit") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _apply(section: str, base: Any, raw: dict, consts: PhysConstants) -> Any:
    """base with the section's keys in raw folded in, each parsed by its
    table row; the keys are known to be in the section."""
    if "f_rot_N" in raw and "q_ab_lpm" in raw:
        raise ConfigError("fcs: give f_rot_N or q_ab_lpm, not both")
    rows = _TABLE[section]
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        if key != "q_ab_lpm":
            field, (parse, _) = rows[key]
            updates[field] = parse(value, f"{section}.{key}")
    make = type(base)
    try:
        cfg = make(**{**vars(base), **updates}) if updates else base
        if "q_ab_lpm" in raw:
            q_ab = _number(raw["q_ab_lpm"], "fcs.q_ab_lpm")
            q = q_ab / LPM_PER_M3S
            if not q > 0:                   # 1e-320 L/min is 0 m^3/s
                raise ConfigError(f"fcs.q_ab_lpm: {q_ab!r} L/min is {q!r} m^3/s, "
                                  f"which must be > 0")
            f_rot = lever_force(cfg.alpha * q, cfg.s3, consts.rho_air)
            if not math.isfinite(f_rot):    # the jet force at q_ab overflows
                raise ConfigError(f"fcs.q_ab_lpm: {q_ab:g} L/min calibrates f_rot_N "
                                  f"to {f_rot}, which must be finite")
            cfg = make(**{**vars(cfg), "f_rot": f_rot})
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def load_system(source: dict | str | Path | None = None) -> SystemConfig:
    """Build the full system from a config mapping or file.

    None or an empty mapping yields the tuned reference system itself.
    """
    raw = {} if source is None else read_json(source)
    for section, keys in raw.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        if not isinstance(keys, dict):
            raise ConfigError(f"{section}: expected an object")
        for key in keys:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")

    system = default_system()
    if not raw:
        return system
    return SystemConfig(**{**vars(system), **{
        section: _apply(section, getattr(system, section), keys, system.consts)
        for section, keys in raw.items()}})


def system_to_dict(system: SystemConfig) -> dict:
    """The system in config-file form (bench units); load_system round-trips it.

    Keys come in table order.  f_rot_N carries the lever onset, so
    q_ab_lpm is never emitted, and a field left None (the full-inlet
    feed) emits no key; venturi.s_t has none and reloads as the
    reference's.
    """
    out: dict[str, Any] = {}
    for section, rows in _TABLE.items():
        cfg = getattr(system, section)
        out[section] = emitted = {}
        for key, (field, (_, emit)) in rows.items():
            if key == "q_ab_lpm":
                continue
            value = getattr(cfg, field)
            if value is not None:
                emitted[key] = emit(value)
    return out


def _config_path(path: str) -> list[str]:
    """[section, key] of a dotted config path; an unknown path is a ConfigError."""
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in SCHEMA or parts[1] not in SCHEMA[parts[0]]:
        raise ConfigError(f"unknown config path '{path}'")
    return parts


def apply_override(system: SystemConfig, path: str, value: Any) -> SystemConfig:
    """The system with one config key replaced, addressed as 'section.key'.

    The key goes through its section's load path, so unit folding,
    validation, and the q_ab recalibration (from the system's own alpha
    and s3) apply as they do in a file; every other field is kept.
    Unknown paths are errors.
    """
    section, key = _config_path(path)
    cfg = _apply(section, getattr(system, section), {key: value}, system.consts)
    return SystemConfig(**{**vars(system), section: cfg})
