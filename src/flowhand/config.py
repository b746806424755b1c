"""JSON config ingestion and emission for the assembled system.

A config file is a JSON object with up to four sections, each optional,
each overriding fields of the tuned reference system:

  fcs       alpha, epsilon, s3_mm2, exhaust_port_mm2, gamma,
            f_rot_N or q_ab_lpm (not both), f_block_knots
  venturi   s_in_mm2, s_out_mm2, s_t_mm2, h_t_mm, rho_lub,
            p_src_kpa_abs, s_src_mm2, s_e_mm2, use_simplified_inlet,
            discharge_coeff
  finger    finger_length_mm, pressure_map_knots, curvature_gain,
            tipforce_gain_n_per_kpa, p_max_kpa
  hand      n_fingers, mu_high, mu_low, mu_pivot_crit, max_opening_mm

File values use bench units (L/min, mm^2, mm, kPa); they are folded to
SI on load.  f_block_knots pairs are [q1_lpm, force_N]; the curvature
gain is per (m*kPa); pressure_map_knots pairs are [q_src_lpm, p_kpa].
Giving q_ab_lpm instead of f_rot_N calibrates the lever-rotation onset
so the A -> B flip lands on that flow, using the section's final alpha
and s3.

Unknown sections or keys are errors carrying the dotted path; silent
ignores would let a typo masquerade as a tuned parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Any

from .core import (
    PhysConstants,
    PiecewiseLinearCurve,
    kpa_to_pa,
    lpm_to_m3s,
    m2_to_mm2,
    m_to_mm,
    mm2_to_m2,
    mm_to_m,
    pa_to_kpa,
)
from .fcs import FcsConfig, calibrate_f_rot
from .finger import FingerConfig
from .system import SystemConfig, default_system
from .tasks import HandConfig
from .venturi import VenturiConfig


class ConfigError(Exception):
    """Invalid config or scenario content; message carries the key path."""


SCHEMA: dict[str, frozenset[str]] = {
    "fcs": frozenset({
        "alpha", "epsilon", "s3_mm2", "exhaust_port_mm2", "gamma",
        "f_rot_N", "q_ab_lpm", "f_block_knots",
    }),
    "venturi": frozenset({
        "s_in_mm2", "s_out_mm2", "s_t_mm2", "h_t_mm", "rho_lub",
        "p_src_kpa_abs", "s_src_mm2", "s_e_mm2", "use_simplified_inlet",
        "discharge_coeff",
    }),
    "finger": frozenset({
        "finger_length_mm", "pressure_map_knots", "curvature_gain",
        "tipforce_gain_n_per_kpa", "p_max_kpa",
    }),
    "hand": frozenset({
        "n_fingers", "mu_high", "mu_low", "mu_pivot_crit", "max_opening_mm",
    }),
}


def _number(value: Any, path: str) -> float:
    # bool is an int subclass; a bare true/false here is always a mistake
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:      # an integer past the largest float
        raise ConfigError(f"{path}: expected a finite number, got an integer of "
                          f"{value.bit_length()} bits, too large for a float") from None
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


def read_json(source: dict | str | Path) -> dict:
    """The parsed top-level object; accepts a dict, a path, or JSON text paths."""
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the int-conversion limit
        raise ConfigError(f"{path}: cannot parse: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: cannot parse: arrays or objects nested "
                          f"deeper than the parser's recursion limit") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _converted(to_si, value: Any, path: str) -> float:
    """A file number folded to SI; a value the converter rejects, such as
    a negative area or length, is a ConfigError naming the key."""
    number = _number(value, path)
    try:
        return to_si(number)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_keys(raw: dict, schema: frozenset[str], section: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key '{section}.{key}'")


def _apply_fcs(base: FcsConfig, raw: dict, consts: PhysConstants) -> FcsConfig:
    if "f_rot_N" in raw and "q_ab_lpm" in raw:
        raise ConfigError("fcs: give f_rot_N or q_ab_lpm, not both")
    updates: dict[str, Any] = {}
    if "alpha" in raw:
        updates["alpha"] = _number(raw["alpha"], "fcs.alpha")
    if "epsilon" in raw:
        updates["epsilon"] = _number(raw["epsilon"], "fcs.epsilon")
    if "gamma" in raw:
        updates["gamma"] = _number(raw["gamma"], "fcs.gamma")
    if "s3_mm2" in raw:
        updates["s3"] = _converted(mm2_to_m2, raw["s3_mm2"], "fcs.s3_mm2")
    if "exhaust_port_mm2" in raw:
        updates["exhaust_port_area"] = _converted(
            mm2_to_m2, raw["exhaust_port_mm2"], "fcs.exhaust_port_mm2")
    if "f_block_knots" in raw:
        updates["f_block_curve"] = _curve(raw["f_block_knots"], "fcs.f_block_knots")
    try:
        cfg = replace(base, **updates)
        if "f_rot_N" in raw:
            cfg = replace(cfg, f_rot=_number(raw["f_rot_N"], "fcs.f_rot_N"))
        elif "q_ab_lpm" in raw:
            q_ab = lpm_to_m3s(_number(raw["q_ab_lpm"], "fcs.q_ab_lpm"))
            cfg = replace(cfg, f_rot=calibrate_f_rot(q_ab, cfg, consts))
    except ValueError as exc:
        raise ConfigError(f"fcs: {exc}") from exc
    return cfg


def _apply_venturi(base: VenturiConfig, raw: dict) -> VenturiConfig:
    updates: dict[str, Any] = {}
    for key, field in (("s_in_mm2", "s_in"), ("s_out_mm2", "s_out"),
                       ("s_t_mm2", "s_t"), ("s_src_mm2", "s_src"),
                       ("s_e_mm2", "s_e")):
        if key in raw:
            updates[field] = _converted(mm2_to_m2, raw[key], f"venturi.{key}")
    if "h_t_mm" in raw:
        updates["h_t"] = _converted(mm_to_m, raw["h_t_mm"], "venturi.h_t_mm")
    if "p_src_kpa_abs" in raw:
        updates["p_src"] = kpa_to_pa(_number(raw["p_src_kpa_abs"], "venturi.p_src_kpa_abs"))
    if "use_simplified_inlet" in raw:
        updates["use_simplified_inlet"] = _boolean(
            raw["use_simplified_inlet"], "venturi.use_simplified_inlet")
    if "discharge_coeff" in raw:
        updates["discharge_coeff"] = _number(raw["discharge_coeff"], "venturi.discharge_coeff")
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"venturi: {exc}") from exc


def _apply_finger(base: FingerConfig, raw: dict) -> FingerConfig:
    updates: dict[str, Any] = {}
    if "finger_length_mm" in raw:
        updates["finger_length"] = _converted(mm_to_m, raw["finger_length_mm"],
                                              "finger.finger_length_mm")
    if "pressure_map_knots" in raw:
        knots = _knots(raw["pressure_map_knots"], "finger.pressure_map_knots")
        updates["pressure_map"] = _curve(
            [[q, kpa_to_pa(p)] for q, p in knots], "finger.pressure_map_knots")
    if "curvature_gain" in raw:
        # file value is per (m*kPa)
        updates["curvature_gain"] = _number(raw["curvature_gain"],
                                            "finger.curvature_gain") / 1000.0
    if "tipforce_gain_n_per_kpa" in raw:
        updates["tipforce_gain"] = _number(raw["tipforce_gain_n_per_kpa"],
                                           "finger.tipforce_gain_n_per_kpa") / 1000.0
    if "p_max_kpa" in raw:
        updates["p_max"] = kpa_to_pa(_number(raw["p_max_kpa"], "finger.p_max_kpa"))
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"finger: {exc}") from exc


def _apply_hand(base: HandConfig, raw: dict) -> HandConfig:
    updates: dict[str, Any] = {}
    if "n_fingers" in raw:
        updates["n_fingers"] = _integer(raw["n_fingers"], "hand.n_fingers")
    for key in ("mu_high", "mu_low", "mu_pivot_crit"):
        if key in raw:
            updates[key] = _number(raw[key], f"hand.{key}")
    if "max_opening_mm" in raw:
        updates["max_opening"] = _converted(mm_to_m, raw["max_opening_mm"],
                                            "hand.max_opening_mm")
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"hand: {exc}") from exc


def _with_lubricant(consts: PhysConstants, value: Any) -> PhysConstants:
    rho = _number(value, "venturi.rho_lub")
    try:
        return replace(consts, rho_lubricant=rho)
    except ValueError as exc:
        raise ConfigError(f"venturi.rho_lub: {exc}") from exc


def load_system(source: dict | str | Path | None = None) -> SystemConfig:
    """Build the full system from a config mapping or file.

    None or an empty mapping yields the tuned reference system.
    """
    raw = {} if source is None else read_json(source)
    for section in raw:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        _check_keys(raw[section], SCHEMA[section], section)

    consts = PhysConstants()
    venturi_raw = raw.get("venturi", {})
    if "rho_lub" in venturi_raw:
        consts = _with_lubricant(consts, venturi_raw["rho_lub"])

    base = default_system(consts)
    return SystemConfig(
        consts=consts,
        fcs=_apply_fcs(base.fcs, raw.get("fcs", {}), consts),
        venturi=_apply_venturi(base.venturi, venturi_raw),
        finger=_apply_finger(base.finger, raw.get("finger", {})),
        hand=_apply_hand(base.hand, raw.get("hand", {})),
    )


def system_to_dict(system: SystemConfig) -> dict:
    """The system in config-file form (bench units); load_system round-trips it."""
    fcs = system.fcs
    ven = system.venturi
    fin = system.finger
    hand = system.hand
    out: dict[str, Any] = {
        "fcs": {
            "alpha": fcs.alpha,
            "epsilon": fcs.epsilon,
            "s3_mm2": m2_to_mm2(fcs.s3),
            "gamma": fcs.gamma,
            "f_rot_N": fcs.f_rot,
            "f_block_knots": [list(k) for k in fcs.f_block_curve.knots],
        },
        "venturi": {
            "s_in_mm2": m2_to_mm2(ven.s_in),
            "s_out_mm2": m2_to_mm2(ven.s_out),
            "s_t_mm2": m2_to_mm2(ven.s_t),
            "h_t_mm": m_to_mm(ven.h_t),
            "rho_lub": system.consts.rho_lubricant,
            "use_simplified_inlet": ven.use_simplified_inlet,
            "discharge_coeff": ven.discharge_coeff,
        },
        "finger": {
            "finger_length_mm": m_to_mm(fin.finger_length),
            "pressure_map_knots": [[q, pa_to_kpa(p)] for q, p in fin.pressure_map.knots],
            "curvature_gain": fin.curvature_gain * 1000.0,
            "tipforce_gain_n_per_kpa": fin.tipforce_gain * 1000.0,
            "p_max_kpa": pa_to_kpa(fin.p_max),
        },
        "hand": {
            "n_fingers": hand.n_fingers,
            "mu_high": hand.mu_high,
            "mu_low": hand.mu_low,
            "mu_pivot_crit": hand.mu_pivot_crit,
            "max_opening_mm": m_to_mm(hand.max_opening),
        },
    }
    if fcs.exhaust_port_area is not None:
        out["fcs"]["exhaust_port_mm2"] = m2_to_mm2(fcs.exhaust_port_area)
    if ven.p_src is not None:
        out["venturi"]["p_src_kpa_abs"] = pa_to_kpa(ven.p_src)
    if ven.s_src is not None:
        out["venturi"]["s_src_mm2"] = m2_to_mm2(ven.s_src)
    if ven.s_e is not None:
        out["venturi"]["s_e_mm2"] = m2_to_mm2(ven.s_e)
    return out


def apply_override(system: SystemConfig, path: str, value: Any) -> SystemConfig:
    """The system with one config key replaced, addressed as 'section.key'.

    The key goes through its section's load path, so unit folding,
    validation, and the q_ab recalibration (from the system's own alpha
    and s3) apply as they do in a file; every other field is kept.
    `venturi.rho_lub` replaces the lubricant density in the constants.
    Unknown paths are errors.
    """
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in SCHEMA or parts[1] not in SCHEMA[parts[0]]:
        raise ConfigError(f"unknown config path '{path}'")
    section, key = parts
    if path == "venturi.rho_lub":
        return replace(system, consts=_with_lubricant(system.consts, value))
    raw = {key: value}
    if section == "fcs":
        return replace(system, fcs=_apply_fcs(system.fcs, raw, system.consts))
    if section == "venturi":
        return replace(system, venturi=_apply_venturi(system.venturi, raw))
    if section == "finger":
        return replace(system, finger=_apply_finger(system.finger, raw))
    return replace(system, hand=_apply_hand(system.hand, raw))
