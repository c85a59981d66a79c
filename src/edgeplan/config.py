"""Run configuration: JSON schema, loading, and validation.

This module checks only the JSON shape: objects, known and required keys,
number and integer types, and lists.  Finiteness, range and order rules live
in the dataclasses the values build; their :class:`FieldError` is re-raised
as a :class:`ConfigError` whose message starts with the exact JSON path
(``link.bandwidth_hz: ...``), so a bad config is diagnosable without reading
this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .accuracy import FeatureProfile, QuantizerSpec
from .circstats import FieldError, _check_int
from .optimizer import ExitSet
from .system import ComputeProfile, LinkState, snr_db_to_linear

__all__ = ["ConfigError", "MonteCarloConfig", "RunConfig", "load_config", "parse_config"]


class ConfigError(FieldError):
    """Invalid configuration; ``path`` is the JSON path of the offending field."""


@dataclass(frozen=True)
class MonteCarloConfig:
    n_per_class: int = 20000
    tasks: int = 2000

    def __post_init__(self) -> None:
        for name in ("n_per_class", "tasks"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))


@dataclass(frozen=True)
class RunConfig:
    link: LinkState
    compute: ComputeProfile
    profile: FeatureProfile
    quantizer: QuantizerSpec
    exits: ExitSet
    target_accuracy: float
    seed: int
    monte_carlo: MonteCarloConfig


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build(path: str, renames: Dict[str, str], make: Callable[..., Any], **kwargs: Any) -> Any:
    """``make(**kwargs)``, re-rooting a FieldError's field (renamed by ``renames``) at ``path``."""
    try:
        return make(**kwargs)
    except FieldError as exc:
        field, bracket, index = exc.path.partition("[")
        where = _join(path, renames.get(field, field)) + bracket + index
        raise ConfigError(where, exc.message) from exc


def _expect_mapping(raw: Any, path: str) -> Dict[str, Any]:
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: Dict[str, Any], path: str, known: List[str]) -> None:
    for key in raw:
        if key not in known:
            raise ConfigError(_join(path, key), "unknown field")


def _get(raw: Dict[str, Any], path: str, key: str) -> Any:
    if key not in raw:
        raise ConfigError(_join(path, key), "required field is missing")
    return raw[key]


def _number(raw: Dict[str, Any], path: str, key: str) -> float:
    value = _get(raw, path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_join(path, key), f"expected a number, got {value!r}")
    return value


def _integer(raw: Dict[str, Any], path: str, key: str) -> int:
    return _integer_at(_get(raw, path, key), _join(path, key))


def _integer_at(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return value


def _integer_list(raw: Dict[str, Any], path: str, key: str) -> List[int]:
    value, where = _get(raw, path, key), _join(path, key)
    if not isinstance(value, list):
        raise ConfigError(where, f"expected a list of integers, got {value!r}")
    return [_integer_at(entry, f"{where}[{i}]") for i, entry in enumerate(value)]


def _parse_link(raw: Any) -> LinkState:
    raw = _expect_mapping(raw, "link")
    _reject_unknown(raw, "link", ["bandwidth_hz", "snr_db", "snr_linear", "t_max_s", "d"])
    has_db = "snr_db" in raw
    if has_db == ("snr_linear" in raw):
        raise ConfigError("link", "provide exactly one of snr_db or snr_linear")
    if has_db:
        snr_db = _number(raw, "link", "snr_db")
        snr_key, snr = "snr_db", _build("link", {}, snr_db_to_linear, snr_db=snr_db)
    else:
        snr_key, snr = "snr_linear", _number(raw, "link", "snr_linear")
    return _build(
        "link",
        {"snr": snr_key},
        LinkState,
        bandwidth_hz=_number(raw, "link", "bandwidth_hz"),
        snr=snr,
        t_max_s=_number(raw, "link", "t_max_s"),
        d=_integer(raw, "link", "d"),
    )


_FLOPS_KEYS = ["device_flops", "per_layer_flops", "device_flops_per_s", "server_flops_per_s"]


def _parse_compute(raw: Any) -> ComputeProfile:
    raw = _expect_mapping(raw, "compute")
    _reject_unknown(raw, "compute", ["b1_s", "b2_s"] + _FLOPS_KEYS)
    affine = "b1_s" in raw or "b2_s" in raw
    flops = any(key in raw for key in _FLOPS_KEYS)
    if affine and flops:
        raise ConfigError("compute", "provide either b1_s/b2_s or the FLOPs block, not both")
    if affine:
        return _build(
            "compute",
            {"b1": "b1_s", "b2": "b2_s"},
            ComputeProfile,
            b1=_number(raw, "compute", "b1_s"),
            b2=_number(raw, "compute", "b2_s"),
        )
    if flops:
        return _build(
            "compute",
            {"b1": "per_layer_flops", "b2": "device_flops"},
            ComputeProfile.from_flops,
            **{key: _number(raw, "compute", key) for key in _FLOPS_KEYS},
        )
    raise ConfigError("compute", "provide either b1_s/b2_s or the FLOPs block")


def _parse_profile(raw: Any) -> FeatureProfile:
    raw = _expect_mapping(raw, "feature_profile")
    _reject_unknown(raw, "feature_profile", ["J", "c1", "c2", "c3", "c4", "L"])
    return _build(
        "feature_profile",
        {"j_classes": "J", "n_layers": "L"},
        FeatureProfile,
        j_classes=_integer(raw, "feature_profile", "J"),
        n_layers=_integer(raw, "feature_profile", "L"),
        **{key: _number(raw, "feature_profile", key) for key in ("c1", "c2", "c3", "c4")},
    )


def _parse_quantizer(raw: Any) -> QuantizerSpec:
    raw = _expect_mapping(raw, "quantizer")
    _reject_unknown(raw, "quantizer", ["c_min", "c_max", "q_max", "bit_alphabet"])
    alphabet: Optional[List[int]] = None
    if "bit_alphabet" in raw:
        alphabet = _integer_list(raw, "quantizer", "bit_alphabet")
    return _build(
        "quantizer",
        {},
        QuantizerSpec,
        c_min=_number(raw, "quantizer", "c_min"),
        c_max=_number(raw, "quantizer", "c_max"),
        q_max=_integer(raw, "quantizer", "q_max"),
        bit_alphabet=alphabet,
    )


def _parse_monte_carlo(raw: Any) -> MonteCarloConfig:
    if raw is None:
        return MonteCarloConfig()
    raw = _expect_mapping(raw, "monte_carlo")
    keys = ["n_per_class", "tasks"]
    _reject_unknown(raw, "monte_carlo", keys)
    kwargs = {key: _integer(raw, "monte_carlo", key) for key in keys if key in raw}
    return _build("monte_carlo", {}, MonteCarloConfig, **kwargs)


_TOP_LEVEL = [
    "link",
    "compute",
    "feature_profile",
    "quantizer",
    "exits",
    "target_accuracy",
    "seed",
    "monte_carlo",
]


def parse_config(raw: Any) -> RunConfig:
    """Validate a parsed JSON object into a :class:`RunConfig`."""
    raw = _expect_mapping(raw, "<config>")
    _reject_unknown(raw, "", _TOP_LEVEL)
    profile = _parse_profile(_get(raw, "", "feature_profile"))
    link = _parse_link(_get(raw, "", "link"))
    compute = _parse_compute(_get(raw, "", "compute"))
    quantizer = _parse_quantizer(_get(raw, "", "quantizer"))
    exit_keys = {"layers": "exits"}
    exits = _build("", exit_keys, ExitSet, layers=_integer_list(raw, "", "exits"))
    _build("", exit_keys, exits.check_within, profile=profile)
    target = _build("", {"p0": "target_accuracy"}, profile.check_target,
                    p0=_number(raw, "", "target_accuracy"))
    seed = _integer(raw, "", "seed")
    monte_carlo = _parse_monte_carlo(raw.get("monte_carlo"))
    return RunConfig(
        link=link,
        compute=compute,
        profile=profile,
        quantizer=quantizer,
        exits=exits,
        target_accuracy=target,
        seed=seed,
        monte_carlo=monte_carlo,
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration from disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
