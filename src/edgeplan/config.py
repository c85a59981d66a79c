"""Run configuration: JSON schema, loading, and validation.

This module checks only the JSON structure: objects, and known and required
keys.  Each section's keys are the parameters of the dataclass (or
constructor) it builds, named as in its table of renames.  Number, integer
and list types, finiteness, range and order rules live in those builders;
their :class:`FieldError` is re-raised as a :class:`ConfigError` whose
message starts with the exact JSON path (``link.bandwidth_hz: ...``), so a
bad config is diagnosable without reading this module.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable

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


def _reject_unknown(raw: Dict[str, Any], path: str, known: Iterable[str]) -> None:
    for key in raw:
        if key not in known:
            raise ConfigError(_join(path, key), "unknown field")


def _fields(raw: Any, path: str, make: Callable[..., Any], renames: Dict[str, str],
            optional: Iterable[str] = ()) -> Dict[str, Any]:
    """``make``'s keyword arguments, read from the JSON object ``raw`` at ``path``.

    The object's keys are ``make``'s parameters, each named as in ``renames``
    (parameter -> key); every key not in ``optional`` is required.
    """
    raw = _expect_mapping(raw, path)
    keys = {renames.get(name, name): name for name in inspect.signature(make).parameters}
    _reject_unknown(raw, path, keys)
    missing = [key for key in keys if key not in raw and key not in optional]
    if missing:
        raise ConfigError(_join(path, missing[0]), "required field is missing")
    return {name: raw[key] for key, name in keys.items() if key in raw}


def _section(raw: Any, path: str, make: Callable[..., Any], renames: Dict[str, str],
             optional: Iterable[str] = ()) -> Any:
    """``make`` built from the JSON object ``raw`` at ``path``, read by :func:`_fields`."""
    return _build(path, renames, make, **_fields(raw, path, make, renames, optional))


def _parse_link(raw: Any) -> LinkState:
    raw = _expect_mapping(raw, "link")
    has_db = "snr_db" in raw
    if has_db == ("snr_linear" in raw):
        raise ConfigError("link", "provide exactly one of snr_db or snr_linear")
    if not has_db:
        return _section(raw, "link", LinkState, {"snr": "snr_linear"})
    snr = _build("link", {}, snr_db_to_linear, snr_db=raw["snr_db"])
    return _section({**raw, "snr_db": snr}, "link", LinkState, {"snr": "snr_db"})


_AFFINE = {"b1": "b1_s", "b2": "b2_s"}
_FLOPS = inspect.signature(ComputeProfile.from_flops).parameters


def _parse_compute(raw: Any) -> ComputeProfile:
    raw = _expect_mapping(raw, "compute")
    _reject_unknown(raw, "compute", [*_AFFINE.values(), *_FLOPS])
    affine = any(key in raw for key in _AFFINE.values())
    if affine == any(key in raw for key in _FLOPS):
        both = ", not both" if affine else ""
        raise ConfigError("compute", f"provide either b1_s/b2_s or the FLOPs block{both}")
    if affine:
        return _section(raw, "compute", ComputeProfile, _AFFINE)
    # b1 and b2 fail only where a FLOPs quotient overflows; name its numerator
    renames = {"b1": "per_layer_flops", "b2": "device_flops"}
    return _section(raw, "compute", ComputeProfile.from_flops, renames)


def parse_config(raw: Any) -> RunConfig:
    """Validate a parsed JSON object into a :class:`RunConfig`."""
    top = _fields(_expect_mapping(raw, "<config>"), "", RunConfig,
                  {"profile": "feature_profile"}, ["monte_carlo"])
    profile = _section(top["profile"], "feature_profile", FeatureProfile,
                       {"j_classes": "J", "n_layers": "L"})
    link = _parse_link(top["link"])
    compute = _parse_compute(top["compute"])
    quantizer = _expect_mapping(top["quantizer"], "quantizer")
    if quantizer.get("bit_alphabet", ()) is None:  # QuantizerSpec reads None as the full range
        raise ConfigError("quantizer.bit_alphabet", "must be a sequence of integers, got null")
    quantizer = _section(quantizer, "quantizer", QuantizerSpec, {}, ["bit_alphabet"])
    exit_keys = {"layers": "exits"}
    exits = _build("", exit_keys, ExitSet, layers=top["exits"])
    _build("", exit_keys, exits.check_within, profile=profile)
    target = _build("", {"p0": "target_accuracy"}, profile.check_target,
                    p0=top["target_accuracy"])
    seed = _build("", {}, _check_int, name="seed", x=top["seed"])
    monte_carlo = MonteCarloConfig()
    if top.get("monte_carlo") is not None:
        monte_carlo = _section(top["monte_carlo"], "monte_carlo", MonteCarloConfig, {},
                               ["n_per_class", "tasks"])
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
