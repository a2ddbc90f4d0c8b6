"""Configuration file loading, validation, and resolution.

The config file is YAML with the following top-level sections, all optional
(flags override file values, file values override built-ins)::

    arch:                 # preset name or full architecture override
      preset: base
    workload:
      duration_s: 5.5
      sample_rate_hz: 16000
      batch: 4
      precision: fp32     # fp32 | mixed
    devices:              # add to or override the built-in profiles
      - name: a40
        memory_gb: 48
        os_reserve_gb: 0
        supports_mixed: true
        anchors:
          - {arch: base, batch: 4, precision: fp32, seconds_per_batch: 0.27}
    fl:
      clients: 10
      per_round: 10
      rounds: 150
      local_epochs: 1
      batch: 4
      seed: 7
    aggregation:
      method: fedavg      # fedavg | loss_weighted
      alpha: 1.0
      epsilon: 1.0e-8
    memory:
      runtime_overhead_gb: 0.4
      residency_factor: 3.2
      reference_peak_gb: 2.54   # re-fits the activation overhead
    output_dir: reports
    seed: 7

Unknown keys anywhere are rejected with their dotted location. The default
config path can be set through the ``FEDSPEECH_CONFIG`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Mapping, Optional

import yaml

from .arch import ArchitectureSpec, arch_from_mapping, get_preset, parse_precision
from .devices import Anchor, DeviceProfile, builtin_profiles
from .errors import ConfigError
from .memory import (DEFAULT_RESIDENCY_FACTOR, DEFAULT_RUNTIME_OVERHEAD_BYTES,
                     MemoryCalibration, REFERENCE_PEAK_BYTES, REFERENCE_WORKLOAD,
                     fit_activation_overhead)

CONFIG_ENV_VAR = "FEDSPEECH_CONFIG"
GB = 1e9

# Schema tree: dict -> allowed child keys, "*" -> any mapping, None -> leaf.
_SCHEMA: dict[str, Any] = {
    "arch": None,  # validated by arch_from_mapping
    "workload": {"duration_s": None, "sample_rate_hz": None, "batch": None,
                 "precision": None},
    "devices": [{"name": None, "memory_gb": None, "os_reserve_gb": None,
                 "supports_mixed": None, "anchors":
                 [{"arch": None, "batch": None, "precision": None,
                   "seconds_per_batch": None, "duration_s": None}]}],
    "fl": {"clients": None, "per_round": None, "rounds": None,
           "local_epochs": None, "batch": None, "seed": None},
    "aggregation": {"method": None, "alpha": None, "epsilon": None},
    "memory": {"runtime_overhead_gb": None, "residency_factor": None,
               "reference_peak_gb": None},
    "output_dir": None,
    "seed": None,
}


def _check_keys(value: Any, schema: Any, where: str) -> None:
    if schema is None:
        return
    if isinstance(schema, dict):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where} must be a mapping")
        for key, sub in value.items():
            if key not in schema:
                raise ConfigError(f"unknown configuration key: {where}.{key}"
                                  if where else f"unknown configuration key: {key}")
            _check_keys(sub, schema[key], f"{where}.{key}" if where else key)
    elif isinstance(schema, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        for i, item in enumerate(value):
            _check_keys(item, schema[0], f"{where}[{i}]")


def load_config(path: Optional[str] = None) -> dict:
    """Load and validate a YAML config; absent path means empty config."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    validate_config(data)
    return dict(data)


def validate_config(config: Mapping) -> None:
    _check_keys(config, _SCHEMA, "")
    if "arch" in config:
        arch_from_mapping(config["arch"])  # re-raises with locations


def resolve_arch(config: Mapping, preset_flag: Optional[str] = None) -> ArchitectureSpec:
    if preset_flag:
        return get_preset(preset_flag)
    if "arch" in config:
        return arch_from_mapping(config["arch"])
    return get_preset("base")


def resolve_profiles(config: Mapping) -> tuple[DeviceProfile, ...]:
    """Built-in device profiles, merged with config overrides by name."""
    pool = {p.name: p for p in builtin_profiles()}
    for i, entry in enumerate(config.get("devices", [])):
        where = f"devices[{i}]"
        try:
            name = str(entry["name"]).lower()
        except KeyError:
            raise ConfigError(f"{where}: a device needs a name") from None
        previous = pool.get(name)
        anchors: list[Anchor] = []
        for a in entry.get("anchors", []):
            try:
                anchors.append(Anchor(
                    arch_name=str(a["arch"]), batch=int(a["batch"]),
                    precision=parse_precision(a["precision"]),
                    seconds_per_batch=float(a["seconds_per_batch"]),
                    duration_s=float(a.get("duration_s", 5.5))))
            except KeyError as exc:
                raise ConfigError(f"{where}: anchor missing field {exc.args[0]!r}") from None
        if previous is None and not anchors:
            raise ConfigError(f"{where}: new device {name!r} needs anchors")
        pool[name] = DeviceProfile(
            name=name,
            memory_total_bytes=float(entry.get(
                "memory_gb", previous.memory_total_bytes / GB if previous else 0)) * GB,
            os_reserve_bytes=float(entry.get(
                "os_reserve_gb", previous.os_reserve_bytes / GB if previous else 0)) * GB,
            supports_mixed=bool(entry.get(
                "supports_mixed", previous.supports_mixed if previous else False)),
            anchors=tuple(anchors) if anchors else (previous.anchors if previous else ()),
        )
    return tuple(pool.values())


def resolve_calibration(config: Mapping) -> MemoryCalibration:
    mem = config.get("memory", {})
    overhead = float(mem.get("runtime_overhead_gb",
                             DEFAULT_RUNTIME_OVERHEAD_BYTES / GB)) * GB
    peak = float(mem.get("reference_peak_gb", REFERENCE_PEAK_BYTES / GB)) * GB
    kappa = fit_activation_overhead(get_preset("base"), REFERENCE_WORKLOAD, peak,
                                    runtime_overhead_bytes=overhead)
    return MemoryCalibration(
        activation_overhead=kappa,
        runtime_overhead_bytes=overhead,
        residency_factor=float(mem.get("residency_factor", DEFAULT_RESIDENCY_FACTOR)))


def config_fingerprint(resolved: Mapping) -> str:
    """Stable digest of a resolved configuration, embedded in every report."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
