"""Configuration file loading, validation, and resolution.

A config file is YAML with the optional top-level keys of :class:`ConfigFile`.
Each section's keys, types and defaults are the fields of the dataclass it
is read into (``workload``: ``WorkloadSpec``; a ``devices`` entry:
``DeviceProfile``, whose built-in table is written in this format; ``fl``:
:class:`FlSettings`; ``aggregation``: ``AggregationConfig``; ``memory``:
``MemoryCalibration``); ``arch`` is read by ``arch_from_mapping``. Flags
override file values, which override the defaults. An unknown key, a value
of the wrong type, a non-finite number or a missing required key exits 2
with one line naming its dotted key, e.g. ``error: fl.clients: expected an
integer, got 'ten'``. ``FEDSPEECH_CONFIG`` can name the default config path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional, TypedDict

from .aggregation import AggregationConfig
from .arch import ArchitectureSpec, WorkloadSpec, arch_from_mapping, get_preset
from .devices import DeviceProfile, builtin_profiles, read_devices
from .errors import ConfigError
from .memory import MemoryCalibration, default_calibration
from .settings import read, read_keys

CONFIG_ENV_VAR = "FEDSPEECH_CONFIG"


@dataclass(frozen=True)
class FlSettings:
    """The ``fl`` section: the federation that ``fl-plan`` schedules."""

    clients: int = 10
    per_round: Optional[int] = None  # every client
    rounds: int = 150
    local_epochs: int = 1
    batch: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class ConfigFile(TypedDict, total=False):
    """The top-level keys of a config file and their types."""

    arch: dict
    workload: WorkloadSpec
    devices: tuple[DeviceProfile, ...]
    fl: FlSettings
    aggregation: AggregationConfig
    memory: MemoryCalibration
    output_dir: str
    seed: int


def load_config(path: Optional[str] = None) -> dict:
    """Load and validate a YAML config; absent path means empty config."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    import yaml  # only a command given a config pays for the import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot parse {path}: bytes that are not valid UTF-8") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {_yaml_problem(exc)}") from None
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    validate_config(data)
    return dict(data)


def _yaml_problem(exc) -> str:
    """A YAML error on one line: where the parser stopped, if it says, and why."""
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is None or problem is None:
        return " ".join(str(exc).split())
    return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"


def validate_config(config: Mapping) -> None:
    """Check every key and value type; the values themselves are checked
    when a command reads their section, so a flag can still override one."""
    read_keys(ConfigFile, config, "", build=False)
    if "arch" in config:
        arch_from_mapping(config["arch"])


def resolve_arch(config: Mapping, preset_flag: Optional[str] = None) -> ArchitectureSpec:
    if preset_flag:
        return get_preset(preset_flag)
    if "arch" in config:
        return arch_from_mapping(config["arch"])
    return get_preset("base")


def resolve_profiles(config: Mapping) -> tuple[DeviceProfile, ...]:
    """Built-in device profiles, merged with config overrides by name."""
    return read_devices(config.get("devices", ()), pool=builtin_profiles())


def resolve_calibration(config: Mapping) -> MemoryCalibration:
    if "memory" not in config:
        return default_calibration()
    return read(MemoryCalibration, config["memory"], "memory")


def config_fingerprint(resolved: Mapping) -> str:
    """Stable digest of a resolved configuration, embedded in every report."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
