"""Experiment configuration: a JSON file with one section per config
dataclass (encoder, head, train, synth).

The desk preset is the section dataclasses' own defaults (``EncoderConfig``,
``HeadConfig``, ``TrainConfig``, ``SynthSpec``), so
``ExperimentConfig()`` is the desk preset, and every experiment starts from it.

A file changes the desk preset: every section and field it leaves out keeps
the desk value. Unknown sections or keys are rejected so typos fail loudly
instead of silently training the wrong model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .encoder import EncoderConfig
from .heads import HeadConfig
from .synthdata import SynthSpec
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment. The defaults are the desk preset: a small model that
    trains MFCon (``lam1`` = 0.01) to a low error rate in about a minute on
    the synthetic corpus."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)


def desk_config() -> ExperimentConfig:
    """The desk preset, ``ExperimentConfig()``: every section's defaults."""
    return ExperimentConfig()


# the JSON values a field of each annotated type takes; a bool is not a number
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _fill(base, data, path=""):
    """``base`` with the fields ``data`` names replaced; a field that holds a
    config dataclass (a section, ``train.loss``) is filled the same way.
    ``path`` is the dotted name of ``base`` that errors report."""
    where = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(data) - {f.name for f in fields(base)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    values = dict(data)
    kinds = {f.name: f.type for f in fields(base)}
    for name, value in data.items():
        key = f"{path}.{name}" if path else name
        if is_dataclass(getattr(base, name)):
            values[name] = _fill(getattr(base, name), value, key)
        elif isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kinds[name]]):
            raise ConfigError(f"{key}: expected {kinds[name]}, got {value!r}")
    try:
        return replace(base, **values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def config_from_dict(data) -> ExperimentConfig:
    """The desk preset with the sections and fields ``data`` gives replaced."""
    return _fill(desk_config(), data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as err:  # missing, a directory, not UTF-8, not JSON
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return config_from_dict(data)
