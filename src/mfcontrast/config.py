"""Experiment configuration: a JSON file with one section per config
dataclass (encoder, head, train, synth, trials), plus ready-made presets.

Each preset is defined once. The desk preset is the section dataclasses' own
defaults (``EncoderConfig``, ``HeadConfig``, ``TrainConfig``, ``SynthSpec``,
``TrialSpec``), so ``ExperimentConfig()`` is the desk preset; the full preset
(``full_scale_config``) names only the fields where it differs from desk.
``PRESETS`` maps each preset's name to its builder.

A file changes the desk preset: every section and field it leaves out keeps
the desk value. Unknown sections or keys are rejected so typos fail loudly
instead of silently training the wrong model.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .encoder import EncoderConfig
from .heads import HeadConfig
from .synthdata import SynthSpec
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class TrialSpec:
    n_target: int = 250
    n_nontarget: int = 250
    seed: int = 100


@dataclass
class ExperimentConfig:
    """One experiment. The defaults are the desk preset: a small model that
    trains MFCon (``lam1`` = 0.01) to a low error rate in about a minute on
    the synthetic corpus."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)
    trials: TrialSpec = field(default_factory=TrialSpec)


def desk_config() -> ExperimentConfig:
    """The desk preset, ``ExperimentConfig()``: every section's defaults."""
    return ExperimentConfig()


def full_scale_config() -> ExperimentConfig:
    """Six-block preset with the published training hyperparameters: the
    desk preset with the fields named here changed, every other one the
    section's default. Sized for real corpora; untested at that scale."""
    return ExperimentConfig(
        encoder=EncoderConfig(num_blocks=6, model_dim=256, ff_expansion=4,
                              conv_kernel=15, dropout=0.1),
        head=HeadConfig(embed_dim=192, attention_hidden=128),
        train=TrainConfig(batch_size=100, lr=1e-3, crop_duration=3.0),
        synth=SynthSpec(duration=3.0, sample_rate=16000),
    )


PRESETS = {"desk": desk_config, "full": full_scale_config}


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
    for name, value in data.items():
        if is_dataclass(getattr(base, name)):
            values[name] = _fill(getattr(base, name), value,
                                 f"{path}.{name}" if path else name)
    try:
        return replace(base, **values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def config_from_dict(data) -> ExperimentConfig:
    """The desk preset with the sections and fields ``data`` gives replaced."""
    return _fill(desk_config(), data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")
