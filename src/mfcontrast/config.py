"""Experiment configuration: a JSON file with one section per config
dataclass (encoder, head, train, synth, trials), plus ready-made presets.

Unknown sections or keys are rejected so typos fail loudly instead of
silently training the wrong model.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .encoder import EncoderConfig
from .heads import HeadConfig
from .losses import LossConfig
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
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)
    trials: TrialSpec = field(default_factory=TrialSpec)


def desk_config() -> ExperimentConfig:
    """Small preset that trains to a low error rate in about a minute on
    the synthetic corpus."""
    return ExperimentConfig(
        encoder=EncoderConfig(num_blocks=2, model_dim=64, num_heads=4,
                              ff_expansion=2, conv_kernel=7, dropout=0.0,
                              input_dim=80),
        head=HeadConfig(embed_dim=64, attention_hidden=32),
        train=TrainConfig(batch_size=50, lr=1.5e-3, epochs=30,
                          crop_duration=1.0, objective="mfcon",
                          loss=LossConfig(lam=0.01)),
        synth=SynthSpec(n_speakers=10, utts_per_speaker=20, duration=1.6,
                        sample_rate=8000),
        trials=TrialSpec(n_target=250, n_nontarget=250),
    )


def full_scale_config() -> ExperimentConfig:
    """Six-block preset with the published training hyperparameters.
    Sized for real corpora; untested at that scale."""
    return ExperimentConfig(
        encoder=EncoderConfig(num_blocks=6, model_dim=256, num_heads=4,
                              ff_expansion=4, conv_kernel=15, dropout=0.1,
                              input_dim=80),
        head=HeadConfig(embed_dim=192, attention_hidden=128),
        train=TrainConfig(batch_size=100, lr=1e-3, lr_halve_every=5,
                          epochs=30, crop_duration=3.0, objective="mfcon",
                          loss=LossConfig(lam=0.01)),
        synth=SynthSpec(n_speakers=10, utts_per_speaker=20, duration=3.0,
                        sample_rate=16000),
    )


_SECTIONS = {"encoder": EncoderConfig, "head": HeadConfig,
             "train": TrainConfig, "synth": SynthSpec, "trials": TrialSpec}


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    values = dict(data)
    if cls is TrainConfig and "loss" in values:
        values["loss"] = _build(LossConfig, values["loss"], f"{where}.loss")
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def config_from_dict(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"top level: unknown sections {sorted(unknown)}")
    base = ExperimentConfig()
    parts = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            parts[name] = _build(cls, data[name], name)
        else:
            parts[name] = getattr(base, name)
    return ExperimentConfig(**parts)


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
