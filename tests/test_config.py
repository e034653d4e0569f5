import json
from dataclasses import asdict

import pytest

from mfcontrast import cli
from mfcontrast.config import (ConfigError, ExperimentConfig, config_from_dict,
                               desk_config, full_scale_config, load_config, save_config)


@pytest.mark.parametrize("preset", [desk_config, full_scale_config])
def test_presets_round_trip_through_a_saved_file(tmp_path, preset):
    save_config(preset(), tmp_path / "cfg.json")
    assert load_config(tmp_path / "cfg.json") == preset()


def test_the_default_experiment_is_the_desk_preset():
    assert ExperimentConfig() == desk_config()


def merged(base, data):
    """``base`` (an asdict tree) with the leaves ``data`` gives replaced."""
    return {k: merged(v, data[k]) if isinstance(v, dict) and k in data
            else data.get(k, v) for k, v in base.items()}


# every section and field a file leaves out keeps its desk value
@pytest.mark.parametrize("data", [
    {},
    {"train": {"loss": {"temperature": 0.1}}},
    {"encoder": {"num_blocks": 3}, "trials": {"seed": 7}},
    {"train": {"objective": "combined", "loss": {"lam2": 0.1}}, "synth": {"duration": 2.0}},
])
def test_a_partial_file_changes_only_the_fields_it_names(data):
    assert asdict(config_from_dict(data)) == merged(asdict(desk_config()), data)


# settings that TrainConfig and its LossConfig no longer have: the mel-bin
# count is EncoderConfig.input_dim, the framing and the augmentation draws are
# fixed in features, SupCon is the only contrastive loss, and mfcon reads its
# weight from loss.lam1. A dotted key such as loss.triplet_margin lies in that
# subsection of train; every config saved before the contrastive kinds were
# removed holds both loss keys, and every one saved before lam1 became mfcon's
# weight holds loss.lam.
@pytest.mark.parametrize("key, value", [("n_mels", 80), ("frame_len", 0.025),
                                        ("frame_shift", 0.01), ("snr_range", [0.0, 15.0]),
                                        ("noise_prob", 0.5),
                                        ("loss.contrastive_kind", "supcon"),
                                        ("loss.triplet_margin", 0.2),
                                        ("loss.lam", 0.01)])
def test_removed_train_keys_are_named_config_errors(tmp_path, capsys, key, value):
    section, _, name = key.rpartition(".")
    entry = {section: {name: value}} if section else {name: value}
    where = f"train.{section}" if section else "train"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 1, **entry}}))
    with pytest.raises(ConfigError, match=f"{where}: unknown keys \\['{name}'\\]"):
        load_config(path)
    assert cli.main(["train", "--synthetic", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
