import json
from dataclasses import asdict

import pytest

from mfcontrast import cli
from mfcontrast.config import (ConfigError, ExperimentConfig, config_from_dict, desk_config,
                               load_config)
from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.synthdata import SynthSpec
from mfcontrast.trainer import TrainConfig

from writers import save_config


def test_the_default_experiment_is_the_desk_preset():
    assert ExperimentConfig() == desk_config()


@pytest.mark.parametrize("section, cls", [("encoder", EncoderConfig), ("head", HeadConfig),
                                          ("train", TrainConfig), ("synth", SynthSpec)])
def test_each_section_default_is_the_desk_preset(section, cls):
    assert cls() == getattr(desk_config(), section)


LOSS = {"lam1": 0.01, "lam2": 0.0}
DESK = {
    "encoder": {"num_blocks": 2, "model_dim": 64, "dropout": 0.0, "input_dim": 80},
    "head": {"embed_dim": 64},
    "train": {"batch_size": 50, "epochs": 30, "seed": 0, "eval_every": 0,
              "objective": "mfcon", "loss": LOSS, "crop_duration": 1.0},
    "synth": {"n_speakers": 10, "utts_per_speaker": 20, "duration": 1.6,
              "sample_rate": 8000, "seed": 0},
}
FULL = {
    "encoder": {"num_blocks": 6, "model_dim": 256, "dropout": 0.1, "input_dim": 80},
    "head": {"embed_dim": 192},
    "train": {"batch_size": 100, "epochs": 30, "seed": 0, "eval_every": 0,
              "objective": "mfcon", "loss": LOSS, "crop_duration": 3.0},
    "synth": {"n_speakers": 10, "utts_per_speaker": 20, "duration": 3.0,
              "sample_rate": 16000, "seed": 0},
}


# every value of the desk preset, written out; and a file that names every
# field, FULL (the published six-block sizes, 16 kHz audio, 3 s crops),
# loads to exactly what it names. The published feed-forward expansion 4,
# depthwise kernel 15, attention width 128 and learning rate 1e-3 are no
# fields: they are the constants encoder.FF_EXPANSION = 2,
# encoder.CONV_KERNEL = 7, heads.ATTENTION_HIDDEN = 32 and trainer.LR = 1.5e-3
@pytest.mark.parametrize("build, expected", [(desk_config, DESK),
                                             (lambda: config_from_dict(FULL), FULL)],
                         ids=["desk", "full"])
def test_presets_hold_their_pinned_values(build, expected):
    assert asdict(build()) == expected


@pytest.mark.parametrize("build", [desk_config, lambda: config_from_dict(FULL)],
                         ids=["desk_config", "full_scale_config"])
def test_presets_round_trip_through_a_saved_file(tmp_path, build):
    save_config(build(), tmp_path / "cfg.json")
    assert load_config(tmp_path / "cfg.json") == build()


def merged(base, data):
    """``base`` (an asdict tree) with the leaves ``data`` gives replaced."""
    return {k: merged(v, data[k]) if isinstance(v, dict) and k in data
            else data.get(k, v) for k, v in base.items()}


# every section and field a file leaves out keeps its desk value
@pytest.mark.parametrize("data", [
    {},
    {"train": {"loss": {"lam1": 0.5}}},
    {"encoder": {"num_blocks": 3}, "head": {"embed_dim": 32}},
    {"train": {"objective": "combined", "loss": {"lam2": 0.1}}, "synth": {"duration": 2.0}},
])
def test_a_partial_file_changes_only_the_fields_it_names(data):
    assert asdict(config_from_dict(data)) == merged(asdict(desk_config()), data)


# settings that TrainConfig and its LossConfig no longer have: the mel-bin
# count is EncoderConfig.input_dim, the framing and the augmentation draws are
# fixed in features, the learning rate halves every trainer.LR_HALVE_EVERY
# epochs, SupCon is the only contrastive loss, and mfcon reads its
# weight from loss.lam1; the margin is on the cosine and SupCon sums over
# anchors; the margin, scale and temperature are constants of losses. A
# dotted key such as loss.triplet_margin lies in that subsection of train;
# every config saved before the contrastive kinds were removed holds both
# loss keys, every one saved before lam1 became mfcon's weight holds
# loss.lam, every one saved before the margin style and the SupCon reduction
# were fixed holds loss.margin_style and loss.supcon_mean_over_anchors, and
# every one saved before the margin, scale and temperature became constants
# holds all three.
@pytest.mark.parametrize("key, value", [("n_mels", 80), ("frame_len", 0.025),
                                        ("frame_shift", 0.01), ("snr_range", [0.0, 15.0]),
                                        ("noise_prob", 0.5),
                                        ("loss.contrastive_kind", "supcon"),
                                        ("loss.triplet_margin", 0.2),
                                        ("loss.lam", 0.01), ("lr_halve_every", 5),
                                        ("loss.margin_style", "cosine_additive"),
                                        ("loss.supcon_mean_over_anchors", False),
                                        ("loss.margin", 0.2), ("loss.scale", 30.0),
                                        ("loss.temperature", 0.07)])
def test_removed_train_keys_are_named_config_errors(tmp_path, capsys, key, value):
    check_removed_key(tmp_path, capsys, f"train.{key}", value)


# keys that no config has any more: every block has its own head, so configs
# saved before the head-sharing flags were removed hold both, false; every
# attention module has encoder.NUM_HEADS heads, every feed-forward module
# encoder.FF_EXPANSION times model_dim hidden units, every depthwise
# convolution encoder.CONV_KERNEL taps and every pooling attention
# heads.ATTENTION_HIDDEN hidden units, and Adam starts at trainer.LR, so
# configs saved before those became constants hold encoder.num_heads,
# encoder.ff_expansion, encoder.conv_kernel, head.attention_hidden or
# train.lr; and
# every pair of scored utterances is a trial, so configs saved before the
# trial counts went hold a trials section, with a seed if saved before the
# trial seed was fixed
@pytest.mark.parametrize("key, value", [("head.share_pooling", False),
                                        ("head.share_projection", False),
                                        ("encoder.num_heads", 4),
                                        ("encoder.ff_expansion", 2),
                                        ("encoder.conv_kernel", 7),
                                        ("head.attention_hidden", 32),
                                        ("train.lr", 1.5e-3),
                                        ("trials", {"n_target": 250, "n_nontarget": 250}),
                                        ("trials", {"seed": 100, "n_target": 250,
                                                    "n_nontarget": 250})],
                         ids=["head.share_pooling", "head.share_projection",
                              "encoder.num_heads", "encoder.ff_expansion",
                              "encoder.conv_kernel", "head.attention_hidden", "train.lr",
                              "trials", "trials.seed"])
def test_removed_section_keys_are_named_config_errors(tmp_path, capsys, key, value):
    check_removed_key(tmp_path, capsys, key, value)


def check_removed_key(tmp_path, capsys, key, value):
    """A file whose dotted ``key`` holds ``value`` fails to load, naming the
    key and its section, and ``train`` exits 2 with one ``error:`` line that
    names the key, before any run directory."""
    *where, name = key.split(".")
    data = {name: value}
    for section in reversed(where):
        data = {section: data}
    data["train"] = {"epochs": 1, **data.get("train", {})}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError,
                       match=f"{'.'.join(where) or 'top level'}: unknown keys \\['{name}'\\]"):
        load_config(path)
    assert cli.main(["train", "--synthetic", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and f"'{name}'" in errors[0]
    assert not (tmp_path / "run").exists()


# a value of the wrong JSON type, or a seed, evaluation interval or encoder
# size out of range, fails on load and names its key before any run
# directory exists: a section takes only an object, an int field only an
# integer (a bool is not one) and a float field an int or a float; a
# negative interval would silently never evaluate, and an encoder size
# below 1 builds no model
@pytest.mark.parametrize("key, value", [
    ("encoder", 3), ("encoder.num_blocks", 2.5), ("synth.n_speakers", 3.0),
    ("train.seed", True), ("train.batch_size", 12.5), ("train.crop_duration", "1.0"),
    ("train.loss.lam1", True), ("train.objective", 1), ("encoder.dropout", None),
    ("train.eval_every", -1), ("encoder.input_dim", 0), ("encoder.model_dim", 0),
    ("encoder.model_dim", -4),
])
def test_a_value_of_the_wrong_type_or_range_is_a_named_config_error(tmp_path, capsys,
                                                                     key, value):
    *where, name = key.split(".")
    data = {name: value}
    for section in reversed(where):
        data = {section: data}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    named = (key, f"{'.'.join(where)}: {name} ")
    assert str(err.value).startswith(named)
    assert cli.main(["train", "--synthetic", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(tuple(f"error: {n}" for n in named))
    assert not (tmp_path / "run").exists()


# a float field takes a JSON integer as the number it is
def test_a_float_field_takes_an_integer():
    cfg = config_from_dict({"train": {"crop_duration": 2, "loss": {"lam1": 1}},
                            "encoder": {"dropout": 0}})
    assert (cfg.train.crop_duration, cfg.train.loss.lam1, cfg.encoder.dropout) == (2.0, 1.0, 0.0)
