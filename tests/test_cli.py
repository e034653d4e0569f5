import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfcontrast import __version__, cli
from mfcontrast.config import TrialSpec, desk_config, save_config
from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.metrics import load_trials
from mfcontrast.model import SpeakerModel


def small_config(path):
    """The desk preset on a 4-speaker corpus: one epoch takes about a second."""
    cfg = desk_config()
    cfg = replace(cfg, synth=replace(cfg.synth, n_speakers=4, utts_per_speaker=6),
                  train=replace(cfg.train, batch_size=12, epochs=1),
                  trials=TrialSpec(n_target=20, n_nontarget=20))
    save_config(cfg, path)
    return path


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert f'\nversion = "{__version__}"\n' in pyproject.read_text()


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, mfcontrast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_unknown_flag_is_a_usage_error(tmp_path):
    assert cli.main(["train", "--synthetic", "--out", str(tmp_path), "--no-such-flag"]) == 2


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "0"],
    ["train", "--lambda", "-1"],
    ["train", "--lambda1", "-1"],
    ["train", "--lambda2", "-1"],
    ["train", "--seed", "-3"],
    ["sweep", "--axis", "lambda", "--values", "abc"],
    ["sweep", "--axis", "lambda", "--values", "-0.5"],
    ["sweep", "--axis", "lambda12", "--values", "1:2:3"],
])
def test_bad_flag_values_are_config_errors(tmp_path, capsys, argv):
    assert cli.main(argv + ["--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())


def test_synthetic_train_writes_checkpoint(tmp_path, capsys, monkeypatch):
    runs, cli_train = [], cli.train

    def keep_result(*args, **kwargs):
        runs.append(cli_train(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "train", keep_result)
    out = tmp_path / "run"
    argv = ["train", "--synthetic", "--config", str(small_config(tmp_path / "cfg.json")),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "checkpoint.npz").is_file()
    assert "EER" in capsys.readouterr().out
    # the configured 4 speakers train; the trials use 4 others
    trained = set(runs[0].label_map)
    scored = {utt.split("_utt")[0] for t in load_trials(out / "trials.txt")
              for utt in (t.enroll_utt, t.test_utt)}
    assert len(trained) == 4 and len(scored) == 4
    assert not trained & scored


def test_oversize_trial_spec_is_a_config_error(tmp_path, capsys):
    cfg = desk_config()
    cfg = replace(cfg, synth=replace(cfg.synth, n_speakers=3, utts_per_speaker=3))
    save_config(cfg, tmp_path / "cfg.json")
    argv = ["train", "--synthetic", "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert "trials" in capsys.readouterr().err


def saved_checkpoint(path):
    model = SpeakerModel(EncoderConfig(num_blocks=1, model_dim=8, num_heads=2,
                                       ff_expansion=2, conv_kernel=3, input_dim=8),
                         HeadConfig(embed_dim=4, attention_hidden=3), num_speakers=2)
    model.save(path)
    with np.load(path) as archive:
        return {k: archive[k] for k in archive.files}


def eval_exit_code(path, tmp_path, capsys):
    code = cli.main(["eval", str(path), str(tmp_path / "trials.txt"),
                     str(tmp_path / "manifest.txt")])
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err
    return code


def test_eval_rejects_checkpoint_whose_config_does_not_build(tmp_path, capsys):
    path = tmp_path / "checkpoint.npz"
    arrays = saved_checkpoint(path)
    meta = json.loads(bytes(arrays["meta"]))
    meta["encoder"]["no_such_knob"] = 1
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    assert eval_exit_code(path, tmp_path, capsys) == 3


def test_eval_rejects_checkpoint_arrays_unlike_its_config(tmp_path, capsys):
    path = tmp_path / "checkpoint.npz"
    arrays = saved_checkpoint(path)
    renamed = dict(arrays)
    renamed["param/encoder.frontend.w_old"] = renamed.pop("param/encoder.frontend.w")
    np.savez(path, **renamed)
    assert eval_exit_code(path, tmp_path, capsys) == 3
    reshaped = dict(arrays)
    reshaped["param/classifier.w"] = np.zeros((3, 4), dtype=np.float32)
    np.savez(path, **reshaped)
    assert eval_exit_code(path, tmp_path, capsys) == 3


def test_preset_full_resolves_without_training(tmp_path):
    args = cli.build_parser().parse_args(
        ["train", "--preset", "full", "--synthetic", "--out", str(tmp_path)])
    cfg = cli._load_experiment(args)
    assert (cfg.encoder.num_blocks, cfg.encoder.model_dim) == (6, 256)


def test_config_takes_precedence_over_preset(tmp_path):
    path = small_config(tmp_path / "cfg.json")
    args = cli.build_parser().parse_args(
        ["train", "--preset", "full", "--config", str(path), "--out", str(tmp_path)])
    assert cli._load_experiment(args).encoder.num_blocks == 2
