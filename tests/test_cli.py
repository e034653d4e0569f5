import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfcontrast import __version__, cli
from mfcontrast.config import PRESETS, TrialSpec, desk_config, save_config
from mfcontrast.encoder import EncoderConfig
from mfcontrast.features import Waveform
from mfcontrast.heads import HeadConfig
from mfcontrast.metrics import Trial, load_trials, save_trials
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import SynthSpec, export_corpus, generate_corpus
from mfcontrast.trainer import NonFiniteLossError


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


def synthetic_run(tmp_path, argv):
    """Exit code of ``argv`` on the synthetic corpus into ``tmp_path/run``; a
    dict in ``argv`` stands for a --config file that holds it."""
    config = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    return cli.main(argv + ["--synthetic", "--out", str(tmp_path / "run")])


# flags and sweep axes the parser does not offer, among them the removed
# contrastive-kind choice (SupCon is the only contrastive loss) and the
# removed --lambda (--lambda1 is mfcon's weight), and flags it does not take
# together: a config file and a preset each name the whole starting point
@pytest.mark.parametrize("argv, name", [
    (["train", "--no-such-flag"], "--no-such-flag"),
    (["train", "--contrastive-kind", "npair"], "--contrastive-kind"),
    (["sweep", "--axis", "contrastive_kind", "--values", "supcon"], "contrastive_kind"),
    (["train", "--lambda", "0.1"], "--lambda"),
    (["train", "--preset", "full", "--config", "cfg.json"], "--config"),
], ids=["unknown-flag", "contrastive-kind-flag", "contrastive_kind-axis", "lambda-flag",
        "config-with-preset"])
def test_unknown_flag_is_a_usage_error(tmp_path, capsys, argv, name):
    assert synthetic_run(tmp_path, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mfcontrast") and name in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "0"],
    ["train", "--loss", "am_supcon", "--lambda2", "-1"],
    ["train", "--lambda1", "-1"],
    ["train", "--lambda2", "-1"],
    ["train", "--seed", "-3"],
    ["sweep", "--axis", "lambda", "--values", "abc"],
    ["sweep", "--axis", "lambda", "--values", "-0.5"],
    ["sweep", "--axis", "lambda12", "--values", "1:2:3"],
    # two values that would train into one run directory
    ["sweep", "--axis", "lambda", "--values", "0.1,0.10"],
    ["sweep", "--axis", "lambda", "--values", "0.1,0.1000000001"],
    ["sweep", "--axis", "lambda12", "--values", "0.1,0.1:0.1"],
    # non-finite or non-positive hyperparameters
    ["train", "--lambda2", "inf"],
    ["train", "--lambda1", "inf"],
    ["train", "--lambda1", "nan"],
    ["train", "--loss", "mfcon", "--lambda2", "nan"],
    ["sweep", "--axis", "lambda", "--values", "nan"],
    ["sweep", "--axis", "lambda12", "--values", "0.1:inf"],
    ["train", "--config", {"train": {"lr": float("nan")}}],
    ["train", "--config", {"train": {"crop_duration": 0}}],
    ["train", "--config", {"train": {"crop_duration": float("inf")}}],
    ["train", "--config", {"train": {"loss": {"temperature": float("nan")}}}],
    ["train", "--config", {"train": {"loss": {"scale": float("inf")}}}],
    ["train", "--config", {"train": {"loss": {"margin": float("nan")}}}],
    # crops shorter than the encoder's 4 filterbank frames
    ["train", "--config", {"train": {"crop_duration": 0.04, "epochs": 1},
                           "synth": {"n_speakers": 3, "utts_per_speaker": 4},
                           "trials": {"n_target": 5, "n_nontarget": 5}}],
    ["train", "--config", {"train": {"crop_duration": 0.05}}],
])
def test_bad_flag_values_are_config_errors(tmp_path, capsys, argv):
    assert synthetic_run(tmp_path, argv) == 2
    assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "run").exists()


# a weight the objective reads is 0: the run would train another objective
# under this one's name
@pytest.mark.parametrize("argv, field", [
    (["train", "--loss", "mfcon", "--lambda1", "0"], "lam1"),
    (["train", "--loss", "am_supcon"], "lam2"),
    (["train", "--loss", "combined", "--lambda2", "0.1", "--lambda1", "0"], "lam1"),
    (["train", "--loss", "combined"], "lam2"),
    (["train", "--config", {"train": {"loss": {"lam1": 0}}}], "lam1"),
    (["sweep", "--axis", "lambda", "--values", "0.1,0"], "lam1"),
    (["sweep", "--axis", "lambda12", "--values", "0.1:0"], "lam2"),
    (["sweep", "--axis", "sharing", "--values", "none", "--config",
      {"train": {"objective": "am_supcon", "loss": {"lam1": 0, "lam2": 0.1}}}], "lam1"),
])
def test_a_zero_weight_the_objective_reads_is_a_config_error(tmp_path, capsys, argv,
                                                             field):
    assert synthetic_run(tmp_path, argv) == 2
    assert f"reads loss.{field}, which must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, run_dir", [
    (["train"], "."),
    (["sweep", "--axis", "lambda", "--values", "0.1,0.2"], "lambda_0.1"),
])
def test_non_finite_loss_exits_4_and_ends_the_manifest(tmp_path, capsys, monkeypatch,
                                                       argv, run_dir):
    def diverge(*args, **kwargs):
        raise NonFiniteLossError({"total": float("nan")})

    monkeypatch.setattr(cli, "train", diverge)
    out = tmp_path / "run"
    argv = argv + ["--synthetic", "--config", str(small_config(tmp_path / "cfg.json")),
                   "--out", str(out)]
    assert cli.main(argv) == 4
    assert "numerical failure" in capsys.readouterr().err
    records = [json.loads(line)
               for line in (out / run_dir / "manifest.jsonl").read_text().splitlines()]
    assert [r["event"] for r in records] == ["start", "end"]
    assert records[-1]["status"] == "numerical-failure"


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


def test_preset_choices_are_the_presets_table(tmp_path):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("train", "sweep"):
        preset = next(a for a in commands[command]._actions if a.dest == "preset")
        assert preset.choices == tuple(PRESETS)
    for name, build in PRESETS.items():
        args = parser.parse_args(["train", "--preset", name, "--synthetic",
                                  "--out", str(tmp_path)])
        assert cli._load_experiment(args) == build()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_that_mixes_sample_rates_is_a_data_error(tmp_path, capsys, command):
    # 4 speakers at 8 kHz and 4 others at 16 kHz: mel bin k would be a
    # different band in different rows of one batch
    low, high = (generate_corpus(SynthSpec(n_speakers=4, utts_per_speaker=2, duration=0.5,
                                           sample_rate=rate, seed=1))
                 for rate in (8000, 16000))
    high = [Waveform(w.samples, w.sample_rate, "wide" + w.speaker_id,
                     "wide" + w.utterance_id) for w in high]
    manifest = export_corpus(low + high, tmp_path / "data")
    if command == "train":
        argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
    else:
        saved_checkpoint(tmp_path / "checkpoint.npz")
        save_trials(tmp_path / "trials.txt", [Trial(low[0].utterance_id,
                                                     high[0].utterance_id, False)])
        argv = ["eval", str(tmp_path / "checkpoint.npz"), str(tmp_path / "trials.txt"),
                str(manifest), "--scores-out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "8000" in err and "16000" in err
    assert not (tmp_path / "run").exists()
