from dataclasses import replace
from pathlib import Path

from mfcontrast import __version__, cli
from mfcontrast.config import TrialSpec, desk_config, save_config


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


def test_unknown_flag_is_a_usage_error(tmp_path):
    assert cli.main(["train", "--synthetic", "--out", str(tmp_path), "--no-such-flag"]) == 2


def test_synthetic_train_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--synthetic", "--config", str(small_config(tmp_path / "cfg.json")),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "checkpoint.npz").is_file()
    assert "EER" in capsys.readouterr().out


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
