import itertools
import json
import os
import struct
import subprocess
import sys
import wave
import zipfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mfcontrast import __version__, cli
from mfcontrast.config import config_from_dict, desk_config, load_config
from mfcontrast.encoder import EncoderConfig
from mfcontrast.features import Waveform, extract_fbank
from mfcontrast.heads import HeadConfig
from mfcontrast.metrics import (Trial, TrialScoreSet, compute_eer, compute_mindcf,
                                load_trials, save_trials)
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import SynthSpec, generate_corpus
from mfcontrast.trainer import EvalResult, NonFiniteLossError

from oracles import brute_force_eer, brute_force_mindcf, cosine_score
from writers import export_corpus, rewrite_meta, save_config, save_wav


def small_config(path):
    """The desk preset on a 4-speaker corpus: one epoch takes about a second."""
    cfg = desk_config()
    cfg = replace(cfg, synth=replace(cfg.synth, n_speakers=4, utts_per_speaker=6),
                  train=replace(cfg.train, batch_size=12, epochs=1))
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


# flags the parser does not offer, among them the removed contrastive-kind
# choice (SupCon is the only contrastive loss), the removed weight flags and
# sweep axes (an objective row names its weights), and the removed preset
# choice (a run starts from the desk preset or a config file)
@pytest.mark.parametrize("argv, name", [
    (["train", "--no-such-flag"], "--no-such-flag"),
    (["train", "--contrastive-kind", "npair"], "--contrastive-kind"),
    (["sweep", "--axis", "contrastive_kind", "--values", "supcon"], "--axis"),
    (["train", "--lambda", "0.1"], "--lambda"),
    (["train", "--preset", "desk"], "--preset"),
    (["sweep", "--axis", "sharing", "--values", "none"], "--axis"),
    (["train", "--lambda1", "0.5"], "--lambda1"),
    (["train", "--loss", "combined", "--lambda2", "0.5"], "--lambda2"),
    (["sweep", "mfcon", "--axis", "lambda"], "--axis"),
    (["sweep", "mfcon", "--values", "0.1"], "--values"),
    (["sweep"], "ROW"),
], ids=["unknown-flag", "contrastive-kind-flag", "contrastive_kind-axis", "lambda-flag",
        "preset-flag", "sharing-axis", "lambda1-flag", "lambda2-flag", "axis-flag",
        "values-flag", "sweep-without-rows"])
def test_unknown_flag_is_a_usage_error(tmp_path, capsys, argv, name):
    assert synthetic_run(tmp_path, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mfcontrast") and name in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "0"],
    ["train", "--loss", "am_supcon:lam2=-1"],
    ["train", "--loss", "mfcon:lam1=-1"],
    ["train", "--loss", "combined:lam2=-1"],
    ["train", "--seed", "-3"],
    ["sweep", "mfcon:lam1=abc"],
    ["sweep", "mfcon:lam1=-0.5"],
    ["sweep", "combined:lam1=1,lam2=2:3"],
    # two rows that would train into one run directory
    ["sweep", "mfcon:lam1=0.1", "mfcon:lam1=0.10"],
    ["sweep", "mfcon:lam1=0.1", "mfcon:lam1=0.1000000001"],
    ["sweep", "combined:lam1=0.1,lam2=0.1", "combined:lam2=0.1,lam1=0.1"],
    # non-finite or non-positive hyperparameters
    ["train", "--loss", "combined:lam2=inf"],
    ["train", "--loss", "mfcon:lam1=inf"],
    ["train", "--loss", "mfcon:lam1=nan"],
    ["train", "--loss", "am_supcon:lam2=nan"],
    ["sweep", "mfcon:lam1=nan"],
    ["sweep", "combined:lam1=0.1,lam2=inf"],
    ["train", "--config", {"train": {"crop_duration": float("nan")}}],
    ["train", "--config", {"train": {"crop_duration": 0}}],
    ["train", "--config", {"train": {"crop_duration": float("inf")}}],
    ["train", "--config", {"train": {"loss": {"lam1": float("nan")}}}],
    ["train", "--config", {"train": {"loss": {"lam2": float("inf")}}}],
    ["train", "--config", {"train": {"loss": {"lam2": -0.5}}}],
    # crops shorter than the encoder's 4 filterbank frames
    ["train", "--config", {"train": {"crop_duration": 0.04, "epochs": 1},
                           "synth": {"n_speakers": 3, "utts_per_speaker": 4}}],
    ["train", "--config", {"train": {"crop_duration": 0.05}}],
])
def test_bad_flag_values_are_config_errors(tmp_path, capsys, argv):
    assert synthetic_run(tmp_path, argv) == 2
    assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "run").exists()


# an objective row is name[:weight=value,...]: a weight its objective does
# not read, a malformed item, a field that is not a weight, an unknown
# objective, and two rows whose canonical tags agree (at the desk lam1 of
# 0.01) are each rejected, by name, before anything trains
@pytest.mark.parametrize("argv, named", [
    (["train", "--loss", "am_softmax:lam1=0.5"], "'lam1=0.5'"),
    (["train", "--loss", "mfcon:lam2=0.1"], "'lam2=0.1'"),
    (["sweep", "mfcon:lam1=0.1", "am_softmax:lam1=0.5"], "'lam1=0.5'"),
    (["train", "--loss", "mfcon:lam1"], "'lam1'"),
    (["train", "--loss", "mfcon:lam1=1=2"], "'1=2'"),
    (["train", "--loss", "mfcon:"], "'mfcon:'"),
    (["train", "--loss", "mfcon:lam1=0.1,lam1=0.2"], "'lam1=0.2'"),
    (["train", "--loss", "mfcon:margin=0.3"], "'margin=0.3'"),
    (["train", "--loss", "bogus"], "'bogus': objective must be one of"),
    (["train", "--loss", ""], "'': objective must be one of"),
    (["sweep", "bogus:lam1=0.1"], "'bogus:lam1=0.1': objective must be one of"),
    (["sweep", "mfcon", "mfcon:lam1=0.01"], "more than once: ['mfcon:lam1=0.01']"),
    (["sweep", "am_softmax", "mfcon:lam1=0.1", "am_softmax"], "more than once: ['am_softmax']"),
], ids=["unread-weight", "unread-lam2", "unread-weight-in-sweep", "no-value", "two-equals",
        "empty-item", "repeated-weight", "not-a-weight", "unknown-objective", "empty-row",
        "unknown-objective-in-sweep", "default-valued-collision", "repeated-row"])
def test_a_bad_objective_row_is_a_named_config_error(tmp_path, capsys, argv, named):
    assert synthetic_run(tmp_path, argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and named in errors[0]
    assert not (tmp_path / "run").exists()


def captured_runs(monkeypatch):
    """Patch ``cli.train`` to record each run's TrainConfig and out_dir and
    report EER 0.25, minDCF 0.5 for the first run, 0.125 and 0.75 after."""
    runs = []

    def fake_train(corpus, enc_cfg, head_cfg, train_cfg, out_dir, trials, store):
        runs.append((train_cfg, out_dir))
        eer, mindcf = (0.25, 0.5) if len(runs) == 1 else (0.125, 0.75)
        return SimpleNamespace(eval_result=EvalResult(eer, mindcf, None))

    monkeypatch.setattr(cli, "train", fake_train)
    return runs


# every old invocation has a row: --loss NAME --lambda1 X --lambda2 Y is
# --loss NAME:lam1=X,lam2=Y, and a weight a row leaves out keeps the
# config's value (the desk lam1 is 0.01, lam2 0)
@pytest.mark.parametrize("argv, objective, lam1, lam2", [
    ([], "mfcon", 0.01, 0.0),
    (["--loss", "am_softmax"], "am_softmax", 0.01, 0.0),
    (["--loss", "mfcon"], "mfcon", 0.01, 0.0),
    (["--loss", "mfcon:lam1=0.5"], "mfcon", 0.5, 0.0),
    (["--loss", "am_supcon:lam2=0.2"], "am_supcon", 0.01, 0.2),
    (["--loss", "combined:lam2=0.1"], "combined", 0.01, 0.1),
    (["--loss", "combined:lam2=0.3,lam1=1e-4"], "combined", 1e-4, 0.3),
])
def test_train_loss_row_sets_the_objective_and_its_weights(tmp_path, monkeypatch, argv,
                                                           objective, lam1, lam2):
    runs = captured_runs(monkeypatch)
    assert cli.main(["train", "--synthetic", "--config", str(small_config(tmp_path / "c.json")),
                     "--out", str(tmp_path / "run")] + argv) == 0
    (train_cfg, _), = runs
    assert (train_cfg.objective, train_cfg.loss.lam1, train_cfg.loss.lam2) == (
        objective, lam1, lam2)


def test_sweep_trains_one_run_per_row_and_tabulates_the_canonical_tags(tmp_path, capsys,
                                                                       monkeypatch):
    runs = captured_runs(monkeypatch)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "am_softmax", "mfcon:lam1=0.1", "--synthetic", "--config",
                     str(small_config(tmp_path / "cfg.json")), "--out", str(out)]) == 0
    assert [(cfg.objective, cfg.loss.lam1) for cfg, _ in runs] == [("am_softmax", 0.01),
                                                                   ("mfcon", 0.1)]
    assert [run_dir for _, run_dir in runs] == [out / "am_softmax", out / "mfcon_lam1=0.1"]
    for _, run_dir in runs:
        records = [json.loads(line)
                   for line in (run_dir / "manifest.jsonl").read_text().splitlines()]
        assert [r["status"] for r in records[1:]] == ["ok"]
        assert (run_dir / "trials.txt").is_file()
    assert (out / "results.tsv").read_text().splitlines() == [
        "row\teer\tmindcf", "am_softmax\t0.250000\t0.500000",
        "mfcon:lam1=0.1\t0.125000\t0.750000"]
    assert "mfcon:lam1=0.1\tEER 12.50%" in capsys.readouterr().out


# the rows of a sweep differ only in their objective: the corpus, trials and
# store are built once for all of them
def test_a_sweep_resolves_its_dataset_once(tmp_path, monkeypatch):
    runs = captured_runs(monkeypatch)
    specs, generate = [], cli.generate_corpus
    monkeypatch.setattr(cli, "generate_corpus", lambda spec: specs.append(spec) or generate(spec))
    assert cli.main(["sweep", "am_softmax", "mfcon:lam1=0.1", "--synthetic", "--config",
                     str(small_config(tmp_path / "cfg.json")),
                     "--out", str(tmp_path / "sweep")]) == 0
    assert len(runs) == 2 and len(specs) == 1


# a run needs a corpus: neither --synthetic nor --data, or --data naming a
# manifest that does not exist (a missing file, or a directory without a
# manifest.txt), is a config error before any run directory exists
@pytest.mark.parametrize("data, named", [
    (lambda tmp_path: [], "either --synthetic or --data is required"),
    (lambda tmp_path: ["--data", str(tmp_path / "absent.txt")], "absent.txt"),
    (lambda tmp_path: ["--data", str(tmp_path)], "manifest.txt"),
], ids=["no-corpus", "missing-manifest", "directory-without-manifest"])
@pytest.mark.parametrize("command", [["train"], ["sweep", "am_softmax", "mfcon"]],
                         ids=["train", "sweep"])
def test_a_run_without_a_corpus_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                  data, named):
    runs = captured_runs(monkeypatch)
    assert cli.main(command + data(tmp_path) + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not runs and not (tmp_path / "run").exists()


def test_a_sweep_over_an_unreadable_manifest_fails_before_its_directory_exists(tmp_path,
                                                                              capsys):
    manifest, corpus = small_manifest(tmp_path)
    bad = manifest.parent / corpus[1].speaker_id / f"{corpus[1].utterance_id}.wav"
    bad.write_bytes(b"")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "am_softmax", "mfcon", "--data", str(manifest),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not out.exists()


# a start record that cannot be written leaves no temporary file beside the
# manifest: a record json cannot encode, or a rename that fails
@pytest.mark.parametrize("failure", ["encode", "rename"])
def test_a_failed_manifest_write_leaves_no_temporary_file(tmp_path, monkeypatch, failure):
    argv = ["train"]
    if failure == "encode":
        argv.append(object())
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises((TypeError, OSError)):
        cli._write_manifest_start(tmp_path, desk_config(), argv)
    assert list(tmp_path.iterdir()) == []


# a synthetic utterance shorter than the 55 ms that scoring needs is named as
# a config value before anything is generated or any run directory exists;
# at 55 ms the held-out utterances score
@pytest.mark.parametrize("argv", [["train"], ["sweep", "am_softmax", "mfcon"]])
def test_a_synthetic_duration_too_short_to_score_is_a_named_config_error(tmp_path, capsys,
                                                                       argv):
    assert synthetic_run(tmp_path, argv + ["--config", {"synth": {"duration": 0.01}}]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: synth.duration must be at least 0.055 s")
    assert not (tmp_path / "run").exists()


def test_a_synthetic_duration_of_55_ms_trains(tmp_path, monkeypatch):
    runs = captured_runs(monkeypatch)
    assert synthetic_run(tmp_path, ["train", "--config", {"synth": {"duration": 0.055}}]) == 0
    assert len(runs) == 1


# a weight the objective reads is 0: the run would train another objective
# under this one's name
@pytest.mark.parametrize("argv, field", [
    (["train", "--loss", "mfcon:lam1=0"], "lam1"),
    (["train", "--loss", "am_supcon"], "lam2"),
    (["train", "--loss", "combined:lam2=0.1,lam1=0"], "lam1"),
    (["train", "--loss", "combined"], "lam2"),
    (["train", "--config", {"train": {"loss": {"lam1": 0}}}], "lam1"),
    (["sweep", "mfcon:lam1=0.1", "mfcon:lam1=0"], "lam1"),
    (["sweep", "combined:lam1=0.1,lam2=0"], "lam2"),
])
def test_a_zero_weight_the_objective_reads_is_a_config_error(tmp_path, capsys, argv,
                                                             field):
    assert synthetic_run(tmp_path, argv) == 2
    assert f"reads loss.{field}, which must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, run_dir", [
    (["train"], "."),
    (["sweep", "mfcon:lam1=0.1", "mfcon:lam1=0.2"], "mfcon_lam1=0.1"),
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


def test_synthetic_train_scores_every_held_out_pair(tmp_path, capsys, monkeypatch):
    corpora, stores, cli_train = [], [], cli.train

    def keep_corpus(corpus, *args, **kwargs):
        corpora.append(corpus)
        stores.append(kwargs["store"])
        return cli_train(corpus, *args, **kwargs)

    monkeypatch.setattr(cli, "train", keep_corpus)
    out = tmp_path / "run"
    argv = ["train", "--synthetic", "--config", str(small_config(tmp_path / "cfg.json")),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "checkpoint.npz").is_file()
    assert "EER" in capsys.readouterr().out
    # the configured 4 speakers train; the trials use 4 others, 6 utterances each
    trained = {w.speaker_id for w in corpora[0]}
    held_out = stores[0]
    trials = load_trials(out / "trials.txt")
    scored = {held_out[u].speaker_id for t in trials for u in (t.enroll_utt, t.test_utt)}
    assert len(trained) == 4 and len(scored) == 4 and len(held_out) == 24
    assert not trained & scored
    # every unordered pair of held-out utterances is a trial once, labelled
    # by whether its speakers agree
    pairs = [frozenset((t.enroll_utt, t.test_utt)) for t in trials]
    assert len(pairs) == len(set(pairs)) == 24 * 23 // 2
    assert set(pairs) == {frozenset(p) for p in itertools.combinations(held_out, 2)}
    assert all(t.is_target == (held_out[t.enroll_utt].speaker_id
                               == held_out[t.test_utt].speaker_id) for t in trials)
    # the run's EER and minDCF are those of the saved model's cosine scores
    model = SpeakerModel.load(out / "checkpoint.npz")
    alone = {u: model.embed_utterance(extract_fbank([w], model.enc_cfg.input_dim).values)[0]
             for u, w in held_out.items()}
    scores = [cosine_score(alone[t.enroll_utt], alone[t.test_utt]) for t in trials]
    labels = [t.is_target for t in trials]
    oracle = TrialScoreSet(np.array(scores), np.array(labels))
    end = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (end["eer"], end["mindcf"]) == (compute_eer(oracle), compute_mindcf(oracle))
    assert end["eer"] == pytest.approx(brute_force_eer(scores, labels), abs=1e-12)
    assert end["mindcf"] == pytest.approx(brute_force_mindcf(scores, labels), abs=1e-12)


# the synthetic corpus is drawn from the train seed, so any other synth.seed
# would be recorded in the manifest but never used
@pytest.mark.parametrize("command", [["train"], ["sweep", "am_softmax", "mfcon"]],
                         ids=["train", "sweep"])
@pytest.mark.parametrize("config", [{"synth": {"seed": 7}},
                                    {"synth": {"seed": 7}, "train": {"seed": 8}}],
                         ids=["train-seed-0", "train-seed-8"])
def test_a_synth_seed_other_than_the_train_seed_is_a_named_config_error(tmp_path, capsys,
                                                                         command, config):
    assert synthetic_run(tmp_path, command + ["--config", config, "--seed", "7"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: synth.seed must be 0 or train.seed")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("synth_seed, train_seed, argv, drawn", [
    (0, 0, [], 0), (0, 3, [], 3), (3, 3, [], 3), (3, 3, ["--seed", "5"], 5)],
    ids=["both-0", "synth-0", "equal", "seed-flag"])
def test_the_manifest_records_the_seed_the_corpus_is_drawn_from(tmp_path, monkeypatch,
                                                                synth_seed, train_seed, argv,
                                                                drawn):
    cfg = load_config(small_config(tmp_path / "cfg.json"))
    cfg = replace(cfg, synth=replace(cfg.synth, seed=synth_seed),
                  train=replace(cfg.train, seed=train_seed))
    save_config(cfg, tmp_path / "cfg.json")
    specs, generate = [], cli.generate_corpus

    class Trains(Exception):
        pass

    def stop(*args, **kwargs):
        raise Trains

    monkeypatch.setattr(cli, "generate_corpus", lambda spec: specs.append(spec) or generate(spec))
    monkeypatch.setattr(cli, "train", stop)  # the manifest's start record is written by then
    run = tmp_path / "run"
    with pytest.raises(Trains):
        cli.main(["train", "--synthetic", "--config", str(tmp_path / "cfg.json"),
                  "--out", str(run)] + argv)
    assert [spec.seed for spec in specs] == [drawn]
    record = json.loads((run / "manifest.jsonl").read_text().splitlines()[0])
    recorded = config_from_dict(record["config"])
    assert recorded.synth.seed == recorded.train.seed == record["seed"] == drawn
    assert recorded == replace(cfg, synth=replace(cfg.synth, seed=drawn),
                               train=replace(cfg.train, seed=drawn))
    # the recorded config, given back as a file, resolves to itself
    save_config(recorded, tmp_path / "recorded.json")
    args = cli.build_parser().parse_args(["train", "--synthetic", "--config",
                                          str(tmp_path / "recorded.json"), "--out", str(run)])
    assert cli._load_experiment(args) == recorded


# a --config path that cannot be read as JSON is a config error naming it
@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"train": {"objective": "\xff"}}'),
    lambda path: path.write_text('{"train": '),
], ids=["missing", "directory", "not-utf-8", "invalid-json"])
def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys, make):
    path = tmp_path / "cfg.json"
    make(path)
    assert cli.main(["train", "--synthetic", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    assert not (tmp_path / "run").exists()


def saved_checkpoint(path):
    model = SpeakerModel(EncoderConfig(num_blocks=1, model_dim=8, input_dim=8),
                         HeadConfig(embed_dim=4), num_speakers=2)
    model.save(path)
    with np.load(path) as archive:
        return {k: archive[k] for k in archive.files}


def eval_exit_code(path, tmp_path, capsys, named=None):
    """Exit code of ``eval`` of the checkpoint at ``path`` on the trial list
    and manifest in ``tmp_path``, which must print one ``data error:`` line
    naming ``named`` (by default ``path``)."""
    code = cli.main(["eval", str(path), str(tmp_path / "trials.txt"),
                     str(tmp_path / "manifest.txt")])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(named or path) in err[0]
    return code


def test_eval_rejects_checkpoint_whose_config_does_not_build(tmp_path, capsys):
    # archives written before the head count, the depthwise kernel or the
    # pooling attention's width became encoder.NUM_HEADS, encoder.CONV_KERNEL
    # or heads.ATTENTION_HIDDEN name it
    path = tmp_path / "checkpoint.npz"
    for section, key, value in (("encoder", "num_heads", 4), ("encoder", "conv_kernel", 7),
                                ("head", "attention_hidden", 32)):
        saved_checkpoint(path)
        rewrite_meta(path, lambda meta: meta[section].update({key: value}))
        assert cli.main(["eval", str(path), str(tmp_path / "trials.txt"),
                         str(tmp_path / "manifest.txt")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"data error: could not load checkpoint {path}")
        assert "does not build a model" in err[0] and f"'{key}'" in err[0], key


# a trial list that does not exist, or whose first line's label is neither
# 0 nor 1, is a data error naming it (and the line) before anything is scored
@pytest.mark.parametrize("content, named", [(None, ""), ("2 a b\n", ":1: ")],
                         ids=["missing", "bad-label"])
def test_eval_rejects_a_trial_list_it_cannot_read(tmp_path, capsys, content, named):
    saved_checkpoint(tmp_path / "checkpoint.npz")
    trials = tmp_path / "trials.txt"
    if content is not None:
        trials.write_text(content)
    assert eval_exit_code(tmp_path / "checkpoint.npz", tmp_path, capsys,
                          f"{trials}{named}") == 3
    assert not Path(f"{trials}.scores").exists()


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


def test_eval_rejects_a_checkpoint_with_a_removed_array(tmp_path, capsys):
    # archives from before the attention key bias was removed carry attn.bk
    path = tmp_path / "checkpoint.npz"
    arrays = saved_checkpoint(path)
    arrays["param/encoder.block0.attn.bk"] = np.zeros(8, dtype=np.float32)
    np.savez(path, **arrays)
    assert cli.main(["eval", str(path), str(tmp_path / "trials.txt"),
                     str(tmp_path / "manifest.txt")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert "'encoder.block0.attn.bk'" in err[0]


def damage(path, how):
    """Overwrite the archive at ``path`` with an empty, a truncated, or a
    CRC-corrupted copy (one byte of the first member's data is flipped), or
    with a copy whose meta is JSON but not an object."""
    if how == "meta-not-an-object":
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["meta"] = np.frombuffer(b'["not", "an", "object"]', dtype=np.uint8)
        return np.savez(path, **arrays)
    data = bytearray(path.read_bytes())
    if how == "zero-byte":
        data = bytearray()
    elif how == "truncated":
        data = data[:len(data) // 2]
    else:
        with zipfile.ZipFile(path) as archive:
            first = archive.infolist()[0]
        name_len, extra_len = struct.unpack_from("<HH", data, first.header_offset + 26)
        start = first.header_offset + 30 + name_len + extra_len
        data[start + first.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("how", ["zero-byte", "truncated", "crc", "meta-not-an-object"])
def test_eval_rejects_a_damaged_checkpoint(tmp_path, capsys, how):
    path = tmp_path / "checkpoint.npz"
    saved_checkpoint(path)
    damage(path, how)
    assert eval_exit_code(path, tmp_path, capsys) == 3


def first_entry(value):
    """An edit that sets an array's first entry to ``value``."""
    def edit(a):
        a.flat[0] = value
        return a
    return edit


# an array that holds a NaN or an infinity, or is not real floating point
# (a string array made np.isfinite raise, and a complex one lost its
# imaginary part on load), is named before anything is scored
@pytest.mark.parametrize("key, edit, why", [
    ("param/encoder.block0.ffn1.w1", first_entry(np.nan), "non-finite"),
    ("state/mfa.bn.running_var", first_entry(np.inf), "non-finite"),
    ("param/classifier.w", lambda a: a.astype(str), "not real floating point"),
    ("param/classifier.w", lambda a: a.astype(np.complex64) + 1j, "not real floating point"),
    ("state/mfa.bn.running_var", lambda a: a.astype(np.int32), "not real floating point"),
], ids=["nan-parameter", "infinite-running-var", "string-parameter", "complex-parameter",
        "integer-running-var"])
def test_eval_rejects_a_checkpoint_with_a_non_finite_or_non_real_array(tmp_path, capsys,
                                                                       key, edit, why):
    manifest, corpus = small_manifest(tmp_path)
    path = tmp_path / "checkpoint.npz"
    arrays = saved_checkpoint(path)
    arrays[key] = edit(arrays[key])
    np.savez(path, **arrays)
    trials = tmp_path / "trials.txt"
    save_trials(trials, [Trial(corpus[0].utterance_id, corpus[1].utterance_id, True),
                         Trial(corpus[0].utterance_id, corpus[2].utterance_id, False)])
    scores = tmp_path / "scores.txt"
    assert cli.main(["eval", str(path), str(trials), str(manifest),
                     "--scores-out", str(scores)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: could not load checkpoint {path}")
    assert why in err[0] and repr(key.split("/", 1)[1]) in err[0]
    assert not scores.exists()


def small_manifest(tmp_path):
    """An exported 8 kHz corpus of 3 speakers with 2 utterances each, and its
    waveforms."""
    corpus = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=2, duration=0.5,
                                       sample_rate=8000, seed=1))
    return export_corpus(corpus, tmp_path / "data"), corpus


# a trial list needs both kinds of trial for an EER
@pytest.mark.parametrize("kinds", [(), (True,), (False,), (True, True)],
                         ids=["empty", "target-only", "nontarget-only", "targets-only"])
def test_eval_rejects_a_trial_list_without_both_kinds(tmp_path, capsys, monkeypatch,
                                                      kinds):
    manifest, corpus = small_manifest(tmp_path)
    saved_checkpoint(tmp_path / "checkpoint.npz")
    trials = tmp_path / "trials.txt"
    save_trials(trials, [Trial(corpus[0].utterance_id, corpus[1 if kind else 2].utterance_id,
                               kind) for kind in kinds])
    embedded = []
    monkeypatch.setattr(SpeakerModel, "embed_utterance",
                        lambda self, feats: embedded.append(feats))
    scores = tmp_path / "scores.txt"
    assert cli.main(["eval", str(tmp_path / "checkpoint.npz"), str(trials), str(manifest),
                     "--scores-out", str(scores)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(trials) in err
    assert not embedded and not scores.exists()


# an output path that cannot be written is rejected before anything trains
# or is scored: --out naming a file, or a path under one
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", [["train"], ["sweep", "am_softmax", "mfcon"]],
                         ids=["train", "sweep"])
def test_an_out_path_through_a_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                      command, under):
    runs = captured_runs(monkeypatch)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "run" if under else blocker
    assert cli.main(command + ["--synthetic", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(blocker) in err[0]
    assert runs == [] and blocker.read_text() == "keep"


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_eval_scores_out_that_cannot_be_written_is_a_config_error(tmp_path, capsys,
                                                                   monkeypatch, where):
    manifest, corpus = small_manifest(tmp_path)
    saved_checkpoint(tmp_path / "checkpoint.npz")
    trials = tmp_path / "trials.txt"
    save_trials(trials, [Trial(corpus[0].utterance_id, corpus[1].utterance_id, True),
                         Trial(corpus[0].utterance_id, corpus[2].utterance_id, False)])
    monkeypatch.setattr(cli, "evaluate", lambda *args: pytest.fail("evaluate ran"))
    scores = tmp_path / "missing" / "s.txt" if where == "missing-directory" else tmp_path
    assert cli.main(["eval", str(tmp_path / "checkpoint.npz"), str(trials), str(manifest),
                     "--scores-out", str(scores)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(scores) in err[0]


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


@pytest.mark.parametrize("content", [b"", b"not a RIFF header"], ids=["zero-byte", "not-riff"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_entry_that_is_not_a_wav_is_a_data_error(tmp_path, capsys, command,
                                                            content):
    manifest, corpus = small_manifest(tmp_path)
    bad = manifest.parent / corpus[1].speaker_id / f"{corpus[1].utterance_id}.wav"
    bad.write_bytes(content)
    if command == "train":
        argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
    else:
        saved_checkpoint(tmp_path / "checkpoint.npz")
        save_trials(tmp_path / "trials.txt", [Trial(corpus[0].utterance_id,
                                                     corpus[1].utterance_id, True),
                                               Trial(corpus[0].utterance_id,
                                                     corpus[2].utterance_id, False)])
        argv = ["eval", str(tmp_path / "checkpoint.npz"), str(tmp_path / "trials.txt"),
                str(manifest), "--scores-out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err
    assert not (tmp_path / "run").exists()


# a manifest line without three fields, or a WAV that is not 16-bit PCM, is a
# data error naming the line or the file before any run directory exists
@pytest.mark.parametrize("fault", ["two-fields", "8-bit"])
def test_a_manifest_the_loader_cannot_read_is_a_data_error(tmp_path, capsys, monkeypatch,
                                                           fault):
    manifest, corpus = small_manifest(tmp_path)
    if fault == "two-fields":
        first, *rest = manifest.read_text().splitlines(keepends=True)
        manifest.write_text(" ".join(first.split()[:2]) + "\n" + "".join(rest))
        named = f"{manifest}:1: expected '<utt> <spk> <path>'"
    else:
        bad = manifest.parent / corpus[1].speaker_id / f"{corpus[1].utterance_id}.wav"
        with wave.open(str(bad), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(corpus[1].sample_rate)
            f.writeframes(bytes(800))
        named = f"{bad}: expected 16-bit PCM, got 8-bit"
    runs = captured_runs(monkeypatch)
    assert cli.main(["train", "--data", str(manifest), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and named in err[0]
    assert not runs and not (tmp_path / "run").exists()


# every pair of scored utterances is a trial, and an EER needs both kinds:
# a manifest that lists no utterance, one speaker, or one utterance per
# speaker is a data error naming it before any run directory exists
@pytest.mark.parametrize("keep", [lambda w: False, lambda w: w.speaker_id == "spk000",
                                  lambda w: w.utterance_id.endswith("_utt000")],
                         ids=["empty", "one-speaker", "one-utterance-per-speaker"])
@pytest.mark.parametrize("command", [["train"], ["sweep", "am_softmax", "mfcon"]],
                         ids=["train", "sweep"])
def test_a_manifest_without_both_kinds_of_pair_is_a_data_error(tmp_path, capsys, monkeypatch,
                                                               command, keep):
    runs = captured_runs(monkeypatch)
    corpus = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=2, duration=0.5,
                                       sample_rate=8000, seed=1))
    manifest = export_corpus([w for w in corpus if keep(w)], tmp_path / "data")
    assert cli.main(command + ["--data", str(manifest), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(manifest) in err[0]
    assert not runs and not (tmp_path / "run").exists()


# an utterance id names one utterance: a manifest that lists one twice would
# pair it with itself as a nontarget trial of cosine 1
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_that_repeats_an_utterance_id_is_a_data_error(tmp_path, capsys,
                                                                 monkeypatch, command):
    manifest, corpus = small_manifest(tmp_path)
    with open(manifest, "a") as f:
        f.write(manifest.read_text().splitlines()[0] + "\n")
    runs = captured_runs(monkeypatch)
    if command == "train":
        argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
    else:
        saved_checkpoint(tmp_path / "checkpoint.npz")
        save_trials(tmp_path / "trials.txt", [Trial(corpus[0].utterance_id,
                                                     corpus[1].utterance_id, True),
                                               Trial(corpus[0].utterance_id,
                                                     corpus[2].utterance_id, False)])
        argv = ["eval", str(tmp_path / "checkpoint.npz"), str(tmp_path / "trials.txt"),
                str(manifest), "--scores-out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(manifest) in err[0]
    assert repr(corpus[0].utterance_id) in err[0]
    assert not runs and not (tmp_path / "run").exists()


def data_config(path):
    """The desk preset sized for a ``small_manifest`` corpus: two epochs of
    0.5 s crops, all 6 utterances in one batch."""
    cfg = desk_config()
    cfg = replace(cfg, train=replace(cfg.train, batch_size=6, epochs=2, crop_duration=0.5))
    save_config(cfg, path)
    return path


# an utterance of 300 samples at 8 kHz gives 2 filterbank frames, fewer than
# the encoder's MIN_FRAMES: scoring it fails before anything trains or embeds
@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_utterance_too_short_to_score_is_a_data_error(tmp_path, capsys, monkeypatch,
                                                         command):
    manifest, corpus = small_manifest(tmp_path)
    short = corpus[1]
    save_wav(Waveform(short.samples[:300], short.sample_rate),
             manifest.parent / short.speaker_id / f"{short.utterance_id}.wav")
    runs = captured_runs(monkeypatch)
    embedded = []
    monkeypatch.setattr(SpeakerModel, "embed_utterance",
                        lambda self, feats: embedded.append(feats))
    if command == "train":
        config = data_config(tmp_path / "cfg.json")
        argv = ["train", "--data", str(manifest), "--config", str(config),
                "--out", str(tmp_path / "run")]
    else:
        saved_checkpoint(tmp_path / "checkpoint.npz")
        save_trials(tmp_path / "trials.txt", [Trial(corpus[0].utterance_id,
                                                     short.utterance_id, True),
                                               Trial(corpus[0].utterance_id,
                                                     corpus[2].utterance_id, False)])
        argv = ["eval", str(tmp_path / "checkpoint.npz"), str(tmp_path / "trials.txt"),
                str(manifest), "--scores-out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and short.utterance_id in err
    assert not runs and not embedded
    assert not (tmp_path / "run").exists()


def test_eval_names_every_utterance_the_manifest_lacks_in_one_data_error(
        tmp_path, capsys, monkeypatch):
    manifest, corpus = small_manifest(tmp_path)
    saved_checkpoint(tmp_path / "checkpoint.npz")
    trials = tmp_path / "trials.txt"
    save_trials(trials, [Trial(corpus[0].utterance_id, "absent-a", True),
                         Trial("absent-b", corpus[2].utterance_id, False)])
    embedded = []
    monkeypatch.setattr(SpeakerModel, "embed_utterance",
                        lambda self, feats: embedded.append(feats))
    scores = tmp_path / "scores.txt"
    assert cli.main(["eval", str(tmp_path / "checkpoint.npz"), str(trials), str(manifest),
                     "--scores-out", str(scores)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert "absent-a" in err[0] and "absent-b" in err[0]
    assert not embedded and not scores.exists()


def test_train_on_a_manifest_with_a_silent_utterance(tmp_path, capsys):
    # the all-zero utterance's augmented crop draws the noise branch, where
    # an SNR against it is undefined
    manifest, corpus = small_manifest(tmp_path)
    silent = corpus[1]
    save_wav(Waveform(np.zeros(silent.samples.size), silent.sample_rate),
             manifest.parent / silent.speaker_id / f"{silent.utterance_id}.wav")
    config = data_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(manifest), "--config", str(config),
                     "--out", str(out)]) == 0
    assert "EER" in capsys.readouterr().out
    assert (out / "checkpoint.npz").is_file()


def test_eval_rejects_audio_at_a_rate_the_checkpoint_did_not_train_on(tmp_path, capsys):
    # the mel bins of 16 kHz audio span 0-8 kHz, those of the 8 kHz
    # training audio 0-4 kHz
    run = tmp_path / "run"
    assert cli.main(["train", "--synthetic", "--config",
                     str(small_config(tmp_path / "cfg.json")), "--out", str(run)]) == 0
    corpus = generate_corpus(SynthSpec(n_speakers=2, utts_per_speaker=2, duration=0.5,
                                       sample_rate=16000, seed=1))
    manifest = export_corpus(corpus, tmp_path / "data")
    trials = tmp_path / "trials.txt"
    save_trials(trials, [Trial(corpus[0].utterance_id, corpus[1].utterance_id, True),
                         Trial(corpus[0].utterance_id, corpus[2].utterance_id, False)])
    checkpoint = run / "checkpoint.npz"
    scores = tmp_path / "scores.txt"
    argv = ["eval", str(checkpoint), str(trials), str(manifest), "--scores-out", str(scores)]
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "8000 Hz" in err and "16000 Hz" in err
    assert not scores.exists()
    # an archive that records no rate is scored as it is
    rewrite_meta(checkpoint, lambda meta: meta.update(sample_rate=None))
    assert cli.main(argv) == 0
    assert scores.is_file()
