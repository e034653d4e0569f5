"""Command-line entry points: train, eval, and sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import PRESETS, ConfigError, ExperimentConfig, load_config
from .metrics import MissingUtteranceError, load_trials, save_scores, save_trials
from .model import SpeakerModel
from .synthdata import generate_corpus, generate_trials, load_manifest
from .trainer import (OBJECTIVES, NonFiniteLossError, evaluate, train,
                      utterance_store)

SWEEP_AXES = ("lambda", "lambda12")


class DataError(Exception):
    """A dataset, manifest, or referenced file is unusable."""


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_manifest_start(out_dir: Path, cfg: ExperimentConfig, argv):
    """RunManifest first record, written atomically."""
    record = {"event": "start", "time": _now(), "version": __version__,
              "seed": cfg.train.seed, "out_dir": str(out_dir),
              "argv": list(argv), "config": asdict(cfg)}
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-")
    with os.fdopen(fd, "w") as f:
        f.write(json.dumps(record) + "\n")
    os.replace(tmp, out_dir / "manifest.jsonl")


def _append_manifest_end(out_dir: Path, **extra):
    record = {"event": "end", "time": _now(), **extra}
    with open(out_dir / "manifest.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")


def _given(**values) -> dict:
    """The values a command line set; an absent flag parses to None."""
    return {k: v for k, v in values.items() if v is not None}


def _load_experiment(args) -> ExperimentConfig:
    """The ``--config`` file or ``--preset`` (default desk), with the train
    flags applied together, so the objective is checked against the weights
    given with it."""
    cfg = load_config(args.config) if args.config else PRESETS[args.preset or "desk"]()
    try:
        loss_cfg = replace(cfg.train.loss, **_given(lam1=getattr(args, "lambda1", None),
                                                    lam2=getattr(args, "lambda2", None)))
        train_cfg = replace(cfg.train, loss=loss_cfg,
                            **_given(objective=getattr(args, "loss", None),
                                     seed=args.seed, epochs=args.epochs))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return replace(cfg, train=train_cfg)


def _resolve_dataset(args, cfg: ExperimentConfig):
    """Training corpus, trials, and the store of the utterances the trials
    name, either synthetic or from a manifest tree.

    The synthetic corpus has twice the configured speakers: the even-index
    ones train and the trials come only from the odd-index ones, so the
    reported EER is on speakers the model never saw (synthdata stratifies
    F0 by speaker index, so both halves span the whole F0 range). A
    manifest corpus is both trained on and scored.
    """
    if args.synthetic:
        synth = replace(cfg.synth, seed=cfg.train.seed,
                        n_speakers=2 * cfg.synth.n_speakers)
        both = generate_corpus(synth)
        speakers = sorted({w.speaker_id for w in both})
        held_out = set(speakers[1::2])
        corpus = [w for w in both if w.speaker_id not in held_out]
        scored = [w for w in both if w.speaker_id in held_out]
    else:
        if not args.data:
            raise ConfigError("either --synthetic or --data is required")
        data = Path(args.data)
        manifest = data / "manifest.txt" if data.is_dir() else data
        if not manifest.exists():
            raise ConfigError(f"data manifest not found: {manifest}")
        try:
            corpus = load_manifest(manifest)
        except (OSError, ValueError) as err:
            raise DataError(f"could not load {manifest}: {err}") from err
        scored = corpus
    try:
        trials = generate_trials(scored, cfg.trials.n_target,
                                 cfg.trials.n_nontarget, cfg.trials.seed)
    except ValueError as err:
        raise ConfigError(f"trials: {err}") from err
    return corpus, trials, utterance_store(scored)


def _run(args, argv, cfg: ExperimentConfig, out_dir: Path):
    """Train ``cfg`` into ``out_dir`` and return its held-out EvalResult.

    Resolves the dataset, writes the manifest's start record, trains and
    evaluates, saves the trial list, and ends the manifest with the run's
    status: ``ok`` with the EER and minDCF, or ``numerical-failure`` before
    the NonFiniteLossError propagates.
    """
    corpus, trials, store = _resolve_dataset(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest_start(out_dir, cfg, argv)
    try:
        result = train(corpus, cfg.encoder, cfg.head, cfg.train, out_dir=out_dir,
                       trials=trials, store=store)
    except NonFiniteLossError:
        _append_manifest_end(out_dir, status="numerical-failure")
        raise
    save_trials(out_dir / "trials.txt", trials)
    ev = result.eval_result
    _append_manifest_end(out_dir, status="ok", eer=ev.eer, mindcf=ev.mindcf)
    return ev


def cmd_train(args, argv) -> int:
    out_dir = Path(args.out)
    ev = _run(args, argv, _load_experiment(args), out_dir)
    print(f"EER {100 * ev.eer:.2f}%  minDCF(p=0.01) {ev.mindcf:.4f}")
    print(f"checkpoint: {out_dir / 'checkpoint.npz'}")
    return 0


def cmd_eval(args) -> int:
    try:
        model = SpeakerModel.load(args.checkpoint)
    except (OSError, ValueError) as err:
        raise DataError(f"could not load checkpoint {args.checkpoint}: {err}") from err
    try:
        trials = load_trials(args.trial_list)
    except OSError as err:
        raise DataError(f"could not read trial list: {err}") from err
    except ValueError as err:
        raise DataError(str(err)) from err
    try:
        corpus = load_manifest(args.audio_manifest)
    except (OSError, ValueError) as err:
        raise DataError(f"could not load manifest {args.audio_manifest}: {err}") from err
    # load_manifest gives one rate; an archive that records none is scored as is
    rate = corpus[0].sample_rate if corpus else model.sample_rate
    if model.sample_rate not in (None, rate):
        raise DataError(f"{args.audio_manifest} is at {rate} Hz, but checkpoint "
                        f"{args.checkpoint} trained at {model.sample_rate} Hz")
    if {t.is_target for t in trials} != {True, False}:
        raise DataError(f"{args.trial_list} needs a target and a nontarget trial")
    result = evaluate(model, trials, utterance_store(corpus))
    scores_path = args.scores_out or str(args.trial_list) + ".scores"
    save_scores(scores_path, result.scores)
    print(f"EER {100 * result.eer:.2f}%  minDCF(p=0.01) {result.mindcf:.4f}")
    return 0


def _parse_sweep_values(axis, raw_values):
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    try:
        if axis == "lambda":
            return [float(v) for v in values]
        if axis == "lambda12":
            out = []
            for v in values:
                a, _, b = v.partition(":")
                out.append((float(a), float(b) if b else float(a)))
            return out
    except ValueError as err:
        raise ConfigError(f"--values for {axis}: {err}") from err
    raise ConfigError(f"unknown sweep axis: {axis}")


def _sweep_variant(cfg: ExperimentConfig, axis, value) -> ExperimentConfig:
    """``cfg`` at one value of a sweep axis. ``lambda`` sweeps mfcon's
    ``lam1``, and ``lambda12`` combined's ``lam1:lam2``."""
    try:
        if axis == "lambda":
            objective, loss_cfg = "mfcon", replace(cfg.train.loss, lam1=value)
        else:
            objective, loss_cfg = "combined", replace(cfg.train.loss, lam1=value[0],
                                                      lam2=value[1])
        train_cfg = replace(cfg.train, objective=objective, loss=loss_cfg)
        return replace(cfg, train=train_cfg)
    except ValueError as err:
        raise ConfigError(f"{axis} value {value}: {err}") from err


def _sweep_tag(value) -> str:
    """A sweep value as its results-table row and run-directory name print it."""
    if isinstance(value, tuple):
        return f"{value[0]:g}:{value[1]:g}"
    return f"{value:g}"


def cmd_sweep(args, argv) -> int:
    cfg = _load_experiment(args)
    values = _parse_sweep_values(args.axis, args.values)
    # every value is checked before the first run trains
    variants = [_sweep_variant(cfg, args.axis, value) for value in values]
    tags = [_sweep_tag(value) for value in values]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ConfigError(f"--values name the same run more than once: {repeated}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for tag, variant in zip(tags, variants):
        run_dir = out_dir / f"{args.axis}_{tag.replace(':', '_')}"
        ev = _run(args, argv, variant, run_dir)
        rows.append((tag, ev.eer, ev.mindcf))
        print(f"{args.axis}={tag}\tEER {100 * ev.eer:.2f}%\tminDCF {ev.mindcf:.4f}")
    table = out_dir / "results.tsv"
    with open(table, "w") as f:
        f.write("value\teer\tmindcf\n")
        for tag, eer, mindcf in rows:
            f.write(f"{tag}\t{eer:.6f}\t{mindcf:.6f}\n")
    print(f"results table: {table}")
    return 0


def _readers(field) -> str:
    """The objective presets that read a LossConfig weight, for help text."""
    return " and ".join(n for n, reads in OBJECTIVES.items() if field in reads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcontrast",
        description="Train and evaluate speaker embeddings with multi-scale "
                    "contrastive objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        start = p.add_mutually_exclusive_group()
        start.add_argument("--config", help="experiment config JSON; what it leaves "
                                            "out is the desk preset's")
        start.add_argument("--preset", choices=tuple(PRESETS), default=None,
                           help="start from a named preset (default: desk)")
        p.add_argument("--synthetic", action="store_true",
                       help="use the built-in synthetic corpus")
        p.add_argument("--data", help="corpus manifest file or directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    t = sub.add_parser("train", help="train a model and report EER/minDCF")
    add_common(t)
    t.add_argument("--loss", choices=tuple(OBJECTIVES), default=None,
                   help="objective preset: margin softmax on the speaker "
                        "embedding, plus the SupCon terms it weighs with "
                        "--lambda1 and --lambda2; a weight it reads must be "
                        "positive")
    t.add_argument("--lambda1", type=float, default=None,
                   help=f"per-block SupCon weight (loss.lam1); read by --loss "
                        f"{_readers('lam1')}")
    t.add_argument("--lambda2", type=float, default=None,
                   help=f"speaker-embedding SupCon weight (loss.lam2); read by "
                        f"--loss {_readers('lam2')}")
    t.add_argument("--out", required=True, help="output directory")

    e = sub.add_parser("eval", help="score trials with a trained checkpoint")
    e.add_argument("checkpoint")
    e.add_argument("trial_list")
    e.add_argument("audio_manifest")
    e.add_argument("--scores-out", default=None)

    s = sub.add_parser("sweep", help="train once per value along one axis")
    add_common(s)
    s.add_argument("--axis", choices=SWEEP_AXES, required=True)
    s.add_argument("--values", required=True,
                   help="comma-separated values; lambda12 accepts a:b pairs")
    s.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        if args.command == "train":
            return cmd_train(args, argv)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_sweep(args, argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DataError, MissingUtteranceError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NonFiniteLossError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
