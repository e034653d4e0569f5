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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import (ConfigError, ExperimentConfig, config_to_dict,
                     desk_config, full_scale_config, load_config)
from .losses import CONTRASTIVE_KINDS
from .metrics import MissingUtteranceError, load_trials, save_scores, save_trials
from .model import SpeakerModel
from .synthdata import generate_corpus, generate_trials, load_manifest
from .trainer import (OBJECTIVES, NonFiniteLossError, evaluate, train,
                      utterance_store)

SWEEP_AXES = ("lambda", "lambda12", "contrastive_kind", "sharing")


class DataError(Exception):
    """A dataset, manifest, or referenced file is unusable."""


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_manifest_start(out_dir: Path, cfg: ExperimentConfig, argv):
    """RunManifest first record, written atomically."""
    record = {"event": "start", "time": _now(), "version": __version__,
              "seed": cfg.train.seed, "out_dir": str(out_dir),
              "argv": list(argv), "config": config_to_dict(cfg)}
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-")
    with os.fdopen(fd, "w") as f:
        f.write(json.dumps(record) + "\n")
    os.replace(tmp, out_dir / "manifest.jsonl")


def _append_manifest_end(out_dir: Path, **extra):
    record = {"event": "end", "time": _now(), **extra}
    with open(out_dir / "manifest.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")


def _load_experiment(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None) == "full":
        cfg = full_scale_config()
    else:
        cfg = desk_config()
    train_cfg = cfg.train
    loss_cfg = train_cfg.loss
    try:
        if getattr(args, "loss", None):
            train_cfg = replace(train_cfg, objective=args.loss)
        if getattr(args, "lambda_", None) is not None:
            loss_cfg = replace(loss_cfg, lam=args.lambda_)
        if getattr(args, "lambda1", None) is not None:
            loss_cfg = replace(loss_cfg, lam1=args.lambda1)
        if getattr(args, "lambda2", None) is not None:
            loss_cfg = replace(loss_cfg, lam2=args.lambda2)
        if getattr(args, "contrastive_kind", None):
            loss_cfg = replace(loss_cfg, contrastive_kind=args.contrastive_kind)
        if getattr(args, "seed", None) is not None:
            train_cfg = replace(train_cfg, seed=args.seed)
        if getattr(args, "epochs", None) is not None:
            train_cfg = replace(train_cfg, epochs=args.epochs)
        train_cfg = replace(train_cfg, loss=loss_cfg)
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


def cmd_train(args, argv) -> int:
    cfg = _load_experiment(args)
    corpus, trials, store = _resolve_dataset(args, cfg)
    out_dir = Path(args.out)
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
    if axis == "contrastive_kind":
        bad = [v for v in values if v not in CONTRASTIVE_KINDS]
        if bad:
            raise ConfigError(f"unknown contrastive kinds: {bad}")
        return values
    if axis == "sharing":
        allowed = ("none", "pool", "proj", "both")
        bad = [v for v in values if v not in allowed]
        if bad:
            raise ConfigError(f"unknown sharing settings: {bad} (use {allowed})")
        return values
    raise ConfigError(f"unknown sweep axis: {axis}")


def _sweep_variant(cfg: ExperimentConfig, axis, value) -> ExperimentConfig:
    train_cfg, head_cfg = cfg.train, cfg.head
    loss_cfg = train_cfg.loss
    try:
        if axis == "lambda":
            train_cfg = replace(train_cfg, objective="mfcon")
            loss_cfg = replace(loss_cfg, lam=value)
        elif axis == "lambda12":
            train_cfg = replace(train_cfg, objective="combined")
            loss_cfg = replace(loss_cfg, lam1=value[0], lam2=value[1])
        elif axis == "contrastive_kind":
            train_cfg = replace(train_cfg, objective="mfcon")
            loss_cfg = replace(loss_cfg, contrastive_kind=value,
                               lam=loss_cfg.lam if loss_cfg.lam > 0 else 0.1)
        elif axis == "sharing":
            train_cfg = replace(train_cfg, objective="mfcon")
            loss_cfg = replace(loss_cfg, lam=loss_cfg.lam if loss_cfg.lam > 0 else 0.1)
            head_cfg = replace(head_cfg,
                               share_pooling=value in ("pool", "both"),
                               share_projection=value in ("proj", "both"))
        return replace(cfg, train=replace(train_cfg, loss=loss_cfg), head=head_cfg)
    except ValueError as err:
        raise ConfigError(f"{axis} value {value}: {err}") from err


def cmd_sweep(args, argv) -> int:
    cfg = _load_experiment(args)
    values = _parse_sweep_values(args.axis, args.values)
    # every value is checked before the first run trains
    variants = [_sweep_variant(cfg, args.axis, value) for value in values]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, variant in zip(values, variants):
        tag = (f"{value[0]:g}:{value[1]:g}" if isinstance(value, tuple)
               else f"{value:g}" if isinstance(value, float) else str(value))
        run_dir = out_dir / f"{args.axis}_{tag.replace(':', '_')}"
        run_dir.mkdir(parents=True, exist_ok=True)
        corpus, trials, store = _resolve_dataset(args, variant)
        _write_manifest_start(run_dir, variant, argv)
        result = train(corpus, variant.encoder, variant.head, variant.train,
                       out_dir=run_dir, trials=trials, store=store)
        ev = result.eval_result
        _append_manifest_end(run_dir, status="ok", eer=ev.eer, mindcf=ev.mindcf)
        rows.append((tag, ev.eer, ev.mindcf))
        print(f"{args.axis}={tag}\tEER {100 * ev.eer:.2f}%\tminDCF {ev.mindcf:.4f}")
    table = out_dir / "results.tsv"
    with open(table, "w") as f:
        f.write("value\teer\tmindcf\n")
        for tag, eer, mindcf in rows:
            f.write(f"{tag}\t{eer:.6f}\t{mindcf:.6f}\n")
    print(f"results table: {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcontrast",
        description="Train and evaluate speaker embeddings with multi-scale "
                    "contrastive objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment config JSON (default: desk preset)")
        p.add_argument("--preset", choices=("desk", "full"), default=None,
                       help="start from a named preset instead of the desk "
                            "default; --config takes precedence")
        p.add_argument("--synthetic", action="store_true",
                       help="use the built-in synthetic corpus")
        p.add_argument("--data", help="corpus manifest file or directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    t = sub.add_parser("train", help="train a model and report EER/minDCF")
    add_common(t)
    t.add_argument("--loss", choices=tuple(OBJECTIVES), default=None,
                   help="objective preset: margin softmax on the speaker "
                        "embedding, plus the contrastive terms the preset "
                        "weighs with --lambda/--lambda1/--lambda2")
    t.add_argument("--lambda", dest="lambda_", type=float, default=None,
                   help="per-block contrastive weight; read by --loss mfcon")
    t.add_argument("--lambda1", type=float, default=None,
                   help="per-block SupCon weight; read by --loss combined")
    t.add_argument("--lambda2", type=float, default=None,
                   help="speaker-embedding SupCon weight; read by --loss "
                        "am_supcon and combined")
    t.add_argument("--contrastive-kind", dest="contrastive_kind",
                   choices=CONTRASTIVE_KINDS, default=None,
                   help="per-block contrastive loss of --loss mfcon")
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
