"""Command-line entry points: train, eval, and sweep.

An objective row, ``name[:weight=value,...]`` such as ``mfcon:lam1=0.01``,
names what a run trains: ``name`` is a key of ``trainer.OBJECTIVES``, and a
weight the row leaves out keeps the config's value. ``train --loss ROW``
trains one row, ``sweep ROW [ROW ...]`` one run per row.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ConfigError, ExperimentConfig, desk_config, load_config
from .features import LengthError
from .metrics import MissingUtteranceError, load_trials, save_scores, save_trials
from .model import SpeakerModel
from .synthdata import generate_corpus, generate_trials, load_manifest
from .trainer import (MIN_CROP_DURATION, OBJECTIVES, NonFiniteLossError, evaluate,
                      train, trial_utterances, utterance_store)


class DataError(Exception):
    """A dataset, manifest, or referenced file is unusable."""


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_manifest_start(out_dir: Path, cfg: ExperimentConfig, argv):
    """RunManifest first record, written to a temporary file in ``out_dir``
    and renamed over ``manifest.jsonl``; a failed write removes it."""
    record = {"event": "start", "time": _now(), "version": __version__,
              "seed": cfg.train.seed, "out_dir": str(out_dir),
              "argv": list(argv), "config": asdict(cfg)}
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(record) + "\n")
        os.replace(tmp, out_dir / "manifest.jsonl")
    except BaseException:
        os.unlink(tmp)
        raise


def _append_manifest_end(out_dir: Path, **extra):
    record = {"event": "end", "time": _now(), **extra}
    with open(out_dir / "manifest.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")


def _load_experiment(args) -> ExperimentConfig:
    """The ``--config`` file, or else the desk preset, given ``--seed``/``--epochs``;
    with ``--synthetic``, its utterances must be long enough to score. The
    synthetic corpus is drawn from the train seed: ``synth.seed`` must be 0 or
    the file's own ``train.seed``, and is returned as the resolved train seed."""
    cfg = load_config(args.config) if args.config else desk_config()
    if cfg.synth.seed not in (0, cfg.train.seed):
        raise ConfigError(f"synth.seed must be 0 or train.seed ({cfg.train.seed}), "
                          f"the seed the synthetic corpus is drawn from; got {cfg.synth.seed}")
    if args.synthetic and cfg.synth.duration < MIN_CROP_DURATION:
        raise ConfigError(f"synth.duration must be at least {MIN_CROP_DURATION:g} s to be "
                          f"scored, got {cfg.synth.duration:g}")
    given = {k: v for k, v in (("seed", args.seed), ("epochs", args.epochs)) if v is not None}
    try:
        train_cfg = replace(cfg.train, **given)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return replace(cfg, train=train_cfg, synth=replace(cfg.synth, seed=train_cfg.seed))


def _run_dir(out: Path) -> Path:
    """``out``, a directory ``_run`` creates; a file on its path is a config
    error, raised before anything trains."""
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigError(f"cannot make run directory {out}: {blocker} is a file")
    return out


def _objective_row(cfg: ExperimentConfig, row: str) -> ExperimentConfig:
    """``cfg`` training the objective row ``name[:weight=value,...]``. The
    row may set only weights its objective reads; the objective and the
    weights are checked together by ``TrainConfig`` and ``LossConfig``."""
    name, colon, spec = row.partition(":")
    if name not in OBJECTIVES:
        raise ConfigError(f"row {row!r}: objective must be one of {tuple(OBJECTIVES)}")
    weights = {}
    for item in spec.split(",") if colon else ():
        key, eq, value = item.partition("=")
        if not eq or key in weights or key not in OBJECTIVES[name]:
            raise ConfigError(f"row {row!r}: {item!r} is not weight=value, each set once, "
                              f"for a weight {name} reads: {list(OBJECTIVES[name])}")
        weights[key] = value
    try:
        loss_cfg = replace(cfg.train.loss, **{k: float(v) for k, v in weights.items()})
        return replace(cfg, train=replace(cfg.train, objective=name, loss=loss_cfg))
    except ValueError as err:
        raise ConfigError(f"row {row!r}: {err}") from err


def _row_tag(cfg: ExperimentConfig) -> str:
    """The canonical tag of ``cfg``'s objective row: its name and every
    weight the objective reads, as ``:g``."""
    t = cfg.train
    weights = ",".join(f"{w}={getattr(t.loss, w):g}" for w in OBJECTIVES[t.objective])
    return f"{t.objective}:{weights}" if weights else t.objective


def _resolve_dataset(args, cfg: ExperimentConfig):
    """Training corpus, trials, and the store of the utterances the trials
    name, either synthetic or from a manifest tree. Every unordered pair of
    scored utterances is a trial, so the EER carries no sampling noise.

    The synthetic corpus is ``cfg.synth`` (whose seed ``_load_experiment``
    sets to the train seed) with twice the configured speakers: the
    even-index ones train and the trials come only from the odd-index
    ones, so the reported EER is on speakers the model never saw
    (synthdata stratifies F0 by speaker index, so both halves span the
    whole F0 range). A manifest corpus is both trained on and scored.
    """
    if args.synthetic:
        both = generate_corpus(replace(cfg.synth, n_speakers=2 * cfg.synth.n_speakers))
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
        if len({w.speaker_id for w in corpus}) in (0, 1, len(corpus)):
            raise DataError(f"{manifest}: both kinds of trial need two speakers, one of "
                            "them with two utterances")
    # every pair of scored utterances is a trial; the seed only orders them
    counts = Counter(w.speaker_id for w in scored)
    n_target = sum(c * (c - 1) // 2 for c in counts.values())
    n_pairs = len(scored) * (len(scored) - 1) // 2
    trials = generate_trials(scored, n_target, n_pairs - n_target, cfg.train.seed)
    store = utterance_store(scored)
    trial_utterances(trials, store)  # a scored utterance too short fails before training
    return corpus, trials, store


def _run(argv, cfg: ExperimentConfig, dataset, out_dir: Path):
    """Train ``cfg`` on ``dataset``, a ``_resolve_dataset`` result, into
    ``out_dir`` and return its held-out EvalResult.

    Writes the manifest's start record, trains and evaluates, saves the
    trial list, and ends the manifest with the run's status: ``ok`` with
    the EER and minDCF, or ``numerical-failure`` before the
    NonFiniteLossError propagates.
    """
    corpus, trials, store = dataset
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
    out_dir = _run_dir(Path(args.out))
    cfg = _load_experiment(args)
    if args.loss is not None:
        cfg = _objective_row(cfg, args.loss)
    ev = _run(argv, cfg, _resolve_dataset(args, cfg), out_dir)
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
    scores_path = Path(args.scores_out or f"{args.trial_list}.scores")
    if not scores_path.parent.is_dir() or scores_path.is_dir():
        raise ConfigError(f"cannot write scores to {scores_path}: it is a directory, "
                          f"or {scores_path.parent} is not one")
    result = evaluate(model, trials, utterance_store(corpus))
    save_scores(scores_path, result.scores)
    print(f"EER {100 * result.eer:.2f}%  minDCF(p=0.01) {result.mindcf:.4f}")
    return 0


def cmd_sweep(args, argv) -> int:
    cfg = _load_experiment(args)
    # every row is checked before the first run trains
    variants = [_objective_row(cfg, row) for row in args.rows]
    tags = [_row_tag(variant) for variant in variants]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ConfigError(f"rows name the same run more than once: {repeated}")
    out_dir = Path(args.out)
    run_dirs = [_run_dir(out_dir / tag.replace(":", "_")) for tag in tags]
    # the rows differ only in their objective, so they share one dataset
    dataset = _resolve_dataset(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["row\teer\tmindcf\n"]
    for tag, variant, run_dir in zip(tags, variants, run_dirs):
        ev = _run(argv, variant, dataset, run_dir)
        lines.append(f"{tag}\t{ev.eer:.6f}\t{ev.mindcf:.6f}\n")
        print(f"{tag}\tEER {100 * ev.eer:.2f}%\tminDCF {ev.mindcf:.4f}")
    table = out_dir / "results.tsv"
    table.write_text("".join(lines))
    print(f"results table: {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcontrast",
        description="Train and evaluate speaker embeddings with multi-scale "
                    "contrastive objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment config JSON; every field it "
                                        "leaves out keeps its default")
        p.add_argument("--synthetic", action="store_true",
                       help="use the built-in synthetic corpus")
        p.add_argument("--data", help="corpus manifest file or directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    t = sub.add_parser("train", help="train a model and report EER/minDCF")
    add_common(t)
    t.add_argument("--loss", metavar="ROW", default=None,
                   help=f"objective row NAME[:WEIGHT=VALUE,...], e.g. mfcon:lam1=0.01; "
                        f"NAME is one of {', '.join(OBJECTIVES)}, and a row sets only "
                        f"weights it reads (lam1: per-block SupCon, lam2: speaker SupCon)")
    t.add_argument("--out", required=True, help="output directory")

    e = sub.add_parser("eval", help="score trials with a trained checkpoint")
    e.add_argument("checkpoint")
    e.add_argument("trial_list")
    e.add_argument("audio_manifest")
    e.add_argument("--scores-out", default=None)

    s = sub.add_parser("sweep", help="train once per objective row")
    add_common(s)
    s.add_argument("rows", nargs="+", metavar="ROW",
                   help="objective rows as --loss takes them, one run each, e.g. "
                        "am_softmax mfcon:lam1=0.01; two rows may not name one run")
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
    except (DataError, MissingUtteranceError, LengthError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NonFiniteLossError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
