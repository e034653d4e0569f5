"""The benchmark's traced run measures every per-layer metric. A library
refactor that renames or stops calling a profiled function leaves its
metric unmeasured (None) instead of failing the benchmark; this catches it.

The traced evaluation also counts its iterations from the spans: a new one
starts at each ``features.fbank`` span. ``trainer.evaluate`` keeps that
count meaningful only while every batch it embeds makes exactly one
filterbank call and one ``embed_utterance`` call.

The desk run is also checked over two row shards, untraced and traced, with
the frame floor (``trainer.SHARD_MIN_FRAMES``) at 0, so that the smoke batch
splits whatever the floor.
The second shard runs in a forked worker, whose spans stay in its own memory,
so a two-shard run's per-layer metrics cover shard 0 only (``nn.linear_fwd``
counts 23 calls per desk step where one shard counts 46), and every self time
must be non-negative. The tracer keeps one span stack for all threads, so
the threads that synthesize the corpus call nothing the tracer wraps; the
traced ``embed_long`` run at two usable CPUs checks that its result stays
whole, and the traced ``train_desk`` run there checks that the filterbank
and augmentation threads of each batch call nothing the tracer wraps
either."""

import functools
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from mfcontrast import features, nn, synthdata, trainer
from perfbench import spans, workloads
from perfbench.test_perfbench import measure
from spies import spy_processes


@functools.lru_cache(maxsize=None)
def traced(name):
    return measure(name, trace=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_measures_every_per_layer_metric(name):
    result = traced(name)["result"]
    assert [k for k, m in result["metrics"].items() if m["value"] is None] == []
    json.dumps(result, allow_nan=False)  # run.py prints a NaN as bare NaN, not JSON


def test_every_traced_eval_iteration_pairs_one_fbank_with_one_embed():
    report = traced("embed_long")
    assert report["result"]["metrics"]["features.fbank_calls"]["value"] == 1
    sp = spans._Spans(report["tracer"], spans.EVAL)
    index, count = sp.iterations("eval")
    assert count > 1
    for name in ("features.fbank", "model.embed"):
        per_iteration = index[sp.named(name, "eval")]
        assert per_iteration.min() >= 0, f"a {name} span precedes the first iteration"
        assert np.array_equal(np.bincount(per_iteration, minlength=count),
                              np.ones(count, dtype=int)), name


def desk_over_two_row_shards(monkeypatch, tmp_path, trace):
    """The desk smoke run's result at no frame floor, after checking that
    train-mode batch norm ran in this process and in the worker that
    training forked, and that no process is left."""
    # the smoke batch of 4 holds 392 frames per half
    monkeypatch.setattr(trainer, "SHARD_MIN_FRAMES", 0)
    calls = spy_processes(monkeypatch, nn, "batch_norm_fwd", tmp_path / "batch_norm",
                          lambda *args, mode, **kwargs: mode)
    result = measure("train_desk", trace=trace)["result"]
    assert result["correct"] and result["failed"] == 0
    pids = {pid for pid, mode in calls() if mode == "train"}
    assert os.getpid() in pids and len(pids) >= 2
    assert multiprocessing.active_children() == []
    return result


def test_the_untraced_desk_smoke_run_is_correct_over_two_row_shards(monkeypatch, tmp_path):
    desk_over_two_row_shards(monkeypatch, tmp_path, trace=False)


def test_the_traced_desk_smoke_run_is_correct_over_two_row_shards(monkeypatch, tmp_path):
    metrics = desk_over_two_row_shards(monkeypatch, tmp_path, trace=True)["metrics"]
    assert {k: m["value"] for k, m in metrics.items()
            if m["value"] is None or not math.isfinite(m["value"])} == {}
    assert {k: m["value"] for k, m in metrics.items()
            if k.startswith("nn.") and k.endswith(".self_s") and m["value"] < 0} == {}


def test_the_traced_embed_smoke_run_is_whole_with_synthesis_on_two_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = set()
    synth = synthdata._synth_utterance

    def spy(*args):
        threads.add(threading.current_thread())
        return synth(*args)

    monkeypatch.setattr(synthdata, "_synth_utterance", spy)
    before = set(threading.enumerate())
    report = measure("embed_long", trace=True)
    assert set(threading.enumerate()) == before
    assert threading.current_thread() in threads and len(threads) >= 2
    # a wrapped call on any synthesis thread would open a span under the corpus's
    tracer = report["tracer"]
    corpus = {i for i, name in enumerate(tracer.names) if name == "synthdata.corpus"}
    assert corpus and [tracer.names[i] for i, parent in enumerate(tracer.parent)
                       if parent in corpus] == []
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: v for k, v in metrics.items() if v is None or not math.isfinite(v)} == {}
    assert metrics["synthdata.corpus_s"] > 0


def test_the_traced_desk_smoke_run_is_whole_with_each_batch_on_two_threads(monkeypatch):
    # the smoke batch of 4 makes 8 waves of 98 frames: two filterbank chunks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = set()
    chunk = features._fbank_chunk

    def spy(*args):
        threads.add(threading.current_thread())
        return chunk(*args)

    monkeypatch.setattr(features, "_fbank_chunk", spy)
    before = set(threading.enumerate())
    report = measure("train_desk", trace=True)
    assert set(threading.enumerate()) == before
    assert threading.current_thread() in threads and len(threads) >= 2
    # a wrapped call on a worker thread would open a span under the batch's
    tracer = report["tracer"]
    batch = {i for i, name in enumerate(tracer.names)
             if name in ("features.fbank", "features.augment")}
    assert batch and [tracer.names[i] for i, parent in enumerate(tracer.parent)
                      if parent in batch] == []
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    json.dumps(result, allow_nan=False)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["features.fbank_calls"] == 1
    assert metrics["features.fbank_s"] > 0 and metrics["features.augment_s"] > 0
