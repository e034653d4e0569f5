"""The benchmark's traced run measures every per-layer metric. A library
refactor that renames or stops calling a profiled function leaves its
metric unmeasured (None) instead of failing the benchmark; this catches it.

The traced evaluation also counts its iterations from the spans: a new one
starts at each ``features.fbank`` span. ``trainer.evaluate`` keeps that
count meaningful only while every batch it embeds makes exactly one
filterbank call and one ``embed_utterance`` call."""

import functools

import numpy as np
import pytest

from perfbench import spans, workloads
from perfbench.test_perfbench import measure


@functools.lru_cache(maxsize=None)
def traced(name):
    return measure(name, trace=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_measures_every_per_layer_metric(name):
    metrics = traced(name)["result"]["metrics"]
    assert [k for k, m in metrics.items() if m["value"] is None] == []


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
