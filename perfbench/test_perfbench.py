"""Smoke tests of the benchmark on seconds-long versions of each workload."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, spans, workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def smoke(name):
    """The named workload shrunk to a few short utterances and steps."""
    wl = workloads.WORKLOADS[name]
    synth = replace(wl.synth, n_speakers=4, utts_per_speaker=4,
                    duration=min(wl.synth.duration, 1.0))
    train = None if wl.train is None else replace(wl.train, batch_size=4)
    return replace(wl, synth=synth, train=train)


def measure(name, trace):
    return run.measure(spans, workloads, smoke(name), seed=3, seconds=0.1, trace=trace)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = measure(name, trace=False)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert result["attempted"] >= 1
    assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    report = measure(name, trace=True)
    metrics = report["result"]["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for metric in metrics.values():
        assert metric["value"] is None or math.isfinite(metric["value"])
    assert not report["problems"]
    assert metrics["encoder.fwd_s"]["value"] > 0
    assert metrics["model.embed_s"]["value"] > 0


def test_missing_site_is_unmeasured_not_fatal(monkeypatch):
    sites = dict(spans.SITES)
    sites["encoder.mhsa.fwd"] = [("encoder", "_no_such_function")]
    monkeypatch.setattr(spans, "SITES", sites)
    report = measure("train_desk", trace=True)
    metrics = report["result"]["metrics"]
    assert metrics["encoder.mhsa.fwd_s"]["value"] is None
    assert metrics["encoder.mhsa.bwd_s"]["value"] > 0
    assert "encoder._no_such_function" in report["tracer"].missing_sites


def test_wrappers_are_removed_after_tracing():
    from mfcontrast import encoder, nn, trainer
    before = (nn.linear_fwd, encoder._mhsa_fwd, trainer.train_step)
    measure("embed_long", trace=True)
    assert (nn.linear_fwd, encoder._mhsa_fwd, trainer.train_step) == before


def test_check_rejects_scores_that_disagree_with_the_forward_pass():
    wl = smoke("embed_long")
    inputs = workloads.setup(wl, 3)
    out = workloads.run(wl, inputs, 3, 0.1)
    assert workloads.check(wl, inputs, out, 3) == ([], 0)
    out.evaluation.scores.scores *= 0.5
    out.group_scores[-1] = out.group_scores[-1] + 0.01
    problems, failed = workloads.check(wl, inputs, out, 3)
    assert problems and failed > 0


def test_summary_high_percentile_leaves_ten_samples_beyond():
    s = spans.summarize(np.arange(1.0, 31.0))
    assert s.value == 15.5 and s.n == 30 and s.pct == 66
    assert np.count_nonzero(np.arange(1.0, 31.0) > s.pct_value) >= 10
    assert spans.summarize(np.arange(10.0)).pct is None


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        workloads.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spans.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_the_library(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
