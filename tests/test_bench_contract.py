"""The benchmark's traced run measures every per-layer metric. A library
refactor that renames or stops calling a profiled function leaves its
metric unmeasured (None) instead of failing the benchmark; this catches it."""

import pytest

from perfbench import workloads
from perfbench.test_perfbench import measure


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_measures_every_per_layer_metric(name):
    metrics = measure(name, trace=True)["result"]["metrics"]
    assert [k for k, m in metrics.items() if m["value"] is None] == []
