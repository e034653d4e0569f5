"""Spans for the traced run, and the per-layer metrics computed from them.

The library carries no tracing code. ``Tracer.installed()`` wraps library
functions by patching the module attributes that the library looks up at
call time (``mfcontrast.nn.*``, and the names ``model``, ``encoder`` and
``trainer`` imported from their neighbours), and restores them on exit. A
site that no longer exists leaves its layer unmeasured instead of failing,
so a refactor that removes a private name does not break the benchmark.

Spans stay in memory as name, start, end and parent until ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "mfcontrast"

NN_OPS = (
    "linear_fwd", "linear_bwd", "layer_norm_fwd", "layer_norm_bwd",
    "batch_norm_fwd", "batch_norm_bwd", "softmax_fwd", "softmax_bwd",
    "sigmoid", "silu_fwd", "silu_bwd", "glu_fwd", "glu_bwd",
    "dropout_fwd", "dropout_bwd", "depthwise_conv1d_fwd",
    "depthwise_conv1d_bwd", "strided_conv1d_fwd", "strided_conv1d_bwd",
    "attentive_stats_fwd", "attentive_stats_bwd", "l2_normalize_fwd",
    "l2_normalize_bwd", "sinusoidal_positions", "xavier_uniform",
    "accumulate",
)

ENCODER_PARTS = {"frontend": "_frontend", "ffn": "_ffn", "mhsa": "_mhsa",
                 "conv": "_convmod"}

# span name -> [(module under PACKAGE, attribute path)]
SITES = {
    "synthdata.corpus": [("synthdata", "generate_corpus")],
    "features.fbank": [("trainer", "extract_fbank"), ("features", "extract_fbank")],
    "features.crop": [("trainer", "random_crop"), ("features", "random_crop")],
    "features.augment": [("features", "AugmentSampler.apply")],
    "trainer.build_batch": [("trainer", "build_batch")],
    "trainer.step": [("trainer", "train_step")],
    "losses.objective": [("trainer", "compute_objective")],
    "trainer.adam": [("trainer", "adam_step")],
    "trainer.evaluate": [("trainer", "evaluate")],
    "model.forward": [("model", "SpeakerModel.forward")],
    "model.backward": [("model", "SpeakerModel.backward")],
    "model.embed": [("model", "SpeakerModel.embed_utterance")],
    "encoder.fwd": [("model", "_encoder_fwd")],
    "encoder.bwd": [("model", "_encoder_bwd")],
    "heads.taps.fwd": [("model", "_heads_fwd")],
    "heads.taps.bwd": [("model", "_heads_bwd")],
    "heads.mfa.fwd": [("model", "_mfa_fwd")],
    "heads.mfa.bwd": [("model", "_mfa_bwd")],
    "metrics.score": [("trainer", "score_trials")],
    "metrics.eer": [("trainer", "compute_eer")],
    "metrics.mindcf": [("trainer", "compute_mindcf")],
}
for _part, _fn in ENCODER_PARTS.items():
    for _d in ("fwd", "bwd"):
        SITES[f"encoder.{_part}.{_d}"] = [("encoder", f"{_fn}_{_d}")]
for _op in NN_OPS:
    SITES[f"nn.{_op}"] = [("nn", _op)]
SITES["nn.accumulate"] += [("encoder", "accumulate"), ("heads", "accumulate")]


def _linear_fwd_flop(x, w, b):
    return 2.0 * x.size * w.shape[1]


def _linear_bwd_flop(dy, cache):
    x, w = cache
    return 4.0 * x.size * w.shape[1]


# floating-point operations of a call, computed from its argument shapes
WORK = {"nn.linear_fwd": _linear_fwd_flop, "nn.linear_bwd": _linear_bwd_flop}

# spans the benchmark opens itself: roots around its calls into the library,
# and its host-speed probes (see ``host``)
SETUP, TRAIN, EVAL, PROBE = "bench.setup", "bench.train", "bench.eval", "bench.probe"
# a new iteration starts at each of these spans (first measured one wins):
# one training step, or one evaluated utterance
ITERATION_MARKERS = {TRAIN: ("trainer.build_batch", "trainer.step"),
                     EVAL: ("features.fbank", "model.embed")}
# spans whose self time is loop overhead rather than a layer's work
CONTAINERS = (TRAIN, EVAL, "trainer.evaluate")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.work: list[float] = []
        self.unmeasured: set[str] = set()
        self.missing_sites: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str, work: float = 0.0) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str, work):
        tracer = self

        def traced(*args, **kwargs):
            amount = 0.0
            if work is not None:
                try:
                    amount = work(*args, **kwargs)
                except (TypeError, ValueError, AttributeError, IndexError):
                    amount = math.nan
            i = tracer._open(name, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module_name: str, path: str, name: str) -> bool:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # read a class attribute from __dict__ so a method is not bound
            original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing_sites.add(f"{module_name}.{path}")
            return False
        setattr(owner, attr, self._wrap(original, name, WORK.get(name)))
        self._undo.append((owner, attr, original))
        return True

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in SITES for the duration of the block."""
        try:
            for name, sites in SITES.items():
                patched = [self._patch(module, path, name) for module, path in sites]
                if not any(patched):
                    self.unmeasured.add(name)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as parallel arrays; names index into ``span_names``."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as f:
            json.dump({"span_names": table,
                       "name": [index[n] for n in self.names],
                       "start_ns": [s - t0 for s in self.start],
                       "end_ns": [e - t0 for e in self.end],
                       "parent": self.parent}, f)


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the end-to-end metric it should move.

    ``how`` is one of
      ("iter", spans, weight, phase): per iteration of ``phase``, the sum of
        ``weight`` ("total" time, "self" time, "calls" or "gflop") over the
        spans; reported as the median over iterations
      ("call", span, phase): inclusive time of each call
      ("gap", span, phase): time between the end of one call and the start
        of the next, less the benchmark's host probes in between
      ("useful",): MFA head time over all head time during evaluation
      ("overhead",): traced over untraced time per row of the same work
        (median, rescaled to the reference host as rows_per_s is), minus 1
      ("unattributed",): self time of the loop containers over the main
        phase's wall time
    where phase "main" is training for the training workloads and
    evaluation for the evaluation-only one.
    """

    name: str
    unit: str
    better: str
    how: tuple
    moves: str

    @property
    def sources(self) -> tuple:
        """The spans the metric is computed from."""
        kind = self.how[0]
        if kind == "iter":
            return self.how[1]
        if kind in ("call", "gap"):
            return (self.how[1],)
        if kind == "useful":
            return ("heads.mfa.fwd", "heads.taps.fwd")
        return ()


DESK = "rows_per_s on train_desk"
DEEP = "rows_per_s on train_deep_short"
EMBED = "rows_per_s on embed_long"


def _catalog():
    out = []

    def add(name, unit, how, moves, better="lower"):
        out.append(LayerMetric(name, unit, better, how, moves))

    def per_iter(span, weight="total", phase="main"):
        return ("iter", (span,), weight, phase)

    add("features.fbank_s", "s", per_iter("features.fbank"), f"{DESK}; {EMBED}")
    add("features.fbank_calls", "count", per_iter("features.fbank", "calls"), DESK)
    add("features.augment_s", "s", per_iter("features.augment"), DESK)
    add("features.crop_s", "s", per_iter("features.crop"), DESK)
    add("trainer.build_batch_s", "s", per_iter("trainer.build_batch"), DESK)
    add("trainer.data_wait_s", "s", ("gap", "trainer.step", "main"), DESK)
    add("synthdata.corpus_s", "s", ("call", "synthdata.corpus", "setup"),
        "setup_s on every workload")
    add("trainer.step_s", "s", per_iter("trainer.step"), DESK)
    add("model.forward_s", "s", per_iter("model.forward"), DESK)
    add("model.backward_s", "s", per_iter("model.backward"), DESK)
    add("encoder.fwd_s", "s", per_iter("encoder.fwd"), DESK)
    add("encoder.bwd_s", "s", per_iter("encoder.bwd"), DESK)
    for part in ENCODER_PARTS:
        for d in ("fwd", "bwd"):
            moves = f"{DESK}; mostly {EMBED}" if (part, d) == ("mhsa", "fwd") else DESK
            add(f"encoder.{part}.{d}_s", "s", per_iter(f"encoder.{part}.{d}"), moves)
    for head in ("taps", "mfa"):
        for d in ("fwd", "bwd"):
            add(f"heads.{head}.{d}_s", "s", per_iter(f"heads.{head}.{d}"), DEEP)
    add("losses.objective_s", "s", per_iter("losses.objective"), DEEP)
    add("trainer.adam_s", "s", per_iter("trainer.adam"), DEEP)
    add("model.embed_s", "s", per_iter("model.embed", phase="eval"), EMBED)
    add("trainer.evaluate_s", "s", ("call", "trainer.evaluate", "eval"), EMBED)
    add("metrics.score_s", "s", ("call", "metrics.score", "eval"), EMBED)
    add("metrics.eer_s", "s", ("call", "metrics.eer", "eval"), EMBED)
    add("metrics.mindcf_s", "s", ("call", "metrics.mindcf", "eval"), EMBED)
    add("heads.eval_useful_frac", "ratio", ("useful",), EMBED, better="higher")
    for op in NN_OPS:
        if op.startswith(("linear_", "layer_norm_", "silu_")):
            moves = DESK
        elif op == "softmax_fwd":
            moves = f"{EMBED}; {DESK}"
        else:
            moves = f"{DESK}; {DEEP}"
        add(f"nn.{op}.self_s", "s", per_iter(f"nn.{op}", "self"), moves)
        add(f"nn.{op}.calls", "count", per_iter(f"nn.{op}", "calls"), DEEP)
    add("nn.linear.gflop", "GFLOP",
        ("iter", ("nn.linear_fwd", "nn.linear_bwd"), "gflop", "main"),
        f"{DESK} (computed from shapes)")
    add("trace.overhead_frac", "ratio", ("overhead",), "none: health of the trace")
    add("trace.unattributed_frac", "ratio", ("unattributed",), "none: health of the trace")
    return out


LAYER_METRICS = _catalog()


@dataclass
class Summary:
    """A metric's value (the median, for a sample), its high percentile and
    sample count. ``value`` is None when the layer is unmeasured."""

    value: float | None
    n: int = 0
    pct: int | None = None
    pct_value: float | None = None


def summarize(samples) -> Summary:
    """Median plus the highest percentile with at least ten samples beyond
    it (omitted when that percentile is below the median)."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    if n == 0:
        return Summary(0.0, 0)
    out = Summary(float(np.median(s)), n)
    if n > 10:
        p = 100 * (n - 10) // n
        if p >= 50:
            out.pct = p
            out.pct_value = float(s[math.ceil(p * n / 100) - 1])
    return out


class _Spans:
    """Array view of a tracer's spans with self time, root and phase."""

    def __init__(self, tracer: Tracer, main: str):
        self.unmeasured = tracer.unmeasured
        self.names = np.array(tracer.names, dtype=object)
        self.start = np.array(tracer.start, dtype=np.int64)
        self.end = np.array(tracer.end, dtype=np.int64)
        self.dur = (self.end - self.start) * 1e-9
        self.work = np.array(tracer.work, dtype=np.float64)
        parent = np.array(tracer.parent, dtype=np.int64)
        self.parent = parent
        child = np.zeros(self.dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], self.dur[nested])
        self.self_time = self.dur - child
        root = np.arange(parent.size)
        for i in np.flatnonzero(nested):  # a parent always precedes its child
            root[i] = root[parent[i]]
        self.phase = self.names[root] if root.size else self.names
        self.roots = {"main": main, "eval": EVAL, "setup": SETUP}
        self._iters = {}

    def named(self, name, phase):
        return (self.names == name) & (self.phase == self.roots[phase])

    def iterations(self, phase):
        """(iteration index per span, iteration count) or None."""
        if phase not in self._iters:
            root = self.roots[phase]
            found = None
            for marker in ITERATION_MARKERS.get(root, ()):
                is_marker = self.named(marker, phase)
                if marker not in self.unmeasured and is_marker.any():
                    found = (np.cumsum(is_marker) - 1, int(is_marker.sum()))
                    break
            self._iters[phase] = found
        return self._iters[phase]


def _per_iter(sp: _Spans, spans, weight, phase) -> Summary:
    iters = sp.iterations(phase)
    if iters is None:
        return Summary(None)
    index, count = iters
    weights = {"total": sp.dur, "self": sp.self_time,
               "calls": np.ones(sp.dur.size), "gflop": sp.work * 1e-9}[weight]
    sel = np.zeros(sp.dur.size, dtype=bool)
    for span in spans:
        sel |= sp.named(span, phase)
    sel &= index >= 0
    if weight == "gflop" and np.isnan(weights[sel]).any():
        return Summary(None)
    return summarize(np.bincount(index[sel], weights=weights[sel], minlength=count))


def _gaps(sp: _Spans, span, phase):
    calls = np.flatnonzero(sp.named(span, phase))
    lo, hi = sp.end[calls[:-1]], sp.start[calls[1:]]
    probes = np.flatnonzero(sp.named(PROBE, phase))
    probed = np.concatenate([[0.0], np.cumsum(sp.dur[probes])])
    starts = sp.start[probes]
    between = probed[np.searchsorted(starts, hi)] - probed[np.searchsorted(starts, lo)]
    return (hi - lo) * 1e-9 - between


def layer_metrics(tracer: Tracer, main: str, overhead_frac: float) -> dict:
    """Every LAYER_METRICS entry as a Summary, from the tracer's spans.

    ``main`` is the root span of the workload's main phase (TRAIN or EVAL).
    """
    sp = _Spans(tracer, main)
    out = {}
    for m in LAYER_METRICS:
        kind = m.how[0]
        if any(s in tracer.unmeasured for s in m.sources):
            out[m.name] = Summary(None)
        elif kind == "iter":
            out[m.name] = _per_iter(sp, *m.how[1:])
        elif kind == "call":
            out[m.name] = summarize(sp.dur[sp.named(m.how[1], m.how[2])])
        elif kind == "gap":
            out[m.name] = summarize(_gaps(sp, *m.how[1:]))
        elif kind == "useful":
            mfa = sp.dur[sp.named("heads.mfa.fwd", "eval")]
            taps = sp.dur[sp.named("heads.taps.fwd", "eval")]
            total = mfa.sum() + taps.sum()
            out[m.name] = Summary(float(mfa.sum() / total) if total > 0 else 0.0, mfa.size)
        elif kind == "overhead":
            out[m.name] = Summary(overhead_frac, 1)
        elif kind == "unattributed":
            in_main = sp.phase == main
            wall = sp.dur[in_main & (sp.parent < 0)].sum()
            loose = sp.self_time[in_main & np.isin(sp.names, CONTAINERS)].sum()
            out[m.name] = Summary(float(loose / wall) if wall > 0 else 0.0, 1)
    return out
