"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the same pass runs
untraced and then traced, and the object holds the per-layer metrics. The
lines before it give provenance and a table of every metric with its unit
and sample count. Full results and the spans go to ``.bench_out/``.

Exit codes: 0 after a result was printed (see its ``correct`` field), 1 when
the library raised, 2 when the benchmark cannot measure as it promises: the
library is missing, the BLAS thread count is not pinned, the same seed gave
different inputs, or ``trainer.train_step`` could not be clocked.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# 2 BLAS threads measured no faster than 1 on the 2-CPU reference host;
# 1 keeps the second core free and the figures comparable
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot run under the conditions it promises."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import the library from SRC and the harness from ROOT."""
    if not (SRC / "mfcontrast").is_dir():
        raise SetupError(f"no mfcontrast sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import mfcontrast.trainer
    where = Path(mfcontrast.trainer.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"mfcontrast was imported from {where}, not from {SRC}")
    from perfbench import spans, workloads
    return spans, workloads


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, threads) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _fmt(x):
    return "unmeasured" if x is None else f"{x:.6g}"


def table_line(name, unit, value, n, pct=None, pct_value=None, note=""):
    tail = f" p{pct}={_fmt(pct_value)}" if pct is not None else ""
    return f"{name:<28} {_fmt(value):>12} {unit:<7} n={n}{tail}  {note}".rstrip()


def measure(spans, workloads, wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload. With ``trace`` the pass runs
    untraced and then traced, and the metrics are the per-layer ones."""
    tracer = spans.Tracer() if trace else None
    inputs, setup_raw, setup_ref = workloads.setup_repeated(wl, seed, tracer)
    out = workloads.run(wl, inputs, seed, seconds)
    passes = [out]
    if tracer is not None:
        with tracer.installed():
            traced = workloads.run(wl, inputs, seed, seconds,
                                   group_calls=len(out.group_scores), tracer=tracer)
        passes.append(traced)

    problems, failed = [], 0
    for p in passes:
        found, bad = workloads.check(wl, inputs, p, seed)
        problems += found
        failed += bad
    info = workloads.info(wl, out)
    if tracer is not None and workloads.info(wl, traced) != info:
        problems.append("the traced pass computed different results")

    metrics, detail, lines = {}, {}, []
    if tracer is None:
        e2e = workloads.end_to_end(wl, (setup_raw, setup_ref), out)
        for name, (value, n, note) in e2e.items():
            unit = workloads.END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            detail[name] = {"value": value, "n": n, "note": note}
            lines.append(table_line(name, unit, value, n, note=note))
    else:
        main = spans.EVAL if wl.train is None else spans.TRAIN
        overhead = workloads.ref_row_s(traced) / workloads.ref_row_s(out) - 1.0
        summaries = spans.layer_metrics(tracer, main, overhead)
        for m in spans.LAYER_METRICS:
            s = summaries[m.name]
            metrics[m.name] = {"value": s.value, "unit": m.unit}
            detail[m.name] = {"median": s.value, "n": s.n, "pct": s.pct,
                              "pct_value": s.pct_value, "moves": m.moves}
            lines.append(table_line(m.name, m.unit, s.value, s.n, s.pct, s.pct_value,
                                    f"-> {m.moves}"))
        if tracer.missing_sites:
            lines.append("sites not found: " + ", ".join(sorted(tracer.missing_sites)))
    result = {"correct": not problems, "attempted": sum(map(workloads.attempted, passes)),
              "failed": failed, "metrics": metrics}
    return {"result": result, "lines": lines, "problems": problems, "info": info,
            "detail": detail, "tracer": tracer}


def main(argv=None) -> int:
    args = parse_args(argv)
    # must precede the first numpy import
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        spans, workloads = import_library()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        threads = blas_threads()
        if threads is not None and threads != BLAS_THREADS:
            raise SetupError(f"BLAS reports {threads} threads, expected {BLAS_THREADS}")
    except (SetupError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    prov = provenance(args.seed, threads)
    try:
        report = measure(spans, workloads, workloads.WORKLOADS[args.workload],
                         args.seed, args.seconds, bool(args.trace))
    except workloads.BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if report["tracer"] is not None:
        report["tracer"].write(OUT_DIR / f"{stem}-spans.json")
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump({"provenance": prov, "info": report["info"],
                   "problems": report["problems"], "detail": report["detail"],
                   "result": report["result"]}, f, indent=1)
    print(json.dumps({"provenance": prov, "info": report["info"]}))
    for line in report["lines"]:
        print(line)
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
