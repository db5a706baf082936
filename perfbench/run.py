"""Benchmark of the duca simulator: three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shipped-config --seed 1 --seconds 30 --trace 0

A run repeats whole units of one workload until ``--seconds`` have passed
(at least one unit) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
unit is traced and the metrics are the per-layer ones.  Each run also
appends its result to ``.perfbench_runs/results.jsonl`` and, when traced,
writes the span aggregates to ``.perfbench_runs/trace-<workload>-<seed>.json``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"



def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's own ``src`` first on the path and import duca from it."""
    if not (SRC / "duca" / "__init__.py").is_file():
        sys.exit(f"perfbench: no duca sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import duca

    if Path(duca.__file__).resolve().parent != (SRC / "duca").resolve():
        sys.exit(f"perfbench: imported duca from {duca.__file__}, not from {SRC}")
    return duca


def metric_units(kind):
    """Metric name -> unit for one list of BENCHMARK.json, which names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(units, setup_samples, peak_rss_mb):
    med = statistics.median
    # settings differ in round cost; a median pooled over two of them falls in
    # the gap between their clusters and jumps, so take each setting's first
    intervals = defaultdict(list)
    for u in units:
        for rec in u.settings:
            intervals[rec.label] += rec.intervals
    values = {
        "wall_s": med(u.wall_s for u in units),
        "setup_s": med(setup_samples),
        "agent_rounds_per_s": med(u.agent_rounds / u.round_phase_s for u in units),
        "round_ms_p50": med(med(ivs) for ivs in intervals.values()) * 1e3,
        "cpu_s": med(u.cpu_s for u in units),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": u} for k, u in metric_units("end_to_end").items()}


def main(argv=None):
    args = parse_args(argv)
    duca = import_program()
    import numpy as np

    import tracing
    import workloads
    from duca.errors import DucaError

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    out_root = ROOT / ".perfbench_runs"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    session = workloads.Session()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, run_dir, session)
    session.install()
    tracer = None
    trace_patches = tracing.Patches(optional=True)
    try:
        wl.prepare()
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_tracer(trace_patches, tracer)

        units, layers, spans, errors, setup_samples = [], [], [], [], []

        def extra_setups(count):
            """Set-up passes between units, with the latest reference solution."""
            cores = [u.captured["core"] for u in units if "core" in u.captured]
            for _ in range(count if cores and tracer is None else 0):
                session.new_unit()
                wl.setup_pass(cores[-1])
                setup_samples.append(session.unit.setup_s)

        start = time.perf_counter()
        while True:
            k = len(units)
            if tracer is not None:
                tracer.reset()
            try:
                unit = wl.unit(k)
            except DucaError as exc:  # a raise outside the rounds fails the unit
                errors.append(f"unit {k}: {type(exc).__name__}: {exc}")
                unit = session.unit
                unit.captured["raised"] = True
            units.append(unit)
            setup_samples.append(unit.setup_s)
            print(f"perfbench: {args.workload} unit {k}: {unit.wall_s:.3f} s",
                  file=sys.stderr)
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer, unit.wall_s, unit.check_s))
                spans.append(tracer.summary())
            extra_setups(workloads.SETUP_PASSES_PER_UNIT)
            if time.perf_counter() - start >= args.seconds:
                break
        extra_setups(workloads.SETUP_SAMPLES - len(setup_samples))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_units = [u for u in units if not u.captured.get("raised")]
    finally:
        trace_patches.restore()
        session.patches.restore()

    if not ok_units:
        sys.exit("perfbench: every unit raised:\n" + "\n".join(errors))

    # -- checks, outside every timing ---------------------------------------
    attempted = wl.n_operations() * len(units)
    failed = 0
    for unit in units:
        failed += wl.n_operations() if unit.captured.get("raised") else wl.check_unit(unit)
    controls = wl.negative_controls(ok_units[0])
    problems = errors + wl.failures + controls
    for line in problems:
        print(f"perfbench: CHECK {line}", file=sys.stderr)
    correct = not problems

    if args.trace:
        metrics = {
            name: {"value": statistics.median(d[name] for d in layers), "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }
        (out_root / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "units": [dict(layers=l, **s) for l, s in zip(layers, spans)]},
                       indent=1) + "\n")
    else:
        metrics = end_to_end(ok_units, setup_samples, peak_rss_mb)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "units": len(units), "result": result,
              "python": platform.python_version(), "numpy": np.__version__,
              "duca": duca.__version__}
    with open(out_root / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
