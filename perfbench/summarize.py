"""Summarize benchmark runs: medians, quartiles, spreads and tracing overhead.

Usage (from the repository root)::

    python3 perfbench/summarize.py [.perfbench_runs/results.jsonl]

Groups the records that ``run.py`` appended by workload and trace mode and
prints, for every metric, the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
distance between the quartiles as a share of the median.  For each workload
with both kinds of runs it also prints the tracing overhead: the median
traced ``trace.wall_s`` minus the median untraced ``wall_s``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / ".perfbench_runs" / "results.jsonl"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT
    groups = defaultdict(list)
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        groups[(rec["workload"], rec["trace"])].append(rec)
    medians = {}
    for (workload, trace), recs in sorted(groups.items()):
        res = [r["result"] for r in recs]
        ok = sum(r["correct"] for r in res)
        shares = sorted({r["failed"] / r["attempted"] for r in res})
        seeds = sorted(r["seed"] for r in recs)
        print(f"== {workload} trace={trace}: {len(recs)} runs, seeds {seeds}, "
              f"correct {ok}/{len(recs)}, failed shares {shares}")
        for name in res[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in res]
            unit = res[0]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(vals)
            medians[(workload, trace, name)] = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:36s} {med:14.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.2%}")
    for workload in sorted({w for w, _t in groups}):
        traced = medians.get((workload, 1, "trace.wall_s"))
        plain = medians.get((workload, 0, "wall_s"))
        if traced is not None and plain is not None:
            print(f"tracing overhead {workload}: {traced - plain:+.3f} s "
                  f"({(traced - plain) / plain:+.1%} of {plain:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
