"""Instrumentation that the benchmark installs around the duca package.

Two layers of wrappers, both installed from the benchmark's own files by
replacing module attributes that duca looks up at call time:

* :class:`Patches` records every replacement and restores the originals.
* :class:`Tracer` keeps spans in memory.  A span is one call of a wrapped
  function; the tracer keeps a stack so that each span knows its parent and
  its self time (duration minus the time covered by its child spans).  Spans
  are aggregated per name as they close: calls, total and self seconds, and
  for a few names the list of single durations.  Nothing is written until
  the run ends.

The always-on timers the untraced run needs (set-up, round phase, hook
arrivals) live in ``workloads.py``; this module adds only the traced layer.
"""

from __future__ import annotations

import pathlib
import statistics
import time

import duca.cli
import duca.engine
import duca.graphs
import duca.localsolver
import duca.metrics
import duca.oracle
import duca.problem

_now = time.perf_counter

#: span names whose single durations are kept for percentiles
_KEEP_DURATIONS = ("engine.round", "localsolver.solve", "metrics.row")


class Patches:
    """Attribute replacements with exact restoration in reverse order.

    With ``optional=True`` a missing attribute is skipped, so a span whose
    function was removed or renamed reads 0 instead of breaking the run.
    """

    def __init__(self, optional=False):
        self._saved = []
        self.optional = optional

    def wrap(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        if self.optional and not hasattr(owner, attr):
            return
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """In-memory span recorder with per-name aggregation."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stats: dict[str, SpanStats] = {}
        self.durations = {name: [] for name in _KEEP_DURATIONS}
        self.counts: dict[str, int] = {}
        # each frame is [name, start, time covered by children]
        self._stack = [["unit", _now(), 0.0]]
        self._open: dict[str, int] = {}

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def begin(self, name):
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, _now(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame):
        dur = _now() - frame[1]
        top = self._stack.pop()
        if top is not frame:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {frame[0]} closed out of order")
        self._stack[-1][2] += dur
        name = frame[0]
        self._open[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        if self._open[name] == 0:  # a span inside one of its own name adds no time
            st.total += dur
        st.self_time += dur - frame[2]
        keep = self.durations.get(frame[0])
        if keep is not None:
            keep.append(dur)
        return dur

    def span_wrapper(self, name, on_result=None):
        """Factory for :meth:`Patches.wrap` recording one span per call."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                frame = tracer.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(frame)
                if on_result is not None:
                    on_result(out, args)
                return out

            return traced

        return make

    def total(self, name):
        st = self.stats.get(name)
        return st.total if st else 0.0

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def summary(self):
        """Plain-data snapshot of the aggregates (for the trace file)."""
        return {
            "spans": {
                name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
                for name, st in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def install_tracer(patches: Patches, tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    span = tracer.span_wrapper
    cli, eng, gr, ls, met, orc, prob = (
        duca.cli, duca.engine, duca.graphs, duca.localsolver, duca.metrics,
        duca.oracle, duca.problem,
    )

    for owner in (prob, cli):
        patches.wrap(owner, "generate_example", span("problem.generate"))
    for owner in (gr, cli):
        patches.wrap(owner, "random_connected_graph", span("graphs.graph"))
        patches.wrap(owner, "make_setting", span("graphs.setting"))
    for owner in (gr, eng, met):
        patches.wrap(owner, "spectral_quantities", span("graphs.spectral"))

    def on_core(core, _args):
        tracer.add("oracle.outer_iters", core.outer_iters)

    def on_al(out, _args):
        tracer.add("oracle.al_iters", out[2])

    for owner in (orc, cli):
        patches.wrap(owner, "centralized_solve", span("oracle.solve", on_core))
    patches.wrap(orc, "_al_minimize", span("oracle.al_minimize", on_al))
    patches.wrap(orc, "_prox_l1_ball", span("oracle.prox"))

    def on_solve(out, args):
        iters, done = out[2], out[3]
        tracer.add("localsolver.iters", iters.sum())
        tracer.add("localsolver.agent_rounds", len(iters))
        tracer.add("localsolver.uncertified", (~done).sum())

    patches.wrap(eng, "solve_local_batch", span("localsolver.solve", on_solve))
    patches.wrap(ls, "_prox_l1_ball", span("localsolver.prox"))
    patches.wrap(ls, "_certificate_residual", span("localsolver.certificate"))

    def on_run(st, _args):
        tracer.add("engine.reals_sent", st.comm_total)
        tracer.add("engine.rounds", st.k)

    for owner in (eng, cli):
        patches.wrap(owner, "run", span("engine.run", on_run))
    patches.wrap(eng, "single_exchange_round", span("engine.round"))
    patches.wrap(eng, "double_exchange_round", span("engine.round"))
    patches.wrap(eng.Mailbox, "send", span("engine.exchange"))
    patches.wrap(eng.Mailbox, "collect", span("engine.exchange"))

    for owner in (met, cli):
        patches.wrap(owner, "make_certificate", span("metrics.certificate"))
    patches.wrap(met.MetricsCollector, "__call__", span("metrics.hook"))
    patches.wrap(met, "compute_row", span("metrics.row"))
    patches.wrap(met, "theorem_bounds", span("metrics.bounds"))

    patches.wrap(cli, "load_config", span("cli.config"))
    patches.wrap(cli, "rows_to_csv", span("cli.write"))
    patches.wrap(cli, "dump_certificate", span("cli.write"))
    patches.wrap(cli, "Path", lambda _orig: _traced_path_class(tracer))


def _traced_path_class(tracer: Tracer):
    """A Path class whose write_text records a cli.write span and its bytes."""
    base = type(pathlib.Path())

    class TracedPath(base):
        def write_text(self, data, *args, **kwargs):
            frame = tracer.begin("cli.write")
            try:
                n = super().write_text(data, *args, **kwargs)
            finally:
                tracer.end(frame)
            tracer.add("cli.bytes_written", len(data.encode()))
            return n

    return TracedPath


def _median(xs):
    """0 when the span never ran (its function was removed)."""
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    """The 90th percentile as statistics.quantiles gives it."""
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10)[-1]


def layer_metrics(tracer: Tracer, unit_wall: float, check_s: float):
    """Per-layer metrics of one traced unit (see README for the mapping)."""
    t = tracer.total
    c = tracer.counts.get
    run_s = t("engine.run") - check_s
    round_s = t("engine.round")
    solve_s = t("localsolver.solve")
    agent_rounds = c("localsolver.agent_rounds", 0)
    rounds = c("engine.rounds", 0)
    top = (
        t("cli.config") + t("problem.generate") + t("graphs.graph")
        + t("graphs.setting") + t("metrics.certificate") + t("oracle.solve")
        + run_s + t("cli.write")
    )
    ms = 1e3
    return {
        "problem.generate_s": t("problem.generate"),
        "graphs.graph_s": t("graphs.graph"),
        "graphs.setting_s": t("graphs.setting"),
        "graphs.spectral_s": t("graphs.spectral"),
        "graphs.spectral_calls": tracer.calls("graphs.spectral"),
        "metrics.certificate_s": t("metrics.certificate"),
        "oracle.solve_s": t("oracle.solve"),
        "oracle.outer_iters": c("oracle.outer_iters", 0),
        "oracle.al_iters": c("oracle.al_iters", 0),
        "oracle.prox_s": t("oracle.prox"),
        "localsolver.solve_s": solve_s,
        "localsolver.solve_ms_p50": _median(tracer.durations["localsolver.solve"]) * ms,
        "localsolver.iters_per_agent_round":
            c("localsolver.iters", 0) / agent_rounds if agent_rounds else 0.0,
        "localsolver.uncertified": c("localsolver.uncertified", 0),
        "localsolver.prox_s": t("localsolver.prox"),
        "localsolver.prox_calls": tracer.calls("localsolver.prox"),
        "localsolver.certificate_s": t("localsolver.certificate"),
        "localsolver.certificate_calls": tracer.calls("localsolver.certificate"),
        "engine.run_s": run_s,
        "engine.round_s": round_s,
        "engine.round_ms_p50": _median(tracer.durations["engine.round"]) * ms,
        "engine.round_ms_p90": _p90(tracer.durations["engine.round"]) * ms,
        "engine.self_s": round_s - solve_s,
        "engine.exchange_s": t("engine.exchange"),
        "engine.exchange_calls": tracer.calls("engine.exchange"),
        "engine.reals_sent_per_round":
            c("engine.reals_sent", 0) / rounds if rounds else 0.0,
        "metrics.hook_s": t("metrics.hook"),
        "metrics.row_s": t("metrics.row"),
        "metrics.row_ms_p50": _median(tracer.durations["metrics.row"]) * ms,
        "metrics.bounds_s": t("metrics.bounds"),
        "cli.config_s": t("cli.config"),
        "cli.write_s": t("cli.write"),
        "cli.bytes_written": c("cli.bytes_written", 0),
        "trace.wall_s": unit_wall,
        "trace.accounted_share": top / unit_wall if unit_wall > 0 else 0.0,
    }
