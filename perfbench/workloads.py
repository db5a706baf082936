"""The three workloads: inputs from the seed, timed units, output checks.

A *unit* is one whole workload: set-up, reference solve, every setting's
rounds and (for ``shipped-config``) the output files.  A run repeats units
until its time is up.  An *operation* is one round of one setting.

Timing is done by a few always-on wrappers (installed by
:meth:`Session.install`) that cost a handful of clock reads per round:

* set-up timers around instance, graph, setting and certificate builders;
* a round-phase timer around ``engine.run`` (with its metrics hook);
* a hook wrapper that stamps every hook call and runs the per-round checks,
  whose time is measured and subtracted from every timing;
* a counter on ``solve_local_batch`` that reads its ``done`` array.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import yaml

import duca.cli
import duca.engine
import duca.graphs
import duca.metrics
import duca.oracle
import duca.problem
from duca.errors import DucaError

import checks
from tracing import Patches

_now = time.perf_counter
_cpu = time.process_time

SHIPPED_CONFIG = Path("demos") / "configs" / "experiment.yaml"
#: rounds per setting; 100 is the shortest run whose ergodic feasibility
#: slope over [R/10, R] is below -0.8 for every setting of the shipped config
SHIPPED_ROUNDS = 100
#: the generator seed of every instance (the shipped config's seed)
INSTANCE_SEED = 42
#: active-coupling: the shipped instance with Q scaled so the coupling binds
Q_SCALE = 4.0
ACTIVE_ROUNDS = 20
#: settled-wide: a large network started at its exact fixed point
WIDE_NODES, WIDE_EDGES = 500, 1000
WIDE_ROUNDS = 200
DIMS = dict(d=3, m=1, p=5)
TOL_INNER = 1e-8
ORACLE_TOL = 1e-9
#: set-up is sampled at least this many times per run: each unit's own
#: set-up, SETUP_PASSES_PER_UNIT extra passes after every unit (with that
#: unit's reference solution), then more passes after the last unit
SETUP_SAMPLES = 9
SETUP_PASSES_PER_UNIT = 2


@dataclasses.dataclass
class SettingRecord:
    label: str
    rounds: int
    checker: checks.RoundChecker
    error: str | None = None
    state: object = None
    solve_calls: int = 0
    uncertified_rounds: int = 0
    hook_calls: int = 0
    violations: Counter = dataclasses.field(default_factory=Counter)
    #: hook-to-hook seconds, one per round, check time removed
    intervals: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class UnitRecord:
    """Timings and outputs of one unit; check time is already subtracted."""

    setup_s: float = 0.0
    round_phase_s: float = 0.0
    check_s: float = 0.0
    check_cpu_s: float = 0.0
    prep_s: float = 0.0
    prep_cpu_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    agent_rounds: int = 0
    settings: list = dataclasses.field(default_factory=list)
    captured: dict = dataclasses.field(default_factory=dict)


class HookRecorder:
    """Engine hook: stamps each call, forwards to the metrics collector, and
    runs the per-round checks outside the measured interval."""

    def __init__(self, inner, unit: UnitRecord, rec: SettingRecord):
        self.inner = inner
        self.unit = unit
        self.rec = rec
        self._prev_in = None
        self._prev_check = 0.0
        self._prev_comm = None

    @property
    def rows(self):
        """The collector's rows, which `duca run` writes to the CSV."""
        return self.inner.rows

    def __call__(self, st):
        t_in = _now()
        if self._prev_in is not None:
            self.rec.intervals.append(t_in - self._prev_in - self._prev_check)
        self._prev_in = t_in
        self.inner(st)
        c0, p0 = _now(), _cpu()
        self.rec.hook_calls += 1
        for name in self.rec.checker(st, self._prev_comm):
            self.rec.violations[name] += 1
        self._prev_comm = st.comm_total
        self._prev_check = _now() - c0
        self.unit.check_s += self._prev_check
        self.unit.check_cpu_s += _cpu() - p0


class Session:
    """Always-on instrumentation shared by every unit of a run."""

    def __init__(self):
        self.unit = UnitRecord()
        self.current: SettingRecord | None = None
        self.patches = Patches()

    def new_unit(self) -> UnitRecord:
        self.unit = UnitRecord()
        return self.unit

    def new_setting(self, pb, s, rounds, n_edges, zero_state) -> SettingRecord:
        variant = s.variant.value
        step = checks.comm_step(n_edges, pb.mp, variant)
        checker = checks.RoundChecker(pb.a, pb.c, pb.m, step, zero_state)
        rec = SettingRecord(f"{variant}/alpha={s.alpha:g}", rounds, checker)
        self.unit.settings.append(rec)
        self.unit.agent_rounds += pb.n_agents * rounds
        self.current = rec
        return rec

    def timed_run(self, fn, *args, **kwargs):
        """Call ``engine.run`` and charge its time, less checks, to the round phase."""
        unit, rec = self.unit, self.current
        t0, chk0 = _now(), unit.check_s
        try:
            rec.state = fn(*args, **kwargs)
        except DucaError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            unit.round_phase_s += _now() - t0 - (unit.check_s - chk0)
        return rec.state

    def install(self):
        """Wrap the program's entry points that every unit goes through."""
        session = self

        def setup_timer(capture=None):
            def make(fn):
                def timed(*args, **kwargs):
                    t0 = _now()
                    out = fn(*args, **kwargs)
                    session.unit.setup_s += _now() - t0
                    if capture:
                        session.unit.captured[capture] = out
                    return out
                return timed
            return make

        def count_done(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                rec = session.current
                rec.solve_calls += 1
                if not out[3].all():
                    rec.uncertified_rounds += 1
                return out
            return counted

        def capture(name):
            def make(fn):
                def captured(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    session.unit.captured[name] = out
                    return out
                return captured
            return make

        def collector_factory(_cls):
            def make_collector(pb, s, cert, tol_inner, check):
                g = session.unit.captured["instance"][0]
                rec = session.new_setting(pb, s, SHIPPED_ROUNDS, len(g.edges),
                                          zero_state=False)
                inner = duca.metrics.MetricsCollector(pb, s, cert, tol_inner=tol_inner,
                                                      check=check)
                return HookRecorder(inner, session.unit, rec)
            return make_collector

        def run_timer(fn):
            def timed(*args, **kwargs):
                return session.timed_run(fn, *args, **kwargs)
            return timed

        p = self.patches
        p.wrap(duca.engine, "solve_local_batch", count_done)
        p.wrap(duca.cli, "_build_instance", setup_timer("instance"))
        p.wrap(duca.cli, "_setting_from_entry", setup_timer())
        p.wrap(duca.cli, "make_certificate", setup_timer())
        p.wrap(duca.cli, "_solve_reference", capture("core"))
        p.wrap(duca.cli, "MetricsCollector", collector_factory)
        p.wrap(duca.cli, "run", run_timer)


def warm_up_linalg(n):
    """First LAPACK/BLAS calls of a process are slow; pay that before timing."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    S = A + A.T
    for _ in range(2):
        np.linalg.eigh(S)
        np.linalg.eigvalsh(S)
        S @ S


def relabel(g, pb, perm):
    """The same network with agent perm[r] renamed r (graph and problem)."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    edges = [(int(inv[i]), int(inv[j])) for i, j in g.edges]
    g2 = duca.graphs.build_graph(g.n_nodes, edges)
    arrays = {name: getattr(pb, name)[perm]
              for name in ("P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq")}
    pb2 = dataclasses.replace(pb, dims=tuple(pb.dims[i] for i in perm), **arrays)
    return g2, pb2


class Workload:
    name = ""
    #: whether X and Y must stay exactly at their zero start
    zero_state = False

    def __init__(self, root: Path, seed: int, run_dir: Path, session: Session):
        self.root = root
        self.seed = seed
        self.run_dir = run_dir
        self.session = session
        self.failures: list[str] = []

    def n_operations(self):
        raise NotImplementedError

    def unit_failures(self, unit):
        """Per-setting failures (whole setting fails) of one finished unit."""
        return {rec.label: checks.check_setting(rec, self.zero_state) for rec in unit.settings}

    def count_failed(self, unit, bad_labels):
        failed = 0
        seen = 0
        for rec in unit.settings:
            seen += rec.rounds
            failed += rec.rounds if rec.label in bad_labels else rec.uncertified_rounds
        # settings that never started (an early raise) failed as a whole
        return failed + (self.n_operations() - seen)


# ---------------------------------------------------------------------------


class ShippedConfig(Workload):
    """`duca run --strict` on the shipped config, through `duca.cli.main`."""

    name = "shipped-config"

    def prepare(self):
        src = self.root / SHIPPED_CONFIG
        raw = yaml.safe_load(src.read_text())
        # the seed permutes the setting list: each CSV is independent of the
        # order, so every seed does the same work on a different input file
        order = np.random.default_rng(self.seed).permutation(len(raw["setting"]))
        raw["setting"] = [raw["setting"][int(i)] for i in order]
        self.config_path = self.run_dir / "experiment.yaml"
        self.config_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        self.cfg = duca.cli.load_config(self.config_path)[0]
        warm_up_linalg(self.cfg["graph"]["n_nodes"])
        g, pb = duca.cli._build_instance(self.cfg)
        for entry in self.cfg["setting"]:
            duca.cli._setting_from_entry(entry, g)

    def n_operations(self):
        return len(self.cfg["setting"]) * SHIPPED_ROUNDS

    def setup_pass(self, core):
        """The set-up steps of `cmd_run`, without the rounds (for setup_s)."""
        cfg = self.cfg
        g, pb = duca.cli._build_instance(cfg)
        x0, y0 = duca.cli._initial_points(cfg, pb)
        for entry in cfg["setting"]:
            s = duca.cli._setting_from_entry(entry, g)
            duca.cli.make_certificate(core, pb, s, x0=x0, y0=y0)

    def unit(self, k):
        unit = self.session.new_unit()
        out = self.run_dir / f"unit{k}"
        argv = ["run", "--config", str(self.config_path), "--out", str(out),
                "--rounds", str(SHIPPED_ROUNDS), "--strict"]
        buf = io.StringIO()
        t0, p0 = _now(), _cpu()
        with redirect_stdout(buf):
            unit.captured["exit"] = duca.cli.main(argv)
        unit.wall_s = _now() - t0 - unit.check_s
        unit.cpu_s = _cpu() - p0 - unit.check_cpu_s
        unit.captured["out"] = out
        return unit

    def check_unit(self, unit):
        bad = self.unit_failures(unit)
        fails = [f for fs in bad.values() for f in fs]
        code = unit.captured.get("exit")
        if code != 0:
            fails.append(f"duca run exited with code {code}")
            self.failures += fails
            return self.n_operations()
        out = unit.captured["out"]
        g, pb = unit.captured["instance"]
        n_edges = len(g.edges)
        names = [duca.cli._csv_name(e) for e in self.cfg["setting"]]
        for entry, name, rec in zip(self.cfg["setting"], names, unit.settings):
            step = checks.comm_step(n_edges, pb.mp, entry["variant"])
            cols = checks.read_csv_columns((out / name).read_text())
            got = checks.check_csv(cols, SHIPPED_ROUNDS, step)
            if got:
                bad[rec.label] += [f"{name}: {f}" for f in got]
                fails += got
        manifest = json.loads((out / "manifest.json").read_text())
        fails += checks.check_manifest(manifest, names, SHIPPED_ROUNDS)
        cert = checks.parse_certificate((out / "certificate.txt").read_text())
        opt = checks.check_analytic_optimum(cert)
        if not np.array_equal(cert["Q"], pb.Q):
            opt.append("certificate.txt does not hold the run's instance")
        fails += opt
        self.failures += fails
        if opt:
            return self.n_operations()
        return self.count_failed(unit, {label for label, fs in bad.items() if fs})

    def negative_controls(self, unit):
        out = unit.captured["out"]
        names = [duca.cli._csv_name(e) for e in self.cfg["setting"]]
        g, pb = unit.captured["instance"]
        entry = self.cfg["setting"][0]
        step = checks.comm_step(len(g.edges), pb.mp, entry["variant"])
        cols = checks.read_csv_columns((out / names[0]).read_text())
        flat = dict(cols, ergodic_feasibility=["1.0"] * SHIPPED_ROUNDS)
        short = {k: v[:-1] for k, v in cols.items()}
        comm = dict(cols, comm_total=[str(int(v) + (i == 5)) for i, v in enumerate(cols["comm_total"])])
        cert = checks.parse_certificate((out / "certificate.txt").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        opt = checks.check_analytic_optimum
        fails = []
        fails += checks.must_fail("flat feasibility curve", checks.check_csv, flat, SHIPPED_ROUNDS, step)
        fails += checks.must_fail("missing round", checks.check_csv, short, SHIPPED_ROUNDS, step)
        fails += checks.must_fail("one extra real sent", checks.check_csv, comm, SHIPPED_ROUNDS, step)
        fails += checks.must_fail("manifest missing a CSV", checks.check_manifest, manifest,
                                  names + ["extra.csv"], SHIPPED_ROUNDS)
        fails += checks.must_fail("f* off zero", opt, dict(cert, f_star=1e-6))
        fails += checks.must_fail("x* off zero", opt, dict(cert, x_star=cert["x_star"] + 1e-6))
        fails += checks.must_fail("Q beyond w", opt, dict(cert, Q=Q_SCALE * cert["Q"]))
        fails += checks.setting_controls(unit.settings[0], zero_state=False)
        return fails


class DirectWorkload(Workload):
    """Library-level workloads: the benchmark builds the inputs and settings."""

    n_nodes = n_edges = rounds = 0
    variants = ("DUCA_I", "DIST_ADMM")
    q_scale = 1.0

    def prepare(self):
        self.perm = np.random.default_rng(self.seed).permutation(self.n_nodes)
        self.x0 = np.zeros((self.n_nodes, DIMS["d"]))
        self.y0 = self.initial_y()
        warm_up_linalg(self.n_nodes)
        self.build(UnitRecord())

    def n_operations(self):
        return len(self.variants) * self.rounds

    def build(self, unit):
        """Instance, graph and settings: the first half of set-up.

        The benchmark's own input steps (the Q scaling and the relabeling by
        the seed's permutation) are timed apart and left out of every timing.
        """
        g = duca.graphs.random_connected_graph(self.n_nodes, self.n_edges, seed=INSTANCE_SEED)
        pb = duca.problem.generate_example(self.n_nodes, seed=INSTANCE_SEED, **DIMS)
        t0, p0 = _now(), _cpu()
        if self.q_scale != 1.0:
            pb = dataclasses.replace(pb, Q=self.q_scale * pb.Q)
        g, pb = relabel(g, pb, self.perm)
        unit.prep_s += _now() - t0
        unit.prep_cpu_s += _cpu() - p0
        settings = [duca.graphs.make_setting(v, g, rho=1.0) for v in self.variants]
        return g, pb, settings

    def certificates(self, core, pb, settings):
        return [duca.metrics.make_certificate(core, pb, s, x0=self.x0, y0=self.y0)
                for s in settings]

    def setup_pass(self, core):
        unit = self.session.unit
        t0 = _now()
        _g, pb, settings = self.build(unit)
        self.certificates(core, pb, settings)
        unit.setup_s += _now() - t0 - unit.prep_s

    def unit(self, k):
        session = self.session
        unit = session.new_unit()
        t0, p0 = _now(), _cpu()
        g, pb, settings = self.build(unit)
        unit.setup_s += _now() - t0 - unit.prep_s
        core = duca.oracle.centralized_solve(pb, tol=ORACLE_TOL)
        t1 = _now()
        certs = self.certificates(core, pb, settings)
        unit.setup_s += _now() - t1
        for s, cert in zip(settings, certs):
            rec = session.new_setting(pb, s, self.rounds, len(g.edges), self.zero_state)
            coll = duca.metrics.MetricsCollector(pb, s, cert, tol_inner=TOL_INNER, check=True)
            hook = HookRecorder(coll, unit, rec)
            try:
                session.timed_run(duca.engine.run, pb, s, self.rounds, x0=self.x0,
                                  y0=self.y0, hook=hook, tol_inner=TOL_INNER, check=True)
            except DucaError:
                pass  # recorded on the setting; its rounds count as failed
        unit.wall_s = _now() - t0 - unit.check_s - unit.prep_s
        unit.cpu_s = _cpu() - p0 - unit.check_cpu_s - unit.prep_cpu_s
        unit.captured.update(core=core, pb=pb)
        return unit

    def check_unit(self, unit):
        bad = self.unit_failures(unit)
        fails = [f for fs in bad.values() for f in fs]
        opt = self.check_optimum(unit)
        fails += opt
        self.failures += fails
        if opt:
            return self.n_operations()
        return self.count_failed(unit, {label for label, fs in bad.items() if fs})

    def optimum_args(self, unit):
        core, pb = unit.captured["core"], unit.captured["pb"]
        return core, pb, core.x_star.rows(pb.dmax)

    def negative_controls(self, unit):
        return checks.setting_controls(unit.settings[0], self.zero_state)


class ActiveCoupling(DirectWorkload):
    """Q scaled by 4: every coupled multiplier is nonzero at the optimum."""

    name = "active-coupling"
    n_nodes, n_edges = 20, 40
    rounds = ACTIVE_ROUNDS
    q_scale = Q_SCALE

    def initial_y(self):
        return np.ones((self.n_nodes, DIMS["m"] + DIMS["p"]))

    def check_optimum(self, unit):
        core, pb, x_star = self.optimum_args(unit)
        if not hasattr(self, "reference"):
            # SLSQP solves the instance in its generated agent order, where it
            # is known to converge; relabeling moves rows of x* only
            self.first_core = core
            canon = duca.problem.generate_example(self.n_nodes, seed=INSTANCE_SEED, **DIMS)
            ref = checks.slsqp_reference(dataclasses.replace(canon, Q=self.q_scale * canon.Q))
            self.reference = dict(ref, x=ref["x"][self.perm])
        elif (core.f_star != self.first_core.f_star
              or not np.array_equal(core.y_star, self.first_core.y_star)):
            return ["the reference solve is not deterministic across units"]
        return checks.check_against_reference(pb, x_star, core.f_star, core.y_star,
                                               self.reference)

    def negative_controls(self, unit):
        core, pb, x_star = self.optimum_args(unit)
        ref = self.reference
        y_zero = core.y_star.copy()
        y_zero[0] = 0.0
        fails = super().negative_controls(unit)
        fails += checks.must_fail("f* off the SLSQP value", checks.check_against_reference,
                                  pb, x_star, core.f_star + 1e-4, core.y_star, ref)
        fails += checks.must_fail("x* moved", checks.check_against_reference,
                                  pb, x_star + 1e-3, core.f_star, core.y_star, ref)
        fails += checks.must_fail("an inactive multiplier", checks.check_against_reference,
                                  pb, x_star, core.f_star, y_zero, ref)
        return fails


class SettledWide(DirectWorkload):
    """N=500 degenerate instance started at its exact fixed point x0=0, y0=0."""

    name = "settled-wide"
    zero_state = True
    n_nodes, n_edges = WIDE_NODES, WIDE_EDGES
    rounds = WIDE_ROUNDS

    def initial_y(self):
        return np.zeros((self.n_nodes, DIMS["m"] + DIMS["p"]))

    def optimum_data(self, unit):
        core, pb, x_star = self.optimum_args(unit)
        data = {name: getattr(pb, name)
                for name in ("Q", "l1_weight", "a", "c", "a_prime", "c_prime", "c_eq")}
        return dict(data, x_star=x_star, f_star=core.f_star, y_star=core.y_star)

    def check_optimum(self, unit):
        return checks.check_analytic_optimum(self.optimum_data(unit))

    def negative_controls(self, unit):
        data = self.optimum_data(unit)
        opt = checks.check_analytic_optimum
        fails = super().negative_controls(unit)
        fails += checks.must_fail("f* off zero", opt, dict(data, f_star=1e-6))
        fails += checks.must_fail("y* off zero", opt, dict(data, y_star=data["y_star"] + 1e-6))
        fails += checks.must_fail("Q beyond w", opt, dict(data, Q=Q_SCALE * data["Q"]))
        return fails


WORKLOADS = {w.name: w for w in (ShippedConfig, ActiveCoupling, SettledWide)}
