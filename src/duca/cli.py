"""Experiment driver: validate configs, run variant sweeps, tabulate bounds.

Subcommands
-----------
``duca run --config cfg.yaml --out DIR``
    Generate the instance, solve the centralized reference, execute every
    configured (variant, alpha) setting, and write one metrics CSV per
    setting plus the serialized certificate and a run manifest.
``duca validate --config cfg.yaml``
    Check the graph, the parameter settings, and constraint qualification
    without running any rounds; prints one PASS/FAIL line per check.
``duca bounds --config cfg.yaml --k 1,10,100``
    Print the theorem bound values for each setting at the requested rounds.

Exit codes: 0 ok, 2 config error, 3 assumption violation, 4 invariant breach
(strict runs only), 5 oracle failure.

The config is YAML with exactly five sections -- ``graph``, ``problem``,
``setting`` (a list), ``run``, ``oracle`` -- and unknown keys are errors, so
typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .engine import run
from .errors import (
    AssumptionViolatedError,
    ConfigError,
    DimMismatchError,
    DisconnectedError,
    DucaError,
    InfeasibleProblemError,
    InvalidEdgeError,
    InvalidInitError,
    InvariantBreachError,
    MailboxError,
    MissingTuningError,
    NotConvergedError,
    PatternMismatchError,
    TooLargeError,
)
from .graphs import Variant, make_setting, random_connected_graph
from .metrics import MetricsCollector, make_certificate, rows_to_csv
from .oracle import centralized_solve, dump_certificate
from .problem import generate_example, slater_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_INVARIANT = 4
EXIT_ORACLE = 5

_ASSUMPTION_ERRORS = (
    AssumptionViolatedError,
    MissingTuningError,
    DisconnectedError,
    InvalidEdgeError,
    PatternMismatchError,
    DimMismatchError,
    InvalidInitError,
)
_ORACLE_ERRORS = (NotConvergedError, InfeasibleProblemError, TooLargeError)

# ---------------------------------------------------------------------------
# Config schema: section -> {key: (type, default-or-None)}.  A None default
# marks the key as required.

_SCHEMA = {
    "graph": {"n_nodes": (int, None), "n_edges": (int, None), "seed": (int, None)},
    "problem": {
        "d": (int, None),
        "m": (int, None),
        "p": (int, None),
        "seed": (int, None),
    },
    "run": {
        "rounds": (int, None),
        "tol_inner": (float, 1e-8),
        "x0": (str, "zeros"),
        "y0": (str, "ones"),
        "init_seed": (int, 0),
    },
    "oracle": {"tol": (float, 1e-9)},
}
_SETTING_SCHEMA = {
    "variant": (str, None),
    "rho": (float, 1.0),
    "alpha": (float, 0.0),
    "tuning": (dict, {}),
}
_INIT_CHOICES = {"x0": ("zeros", "gauss"), "y0": ("zeros", "ones", "gauss")}
#: range checks run before any work: (section, key, least value), and the
#: values that must be finite and positive
_INT_FLOORS = (("graph", "n_nodes", 1), ("graph", "n_edges", 0), ("run", "rounds", 1),
               ("problem", "d", 1), ("problem", "m", 0), ("problem", "p", 0))
_POSITIVE_FLOATS = (("run", "tol_inner"), ("oracle", "tol"))


def _coerce(section, key, want, value):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, want):
        raise ConfigError(
            f"{section}.{key} must be {want.__name__}, got {type(value).__name__}"
        )
    return value


def _check_section(name, schema, raw):
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {', '.join(unknown)}")
    out = {}
    for key, (want, default) in schema.items():
        if key in raw:
            out[key] = _coerce(name, key, want, raw[key])
        elif default is None:
            raise ConfigError(f"missing required key {name}.{key}")
        else:
            out[key] = default
    return out


def normalize_config(raw) -> dict:
    """Validate a parsed config and fill in defaults; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of sections")
    unknown = sorted(set(raw) - set(_SCHEMA) - {"setting"})
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
    cfg = {name: _check_section(name, schema, raw.get(name, {}))
           for name, schema in _SCHEMA.items()}
    settings = raw.get("setting")
    if not isinstance(settings, list) or not settings:
        raise ConfigError("section 'setting' must be a non-empty list")
    cfg["setting"] = [
        _check_section(f"setting[{i}]", _SETTING_SCHEMA, entry)
        for i, entry in enumerate(settings)
    ]
    for i, entry in enumerate(cfg["setting"]):
        names = [v.name for v in Variant]
        if entry["variant"] not in names:
            raise ConfigError(
                f"setting[{i}].variant must be one of {', '.join(names)};"
                f" got {entry['variant']!r}"
            )
    for key, choices in _INIT_CHOICES.items():
        if cfg["run"][key] not in choices:
            raise ConfigError(
                f"run.{key} must be one of {', '.join(choices)}; got {cfg['run'][key]!r}"
            )
    for section, key, least in _INT_FLOORS:
        if (value := cfg[section][key]) < least:
            raise ConfigError(f"{section}.{key} must be >= {least}, got {value}")
    for section, key in _POSITIVE_FLOATS:
        if not 0.0 < (value := cfg[section][key]) < math.inf:
            raise ConfigError(f"{section}.{key} must be finite and positive, got {value}")
    return cfg


def load_config(path) -> tuple[dict, bytes]:
    """Read, parse, and normalize a YAML config; returns (config, raw bytes)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(blob)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return normalize_config(raw), blob


# ---------------------------------------------------------------------------
# Shared build steps


def _build_instance(cfg):
    g = random_connected_graph(
        cfg["graph"]["n_nodes"], cfg["graph"]["n_edges"], seed=cfg["graph"]["seed"]
    )
    pb = generate_example(
        cfg["graph"]["n_nodes"],
        cfg["problem"]["d"],
        cfg["problem"]["m"],
        cfg["problem"]["p"],
        seed=cfg["problem"]["seed"],
    )
    return g, pb


def _initial_points(cfg, pb):
    rng = np.random.default_rng(cfg["run"]["init_seed"])
    n, mp, dmax = pb.n_agents, pb.mp, pb.dmax
    x_kind, y_kind = cfg["run"]["x0"], cfg["run"]["y0"]
    x0 = np.zeros((n, dmax))
    if x_kind == "gauss":
        x0 = rng.standard_normal((n, dmax))
    if y_kind == "zeros":
        y0 = np.zeros((n, mp))
    elif y_kind == "ones":
        y0 = np.ones((n, mp))
    else:
        y0 = rng.standard_normal((n, mp))
        y0[:, : pb.m] = np.abs(y0[:, : pb.m])  # multipliers live in the cone
    return x0, y0


def _setting_from_entry(entry, g):
    return make_setting(Variant[entry["variant"]], g, rho=entry["rho"],
                        alpha=entry["alpha"], tuning=entry["tuning"] or None)


def _csv_name(entry) -> str:
    return f"{entry['variant']}__{entry['alpha']:g}.csv"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(cfg) -> int:
    failures = 0

    def report(label, fn):
        nonlocal failures
        try:
            fn()
        except DucaError as exc:
            failures += 1
            print(f"FAIL {label}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {label}")

    holder = {}
    report("graph connectivity and edge budget", lambda: holder.update(
        gp=_build_instance(cfg)))
    if "gp" not in holder:
        return EXIT_ASSUMPTION
    g, pb = holder["gp"]

    def slater():
        rep = slater_check(pb)
        if not rep.passed:
            raise AssumptionViolatedError(str(rep))

    report("constraint qualification (interior point)", slater)
    for entry in cfg["setting"]:
        label = f"setting {entry['variant']} rho={entry['rho']:g} alpha={entry['alpha']:g}"
        report(label, lambda e=entry: _setting_from_entry(e, g))
    return EXIT_OK if failures == 0 else EXIT_ASSUMPTION


def _solve_reference(cfg, pb):
    return centralized_solve(pb, tol=cfg["oracle"]["tol"])


def _certified_settings(cfg, g, pb, core, x0, y0):
    """Yield each configured (entry, setting, certificate), built in order."""
    for entry in cfg["setting"]:
        s = _setting_from_entry(entry, g)
        try:
            cert = make_certificate(core, pb, s, x0=x0, y0=y0)
        except InvariantBreachError as exc:
            # a reference that fails its own optimality checks is an oracle
            # problem, not a run-time invariant breach
            raise NotConvergedError(
                f"reference solution fails certificate checks: {exc}"
            ) from exc
        yield entry, s, cert


def cmd_run(cfg, raw_bytes: bytes, out_dir, strict: bool) -> int:
    names = [_csv_name(entry) for entry in cfg["setting"]]
    for i, name in enumerate(names):
        if name in names[:i]:  # refused before --out exists: nothing is overwritten
            raise ConfigError(f"setting[{names.index(name)}] and setting[{i}] both "
                              f"write {name}; a run needs distinct (variant, alpha)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g, pb = _build_instance(cfg)
    core = _solve_reference(cfg, pb)
    x0, y0 = _initial_points(cfg, pb)
    tol_inner = cfg["run"]["tol_inner"]
    rounds = cfg["run"]["rounds"]

    written = []
    solver_failures = {}
    for entry, s, cert in _certified_settings(cfg, g, pb, core, x0, y0):
        coll = MetricsCollector(pb, s, cert, tol_inner=tol_inner, check=strict)
        st = run(pb, s, rounds, x0=x0, y0=y0, hook=coll, tol_inner=tol_inner,
                 check=strict)
        name = _csv_name(entry)
        (out / name).write_text(rows_to_csv(coll.rows))
        written.append(name)
        solver_failures[name] = st.solver_failures
        print(f"wrote {out / name} ({rounds} rounds)")

    cert_name = "certificate.txt"
    (out / cert_name).write_text(dump_certificate(pb, core, cfg["oracle"]["tol"]))
    manifest = {
        "config_sha256": hashlib.sha256(raw_bytes).hexdigest(),
        "seeds": {
            "graph": cfg["graph"]["seed"],
            "problem": cfg["problem"]["seed"],
            "init": cfg["run"]["init_seed"],
        },
        "rounds": rounds,
        "tol_inner": tol_inner,
        "strict": strict,
        "outputs": sorted(written + [cert_name]),
        # uncertified local solves per CSV; a strict run raises on the first
        "solver_failures": solver_failures,
        "versions": {
            "duca": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out / cert_name}")
    print(f"wrote {out / 'manifest.json'}")
    return EXIT_OK


def cmd_bounds(cfg, k_list) -> int:
    g, pb = _build_instance(cfg)
    core = _solve_reference(cfg, pb)
    x0, y0 = _initial_points(cfg, pb)
    header = f"{'variant':<12} {'alpha':>6} {'k':>6} {'fe_bound':>14} {'oe_lower':>14} {'oe_upper':>14}"
    print(header)
    for entry, _s, cert in _certified_settings(cfg, g, pb, core, x0, y0):
        for k in k_list:
            b = cert.bounds(k)
            print(
                f"{entry['variant']:<12} {entry['alpha']:>6g} {k:>6d} "
                f"{b['fe_bound']:>14.6e} {b['oe_lower']:>14.6e} {b['oe_upper']:>14.6e}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _parse_k_list(text: str):
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--k expects comma-separated integers, got {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ConfigError("--k needs at least one round index >= 1")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duca",
        description="Dual-consensus experiment driver (run / validate / bounds).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override both the graph and problem seeds")

    p_run = sub.add_parser("run", help="execute the configured settings")
    common(p_run)
    p_run.add_argument("--out", default="runs", help="output directory")
    p_run.add_argument("--rounds", type=int, default=None, help="override run.rounds")
    p_run.add_argument("--tol-inner", type=float, default=None,
                       help="override run.tol_inner")
    p_run.add_argument("--strict", action="store_true",
                       help="enforce every invariant; breaches exit nonzero")

    p_val = sub.add_parser("validate", help="check assumptions without running")
    common(p_val)

    p_bnd = sub.add_parser("bounds", help="tabulate theorem bounds at given rounds")
    common(p_bnd)
    p_bnd.add_argument("--k", default="1,10,100,1000",
                       help="comma-separated round indices")
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["graph"]["seed"] = args.seed
        cfg["problem"]["seed"] = args.seed
    if getattr(args, "rounds", None) is not None:
        if args.rounds < 1:
            raise ConfigError("--rounds must be >= 1")
        cfg["run"]["rounds"] = args.rounds
    if getattr(args, "tol_inner", None) is not None:
        if not 0.0 < args.tol_inner < math.inf:
            raise ConfigError("--tol-inner must be finite and positive")
        cfg["run"]["tol_inner"] = args.tol_inner
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, raw_bytes = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            return cmd_run(cfg, raw_bytes, args.out, args.strict)
        if args.command == "validate":
            return cmd_validate(cfg)
        return cmd_bounds(cfg, _parse_k_list(args.k))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _ASSUMPTION_ERRORS as exc:
        print(f"assumption violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (InvariantBreachError, MailboxError) as exc:
        print(f"invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _ORACLE_ERRORS as exc:
        print(f"oracle failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    raise SystemExit(main())
