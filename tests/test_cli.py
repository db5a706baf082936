"""Tests for the experiment driver: config handling, artifacts, exit codes."""

import copy
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from duca.cli import (
    EXIT_ASSUMPTION,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_ORACLE,
    load_config,
    main,
    normalize_config,
)
from duca.errors import ConfigError, InvariantBreachError, NotConvergedError
from duca.graphs import Variant, make_setting, random_connected_graph
from duca.localsolver import solve_local_batch
from duca.metrics import CSV_COLUMNS, csv_to_rows, make_certificate
from duca.oracle import centralized_solve, load_certificate
from duca.problem import generate_example

from reference import LoopMailbox


def base_config() -> dict:
    return {
        "graph": {"n_nodes": 6, "n_edges": 9, "seed": 3},
        "problem": {"d": 2, "m": 2, "p": 1, "seed": 3},
        "setting": [{"variant": "DUCA_I"}],
        "run": {"rounds": 8},
        "oracle": {"tol": 1.0e-9},
    }


def write_config(tmp_path, cfg=None, name="cfg.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg if cfg is not None else base_config()))
    return str(path)


class TestConfigParsing:
    def test_normalize_fills_defaults(self):
        cfg = normalize_config(base_config())
        assert cfg["run"]["tol_inner"] == 1e-8
        assert cfg["run"]["x0"] == "zeros" and cfg["run"]["y0"] == "ones"
        assert cfg["setting"][0]["rho"] == 1.0
        assert cfg["setting"][0]["alpha"] == 0.0
        assert cfg["setting"][0]["tuning"] == {}

    def test_normalize_is_idempotent(self):
        cfg = normalize_config(base_config())
        assert normalize_config(copy.deepcopy(cfg)) == cfg

    def test_unknown_section_rejected(self):
        raw = base_config()
        raw["plotting"] = {"style": "dark"}
        with pytest.raises(ConfigError, match="plotting"):
            normalize_config(raw)

    def test_unknown_key_rejected(self):
        raw = base_config()
        raw["graph"]["n_nodesx"] = 6
        with pytest.raises(ConfigError, match="n_nodesx"):
            normalize_config(raw)

    def test_missing_required_key_rejected(self):
        raw = base_config()
        del raw["run"]["rounds"]
        with pytest.raises(ConfigError, match="run.rounds"):
            normalize_config(raw)

    def test_empty_setting_list_rejected(self):
        raw = base_config()
        raw["setting"] = []
        with pytest.raises(ConfigError, match="setting"):
            normalize_config(raw)

    def test_bad_variant_name_rejected(self):
        raw = base_config()
        raw["setting"][0]["variant"] = "DUCA_IX"
        with pytest.raises(ConfigError, match="DUCA_IX"):
            normalize_config(raw)

    def test_bad_init_choice_rejected(self):
        raw = base_config()
        raw["run"]["y0"] = "twos"
        with pytest.raises(ConfigError, match="twos"):
            normalize_config(raw)

    def test_type_errors_rejected(self):
        raw = base_config()
        raw["graph"]["n_nodes"] = 6.5
        with pytest.raises(ConfigError, match="n_nodes"):
            normalize_config(raw)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_load_config_bad_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("graph: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)


class TestExitCodes:
    def test_validate_passes(self, tmp_path, capsys):
        rc = main(["validate", "--config", write_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_config_error_exit(self, tmp_path, capsys):
        raw = base_config()
        raw["graph"]["n_nodesx"] = 1
        rc = main(["validate", "--config", write_config(tmp_path, raw)])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_broken_setting_exits_assumption(self, tmp_path, capsys):
        # c < 2 makes the step matrix lose positive semidefiniteness, which
        # strict runs must refuse before executing a single round.
        raw = base_config()
        raw["setting"] = [{"variant": "DUCA_I", "tuning": {"c": 0.1}}]
        rc = main(["run", "--config", write_config(tmp_path, raw),
                   "--out", str(tmp_path / "o"), "--strict"])
        assert rc == EXIT_ASSUMPTION
        assert "assumption violated" in capsys.readouterr().err

    def test_missing_tuning_exits_assumption(self, tmp_path):
        raw = base_config()
        raw["setting"] = [{"variant": "PGC"}]
        rc = main(["run", "--config", write_config(tmp_path, raw),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_ASSUMPTION

    def test_validate_reports_broken_setting(self, tmp_path, capsys):
        raw = base_config()
        raw["setting"].append({"variant": "DUCA_I", "tuning": {"c": 0.1}})
        rc = main(["validate", "--config", write_config(tmp_path, raw)])
        out = capsys.readouterr().out
        assert rc == EXIT_ASSUMPTION
        assert "FAIL" in out and "PASS setting DUCA_I rho=1 alpha=0\n" in out

    def test_settings_sharing_a_csv_name_refused_before_writing(self, tmp_path, capsys):
        # (variant, alpha) names the CSV, so these two would overwrite one file
        raw = base_config()
        raw["setting"] = [{"variant": "DUCA_I", "rho": 1.0},
                          {"variant": "DUCA_I", "rho": 2.0}]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o"
        rc = main(["run", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "setting[0] and setting[1]" in err and "DUCA_I__0.csv" in err
        assert not out.exists()
        assert main(["validate", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("section,key,value", [
        ("graph", "n_nodes", 0), ("graph", "n_edges", -1),
        ("run", "rounds", 0), ("problem", "d", 0), ("problem", "m", -1),
        ("problem", "p", -1), ("run", "tol_inner", float("nan")),
        ("run", "tol_inner", 0.0), ("run", "tol_inner", float("inf")),
        ("oracle", "tol", float("nan")), ("oracle", "tol", -1e-9),
    ])
    def test_out_of_range_value_refused_before_any_work(self, tmp_path, capsys,
                                                        section, key, value):
        raw = base_config()
        raw[section][key] = value
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count(f"config error: {section}.{key} must be") == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--rounds", "0"), ("--tol-inner", "0"),
                                            ("--tol-inner", "nan"), ("--tol-inner", "inf")])
    def test_out_of_range_override_refused_before_any_work(self, tmp_path, capsys,
                                                           flag, value):
        out = tmp_path / "o"
        rc = main(["run", "--config", write_config(tmp_path), "--out", str(out), flag, value])
        assert rc == EXIT_CONFIG
        # the overridden config goes through the same range checks as the file
        key = flag[2:].replace("-", "_")
        assert f"config error: run.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_breach_exits_4(self, tmp_path, monkeypatch):
        def breach(*args, **kwargs):
            raise InvariantBreachError("round 1: synthetic breach")

        monkeypatch.setattr("duca.cli.run", breach)
        rc = main(["run", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "o"), "--strict"])
        assert rc == EXIT_INVARIANT

    def test_oracle_failure_exits_5(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NotConvergedError("reference solve stalled")

        monkeypatch.setattr("duca.cli.centralized_solve", fail)
        rc = main(["run", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_ORACLE

    @pytest.mark.parametrize("command", [["run", "--out", "o"], ["bounds"]],
                             ids=["run", "bounds"])
    def test_bad_certificate_is_an_oracle_failure(self, tmp_path, monkeypatch, capsys,
                                                  command):
        # a reference failing the certificate's optimality checks exits 5 from
        # both subcommands, not 4 (reserved for strict runs)
        def breach(*args, **kwargs):
            raise InvariantBreachError("reference stationarity 1e-3")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("duca.cli.make_certificate", breach)
        rc = main([command[0], "--config", write_config(tmp_path), *command[1:]])
        assert rc == EXIT_ORACLE
        assert "reference solution fails certificate checks" in capsys.readouterr().err

    def test_bad_k_list_exits_config(self, tmp_path):
        rc = main(["bounds", "--config", write_config(tmp_path), "--k", "1,zap"])
        assert rc == EXIT_CONFIG


class TestRunArtifacts:
    def test_files_written_with_naming_scheme(self, tmp_path, capsys):
        raw = base_config()
        raw["setting"] = [
            {"variant": "DUCA_I"},
            {"variant": "DUCA_I", "alpha": 0.1},
            {"variant": "ALT"},
        ]
        out = tmp_path / "runs"
        rc = main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)])
        assert rc == EXIT_OK
        names = sorted(f.name for f in out.iterdir())
        assert names == [
            "ALT__0.csv",
            "DUCA_I__0.1.csv",
            "DUCA_I__0.csv",
            "certificate.txt",
            "manifest.json",
        ]

    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["run", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "DUCA_I__0.csv").read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        rows = csv_to_rows(text)
        assert [r.k for r in rows] == list(range(1, 9))

    def test_certificate_file_reloads(self, tmp_path):
        out = tmp_path / "runs"
        main(["run", "--config", write_config(tmp_path), "--out", str(out)])
        pb, core, tol = load_certificate((out / "certificate.txt").read_text())
        assert pb.n_agents == 6 and tol == 1e-9
        ref = centralized_solve(generate_example(6, 2, 2, 1, seed=3), tol=1e-9)
        assert core.f_star == pytest.approx(ref.f_star, abs=1e-9)

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "runs"
        main(["run", "--config", write_config(tmp_path), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"graph": 3, "problem": 3, "init": 0}
        assert manifest["rounds"] == 8
        assert manifest["outputs"] == ["DUCA_I__0.csv", "certificate.txt"]
        assert set(manifest["versions"]) == {"duca", "numpy", "python"}
        assert len(manifest["config_sha256"]) == 64
        assert manifest["solver_failures"] == {"DUCA_I__0.csv": 0}

    def test_uncertified_solves_recorded_when_not_strict(self, tmp_path, monkeypatch):
        # one inner iteration per solve leaves local solves uncertified
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1))
        out = tmp_path / "runs"
        rc = main(["run", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_failures"]["DUCA_I__0.csv"] > 0

    def test_uncertified_solve_fails_strict_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1))
        rc = main(["run", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "o"), "--strict"])
        assert rc == EXIT_INVARIANT

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--strict"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--strict"])
        for name in ("DUCA_I__0.csv", "certificate.txt", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_change_changes_manifest_hash(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.yaml")
        with open(cfg_a, "a") as fh:
            fh.write("# trailing comment\n")
        cfg_b = write_config(tmp_path, name="b.yaml")
        main(["run", "--config", cfg_a, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg_b, "--out", str(tmp_path / "b")])
        ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_sha256"]
        hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_sha256"]
        assert ha != hb

    def test_rounds_seed_and_tol_overrides(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["run", "--config", write_config(tmp_path), "--out", str(out),
                   "--rounds", "3", "--seed", "11", "--tol-inner", "1e-6"])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rounds"] == 3
        assert manifest["seeds"]["graph"] == 11 and manifest["seeds"]["problem"] == 11
        assert manifest["tol_inner"] == 1e-6
        rows = csv_to_rows((out / "DUCA_I__0.csv").read_text())
        assert len(rows) == 3

    def test_gauss_initialization_runs(self, tmp_path):
        raw = base_config()
        raw["run"].update({"x0": "gauss", "y0": "gauss", "init_seed": 5, "rounds": 4})
        rc = main(["run", "--config", write_config(tmp_path, raw),
                   "--out", str(tmp_path / "o"), "--strict"])
        assert rc == EXIT_OK

    def test_shipped_local_solver_calls_pinned(self, tmp_path, monkeypatch):
        # `duca run --strict` on the shipped config at 100 rounds, the
        # benchmark's unit: 800 local solves.  Pinned are the calls of the
        # local solver's backtracked prox step and of its prox, counts that
        # machine noise cannot move.  With FISTA momentum, and with the
        # Newton chain held back at x = 0, they were 90 and 161.
        import duca.localsolver as ls

        calls = {"descent": 0, "prox": 0}

        def counted(name, f):
            def g(*args, **kw):
                calls[name] += 1
                return f(*args, **kw)
            return g

        monkeypatch.setattr(ls, "_descent_step", counted("descent", ls._descent_step))
        monkeypatch.setattr(ls, "_prox_l1_ball", counted("prox", ls._prox_l1_ball))
        config = Path(__file__).resolve().parent.parent / "demos" / "configs" / "experiment.yaml"
        rc = main(["run", "--config", str(config), "--rounds", "100", "--strict",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert calls == {"descent": 25, "prox": 32}


    def test_shipped_run_keeps_the_reference_bits(self, tmp_path, monkeypatch):
        # `duca run --strict` on the shipped config, 30 rounds: the narrow
        # row sums (column adds) and the neighbor table (one gather per
        # exchange) give the bits of numpy's own sums and of the per-agent
        # loop, so every file is byte-identical to a run made with those
        import duca.engine
        import duca.localsolver
        import duca.metrics
        import duca.problem
        from duca.graphs import ParamSetting

        config = Path(__file__).resolve().parent.parent / "demos" / "configs" / "experiment.yaml"

        def shipped(out):
            rc = main(["run", "--config", str(config), "--rounds", "30", "--strict",
                       "--out", str(out)])
            assert rc == EXIT_OK
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        fast = shipped(tmp_path / "fast")
        for module in (duca.problem, duca.localsolver, duca.engine, duca.metrics):
            monkeypatch.setattr(module, "row_sum", lambda A: A.sum(axis=-1))
        monkeypatch.setattr(ParamSetting, "mailbox", property(LoopMailbox))
        reference = shipped(tmp_path / "reference")
        assert len(fast) == 10 and sum(name.endswith(".csv") for name in fast) == 8
        assert fast == reference


class TestBoundsCommand:
    def _table(self, capsys, tmp_path, raw=None, k="1,2,10"):
        rc = main(["bounds", "--config", write_config(tmp_path, raw), "--k", k])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        table = {}
        for line in lines:
            cells = line.split()
            table[(cells[0], float(cells[1]), int(cells[2]))] = tuple(
                float(v) for v in cells[3:]
            )
        return table

    def test_doubling_k_halves_rows(self, tmp_path, capsys):
        table = self._table(capsys, tmp_path, k="1,2")
        one = table[("DUCA_I", 0.0, 1)]
        two = table[("DUCA_I", 0.0, 2)]
        # the table prints six significant digits, so compare at that scale
        for a, b in zip(one, two):
            assert b == pytest.approx(a / 2.0, rel=1e-5, abs=1e-12)

    def test_matches_library_bound_evaluation(self, tmp_path, capsys):
        table = self._table(capsys, tmp_path, k="1,10")
        g = random_connected_graph(6, 9, seed=3)
        pb = generate_example(6, 2, 2, 1, seed=3)
        core = centralized_solve(pb, tol=1e-9)
        s = make_setting(Variant.DUCA_I, g, rho=1.0)
        y0 = np.ones((6, pb.mp))
        x0 = np.zeros((6, pb.dmax))
        cert = make_certificate(core, pb, s, x0=x0, y0=y0)
        for k in (1, 10):
            b = cert.bounds(k)
            got = table[("DUCA_I", 0.0, k)]
            assert got[0] == pytest.approx(b["fe_bound"], rel=1e-5)
            assert got[1] == pytest.approx(b["oe_lower"], rel=1e-5, abs=1e-12)
            assert got[2] == pytest.approx(b["oe_upper"], rel=1e-5)


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "duca.cli", "validate", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
