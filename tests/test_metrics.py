"""Tests for per-round diagnostics, bound evaluation, and CSV serialization."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duca.engine import NetworkState, eps_inner, ergodic_point, run
from duca.errors import (
    CertificateMissingError,
    InsufficientDataError,
    InvalidInitError,
    InvariantBreachError,
)
from duca.graphs import (
    ParamSetting,
    Variant,
    block_quadratic_norm,
    make_setting,
    random_connected_graph,
    spectral_quantities,
)
from duca.localsolver import dual_value_batch
from duca.metrics import (
    CSV_COLUMNS,
    MetricsCollector,
    MetricsRow,
    compute_row,
    csv_to_rows,
    loglog_slope,
    make_certificate,
    rows_to_csv,
)
from duca.oracle import centralized_solve
from duca.problem import (
    Problem,
    StackedPoint,
    coupled_violation_norm,
    eval_objective,
    generate_example,
    gtilde_rows,
)

# ---------------------------------------------------------------------------
# Shared fixtures (module-level cache keeps the reference solves to one each).


def asymmetric_pair():
    """f1 = x1, f2 = 2 x2 on [-1, 1], coupled by x1 + x2 = 0.

    The optimum is x* = (1, -1) with f* = -1 (substituting x1 = -x2 leaves
    f = x2, minimized at the ball edge), and the equality multiplier is
    nonzero, so the certificate quantities are all nontrivial.
    """
    return Problem.from_agent_data(
        P=[[[0.0]], [[0.0]]],
        Q=[[1.0], [2.0]],
        a=[[0.0], [0.0]],
        c=[1.0, 1.0],
        a_prime=[np.zeros((0, 1)), np.zeros((0, 1))],
        c_prime=[np.zeros(0), np.zeros(0)],
        B=[[[1.0]], [[1.0]]],
        c_eq=[[0.0], [0.0]],
        l1_weight=0.0,
    )


_CACHE: dict = {}


def small_bundle(alpha=0.0):
    """6-agent generated instance with setting, reference solution, certificate."""
    if "sol6" not in _CACHE:
        _CACHE["pb6"] = generate_example(6, 2, 2, 1, seed=3)
        _CACHE["g6"] = random_connected_graph(6, 9, seed=3)
        _CACHE["sol6"] = centralized_solve(_CACHE["pb6"], tol=1e-10)
    pb, sol = _CACHE["pb6"], _CACHE["sol6"]
    key = ("cert6", alpha)
    if key not in _CACHE:
        s = make_setting(Variant.DUCA_I, _CACHE["g6"], rho=1.0, alpha=alpha)
        y0 = np.ones((pb.n_agents, pb.mp))
        x0 = np.zeros((pb.n_agents, pb.dmax))
        _CACHE[key] = (s, make_certificate(sol, pb, s, x0=x0, y0=y0), x0, y0)
    s, cert, x0, y0 = _CACHE[key]
    return pb, s, sol, cert, x0, y0


def pair_bundle():
    if "pair" not in _CACHE:
        pb = asymmetric_pair()
        g = random_connected_graph(2, 1, seed=0)
        s = make_setting(Variant.DUCA_I, g, rho=1.0)
        sol = centralized_solve(pb, tol=1e-10)
        cert = make_certificate(sol, pb, s)
        _CACHE["pair"] = (pb, s, sol, cert)
    return _CACHE["pair"]


def state_at(pb, X_rows, Y_rows, V_rows, k=1):
    """Fabricate a post-round state holding a constant trajectory."""
    return NetworkState(
        k=k,
        X=X_rows.copy(),
        Y=Y_rows.copy(),
        V=V_rows.copy(),
        SIG=np.zeros_like(Y_rows),
        X0=np.zeros_like(X_rows),
        Y0=np.zeros_like(Y_rows),
        sum_X=k * X_rows,
        sum_Y=k * Y_rows,
        cum_gs=np.zeros(pb.mp),
        comm_total=12 * k,
        inner_iters_total=5 * k,
    )


# ---------------------------------------------------------------------------


class TestCSVSerialization:
    def test_schema_is_exactly_the_documented_column_order(self):
        assert CSV_COLUMNS == (
            "k",
            "objective_error",
            "ergodic_objective_error",
            "constraint_violation",
            "ergodic_feasibility",
            "consensus_error",
            "bound_fe_slack",
            "bound_oe_lower_slack",
            "bound_oe_upper_slack",
            "moreau_residual",
            "cumulative_residual",
            "lyapunov_residual",
            "comm_total",
            "inner_iters_total",
        )
        text = rows_to_csv([])
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def _row(self, k, fill):
        vals = {col: fill for col in CSV_COLUMNS[1:-2]}
        return MetricsRow(k=k, comm_total=480 * k, inner_iters_total=17 * k, **vals)

    def test_seventeen_digit_float_text(self):
        text = rows_to_csv([self._row(1, 0.1)])
        assert "0.10000000000000001" in text.splitlines()[1]

    @given(value=st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=120, deadline=None)
    def test_float_fields_roundtrip_bit_exact(self, value):
        parsed = csv_to_rows(rows_to_csv([self._row(2, value)]))
        assert len(parsed) == 1
        for col in CSV_COLUMNS[1:-2]:
            got = getattr(parsed[0], col)
            assert got == value or (math.isnan(got) and math.isnan(value))

    def test_nan_survives_roundtrip(self):
        row = self._row(1, 0.5)
        row.lyapunov_residual = math.nan
        parsed = csv_to_rows(rows_to_csv([row]))
        assert math.isnan(parsed[0].lyapunov_residual)
        assert parsed[0].objective_error == 0.5

    def test_integer_columns_parse_as_int(self):
        parsed = csv_to_rows(rows_to_csv([self._row(7, 1.25)]))
        for col in ("k", "comm_total", "inner_iters_total"):
            assert isinstance(getattr(parsed[0], col), int)
        assert parsed[0].k == 7
        assert parsed[0].comm_total == 480 * 7

    def test_unexpected_header_rejected(self):
        with pytest.raises(InsufficientDataError):
            csv_to_rows("k,objective_error\n1,0.5\n")

    def test_multirow_order_preserved(self):
        rows = [self._row(k, 1.0 / k) for k in range(1, 6)]
        parsed = csv_to_rows(rows_to_csv(rows))
        assert [r.k for r in parsed] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("breakage,named", [
        (lambda cells: cells + ["0"], "CSV line 3: 15 cells, expected 14"),
        (lambda cells: cells[:-1], "CSV line 3: 13 cells, expected 14"),
        (lambda cells: [*cells[:5], "fast", *cells[6:]], "CSV line 3: could not convert"),
        (lambda cells: [*cells[:-1], "1.5"], "CSV line 3: invalid literal for int()"),
    ], ids=["extra-cell", "short-row", "non-number", "non-integer"])
    def test_malformed_row_refused_naming_its_line(self, breakage, named):
        header, first, second = rows_to_csv([self._row(1, 0.5), self._row(2, 0.25)]).splitlines()
        text = "\n".join([header, first, ",".join(breakage(second.split(",")))]) + "\n"
        with pytest.raises(InsufficientDataError, match=re.escape(named)):
            csv_to_rows(text)

    def test_empty_text_rejected(self):
        with pytest.raises(InsufficientDataError, match="unexpected CSV header"):
            csv_to_rows("")


class TestLoglogSlope:
    def test_inverse_k_gives_slope_minus_one(self):
        series = [3.7 / k for k in range(1, 1001)]
        assert loglog_slope(series, 100, 1000) == pytest.approx(-1.0, abs=1e-6)

    def test_inverse_sqrt_k_gives_slope_minus_half(self):
        series = [2.0 / math.sqrt(k) for k in range(1, 501)]
        assert loglog_slope(series, 50, 500) == pytest.approx(-0.5, abs=1e-6)

    @given(c=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, c):
        series = [c / k for k in range(1, 301)]
        assert loglog_slope(series, 10, 300) == pytest.approx(-1.0, abs=1e-6)

    def test_nonpositive_values_are_skipped(self):
        series = [1.0 / k for k in range(1, 201)]
        series[49] = 0.0
        series[99] = -1.0
        assert loglog_slope(series, 20, 200) == pytest.approx(-1.0, abs=1e-3)

    def test_too_few_positive_points(self):
        series = [0.0] * 100
        series[49] = 1.0
        with pytest.raises(InsufficientDataError):
            loglog_slope(series, 10, 100)

    def test_bad_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            loglog_slope([1.0, 0.5], 0, 2)
        with pytest.raises(InsufficientDataError):
            loglog_slope([1.0, 0.5], 2, 2)


class TestNormsAgainstDenseKron:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_quadratic_matches_kron_form(self, n):
        rng = np.random.default_rng(n)
        g = random_connected_graph(n, min(n + 1, n * (n - 1) // 2), seed=n)
        s = make_setting(Variant.DUCA_I, g, rho=1.0)
        spec = spectral_quantities(s)
        mp = 3
        rows = rng.standard_normal((n, mp))
        flat = rows.reshape(-1)
        for mat in (s.P_A, s.P_Htilde, spec.pinv_PHtilde):
            dense = float(flat @ np.kron(mat, np.eye(mp)) @ flat)
            dense = max(dense, 0.0)
            assert block_quadratic_norm(mat, rows) == pytest.approx(
                math.sqrt(dense), abs=1e-12, rel=1e-12
            )


class TestSpectraOncePerSetting:
    @pytest.mark.parametrize("variant", [Variant.DUCA_I, Variant.ALT])
    def test_network_eigensolves_per_setting(self, variant, monkeypatch):
        # make_setting, make_certificate and run share one decomposition of
        # each matrix: P_A and H (= P_H = P_Htilde) in single mode; P_A,
        # P_H, P_Htilde and P_H - P_Htilde in double mode.
        pb, _, sol, _, x0, y0 = small_bundle()
        g = random_connected_graph(6, 9, seed=3)
        calls = []
        for name in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, name)

            def counted(a, *args, _orig=orig, **kwargs):
                if np.ndim(a) == 2:  # per-agent solvers decompose (N, d, d) stacks
                    calls.append(a.shape)
                return _orig(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        s = make_setting(variant, g, rho=1.0)
        cert = make_certificate(sol, pb, s, x0=x0, y0=y0)
        coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)
        run(pb, s, 3, x0=x0, y0=y0, hook=coll, tol_inner=1e-8)
        assert calls == [(6, 6)] * (2 if variant == Variant.DUCA_I else 4)


class TestPerRunConstants:
    @pytest.mark.parametrize("variant,alpha", [(Variant.DUCA_I, 0.1),
                                               (Variant.DIST_ADMM, 0.0)])
    def test_round_work_does_not_grow_with_rounds(self, variant, alpha, monkeypatch):
        # Eigen-solves, stacked-point conversions and P_A constructions are
        # per-run work: a checked run with the collector on does the same
        # number of each whether it lasts 5 rounds or 25.
        _, _, sol, _, x0, y0 = small_bundle()
        g = _CACHE["g6"]
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(StackedPoint, "rows", counted("rows", StackedPoint.rows))
        from_rows = StackedPoint.from_rows.__func__
        monkeypatch.setattr(StackedPoint, "from_rows",
                            classmethod(counted("from_rows", from_rows)))

        class CountedP_A:
            """Counts each evaluation of the wrapped P_A descriptor."""

            def __init__(self, inner):
                self.inner = inner

            def __get__(self, obj, owner=None):
                if obj is None:
                    return self
                counts["P_A"] = counts.get("P_A", 0) + 1
                return self.inner.__get__(obj, owner)

        monkeypatch.setattr(ParamSetting, "P_A", CountedP_A(ParamSetting.__dict__["P_A"]))

        def run_counted(rounds):
            counts.clear()
            pb = generate_example(6, 2, 2, 1, seed=3)
            s = make_setting(variant, g, rho=1.0, alpha=alpha)
            cert = make_certificate(sol, pb, s, x0=x0, y0=y0)
            coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)
            run(pb, s, rounds, x0=x0, y0=y0, hook=coll, tol_inner=1e-8)
            assert len(coll.rows) == rounds
            return dict(counts)

        short, long = run_counted(5), run_counted(25)
        assert short["P_A"] >= 1 and short["eigh"] >= 1
        assert long == short


class TestCertificate:
    def test_v_star_closed_form_and_block_sum(self):
        pb, s, sol, cert, _, _ = small_bundle()
        gt = gtilde_rows(pb, sol.x_star.rows(pb.dmax))
        assert np.allclose(cert.v_star, gt - gt.mean(axis=0), atol=1e-14)
        assert np.abs(cert.v_star.sum(axis=0)).max() <= 1e-12

    def test_v_star_in_range_of_consensus_form(self):
        pb, s, _, cert, _, _ = small_bundle()
        recon = s.P_Htilde @ (s.spectra.pinv_PHtilde @ cert.v_star)
        assert np.abs(recon - cert.v_star).max() <= 1e-8

    def test_complementarity_at_reference_solution(self):
        pb, _, sol, cert, _, _ = small_bundle()
        total_g = gtilde_rows(pb, sol.x_star.rows(pb.dmax)).sum(axis=0)[: pb.m]
        assert abs(float(np.dot(cert.y_star[: pb.m], total_g))) <= 1e-6

    def test_C1_formula(self):
        pb, s, _, cert, _, _ = small_bundle()
        expected = math.sqrt(pb.n_agents * s.spectra.lam1_PA) * float(
            np.linalg.norm(cert.y_star)
        )
        assert cert.C1 == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_inconsistent_multiplier_rejected(self):
        pb, s, sol, _, _, _ = small_bundle()
        bumped = sol.y_star.copy()
        bumped[0] += 1.0  # fake a strictly positive multiplier on a slack row
        bad = dataclasses.replace(sol, y_star=bumped)
        with pytest.raises(InvariantBreachError):
            make_certificate(bad, pb, s)


class TestTheoremBounds:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_doubling_k_halves_every_bound(self, alpha):
        pb, s, sol, cert, x0, y0 = small_bundle(alpha)
        at_k = cert.bounds(5)
        at_2k = cert.bounds(10)
        for key in ("fe_bound", "oe_lower", "oe_upper"):
            assert at_2k[key] == pytest.approx(at_k[key] / 2.0, rel=1e-12)
        # the lower constant carries a ||y*|| factor and vanishes here
        assert at_k["fe_bound"] > 0.0 and at_k["oe_upper"] > 0.0
        assert at_k["oe_lower"] >= 0.0

    def test_nondegenerate_multiplier_gives_positive_lower_bound(self):
        pb, s, sol, _ = pair_bundle()
        y0 = np.ones((pb.n_agents, pb.mp))
        zeros_x = np.zeros((pb.n_agents, pb.dmax))
        cert = make_certificate(sol, pb, s, x0=zeros_x, y0=y0)
        b = cert.bounds(2)
        assert b["oe_lower"] > 0.0
        at_2k = cert.bounds(4)
        assert at_2k["oe_lower"] == pytest.approx(b["oe_lower"] / 2.0, rel=1e-12)

    def test_nonincreasing_in_k(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        prev = cert.bounds(1)
        for k in range(2, 6):
            cur = cert.bounds(k)
            assert cur["fe_bound"] < prev["fe_bound"]
            assert cur["oe_upper"] < prev["oe_upper"]
            assert cur["oe_lower"] <= prev["oe_lower"]
            prev = cur

    def test_constants_match_certificate_fields(self):
        pb, s, sol, cert, x0, y0 = small_bundle(0.1)
        b = cert.bounds(5)
        y0_A = block_quadratic_norm(s.P_A, y0)
        coef = math.sqrt(pb.n_agents * s.spectra.lam1_PA) * (y0_A + cert.C1 + cert.C2)
        assert b["fe_bound"] == pytest.approx(coef / 5.0, rel=1e-12)
        assert b["oe_lower"] == pytest.approx(cert.R1_prime / 5.0, rel=1e-12)
        assert b["oe_upper"] == pytest.approx(cert.R2_prime / 5.0, rel=1e-12)

    def test_zero_start_upper_bound_specialization(self):
        # With y0 = 0 and x0 = 0 the upper constant collapses to the
        # disagreement term plus the proximal distance to the optimum.
        pb, _, sol, _, _, _ = small_bundle()
        g = _CACHE["g6"]
        s = make_setting(Variant.DUCA_I, g, rho=1.0, alpha=0.5)
        cert = make_certificate(sol, pb, s)
        b = cert.bounds(1)
        v_term = block_quadratic_norm(s.spectra.pinv_PHtilde, cert.v_star)
        x_term = float(np.sum(sol.x_star.rows(pb.dmax) ** 2))
        expected = v_term**2 / (2.0 * s.rho) + 0.5 * s.alpha * x_term
        assert b["oe_upper"] == pytest.approx(expected, rel=1e-12)
        assert cert.R2_prime == pytest.approx(expected, rel=1e-12)

    def test_bad_k_rejected(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        for k in (0, -3):
            with pytest.raises(InsufficientDataError):
                cert.bounds(k)

    def test_larger_consensus_form_shrinks_bounds(self):
        # Exchanging L/2 and 2M in place of L and M keeps P_H = L M and P_A
        # bit for bit (powers of two scale exactly) but quarters
        # P_Htilde = L L (still <= P_H), which quadruples the pseudo-inverse
        # weight: the larger form of the two gives strictly smaller bounds
        # wherever the disagreement term enters.
        pb, _, sol, _, x0, y0 = small_bundle()
        s = make_setting(Variant.DIST_ADMM, _CACHE["g6"], rho=1.0)
        cert = make_certificate(sol, pb, s, x0=x0, y0=y0)
        L, M = s.exchange["L"], s.exchange["M"]
        quartered = dataclasses.replace(s, exchange={"L": L / 2.0, "M": 2.0 * M})
        assert np.array_equal(quartered.P_H, s.P_H)
        assert np.array_equal(quartered.P_A, s.P_A)
        assert np.array_equal(quartered.P_Htilde, s.P_Htilde / 4.0)
        assert quartered.spectra.lam1_PA == s.spectra.lam1_PA
        assert quartered.spectra.eig_PHtilde[1] == pytest.approx(
            0.25 * s.spectra.eig_PHtilde[1], rel=1e-10
        )
        cert2 = make_certificate(sol, pb, quartered, x0=x0, y0=y0)
        before, after = cert.bounds(4), cert2.bounds(4)
        for key in ("fe_bound", "oe_upper"):
            assert after[key] > before[key] * (1.0 + 1e-9)
        assert after["oe_lower"] >= before["oe_lower"]


class TestLyapunov:
    def test_fixed_point_residual_vanishes(self):
        pb, s, sol, cert = pair_bundle()
        X = sol.x_star.rows(pb.dmax)
        Y = np.tile(sol.y_star, (pb.n_agents, 1))
        st_k = state_at(pb, X, Y, cert.v_star, k=3)
        st_next = state_at(pb, X, Y, cert.v_star, k=4)
        V_k = compute_row(st_k, pb, s, cert).lyapunov_value
        resid = compute_row(st_next, pb, s, cert, lyapunov_prev=V_k).lyapunov_residual
        assert abs(resid) <= 1e-9

    def test_descent_holds_across_run(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)
        run(pb, s, 120, y0=y0, hook=coll, tol_inner=1e-8)
        worst = max(r.lyapunov_residual for r in coll.rows)
        assert worst <= eps_inner(1e-8)

    def test_loose_inner_tolerance_inflates_residual(self):
        # Near the fixed point the descent inequality's natural slack is gone
        # and the residual is dominated by inner-solve error, so loosening the
        # tolerance must push it up by orders of magnitude.
        pb, s, sol, cert, x0, y0 = small_bundle()
        residuals = {}
        for tol in (1e-8, 1e-2):
            coll = MetricsCollector(pb, s, cert, tol_inner=tol, check=False)
            run(pb, s, 150, y0=y0, hook=coll, tol_inner=tol)
            residuals[tol] = max(r.lyapunov_residual for r in coll.rows)
        assert residuals[1e-8] <= eps_inner(1e-8)
        assert residuals[1e-2] >= 10.0 * max(residuals[1e-8], 1e-12)

    def test_prox_trajectory_stays_in_certified_radius(self):
        pb, s, sol, cert, x0, y0 = small_bundle(0.1)
        radii = []
        coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)

        def hook(st):
            coll(st)
            radii.append(block_quadratic_norm(s.P_A, st.Y))

        run(pb, s, 60, y0=y0, hook=hook, tol_inner=1e-8)
        assert max(radii) <= cert.C1 + cert.C2 + eps_inner(1e-8)

    def test_corrupted_reference_value_is_detected(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        bad = dataclasses.replace(cert, f_star=cert.f_star - 1.0)
        coll = MetricsCollector(pb, s, bad, tol_inner=1e-8, check=True)
        with pytest.raises(InvariantBreachError, match="lyapunov"):
            run(pb, s, 3, y0=y0, hook=coll, tol_inner=1e-8)


class TestComputeRow:
    def test_injected_optimum_zeroes_every_error(self):
        pb, s, sol, cert = pair_bundle()
        X = sol.x_star.rows(pb.dmax)
        Y = np.tile(sol.y_star, (pb.n_agents, 1))
        st = state_at(pb, X, Y, cert.v_star, k=1)
        row = compute_row(st, pb, s, cert)
        assert row.objective_error <= 1e-8
        assert abs(row.ergodic_objective_error) <= 1e-8
        assert row.constraint_violation <= 1e-8
        assert row.ergodic_feasibility <= 1e-8
        assert row.consensus_error <= 1e-8
        assert row.bound_fe_slack >= -1e-9
        assert row.bound_oe_lower_slack >= -1e-9
        assert row.bound_oe_upper_slack >= -1e-9
        assert math.isnan(row.lyapunov_residual)
        assert row.comm_total == 12 and row.inner_iters_total == 5

    def test_round_one_ergodic_fields_equal_instantaneous(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        coll = MetricsCollector(pb, s, cert, tol_inner=1e-8)
        st = run(pb, s, 1, y0=y0, hook=coll, tol_inner=1e-8)
        row = coll.rows[0]
        assert row.k == 1
        assert abs(row.ergodic_objective_error) == pytest.approx(
            row.objective_error, abs=1e-14
        )
        assert row.ergodic_feasibility == pytest.approx(
            coupled_violation_norm(pb, st.X), abs=1e-14
        )
        assert eval_objective(pb, st.sum_X / 1) == eval_objective(pb, st.X)

    def test_short_run_slacks_and_comm_monotonicity(self):
        pb, s, sol, cert, x0, y0 = small_bundle()
        coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)
        run(pb, s, 80, y0=y0, hook=coll, tol_inner=1e-8)
        eps = eps_inner(1e-8)
        assert min(r.bound_fe_slack for r in coll.rows) >= -eps
        assert min(r.bound_oe_lower_slack for r in coll.rows) >= -eps
        assert min(r.bound_oe_upper_slack for r in coll.rows) >= -eps
        comms = [r.comm_total for r in coll.rows]
        assert all(b > a for a, b in zip(comms, comms[1:]))

    def test_start_other_than_certificate_rejected(self):
        # The row reads the certificate's bound coefficients, which hold only
        # for the start the certificate was built for.
        pb, s, sol, cert = pair_bundle()
        X = sol.x_star.rows(pb.dmax)
        Y = np.tile(sol.y_star, (pb.n_agents, 1))
        for field in ("X0", "Y0"):
            st = state_at(pb, X, Y, cert.v_star, k=1)
            getattr(st, field)[0, 0] = 0.5
            with pytest.raises(InvalidInitError):
                compute_row(st, pb, s, cert)

    def test_missing_certificate_rejected(self):
        pb, s, sol, cert = pair_bundle()
        X = sol.x_star.rows(pb.dmax)
        Y = np.tile(sol.y_star, (pb.n_agents, 1))
        st = state_at(pb, X, Y, cert.v_star, k=1)
        with pytest.raises(CertificateMissingError):
            compute_row(st, pb, s, None)


def dual_sum_at_ergodic_point(st, pb):
    """Sum of local dual functions at the consensus estimate of ybar."""
    _, ybar = ergodic_point(st, pb)
    vals, _, _, done = dual_value_batch(pb, ybar, tol=1e-10)
    assert done.all()
    return float(vals.sum())


class TestDualValue:
    def test_at_dual_optimum_recovers_f_star(self):
        pb, s, sol, cert = pair_bundle()
        Y = np.tile(sol.y_star, (pb.n_agents, 1))
        st = state_at(pb, np.zeros((2, 1)), Y, cert.v_star, k=4)
        assert dual_sum_at_ergodic_point(st, pb) == pytest.approx(sol.f_star, abs=1e-6)

    def test_at_zero_recovers_sum_of_local_minima(self):
        # q(0) decouples into the ball-constrained minima: -1 and -2.
        pb, s, sol, cert = pair_bundle()
        st = state_at(pb, np.zeros((2, 1)), np.zeros((2, 1)), cert.v_star, k=2)
        assert dual_sum_at_ergodic_point(st, pb) == pytest.approx(-3.0, abs=1e-6)

    def test_concave_along_segments(self):
        pb, _, _, _, _, _ = small_bundle()
        rng = np.random.default_rng(11)
        for _ in range(3):
            y1 = rng.standard_normal(pb.mp)
            y2 = rng.standard_normal(pb.mp)
            y1[: pb.m] = np.abs(y1[: pb.m])
            y2[: pb.m] = np.abs(y2[: pb.m])
            q1, _, _, ok1 = dual_value_batch(pb, y1, tol=1e-9)
            q2, _, _, ok2 = dual_value_batch(pb, y2, tol=1e-9)
            assert ok1.all() and ok2.all()
            for t in (0.25, 0.5, 0.75):
                qm, _, _, okm = dual_value_batch(pb, t * y1 + (1 - t) * y2, tol=1e-9)
                assert okm.all()
                mix = t * float(q1.sum()) + (1 - t) * float(q2.sum())
                assert float(qm.sum()) >= mix - 1e-6
