"""Tests for traces, dominance analysis, volume integrals, and curve tables."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig import analysis, bloch, infogeo, povm
from qig.analysis import (
    CurveTable,
    NonConvergenceError,
    QuadratureSpec,
    curve_sample,
    diagonal_colatitude,
    dominance_boundary_radius,
    dominance_check,
    dominates,
    gm_trace,
    limit_trace,
    min_dominating_scalar,
    modified_trace_reference,
    scaled_curve_intersection,
    scan_dominance,
    trace_limit_reference,
    volume_integral,
    write_curves_csv,
)
from qig.bloch import BlochCartesian, BlochSpherical, PureStateError


KINDS = ("helstrom", "yuen_lax", "quasi_bures", "fitted_n4", "fitted_n6")


def interior_points(n=30, seed=9):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-1, 1, 3)
        if 0.05 < np.linalg.norm(v) < 0.95 and np.min(np.abs(v)) > 0.02:
            pts.append(v)
    return pts


class TestGmTrace:
    def test_two_copies_give_three_everywhere(self):
        for v in interior_points(10):
            assert gm_trace("helstrom", 2, BlochCartesian(*v)) == pytest.approx(3.0)

    def test_matches_reference_polynomials(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            for n in (3, 4, 5, 6):
                assert gm_trace("helstrom", n, c) == pytest.approx(
                    povm.gm_trace_reference(n, c.r), rel=1e-10)

    def test_yuen_lax_two_copies(self):
        c = bloch.to_cartesian(BlochSpherical(0.5, 1.3, 0.4))
        assert gm_trace("yuen-lax", 2, c) == pytest.approx(3 - 2 * 0.25, rel=1e-12)

    def test_coordinate_invariance_of_helstrom_trace(self):
        # Cartesian closed-form path vs explicit spherical-chart evaluation
        for v in interior_points(10):
            c = BlochCartesian(*v)
            s = bloch.to_spherical(c)
            for n in (3, 5):
                g = infogeo.monotone_metric("helstrom", s).entries
                f = bloch.congruence_to_spherical(povm.fisher_closed_form(n, c), s).entries
                spherical = np.sum(np.diag(f) / np.diag(g))
                assert gm_trace("helstrom", n, c) == pytest.approx(spherical, rel=1e-9)

    def test_endpoints_refused(self):
        with pytest.raises(PureStateError):
            gm_trace("helstrom", 2, BlochCartesian(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            gm_trace("helstrom", 2, BlochCartesian(0.0, 0.0, 0.0))

    def test_exceeds_separable_bound_n(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            for n in (2, 3, 4, 5, 6):
                assert gm_trace("helstrom", n, c) > n

    @given(st.floats(0.05, 0.95), st.floats(0.05, math.pi - 0.05),
           st.floats(0.0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_chart_free_trace_equals_congruence_reference(self, r, theta, phi):
        # sum of diag(J^T F J) / diag(G) in the x-polar chart, off its seams
        s = BlochSpherical(r, theta, phi)
        c = bloch.to_cartesian(s)
        for kind in KINDS:
            g = np.diag(infogeo.monotone_metric(kind, s).entries)
            for n in (2, 3, 4, 5, 6):
                f = bloch.congruence_to_spherical(povm.fisher_closed_form(n, c), s).entries
                assert gm_trace(kind, n, c) == pytest.approx(np.sum(np.diag(f) / g), rel=1e-12)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_even_n_trace_on_polar_axis_matches_off_axis(self, r):
        axis = BlochCartesian(r, 0.0, 0.0)
        off = bloch.to_cartesian(BlochSpherical(r, 1.1, 0.7))
        for kind in KINDS:
            for n in (2, 4, 6):
                assert gm_trace(kind, n, axis) == pytest.approx(gm_trace(kind, n, off), rel=1e-12)

    @given(st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.0, math.pi),
                              st.floats(0.0, 6.28)), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_batch_kernel_equals_scalar_wrapper(self, sph):
        cs = [bloch.to_cartesian(BlochSpherical(*t)) for t in sph]
        xyz = np.array([c.as_array() for c in cs])
        # numpy's scalar and array power loops may round differently in the last place
        for kind in KINDS:
            for n in (2, 3, 4, 5, 6):
                got = analysis._gm_trace_batch(kind, n, xyz)
                want = [gm_trace(kind, n, c) for c in cs]
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestModifiedTraces:
    def test_closed_form_values(self):
        assert modified_trace_reference("yuen_lax", 4, 0.0) == pytest.approx(87 / 12)
        assert modified_trace_reference("yuen_lax", 6, 1.0) == pytest.approx(5.0)
        assert modified_trace_reference("yuen_lax", 5, 0.0, theta=0.9) == pytest.approx(9.5)

    def test_theta_required_for_five_copies(self):
        with pytest.raises(ValueError):
            modified_trace_reference("yuen_lax", 5, 0.5)

    def test_matches_computed_traces(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            theta_diag = diagonal_colatitude(c)
            for n in (2, 4, 5, 6):
                got = gm_trace("yuen_lax", n, c)
                want = modified_trace_reference("yuen_lax", n, c.r, theta=theta_diag)
                assert got == pytest.approx(want, rel=1e-10)

    def test_array_input_equals_float_input(self):
        grid = np.linspace(0.0, 1.0, 51)
        for n in (2, 4, 5, 6):
            floats = [modified_trace_reference("yuen_lax", n, r, theta=0.9) for r in grid]
            assert all(type(t) is float for t in floats)
            np.testing.assert_allclose(modified_trace_reference("yuen_lax", n, grid, theta=0.9),
                                       floats, rtol=1e-14, atol=0.0)

    def test_only_yuen_lax_supported(self):
        with pytest.raises(ValueError):
            modified_trace_reference("helstrom", 4, 0.5)


class TestLimitTrace:
    @pytest.mark.parametrize("metric,n,endpoint,target", [
        ("helstrom", 6, "pure", 11.0),
        ("helstrom", 3, "pure", 5.0),
        ("quasi_bures", 2, "pure", (4 + math.e) / math.e),
        ("yuen_lax", 2, "mixed", 3.0),
        ("yuen_lax", 4, "pure", 3.0),
        ("helstrom", 5, "mixed", 9.5),
    ])
    def test_endpoint_limits(self, metric, n, endpoint, target):
        assert limit_trace(metric, n, endpoint) == pytest.approx(target, abs=1e-5)

    def test_reference_limits_formula(self):
        assert trace_limit_reference("helstrom", 4, "pure") == pytest.approx(7.0)
        assert trace_limit_reference("quasi_bures", 6, "pure") == pytest.approx(5 + 12 / math.e)
        assert trace_limit_reference("yuen_lax", 6, "pure") == pytest.approx(5.0)
        assert trace_limit_reference("quasi_bures", 4, "mixed") == pytest.approx(7.25)

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            limit_trace("helstrom", 2, "middle")


class TestDominance:
    def test_four_copy_gap_eigenvalues(self):
        for v in interior_points(10):
            c = BlochCartesian(*v)
            r2 = c.r2
            h = infogeo.helstrom_cartesian(c)
            four_h = bloch.InfoMatrix(4.0 * h.entries, "cartesian")
            f4 = povm.fisher_closed_form(4, c)
            diff = four_h.entries - f4.entries
            eigs = np.sort(np.linalg.eigvalsh(diff))
            expected = np.sort([(19 + 5 * r2) / 12, (19 + 5 * r2) / 12,
                                7 / 12 + 1 / (1 - r2)])
            assert np.allclose(eigs, expected, atol=1e-10)
            assert dominance_check(four_h, f4) == pytest.approx(eigs[0], abs=1e-12)

    def test_equal_matrices(self):
        m = infogeo.helstrom_cartesian(BlochCartesian(0.2, 0.1, 0.3))
        assert dominance_check(m, m) == pytest.approx(0.0, abs=1e-14)
        assert dominates(m, m)

    def test_scalar_multiples_at_origin(self):
        c = BlochCartesian(0, 0, 0)
        two_h = bloch.InfoMatrix(2 * infogeo.helstrom_cartesian(c).entries, "cartesian")
        four_h = bloch.InfoMatrix(4 * infogeo.helstrom_cartesian(c).entries, "cartesian")
        assert dominance_check(two_h, four_h) == pytest.approx(-2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominance_check(infogeo.pure_helstrom_m2(1.0),
                            infogeo.helstrom_cartesian(BlochCartesian(0, 0, 0)))

    def test_scan_report_structure(self):
        report = scan_dominance(6, 5.0, (0.0, 0.999))
        assert report.n_violations == 0 and report.violating_points == []
        assert report.min_eigenvalue_found >= -analysis.PSD_TOL
        report_bad = scan_dominance(6, 4.99, (0.0, 0.999))
        assert report_bad.n_violations > 0
        assert report_bad.min_eigenvalue_found < -analysis.PSD_TOL
        assert all(p.r > 0.99 for p in report_bad.violating_points)
        payload = report_bad.to_json()
        assert set(payload) >= {"scalar_bound", "min_eigenvalue", "violations"}

    def test_min_dominating_scalar_n6(self):
        c = min_dominating_scalar(6, (0.0, 0.999))
        assert 4.99 < c <= 5.0

    def test_min_dominating_scalar_n4_n3(self):
        c4 = min_dominating_scalar(4, (0.0, 0.999))
        assert 2.99 < c4 <= 3.0 + 2e-4
        c3 = min_dominating_scalar(3, (0.0, 0.999))
        assert 1.99 < c3 <= 2.0 + 2e-4

    def test_region_monotonicity(self):
        inner = min_dominating_scalar(6, (0.0, 0.9))
        outer = min_dominating_scalar(6, (0.0, 0.999))
        assert outer >= inner

    def test_region_touching_boundary_rejected(self):
        with pytest.raises(ValueError):
            min_dominating_scalar(6, (0.0, 1.0))

    def test_near_origin_diagnostic_reports_ratios(self):
        for n in (3, 4, 5, 6):
            ratios = analysis.near_origin_diagnostic(n)
            assert ratios.shape == (3,)
            assert np.all(ratios > 0.999)  # conjecture: approached from above


class TestBoundaryRadius:
    def test_value(self):
        assert dominance_boundary_radius() == pytest.approx(0.992348, abs=1e-4)

    def test_is_a_root(self):
        r = dominance_boundary_radius()
        assert 47 * r ** 4 - 172 * r ** 2 + 123.8 == pytest.approx(0.0, abs=1e-9)

    def test_dominance_fails_just_above_root(self):
        r = dominance_boundary_radius() + 1e-3
        c = bloch.to_cartesian(BlochSpherical(r, 1.1, 0.7))
        h = bloch.InfoMatrix(4.99 * infogeo.helstrom_cartesian(c).entries, "cartesian")
        assert dominance_check(h, povm.fisher_closed_form(6, c)) < 0


class TestVolumeIntegrals:
    def test_two_copies_give_pi_squared(self):
        assert volume_integral(2) == pytest.approx(math.pi ** 2, rel=1e-6)

    @pytest.mark.parametrize("n,target", [(3, 21.0235), (4, 35.0281),
                                          (5, 51.0763), (6, 69.1253)])
    def test_tabulated_values(self, n, target):
        assert volume_integral(n) == pytest.approx(target, rel=5e-4)

    def test_order_below_default_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=10)

    def test_convergence_check(self):
        v1 = volume_integral(4, QuadratureSpec(order=48))
        v2 = volume_integral(4, QuadratureSpec(order=64))
        assert v1 == pytest.approx(v2, rel=1e-6)
        with pytest.raises(NonConvergenceError):
            volume_integral(3, QuadratureSpec(order=48, rtol=1e-16))

    def test_seven_copies_unavailable(self):
        with pytest.raises(povm.UnsupportedNError):
            volume_integral(7)

    def test_negative_determinant_beyond_roundoff_raises(self, monkeypatch):
        def not_psd(n, xyz):
            return np.broadcast_to(np.diag([1.0, 1.0, -1e-6]), xyz.shape + (3,))

        monkeypatch.setattr(povm, "closed_form_batch", not_psd)
        with pytest.raises(RuntimeError, match="not PSD"):
            volume_integral(3)

    def test_roundoff_negative_determinant_counts_as_zero(self, monkeypatch):
        def roundoff(n, xyz):
            return np.broadcast_to(np.diag([1.0, 1.0, -1e-14]), xyz.shape + (3,))

        monkeypatch.setattr(povm, "closed_form_batch", roundoff)
        assert volume_integral(3) == 0.0


class TestIntersection:
    def test_crossing_radius(self):
        assert scaled_curve_intersection() == pytest.approx(0.395121, abs=1e-4)

    def test_scaled_curves_reach_one_at_pure_limit(self):
        for n in (2, 4):
            scale = trace_limit_reference("quasi_bures", n, "pure")
            assert limit_trace("quasi_bures", n, "pure") / scale == pytest.approx(1.0, abs=1e-6)

    def test_sign_change_around_crossing(self):
        x = scaled_curve_intersection()

        def diff(r):
            c = bloch.to_cartesian(BlochSpherical(r, analysis.THETA0, analysis.PHI0))
            return (gm_trace("quasi_bures", 2, c) / trace_limit_reference("quasi_bures", 2, "pure")
                    - gm_trace("quasi_bures", 4, c) / trace_limit_reference("quasi_bures", 4, "pure"))

        assert diff(x - 0.05) * diff(x + 0.05) < 0


class TestCurves:
    def test_gm_scaled_intercepts_increase_with_n(self):
        tables = curve_sample("gm_scaled", (4, 5, 6, 7), np.linspace(0.0, 1.0, 11))
        intercepts = [t.value[0] for t in tables]
        assert intercepts == sorted(intercepts)
        assert intercepts[0] == pytest.approx(7.25 / 7)
        assert intercepts[-1] == pytest.approx(14.25 / 13)

    def test_entry11_over_n_at_center(self):
        tables = curve_sample("entry11_over_N", (2, 4, 6), np.array([1e-8, 0.5]))
        first = [t.value[0] for t in tables]
        assert first == pytest.approx([0.5, 29 / 48, 95 / 144], rel=1e-6)

    def test_entry11_ordering_at_r_09(self):
        tables = curve_sample("entry11_over_N", (2, 4, 6), np.array([0.9]))
        vals = [t.value[0] for t in tables]
        assert vals[2] > vals[1] > vals[0]

    def test_g_function_ordering_on_grid(self):
        grid = np.linspace(0.05, 1.0, 20)
        t2, t4, t6 = curve_sample("g_functions", (2, 4, 6), grid)
        assert np.all(t6.value > t4.value) and np.all(t4.value > t2.value)

    def test_yl_scaled_curves_end_at_one(self):
        # scaled by the r=1 value N-1, every curve lands on 1; the r=0
        # intercepts 3, 29/12, 19/8 then necessarily decrease with N
        tables = curve_sample("yl_scaled", (2, 4, 6), np.linspace(0.0, 1.0, 5))
        intercepts = [t.value[0] for t in tables]
        assert intercepts == pytest.approx([3.0, 29 / 12, 19 / 8])
        assert intercepts == sorted(intercepts, reverse=True)
        assert [t.value[-1] for t in tables] == pytest.approx([1.0, 1.0, 1.0])

    def test_qb_scaled_tends_to_one(self):
        tables = curve_sample("qb_scaled", (2, 4, 6), np.array([0.5, 0.999999]))
        for t in tables:
            assert t.value[-1] == pytest.approx(1.0, abs=1e-4)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            curve_sample("nonsense")

    def test_array_curves_equal_scalar_wrappers(self):
        grid = np.linspace(0.01, 0.99, 25)
        points = [BlochSpherical(r, analysis.THETA0, analysis.PHI0) for r in grid]
        qb = curve_sample("qb_scaled", (2, 4, 6), grid)
        e11 = curve_sample("entry11_over_N", (2, 4, 6), grid)
        for n, t_qb, t_e11 in zip((2, 4, 6), qb, e11):
            want_qb = [gm_trace("quasi_bures", n, bloch.to_cartesian(p)) / t_qb.scaling
                       for p in points]
            want_e11 = [povm.fisher_spherical_diag(n, p).entries[0, 0] / n for p in points]
            np.testing.assert_allclose(t_qb.value, want_qb, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(t_e11.value, want_e11, rtol=1e-13, atol=0.0)

    def test_curves_refuse_radii_outside_the_open_ball(self):
        with pytest.raises(ValueError):
            curve_sample("qb_scaled", (2,), np.array([0.0, 0.5]))
        with pytest.raises(PureStateError):
            curve_sample("qb_scaled", (2,), np.array([0.5, 1.0]))
        with pytest.raises(PureStateError):
            curve_sample("entry11_over_N", (4,), np.array([0.5, 1.0]))


class TestCurveTable:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            CurveTable(np.array([0.2, 0.1]), np.array([1.0, 2.0]), "bad")

    def test_grid_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError):
            CurveTable(np.array([0.5, 1.5]), np.array([1.0, 2.0]), "bad")

    def test_csv_round_trip(self):
        table = CurveTable(np.array([0.1, 0.2]), np.array([1.234567891, 2.0]), "curve")
        buf = io.StringIO()
        write_curves_csv([table], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "r,value,label"
        r, v, label = lines[1].split(",")
        assert label == "curve"
        assert float(r) == pytest.approx(0.1)
        assert float(v) == pytest.approx(1.234567891, abs=1e-8)


class TestBallGrid:
    def test_deterministic(self):
        a = analysis.ball_grid((0.0, 0.99))
        b = analysis.ball_grid((0.0, 0.99))
        assert np.array_equal(a, b)

    def test_stays_in_region(self):
        pts = analysis.ball_grid((0.2, 0.8))
        radii = np.linalg.norm(pts, axis=1)
        assert radii.min() >= 0.2 - 1e-12 and radii.max() <= 0.8
