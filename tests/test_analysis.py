"""Tests for traces, dominance analysis, volume integrals, and curve tables."""

import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig import acceptance, analysis, bloch, coding, infogeo, povm
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
from test_povm import _ratio_eigenvalues


KINDS = ("helstrom", "yuen_lax", "quasi_bures", "fitted_n4", "fitted_n6")


def interior_points(n=30, seed=9):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-1, 1, 3)
        if 0.05 < np.linalg.norm(v) < 0.95 and np.min(np.abs(v)) > 0.02:
            pts.append(v)
    return pts


def _summed_gm_trace(metric, n, xyz):
    """gm_trace through the 3x3 matrix F_N, r^2 from np.sum: the matrix oracle."""
    r2 = np.sum(xyz * xyz, axis=-1)
    f = povm.closed_form_batch(n, xyz)
    q = np.einsum("...i,...ij,...j->...", xyz, f, xyz) / r2
    a = infogeo._angular_scale(infogeo.as_metric_kind(metric), np.sqrt(r2))
    return (1.0 - r2) * q + (np.trace(f, axis1=-2, axis2=-1) - q) / a


def _assert_matches_the_matrix_trace(got, want, r2):
    # the matrix path subtracts two terms of order 1/(1 - r^2); the kernel has no pole
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want) / (1.0 - r2))


class TestGmTrace:
    @pytest.mark.parametrize("metric", ["helstrom", "yuen_lax", "quasi_bures"])
    def test_matches_the_matrix_form(self, metric):
        pts = analysis.ball_grid()
        r2 = np.sum(pts * pts, axis=-1)
        for n in (2, 3, 4, 5, 6):
            _assert_matches_the_matrix_trace(analysis._gm_trace_batch(metric, n, pts),
                                             _summed_gm_trace(metric, n, pts), r2)
            for v in interior_points(5):
                _assert_matches_the_matrix_trace(gm_trace(metric, n, BlochCartesian(*v)),
                                                 _summed_gm_trace(metric, n, v), v @ v)

    def test_traces_and_curves_build_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a trace or curve path built a 3x3 matrix")

        monkeypatch.setattr(povm, "closed_form_batch", refuse)
        monkeypatch.setattr(infogeo, "helstrom_batch", refuse)
        c = BlochCartesian(0.3, -0.2, 0.45)
        for metric in ("helstrom", "yuen_lax", "quasi_bures"):
            for n in (2, 3, 4, 5, 6):
                gm_trace(metric, n, c)
        limit_trace("quasi_bures", 5, "pure")
        limit_trace("helstrom", 5, "mixed")
        scaled_curve_intersection()
        for quantity in analysis.CURVE_QUANTITIES:
            curve_sample(quantity)

    def test_two_copies_give_three_everywhere(self):
        for v in interior_points(10):
            assert gm_trace("helstrom", 2, BlochCartesian(*v)) == pytest.approx(3.0)

    def test_matches_reference_polynomials(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            for n in acceptance._GM_TABLE:
                assert gm_trace("helstrom", n, c) == pytest.approx(
                    acceptance._tabulated(acceptance._GM_TABLE, n, c.r), rel=1e-10)

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

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    @given(st.floats(1e-100, 1.0 - 1e-12), st.floats(0.0, math.pi),
           st.floats(0.0, 2 * math.pi, exclude_max=True))
    @settings(max_examples=50, deadline=None)
    def test_every_supported_n_exceeds_the_separable_bound(self, n, r, theta, phi):
        # the Gill-Massar cap for separable measurements is N on the whole open ball
        assert gm_trace("helstrom", n, bloch.to_cartesian(BlochSpherical(r, theta, phi))) > n

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
        for n in (3, 5, 7, 19):
            with pytest.raises(ValueError):
                modified_trace_reference("yuen_lax", n, 0.5)

    def test_matches_computed_traces(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            theta_diag = diagonal_colatitude(c)
            for n in povm.SUPPORTED_MATRICES:
                got = modified_trace_reference("yuen_lax", n, c.r, theta=theta_diag)
                want = (1.0 - c.r2) * np.trace(povm.closed_form_batch(n, v))
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

    def test_pure_state_is_n_minus_one_on_and_off_the_axis(self):
        # theta = 0 at r = 1 is where C^ = C/(1 - x cos2) of povm._trace_parts is 0/0
        thetas = np.array([0.0, 0.3, math.pi / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in povm.SUPPORTED_MATRICES:
                for theta in thetas:
                    assert modified_trace_reference("yuen_lax", n, 1.0, theta=theta) == n - 1
                got = modified_trace_reference("yuen_lax", n, np.ones(3), theta=thetas)
                assert np.array_equal(got, np.full(3, n - 1.0))
                near = modified_trace_reference("yuen_lax", n, 1.0 - 1e-9, theta=thetas)
                np.testing.assert_allclose(near, n - 1.0, rtol=0.0, atol=1e-6)


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

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    def test_pure_limit_is_2n_minus_1_for_every_supported_n(self, n):
        assert limit_trace("helstrom", n, "pure") == pytest.approx(2 * n - 1, abs=1e-5)

    def test_reference_limits_formula(self):
        assert trace_limit_reference("helstrom", 4, "pure") == pytest.approx(7.0)
        assert trace_limit_reference("quasi_bures", 6, "pure") == pytest.approx(5 + 12 / math.e)
        assert trace_limit_reference("yuen_lax", 6, "pure") == pytest.approx(5.0)
        assert trace_limit_reference("quasi_bures", 4, "mixed") == pytest.approx(7.25)

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            limit_trace("helstrom", 2, "middle")

    def test_mixed_reference_beyond_the_table_is_exact(self):
        assert trace_limit_reference("helstrom", 8, "mixed") == 1069 / 64 == 16.703125

    @pytest.mark.parametrize("n", range(8, povm.SUPPORTED_MATRICES[-1] + 1))
    def test_mixed_reference_beyond_the_table_matches_the_limit(self, n):
        # check 4's endpoint tolerance
        assert abs(trace_limit_reference("helstrom", n, "mixed")
                   - limit_trace("helstrom", n, "mixed")) <= 1e-5

    def test_mixed_reference_keeps_the_table_through_seven(self):
        for n in acceptance._GM_TABLE:
            want = acceptance._tabulated(acceptance._GM_TABLE, n, 0.0)
            assert trace_limit_reference("helstrom", n, "mixed") == pytest.approx(want, rel=1e-15)


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

    def test_dominates_rejects_mismatched_charts(self):
        c = BlochCartesian(0.3, 0.2, 0.1)
        cartesian = infogeo.helstrom_cartesian(c)
        for other in (infogeo.helstrom_spherical(bloch.to_spherical(c)),
                      infogeo.pure_helstrom_m2(1.0)):
            with pytest.raises(ValueError, match="matrix mismatch"):
                dominates(other, cartesian)
            with pytest.raises(ValueError, match="matrix mismatch"):
                dominance_check(other, cartesian)

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

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_min_dominating_scalar_is_exact(self, n):
        c = min_dominating_scalar(n, (0.0, 0.999))
        pts = analysis.ball_grid((0.0, 0.999))
        ratio = np.linalg.solve(infogeo.helstrom_batch(pts), povm.closed_form_batch(n, pts))
        assert c == pytest.approx(np.linalg.eigvals(ratio).real.max(), rel=1e-12)
        assert scan_dominance(n, c, (0.0, 0.999)).n_violations == 0
        assert scan_dominance(n, c - 1e-6, (0.0, 0.999)).n_violations > 0

    def test_cramer_rao_guard(self, monkeypatch):
        # H_q^{-1} F_N = 7 I: the scalar exceeds N = 6, and N = 5 on the odd-N parts
        monkeypatch.setattr(povm, "_even_profile", lambda n, r2: (7.0 + 0 * r2, 7.0 + 0 * r2))
        with pytest.raises(RuntimeError, match="Cramer-Rao"):
            min_dominating_scalar(6, (0.0, 0.999))
        monkeypatch.setattr(povm, "_odd_ratio_parts",
                            lambda n, a, b, c, r2, t2: (7.0 + 0 * r2, 0.0, 0.0 * t2))
        with pytest.raises(RuntimeError, match="Cramer-Rao"):
            min_dominating_scalar(5, (0.0, 0.999))

    @pytest.mark.parametrize("region", [(0.0, 0.999), (0.2, 0.9)])
    def test_scalar_is_the_largest_eigenvalue_on_the_grid(self, region):
        for n in povm.SUPPORTED_MATRICES[1:]:
            lam = _ratio_eigenvalues(n, *analysis._grid_table(region)[1:])
            assert min_dominating_scalar(n, region) == max(x.max() for x in lam)

    def test_halton_grid_matches_scipy(self):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for n in (1, 7, 4096, 10000):
            ref = qmc.Halton(d=3, scramble=True, seed=analysis.GRID_SEED).random(n)
            assert np.array_equal(analysis._halton(n), ref)

    def test_region_monotonicity(self):
        inner = min_dominating_scalar(6, (0.0, 0.9))
        outer = min_dominating_scalar(6, (0.0, 0.999))
        assert outer >= inner

    def test_region_touching_boundary_rejected(self):
        with pytest.raises(ValueError):
            min_dominating_scalar(6, (0.0, 1.0))


def _invariant_even_fisher(n, xyz):
    """Even-N F_N as a I + (b/(1 - r^2) - a) v v^T / r^2: the same matrix, other roundoff."""
    r2 = np.sum(xyz * xyz, axis=-1)[..., None, None]
    b, a = povm._even_profile(n, r2)
    return a * np.eye(3) + (b / (1 - r2) - a) * xyz[..., :, None] * xyz[..., None, :] / r2


def _matrix_listing(n, scalar, fisher=povm.closed_form_batch):
    """The 50 listed violations from 3x3 eigvalsh: worst rounded eigenvalue, then grid order."""
    pts = analysis.ball_grid()
    eigs = analysis._scaled_min_eigs(scalar * infogeo.helstrom_batch(pts) - fisher(n, pts))
    bad = np.flatnonzero(eigs < -analysis.PSD_TOL)
    return [BlochCartesian(*pts[i]) for i in bad[np.lexsort((bad, np.round(eigs[bad], 9)))][:50]]


#: (N, a scalar looser than the tight one); each scan also runs at c* - 1e-6
SCAN_CASES = [(2, 0.9), (3, 1.9), (4, 2.9), (5, 3.9), (6, 4.99)]


def _scan_scalars(n, loose):
    tight = 1.0 if n == 2 else min_dominating_scalar(n)
    return tight - 1e-6, loose


class TestDominanceListing:
    """Which violations scan_dominance lists is decided by value, never by roundoff."""

    @pytest.mark.parametrize("n, loose", SCAN_CASES)
    def test_listing_matches_the_matrix_eigenvalues(self, n, loose):
        for scalar in _scan_scalars(n, loose):
            assert scan_dominance(n, scalar).violating_points == _matrix_listing(n, scalar)

    @pytest.mark.parametrize("n, loose", [(4, 2.9), (6, 4.99)])
    def test_tied_edge_points_keep_their_places_under_other_roundoff(self, n, loose):
        # the EDGE_DIRECTIONS lines share their radii, so for even N the
        # eigenvalues there tie and only roundoff tells them apart.  (Near c*
        # this rewrite itself is off by up to 5e-11, which can cross a bin.)
        assert scan_dominance(n, loose).violating_points == _matrix_listing(
            n, loose, _invariant_even_fisher)


def _difference_matrices(n, scalar, pts):
    """scalar H_q - F_N as (scalar - N + 1) H_q - R_N, with R_2 = 0.

    Forming scalar H_q - F_N entry by entry cancels scalar H_q against
    (N - 1) H_q: for N = 2 at c = 1 - 1e-6 that alone is off by 6e-11 on the grid.
    """
    residual = 0.0 if n == 2 else povm.residual_batch(n, pts)
    return (scalar - n + 1) * infogeo.helstrom_batch(pts) - residual


class TestDominanceSpectrum:
    """The scan's closed-form eigenvalues of c H_q - F_N against 3x3 eigvalsh."""

    @pytest.mark.parametrize("n, loose", SCAN_CASES)
    def test_scaled_minimum_matches_eigvalsh_on_the_grid(self, n, loose):
        pts = analysis.ball_grid()
        for scalar in _scan_scalars(n, loose):
            got = analysis._scaled_min_difference(n, scalar, *analysis._invariants(pts))
            want = analysis._scaled_min_eigs(_difference_matrices(n, scalar, pts))
            assert np.max(np.abs(got - want)) <= 1e-12
            assert scan_dominance(n, scalar).n_violations == np.count_nonzero(
                want < -analysis.PSD_TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @given(st.floats(0.0, 0.999), st.floats(0.0, math.pi),
           st.floats(0.0, 2 * math.pi, exclude_max=True),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_scaled_minimum_matches_eigvalsh_anywhere(self, n, r, theta, phi, offset):
        v = bloch.to_cartesian(BlochSpherical(r, theta, phi)).as_array()[None]
        got = analysis._scaled_min_difference(n, n + offset, *analysis._invariants(v))
        want = analysis._scaled_min_eigs(_difference_matrices(n, n + offset, v))
        assert abs(got[0] - want[0]) <= 1e-12

    def test_equal_matrices_scan_as_zero(self):
        # 1 H_q - F_2 vanishes everywhere: no violation, and no 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = scan_dominance(2, 1.0)
        assert report.min_eigenvalue_found == 0.0 and report.n_violations == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("scalar", [1e200, -1e200, 1e308, -1e308])
    def test_huge_scalar_is_rejected_before_it_overflows(self, n, scalar):
        # squared, eigenvalues of order |c|/(1 - r^2) overflow: the norm went
        # to inf and every point scanned as -0.0 or NaN, i.e. no violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at most 1e\+100"):
                scan_dominance(n, scalar)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_largest_scalar_stays_finite_next_to_the_pure_states(self, n):
        region = (0.0, float(np.nextafter(1.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            above = scan_dominance(n, analysis.MAX_SCALAR, region)
            below = scan_dominance(n, -analysis.MAX_SCALAR, region)
        assert above.n_violations == 0 and above.min_eigenvalue_found > 0.0
        assert below.n_violations == len(analysis.ball_grid(region))

    def test_spectrum_that_is_not_finite_raises(self, monkeypatch):
        monkeypatch.setattr(povm, "_difference_spectrum",
                            lambda n, c, r2, t2: np.broadcast_arrays(-1.0, 1.0, np.inf + 0 * r2))
        with pytest.raises(RuntimeError, match="not finite"):
            scan_dominance(6, 4.99)

    @pytest.mark.parametrize("n, message", [
        (1, "closed-form Fisher matrices exist for N in 2..20, got 1"),
        (21, "closed-form Fisher matrices exist for N in 2..20, got 21"),
    ])
    def test_unsupported_copy_counts(self, n, message):
        with pytest.raises(povm.UnsupportedNError, match=f"^{re.escape(message)}$"):
            scan_dominance(n, 4.0)


class TestBoundaryRadius:
    def test_value(self):
        assert dominance_boundary_radius() == pytest.approx(0.992348, abs=1e-4)

    def test_is_a_root(self):
        r = dominance_boundary_radius()
        assert 47 * r ** 4 - 172 * r ** 2 + 123.8 == pytest.approx(0.0, abs=1e-9)

    def test_matches_the_exact_root(self):
        r = dominance_boundary_radius()
        assert abs(r - 0.9923484362149676) <= 2 * np.spacing(0.9923484362149676)
        assert abs(47 * r ** 4 - 172 * r ** 2 + 123.8) <= 1e-12

    def test_literals_are_the_n6_profile(self):
        # 120 b_6 = 475 + 172 x - 47 x^2, and 123.8 = 120 * 4.99 - 475, exactly
        coeffs, den = povm._sectors(6)[2]
        assert [Fraction(120 * c, den) for c in coeffs] == [475, 172, -47]
        constant = 120 * Fraction(499, 100) - 475
        assert constant == Fraction("123.8") and float(constant) == 123.8

    def test_dominance_fails_just_above_root(self):
        r = dominance_boundary_radius() + 1e-3
        c = bloch.to_cartesian(BlochSpherical(r, 1.1, 0.7))
        h = bloch.InfoMatrix(4.99 * infogeo.helstrom_cartesian(c).entries, "cartesian")
        assert dominance_check(h, povm.fisher_closed_form(6, c)) < 0


def rotation(axis, angle):
    """Rotation matrix by angle about the unit vector along axis (Rodrigues)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * cross @ cross


def _full_rule_volume(n, order):
    """Odd-N _volume_at_order before the fold: the full mu rule on [-1, 1], and det as
    the product of the three eigenvalues."""
    u, wu = coding._gl_nodes(order, 0.0, 0.5 * math.pi)
    mu, wm = coding._gl_nodes(order, -1.0, 1.0)
    r = np.sin(u)
    r2 = (r * r)[:, None]
    det = math.prod(_ratio_eigenvalues(n, r2, r2 * mu * mu))
    return 2.0 * math.pi * float(wu * r * r @ np.sqrt(np.maximum(det, 0.0)) @ wm)


class TestVolumeIntegrals:
    def test_two_copies_give_pi_squared(self):
        assert volume_integral(2) == pytest.approx(math.pi ** 2, rel=1e-6)

    @given(st.floats(0.05, 0.95), st.floats(0.0, math.pi), st.floats(0.0, 6.28),
           st.floats(0.0, 6.28), st.floats(0.0, math.pi), st.floats(0.0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_fisher_matrices_are_rotation_equivariant(self, r, theta, phi, angle,
                                                      axis_theta, axis_phi):
        # the odd-N volume is a 2-D integral because F_N(Rv) = R F_N(v) R^T
        # for rotations about (1,1,1)/sqrt(3); even N admits any axis
        v = r * np.array([math.cos(theta), math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi)])
        any_axis = [math.cos(axis_theta), math.sin(axis_theta) * math.cos(axis_phi),
                    math.sin(axis_theta) * math.sin(axis_phi)]
        for n in (3, 4, 5, 6):
            rot = rotation((1.0, 1.0, 1.0) if n % 2 else any_axis, angle)
            f = povm.closed_form_batch(n, v)
            gap = np.abs(rot @ f @ rot.T - povm.closed_form_batch(n, rot @ v)).max()
            assert gap <= 1e-12 * np.abs(f).max()

    @pytest.mark.parametrize("n,value", [(3, 21.023542114391), (5, 51.076296738930)])
    def test_odd_volumes_match_the_three_dimensional_grid(self, n, value):
        # values of the former (r, theta, phi) tensor grid at orders 48 and 72
        assert volume_integral(n) == pytest.approx(value, rel=1e-9)

    def test_odd_volume_grid_is_two_dimensional(self, monkeypatch):
        # (r, mu) nodes with the symmetric mu rule folded onto mu >= 0
        points = []
        kernel = povm._odd_ratio_parts

        def counting(n, a, b, c, r2, t2):
            points.append(np.broadcast(r2, t2).size)
            return kernel(n, a, b, c, r2, t2)

        monkeypatch.setattr(povm, "_odd_ratio_parts", counting)
        volume_integral(5)
        assert sum(points) == 48 * 24 + 72 * 36

    @pytest.mark.parametrize("order", [48, 49, 72, 73, 74, 75, 96, 144])
    def test_folded_mu_rule_matches_the_full_rule(self, order):
        # odd orders have a mu = 0 node; QuadratureSpec(order=49) and (order=50) reach 74, 75
        for n in range(3, 20, 2):
            got, want = analysis._volume_at_order(n, order), _full_rule_volume(n, order)
            assert abs(got - want) <= 1e-14 * want, (n, (got - want) / want)

    def test_folded_mu_rule_is_the_nonnegative_half_of_gauss_legendre(self):
        for order in range(48, 145):
            x, w = coding._legendre(order)
            r2, t2, _, wm = analysis._node_table(order, True)
            mu = x[order // 2:]
            assert np.all(mu >= 0.0) and mu.size == wm.size == (order + 1) // 2
            assert _bit_equal(t2, r2 * mu * mu)
            assert abs(wm.sum() - 2.0) <= 1e-14 * 2.0, order
            # exact for every even power the full rule integrates exactly
            for k in (1, order // 2, order - 1):
                assert wm @ mu ** (2 * k) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    @pytest.mark.parametrize("n,target", [(3, 21.0235), (4, 35.0281),
                                          (5, 51.0763), (6, 69.1253), (7, 88.8621)])
    def test_tabulated_values(self, n, target):
        assert volume_integral(n) == pytest.approx(target, rel=5e-4)

    def test_order_below_default_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=10)

    def test_order_above_cap_rejected(self):
        assert QuadratureSpec(order=QuadratureSpec.MAX_ORDER).order == 96
        with pytest.raises(ValueError, match="above 96"):
            QuadratureSpec(order=97)

    def test_convergence_check(self):
        v1 = volume_integral(4, QuadratureSpec(order=48))
        v2 = volume_integral(4, QuadratureSpec(order=64))
        assert v1 == pytest.approx(v2, rel=1e-6)
        with pytest.raises(NonConvergenceError):
            volume_integral(3, QuadratureSpec(order=48, rtol=1e-16))

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, -math.inf, 0.0, -1e-6, 1.5])
    def test_rtol_outside_the_open_unit_interval_rejected(self, rtol):
        # nan compares false, so it would pass every coarse/fine comparison
        with pytest.raises(ValueError, match="rtol"):
            QuadratureSpec(rtol=rtol)

    def test_copy_counts_beyond_the_cap_unavailable(self):
        with pytest.raises(povm.UnsupportedNError):
            volume_integral(21)

    def test_negative_determinant_beyond_roundoff_raises(self, monkeypatch):
        def not_psd(n, a, b, c, r2, t2):
            return 1.0, 0.0, 1.0 + 1e-6 + 0 * t2  # det = 1 - (1 + 1e-6) = -1e-6

        monkeypatch.setattr(povm, "_odd_ratio_parts", not_psd)
        with pytest.raises(RuntimeError, match="not PSD"):
            volume_integral(3)

    def test_roundoff_negative_determinant_counts_as_zero(self, monkeypatch):
        def roundoff(n, a, b, c, r2, t2):
            return 1.0, -1.0, 1e-14 + 0 * t2  # det = 1 (0 - 1e-14) = -1e-14

        monkeypatch.setattr(povm, "_odd_ratio_parts", roundoff)
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

    def test_qb_scaled_matches_the_matrix_trace(self):
        grid = np.linspace(0.005, 0.995, 199)
        st = math.sin(analysis.THETA0)
        xyz = grid[:, None] * [math.cos(analysis.THETA0), st * math.cos(analysis.PHI0),
                               st * math.sin(analysis.PHI0)]
        for t in curve_sample("qb_scaled"):
            n = int(t.label.split("_N")[1].split("_")[0])
            _assert_matches_the_matrix_trace(
                t.value, _summed_gm_trace("quasi_bures", n, xyz) / t.scaling, grid * grid)

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


def _column_stack_grid(region, n_points=analysis.GRID_POINTS,
                       edge_points=analysis.EDGE_POINTS):
    """ball_grid as first written: directions from the Halton draw on every call."""
    lo, hi = region
    u = analysis._halton(n_points)
    r = np.cbrt(lo ** 3 + u[:, 0] * (hi ** 3 - lo ** 3))
    cos_t = 2.0 * u[:, 1] - 1.0
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    phi = 2.0 * math.pi * u[:, 2]
    pts = np.column_stack([r * cos_t, r * sin_t * np.cos(phi), r * sin_t * np.sin(phi)])
    if edge_points:
        gap = np.geomspace(1e-7, max(hi - lo, 1e-3) * 0.1, edge_points)
        radii = np.clip(hi - gap, lo, hi)
        lines = [np.outer(radii, d) for d in analysis.EDGE_DIRECTIONS]
        pts = np.vstack([pts] + lines)
    return pts


def _bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b))


class TestBallGrid:
    @pytest.mark.parametrize("region", [(0.0, 0.999), (0.2, 0.8), (0.5, 0.9), (0.0, 0.5)])
    @pytest.mark.parametrize("n_points, edge_points", [
        (analysis.GRID_POINTS, analysis.EDGE_POINTS), (analysis.GRID_POINTS, 0), (1000, 17)])
    def test_matches_the_column_stack_construction(self, region, n_points, edge_points):
        got = analysis.ball_grid(region, n_points, edge_points)
        assert _bit_equal(got, _column_stack_grid(region, n_points, edge_points))

    @pytest.mark.parametrize("shape", [(3,), (4864, 3), (7, 11, 3)])
    def test_invariants_match_the_summed_form(self, shape):
        pts = np.random.default_rng(3).uniform(-0.6, 0.6, shape)
        pts.reshape(-1)[::4] = -0.0
        r2, t2 = analysis._invariants(pts)
        assert _bit_equal(r2, np.sum(pts * pts, axis=-1))
        assert _bit_equal(t2, np.sum(pts, axis=-1) ** 2 / 3.0)

    def test_invariants_on_the_grid(self):
        pts = analysis.ball_grid()
        r2, t2 = analysis._invariants(pts)
        assert _bit_equal(r2, np.sum(pts * pts, axis=-1))
        assert _bit_equal(t2, np.sum(pts, axis=-1) ** 2 / 3.0)

    def test_cached_tables_are_read_only(self):
        tables = [analysis._scan_table(0.0, 0.999, analysis.GRID_POINTS, analysis.EDGE_POINTS)]
        tables += [analysis._node_table(order, odd) for order in (48, 72) for odd in (False, True)]
        arrays = [a for table in tables for a in table if isinstance(a, np.ndarray)]
        assert len(arrays) == 3 + 2 * (2 + 4)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_returned_grid_is_fresh_and_writable(self):
        first = analysis.ball_grid()
        want = first.copy()
        first[:] = np.nan
        assert _bit_equal(analysis.ball_grid(), want)

    def test_deterministic(self):
        a = analysis.ball_grid((0.0, 0.99))
        b = analysis.ball_grid((0.0, 0.99))
        assert np.array_equal(a, b)

    def test_stays_in_region(self):
        pts = analysis.ball_grid((0.2, 0.8))
        radii = np.linalg.norm(pts, axis=1)
        assert radii.min() >= 0.2 - 1e-12 and radii.max() <= 0.8


def _old_scalar(n, region=(0.0, 0.999)):
    """min_dominating_scalar before the scan table: every spectrum on a fresh grid."""
    lam = _ratio_eigenvalues(n, *analysis._invariants(analysis.ball_grid(region)))
    return float(np.max([l.max() for l in lam]))


def _old_scan_json(n, scalar, region=(0.0, 0.999)):
    """scan_dominance(...).to_json() before the scan table, on a fresh grid."""
    pts = analysis.ball_grid(region)
    eigs = analysis._scaled_min_difference(n, scalar, *analysis._invariants(pts))
    bad = np.flatnonzero(eigs < -analysis.PSD_TOL)
    order = bad[np.lexsort((bad, np.round(eigs[bad], 9)))][:50]
    return {"scalar_bound": float(scalar), "min_eigenvalue": float(eigs.min()),
            "violations": pts[order].tolist(), "n_violations": int(bad.size),
            "region": [float(region[0]), float(region[1])]}


class TestScanTable:
    """The cached grid and its invariants change no result, and cache nothing else."""

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    def test_results_equal_the_fresh_grid_path_bit_for_bit(self, n):
        if n > 2:
            assert min_dominating_scalar(n) == _old_scalar(n)
        assert scan_dominance(n, n - 1.01).to_json() == _old_scan_json(n, n - 1.01)

    @pytest.mark.parametrize("region", [[0.0, 0.999], (0, 0.9), (0, 0.999)])
    def test_region_spellings_give_the_float_tuple_result(self, region):
        want = tuple(float(x) for x in region)
        assert min_dominating_scalar(6, region) == min_dominating_scalar(6, want)
        assert scan_dominance(6, 4.99, region) == scan_dominance(6, 4.99, want)
        assert _bit_equal(analysis.ball_grid(region), analysis.ball_grid(want))

    @pytest.mark.parametrize("region, message", [
        ((0.5, 0.5), "bad region (0.5, 0.5)"),
        ((-0.1, 0.5), "bad region (-0.1, 0.5)"),
        ((float("nan"), 0.5), "bad region (nan, 0.5)"),
        ((0.0, 1.0), "scan region must stay strictly inside the ball (hi < 1)"),
        ((0.2, 1.5), "scan region must stay strictly inside the ball (hi < 1)"),
    ])
    def test_bad_regions_raise_and_cache_nothing(self, region, message):
        before = analysis._scan_table.cache_info()
        for call in (lambda: analysis.ball_grid(region),
                     lambda: min_dominating_scalar(6, region),
                     lambda: scan_dominance(6, 4.99, region)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        after = analysis._scan_table.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_scalar_and_scan_on_a_new_region_build_one_table(self):
        region = (0.0, 0.987654321)  # used by no other test
        before = analysis._scan_table.cache_info()
        c = min_dominating_scalar(6, region)
        scan_dominance(6, c, region)
        after = analysis._scan_table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
