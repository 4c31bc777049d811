"""Tests for the optimal-measurement families and closed-form Fisher matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig import bloch, infogeo, povm
from qig.bloch import BlochCartesian, BlochSpherical, PureStateError
from qig.povm import (
    UnsupportedNError,
    fisher_closed_form,
    fisher_spherical_diag,
    fully_mixed_entry11,
    fully_mixed_entry11_limit,
    gm_trace_reference,
    vidal_model,
    vidal_probabilities,
)


ball_batches = st.lists(st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57),
                                  st.floats(-0.57, 0.57)), min_size=1, max_size=6)


def interior_points(n=50, seed=5):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-1, 1, 3)
        if 0.05 < np.linalg.norm(v) < 0.95 and np.min(np.abs(v)) > 0.02:
            pts.append(v)
    return pts


class TestVidalProbabilities:
    def test_two_copy_values_at_center(self):
        p = vidal_probabilities(2, BlochCartesian(0, 0, 0))
        assert np.allclose(p, [0.25, 3 / 16, 3 / 16, 3 / 16, 3 / 16], atol=1e-15)

    def test_two_copy_values_at_z_pole(self):
        p = vidal_probabilities(2, BlochCartesian(0, 0, 1))
        assert np.allclose(p, [0.0, 0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-15)

    def test_three_copy_values_at_center(self):
        p = vidal_probabilities(3, BlochCartesian(0, 0, 0))
        assert np.allclose(p, [1 / 12] * 6 + [0.25, 0.25], atol=1e-15)

    def test_normalization_and_positivity_on_closed_ball(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            model = vidal_model(n)
            for _ in range(400):
                v = rng.uniform(-1, 1, 3)
                nrm = np.linalg.norm(v)
                if nrm > 1:
                    v = v / nrm  # exercise the pure boundary too
                p = model.eval(BlochCartesian(*v))
                assert abs(p.sum() - 1.0) < 1e-12
                assert (p >= -1e-12).all()

    def test_unsupported_copy_count(self):
        with pytest.raises(UnsupportedNError):
            vidal_model(4)


class TestClosedForms:
    def test_two_copy_fisher_equals_helstrom(self):
        for v in interior_points(30):
            c = BlochCartesian(*v)
            f = infogeo.fisher_information(vidal_model(2), c).entries
            assert np.allclose(f, infogeo.helstrom_cartesian(c).entries, rtol=1e-10)

    def test_three_copy_engine_matches_closed_form(self):
        for v in interior_points(30):
            c = BlochCartesian(*v)
            f = infogeo.fisher_information(vidal_model(3), c).entries
            assert np.allclose(f, fisher_closed_form(3, c).entries, rtol=1e-10)

    def test_three_copy_residual_has_double_minus_half_eigenvalue(self):
        for v in interior_points(10):
            eigs = np.sort(np.linalg.eigvalsh(povm.residual_batch(3, np.asarray(v))))
            assert np.allclose(eigs[:2], [-0.5, -0.5], atol=1e-12)

    def test_four_copy_residual_eigenvalues(self):
        for v in interior_points(20):
            r2 = float(np.dot(v, v))
            eigs = np.sort(np.linalg.eigvalsh(povm.residual_batch(4, np.asarray(v))))
            expected = np.sort([-7 / 12, -(7 + 5 * r2) / 12, -(7 + 5 * r2) / 12])
            assert np.allclose(eigs, expected, atol=1e-12)

    def test_five_copy_trace_validates_symmetry_completion(self):
        for v in interior_points(30):
            c = BlochCartesian(*v)
            tr = np.trace(infogeo.helstrom_inverse(c).entries
                          @ fisher_closed_form(5, c).entries)
            assert tr == pytest.approx((19 - c.r2) / 2, rel=1e-12)

    def test_five_copy_residual_eigenvalue(self):
        for v in interior_points(20):
            r2 = float(np.dot(v, v))
            eigs = np.linalg.eigvalsh(povm.residual_batch(5, np.asarray(v)))
            assert np.min(np.abs(eigs - (-(3 / 16) * (5 + 3 * r2)))) < 1e-12

    def test_six_copy_residual_eigenvalue(self):
        for v in interior_points(20):
            r2 = float(np.dot(v, v))
            eigs = np.linalg.eigvalsh(povm.residual_batch(6, np.asarray(v)))
            target = (125 - 172 * r2 + 47 * r2 * r2) / (120 * (r2 - 1))
            assert np.min(np.abs(eigs - target)) < 1e-12

    def test_residuals_negative_semidefinite(self):
        pts = np.asarray(interior_points(200))
        for n in (3, 4, 5, 6):
            res = povm.residual_batch(n, pts)
            assert np.max(np.linalg.eigvalsh(res)) <= 1e-10

    def test_residual_four_dominates_residual_six(self):
        pts = np.asarray(interior_points(200))
        diff = povm.residual_batch(4, pts) - povm.residual_batch(6, pts)
        assert np.min(np.linalg.eigvalsh(diff)) > 0

    def test_pure_states_rejected(self):
        with pytest.raises(PureStateError):
            fisher_closed_form(4, BlochCartesian(1.0, 0.0, 0.0))

    @given(ball_batches)
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar_wrapper(self, pts):
        # numpy's scalar and array power loops may round differently in the last
        # place of each term, so compare on the scale of the largest entry
        for n in (2, 3, 4, 5, 6):
            want = np.array([fisher_closed_form(n, BlochCartesian(*v)).entries for v in pts])
            gap = np.abs(povm.closed_form_batch(n, np.array(pts)) - want)
            assert np.all(gap <= 1e-14 * np.max(np.abs(want), axis=(1, 2))[:, None, None])

    @given(ball_batches)
    @settings(max_examples=100, deadline=None)
    def test_fisher_below_n_minus_one_helstrom(self, pts):
        # F_N <= (N-1) H_q because the residual is negative semidefinite
        h = infogeo.helstrom_batch(np.array(pts))
        for n in (3, 4, 5, 6):
            f = povm.closed_form_batch(n, np.array(pts))
            top = np.linalg.eigvalsh(f - (n - 1) * h)[:, -1]
            assert np.all(top <= 1e-12 * np.max(np.abs(f), axis=(1, 2)))

    def test_seven_copies_is_reference_only(self):
        with pytest.raises(UnsupportedNError):
            fisher_closed_form(7, BlochCartesian(0.1, 0.1, 0.1))


class TestSphericalDiag:
    def test_matches_congruence_transform(self):
        for v in interior_points(20):
            c = BlochCartesian(*v)
            s = bloch.to_spherical(c)
            for n in (2, 4, 6):
                got = fisher_spherical_diag(n, s).entries
                want = bloch.congruence_to_spherical(fisher_closed_form(n, c), s).entries
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_two_copies_reduce_to_helstrom(self):
        s = BlochSpherical(0.6, 1.0, 2.0)
        assert np.allclose(fisher_spherical_diag(2, s).entries,
                           infogeo.helstrom_spherical(s).entries)

    def test_radial_entries_at_center(self):
        s = BlochSpherical(1e-8, 1.0, 2.0)
        assert fisher_spherical_diag(4, s).entries[0, 0] == pytest.approx(29 / 12, rel=1e-9)
        assert fisher_spherical_diag(6, s).entries[0, 0] == pytest.approx(95 / 24, rel=1e-9)

    def test_odd_copy_counts_have_no_diagonal_form(self):
        with pytest.raises(UnsupportedNError):
            fisher_spherical_diag(5, BlochSpherical(0.5, 1.0, 0.0))


class TestGmTraceReference:
    def test_tabulated_values(self):
        assert gm_trace_reference(4, 1.0) == pytest.approx(7.0)
        assert gm_trace_reference(4, 0.0) == pytest.approx(7.25)
        assert gm_trace_reference(6, 1.0) == pytest.approx(11.0)
        assert gm_trace_reference(7, 0.0) == pytest.approx(14.25)

    def test_pure_limit_follows_2n_minus_1(self):
        for n in range(2, 8):
            assert gm_trace_reference(n, 1.0) == pytest.approx(2 * n - 1)

    def test_monotone_decrease_for_n6_n7(self):
        grid = np.linspace(0.0, 1.0, 101)
        for n in (6, 7):
            vals = [gm_trace_reference(n, r) for r in grid]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_unsupported_n(self):
        with pytest.raises(UnsupportedNError):
            gm_trace_reference(8, 0.5)

    def test_array_input_equals_float_input(self):
        grid = np.linspace(0.0, 1.0, 101)
        for n in range(2, 8):
            floats = [gm_trace_reference(n, r) for r in grid]
            assert all(type(t) is float for t in floats)
            assert np.array_equal(gm_trace_reference(n, grid), floats)


class TestFullyMixedEntry:
    def test_tabulated_values(self):
        assert fully_mixed_entry11(2, 1.0, 2.0) == 1.0
        assert fully_mixed_entry11(5, 0.3, 0.0) == pytest.approx(108 / 32)
        assert fully_mixed_entry11(3, math.pi / 2, math.pi / 4) == pytest.approx(11 / 6)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_tabulated_matches_matrix_limit(self, n):
        for theta, phi in ((1.1, 0.7), (2.0, 3.9), (math.pi / 2, math.pi / 4)):
            s = BlochSpherical(1e-5, theta, phi)
            f = bloch.congruence_to_spherical(
                fisher_closed_form(n, bloch.to_cartesian(s)), s).entries
            assert f[0, 0] == pytest.approx(fully_mixed_entry11(n, theta, phi), abs=1e-9)
            assert fully_mixed_entry11_limit(n, theta, phi) == pytest.approx(
                fully_mixed_entry11(n, theta, phi), abs=1e-12)

    def test_five_copy_tabulated_value_is_inconsistent(self):
        # The tabulated N=5 expression fails the trace identity the N=3 and
        # N=7 entries satisfy; the matrix-limit companion is the consistent one.
        theta, phi = math.pi / 2, 0.0
        s = BlochSpherical(1e-6, theta, phi)
        f = bloch.congruence_to_spherical(
            fisher_closed_form(5, bloch.to_cartesian(s)), s).entries
        limit = fully_mixed_entry11_limit(5, theta, phi)
        assert f[0, 0] == pytest.approx(limit, abs=1e-9)
        assert limit == pytest.approx(19 / 6)   # (152 + 0)/48
        assert abs(fully_mixed_entry11(5, theta, phi) - limit) > 0.2

    def test_five_copy_limit_closed_form(self):
        for theta, phi in ((1.1, 0.7), (0.4, 5.0)):
            angular = (math.sin(2 * theta) * (math.cos(phi) + math.sin(phi))
                       + math.sin(theta) ** 2 * math.sin(2 * phi))
            assert fully_mixed_entry11_limit(5, theta, phi) == pytest.approx(
                (152 + 5 * angular) / 48, rel=1e-12)

    def test_trace_identity_for_odd_entries(self):
        # sphere average of the (1,1) limit must equal GM_N(0)/3
        for n in (3, 7):
            vals = []
            rng = np.random.default_rng(2)
            for _ in range(4000):
                u, w = rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi)
                vals.append(fully_mixed_entry11(n, math.acos(u), w))
            assert np.mean(vals) == pytest.approx(gm_trace_reference(n, 0.0) / 3, abs=0.01)


class TestPureLimits:
    def test_angular_entry_over_r2_tends_to_half_n(self):
        for n in (2, 3, 4, 5, 6):
            for h in (1e-2, 1e-3, 1e-4, 1e-5):
                s = BlochSpherical(1.0 - h, 1.1, 0.7)
                f = bloch.congruence_to_spherical(
                    fisher_closed_form(n, bloch.to_cartesian(s)), s).entries
                assert abs(f[1, 1] / s.r ** 2 - n / 2) <= 2.0 * h, (n, h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_numeric_limits_of_closed_forms(self, n):
        s = BlochSpherical(1.0 - 1e-6, 1.1, 0.7)
        f = bloch.congruence_to_spherical(
            fisher_closed_form(n, bloch.to_cartesian(s)), s).entries
        assert f[1, 1] == pytest.approx(n / 2, abs=1e-4)
        assert f[2, 2] == pytest.approx((n / 2) * math.sin(1.1) ** 2, abs=1e-4)
        assert abs(f[0, 1]) < 1e-4 and abs(f[1, 2]) < 1e-4

