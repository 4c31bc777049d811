"""Tests for the Helstrom/monotone metrics and the Fisher-information engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig.analysis import dominance_check
from qig.bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    PureStateError,
)
from qig.infogeo import (
    FITTED_N4,
    FITTED_N6,
    HELSTROM,
    QUASI_BURES,
    YUEN_LAX,
    ZeroProbabilityError,
    custom_metric,
    fisher_information,
    g_function,
    helstrom_batch,
    helstrom_cartesian,
    helstrom_inverse,
    helstrom_spherical,
    monotone_metric,
    product_model,
    pure_helstrom_m2,
    pure_helstrom_m3,
    quadrinomial_model,
)

ball_points = st.tuples(
    st.floats(-0.57, 0.57), st.floats(-0.57, 0.57), st.floats(-0.57, 0.57))


def fd_fisher(model, c, h=1e-5):
    """Finite-difference oracle for the Fisher matrix."""
    v = c.as_array()
    p = model.eval(c)
    grad = np.empty((model.n_outcomes, 3))
    for k in range(3):
        dv = np.zeros(3)
        dv[k] = h
        hi = model.eval(BlochCartesian(*(v + dv)))
        lo = model.eval(BlochCartesian(*(v - dv)))
        grad[:, k] = (hi - lo) / (2 * h)
    return (grad / p[:, None]).T @ grad


class TestHelstrom:
    def test_identity_at_origin(self):
        assert np.allclose(helstrom_cartesian(BlochCartesian(0, 0, 0)).entries, np.eye(3))

    def test_axis_point(self):
        m = helstrom_cartesian(BlochCartesian(0.6, 0.0, 0.0)).entries
        assert np.allclose(m, np.diag([1.0 / (1.0 - 0.36), 1.0, 1.0]), atol=1e-14)

    def test_blows_up_at_pure_states(self):
        with pytest.raises(PureStateError):
            helstrom_cartesian(BlochCartesian(1.0, 0.0, 0.0))

    def test_spherical_diagonal_form(self):
        m = helstrom_spherical(BlochSpherical(0.5, math.pi / 2, 0.0)).entries
        assert np.allclose(m, np.diag([4.0 / 3.0, 0.25, 0.25]), atol=1e-14)

    def test_spherical_origin_limit(self):
        m = helstrom_spherical(BlochSpherical(0.0, 1.0, 0.0)).entries
        assert np.allclose(m, np.diag([1.0, 0.0, 0.0]))

    def test_spherical_matches_congruence(self):
        from qig.bloch import congruence_to_spherical, to_cartesian
        s = BlochSpherical(0.73, 1.2, 4.0)
        got = congruence_to_spherical(helstrom_cartesian(to_cartesian(s)), s).entries
        assert np.allclose(got, helstrom_spherical(s).entries, atol=1e-10)

    def test_inverse_closed_form(self):
        assert np.allclose(helstrom_inverse(BlochCartesian(0, 0, 0)).entries, np.eye(3))
        m = helstrom_inverse(BlochCartesian(1.0, 0.0, 0.0)).entries
        assert np.allclose(m, np.diag([0.0, 1.0, 1.0]))

    @given(st.lists(ball_points, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar_wrapper(self, pts):
        want = [helstrom_cartesian(BlochCartesian(*v)).entries for v in pts]
        assert np.array_equal(helstrom_batch(np.array(pts)), want)

    def test_inverse_times_matrix_is_identity(self):
        c = BlochCartesian(0.3, -0.4, 0.2)
        prod = helstrom_cartesian(c).entries @ helstrom_inverse(c).entries
        assert np.allclose(prod, np.eye(3), atol=1e-10)


class TestQuadrinomial:
    def test_probabilities(self):
        quad = quadrinomial_model()
        assert np.allclose(quad.eval(BlochCartesian(0.5, 0.5, 0.5)), [0.25] * 4)
        assert np.allclose(quad.eval(BlochCartesian(0, 0, 0)), [0, 0, 0, 1])

    def test_fisher_is_four_helstrom(self):
        quad = quadrinomial_model()
        c = BlochCartesian(0.3, 0.2, 0.1)
        f = fisher_information(quad, c).entries
        assert np.allclose(f, 4.0 * helstrom_cartesian(c).entries, rtol=1e-12)

    def test_zero_probability_raises_with_indices(self):
        quad = quadrinomial_model()
        with pytest.raises(ZeroProbabilityError) as err:
            fisher_information(quad, BlochCartesian(0.0, 0.3, 0.2))
        assert 0 in err.value.indices

    def test_additivity_of_product_models(self):
        quad = quadrinomial_model()
        c = BlochCartesian(0.31, 0.22, 0.13)
        f1 = fisher_information(quad, c).entries
        for k in (2, 3):
            fk = fisher_information(product_model(quad, k), c).entries
            assert np.allclose(fk, k * f1, rtol=1e-9)

    @given(ball_points)
    @settings(max_examples=200, deadline=None)
    def test_simplex_invariants(self, v):
        quad = quadrinomial_model()
        c = BlochCartesian(*v)
        p = quad.eval(c)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= -1e-12).all()
        assert np.max(np.abs(quad.grad(c).sum(axis=0))) < 1e-10


class TestFisherEngine:
    def test_finite_difference_cross_check(self):
        quad = quadrinomial_model()
        c = BlochCartesian(0.25, -0.35, 0.15)
        exact = fisher_information(quad, c).entries
        approx = fd_fisher(quad, c)
        assert np.max(np.abs(approx - exact)) / np.max(np.abs(exact)) < 1e-5

    def test_result_is_positive_semidefinite(self):
        quad = quadrinomial_model()
        f = fisher_information(quad, BlochCartesian(0.2, 0.3, -0.4))
        assert np.linalg.eigvalsh(f.entries)[0] > 0


class TestMonotoneMetrics:
    def test_helstrom_kind_reproduces_spherical_matrix(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.3)
        got = monotone_metric(HELSTROM, s).entries
        assert np.allclose(got, helstrom_spherical(s).entries, atol=1e-13)

    def test_yuen_lax_angular_entry(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.0)
        got = monotone_metric(YUEN_LAX, s).entries
        assert got[1, 1] == pytest.approx(0.25 / 0.75, rel=1e-12)

    def test_quasi_bures_profile_limit_at_pure(self):
        # s -> 0 corresponds to r -> 1; the profile tends to e
        assert g_function(QUASI_BURES, 1e-9) == pytest.approx(math.e, rel=1e-6)

    def test_endpoints_refused(self):
        with pytest.raises(PureStateError):
            monotone_metric(QUASI_BURES, BlochSpherical(1.0, 1.0, 0.0))
        with pytest.raises(DegenerateCoordinatesError):
            monotone_metric(QUASI_BURES, BlochSpherical(0.0, 0.0, 0.0))
        with pytest.raises(DegenerateCoordinatesError):
            monotone_metric(HELSTROM, BlochSpherical(0.5, 0.0, 0.0))

    def test_custom_metric_profile(self):
        kind = custom_metric(lambda s: 1.0 + s)
        assert g_function(kind, 0.5) == 1.5


class TestGFunction:
    def test_fitted_values_at_s_equal_one(self):
        assert g_function(FITTED_N4, 1.0) == pytest.approx(29.0 / 48.0, rel=1e-14)
        assert g_function(FITTED_N6, 1.0) == pytest.approx(950.0 / 1440.0, rel=1e-14)
        # per-copy N=2 profile 1/(1+s)
        assert g_function(HELSTROM, 1.0) / 2.0 == pytest.approx(0.5)

    def test_yuen_lax_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            g_function(YUEN_LAX, 0.0)

    def test_profiles_strictly_decreasing(self):
        grid = np.linspace(0.01, 1.0, 150)
        for kind in (HELSTROM, YUEN_LAX, QUASI_BURES, FITTED_N4, FITTED_N6):
            vals = [g_function(kind, s) for s in grid]
            assert all(b < a for a, b in zip(vals, vals[1:])), kind.name

    def test_array_input_equals_float_input(self):
        # numpy's scalar and array power loops may round differently in the last place
        grid = np.linspace(0.01, 1.0, 150)
        for kind in (HELSTROM, YUEN_LAX, QUASI_BURES, FITTED_N4, FITTED_N6):
            floats = [g_function(kind, s) for s in grid]
            assert all(type(g) is float for g in floats)
            np.testing.assert_allclose(g_function(kind, grid), floats, rtol=1e-14, atol=0.0)

    def test_fit_ordering(self):
        for s in np.linspace(0.01, 1.0, 50):
            n2 = g_function(HELSTROM, s) / 2.0
            assert g_function(FITTED_N6, s) > g_function(FITTED_N4, s) > n2


class TestPureStates:
    def test_m2_matrix(self):
        assert np.allclose(pure_helstrom_m2(math.pi / 2).entries, np.eye(2))
        assert np.allclose(pure_helstrom_m2(math.pi / 6).entries, np.diag([1.0, 0.25]))

    def test_m2_n_copy_scaling(self):
        theta = 1.234
        n = 4
        scaled = (n / 2.0) * pure_helstrom_m2(theta).entries
        assert np.allclose(scaled, np.diag([2.0, 2.0 * math.sin(theta) ** 2]))

    def test_m3_at_equator_diagonal_angle(self):
        m = pure_helstrom_m3(math.pi / 2, math.pi / 4).entries
        assert m[0, 0] == pytest.approx(4.0)
        assert m[1, 1] == pytest.approx(4.0)
        assert m[2, 2] == pytest.approx(1.0)
        assert m[3, 3] == pytest.approx(1.0)
        assert m[2, 3] == pytest.approx(-1.0)

    def test_m3_polar_degeneration(self):
        m = pure_helstrom_m3(0.0, 0.7).entries
        assert np.allclose(m, np.diag([4.0, 0.0, 0.0, 0.0]), atol=1e-14)

    def test_m3_lower_block_psd_on_grid(self):
        for theta in np.linspace(0.05, math.pi - 0.05, 12):
            for phi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                block = pure_helstrom_m3(theta, phi).entries[2:, 2:]
                assert np.linalg.det(block) >= -1e-12
                assert np.linalg.eigvalsh(block)[0] >= -1e-12

    def test_m3_matches_projective_metric_oracle(self):
        # 4 * (Fubini-Study metric) by finite differences of the state vector;
        # evaluated at several chi values to confirm chi never enters
        def state(theta, phi, chi1, chi2):
            return np.array([
                np.exp(1j * chi1) * np.sin(theta) * np.cos(phi),
                np.exp(1j * chi2) * np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ])

        def oracle(theta, phi, chi1, chi2, h=1e-6):
            pars = np.array([theta, phi, chi1, chi2])
            ders = []
            for k in range(4):
                dp = np.zeros(4)
                dp[k] = h
                ders.append((state(*(pars + dp)) - state(*(pars - dp))) / (2 * h))
            psi = state(*pars)
            m = np.empty((4, 4))
            for i in range(4):
                for j in range(4):
                    m[i, j] = 4.0 * np.real(
                        np.vdot(ders[i], ders[j])
                        - np.vdot(ders[i], psi) * np.vdot(psi, ders[j]))
            return 0.5 * (m + m.T)

        for theta, phi in ((0.7, 0.3), (2.2, 5.1), (math.pi / 2, math.pi / 4)):
            got = pure_helstrom_m3(theta, phi).entries
            for chi in ((0.0, 0.0), (1.3, 2.1)):
                assert np.allclose(got, oracle(theta, phi, *chi), atol=1e-7)


class TestFeasibility:
    # quadrinomial_model: its information 4*H_q fits under the N-copy cap N*H_q iff N >= 4
    @pytest.mark.parametrize("n,expected", [(1, False), (2, False), (3, False),
                                            (4, True), (5, True), (10, True)])
    def test_quadrinomial_povm_feasibility(self, n, expected):
        quad = quadrinomial_model()
        for v in ((0.3, 0.2, 0.1), (-0.5, 0.4, 0.6), (0.05, -0.9, 0.2)):
            c = BlochCartesian(*v)
            cap = InfoMatrix(n * helstrom_cartesian(c).entries, "cartesian")
            assert (dominance_check(cap, fisher_information(quad, c)) >= -1e-9) is expected
