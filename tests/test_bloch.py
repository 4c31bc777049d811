"""Tests for Bloch-ball coordinates, Jacobians, and congruence transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig.bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    InvalidStateError,
    congruence_to_spherical,
    jacobian,
    to_cartesian,
    to_spherical,
)

interior_coords = st.tuples(
    st.floats(-0.57, 0.57), st.floats(-0.57, 0.57), st.floats(-0.57, 0.57),
).filter(lambda v: 1e-3 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) < 0.99
         and abs(v[0]) < 0.99 * math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))

_tiny = st.floats(-1e-6, 1e-6)
seam_coords = st.one_of(
    # phi wrap: z -> 0 from below with y > 0, where atan2 returns just under 0
    st.tuples(st.floats(-0.7, 0.7), st.floats(1e-3, 0.7),
              st.floats(-1e-6, 0.0, exclude_max=True)),
    # theta -> 0 and theta -> pi: y, z -> 0 with x of either sign
    st.tuples(st.floats(0.01, 0.99), _tiny, _tiny),
    st.tuples(st.floats(-0.99, -0.01), _tiny, _tiny),
)


class TestStateTypes:
    def test_ball_membership_validated(self):
        with pytest.raises(InvalidStateError):
            BlochCartesian(0.8, 0.8, 0.8)

    def test_pure_state_is_allowed(self):
        assert BlochCartesian(1.0, 0.0, 0.0).is_pure

    def test_spherical_ranges_validated(self):
        with pytest.raises(InvalidStateError):
            BlochSpherical(1.2, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            BlochSpherical(0.5, -0.1, 0.0)
        with pytest.raises(InvalidStateError):
            BlochSpherical(0.5, 1.0, 2.0 * math.pi)

    def test_degenerate_flags(self):
        assert BlochSpherical(0.0, 0.0, 0.0).is_degenerate
        assert BlochSpherical(0.5, 0.0, 0.0).is_degenerate
        assert BlochSpherical(0.5, math.pi, 0.0).is_degenerate
        assert not BlochSpherical(0.5, 1.0, 0.0).is_degenerate


class TestToSpherical:
    def test_polar_axis_case(self):
        s = to_spherical(BlochCartesian(1.0, 0.0, 0.0))
        assert (s.r, s.theta, s.phi) == (1.0, 0.0, 0.0)

    def test_origin_is_degenerate(self):
        s = to_spherical(BlochCartesian(0.0, 0.0, 0.0))
        assert (s.r, s.theta, s.phi) == (0.0, 0.0, 0.0)
        assert s.is_degenerate

    def test_y_axis_point(self):
        s = to_spherical(BlochCartesian(0.0, 0.5, 0.0))
        assert s.r == pytest.approx(0.5, abs=1e-15)
        assert s.theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert s.phi == pytest.approx(0.0, abs=1e-15)


class TestToCartesian:
    def test_polar_axis(self):
        c = to_cartesian(BlochSpherical(1.0, 0.0, 0.0))
        assert (c.x, c.y, c.z) == (1.0, 0.0, 0.0)

    def test_equatorial_points(self):
        c = to_cartesian(BlochSpherical(0.5, math.pi / 2, 0.0))
        assert np.allclose([c.x, c.y, c.z], [0.0, 0.5, 0.0], atol=1e-15)
        c = to_cartesian(BlochSpherical(0.5, math.pi / 2, math.pi / 2))
        assert np.allclose([c.x, c.y, c.z], [0.0, 0.0, 0.5], atol=1e-15)

    @given(interior_coords)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, v):
        c = BlochCartesian(*v)
        back = to_cartesian(to_spherical(c))
        assert np.allclose(back.as_array(), c.as_array(), atol=1e-12)

    @given(seam_coords)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_at_the_seams(self, v):
        c = BlochCartesian(*v)
        s = to_spherical(c)
        assert 0.0 <= s.phi < 2.0 * math.pi
        back = to_cartesian(s)
        assert np.max(np.abs(back.as_array() - c.as_array())) <= 1e-12

    @given(st.floats(0.01, 0.99), st.floats(0.05, 3.0), st.floats(0.0, 6.28))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_from_spherical(self, r, theta, phi):
        s = BlochSpherical(r, theta, phi)
        back = to_spherical(to_cartesian(s))
        assert back.r == pytest.approx(r, abs=1e-12)
        assert back.theta == pytest.approx(theta, abs=1e-12)
        assert math.sin(back.phi - phi) == pytest.approx(0.0, abs=1e-12)


class TestJacobian:
    def test_determinant_is_r2_sin_theta(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.0)
        assert np.linalg.det(jacobian(s)) == pytest.approx(0.25, abs=1e-14)
        s = BlochSpherical(1.0, math.pi / 2, 2.1)
        assert np.linalg.det(jacobian(s)) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(0.01, 0.99), st.floats(0.05, 3.0), st.floats(0.0, 6.2))
    @settings(max_examples=150, deadline=None)
    def test_determinant_everywhere(self, r, theta, phi):
        s = BlochSpherical(r, theta, phi)
        expected = r * r * math.sin(theta)
        assert np.linalg.det(jacobian(s)) == pytest.approx(expected, rel=1e-10)

    def test_first_column_is_radial_direction(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.0)
        assert np.allclose(jacobian(s)[:, 0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_degenerate_points_refused(self):
        with pytest.raises(DegenerateCoordinatesError):
            jacobian(BlochSpherical(0.0, 1.0, 1.0))
        with pytest.raises(DegenerateCoordinatesError):
            jacobian(BlochSpherical(0.5, math.pi, 0.0))


class TestInfoMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                       "cartesian")

    def test_dim_matches_coords(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.eye(3), "pure-m2")
        assert InfoMatrix(np.eye(2), "pure-m2").dim == 2

    def test_entries_are_read_only(self):
        m = InfoMatrix(np.eye(3), "cartesian")
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


class TestCongruence:
    def test_identity_becomes_jtj(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.0)
        j = jacobian(s)
        got = congruence_to_spherical(InfoMatrix(np.eye(3), "cartesian"), s)
        assert np.allclose(got.entries, j.T @ j, atol=1e-14)
        assert got.coords == "spherical"

    def test_requires_cartesian_input(self):
        s = BlochSpherical(0.5, 1.0, 0.0)
        m = InfoMatrix(np.eye(3), "spherical")
        with pytest.raises(ValueError):
            congruence_to_spherical(m, s)

    def test_trace_of_g_inverse_f_is_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.uniform(-0.5, 0.5, 3)
            s = to_spherical(BlochCartesian(*v))
            if s.is_degenerate:
                continue
            a = rng.normal(size=(3, 3))
            g_cart = a @ a.T + 3.0 * np.eye(3)   # random PD
            f_sym = rng.normal(size=(3, 3))
            f_cart = 0.5 * (f_sym + f_sym.T)
            trace_cart = np.trace(np.linalg.inv(g_cart) @ f_cart)
            g_sph = congruence_to_spherical(InfoMatrix(g_cart, "cartesian"), s).entries
            f_sph = congruence_to_spherical(InfoMatrix(f_cart, "cartesian"), s).entries
            trace_sph = np.trace(np.linalg.inv(g_sph) @ f_sph)
            assert trace_sph == pytest.approx(trace_cart, rel=1e-9)
