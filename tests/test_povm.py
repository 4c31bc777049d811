"""Tests for the optimal-measurement families and closed-form Fisher matrices."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from qig import analysis, bloch, coding, infogeo, povm
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


#: points across the closed ball: a direction and a radius in [0, 1]
closed_ball_points = st.builds(
    lambda r, theta, phi: bloch.to_cartesian(BlochSpherical(r, theta, phi)),
    st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True))

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


class TestModelProperties:
    """Every measurement model is a probability distribution over the closed ball."""

    @pytest.mark.parametrize("model", [povm.vidal_model(2), povm.vidal_model(3),
                                       infogeo.quadrinomial_model()],
                             ids=lambda m: m.name)
    @settings(max_examples=200, deadline=None)
    @given(c=closed_ball_points)
    def test_probabilities_and_gradient_columns(self, model, c):
        p = model.eval(c)
        assert np.all(p >= -1e-12)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(np.abs(model.grad(c).sum(axis=0)) <= 1e-12)


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

    def test_copy_counts_beyond_the_cap_are_refused(self):
        with pytest.raises(UnsupportedNError):
            fisher_closed_form(21, BlochCartesian(0.1, 0.1, 0.1))


# The paper's literal odd-N residual cells, the oracle for povm's sector-sum
# profiles.  The source gives only the (1,1) and (1,2) cells of R_5; the family is
# invariant under permutations of (x, y, z) with outcome relabelling, so
#   (2,2) = (1,1) with x<->y,  (3,3) = (1,1) with x<->z,
#   (1,3) = (1,2) with y<->z,  (2,3) = (1,2) under the cycle x->y->z->x.
# Integer literals keep every cell exact on Fractions.

def _paper_r3(x, y, z):
    den = 2 * ((x + y + z) ** 2 - 3)
    d = 2 * (1 - x * y - x * z - y * z) / den
    o = (x * x + y * y + z * z - 1) / den
    return [[d, o, o], [o, d, o], [o, o, d]]


def _paper_r5_diag(x, y, z):
    return -2 * (
        -20 + 7 * y ** 4 + 9 * y ** 3 * z - 11 * z ** 2 + 7 * z ** 4
        - 5 * x ** 3 * (y + z)
        + 3 * y * z * (5 + 3 * z ** 2)
        + 3 * x * (y + z) * (5 + 3 * y ** 2 + 3 * z ** 2)
        + x ** 2 * (10 + 7 * y ** 2 - 5 * y * z + 7 * z ** 2)
        + y ** 2 * (-11 + 14 * z ** 2)
    )


def _paper_r5_off(x, y, z):
    return (
        -5 * x ** 4 + 14 * x ** 3 * y
        + 2 * x ** 2 * (5 + 9 * y ** 2 + 14 * y * z - 5 * z ** 2)
        - 5 * (-1 + y ** 2 + z ** 2) ** 2
        + 14 * x * y * (-3 + (y + z) ** 2)
    )


def _paper_r5(x, y, z):
    den = 16 * ((x + y + z) ** 2 - 3)
    d = [_paper_r5_diag(x, y, z), _paper_r5_diag(y, x, z), _paper_r5_diag(z, y, x)]
    o = [_paper_r5_off(x, y, z), _paper_r5_off(x, z, y), _paper_r5_off(y, z, x)]
    cells = [[d[0], o[0], o[1]], [o[0], d[1], o[2]], [o[1], o[2], d[2]]]
    return [[t / den for t in row] for row in cells]


# The paper's even-N residual cells, with integer literals for Fractions.

def _paper_r4(x, y, z):
    d = [(-7 - 5 * y * y - 5 * z * z) / 12, (-7 - 5 * x * x - 5 * z * z) / 12,
         (-7 - 5 * x * x - 5 * y * y) / 12]
    return [[d[0], 5 * x * y / 12, 5 * x * z / 12],
            [5 * x * y / 12, d[1], 5 * y * z / 12],
            [5 * x * z / 12, 5 * y * z / 12, d[2]]]


def _paper_r6(x, y, z):
    def diag(p, q, w):
        s = q * q + w * w
        return (-125 - 146 * s + 31 * s * s + p * p * (47 + 31 * s)) / 120

    k = (193 - 31 * (x * x + y * y + z * z)) / 120
    return [[diag(x, y, z), k * x * y, k * x * z],
            [k * x * y, diag(y, x, z), k * y * z],
            [k * x * z, k * y * z, diag(z, x, y)]]


_PAPER_RESIDUALS = {3: _paper_r3, 4: _paper_r4, 5: _paper_r5, 6: _paper_r6}


def _invariant_exact(n, v):
    """A I + B v v^T + C J / (3 - s^2) from povm's profile, in Fractions."""
    a, b, c = povm._profile(n, sum(t * t for t in v))
    k = c / (3 - sum(v) ** 2)
    return [[a * (i == j) + b * v[i] * v[j] + k for j in range(3)] for i in range(3)]


def rational_points(n=60, seed=11):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = [Fraction(int(p), 101) for p in rng.integers(-100, 101, 3)]
        if sum(t * t for t in v) < 1:
            pts.append(v)
    return pts


class TestResidualOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_profiles_are_exact_on_fractions(self, n):
        profiles = povm._profile(n, Fraction(1, 4))
        if n % 2 == 0:
            profiles += povm._even_profile(n, Fraction(1, 4))
        assert all(type(t) is Fraction for t in profiles)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_invariant_form_equals_paper_cells_exactly(self, n):
        for v in rational_points():
            assert _invariant_exact(n, v) == _PAPER_RESIDUALS[n](*v), v

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("tilt", [0.0, 1e-3])
    def test_kernel_is_accurate_near_the_axis(self, n, tilt):
        # 3 - s^2 vanishes like 1 - r^2 along a = (1,1,1)/sqrt(3) while R_N
        # stays bounded for N >= 5; the kernel must not lose digits to that
        # cancellation.  The oracle is the paper's cells for N = 5 and the
        # profile in Fractions for N = 7.  (R_3's J term tends to a
        # direction-dependent limit there, so its value is ill-conditioned in
        # v itself and has no such bound.)
        oracle = _paper_r5 if n == 5 else lambda *v: _invariant_exact(7, v)
        direction = np.array([1.0, 1.0, 1.0 + tilt])
        direction /= np.linalg.norm(direction)
        for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            v = (1.0 - h) * direction
            exact = np.array(oracle(*(Fraction(t) for t in v)), dtype=float)
            gap = np.abs(povm.residual_batch(n, v) - exact)
            assert np.max(gap) <= 1e-14 * np.max(np.abs(exact)), (h, np.max(gap))

    @pytest.mark.parametrize("n", [3, 5])
    @given(ball_batches)
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, n, pts):
        # F_N(P v) = P F_N(v) P^T for every coordinate permutation P, up to
        # the roundoff of summing x^2 + y^2 + z^2 in another order
        v = np.array(pts)
        f = povm.closed_form_batch(n, v)
        tol = 1e-13 * np.max(np.abs(f), axis=(1, 2))[:, None, None]
        for perm in itertools.permutations(range(3)):
            p = np.eye(3)[list(perm)]
            assert np.all(np.abs(povm.closed_form_batch(n, v @ p.T) - p @ f @ p.T) <= tol)


def _paper_fisher(n, v):
    """F_N = (N-1) H_q + R_N from the paper's cells, H_q = I + v v^T / (1 - r^2)."""
    r2 = sum(t * t for t in v)
    res = _PAPER_RESIDUALS[n](*v)
    return [[(n - 1) * ((i == j) + v[i] * v[j] / (1 - r2)) + res[i][j] for j in range(3)]
            for i in range(3)]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _ratio_eigenvalues(n, r2, t2):
    """The three eigenvalues of H_q^{-1} F_N as arrays, assembled from povm's profile parts:
    (a, a, b) of _even_profile for even N, lam0 and lam0 + m -+ sqrt(d) for odd N."""
    if n % 2 == 0:
        b, a = povm._even_profile(n, r2)
        return np.broadcast_arrays(a, a, b)
    lam0, m, d = povm._odd_ratio_parts(n, *povm._profile(n, r2), r2, t2)
    root = np.sqrt(np.maximum(d, 0.0))
    return np.broadcast_arrays(lam0, lam0 + m - root, lam0 + m + root)


def _spectrum_sum_product(n, r2, t2):
    """Sum and product of povm's eigenvalues of H_q^{-1} F_N, exact on Fractions."""
    if n % 2 == 0:
        b, a = povm._even_profile(n, r2)
        return 2 * a + b, a * a * b
    lam0, m, d = povm._odd_ratio_parts(n, *povm._profile(n, r2), r2, t2)
    return 3 * lam0 + 2 * m, lam0 * ((lam0 + m) ** 2 - d)


def spectrum_points():
    axis = [[Fraction(k, 19)] * 3 for k in range(-10, 11, 4)]
    x_axis = [[Fraction(k, 7), Fraction(0), Fraction(0)] for k in (-6, -1, 0, 3, 6)]
    return rational_points(50, seed=23) + axis + x_axis


class TestRatioSpectrum:
    """The eigenvalues of H_q^{-1} F_N that the dominating scalar and odd-N volumes use."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sum_and_product_match_the_paper_cells_exactly(self, n):
        # tr(H_q^{-1} F_N) and det(H_q^{-1} F_N) = (1 - r^2) det F_N, H_q^{-1} = I - v v^T
        for v in spectrum_points():
            r2 = sum(t * t for t in v)
            f = _paper_fisher(n, v)
            trace = sum(f[i][i] for i in range(3)) - sum(
                v[i] * f[i][j] * v[j] for i in range(3) for j in range(3))
            assert _spectrum_sum_product(n, r2, sum(v) ** 2 / 3) == (
                trace, (1 - r2) * _det3(f)), v

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @given(st.floats(0.0, 0.999), st.floats(0.0, math.pi),
           st.floats(0.0, 2 * math.pi, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_matches_eigenvalues_of_the_matrix_ratio(self, n, r, theta, phi):
        v = bloch.to_cartesian(BlochSpherical(r, theta, phi)).as_array()
        ratio = np.linalg.solve(infogeo.helstrom_batch(v), povm.closed_form_batch(n, v))
        want = np.sort(np.linalg.eigvals(ratio).real)
        got = np.sort(_ratio_eigenvalues(n, v @ v, np.sum(v) ** 2 / 3))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("n", range(3, 20, 2))
    def test_determinant_is_accurate_at_the_outermost_volume_node(self, n):
        # the odd-N volume integrates sqrt(lam0 ((lam0 + m)^2 - d)) up to these nodes:
        # across the axis, at the extreme folded mu nodes and on the axis (t = r); a 3x3
        # LU of F_N, whose entries grow like 1/(1 - r^2), keeps only about 1e-10
        # relative accuracy there
        for order in (48, 72, 144):
            u, _ = coding._gl_nodes(order, 0.0, 0.5 * math.pi)
            mu = coding._legendre(order)[0][order // 2:]  # the folded mu nodes, mu >= 0
            r2 = math.sin(u[-1]) ** 2
            for t2 in (0.0, r2 * mu[0] ** 2, r2 * mu[-1] ** 2, r2):
                _, got = _spectrum_sum_product(n, r2, t2)  # in floats, as the volume
                _, want = _spectrum_sum_product(n, Fraction(r2), Fraction(t2))
                assert abs(got - want) <= 1e-14 * want, (order, t2, float((got - want) / want))


def _difference_sum_product(n, scalar, r2, t2):
    """Sum and product of povm's eigenvalues of scalar H_q - F_N, exact on Fractions."""
    if n % 2 == 0:
        lam = [x.item() for x in povm._difference_spectrum(n, scalar, r2, t2)]
        return sum(lam), lam[0] * lam[1] * lam[2]
    k, m, d = povm._odd_difference_parts(n, scalar, *povm._profile(n, r2), r2, t2)
    return 3 * k + 2 * m, k * ((k + m) ** 2 - d)


class TestDifferenceSpectrum:
    """The eigenvalues of c H_q - F_N that the dominance scan judges."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sum_and_product_match_the_paper_cells_exactly(self, n):
        for scalar in (n - 1 - Fraction(1, 3), n - Fraction(1, 1000), n + Fraction(2, 7)):
            for v in spectrum_points():
                r2 = sum(t * t for t in v)
                f = _paper_fisher(n, v)
                d = [[scalar * ((i == j) + v[i] * v[j] / (1 - r2)) - f[i][j]
                      for j in range(3)] for i in range(3)]
                assert _difference_sum_product(n, scalar, r2, sum(v) ** 2 / 3) == (
                    sum(d[i][i] for i in range(3)), _det3(d)), (scalar, v)


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
        for n in povm.SUPPORTED_MATRICES:
            assert gm_trace_reference(n, 1.0) == pytest.approx(2 * n - 1)

    def test_monotone_decrease_for_n6_n7(self):
        grid = np.linspace(0.0, 1.0, 101)
        for n in (6, 7):
            vals = [gm_trace_reference(n, r) for r in grid]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_unsupported_n(self):
        for n in (1, 21):
            with pytest.raises(UnsupportedNError):
                gm_trace_reference(n, 0.5)

    def test_array_input_equals_float_input(self):
        grid = np.linspace(0.0, 1.0, 101)
        for n in povm.SUPPORTED_MATRICES:
            floats = [gm_trace_reference(n, r) for r in grid]
            assert all(type(t) is float for t in floats)
            assert np.array_equal(gm_trace_reference(n, grid), floats)


def _trimmed(coeffs) -> list:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _value(p, x):
    """p (coefficients, lowest first) at x by Horner, exact on Fractions."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _derivative(p) -> list:
    return _trimmed([k * c for k, c in enumerate(p)][1:] or [Fraction(0)])


def _remainder(p, q) -> list:
    p = list(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        for i, c in enumerate(q):
            p[len(p) - len(q) + i] -= f * c
        p.pop()  # the leading coefficient, now exactly 0
    return _trimmed(p or [Fraction(0)])


def _roots_between(p, a, b) -> int:
    """Distinct real roots of p in (a, b), by Sturm's theorem; p(a), p(b) must not vanish."""
    assert _value(p, a) != 0 and _value(p, b) != 0
    chain = [_trimmed(p), _derivative(p)]
    while chain[-1] != [0]:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    chain.pop()

    def sign_changes(x):
        signs = [v > 0 for v in (_value(q, x) for q in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return sign_changes(a) - sign_changes(b)


def _exact_trace(n) -> list:
    """T_N = trace(H_q^-1 F_N) = 3(N-1) + (3-x) A + x(1-x) B + C, exact in x = r^2."""
    x = Polynomial([Fraction(0), Fraction(1)])
    a, b, c = povm._profile(n, x)
    return _trimmed((3 * (n - 1) + (3 - x) * a + x * (1 - x) * b + c).coef)


class TestHeadlineCertificate:
    """The abstract's claim, exactly: T_N falls from T_N(0) to 2N - 1 and stays above N."""

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    def test_pure_limit_is_2n_minus_1(self, n):
        assert _value(_exact_trace(n), 1) == 2 * n - 1

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    def test_minimum_is_at_the_pure_limit(self, n):
        t = _exact_trace(n)
        if n < 4:
            assert t == [{2: 3, 3: 5}[n]]
            return
        slope = _derivative(t)
        while slope[0] == 0:  # a root at x = 0 is allowed: divide it out
            slope = slope[1:]
        assert _value(slope, 1) < 0 and _roots_between(slope, 0, 1) == 0

    @pytest.mark.parametrize("n", povm.SUPPORTED_MATRICES)
    def test_exceeds_the_separable_cap_on_the_closed_ball(self, n):
        excess = _exact_trace(n)
        excess[0] -= n
        assert _value(excess, 0) > 0 and _roots_between(excess, 0, 1) == 0

    def test_sturm_count_finds_known_roots(self):
        # (x - 1/3)^2 (x - 1/2)(x + 1): two distinct roots in (0, 1), none at its ends
        p = [Fraction(1)]
        for root in (Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(-1)):
            p = [a - root * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
        assert _roots_between(p, 0, 1) == 2
        assert _roots_between(p, Fraction(2, 5), 1) == 1

    def test_helstrom_kernel_matches_exact_values(self):
        rng = np.random.default_rng(21)
        radii = np.concatenate([rng.uniform(0.01, 1.0, 30), 1.0 - np.geomspace(1e-2, 1e-6, 10)])
        dirs = rng.normal(size=(radii.size, 3))
        pts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        for n in povm.SUPPORTED_MATRICES:
            t = _exact_trace(n)
            got = analysis._gm_trace_batch("helstrom", n, pts)
            for v, g in zip(pts, got):
                want = _value(t, sum(Fraction(c) ** 2 for c in v))
                assert abs(Fraction(g) - want) <= Fraction(1e-15) * want, (n, v)


class TestFullyMixedEntry:
    def test_tabulated_values(self):
        assert fully_mixed_entry11(2, 1.0, 2.0) == 1.0
        assert fully_mixed_entry11(5, 0.3, 0.0) == pytest.approx(108 / 32)
        assert fully_mixed_entry11(3, math.pi / 2, math.pi / 4) == pytest.approx(11 / 6)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7])
    def test_tabulated_matches_matrix_limit(self, n):
        for theta, phi in ((1.1, 0.7), (2.0, 3.9), (math.pi / 2, math.pi / 4)):
            s = BlochSpherical(1e-5, theta, phi)
            f = bloch.congruence_to_spherical(
                fisher_closed_form(n, bloch.to_cartesian(s)), s).entries
            assert f[0, 0] == pytest.approx(fully_mixed_entry11(n, theta, phi), abs=1e-9)
            assert fully_mixed_entry11_limit(n, theta, phi) == pytest.approx(
                fully_mixed_entry11(n, theta, phi), abs=1e-14)

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
    def test_trace_parts_on_the_pure_axis_are_exact(self):
        # 1 - x cos2 = 0 at r = 1 on the axis, where C = 0 and both parts stay finite
        for n in povm.SUPPORTED_MATRICES:
            a = povm._profile(n, Fraction(1))[0]
            first, second = povm._trace_parts(n, Fraction(1), Fraction(1))
            assert type(first) is Fraction and type(second) is Fraction
            assert (first, second) == (n - 1, 2 * (n - 1 + a))

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

