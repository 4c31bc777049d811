"""Tests for the universal-coding priors, information scalars, and redundancies."""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from qig import coding
from qig.bloch import BlochSpherical
from qig.coding import (
    CLASSICAL_RATIO,
    JEFFREYS,
    QUASI_BURES_CONSTANT,
    QUASI_BURES_PRIOR,
    classical_info_determinant,
    classical_redundancy,
    custom_prior,
    endpoint_asymptotics,
    nats_to_bits,
    prior_normalization,
    prior_value,
    quantum_info_scalar,
    quantum_redundancy,
    quasi_bures_constant_quadrature,
)

UNIFORM_BALL = custom_prior(lambda r: 3.0 / (4.0 * math.pi), "uniform")


class TestInfoDeterminant:
    def test_value_at_equator(self):
        s = BlochSpherical(0.5, math.pi / 2, 0.0)
        assert classical_info_determinant(s) == pytest.approx(16 / 3, rel=1e-12)

    def test_ratio_to_helstrom_determinant_is_64(self):
        from qig.infogeo import helstrom_spherical
        for r, theta in ((0.3, 1.0), (0.8, 2.5)):
            s = BlochSpherical(r, theta, 0.7)
            det_h = np.linalg.det(helstrom_spherical(s).entries)
            assert classical_info_determinant(s) / det_h == pytest.approx(64.0, rel=1e-10)

    def test_vanishes_at_origin(self):
        assert classical_info_determinant(BlochSpherical(1e-6, 1.0, 0.0)) < 1e-20


class TestPriors:
    def test_jeffreys_normalizes_to_one(self):
        assert prior_normalization(JEFFREYS) == pytest.approx(1.0, abs=1e-6)

    def test_quasi_bures_normalizes_to_one(self):
        assert prior_normalization(QUASI_BURES_PRIOR) == pytest.approx(1.0, abs=1e-4)

    def test_jeffreys_proportional_to_root_determinant(self):
        for r, theta in ((0.3, 1.1), (0.7, 2.0)):
            s = BlochSpherical(r, theta, 0.5)
            ratio = prior_value(JEFFREYS, s) / math.sqrt(classical_info_determinant(s))
            assert ratio == pytest.approx(1.0 / (8.0 * math.pi ** 2), rel=1e-12)

    def test_quasi_bures_radial_factor_finite_at_center(self):
        # ((1-r)/(1+r))^(1/2r) -> 1/e, so w(r) -> K * e * (1/e) = K
        w = coding.radial_weight(QUASI_BURES_PRIOR, 1e-9)
        assert w == pytest.approx(QUASI_BURES_CONSTANT, rel=1e-6)

    def test_constant_recomputed_by_quadrature(self):
        assert quasi_bures_constant_quadrature() == pytest.approx(
            QUASI_BURES_CONSTANT, abs=2e-7)

    def test_prior_value_domain(self):
        with pytest.raises(ValueError):
            prior_value(JEFFREYS, BlochSpherical(0.0, 0.0, 0.0))


class TestClassicalRedundancy:
    def test_jeffreys_is_point_independent(self):
        a = classical_redundancy(100, BlochSpherical(0.2, 0.4, 1.0))
        b = classical_redundancy(100, BlochSpherical(0.9, 2.8, 5.0))
        assert a == pytest.approx(b, abs=1e-9)

    def test_jeffreys_closed_form(self):
        got = classical_redundancy(100, BlochSpherical(0.5, 1.0, 0.0))
        want = 1.5 * math.log(100 / (2 * math.pi * math.e)) + math.log(8 * math.pi ** 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_uniform_prior_straddles_jeffreys(self):
        # minimax property: a non-Jeffreys prior is above at some points,
        # below at others
        jeff = classical_redundancy(50, BlochSpherical(0.5, math.pi / 2, 0.0))
        lo = classical_redundancy(50, BlochSpherical(0.5, math.pi / 2, 0.0), UNIFORM_BALL)
        hi = classical_redundancy(50, BlochSpherical(0.98, math.pi / 2, 0.0), UNIFORM_BALL)
        assert (lo - jeff) * (hi - jeff) < 0

    def test_ratio_identity(self):
        for r, theta in ((0.25, 0.9), (0.75, 2.1)):
            s = BlochSpherical(r, theta, 3.0)
            lhs = classical_info_determinant(s)
            rhs = CLASSICAL_RATIO * prior_value(JEFFREYS, s) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestQuantumScalars:
    def test_ratio_identity_with_tabulated_constant(self):
        for r, theta in ((0.2, 1.0), (0.6, 2.2), (0.9, 0.4)):
            s = BlochSpherical(r, theta, 1.0)
            lhs = quantum_info_scalar(r) * r ** 4 * math.sin(theta) ** 2
            rhs = coding.QUANTUM_RATIO * prior_value(QUASI_BURES_PRIOR, s) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_quantum_term_below_classical(self):
        for r in np.linspace(0.01, 0.99, 50):
            quantum = 0.5 * math.log(quantum_info_scalar(r))
            classical = 0.5 * math.log(64 / (1 - r * r))
            assert quantum < classical

    def test_domain(self):
        with pytest.raises(ValueError):
            quantum_info_scalar(0.0)
        with pytest.raises(ValueError):
            quantum_info_scalar(1.0)


class TestQuantumRedundancy:
    def test_doubling_n_adds_three_halves_log_two(self):
        a = quantum_redundancy(100, 0.4)
        b = quantum_redundancy(200, 0.4)
        assert b - a == pytest.approx(1.5 * math.log(2.0), abs=1e-12)

    def test_below_classical_with_matched_priors(self):
        # difference of the information terms is the only point dependence
        for r in (0.2, 0.5, 0.8):
            s = BlochSpherical(r, 1.1, 0.7)
            quantum = quantum_redundancy(100, r, QUASI_BURES_PRIOR)
            classical = classical_redundancy(100, s, JEFFREYS)
            gap = (0.5 * math.log(quantum_info_scalar(r))
                   - 0.5 * math.log(64 / (1 - r * r)))
            assert gap < 0
            assert quantum - classical == pytest.approx(
                gap - math.log(prior_value(QUASI_BURES_PRIOR, s))
                + math.log(prior_value(JEFFREYS, s)), abs=1e-9)

    def test_accepts_bare_radial_function(self):
        w = lambda r: 1.0
        got = quantum_redundancy(10, 0.5, w)
        want = 1.5 * math.log(10 / (2 * math.pi * math.e)) \
            + 0.5 * math.log(quantum_info_scalar(0.5))
        assert got == pytest.approx(want, abs=1e-12)


class TestEndpointAsymptotics:
    def test_pure_jeffreys(self):
        n = math.e ** 2
        got = endpoint_asymptotics("pure_jeffreys", n)
        assert got == pytest.approx(3 + 0.5 * math.log(math.pi) - 2 * math.log(2), abs=1e-12)

    def test_pure_continuous(self):
        got = endpoint_asymptotics("pure_continuous", 10, w_endpoint=1.0)
        assert got == pytest.approx(2 * math.log(10) - 3 * math.log(2) - math.log(math.pi))

    def test_mixed(self):
        got = endpoint_asymptotics("mixed", 100, w_endpoint=1.0)
        assert got == pytest.approx(1.5 * math.log(100 / (2 * math.pi * math.e)))

    def test_missing_prior_value(self):
        with pytest.raises(ValueError):
            endpoint_asymptotics("mixed", 100)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            endpoint_asymptotics("sideways", 100, w_endpoint=1.0)


class TestUnits:
    def test_nats_to_bits(self):
        assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0)
        assert nats_to_bits(1.0) == pytest.approx(1.4427, abs=1e-4)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [48, 72, 96])
    def test_nodes_and_weights_match_scipy(self, order):
        x, w = coding._legendre(order)
        x_ref, w_ref = roots_legendre(order)
        assert np.max(np.abs(x - x_ref)) <= 2e-16
        # the two weight algorithms differ by 1.8e-13 (order 48) to 1.1e-12 (72, 96)
        assert np.max(np.abs(w / w_ref - 1.0)) <= 2e-12

    def test_cached_arrays_are_read_only(self):
        x, w = coding._legendre(48)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert coding._legendre(48)[0] is x
