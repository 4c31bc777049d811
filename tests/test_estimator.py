"""Tests for outcome sampling, maximum-likelihood fitting, and CR efficiency."""

import numpy as np
import pytest

from qig import infogeo, povm
from qig.bloch import BlochCartesian
from qig.estimator import EstimationRun, efficiency_report, mle_fit, sample_counts
from qig.infogeo import ZeroProbabilityError

TRUTH = BlochCartesian(0.3, 0.2, 0.1)


class TestSampling:
    def test_fixed_seed_reproduces_counts(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 4, 3, seed=7)
        assert np.array_equal(sample_counts(run, 1), sample_counts(run, 1))

    def test_repetitions_use_distinct_streams(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 4, 3, seed=7)
        assert not np.array_equal(sample_counts(run, 0), sample_counts(run, 1))

    def test_zero_trials_give_zero_vector(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 0, 1, seed=7)
        assert np.array_equal(sample_counts(run), np.zeros(5, dtype=int))

    def test_concentration_at_large_m(self):
        m = 10 ** 5
        run = EstimationRun(povm.vidal_model(2), TRUTH, m, 1, seed=2024)
        counts = sample_counts(run, 0)
        p = povm.vidal_model(2).eval(TRUTH)
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(counts / m - p) <= 4 * sigma)

    def test_zero_probability_outcome_at_truth(self):
        run = EstimationRun(infogeo.quadrinomial_model(),
                            BlochCartesian(0.0, 0.3, 0.2), 100, 1, seed=1)
        with pytest.raises(ZeroProbabilityError):
            sample_counts(run)


class TestRunValidation:
    @pytest.mark.parametrize("trials,repetitions", [(1.5, 3), (10.0, 3), (10, 2.0)])
    def test_non_integer_sizes_rejected(self, trials, repetitions):
        with pytest.raises(ValueError, match="integer"):
            EstimationRun(povm.vidal_model(2), TRUTH, trials, repetitions, seed=1)

    def test_trials_beyond_int64_rejected(self):
        top = int(np.iinfo(np.int64).max)
        assert EstimationRun(povm.vidal_model(2), TRUTH, top, 2, seed=1).trials == top
        with pytest.raises(ValueError, match="at most"):
            EstimationRun(povm.vidal_model(2), TRUTH, top + 1, 2, seed=1)

    def test_numpy_integers_accepted(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, np.int64(100), np.int32(3), seed=1)
        assert sample_counts(run).sum() == 100


class TestMleFit:
    def test_recovers_truth_from_proportional_counts(self):
        model = povm.vidal_model(2)
        counts = model.eval(TRUTH) * 1000.0  # exactly proportional
        fit = mle_fit(model, counts, BlochCartesian(0.25, 0.25, 0.15))
        assert np.allclose(fit.point.as_array(), TRUTH.as_array(), atol=1e-6)
        assert fit.converged

    def test_quadrinomial_branch_nearest_init(self):
        # probabilities depend on squares only, so (+-0.5)^3 are all maxima;
        # the branch reachable from the initial point wins
        fit = mle_fit(infogeo.quadrinomial_model(), np.array([250, 250, 250, 250]),
                      BlochCartesian(0.4, 0.4, 0.4))
        assert np.allclose(fit.point.as_array(), [0.5, 0.5, 0.5], atol=1e-6)
        assert fit.converged

    def test_single_outcome_counts_hit_boundary_with_degraded_flag(self):
        counts = np.zeros(8)
        counts[0] = 50  # all mass on the (1+x)^3/12 outcome
        fit = mle_fit(povm.vidal_model(3), counts, BlochCartesian(0.2, 0.1, 0.0))
        assert fit.point.r == pytest.approx(1.0, abs=1e-8)
        assert not fit.converged

    def test_iteration_budget_failure_is_reported_not_raised(self):
        model = povm.vidal_model(2)
        counts = sample_counts(EstimationRun(model, TRUTH, 10 ** 4, 1, seed=3))
        fit = mle_fit(model, counts, BlochCartesian(-0.5, -0.5, -0.5), max_iter=1)
        assert not fit.converged

    def test_zero_likelihood_init_is_not_converged(self):
        # p_0 = x^2 vanishes on the whole x = 0 plane, and so does its x-gradient
        fit = mle_fit(infogeo.quadrinomial_model(), np.array([250, 250, 250, 250]),
                      BlochCartesian(0.0, 0.4, 0.4))
        assert fit.log_likelihood == -np.inf
        assert not fit.converged

    def test_count_validation(self):
        model = povm.vidal_model(2)
        with pytest.raises(ValueError):
            mle_fit(model, np.zeros(5), TRUTH)
        with pytest.raises(ValueError):
            mle_fit(model, np.ones(4), TRUTH)

    @pytest.mark.parametrize("bad", [-3.0, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mle_fit(infogeo.quadrinomial_model(), [bad, 5, 5, 5], TRUTH)

    def test_unobserved_outcome_is_masked(self):
        # p_0 = x^2 vanishes at the start x = 0, but n_0 = 0 so log p_0 must not count
        fit = mle_fit(infogeo.quadrinomial_model(), np.array([0, 5, 5, 5]),
                      BlochCartesian(0.0, 0.5, 0.5))
        assert fit.converged
        assert np.isfinite(fit.log_likelihood)
        assert np.allclose(fit.point.as_array(), [0.0, 3 ** -0.5, 3 ** -0.5], atol=1e-6)


class TestEfficiencyReport:
    def test_two_copy_model_hits_cramer_rao(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 5, 100, seed=25)
        rep = efficiency_report(run)
        assert np.all(np.abs(rep.ratio_diag - 1.0) <= 0.10)
        assert rep.gm_trace == pytest.approx(3.0, rel=0.05)
        assert rep.failures == 0

    def test_quadrinomial_model_hits_quarter_helstrom_inverse(self):
        run = EstimationRun(infogeo.quadrinomial_model(), TRUTH, 10 ** 5, 100, seed=189)
        rep = efficiency_report(run)
        h = infogeo.helstrom_cartesian(TRUTH).entries
        assert np.allclose(rep.crb, np.linalg.inv(4 * h) / 10 ** 5, rtol=1e-9)
        assert np.all(np.abs(rep.ratio_diag - 1.0) <= 0.10)

    def test_variances_halve_when_trials_double(self):
        model = povm.vidal_model(2)
        rep1 = efficiency_report(EstimationRun(model, TRUTH, 10 ** 5, 100, seed=303))
        rep2 = efficiency_report(EstimationRun(model, TRUTH, 2 * 10 ** 5, 100, seed=1303))
        ratios = np.diag(rep2.empirical_cov) / np.diag(rep1.empirical_cov)
        assert np.all(np.abs(ratios - 0.5) <= 0.075)

    def test_covariance_respects_cramer_rao_band(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 5, 100, seed=25)
        rep = efficiency_report(run)
        slack = np.linalg.eigvalsh(rep.empirical_cov - rep.crb)[0]
        assert slack >= -0.2 * np.linalg.norm(rep.crb, 2)

    def test_determinism_of_full_report(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 4, 10, seed=99)
        a, b = efficiency_report(run), efficiency_report(run)
        assert np.array_equal(a.empirical_cov, b.empirical_cov)
        assert a.gm_trace == b.gm_trace

    def test_batched_lanes_equal_single_fits(self):
        model = povm.vidal_model(2)
        run = EstimationRun(model, TRUTH, 10 ** 4, 8, seed=42)
        report = efficiency_report(run)
        fits = [mle_fit(model, sample_counts(run, k), run.truth) for k in range(8)]
        points = np.array([f.point.as_array() for f in fits])
        assert np.array_equal(np.cov(points, rowvar=False, ddof=1), report.empirical_cov)
        assert sum(not f.converged for f in fits) == report.failures

    @pytest.mark.parametrize("model", [povm.vidal_model(2), povm.vidal_model(3),
                                       infogeo.quadrinomial_model()], ids=lambda m: m.name)
    def test_empirical_fisher_is_the_mean_of_pointwise_sums(self, model):
        run = EstimationRun(model, TRUTH, 10 ** 4, 6, seed=8)
        report = efficiency_report(run)
        want = []
        for k in range(run.repetitions):
            counts = sample_counts(run, k)
            at = mle_fit(model, counts, TRUTH).point
            g = model.grad(at)
            w = counts / run.trials / model.eval(at) ** 2
            want.append((g * w[:, None]).T @ g)
        want = np.mean(want, axis=0)
        assert np.max(np.abs(report.empirical_fisher - want)) <= 1e-14 * np.max(np.abs(want))

    def test_small_expected_counts_rejected(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 20, 5, seed=1)
        with pytest.raises(ValueError):
            efficiency_report(run)

    def test_single_repetition_rejected(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 4, 1, seed=1)
        with pytest.raises(ValueError, match="at least 2 repetitions"):
            efficiency_report(run)

    def test_json_schema(self):
        run = EstimationRun(povm.vidal_model(2), TRUTH, 10 ** 4, 5, seed=11)
        payload = efficiency_report(run).to_json()
        assert set(payload) >= {"model", "truth", "M", "R", "seed", "empirical_cov",
                                "crb", "ratio_diag", "failures"}
        assert payload["M"] == 10 ** 4 and payload["R"] == 5 and payload["seed"] == 11
