"""Monte Carlo validation of the Cramer-Rao machinery.

Samples joint-measurement outcomes from a :class:`~qig.infogeo.ProbModel`,
fits maximum-likelihood states, and compares the empirical covariance of the
estimates against the inverse Fisher information F^{-1}/M.  For the optimal
two-copy measurement F = H_q, so the run doubles as a direct check that the
quantum Cramer-Rao bound is met with equality per copy pair.

Reproducibility: the bit generator is Philox, a counter-based 64-bit
generator; repetition k draws from ``Philox(key=seed).jumped(k)``, i.e.
streams are split by jumping rather than by reseeding, so the same
(seed, M, R) reproduces every count vector bit-for-bit and repetitions
stay independent.  Repetitions are fitted together as array lanes, the
per-observation information F_hat is summed over those lanes in one call of
the engine's Fisher sum, and reports are deterministic per (seed, M, R).

The likelihood is maximized over the Cartesian ball (radius capped at
1 - 1e-9) by projected gradient ascent from the caller's initial point,
with exact gradients (a complex step through the model's ``formula``, which
must be analytic: +, -, *, /, integer powers and numpy ufuncs, never ``abs``,
comparisons or ``np.maximum``), Barzilai-Borwein steps, and an Armijo
backtracking safeguard.  Models whose probabilities depend only on
(x^2, y^2, z^2) -- the quadrinomial being the canonical case -- have
sign-symmetric likelihoods; the returned branch is the one reachable from
the initial point, which is a property of the model, not a defect of the
optimizer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import infogeo
from .bloch import BlochCartesian
from .infogeo import ProbModel

__all__ = [
    "EstimationRun",
    "MleResult",
    "EfficiencyReport",
    "sample_counts",
    "mle_fit",
    "efficiency_report",
]

#: radial cap keeping iterates strictly inside the ball
BALL_MARGIN = 1e-9


@dataclass(frozen=True)
class EstimationRun:
    """Configuration of a reproducible estimation experiment."""

    model: ProbModel
    truth: BlochCartesian
    trials: int        # outcomes drawn per repetition (M)
    repetitions: int   # independent repetitions (R)
    seed: int

    def __post_init__(self):
        for name, value in (("trials", self.trials), ("repetitions", self.repetitions)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.trials > np.iinfo(np.int64).max:
            raise ValueError(f"trials must be at most {np.iinfo(np.int64).max}, "
                             "the largest count numpy's multinomial sampler takes")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")


def _stream(seed: int, repetition: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(repetition))


def sample_counts(run: EstimationRun, repetition: int = 0) -> np.ndarray:
    """Multinomial(M, p(truth)) outcome counts for one repetition.

    Deterministic per (seed, repetition).  Raises ZeroProbabilityError if
    any outcome probability vanishes at the truth.
    """
    p = run.model.eval(run.truth)
    infogeo._refuse_vanishing(p)
    return _stream(run.seed, repetition).multinomial(run.trials, p / p.sum())


@dataclass(frozen=True)
class MleResult:
    """Outcome of one likelihood maximization."""

    point: BlochCartesian
    converged: bool
    iterations: int
    log_likelihood: float


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (L, 3) arrays, summed in the same order for any L."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _project(v: np.ndarray) -> np.ndarray:
    """Scale the rows of v lying outside radius 1 - BALL_MARGIN back onto it."""
    cap = 1.0 - BALL_MARGIN
    return v * (cap / np.maximum(_norm(v), cap))[:, None]


def _loglik_grad(model: ProbModel, counts: np.ndarray, v: np.ndarray):
    """Multinomial log-likelihoods and exact gradients at the lanes v, shape (L, 3).

    A lane giving probability <= 0 to an observed outcome gets -inf.
    """
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    loglik = np.zeros(len(v))
    grad = np.zeros_like(v)
    partials = zip(*infogeo._partials(model.formula, x, y, z))
    for n_i, term, (dx, dy, dz) in zip(counts.T, model.formula(x, y, z), partials):
        p = np.where(n_i > 0, term, 1.0)  # unobserved: adds 0
        hit = p > 0.0
        p = np.where(hit, p, 1.0)
        loglik += np.where(hit, n_i * np.log(p), -math.inf)
        w = np.where(hit, n_i / p, 0.0)
        grad[:, 0] += w * dx
        grad[:, 1] += w * dy
        grad[:, 2] += w * dz
    return loglik, grad


def _fit_lanes(model, counts, starts, max_iter=500, step_tol=1e-12, grad_tol=1e-7):
    """Projected gradient ascent with BB steps and Armijo backtracking, per lane.

    Lanes are the rows of ``counts`` (L, n_outcomes) and ``starts`` (L, 3).
    Each lane keeps its own step, iteration count and stopping tests, so it
    follows exactly the iterates it would follow alone.  Returns the final
    points, converged flags, iteration counts and log-likelihoods.
    """
    v = _project(np.asarray(starts, dtype=float))
    loglik, grad = _loglik_grad(model, counts, v)
    step = 1.0 / (1.0 + _norm(grad))
    prev_v, prev_grad = np.empty_like(v), np.empty_like(grad)
    converged = np.zeros(len(v), dtype=bool)
    iterations = np.full(len(v), max_iter)
    interior_r2 = (1.0 - BALL_MARGIN) ** 2 * (1.0 - 1e-12)
    live = np.arange(len(v))
    for it in range(1, max_iter + 1):
        done = (_norm(grad[live]) <= grad_tol) & (_dot(v[live], v[live]) < interior_r2)
        converged[live[done]] = True
        iterations[live[done]] = it
        live = live[~done]
        if it > 1:
            s = v[live] - prev_v[live]
            sy = _dot(s, prev_grad[live] - grad[live])
            bb = sy > 0.0
            step[live[bb]] = _dot(s, s)[bb] / sy[bb]
        step[live] = np.clip(step[live], 1e-14, 1e6)
        # Armijo backtracking on the projected step; accepted lanes move in place
        prev_v[live], prev_grad[live] = v[live], grad[live]
        t = step[live]
        pending = np.ones(len(live), dtype=bool)
        for _ in range(80):
            lanes = live[pending]
            trial = _project(v[lanes] + t[pending, None] * grad[lanes])
            ll, g = _loglik_grad(model, counts[lanes], trial)
            ok = ll >= loglik[lanes] + 1e-4 * _dot(grad[lanes], trial - v[lanes])
            v[lanes[ok]], loglik[lanes[ok]], grad[lanes[ok]] = trial[ok], ll[ok], g[ok]
            pending[pending] = ~ok
            if not pending.any():
                break
            t[pending] *= 0.5
        iterations[live[pending]] = it  # no ascent step found: stalled, not converged
        live = live[~pending]
        small = _norm(v[live] - prev_v[live]) <= step_tol
        # stationary; interior points are genuine optima, boundary-pinned ones
        # are flagged (the unconstrained maximizer lies outside)
        stop = live[small]
        converged[stop] = (_dot(v[stop], v[stop]) < interior_r2) \
            | (_norm(grad[stop]) <= grad_tol)
        iterations[stop] = it
        live = live[~small]
        if not live.size:
            break
    return v, converged & np.isfinite(loglik), iterations, loglik


def mle_fit(model: ProbModel, counts, init: BlochCartesian,
            max_iter: int = 500, step_tol: float = 1e-12,
            grad_tol: float = 1e-7) -> MleResult:
    """Maximum-likelihood state for observed outcome counts.

    Maximizes sum_i n_i log p_i(x, y, z) over the ball of radius 1 - 1e-9 by
    projected gradient ascent from ``init``.  ``converged`` is False when the
    ascent exhausted its iterations or stalled against the boundary with an
    outward gradient (degenerate data such as single-outcome counts); the
    last iterate is still returned.
    """
    counts = np.asarray(counts)
    if counts.shape != (model.n_outcomes,):
        raise ValueError(f"counts must have shape ({model.n_outcomes},), got {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError(f"counts must be finite and nonnegative, got {counts.tolist()}")
    if counts.sum() <= 0:
        raise ValueError("counts must total at least one observation")
    v, ok, iters, loglik = _fit_lanes(model, counts[None], init.as_array()[None],
                                      max_iter, step_tol, grad_tol)
    return MleResult(BlochCartesian(*v[0]), bool(ok[0]), int(iters[0]), float(loglik[0]))


@dataclass(frozen=True)
class EfficiencyReport:
    """Empirical covariance of MLEs against the Cramer-Rao bound F^{-1}/M."""

    model: str
    truth: BlochCartesian
    trials: int
    repetitions: int
    seed: int
    empirical_cov: np.ndarray
    crb: np.ndarray
    ratio_diag: np.ndarray
    failures: int
    empirical_fisher: np.ndarray
    gm_trace: float

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "truth": [self.truth.x, self.truth.y, self.truth.z],
            "M": self.trials,
            "R": self.repetitions,
            "seed": self.seed,
            "empirical_cov": self.empirical_cov.tolist(),
            "crb": self.crb.tolist(),
            "ratio_diag": self.ratio_diag.tolist(),
            "failures": self.failures,
            "empirical_fisher": self.empirical_fisher.tolist(),
            "gm_trace": self.gm_trace,
        }


def efficiency_report(run: EstimationRun) -> EfficiencyReport:
    """Run R independent repetitions of (sample, fit) and compare with the CRB.

    Each repetition draws M outcomes on its own pre-split stream; the R MLEs,
    each initialized at the truth, are fitted together as array lanes.  The
    empirical covariance of the R estimates is compared entrywise with
    F(truth)^{-1}/M; ratio_diag holds the three variance ratios
    (asymptotically 1 for an efficient estimator).  gm_trace is
    trace(H_q^{-1} F_hat) with F_hat the repetition-averaged per-observation
    empirical information sum_i (n_i/M) grad(p_i) grad(p_i)^T / p_i^2 at the
    fitted states.
    """
    t, p = run.truth, run.model.eval(run.truth)
    fisher = infogeo._fisher_sum(p, infogeo._partials(run.model.formula, t.x, t.y, t.z))
    expected = run.trials * p
    if expected.min() < 10.0:
        raise ValueError(
            f"smallest expected count {expected.min():.2f} < 10; "
            "increase trials for a meaningful covariance comparison")
    if run.repetitions < 2:
        raise ValueError(f"a covariance needs at least 2 repetitions, got {run.repetitions}")

    counts = np.array([sample_counts(run, k) for k in range(run.repetitions)])
    starts = np.tile(run.truth.as_array(), (run.repetitions, 1))
    points, converged, _, _ = _fit_lanes(run.model, counts, starts)
    cov = np.cov(points, rowvar=False, ddof=1)
    crb = np.linalg.inv(fisher) / run.trials
    p_hat = run.model.eval_xyz(*points.T)
    w = counts.T / run.trials / np.maximum(p_hat, 1e-300) ** 2
    grads = infogeo._partials(run.model.formula, *points.T)
    f_hat = infogeo._fisher_sum(p_hat, grads, w).mean(axis=0)
    h_inv = infogeo.helstrom_inverse(run.truth).entries
    return EfficiencyReport(
        model=run.model.name,
        truth=run.truth,
        trials=run.trials,
        repetitions=run.repetitions,
        seed=run.seed,
        empirical_cov=cov,
        crb=crb,
        ratio_diag=np.diag(cov) / np.diag(crb),
        failures=int(np.count_nonzero(~converged)),
        empirical_fisher=f_hat,
        gm_trace=float(np.trace(h_inv @ f_hat)),
    )
