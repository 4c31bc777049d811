"""Helstrom and monotone metric tensors, and the Fisher-information engine.

The central objects are the 3x3 quantum (Helstrom) information matrix of a
two-level mixed state,

    H_q(x,y,z) = 1/(1-x^2-y^2-z^2) * [[1-y^2-z^2, x y,        x z       ],
                                      [x y,        1-x^2-z^2, y z       ],
                                      [x z,        y z,       1-x^2-y^2 ]],

which is diagonal, diag(1/(1-r^2), r^2, r^2 sin^2(theta)), in the x-polar
spherical chart, and the classical Fisher information matrix

    I_jk = sum_i  (d_j p_i)(d_k p_i) / p_i

of an outcome distribution p over Bloch-ball states.  The quadrinomial
distribution (x^2, y^2, z^2, 1-r^2) has Fisher information exactly 4*H_q,
which together with additivity rules out any joint measurement on fewer
than four copies realizing it.

The closed forms are array kernels over points of shape (..., 3) or radii
of any shape: :func:`helstrom_batch` and :func:`g_function` (which also
returns a float for a float).  The point-wise functions that take a
:class:`~qig.bloch.BlochCartesian` or :class:`~qig.bloch.BlochSpherical`
validate it, call the kernel and wrap the result in an ``InfoMatrix``.

A one-parameter family of rotationally invariant metrics is exposed through
``MetricKind``: each kind is a radial profile g(s), s = (1-r)/(1+r), and the
metric tensor is diag(1/(1-r^2), r^2 g(s)/(1+r), r^2 g(s) sin^2(theta)/(1+r)).
g(s) = 2/(1+s) reproduces the Helstrom matrix (minimal/Bures metric),
g(s) = (1+s)/(2s) the right-logarithmic-derivative (Yuen-Lax, maximal)
metric, and g(s) = e*s^(s/(1-s)) the quasi-Bures metric that is minimax for
universal coding of two-level systems.  The fitted_n4/fitted_n6 kinds are
the per-copy profiles extracted from the N=4 and N=6 optimal-measurement
Fisher matrices (see :mod:`qig.povm`); note those two are stated per copy,
i.e. on the scale of g_helstrom/2, not of g_helstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from ._dual import Dual, seed_xyz
from .bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    PureStateError,
)

__all__ = [
    "ProbModel",
    "ZeroProbabilityError",
    "MIN_PROBABILITY",
    "quadrinomial_model",
    "product_model",
    "fisher_information",
    "helstrom_cartesian",
    "helstrom_spherical",
    "helstrom_inverse",
    "helstrom_batch",
    "MetricKind",
    "as_metric_kind",
    "HELSTROM",
    "YUEN_LAX",
    "QUASI_BURES",
    "FITTED_N4",
    "FITTED_N6",
    "custom_metric",
    "g_function",
    "monotone_metric",
    "pure_helstrom_m2",
    "pure_helstrom_m3",
]

#: outcomes with probability at or below this raise ZeroProbabilityError
MIN_PROBABILITY = 1e-12


class ZeroProbabilityError(ValueError):
    """Fisher information requested where some outcome probability vanishes.

    The 0/0 limits of (grad p)^2/p are direction-dependent (the quadrinomial
    at the origin is the canonical case), so offending outcomes raise rather
    than being silently dropped.
    """

    def __init__(self, indices, probabilities):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(
            f"outcome probabilities at indices {self.indices} are below "
            f"{MIN_PROBABILITY:g}: {[float(probabilities[i]) for i in self.indices]}"
        )


@dataclass(frozen=True)
class ProbModel:
    """A parameterized outcome distribution over Bloch-ball states.

    ``formula`` maps coordinates (x, y, z) -- floats, numpy arrays, or
    :class:`~qig._dual.Dual` numbers -- to the sequence of outcome
    probabilities.  Values, exact gradients, and vectorized scans all come
    from this single definition, so the gradients are exact (forward-mode
    dual arithmetic), not finite differences.
    """

    name: str
    n_outcomes: int
    formula: Callable[[object, object, object], Sequence]

    def eval(self, point: BlochCartesian) -> np.ndarray:
        """Outcome probabilities at ``point``, shape (n_outcomes,)."""
        p = np.array([float(t) for t in self.formula(point.x, point.y, point.z)])
        if p.shape != (self.n_outcomes,):
            raise ValueError(f"formula returned {p.shape[0]} outcomes, "
                             f"expected {self.n_outcomes}")
        return p

    def grad(self, point: BlochCartesian) -> np.ndarray:
        """Exact partial derivatives dp_i/d(x,y,z), shape (n_outcomes, 3)."""
        x, y, z = seed_xyz(point.x, point.y, point.z)
        out = np.zeros((self.n_outcomes, 3))
        for i, t in enumerate(self.formula(x, y, z)):
            if isinstance(t, Dual):
                out[i] = (t.dx, t.dy, t.dz)
        return out

    def eval_xyz(self, x, y, z) -> np.ndarray:
        """Vectorized probabilities; returns shape (n_outcomes,) + broadcast shape."""
        terms = self.formula(x, y, z)
        shape = np.broadcast(np.asarray(x), np.asarray(y), np.asarray(z)).shape
        return np.stack([np.broadcast_to(np.asarray(t, dtype=float), shape)
                         for t in terms])


def quadrinomial_model() -> ProbModel:
    """The four-outcome distribution (x^2, y^2, z^2, 1 - x^2 - y^2 - z^2).

    Its Fisher information equals 4*H_q everywhere all four probabilities
    are positive.  Fisher information is additive and a measurement on N
    copies carries at most N*H_q (the quantum Cramer-Rao cap), so no POVM on
    N < 4 copies has these outcome probabilities.  For N >= 4 the cap no
    longer rules one out; whether one exists is open.
    """
    def formula(x, y, z):
        r2 = x * x + y * y + z * z
        return [x * x, y * y, z * z, 1.0 - r2]

    return ProbModel("quadrinomial", 4, formula)


def product_model(model: ProbModel, copies: int) -> ProbModel:
    """Joint distribution of ``copies`` independent draws from ``model``.

    Outcomes are tuples in lexicographic order; probabilities multiply.
    Fisher information is additive, so the product model carries exactly
    ``copies`` times the information of one draw.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    combos = list(product(range(model.n_outcomes), repeat=copies))

    def formula(x, y, z):
        p = model.formula(x, y, z)
        out = []
        for combo in combos:
            term = p[combo[0]]
            for idx in combo[1:]:
                term = term * p[idx]
            out.append(term)
        return out

    return ProbModel(f"{model.name}^{copies}", len(combos), formula)


def fisher_information(model: ProbModel, c: BlochCartesian,
                       min_probability: float = MIN_PROBABILITY) -> InfoMatrix:
    """Fisher information matrix sum_i (grad p_i)(grad p_i)^T / p_i at ``c``."""
    p = model.eval(c)
    bad = np.flatnonzero(p <= min_probability)
    if bad.size:
        raise ZeroProbabilityError(bad, p)
    g = model.grad(c)
    return InfoMatrix((g / p[:, None]).T @ g, "cartesian")


# ---------------------------------------------------------------------------
# Helstrom information matrix
# ---------------------------------------------------------------------------

def _sym3(d, o):
    """Symmetric [[d0, o0, o1], [o0, d1, o2], [o1, o2, d2]] on the last two axes."""
    shape = np.broadcast_shapes(*(np.shape(t) for t in (*d, *o)))
    out = np.empty(shape + (3, 3))
    for i in range(3):
        out[..., i, i] = d[i]
    for (i, j), v in zip(((0, 1), (0, 2), (1, 2)), o):
        out[..., i, j] = out[..., j, i] = v
    return out


def helstrom_batch(xyz: np.ndarray) -> np.ndarray:
    """H_q at a batch of interior points, shape (..., 3) -> (..., 3, 3)."""
    x, y, z = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    pref = 1.0 / (1.0 - x * x - y * y - z * z)
    return _sym3(
        (pref * (1.0 - y * y - z * z), pref * (1.0 - x * x - z * z),
         pref * (1.0 - x * x - y * y)),
        (pref * x * y, pref * x * z, pref * y * z),
    )


def helstrom_cartesian(c: BlochCartesian) -> InfoMatrix:
    """The quantum (Helstrom) information matrix H_q(x, y, z).

    Four times the Bures metric tensor; the quantum Cramer-Rao bound reads
    V >= H_q^{-1} for any unbiased estimator.  Diverges at the pure states,
    so r < 1 is required.
    """
    if c.r2 >= 1.0:
        raise PureStateError("the Helstrom matrix blows up at pure states (r >= 1)")
    return InfoMatrix(helstrom_batch(c.as_array()), "cartesian")


def _spherical_diag(s: BlochSpherical, radial=1.0, angular=1.0) -> InfoMatrix:
    """diag(radial/(1-r^2), r^2 angular, r^2 angular sin^2 theta) in the x-polar chart.

    Every rotationally invariant matrix here has this form: H_q (1, 1), the
    monotone metrics (1, a(r)) and the even-N Fisher matrices.
    """
    ang = s.r * s.r * angular
    st = math.sin(s.theta)
    return InfoMatrix(
        np.diag([radial / ((1.0 - s.r) * (1.0 + s.r)), ang, ang * st * st]),
        "spherical",
    )


def helstrom_spherical(s: BlochSpherical) -> InfoMatrix:
    """H_q in the x-polar chart: diag(1/(1-r^2), r^2, r^2 sin^2 theta)."""
    if s.r >= 1.0:
        raise PureStateError("the Helstrom matrix blows up at pure states (r >= 1)")
    return _spherical_diag(s)


def helstrom_inverse(c: BlochCartesian) -> InfoMatrix:
    """Closed-form H_q^{-1}; finite on the whole closed ball, r = 1 included."""
    x, y, z = c.x, c.y, c.z
    return InfoMatrix(np.array([
        [1.0 - x * x, -x * y, -x * z],
        [-x * y, 1.0 - y * y, -y * z],
        [-x * z, -y * z, 1.0 - z * z],
    ]), "cartesian")


# ---------------------------------------------------------------------------
# Monotone metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricKind:
    """Selector for the radial profile g(s) of a rotationally invariant metric."""

    name: str
    g: Callable[[float], float] | None = None


HELSTROM = MetricKind("helstrom")
YUEN_LAX = MetricKind("yuen_lax")
QUASI_BURES = MetricKind("quasi_bures")
FITTED_N4 = MetricKind("fitted_n4")
FITTED_N6 = MetricKind("fitted_n6")

_NAMED_KINDS = {k.name: k for k in (HELSTROM, YUEN_LAX, QUASI_BURES,
                                    FITTED_N4, FITTED_N6)}


def custom_metric(g: Callable[[float], float]) -> MetricKind:
    """A metric kind with a caller-supplied profile g: (0, 1] -> (0, inf)."""
    return MetricKind("custom", g)


def as_metric_kind(kind) -> MetricKind:
    """Accept a MetricKind or its name ('yuen-lax' and 'yuen_lax' both work)."""
    if isinstance(kind, MetricKind):
        return kind
    try:
        return _NAMED_KINDS[str(kind).replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown metric kind {kind!r}; "
                         f"expected one of {sorted(_NAMED_KINDS)}") from None


def g_function(kind, s):
    """Evaluate the radial profile g(s) of ``kind`` at s in (0, 1].

    Accepts a float (returns a float) or an array.  The fitted kinds are
    stated per copy (the N=2 analogue on that scale is 1/(1+s) =
    g_helstrom/2); the named metrics are on the metric scale.
    """
    s = np.asarray(s, dtype=float)
    if not np.all((0.0 < s) & (s <= 1.0)):
        raise ValueError(f"g(s) is defined on (0, 1], got s = {s}")
    kind = as_metric_kind(kind)
    if kind.name == "helstrom":
        g = 2.0 / (1.0 + s)
    elif kind.name == "yuen_lax":
        g = (1.0 + s) / (2.0 * s)
    elif kind.name == "quasi_bures":
        # e * s^(s/(1-s)); continuous limit 1 at s = 1
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(s == 1.0, 1.0, np.exp(1.0 + s * np.log(s) / (1.0 - s)))
    elif kind.name == "fitted_n4":
        g = (6.0 + 17.0 * s + 6.0 * s * s) / (6.0 * (1.0 + s) ** 3)
    elif kind.name == "fitted_n6":
        g = ((45.0 + 222.0 * s + 416.0 * s * s + 222.0 * s ** 3 + 45.0 * s ** 4)
             / (45.0 * (1.0 + s) ** 5))
    elif kind.g is None:
        raise ValueError(f"metric kind {kind.name!r} has no profile attached")
    else:
        g = kind.g(s)
    return float(g) if np.ndim(g) == 0 else g


def _angular_scale(kind, r):
    """a(r) = g(s)/(1+r), s = (1-r)/(1+r): the metric's angular entries are r^2 a.

    Exactly 1 for the Helstrom kind, where g(s) = 2/(1+s) = 1+r.
    """
    kind = as_metric_kind(kind)
    if kind.name == "helstrom":
        return 1.0
    return g_function(kind, (1.0 - r) / (1.0 + r)) / (1.0 + r)


def monotone_metric(kind, s_pt: BlochSpherical) -> InfoMatrix:
    """Metric tensor diag(1/(1-r^2), r^2 g(s)/(1+r), r^2 g(s) sin^2(theta)/(1+r)).

    Here s = (1-r)/(1+r).  The helstrom kind reproduces
    :func:`helstrom_spherical` exactly.  Requires 0 < r < 1 and theta in
    (0, pi); endpoint values should be taken as limits (see
    :func:`qig.analysis.limit_trace`).
    """
    kind = as_metric_kind(kind)
    if s_pt.r >= 1.0:
        raise PureStateError("monotone metrics are singular at r = 1; use limits")
    if s_pt.is_degenerate:
        raise DegenerateCoordinatesError(
            f"metric tensor undefined at degenerate point (r={s_pt.r}, theta={s_pt.theta})")
    return _spherical_diag(s_pt, angular=_angular_scale(kind, s_pt.r))


# ---------------------------------------------------------------------------
# Pure-state information matrices
# ---------------------------------------------------------------------------

def pure_helstrom_m2(theta: float) -> InfoMatrix:
    """Helstrom matrix of a two-level pure state in polar coordinates.

    diag(1, sin^2 theta); the Fisher matrix of the optimal joint measurement
    on N copies is exactly N/2 times this.
    """
    st = math.sin(theta)
    return InfoMatrix(np.diag([1.0, st * st]), "pure-m2")


def pure_helstrom_m3(theta: float, phi: float) -> InfoMatrix:
    """Helstrom matrix of a three-level (spin-1) pure state.

    The state is parameterized by four angles (theta, phi, chi_1, chi_2):

        |psi> = e^{i chi_1} sin(theta) cos(phi) |1>
              + e^{i chi_2} sin(theta) sin(phi) |2> + cos(theta) |3>,

    but the matrix depends on theta and phi only, which is why the API takes
    just those two.  Rows/columns are ordered (theta, phi, chi_1, chi_2);
    the (theta, phi) block is diag(4, 4 sin^2 theta) and the (chi_1, chi_2)
    block couples through -sin^4(theta) sin^2(2 phi).
    """
    st = math.sin(theta)
    c2t = math.cos(2.0 * theta)
    cp, sp = math.cos(phi), math.sin(phi)
    trig = (math.cos(2.0 * (theta - phi)) - 2.0 * math.cos(2.0 * phi)
            + math.cos(2.0 * (theta + phi)))
    a = 0.5 * (6.0 + 2.0 * c2t + trig) * st * st * cp * cp
    b = -0.5 * (-6.0 - 2.0 * c2t + trig) * st * st * sp * sp
    off = -(st ** 4) * math.sin(2.0 * phi) ** 2
    m = np.zeros((4, 4))
    m[0, 0] = 4.0
    m[1, 1] = 4.0 * st * st
    m[2, 2] = a
    m[3, 3] = b
    m[2, 3] = m[3, 2] = off
    return InfoMatrix(m, "pure-m3")
