"""Universal-coding redundancy for two-level systems, classical and quantum.

The Clarke-Barron expansion gives the asymptotic relative entropy (in nats)
between a true source in a d-parameter family and the Bayes mixture under a
prior w:

    (d/2) log(N / 2 pi e) + (1/2) log|I(alpha)| - log w(alpha) + o(1).

Applied classically to the quadrinomial family over the Bloch ball (d = 3),
|I_c(r,theta,phi)| = (64/(1-r^2)) r^4 sin^2(theta), and the Jeffreys prior
W_c = r^2 sin(theta) / (pi^2 sqrt(1-r^2)) -- proportional to sqrt|I_c| --
makes the redundancy point-independent: (3/2) log(N/2 pi e) + log(8 pi^2).
Jeffreys is the classical minimax/maximin choice.

The quantum analogue replaces |I_c| with the radial scalar

    I_q(r) = e^2 / (1-r^2)^2 * ((1-r)/(1+r))^(1/r),

which is strictly below its classical counterpart, and the minimax/maximin
prior becomes the quasi-Bures distribution

    W_q = K * e/(1-r^2) * ((1-r)/(1+r))^(1/(2r)) * r^2 sin(theta),

with normalization constant K ~ 0.0832258 (tabulated below and recomputed
by quadrature).  The constant-ratio identities I_q r^4 sin^2(theta) =
(1/K^2) W_q^2 and |I_c| = 64 pi^4 W_c^2 tie the scalars to the priors.

All o(1) terms are dropped throughout: these are the displayed leading
expressions only.  Logarithms are natural (nats); 1 nat = 1/ln 2 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bloch import BlochSpherical

__all__ = [
    "PriorKind",
    "JEFFREYS",
    "QUASI_BURES_PRIOR",
    "custom_prior",
    "QUASI_BURES_CONSTANT",
    "CLASSICAL_RATIO",
    "QUANTUM_RATIO",
    "radial_weight",
    "prior_value",
    "prior_normalization",
    "quasi_bures_constant_quadrature",
    "classical_info_determinant",
    "classical_redundancy",
    "quantum_info_scalar",
    "quantum_redundancy",
    "endpoint_asymptotics",
    "nats_to_bits",
]

#: tabulated quasi-Bures normalization constant (6 printed digits)
QUASI_BURES_CONSTANT = 0.0832258
#: |I_c| / W_c^2, exactly 64 pi^4
CLASSICAL_RATIO = 64.0 * math.pi ** 4
#: I_q r^4 sin^2(theta) / W_q^2 = 1/K^2 at the tabulated K
QUANTUM_RATIO = 144.372


@dataclass(frozen=True)
class PriorKind:
    """A rotationally invariant prior w(r) r^2 sin(theta) over the ball."""

    name: str
    radial: Callable[[float], float] | None = None


def _jeffreys_radial(r: float) -> float:
    return 1.0 / (math.pi ** 2 * math.sqrt((1.0 - r) * (1.0 + r)))


def _ratio_power(r, half: bool = True):
    """((1-r)/(1+r))^(1/(2r)) (or ^(1/r)), cancellation-free via atanh.

    ln((1-r)/(1+r)) = -2 atanh(r), and atanh(r)/r -> 1 smoothly as r -> 0,
    so the r -> 0 limit e^{-1} (resp. e^{-2}) is reached without the 0/0 of
    the naive form.  Accepts scalars or arrays on (0, 1).
    """
    r = np.asarray(r, dtype=float)
    expo = np.arctanh(r) / r
    out = np.exp(-expo if half else -2.0 * expo)
    return float(out) if out.ndim == 0 else out


def _quasi_bures_radial(r: float) -> float:
    return (QUASI_BURES_CONSTANT * math.e / ((1.0 - r) * (1.0 + r))
            * _ratio_power(r, half=True))


JEFFREYS = PriorKind("jeffreys_classical", _jeffreys_radial)
QUASI_BURES_PRIOR = PriorKind("quasi_bures", _quasi_bures_radial)

_NAMED_PRIORS = {"jeffreys_classical": JEFFREYS, "jeffreys": JEFFREYS,
                 "quasi_bures": QUASI_BURES_PRIOR}


def custom_prior(radial: Callable[[float], float], name: str = "custom") -> PriorKind:
    """A prior w(r) r^2 sin(theta) with caller-supplied radial weight w(r)."""
    return PriorKind(name, radial)


def as_prior_kind(kind) -> PriorKind:
    """Accept a PriorKind or its name ('quasi-bures' and 'quasi_bures' both work)."""
    if isinstance(kind, PriorKind):
        return kind
    try:
        return _NAMED_PRIORS[str(kind).replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown prior {kind!r}; expected one of "
                         f"{sorted(set(_NAMED_PRIORS))}") from None


def radial_weight(kind, r: float) -> float:
    """The radial factor w(r) of the prior, defined on (0, 1)."""
    kind = as_prior_kind(kind)
    if not 0.0 < r < 1.0:
        raise ValueError(f"radial weights are defined on (0, 1), got r = {r}")
    if kind.radial is None:
        raise ValueError(f"prior {kind.name!r} has no radial weight attached")
    return kind.radial(r)


def prior_value(kind, s_pt: BlochSpherical) -> float:
    """Prior density w(r) r^2 sin(theta) in the spherical chart at ``s_pt``."""
    if not 0.0 < s_pt.r < 1.0 or not 0.0 < s_pt.theta < math.pi:
        raise ValueError("prior densities are evaluated on the open ball, "
                         "r in (0,1) and theta in (0, pi)")
    w = radial_weight(kind, s_pt.r)
    return w * s_pt.r ** 2 * math.sin(s_pt.theta)


@lru_cache(maxsize=16)
def _legendre(order: int):
    """Read-only Gauss-Legendre nodes and weights of the given order on [-1, 1].

    Cached because ``leggauss`` solves an order x order eigenproblem and the
    volume integrals ask for the same orders once per axis.
    """
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes(order: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights of the given order on [lo, hi]."""
    x, w = _legendre(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _ball_integral(radial, order: int) -> float:
    """Integral over the ball of radial(r) r^2 sin(theta), for an array function radial.

    Gauss-Legendre in u with r = sin(u): dr = cos(u) du absorbs the
    inverse-square-root boundary singularities of the Jeffreys and
    quasi-Bures weights.
    """
    u, wu = _gl_nodes(order, 0.0, 0.5 * math.pi)
    r = np.sin(u)
    integral = float(np.sum(wu * radial(r) * r ** 2 * np.cos(u)))
    return integral * 4.0 * math.pi  # angular integral of sin(theta) dtheta dphi


def prior_normalization(kind, order: int = 200) -> float:
    """Integral of the prior over the ball; 1 for properly normalized priors."""
    kind = as_prior_kind(kind)
    if kind.radial is None:
        raise ValueError(f"prior {kind.name!r} has no radial weight attached")
    return _ball_integral(np.vectorize(kind.radial, otypes=[float]), order)


def quasi_bures_constant_quadrature(order: int = 400) -> float:
    """The quasi-Bures normalization constant recomputed from scratch.

    Solves ∫ K e/(1-r^2) ((1-r)/(1+r))^(1/2r) r^2 sin(theta) = 1 for K;
    agrees with the tabulated 0.0832258 to its printed precision.
    """
    return 1.0 / _ball_integral(
        lambda r: math.e / ((1.0 - r) * (1.0 + r)) * _ratio_power(r, half=True), order)


# ---------------------------------------------------------------------------
# Information scalars and redundancies
# ---------------------------------------------------------------------------

def classical_info_determinant(s_pt: BlochSpherical) -> float:
    """|I_c(r,theta,phi)| = (64/(1-r^2)) r^4 sin^2(theta).

    The determinant of the quadrinomial Fisher matrix 4*H_q in the
    spherical chart.
    """
    if not s_pt.r < 1.0 or s_pt.is_degenerate:
        raise ValueError("determinant requested outside the open chart")
    r2 = s_pt.r ** 2
    return 64.0 / ((1.0 - s_pt.r) * (1.0 + s_pt.r)) * r2 * r2 * math.sin(s_pt.theta) ** 2


def classical_redundancy(n_length: int, s_pt: BlochSpherical, kind=JEFFREYS) -> float:
    """Clarke-Barron asymptotic redundancy (nats) at a point, d = 3.

    (3/2) log(N/2 pi e) + (1/2) log|I_c| - log(prior density).  With the
    Jeffreys prior the point dependence cancels exactly and the value is
    (3/2) log(N/2 pi e) + log(8 pi^2).
    """
    if n_length < 2:
        raise ValueError("the expansion needs N >= 2")
    i_c = classical_info_determinant(s_pt)
    w = prior_value(kind, s_pt)
    return (1.5 * math.log(n_length / (2.0 * math.pi * math.e))
            + 0.5 * math.log(i_c) - math.log(w))


def quantum_info_scalar(r: float) -> float:
    """I_q(r) = e^2/(1-r^2)^2 * ((1-r)/(1+r))^(1/r) on (0, 1)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"I_q is defined on (0, 1), got r = {r}")
    one_minus = (1.0 - r) * (1.0 + r)
    return math.e ** 2 / one_minus ** 2 * _ratio_power(r, half=False)


def quantum_redundancy(n_length: int, r: float, w_q=QUASI_BURES_PRIOR) -> float:
    """Quantum analogue of the redundancy: (3/2)log(N/2 pi e) + (1/2)log I_q - log w_q(r).

    ``w_q`` may be a PriorKind or a bare radial function w(r).  The
    quasi-Bures prior is the minimax/maximin choice in the quantum setting.
    """
    if n_length < 2:
        raise ValueError("the expansion needs N >= 2")
    if callable(w_q) and not isinstance(w_q, PriorKind):
        w = w_q(r)
    else:
        w = radial_weight(w_q, r)
    return (1.5 * math.log(n_length / (2.0 * math.pi * math.e))
            + 0.5 * math.log(quantum_info_scalar(r)) - math.log(w))


def endpoint_asymptotics(case: str, n_length: int,
                         w_endpoint: float | None = None) -> float:
    """Quantum redundancy asymptotics at the ball's endpoints (nats).

    case 'mixed'           : (3/2) log(N/2 pi e) - log w(0); needs w(0).
    case 'pure_continuous' : 2 log N - 3 log 2 - log pi - log w(1); needs a
                             prior continuous and nonzero at r = 1.
    case 'pure_jeffreys'   : (3/2) log N + (1/2) log pi - 2 log 2; the
                             Jeffreys prior is singular at r = 1, changing
                             the leading structure.
    """
    if case == "pure_jeffreys":
        return 1.5 * math.log(n_length) + 0.5 * math.log(math.pi) - 2.0 * math.log(2.0)
    if w_endpoint is None:
        raise ValueError(f"case {case!r} needs the prior value at the endpoint")
    if case == "mixed":
        return 1.5 * math.log(n_length / (2.0 * math.pi * math.e)) - math.log(w_endpoint)
    if case == "pure_continuous":
        return (2.0 * math.log(n_length) - 3.0 * math.log(2.0)
                - math.log(math.pi) - math.log(w_endpoint))
    raise ValueError(f"unknown case {case!r}; expected 'mixed', "
                     "'pure_continuous', or 'pure_jeffreys'")


def nats_to_bits(nats: float) -> float:
    """Convert an information quantity from nats to bits (1 nat = 1/ln 2 bits)."""
    return nats / math.log(2.0)
