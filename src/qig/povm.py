"""Optimal-measurement probability families and their Fisher matrices.

For N = 2 and 3 copies of a two-level system the optimal joint (covariant)
measurements reduce to explicit outcome distributions over the Bloch ball
(five outcomes for N = 2, eight for N = 3); these are exposed as
:class:`~qig.infogeo.ProbModel` instances so the generic Fisher engine
applies.  For N = 3..6 the Fisher information matrices are given in closed
form as

    F_N = (N-1) * H_q + R_N,

with R_N a negative-semidefinite "residual" that shrinks (relative to H_q)
as N grows.  For N = 7 no matrix is available -- only the Gill-Massar trace
polynomial and the limiting entries -- so requesting the matrix raises
:class:`UnsupportedNError`.

The closed forms are array kernels: :func:`closed_form_batch` and
:func:`residual_batch` map points of shape (..., 3) to (..., 3, 3), and
:func:`gm_trace_reference` takes radii of any shape.  The point-wise
functions validate a single state, call the kernel and wrap the result in
an ``InfoMatrix``.

Odd N in invariant form: for odd N the optimal measurement has a spin-1/2
sector that measures the pair +-a, a = (1,1,1)/sqrt(3), with outcome
probabilities c g^k (1 +- a.v)/2, g = (1 - r^2)/4, k = (N-1)/2 (c = 2 for
N = 3, 5 for N = 5).  That pair contributes c g^k [alpha^2 v v^T + J/(3 - s^2)],
alpha = (N-1)/(1 - r^2), s = x + y + z and J the all-ones matrix; every
other sector has a rotation-invariant Fisher matrix, a combination of I and
v v^T.  So

    R_N = A(r^2) I + B v v^T + C(r^2) J / (3 - s^2),

    N = 3:  A = -1/2,               B = 0,    C = (1 - r^2)/2,
    N = 5:  A = -(3/16)(5 + 3 r^2), B = 7/8,  C = (5/16)(1 - r^2)^2,

and the (x+y+z)^2 - 3 denominators of the paper's cells all come from the
pair.  The paper's literal cells, with the permutation completion of the
N = 5 (1,1) and (1,2) cells, live in the tests as the oracle this form is
checked against exactly, in rational arithmetic.  The even-N residuals are
the paper's cells as printed.

The eigenvalues of H_q^{-1} F_N are closed-form: the largest is the tight c of
c H_q >= F_N, their product (1 - r^2) det F_N.  Even N gives (b, a, a) of _even_profile.
Odd N: with S = H_q^{-1/2} and t = a.v, S F_N S = lam0 I + beta v v^T + C (S a)(S a)^T
/ (1 - t^2), lam0 = N - 1 + A, beta = B (1 - r^2) - A, so they are lam0 and lam0 + m
-+ sqrt(d), m = (beta r^2 + C)/2, d = ((beta r^2 - C)/2)^2 + beta C (1 - r^2) t^2/(1 - t^2).

So are the eigenvalues of D = c H_q - F_N, which the dominance scan judges.  Even N:
(c - b)/(1 - r^2) along v and c - a twice.  Odd N: D = kappa I + p v v^T + q a a^T with
kappa = c - N + 1 - A, p = (c - N + 1)/(1 - r^2) - B and q = -C/(1 - t^2), so they are
kappa and kappa + m -+ sqrt(d), m = (p r^2 + q)/2, d = ((p r^2 - q)/2)^2 + p q t^2.
Both odd-N cases are k I plus a rank-two M on span(v, a) with tr M = 2m and
m^2 - det M = d; the third eigenvector is v x a.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import infogeo
from .bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    PureStateError,
)
from .infogeo import ProbModel, _spherical_diag, _sym3

__all__ = [
    "UnsupportedNError",
    "vidal_model",
    "vidal_probabilities",
    "fisher_closed_form",
    "fisher_spherical_diag",
    "closed_form_batch",
    "residual_batch",
    "gm_trace_reference",
    "fully_mixed_entry11",
    "fully_mixed_entry11_limit",
    "SUPPORTED_MODELS",
    "SUPPORTED_MATRICES",
    "SUPPORTED_TRACES",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

#: copy counts with an explicit outcome-probability model
SUPPORTED_MODELS = (2, 3)
#: copy counts with a closed-form Fisher matrix
SUPPORTED_MATRICES = (2, 3, 4, 5, 6)
#: copy counts with a Gill-Massar trace polynomial
SUPPORTED_TRACES = (2, 3, 4, 5, 6, 7)


class UnsupportedNError(ValueError):
    """No closed-form Fisher matrix exists for this copy count."""


def _vidal2_terms(x, y, z):
    # five outcomes of the optimal two-copy measurement
    r2 = x * x + y * y + z * z
    zm3 = z - 3.0
    p1 = 0.25 * (1.0 - r2)
    p2 = (3.0 / 16.0) * (1.0 + z) * (1.0 + z)
    p3 = (8.0 * x * x - 4.0 * _SQRT2 * x * zm3 + zm3 * zm3) / 48.0
    common = 9.0 + 2.0 * x * x + 6.0 * y * y - 6.0 * z + z * z
    p_plus = (common + 4.0 * _SQRT3 * x * y
              + 2.0 * _SQRT2 * (x + _SQRT3 * y) * zm3) / 48.0
    p_minus = (common - 4.0 * _SQRT3 * x * y
               + 2.0 * _SQRT2 * (x - _SQRT3 * y) * zm3) / 48.0
    return [p1, p2, p3, p_plus, p_minus]


def _vidal3_terms(x, y, z):
    # eight outcomes of the optimal three-copy measurement: the four pairs
    # (1 +/- x)^3/12, (1 +/- y)^3/12, (1 +/- z)^3/12 and
    # (1 +/- (x+y+z)/sqrt(3)) (1 - r^2)/4
    r2 = x * x + y * y + z * z
    u = (x + y + z) / _SQRT3
    out = []
    for w in (x, y, z):
        out.append((1.0 + w) ** 3 / 12.0)
        out.append((1.0 - w) ** 3 / 12.0)
    out.append(0.25 * (1.0 + u) * (1.0 - r2))
    out.append(0.25 * (1.0 - u) * (1.0 - r2))
    return out


def vidal_model(n_copies: int) -> ProbModel:
    """The optimal-measurement outcome distribution for N = 2 or 3 copies."""
    if n_copies == 2:
        return ProbModel("vidal-N2", 5, _vidal2_terms)
    if n_copies == 3:
        return ProbModel("vidal-N3", 8, _vidal3_terms)
    raise UnsupportedNError(
        f"explicit probability families exist for N in {SUPPORTED_MODELS}, got {n_copies}")


def vidal_probabilities(n_copies: int, c: BlochCartesian) -> np.ndarray:
    """Outcome probabilities of the optimal N-copy measurement at state ``c``.

    Defined on the closed ball; the vector sums to 1 and is nonnegative.
    """
    return vidal_model(n_copies).eval(c)


# ---------------------------------------------------------------------------
# Residual matrices R_N = F_N - (N-1) H_q
# ---------------------------------------------------------------------------

def _residual4(x, y, z):
    x2, y2, z2 = x * x, y * y, z * z
    return _sym3(
        ((-7.0 - 5.0 * y2 - 5.0 * z2) / 12.0,
         (-7.0 - 5.0 * x2 - 5.0 * z2) / 12.0,
         (-7.0 - 5.0 * x2 - 5.0 * y2) / 12.0),
        (5.0 * x * y / 12.0, 5.0 * x * z / 12.0, 5.0 * y * z / 12.0),
    )


def _odd_profile(n_copies: int, r2):
    """(A, B, C) with R_N = A I + B v v^T + C J / (3 - s^2) for N = 3, 5.

    Exact when ``r2`` is a Fraction: constants are taken in the type of ``r2``.
    """
    one = r2 ** 0
    if n_copies == 3:
        return -one / 2, 0 * one, (1 - r2) / 2
    return -3 * (5 + 3 * r2) / 16, 7 * one / 8, 5 * (1 - r2) ** 2 / 16


def _residual_odd(n_copies: int, x, y, z):
    a, b, c = _odd_profile(n_copies, x * x + y * y + z * z)
    k = c / (3.0 - (x + y + z) ** 2)
    return _sym3((a + b * x * x + k, a + b * y * y + k, a + b * z * z + k),
                 (b * x * y + k, b * x * z + k, b * y * z + k))


def _r6_diag(x, y, z):
    # diagonal cell of the N=6 residual numerator, polar in its first argument
    s = y * y + z * z
    return (-125.0 - 146.0 * s + 31.0 * s * s
            + x * x * (47.0 + 31.0 * s))


def _residual6(x, y, z):
    r2 = x * x + y * y + z * z
    big_a = 193.0 - 31.0 * r2
    return _sym3(
        (_r6_diag(x, y, z) / 120.0, _r6_diag(y, x, z) / 120.0, _r6_diag(z, x, y) / 120.0),
        (big_a * x * y / 120.0, big_a * x * z / 120.0, big_a * y * z / 120.0),
    )


_RESIDUALS = {3: partial(_residual_odd, 3), 4: _residual4,
              5: partial(_residual_odd, 5), 6: _residual6}


def closed_form_batch(n_copies: int, xyz: np.ndarray) -> np.ndarray:
    """F_N at a batch of interior points, shape (..., 3) -> (..., 3, 3)."""
    if n_copies not in SUPPORTED_MATRICES:
        _raise_unsupported(n_copies)
    xyz = np.asarray(xyz, dtype=float)
    h = infogeo.helstrom_batch(xyz)
    if n_copies == 2:
        return h
    x, y, z = np.moveaxis(xyz, -1, 0)
    return (n_copies - 1.0) * h + _RESIDUALS[n_copies](x, y, z)


def residual_batch(n_copies: int, xyz: np.ndarray) -> np.ndarray:
    """R_N = F_N - (N-1) H_q at a batch of points (N in 3..6)."""
    if n_copies not in _RESIDUALS:
        raise UnsupportedNError(f"residual matrices exist for N in 3..6, got {n_copies}")
    x, y, z = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    return _RESIDUALS[n_copies](x, y, z)


def _raise_unsupported(n_copies):
    if n_copies == 7:
        raise UnsupportedNError(
            "N = 7 is reference-trace-only: no closed-form Fisher matrix is "
            "available, only gm_trace_reference and the limiting entries")
    raise UnsupportedNError(
        f"closed-form Fisher matrices exist for N in {SUPPORTED_MATRICES}, got {n_copies}")


def fisher_closed_form(n_copies: int, c: BlochCartesian) -> InfoMatrix:
    """Fisher matrix of the optimal N-copy measurement, N in 2..6 (r < 1).

    For N = 2 this is H_q itself; for N = 3..6 it is (N-1) H_q plus the
    negative-semidefinite residual.  For N = 2, 3 it agrees with the generic
    Fisher engine applied to :func:`vidal_model`.
    """
    if n_copies not in SUPPORTED_MATRICES:
        _raise_unsupported(n_copies)
    if c.r2 >= 1.0:
        raise PureStateError("closed-form Fisher matrices diverge at r = 1")
    return InfoMatrix(closed_form_batch(n_copies, c.as_array()), "cartesian")


def _even_profile(n_copies: int, r2):
    """(b, a) with F_N = diag(b/(1-r^2), r^2 a, r^2 a sin^2 theta) in the x-polar chart.

    The even-N closed forms are rotationally invariant, so two radial
    profiles in r^2 carry the whole matrix; N = 2 is H_q itself.  Exact on Fractions.
    """
    if n_copies == 2:
        return r2 ** 0, r2 ** 0
    if n_copies == 4:
        return (29 + 7 * r2) / 12, (29 - 5 * r2) / 12
    if n_copies == 6:
        r4 = r2 * r2
        return ((475 + 172 * r2 - 47 * r4) / 120,
                (475 - 146 * r2 + 31 * r4) / 120)
    raise UnsupportedNError(
        f"diagonal spherical forms exist for N in (2, 4, 6), got {n_copies}")


def _ratio_spectrum(n_copies: int, r2, t2) -> tuple:
    """The three eigenvalues of H_q^{-1} F_N at r^2 = v.v, t^2 = (a.v)^2, as arrays."""
    if n_copies % 2 == 0:
        b, a = _even_profile(n_copies, r2)
        return np.broadcast_arrays(a, a, b)
    return _odd_spectrum(*_odd_ratio_parts(n_copies, *_odd_profile(n_copies, r2), r2, t2))


def _difference_spectrum(n_copies: int, scalar, r2, t2) -> tuple:
    """The three eigenvalues of scalar * H_q - F_N at r^2 = v.v, t^2 = (a.v)^2, as arrays."""
    if n_copies not in SUPPORTED_MATRICES:
        _raise_unsupported(n_copies)
    if n_copies % 2 == 0:
        b, a = _even_profile(n_copies, r2)
        return np.broadcast_arrays(scalar - a, scalar - a, (scalar - b) / (1 - r2))
    profile = _odd_profile(n_copies, r2)
    return _odd_spectrum(*_odd_difference_parts(n_copies, scalar, *profile, r2, t2))


def _odd_spectrum(k, m, d):
    # d >= 0 exactly; the clip keeps roundoff near d = 0 from giving NaN
    root = np.sqrt(np.maximum(d, 0.0))
    return np.broadcast_arrays(k, k + m - root, k + m + root)


def _odd_ratio_parts(n_copies: int, a, b, c, r2, t2):
    """(lam0, m, d) of the module docstring from the profile (A, B, C); exact on Fractions."""
    beta = b * (1 - r2) - a
    return _plane_parts(n_copies - 1 + a, beta * r2, c, beta * c * (1 - r2) * t2 / (1 - t2))


def _odd_difference_parts(n_copies: int, scalar, a, b, c, r2, t2):
    """(kappa, m, d) of the module docstring for scalar * H_q - F_N; exact on Fractions."""
    excess = scalar - n_copies + 1
    p = excess / (1 - r2) - b
    q = -c / (1 - t2)
    return _plane_parts(excess - a, p * r2, q, p * q * t2)


def _plane_parts(k, u, w, cross):
    """(k, m, d) for k I + M, M of rank two with tr M = u + w and det M = u w - cross."""
    return k, (u + w) / 2, ((u - w) / 2) ** 2 + cross


def fisher_spherical_diag(n_copies: int, s: BlochSpherical) -> InfoMatrix:
    """Diagonal spherical form of F_N for even N = 2, 4, 6.

    Equals the congruence transform of the Cartesian closed form:

        N=4:  diag((29+7r^2)/(1-r^2), r^2(29-5r^2), ...sin^2 theta) / 12
        N=6:  diag((475+172r^2-47r^4)/(1-r^2), r^2(475-146r^2+31r^4), ...) / 120
    """
    radial, angular = _even_profile(n_copies, s.r * s.r)
    if s.r >= 1.0:
        raise PureStateError("closed-form Fisher matrices diverge at r = 1")
    if s.is_degenerate:
        raise DegenerateCoordinatesError("spherical form needs r > 0, theta in (0, pi)")
    return _spherical_diag(s, radial, angular)


# ---------------------------------------------------------------------------
# Reference polynomials and limits
# ---------------------------------------------------------------------------

def gm_trace_reference(n_copies: int, r):
    """Gill-Massar trace trace(H_q^{-1} F_N) as a polynomial in r, N in 2..7.

    Accepts a float (returns a float) or an array of radii.  All six equal
    2N - 1 at r = 1; for separable measurements the trace cannot exceed N,
    so every value above N certifies a non-separable gain.
    """
    r2 = np.asarray(r, dtype=float) ** 2
    if n_copies == 2:
        t = np.full(r2.shape, 3.0)
    elif n_copies == 3:
        t = np.full(r2.shape, 5.0)
    elif n_copies == 4:
        t = (29.0 - r2) / 4.0
    elif n_copies == 5:
        t = (19.0 - r2) / 2.0
    elif n_copies == 6:
        t = (95.0 - 8.0 * r2 + r2 * r2) / 8.0
    elif n_copies == 7:
        t = (57.0 - 6.0 * r2 + r2 * r2) / 4.0
    else:
        raise UnsupportedNError(
            f"Gill-Massar reference traces exist for N in {SUPPORTED_TRACES}, got {n_copies}")
    return float(t) if t.ndim == 0 else t


def fully_mixed_entry11(n_copies: int, theta: float, phi: float) -> float:
    """Tabulated r -> 0 value of the spherical (1,1) entry of F_N along (theta, phi).

    At the fully mixed state this is the only nonvanishing entry.  For even
    N it is direction-independent (1, 29/12, 95/24 for N = 2, 4, 6); for odd
    N it retains angular structure.

    Caveat for N = 5: the classical tabulated expression (103 + 5 cos(2 phi))/32
    reproduced here fails the trace identity that the N = 3 and N = 7 entries
    satisfy (its sphere average gives trace 309/32 instead of GM_5(0) = 19/2),
    and it disagrees with the actual limit of the N = 5 closed-form matrix.
    Use :func:`fully_mixed_entry11_limit` for the matrix-consistent value.
    """
    s2t = math.sin(2.0 * theta)
    st2 = math.sin(theta) ** 2
    cp, sp = math.cos(phi), math.sin(phi)
    s2p = math.sin(2.0 * phi)
    if n_copies == 2:
        return 1.0
    if n_copies == 3:
        return (10.0 + s2t * (cp + sp) + st2 * s2p) / 6.0
    if n_copies == 4:
        return 29.0 / 12.0
    if n_copies == 5:
        return (103.0 + 5.0 * math.cos(2.0 * phi)) / 32.0
    if n_copies == 6:
        return 95.0 / 24.0
    if n_copies == 7:
        c2 = math.cos(theta) ** 2
        return (456.0 * c2 + 7.0 * s2t * (cp + sp) + st2 * (456.0 + 7.0 * s2p)) / 96.0
    raise UnsupportedNError(
        f"fully mixed (1,1) entries exist for N in {SUPPORTED_TRACES}, got {n_copies}")


def fully_mixed_entry11_limit(n_copies: int, theta: float, phi: float) -> float:
    """Exact r -> 0 limit of the spherical (1,1) entry, from the closed forms.

    Computed as e_r^T F_N(0) e_r with e_r the radial direction of the x-polar
    chart.  Matches :func:`fully_mixed_entry11` for every supported N except
    N = 5 (see the caveat there); the N = 5 limit is

        (152 + 5 (sin(2 theta)(cos phi + sin phi) + sin^2(theta) sin(2 phi))) / 48.
    """
    if n_copies not in SUPPORTED_MATRICES:
        _raise_unsupported(n_copies)
    f0 = closed_form_batch(n_copies, np.zeros(3))
    st = math.sin(theta)
    e_r = np.array([math.cos(theta), st * math.cos(phi), st * math.sin(phi)])
    return float(e_r @ f0 @ e_r)
