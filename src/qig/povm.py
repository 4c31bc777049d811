"""Optimal-measurement probability families and their Fisher matrices.

For N = 2 and 3 copies of a two-level system the optimal joint (covariant)
measurements reduce to explicit outcome distributions over the Bloch ball
(five outcomes for N = 2, eight for N = 3); these are exposed as
:class:`~qig.infogeo.ProbModel` instances so the generic Fisher engine
applies.

The Fisher matrices F_N of the optimal measurements (Vidal, Latorre, Pascual
and Tarrach, PRA 60, 126, 1999) come from one sum over the spin-j sectors of
rho^(x)N, for every N in SUPPORTED_MATRICES.  Sector j has multiplicity
d_j = C(N, N/2-j) - C(N, N/2-j-1), outcome density (2j+1) d_j g^(N/2-j) q^(2j)
over spin-coherent directions n, g = (1 - r^2)/4, q = (1 + n.v)/2, and score
u = -2 (N/2-j) v/(1 - r^2) + j n/q.  For j >= 1 that is the continuous
covariant measurement: its Fisher matrix averages over c = n.v/r, uniform on
[-1, 1], and combines I and v v^T.  For odd N, j = 1/2 measures the pair +-a,
a = (1,1,1)/sqrt(3), with probabilities d_1/2 g^k (1 +- a.v)/2, k = (N-1)/2,
and adds C J/(3 - s^2) besides, s = x + y + z, J the all-ones matrix.  So

    F_N = (N-1) H_q + R_N,   R_N = A(r^2) I + B(r^2) v v^T + C(r^2) J/(3 - s^2),

C = d_1/2 g^k for odd N and 0 for even N.  A and B are polynomials in r^2,
derived once per N in exact rationals (:func:`_sectors`).  They reproduce the
paper's cells for N = 3..6, which the tests keep as the exact oracle, and
their float error stays within 8e-16 up to N = 20.

The closed forms are array kernels: :func:`closed_form_batch` and
:func:`residual_batch` map points of shape (..., 3) to (..., 3, 3), and
:func:`gm_trace_reference` takes radii of any shape.  The point-wise
functions validate a single state, call the kernel and wrap the result in
an ``InfoMatrix``.

Every trace of F_N comes from the profile, without a matrix (:func:`_trace_parts`).
With x = r^2, q = v.F_N.v / x, cos2 = (a.v)^2 / x in [0, 1] and C^ = C/(1 - x cos2),

    (1 - x) q     = N - 1 + (1 - x)(A + B x + C^ cos2),
    trace F_N - q = 2(N - 1 + A) + C^ (1 - cos2),

and neither part has a pole on the closed ball.  A metric of angular scale a_g
gives trace(G^{-1} F_N) = (1 - x) q + (trace F_N - q)/a_g; for Helstrom (a_g = 1)
that is the Gill-Massar polynomial 3(N - 1) + (3 - x) A + x (1 - x) B + C.

The eigenvalues of H_q^{-1} F_N are closed-form: the largest is the tight c of
c H_q >= F_N, their product (1 - r^2) det F_N.  Even N gives (b, a, a) of _even_profile,
a = N - 1 + A and b = N - 1 + (1 - r^2)(A + B r^2).
Odd N: with S = H_q^{-1/2} and t = a.v, S F_N S = lam0 I + beta v v^T + C (S a)(S a)^T
/ (1 - t^2), lam0 = N - 1 + A, beta = B (1 - r^2) - A, so they are lam0 and lam0 + m
-+ sqrt(d), m = (beta r^2 + C)/2, d = ((beta r^2 - C)/2)^2 + beta C (1 - r^2) t^2/(1 - t^2).
Callers use these plane invariants (_odd_ratio_parts), not the eigenvalues: the product is
lam0 ((lam0 + m)^2 - d) and the largest is max(lam0, lam0 + m + sqrt(d)).

So are the eigenvalues of D = c H_q - F_N, which the dominance scan judges.  Even N:
(c - b)/(1 - r^2) along v and c - a twice.  Odd N: D = kappa I + p v v^T + q a a^T with
kappa = c - N + 1 - A, p = (c - N + 1)/(1 - r^2) - B and q = -C/(1 - t^2), so they are
kappa and kappa + m -+ sqrt(d), m = (p r^2 + q)/2, d = ((p r^2 - q)/2)^2 + p q t^2.
Both odd-N cases are k I plus a rank-two M on span(v, a) with tr M = 2m and
m^2 - det M = d; the third eigenvector is v x a.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

#: copy counts with an explicit outcome-probability model
SUPPORTED_MODELS = (2, 3)
#: copy counts with a closed-form Fisher matrix (float error < 8e-16 to N = 20, 8e-14 at 40)
SUPPORTED_MATRICES = tuple(range(2, 21))


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
# F_N from its spin-j sectors
# ---------------------------------------------------------------------------

def _check_matrix(n_copies: int):
    if n_copies not in SUPPORTED_MATRICES:
        raise UnsupportedNError(
            f"closed-form Fisher matrices exist for N in {SUPPORTED_MATRICES[0]}.."
            f"{SUPPORTED_MATRICES[-1]}, got {n_copies}")


def _multiplicity(n_copies: int, k: int) -> int:
    """d_j of the spin-j sector, j = N/2 - k."""
    return math.comb(n_copies, k) - (math.comb(n_copies, k - 1) if k else 0)


@lru_cache(maxsize=None)
def _sectors(n_copies: int) -> tuple:
    """A, B of R_N and the chart profiles b, a of F_N, exact polynomials in r^2.

    The sector sum (module docstring) in Fractions, as polynomials in r; each
    result is (integer coefficients, denominator), which _poly keeps exact.
    """
    _check_matrix(n_copies)
    from fractions import Fraction  # here, not at import: it pulls in decimal
    from numpy.polynomial import Polynomial

    r = Polynomial([Fraction(0), Fraction(1)])
    pole = 1 - r * r

    def moment(m, l):  # E[q^m c^l] in r, q = (1 + r c)/2; odd powers of c average to 0
        return Polynomial([Fraction(math.comb(m, i) * (1 - (i + l) % 2), (i + l + 1) * 2 ** m)
                           for i in range(m + 1)] or [Fraction(0)])

    # a: the I coefficient of F_N; b: (1 - r^2) v.F_N.v / r^2, both without C's pair term
    a = b = 0 * r
    for k in range(n_copies // 2 + 1):  # sector j = N/2 - k, t = 2j
        t = n_copies - 2 * k
        w = Fraction((t + 1) * _multiplicity(n_copies, k), 4 ** k)  # g^k = (1 - r^2)^k / 4^k
        if t >= 2:  # the n/q part of the score, j = t/2
            a += w * t * t / 8 * pole ** k * (moment(t - 2, 0) - moment(t - 2, 2))
            b += w * t * t / 4 * pole ** (k + 1) * moment(t - 2, 2)
        if k:  # the v part, 2k/(1 - r^2), and its cross term
            b += w * 4 * k * pole ** (k - 1) * r * (
                k * r * moment(t, 0) - t * pole * moment(t - 1, 1) / 2)

    a, b = (Polynomial(p.coef[::2]) for p in (a, b))  # even in r: now in x = r^2
    big_a = a - (n_copies - 1)
    # b = N - 1 + (1 - x)(A + B x): dividing by 1 - x (the H_q pole) is a prefix sum
    sums = np.cumsum(np.append((b - (n_copies - 1)).coef, 0))
    big_b = Polynomial(sums[:-1]) - big_a
    if sums[-1] or big_b.coef[0]:
        raise ArithmeticError(f"the sector sum of F_{n_copies} left a remainder")
    big_b = Polynomial(np.append(big_b.coef[1:], 0)).trim()  # divided by x

    def integer_form(p):
        den = math.lcm(*(c.denominator for c in p.coef))
        return tuple(int(c * den) for c in p.coef), den

    return tuple(integer_form(p) for p in (big_a, big_b, b, a))


def _poly(p, x):
    """Horner value at x of p = (integer coefficients, denominator); exact on Fractions."""
    coeffs, den = p
    acc = coeffs[-1] if len(coeffs) > 1 else coeffs[-1] + 0 * x  # a constant takes x's type
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc / den


def _profile(n_copies: int, r2):
    """(A, B, C) with R_N = A I + B v v^T + C J / (3 - s^2) at r^2; exact on Fractions.

    C = d_1/2 g^k stays factored: expanded, it loses digits near the axis a.
    """
    big_a, big_b, _, _ = _sectors(n_copies)
    k = n_copies // 2
    c = _multiplicity(n_copies, k) * ((1 - r2) / 4) ** k if n_copies % 2 else 0 * r2
    return _poly(big_a, r2), _poly(big_b, r2), c


def closed_form_batch(n_copies: int, xyz: np.ndarray) -> np.ndarray:
    """F_N at a batch of interior points, shape (..., 3) -> (..., 3, 3)."""
    xyz = np.asarray(xyz, dtype=float)
    h = infogeo.helstrom_batch(xyz)
    if n_copies == 2:
        return h
    return (n_copies - 1.0) * h + residual_batch(n_copies, xyz)


def residual_batch(n_copies: int, xyz: np.ndarray) -> np.ndarray:
    """R_N = F_N - (N-1) H_q at a batch of points, shape (..., 3) -> (..., 3, 3)."""
    x, y, z = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    a, b, c = _profile(n_copies, x * x + y * y + z * z)
    res = _sym3((a + b * x * x, a + b * y * y, a + b * z * z),
                (b * x * y, b * x * z, b * y * z))
    if n_copies % 2:
        res += (c / (3.0 - (x + y + z) ** 2))[..., None, None]
    return res


def fisher_closed_form(n_copies: int, c: BlochCartesian) -> InfoMatrix:
    """Fisher matrix of the optimal N-copy measurement, N in SUPPORTED_MATRICES (r < 1).

    (N-1) H_q plus the residual R_N, which vanishes for N = 2.  For N = 2, 3 it
    agrees with the generic Fisher engine applied to :func:`vidal_model`.
    """
    _check_matrix(n_copies)
    if c.r2 >= 1.0:
        raise PureStateError("closed-form Fisher matrices diverge at r = 1")
    return InfoMatrix(closed_form_batch(n_copies, c.as_array()), "cartesian")


def _even_profile(n_copies: int, r2):
    """(b, a) with F_N = diag(b/(1-r^2), r^2 a, r^2 a sin^2 theta) in the x-polar chart.

    Even N only, where F_N is rotation invariant; exact on Fractions.
    """
    if n_copies % 2:
        raise UnsupportedNError(f"diagonal spherical forms exist for even N only, got {n_copies}")
    _, _, b, a = _sectors(n_copies)
    return _poly(b, r2), _poly(a, r2)


def _difference_spectrum(n_copies: int, scalar, r2, t2) -> tuple:
    """The three eigenvalues of scalar * H_q - F_N at r^2 = v.v, t^2 = (a.v)^2, as arrays."""
    if n_copies % 2 == 0:
        b, a = _even_profile(n_copies, r2)
        return np.broadcast_arrays(scalar - a, scalar - a, (scalar - b) / (1 - r2))
    profile = _profile(n_copies, r2)
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
    """Diagonal spherical form of F_N for even N in SUPPORTED_MATRICES.

    Equals the congruence transform of the Cartesian closed form; for N = 4
    it is diag((29+7r^2)/(1-r^2), r^2(29-5r^2), ...sin^2 theta) / 12.
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

def _trace_parts(n_copies: int, r2, cos2) -> tuple:
    """((1 - x) q, trace F_N - q) at x = r^2, cos2 = (a.v)^2 / x; exact on Fractions."""
    a, b, c = _profile(n_copies, r2)
    den = 1 - r2 * cos2  # 0 only at r = 1 on a, where C = 0: C^ = 0/1 is both uses' limit
    c_hat = c / (den + (den == 0))
    return (n_copies - 1 + (1 - r2) * (a + b * r2 + c_hat * cos2),
            2 * (n_copies - 1 + a) + c_hat * (1 - cos2))


def gm_trace_reference(n_copies: int, r):
    """Gill-Massar trace trace(H_q^{-1} F_N) as a polynomial in r, N in SUPPORTED_MATRICES.

    3(N - 1) + (3 - x) A + x (1 - x) B + C with x = r^2, the sum of the two
    parts of :func:`_trace_parts`.  Accepts a float (returns a float) or an
    array of radii.  Every N gives 2N - 1 at r = 1; for separable
    measurements the trace cannot exceed N, so every value above N certifies
    a non-separable gain.
    """
    first, second = _trace_parts(n_copies, np.asarray(r, dtype=float) ** 2, 0.0)
    t = first + second
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
        f"fully mixed (1,1) entries are tabulated for N in 2..7, got {n_copies}")


def fully_mixed_entry11_limit(n_copies: int, theta: float, phi: float) -> float:
    """Exact r -> 0 limit of the spherical (1,1) entry, from the closed forms.

    Computed as e_r^T F_N(0) e_r with e_r the radial direction of the x-polar
    chart.  Matches :func:`fully_mixed_entry11` wherever both exist except
    N = 5 (see the caveat there); the N = 5 limit is

        (152 + 5 (sin(2 theta)(cos phi + sin phi) + sin^2(theta) sin(2 phi))) / 48.
    """
    f0 = closed_form_batch(n_copies, np.zeros(3))
    st = math.sin(theta)
    e_r = np.array([math.cos(theta), st * math.cos(phi), st * math.sin(phi)])
    return float(e_r @ f0 @ e_r)
