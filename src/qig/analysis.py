"""Gill-Massar traces, dominance analysis, volume integrals, and figure curves.

The Gill-Massar trace of a measurement is trace(G^{-1} F) with G a quantum
information (metric) matrix and F the measurement's Fisher matrix.  With the
Helstrom metric it is bounded by N for separable measurements on N copies;
the optimal joint measurements exceed that bound everywhere, with pure-state
limit exactly 2N - 1.  This module computes the traces for any metric kind,
their endpoint limits, the matrix-dominance structure c*H_q >= F_N and its
tight scalar, the Bloch-ball volume integrals of sqrt(det F_N), and sampled
curve tables suitable for reproducing the figures.

Every trace, reference polynomial and trace curve sums the two pole-free
parts of ``povm._trace_parts``, so none builds a 3x3 matrix.  They are
evaluated on arrays of points or radii in one call each; :func:`gm_trace`
and the other point-wise functions are wrappers that validate one state.

Scans use a deterministic low-discrepancy grid (Halton, fixed seed below)
of ball points plus a dense radial line near r = 1, where all known
dominance violations cluster.  PSD decisions rescale the matrix to unit
Frobenius norm before applying the eigenvalue tolerance, so near-pure
points with entries of order 1/(1-r^2) are judged on relative footing.
The scan takes the eigenvalues of c*H_q - F_N in closed form from ``povm``
and lists violations by their scaled minimum rounded to 9 decimals, then
by grid index.

The odd-N volume integrates over r and mu = a.v/r, evenly in mu, so its symmetric mu
rule is folded onto mu >= 0, and det(H_q^{-1} F_N) comes from povm's plane invariants.

Read-only, N-independent geometry is cached on first use, never at import:
a scan table per grid (points, r^2, (a.v)^2) and a node table per quadrature
order and parity of N.  No volume, scalar, spectrum, profile or report is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import infogeo, povm
from .bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    PureStateError,
    to_cartesian,
)
from .coding import _gl_nodes, _legendre
from .infogeo import HELSTROM, QUASI_BURES, YUEN_LAX, as_metric_kind

__all__ = [
    "CurveTable",
    "DominanceReport",
    "QuadratureSpec",
    "NonConvergenceError",
    "gm_trace",
    "diagonal_colatitude",
    "modified_trace_reference",
    "limit_trace",
    "trace_limit_reference",
    "dominance_check",
    "dominates",
    "scan_dominance",
    "min_dominating_scalar",
    "dominance_boundary_radius",
    "volume_integral",
    "scaled_curve_intersection",
    "curve_sample",
    "ball_grid",
    "write_curves_csv",
]

# --- published scan-grid configuration -------------------------------------
#: Halton-sequence seed for the low-discrepancy ball grid
GRID_SEED = 9907
#: number of low-discrepancy points per scan
GRID_POINTS = 4096
#: extra radii packed against the outer edge of the scan region
EDGE_POINTS = 256
#: fixed directions for the dense near-boundary radial lines
EDGE_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)),
    (0.36, 0.48, 0.8),
)
#: eigenvalue tolerance for PSD decisions on unit-Frobenius-scaled matrices
PSD_TOL = 1e-10
#: largest |scalar| scan_dominance accepts: its closed-form spectrum squares
#: scalar/(1 - r^2), which stays finite up to here for every grid radius r < 1
MAX_SCALAR = 1e100
#: fixed non-degenerate direction used when a curve depends on r only
THETA0, PHI0 = 1.1, 0.7


class NonConvergenceError(RuntimeError):
    """Successive quadrature refinements disagreed beyond the requested tolerance."""


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _gm_trace_batch(metric, n_copies: int, xyz) -> np.ndarray:
    """gm_trace at points of shape (..., 3), all with 0 < r < 1, from povm._trace_parts."""
    r2, t2 = _invariants(np.asarray(xyz, dtype=float))
    if np.any(r2 >= 1.0):
        raise PureStateError("gm_trace needs r < 1; use limit_trace('pure')")
    if np.any(r2 <= 0.0):
        raise ValueError("gm_trace needs r > 0; use limit_trace('mixed')")
    first, second = povm._trace_parts(n_copies, r2, t2 / r2)
    return first + second / infogeo._angular_scale(metric, np.sqrt(r2))


def gm_trace(metric, n_copies: int, c: BlochCartesian) -> float:
    """trace(G(metric)^{-1} F_N) at an interior state, 0 < r < 1.

    Coordinate-system independent, and evaluated without a chart or a
    matrix: G^{-1} is 1-r^2 along the radial unit vector and 1/(r^2 a) on the
    tangent plane, a(r) = g(s)/(1+r), so with v the state and
    q = v^T F_N v / r^2

        trace = (1-r^2) q + (trace F_N - q) / a,

    whose two parts ``povm._trace_parts`` gives without a pole.  Endpoints
    are excluded (the Helstrom metric is singular at r = 1, the angular
    parts of others at r = 0); use :func:`limit_trace` there.
    """
    return float(_gm_trace_batch(metric, n_copies, c.as_array()))


def diagonal_colatitude(c: BlochCartesian) -> float:
    """Colatitude of a state from the (1,1,1)/sqrt(3) axis: acos((x+y+z)/(sqrt(3) r)).

    This is the angle the odd-N modified traces depend on; the odd-N
    measurements single out the diagonal direction, so their traces are
    symmetric about that axis rather than the x-polar one.
    """
    r = c.r
    if r <= 0.0:
        raise DegenerateCoordinatesError("colatitude undefined at the origin")
    return math.acos(max(-1.0, min(1.0, (c.x + c.y + c.z) / (math.sqrt(3.0) * r))))


def modified_trace_reference(metric, n_copies: int, r, theta=None):
    """Yuen-Lax (right-logarithmic-derivative) modified traces, N in SUPPORTED_MATRICES.

    The Yuen-Lax metric is conformal in Cartesian coordinates
    (G = I/(1-r^2)), so these traces are (1-r^2) * trace(F_N): the first
    part of ``povm._trace_parts`` plus 1-r^2 times the second.  All equal
    N - 1 at r = 1 and coincide with the Helstrom traces at r = 0.  Accepts
    floats (returns a float) or arrays.

    Odd N carries an angle-dependent term, so theta is required there.
    theta is the colatitude from the DIAGONAL axis (1,1,1)/sqrt(3) (see
    :func:`diagonal_colatitude`), the symmetry axis of the odd-N families --
    not the x-polar chart angle.  For even N the traces are direction-free,
    matching the rotation invariance of the matrices.
    """
    metric = as_metric_kind(metric)
    if metric.name != "yuen_lax":
        raise ValueError("closed-form modified traces are available for the "
                         "yuen_lax metric only")
    if n_copies % 2 and theta is None:
        raise ValueError(f"the N = {n_copies} modified trace depends on theta; pass theta")
    r2 = np.asarray(r, dtype=float) ** 2
    cos2 = 0.0 if theta is None else np.cos(np.asarray(theta, dtype=float)) ** 2
    first, second = povm._trace_parts(n_copies, r2, cos2)
    t = first + (1.0 - r2) * second
    return float(t) if t.ndim == 0 else t


_LIMIT_H = 1e-8


def limit_trace(metric, n_copies: int, endpoint: str) -> float:
    """Endpoint value of gm_trace as a numeric limit.

    Evaluates at r = 1 - h ('pure') or r = h ('mixed') with h = 1e-8 and
    h/2, then Richardson-extrapolates the linear term.  Evaluation sits at
    the fixed direction (THETA0, PHI0); the endpoint values themselves are
    direction-independent.
    """
    if endpoint not in ("pure", "mixed"):
        raise ValueError(f"endpoint must be 'pure' or 'mixed', got {endpoint!r}")

    def at(h):
        r = 1.0 - h if endpoint == "pure" else h
        return gm_trace(metric, n_copies,
                        to_cartesian(BlochSpherical(r, THETA0, PHI0)))

    t1, t2 = at(_LIMIT_H), at(_LIMIT_H / 2.0)
    return 2.0 * t2 - t1


def trace_limit_reference(metric, n_copies: int, endpoint: str) -> float:
    """Closed-form endpoint targets for the named metrics.

    Every rotationally invariant metric gives trace (N-1) + 2N/g(0+) at
    r = 1 (g(0+) = 2 for Helstrom, e for quasi-Bures, infinity for
    Yuen-Lax, hence 2N-1, (N-1) + 2N/e, and N-1), and the metrics all
    coincide at r = 0, where the trace is the Gill-Massar value
    :func:`~qig.povm.gm_trace_reference` at 0, 3(N-1) + 3A(0) + C(0).
    """
    metric = as_metric_kind(metric)
    if endpoint == "mixed":
        return povm.gm_trace_reference(n_copies, 0.0)
    if endpoint != "pure":
        raise ValueError(f"endpoint must be 'pure' or 'mixed', got {endpoint!r}")
    g0 = {"helstrom": 2.0, "quasi_bures": math.e, "yuen_lax": math.inf}.get(metric.name)
    if g0 is None:
        raise ValueError(f"no closed-form pure limit recorded for {metric.name!r}")
    return (n_copies - 1.0) + 2.0 * n_copies / g0


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------

def _difference(a: InfoMatrix, b: InfoMatrix) -> np.ndarray:
    if a.coords != b.coords or a.dim != b.dim:
        raise ValueError(f"matrix mismatch: {a.coords}/{a.dim} vs {b.coords}/{b.dim}")
    return a.entries - b.entries


def _scaled_min_eigs(d: np.ndarray) -> np.ndarray:
    """Min eigenvalue of d/||d||_F for each matrix of d, shape (..., n, n); 0 where d = 0."""
    norms = np.linalg.norm(d, axis=(-2, -1))
    return np.linalg.eigvalsh(d / np.where(norms == 0.0, 1.0, norms)[..., None, None])[..., 0]


def dominance_check(a: InfoMatrix, b: InfoMatrix) -> float:
    """Minimum eigenvalue of A - B; A dominates B iff it is >= -tol."""
    return float(np.linalg.eigvalsh(_difference(a, b))[0])


def dominates(a: InfoMatrix, b: InfoMatrix, tol: float = PSD_TOL) -> bool:
    """Whether A - B is PSD, judged on the unit-Frobenius-scaled difference."""
    return bool(_scaled_min_eigs(_difference(a, b)) >= -tol)


def _halton(n: int) -> np.ndarray:
    """Bit for bit ``scipy.stats.qmc.Halton(d=3, scramble=True, seed=GRID_SEED).random(n)``.

    One digit permutation per base-b digit down to 2^-54, drawn in scipy's
    order; the scale is divided down, not taken as a power, so rounding matches.
    """
    rng = np.random.default_rng(GRID_SEED)
    u = np.zeros((n, 3))
    for d, base in enumerate((2, 3, 5)):
        q = np.arange(n)
        scale = 1.0 / base
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            u[:, d] += rng.permutation(base)[q % base] * scale
            q //= base
            scale /= base
    return u


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _grid_table(region, n_points: int = GRID_POINTS, edge_points: int = EDGE_POINTS) -> tuple:
    """_scan_table of a region, checked first so that a bad region caches nothing."""
    lo, hi = float(region[0]), float(region[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"bad region {region}")
    if hi >= 1.0:
        raise ValueError("scan region must stay strictly inside the ball (hi < 1)")
    return _scan_table(lo, hi, n_points, edge_points)


@lru_cache(maxsize=4)
def _scan_table(lo: float, hi: float, n_points: int, edge_points: int) -> tuple:
    """Read-only (points, r^2, t^2) of ball_grid over lo <= r <= hi, the same for every N."""
    u = _halton(n_points)
    r = np.cbrt(lo ** 3 + u[:, 0] * (hi ** 3 - lo ** 3))
    cos_t = 2.0 * u[:, 1] - 1.0
    phi = 2.0 * math.pi * u[:, 2]
    pts = np.empty((n_points + len(EDGE_DIRECTIONS) * edge_points, 3))
    x, y, z = pts[:n_points].T
    np.multiply(r, cos_t, out=x)
    r_sin_t = r * np.sqrt(1.0 - cos_t ** 2)
    np.multiply(r_sin_t, np.cos(phi), out=y)
    np.multiply(r_sin_t, np.sin(phi), out=z)
    if edge_points:
        gap = np.geomspace(1e-7, max(hi - lo, 1e-3) * 0.1, edge_points)
        radii = np.clip(hi - gap, lo, hi)
        lines = pts[n_points:].reshape(len(EDGE_DIRECTIONS), edge_points, 3)
        for line, d in zip(lines, EDGE_DIRECTIONS):
            np.multiply(radii[:, None], d, out=line)
    return _read_only(pts, *_invariants(pts))


def ball_grid(region: tuple[float, float] = (0.0, 0.999),
              n_points: int = GRID_POINTS,
              edge_points: int = EDGE_POINTS) -> np.ndarray:
    """Deterministic scan grid over a radial shell of the Bloch ball.

    Low-discrepancy (scrambled Halton, seed GRID_SEED) points uniform in
    volume over the shell, plus ``edge_points`` radii packed geometrically
    against the outer radius along each of EDGE_DIRECTIONS -- dominance
    violations concentrate at nearly pure states.  The points live in a
    read-only scan table, cached per (region, n_points, edge_points) with
    their (r^2, t^2) and shared by the scans; every call returns a fresh,
    writable copy.
    """
    return _grid_table(region, n_points, edge_points)[0].copy()


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of scanning c*H_q - F_N >= 0 over a region of the ball."""

    scalar_bound: float
    min_eigenvalue_found: float
    violating_points: list = field(default_factory=list)
    region: tuple[float, float] = (0.0, 0.999)
    n_violations: int = 0

    def to_json(self) -> dict:
        return {
            "scalar_bound": self.scalar_bound,
            "min_eigenvalue": self.min_eigenvalue_found,
            "violations": [[p.x, p.y, p.z] for p in self.violating_points],
            "n_violations": self.n_violations,
            "region": list(self.region),
        }


def _invariants(pts: np.ndarray) -> tuple:
    """(r^2, t^2) at points of shape (..., 3): t = a.v, a = (1,1,1)/sqrt(3)."""
    x, y, z = np.moveaxis(pts, -1, 0)
    return x * x + y * y + z * z, (x + y + z) ** 2 / 3.0


def _scaled_min_difference(n_copies: int, scalar: float, r2, t2) -> np.ndarray:
    """_scaled_min_eigs of scalar*H_q - F_N at (r^2, t^2), from its closed-form spectrum."""
    l0, l1, l2 = povm._difference_spectrum(n_copies, scalar, r2, t2)
    norms = np.sqrt(l0 * l0 + l1 * l1 + l2 * l2)
    if not np.isfinite(norms).all():
        raise RuntimeError(f"the spectrum of {scalar!r}*H_q - F_{n_copies} is not finite "
                           "on the scan grid, so no point can be judged")
    return np.minimum(np.minimum(l0, l1), l2) / np.where(norms == 0.0, 1.0, norms)


def scan_dominance(n_copies: int, scalar: float,
                   region: tuple[float, float] = (0.0, 0.999),
                   tol: float = PSD_TOL, max_reported: int = 50) -> DominanceReport:
    """Scan whether scalar*H_q dominates F_N over the deterministic grid.

    A point violates when the smallest eigenvalue of scalar*H_q - F_N, over
    the root sum of squares of all three (its Frobenius norm), is below
    -tol.  The three are closed-form (``povm`` module docstring), so no
    matrix is built.  Violations are listed worst first by that value
    rounded to 9 decimals, ties in grid order: points of equal radius on the
    EDGE_DIRECTIONS lines have equal eigenvalues for every even N, and
    roundoff must not decide which of them are listed.

    |scalar| above MAX_SCALAR raises ValueError; a spectrum that is not
    finite anyway raises RuntimeError rather than pass as no violation.
    """
    if not abs(scalar) <= MAX_SCALAR:
        raise ValueError(f"|scalar| must be at most {MAX_SCALAR:g}, got {scalar!r}")
    pts, r2, t2 = _grid_table(region)
    eigs = _scaled_min_difference(n_copies, scalar, r2, t2)
    bad = np.flatnonzero(eigs < -tol)
    order = bad[np.lexsort((bad, np.round(eigs[bad], 9)))][:max_reported]
    return DominanceReport(
        scalar_bound=float(scalar),
        min_eigenvalue_found=float(eigs.min()),
        violating_points=[BlochCartesian(*p) for p in pts[order].tolist()],
        region=(float(region[0]), float(region[1])),
        n_violations=int(bad.size),
    )


def min_dominating_scalar(n_copies: int,
                          region: tuple[float, float] = (0.0, 0.999)) -> float:
    """Smallest c with c*H_q - F_N PSD over the scan grid.

    c*H_q - F_N is PSD iff c bounds every eigenvalue of H_q^{-1} F_N, so c
    is the largest of those over the grid, closed-form in r^2 and (x+y+z)^2/3
    (``povm`` module docstring): max(a, b) for even N, max(k, k + m + sqrt(d))
    for odd N.  r^2 and t^2 come from the cached scan table; the spectrum is
    evaluated afresh.  The Cramer-Rao bound guarantees c <= N.  Enlarging
    the region can only raise c.
    """
    if n_copies not in povm.SUPPORTED_MATRICES[1:]:
        raise povm.UnsupportedNError(
            f"dominating-scalar search needs a closed-form matrix, N in "
            f"3..{povm.SUPPORTED_MATRICES[-1]}, got {n_copies}")
    r2, t2 = _grid_table(region)[1:]
    if n_copies % 2 == 0:
        b, a = povm._even_profile(n_copies, r2)
        c = float(np.maximum(a.max(), b.max()))
    else:
        l0, m, d = povm._odd_ratio_parts(n_copies, *povm._profile(n_copies, r2), r2, t2)
        c = float(np.maximum(l0.max(), (l0 + m + np.sqrt(np.maximum(d, 0.0))).max()))
    if c > n_copies:
        raise RuntimeError(f"{n_copies}*H_q fails to dominate F_{n_copies} (c = {c!r}); "
                           "the Cramer-Rao cap must hold, so the grid or matrices are wrong")
    return c


def dominance_boundary_radius() -> float:
    """Radius above which 4.99*H_q stops dominating F_6.

    Root in (0, 1) of 47 r^4 - 172 r^2 + 123.8: rewriting F_6 around
    4.99 H_q shifts the residual eigenvalue numerator's constant 125 to
    123.8, and that numerator changes sign here (near 0.992348).  The
    smaller root of the quadratic in r^2 is taken in the cancellation-free
    form 2c / (b + sqrt(b^2 - 4ac)).

    The literals are 120 b_6 = 475 + 172 r^2 - 47 r^4 of ``povm._sectors(6)``
    and 120 * 4.99 - 475, pinned to it by the tests.  Deriving them here costs
    ``qig bound-radius`` 5-7 ms (``fractions`` and the sectors), and in floats
    120 * 4.99 - 475 = 123.80000000000007, which moves the root by 4 ulp.
    """
    a, b, c = 47.0, 172.0, 123.8
    return math.sqrt(2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c)))


# ---------------------------------------------------------------------------
# Volume integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre tensor-product settings for the ball integrals.

    ``order`` is the node count per axis, from MIN_ORDER to MAX_ORDER;
    convergence is declared when the result at order and at
    ceil(1.5 * order) agree to ``rtol`` relative.  The odd-N grid is 2-D in
    (r, cos gamma >= 0), so the fine grid of k = ceil(1.5 * order) has k * ceil(k/2)
    nodes: 10,368 at order 96, where ``qig volume --n 3`` peaks at 32 MB of RSS.
    The cap bounds that work; order 48 already converges every tabulated volume.
    """

    MIN_ORDER: ClassVar[int] = 48
    MAX_ORDER: ClassVar[int] = 96

    order: int = 48
    rtol: float = 1e-6

    def __post_init__(self):
        if self.order < self.MIN_ORDER:
            raise ValueError("quadrature order below the default 48 is not allowed")
        if self.order > self.MAX_ORDER:
            raise ValueError(f"quadrature order above {self.MAX_ORDER} is not allowed: "
                             f"order 48 already converges every tabulated volume")


#: det(H_q^{-1} F_N) at or above -_DET_ROUNDOFF * (largest |eigenvalue|)^3 counts as zero
_DET_ROUNDOFF = 1e-12


@lru_cache(maxsize=8)
def _node_table(order: int, odd: bool) -> tuple:
    """Read-only, N-independent nodes of _volume_at_order, r = sin(u) for u in [0, pi/2].

    Even N: (r^2, w_u r^2, angular integral); odd N: (r^2 column, r^2 mu^2, w_u r r, w_mu)
    on mu >= 0.
    """
    u, wu = _gl_nodes(order, 0.0, 0.5 * math.pi)
    r = np.sin(u)
    if odd:
        # the symmetric rule folded onto mu >= 0; an odd order's mu = 0 is not doubled
        x, w = _legendre(order)
        mu, wm = x[order // 2:], 2.0 * w[order // 2:]
        if order % 2:
            wm[0] = w[order // 2]
        r2 = (r * r)[:, None]
        return _read_only(r2, r2 * mu * mu, wu * r * r, wm)
    t, wt = _gl_nodes(order, 0.0, math.pi)
    r2 = r * r
    return (*_read_only(r2, wu * r2), float(np.sum(wt * np.sin(t))) * 2.0 * math.pi)


def _volume_at_order(n_copies: int, order: int) -> float:
    """Integral of sqrt(det F_N) over the ball at one order, on the cached _node_table.

    r = sin(u), dr = cos(u) du soaks up the (1-r^2)^(-1/2) singularity of
    sqrt(det F).  The profiles of F_N are evaluated on every call.
    """
    if n_copies % 2 == 0:
        # diagonal spherical form: sqrt(det) = sin(theta) r^2 a sqrt(b) / cos(u);
        # the angular integral factorizes
        r2, wu_r2, angular = _node_table(order, False)
        b, a = povm._even_profile(n_copies, r2)
        return float(np.sum(wu_r2 * a * np.sqrt(b))) * angular  # cos(u) cancelled
    # odd N: F_N(Rv) = R F_N(v) R^T for rotations R about a = (1,1,1)/sqrt(3), so
    # det F_N depends on r and mu = a.v/r only; the azimuth about a gives 2 pi.
    # det F_N = det(H_q^{-1} F_N) / cos(u)^2, so the cos(u) of dr cancels
    r2, t2, wu_r2, wm = _node_table(order, True)
    l0, m, d = povm._odd_ratio_parts(n_copies, *povm._profile(n_copies, r2), r2, t2)
    det = l0 * ((l0 + m) ** 2 - d)  # of the eigenvalues l0 and l0 + m -+ sqrt(d)
    if np.any(det < 0.0):  # F_N is PSD, so a negative determinant may only be roundoff
        top = np.maximum(np.abs(l0), np.abs(l0 + m) + np.sqrt(np.maximum(d, 0.0)))
        floor = -_DET_ROUNDOFF * top ** 3  # top is the largest |eigenvalue|
        if np.any(det < floor):
            worst = np.unravel_index(np.argmin(det - floor), det.shape)
            raise RuntimeError(
                f"det(H_q^-1 F_{n_copies}) = {det[worst]:.3e} at a quadrature node "
                f"(order {order}) is below the roundoff floor {floor[worst]:.3e}; "
                f"F_{n_copies} is not PSD there")
    return 2.0 * math.pi * float(wu_r2 @ np.sqrt(np.maximum(det, 0.0)) @ wm)


def volume_integral(n_copies: int, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of sqrt(det F_N) over the unit ball, N in povm.SUPPORTED_MATRICES.

    Returns the refined value after checking that two successive quadrature
    orders agree to quad.rtol relative; raises NonConvergenceError otherwise.
    """
    povm._check_matrix(n_copies)
    coarse = _volume_at_order(n_copies, quad.order)
    fine = _volume_at_order(n_copies, math.ceil(1.5 * quad.order))
    if abs(fine - coarse) > quad.rtol * abs(fine):
        raise NonConvergenceError(
            f"volume integral for N={n_copies} moved {abs(fine - coarse):.3e} "
            f"({abs(fine - coarse) / abs(fine):.2e} relative) between orders "
            f"{quad.order} and {math.ceil(1.5 * quad.order)}; tolerance {quad.rtol:g}")
    return fine


# ---------------------------------------------------------------------------
# Curves and intersections
# ---------------------------------------------------------------------------

def scaled_curve_intersection() -> float:
    """Crossing radius of the pure-scaled quasi-Bures traces for N = 2 and 4.

    Root of GM_qB,2(r)/((4+e)/e) - GM_qB,4(r)/(3+8/e), bracketed on
    (0.05, 0.95); near 0.395121.
    """
    s2 = trace_limit_reference(QUASI_BURES, 2, "pure")
    s4 = trace_limit_reference(QUASI_BURES, 4, "pure")

    def diff(r):
        c = to_cartesian(BlochSpherical(r, THETA0, PHI0))
        return gm_trace(QUASI_BURES, 2, c) / s2 - gm_trace(QUASI_BURES, 4, c) / s4

    lo, hi = 0.05, 0.95
    d_lo = diff(lo)
    if d_lo * diff(hi) >= 0:
        raise RuntimeError("no sign change on (0.05, 0.95); cannot bracket the crossing")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if diff(mid) * d_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CurveTable:
    """Sampled (r, value) pairs for one labelled curve."""

    r: np.ndarray
    value: np.ndarray
    label: str
    scaling: float | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.value, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise ValueError("r and value must be 1-d arrays of equal length")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        if r[0] < 0.0 or r[-1] > 1.0:
            raise ValueError("grid values must lie within [0, 1]")
        r.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "value", v)


def write_curves_csv(tables, stream, precision: int = 9) -> None:
    """Serialize curve tables as CSV with header ``r,value,label``."""
    stream.write("r,value,label\n")
    for table in tables:
        for r, v in zip(table.r, table.value):
            stream.write(f"{r:.{precision}g},{v:.{precision}g},{table.label}\n")


#: quantities understood by curve_sample, with their default copy counts
CURVE_QUANTITIES = {
    "gm_scaled": (4, 5, 6, 7),
    "yl_scaled": (2, 4, 6),
    "qb_scaled": (2, 4, 6),
    "entry11_over_N": (2, 4, 6),
    "g_functions": (2, 4, 6),
}


def curve_sample(quantity: str, n_list=None, grid=None) -> list[CurveTable]:
    """Sample the figure curves on a grid of r values (s values for g_functions).

    gm_scaled: GM_N(r)/(2N-1); yl_scaled: Yuen-Lax trace/(N-1);
    qb_scaled: quasi-Bures trace scaled by its r=1 value;
    entry11_over_N: spherical (1,1) Fisher entry / N (even N);
    g_functions: profiles g(s) -- the fitted N=4 and N=6 forms plus the
    per-copy N=2 profile 1/(1+s), i.e. g_helstrom/2.
    """
    if quantity not in CURVE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; "
                         f"expected one of {sorted(CURVE_QUANTITIES)}")
    ns = tuple(CURVE_QUANTITIES[quantity]) if n_list is None else tuple(n_list)
    if grid is None:
        grid = np.linspace(0.005, 0.995, 199)
    grid = np.asarray(grid, dtype=float)

    tables = []
    if quantity == "gm_scaled":
        for n in ns:
            scale = 2.0 * n - 1.0
            vals = povm.gm_trace_reference(n, grid) / scale
            tables.append(CurveTable(grid, vals, f"gm_trace_N{n}_over_{int(scale)}", scale))
    elif quantity == "yl_scaled":
        for n in ns:
            scale = n - 1.0
            vals = modified_trace_reference(YUEN_LAX, n, grid, theta=THETA0) / scale
            tables.append(CurveTable(grid, vals, f"yl_trace_N{n}_over_{int(scale)}", scale))
    elif quantity == "qb_scaled":
        st = math.sin(THETA0)
        xyz = grid[:, None] * [math.cos(THETA0), st * math.cos(PHI0), st * math.sin(PHI0)]
        for n in ns:
            scale = trace_limit_reference(QUASI_BURES, n, "pure")
            vals = _gm_trace_batch(QUASI_BURES, n, xyz) / scale
            tables.append(CurveTable(grid, vals, f"qb_trace_N{n}_scaled", scale))
    elif quantity == "entry11_over_N":
        if np.any(grid >= 1.0):
            raise PureStateError("closed-form Fisher matrices diverge at r = 1")
        for n in ns:
            radial, _ = povm._even_profile(n, grid * grid)
            vals = radial / ((1.0 - grid) * (1.0 + grid)) / n
            tables.append(CurveTable(grid, vals, f"entry11_N{n}_over_N", float(n)))
    else:  # g_functions, sampled in s
        for n in ns:
            if n == 2:
                vals = infogeo.g_function(HELSTROM, grid) / 2.0
            elif n == 4:
                vals = infogeo.g_function(infogeo.FITTED_N4, grid)
            elif n == 6:
                vals = infogeo.g_function(infogeo.FITTED_N6, grid)
            else:
                raise ValueError(f"g-profile curves exist for N in (2, 4, 6), got {n}")
            tables.append(CurveTable(grid, vals, f"g_fit_N{n}"))
    return tables
