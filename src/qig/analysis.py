"""Gill-Massar traces, dominance analysis, volume integrals, and figure curves.

The Gill-Massar trace of a measurement is trace(G^{-1} F) with G a quantum
information (metric) matrix and F the measurement's Fisher matrix.  With the
Helstrom metric it is bounded by N for separable measurements on N copies;
the optimal joint measurements exceed that bound everywhere, with pure-state
limit exactly 2N - 1.  This module computes the traces for any metric kind,
their endpoint limits, the matrix-dominance structure c*H_q >= F_N and its
tight scalar, the Bloch-ball volume integrals of sqrt(det F_N), and sampled
curve tables suitable for reproducing the figures.

The traces, reference polynomials and curves are evaluated on arrays of
points or radii in one call each; :func:`gm_trace` and the other
point-wise functions are wrappers that validate one state.

Scans use a deterministic low-discrepancy grid (Halton, fixed seed below)
of ball points plus a dense radial line near r = 1, where all known
dominance violations cluster.  PSD decisions rescale the matrix to unit
Frobenius norm before applying the eigenvalue tolerance, so near-pure
points with entries of order 1/(1-r^2) are judged on relative footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.stats import qmc

from . import infogeo, povm
from .bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    PureStateError,
    to_cartesian,
)
from .coding import _gl_nodes
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
    "near_origin_diagnostic",
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
#: fixed non-degenerate direction used when a curve depends on r only
THETA0, PHI0 = 1.1, 0.7


class NonConvergenceError(RuntimeError):
    """Successive quadrature refinements disagreed beyond the requested tolerance."""


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _gm_trace_batch(metric, n_copies: int, xyz) -> np.ndarray:
    """gm_trace at points of shape (..., 3), all with 0 < r < 1."""
    xyz = np.asarray(xyz, dtype=float)
    r2 = np.sum(xyz * xyz, axis=-1)
    if np.any(r2 >= 1.0):
        raise PureStateError("gm_trace needs r < 1; use limit_trace('pure')")
    if np.any(r2 <= 0.0):
        raise ValueError("gm_trace needs r > 0; use limit_trace('mixed')")
    f = povm.closed_form_batch(n_copies, xyz)
    q = np.einsum("...i,...ij,...j->...", xyz, f, xyz) / r2
    a = infogeo._angular_scale(metric, np.sqrt(r2))
    return (1.0 - r2) * q + (np.trace(f, axis1=-2, axis2=-1) - q) / a


def gm_trace(metric, n_copies: int, c: BlochCartesian) -> float:
    """trace(G(metric)^{-1} F_N) at an interior state, 0 < r < 1.

    Coordinate-system independent, and evaluated without a chart: G^{-1} is
    1-r^2 along the radial unit vector and 1/(r^2 a) on the tangent plane,
    a(r) = g(s)/(1+r), so with v the state and q = v^T F_N v / r^2

        trace = (1-r^2) q + (trace F_N - q) / a,

    which for Helstrom (a = 1) is trace F_N - v^T F_N v.  States on the
    polar axis of the x-polar chart need no special care.  Endpoints are
    excluded (the Helstrom metric is singular at r = 1, the angular parts
    of others at r = 0); use :func:`limit_trace` there.
    """
    return float(_gm_trace_batch(metric, n_copies, c.as_array()))


def diagonal_colatitude(c: BlochCartesian) -> float:
    """Colatitude of a state from the (1,1,1)/sqrt(3) axis: acos((x+y+z)/(sqrt(3) r)).

    This is the angle the N = 5 modified-trace closed form depends on; the
    measurement family singles out the diagonal direction, so its traces are
    symmetric about that axis rather than the x-polar one.
    """
    r = c.r
    if r <= 0.0:
        raise DegenerateCoordinatesError("colatitude undefined at the origin")
    return math.acos(max(-1.0, min(1.0, (c.x + c.y + c.z) / (math.sqrt(3.0) * r))))


def modified_trace_reference(metric, n_copies: int, r, theta=None):
    """Closed-form Yuen-Lax (right-logarithmic-derivative) modified traces.

    The Yuen-Lax metric is conformal in Cartesian coordinates
    (G = I/(1-r^2)), so these traces are (1-r^2) * trace(F_N).  Available
    for N = 2, 4, 5, 6; all equal N - 1 at r = 1 and coincide with the
    Helstrom traces at r = 0.  Accepts floats (returns a float) or arrays.

    The N = 5 form carries an angle-dependent term, so theta is required
    there.  theta is the colatitude from the DIAGONAL axis (1,1,1)/sqrt(3)
    (see :func:`diagonal_colatitude`), the symmetry axis of the five-copy
    family -- not the x-polar chart angle.  For even N the closed forms are
    direction-free, matching the permutation symmetry of the matrices.
    """
    metric = as_metric_kind(metric)
    if metric.name != "yuen_lax":
        raise ValueError("closed-form modified traces are available for the "
                         "yuen_lax metric only")
    r2 = np.asarray(r, dtype=float) ** 2
    if n_copies == 2:
        t = 3.0 - 2.0 * r2
    elif n_copies == 4:
        t = (87.0 - 61.0 * r2 + 10.0 * r2 * r2) / 12.0
    elif n_copies == 5:
        if theta is None:
            raise ValueError("the N = 5 modified trace depends on theta; pass theta")
        denom = r2 + r2 * np.cos(2.0 * np.asarray(theta, dtype=float)) - 2.0
        t = (147.0 - 96.0 * r2 + 13.0 * r2 * r2
             + 10.0 * (r2 - 1.0) ** 3 / denom) / 16.0
    elif n_copies == 6:
        t = (1425.0 - 1070.0 * r2 + 307.0 * r2 * r2 - 62.0 * r2 ** 3) / 120.0
    else:
        raise povm.UnsupportedNError(
            f"closed-form modified traces exist for N in (2, 4, 5, 6), got {n_copies}")
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
    coincide at r = 0, where the trace is the Gill-Massar value GM_N(0).
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

def dominance_check(a: InfoMatrix, b: InfoMatrix) -> float:
    """Minimum eigenvalue of A - B; A dominates B iff it is >= -tol."""
    if a.coords != b.coords or a.dim != b.dim:
        raise ValueError(f"matrix mismatch: {a.coords}/{a.dim} vs {b.coords}/{b.dim}")
    return float(np.linalg.eigvalsh(a.entries - b.entries)[0])


def dominates(a: InfoMatrix, b: InfoMatrix, tol: float = PSD_TOL) -> bool:
    """Whether A - B is PSD, judged on the unit-Frobenius-scaled difference."""
    d = a.entries - b.entries
    norm = np.linalg.norm(d)
    if norm == 0.0:
        return True
    return bool(np.linalg.eigvalsh(d / norm)[0] >= -tol)


def ball_grid(region: tuple[float, float] = (0.0, 0.999),
              n_points: int = GRID_POINTS,
              edge_points: int = EDGE_POINTS) -> np.ndarray:
    """Deterministic scan grid over a radial shell of the Bloch ball.

    Low-discrepancy (scrambled Halton, seed GRID_SEED) points uniform in
    volume over the shell, plus ``edge_points`` radii packed geometrically
    against the outer radius along each of EDGE_DIRECTIONS -- dominance
    violations concentrate at nearly pure states.
    """
    lo, hi = float(region[0]), float(region[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"bad region {region}")
    if hi >= 1.0:
        raise ValueError("scan region must stay strictly inside the ball (hi < 1)")
    u = qmc.Halton(d=3, scramble=True, seed=GRID_SEED).random(n_points)
    r = np.cbrt(lo ** 3 + u[:, 0] * (hi ** 3 - lo ** 3))
    cos_t = 2.0 * u[:, 1] - 1.0
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    phi = 2.0 * math.pi * u[:, 2]
    pts = np.column_stack([r * cos_t, r * sin_t * np.cos(phi), r * sin_t * np.sin(phi)])
    if edge_points:
        gap = np.geomspace(1e-7, max(hi - lo, 1e-3) * 0.1, edge_points)
        radii = np.clip(hi - gap, lo, hi)
        lines = [np.outer(radii, d) for d in EDGE_DIRECTIONS]
        pts = np.vstack([pts] + lines)
    return pts


def _scaled_min_eigs(scalar: float, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Min eigenvalue of (c*H_q - F_N)/||.||_F at each scan point."""
    d = scalar * h - f
    norms = np.linalg.norm(d, axis=(-2, -1))
    norms[norms == 0.0] = 1.0
    return np.linalg.eigvalsh(d / norms[:, None, None])[:, 0]


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


def scan_dominance(n_copies: int, scalar: float,
                   region: tuple[float, float] = (0.0, 0.999),
                   tol: float = PSD_TOL, max_reported: int = 50) -> DominanceReport:
    """Scan whether scalar*H_q dominates F_N over the deterministic grid."""
    pts = ball_grid(region)
    eigs = _scaled_min_eigs(scalar, infogeo.helstrom_batch(pts),
                            povm.closed_form_batch(n_copies, pts))
    bad = np.flatnonzero(eigs < -tol)
    order = bad[np.argsort(eigs[bad])][:max_reported]
    return DominanceReport(
        scalar_bound=float(scalar),
        min_eigenvalue_found=float(eigs.min()),
        violating_points=[BlochCartesian(*pts[i]) for i in order],
        region=(float(region[0]), float(region[1])),
        n_violations=int(bad.size),
    )


def min_dominating_scalar(n_copies: int,
                          region: tuple[float, float] = (0.0, 0.999),
                          tol: float = 1e-4,
                          psd_tol: float = PSD_TOL) -> float:
    """Smallest c (bisection to ``tol``) with c*H_q - F_N PSD over the scan grid.

    The Cramer-Rao bound guarantees c = N works, so bisection starts on
    [0, N].  Enlarging the region can only raise the result.
    """
    if n_copies not in (3, 4, 5, 6):
        raise povm.UnsupportedNError(
            f"dominating-scalar search needs a closed-form matrix, N in 3..6, got {n_copies}")
    pts = ball_grid(region)
    h = infogeo.helstrom_batch(pts)
    f = povm.closed_form_batch(n_copies, pts)

    def dominated(c):
        return bool(_scaled_min_eigs(c, h, f).min() >= -psd_tol)

    lo, hi = 0.0, float(n_copies)
    if not dominated(hi):
        raise RuntimeError(f"{n_copies}*H_q fails to dominate F_{n_copies}; "
                           "the Cramer-Rao cap must hold, so the grid or the "
                           "matrices are inconsistent")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dominated(mid):
            hi = mid
        else:
            lo = mid
    return hi


def near_origin_diagnostic(n_copies: int, eps: float = 1e-3) -> np.ndarray:
    """Eigenvalues of F_N(eps, 0, 0) divided by N/2, smallest first.

    Near the fully mixed state the Fisher matrices appear to approach
    (N/2) * identity from above; that is a conjecture, so this is reported
    as a diagnostic (ratios > 1 support it) rather than asserted.
    """
    f = povm.fisher_closed_form(n_copies, BlochCartesian(eps, 0.0, 0.0))
    return np.linalg.eigvalsh(f.entries) / (n_copies / 2.0)


def dominance_boundary_radius() -> float:
    """Radius above which 4.99*H_q stops dominating F_6.

    Root in (0, 1) of 47 r^4 - 172 r^2 + 123.8: rewriting F_6 around
    4.99 H_q shifts the residual eigenvalue numerator's constant 125 to
    123.8, and that numerator changes sign here (near 0.992348).
    """
    def poly(r):
        r2 = r * r
        return 47.0 * r2 * r2 - 172.0 * r2 + 123.8

    return float(brentq(poly, 0.9, 0.9999, xtol=1e-12))


# ---------------------------------------------------------------------------
# Volume integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre tensor-product settings for the ball integrals.

    ``order`` is the node count per axis; convergence is declared when the
    result at order and at ceil(1.5 * order) agree to ``rtol`` relative.
    """

    order: int = 48
    rtol: float = 1e-6

    def __post_init__(self):
        if self.order < 48:
            raise ValueError("quadrature order below the default 48 is not allowed")


#: odd-N determinants at or above -_DET_ROUNDOFF * max|F|^3 count as zero
_DET_ROUNDOFF = 1e-12


def _volume_at_order(n_copies: int, order: int) -> float:
    # substitute r = sin(u): dr = cos(u) du soaks up the (1-r^2)^(-1/2)
    # boundary singularity of sqrt(det F)
    u, wu = _gl_nodes(order, 0.0, 0.5 * math.pi)
    r = np.sin(u)
    t, wt = _gl_nodes(order, 0.0, math.pi)
    if n_copies % 2 == 0:
        # diagonal spherical form: sqrt(det) = sin(theta) r^2 a sqrt(b) / cos(u);
        # the angular integral factorizes
        r2 = r * r
        b, a = povm._even_profile(n_copies, r2)
        radial = float(np.sum(wu * r2 * a * np.sqrt(b)))  # cos(u) cancelled
        angular = float(np.sum(wt * np.sin(t))) * 2.0 * math.pi
        return radial * angular
    # odd N: det in the spherical chart is (r^2 sin(theta))^2 det F_cartesian
    p, wp = _gl_nodes(order, 0.0, 2.0 * math.pi)
    rr = r[:, None, None]
    tt = t[None, :, None]
    pp = p[None, None, :]
    st = np.sin(tt)
    xyz = np.stack(np.broadcast_arrays(
        rr * np.cos(tt), rr * st * np.cos(pp), rr * st * np.sin(pp)), axis=-1)
    f = povm.closed_form_batch(n_copies, xyz)
    det = np.linalg.det(f)
    # F_N is PSD, so a negative determinant may only be roundoff
    floor = -_DET_ROUNDOFF * np.max(np.abs(f), axis=(-2, -1)) ** 3
    if np.any(det < floor):
        worst = np.unravel_index(np.argmin(det - floor), det.shape)
        raise RuntimeError(
            f"det F_{n_copies} = {det[worst]:.3e} at a quadrature node (order {order}) "
            f"is below the roundoff floor {floor[worst]:.3e}; F_{n_copies} is not PSD there")
    integrand = (rr * rr * st) * np.sqrt(np.maximum(det, 0.0)) * np.cos(u)[:, None, None]
    weights = wu[:, None, None] * wt[None, :, None] * wp[None, None, :]
    return float(np.sum(weights * integrand))


def volume_integral(n_copies: int, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of sqrt(det F_N) over the unit ball, N in 2..6.

    Returns the refined value after checking that two successive quadrature
    orders agree to quad.rtol relative; raises NonConvergenceError otherwise.
    """
    if n_copies not in povm.SUPPORTED_MATRICES:
        povm._raise_unsupported(n_copies)
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
    if diff(lo) * diff(hi) >= 0:
        raise RuntimeError("no sign change on (0.05, 0.95); cannot bracket the crossing")
    return float(brentq(diff, lo, hi, xtol=1e-10))


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
