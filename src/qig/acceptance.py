"""The acceptance checks behind ``qig verify-all`` and tests/test_acceptance.py.

Each check pins a verifiable numeric claim -- an identity between
independently computed quantities, a tabulated constant, or a structural
property -- together with its tolerance.  The checks are pure functions
returning (passed, detail); the CLI prints one ledger line per check and
the test suite asserts each one, so both surfaces run the same code.

Reference targets appearing here (pi^2, 21.0235, 35.0281, 51.0763, 69.1253,
88.8621, 0.992348, 0.395121, 144.372, 0.0832258, the 2N-1 and N-1 trace limits,
the Gill-Massar and Yuen-Lax trace polynomials, ...) are the tabulated values
this package is built to reproduce; the package derives its own traces, so
the polynomials live here, as the independent oracle of checks 4 and 8.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis, bloch, coding, estimator, infogeo, povm

__all__ = ["CheckResult", "CHECKS", "run_all", "ACCEPTANCE_MC_SEED"]

#: seed pinning the Monte Carlo acceptance run (statistical tolerances)
ACCEPTANCE_MC_SEED = 25

_POINT_SEED = 20260811


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    title: str
    passed: bool
    detail: str


def _interior_points(n, rmin=0.05, rmax=0.95, coord_min=0.02, seed=_POINT_SEED):
    """Pseudo-random interior states, bounded away from quadrinomial zeros."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-1.0, 1.0, 3)
        r = float(np.linalg.norm(v))
        if rmin < r < rmax and np.min(np.abs(v)) > coord_min:
            pts.append(v)
    return np.asarray(pts)


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _fd_fisher(model, c, h=1e-5):
    """Finite-difference Fisher oracle, independent of the complex-step path."""
    v = c.as_array()
    p = model.eval(c)
    grad = np.empty((model.n_outcomes, 3))
    for k in range(3):
        dv = np.zeros(3)
        dv[k] = h
        hi = model.eval(bloch.BlochCartesian(*(v + dv)))
        lo = model.eval(bloch.BlochCartesian(*(v - dv)))
        grad[:, k] = (hi - lo) / (2.0 * h)
    return (grad / p[:, None]).T @ grad


def check_fisher_engine(n_points=200):
    pts = _interior_points(n_points)
    m2, m3 = povm.vidal_model(2), povm.vidal_model(3)
    worst2 = worst3 = worst_fd = 0.0
    for v in pts:
        c = bloch.BlochCartesian(*v)
        f2 = infogeo.fisher_information(m2, c).entries
        h = infogeo.helstrom_cartesian(c).entries
        worst2 = max(worst2, _rel(f2, h))
        f3 = infogeo.fisher_information(m3, c).entries
        closed = povm.fisher_closed_form(3, c).entries
        worst3 = max(worst3, _rel(f3, closed))
        worst_fd = max(worst_fd, _rel(_fd_fisher(m2, c), f2), _rel(_fd_fisher(m3, c), f3))
    ok = worst2 <= 1e-9 and worst3 <= 1e-9 and worst_fd <= 1e-5
    return ok, (f"N=2 vs H_q rel {worst2:.2e} (<=1e-9), N=3 vs closed form rel "
                f"{worst3:.2e} (<=1e-9), finite-difference oracle rel {worst_fd:.2e} (<=1e-5)")


def check_quadrinomial(n_points=200):
    quad = infogeo.quadrinomial_model()
    worst = 0.0
    for v in _interior_points(n_points):
        c = bloch.BlochCartesian(*v)
        f = infogeo.fisher_information(quad, c).entries
        worst = max(worst, _rel(f, 4.0 * infogeo.helstrom_cartesian(c).entries))
    worst_add = 0.0
    for v in _interior_points(5, seed=_POINT_SEED + 1):
        c = bloch.BlochCartesian(*v)
        f1 = infogeo.fisher_information(quad, c).entries
        for k in (2, 3):
            fk = infogeo.fisher_information(infogeo.product_model(quad, k), c).entries
            worst_add = max(worst_add, _rel(fk, k * f1))
    ok = worst <= 1e-9 and worst_add <= 1e-9
    return ok, (f"Fisher vs 4*H_q rel {worst:.2e} (<=1e-9), "
                f"additivity k=2,3 rel {worst_add:.2e} (<=1e-9)")


def check_spherical_diagonalization(n_points=100):
    worst = 0.0
    for v in _interior_points(n_points):
        c = bloch.BlochCartesian(*v)
        s = bloch.to_spherical(c)
        for n in (4, 6):
            got = bloch.congruence_to_spherical(povm.fisher_closed_form(n, c), s).entries
            want = povm.fisher_spherical_diag(n, s).entries
            worst = max(worst, _rel(got, want))
    return worst <= 1e-9, f"congruence vs diagonal forms, N=4,6: rel {worst:.2e} (<=1e-9)"


#: the paper's Gill-Massar polynomials GM_N = trace(H_q^-1 F_N), N = 2..7: numerator
#: coefficients in x = r^2, lowest first, and denominator.  The oracle of check 4.
_GM_TABLE = {2: ((3,), 1), 3: ((5,), 1), 4: ((29, -1), 4), 5: ((19, -1), 2),
             6: ((95, -8, 1), 8), 7: ((57, -6, 1), 4)}
#: the paper's Yuen-Lax traces (1 - x) trace(F_N), N = 2, 4, 5, 6, in the same form; N = 5
#: adds a term in theta, the colatitude from (1,1,1)/sqrt(3) (_tabulated).  The oracle of check 8.
_YUEN_LAX_TABLE = {2: ((3, -2), 1), 4: ((87, -61, 10), 12), 5: ((147, -96, 13), 16),
                   6: ((1425, -1070, 307, -62), 120)}


def _tabulated(table, n_copies, r, theta=None):
    """A tabulated trace at radius r, a float or an array."""
    x = np.asarray(r, dtype=float) ** 2
    coeffs, den = table[n_copies]
    t = np.polynomial.polynomial.polyval(x, coeffs) / den
    if table is _YUEN_LAX_TABLE and n_copies == 5:
        t = t + 10.0 * (x - 1.0) ** 3 / (16.0 * (x + x * np.cos(2.0 * theta) - 2.0))
    return t


def check_gm_traces(n_points=100):
    worst = 0.0
    for v in _interior_points(n_points):
        c = bloch.BlochCartesian(*v)
        for n in _GM_TABLE:
            ref = _tabulated(_GM_TABLE, n, c.r)
            for got in (analysis.gm_trace(infogeo.HELSTROM, n, c), povm.gm_trace_reference(n, c.r)):
                worst = max(worst, abs(got - ref) / abs(ref))
    worst_lim = 0.0
    for n in _GM_TABLE:
        pure = analysis.limit_trace(infogeo.HELSTROM, n, "pure")
        mixed = analysis.limit_trace(infogeo.HELSTROM, n, "mixed")
        worst_lim = max(worst_lim,
                        abs(pure - (2.0 * n - 1.0)),
                        abs(mixed - _tabulated(_GM_TABLE, n, 0.0)))
    gm7_pure = float(_tabulated(_GM_TABLE, 7, 1.0))
    gm7_mixed = float(_tabulated(_GM_TABLE, 7, 0.0))
    ok = (worst <= 1e-9 and worst_lim <= 1e-5
          and gm7_pure == 13.0 and gm7_mixed == 14.25)
    return ok, (f"traces vs polynomials rel {worst:.2e} (<=1e-9), endpoint limits abs "
                f"{worst_lim:.2e} (<=1e-5), GM_7 endpoints {gm7_pure}, {gm7_mixed}")


_VOLUME_TARGETS = {2: math.pi ** 2, 3: 21.0235, 4: 35.0281, 5: 51.0763, 6: 69.1253,
                   7: 88.8621}


def check_volume_integrals():
    details = []
    ok = True
    for n, target in _VOLUME_TARGETS.items():
        v = analysis.volume_integral(n)
        rel = abs(v - target) / target
        tol = 1e-6 if n == 2 else 5e-4
        ok &= rel <= tol
        details.append(f"N={n}: {v:.5f} vs {target:.5f} rel {rel:.1e} (<={tol:g})")
    return ok, "; ".join(details)


def check_residual_structure(n_points=1000):
    pts = _interior_points(n_points, coord_min=0.0)
    worst_psd = -np.inf
    for n in (3, 4, 5, 6):
        res = povm.residual_batch(n, pts)
        norms = np.linalg.norm(res, axis=(-2, -1))
        worst_psd = max(worst_psd, float(np.max(np.linalg.eigvalsh(res / norms[:, None, None]))))
    r2 = np.sum(pts ** 2, axis=1)
    eig4 = np.sort(np.linalg.eigvalsh(povm.residual_batch(4, pts)), axis=1)
    expect4 = np.sort(np.stack([-np.full_like(r2, 7.0 / 12.0),
                                -(7.0 + 5.0 * r2) / 12.0,
                                -(7.0 + 5.0 * r2) / 12.0], axis=1), axis=1)
    worst4 = float(np.max(np.abs(eig4 - expect4)))
    eig5 = np.linalg.eigvalsh(povm.residual_batch(5, pts))
    target5 = (-(3.0 / 16.0) * (5.0 + 3.0 * r2))[:, None]
    worst5 = float(np.max(np.min(np.abs(eig5 - target5), axis=1)))
    diff46 = povm.residual_batch(4, pts) - povm.residual_batch(6, pts)
    min46 = float(np.min(np.linalg.eigvalsh(diff46)))
    ok = worst_psd <= 1e-10 and worst4 <= 1e-9 and worst5 <= 1e-8 and min46 >= 0.0
    return ok, (f"residual NSD max scaled eig {worst_psd:.1e} (<=1e-10); N=4 eigs abs "
                f"{worst4:.1e} (<=1e-9); N=5 eig abs {worst5:.1e} (<=1e-8); "
                f"R4-R6 min eig {min46:.3f} (>=0)")


def check_tight_bounds():
    c6 = analysis.min_dominating_scalar(6, (0.0, 0.999))
    radius = analysis.dominance_boundary_radius()
    ok = 4.99 < c6 <= 5.0 and abs(radius - 0.992348) <= 1e-4
    return ok, (f"min dominating scalar N=6 on r<=0.999: {c6:.6f} (in (4.99, 5]); "
                f"boundary radius {radius:.6f} (0.992348 +/- 1e-4)")


def check_modified_traces(n_points=100):
    worst = 0.0
    for v in _interior_points(n_points):
        c = bloch.BlochCartesian(*v)
        theta_diag = analysis.diagonal_colatitude(c)
        for n in _YUEN_LAX_TABLE:
            ref = _tabulated(_YUEN_LAX_TABLE, n, c.r, theta_diag)
            for got in (analysis.gm_trace(infogeo.YUEN_LAX, n, c),
                        analysis.modified_trace_reference(infogeo.YUEN_LAX, n, c.r,
                                                          theta=theta_diag)):
                worst = max(worst, abs(got - ref) / abs(ref))
    worst_yl = max(abs(analysis.limit_trace(infogeo.YUEN_LAX, n, "pure") - (n - 1.0))
                   for n in (2, 4, 5, 6))
    worst_qb = max(abs(analysis.limit_trace(infogeo.QUASI_BURES, n, "pure")
                       - analysis.trace_limit_reference(infogeo.QUASI_BURES, n, "pure"))
                   for n in (2, 4, 6))
    crossing = analysis.scaled_curve_intersection()
    ok = (worst <= 1e-9 and worst_yl <= 1e-5 and worst_qb <= 1e-6
          and abs(crossing - 0.395121) <= 1e-4)
    return ok, (f"Yuen-Lax closed forms rel {worst:.2e} (<=1e-9); pure limits N-1 abs "
                f"{worst_yl:.1e} (<=1e-5); quasi-Bures pure limits abs {worst_qb:.1e} "
                f"(<=1e-6); crossing {crossing:.6f} (0.395121 +/- 1e-4)")


def check_metric_fits():
    svals = np.linspace(0.005, 0.995, 100)
    worst = 0.0
    for s in svals:
        r = (1.0 - s) / (1.0 + s)
        pt = bloch.BlochSpherical(r, analysis.THETA0, analysis.PHI0)
        for n, kind in ((4, infogeo.FITTED_N4), (6, infogeo.FITTED_N6)):
            f22 = povm.fisher_spherical_diag(n, pt).entries[1, 1]
            g_from_matrix = f22 * (1.0 + r) / (n * r * r)
            worst = max(worst, abs(g_from_matrix - infogeo.g_function(kind, s)))
    grid = np.linspace(0.005, 1.0, 200)
    kinds = (infogeo.HELSTROM, infogeo.YUEN_LAX, infogeo.QUASI_BURES,
             infogeo.FITTED_N4, infogeo.FITTED_N6)
    decreasing = all(
        all(infogeo.g_function(k, grid[i + 1]) < infogeo.g_function(k, grid[i])
            for i in range(len(grid) - 1)) for k in kinds)
    ordered = all(
        infogeo.g_function(infogeo.FITTED_N6, s) > infogeo.g_function(infogeo.FITTED_N4, s)
        > infogeo.g_function(infogeo.HELSTROM, s) / 2.0 for s in grid)
    ok = worst <= 1e-10 and decreasing and ordered
    return ok, (f"fitted g(s) vs (2,2)-entry equation abs {worst:.1e} (<=1e-10); "
                f"all profiles strictly decreasing: {decreasing}; ordering "
                f"n6 > n4 > n2: {ordered}")


def check_coding_constants():
    norm_c = coding.prior_normalization(coding.JEFFREYS)
    norm_q = coding.prior_normalization(coding.QUASI_BURES_PRIOR)
    s1 = bloch.BlochSpherical(0.3, 1.0, 2.0)
    s2 = bloch.BlochSpherical(0.8, 2.2, 5.5)
    red = coding.classical_redundancy(100, s1)
    jeffreys_const = abs(red - coding.classical_redundancy(100, s2))
    jeffreys_value = abs(red - (1.5 * math.log(100 / (2 * math.pi * math.e))
                                + math.log(8 * math.pi ** 2)))
    rng = np.random.default_rng(_POINT_SEED)
    worst_q = worst_c = 0.0
    for _ in range(20):
        s = bloch.BlochSpherical(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.9),
                                 rng.uniform(0.0, 6.2))
        iq = coding.quantum_info_scalar(s.r)
        wq = coding.prior_value(coding.QUASI_BURES_PRIOR, s)
        worst_q = max(worst_q, abs(iq * s.r ** 4 * math.sin(s.theta) ** 2 / wq ** 2
                                   - coding.QUANTUM_RATIO))
        ic = coding.classical_info_determinant(s)
        wc = coding.prior_value(coding.JEFFREYS, s)
        worst_c = max(worst_c, abs(ic / wc ** 2 - coding.CLASSICAL_RATIO)
                      / coding.CLASSICAL_RATIO)
    rs = np.linspace(0.005, 0.995, 100)
    below = all(0.5 * math.log(coding.quantum_info_scalar(r))
                < 0.5 * math.log(64.0 / ((1.0 - r) * (1.0 + r))) for r in rs)
    ok = (abs(norm_c - 1.0) <= 1e-6 and abs(norm_q - 1.0) <= 1e-4
          and jeffreys_const <= 1e-9 and jeffreys_value <= 1e-9
          and worst_q <= 0.01 and worst_c <= 1e-9 and below)
    return ok, (f"int W_c = {norm_c:.9f} (1 +/- 1e-6, constant 8*pi^2 exact to "
                f"{max(jeffreys_const, jeffreys_value):.1e}); int W_q = {norm_q:.7f} "
                f"(1 +/- 1e-4); ratio 144.372 +/- {worst_q:.1e} (<=0.01); 64*pi^4 rel "
                f"{worst_c:.1e} (<=1e-9); quantum term below classical on grid: {below}")


def check_pure_state_structure():
    r_edge = 1.0 - 1e-6
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for theta, phi in ((1.1, 0.7), (2.0, 3.9)):
            s = bloch.BlochSpherical(r_edge, theta, phi)
            f = bloch.congruence_to_spherical(
                povm.fisher_closed_form(n, bloch.to_cartesian(s)), s).entries
            target = (n / 2.0) * infogeo.pure_helstrom_m2(theta).entries
            worst = max(worst,
                        abs(f[1, 1] - target[0, 0]),
                        abs(f[2, 2] - target[1, 1]),
                        abs(f[0, 1]), abs(f[0, 2]), abs(f[1, 2]))
    thetas = np.linspace(0.001, math.pi - 0.001, 50)
    phis = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    min_eig = np.inf
    asym = 0.0
    for th in thetas:
        for ph in phis:
            m = infogeo.pure_helstrom_m3(th, ph).entries
            asym = max(asym, float(np.max(np.abs(m - m.T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(m)[0]))
    ok = worst <= 1e-4 and asym == 0.0 and min_eig >= -1e-10
    return ok, (f"r->1 limits of mixed matrices vs (N/2)*diag(1, sin^2 theta): "
                f"{worst:.1e} (<=1e-4); m=3 matrix asymmetry {asym:g}, min eigenvalue "
                f"{min_eig:.2e} (>=-1e-10) on 50x50 grid, chi-free by construction")


def check_monte_carlo():
    run = estimator.EstimationRun(povm.vidal_model(2), bloch.BlochCartesian(0.3, 0.2, 0.1),
                                  trials=10 ** 5, repetitions=100, seed=ACCEPTANCE_MC_SEED)
    rep = estimator.efficiency_report(run)
    ratio_err = float(np.max(np.abs(rep.ratio_diag - 1.0)))
    gm_err = abs(rep.gm_trace - 3.0) / 3.0
    ok = ratio_err <= 0.10 and gm_err <= 0.05 and rep.failures == 0
    return ok, (f"cov/CRB diagonal ratios {np.round(rep.ratio_diag, 4).tolist()} "
                f"(within 10% of 1); empirical GM trace {rep.gm_trace:.4f} "
                f"(within 5% of 3); fit failures {rep.failures}")


# --- extra verification beyond the numbered criteria ------------------------

def check_roundtrip_extra():
    rng = np.random.default_rng(_POINT_SEED + 2)
    worst = 0.0
    for _ in range(10 ** 4):
        v = rng.uniform(-1.0, 1.0, 3)
        if not 1e-6 < np.linalg.norm(v) < 1.0:
            continue
        c = bloch.BlochCartesian(*v)
        back = bloch.to_cartesian(bloch.to_spherical(c))
        worst = max(worst, float(np.max(np.abs(back.as_array() - v))))
        s = bloch.to_spherical(c)
        if not s.is_degenerate:
            worst = max(worst, abs(np.linalg.det(bloch.jacobian(s))
                                   - s.r ** 2 * math.sin(s.theta)))
    return worst <= 1e-12, f"round trips and Jacobian determinant: abs {worst:.1e} (<=1e-12)"


def check_simplex_extra():
    rng = np.random.default_rng(_POINT_SEED + 3)
    pts = rng.uniform(-1.0, 1.0, (3 * 10 ** 4, 3))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0][:10 ** 4]
    models = [infogeo.quadrinomial_model(), povm.vidal_model(2), povm.vidal_model(3)]
    worst_sum = worst_neg = 0.0
    for m in models:
        p = m.eval_xyz(pts[:, 0], pts[:, 1], pts[:, 2])
        worst_sum = max(worst_sum, float(np.max(np.abs(p.sum(axis=0) - 1.0))))
        worst_neg = max(worst_neg, float(np.max(-p)))
    worst_rows = 0.0
    for m in models:
        for v in pts[:100]:
            g = m.grad(bloch.BlochCartesian(*v))
            worst_rows = max(worst_rows, float(np.max(np.abs(g.sum(axis=0)))))
    ok = worst_sum <= 1e-12 and worst_neg <= 1e-12 and worst_rows <= 1e-10
    return ok, (f"sum-to-one abs {worst_sum:.1e} (<=1e-12); negativity {worst_neg:.1e} "
                f"(<=1e-12); gradient column sums {worst_rows:.1e} (<=1e-10) "
                f"over 1e4 ball points")


def check_quasi_bures_constant_extra():
    k = coding.quasi_bures_constant_quadrature()
    diff = abs(k - coding.QUASI_BURES_CONSTANT)
    return diff <= 2e-7, (f"normalization constant by quadrature {k:.9f} vs tabulated "
                          f"{coding.QUASI_BURES_CONSTANT} (|diff| {diff:.1e} <= 2e-7)")


def check_curve_csv_extra():
    tables = analysis.curve_sample("gm_scaled", (4, 5, 6, 7), np.linspace(0.0, 1.0, 21))
    buf = io.StringIO()
    analysis.write_curves_csv(tables, buf)
    lines = buf.getvalue().strip().splitlines()
    shape_ok = lines[0] == "r,value,label" and len(lines) == 1 + 4 * 21
    vals0 = [povm.gm_trace_reference(n, 0.0) / (2 * n - 1) for n in (4, 5, 6, 7)]
    increasing = all(vals0[i + 1] > vals0[i] for i in range(3))
    reparsed = np.array([[float(x) for x in line.split(",")[:2]] for line in lines[1:22]])
    round_trip = (np.max(np.abs(reparsed[:, 0] - tables[0].r)) <= 1e-8
                  and np.max(np.abs(reparsed[:, 1] - tables[0].value)) <= 1e-8)
    ok = shape_ok and increasing and round_trip
    return ok, (f"CSV shape ok: {shape_ok}; y-intercepts increase with N "
                f"({[round(v, 4) for v in vals0]}): {increasing}; values round-trip "
                f"through text: {round_trip}")


CHECKS: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = [
    ("1", "Fisher-engine equivalences (N=2 -> H_q, N=3 -> closed form)", check_fisher_engine),
    ("2", "Quadrinomial identity 4*H_q and additivity", check_quadrinomial),
    ("3", "Spherical diagonalization of F_4, F_6", check_spherical_diagonalization),
    ("4", "Gill-Massar traces and endpoint limits", check_gm_traces),
    ("5", "Bloch-ball volume integrals", check_volume_integrals),
    ("6", "Residual structure F_N - (N-1)H_q", check_residual_structure),
    ("7", "Tight scalar bound and dominance boundary radius", check_tight_bounds),
    ("8", "Modified traces (Yuen-Lax, quasi-Bures) and crossing", check_modified_traces),
    ("9", "Monotone-metric fits g(s)", check_metric_fits),
    ("10", "Universal-coding constants and priors", check_coding_constants),
    ("11", "Pure-state structure (m=2 scaling, m=3 matrix)", check_pure_state_structure),
    ("12", "Monte Carlo Cramer-Rao validation (pinned seed)", check_monte_carlo),
    ("X1", "Coordinate round trips and Jacobian determinant", check_roundtrip_extra),
    ("X2", "Probability-simplex invariants over the ball", check_simplex_extra),
    ("X3", "Quasi-Bures constant recomputed by quadrature", check_quasi_bures_constant_extra),
    ("X4", "Curve CSV serialization and figure-1 ordering", check_curve_csv_extra),
]


def run_all(ids=None) -> list[CheckResult]:
    """Run the acceptance checks (all, or the given ids) and collect results."""
    wanted = None if ids is None else {str(i) for i in ids}
    results = []
    for check_id, title, fn in CHECKS:
        if wanted is not None and check_id not in wanted:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, title, passed, detail))
    return results
