"""Closed-form references the benchmark checks qig's outputs against.

Every formula here is written out independently of ``src/qig`` from the
identities the paper states, so a check compares two derivations rather
than one function with itself.  Only the standard library and numpy.

Chart: x-polar, x = r cos(theta), y = r sin(theta) cos(phi),
z = r sin(theta) sin(phi).  Monotone metrics are diagonal there:
G = diag(1/(1-r^2), r^2 g(s)/(1+r), r^2 g(s) sin^2(theta)/(1+r)) with
s = (1-r)/(1+r).
"""

from __future__ import annotations

import math

import numpy as np

#: paper constants, with the tolerances of the acceptance ledger
VOLUMES = {2: math.pi ** 2, 3: 21.0235, 4: 35.0281, 5: 51.0763, 6: 69.1253}
VOLUME_RTOL = {2: 1e-6, 3: 5e-4, 4: 5e-4, 5: 5e-4, 6: 5e-4}
BOUND_RADIUS, BOUND_RADIUS_TOL = 0.992348, 1e-4
CROSSING, CROSSING_TOL = 0.395121, 1e-4
QUASI_BURES_CONSTANT, QUASI_BURES_TOL = 0.0832258, 2e-7
PRIOR_NORM_TOL = 1e-4
C6_OPEN_LOW, C6_HIGH = 4.99, 5.0


def helstrom(v) -> np.ndarray:
    """H_q = I + v v^T / (1 - r^2)."""
    v = np.asarray(v, dtype=float)
    return np.eye(3) + np.outer(v, v) / (1.0 - v @ v)


def helstrom_inverse(v) -> np.ndarray:
    """H_q^{-1} = I - v v^T."""
    v = np.asarray(v, dtype=float)
    return np.eye(3) - np.outer(v, v)


def gm_trace_helstrom(n: int, r2):
    """Gill-Massar trace trace(H_q^{-1} F_N) as a polynomial in r^2."""
    return {2: lambda: 3.0 + 0.0 * r2,
            3: lambda: 5.0 + 0.0 * r2,
            4: lambda: (29.0 - r2) / 4.0,
            5: lambda: (19.0 - r2) / 2.0,
            6: lambda: (95.0 - 8.0 * r2 + r2 * r2) / 8.0,
            7: lambda: (57.0 - 6.0 * r2 + r2 * r2) / 4.0}[n]()


def fisher_odd(n: int, xyz) -> np.ndarray:
    """F_N = (N-1) H_q + R_N for N = 3, 5 at points of shape (m, 3) -> (m, 3, 3).

    Odd N has no diagonal chart.  The residual is written in invariants of
    v, r^2 and s = x + y + z (the measurement's axis is (1, 1, 1)), with J
    the all-ones matrix:

        R_3 = -I/2 + (1 - r^2) / (2 (3 - s^2)) J
        R_5 = -(3/16)(5 + 3 r^2) I + (7/8) v v^T + 5 (1 - r^2)^2 / (16 (3 - s^2)) J
    """
    v = np.asarray(xyz, dtype=float)
    r2 = np.sum(v * v, axis=-1)[:, None, None]
    s2 = np.sum(v, axis=-1)[:, None, None] ** 2
    eye, ones = np.eye(3), np.ones((3, 3))
    if n == 3:
        residual = -0.5 * eye + (1.0 - r2) / (2.0 * (3.0 - s2)) * ones
    elif n == 5:
        residual = (-3.0 / 16.0 * (5.0 + 3.0 * r2) * eye + 7.0 / 8.0 * v[:, :, None] * v[:, None, :]
                    + 5.0 * (1.0 - r2) ** 2 / (16.0 * (3.0 - s2)) * ones)
    else:
        raise ValueError(f"no odd-N reference for N={n}")
    return (n - 1.0) * np.stack([helstrom(p) for p in v]) + residual


def even_spherical(n: int, r):
    """(F_rr (1-r^2), F_thth) of the diagonal spherical F_N for even N.

    F_phph = F_thth sin^2(theta).
    """
    r2 = np.asarray(r, dtype=float) ** 2
    if n == 2:
        return np.ones_like(r2), r2
    if n == 4:
        return (29.0 + 7.0 * r2) / 12.0, r2 * (29.0 - 5.0 * r2) / 12.0
    if n == 6:
        return ((475.0 + 172.0 * r2 - 47.0 * r2 * r2) / 120.0,
                r2 * (475.0 - 146.0 * r2 + 31.0 * r2 * r2) / 120.0)
    raise ValueError(f"no diagonal spherical form for N={n}")


def g_profile(kind: str, s):
    """Radial profile g(s) of a monotone metric, s in (0, 1]."""
    s = np.asarray(s, dtype=float)
    if kind == "helstrom":
        return 2.0 / (1.0 + s)
    if kind == "quasi_bures":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(1.0 + s * np.log(s) / (1.0 - s))
        return np.where(s == 1.0, 1.0, out)
    if kind == "fitted_n4":
        return (6.0 + 17.0 * s + 6.0 * s * s) / (6.0 * (1.0 + s) ** 3)
    if kind == "fitted_n6":
        return ((45.0 + 222.0 * s + 416.0 * s ** 2 + 222.0 * s ** 3 + 45.0 * s ** 4)
                / (45.0 * (1.0 + s) ** 5))
    raise ValueError(kind)


def metric_trace_even(kind: str, n: int, r):
    """trace(G(kind)^{-1} F_N) for even N; direction-free."""
    r = np.asarray(r, dtype=float)
    radial, angular = even_spherical(n, r)
    g = g_profile(kind, (1.0 - r) / (1.0 + r))
    return radial + 2.0 * angular * (1.0 + r) / (r * r * g)


def qb_pure_limit(n: int) -> float:
    """Quasi-Bures trace at r = 1: (N-1) + 2N/e."""
    return (n - 1.0) + 2.0 * n / math.e


def yuen_lax_trace_cartesian(f: np.ndarray, v) -> float:
    """The Yuen-Lax metric is I/(1-r^2) in Cartesian form, so the trace is (1-r^2) tr F."""
    v = np.asarray(v, dtype=float)
    return (1.0 - v @ v) * float(np.trace(f))


def spherical(v):
    """x-polar (r, theta, phi) of a Cartesian point, phi in [0, 2 pi)."""
    x, y, z = (float(t) for t in v)
    r = math.sqrt(x * x + y * y + z * z)
    return r, math.acos(max(-1.0, min(1.0, x / r))), math.atan2(z, y) % (2.0 * math.pi)


def jacobian(r: float, theta: float, phi: float) -> np.ndarray:
    """d(x, y, z)/d(r, theta, phi) of the x-polar chart."""
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return np.array([[ct, -r * st, 0.0],
                     [st * cp, r * ct * cp, -r * st * sp],
                     [st * sp, r * ct * sp, r * st * cp]])


def metric_trace_cartesian(kind: str, f: np.ndarray, v) -> float:
    """trace(G(kind)^{-1} F) for a Cartesian F, through the diagonal chart."""
    r, theta, phi = spherical(v)
    j = jacobian(r, theta, phi)
    f_diag = np.einsum("ij,ik,kj->j", j, f, j)
    ang = r * r * float(g_profile(kind, (1.0 - r) / (1.0 + r))) / (1.0 + r)
    g_diag = np.array([1.0 / ((1.0 - r) * (1.0 + r)), ang, ang * math.sin(theta) ** 2])
    return float(np.sum(f_diag / g_diag))


def yuen_lax_even(n: int, r):
    """Yuen-Lax trace polynomials for N = 2, 4, 6."""
    r2 = np.asarray(r, dtype=float) ** 2
    return {2: lambda: 3.0 - 2.0 * r2,
            4: lambda: (87.0 - 61.0 * r2 + 10.0 * r2 * r2) / 12.0,
            6: lambda: (1425.0 - 1070.0 * r2 + 307.0 * r2 * r2 - 62.0 * r2 ** 3) / 120.0}[n]()


def quantum_info_scalar(r):
    """I_q(r) = e^2/(1-r^2)^2 ((1-r)/(1+r))^(1/r)."""
    r = np.asarray(r, dtype=float)
    return math.e ** 2 / (1.0 - r * r) ** 2 * np.exp(np.log((1.0 - r) / (1.0 + r)) / r)


def quasi_bures_radial(r: float) -> float:
    """w_q(r) = K e/(1-r^2) ((1-r)/(1+r))^(1/(2r)) at the tabulated K."""
    return (QUASI_BURES_CONSTANT * math.e / (1.0 - r * r)
            * math.exp(math.log((1.0 - r) / (1.0 + r)) / (2.0 * r)))


def quantum_redundancy(n_length: int, r: float) -> float:
    """(3/2) log(N / 2 pi e) + (1/2) log I_q(r) - log w_q(r)."""
    return (1.5 * math.log(n_length / (2.0 * math.pi * math.e))
            + 0.5 * math.log(float(quantum_info_scalar(r))) - math.log(quasi_bures_radial(r)))


def bound_radius_residual(r: float) -> float:
    """47 r^4 - 172 r^2 + 123.8, whose root in (0, 1) is the 4.99 H_q boundary."""
    r2 = r * r
    return 47.0 * r2 * r2 - 172.0 * r2 + 123.8


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    """Elementwise |a - b| <= atol + rtol * max|b|, NaN-safe."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.all(np.abs(a - b) <= atol + rtol * scale))
