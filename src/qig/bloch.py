"""Bloch-ball state representations, coordinate transforms, and congruences.

A two-level density matrix is parameterized by a point of the closed unit
ball in R^3; r = 1 is the pure-state boundary and r = 0 the fully mixed
state.  The spherical convention used throughout this package puts the
POLAR AXIS ON X:

    x = r cos(theta),   y = r sin(theta) cos(phi),   z = r sin(theta) sin(phi),

with theta in [0, pi] and phi in [0, 2*pi).  This is not the conventional
z-axis choice; every diagonal spherical formula in the package (information
matrices, priors, volume elements) depends on it.

States are stored in Cartesian coordinates; the spherical triple is a view.
Degenerate spherical points (r = 0, or theta in {0, pi} where phi is
undefined) are flagged, and operations that need a well-defined chart
refuse them rather than returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlochCartesian",
    "BlochSpherical",
    "InfoMatrix",
    "InvalidStateError",
    "PureStateError",
    "DegenerateCoordinatesError",
    "to_spherical",
    "to_cartesian",
    "jacobian",
    "congruence_to_spherical",
]

_BALL_TOL = 1e-12
_DEGENERATE_TOL = 1e-12

#: dimension implied by each coordinate tag of an InfoMatrix
COORD_DIMS = {"cartesian": 3, "spherical": 3, "pure-m2": 2, "pure-m3": 4}


class InvalidStateError(ValueError):
    """Raised for coordinates that do not describe a state in the closed ball."""


class PureStateError(ValueError):
    """Raised when a quantity that diverges at r = 1 is requested there."""


class DegenerateCoordinatesError(ValueError):
    """Raised for spherical operations at r = 0 or theta in {0, pi}."""


@dataclass(frozen=True)
class BlochCartesian:
    """A two-level state in Cartesian Bloch coordinates, x^2+y^2+z^2 <= 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not r2 <= 1.0 + _BALL_TOL:
            raise InvalidStateError(
                f"({self.x}, {self.y}, {self.z}) lies outside the unit ball "
                f"(x^2+y^2+z^2 = {r2})"
            )

    @property
    def r2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    @property
    def r(self) -> float:
        return math.sqrt(self.r2)

    @property
    def is_pure(self) -> bool:
        return self.r2 >= 1.0 - _BALL_TOL

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class BlochSpherical:
    """A state in the x-polar spherical chart (r, theta, phi)."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0 + _BALL_TOL:
            raise InvalidStateError(f"radius {self.r} outside [0, 1]")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidStateError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise InvalidStateError(f"phi {self.phi} outside [0, 2*pi)")

    @property
    def is_degenerate(self) -> bool:
        """True at the origin and on the polar axis, where the chart breaks down."""
        return (self.r < _DEGENERATE_TOL
                or self.theta < _DEGENERATE_TOL
                or math.pi - self.theta < _DEGENERATE_TOL)

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.theta, self.phi], dtype=float)


@dataclass(frozen=True)
class InfoMatrix:
    """A symmetric real information/metric matrix with a coordinate tag.

    The constructor validates symmetry (to 1e-12, relative to the largest
    entry so near-pure matrices with huge entries are accepted) and stores
    an exactly symmetrized read-only copy.
    """

    entries: np.ndarray
    coords: str

    def __post_init__(self):
        if self.coords not in COORD_DIMS:
            raise ValueError(f"unknown coordinate tag {self.coords!r}")
        m = np.asarray(self.entries, dtype=float)
        dim = COORD_DIMS[self.coords]
        if m.shape != (dim, dim):
            raise ValueError(
                f"{self.coords!r} information matrix must be {dim}x{dim}, got {m.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(m))))
        asym = float(np.max(np.abs(m - m.T)))
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
        sym = 0.5 * (m + m.T)
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


def to_spherical(c: BlochCartesian) -> BlochSpherical:
    """Convert to the x-polar spherical chart.

    At the origin theta and phi are set to 0 by convention; the returned
    point reports ``is_degenerate``.  Points on the x-axis get phi = 0.
    """
    r = math.sqrt(c.r2)
    if r < _DEGENERATE_TOL:
        return BlochSpherical(0.0, 0.0, 0.0)
    theta = math.atan2(math.hypot(c.y, c.z), c.x)  # acos(x/r) loses digits near the poles
    phi = math.atan2(c.z, c.y)
    if phi < 0.0:
        phi += 2.0 * math.pi
    if phi >= 2.0 * math.pi:  # atan2 rounding at the wrap-around
        phi = 0.0
    return BlochSpherical(r, theta, phi)


def to_cartesian(s: BlochSpherical) -> BlochCartesian:
    """Invert the x-polar chart: (r, theta, phi) -> (x, y, z)."""
    st = math.sin(s.theta)
    return BlochCartesian(
        s.r * math.cos(s.theta),
        s.r * st * math.cos(s.phi),
        s.r * st * math.sin(s.phi),
    )


def jacobian(s: BlochSpherical) -> np.ndarray:
    """Jacobian d(x,y,z)/d(r,theta,phi) of the x-polar chart.

    Its determinant is r^2 sin(theta).  Degenerate points are refused: the
    matrix would be singular and congruences through it meaningless.
    """
    if s.is_degenerate:
        raise DegenerateCoordinatesError(
            f"jacobian undefined at degenerate point (r={s.r}, theta={s.theta})"
        )
    ct, st = math.cos(s.theta), math.sin(s.theta)
    cp, sp = math.cos(s.phi), math.sin(s.phi)
    r = s.r
    return np.array([
        [ct, -r * st, 0.0],
        [st * cp, r * ct * cp, -r * st * sp],
        [st * sp, r * ct * sp, r * st * cp],
    ])


def congruence_to_spherical(m: InfoMatrix, s: BlochSpherical) -> InfoMatrix:
    """Transform a Cartesian metric-like matrix to spherical coordinates.

    Applies the congruence J^T M J with J the chart Jacobian at ``s``; this
    is the transformation law of a rank-(0,2) tensor, and it preserves
    trace(G^{-1} F) for any pair transformed with the same J.
    """
    if m.coords != "cartesian":
        raise ValueError(f"expected a cartesian matrix, got {m.coords!r}")
    j = jacobian(s)
    return InfoMatrix(j.T @ m.entries @ j, "spherical")
