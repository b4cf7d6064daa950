"""Exact coupler trajectories: the orbit of a point as M + U cos(phi) + V sin(phi).

A point x moves under a motion polynomial P on Y(t) = P*(1 - eps*x)*P~,
where P~ negates h1..h4 of each coefficient of P: the primal part of Y
is the norm polynomial n0 of P, and the dual part is -n0 times the image
of x.  MotionPoly.point_orbit forms Y on int numerators; Y is divided by
t^2 + 1, down to degree 2, while the remainder is exactly zero.  For the
Darboux motion (n0 = (t^2 + 1)^3) every point reduces to
(A0 + A1 t + A2 t^2)/(1 + t^2); with t = tan(phi/2) that is
M + U cos(phi) + V sin(phi), where M = (A0 + A2)/2, U = (A0 - A2)/2 and
V = A1/2.  The class follows with zero tolerance: an ellipse when
U x V != 0, a circle when also (U.V, |U|^2 - |V|^2) = (0, 0), a doubly
covered segment when U x V = 0 but U or V is nonzero, and a fixed point
when U = V = 0.  Y is affine in x, so the orbits of four affinely
independent points decide every orbit.

trace_fit forms Y once per point and reads it twice: rounded once and
evaluated at every t, the float lane's orbit (MotionPoly.orbit, what
svgplot draws), whose largest distance from the exact conic it reports,
and divided exactly.  The samples come first, so a coefficient of Y
beyond float64 exits as it does for the other sampling commands.

trace_fit keeps its module and name because the benchmark tracer
(bench/tracer.py) wraps conics.trace_fit and linkage.trace_point by
name, until ROADMAP item 1 moves its targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ._numpy import np
from .dualquat import Vec3, vcross, vdot, viszero
from .errors import KinematicsError
from .motionpoly import MotionPoly, orbit_samples, t_squared_plus_one
from .scalars import Scalar


class ConicClass(Enum):
    CIRCLE = "Circle"
    ELLIPSE = "Ellipse"
    DEGENERATE = "Degenerate"  # a doubly covered segment or a fixed point


@dataclass(frozen=True)
class TrajectoryReport:
    """Exact orbit M + U cos(phi) + V sin(phi) of a point (mean, cos, sin) and its class.

    normal is the orbit plane's unit normal, None for a segment or a fixed
    point; semi_axes (major, minor) is given for an ellipse or a circle
    only.  float_gap is the largest distance between the float lane's
    orbit at the n_samples parameter values and the exact conic there.
    """

    point: Tuple[float, float, float]
    n_samples: int
    float_gap: float
    conic_class: ConicClass
    mean: Vec3
    cos: Vec3
    sin: Vec3
    normal: Optional[Tuple[float, ...]]
    semi_axes: Optional[Tuple[float, float]]


def conic_orbit(orbit: MotionPoly) -> Tuple[Vec3, Vec3, Vec3]:
    """Exact (M, U, V) of an orbit polynomial Y = P*(1 - eps*x)*P~ (MotionPoly.point_orbit).

    The orbit of x under P is M + U cos(phi) + V sin(phi).  Raises
    KinematicsError when Y does not reduce to a quadratic over t^2 + 1,
    naming the degree it reduces to.
    """
    while orbit.degree > 2:
        quot, rem = orbit.divmod_right(t_squared_plus_one())
        if not rem.is_zero():
            break
        orbit = quot
    rows = orbit.num  # its den cancels in M, U and V
    alpha = rows[0][0] if rows else 0
    primal = [h[:4] for h in rows]  # must be alpha * (1 + t^2)
    if alpha == 0 or primal != [(alpha, 0, 0, 0), (0,) * 4, (alpha, 0, 0, 0)]:
        raise KinematicsError(
            f"the orbit does not reduce to a conic over t^2 + 1: reduced degree {orbit.degree}"
        )
    a0, a1, a2 = (h[5:] for h in rows)
    den = -2 * alpha  # A_k = -a_k / alpha
    return (
        tuple(Fraction(p + q, den) for p, q in zip(a0, a2)),
        tuple(Fraction(p - q, den) for p, q in zip(a0, a2)),
        tuple(Fraction(p, den) for p in a1),
    )


def trace_fit(poly: MotionPoly, point: Sequence[Scalar], ts: Sequence[float]) -> TrajectoryReport:
    """The exact orbit of point under poly, classified, and its gap to the float orbit at ts."""
    orbit = poly.point_orbit(point)
    samples = orbit_samples(orbit, ts)
    mean, u, v = conic_orbit(orbit)
    phi = 2 * np.arctan(np.asarray(ts, dtype=float))[:, None]
    fm, fu, fv = np.array([[float(c) for c in vec] for vec in (mean, u, v)])
    conic = fm + np.cos(phi) * fu + np.sin(phi) * fv
    gap = float(np.hypot.reduce(samples - conic, axis=1).max(initial=0.0))
    if viszero(vcross(u, v)):
        kind, normal, semi_axes = ConicClass.DEGENERATE, None, None
    else:
        circle = vdot(u, v) == 0 and vdot(u, u) == vdot(v, v)
        kind = ConicClass.CIRCLE if circle else ConicClass.ELLIPSE
        # The semi-axes are the singular values of [U V], the square roots of
        # the eigenvalues of its Gram matrix; the third left singular vector
        # is the plane's unit normal.
        left, axes, _ = np.linalg.svd(np.column_stack((fu, fv)))
        normal, semi_axes = tuple(left[:, 2].tolist()), tuple(axes.tolist())
    return TrajectoryReport(
        tuple(float(c) for c in point), len(samples), gap, kind, mean, u, v, normal, semi_axes
    )
