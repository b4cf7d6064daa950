"""The general Darboux motion and its four factorizations into rotations.

The motion sends a moving point (x, y, z) to

    X = x cos(phi) - y sin(phi)
    Y = x sin(phi) + y cos(phi) + a sin(phi)
    Z = z + b sin(phi) + c (1 - cos(phi))

with shape parameters a != 0, b, c: every point traces an ellipse in a
plane, the planes of different points need not be parallel.  With the
tangent half-angle substitution t = tan(phi/2) the motion is a cubic
motion polynomial C; a constant frame change k + c*eps turns C into the
polynomial C0 whose action reproduces the equations above directly.

C admits one factorization into three rotation factors (FI) and, after
multiplying by the cofactor t^2 + 1, two essentially different families
of four-factor decompositions with a doubled factor (FII with the
doubled factor in the middle, FIII with a two-parameter family of
doubled last factors).  FIV is the anchor instance of FIII at
(a, b, c, x, y) = (1, 2, 0, 0, 0).  Combining two factorizations of the
same motion yields closed 7R linkages (see linkage.py).

FI exists because C / Q3 is a circular translation.  derive_fi and
derive_fiii decide that condition exactly (_circular_split) and find
their factors by it; nothing here fits floats.  factor_fiii divides
nothing: its Q'7 follows from the sum of the roots, checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from .dualquat import (
    DQ_ONE,
    AxisLine,
    DisplacementKind,
    DualQuaternion,
    Q_K,
    Q_ZERO,
    Quaternion,
    vcross,
    vdot,
)
from .errors import DegenerateParams, NotADivisor, NotRotational, SingularChoice
from .motionpoly import MotionPoly, ONE_POLY, prefix_products, residual, t_squared_plus_one
from .scalars import Scalar, cleared, sdiv


@dataclass(frozen=True)
class DarbouxParams:
    """Shape parameters of the motion; a = 0 degenerates to a vertical case."""

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self):
        if self.a == 0:
            raise DegenerateParams(
                "vertical Darboux motion excluded: parameter a must be nonzero"
            )


FIV_PARAMS, FIV_XY = DarbouxParams(1, 2, 0), (0, 0)


def darboux_c(p: DarbouxParams) -> MotionPoly:
    """Cubic motion polynomial of the motion, monic in t.

    C = t^3 - (k - eps(a j - b k)) t^2 + (1 - eps(b + a i - c k)) t - k + c eps
    """
    a, b, c, d = cleared(p.a, p.b, p.c)  # built as d*C on ints, then divided by d once
    return MotionPoly(
        (
            DualQuaternion(Quaternion(0, 0, 0, -d), Quaternion(c, 0, 0, 0)),
            DualQuaternion(Quaternion(d, 0, 0, 0), Quaternion(-b, -a, 0, c)),
            DualQuaternion(Quaternion(0, 0, 0, -d), Quaternion(0, 0, a, -b)),
            DualQuaternion(Quaternion(d, 0, 0, 0), Q_ZERO),
        )
    ).over(d)


# Factor count and doubled-factor pairs of each family: FI has three
# distinct rotations; FII doubles its middle factor, FIII (and its anchor
# instance FIV) its last one.
CHAIN_SHAPES = {
    "FI": (3, ()),
    "FII": (5, ((1, 2),)),
    "FIII": (5, ((3, 4),)),
    "FIV": (5, ((3, 4),)),
}


@dataclass(frozen=True)
class Factorization:
    """Ordered factors with product(factors) = cofactor * darboux_c(params)."""

    label: str
    params: DarbouxParams
    factors: Tuple[MotionPoly, ...]
    cofactor: MotionPoly
    free_xy: Optional[Tuple[Scalar, Scalar]] = None
    identical_adjacent: Tuple[Tuple[int, int], ...] = ()

    # C, the prefix products, the residual and the roots, formed on first use and kept, never as
    # fields: ==, hash and replace see only those; link poses and the closure check read them.
    _target = cached_property(lambda self: darboux_c(self.params))
    _prefixes = cached_property(lambda self: prefix_products(self.factors))
    _product = cached_property(lambda self: self._prefixes[-1])
    _residual = cached_property(lambda f: residual(f.product(), f.cofactor * f.target()))
    _roots = cached_property(lambda self: tuple([-f.coeff(0) for f in self.factors]))

    def product(self) -> MotionPoly:
        return self._product

    def prefixes(self) -> Tuple[MotionPoly, ...]:
        """1, Q1, Q1*Q2, ..., product(): the fold that forms product(), each step kept."""
        return self._prefixes

    def target(self) -> MotionPoly:
        return self._target

    def residual(self) -> Scalar:
        """Largest |coefficient| of product() - cofactor * target(); zero exactly when equal."""
        return self._residual

    def check_rotation_chain(self) -> Tuple[AxisLine, ...]:
        """The factors' root axes; raise NotRotational unless they can form a revolute chain.

        Every factor must be monic linear with a rotation root, each
        identical_adjacent pair must name two equal adjacent factors, and
        the factor count and pairs must be those of the label's family.
        FI and FII have no free_xy; for FIII and FIV the doubled last
        factor is t - k - x eps i - y eps j at free_xy = (x, y), and FIV is
        the instance (a, b, c, x, y) = (1, 2, 0, 0, 0).  Each root gets one
        rotation test, and its axis is the one h.axis() gives.
        """
        axes, roots = [], self.roots()
        for k, f in enumerate(self.factors):
            if not f.is_monic_linear():
                raise NotRotational(f"factor {k} is not monic linear")
            # On f's constant numerator -d*h, on ints: h's multiples classify as h.
            if f.num[0].classify() is not DisplacementKind.ROTATION:
                raise NotRotational(f"factor {k} root is not a rotation quaternion")
            h = roots[k]  # the axis of h, as h.axis() gives it
            axes.append(AxisLine(h[1:4], (-h[5], -h[6], -h[7])))
        n = len(self.factors)
        for i, j in self.identical_adjacent:
            if not (0 <= i and j == i + 1 < n and self.factors[i] == self.factors[j]):
                raise NotRotational(
                    f"identical_adjacent pair ({i}, {j}) does not name two equal adjacent factors"
                )
        if self.label not in CHAIN_SHAPES:
            raise NotRotational(f"label is not one of {', '.join(CHAIN_SHAPES)}")
        count, pairs = CHAIN_SHAPES[self.label]
        if (n, tuple(self.identical_adjacent)) != (count, pairs):
            raise NotRotational(
                f"has {n} factors with identical_adjacent {list(self.identical_adjacent)}; "
                f"the label needs {count} factors with {list(pairs)}"
            )
        xy = self.free_xy
        if self.label in ("FI", "FII"):
            if xy is not None:
                raise NotRotational("has free_xy; the label needs null")
            return tuple(axes)
        if xy is None:
            raise NotRotational("needs free_xy, a pair x, y")
        if roots[-1] != DualQuaternion(Q_K, Quaternion(0, *xy, 0)):
            raise NotRotational(
                "doubled last factor is not t - k - x eps i - y eps j"
                f" at free_xy ({xy[0]}, {xy[1]})"
            )
        p = self.params
        if self.label == "FIV" and (p, xy) != (FIV_PARAMS, FIV_XY):
            raise NotRotational("is the instance (a, b, c, x, y) = (1, 2, 0, 0, 0) only")
        return tuple(axes)

    def roots(self) -> Tuple[DualQuaternion, ...]:
        """Root h of each monic linear factor t - h, in factor order."""
        return self._roots


def factor_fi(p: DarbouxParams) -> Factorization:
    """Three-factor decomposition C = Q1 Q2 Q3 (no cofactor).

    Q1 Q2 is the unique circular-translation quadratic left factor whose
    second rotation axis direction is the unit vector E; Q3 rotates about
    a vertical axis.  The closed forms of FI, FII and FIII run on the
    parameters cleared of their common denominator d (scalars.cleared).
    """
    a, b, c, d = cleared(p.a, p.b, p.c)
    n = a * a + b * b + c * c
    e = Quaternion(0, sdiv(2 * a * c, n), sdiv(2 * a * b, n), sdiv(a * a - b * b - c * c, n))
    v = -sdiv(b * c, a * d)
    u1 = Quaternion(0, v, sdiv(a * a + c * c - b * b, 2 * a * d), sdiv(-b, d))
    q1 = MotionPoly((DualQuaternion(e, u1), DQ_ONE))
    q2 = MotionPoly.t_minus(DualQuaternion(e, Q_ZERO))
    w = -sdiv(a * a + b * b - c * c, 2 * a * d)
    q3 = MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, v, w, 0)))
    return Factorization("FI", p, (q1, q2, q3), ONE_POLY)


def factor_fii(p: DarbouxParams) -> Factorization:
    """Four rotations with the doubled factor in the middle: Q7 Q6^2 Q5 Q4 = (t^2+1) C.

    Q7 and Q5 are t + i + eps((a + c)/2 j - b/2 k) and the same with -c.
    """
    a, b, c, d = cleared(p.a, p.b, p.c)
    i, e = Quaternion(0, 1, 0, 0), 2 * d
    q7, q5 = (
        MotionPoly((DualQuaternion(i, Quaternion(0, 0, sdiv(a + s, e), sdiv(-b, e))), DQ_ONE))
        for s in (c, -c)
    )
    q6 = MotionPoly.t_minus(DualQuaternion(i, Q_ZERO))
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Q_ZERO))
    cofactor = t_squared_plus_one()
    return Factorization("FII", p, (q7, q6, q6, q5, q4), cofactor, identical_adjacent=((1, 2),))


def factor_fiii(p: DarbouxParams, x: Scalar, y: Scalar) -> Factorization:
    """Four rotations with a doubled two-parameter last factor.

    Q'7 Q'6 Q'5 Q'4^2 = (t^2+1) C with Q'4 = t - k - x eps i - y eps j free in
    (x, y) away from the singular denominators.  Q'5 and Q'6 follow in
    closed form; Q'7 = t - h7 from the t^4 coefficients: the sum of the
    roots, h7 + h6 + h5 + 2 h4 = -c2 for C's t^2 coefficient c2, on ints.
    Then the identity is checked exactly on the kept C and product, else NotADivisor.
    """
    return _fiii("FIII", p, x, y)


def factor_fiv() -> Factorization:
    """Anchor instance of FIII at (a, b, c, x, y) = (1, 2, 0, 0, 0)."""
    return _fiii("FIV", FIV_PARAMS, *FIV_XY)


def _fiii(label: str, p: DarbouxParams, x: Scalar, y: Scalar) -> Factorization:
    a, b, c, xd, yd, d = cleared(p.a, p.b, p.c, x, y)
    t_ = a + 2 * yd
    den1 = t_ * t_ + 4 * xd * xd  # d^2 times (a + 2y)^2 + 4x^2
    den2 = b * b + c * c + den1
    if den1 == 0 or den2 == 0:
        raise SingularChoice("free parameters x, y hit a vanishing denominator")
    ai = sdiv(b * b * xd - a * b * c - 2 * b * c * yd - c * c * xd + xd * den1, d * den1)
    aj = sdiv(
        a * b * b - a * c * c + 2 * b * b * yd + 4 * b * c * xd - 2 * c * c * yd + t_ * den1,
        2 * d * den1,
    )
    q5 = MotionPoly((DualQuaternion(Q_K, Quaternion(0, ai, aj, 0)), DQ_ONE))
    bi = sdiv(2 * (a * c - 2 * b * xd + 2 * c * yd), den2)
    bj = sdiv(2 * (a * b + 2 * b * yd + 2 * c * xd), den2)
    bk = sdiv(t_ * t_ - b * b - c * c + 4 * xd * xd, den2)
    q6 = MotionPoly.t_minus(DualQuaternion(Quaternion(0, bi, -bj, -bk), Q_ZERO))
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, x, y, 0)))
    target = darboux_c(p)
    # m*c2 and m*g for each g = -h, on ints: m the common den (1 if inexact)
    polys = (target, q6, q5, q4)
    m = math.lcm(*[q.den for q in polys])
    c2, g6, g5, g4 = (q.num[k].scale(m // q.den) for q, k in zip(polys, (2, 0, 0, 0)))
    g7 = c2 - g6 - g5 - g4 - g4
    g7 = g7 if m == 1 else DualQuaternion.from_coeffs([sdiv(v, m) if v else 0 for v in g7])
    q7 = MotionPoly((g7, DQ_ONE))
    f = Factorization(label, p, (q7, q6, q5, q4, q4), t_squared_plus_one(), (x, y), ((3, 4),))
    object.__setattr__(f, "_target", target)  # f keeps this C, built once
    if f.residual() != 0:
        raise NotADivisor("Q'7 Q'6 Q'5 Q'4^2 differs from (t^2+1) C")
    return f


def fiv_companion_fi() -> Factorization:
    """The FI side closing the 7R loop with factor_fiv()."""
    return factor_fi(FIV_PARAMS)


def _exact_quotient(num: MotionPoly, den: MotionPoly) -> MotionPoly:
    """Right quotient num / den of a division that must be exact.

    Raises NotADivisor when a remainder is left.  Every divisor used here
    is monic, so a quotient of degree one is monic linear by construction.
    """
    quot, rem = num.divmod_right(den)
    if not rem.is_zero():
        raise NotADivisor("a division that must be exact left a remainder")
    return quot


def _split_circular_quadratic(q: MotionPoly) -> Tuple[MotionPoly, MotionPoly]:
    """Factor a monic circular-translation quadratic as (t - g1)(t - u).

    q = t^2 + eps d1 t + (1 + eps d0); the unique pure-primal right root is
    u = (d1 x d0) / |d1|^2, a unit vector exactly when the translation is
    circular.  It is read on q's numerators, which scale d1 and d0 alike.
    """
    d1, d0 = (q.num[k].d.vector for k in (1, 0))
    n2 = vdot(d1, d1)
    if n2 == 0:
        raise SingularChoice("translation quadratic has no rotational factor")
    u = vcross(d1, d0)
    u = (sdiv(u[0], n2), sdiv(u[1], n2), sdiv(u[2], n2))
    second = MotionPoly.t_minus(DualQuaternion(Quaternion(0, *u), Q_ZERO))
    return _exact_quotient(q, second), second


def _circularity(quot: MotionPoly) -> Tuple[Scalar, Scalar]:
    """(d1 . d0, |d1|^2 - |d0|^2) for the dual vectors d1, d0 of quot's t and
    constant coefficients; both vanish when quot is a circular translation."""
    d1 = quot.coeff(1).d.vector
    d0 = quot.coeff(0).d.vector
    return vdot(d1, d0), vdot(d1, d1) - vdot(d0, d0)


def _circular_split(
    cubic: MotionPoly, primal: Quaternion
) -> Tuple[MotionPoly, MotionPoly, MotionPoly]:
    """Factor cubic as (t - g1)(t - g2)(t - h) with h = primal + eps(s i + u j).

    Every such h is a right zero of cubic; the two circularity conditions
    on the quotient by t - h are affine in (s, u), so three probe
    divisions at (0,0), (1,0), (0,1) pin them.  They divide d*cubic, its
    numerators, by monic int divisors: in ints, the conditions times d^2
    have the same zeros and the same solution.  The quotient at the
    solution must meet both conditions exactly, else ValueError; it is
    then split at its pure-primal root.
    """
    scaled = cubic.integral()[0]
    probes = (DualQuaternion(primal, Quaternion(0, s, u, 0)) for s, u in ((0, 0), (1, 0), (0, 1)))
    (f00, g00), (f10, g10), (f01, g01) = (
        _circularity(_exact_quotient(scaled, MotionPoly.t_minus(h))) for h in probes
    )
    fu, fv = f10 - f00, f01 - f00
    gu, gv = g10 - g00, g01 - g00
    det = fu * gv - fv * gu
    if det == 0:
        raise SingularChoice("circularity system is singular for these parameters")
    s, u = sdiv(fv * g00 - f00 * gv, det), sdiv(f00 * gu - fu * g00, det)
    last = MotionPoly.t_minus(DualQuaternion(primal, Quaternion(0, s, u, 0)))
    quot = _exact_quotient(cubic, last)
    if _circularity(quot.integral()[0]) != (0, 0):
        raise ValueError("system is not affine in the unknowns")
    return (*_split_circular_quadratic(quot), last)


def derive_fi(p: DarbouxParams) -> Factorization:
    """Reconstruct FI from scratch by division and the circularity conditions.

    Every k + eps(v i + w j) is a right zero of C; _circular_split pins
    (v, w) by requiring the quotient to be a circular translation, and
    splits that quotient at its pure-primal root into the other two
    factors.  Used as an independent cross-check of the closed forms in
    factor_fi.
    """
    return Factorization("FI", p, _circular_split(darboux_c(p), Q_K), ONE_POLY)


def derive_fiii(p: DarbouxParams, x: Scalar, y: Scalar) -> Factorization:
    """Reconstruct FIII from scratch for a given free choice (x, y).

    (t^2+1) C is divided by the doubled factor (remainder must vanish),
    and _circular_split finds Q'5 = t + k - eps(alpha i + beta j) by the
    circularity conditions and splits the rest into Q'7 Q'6.  Cross-checks
    factor_fiii exactly.
    """
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, x, y, 0)))
    c2 = _exact_quotient(darboux_c(p) * t_squared_plus_one(), q4 * q4)
    factors = (*_circular_split(c2, -Q_K), q4, q4)
    return Factorization("FIII", p, factors, t_squared_plus_one(), (x, y), ((3, 4),))


def t_grid(n: int) -> Tuple[float, ...]:
    """Samples t = tan(phi/2) over the whole closed orbit, phi the midpoints of
    a uniform grid on (-pi, pi); odd n includes t = 0."""
    return tuple(math.tan((-math.pi + 2 * math.pi * (k + 0.5) / n) / 2) for k in range(n))
