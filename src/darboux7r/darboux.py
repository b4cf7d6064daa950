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
derive_fiii find their factors by that condition (_circular_split), and
circular_translation_check decides it for C / Q3 with the same exact
test; nothing here fits floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .dualquat import (
    DQ_ONE,
    DisplacementKind,
    DualQuaternion,
    Q_K,
    Q_ZERO,
    Quaternion,
    vcross,
    vdot,
)
from .errors import DegenerateParams, NotADivisor, NotRotational, SingularChoice
from .motionpoly import MotionPoly, ONE_POLY, poly_product, t_squared_plus_one
from .scalars import Scalar, sdiv


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


def darboux_c(p: DarbouxParams) -> MotionPoly:
    """Cubic motion polynomial of the motion, monic in t.

    C = t^3 - (k - eps(a j - b k)) t^2 + (1 - eps(b + a i - c k)) t - k + c eps
    """
    a, b, c = p.a, p.b, p.c
    return MotionPoly(
        (
            DualQuaternion(Quaternion(0, 0, 0, -1), Quaternion(c, 0, 0, 0)),
            DualQuaternion(Quaternion(1, 0, 0, 0), Quaternion(-b, -a, 0, c)),
            DualQuaternion(Quaternion(0, 0, 0, -1), Quaternion(0, 0, a, -b)),
            DQ_ONE,
        )
    )


def frame_change(p: DarbouxParams) -> DualQuaternion:
    """Constant left factor k + c*eps linking C to the direct form C0."""
    return DualQuaternion(Q_K, Quaternion(p.c, 0, 0, 0))


def darboux_c0(p: DarbouxParams) -> MotionPoly:
    """Direct form C0 = (k + c*eps) * C; its action gives the parametric equations.

    Expanding the product:
    C0 = (k + c eps) t^3 + (1 + eps(b - a i - c k)) t^2 + (k - eps(a j + b k)) t + 1
    """
    return MotionPoly.constant(frame_change(p)) * darboux_c(p)


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

    def product(self) -> MotionPoly:
        return poly_product(self.factors)

    def target(self) -> MotionPoly:
        return darboux_c(self.params)

    def check_rotation_chain(self) -> None:
        """Raise NotRotational unless the factors can form a revolute chain.

        Every factor must be monic linear with a rotation root, each
        identical_adjacent pair must name two equal adjacent factors, and
        the factor count and pairs must be those of the label's family.
        FI and FII have no free_xy; for FIII and FIV the doubled last
        factor is t - k - x eps i - y eps j at free_xy = (x, y), and FIV is
        the instance (a, b, c, x, y) = (1, 2, 0, 0, 0).
        """
        for k, f in enumerate(self.factors):
            if not f.is_monic_linear():
                raise NotRotational(f"factor {k} is not monic linear")
            if (-f.coeff(0)).classify() is not DisplacementKind.ROTATION:
                raise NotRotational(f"factor {k} root is not a rotation quaternion")
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
            return
        if xy is None:
            raise NotRotational("needs free_xy, a pair x, y")
        if self.factors[-1] != MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, *xy, 0))):
            raise NotRotational(
                "doubled last factor is not t - k - x eps i - y eps j"
                f" at free_xy ({xy[0]}, {xy[1]})"
            )
        p = self.params
        if self.label == "FIV" and ((p.a, p.b, p.c), xy) != ((1, 2, 0), (0, 0)):
            raise NotRotational("is the instance (a, b, c, x, y) = (1, 2, 0, 0, 0) only")

    def roots(self) -> Tuple[DualQuaternion, ...]:
        """Root h of each monic linear factor t - h, in factor order."""
        return tuple(-f.coeff(0) for f in self.factors)


def factor_fi(p: DarbouxParams) -> Factorization:
    """Three-factor decomposition C = Q1 Q2 Q3 (no cofactor).

    Q1 Q2 is the unique circular-translation quadratic left factor whose
    second rotation axis direction is the unit vector E; Q3 rotates about
    a vertical axis.
    """
    a, b, c = p.a, p.b, p.c
    n = a * a + b * b + c * c
    e = Quaternion(
        0, sdiv(2 * a * c, n), sdiv(2 * a * b, n), sdiv(a * a - b * b - c * c, n)
    )
    u1 = Quaternion(
        0, -sdiv(b * c, a), sdiv(a * a + c * c - b * b, 2 * a), -b
    )
    q1 = MotionPoly((DualQuaternion(e, u1), DQ_ONE))
    q2 = MotionPoly.t_minus(DualQuaternion(e, Q_ZERO))
    q3 = MotionPoly.t_minus(
        DualQuaternion(
            Q_K,
            Quaternion(0, -sdiv(b * c, a), -sdiv(a * a + b * b - c * c, 2 * a), 0),
        )
    )
    return Factorization("FI", p, (q1, q2, q3), ONE_POLY)


def factor_fii(p: DarbouxParams) -> Factorization:
    """Four rotations with the doubled factor in the middle: Q7 Q6^2 Q5 Q4 = (t^2+1) C."""
    a, b, c = p.a, p.b, p.c
    q7 = MotionPoly(
        (
            DualQuaternion(
                Quaternion(0, 1, 0, 0), Quaternion(0, 0, sdiv(a + c, 2), -sdiv(b, 2))
            ),
            DQ_ONE,
        )
    )
    q6 = MotionPoly.t_minus(DualQuaternion(Quaternion(0, 1, 0, 0), Q_ZERO))
    q5 = MotionPoly(
        (
            DualQuaternion(
                Quaternion(0, 1, 0, 0), Quaternion(0, 0, sdiv(a - c, 2), -sdiv(b, 2))
            ),
            DQ_ONE,
        )
    )
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Q_ZERO))
    return Factorization(
        "FII",
        p,
        (q7, q6, q6, q5, q4),
        t_squared_plus_one(),
        identical_adjacent=((1, 2),),
    )


def factor_fiii(p: DarbouxParams, x: Scalar = 0, y: Scalar = 0) -> Factorization:
    """Four rotations with a doubled two-parameter last factor.

    Q'7 Q'6 Q'5 Q'4^2 = (t^2+1) C with Q'4 = t - k - x eps i - y eps j free in
    (x, y) away from the singular denominators.  Q'5 and Q'6 follow in
    closed form; Q'7 is always produced by exact division (its closed form
    is reconstructed rather than transcribed).
    """
    a, b, c = p.a, p.b, p.c
    t_ = a + 2 * y
    den1 = t_ * t_ + 4 * x * x
    den2 = b * b + c * c + den1
    if den1 == 0 or den2 == 0:
        raise SingularChoice("free parameters x, y hit a vanishing denominator")
    ai = sdiv(b * b * x - a * b * c - 2 * b * c * y - c * c * x, den1) + x
    aj = (
        sdiv(a * b * b - a * c * c + 2 * b * b * y + 4 * b * c * x - 2 * c * c * y, 2 * den1)
        + sdiv(a, 2)
        + y
    )
    q5 = MotionPoly(
        (DualQuaternion(Q_K, Quaternion(0, ai, aj, 0)), DQ_ONE)
    )
    bi = sdiv(2 * (a * c - 2 * b * x + 2 * c * y), den2)
    bj = sdiv(2 * (a * b + 2 * b * y + 2 * c * x), den2)
    bk = sdiv(t_ * t_ - b * b - c * c + 4 * x * x, den2)
    q6 = MotionPoly.t_minus(DualQuaternion(Quaternion(0, bi, -bj, -bk), Q_ZERO))
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, x, y, 0)))
    cofactor = t_squared_plus_one()
    pc = poly_product((darboux_c(p), cofactor))
    q7 = _exact_quotient(pc, poly_product((q6, q5, q4, q4)))
    return Factorization(
        "FIII",
        p,
        (q7, q6, q5, q4, q4),
        cofactor,
        free_xy=(x, y),
        identical_adjacent=((3, 4),),
    )


def factor_fiv() -> Factorization:
    """Anchor instance of FIII at (a, b, c, x, y) = (1, 2, 0, 0, 0)."""
    return replace(factor_fiii(DarbouxParams(1, 2, 0)), label="FIV")


def fiv_companion_fi() -> Factorization:
    """The FI side closing the 7R loop with factor_fiv()."""
    return factor_fi(DarbouxParams(1, 2, 0))


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
    circular.
    """
    d1 = q.coeff(1).d.vector
    d0 = q.coeff(0).d.vector
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
    divisions at (0,0), (1,0), (0,1) pin them.  The quotient at the
    solution must meet both conditions exactly, else ValueError; it is
    then split at its pure-primal root.
    """
    probes = (DualQuaternion(primal, Quaternion(0, s, u, 0)) for s, u in ((0, 0), (1, 0), (0, 1)))
    (f00, g00), (f10, g10), (f01, g01) = (
        _circularity(_exact_quotient(cubic, MotionPoly.t_minus(h))) for h in probes
    )
    fu, fv = f10 - f00, f01 - f00
    gu, gv = g10 - g00, g01 - g00
    det = fu * gv - fv * gu
    if det == 0:
        raise SingularChoice("circularity system is singular for these parameters")
    s, u = sdiv(fv * g00 - f00 * gv, det), sdiv(f00 * gu - fu * g00, det)
    last = MotionPoly.t_minus(DualQuaternion(primal, Quaternion(0, s, u, 0)))
    quot = _exact_quotient(cubic, last)
    if _circularity(quot) != (0, 0):
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


def derive_fiii(p: DarbouxParams, x: Scalar = 0, y: Scalar = 0) -> Factorization:
    """Reconstruct FIII from scratch for a given free choice (x, y).

    (t^2+1) C is divided by the doubled factor (remainder must vanish),
    and _circular_split finds Q'5 = t + k - eps(alpha i + beta j) by the
    circularity conditions and splits the rest into Q'7 Q'6.  Cross-checks
    factor_fiii exactly.
    """
    q4 = MotionPoly.t_minus(DualQuaternion(Q_K, Quaternion(0, x, y, 0)))
    pc = poly_product((darboux_c(p), t_squared_plus_one()))
    c2 = _exact_quotient(pc, poly_product((q4, q4)))
    return Factorization(
        "FIII",
        p,
        (*_circular_split(c2, -Q_K), q4, q4),
        t_squared_plus_one(),
        free_xy=(x, y),
        identical_adjacent=((3, 4),),
    )


@dataclass(frozen=True)
class CircularTranslationReport:
    """Exact circularity pairs of the translation quotient C / Q3 and a perturbed twin.

    Each pair is _circularity of a quotient, the test _circular_split
    applies: a translation quotient is circular exactly when its pair is
    (0, 0).
    """

    params: DarbouxParams
    quotient_primal_ok: bool
    circularity: Tuple[Scalar, Scalar]
    perturbed_circularity: Tuple[Scalar, Scalar]


# Shift of Q3's j dual coordinate in circular_translation_check.
PERTURBATION = 1


def t_grid(n: int) -> Tuple[float, ...]:
    """Samples t = tan(phi/2) over the whole closed orbit, phi the midpoints of
    a uniform grid on (-pi, pi); odd n includes t = 0."""
    return tuple(math.tan((-math.pi + 2 * math.pi * (k + 0.5) / n) / 2) for k in range(n))


def circular_translation_check(p: DarbouxParams) -> CircularTranslationReport:
    """Decide exactly that C / Q3 is a circular translation and that circularity is sharp.

    The quotient of C by the FI factor Q3 must have primal part t^2 + 1
    (a translation) and meet both circularity conditions with zero
    tolerance.  Replacing Q3's j dual coordinate w by w + PERTURBATION
    keeps the quotient a translation, but one that is not circular.
    """
    c = darboux_c(p)
    q3 = factor_fi(p).factors[2]
    quot, rem = c.divmod_right(q3)
    primal_ok = (
        rem.is_zero()
        and quot.coeff(2) == DQ_ONE
        and quot.coeff(1).p.is_zero()
        and quot.coeff(0).p == Quaternion(1, 0, 0, 0)
    )
    q3p = -q3.coeff(0) + DualQuaternion(Q_ZERO, Quaternion(0, 0, PERTURBATION, 0))
    quot_p = _exact_quotient(c, MotionPoly.t_minus(q3p))
    return CircularTranslationReport(p, primal_ok, _circularity(quot), _circularity(quot_p))
