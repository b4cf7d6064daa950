"""Polynomials over the dual quaternions in a central indeterminate t.

Coefficients multiply non-commutatively but t commutes with everything,
so products are ordinary convolutions of coefficient sequences.  Only
right division is provided: for a divisor with invertible leading
coefficient there are unique Q, R with C = Q*D + R and deg R < deg D.
Right evaluation substitutes t = h with powers of h to the right of the
coefficients; its zeros correspond exactly to monic linear right
factors t - h.  A real polynomial, such as a cofactor or a quadratic
factor of a norm polynomial, is a MotionPoly with real coefficients
(MotionPoly.real); they are central, so it commutes with every MotionPoly.

Exact polynomials run on ints: one with int and Fraction coefficients
holds int rows num over one int den > 0, reduced by their gcd, so equal
values have equal num and den.  * multiplies the numerators and the dens,
divmod_right pseudo-divides numerators, residual cross-multiplies dens,
and none of them reads coeffs, whose Fractions are formed on the first
read only.  An exact real coefficient (of a cofactor, or den of a monic
factor) scales its partner instead of a full product, and exact sums
start from their first term.  A float or symbolic polynomial has
num = coeffs and den = 1, multiplied and divided (by the inverse of the
leading coefficient) in plain scalar arithmetic, with sums started from
zero, as 0 + -0.0 is 0.0; an exact operand that meets one takes part by its coeffs.
The float lane rounds each coefficient once, num[i] / den on ints, and
evaluates many polynomials at many t in one Horner pass; orbit_samples
does so for a motion's orbit polynomial P*(1 - eps*x)*P~ (point_orbit).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from typing import List, Optional, Sequence, Tuple

from ._numpy import np
from .dualquat import DQ_ONE, DualQuaternion, _tuple, viszero
from .errors import KinematicsError, NonGeneric, NonInvertibleLeader, NotADisplacement, NotADivisor
from .scalars import Scalar, cleared, is_exact, sdiv


def _trim(coeffs: Sequence) -> Tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return tuple(coeffs[:n])


class MotionPoly:
    """Polynomial with dual quaternion coefficients, t central, held as num / den.

    Immutable, with value equality; MotionPoly(coeffs) clears Fractions once.
    """

    def __init__(self, coeffs: Sequence[DualQuaternion]):
        rows = _trim(coeffs)
        # Lists, here and in coeffs: tuple() and f(*...) of a generator
        # resize the tuple they build, which fills CPython's per-size
        # tuple free lists and so raises peak memory.
        values = [v for h in rows for v in h]
        types = set(map(type, values))
        exact = types <= _EXACT_TYPES
        num, den = rows, 1
        if exact and Fraction in types:
            den = math.lcm(*{v.denominator for v in values})
            ints = [v.numerator * (den // v.denominator) for v in values]
            num = tuple([_tuple(DualQuaternion, ints[i:i + 8]) for i in range(0, len(ints), 8)])
        self.__dict__.update(num=num, den=den, _exact=exact, coeffs=rows)

    def __setattr__(self, name, value):
        raise AttributeError("MotionPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("MotionPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, MotionPoly):
            return NotImplemented
        if self._exact and other._exact:
            return self.den == other.den and self.num == other.num
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"MotionPoly(coeffs={self.coeffs!r})"

    @cached_property
    def coeffs(self) -> Tuple[DualQuaternion, ...]:
        """num / den, each Fraction formed on the first read; num itself if den = 1."""
        d = self.den
        if d == 1:
            return self.num
        return tuple([
            _tuple(DualQuaternion, [Fraction(v, d) if v else 0 for v in c]) for c in self.num
        ])

    @classmethod
    def t_minus(cls, h: DualQuaternion) -> "MotionPoly":
        return cls((-h, DQ_ONE))

    @classmethod
    def constant(cls, h: DualQuaternion) -> "MotionPoly":
        return cls((h,))

    @classmethod
    def real(cls, coeffs: Sequence[Scalar]) -> "MotionPoly":
        """The real (central) polynomial with coeffs[k] as its degree-k coefficient."""
        return cls(tuple(DualQuaternion.from_scalar(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading(self) -> DualQuaternion:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.num[-1] == DQ_ONE.scale(self.den)

    def is_monic_linear(self) -> bool:
        return self.degree == 1 and self.is_monic()

    def coeff(self, k: int) -> DualQuaternion:
        if 0 <= k < len(self.num):
            return self.coeffs[k]
        return DualQuaternion.from_scalar(0)

    def __add__(self, other: "MotionPoly") -> "MotionPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=DualQuaternion.from_scalar(0))
        return MotionPoly(tuple([a + b for a, b in pairs]))

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            other = MotionPoly.constant(other)
        if isinstance(other, MotionPoly):
            exact = self._exact and other._exact
            # 1 * p is p: prefix_products starts from ONE_POLY, and FI's cofactor is it.
            if exact and (self is ONE_POLY or other is ONE_POLY):
                return other if self is ONE_POLY else self
            if self.is_zero() or other.is_zero():
                return MotionPoly(())
            a, b = (self.num, other.num) if exact else (self.coeffs, other.coeffs)
            zero = DualQuaternion.from_scalar(0)
            out = [None if exact else zero] * (len(a) + len(b) - 1)
            right = list(zip(b, _real_parts(b, exact)))
            for i, (x, rx) in enumerate(zip(a, _real_parts(a, exact))):
                for j, (y, ry) in enumerate(right):
                    if rx != 0 and ry != 0:  # an exact zero adds nothing
                        term, acc = _times(x, rx, y, ry), out[i + j]
                        out[i + j] = term if acc is None else acc + term
            out = tuple([zero if h is None else h for h in out])
            return _exact_poly(out, self.den * other.den) if exact else MotionPoly(out)
        if isinstance(other, (int, float)) or is_exact(other):
            return MotionPoly(tuple(c.scale(other) for c in self.coeffs))
        return NotImplemented

    def conj(self) -> "MotionPoly":
        return _poly(tuple([c.conj() for c in self.num]), self.den, self._exact)

    def tilde(self) -> "MotionPoly":
        return _poly(tuple([c.tilde() for c in self.num]), self.den, self._exact)

    def norm_poly(self) -> "MotionPoly":
        """Norm polynomial C * conj(C); real exactly for motion polynomials."""
        return self * self.conj()

    def eval(self, t: Scalar) -> DualQuaternion:
        """Evaluate at a scalar parameter value (scalars are central)."""
        acc = DualQuaternion.from_scalar(0)
        for c in reversed(self.coeffs):
            acc = acc.scale(t) + c
        return acc

    def point_orbit(self, point: Sequence[Scalar]) -> "MotionPoly":
        """The orbit polynomial Y = P*(1 - eps*x)*P~ of a point x, formed on ints.

        Y is the product of P's int numerators, d - eps*(d*x) for the point's
        common denominator d, and the numerators' tilde, over den(P)^2 * d.
        Its primal part is n0(P), and its dual vector part is minus n0(P)
        times the image of x (DualQuaternion.act).  A float coefficient or
        coordinate is taken as the binary rational it is.  Raises
        NotADisplacement unless P is a motion polynomial, decided exactly
        once per polynomial.
        """
        p = self
        if p.is_float():
            p = MotionPoly([DualQuaternion.from_coeffs([Fraction(v) for v in h]) for h in p.num])
        if not p._is_motion:
            raise NotADisplacement("a polynomial that is not a motion polynomial has no orbit")
        p, den = p.integral()
        x, y, z, d = cleared(*map(Fraction, point))
        orbit = p * DualQuaternion.from_coeffs((d, 0, 0, 0, 0, -x, -y, -z)) * p.tilde()
        return orbit.over(den * den * d)

    def orbit(self, point: Sequence[Scalar], ts: Sequence[Scalar]) -> np.ndarray:
        """Float64 images of a point under the motion at every t, as act, shape (len(ts), 3)."""
        return orbit_samples(self.point_orbit(point), ts)

    def eval_right(self, h: DualQuaternion) -> DualQuaternion:
        """Right evaluation: sum of coeffs[k] * h^k with powers on the right.

        Vanishes exactly when t - h is a right factor.  Not multiplicative
        in general, but (C*P)(h) = C(h) * P(h) whenever P's value P(h)
        commutes with h (in particular for real P).
        """
        acc = DualQuaternion.from_scalar(0)
        power = DQ_ONE
        for c in self.coeffs:
            acc = acc + c * power
            power = power * h
        return acc

    def divmod_right(self, divisor: "MotionPoly") -> Tuple["MotionPoly", "MotionPoly"]:
        """Right division: returns (Q, R) with self = Q*divisor + R, deg R < deg divisor.

        Exact operands are pseudo-divided on their numerators.  The divisor's
        leading coefficient L has the central norm L*conj(L) = n0 + eps*n1,
        so adj = conj(L)*(n0 - eps*n1) satisfies adj*L = n0^2 =: m (both
        reduced by their gcd); a real L = r, as for a monic divisor, gives
        adj = sign(r) and m = |r| at once.  After scaling the dividend by m^steps,
        every quotient term rem_top*adj/m is integral, so the loop runs on
        ints, and Q and R are divided by the accumulated scale once.  They
        are the unique quotient and remainder either way.
        """
        exact = self._exact and divisor._exact
        (top, top_den), (bottom, bottom_den) = (
            ((self.num, self.den), (divisor.num, divisor.den)) if exact
            else ((self.coeffs, 1), (divisor.coeffs, 1))
        )
        if not bottom:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = bottom[-1]
        if not lead.invertible():
            raise NonInvertibleLeader("divisor's leading coefficient has zero primal part")
        if exact and lead[1:] == _ZERO7:  # a real leader r: adj = sign(r), m = |r|
            adj, m = DualQuaternion.from_scalar(1 if lead[0] > 0 else -1), abs(lead[0])
        elif exact:
            n0, n1 = lead.norm()
            c = lead.conj()
            adj = DualQuaternion(c.p.scale(n0), c.d.scale(n0) - c.p.scale(n1))
            g = math.gcd(n0 * n0, *adj)
            adj, m = _tuple(DualQuaternion, [v // g for v in adj]), n0 * n0 // g
        else:
            adj, m = lead.inverse(), 1
        (ra,) = _real_parts([adj], exact)  # a real L reduces adj to +-1
        dn = len(bottom) - 1
        lower = list(zip(bottom, _real_parts(bottom, exact)))[:dn]
        steps = max(0, len(top) - dn)
        rem = list(top) if m == 1 else [h.scale(m**steps) for h in top]
        quot = [DualQuaternion.from_scalar(0)] * steps
        # Synthetic division; the cancelled leading term is popped rather
        # than subtracted so float rounding cannot stall the loop.
        while len(rem) - 1 >= dn:
            k = len(rem) - 1 - dn
            qk = rem.pop()
            if ra != 1:
                qk = _times(qk, None, adj, ra)
            if m != 1:
                qk = _tuple(DualQuaternion, [v // m for v in qk])
            quot[k] = qk
            for i, (h, r) in enumerate(lower):
                if r != 0:
                    rem[i + k] = rem[i + k] - _times(qk, None, h, r)
        if not exact:
            return MotionPoly(tuple(quot)), MotionPoly(tuple(rem))
        # m^steps * top_den * self = quot * divisor * bottom_den + rem
        scale = m**steps * top_den
        quot = quot if bottom_den == 1 else [h.scale(bottom_den) for h in quot]
        return _exact_poly(quot, scale), _exact_poly(rem, scale)

    def is_motion_polynomial(self) -> bool:
        """Invertible leading coefficient and a real norm polynomial."""
        if self.is_zero() or not self.num[-1].invertible():
            return False
        return self.norm_poly().is_real()

    _is_motion = cached_property(is_motion_polynomial)

    def is_real(self) -> bool:
        """Every coefficient is real, so the polynomial is central."""
        return all(viszero(c.p.vector) and c.d.is_zero() for c in self.num)

    def is_float(self) -> bool:
        return any(c.is_float() for c in self.num)

    def to_float(self) -> "MotionPoly":
        return MotionPoly(tuple(c.to_float() for c in self.coeffs))

    def integral(self) -> Tuple["MotionPoly", int]:
        """(den*self, den): num as an int polynomial, and den.

        A polynomial with a float or symbolic coefficient gives (self, 1).
        """
        return (_poly(self.num, 1, True), self.den) if self._exact else (self, 1)

    def over(self, d: int) -> "MotionPoly":
        """self / d for an exact self and an int d > 0; self itself for d = 1."""
        return self if d == 1 else _exact_poly(self.num, self.den * d)


def _poly(num: Tuple[DualQuaternion, ...], den: int, exact: bool) -> MotionPoly:
    """The polynomial num / den, given in its stored form."""
    p = object.__new__(MotionPoly)
    p.__dict__.update(num=num, den=den, _exact=exact)
    return p


def _exact_poly(rows: Sequence[DualQuaternion], den: int) -> MotionPoly:
    """The exact polynomial rows / den for int rows and an int den > 0, trimmed and reduced."""
    rows = _trim(rows)
    g = 1 if den == 1 else math.gcd(den, *[v for c in rows for v in c])
    if g > 1:
        rows, den = tuple([_tuple(DualQuaternion, [v // g for v in c]) for c in rows]), den // g
    return _poly(rows, den, True)


def t_squared_plus_one() -> MotionPoly:
    return MotionPoly.real((1, 0, 1))


_EXACT_TYPES = frozenset((int, Fraction))
_ZERO7 = (0,) * 7
ONE_POLY = MotionPoly.real((1,))


def _real_parts(coeffs: Sequence[DualQuaternion], exact: bool) -> List[Optional[Scalar]]:
    """The scalar part of each real coefficient, None for the others and for all if not exact."""
    return [h[0] if exact and h[1:] == _ZERO7 else None for h in coeffs]


def _times(a: DualQuaternion, ra, b: DualQuaternion, rb) -> DualQuaternion:
    """a * b given their _real_parts: a real one scales the other (floats have none)."""
    if rb is not None:
        return a.scale(rb)
    return b.scale(ra) if ra is not None else a * b


def prefix_products(factors: Sequence[MotionPoly]) -> Tuple[MotionPoly, ...]:
    """1, factors[0], factors[0] * factors[1], ..., the left fold of * from 1 and its steps.

    The last entry is the ordered product.  1 * f turns a float f's -0.0
    dual coefficients into 0.0; an exact 1 * f is f.
    """
    return tuple(accumulate(factors, operator.mul, initial=ONE_POLY))


def _coeff_array(polys: Sequence[MotionPoly]) -> np.ndarray:
    """Float64 coefficients of polynomials, shape (len(polys), max degree + 1, 8).

    Lower degrees are zero padded on top.  Each coefficient is num[i] / den,
    which CPython rounds correctly for ints of any size, so it equals
    float(Fraction) of the exact value bit for bit and no Fraction is formed.
    An exact coefficient beyond the float64 range raises KinematicsError.
    """
    out = np.zeros((len(polys), max((len(p.num) for p in polys), default=0), 8))
    for i, p in enumerate(polys):
        d = p.den
        for k, c in enumerate(p.num):
            try:
                out[i, k] = [v / d for v in c]
            except OverflowError:
                size = math.log10(max(map(abs, c))) - math.log10(d)
                raise KinematicsError(
                    f"an exact coefficient of about 1e{size:+.0f} is beyond the float64 range"
                ) from None
    return out


def _horner_many(coeffs: np.ndarray, ts: Sequence[Scalar]) -> np.ndarray:
    """Values of (m, d + 1, 8) coefficient arrays at every t, shape (len(ts), m, 8), as eval."""
    t = np.asarray(ts, dtype=float)[:, None, None]
    acc = np.zeros((t.shape[0],) + coeffs.shape[:1] + (8,))
    for k in range(coeffs.shape[1] - 1, -1, -1):  # one accumulator, updated in place
        acc *= t
        acc += coeffs[:, k]
    return acc


def orbit_samples(orbit: MotionPoly, ts: Sequence[Scalar]) -> np.ndarray:
    """-vec(dual Y(t))/Y0(t) at every t for an orbit polynomial Y (point_orbit), rounded once."""
    y = _horner_many(_coeff_array([orbit]), ts)[:, 0]
    return -y[:, 5:] / y[:, :1]


def right_factor_from_quadratic(c: MotionPoly, m: MotionPoly) -> DualQuaternion:
    """Extract h with norm(t - h) = m and t - h a right factor of c.

    m must be a monic quadratic with real coefficients and no real roots
    that divides the norm polynomial of c.  The remainder r1*t + r0 of c
    mod m determines h = -r1^{-1} * r0 when r1 is invertible; otherwise
    the instance is non-generic and no conclusion is drawn.
    """
    if m.degree != 2 or not m.is_monic() or not m.is_real():
        raise NotADivisor("expected a monic real quadratic")
    m1, m0 = m.coeffs[1].p.w, m.coeffs[0].p.w
    if m1 * m1 - 4 * m0 >= 0:
        raise NotADivisor("quadratic must have no real roots")
    norm = c.norm_poly()
    _, nrem = norm.divmod_right(m)
    if not nrem.is_zero():
        raise NotADivisor("quadratic does not divide the norm polynomial")
    _, rem = c.divmod_right(m)
    r1 = rem.coeff(1)
    r0 = rem.coeff(0)
    if not r1.invertible():
        raise NonGeneric("remainder's leading coefficient is not invertible")
    h = -(r1.inverse() * r0)
    if not h.is_float():
        factor = MotionPoly.t_minus(h)
        if factor.norm_poly() != m or not c.divmod_right(factor)[1].is_zero():
            raise NotADivisor("extracted t - h does not right-divide c with norm m")
    return h


def residual(p: MotionPoly, c: MotionPoly) -> Scalar:
    """Largest |coefficient| of p - c, zero exactly when p == c.

    That is max |p.num*c.den - c.num*p.den| / (p.den*c.den), in one walk
    over coefficient pairs, divided once.
    """
    dp, dc = p.den, c.den
    rows = zip_longest(p.num, c.num, fillvalue=(0,) * 8)
    top = max((abs(u * dc - v * dp) for a, b in rows for u, v in zip(a, b)), default=0)
    return sdiv(top or 0, dp * dc)  # all zero, it is the exact 0
