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

Exact polynomials run on ints: the integral form (d*P, d) of
MotionPoly.integral has int coefficients, d the lcm of the denominators,
and is derived once and kept on P.  poly_product multiplies integral
forms, divmod_right pseudo-divides them, and forms_residual compares two
with their scales cross-multiplied.  The results of
products and divisions are made by over from their integral forms, which
the next product or division reads; their Fraction coefficients are
formed only when read, once each.  An exact real coefficient (of a
cofactor, or d of a monic factor's form) scales its partner instead of a
full product, and exact sums start from their first term.  A float or
symbolic polynomial is its own integral form with scale 1, multiplied
and divided (by the inverse of the leading coefficient) in plain scalar
arithmetic, with sums started from zero, as 0 + -0.0 is 0.0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._numpy import np
from .dualquat import (
    DQ_ONE, DQ_ONE_ROW, TILDE_ROW, DualQuaternion, _tuple, conjugate_many, dq_mul_many, viszero
)
from .errors import KinematicsError, NonGeneric, NonInvertibleLeader, NotADivisor
from .scalars import Scalar, is_exact, sdiv


def _trim(coeffs: Sequence) -> Tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class MotionPoly:
    """Polynomial with dual quaternion coefficients, t central."""

    coeffs: Tuple[DualQuaternion, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

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
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> DualQuaternion:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == DQ_ONE

    def is_monic_linear(self) -> bool:
        return self.degree == 1 and self.is_monic()

    def coeff(self, k: int) -> DualQuaternion:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return DualQuaternion.from_scalar(0)

    def __add__(self, other: "MotionPoly") -> "MotionPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out: List[DualQuaternion] = []
        for i in range(n):
            out.append(self.coeff(i) + other.coeff(i))
        return MotionPoly(tuple(out))

    def __sub__(self, other: "MotionPoly") -> "MotionPoly":
        return self + (-other)

    def __neg__(self) -> "MotionPoly":
        return MotionPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            other = MotionPoly.constant(other)
        if isinstance(other, MotionPoly):
            if self.is_zero() or other.is_zero():
                return MotionPoly(())
            zero = DualQuaternion.from_scalar(0)
            exact = _value_types((self, other)) <= _EXACT_TYPES
            out = [None if exact else zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            right = list(zip(other.coeffs, _real_parts(other.coeffs, exact)))
            for i, (a, ra) in enumerate(zip(self.coeffs, _real_parts(self.coeffs, exact))):
                for j, (b, rb) in enumerate(right):
                    if ra != 0 and rb != 0:  # an exact zero adds nothing
                        term, acc = _times(a, ra, b, rb), out[i + j]
                        out[i + j] = term if acc is None else acc + term
            return MotionPoly(tuple([zero if h is None else h for h in out]))
        if isinstance(other, (int, float)) or is_exact(other):
            return MotionPoly(tuple(c.scale(other) for c in self.coeffs))
        return NotImplemented

    def conj(self) -> "MotionPoly":
        return MotionPoly(tuple(c.conj() for c in self.coeffs))

    def norm_poly(self) -> "MotionPoly":
        """Norm polynomial C * conj(C); real exactly for motion polynomials."""
        return self * self.conj()

    def eval(self, t: Scalar) -> DualQuaternion:
        """Evaluate at a scalar parameter value (scalars are central)."""
        acc = DualQuaternion.from_scalar(0)
        for c in reversed(self.coeffs):
            acc = acc.scale(t) + c
        return acc

    def orbit(self, point: Sequence[Scalar], ts: Sequence[Scalar]) -> np.ndarray:
        """Float64 images of a point under the motion at every t, as act, shape (len(ts), 3)."""
        x, y, z = map(float, point)
        values = _horner_many(_coeff_array([self.coeffs]), ts)[:, 0]
        return -conjugate_many(values, (1.0, 0.0, 0.0, 0.0, 0.0, -x, -y, -z), TILDE_ROW)[:, 5:]

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

        Exact operands are pseudo-divided in integral form.  The divisor's
        leading coefficient L has the central norm L*conj(L) = n0 + eps*n1,
        so adj = conj(L)*(n0 - eps*n1) satisfies adj*L = n0^2 =: m (both
        reduced by their gcd); a real L = r, as for a monic divisor, gives
        adj = sign(r) and m = |r| at once.  After scaling the dividend by m^steps,
        every quotient term rem_top*adj/m is integral, so the loop runs on
        ints, and Q and R are divided by the accumulated scale once.  They
        are the unique quotient and remainder either way.
        """
        forms = _integral_forms((self, divisor))
        exact = forms is not None
        (num, num_scale), (den, den_scale) = forms or ((self, 1), (divisor, 1))
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = den.leading
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
        dn = den.degree
        lower = list(zip(den.coeffs, _real_parts(den.coeffs, exact)))[:dn]
        steps = max(0, len(num.coeffs) - dn)
        rem = list(num.coeffs) if m == 1 else [h.scale(m**steps) for h in num.coeffs]
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
        # m^steps * num_scale * self = quot * divisor * den_scale + rem
        scale = m**steps * num_scale
        quot = MotionPoly(tuple(quot if den_scale == 1 else [h.scale(den_scale) for h in quot]))
        return quot.over(scale), MotionPoly(tuple(rem)).over(scale)

    def is_motion_polynomial(self) -> bool:
        """Invertible leading coefficient and a real norm polynomial."""
        if self.is_zero() or not self.leading.invertible():
            return False
        return self.norm_poly().is_real()

    def is_real(self) -> bool:
        """Every coefficient is real, so the polynomial is central."""
        return all(viszero(c.p.vector) and c.d.is_zero() for c in self.coeffs)

    def is_float(self) -> bool:
        return any(c.is_float() for c in self.coeffs)

    def to_float(self) -> "MotionPoly":
        return MotionPoly(tuple(c.to_float() for c in self.coeffs))

    def integral(self) -> Tuple["MotionPoly", int]:
        """Integral form (d*self, d): int coefficients, d the lcm of their denominators.

        A polynomial with a float or symbolic coefficient is its own
        integral form (self, 1).  The form is derived once and kept.
        """
        forms = _integral_forms((self,))
        return (self, 1) if forms is None else forms[0]

    def over(self, d: int) -> "MotionPoly":
        """self / d for int coefficients and an int d > 0, made from its integral form.

        That form, (self, d) divided by their gcd, is kept, and each
        coefficient becomes Fraction(n, d) on the first read of coeffs.  With
        d = 1 it is self, so float and symbolic integral forms pass through.
        """
        if d == 1:
            return self
        g = math.gcd(d, *[v for c in self.coeffs for v in c])
        q, d = self, d // g
        if g > 1:
            q = MotionPoly(tuple([_tuple(DualQuaternion, [v // g for v in c]) for c in q.coeffs]))
        if d == 1:
            return q
        out = object.__new__(MotionPoly)
        object.__setattr__(out, "_form", (q, d))
        return out

    def __getattr__(self, name: str):
        # Only a polynomial made by over lacks coeffs until they are read.
        if name != "coeffs" or "_form" not in self.__dict__:
            raise AttributeError(f"'MotionPoly' object has no attribute {name!r}")
        q, d = self._form
        # Lists, here and in _integral_forms: tuple() and f(*...) of a
        # generator resize the tuple they build, which fills CPython's
        # per-size tuple free lists and so raises peak memory.
        coeffs = tuple([
            _tuple(DualQuaternion, [Fraction(v, d) if v else 0 for v in c]) for c in q.coeffs
        ])
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs


def t_squared_plus_one() -> MotionPoly:
    return MotionPoly.real((1, 0, 1))


ONE_POLY = MotionPoly.real((1,))


_EXACT_TYPES = frozenset((int, Fraction))
_ZERO7 = (0,) * 7


def _value_types(polys: Sequence[MotionPoly]) -> set:
    return {type(v) for p in polys for h in p.coeffs for v in h}


def _real_parts(coeffs: Sequence[DualQuaternion], exact: bool) -> List[Optional[Scalar]]:
    """The scalar part of each real coefficient, None for the others and for all if not exact."""
    return [h[0] if exact and h[1:] == _ZERO7 else None for h in coeffs]


def _times(a: DualQuaternion, ra, b: DualQuaternion, rb) -> DualQuaternion:
    """a * b given their _real_parts: a real one scales the other (floats have none)."""
    if rb is not None:
        return a.scale(rb)
    return b.scale(ra) if ra is not None else a * b


def _integral_forms(polys: Sequence[MotionPoly]) -> Optional[List[Tuple[MotionPoly, int]]]:
    """Integral forms of polys, or None if any coefficient is not an int or a Fraction.

    An int polynomial is its own form; another is kept on it, as over keeps it.
    """
    forms = []
    for p in polys:
        if "_form" not in p.__dict__:
            types = _value_types((p,))
            if not types <= _EXACT_TYPES:
                return None
            if Fraction not in types:
                forms.append((p, 1))
                continue
            values = [v for c in p.coeffs for v in c]
            d = math.lcm(*[v.denominator for v in values])
            ints = [v.numerator * (d // v.denominator) for v in values]
            rows = [_tuple(DualQuaternion, ints[i:i + 8]) for i in range(0, len(ints), 8)]
            object.__setattr__(p, "_form", (MotionPoly(tuple(rows)), d))
        forms.append(p._form)
    return forms


def integral_product(factors: Sequence[MotionPoly]) -> Tuple[MotionPoly, int]:
    """(d*P, d) for P = poly_product(factors): the factors' integral forms multiplied.

    d is the product of their scales; float or symbolic factors give (P, 1).
    """
    forms = _integral_forms(factors)
    if forms is None:
        # Float or symbolic: start from 1, as 1 * f turns f's -0.0 dual
        # coefficients into 0.0.  Exact forms start from the first factor.
        forms = [(MotionPoly.constant(DQ_ONE), 1)] + [(f, 1) for f in factors]
    acc, scale = forms[0] if forms else (MotionPoly.constant(DQ_ONE), 1)
    for f, d in forms[1:]:
        acc, scale = acc * f, scale * d
    return acc, scale


def poly_product(factors: Sequence[MotionPoly]) -> MotionPoly:
    """Ordered product factors[0] * factors[1] * ... (left to right)."""
    return MotionPoly.over(*integral_product(factors))


# The float lane multiplies coefficients pairwise (norms, dot products), so
# each must square to a finite float64.
COEFF_ABS_MAX = math.sqrt(sys.float_info.max)


def _coeff_array(rows: Sequence[Sequence[DualQuaternion]]) -> np.ndarray:
    """Float64 rows of dual quaternion sequences, shape (len(rows), max length, 8).

    Shorter sequences (a polynomial's coefficients) are zero padded on top.
    An exact coefficient beyond the float64 range, or beyond COEFF_ABS_MAX
    (about 1.3e154), raises KinematicsError.
    """
    out = np.zeros((len(rows), max(map(len, rows), default=0), 8))
    for i, row in enumerate(rows):
        for k, c in enumerate(row):
            try:
                out[i, k] = [float(v) for v in c.coeffs()]
            except OverflowError:
                v = abs(max(c.coeffs(), key=abs))
                size = math.log10(v.numerator) - math.log10(v.denominator)
                raise KinematicsError(
                    f"an exact coefficient of about 1e{size:+.0f} is beyond the float64 range"
                ) from None
    top = np.abs(out).max(initial=0.0)
    if top > COEFF_ABS_MAX:
        raise KinematicsError(
            f"an exact coefficient of about 1e{math.log10(top):+.0f} overflows float64 when squared"
        )
    return out


def _horner_many(coeffs: np.ndarray, ts: Sequence[Scalar]) -> np.ndarray:
    """Values of (m, d + 1, 8) coefficient arrays at every t, shape (len(ts), m, 8), as eval."""
    t = np.asarray(ts, dtype=float)[:, None, None]
    acc = np.zeros((t.shape[0],) + coeffs.shape[:1] + (8,))
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc = acc * t + coeffs[:, k]
    return acc


def poses_many(chains: Sequence[Sequence[MotionPoly]], ts: Sequence[Scalar]) -> List[np.ndarray]:
    """Float64 link poses of each chain at every t, shape (len(ts), len(chain) + 1, 8) each.

    Entry [:, j] is the product of the chain's first j factor values, the
    batched form of linkage.chain_poses.  All chains are rounded and
    evaluated together and walked in one loop of products: a shorter
    chain is padded after its end with the factor 1, so its own entries
    are computed exactly as for it alone.
    """
    n = max(map(len, chains))
    rows = [row for c in chains for row in [f.coeffs for f in c] + [(DQ_ONE,)] * (n - len(c))]
    values = _horner_many(_coeff_array(rows), ts).reshape(len(ts), len(chains), n, 8)
    poses = np.empty(values.shape[:2] + (n + 1, 8))
    poses[:, :, 0] = DQ_ONE_ROW
    for j in range(n):
        poses[:, :, j + 1] = dq_mul_many(poses[:, :, j], values[:, :, j])
    return [poses[:, i, :len(c) + 1] for i, c in enumerate(chains)]


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


def forms_residual(left: Tuple[MotionPoly, int], right: Tuple[MotionPoly, int]) -> Scalar:
    """Largest |coefficient| of P/dP - C/dC, given the integral forms (P, dP) and (C, dC).

    That is max |P*dC - C*dP| / (dP*dC), in one walk over coefficient pairs, divided once.
    """
    (p, dp), (c, dc) = left, right
    pairs = (zip(p.coeff(k), c.coeff(k)) for k in range(max(len(p.coeffs), len(c.coeffs))))
    top = max((abs(u * dc - v * dp) for row in pairs for u, v in row), default=0)
    return sdiv(top or 0, dp * dc)  # all zero, it is the exact 0
