"""Polynomials over the dual quaternions in a central indeterminate t.

Coefficients multiply non-commutatively but t commutes with everything,
so products are ordinary convolutions of coefficient sequences.  Only
right division is provided: for a divisor with invertible leading
coefficient there are unique Q, R with C = Q*D + R and deg R < deg D.
Right evaluation substitutes t = h with powers of h to the right of the
coefficients; its zeros correspond exactly to monic linear right
factors t - h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .dualquat import DQ_ONE, DQ_ONE_ROW, DualQuaternion, act_many, dq_mul_many, viszero
from .errors import KinematicsError, NonGeneric, NonInvertibleLeader, NotADivisor
from .scalars import Scalar, is_exact


def _trim(coeffs: Sequence) -> Tuple:
    n = len(coeffs)
    while n > 0 and _is_zero_coeff(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


def _is_zero_coeff(c) -> bool:
    if isinstance(c, DualQuaternion):
        return c.is_zero()
    return c == 0


@dataclass(frozen=True)
class RealPoly:
    """Real (central) polynomial; coeffs[k] is the degree-k coefficient."""

    coeffs: Tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "RealPoly") -> "RealPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return RealPoly(tuple(a))

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            if self.is_zero() or other.is_zero():
                return RealPoly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return RealPoly(tuple(out))
        if isinstance(other, (int, float)) or is_exact(other):
            return RealPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def to_motion(self) -> "MotionPoly":
        return MotionPoly(tuple(DualQuaternion.from_scalar(c) for c in self.coeffs))


def t_squared_plus_one() -> RealPoly:
    return RealPoly((1, 0, 1))


ONE_POLY = RealPoly((1,))


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
        if isinstance(other, RealPoly):
            other = other.to_motion()
        if isinstance(other, DualQuaternion):
            other = MotionPoly.constant(other)
        if isinstance(other, MotionPoly):
            if self.is_zero() or other.is_zero():
                return MotionPoly(())
            zero = DualQuaternion.from_scalar(0)
            out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return MotionPoly(tuple(out))
        if isinstance(other, (int, float)) or is_exact(other):
            return MotionPoly(tuple(c.scale(other) for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        # Central multipliers only; dual quaternion factors must use __mul__
        # so the side of the product stays explicit.
        if isinstance(other, RealPoly):
            return self.__mul__(other)
        if isinstance(other, (int, float)) or is_exact(other):
            return MotionPoly(tuple(c.scale(other) for c in self.coeffs))
        return NotImplemented

    def conj(self) -> "MotionPoly":
        return MotionPoly(tuple(c.conj() for c in self.coeffs))

    def norm_poly(self) -> "MotionPoly":
        """Norm polynomial C * conj(C); real exactly for motion polynomials."""
        return self * self.conj()

    def norm_real_poly(self) -> RealPoly:
        """Norm polynomial as a real polynomial; raises if any coefficient is not real."""
        n = self.norm_poly()
        out = []
        for c in n.coeffs:
            if not _coeff_is_real(c):
                raise ValueError("norm polynomial has non-real coefficients")
            out.append(c.p.w)
        return RealPoly(tuple(out))

    def eval(self, t: Scalar) -> DualQuaternion:
        """Evaluate at a scalar parameter value (scalars are central)."""
        acc = DualQuaternion.from_scalar(0)
        for c in reversed(self.coeffs):
            acc = acc.scale(t) + c
        return acc

    def orbit(self, point: Sequence[Scalar], ts: Sequence[Scalar]) -> np.ndarray:
        """Float64 images of a point under the motion at every t, shape (len(ts), 3)."""
        values = _horner_many(_coeff_array([self]), ts)[:, 0]
        return act_many(values, [1.0, *map(float, point)])[:, 1:]

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
        """Right division: returns (Q, R) with self = Q*divisor + R, deg R < deg divisor."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not divisor.leading.invertible():
            raise NonInvertibleLeader(
                "divisor's leading coefficient has zero primal part"
            )
        lead_inv = divisor.leading.inverse()
        dn = divisor.degree
        rem = list(self.coeffs)
        zero = DualQuaternion.from_scalar(0)
        quot = [zero] * max(0, len(rem) - dn)
        # Synthetic division; the cancelled leading term is popped rather
        # than subtracted so float rounding cannot stall the loop.
        while len(rem) - 1 >= dn:
            k = len(rem) - 1 - dn
            qk = rem[-1] * lead_inv
            quot[k] = qk
            rem.pop()
            for i in range(dn):
                rem[i + k] = rem[i + k] - qk * divisor.coeffs[i]
        return MotionPoly(tuple(quot)), MotionPoly(tuple(rem))

    def is_motion_polynomial(self) -> bool:
        """Invertible leading coefficient and a real norm polynomial."""
        if self.is_zero() or not self.leading.invertible():
            return False
        return all(_coeff_is_real(c) for c in self.norm_poly().coeffs)

    def is_float(self) -> bool:
        return any(c.is_float() for c in self.coeffs)

    def to_float(self) -> "MotionPoly":
        return MotionPoly(tuple(c.to_float() for c in self.coeffs))


def _coeff_is_real(c: DualQuaternion) -> bool:
    return viszero(c.p.vector) and c.d.is_zero()


def poly_product(factors: Sequence[MotionPoly]) -> MotionPoly:
    """Ordered product factors[0] * factors[1] * ... (left to right)."""
    acc = MotionPoly.constant(DQ_ONE)
    for f in factors:
        acc = acc * f
    return acc


def _coeff_array(polys: Sequence[MotionPoly]) -> np.ndarray:
    """Float64 coefficients, shape (len(polys), max degree + 1, 8), zero padded on top.

    An exact coefficient beyond the float64 range raises KinematicsError.
    """
    out = np.zeros((len(polys), max((len(q.coeffs) for q in polys), default=0), 8))
    for i, q in enumerate(polys):
        for k, c in enumerate(q.coeffs):
            try:
                out[i, k] = [float(v) for v in c.coeffs()]
            except OverflowError:
                v = abs(max(c.coeffs(), key=abs))
                size = math.log10(v.numerator) - math.log10(v.denominator)
                raise KinematicsError(
                    f"an exact coefficient of about 1e{size:+.0f} is beyond the float64 range"
                ) from None
    return out


def _horner_many(coeffs: np.ndarray, ts: Sequence[Scalar]) -> np.ndarray:
    """Values of (m, d + 1, 8) coefficient arrays at every t, shape (len(ts), m, 8), as eval."""
    t = np.asarray(ts, dtype=float)[:, None, None]
    acc = np.zeros((t.shape[0],) + coeffs.shape[:1] + (8,))
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc = acc * t + coeffs[:, k]
    return acc


def poses_many(factors: Sequence[MotionPoly], ts: Sequence[Scalar]) -> np.ndarray:
    """Float64 link poses of a chain at every t, shape (len(ts), len(factors) + 1, 8).

    Entry [:, j] is the product of the first j factor values, the batched
    form of linkage.chain_poses.
    """
    values = _horner_many(_coeff_array(factors), ts)
    poses = np.empty((values.shape[0], len(factors) + 1, 8))
    poses[:, 0] = DQ_ONE_ROW
    for j in range(len(factors)):
        poses[:, j + 1] = dq_mul_many(poses[:, j], values[:, j])
    return poses


def right_factor_from_quadratic(c: MotionPoly, m: RealPoly) -> DualQuaternion:
    """Extract h with norm(t - h) = m and t - h a right factor of c.

    m must be a monic real quadratic without real roots that divides the
    norm polynomial of c.  The remainder r1*t + r0 of c mod m determines
    h = -r1^{-1} * r0 when r1 is invertible; otherwise the instance is
    non-generic and no conclusion is drawn.
    """
    if m.degree != 2 or not m.is_monic():
        raise NotADivisor("expected a monic quadratic")
    m1, m0 = m.coeffs[1], m.coeffs[0]
    if m1 * m1 - 4 * m0 >= 0:
        raise NotADivisor("quadratic must have no real roots")
    norm = c.norm_poly()
    _, nrem = norm.divmod_right(m.to_motion())
    if not nrem.is_zero():
        raise NotADivisor("quadratic does not divide the norm polynomial")
    _, rem = c.divmod_right(m.to_motion())
    r1 = rem.coeff(1)
    r0 = rem.coeff(0)
    if not r1.invertible():
        raise NonGeneric("remainder's leading coefficient is not invertible")
    h = -(r1.inverse() * r0)
    if not h.is_float():
        factor = MotionPoly.t_minus(h)
        if factor.norm_poly() != m.to_motion() or not c.divmod_right(factor)[1].is_zero():
            raise NotADivisor("extracted t - h does not right-divide c with norm m")
    return h


def factorization_residual(
    factors: Sequence[MotionPoly], target: MotionPoly, cofactor: RealPoly = ONE_POLY
) -> Scalar:
    """Largest |coefficient| of product(factors) - cofactor * target."""
    diff = poly_product(factors) - cofactor.to_motion() * target
    return max((abs(v) for c in diff.coeffs for v in c.coeffs()), default=0)


def verify_factorization(
    factors: Sequence[MotionPoly], target: MotionPoly, cofactor: RealPoly = ONE_POLY
) -> bool:
    """Check the exact identity product(factors) = cofactor * target."""
    return factorization_residual(factors, target, cofactor) == 0
