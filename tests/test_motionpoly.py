"""Polynomials over dual quaternions: division, right evaluation, factors."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from darboux7r import (
    DualQuaternion,
    MotionPoly,
    NonGeneric,
    NonInvertibleLeader,
    NotADivisor,
    right_factor_from_quadratic,
    t_squared_plus_one,
)
from darboux7r.dualquat import DQ_ONE, Quaternion
from darboux7r.motionpoly import ONE_POLY, prefix_products, residual


def factorization_residual(factors, target, cofactor):
    """Largest |coefficient| of product(factors) - cofactor * target."""
    return residual(prefix_products(factors)[-1], cofactor * target)


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


ZERO = dq()
ONE = dq(h0=1)
I = dq(h1=1)
J = dq(h2=1)
K = dq(h3=1)


def random_dq(rng: random.Random) -> DualQuaternion:
    return dq(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])


def random_poly(rng: random.Random, deg: int) -> MotionPoly:
    while True:
        coeffs = [random_dq(rng) for _ in range(deg + 1)]
        if coeffs[-1].p.norm() != 0:
            return MotionPoly(tuple(coeffs))


def random_rotation_root(rng: random.Random) -> DualQuaternion:
    while True:
        p = Quaternion(0, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        if p.norm() == 0:
            continue
        m = Quaternion(0, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        d = m - p.scale(Fraction(p.dot(m), p.norm()))
        return DualQuaternion(p, d)


def test_mul_worked_example():
    # (t-k)(t-i) = t^2 - (k+i)t + ki and ki = j
    prod = MotionPoly.t_minus(K) * MotionPoly.t_minus(I)
    assert prod == MotionPoly((J, -(K + I), ONE))


def test_real_polys_are_central():
    rng = random.Random(11)
    P = t_squared_plus_one()
    for _ in range(50):
        C = random_poly(rng, rng.randint(0, 4))
        assert C * P == P * C


def test_mul_associative_and_degree():
    rng = random.Random(12)
    for _ in range(100):
        A = random_poly(rng, rng.randint(0, 3))
        B = random_poly(rng, rng.randint(0, 3))
        C = random_poly(rng, rng.randint(0, 3))
        assert (A * B) * C == A * (B * C)
        assert (A * B).degree == A.degree + B.degree


def test_norm_examples():
    tk = MotionPoly.t_minus(K)
    assert tk.norm_poly() == MotionPoly.real((1, 0, 1))


def test_norm_multiplicative():
    rng = random.Random(13)
    for _ in range(50):
        A = MotionPoly.t_minus(random_rotation_root(rng))
        B = MotionPoly.t_minus(random_rotation_root(rng)) * MotionPoly.t_minus(
            random_rotation_root(rng)
        )
        assert A.norm_poly() * B.norm_poly() == (A * B).norm_poly()


def test_is_motion_polynomial_examples():
    q3 = MotionPoly.t_minus(dq(h3=1, h6=Fraction(-5, 2)))  # t - k + 5/2 eps j
    assert q3.is_motion_polynomial()
    bad = MotionPoly.t_minus(I + dq(h5=1))  # t - (i + eps i)
    assert not bad.is_motion_polynomial()
    translation = MotionPoly.t_minus(dq(h5=1))  # t - eps i, norm t^2
    assert translation.is_motion_polynomial()


def test_divmod_exact_right_factor():
    C = MotionPoly.t_minus(K) * MotionPoly.t_minus(I)
    Q, R = C.divmod_right(MotionPoly.t_minus(I))
    assert Q == MotionPoly.t_minus(K)
    assert R.degree < 0


def test_divmod_identity_random():
    rng = random.Random(14)
    for _ in range(200):
        C = random_poly(rng, rng.randint(0, 5))
        D = random_poly(rng, rng.randint(1, 3))
        Q, R = C.divmod_right(D)
        assert Q * D + R == C
        assert R.degree < D.degree


def test_divmod_non_monic_divisor():
    rng = random.Random(15)
    for _ in range(50):
        C = random_poly(rng, 4)
        D = random_poly(rng, 2)
        lead = D.leading
        assert lead.p.norm() != 0  # invertible by construction
        Q, R = C.divmod_right(D)
        assert Q * D + R == C


def test_divmod_rejects_non_invertible_leader():
    D = MotionPoly((ONE, dq(h5=1)))  # leading coefficient eps i
    C = MotionPoly.t_minus(K) * MotionPoly.t_minus(I)
    with pytest.raises(NonInvertibleLeader):
        C.divmod_right(D)


def test_eval_right_examples():
    C = MotionPoly.t_minus(I) * MotionPoly.t_minus(K)
    assert C.eval_right(K) == ZERO
    assert C.eval_right(I) == J.scale(-2)
    const = MotionPoly.constant(dq(h0=3, h2=1))
    assert const.eval_right(random_dq(random.Random(0))) == dq(h0=3, h2=1)


def test_eval_right_differs_from_factored_substitution():
    # plugging h into the factored form (h-i)(h-k) at h=i gives 0 on the left
    # factor, but right evaluation of the expanded polynomial does not vanish
    C = MotionPoly.t_minus(I) * MotionPoly.t_minus(K)
    h = I
    factored = (h - I) * (h - K)
    assert factored == ZERO
    assert C.eval_right(h) != ZERO


def test_zero_iff_right_factor():
    rng = random.Random(16)
    for _ in range(100):
        h = random_rotation_root(rng)
        other = random_poly(rng, rng.randint(1, 3))
        C = other * MotionPoly.t_minus(h)
        assert C.eval_right(h) == ZERO
        _, R = C.divmod_right(MotionPoly.t_minus(h))
        assert R.degree < 0
        # a perturbed root is generically not a zero
        hp = h + ONE
        val = C.eval_right(hp)
        _, Rp = C.divmod_right(MotionPoly.t_minus(hp))
        assert (val == ZERO) == (Rp.degree < 0)


def test_eval_right_commutes_with_real_cofactor():
    # (C * P)(h) = C(h) * P(h) holds for real P even though evaluation is
    # not multiplicative in general
    rng = random.Random(17)
    P = t_squared_plus_one()
    for _ in range(50):
        C = random_poly(rng, rng.randint(1, 3))
        h = random_dq(rng)
        lhs = (C * P).eval_right(h)
        ph = h * h + DQ_ONE
        assert lhs == C.eval_right(h) * ph


def test_right_factor_from_quadratic_examples():
    C = MotionPoly.t_minus(I) * MotionPoly.t_minus(J)
    h = right_factor_from_quadratic(C, t_squared_plus_one())
    assert h == J
    assert C.eval_right(h) == ZERO

    assert right_factor_from_quadratic(MotionPoly.t_minus(K), t_squared_plus_one()) == K


def test_right_factor_rejects_non_divisor():
    C = MotionPoly.t_minus(I) * MotionPoly.t_minus(J.scale(2))
    with pytest.raises(NotADivisor):
        right_factor_from_quadratic(C, MotionPoly.real((3, 0, 1)))  # t^2 + 3 divides nothing here
    with pytest.raises(NotADivisor):
        # real roots: not an irreducible quadratic
        right_factor_from_quadratic(C, MotionPoly.real((-1, 0, 1)))
    with pytest.raises(NotADivisor, match="monic real quadratic"):
        # t^2 + 1 + i: monic quadratic, but its constant coefficient is not real
        right_factor_from_quadratic(C, MotionPoly((ONE + I, ZERO, ONE)))


def test_right_factor_random_generic_products():
    rng = random.Random(18)
    done = 0
    while done < 50:
        h1 = random_rotation_root(rng)
        h2 = random_rotation_root(rng)
        C = MotionPoly.t_minus(h1) * MotionPoly.t_minus(h2)
        M = MotionPoly.t_minus(h2).norm_poly()
        assert M.is_real()
        try:
            h = right_factor_from_quadratic(C, M)
        except NonGeneric:
            continue
        factor = MotionPoly.t_minus(h)
        assert factor.norm_poly() == M
        _, R = C.divmod_right(factor)
        assert R.degree < 0
        done += 1


def test_verify_factorization():
    rng = random.Random(19)
    for _ in range(50):
        f1 = MotionPoly.t_minus(random_rotation_root(rng))
        f2 = MotionPoly.t_minus(random_rotation_root(rng))
        target = f1 * f2
        assert factorization_residual([f1, f2], target, ONE_POLY) == 0
        if f1 * f2 != f2 * f1:
            assert factorization_residual([f2, f1], target, ONE_POLY) != 0


def test_verify_factorization_with_cofactor():
    P = t_squared_plus_one()
    f1 = MotionPoly.t_minus(I)
    f2 = MotionPoly.t_minus(-I)
    f3 = MotionPoly.t_minus(K)
    # (t-i)(t+i) = t^2+1, so the triple factors P*(t-k)
    assert factorization_residual([f1, f2, f3], f3, cofactor=P) == 0
