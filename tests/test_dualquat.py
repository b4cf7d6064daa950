"""Dual quaternion algebra: products, conjugation, norm, action, axes."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from darboux7r import (
    AxisLine,
    DisplacementKind,
    DualQuaternion,
    NotARotation,
    projectively_equal,
    transform_axis,
)
from darboux7r.dualquat import DQ_ONE, Q_ZERO, Quaternion, ray_gap


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


ONE = dq(h0=1)
I = dq(h1=1)
J = dq(h2=1)
K = dq(h3=1)
EPS = dq(h4=1)
EPS_I = dq(h5=1)
EPS_J = dq(h6=1)
EPS_K = dq(h7=1)


def random_dq(rng: random.Random) -> DualQuaternion:
    return dq(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])


def random_displacement(rng: random.Random) -> DualQuaternion:
    # p arbitrary nonzero, d adjusted so the dual norm part 2<p,d> vanishes
    while True:
        p = Quaternion(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        if p.norm() != 0:
            break
    d = Quaternion(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
    corr = Fraction(p.dot(d), p.norm())
    d = d - p.scale(corr)
    h = DualQuaternion(p, d)
    assert h.has_real_norm()
    return h


def test_mul_worked_example():
    # (1 - eps i)(j + eps k) = j: the eps k terms cancel
    a = dq(h0=1, h5=-1)
    b = dq(h2=1, h7=1)
    assert a * b == J


def test_mul_identity_element():
    rng = random.Random(1)
    for _ in range(20):
        h = random_dq(rng)
        assert ONE * h == h
        assert h * ONE == h


def test_mul_ik_anticommute():
    assert I * K == -J
    assert K * I == J


def test_conj_pure_and_dual_scalar():
    assert K.conj() == -K
    assert (ONE + EPS).conj() == ONE + EPS


def test_conj_anti_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        a, b = random_dq(rng), random_dq(rng)
        assert (a * b).conj() == b.conj() * a.conj()


def test_norm_examples():
    assert (ONE + EPS_I).norm() == (1, 0)
    assert K.norm() == (1, 0)


def test_norm_multiplicative_as_dual_numbers():
    rng = random.Random(3)
    for _ in range(200):
        a, b = random_dq(rng), random_dq(rng)
        n0a, n1a = a.norm()
        n0b, n1b = b.norm()
        n0, n1 = (a * b).norm()
        assert n0 == n0a * n0b
        assert n1 == n0a * n1b + n1a * n0b


def test_associativity_random_triples():
    rng = random.Random(4)
    for _ in range(1000):
        a, b, c = random_dq(rng), random_dq(rng), random_dq(rng)
        assert (a * b) * c == a * (b * c)


def test_distributes_over_addition():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = random_dq(rng), random_dq(rng), random_dq(rng)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_act_worked_examples():
    origin = (1, 0, 0, 0)
    assert K.act(origin) == (1, 0, 0, 0)
    assert (ONE + EPS_I).act(origin) == (1, -2, 0, 0)
    assert K.act((1, 1, 0, 0)) == (1, -1, 0, 0)


def test_act_is_group_action():
    rng = random.Random(6)
    for _ in range(200):
        a, b = random_displacement(rng), random_displacement(rng)
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4))
        if x[0] == 0:
            x = (Fraction(1),) + x[1:]
        lhs = (a * b).act(x)
        rhs = a.act(b.act(x))
        # both are projective 4-vectors over the exact backend
        assert lhs[0] * rhs[1] == lhs[1] * rhs[0]
        assert lhs[0] * rhs[2] == lhs[2] * rhs[0]
        assert lhs[0] * rhs[3] == lhs[3] * rhs[0]


def test_act_projective_invariance_in_h():
    rng = random.Random(7)
    for _ in range(100):
        h = random_displacement(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = (1, Fraction(1, 3), Fraction(-2, 5), 4)
        a = h.act(x)
        b = h.scale(lam).act(x)
        assert a[0] * b[1] == a[1] * b[0]
        assert a[0] * b[2] == a[2] * b[0]
        assert a[0] * b[3] == a[3] * b[0]


def test_classify_examples():
    assert (K - EPS_J).classify() is DisplacementKind.ROTATION
    assert (ONE + EPS_I).classify() is DisplacementKind.TRANSLATION
    assert (ONE + EPS).classify() is DisplacementKind.NON_DISPLACEMENT
    assert ONE.classify() is DisplacementKind.IDENTITY
    assert dq().classify() is DisplacementKind.NON_DISPLACEMENT


def test_classify_general_element():
    # nonzero dual scalar with real norm: h4 != 0 forces General
    h = dq(h1=1, h4=1)  # i + eps; <p,d> = 0
    assert h.has_real_norm()
    assert h.classify() is DisplacementKind.GENERAL


def test_axis_examples():
    ax = (K - EPS_J).axis()
    assert ax.direction == (0, 0, 1)
    assert ax.moment == (0, 1, 0)
    assert K.axis().moment == (0, 0, 0)
    ax2 = (K + EPS_J.scale(Fraction(5, 2))).axis()
    assert ax2.direction == (0, 0, 1)
    assert ax2.moment == (0, Fraction(-5, 2), 0)


def test_axis_plucker_condition_random():
    rng = random.Random(8)
    for _ in range(200):
        # build a rotation: pure vector primal, dual vector with the cross term removed
        p = Quaternion(0, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        if p.norm() == 0:
            continue
        m = Quaternion(0, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        d = m - p.scale(Fraction(p.dot(m), p.norm()))
        h = DualQuaternion(p, d)
        assert h.classify() is DisplacementKind.ROTATION
        ax = h.axis()
        assert sum(u * v for u, v in zip(ax.direction, ax.moment)) == 0


def test_axis_requires_rotation():
    with pytest.raises(NotARotation):
        (ONE + EPS_I).axis()


def test_transform_axis_identity():
    ax = AxisLine((0, 0, 1), (0, 0, 0))
    assert transform_axis(DQ_ONE, ax).same_line(ax)


def test_transform_axis_translation_shifts_moment():
    # 1 + eps i translates by (-2, 0, 0); k-axis through origin moves to x = -2
    ax = AxisLine((0, 0, 1), (0, 0, 0))
    out = transform_axis(ONE + EPS_I, ax)
    assert out.is_parallel_to(ax)
    assert out.point_nearest_origin() == (-2, 0, 0)


def test_transform_axis_half_turn_reverses():
    ax = AxisLine((1, 0, 0), (0, 0, 0))
    out = transform_axis(K, ax)
    assert out.is_parallel_to(ax)
    assert not out.same_line(AxisLine((0, 1, 0), (0, 0, 0)))
    # the half turn about k maps the i-axis onto itself with direction reversed
    assert out.same_line(ax)
    d = out.direction
    assert d[0] < 0


def test_transform_axis_preserves_parallelism():
    rng = random.Random(9)
    base = AxisLine((2, -1, 3), (1, 2, 0))
    par = AxisLine((-4, 2, -6), (0, 3, 2))
    assert base.is_parallel_to(par)
    for _ in range(50):
        g = random_displacement(rng)
        ga, gb = transform_axis(g, base), transform_axis(g, par)
        assert ga.is_parallel_to(gb)


def test_projective_equality_and_distance():
    h = dq(h0=1, h3=2, h6=Fraction(1, 3))
    assert projectively_equal(h, h.scale(Fraction(-7, 3)))
    assert not projectively_equal(h, h + EPS)
    assert ray_gap(h.coeffs(), h.scale(Fraction(5, 2)).coeffs()) < 1e-15
    assert ray_gap(h.coeffs(), (h + I).coeffs()) > 1e-3


def test_inverse():
    rng = random.Random(10)
    for _ in range(100):
        h = random_dq(rng)
        n0, _ = h.norm()
        if n0 == 0:
            continue
        assert h * h.inverse() == ONE
        assert h.inverse() * h == ONE


# Value semantics: a dual quaternion is an immutable tuple of its eight
# coefficients, and the tuple behaviours that a value type must not have
# are guarded.


def test_values_are_immutable():
    h = dq(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(AttributeError):
        h.p = Q_ZERO
    with pytest.raises(AttributeError):
        h.p.w = 5
    with pytest.raises(TypeError):
        h[0] = 5
    assert h == dq(1, 2, 3, 4, 5, 6, 7, 8)


def test_parts_round_trip_and_coeffs_is_a_plain_tuple():
    p = Quaternion(1, Fraction(1, 2), -3, 0)
    d = Quaternion(0, 2, 0, Fraction(-5, 7))
    h = DualQuaternion(p, d)
    assert h.p == p and h.d == d
    assert type(h.p) is Quaternion and type(h.d) is Quaternion
    assert type(h.coeffs()) is tuple
    assert h.coeffs() == (1, Fraction(1, 2), -3, 0, 0, 2, 0, Fraction(-5, 7))


def test_wrong_coefficient_counts_raise():
    with pytest.raises(ValueError):
        DualQuaternion.from_coeffs([1] * 7)
    with pytest.raises(ValueError):
        DualQuaternion((1, 2, 3), Q_ZERO)
    # A sum never truncates to the shorter operand.
    with pytest.raises(ValueError):
        dq(h0=1, h7=2) + Quaternion(1, 0, 0, 0)
    with pytest.raises(ValueError):
        Quaternion(1, 0, 0, 0) - dq(h0=1, h7=2)
    # Nor does it drop the surplus of a longer plain tuple, or pad a shorter one.
    for other in ((1,) * 9, (1,) * 3):
        with pytest.raises(ValueError):
            dq(h0=1) + other
        with pytest.raises(ValueError):
            Quaternion(1, 0, 0, 0) - other


def test_repr_names_the_parts():
    assert repr(dq(1, Fraction(1, 2), h7=-3)) == (
        "DualQuaternion(p=Quaternion(w=1, x=Fraction(1, 2), y=0, z=0), "
        "d=Quaternion(w=0, x=0, y=0, z=-3))"
    )


def test_equal_exact_values_hash_equal():
    a, b = dq(Fraction(2), Fraction(1, 2)), dq(2, Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_zero_test_counts_signed_zero_and_not_nan():
    assert dq(-0.0, h6=-0.0).is_zero()
    assert not dq(math.nan).is_zero()
    assert Quaternion(0.0, -0.0, 0, 0).is_zero()
