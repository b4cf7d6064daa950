"""Property tests: exact products, right division and residuals in integral form.

prefix_products, divmod_right and Factorization.residual clear denominators
once and run on ints, and an exact real coefficient scales its partner.
On random rational polynomials, real ones (t^2 + 1, constants, real
divisors) among them, they must give what plain Fraction arithmetic
gives, written out here as the reference (the left-to-right product and
the synthetic division by the inverse of the leading coefficient).  On
float polynomials they must give the same reference formulas' values
bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from darboux7r import (  # noqa: E402
    DarbouxParams, DualQuaternion, MotionPoly, SingularChoice, factor_fiii
)
from darboux7r.cli import FAMILIES, build_family  # noqa: E402
from darboux7r.dualquat import DQ_ONE, Q_ZERO, Quaternion  # noqa: E402
from darboux7r.motionpoly import prefix_products, t_squared_plus_one  # noqa: E402
from darboux7r.scalars import is_exact  # noqa: E402

ZERO = DualQuaternion.from_scalar(0)

# Wider denominators than the other property tests, so integral forms
# carry real scales; int zeros keep the polynomials sparse like factors.
rationals = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)) | st.just(0)
nonzero = rationals.filter(lambda v: v != 0)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
dual_quaternions = st.builds(DualQuaternion, quaternions, quaternions)
motion_polys = st.lists(dual_quaternions, max_size=4).map(lambda cs: MotionPoly(tuple(cs)))
params = st.builds(DarbouxParams, nonzero, rationals, rationals)
# Real polynomials, which take the scaling path: t^2 + 1, real constants,
# and real coefficients with zeros among them.
real_polys = (
    st.just(t_squared_plus_one())
    | nonzero.map(lambda v: MotionPoly.real((v,)))
    | st.lists(rationals, min_size=1, max_size=4).map(MotionPoly.real)
)
real_divisors = real_polys.filter(lambda d: not d.is_zero())

EXAMPLES = settings(max_examples=60, deadline=None)


def values(p: MotionPoly):
    return [v for c in p.coeffs for v in c.coeffs()]


def reference_product(factors) -> MotionPoly:
    """factors[0] * factors[1] * ..., convolving the coefficient lists left to right."""
    acc = [DQ_ONE]
    for f in factors:
        if not acc or not f.coeffs:
            acc = []
            continue
        out = [ZERO] * (len(acc) + len(f.coeffs) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(f.coeffs):
                out[i + j] = out[i + j] + a * b
        acc = out
    return MotionPoly(tuple(acc))


def reference_divmod(c: MotionPoly, d: MotionPoly):
    """Synthetic right division by the inverse of d's leading coefficient."""
    inv = d.leading.inverse()
    rem = list(c.coeffs)
    quot = [ZERO] * max(0, len(rem) - d.degree)
    while len(rem) - 1 >= d.degree:
        k = len(rem) - 1 - d.degree
        qk = rem.pop() * inv
        quot[k] = qk
        for i in range(d.degree):
            rem[i + k] = rem[i + k] - qk * d.coeffs[i]
    return MotionPoly(tuple(quot)), MotionPoly(tuple(rem))


LEADERS = {
    "monic": st.just(DQ_ONE),
    "real": nonzero.map(DualQuaternion.from_scalar),
    # Rotation-like: non-real primal, real norm (n1 = 0).
    "primal": quaternions.filter(lambda q: q.vector != (0, 0, 0)).map(
        lambda q: DualQuaternion(q, Q_ZERO)
    ),
    # General invertible: the norm's dual part n1 is not zero.
    "general": dual_quaternions.filter(lambda h: h.invertible() and h.norm()[1] != 0),
}


@st.composite
def divisors(draw, kind: str) -> MotionPoly:
    lower = draw(st.lists(dual_quaternions, max_size=2))
    return MotionPoly((*lower, draw(LEADERS[kind])))


@EXAMPLES
@given(motion_polys)
def test_integral_form_has_int_coefficients_and_divides_back(p):
    q, d = p.integral()
    assert all(type(v) is int for v in values(q))
    assert d == math.lcm(*(Fraction(v).denominator for v in values(p)))
    assert q.over(d) == p
    assert all(is_exact(v) for v in values(q.over(d)))


@EXAMPLES
@given(st.lists(motion_polys | real_polys, max_size=4))
def test_poly_product_is_the_fraction_product(factors):
    product = prefix_products(factors)[-1]
    assert product == reference_product(factors)
    assert all(is_exact(v) for v in values(product))


DIVISORS = {kind: divisors(kind) for kind in LEADERS} | {"real polynomial": real_divisors}


@pytest.mark.parametrize("kind", DIVISORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divmod_right_is_the_fraction_division(kind, data):
    c = data.draw(motion_polys | real_polys)
    d = data.draw(DIVISORS[kind])
    q, r = c.divmod_right(d)
    assert q * d + r == c
    assert r.degree < d.degree
    assert (q, r) == reference_divmod(c, d)
    assert all(is_exact(v) for v in values(q) + values(r))


def canonical(p: MotionPoly) -> bool:
    return p.den > 0 and math.gcd(p.den, *[v for h in p.num for v in h]) == 1


@EXAMPLES
@given(motion_polys | real_polys, motion_polys, st.sampled_from(tuple(LEADERS)).flatmap(divisors))
def test_equal_exact_values_have_one_num_den_and_hash(a, b, d):
    # Reached by different paths, one value has one canonical num / den.
    left, right = (a * b) * d, a * (b * d)
    rebuilt = MotionPoly(left.coeffs)
    q, r = left.divmod_right(d)
    assert r.is_zero()
    for p, same in ((left, right), (left, rebuilt), (q, a * b)):
        assert canonical(p) and canonical(same)
        assert p == same
        assert (p.num, p.den, hash(p)) == (same.num, same.den, hash(same))


def test_exact_products_and_quotients_leave_their_fractions_unformed():
    # *, divmod_right, ==, is_zero and degree read num and den: a product or
    # quotient forms its Fraction coefficients only when they are read.
    f = factor_fiii(DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5)), Fraction(1, 3), 0)
    q7, q6, q5, q4, _ = f.factors
    general = MotionPoly.constant(
        DualQuaternion.from_coeffs([Fraction(1, 3), 2, 0, 1, 5, 0, 1, 0])
    )
    left, divisor = q7 * q6, q5 * q4 * general
    quot, rem = (left * divisor).divmod_right(divisor)
    assert quot == left and rem.is_zero() and quot.degree == 2
    monic_quot, monic_rem = f.product().divmod_right(q4 * q4)
    assert monic_quot == q7 * q6 * q5 and monic_rem.is_zero() and monic_quot.degree == 3
    assert f.residual() == 0
    for p in (left, divisor, quot, rem, monic_quot, f.product()):
        assert "coeffs" not in vars(p)
    assert (left.den, quot.den, monic_quot.den) != (1, 1, 1)


@st.composite
def edited_factorizations(draw):
    """A factorization of one of the four families with one factor coefficient replaced."""
    kind = draw(st.sampled_from(tuple(FAMILIES)))
    p = draw(params)
    try:
        f = build_family(
            FAMILIES[kind], dict(a=p.a, b=p.b, c=p.c, x=draw(rationals), y=draw(rationals))
        )
    except SingularChoice:
        assume(False)
    factors = list(f.factors)
    k = draw(st.integers(0, len(factors) - 1))
    row = draw(st.integers(0, len(factors[k].coeffs) - 1))
    slot = draw(st.integers(0, 7))
    coeffs = list(factors[k].coeffs[row].coeffs())
    coeffs[slot] = draw(rationals.filter(lambda v: v != coeffs[slot]))
    poly = list(factors[k].coeffs)
    poly[row] = DualQuaternion.from_coeffs(coeffs)
    factors[k] = MotionPoly(tuple(poly))
    return f, factors


@settings(max_examples=40, deadline=None)
@given(edited_factorizations())
def test_residual_of_an_edited_factorization_is_the_fraction_residual(case):
    f, factors = case
    residual = replace(f, factors=tuple(factors)).residual()
    diff = reference_product(factors) + reference_product([f.cofactor, f.target()]) * -1
    expected = max((abs(v) for v in values(diff)), default=0)
    assert residual == expected
    # verify prints the residual on its FAIL line with str().
    assert str(residual) == str(expected)
    assert f.residual() == 0


# Signed zeros often, so a change in which zeros are added or skipped shows.
floats = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e6, 1e6)
float_dqs = st.builds(
    DualQuaternion,
    st.builds(Quaternion, floats, floats, floats, floats),
    st.builds(Quaternion, floats, floats, floats, floats),
)
float_polys = st.lists(float_dqs, min_size=1, max_size=3).map(lambda cs: MotionPoly(tuple(cs)))


def bits(p: MotionPoly):
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values(p)]


float_reals = st.lists(floats, min_size=1, max_size=3).map(MotionPoly.real)
exact_reals = st.sampled_from([t_squared_plus_one(), MotionPoly.real((2,)), MotionPoly.real((0, 3))])


@settings(max_examples=100, deadline=None)
@given(st.lists(float_polys | float_reals | exact_reals, max_size=4), float_polys,
       st.lists(float_dqs, max_size=2),
       st.sampled_from([DQ_ONE, DQ_ONE.to_float()]))
def test_float_product_and_monic_division_repeat_the_reference_bit_for_bit(
    factors, c, lower, lead
):
    assert bits(prefix_products(factors)[-1]) == bits(reference_product(factors))
    d = MotionPoly((*lower, lead))
    q, r = c.divmod_right(d)
    q_ref, r_ref = reference_divmod(c, d)
    assert bits(q) == bits(q_ref)
    assert bits(r) == bits(r_ref)


def zero_start_product(a: MotionPoly, b: MotionPoly) -> MotionPoly:
    """a * b with every coefficient sum started from the exact zero."""
    out = [ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return MotionPoly(tuple(out))


@settings(max_examples=100, deadline=None)
@given(float_polys | float_reals, float_polys | float_reals | exact_reals)
def test_float_product_sums_from_zero_bit_for_bit(a, b):
    assert bits(a * b) == bits(zero_start_product(a, b))
    assert bits(b * a) == bits(zero_start_product(b, a))


def test_float_product_turns_a_negative_zero_term_into_zero():
    # 1.0 * -0.0 - 0.0 * 1.0 is -0.0, and 0 + -0.0 is 0.0: a sum started from
    # its first term would keep the sign.
    one, h = DQ_ONE.to_float(), DualQuaternion.from_coeffs([-0.0, 1.0] + [0.0] * 6)
    assert math.copysign(1, (one * h)[0]) == -1
    (w, *_), = (MotionPoly.constant(one) * MotionPoly.constant(h)).coeffs
    assert math.copysign(1, w) == 1


@settings(max_examples=100, deadline=None)
@given(float_polys | float_reals,
       # A leading coefficient whose square is not a subnormal float.
       (float_reals | exact_reals).filter(lambda d: not d.is_zero() and abs(d.leading[0]) > 1e-6))
def test_float_division_by_a_real_polynomial_repeats_the_reference_bit_for_bit(c, d):
    # A float operand keeps the full product: a real coefficient scaling
    # it instead could differ in a zero's sign or in nan against inf.
    q, r = c.divmod_right(d)
    q_ref, r_ref = reference_divmod(c, d)
    assert bits(q) == bits(q_ref)
    assert bits(r) == bits(r_ref)
