"""Property tests: exact products, right division and residuals in integral form.

poly_product, divmod_right and factorization_residual clear denominators
once and run on ints.  On random rational polynomials they must give
what plain Fraction arithmetic gives, written out here as the reference
(the left-to-right product and the synthetic division by the inverse of
the leading coefficient).  On float polynomials they must give the same
reference formulas' values bit for bit.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from darboux7r import DarbouxParams, DualQuaternion, MotionPoly, SingularChoice  # noqa: E402
from darboux7r.cli import FAMILIES, build_family  # noqa: E402
from darboux7r.dualquat import DQ_ONE, Q_ZERO, Quaternion  # noqa: E402
from darboux7r.motionpoly import factorization_residual, poly_product  # noqa: E402
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
@given(st.lists(motion_polys, max_size=4))
def test_poly_product_is_the_fraction_product(factors):
    product = poly_product(factors)
    assert product == reference_product(factors)
    assert all(is_exact(v) for v in values(product))


@pytest.mark.parametrize("kind", LEADERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divmod_right_is_the_fraction_division(kind, data):
    c = data.draw(motion_polys)
    d = data.draw(divisors(kind))
    q, r = c.divmod_right(d)
    assert q * d + r == c
    assert r.degree < d.degree
    assert (q, r) == reference_divmod(c, d)
    assert all(is_exact(v) for v in values(q) + values(r))


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
    residual = factorization_residual(factors, f.target(), f.cofactor)
    diff = reference_product(factors) - reference_product([f.cofactor, f.target()])
    expected = max((abs(v) for v in values(diff)), default=0)
    assert residual == expected
    # verify prints the residual on its FAIL line with str().
    assert str(residual) == str(expected)
    assert factorization_residual(f.factors, f.target(), f.cofactor) == 0


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


@settings(max_examples=100, deadline=None)
@given(st.lists(float_polys, max_size=4), float_polys, st.lists(float_dqs, max_size=2),
       st.sampled_from([DQ_ONE, DQ_ONE.to_float()]))
def test_float_product_and_monic_division_repeat_the_reference_bit_for_bit(
    factors, c, lower, lead
):
    assert bits(poly_product(factors)) == bits(reference_product(factors))
    d = MotionPoly((*lower, lead))
    q, r = c.divmod_right(d)
    q_ref, r_ref = reference_divmod(c, d)
    assert bits(q) == bits(q_ref)
    assert bits(r) == bits(r_ref)
