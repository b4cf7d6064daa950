"""Property tests: the float64 array kernel repeats the scalar dual quaternion lane.

Inputs are dual quaternions and points with small random rational
coefficients.  The kernel must give the scalar float lane's values bit
for bit, stay within 1e-12 of the exact values, and raise the scalar
lane's errors.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from darboux7r import DualQuaternion, NotADisplacement, ZeroPrimal  # noqa: E402
from darboux7r.dualquat import (  # noqa: E402
    Quaternion,
    _qmul,
    act_many,
    conjugate_many,
    dq_mul_many,
    ray_gap,
)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
dual_quaternions = st.builds(DualQuaternion, quaternions, quaternions)
points = st.tuples(st.just(Fraction(1)), rationals, rationals, rationals)


@st.composite
def displacements(draw) -> DualQuaternion:
    """p + eps*d with d = v*p / 2 for a pure vector v, so p . d = 0 exactly."""
    p = draw(quaternions.filter(lambda q: not q.is_zero()))
    v = Quaternion(0, draw(rationals), draw(rationals), draw(rationals))
    return DualQuaternion(p, (v * p).scale(Fraction(1, 2)))


special_floats = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.floats()
float_quaternions = st.builds(Quaternion, *[special_floats] * 4)
float_dual_quaternions = st.builds(DualQuaternion, float_quaternions, float_quaternions)
# Rows that may or may not be displacements: zero primal parts, non-real
# norms, and float rows with signed zeros, infinities and NaNs among them.
any_rows = (
    displacements()
    | dual_quaternions
    | st.builds(DualQuaternion, st.just(Quaternion(0, 0, 0, 0)), quaternions)
    | float_dual_quaternions
)


def row(h: DualQuaternion) -> np.ndarray:
    return np.array([float(v) for v in h.coeffs()])


def floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def close(batched: np.ndarray, exact: np.ndarray) -> bool:
    return bool(np.all(np.abs(batched - exact) <= 1e-12 * max(1.0, np.abs(exact).max())))


@settings(max_examples=100, deadline=None)
@given(dual_quaternions, dual_quaternions)
def test_product_repeats_scalar_product(a, b):
    batched = dq_mul_many(row(a), row(b))
    assert np.array_equal(batched, row(a.to_float() * b.to_float()))
    assert close(batched, row(a * b))


@settings(max_examples=300, deadline=None)
@given(float_quaternions, float_quaternions)
def test_float_quaternion_product_is_the_kernel_product_bit_for_bit(a, b):
    # Float zeros are never skipped: signed zeros and inf * 0 = nan must survive.
    q = a * b
    assert all(isinstance(v, float) for v in (q.w, q.x, q.y, q.z))
    scalar = np.array([q.w, q.x, q.y, q.z])
    with np.errstate(all="ignore"):
        batched = _qmul(np.array([a.w, a.x, a.y, a.z]), np.array([b.w, b.x, b.y, b.z]))
    assert np.array_equal(scalar, batched, equal_nan=True)
    # IEEE 754 leaves the sign of a NaN open, and CPython's float add returns
    # either NaN operand, so only the signs of numbers (zeros above all) compare.
    numbers = ~np.isnan(scalar)
    assert np.array_equal(np.signbit(scalar[numbers]), np.signbit(batched[numbers]))


@settings(max_examples=300, deadline=None)
@given(float_dual_quaternions, float_dual_quaternions)
def test_float_dual_quaternion_product_is_the_kernel_product_bit_for_bit(a, b):
    # The scalar product and dq_mul_many share _qmul's term order, so signed
    # zeros, infinities and NaNs come out alike.
    scalar = row(a * b)
    with np.errstate(all="ignore"):
        batched = dq_mul_many(row(a), row(b))
    assert np.array_equal(scalar, batched, equal_nan=True)
    numbers = ~np.isnan(scalar)
    assert np.array_equal(np.signbit(scalar[numbers]), np.signbit(batched[numbers]))


@settings(max_examples=30, deadline=None)
@given(st.lists(dual_quaternions, min_size=1, max_size=4),
       st.lists(dual_quaternions, min_size=1, max_size=4))
def test_product_broadcasts_over_leading_axes(lefts, rights):
    left = np.array([row(a) for a in lefts])[:, None]
    table = dq_mul_many(left, np.array([row(b) for b in rights]))
    assert table.shape == (len(lefts), len(rights), 8)
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            assert np.array_equal(table[i, j], row(a.to_float() * b.to_float()))


@settings(max_examples=100, deadline=None)
@given(displacements(), points)
def test_act_repeats_scalar_act(h, x):
    batched = act_many(row(h), floats(x))
    assert np.array_equal(batched, floats(h.to_float().act(tuple(float(v) for v in x))))
    assert close(batched, floats(h.act(x)))


def scalar_outcome(h: DualQuaternion, x):
    try:
        return floats(h.to_float().act(tuple(float(v) for v in x)))
    except (ZeroPrimal, NotADisplacement) as exc:
        return type(exc)


def batched_outcome(h: DualQuaternion, x):
    try:
        return act_many(row(h), floats(x))
    except (ZeroPrimal, NotADisplacement) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(dual_quaternions, points)
def test_act_fails_like_scalar_act(h, x):
    scalar, batched = scalar_outcome(h, x), batched_outcome(h, x)
    if isinstance(scalar, type):
        assert batched is scalar
    else:
        assert np.array_equal(batched, scalar)


@settings(max_examples=100, deadline=None)
@given(quaternions, points)
def test_act_zero_primal_raises(d, x):
    h = DualQuaternion(Quaternion(0, 0, 0, 0), d)
    assert scalar_outcome(h, x) is ZeroPrimal
    assert batched_outcome(h, x) is ZeroPrimal


@settings(max_examples=100, deadline=None)
@given(quaternions.filter(lambda q: not q.is_zero()), points)
def test_act_non_real_norm_raises(p, x):
    h = DualQuaternion(p, p)  # norm p.p + eps 2 p.p
    assert scalar_outcome(h, x) is NotADisplacement
    assert batched_outcome(h, x) is NotADisplacement


@settings(max_examples=30, deadline=None)
@given(st.lists(displacements(), min_size=2, max_size=6), st.integers(0, 5), points)
def test_one_bad_sample_fails_the_batch(hs, k, x):
    rows = np.array([row(h) for h in hs])
    rows[k % len(hs)] = np.nan
    with pytest.raises(NotADisplacement):
        act_many(rows, floats(x))
    with pytest.raises(NotADisplacement):
        conjugate_many(rows, row(hs[0]))
    rows[k % len(hs)] = 0.0
    with pytest.raises(ZeroPrimal):
        act_many(rows, floats(x))
    with pytest.raises(ZeroPrimal):
        conjugate_many(rows, row(hs[0]))


@settings(max_examples=200, deadline=None)
@given(displacements(), dual_quaternions | float_dual_quaternions)
def test_conjugation_repeats_scalar_conjugation(h, g):
    f = h.to_float()
    x = f * g.to_float() * f.conj()
    scalar = floats(v / f.p.norm() for v in x.coeffs())
    with np.errstate(all="ignore"):
        batched = conjugate_many(row(h), row(g))
    assert np.array_equal(batched, scalar, equal_nan=True)
    numbers = ~np.isnan(scalar)
    assert np.array_equal(np.signbit(scalar[numbers]), np.signbit(batched[numbers]))
    if not g.is_float():
        exact = h * g * h.conj()
        assert close(batched, floats(v / h.p.norm() for v in exact.coeffs()))


def error_of(kernel, *args):
    try:
        with np.errstate(all="ignore"):
            kernel(*args)
    except (ZeroPrimal, NotADisplacement) as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(any_rows, min_size=1, max_size=4), dual_quaternions)
def test_conjugation_fails_like_act(hs, g):
    rows = np.array([row(h) for h in hs])
    assert error_of(conjugate_many, rows, row(g)) is error_of(act_many, rows, floats((1, 0, 0, 0)))


@settings(max_examples=100, deadline=None)
@given(st.lists(dual_quaternions, min_size=1, max_size=5), st.integers(-3, 3).filter(bool))
def test_ray_gap_is_free_of_scale_and_sign(hs, k):
    assume(not any(h.is_zero() for h in hs))
    rows = np.array([row(h) for h in hs])
    assert np.all(ray_gap(rows, k * rows) <= 1e-15)
    assert np.all(ray_gap(rows, np.zeros_like(rows)) == np.inf)
    assert ray_gap(np.zeros(8), np.zeros(8)) == 0
    assert ray_gap(np.eye(8)[0], np.eye(8)[1]) == 1
