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

from darboux7r import (  # noqa: E402
    DarbouxParams,
    DualQuaternion,
    MotionPoly,
    NotADisplacement,
    SingularChoice,
    ZeroPrimal,
    build_linkage,
    factor_fi,
    factor_fii,
    factor_fiii,
    simulate,
)
from darboux7r.dualquat import (  # noqa: E402
    Quaternion,
    _qmul,
    conjugate_many,
    dq_mul_many,
    ray_gap,
)
from darboux7r.linkage import mobility_many  # noqa: E402
from darboux7r.motionpoly import _coeff_array, poses_many, prefix_products  # noqa: E402
from darboux7r.svgplot import render_linkage  # noqa: E402

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


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_product_of_stacked_rows_repeats_scalar_product(n, k, data):
    # (N, k, 8) rows, the layout of poses_many's walk over k chains.
    pairs = data.draw(st.lists(st.tuples(dual_quaternions | float_dual_quaternions,
                                         dual_quaternions | float_dual_quaternions),
                               min_size=n * k, max_size=n * k))
    h = np.array([row(a) for a, _ in pairs]).reshape(n, k, 8)
    g = np.array([row(b) for _, b in pairs]).reshape(n, k, 8)
    scalar = np.array([row(a.to_float() * b.to_float()) for a, b in pairs]).reshape(n, k, 8)
    with np.errstate(all="ignore"):
        batched = dq_mul_many(h, g)
    assert np.array_equal(batched, scalar, equal_nan=True)
    numbers = ~np.isnan(scalar)
    assert np.array_equal(np.signbit(scalar[numbers]), np.signbit(batched[numbers]))


chains = st.lists(dual_quaternions.map(MotionPoly.t_minus), min_size=1, max_size=5)


@settings(max_examples=50, deadline=None)
@given(chains, chains, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
def test_chains_walked_together_repeat_each_walk_alone(a, b, ts):
    # A lower-degree prefix is padded on top, so its values keep their bits:
    # each is the scalar float evaluation of the rounded prefix product.
    assume(len(a) != len(b))
    prefixes = [prefix_products(a), prefix_products(b)]
    for chain, poses in zip(prefixes, poses_many(prefixes, ts)):
        assert poses.shape == (len(ts), len(chain), 8)
        assert np.array_equal(poses, poses_many([chain], ts)[0])
        for i, t in enumerate(ts):
            walk = [row(p.to_float().eval(t)) for p in chain]
            assert np.array_equal(poses[i], np.array(walk))


def rounded(num: int, den: int):
    """num / den and float(Fraction(num, den)) as hex text, or OverflowError, for both."""
    outcomes = []
    for divide in (lambda: num / den, lambda: float(Fraction(num, den))):
        try:
            outcomes.append(divide().hex())  # hex keeps the sign of a zero
        except OverflowError as exc:
            outcomes.append(type(exc))
    return outcomes


@st.composite
def near_overflow(draw):
    """num, den whose quotient is within 2^972 of 2^1024, where rounding starts to overflow."""
    den = draw(st.integers(1, 2**1100))
    top = draw(st.integers(2**1024 - 2**972, 2**1024 + 2**972))
    return draw(st.sampled_from((1, -1))) * (top * den + draw(st.integers(-den, den))), den


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-(2**1200), 2**1200), st.integers(1, 2**1200)) | near_overflow())
def test_int_division_rounds_as_float_of_the_fraction(pair):
    # _coeff_array rounds num[i] / den: CPython divides ints of any size with
    # one correct rounding, as float(Fraction) does, and overflows alike.
    by_ints, by_fraction = rounded(*pair)
    assert by_ints == by_fraction


big_rationals = rationals | st.builds(
    Fraction, st.integers(-(2**1200), 2**1200), st.integers(2**690, 2**1200)
)
big_dual_quaternions = st.lists(big_rationals, min_size=8, max_size=8).map(
    DualQuaternion.from_coeffs
)


@settings(max_examples=50, deadline=None)
@given(st.lists(big_dual_quaternions, min_size=1, max_size=3))
def test_coefficient_rows_are_each_fraction_rounded(coeffs):
    # A common den of Fractions above 2^1100 makes the ints far larger still.
    p = MotionPoly(coeffs)
    expected = np.array([[float(v) for v in c] for c in p.coeffs]).reshape(-1, 8)
    assert np.array_equal(_coeff_array([p])[0], expected)


@st.composite
def small_loops(draw):
    """An FI+FII or FI+FIII loop on small rational parameters."""
    a = draw(rationals.filter(bool))
    p = DarbouxParams(a, draw(rationals), draw(rationals))
    if draw(st.booleans()):
        return build_linkage(factor_fi(p), factor_fii(p))
    try:
        return build_linkage(factor_fi(p), factor_fiii(p, draw(rationals), draw(rationals)))
    except SingularChoice:
        assume(False)


@settings(max_examples=20, deadline=None)
@given(small_loops(), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4), points)
def test_float_lane_rounds_prefixes_without_forming_coefficients(loop, ts, x):
    # simulate, mobility and plot round every kept prefix product from its
    # ints.  simulate multiplies no exact polynomial; mobility and plot
    # multiply only in the loop's one axis build, P * h, then * conj(P), for
    # each joint, on the first call on a Linkage and never again.  Entries 0
    # and 1 are the constant 1 and the first factor, which hold the
    # coefficients they were built from.
    twin = build_linkage(loop.chain_a, loop.chain_b)
    build = 2 * loop.joint_count
    products = []
    mul = MotionPoly.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    def count(call) -> int:
        products.clear()
        call()
        return len(products)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MotionPoly, "__mul__", counted)
        assert count(lambda: simulate(loop, ts)) == 0
        assert count(lambda: mobility_many(loop, ts)) == build
        assert count(lambda: render_linkage(loop, ts, "xy", x[1:])) == 0
        assert count(lambda: mobility_many(loop, ts)) == 0
        assert count(lambda: render_linkage(twin, ts, "xy", x[1:])) == build
        assert count(lambda: render_linkage(twin, ts, "xy", x[1:])) == 0
    for chain in (loop.chain_a, loop.chain_b):
        assert [p for p in chain.prefixes()[2:] if "coeffs" in vars(p)] == []


def act_rows(h, x: np.ndarray) -> np.ndarray:
    """DualQuaternion.act on rows h: the point sandwich of conjugate_many."""
    y = conjugate_many(h, (x[0], 0, 0, 0, 0, -x[1], -x[2], -x[3]))
    return np.concatenate((np.broadcast_to(x[:1], y.shape[:-1] + (1,)), -y[..., 5:]), axis=-1)


@settings(max_examples=100, deadline=None)
@given(displacements(), points)
def test_act_repeats_scalar_act(h, x):
    batched = act_rows(row(h), floats(x))
    assert np.array_equal(batched, floats(h.to_float().act(tuple(float(v) for v in x))))
    assert close(batched, floats(h.act(x)))


def scalar_outcome(h: DualQuaternion, x):
    try:
        return floats(h.to_float().act(tuple(float(v) for v in x)))
    except (ZeroPrimal, NotADisplacement) as exc:
        return type(exc)


def batched_outcome(h: DualQuaternion, x):
    try:
        return act_rows(row(h), floats(x))
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
        act_rows(rows, floats(x))
    with pytest.raises(NotADisplacement):
        conjugate_many(rows, row(hs[0]))
    rows[k % len(hs)] = 0.0
    with pytest.raises(ZeroPrimal):
        act_rows(rows, floats(x))
    with pytest.raises(ZeroPrimal):
        conjugate_many(rows, row(hs[0]))


@settings(max_examples=200, deadline=None)
@given(displacements(), dual_quaternions | float_dual_quaternions)
def test_conjugation_repeats_scalar_conjugation(h, g):
    f = h.to_float()
    x = f * g.to_float() * f.tilde()
    scalar = floats(v / f.p.norm() for v in x.coeffs())
    with np.errstate(all="ignore"):
        batched = conjugate_many(row(h), row(g))
    assert np.array_equal(batched, scalar, equal_nan=True)
    numbers = ~np.isnan(scalar)
    assert np.array_equal(np.signbit(scalar[numbers]), np.signbit(batched[numbers]))
    if not g.is_float():
        exact = h * g * h.tilde()
        assert close(batched, floats(v / h.p.norm() for v in exact.coeffs()))


@settings(max_examples=100, deadline=None)
@given(st.lists(dual_quaternions, min_size=1, max_size=5), st.integers(-3, 3).filter(bool))
def test_ray_gap_is_free_of_scale_and_sign(hs, k):
    assume(not any(h.is_zero() for h in hs))
    rows = np.array([row(h) for h in hs])
    assert np.all(ray_gap(rows, k * rows) <= 1e-15)
    assert np.all(ray_gap(rows, np.zeros_like(rows)) == np.inf)
    assert ray_gap(np.zeros(8), np.zeros(8)) == 0
    assert ray_gap(np.eye(8)[0], np.eye(8)[1]) == 1
