"""Property tests: the float64 lane's helpers repeat the scalar dual quaternion lane.

Inputs are dual quaternions, points, polynomials and loops with small
random rational coefficients.  Coefficients round as float(Fraction)
does, the Horner pass that updates one accumulator in place keeps the
bits of a fresh array each step, simulate's one Horner pass over both
chains gives each link pose's scalar float values bit for bit, scalar
act refuses the rows that are no displacement, with its own errors, and
the float lane multiplies only the exact polynomials it is meant to, on
the first call.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

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
from darboux7r.dualquat import Quaternion, ray_gap  # noqa: E402
from darboux7r.linkage import mobility_many  # noqa: E402
from darboux7r.motionpoly import _coeff_array, _horner_many  # noqa: E402
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


def row(h: DualQuaternion) -> np.ndarray:
    return np.array([float(v) for v in h.coeffs()])


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


# Finite values of either sign and size, signed zeros and infinities.
horner_entries = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(allow_nan=False, allow_infinity=False)
)
horner_ts = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64, st.tuples(st.integers(1, 3), st.integers(1, 5), st.just(8)), elements=horner_entries
    ),
    st.lists(horner_ts, min_size=1, max_size=5),
)
def test_the_in_place_horner_pass_keeps_every_bit(coeffs, ts):
    # _horner_many updates one accumulator in place: the same multiplies and
    # adds in the same order as a fresh array each step, so the same bits,
    # signed zeros, infinities and NaNs (0 * inf) included.
    t = np.asarray(ts)[:, None, None]
    with np.errstate(all="ignore"):
        got = _horner_many(coeffs, ts)
        expected = np.zeros((len(ts), coeffs.shape[0], 8))
        for k in range(coeffs.shape[1] - 1, -1, -1):
            expected = expected * t + coeffs[:, k]
    assert np.array_equal(got, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(expected[numbers]))


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


@settings(max_examples=50, deadline=None)
@given(small_loops(), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
def test_chains_walked_together_repeat_each_walk_alone(loop, ts):
    # simulate walks both chains' prefixes in one Horner pass.  A lower-degree
    # prefix is padded on top, so its values keep their bits: each pose row is
    # the scalar float evaluation of the rounded prefix product.
    s = simulate(loop, ts)
    for chain, poses in ((loop.chain_a, s.poses_a), (loop.chain_b, s.poses_b)):
        assert poses.shape == (len(ts), len(chain.prefixes()), 8)
        for i, t in enumerate(ts):
            walk = [row(p.to_float().eval(t)) for p in chain.prefixes()]
            assert np.array_equal(poses[i], np.array(walk))


@settings(max_examples=20, deadline=None)
@given(small_loops(), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4), points)
def test_float_lane_rounds_prefixes_without_forming_coefficients(loop, ts, x):
    # simulate, mobility and plot round every kept prefix product from its
    # ints.  simulate multiplies no exact polynomial; mobility and plot
    # multiply in the loop's one axis build, P * h, then * conj(P), for each
    # joint, on the first call on a Linkage and never again.  plot with a
    # point checks that the coupler's motion is a motion polynomial, from
    # C * conj(C), once for that polynomial (twin shares chain A and so its
    # product), and forms that point's orbit polynomial, P * (d - eps*x),
    # then * P~, on every call.  Entries 0 and 1 are the constant 1 and the
    # first factor, which hold the coefficients they were built from.
    twin = build_linkage(loop.chain_a, loop.chain_b)
    build, check, orbit = 2 * loop.joint_count, 1, 2
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
        assert count(lambda: render_linkage(loop, ts, "xy", x[1:])) == check + orbit
        assert count(lambda: mobility_many(loop, ts)) == 0
        assert count(lambda: render_linkage(twin, ts, "xy", x[1:])) == build + orbit
        assert count(lambda: render_linkage(twin, ts, "xy", x[1:])) == orbit
    for chain in (loop.chain_a, loop.chain_b):
        assert [p for p in chain.prefixes()[2:] if "coeffs" in vars(p)] == []


def scalar_outcome(h: DualQuaternion, x):
    """n0 of h on the scalar float lane if h.act accepts it, else the error act raises."""
    f = h.to_float()
    try:
        f.act(tuple(float(v) for v in x))
    except (ZeroPrimal, NotADisplacement) as exc:
        return type(exc)
    return f.p.norm()


@settings(max_examples=150, deadline=None)
@given(st.one_of(dual_quaternions, displacements()), points)
def test_act_fails_like_scalar_act(h, x):
    # act on floats refuses a row with the error of the first precondition it
    # fails and returns the image of the others; a displacement (p . d = 0
    # exactly) passes the real-norm test after rounding.
    f = h.to_float()
    if not f.invertible():
        assert scalar_outcome(h, x) is ZeroPrimal
    elif not f.has_real_norm():
        assert scalar_outcome(h, x) is NotADisplacement
        assert h.p.dot(h.d) != 0
    else:
        assert scalar_outcome(h, x) == f.p.norm()


@settings(max_examples=100, deadline=None)
@given(quaternions, points)
def test_act_zero_primal_raises(d, x):
    h = DualQuaternion(Quaternion(0, 0, 0, 0), d)
    assert scalar_outcome(h, x) is ZeroPrimal


@settings(max_examples=100, deadline=None)
@given(quaternions.filter(lambda q: not q.is_zero()), points)
def test_act_non_real_norm_raises(p, x):
    h = DualQuaternion(p, p)  # norm p.p + eps 2 p.p
    assert scalar_outcome(h, x) is NotADisplacement


@settings(max_examples=30, deadline=None)
@given(st.lists(displacements(), min_size=2, max_size=6), st.integers(0, 5), points)
def test_one_bad_sample_fails_the_batch(hs, k, x):
    # act takes one row at a time: among displacements, which it accepts,
    # a NaN row fails its real-norm test and a zero row its primal test.
    # (A loop's float rows are displacements exactly and are not tested.)
    assert [scalar_outcome(h, x) for h in hs] == [h.to_float().p.norm() for h in hs]
    bad = hs[k % len(hs)].to_float()
    assert scalar_outcome(DualQuaternion(bad.p, bad.d.scale(np.nan)), x) is NotADisplacement
    assert scalar_outcome(DualQuaternion(bad.p.scale(0.0), bad.d), x) is ZeroPrimal


@settings(max_examples=100, deadline=None)
@given(st.lists(dual_quaternions, min_size=1, max_size=5), st.integers(-3, 3).filter(bool))
def test_ray_gap_is_free_of_scale_and_sign(hs, k):
    assume(not any(h.is_zero() for h in hs))
    rows = np.array([row(h) for h in hs])
    assert np.all(ray_gap(rows, k * rows) <= 1e-15)
    assert np.all(ray_gap(rows, np.zeros_like(rows)) == np.inf)
    assert ray_gap(np.zeros(8), np.zeros(8)) == 0
    assert ray_gap(np.eye(8)[0], np.eye(8)[1]) == 1
