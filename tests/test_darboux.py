"""Darboux motion construction and its four factorizations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux7r import (
    AxisLine,
    DarbouxParams,
    DegenerateParams,
    DualQuaternion,
    MotionPoly,
    SingularChoice,
    circular_translation_check,
    darboux_c,
    darboux_c0,
    darboux_point_path,
    derive_fi,
    derive_fiii,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    frame_change,
    poly_product,
    projectively_equal,
    t_squared_plus_one,
    trace_fit,
)
from darboux7r import darboux
from darboux7r.conics import ConicClass
from darboux7r.dualquat import Q_ZERO


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


K_AXIS = AxisLine((0, 0, 1), (0, 0, 0))


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_params(rng: random.Random) -> DarbouxParams:
    a = rational(rng)
    while a == 0:
        a = rational(rng)
    return DarbouxParams(a, rational(rng), rational(rng))


def random_fiii_args(rng: random.Random):
    while True:
        p = random_params(rng)
        x, y = rational(rng), rational(rng)
        T = p.a + 2 * y
        if T * T + 4 * x * x != 0 and p.b * p.b + p.c * p.c + T * T + 4 * x * x != 0:
            return p, x, y


def test_params_reject_vertical_case():
    with pytest.raises(DegenerateParams):
        DarbouxParams(0, 1, 1)


def test_darboux_c_printed_instance():
    C = darboux_c(DarbouxParams(1, 2, 0))
    expect = MotionPoly(
        (
            dq(h3=-1),
            dq(h0=1, h4=-2, h5=-1),
            dq(h3=-1, h6=1, h7=-2),
            dq(h0=1),
        )
    )
    assert C == expect


def test_darboux_c0_printed_instance():
    C0 = darboux_c0(DarbouxParams(1, 0, 0))
    expect = MotionPoly(
        (
            dq(h0=1),
            dq(h3=1, h6=-1),
            dq(h0=1, h5=-1),
            dq(h3=1),
        )
    )
    assert C0 == expect


def test_c0_leading_coefficient():
    rng = random.Random(20)
    for _ in range(20):
        p = random_params(rng)
        assert darboux_c0(p).leading == dq(h3=1, h4=p.c)


def test_c0_is_frame_change_times_c():
    rng = random.Random(21)
    for _ in range(50):
        p = random_params(rng)
        assert MotionPoly.constant(frame_change(p)) * darboux_c(p) == darboux_c0(p)


def test_c_is_motion_polynomial_and_norm():
    rng = random.Random(22)
    cube = MotionPoly.real((1, 0, 3, 0, 3, 0, 1))  # (t^2 + 1)^3
    for _ in range(50):
        p = random_params(rng)
        C = darboux_c(p)
        assert C.is_motion_polynomial()
        assert darboux_c0(p).is_motion_polynomial()
        assert C.norm_poly() == cube


def test_primal_part_factors_as_advertised():
    rng = random.Random(23)
    for _ in range(20):
        C = darboux_c(random_params(rng))
        primal = MotionPoly(tuple(DualQuaternion(c.p, Q_ZERO) for c in C.coeffs))
        expect = t_squared_plus_one() * MotionPoly.t_minus(dq(h3=1))
        assert primal == expect


def test_point_path_examples():
    p = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))
    assert darboux_point_path(p, (0.25, -2.0, 1.5), 0.0) == (0.25, -2.0, 1.5)
    a, b, c = float(p.a), float(p.b), float(p.c)
    X, Y, Z = darboux_point_path(p, (0.0, 0.0, 0.0), math.pi / 2)
    assert abs(X) < 1e-15 and abs(Y - a) < 1e-15 and abs(Z - (b + c)) < 1e-15


def test_action_matches_parametric_equations():
    # the fixed frame differs by the constant left factor k + c eps
    rng = random.Random(24)
    for _ in range(10):
        p = random_params(rng)
        C0 = darboux_c0(p).to_float()
        point = tuple(rng.uniform(-3, 3) for _ in range(3))
        for phi in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            t = math.tan(phi / 2)
            got = C0.eval(t).act((1.0,) + point)
            want = darboux_point_path(p, point, phi)
            for g, w in zip(got[1:], want):
                assert abs(g / got[0] - w) < 1e-9


def test_fi_product_is_c():
    rng = random.Random(25)
    for _ in range(100):
        p = random_params(rng)
        f = factor_fi(p)
        assert f.cofactor == MotionPoly.real((1,))
        assert f.product() == darboux_c(p)


def test_fii_product_is_p_times_c():
    rng = random.Random(26)
    P = t_squared_plus_one()
    for _ in range(100):
        p = random_params(rng)
        f = factor_fii(p)
        assert f.cofactor == t_squared_plus_one()
        assert f.product() == P * darboux_c(p)
        assert f.factors[1] == f.factors[2]
        assert f.identical_adjacent == ((1, 2),)


def test_fiii_product_is_p_times_c():
    rng = random.Random(27)
    P = t_squared_plus_one()
    for _ in range(100):
        p, x, y = random_fiii_args(rng)
        f = factor_fiii(p, x, y)
        assert f.product() == P * darboux_c(p)
        assert f.factors[3] == f.factors[4]
        assert f.identical_adjacent == ((3, 4),)


def test_fiii_singular_choices_rejected():
    # T = x = 0 kills the first denominator
    with pytest.raises(SingularChoice):
        factor_fiii(DarbouxParams(1, 2, 3), 0, Fraction(-1, 2))


def test_fi_factor_shapes():
    rng = random.Random(28)
    for _ in range(20):
        p = random_params(rng)
        f = factor_fi(p)
        assert len(f.factors) == 3
        for q in f.factors:
            assert q.is_monic_linear()
            assert q.is_motion_polynomial()
        r1, r2, r3 = f.roots()
        assert r1.axis().is_parallel_to(r2.axis())
        assert r3.axis().is_parallel_to(K_AXIS)
        # the last factor's root is a zero of C under right evaluation
        assert darboux_c(p).eval_right(r3) == dq()


def test_fii_axis_groups():
    rng = random.Random(29)
    i_axis = AxisLine((1, 0, 0), (0, 0, 0))
    for _ in range(20):
        p = random_params(rng)
        q7, q6a, q6b, q5, q4 = factor_fii(p).roots()
        for r in (q7, q6a, q6b, q5):
            assert r.axis().is_parallel_to(i_axis)
        assert q4.axis().is_parallel_to(K_AXIS)


def test_fii_collapsed_instance():
    f = factor_fii(DarbouxParams(1, 0, 0))
    expect = MotionPoly.t_minus(dq(h1=-1, h6=-Fraction(1, 2)))
    assert f.factors[0] == expect
    assert f.factors[3] == expect


def test_fii_left_chain_is_p_times_c1():
    rng = random.Random(30)
    P = t_squared_plus_one()
    for _ in range(20):
        p = random_params(rng)
        f = factor_fii(p)
        C1, rem = darboux_c(p).divmod_right(MotionPoly.t_minus(dq(h3=1)))
        assert rem.degree < 0
        q7, q6a, q6b, q5, _ = f.factors
        assert q7 * q6a * q6b * q5 == P * C1


def test_fiii_axis_groups():
    rng = random.Random(31)
    for _ in range(20):
        p, x, y = random_fiii_args(rng)
        q7, q6, q5, q4a, q4b = factor_fiii(p, x, y).roots()
        assert q4a.axis().is_parallel_to(K_AXIS)
        assert q5.axis().is_parallel_to(K_AXIS)
        assert q7.axis().is_parallel_to(q6.axis())


def test_fiv_reproduces_both_special_cases():
    fiv = factor_fiv()
    assert fiv.factors == factor_fiii(DarbouxParams(1, 2, 0), 0, 0).factors
    fi = fiv_companion_fi()
    assert fi.factors == factor_fi(DarbouxParams(1, 2, 0)).factors


def test_fiv_printed_values():
    q1, q2, q3 = fiv_companion_fi().factors
    q7, q6, q5, q4, q4b = factor_fiv().factors
    f45, f35, f32, f52 = Fraction(4, 5), Fraction(3, 5), Fraction(3, 2), Fraction(5, 2)
    assert q1 == MotionPoly.t_minus(dq(h2=-f45, h3=f35, h6=f32, h7=2))
    assert q2 == MotionPoly.t_minus(dq(h2=f45, h3=-f35))
    assert q3 == MotionPoly.t_minus(dq(h3=1, h6=-f52))
    assert q4 == q4b == MotionPoly.t_minus(dq(h3=1))
    assert q5 == MotionPoly.t_minus(dq(h3=-1, h6=-f52))
    assert q6 == MotionPoly.t_minus(dq(h2=-f45, h3=f35))
    assert q7 == MotionPoly.t_minus(dq(h2=f45, h3=-f35, h6=f32, h7=2))


def test_derived_factorizations_match_transcribed():
    rng = random.Random(32)
    for _ in range(20):
        p = random_params(rng)
        assert derive_fi(p).factors == factor_fi(p).factors
    for _ in range(20):
        p, x, y = random_fiii_args(rng)
        assert derive_fiii(p, x, y).factors == factor_fiii(p, x, y).factors


def test_derivation_refuses_conditions_that_are_not_affine(monkeypatch):
    # For C = (t - eps(i + j + k))(t^2 + 1) every k + eps(s i + u j) is a right
    # zero, and |d1|^2 - |d0|^2 of the quotient has s^2 and u^2 terms but no
    # s u term; the quotient at the solution of the probed system is not
    # circular, which the check on that quotient must report.
    cubic = poly_product(
        (MotionPoly.t_minus(dq(h5=1, h6=1, h7=1)), t_squared_plus_one())
    )
    monkeypatch.setattr(darboux, "darboux_c", lambda p: cubic)
    with pytest.raises(ValueError, match="not affine"):
        derive_fi(DarbouxParams(1, 2, 0))


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)


@settings(max_examples=100, deadline=None)
@given(rationals.filter(lambda v: v != 0), rationals, rationals)
def test_circular_translation_check(a, b, c):
    rep = circular_translation_check(DarbouxParams(a, b, c))
    assert rep.quotient_primal_ok
    assert rep.circularity == (0, 0)
    assert rep.perturbed_circularity != (0, 0)


def test_circular_translation_congruent_offsets():
    # a translation shifts every point by the same vector, so the fitted
    # circle centers are the sampled points plus one common offset
    p = DarbouxParams(1, 2, 0)
    f = factor_fi(p)
    q3 = f.factors[2]
    quotient, rem = darboux_c(p).divmod_right(q3)
    assert rem.degree < 0
    Q = quotient.to_float()
    ts = [math.tan(phi / 2) for phi in [(-0.95 + 0.1 * i) * math.pi for i in range(20)]]
    offsets = []
    for point in [(0.0, 0.0, 0.0), (1.0, -2.0, 3.0), (0.5, 0.25, -1.0)]:
        orbit = []
        for t in ts:
            y = Q.eval(t).act((1.0,) + point)
            orbit.append((y[1] / y[0], y[2] / y[0], y[3] / y[0]))
        rep = trace_fit(orbit)
        assert rep.conic_class is ConicClass.CIRCLE
        pl = rep.plane
        cu, cv = rep.conic.center
        center = tuple(
            pl.centroid[k] + cu * pl.basis_u[k] + cv * pl.basis_v[k] for k in range(3)
        )
        offsets.append(tuple(center[k] - point[k] for k in range(3)))
    for off in offsets[1:]:
        assert all(abs(off[k] - offsets[0][k]) < 1e-9 for k in range(3))


def test_fi_product_evaluates_to_c_pointwise():
    # product evaluated at rational t agrees with C(t) projectively
    rng = random.Random(34)
    for _ in range(20):
        p = random_params(rng)
        f = factor_fi(p)
        t = rational(rng)
        assert projectively_equal(f.product().eval(t), darboux_c(p).eval(t))
