"""Darboux motion construction and its four factorizations."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from darboux7r import (
    AxisLine,
    DarbouxParams,
    DegenerateParams,
    DualQuaternion,
    Factorization,
    MotionPoly,
    NotADivisor,
    NotRotational,
    SingularChoice,
    build_linkage,
    darboux_c,
    derive_fi,
    derive_fiii,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    prefix_products,
    projectively_equal,
    t_squared_plus_one,
    t_grid,
    trace_fit,
)
from darboux7r import cli, conics, darboux, linkage, motionpoly, serialize
from darboux7r.conics import ConicClass
from darboux7r.dualquat import Q_K, Q_ZERO, Quaternion


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


K_AXIS = AxisLine((0, 0, 1), (0, 0, 0))


def c0(p: DarbouxParams) -> MotionPoly:
    """C0 = (k + c eps) C, the frame whose action gives the parametric equations."""
    return MotionPoly.constant(DualQuaternion(Q_K, Quaternion(p.c, 0, 0, 0))) * darboux_c(p)


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
    C0 = c0(DarbouxParams(1, 0, 0))
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
        assert c0(p).leading == dq(h3=1, h4=p.c)


def test_c_is_motion_polynomial_and_norm():
    rng = random.Random(22)
    cube = MotionPoly.real((1, 0, 3, 0, 3, 0, 1))  # (t^2 + 1)^3
    for _ in range(50):
        p = random_params(rng)
        C = darboux_c(p)
        assert C.is_motion_polynomial()
        assert c0(p).is_motion_polynomial()
        assert C.norm_poly() == cube


def test_primal_part_factors_as_advertised():
    rng = random.Random(23)
    for _ in range(20):
        C = darboux_c(random_params(rng))
        primal = MotionPoly(tuple(DualQuaternion(c.p, Q_ZERO) for c in C.coeffs))
        expect = t_squared_plus_one() * MotionPoly.t_minus(dq(h3=1))
        assert primal == expect


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


def test_rotation_check_returns_each_root_axis():
    rng = random.Random(5)
    p, x, y = random_fiii_args(rng)
    for f in (factor_fi(p), factor_fii(p), factor_fiii(p, x, y), factor_fiv(), fiv_companion_fi()):
        assert f.check_rotation_chain() == tuple(root.axis() for root in f.roots())


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
    cubic = prefix_products(
        (MotionPoly.t_minus(dq(h5=1, h6=1, h7=1)), t_squared_plus_one())
    )[-1]
    monkeypatch.setattr(darboux, "darboux_c", lambda p: cubic)
    with pytest.raises(ValueError, match="not affine"):
        derive_fi(DarbouxParams(1, 2, 0))


def test_circular_translation_congruent_offsets():
    # a translation shifts every point by the same vector: each orbit is a
    # circle, and its center minus the point is one common offset
    p = DarbouxParams(1, 2, 0)
    quotient, rem = darboux_c(p).divmod_right(factor_fi(p).factors[2])
    assert rem.is_zero()
    offsets = set()
    for point in [(0, 0, 0), (1, -2, 3), (Fraction(1, 2), Fraction(1, 4), -1)]:
        rep = trace_fit(quotient, point, t_grid(20))
        assert rep.conic_class is ConicClass.CIRCLE
        offsets.add(tuple(m - x for m, x in zip(rep.mean, point)))
    assert len(offsets) == 1


def test_fi_product_evaluates_to_c_pointwise():
    # product evaluated at rational t agrees with C(t) projectively
    rng = random.Random(34)
    for _ in range(20):
        p = random_params(rng)
        f = factor_fi(p)
        t = rational(rng)
        assert projectively_equal(f.product().eval(t), darboux_c(p).eval(t))


# Rounding of the float closed forms: each coefficient within this relative
# tolerance of the float value of the exact one (a few ulps of their size).
FLOAT_CLOSED_FORM_RTOL = 1e-13


def test_float_closed_forms_round_the_exact_factors():
    rng = random.Random(36)
    for _ in range(20):
        p = random_params(rng)
        pf = DarbouxParams(float(p.a), float(p.b), float(p.c))
        for build in (factor_fi, factor_fii):
            exact, approx = build(p).factors, build(pf).factors
            assert len(exact) == len(approx)
            for fe, fa in zip(exact, approx):
                want = [float(v) for h in fe.coeffs for v in h]
                got = [v for h in fa.coeffs for v in h]
                size = max(map(abs, want))
                assert all(type(v) in (int, float) for v in got)
                assert all(abs(g - w) <= FLOAT_CLOSED_FORM_RTOL * size for g, w in zip(got, want))


def test_symbolic_fi_is_its_printed_formula():
    sympy = pytest.importorskip("sympy")
    a, b, c = sympy.symbols("a b c")
    q1, q2, q3 = factor_fi(DarbouxParams(a, b, c)).factors
    n = "(a**2 + b**2 + c**2)"
    assert [str(v) for v in q1.coeff(0)] == [
        "0", f"2*a*c/{n}", f"2*a*b/{n}", f"(a**2 - b**2 - c**2)/{n}",
        "0", "-b*c/a", "(a**2 - b**2 + c**2)/(2*a)", "-b",
    ]
    assert [str(v) for v in q2.coeff(0)] == [
        "0", f"-2*a*c/{n}", f"-2*a*b/{n}", f"-(a**2 - b**2 - c**2)/{n}", "0", "0", "0", "0",
    ]
    assert [str(v) for v in q3.coeff(0)] == [
        "0", "0", "0", "-1", "0", "b*c/a", "(a**2 + b**2 - c**2)/(2*a)", "0",
    ]
    assert q1.leading == q2.leading == q3.leading == DualQuaternion.from_scalar(1)


def test_fiii_is_the_same_for_int_and_fraction_parameters():
    # Int parameters share the common denominator 1 with Fractions of
    # denominator 1; both give the same factors, printed the same.
    for a, b, c, x, y in [(1, 2, 0, 0, 0), (3, -1, 2, 1, -2), (2, 5, -3, 4, 1), (-1, 0, 7, 0, 3)]:
        ints = factor_fiii(DarbouxParams(a, b, c), x, y)
        fracs = factor_fiii(DarbouxParams(*map(Fraction, (a, b, c))), Fraction(x), Fraction(y))
        assert ints.factors == fracs.factors
        assert [str(v) for f in ints.factors for h in f.coeffs for v in h] == [
            str(v) for f in fracs.factors for h in f.coeffs for v in h
        ]


def quotient_fiii(f) -> MotionPoly:
    """Q'7 by exact right division: (t^2+1) C over Q'6 Q'5 Q'4^2."""
    pc = prefix_products((darboux_c(f.params), t_squared_plus_one()))[-1]
    return darboux._exact_quotient(pc, prefix_products(f.factors[1:])[-1])


def test_fiii_sum_of_roots_factor_is_the_division_quotient():
    # factor_fiii forms Q'7 = t - h7 with h7 = -c2 - h6 - h5 - 2 h4; division
    # by the other four factors must give the same polynomial.
    rng = random.Random(31)
    cases = [factor_fiii(*random_fiii_args(rng)) for _ in range(200)] + [factor_fiv()]
    for f in cases:
        assert f.factors[0] == quotient_fiii(f)


def test_fiii_refuses_a_cubic_its_factors_do_not_multiply_to(monkeypatch):
    # The sum of the roots reads only C's t^2 coefficient; a C changed in its
    # constant term keeps that coefficient, so only the identity check sees it.
    p = DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5))
    bent = darboux_c(p) + MotionPoly.constant(dq(h5=1))
    assert bent.coeff(2) == darboux_c(p).coeff(2)
    factor_fiii(p, Fraction(1, 3), Fraction(-2, 7))
    monkeypatch.setattr(darboux, "darboux_c", lambda params: bent)
    with pytest.raises(NotADivisor):
        factor_fiii(p, Fraction(1, 3), Fraction(-2, 7))


def test_one_loop_and_its_verification_form_each_product_once(monkeypatch):
    # factor_fiii's identity check, build_linkage's closure check and verify's
    # residual all read each factorization's kept product and residual.
    formed, compared = [], []
    prefix_products, residual = motionpoly.prefix_products, motionpoly.residual

    def counting(factors):
        formed.append(tuple(factors))
        return prefix_products(factors)

    def comparing(p, c):
        compared.append((p, c))
        return residual(p, c)

    for module in (motionpoly, darboux, linkage, conics, serialize, cli):
        if hasattr(module, "prefix_products"):
            monkeypatch.setattr(module, "prefix_products", counting)
        if hasattr(module, "residual"):
            monkeypatch.setattr(module, "residual", comparing)
    p = DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5))
    fiii = factor_fiii(p, Fraction(1, 3), Fraction(-2, 7))
    fi = factor_fi(p)
    loop = build_linkage(fi, fiii)
    assert loop.product_a is fi.product()
    for f in (fi, fiii):
        assert cli._check(f) == (None, 0)
        assert f.product() == f.cofactor * darboux_c(p)  # reads the kept product
    c = darboux_c(p)
    assert Counter(formed) == {fiii.factors: 1, fi.factors: 1}
    assert compared == [(fiii.product(), t_squared_plus_one() * c), (fi.product(), c)]


def test_verify_reports_a_product_that_differs_from_cofactor_times_c():
    f = factor_fiii(DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5)), Fraction(1, 3), 0)
    failure, residual = cli._check(replace(f, params=DarbouxParams(Fraction(3, 2), -1, 0)))
    assert failure == "FIII product differs from cofactor * C"
    assert residual != 0


def test_fiv_loop_forms_each_product_once(monkeypatch):
    # factor_fiv keeps the product its identity check made, so the loop's
    # closure check multiplies neither chain again.
    formed, compared = [], Counter()
    prefix_products, residual = motionpoly.prefix_products, motionpoly.residual

    def counting(factors):
        formed.append(tuple(factors))
        return prefix_products(factors)

    def comparing(p, c):
        compared[p, c] += 1
        return residual(p, c)

    monkeypatch.setattr(darboux, "prefix_products", counting)
    monkeypatch.setattr(darboux, "residual", comparing)
    fi, fiv = fiv_companion_fi(), factor_fiv()
    build_linkage(fi, fiv)
    assert Counter(formed) == {fiv.factors: 1, fi.factors: 1}
    assert compared == {(fiv.product(), t_squared_plus_one() * darboux_c(fiv.params)): 1}


def test_kept_values_are_not_fields_and_replace_forms_them_anew():
    p, x, y = DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5)), Fraction(1, 3), Fraction(-2, 7)
    f = factor_fiii(p, x, y)
    f.check_rotation_chain()
    names = {field.name for field in fields(Factorization)}
    kept = set(vars(f)) - names
    assert {"_product", "_target", "_residual", "_roots"} <= kept
    # ==, hash and replace see the fields only.
    g = replace(f)
    assert set(vars(g)) == names
    assert g == f and hash(g) == hash(f)
    assert (g.product(), g.target(), g.residual(), g.roots()) == (
        f.product(), f.target(), f.residual(), f.roots()
    )
    q = DarbouxParams(Fraction(3, 2), -1, 0)
    moved = replace(f, params=q)
    assert moved.target() == darboux_c(q) != f.target()
    expected = motionpoly.residual(f.product(), moved.cofactor * darboux_c(q))
    assert moved.residual() == expected != 0 == f.residual()
    other = factor_fiv()
    swapped = replace(f, factors=other.factors)
    assert swapped.product() == other.product() != f.product()
    assert swapped.roots() == other.roots()
    assert swapped.residual() != 0


def test_one_c_and_one_residual_per_fiii_and_per_verify(monkeypatch, capsys):
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in ("darboux_c", "residual"):
        monkeypatch.setattr(darboux, name, counting(name, getattr(darboux, name)))
    factor_fiii(DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5)), Fraction(1, 3), Fraction(-2, 7))
    assert calls == {"darboux_c": 1, "residual": 1}
    calls.clear()
    flags = ["--a", "3/2", "--b=-1", "--c", "2/5", "--x", "1/3", "--y=-2/7"]
    assert cli.main(["verify", "--type", "FIII", *flags]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == {"darboux_c": 1, "residual": 1}


def test_a_loop_negates_each_root_once(monkeypatch):
    p = DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5))
    fi, fiii = factor_fi(p), factor_fiii(p, Fraction(1, 3), Fraction(-2, 7))
    negated = []
    neg = DualQuaternion.__neg__
    monkeypatch.setattr(DualQuaternion, "__neg__", lambda h: negated.append(h) or neg(h))
    loop = build_linkage(fi, fiii)
    # Each factor's root is negated once, in the rotation test's pass.
    assert len(negated) == len(fi.factors) + len(fiii.factors)
    assert [j.root for j in loop.joints] == [fi.roots()[k] for k in range(3)] + [
        fiii.roots()[k] for k in (3, 2, 1, 0)
    ]
    negated.clear()
    linkage._chain_joints(fiii, "B")
    assert negated == []


PARAMS_OF_MESSAGES = DarbouxParams(Fraction(3, 2), -1, Fraction(2, 5))


def chains_with_faults():
    """(factorization, message): each with the first fault check_rotation_chain
    finds, and where it can, also faults that later checks would report."""
    fi, fii = factor_fi(PARAMS_OF_MESSAGES), factor_fii(PARAMS_OF_MESSAGES)
    fiii = factor_fiii(PARAMS_OF_MESSAGES, Fraction(1, 3), Fraction(-2, 7))
    general = MotionPoly.t_minus(dq(h3=1, h4=1))  # a nonzero dual scalar part
    q1, q2, _ = fi.factors
    return [
        (replace(fi, factors=(q1, darboux_c(fi.params), general), label="F9", free_xy=(1, 2)),
         "factor 1 is not monic linear"),
        (replace(fi, factors=(q1, general, q2), label="F9", identical_adjacent=((0, 2),)),
         "factor 1 root is not a rotation quaternion"),
        (replace(fii, identical_adjacent=((0, 1),), label="F9"),
         "identical_adjacent pair (0, 1) does not name two equal adjacent factors"),
        (replace(fi, label="F9", free_xy=(1, 2)), "label is not one of FI, FII, FIII, FIV"),
        (replace(fii, label="FI", free_xy=(1, 2)),
         "has 5 factors with identical_adjacent [(1, 2)]; the label needs 3 factors with []"),
        (replace(fi, free_xy=(1, 2)), "has free_xy; the label needs null"),
        (replace(fiii, free_xy=None), "needs free_xy, a pair x, y"),
        (replace(fiii, free_xy=(5, 7), label="FIV"),
         "doubled last factor is not t - k - x eps i - y eps j at free_xy (5, 7)"),
        (replace(fiii, label="FIV"), "is the instance (a, b, c, x, y) = (1, 2, 0, 0, 0) only"),
    ]


def test_every_chain_fault_has_its_message_in_order():
    for f, message in chains_with_faults():
        with pytest.raises(NotRotational) as exc:
            f.check_rotation_chain()
        assert str(exc.value) == message
