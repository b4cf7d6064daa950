"""Closed 7R linkages: closure, axes, angles, mobility, substructure."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darboux7r import (
    DarbouxParams,
    DualQuaternion,
    MotionPoly,
    SingularChoice,
    build_linkage,
    closes_exactly,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    joint_angle,
    mobility_at,
    parallel_groups,
    simulate,
    substructure_report,
    t_grid,
    trace_point,
    transform_axis,
)
from darboux7r.cli import LOOPS, PAIR_TYPES, build_family
from darboux7r.conics import ConicClass, conic_orbit
from darboux7r.errors import ClosureFailure, KinematicsError
from darboux7r.dualquat import DQ_ONE
from darboux7r.linkage import _unit_screws, axes_at, chain_poses


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


PARAMS = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def linkage_fi_fiii(params=PARAMS, x=Fraction(1, 3), y=Fraction(-2, 7)):
    return build_linkage(factor_fi(params), factor_fiii(params, x, y))


def linkage_fi_fii(params=PARAMS):
    return build_linkage(factor_fi(params), factor_fii(params))


def linkage_fiv():
    return build_linkage(fiv_companion_fi(), factor_fiv())


def test_joint_counts():
    assert linkage_fi_fiii().joint_count == 7
    assert linkage_fi_fii().joint_count == 7
    assert linkage_fiv().joint_count == 7


def test_self_pairing_is_degenerate_not_failure():
    l = build_linkage(factor_fi(PARAMS), factor_fi(PARAMS))
    assert l.degenerate
    assert l.joint_count == 6


def test_mismatched_motions_fail_closure():
    other = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(1, 2))
    with pytest.raises(ClosureFailure):
        build_linkage(factor_fi(PARAMS), factor_fiii(other, 0, 0))


def test_chain_poses_endpoints():
    for f in (factor_fi(PARAMS), factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7))):
        poses = chain_poses(f, Fraction(0))
        assert poses[0] == DQ_ONE
        assert len(poses) == len(f.factors) + 1


def test_closure_exact_at_random_rational_t():
    rng = random.Random(40)
    l13 = linkage_fi_fiii()
    l12 = linkage_fi_fii()
    for _ in range(50):
        t = rational(rng)
        assert closes_exactly(l13, t)
        assert closes_exactly(l12, t)


def test_closure_float_residual():
    l13 = linkage_fi_fiii()
    l12 = linkage_fi_fii()
    l4 = linkage_fiv()
    ts = t_grid(50)
    assert np.all(simulate(l13, ts).closure_residual < 1e-12)
    assert np.all(simulate(l12, ts).closure_residual < 1e-12)
    assert np.all(simulate(l4, ts).closure_residual < 1e-12)


def test_joint_angle_convention():
    tk = MotionPoly.t_minus(dq(h3=1))
    assert joint_angle(tk, 0.0) == pytest.approx(math.pi)
    assert joint_angle(tk, 1.0) == pytest.approx(math.pi / 2)
    # strictly decreasing with limits 2*pi and 0
    ts = [-50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0]
    angles = [joint_angle(tk, t) for t in ts]
    assert all(a > b for a, b in zip(angles, angles[1:]))
    assert joint_angle(tk, -1e9) == pytest.approx(2 * math.pi)
    assert joint_angle(tk, 1e9) == pytest.approx(0.0, abs=1e-8)


def test_joint_angle_monotone_random_rotation_factors():
    rng = random.Random(41)
    for f in factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)).factors:
        ts = sorted(rng.uniform(-20, 20) for _ in range(50))
        angles = [joint_angle(f, t) for t in ts]
        assert all(a > b for a, b in zip(angles, angles[1:]))


def test_parallel_groups():
    assert parallel_groups(linkage_fiv()) == ((1, 2, 6, 7), (3, 4, 5))
    assert parallel_groups(linkage_fi_fii()) == ((1, 2), (3, 4), (5, 6, 7))
    assert parallel_groups(linkage_fi_fiii()) == ((1, 2), (3, 4, 5), (6, 7))


def test_parallel_groups_stable_under_configuration_change():
    for l in (linkage_fiv(), linkage_fi_fii(), linkage_fi_fiii()):
        home = parallel_groups(l)
        for t in (Fraction(1, 2), Fraction(-3), Fraction(11, 6)):
            assert parallel_groups(l, t) == home


def test_parallel_groups_compare_exactly():
    # Axes are compared with exact 2x2 minors only, so a float t is refused.
    l = linkage_fi_fiii()
    with pytest.raises(KinematicsError):
        parallel_groups(l, 0.5)
    assert parallel_groups(l, Fraction(1, 2)) == ((1, 2), (3, 4, 5), (6, 7))


def test_substructure_fiv():
    rep = substructure_report(linkage_fiv())
    assert rep.has_four_bar
    assert rep.four_bar_runs == ((6, 7, 1, 2),)
    assert rep.has_sarrus
    fixed = sorted(s.fixed_joint for s in rep.sarrus)
    assert fixed == [2, 6]
    for s in rep.sarrus:
        assert len(s.arc_a) == 3 and len(s.arc_b) == 3


def test_substructure_absent_elsewhere():
    for l in (linkage_fi_fii(), linkage_fi_fiii()):
        rep = substructure_report(l)
        assert not rep.has_four_bar
        assert not rep.has_sarrus


def test_mobility_dofs():
    rng = random.Random(42)
    l13 = linkage_fi_fiii()
    l12 = linkage_fi_fii()
    l4 = linkage_fiv()
    for _ in range(10):
        t = math.tan(rng.uniform(-math.pi, math.pi) / 2)
        assert mobility_at(l13, t).dof == 1
        assert mobility_at(l12, t).dof == 1
        assert mobility_at(l4, t).dof == 2


def test_fiv_special_postures_gain_mobility():
    l4 = linkage_fiv()
    for t in (0.0, 1.0, -1.0):
        assert mobility_at(l4, t).dof == 3


def test_open_3r_chain_rank():
    # rows of direction then moment
    axes = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 2.0, -1.0, 0.0],
    ])
    m = _unit_screws(axes)
    assert m.shape == (6, 3)
    assert np.linalg.matrix_rank(m) == 3


def test_collapsed_joint_axes_coincide():
    # both copies of a doubled factor fix one line at every configuration
    l = linkage_fi_fii()
    f = l.chain_b
    i, j = f.identical_adjacent[0]
    q = f.factors[i]
    root_axis = (-q.coeff(0)).axis()
    pose = q.eval(Fraction(5, 7))
    from darboux7r import transform_axis

    assert transform_axis(pose, root_axis).same_line(root_axis)
    assert f.factors[j] == q


def test_simulate_rows():
    l = linkage_fi_fiii()
    ts = t_grid(9)
    s = simulate(l, ts)
    assert s.t.shape == (9,)
    assert s.angles.shape == (9, 7)
    assert s.poses_a.shape == (9, 4, 8) and s.poses_b.shape == (9, 6, 8)
    assert s.axes.shape == (9, 7, 6)
    assert s.closure_residual.shape == (9,)
    assert np.all(s.closure_residual < 1e-12)


def test_simulate_collapsed_angle_is_doubled():
    l = linkage_fi_fii()
    collapsed = next(j for j in l.joints if j.multiplicity == 2)
    idx = l.joints.index(collapsed)
    t = 0.3
    s = simulate(l, [t])
    single = joint_angle(MotionPoly.t_minus(collapsed.root), t)
    assert s.angles[0, idx] == pytest.approx(2 * single)


def test_axes_at_home_match_home_axes():
    l = linkage_fi_fiii()
    for ax, home in zip(axes_at(l, Fraction(0)), l.home_axes()):
        assert ax.same_line(home)


def test_home_axes_are_the_exact_axes_at_zero():
    for l in (linkage_fi_fiii(), linkage_fi_fii(), linkage_fiv()):
        home = l.home_axes()
        assert home == axes_at(l, 0)  # the same Fractions, not only the same lines
        assert l.home_axes() is home  # computed once per loop


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PAIR_TYPES),
    st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), min_size=5, max_size=5),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
def test_axes_at_is_the_two_point_transport_exactly(kind, values, t):
    # axes_at conjugates each root by its link pose on ints; transform_axis,
    # which maps two points of the reference axis, stays the reference.
    assume(values[0] != 0)
    try:
        values = dict(zip("abcxy", values))
        loop = build_linkage(*(build_family(family, values) for family in LOOPS[kind]))
    except SingularChoice:
        assume(False)
    poses = {"A": chain_poses(loop.chain_a, t), "B": chain_poses(loop.chain_b, t)}
    expected = tuple(
        transform_axis(poses[j.chain][j.factor_indices[0]], j.reference_axis) for j in loop.joints
    )
    assert axes_at(loop, t) == expected


def conic_at(rep, t):
    """The exact orbit M + U cos(phi) + V sin(phi) of a report at rational t = tan(phi/2)."""
    cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return tuple(m + u * cos + v * sin for m, u, v in zip(rep.mean, rep.cos, rep.sin))


def test_trace_coupler_point_is_ellipse():
    rng = random.Random(43)
    l = linkage_fi_fiii()
    for _ in range(5):
        pt = tuple(rng.uniform(-2, 2) for _ in range(3))
        rep = trace_point(l, pt, t_grid(20))
        assert rep.conic_class is ConicClass.ELLIPSE
        for t in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
            image = l.product_a.eval(t).act((1, *map(Fraction, pt)))
            assert conic_at(rep, t) == image[1:]
        assert rep.float_gap < 1e-12


def test_trace_fixed_point_degenerate():
    # a point on the axis of a single rotation factor stays put
    q3 = factor_fi(DarbouxParams(1, 2, 0)).factors[2]
    single = MotionPoly.t_minus(-q3.coeff(0))
    root = -q3.coeff(0)
    ax = root.axis()
    pt = ax.point_nearest_origin()
    rep = trace_point(single, tuple(float(v) for v in pt), t_grid(12))
    assert rep.conic_class is ConicClass.DEGENERATE


def test_orbit_that_is_no_conic_over_t2_plus_1_raises():
    # Rotations whose norm is not t^2 + 1: the orbit keeps its own denominator.
    h = MotionPoly.t_minus(dq(1, 0, 0, 1))  # norm (t - 1)^2 + 1
    g = MotionPoly.t_minus(dq(0, 2, 0, 0))  # norm t^2 + 4
    for poly, degree in ((h, 2), (h * g, 4)):
        with pytest.raises(KinematicsError, match=f"reduced degree {degree}$"):
            trace_point(poly, (1, 2, 3), t_grid(4))


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=20, deadline=None)
@given(st.lists(small_rationals, min_size=5, max_size=5),
       st.lists(small_rationals, min_size=3, max_size=3))
def test_every_coupler_trajectory_is_a_planar_conic(values, point):
    # The orbit numerator Y is affine in the point.  So when the four affine
    # basis points reduce to (A0 + A1 t + A2 t^2)/(1 + t^2), every point does:
    # each coupler trajectory is M + U cos(phi) + V sin(phi), a planar conic.
    assume(values[0] != 0)
    values = dict(zip("abcxy", values))
    for kind in PAIR_TYPES:
        try:
            loop = build_linkage(*(build_family(family, values) for family in LOOPS[kind]))
        except SingularChoice:
            continue
        origin, *units = (
            conic_orbit(loop.product_a, e) for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        # M, U and V of the point are the same affine combination of the basis ones.
        affine = tuple(
            tuple(o + sum(x * (e[k][i] - o) for x, e in zip(point, units)) for i, o in enumerate(vec))
            for k, vec in enumerate(origin)
        )
        assert conic_orbit(loop.product_a, point) == affine
