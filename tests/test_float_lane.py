"""The batched float64 lane against the exact lane, for every loop type.

simulate, mobility, trace and plot sample float64 arrays.
linkage.simulate is a loop's one float evaluation: its Samples evaluate
both chains' kept prefix products, rounded once per Linkage, at every t
on first read and form n0 of the joint poses once, and their lines are
the loop's exact axis polynomials P*h*conj(P), rounded once, at t; the
axes are the lines over those n0, as axes_at does on ints.  mobility and
plot read the lines, which n0 > 0 only scales, and evaluate no pose.
MotionPoly.orbit evaluates a point's exact orbit polynomial
P*(1 - eps*x)*P~, rounded once.  Here each sample is
recomputed on the exact lane at the same parameter value (Fraction(t) is
exactly the float t), converted to float and compared, also at
parameters far from 1.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darboux7r import (
    DarbouxParams,
    DualQuaternion,
    KinematicsError,
    MotionPoly,
    NotADisplacement,
    SingularChoice,
    build_linkage,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    joint_angle,
    mobility_at,
    simulate,
    t_grid,
    trace_fit,
)
from darboux7r import linkage, svgplot
from darboux7r.cli import PAIR_TYPES, PARAM_DEFAULTS, main
from darboux7r.conics import conic_orbit
from darboux7r.dualquat import _dot, ray_gap
from darboux7r.linkage import (
    RANK_RTOL,
    _unit_screws,
    axes_at,
    chain_poses,
    mobility_many,
)
from darboux7r.motionpoly import _coeff_array, _horner_many
from darboux7r.svgplot import render_linkage

REL_TOL = 1e-12
PARAMS = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))


def loop(kind: str, params: DarbouxParams = PARAMS):
    if kind == "FIV":
        return build_linkage(fiv_companion_fi(), factor_fiv())
    if kind == "FI+FII":
        return build_linkage(factor_fi(params), factor_fii(params))
    return build_linkage(factor_fi(params), factor_fiii(params, Fraction(1, 3), Fraction(-2, 7)))


# t_grid(64) plus the grid of --t-min=-3 --t-max=3 --samples 25, which
# holds t = 0 and t = +-1 exactly.
TS = list(t_grid(64)) + [-3 + i * 0.25 for i in range(25)]


def assert_rows_close(batched: np.ndarray, exact: np.ndarray) -> None:
    scale = np.maximum(1.0, np.abs(exact).max(axis=-1, keepdims=True))
    assert np.all(np.abs(batched - exact) <= REL_TOL * scale)


def rows(dqs) -> np.ndarray:
    return np.array([[float(v) for v in h.coeffs()] for h in dqs])


def axis_rows(axes) -> np.ndarray:
    return np.array([[float(v) for v in (*ax.direction, *ax.moment)] for ax in axes])


def pose_table(l):
    """Both chains' rounded prefix products at every t: the rows simulate evaluates."""
    poses = _horner_many(l._pose_coeffs, TS)
    k = len(l.chain_a.prefixes())
    return poses[:, :k], poses[:, k:]


def exact_rank(axes) -> int:
    sv = np.linalg.svd(_unit_screws(axis_rows(axes)), compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_poses_match_exact_lane(kind):
    l = loop(kind)
    s = simulate(l, TS)
    for chain, batched in ((l.chain_a, s.poses_a), (l.chain_b, s.poses_b)):
        assert batched.shape == (len(TS), len(chain.factors) + 1, 8)
        for i, t in enumerate(TS):
            assert_rows_close(batched[i], rows(chain_poses(chain, Fraction(t))))


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_axes_and_ranks_match_exact_lane(kind):
    l = loop(kind)
    batched = simulate(l, TS).axes
    reports = mobility_many(l, TS)
    for i, t in enumerate(TS):
        exact = axes_at(l, Fraction(t))
        assert_rows_close(batched[i], axis_rows(exact))
        assert reports[i].rank == exact_rank(exact)
        assert reports[i].rank + reports[i].dof == l.joint_count


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_simulate_samples_the_batched_lane(kind):
    l = loop(kind)
    s = simulate(l, TS)
    assert np.array_equal(s.t, TS)
    for poses, table, chain in zip((s.poses_a, s.poses_b), pose_table(l), (l.chain_a, l.chain_b)):
        # the loop's pose table, and each chain walked alone, bit for bit
        assert np.array_equal(poses, table)
        assert np.array_equal(poses, _horner_many(_coeff_array(chain.prefixes()), TS))
    links = [(s.poses_a if j.chain == "A" else s.poses_b)[:, j.factor_indices[0]] for j in l.joints]
    primal = np.stack(links, axis=1)[..., :4]
    assert np.array_equal(s.n0, _dot(primal, primal))  # n0 of each joint's link pose, bit for bit
    x = _horner_many(_coeff_array(l.axis_polys), TS)
    assert np.array_equal(s.lines, np.concatenate((x[..., 1:4], -x[..., 5:]), axis=-1))
    assert np.array_equal(s.axes, s.lines / s.n0[..., None])  # bit for bit
    y = x / s.n0[..., None]  # dividing first gives the same bits: negation commutes exactly
    assert np.array_equal(s.axes, np.concatenate((y[..., 1:4], -y[..., 5:]), axis=-1))
    assert np.all(s.closure_residual < REL_TOL)
    for i, t in enumerate(TS):
        for angle, j in zip(s.angles[i], l.joints):
            assert angle == j.multiplicity * joint_angle(j.root, t)


# mobility_many's unit screws read the lines, not the axes, so each screw
# row is its axis times n0 rounded once more before the unit scaling; the
# singular values move by a few ulps of sigma_max and no rank changes
# (measured: at most 3.04 ulps on these loops).
SCREW_ULPS_TOL = 8 * np.finfo(float).eps
SCREW_LOOPS = [(kind, PARAMS) for kind in PAIR_TYPES] + [
    (kind, params)
    for b in (Fraction(10**3), Fraction(10**6))
    for kind, params in (
        ("FI+FIII", DarbouxParams(Fraction(1), b, Fraction(0))),
        ("FI+FII", DarbouxParams(Fraction(3, 2), b, Fraction(2, 5))),
    )
]


@pytest.mark.parametrize("kind, params", SCREW_LOOPS)
def test_screws_of_the_lines_are_the_screws_of_the_axes(kind, params):
    if kind == "FI+FIII" and params != PARAMS:  # FI+FIII (1, b, 0, 0, 0)
        l = build_linkage(factor_fi(params), factor_fiii(params, Fraction(0), Fraction(0)))
    else:
        l = loop(kind, params)
    of_axes = np.linalg.svd(_unit_screws(simulate(l, TS).axes), compute_uv=False)
    for rep, sv in zip(mobility_many(l, TS), of_axes):
        assert np.all(np.abs(np.array(rep.singular_values) - sv) <= SCREW_ULPS_TOL * sv[0])
        assert rep.rank == np.sum(sv > RANK_RTOL * sv[0])


def test_fiv_special_postures_on_explicit_grid():
    l = loop("FIV")
    assert [r.dof for r in mobility_many(l, [0.0, 1.0, -1.0])] == [3, 3, 3]
    assert [mobility_at(l, t).dof for t in (0.0, 1.0, -1.0)] == [3, 3, 3]
    assert all(r.dof == 2 for r in mobility_many(l, t_grid(64)))


def test_mobility_at_is_one_sample_of_mobility_many():
    l = loop("FI+FIII")
    for t, rep in zip(TS, mobility_many(l, TS)):
        assert mobility_at(l, t) == rep


def test_plot_takes_an_array_of_parameter_values():
    # As simulate and mobility_many do: an ndarray draws the SVG of the
    # equal list, and an empty one is refused like an empty list.
    l = loop("FI+FIII")
    ts = np.linspace(-1, 1, 5)
    for point in (None, (1, 2, 3)):
        assert render_linkage(l, ts, "xy", point) == render_linkage(l, ts.tolist(), "xy", point)
    for empty in ([], np.array([])):
        with pytest.raises(KinematicsError, match="need at least one parameter value"):
            render_linkage(l, empty, "xy", None)


def test_a_loop_rounds_its_tables_once_and_mobility_forms_no_angles(monkeypatch):
    # A Linkage rounds its pose table, its axis table and its roots on first
    # use; simulate, mobility_many and render_linkage all read those tables.
    # simulate rounds and bounds the pose table, but mobility_many and
    # render_linkage read only the lines of its Samples: they evaluate no
    # pose table and form no n0, angles or closure residual.
    rounded, made = [], []

    def counted(polys):
        rounded.append(polys)
        return _coeff_array(polys)

    def kept(l, ts):
        made.append(simulate(l, ts))
        return made[-1]

    monkeypatch.setattr(linkage, "_coeff_array", counted)
    monkeypatch.setattr(linkage, "simulate", kept)
    monkeypatch.setattr(svgplot, "simulate", kept)

    def rounds(call) -> int:
        rounded.clear()
        call()
        return len(rounded)

    for kind in PAIR_TYPES:
        l = loop(kind)
        assert rounds(lambda: mobility_many(l, TS)) == 2  # poses, then axes
        assert rounds(lambda: mobility_many(l, TS)) == 0
        assert rounds(lambda: render_linkage(l, TS, "xy", (1, 2, 3))) == 0
        for read in made[-3:]:  # by mobility_many twice, then by render_linkage
            assert sorted(vars(read)) == ["lines", "linkage", "t"]
        s = simulate(l, TS)
        assert rounds(lambda: s.angles) == 1  # the roots
        assert rounds(lambda: (simulate(l, TS).angles, s.axes, s.closure_residual)) == 0
        twin = build_linkage(l.chain_a, l.chain_b)
        assert rounds(lambda: simulate(twin, TS)) == 1
        assert rounds(lambda: render_linkage(twin, TS, "xy", None)) == 1
        assert rounds(lambda: mobility_many(twin, TS)) == 0
        assert sorted(vars(made[-1])) == ["lines", "linkage", "t"]


def test_a_polynomial_that_is_no_motion_has_no_orbit():
    # n1 = 2 p.d = 1 for h = (0, 1, 0, 0 | 0, 1, 0, 0): the norm of t - h is not real.
    h = MotionPoly.t_minus(DualQuaternion.from_coeffs((0, 1, 0, 0, 0, 1, 0, 0)))
    assert not h.is_motion_polynomial()
    for call in (lambda: trace_fit(h, (1, 2, 3), t_grid(8)), lambda: h.orbit((1, 2, 3), TS)):
        with pytest.raises(NotADisplacement, match="not a motion polynomial"):
            call()
    for kind in PAIR_TYPES:
        assert loop(kind).product_a.point_orbit((1, 2, 3)).degree >= 2


def test_orbit_matches_exact_action():
    motion = loop("FI+FIII").chain_a.product()
    point = (Fraction(1), Fraction(1, 2), Fraction(-2))
    orbit = motion.orbit(point, TS)
    assert orbit.shape == (len(TS), 3)
    for row, t in zip(orbit, TS):
        exact = motion.eval(Fraction(t)).act((1, *point))[1:]
        assert_rows_close(row, np.array([float(v) for v in exact]))


# An orbit is its exact orbit polynomial, rounded once and evaluated at t, so
# each image stays within a few ulps of the orbit's largest coordinate however
# far the orbit grows with b (measured: at most 2.0 ulps up to b = 10^12).
ORBIT_ULPS_TOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("b", [2, 10**4, 10**8, 10**12])
def test_orbit_stays_within_a_few_ulps_at_large_parameters(b):
    motion = factor_fi(DarbouxParams(Fraction(3, 2), Fraction(b), Fraction(2, 5))).product()
    for point in ((Fraction(1), Fraction(1, 2), Fraction(-2)), (0, 0, 0)):
        exact = np.array([
            [float(v) for v in motion.eval(Fraction(t)).act((1, *point))[1:]] for t in TS
        ])
        error = np.abs(motion.orbit(point, TS) - exact).max()
        assert error <= ORBIT_ULPS_TOL * np.abs(exact).max()


@pytest.mark.parametrize("kind", ["FI+FIII", "FI+FII"])
def test_trace_at_large_parameters_samples_the_exact_orbit(capsys, kind):
    # trace evaluates the orbit polynomial alone, rounded once, and reads no
    # link pose (simulate at large --b: test_cli.py).
    assert_trace_samples_the_exact_orbit(capsys, ["--type", kind, "--b", "1e8"], b=10**8)


@pytest.mark.parametrize("name, exponent", [("b", 200), ("c", 300)])
def test_trace_of_coefficients_whose_squares_overflow_float64(capsys, name, exponent):
    # The orbit polynomial, about 10 times the parameter, is only evaluated
    # and divided, never squared, so the bound on the loop's squared rows
    # (linkage.COEFF_ABS_MAX) does not refuse it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        argv = [f"--{name}", f"1e{exponent}"]
        assert_trace_samples_the_exact_orbit(capsys, argv, **{name: 10**exponent})


def assert_trace_samples_the_exact_orbit(capsys, argv, **values) -> None:
    """trace exits 0 with the exact orbit of the origin at a, b, c, within a few ulps of it."""
    assert main(["trace", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = {**PARAM_DEFAULTS, **values}
    params = DarbouxParams(values["a"], values["b"], values["c"])
    orbit = tuple(tuple(Fraction(v) for v in doc["orbit"][k]) for k in ("mean", "cos", "sin"))
    assert orbit == conic_orbit(factor_fi(params).product().point_orbit((0, 0, 0)))
    mean, cos, sin = (np.array([float(v) for v in vec]) for vec in orbit)
    size = (np.abs(mean) + np.hypot(cos, sin)).max()  # the orbit's largest |coordinate|
    assert doc["float_gap"] <= ORBIT_ULPS_TOL * size


# A link pose is its prefix product, rounded once and evaluated at t, so each
# pose row stays within a few ulps of its length of the exact pose however
# far the dual part grows with b (measured: at most 1.5 ulps up to 10^12).
POSE_ULPS_TOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("b", [2, 10**4, 10**8, 10**12])
@pytest.mark.parametrize("kind", ["FI+FII", "FI+FIII"])
def test_poses_stay_within_a_few_ulps_at_large_parameters(kind, b):
    # The loop's pose table, evaluated as simulate evaluates it; simulate
    # itself runs at large b in test_cli.py.
    l = loop(kind, DarbouxParams(Fraction(3, 2), Fraction(b), Fraction(2, 5)))
    poses = pose_table(l)
    for chain, batched in zip((l.chain_a, l.chain_b), poses):
        for i, t in enumerate(TS):
            exact = rows(chain_poses(chain, Fraction(t)))
            unit = np.linalg.norm(exact, axis=-1, keepdims=True)
            assert np.all(np.abs(batched[i] - exact) <= POSE_ULPS_TOL * unit)
    # simulate's closure_residual: the gap between the two chains' end products
    assert np.all(ray_gap(poses[0][:, -1], poses[1][:, -1]) <= POSE_ULPS_TOL)


# Samples.axes evaluates the exact axis polynomials, each coefficient rounded
# once, and divides by n0 of the rounded poses, so every coordinate of an
# axis stays within a few ulps of the axis's largest coordinate, however far
# the moments grow with b (measured: at most 5.7e-16 on these two loops up
# to b = 10^6, 7.8e-16 on random loops).
AXES_ULPS_TOL = 8 * np.finfo(float).eps


def assert_axes_within_a_few_ulps(l, ts) -> None:
    batched = simulate(l, ts).axes
    for i, t in enumerate(ts):
        exact = axis_rows(axes_at(l, Fraction(t)))
        scale = np.abs(exact).max(axis=-1, keepdims=True)
        assert np.all(np.abs(batched[i] - exact) <= AXES_ULPS_TOL * scale)


@pytest.mark.parametrize("b", [2, 10**4, 10**6])
@pytest.mark.parametrize("kind", ["FI+FII", "FI+FIII"])
def test_axes_error_at_large_parameters_is_bounded(kind, b):
    assert_axes_within_a_few_ulps(
        loop(kind, DarbouxParams(Fraction(3, 2), Fraction(b), Fraction(2, 5))), TS
    )


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["FI+FII", "FI+FIII"]),
    rationals.filter(bool),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 9)),
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
)
def test_axes_of_random_loops_stay_within_a_few_ulps(kind, a, b, cxy, ts):
    c, x, y = cxy
    p = DarbouxParams(a, b, c)
    try:
        l = build_linkage(factor_fi(p), factor_fii(p) if kind == "FI+FII" else factor_fiii(p, x, y))
    except SingularChoice:
        assume(False)
    assert_axes_within_a_few_ulps(l, ts)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PAIR_TYPES), rationals.filter(bool), st.lists(rationals, min_size=4, max_size=4)
)
def test_every_link_pose_is_a_displacement_exactly(kind, a, bcxy):
    # The norm of a product of motion polynomials is the product of their
    # norms, and each factor t - h of a loop has the real norm t^2 + 1.  So
    # every chain prefix Q1*...*Qj has the real norm (t^2 + 1)^j: each link
    # pose is a displacement for every real t, and simulate tests no
    # rounded norm.
    b, c, x, y = bcxy
    p = DarbouxParams(a, b, c)
    try:
        if kind == "FI+FIII":
            l = build_linkage(factor_fi(p), factor_fiii(p, x, y))
        else:
            l = loop(kind, p)  # FIV is one instance
    except SingularChoice:
        assume(False)
    for chain in (l.chain_a, l.chain_b):
        norm = MotionPoly.real((1,))
        for prefix in chain.prefixes():
            assert prefix.norm_poly().is_real()
            assert prefix.norm_poly() == norm
            norm = norm * MotionPoly.real((1, 0, 1))  # times t^2 + 1
