"""The batched float64 lane against the exact lane, for every loop type.

simulate, mobility, trace and plot sample float64 arrays:
motionpoly.poses_many rounds each chain's kept prefix products once and
evaluates them at every t, linkage.axes_many evaluates the loop's exact
axis polynomials P*h*conj(P), rounded once, over n0 of the joint poses,
as axes_at does on ints, and MotionPoly.orbit evaluates a point's exact
orbit polynomial P*(1 - eps*x)*P~, rounded once.  Here each sample is
recomputed on the exact lane at the same parameter value (Fraction(t) is
exactly the float t), converted to float and compared, also at
parameters far from 1.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darboux7r import (
    DarbouxParams,
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
)
from darboux7r.cli import PAIR_TYPES, PARAM_DEFAULTS, main
from darboux7r.conics import conic_orbit
from darboux7r.dualquat import ray_gap
from darboux7r.linkage import (
    RANK_RTOL,
    _unit_screws,
    axes_at,
    axes_many,
    chain_poses,
    mobility_many,
)
from darboux7r.motionpoly import poses_many

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


def exact_rank(axes) -> int:
    sv = np.linalg.svd(_unit_screws(axis_rows(axes)), compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_poses_match_exact_lane(kind):
    l = loop(kind)
    for chain in (l.chain_a, l.chain_b):
        batched = poses_many([chain.prefixes()], TS)[0]
        assert batched.shape == (len(TS), len(chain.factors) + 1, 8)
        for i, t in enumerate(TS):
            assert_rows_close(batched[i], rows(chain_poses(chain, Fraction(t))))


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_axes_and_ranks_match_exact_lane(kind):
    l = loop(kind)
    batched = axes_many(l, TS)
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
    assert np.array_equal(s.poses_a, poses_many([l.chain_a.prefixes()], TS)[0])
    assert np.array_equal(s.poses_b, poses_many([l.chain_b.prefixes()], TS)[0])
    assert np.array_equal(s.axes, axes_many(l, TS))
    assert np.all(s.closure_residual < REL_TOL)
    for i, t in enumerate(TS):
        for angle, j in zip(s.angles[i], l.joints):
            assert angle == j.multiplicity * joint_angle(j.root, t)


def test_fiv_special_postures_on_explicit_grid():
    l = loop("FIV")
    assert [r.dof for r in mobility_many(l, [0.0, 1.0, -1.0])] == [3, 3, 3]
    assert [mobility_at(l, t).dof for t in (0.0, 1.0, -1.0)] == [3, 3, 3]
    assert all(r.dof == 2 for r in mobility_many(l, t_grid(64)))


def test_mobility_at_is_one_sample_of_mobility_many():
    l = loop("FI+FIII")
    for t, rep in zip(TS, mobility_many(l, TS)):
        assert mobility_at(l, t) == rep


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
    # trace evaluates the orbit polynomial alone, so no rounded pose meets the
    # float real-norm guard that still refuses simulate at this --b.
    assert main(["trace", "--type", kind, "--b", "1e8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    params = DarbouxParams(PARAM_DEFAULTS["a"], Fraction(10**8), PARAM_DEFAULTS["c"])
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
    l = loop(kind, DarbouxParams(Fraction(3, 2), Fraction(b), Fraction(2, 5)))
    poses = poses_many([l.chain_a.prefixes(), l.chain_b.prefixes()], TS)
    for chain, batched in zip((l.chain_a, l.chain_b), poses):
        for i, t in enumerate(TS):
            exact = rows(chain_poses(chain, Fraction(t)))
            unit = np.linalg.norm(exact, axis=-1, keepdims=True)
            assert np.all(np.abs(batched[i] - exact) <= POSE_ULPS_TOL * unit)
    # simulate's closure_residual: the gap between the two chains' end products
    assert np.all(ray_gap(poses[0][:, -1], poses[1][:, -1]) <= POSE_ULPS_TOL)


# axes_many evaluates the exact axis polynomials, each coefficient rounded
# once, and divides by n0 of the rounded poses, so every coordinate of an
# axis stays within a few ulps of the axis's largest coordinate, however far
# the moments grow with b (measured: at most 5.7e-16 on these two loops up
# to b = 10^6, 7.8e-16 on random loops).
AXES_ULPS_TOL = 8 * np.finfo(float).eps


def assert_axes_within_a_few_ulps(l, ts) -> None:
    batched = axes_many(l, ts)
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
