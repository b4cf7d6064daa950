"""The batched float64 lane against the exact lane, for every loop type.

simulate, mobility and trace sample float64 arrays through
motionpoly.poses_many and dualquat.conjugate_many, which forms each
axis from its root and link pose as axes_at does.  Here each
sample is recomputed on the exact lane at the same parameter value
(Fraction(t) is exactly the float t), converted to float and compared.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from darboux7r import (
    DarbouxParams,
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
from darboux7r.cli import PAIR_TYPES
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


def loop(kind: str):
    if kind == "FIV":
        return build_linkage(fiv_companion_fi(), factor_fiv())
    if kind == "FI+FII":
        return build_linkage(factor_fi(PARAMS), factor_fii(PARAMS))
    return build_linkage(factor_fi(PARAMS), factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))


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
        batched = poses_many(chain.factors, TS)
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
    assert np.array_equal(s.poses_a, poses_many(l.chain_a.factors, TS))
    assert np.array_equal(s.poses_b, poses_many(l.chain_b.factors, TS))
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
