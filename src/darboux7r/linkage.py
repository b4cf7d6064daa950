"""Closed-loop revolute linkages assembled from two motion factorizations.

Two factorizations of the same motion (up to real cofactors) give two
open chains from the base to the coupler; gluing them produces a closed
loop.  Each monic linear factor with a rotation root contributes one
revolute joint; the equal adjacent factors that identical_adjacent names
collapse into a single joint (a doubled factor rotates about its own
fixed axis, so both copies share one line in every configuration).

Joints are numbered 1..n around the loop: chain A base to coupler in
factor order, then chain B coupler back to base (reverse factor order).
The pose of link j at parameter t is the value of its chain's prefix
product P = Q1*...*Qj, which the Factorization keeps from the fold that
forms its product, and the axis of the joint after it is its root h moved
by P: P*h*conj(P)/n0(P).  Linkage.axis_polys forms the polynomials
P*h*conj(P) once per loop, on first use; building a loop forms no axis.

Two lanes evaluate the kept polynomials: chain_poses and axes_at at one
exact (or float) parameter, axes_at on ints, and simulate, the one float64
sampler of a loop, whose Samples evaluate on first read; mobility and svgplot
read their lines (axes times n0) and no pose.  Every link pose is a rigid
displacement exactly: its norm is the product of its rotation factors'
real norms (check_rotation_chain), so the float lane tests no norm again.
A Linkage rounds its prefixes, axis polynomials and roots once each.
Each joint's reference axis is the one Factorization.check_rotation_chain
gets from its rotation test, so building a loop classifies each root once.
trace_point decides a coupler point's orbit exactly, for all t at once
(conics.trace_fit).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from . import conics
from ._numpy import np
from .darboux import Factorization
from .dualquat import (
    AxisLine,
    DualQuaternion,
    _dot,
    projectively_equal,
    ray_gap,
)
from .errors import ClosureFailure, KinematicsError, NotRotational, ZeroPrimal
from .motionpoly import MotionPoly, _coeff_array, _horner_many
from .scalars import Scalar, cleared, is_exact, sdiv

RANK_RTOL = 1e-8


@dataclass(frozen=True)
class Joint:
    """One revolute joint: chain side, collapsed factor positions, root and reference axis."""

    chain: str  # "A" or "B"
    factor_indices: Tuple[int, ...]  # 0-based positions in the chain's factor list
    root: DualQuaternion
    reference_axis: AxisLine  # in the chain's reference placement

    @property
    def multiplicity(self) -> int:
        return len(self.factor_indices)


@dataclass(frozen=True)
class Linkage:
    """Closed loop of two chains; build it with build_linkage.

    product_a is the exact product of chain A's factors that chain_a keeps
    from the closure check; the closure certificate, coupler traces and plot
    overlays read it.  axis_polys, home_axes and the rounded tables of the
    prefixes (chain A's, then chain B's), axes and roots are formed on first
    use and kept.
    """

    chain_a: Factorization
    chain_b: Factorization
    joints: Tuple[Joint, ...]
    degenerate: bool

    @property
    def product_a(self) -> MotionPoly:
        return self.chain_a.product()

    @property
    def joint_count(self) -> int:
        return len(self.joints)

    def home_axes(self) -> Tuple[AxisLine, ...]:
        """axes_at(self, 0): the exact world axes at t = 0, in cycle order."""
        return self._home_axes

    _home_axes = cached_property(lambda self: axes_at(self, 0))

    @cached_property
    def axis_polys(self) -> Tuple[MotionPoly, ...]:
        """P*h*conj(P) of every joint in cycle order, h its root and P the prefix before it."""
        return tuple([p * j.root * p.conj() for j, p in zip(self.joints, _joint_prefixes(self))])

    _pose_coeffs = cached_property(lambda f: _bounded(f.chain_a.prefixes() + f.chain_b.prefixes()))
    _axis_coeffs = cached_property(lambda f: _bounded(f.axis_polys))
    _root_coeffs = cached_property(lambda f: _bounded([MotionPoly([j.root for j in f.joints])])[0])


COEFF_ABS_MAX = math.sqrt(sys.float_info.max)


def _bounded(polys: Sequence[MotionPoly]) -> np.ndarray:
    """_coeff_array of rows that are squared (norms, dot products), each within COEFF_ABS_MAX."""
    out = _coeff_array(polys)
    if (top := np.abs(out).max(initial=0.0)) > COEFF_ABS_MAX:
        raise KinematicsError(
            f"an exact coefficient of about 1e{math.log10(top):+.0f} overflows float64 when squared"
        )
    return out


def _chain_joints(f: Factorization, side: str) -> List[Joint]:
    """One joint per run of factors joined by identical_adjacent (see check_rotation_chain)."""
    axes = f.check_rotation_chain()
    n = len(f.factors)
    starts = [k for k in range(n) if (k - 1, k) not in f.identical_adjacent]
    runs = [tuple(range(i, j)) for i, j in zip(starts, starts[1:] + [n])]
    return [
        Joint(side, run, f.roots()[run[0]], axes[run[0]])
        for run in runs
    ]


def build_linkage(fa: Factorization, fb: Factorization) -> Linkage:
    """Assemble the closed loop of two factorizations of one motion.

    Requires the exact closure identity
    product(fa) * cofactor_b = product(fb) * cofactor_a.
    A pair of identical chains closes trivially but has zero relative
    motion; it is flagged degenerate rather than rejected.
    """
    if fa.product() * fb.cofactor != fb.product() * fa.cofactor:  # the kept products
        raise ClosureFailure("chains do not parameterize the same motion")
    joints = tuple(_chain_joints(fa, "A") + list(reversed(_chain_joints(fb, "B"))))
    return Linkage(fa, fb, joints, degenerate=fa.factors == fb.factors)


def chain_poses(f: Factorization, t: Scalar) -> List[DualQuaternion]:
    """Pose of every link of one open chain at parameter t (base first).

    Entry j is the value of the prefix product Q1*...*Qj; the last entry
    is the motion times its cofactor, at t.
    """
    return [p.eval(t) for p in f.prefixes()]


def _angles(roots: np.ndarray, ts: Sequence[Scalar]) -> np.ndarray:
    """Rotation angles of t - root for every t and root row, shape (len(ts), len(roots))."""
    vn = np.sqrt(_dot(roots[:, 1:4], roots[:, 1:4]))
    if np.any(vn == 0):
        raise NotRotational("root has no rotational part")
    return np.pi - 2 * np.arctan((np.asarray(ts, dtype=float)[:, None] - roots[:, 0]) / vn)


def joint_angle(factor: Union[MotionPoly, DualQuaternion], t: Scalar) -> float:
    """Rotation angle of a monic linear factor's value at t, in (0, 2*pi).

    For root h: cot(theta/2) = (t - h0) / |vec h|, resolved monotonically
    decreasing with theta(0) = pi for t - k; the limits t -> +-inf give
    0 and 2*pi.
    """
    root = factor if isinstance(factor, DualQuaternion) else -factor.coeff(0)
    return float(_angles(_bounded([MotionPoly((root,))])[0], [t])[0, 0])


def _joint_prefixes(linkage: Linkage) -> List[MotionPoly]:
    """The prefix product before every joint in cycle order: its link pose polynomial."""
    chains = {"A": linkage.chain_a, "B": linkage.chain_b}
    return [chains[j.chain].prefixes()[j.factor_indices[0]] for j in linkage.joints]


def _scaled_value(rows: Sequence[DualQuaternion], p: Scalar, q: Scalar) -> DualQuaternion:
    """q^d * N(p/q) for the rows of a polynomial N of degree d, by Horner: ints for ints."""
    acc = rows[-1]
    for i, c in enumerate(reversed(rows[:-1]), 1):
        acc = acc.scale(p) + c.scale(q**i)
    return acc


def axes_at(linkage: Linkage, t: Scalar) -> Tuple[AxisLine, ...]:
    """World axis line of every joint at parameter t, in cycle order (scalar lane).

    A joint's axis is A(t)/n0(P(t)), A = P*h*conj(P) of linkage.axis_polys
    (direction: the primal vector part, moment: minus the dual vector part).
    For t = p/q, A's and P's numerators are evaluated on ints at p/q times
    q^deg; deg A = 2 deg P, so the powers of q cancel.
    """
    p, q = cleared(t)  # a float or symbolic t gives (t, 1)
    axes = []
    for a, pose in zip(linkage.axis_polys, _joint_prefixes(linkage)):
        x = _scaled_value(a.num, p, q).scale(pose.den**2)
        s = _scaled_value(pose.num, p, q).p.norm() * a.den  # A(t)/n0(P(t)) = x/s
        direction, moment = ([sdiv(v, s) for v in u] for u in (x[1:4], (-x)[5:]))
        axes.append(AxisLine(tuple(direction), tuple(moment)))
    return tuple(axes)


def _unit_screws(axes: np.ndarray) -> np.ndarray:
    """Unit-direction screw matrices (..., 6, n) of axis rows (..., n, 6) at any positive scale."""
    n = np.linalg.norm(axes[..., :3], axis=-1, keepdims=True)
    return np.swapaxes(axes / n, -1, -2)


@dataclass(frozen=True)
class MobilityReport:
    t: float
    singular_values: Tuple[float, ...]
    rank: int
    dof: int
    tol: float


def mobility_many(
    linkage: Linkage, ts: Sequence[Scalar], tol: float = RANK_RTOL
) -> Tuple[MobilityReport, ...]:
    """Instantaneous mobility at every t from the rank of the joint screw system.

    dof = joint_count - numeric rank, singular values below tol * sigma_max counting as
    zero.  One batched SVD covers all samples; the unit screws read simulate's lines, no pose.
    """
    sv = np.linalg.svd(_unit_screws(simulate(linkage, ts).lines), compute_uv=False)
    smax = sv[:, :1]
    ranks = np.where(smax[:, 0] > 0, np.sum(sv > tol * smax, axis=1), 0)
    return tuple(
        MobilityReport(float(t), tuple(row), rank, linkage.joint_count - rank, tol)
        for t, row, rank in zip(ts, sv.tolist(), ranks.tolist())
    )


def mobility_at(linkage: Linkage, t: Scalar) -> MobilityReport:
    """Instantaneous mobility at one parameter value, at RANK_RTOL (see mobility_many)."""
    return mobility_many(linkage, [t])[0]


def parallel_groups(linkage: Linkage, t: Optional[Scalar] = None) -> Tuple[Tuple[int, ...], ...]:
    """Partition of joint numbers 1..n into groups of mutually parallel axes.

    Uses the home axes (t = 0) unless a parameter value is given.  Axes
    compare exactly, so t must be exact (int or Fraction).
    """
    if t is not None and not is_exact(t):
        raise KinematicsError(f"axes compare exactly, so t must be int or Fraction, not {t!r}")
    axes = linkage.home_axes() if t is None else axes_at(linkage, t)
    groups: List[List[int]] = []
    reps: List[AxisLine] = []
    for idx, ax in enumerate(axes, start=1):
        for g, rep in zip(groups, reps):
            if ax.is_parallel_to(rep):
                g.append(idx)
                break
        else:
            groups.append([idx])
            reps.append(ax)
    return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class SarrusDecomposition:
    fixed_joint: int
    arc_a: Tuple[int, int, int]
    arc_b: Tuple[int, int, int]


@dataclass(frozen=True)
class SubstructureReport:
    groups: Tuple[Tuple[int, ...], ...]
    four_bar_runs: Tuple[Tuple[int, ...], ...]
    sarrus: Tuple[SarrusDecomposition, ...]


def substructure_report(linkage: Linkage) -> SubstructureReport:
    """Detect parallel-axis substructures in the joint cycle at the home axes.

    A planar four-bar shows up as four (or more) cyclically consecutive
    joints with parallel axes; a Sarrus decomposition fixes one joint and
    splits the remaining six into two arcs of three consecutive joints,
    each arc internally parallel.
    """
    groups = parallel_groups(linkage)
    n = linkage.joint_count
    group_of = {}
    for gi, g in enumerate(groups):
        for j in g:
            group_of[j] = gi

    def cyc(j: int) -> int:
        return (j - 1) % n + 1

    four_bar: List[Tuple[int, ...]] = []
    if n >= 4:
        # Maximal cyclic runs of same-group joints.
        starts = [
            j for j in range(1, n + 1) if group_of[j] != group_of[cyc(j - 1)]
        ]
        if not starts:
            four_bar.append(tuple(range(1, n + 1)))
        else:
            for s in starts:
                run = [s]
                while group_of[cyc(run[-1] + 1)] == group_of[s] and len(run) < n:
                    run.append(cyc(run[-1] + 1))
                if len(run) >= 4:
                    four_bar.append(tuple(run))

    sarrus: List[SarrusDecomposition] = []
    if n == 7:
        for fixed in range(1, n + 1):
            arc_a = tuple(cyc(fixed + k) for k in (1, 2, 3))
            arc_b = tuple(cyc(fixed + k) for k in (4, 5, 6))
            if (
                len({group_of[j] for j in arc_a}) == 1
                and len({group_of[j] for j in arc_b}) == 1
            ):
                sarrus.append(SarrusDecomposition(fixed, arc_a, arc_b))
    return SubstructureReport(groups, tuple(four_bar), tuple(sarrus))


@dataclass(frozen=True, eq=False)
class Samples:
    """Simulated configurations of the closed loop as float64 arrays, N samples.

    t (N,); formed on first read, the poses from one kept evaluation of the
    pose table: poses_a / poses_b the link poses of each chain (N, k + 1, 8),
    n0 (N, n) of each joint's link pose, angles (N, n), closure_residual (N,),
    lines (N, n, 6) the rounded axis_polys at t as rows [primal vector, -dual
    vector], and axes = lines / n0, rows [direction, moment], as axes_at.
    """

    t: np.ndarray
    linkage: Linkage

    _poses = cached_property(lambda self: _horner_many(self.linkage._pose_coeffs, self.t))
    _k = property(lambda self: len(self.linkage.chain_a.prefixes()))
    poses_a = cached_property(lambda self: self._poses[:, : self._k])
    poses_b = cached_property(lambda self: self._poses[:, self._k :])

    @cached_property
    def n0(self) -> np.ndarray:
        rows = [j.factor_indices[0] + (j.chain == "B") * self._k for j in self.linkage.joints]
        primal = self._poses[:, rows, :4]
        if np.any((n0 := _dot(primal, primal)) == 0):
            raise ZeroPrimal("cannot act with zero primal part")
        return n0

    @cached_property
    def angles(self) -> np.ndarray:
        multiplicities = [j.multiplicity for j in self.linkage.joints]
        return multiplicities * _angles(self.linkage._root_coeffs, self.t)

    @cached_property
    def closure_residual(self) -> np.ndarray:
        return ray_gap(self.poses_a[:, -1], self.poses_b[:, -1])

    @cached_property
    def lines(self) -> np.ndarray:
        x = _horner_many(self.linkage._axis_coeffs, self.t)
        return np.concatenate((x[..., 1:4], -x[..., 5:]), axis=-1)

    axes = cached_property(lambda self: self.lines / self.n0[..., None])


def closes_exactly(linkage: Linkage, t: Scalar) -> bool:
    """Exact projective equality of the two chain end poses at rational t."""
    return projectively_equal(linkage.chain_a.product().eval(t), linkage.chain_b.product().eval(t))


def simulate(linkage: Linkage, ts: Sequence[Scalar]) -> Samples:
    """Sample the loop at the given parameter values (float64): its one float evaluation.

    Rounds and bounds both chains' prefixes; the Samples evaluate on first read.  The poses
    are exact displacements (module docstring), so only a zero n0 of a joint pose is refused.
    """
    linkage._pose_coeffs  # a square beyond float64 is refused before any table is read
    return Samples(np.asarray(ts, dtype=float), linkage)


def trace_point(
    linkage: Linkage, point: Sequence[Scalar], ts: Sequence[float]
) -> conics.TrajectoryReport:
    """The exact orbit of a point under the coupler, conics.trace_fit of product_a.

    ts are the parameter values at which the float lane's orbit is
    compared with the exact conic.
    """
    return conics.trace_fit(linkage.product_a, point, ts)
