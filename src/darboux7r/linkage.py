"""Closed-loop revolute linkages assembled from two motion factorizations.

Two factorizations of the same motion (up to real cofactors) give two
open chains from the base to the coupler; gluing them produces a closed
loop.  Each monic linear factor with a rotation root contributes one
revolute joint; consecutive identical factors collapse into a single
joint (a doubled factor rotates about its own fixed axis, so both copies
share one line in every configuration).

Joints are numbered 1..n around the loop: chain A base to coupler in
factor order, then chain B coupler back to base (reverse factor order).
The pose of link j at parameter t is the value of its chain's prefix
product Q1*...*Qj, which the Factorization keeps from the fold that forms
its product; axes are stored in the chain's reference placement and
transported by those poses.  Building a loop transports no axis: the
exact home axes (t = 0), which only the linkage JSON and the
parallel-group and Sarrus analysis read, are computed on first use.

Two lanes evaluate the prefixes: chain_poses and axes_at at one exact (or
float) parameter through MotionPoly.eval, while simulate and mobility
sample float64 arrays of parameters through motionpoly.poses_many, which
rounds both chains' prefixes once and evaluates them in one Horner pass,
so a one-sample call pays the kernel's fixed cost once, not once per chain.
Both form a joint's axis from its root h and link pose P as P*h*conj(P)/n0(P)
(on floats, dualquat.conjugate_many).
Each joint's reference axis is the one Factorization.check_rotation_chain
gets from its rotation test, so building a loop classifies each root once.
trace_point decides a coupler point's orbit exactly, for all t at once
(conics.trace_fit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from . import conics
from ._numpy import np
from .darboux import Factorization
from .dualquat import (
    AxisLine,
    CONJ_ROW,
    DualQuaternion,
    _displacement_norms,
    _dot,
    conjugate_many,
    projectively_equal,
    ray_gap,
)
from .errors import ClosureFailure, KinematicsError, NotRotational
from .motionpoly import MotionPoly, _coeff_array, poses_many
from .scalars import Scalar, is_exact, sdiv

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
    overlays read it.  home_axes forms the exact t = 0 axes on its first
    call and keeps them.
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

    @cached_property
    def _home_axes(self) -> Tuple[AxisLine, ...]:
        return axes_at(self, 0)


def _runs_of_equal(factors: Sequence[MotionPoly]) -> List[Tuple[int, ...]]:
    runs: List[Tuple[int, ...]] = []
    i = 0
    while i < len(factors):
        j = i + 1
        while j < len(factors) and factors[j] == factors[i]:
            j += 1
        runs.append(tuple(range(i, j)))
        i = j
    return runs


def _chain_joints(f: Factorization, side: str) -> List[Joint]:
    axes = f.check_rotation_chain()
    return [
        Joint(side, run, f.roots()[run[0]], axes[run[0]])
        for run in _runs_of_equal(f.factors)
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
    return float(_angles(_coeff_array([MotionPoly((root,))])[0], [t])[0, 0])


def axes_at(linkage: Linkage, t: Scalar) -> Tuple[AxisLine, ...]:
    """World axis line of every joint at parameter t, in cycle order (scalar lane).

    A joint's axis is that of its root h conjugated by its link pose P,
    the chain's prefix product before the joint at t: P*h*conj(P)/n0(P).
    The work stays on ints: each prefix's numerators are evaluated at t
    and the values cleared of denominators together (a pose's real scale
    cancels), each factor d*(t - h) gives d*h, and each coordinate is
    divided once.  At t = 0 the values are the constant numerators.
    Float and symbolic factors keep scale 1.
    """
    axes = {}
    for side, f in (("A", linkage.chain_a), ("B", linkage.chain_b)):
        # The values at t as the coefficients of one polynomial, cleared together.
        poses = MotionPoly(tuple([p.integral()[0].eval(t) for p in f.prefixes()[:-1]])).num
        for k, (factor, pose) in enumerate(zip(f.factors, poses)):
            q, d = factor.integral()  # d*(t - h), d
            x = pose * -q.coeff(0) * pose.conj()
            s = pose.p.norm() * d
            axes[side, k] = AxisLine(
                tuple(sdiv(v, s) for v in x.p.vector), tuple(sdiv(-v, s) for v in x.d.vector)
            )
    return tuple(axes[j.chain, j.factor_indices[0]] for j in linkage.joints)


def _both_chains_many(linkage: Linkage, ts: Sequence[Scalar]) -> List[np.ndarray]:
    return poses_many((linkage.chain_a.prefixes(), linkage.chain_b.prefixes()), ts)


def _root_rows(linkage: Linkage) -> np.ndarray:
    """The joints' roots as float64 rows (n, 8), the coefficients of one polynomial."""
    return _coeff_array([MotionPoly(tuple([j.root for j in linkage.joints]))])[0]


def _joint_poses(linkage: Linkage, poses_a, poses_b) -> np.ndarray:
    """Each joint's link pose rows from both chains' poses, shape (N, n, 8)."""
    offset = poses_a.shape[1]
    pick = [j.factor_indices[0] + (0 if j.chain == "A" else offset) for j in linkage.joints]
    return np.concatenate((poses_a, poses_b), axis=1)[:, pick]


def _axes_from_poses(joint_poses: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """World axis rows [direction, moment] of every joint, shape (N, n, 6), as axes_at."""
    x = conjugate_many(joint_poses, roots, CONJ_ROW)
    return np.concatenate((x[..., 1:4], -x[..., 5:]), axis=-1)  # -(v/n0) is (-v)/n0


def axes_many(linkage: Linkage, ts: Sequence[Scalar]) -> np.ndarray:
    """Float64 axes_at for every t: rows [direction, moment], shape (len(ts), n, 6)."""
    poses = _joint_poses(linkage, *_both_chains_many(linkage, ts))
    return _axes_from_poses(poses, _root_rows(linkage))


def _unit_screws(axes: np.ndarray) -> np.ndarray:
    """Screw matrices (..., 6, n) of axis rows (..., n, 6), scaled to unit direction."""
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

    dof = joint_count - numeric rank, with singular values below
    tol * sigma_max treated as zero.  One batched SVD covers all samples.
    """
    sv = np.linalg.svd(_unit_screws(axes_many(linkage, ts)), compute_uv=False)
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

    t (N,), angles (N, n), poses_a / poses_b the link poses of each chain
    (N, k + 1, 8), closure_residual (N,); axes, the joint axes (N, n, 6) as
    direction then moment, formed from joint_poses (N, n, 8) and roots (n, 8)
    on first read.
    """

    t: np.ndarray
    angles: np.ndarray
    poses_a: np.ndarray
    poses_b: np.ndarray
    closure_residual: np.ndarray
    joint_poses: np.ndarray
    roots: np.ndarray

    @cached_property
    def axes(self) -> np.ndarray:
        return _axes_from_poses(self.joint_poses, self.roots)


def closes_exactly(linkage: Linkage, t: Scalar) -> bool:
    """Exact projective equality of the two chain end poses at rational t."""
    ea = chain_poses(linkage.chain_a, t)[-1]
    eb = chain_poses(linkage.chain_b, t)[-1]
    return projectively_equal(ea, eb)


def simulate(linkage: Linkage, ts: Sequence[Scalar]) -> Samples:
    """Sample the loop at the given parameter values (float64)."""
    poses_a, poses_b = _both_chains_many(linkage, ts)
    roots = _root_rows(linkage)
    angles = [j.multiplicity for j in linkage.joints] * _angles(roots, ts)
    joint_poses = _joint_poses(linkage, poses_a, poses_b)
    _displacement_norms(joint_poses)  # what forming the axes would refuse, read or not
    residual = ray_gap(poses_a[:, -1], poses_b[:, -1])
    return Samples(np.asarray(ts, float), angles, poses_a, poses_b, residual, joint_poses, roots)


def trace_point(
    linkage: Linkage, point: Sequence[Scalar], ts: Sequence[float]
) -> conics.TrajectoryReport:
    """The exact orbit of a point under the coupler, conics.trace_fit of product_a.

    ts are the parameter values at which the float lane's orbit is
    compared with the exact conic.
    """
    return conics.trace_fit(linkage.product_a, point, ts)
