"""Quaternions, dual quaternions, and rigid displacements.

A dual quaternion h = p + eps*d is stored as a primal quaternion p and a
dual quaternion part d, with eps^2 = 0 and eps commuting with everything.
Conjugation negates the six i, j, k coefficients (of both parts); the
norm h * conj(h) is then a dual number (n0, n1).  Elements with real
norm (n1 = 0) and nonzero primal part act on points of projective
3-space and represent rigid displacements.

Coefficients are either exact rationals (int / Fraction) or floats; all
formulas are polynomial except for a few divisions routed through
scalars.sdiv, so both backends share the code.

Values are stored flat: a Quaternion is the tuple (w, x, y, z) and a
DualQuaternion the tuple of its eight coefficients [h0..h7], primal then
dual.  A tuple is immutable and hashable, and a result is one allocation
with no per-field __setattr__, so the exact lane's many small products
stay cheap.  The tuple behaviours a value must not have are guarded:
sums check their operands' lengths, and the constructors check 4 + 4
coefficients.  A numpy scalar on the left of a value would broadcast
over its coefficients, so scaling goes through scale() or a Python
scalar.  .p, .d and .w/.x/.y/.z read the parts.

One Hamilton formula, _hamilton, serves Quaternion.__mul__ and the three
quaternion products inside DualQuaternion.__mul__.  The float64 array
kernel at the end of the module (dq_mul_many, act_many,
conjugate_many; motionpoly.poses_many builds on it) evaluates many
parameter values at once.  It repeats the scalar formulas operation by
operation on (..., 8) arrays, _qmul adding its terms in _hamilton's
order, so it gives the scalar float lane's values bit for bit (a NaN's
sign aside, which IEEE 754 leaves open), and it keeps the preconditions
of act.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Sequence, Tuple

from ._numpy import np
from .errors import NotADisplacement, NotARotation, ZeroPrimal
from .scalars import Scalar, is_exact, sdiv

Vec3 = Tuple[Scalar, Scalar, Scalar]

# Relative tolerance used only on the float backend when checking the
# "norm is real" precondition; exact coefficients are compared to zero.
_FLOAT_REAL_NORM_RTOL = 1e-9


def vdot(u: Vec3, v: Vec3) -> Scalar:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def vcross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def viszero(u: Vec3) -> bool:
    return u[0] == 0 and u[1] == 0 and u[2] == 0


def _dot4(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """Euclidean inner product of coefficient 4-vectors."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _hamilton(a: Sequence[Scalar], b: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Hamilton product of coefficient 4-tuples (w, x, y, z).

    The terms are added in the order of the array kernel's _qmul, so on
    floats the two agree bit for bit.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


# tuple.__new__ on a class skips that class's __new__ and its checks.
_tuple = tuple.__new__


class _Coeffs(tuple):
    """Coefficient tuple with the linear operations of its subclasses."""

    __slots__ = ()

    def scale(self, s: Scalar):
        return _tuple(type(self), [c * s for c in self])

    def __add__(self, other):
        return _tuple(type(self), [a + b for a, b in zip(self, other, strict=True)])

    def __sub__(self, other):
        return _tuple(type(self), [a - b for a, b in zip(self, other, strict=True)])

    def __neg__(self):
        return _tuple(type(self), [-c for c in self])

    def __rmul__(self, other):
        # Scalars are central, so left and right scaling agree.
        if isinstance(other, (int, float)) or is_exact(other):
            return self.scale(other)
        return NotImplemented

    def is_float(self) -> bool:
        return not all(map(is_exact, self))

    def to_float(self):
        return _tuple(type(self), [float(c) for c in self])


class Quaternion(_Coeffs):
    """Quaternion w + x*i + y*j + z*k with i^2 = j^2 = k^2 = ijk = -1, the tuple (w, x, y, z)."""

    __slots__ = ()
    w, x, y, z = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, w: Scalar, x: Scalar, y: Scalar, z: Scalar) -> "Quaternion":
        return _tuple(cls, (w, x, y, z))

    def __repr__(self) -> str:
        return "Quaternion(w={!r}, x={!r}, y={!r}, z={!r})".format(*self)

    @property
    def vector(self) -> Vec3:
        return self[1:]

    def is_zero(self) -> bool:
        return self == (0, 0, 0, 0)

    def conj(self) -> "Quaternion":
        w, x, y, z = self
        return _tuple(Quaternion, (w, -x, -y, -z))

    def norm(self) -> Scalar:
        """Quaternion norm q * conj(q), the sum of squared coefficients."""
        return _dot4(self, self)

    dot = _dot4

    def __mul__(self, other):
        """Hamilton product (_hamilton), or scaling by a scalar."""
        if isinstance(other, Quaternion):
            return _tuple(Quaternion, _hamilton(self, other))
        return self.__rmul__(other)


Q_ZERO = Quaternion(0, 0, 0, 0)
Q_ONE = Quaternion(1, 0, 0, 0)
Q_K = Quaternion(0, 0, 0, 1)


class DisplacementKind(Enum):
    IDENTITY = "Identity"
    ROTATION = "Rotation"
    TRANSLATION = "Translation"
    GENERAL = "General"
    NON_DISPLACEMENT = "NonDisplacement"


class DualQuaternion(_Coeffs):
    """Dual quaternion p + eps*d over exact rational or float scalars.

    The tuple of its eight coefficients [h0..h7], primal then dual.
    """

    __slots__ = ()
    p = property(lambda self: _tuple(Quaternion, self[:4]), doc="Primal part.")
    d = property(lambda self: _tuple(Quaternion, self[4:]), doc="Dual part.")

    def __new__(cls, p: Sequence[Scalar], d: Sequence[Scalar]) -> "DualQuaternion":
        if len(p) != 4 or len(d) != 4:
            raise ValueError("expected a primal and a dual part of four coefficients each")
        return _tuple(cls, (*p, *d))

    def __repr__(self) -> str:
        return f"DualQuaternion(p={self.p!r}, d={self.d!r})"

    @classmethod
    def from_coeffs(cls, h: Sequence[Scalar]) -> "DualQuaternion":
        """Build from the eight coefficients [h0..h7], primal then dual."""
        if len(h) != 8:
            raise ValueError("expected eight coefficients")
        return _tuple(cls, h)

    @classmethod
    def from_scalar(cls, s: Scalar) -> "DualQuaternion":
        return _tuple(cls, (s, 0, 0, 0, 0, 0, 0, 0))

    def coeffs(self) -> Tuple[Scalar, ...]:
        return tuple(self)

    def is_zero(self) -> bool:
        return self == (0,) * 8

    def conj(self) -> "DualQuaternion":
        h0, h1, h2, h3, h4, h5, h6, h7 = self
        return _tuple(DualQuaternion, (h0, -h1, -h2, -h3, h4, -h5, -h6, -h7))

    def norm(self) -> Tuple[Scalar, Scalar]:
        """Dual number h * conj(h) as a pair (real part, dual part)."""
        p, d = self[:4], self[4:]
        # p*conj(d) + d*conj(p) collapses to twice the 4-vector inner product.
        return (_dot4(p, p), 2 * _dot4(p, d))

    def has_real_norm(self) -> bool:
        n0, n1 = self.norm()
        if is_exact(n1):
            return n1 == 0
        return abs(n1) <= _FLOAT_REAL_NORM_RTOL * max(1.0, abs(n0))

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            # eps^2 = 0: (p1 + eps d1)(p2 + eps d2) = p1 p2 + eps(p1 d2 + d1 p2)
            p1, d1, p2, d2 = self[:4], self[4:], other[:4], other[4:]
            a, b = _hamilton(p1, d2), _hamilton(d1, p2)
            return _tuple(
                DualQuaternion,
                _hamilton(p1, p2) + (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]),
            )
        return self.__rmul__(other)

    def invertible(self) -> bool:
        return self[:4] != (0, 0, 0, 0)

    def inverse(self) -> "DualQuaternion":
        """Inverse conj(h) / Norm(h); requires a nonzero primal part."""
        if not self.invertible():
            raise ZeroPrimal("dual quaternion with zero primal part has no inverse")
        n0, n1 = self.norm()
        c = self.conj()
        # (n0 + eps n1)^{-1} = 1/n0 - eps n1/n0^2, a central dual number.
        inv0 = sdiv(1, n0)
        inv1 = -sdiv(n1, n0 * n0)
        return DualQuaternion(c.p.scale(inv0), c.d.scale(inv0) + c.p.scale(inv1))

    def act(self, point: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        """Apply the displacement to a projective point [x0, x1, x2, x3].

        The image is (p*x*conj(p) + x0*(p*conj(d) - d*conj(p))) / (p*conj(p))
        with x = x1*i + x2*j + x3*k; the homogeneous coordinate is preserved.
        Requires a real norm and a nonzero primal part.
        """
        if not self.invertible():
            raise ZeroPrimal("cannot act with zero primal part")
        if not self.has_real_norm():
            raise NotADisplacement("norm has a nonzero dual part")
        if len(point) != 4:
            raise ValueError("expected a projective 4-vector")
        x0 = point[0]
        xq = Quaternion(0, point[1], point[2], point[3])
        p, d = self.p, self.d
        rotated = p * xq * p.conj()
        translated = p * d.conj() - d * p.conj()
        y = rotated + translated.scale(x0)
        n0 = p.norm()
        return (x0, sdiv(y.x, n0), sdiv(y.y, n0), sdiv(y.z, n0))

    def classify(self) -> DisplacementKind:
        """Sort displacements into identity / rotation / translation / general.

        Elements with non-real norm or vanishing primal part are not
        displacements.  Rotations are exactly the elements with zero dual
        scalar part and nonzero primal vector; translations have scalar
        primal part and pure-vector dual part.
        """
        if self.is_zero():
            return DisplacementKind.NON_DISPLACEMENT
        if not self.has_real_norm():
            return DisplacementKind.NON_DISPLACEMENT
        if self.p.is_zero():
            return DisplacementKind.NON_DISPLACEMENT
        if self.d.w != 0:
            return DisplacementKind.GENERAL
        if not viszero(self.p.vector):
            return DisplacementKind.ROTATION
        if not viszero(self.d.vector):
            return DisplacementKind.TRANSLATION
        return DisplacementKind.IDENTITY

    def axis(self) -> "AxisLine":
        """Axis of a rotation as a line with direction and moment."""
        if self.classify() is not DisplacementKind.ROTATION:
            raise NotARotation("axis is defined for rotation quaternions only")
        h = self.coeffs()
        return AxisLine((h[1], h[2], h[3]), (-h[5], -h[6], -h[7]))


DQ_ONE = DualQuaternion(Q_ONE, Q_ZERO)


def _minors_vanish(u: Sequence[Scalar], v: Sequence[Scalar]) -> bool:
    """Whether all 2x2 minors of the pair vanish: exact and sign-free proportionality."""
    n = len(u)
    for a in range(n):
        for b in range(a + 1, n):
            if u[a] * v[b] - u[b] * v[a] != 0:
                return False
    return True


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, added left to right like the scalar formulas."""
    acc = x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1]):
        acc = acc + x[..., i] * y[..., i]
    return acc


def ray_gap(u, v) -> np.ndarray:
    """Float distance between the rays of coefficient vectors, over the last axis.

    Both vectors are scaled to unit length and compared with the sign
    resolved to the closer match; 0 means the same ray.  A zero vector is
    at distance 0 from another zero vector and inf from anything else.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.sqrt(_dot(u, u))[..., None]
    nv = np.sqrt(_dot(v, v))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = u / nu
        v = v / nv
    gap = np.minimum(np.abs(u - v).max(axis=-1), np.abs(u + v).max(axis=-1))
    nu, nv = nu[..., 0], nv[..., 0]
    return np.where((nu == 0) | (nv == 0), np.where(nu == nv, 0.0, np.inf), gap)


@dataclass(frozen=True)
class AxisLine:
    """Line in 3-space with direction d and moment m = point x d (d . m = 0).

    is_parallel_to and same_line compare exactly, for exact coordinates.
    """

    direction: Vec3
    moment: Vec3

    def __post_init__(self):
        if viszero(self.direction):
            raise ValueError("axis line needs a nonzero direction")

    def point_nearest_origin(self) -> Vec3:
        n2 = vdot(self.direction, self.direction)
        c = vcross(self.direction, self.moment)
        return (sdiv(c[0], n2), sdiv(c[1], n2), sdiv(c[2], n2))

    def is_parallel_to(self, other: "AxisLine") -> bool:
        return _minors_vanish(self.direction, other.direction)

    def same_line(self, other: "AxisLine") -> bool:
        return _minors_vanish((*self.direction, *self.moment), (*other.direction, *other.moment))


def projectively_equal(h1: DualQuaternion, h2: DualQuaternion) -> bool:
    """Exact equality up to a scalar multiple (all 2x2 coefficient minors vanish)."""
    if h1.is_zero() or h2.is_zero():
        return False
    return _minors_vanish(h1.coeffs(), h2.coeffs())


def transform_axis(pose: DualQuaternion, ax: AxisLine) -> AxisLine:
    """Map a line through a displacement by mapping two of its points.

    Orientation of the direction is preserved; the moment is rebuilt as
    q1 x q2 from the two image points, so a unit-length direction stays
    unit length.
    """
    p1 = ax.point_nearest_origin()
    p2 = tuple(a + b for a, b in zip(p1, ax.direction))
    q1 = pose.act((1, *p1))[1:]
    q2 = pose.act((1, *p2))[1:]
    return AxisLine(tuple(b - a for a, b in zip(q1, q2)), vcross(q1, q2))


# --- float64 array kernel ------------------------------------------------
#
# A dual quaternion is a row [h0..h7] (primal then dual), a quaternion a
# row [w, x, y, z] and a projective point a row [x0..x3]; leading axes
# broadcast.  Each formula repeats its scalar counterpart operation by
# operation.  The constant rows are tuples of floats, which broadcast as
# float64 rows, so importing this module runs no numpy.

DQ_ONE_ROW = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_CONJ = (1.0, -1.0, -1.0, -1.0)
_CONJ8 = _CONJ + _CONJ


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        (
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ),
        axis=-1,
    )


def dq_mul_many(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Products h * g of dual quaternion rows, as DualQuaternion.__mul__."""
    p1, d1, p2, d2 = h[..., :4], h[..., 4:], g[..., :4], g[..., 4:]
    return np.concatenate((_qmul(p1, p2), _qmul(p1, d2) + _qmul(d1, p2)), axis=-1)


def _displacement_norms(h: np.ndarray) -> np.ndarray:
    """Primal norms n0 of displacement rows, after checking act's preconditions.

    Raises ZeroPrimal if a row's n0 is 0 and NotADisplacement if a row's
    norm is not real to the float tolerance of has_real_norm; a NaN row
    fails that test.
    """
    p, d = h[..., :4], h[..., 4:]
    n0 = _dot(p, p)
    n1 = 2 * _dot(p, d)
    if np.any(n0 == 0):
        raise ZeroPrimal("cannot act with zero primal part")
    if not np.all(np.abs(n1) <= _FLOAT_REAL_NORM_RTOL * np.maximum(1.0, np.abs(n0))):
        raise NotADisplacement("norm has a nonzero dual part")
    return n0


def act_many(h, points) -> np.ndarray:
    """Images of projective points under displacement rows, as DualQuaternion.act (and its errors)."""
    h = np.asarray(h, dtype=float)
    x = np.asarray(points, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("expected projective 4-vectors")
    n0 = _displacement_norms(h)
    p, d = h[..., :4], h[..., 4:]
    x0 = x[..., :1]
    xq = np.concatenate((np.zeros_like(x0), x[..., 1:]), axis=-1)
    pc = p * _CONJ
    rotated = _qmul(_qmul(p, xq), pc)
    translated = _qmul(p, d * _CONJ) - _qmul(d, pc)
    y = rotated + translated * x0
    image = y[..., 1:] / n0[..., None]
    return np.concatenate((np.broadcast_to(x0, image.shape[:-1] + (1,)), image), axis=-1)


def conjugate_many(h, g) -> np.ndarray:
    """Rows h*g*conj(h)/n0(h), as (h * g * h.conj()) divided by h.p.norm().

    For a rotation root g this is the root whose axis is g's axis moved
    by the displacement h, the conjugation of linkage.axes_at.  Raises
    as _displacement_norms on a row of h that is not a displacement.
    """
    h = np.asarray(h, dtype=float)
    n0 = _displacement_norms(h)
    return dq_mul_many(dq_mul_many(h, g), h * _CONJ8) / n0[..., None]
