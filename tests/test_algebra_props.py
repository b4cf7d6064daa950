"""Property tests: exact algebra laws and serialize round-trips.

Inputs have small random rational coefficients, so every law is checked
with zero tolerance on the exact lane.  Reading a factorization file
must either succeed or raise MalformedInput, whatever JSON it holds.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from darboux7r import (  # noqa: E402
    DarbouxParams,
    DualQuaternion,
    Factorization,
    MalformedInput,
    MotionPoly,
    NotRotational,
    SingularChoice,
    serialize,
)
from darboux7r.cli import FAMILIES, build_family, main  # noqa: E402
from darboux7r.dualquat import (  # noqa: E402
    _FLOAT_REAL_NORM_RTOL,
    DQ_ONE,
    DisplacementKind,
    Q_K,
    Quaternion,
    vcross,
    vdot,
)
from darboux7r.scalars import is_exact  # noqa: E402

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
nonzero = rationals.filter(lambda v: v != 0)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
dual_quaternions = st.builds(DualQuaternion, quaternions, quaternions)
motion_polys = st.lists(dual_quaternions, max_size=4).map(lambda cs: MotionPoly(tuple(cs)))
monic_divisors = st.lists(dual_quaternions, min_size=1, max_size=2).map(
    lambda cs: MotionPoly((*cs, DQ_ONE))
)
params = st.builds(DarbouxParams, nonzero, rationals, rationals)

json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def sparse_quaternions(draw) -> Quaternion:
    """Rational quaternions with at least two coefficients an exact zero (int or Fraction)."""
    zeros = draw(st.sets(st.integers(0, 3), min_size=2))
    zero = st.sampled_from([0, Fraction(0)])
    return Quaternion(*(draw(zero if i in zeros else rationals) for i in range(4)))


def dense_hamilton(a: Quaternion, b: Quaternion) -> Quaternion:
    """The Hamilton product with all 16 terms written out."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


@settings(max_examples=200, deadline=None)
@given(sparse_quaternions() | quaternions, sparse_quaternions())
def test_sparse_product_equals_the_dense_formula(a, b):
    for left, right in ((a, b), (b, a)):
        product = left * right
        assert product == dense_hamilton(left, right)
        assert all(is_exact(v) for v in (product.w, product.x, product.y, product.z))


BASIS = {"1": Quaternion(1, 0, 0, 0), "i": Quaternion(0, 1, 0, 0),
         "j": Quaternion(0, 0, 1, 0), "k": Quaternion(0, 0, 0, 1)}
# Row times column, e.g. i * j = k and j * i = -k.
BASIS_PRODUCTS = {
    "1": ("1", "i", "j", "k"),
    "i": ("i", "-1", "k", "-j"),
    "j": ("j", "-k", "-1", "i"),
    "k": ("k", "j", "-i", "-1"),
}


@pytest.mark.parametrize("lane", [int, Fraction, float])
def test_basis_products(lane):
    def cast(q):
        return Quaternion(*(lane(v) for v in (q.w, q.x, q.y, q.z)))

    for left, row in BASIS_PRODUCTS.items():
        for right, expected in zip(BASIS, row):
            value = BASIS[expected.lstrip("-")]
            if expected.startswith("-"):
                value = -value
            assert cast(BASIS[left]) * cast(BASIS[right]) == value, (left, right)


@EXAMPLES
@given(dual_quaternions, dual_quaternions, dual_quaternions)
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@EXAMPLES
@given(dual_quaternions, dual_quaternions)
def test_conjugate_reverses_products(h, g):
    assert (h * g).conj() == g.conj() * h.conj()
    # The point conjugate too, so the point sandwich h*X*h~ composes.
    assert (h * g).tilde() == g.tilde() * h.tilde()


@EXAMPLES
@given(dual_quaternions, dual_quaternions)
def test_norm_is_multiplicative_in_the_dual_numbers(h, g):
    (h0, h1), (g0, g1) = h.norm(), g.norm()
    assert (h * g).norm() == (h0 * g0, h0 * g1 + h1 * g0)


@EXAMPLES
@given(motion_polys, monic_divisors)
def test_divmod_right_by_a_monic_divisor(c, d):
    q, r = c.divmod_right(d)
    assert q * d + r == c
    assert r.degree < d.degree


def build(kind, p, x, y) -> Factorization:
    try:
        return build_family(FAMILIES[kind], dict(a=p.a, b=p.b, c=p.c, x=x, y=y))
    except SingularChoice:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(tuple(FAMILIES)), params, rationals, rationals)
def test_factorization_json_round_trip(kind, p, x, y):
    f = build(kind, p, x, y)
    text = json.dumps(serialize.factorization_to_json(f))
    assert serialize.factorization_from_json(json.loads(text)) == f


@st.composite
def edited_factorization_docs(draw):
    """A valid factorization document with one value, anywhere in it, replaced."""
    f = build("FI", draw(params), 0, 0)
    doc = serialize.factorization_to_json(f)
    slots = []

    def collect(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            slots.append((node, k))
            if isinstance(node[k], (dict, list)):
                collect(node[k])

    collect(doc)
    # Half the edits replace a whole top-level field.
    node, key = draw(st.sampled_from([(doc, k) for k in doc]) | st.sampled_from(slots))
    node[key] = draw(json_values)
    return doc


@settings(max_examples=80, deadline=None)
@given(json_values | edited_factorization_docs())
def test_reading_any_json_returns_or_raises_malformed_input(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "factorization.json"
    path.write_text(json.dumps(doc))
    try:
        assert isinstance(serialize.read_exact_factorization(str(path)), Factorization)
    except MalformedInput:
        pass
    # verify --from-file ends in PASS, FAIL or a one-line error, never a traceback.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["verify", "--from-file", str(path)]) in (0, 1, 2)


@st.composite
def rotation_test_roots(draw):
    """Roots h on both sides of each edge of the rotation test.

    Exact ones with a nonreal norm (p . d != 0), a zero primal vector or a
    nonzero dual scalar, next to rotations (d = v x u, so p . d = 0); float
    rotations whose dual vector is moved along v until n1 is some multiple,
    of either sign, of the float tolerance _FLOAT_REAL_NORM_RTOL * max(1, n0).
    """
    vectors = st.tuples(rationals, rationals, rationals)
    w, v, u = draw(rationals), draw(vectors), draw(vectors)
    m, e = vcross(v, u), draw(nonzero)
    kind = draw(st.sampled_from(["rotation", "nonreal norm", "zero vector", "dual scalar", "float"]))
    if kind == "nonreal norm":
        m = tuple(mi + e * vi for mi, vi in zip(m, v))
    if kind == "zero vector":
        v = (0, 0, 0)
    s = e if kind == "dual scalar" else 0
    if s and vdot(v, v):  # keep p . d = w s + v . m at zero
        m = tuple(mi - w * s / vdot(v, v) * vi for mi, vi in zip(m, v))
    h = DualQuaternion(Quaternion(w, *v), Quaternion(s, *m))
    if kind != "float":
        return h
    h = h.to_float()
    p, d, nv = h[:4], h[4:], vdot(h[1:4], h[1:4])
    assume(nv > 0)
    r = draw(st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 1e3]) | st.floats(-4, 4))
    shift = (r * _FLOAT_REAL_NORM_RTOL * max(1.0, vdot(p, p)) / 2 - vdot(p, d)) / nv
    return DualQuaternion(p, (d[0], *[di + shift * vi for di, vi in zip(d[1:], p[1:])]))


def rotation_test_chain(h: DualQuaternion) -> Factorization:
    factors = (MotionPoly.t_minus(h),) * 3
    return Factorization("FI", DarbouxParams(1, 2, 0), factors, MotionPoly.real((1,)))


@settings(max_examples=300, deadline=None)
@given(rotation_test_roots())
def test_chain_rotation_test_accepts_exactly_the_rotations(h):
    # check_rotation_chain classifies each factor's integral constant term,
    # a nonzero multiple of -h; the verdict must be h.classify()'s.
    f = rotation_test_chain(h)
    if h.classify() is DisplacementKind.ROTATION:
        assert f.check_rotation_chain() == (h.axis(),) * 3
    else:
        with pytest.raises(NotRotational) as exc:
            f.check_rotation_chain()
        assert str(exc.value) == "factor 0 root is not a rotation quaternion"


def test_float_rotation_test_has_its_stated_tolerance():
    # Rotation k + eps(delta k): n0 = 1, n1 = 2 delta against the 1e-9 bound.
    cases = ((0.0, True), (4e-10, True), (-4e-10, True), (6e-10, False), (1e-6, False))
    for delta, accepted in cases:
        f = rotation_test_chain(DualQuaternion(Q_K, Quaternion(0.0, 0.0, 0.0, delta)))
        if accepted:
            assert f.check_rotation_chain()[0].moment == (0.0, 0.0, -delta)
        else:
            with pytest.raises(NotRotational, match="factor 0 root is not a rotation quaternion"):
                f.check_rotation_chain()
