"""JSON and CSV encoding with exact rational round-trips.

Exact scalars serialize as canonical rational strings ("3/4", "-2"),
floats as JSON numbers; parsing maps strings back to Fraction, integers
to int, and other numbers to float, so a file written from the exact
backend reloads exactly.  Dual quaternion coefficients are stored as
eight scalars [h0..h7], primal before dual; polynomial coefficient lists
are indexed by degree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

from ._numpy import np
from .conics import TrajectoryReport
from .darboux import DarbouxParams, Factorization
from .dualquat import AxisLine, DualQuaternion
from .errors import MalformedInput
from .linkage import Linkage, MobilityReport, Samples
from .motionpoly import MotionPoly, poly_product
from .scalars import Scalar, format_scalar, is_exact, parse_scalar


scalar_to_json = format_scalar


def scalar_from_json(v) -> Scalar:
    if isinstance(v, str):
        return parse_scalar(v)
    if isinstance(v, bool):
        raise ValueError("boolean is not a scalar")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    raise ValueError(f"cannot parse scalar from {v!r}")


def _json_list(v) -> List:
    """v itself if it is a JSON array; a string, number or object raises TypeError."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {v!r}")
    return v


def dq_to_json(h: DualQuaternion) -> List:
    return [scalar_to_json(c) for c in h.coeffs()]


def dq_from_json(arr: Sequence) -> DualQuaternion:
    return DualQuaternion.from_coeffs([scalar_from_json(v) for v in _json_list(arr)])


def axis_to_json(ax: AxisLine) -> Dict[str, Any]:
    return {
        "direction": [scalar_to_json(c) for c in ax.direction],
        "moment": [scalar_to_json(c) for c in ax.moment],
    }


def axis_from_json(d: Dict[str, Any]) -> AxisLine:
    return AxisLine(
        tuple(scalar_from_json(v) for v in d["direction"]),
        tuple(scalar_from_json(v) for v in d["moment"]),
    )


def motionpoly_to_json(p: MotionPoly) -> List[List]:
    return [dq_to_json(c) for c in p.coeffs]


def motionpoly_from_json(arr: Sequence[Sequence]) -> MotionPoly:
    return MotionPoly(tuple(dq_from_json(row) for row in _json_list(arr)))


def realpoly_to_json(p: MotionPoly) -> List:
    """The scalar parts of a real polynomial's coefficients; other coefficients raise."""
    if not p.is_real():
        raise ValueError("a real polynomial has a coefficient that is not real")
    return [scalar_to_json(c.p.w) for c in p.coeffs]


def realpoly_from_json(arr: Sequence) -> MotionPoly:
    return MotionPoly.real([scalar_from_json(v) for v in _json_list(arr)])


def params_to_json(p: DarbouxParams) -> Dict[str, Any]:
    return {
        "a": scalar_to_json(p.a),
        "b": scalar_to_json(p.b),
        "c": scalar_to_json(p.c),
    }


def params_from_json(d: Dict[str, Any]) -> DarbouxParams:
    return DarbouxParams(
        scalar_from_json(d["a"]), scalar_from_json(d["b"]), scalar_from_json(d["c"])
    )


def factorization_to_json(f: Factorization) -> Dict[str, Any]:
    return {
        "label": f.label,
        "params": params_to_json(f.params),
        "free_xy": None
        if f.free_xy is None
        else [scalar_to_json(v) for v in f.free_xy],
        "cofactor": realpoly_to_json(f.cofactor),
        "factors": [motionpoly_to_json(q) for q in f.factors],
        "identical_adjacent": [list(pair) for pair in f.identical_adjacent],
    }


def _index_pair(pair: Sequence) -> Tuple[int, int]:
    i, j = pair
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"expected a pair of integer factor indices, got {pair!r}")
    return (i, j)


def factorization_from_json(d: Dict[str, Any]) -> Factorization:
    free = d.get("free_xy")
    if free is not None and len(_json_list(free)) != 2:
        raise TypeError(f"expected two free_xy scalars, got {free!r}")
    if not isinstance(d["label"], str):
        raise TypeError(f"expected a string label, got {d['label']!r}")
    return Factorization(
        label=d["label"],
        params=params_from_json(d["params"]),
        factors=tuple(motionpoly_from_json(q) for q in _json_list(d["factors"])),
        cofactor=realpoly_from_json(d["cofactor"]),
        free_xy=None if free is None else tuple(scalar_from_json(v) for v in free),
        identical_adjacent=tuple(_index_pair(pair) for pair in _json_list(d["identical_adjacent"])),
    )


def read_exact_factorization(path: str) -> Factorization:
    """Load a factorization file whose scalars are all exact.

    Invalid JSON, nesting too deep to decode, a missing key, a field of
    the wrong type, a rational with a zero denominator or a float scalar
    raise MalformedInput, so bad input is never mistaken for a failed
    identity.
    """
    try:
        with open(path) as fh:
            f = factorization_from_json(json.load(fh))
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        # json.JSONDecodeError and every KinematicsError are ValueErrors.
        raise MalformedInput(
            f"{path}: not a factorization file: {type(exc).__name__}: {exc}"
        ) from exc
    scalars = [f.params.a, f.params.b, f.params.c, *(f.free_xy or ())]
    if any(q.is_float() for q in (f.cofactor, *f.factors)) or not all(map(is_exact, scalars)):
        raise MalformedInput(
            f"{path}: exact verification needs rational strings or integers, not floats"
        )
    return f


def closure_certificate(linkage: Linkage) -> str:
    """SHA-256 of the canonical JSON of the common motion (times both cofactors)."""
    common = poly_product((linkage.product_a, linkage.chain_b.cofactor))
    payload = json.dumps(motionpoly_to_json(common), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def linkage_to_json(linkage: Linkage) -> Dict[str, Any]:
    return {
        "chain_a": factorization_to_json(linkage.chain_a),
        "chain_b": factorization_to_json(linkage.chain_b),
        "degenerate": linkage.degenerate,
        "joint_count": linkage.joint_count,
        "joints": [
            {
                "number": i + 1,
                "chain": j.chain,
                "factor_indices": list(j.factor_indices),
                "root": dq_to_json(j.root),
                "reference_axis": axis_to_json(j.reference_axis),
                "home_axis": axis_to_json(home),
            }
            for i, (j, home) in enumerate(zip(linkage.joints, linkage.home_axes()))
        ],
        "closure_certificate_sha256": closure_certificate(linkage),
    }


def trajectory_to_json(rep: TrajectoryReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "point": list(rep.point),
        "n_samples": rep.n_samples,
        "float_gap": rep.float_gap,
        "plane_ok": True,  # every orbit of a motion that reduces to a conic is planar
        "conic_class": rep.conic_class.value,
        "orbit": {
            name: [format_scalar(v) for v in vec]
            for name, vec in (("mean", rep.mean), ("cos", rep.cos), ("sin", rep.sin))
        },
    }
    if any(rep.cos) or any(rep.sin):  # the point moves
        out["plane"] = {"normal": None if rep.normal is None else list(rep.normal)}
    if rep.semi_axes is not None:
        out["conic"] = {"semi_major": rep.semi_axes[0], "semi_minor": rep.semi_axes[1]}
    return out


def mobility_to_json(rep: MobilityReport) -> Dict[str, Any]:
    return {
        "t": rep.t,
        "singular_values": list(rep.singular_values),
        "rank": rep.rank,
        "dof": rep.dof,
        "tol": rep.tol,
    }


def mobility_to_csv(reports: Sequence[MobilityReport]) -> str:
    if not reports:
        return "t,rank,dof\n"
    nsv = max(len(r.singular_values) for r in reports)
    header = ["t", "rank", "dof"] + [f"sv{i + 1}" for i in range(nsv)]
    lines = [",".join(header)]
    for r in reports:
        row = [repr(r.t), str(r.rank), str(r.dof)]
        row += [repr(s) for s in r.singular_values]
        row += [""] * (nsv - len(r.singular_values))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def samples_to_csv(samples: Samples) -> str:
    """One row per configuration: t, joint angles, coupler pose coefficients."""
    n = samples.angles.shape[1]
    header = (
        ["t"]
        + [f"theta{i + 1}" for i in range(n)]
        + [f"coupler_h{i}" for i in range(8)]
        + ["closure_residual"]
    )
    # The coupler pose is chain A's end pose.
    table = np.column_stack(
        (samples.t, samples.angles, samples.poses_a[:, -1], samples.closure_residual)
    )
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def samples_to_json(samples: Samples) -> List[Dict[str, Any]]:
    columns = (
        samples.t, samples.angles, samples.axes, samples.poses_a[:, -1], samples.closure_residual
    )
    return [
        {
            "t": t,
            "angles": angles,
            "axes": [{"direction": ax[:3], "moment": ax[3:]} for ax in axes],
            "coupler_pose": pose,
            "closure_residual": residual,
        }
        for t, angles, axes, pose, residual in zip(*(c.tolist() for c in columns))
    ]


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"
