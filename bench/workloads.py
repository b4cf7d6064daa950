"""Seeded workloads of the darboux7r benchmark.

A workload turns a seed into a pool of items before any timing starts.
Running an item drives the program from outside: the public command line
(`darboux7r.cli.main`, called in-process) and the public factorization
entry points.  Checking an item reads only the output formats documented
in docs/formats.md; every check is an explicit comparison, so it also
holds under `python -O`.

Inputs are rationals p/q with p in [-9, 9], q in [1, 9] and a != 0.  The
free FIII parameters avoid the singular denominators
den1 = (a+2y)^2 + 4x^2 and den2 = b^2 + c^2 + den1 by rejecting the draw,
the same rule as `random_fiii_args` in tests/test_acceptance.py.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import mpmath

from darboux7r import cli, darboux, linkage
from darboux7r.serialize import factorization_to_json

# closure_residual tolerance of the test suite; the float lane reaches
# about 5e-15 on these loops.
CLOSURE_TOL = 1e-12
SWEEP_SAMPLES = 256  # even, so t_grid avoids FIV's special postures t in {0, +-1}
SWEEP_TYPES = ("FI+FIII", "FI+FII", "FIV")
GENERIC_DOF = {"FI+FIII": 1, "FI+FII": 1, "FIV": 2}
RANK_TOL = 1e-8  # mobility's relative rank tolerance, as in test_c10
EXACT_DIGITS = 60  # working precision of the check's own rank computation
JOINTS = 7  # every loop type here: FI's 3 joints plus 4 from a doubled-factor family
PLOT_FRAMES = 9  # plot's default --samples
CONIC_OK = ("Ellipse", "Circle")
# Findings counted rather than failed, as per-layer metric names: synth
# loops whose home posture sits above the generic dof, mobility rows above
# it on sweep loops of a special family, and coupler orbits that are
# straight segments.
COUNTS = ("linkage.home_dof_gt_generic", "linkage.sample_dof_gt_generic", "conics.segment_orbits")


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Item:
    """One unit of work: generated values plus the argv lists built from them."""

    values: Dict[str, Any]  # what input_sha256 covers
    argvs: Dict[str, List[str]]
    args: Tuple = ()  # library-call arguments (certify)
    files: Dict[str, Path] = field(default_factory=dict)  # synth outputs


@dataclass
class Outcome:
    problems: List[str]
    digest: Optional[bytes] = None  # per-item digest of exact outputs
    counts: Dict[str, int] = field(default_factory=dict)  # findings, not failures


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int, Path], Item]
    run: Callable[[Item], Dict[str, Any]]
    check: Callable[[Item, Dict[str, Any], bool], Outcome]
    pool_per_s: int  # pool size per measured second
    digest_items: int  # leading items whose exact outputs form output_sha256; 0: none
    trace_items_per_s: float  # traced-run item count per measured second


def call_cli(argv: List[str]) -> CliResult:
    """Run `darboux7r <argv>` in-process, capturing stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def abc(rng: random.Random) -> Tuple[Fraction, Fraction, Fraction]:
    a = rational(rng)
    while a == 0:
        a = rational(rng)
    return a, rational(rng), rational(rng)


def abcxy(rng: random.Random) -> Tuple[Fraction, ...]:
    while True:
        a, b, c = abc(rng)
        x, y = rational(rng), rational(rng)
        t_ = a + 2 * y
        den1 = t_ * t_ + 4 * x * x
        if den1 != 0 and b * b + c * c + den1 != 0:
            return a, b, c, x, y


def point(rng: random.Random) -> str:
    return ",".join(str(rational(rng)) for _ in range(3))


def flags(**values: Fraction) -> List[str]:
    # "=" keeps negative fractions from parsing as options.
    return [f"--{k}={v}" for k, v in values.items()]


def canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def exit_ok(res: CliResult, label: str, problems: List[str]) -> bool:
    if res.code != 0:
        problems.append(f"{label}: exit {res.code}: {res.err.strip()[:200]}")
    return res.code == 0


def expect_pass(res: CliResult, label: str, problems: List[str]) -> None:
    if exit_ok(res, label, problems) and not any(
        line.startswith("PASS:") for line in res.out.splitlines()
    ):
        problems.append(f"{label}: no PASS line")


def expect_conic(
    res: CliResult, label: str, problems: List[str], counts: Dict[str, int]
) -> Optional[dict]:
    if not exit_ok(res, label, problems):
        return None
    doc = json.loads(res.out)
    # Some Darboux coupler points trace a doubly covered straight segment:
    # a plane fit but no conic.  That is geometry, so it is counted.
    if doc["conic_class"] == "Degenerate" and "plane" in doc and "conic" not in doc:
        counts["conics.segment_orbits"] = counts.get("conics.segment_orbits", 0) + 1
    elif doc["conic_class"] not in CONIC_OK:
        problems.append(f"{label}: conic_class {doc['conic_class']}")
    if doc["plane_ok"] is not True:
        problems.append(f"{label}: plane_ok {doc['plane_ok']}")
    return doc


def csv_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- certify: exact lane only -------------------------------------------


def make_certify(rng: random.Random, index: int, workdir: Path) -> Item:
    a, b, c, x, y = abcxy(rng)
    abc_flags = flags(a=a, b=b, c=c)
    return Item(
        values={"a": str(a), "b": str(b), "c": str(c), "x": str(x), "y": str(y)},
        argvs={
            kind: ["verify", "--type", kind, *abc_flags]
            + (flags(x=x, y=y) if kind == "FIII" else [])
            for kind in ("FI", "FII", "FIII")
        },
        args=(darboux.DarbouxParams(a, b, c), x, y),
    )


def run_certify(item: Item) -> Dict[str, Any]:
    p, x, y = item.args
    out: Dict[str, Any] = {k: call_cli(argv) for k, argv in item.argvs.items()}
    out["derive_fi"] = darboux.derive_fi(p)
    out["factor_fi"] = darboux.factor_fi(p)
    out["derive_fiii"] = darboux.derive_fiii(p, x, y)
    out["factor_fiii"] = darboux.factor_fiii(p, x, y)
    return out


def check_certify(item: Item, out: Dict[str, Any], digest: bool) -> Outcome:
    problems: List[str] = []
    for kind in item.argvs:
        expect_pass(out[kind], f"verify {kind}", problems)
    for name in ("fi", "fiii"):
        if out[f"derive_{name}"].factors != out[f"factor_{name}"].factors:
            problems.append(f"derive_{name} differs from factor_{name}")
    h = None
    if digest:
        h = hashlib.sha256()
        for kind in item.argvs:
            h.update(out[kind].out.encode())
        for name in ("derive_fi", "derive_fiii"):
            h.update(canonical(factorization_to_json(out[name])))
        h = h.digest()
    return Outcome(problems, h)


# --- sweep: float lane on long grids -------------------------------------


def make_sweep(rng: random.Random, index: int, workdir: Path) -> Item:
    kind = SWEEP_TYPES[index % len(SWEEP_TYPES)]
    values: Dict[str, Any] = {"type": kind}
    if kind == "FI+FIII":
        a, b, c, x, y = abcxy(rng)
        values.update(a=str(a), b=str(b), c=str(c), x=str(x), y=str(y))
        loop = flags(a=a, b=b, c=c, x=x, y=y)
    elif kind == "FI+FII":
        a, b, c = abc(rng)
        values.update(a=str(a), b=str(b), c=str(c))
        loop = flags(a=a, b=b, c=c)
    else:
        loop = []  # FIV is a fixed instance
    values["point"] = point(rng)
    values["mobility_seed"] = rng.randrange(2**31)
    n = str(SWEEP_SAMPLES)
    head = ["--type", kind, *loop, "--samples", n]
    return Item(
        values=values,
        argvs={
            "simulate": ["simulate", *head, "--format", "csv"],
            "mobility": ["mobility", *head, f"--seed={values['mobility_seed']}", "--format", "csv"],
            "trace": ["trace", *head, f"--point={values['point']}"],
        },
    )


def special_family(values: Dict[str, Any]) -> Optional[str]:
    """The special parameter family of a sweep loop, decided from its inputs alone.

    Loops of these families have mobility rows above the generic dof on
    the whole curve or parts of it (bench/DESIGN.md): b = 0 on FI+FII and
    FI+FIII, and c = x = 0 on FI+FIII.  FIV's generic dof already is 2.
    """
    if values["type"] == "FIV":
        return None
    if Fraction(values["b"]) == 0:
        return "b=0"
    if values["type"] == "FI+FIII" and Fraction(values["c"]) == 0 == Fraction(values["x"]):
        return "c=x=0"
    return None


def exact_rank(values: Dict[str, Any], t: float) -> int:
    """Rank of a sweep loop's unit joint screws at t, at RANK_TOL, in EXACT_DIGITS digits.

    The joint axes come from the exact lane at the rational value of t, so
    they carry no rounding; the normalisation and the SVD run in mpmath.
    The program computes the same rank in floats.
    """
    kind = values["type"]
    if kind == "FIV":
        loop = linkage.build_linkage(darboux.fiv_companion_fi(), darboux.factor_fiv())
    else:
        p = darboux.DarbouxParams(*(Fraction(values[k]) for k in "abc"))
        second = (darboux.factor_fii(p) if kind == "FI+FII"
                  else darboux.factor_fiii(p, Fraction(values["x"]), Fraction(values["y"])))
        loop = linkage.build_linkage(darboux.factor_fi(p), second)
    with mpmath.workdps(EXACT_DIGITS):
        cols = []
        for axis in linkage.axes_at(loop, Fraction(t)):
            coords = [mpmath.mpf(v.numerator) / v.denominator for v in (*axis.direction, *axis.moment)]
            norm = mpmath.sqrt(sum(v * v for v in coords[:3]))
            cols.append([v / norm for v in coords])
        sv = mpmath.svd_r(mpmath.matrix(cols).T, compute_uv=False)
        sv = [sv[i] for i in range(sv.rows)]
        return sum(1 for v in sv if v > RANK_TOL * max(sv))


def run_sweep(item: Item) -> Dict[str, Any]:
    return {k: call_cli(argv) for k, argv in item.argvs.items()}


def check_sweep(item: Item, out: Dict[str, Any], digest: bool) -> Outcome:
    problems: List[str] = []
    counts: Dict[str, int] = {}
    dof = GENERIC_DOF[item.values["type"]]

    if exit_ok(out["simulate"], "simulate", problems):
        header, rows = csv_rows(out["simulate"].out)
        col = header.index("closure_residual")
        if len(rows) != SWEEP_SAMPLES:
            problems.append(f"simulate: {len(rows)} rows")
        bad = [v for v in (float(r[col]) for r in rows) if not v <= CLOSURE_TOL]  # NaN too
        if bad:
            problems.append(f"simulate: {len(bad)} rows with closure_residual like {bad[0]!r}")

    if exit_ok(out["mobility"], "mobility", problems):
        header, rows = csv_rows(out["mobility"].out)
        col = header.index("dof")
        if len(rows) != SWEEP_SAMPLES:
            problems.append(f"mobility: {len(rows)} rows")
        dofs = [int(r[col]) for r in rows]
        low = [d for d in dofs if d < dof]
        high = [d for d in dofs if d > dof]
        if low:
            problems.append(f"mobility: {len(low)} rows with dof {low[0]} below the generic {dof}")
        if high and special_family(item.values) is None:
            # Outside the special families a row above the generic dof must
            # be a sample within the rank tolerance of a singular posture:
            # the check recomputes its rank from the exact loop.
            unconfirmed = [
                (r[0], int(r[col]))
                for r in rows
                if int(r[col]) > dof and int(r[col]) != JOINTS - exact_rank(item.values, float(r[0]))
            ]
            if unconfirmed:
                t, d = unconfirmed[0]
                problems.append(f"mobility: {len(unconfirmed)} rows above the generic dof {dof} that"
                                f" the exact rank does not confirm, like dof {d} at t = {t}")
        if high:
            counts["linkage.sample_dof_gt_generic"] = len(high)

    expect_conic(out["trace"], "trace", problems, counts)
    return Outcome(problems, None, counts)


# --- synth: build and ship one loop --------------------------------------


def make_synth(rng: random.Random, index: int, workdir: Path) -> Item:
    a, b, c, x, y = abcxy(rng)
    pt = point(rng)
    loop = ["--type", "FI+FIII", *flags(a=a, b=b, c=c, x=x, y=y)]
    files = {
        name: workdir / f"synth_{name}"
        for name in ("linkage.json", "chain_a.json", "chain_b.json", "plot.svg")
    }
    return Item(
        values={"a": str(a), "b": str(b), "c": str(c), "x": str(x), "y": str(y), "point": pt},
        argvs={
            "linkage": ["linkage", *loop, "--out", str(files["linkage.json"])],
            "verify_a": ["verify", "--from-file", str(files["chain_a.json"])],
            "verify_b": ["verify", "--from-file", str(files["chain_b.json"])],
            "trace": ["trace", *loop, f"--point={pt}"],
            "plot": ["plot", *loop, f"--point={pt}", "--out", str(files["plot.svg"])],
        },
        files=files,
    )


def run_synth(item: Item) -> Dict[str, Any]:
    for path in item.files.values():
        path.unlink(missing_ok=True)  # a failed step must not leave the last item's file
    out: Dict[str, Any] = {"linkage": call_cli(item.argvs["linkage"])}
    if out["linkage"].code != 0:
        return out
    doc = json.loads(item.files["linkage.json"].read_text())
    out["doc"] = doc
    for side in ("a", "b"):
        item.files[f"chain_{side}.json"].write_text(json.dumps(doc["linkage"][f"chain_{side}"]))
    for step in ("verify_a", "verify_b", "trace", "plot"):
        out[step] = call_cli(item.argvs[step])
    return out


def check_synth(item: Item, out: Dict[str, Any], digest: bool) -> Outcome:
    problems: List[str] = []
    counts: Dict[str, int] = {}
    if not exit_ok(out["linkage"], "linkage", problems):
        return Outcome(problems)
    doc = out["doc"]
    home = doc["mobility_home"]
    # Home posture: only require a consistent rank split; a dof above the
    # generic 1 is counted, not failed.
    if not 1 <= home["dof"] or home["rank"] + home["dof"] != JOINTS:
        problems.append(f"linkage: home rank {home['rank']} dof {home['dof']}")
    counts["linkage.home_dof_gt_generic"] = int(home["dof"] > 1)
    for side in ("a", "b"):
        expect_pass(out[f"verify_{side}"], f"verify chain_{side}", problems)
    expect_conic(out["trace"], "trace", problems, counts)
    if exit_ok(out["plot"], "plot", problems):
        frames = item.files["plot.svg"].read_text().count("<g data-frame=")
        if frames != PLOT_FRAMES:
            problems.append(f"plot: {frames} frames")
    h = None
    if digest:
        exact = {k: v for k, v in doc.items() if k != "mobility_home"}  # floats
        h = hashlib.sha256(canonical(exact))
        h.update(out["verify_a"].out.encode())
        h.update(out["verify_b"].out.encode())
        h = h.digest()
    return Outcome(problems, h, counts)


# Pool sizes are per measured second, about twice today's rates of 17, 1
# and 7 items/s.  A faster program runs the pool again from its first item.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("certify", make_certify, run_certify, check_certify,
                 pool_per_s=30, digest_items=30, trace_items_per_s=3.0),
        Workload("sweep", make_sweep, run_sweep, check_sweep,
                 pool_per_s=2, digest_items=0, trace_items_per_s=0.2),
        Workload("synth", make_synth, run_synth, check_synth,
                 pool_per_s=12, digest_items=30, trace_items_per_s=1.5),
    )
}


def make_pool(workload: Workload, seed: int, size: int, workdir: Path) -> List[Item]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make(rng, i, workdir) for i in range(size)]


def input_sha256(pool: List[Item]) -> str:
    return hashlib.sha256(canonical([item.values for item in pool])).hexdigest()
