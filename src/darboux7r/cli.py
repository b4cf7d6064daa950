"""Command line front end.

Subcommands: factor, verify, linkage, simulate, trace, mobility, plot.
Rational parameters are passed as strings like "3/2" (use --b=-1/2 for
negative fractions).  Exit codes: 0 success, 1 verification failure,
2 usage, parameter or input-file error.  A parameter flag that the
chosen --type does not use is a usage error.

factor and verify stay on the exact lane and never load numpy; main runs
the float-lane commands (linkage, simulate, trace, mobility, plot) under
numpy.errstate(over="raise"), so a float64 overflow exits 2.  trace
decides each orbit exactly; its samples only measure the float lane's
gap to it.

build_parser makes the argparse tree on its first call, from main, and
returns that same parser to every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import serialize, svgplot
from ._numpy import np
from .darboux import (
    DarbouxParams,
    Factorization,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    t_grid,
)
from .errors import KinematicsError, NotRotational, SingularChoice
from .linkage import (
    Linkage,
    build_linkage,
    mobility_at,
    mobility_many,
    simulate,
    substructure_report,
    trace_point,
)
from .motionpoly import factorization_residual
from .scalars import Scalar, format_scalar, parse_scalar

# Factorization families by label: the parameter flags a family uses and
# its builder, which takes their values in that order.  Only FIII uses the
# free pair x, y; FIV is a fixed instance and uses none.
FAMILIES = {
    "FI": ("abc", lambda a, b, c: factor_fi(DarbouxParams(a, b, c))),
    "FII": ("abc", lambda a, b, c: factor_fii(DarbouxParams(a, b, c))),
    "FIII": ("abcxy", lambda a, b, c, x, y: factor_fiii(DarbouxParams(a, b, c), x, y)),
    "FIV": ("", factor_fiv),
}
# Closed loops by label: the families of chain A and chain B.
LOOPS = {
    "FI+FIII": (FAMILIES["FI"], FAMILIES["FIII"]),
    "FI+FII": (FAMILIES["FI"], FAMILIES["FII"]),
    "FIV": (("", fiv_companion_fi), FAMILIES["FIV"]),
}
SINGLE_TYPES = tuple(FAMILIES)
PAIR_TYPES = tuple(LOOPS)
# The commands that build factorizations and stay on the exact lane; the
# others build loops and sample them on the float lane.
EXACT_COMMANDS = ("factor", "verify")


def _rational(text: str):
    return parse_scalar(text)


def _point3(text: str) -> Tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected x,y,z but got {text!r}")
    try:
        return tuple(float(parse_scalar(p)) for p in parts)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is beyond the float64 range") from None


# Values of the parameter flags that are not given; at these FI+FIII is
# the FIV loop.  The flags default to None so verify can tell them apart.
PARAM_DEFAULTS = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(0), "x": Fraction(0), "y": Fraction(0)}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_rational, help="Darboux parameter a (rational, nonzero)")
    p.add_argument("--b", type=_rational, help="Darboux parameter b (rational)")
    p.add_argument("--c", type=_rational, help="Darboux parameter c (rational)")
    p.add_argument("--x", type=_rational, help="free parameter x (FIII only)")
    p.add_argument("--y", type=_rational, help="free parameter y (FIII only)")


def _add_output_flags(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=list(formats), default=formats[0])


def _add_sampling_flags(p: argparse.ArgumentParser, default_samples: int) -> None:
    p.add_argument("--samples", type=int, default=default_samples)
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)


def _param_values(args) -> Dict[str, Scalar]:
    """Value of each parameter flag, PARAM_DEFAULTS for those not given."""
    return {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in PARAM_DEFAULTS.items()
    }


def build_family(family, values: Dict[str, Scalar]) -> Factorization:
    """A FAMILIES entry's factorization, from the values of the parameters it uses."""
    names, build = family
    return build(*(values[name] for name in names))


def _build_factorization(args) -> Factorization:
    return build_family(FAMILIES[args.type], _param_values(args))


def _build_linkage(args) -> Linkage:
    values = _param_values(args)
    return build_linkage(*(build_family(family, values) for family in LOOPS[args.type]))


# From |t| = 1e16 on, pi - 2*atan(t) rounds to its limit at t = +-inf in
# float64, so larger parameter values add no configuration; far larger
# ones overflow the sampled poses.
T_ABS_MAX = 1e16


def _sample_ts(args) -> List[float]:
    if args.samples < 1:
        raise KinematicsError("--samples must be at least 1")
    if (args.t_min is None) != (args.t_max is None):
        raise KinematicsError("--t-min and --t-max must be given together")
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if value is not None and not abs(value) <= T_ABS_MAX:  # NaN fails too
            raise KinematicsError(
                f"{flag} must be a finite number with |t| <= {T_ABS_MAX:g}, got {value!r}"
            )
    if args.t_min is not None:
        if args.samples == 1:
            return [0.5 * (args.t_min + args.t_max)]
        step = (args.t_max - args.t_min) / (args.samples - 1)
        return [args.t_min + i * step for i in range(args.samples)]
    return list(t_grid(args.samples))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_factor(args) -> int:
    f = _build_factorization(args)
    _emit(serialize.dump_json(serialize.factorization_to_json(f)), args.out)
    return 0


def _check(f: Factorization) -> Tuple[Optional[str], Scalar]:
    """Failure message (None on success) and identity residual of one factorization."""
    residual = factorization_residual(f.factors, f.target(), f.cofactor)
    try:
        f.check_rotation_chain()
    except NotRotational as exc:
        return f"{f.label} {exc}", residual
    if residual != 0:
        return f"{f.label} product differs from cofactor * C", residual
    return None, residual


def _random_factorization(kind: str, rng: random.Random) -> Factorization:
    def q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        a = q()
        while a == 0:
            a = q()
        try:
            return build_family(FAMILIES[kind], dict(zip(PARAM_DEFAULTS, (a, q(), q(), q(), q()))))
        except SingularChoice:
            continue


def cmd_verify(args) -> int:
    if args.from_file is not None:
        f = serialize.read_exact_factorization(args.from_file)
    elif args.random is not None:
        if args.random < 1:
            raise KinematicsError("--random must be at least 1")
        seed = args.seed or 0
        rng = random.Random(seed)
        failures = 0
        for _ in range(args.random):
            failure, _ = _check(_random_factorization(args.type, rng))
            failures += 0 if failure is None else 1
        n = args.random
        if failures == 0:
            print(f"PASS: {args.type} exact for {n}/{n} random parameter sets (seed {seed})")
            return 0
        print(f"FAIL: {args.type} failed on {failures}/{n} random parameter sets (seed {seed})")
        return 1
    else:
        f = _build_factorization(args)
    failure, residual = _check(f)
    print(f"max |residual coefficient|: {format_scalar(residual)}")
    if failure is None:
        print(f"PASS: {f.label} factors multiply to cofactor * C exactly")
        return 0
    print(f"FAIL: {failure}")
    return 1


def _flag_conflict(args) -> Optional[str]:
    """Why the command cannot use every flag it was given, or None."""
    given = [name for name in PARAM_DEFAULTS if getattr(args, name) is not None]
    if args.command == "verify":
        if args.type is None and args.from_file is None:
            return "verify needs --type or --from-file"
        if args.type is not None and args.from_file is not None:
            return "verify takes --type or --from-file, not both"
        if args.type == "FIV" and args.random is not None:
            return "verify --type FIV is one fixed instance and does not take --random"
        source = "--from-file" if args.from_file is not None else "--random" if args.random is not None else None
        if source is not None and given:
            flags = ", ".join(f"--{name}" for name in given)
            return f"verify {source} sets its own parameters and does not take {flags}"
        if args.seed is not None and args.random is None:
            return "verify --seed needs --random"
    if args.type is None:  # verify --from-file: the file names its type and parameters
        return None
    families = (FAMILIES[args.type],) if args.command in EXACT_COMMANDS else LOOPS[args.type]
    used = "".join(names for names, _ in families)
    unused = [f"--{name}" for name in given if name not in used]
    if unused:
        return f"{args.command} --type {args.type} does not use {', '.join(unused)}"
    return None


def cmd_linkage(args) -> int:
    linkage = _build_linkage(args)
    sub = substructure_report(linkage)
    home = mobility_at(linkage, 0.0)
    doc = {
        "linkage": serialize.linkage_to_json(linkage),
        "parallel_groups": [list(g) for g in sub.groups],
        "four_bar_runs": [list(r) for r in sub.four_bar_runs],
        "sarrus": [
            {"fixed_joint": s.fixed_joint, "arc_a": list(s.arc_a), "arc_b": list(s.arc_b)}
            for s in sub.sarrus
        ],
        "mobility_home": serialize.mobility_to_json(home),
    }
    _emit(serialize.dump_json(doc), args.out)
    return 0


def cmd_simulate(args) -> int:
    ts = _sample_ts(args)
    samples = simulate(_build_linkage(args), ts)
    if args.format == "csv":
        _emit(serialize.samples_to_csv(samples), args.out)
    else:
        _emit(serialize.dump_json(serialize.samples_to_json(samples)), args.out)
    return 0


def _tol(args) -> float:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise KinematicsError(f"--tol must be a finite number above 0, got {args.tol!r}")
    return args.tol


def cmd_trace(args) -> int:
    ts = _sample_ts(args)
    linkage = _build_linkage(args)
    points = args.point or [(0.0, 0.0, 0.0)]
    reports = [trace_point(linkage, pt, ts) for pt in points]
    docs = [serialize.trajectory_to_json(r) for r in reports]
    _emit(serialize.dump_json(docs[0] if len(docs) == 1 else docs), args.out)
    return 0


def _generic_ts(args) -> List[float]:
    """Seeded generic parameter draws (uniform in the rotation angle).

    Instantaneous mobility is a statement about generic configurations;
    deterministic grids can land exactly on the isolated special postures
    of a kinematotropic linkage, where the rank legitimately drops.
    """
    if args.t_min is not None or args.t_max is not None:
        return _sample_ts(args)
    if args.samples < 1:
        raise KinematicsError("--samples must be at least 1")
    rng = random.Random(args.seed)
    return [math.tan(rng.uniform(-math.pi, math.pi) / 2) for _ in range(args.samples)]


def cmd_mobility(args) -> int:
    ts, tol = _generic_ts(args), _tol(args)
    reports = mobility_many(_build_linkage(args), ts, tol=tol)
    if args.format == "csv":
        _emit(serialize.mobility_to_csv(reports), args.out)
    else:
        _emit(serialize.dump_json([serialize.mobility_to_json(r) for r in reports]), args.out)
    return 0


def cmd_plot(args) -> int:
    ts = _sample_ts(args)
    if args.point and len(args.point) > 1:
        raise KinematicsError("plot overlays one orbit: give --point at most once")
    linkage = _build_linkage(args)
    point = args.point[0] if args.point else None
    svg = svgplot.render_linkage(linkage, ts, view=args.view, trace_point=point)
    _emit(svg, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darboux7r",
        description="Factor the general Darboux motion and analyze the resulting 7R linkages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="construct one factorization, emit JSON")
    p.add_argument("--type", choices=SINGLE_TYPES, required=True)
    _add_param_flags(p)
    _add_output_flags(p, ["json"])
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="check a factorization multiplies back exactly")
    p.add_argument("--type", choices=SINGLE_TYPES, default=None)
    _add_param_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--from-file", dest="from_file", default=None,
                        help="verify a stored factorization JSON")
    source.add_argument("--random", type=int, default=None, metavar="N",
                        help="verify N random parameter sets")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("linkage", help="build a closed 7R linkage, emit JSON with certificate")
    p.add_argument("--type", choices=PAIR_TYPES, default="FI+FIII")
    _add_param_flags(p)
    _add_output_flags(p, ["json"])
    p.set_defaults(func=cmd_linkage)

    p = sub.add_parser("simulate", help="sample closed configurations over a parameter range")
    p.add_argument("--type", choices=PAIR_TYPES, default="FI+FIII")
    _add_param_flags(p)
    _add_sampling_flags(p, default_samples=9)
    _add_output_flags(p, ["csv", "json"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="the exact conic orbit of a coupler point")
    p.add_argument("--type", choices=PAIR_TYPES, default="FI+FIII")
    _add_param_flags(p)
    _add_sampling_flags(p, default_samples=24)
    p.add_argument("--point", type=_point3, action="append", default=None, metavar="X,Y,Z")
    _add_output_flags(p, ["json"])
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("mobility", help="instantaneous mobility at sampled configurations")
    p.add_argument("--type", choices=PAIR_TYPES, default="FI+FIII")
    _add_param_flags(p)
    _add_sampling_flags(p, default_samples=10)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the default generic samples (ignored with --t-min/--t-max)")
    p.add_argument("--tol", type=float, default=1e-8, help="relative rank tolerance")
    _add_output_flags(p, ["json", "csv"])
    p.set_defaults(func=cmd_mobility)

    p = sub.add_parser("plot", help="render sampled configurations as an SVG grid")
    p.add_argument("--type", choices=PAIR_TYPES, default="FI+FIII")
    _add_param_flags(p)
    _add_sampling_flags(p, default_samples=9)
    p.add_argument("--view", choices=["xy", "xz", "yz"], default="xy")
    p.add_argument("--point", type=_point3, action="append", default=None, metavar="X,Y,Z",
                   help="overlay the orbit of this coupler point")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if problem := _flag_conflict(args):
        parser.error(problem)
    try:
        if args.command in EXACT_COMMANDS:
            return args.func(args)
        # A float lane sample beyond float64 would go on as inf and nan.
        with np.errstate(over="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(
            f"error: float64 overflow on the float lane ({exc}); use smaller parameters",
            file=sys.stderr,
        )
        return 2
    except (KinematicsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
