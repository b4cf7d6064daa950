"""Outside-in tracing of the darboux7r layers.

The tracer wraps public functions of each module from outside the
package and records, per span, the self time (duration minus the
durations of child spans) and the call count.  Spans of the algebra
layers are split by scalar lane:

- ``exact``: every coefficient and argument is int or Fraction;
- ``float``: all of them are float;
- ``mixed``: exact coefficients meet a float argument, which is the float
  lane running over an exact loop's Fractions.

The lane is decided from the public ``is_float()`` methods and
``scalars.is_exact`` only, and the wrapped call's result is returned
unchanged.  A module-level function is patched in every ``darboux7r``
module namespace that bound it (``from .x import f`` copies the
reference), so no caller bypasses its span.  A target that no longer
exists is reported as absent.  ``restore()`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from darboux7r.scalars import is_exact

LANES = ("exact", "mixed", "float")

# (module, attribute path, span name, split by lane)
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("darboux7r.cli", "main", "cli.main", False),
    ("darboux7r.darboux", "factor_fi", "darboux.factor_fi", False),
    ("darboux7r.darboux", "factor_fii", "darboux.factor_fii", False),
    ("darboux7r.darboux", "factor_fiii", "darboux.factor_fiii", False),
    ("darboux7r.darboux", "derive_fi", "darboux.derive_fi", False),
    ("darboux7r.darboux", "derive_fiii", "darboux.derive_fiii", False),
    ("darboux7r.motionpoly", "MotionPoly.__mul__", "motionpoly.mul", True),
    ("darboux7r.motionpoly", "MotionPoly.divmod_right", "motionpoly.divmod_right", True),
    ("darboux7r.motionpoly", "MotionPoly.eval", "motionpoly.eval", True),
    ("darboux7r.dualquat", "DualQuaternion.__mul__", "dualquat.mul", True),
    ("darboux7r.dualquat", "DualQuaternion.act", "dualquat.act", True),
    ("darboux7r.dualquat", "transform_axis", "dualquat.transform_axis", True),
    ("darboux7r.linkage", "build_linkage", "linkage.build_linkage", False),
    ("darboux7r.linkage", "simulate", "linkage.simulate", False),
    ("darboux7r.linkage", "mobility_at", "linkage.mobility_at", False),
    ("darboux7r.linkage", "trace_point", "linkage.trace_point", False),
    ("darboux7r.linkage", "substructure_report", "linkage.substructure_report", False),
    ("darboux7r.linkage", "axes_at", "linkage.axes_at", False),
    ("darboux7r.conics", "trace_fit", "conics.trace_fit", False),
    ("darboux7r.serialize", "linkage_to_json", "serialize.linkage_to_json", False),
    ("darboux7r.serialize", "factorization_from_json", "serialize.factorization_from_json", False),
    ("darboux7r.serialize", "samples_to_csv", "serialize.samples_to_csv", False),
    ("darboux7r.serialize", "mobility_to_csv", "serialize.mobility_to_csv", False),
    ("darboux7r.serialize", "trajectory_to_json", "serialize.trajectory_to_json", False),
    ("darboux7r.serialize", "dump_json", "serialize.dump_json", False),
    ("darboux7r.svgplot", "render_linkage", "svgplot.render_linkage", False),
)

# Spans whose results are factorizations; they feed motionpoly.max_coeff_bits.
FACTORIZING = {"darboux.factor_fi", "darboux.factor_fii", "darboux.factor_fiii",
               "darboux.derive_fi", "darboux.derive_fiii"}


def span_keys() -> List[str]:
    """Every span key the tracer reports, lane-split spans once per lane."""
    keys = []
    for _, _, span, by_lane in TARGETS:
        if by_lane:
            keys.extend(f"{span}.{lane}" for lane in LANES)
        else:
            keys.append(span)
    return keys


def _kind(x: Any) -> str:
    """'exact' or 'float' for one operand: an algebra object, a line, or scalars."""
    is_float = getattr(x, "is_float", None)
    if is_float is not None:
        return "float" if is_float() else "exact"
    if hasattr(x, "direction") and hasattr(x, "moment"):
        values = tuple(x.direction) + tuple(x.moment)
    elif isinstance(getattr(x, "coeffs", None), tuple):  # real polynomial
        values = x.coeffs
    elif isinstance(x, (tuple, list)):
        values = x
    else:
        values = (x,)
    return "exact" if all(is_exact(v) for v in values) else "float"


def lane_of(args: Tuple) -> str:
    kinds = {_kind(a) for a in args}
    return kinds.pop() if len(kinds) == 1 else "mixed"


def coeff_bits(factorization: Any) -> int:
    """Largest numerator or denominator bit length over a factorization's factors."""
    bits = 0
    for factor in getattr(factorization, "factors", ()):
        for dq in factor.coeffs:
            for v in dq.coeffs():
                if is_exact(v):
                    v = Fraction(v)
                    bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _package_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "darboux7r" or name.startswith("darboux7r."))]


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {k: [0.0, 0] for k in span_keys()}
        self.absent: List[str] = []
        self.max_coeff_bits = 0
        self.patched: List[Tuple[Any, str, Any, bool]] = []  # owner, name, original, own attr
        self._stack: List[float] = []  # child time of each open span
        self._paused = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for module_name, path, span, by_lane in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            after = self._record_bits if span in FACTORIZING else None
            wrapper = self._wrap(original, span, by_lane, after)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def restore(self) -> None:
        while self.patched:
            owner, name, original, own = self.patched.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside count in no span, such as the benchmark's own checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Callable) -> None:
        own = not isinstance(owner, type) or name in vars(owner)
        self.patched.append((owner, name, original, own))
        setattr(owner, name, wrapper)

    def _record_bits(self, result: Any) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, coeff_bits(result))

    def _wrap(self, fn: Callable, span: str, by_lane: bool,
              after: Optional[Callable[[Any], None]]) -> Callable:
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            t0 = clock()
            key = f"{span}.{lane_of(args)}" if by_lane else span
            stack.append(0.0)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                rec = stats[key]
                rec[0] += t2 - t1 - stack.pop()
                rec[1] += 1
                if stack:
                    # The lane decision is tracer cost: counted in no span.
                    stack[-1] += t2 - t0
            if after is not None:
                t3 = clock()
                after(result)
                if stack:
                    stack[-1] += clock() - t3
            return result

        return wrapper
