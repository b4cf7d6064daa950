"""Plane fitting, conic fitting, and trajectory classification (float lane).

A sampled space curve is first fit with a total-least-squares plane
(SVD of the centered samples), projected into that plane, and then fit
with a general conic A x^2 + B xy + C y^2 + D x + E y + F = 0 by taking
the smallest right singular vector of the design matrix.  Conic type
comes from the sign of B^2 - 4AC and the rank of the conic matrix; an
ellipse whose semi-axis ratio is within CIRCLE_RTOL of 1 counts as a
circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from ._numpy import np
from .errors import InsufficientSamples

# Defaults chosen so that an exactly planar, exactly conic float orbit
# classifies robustly: residuals are relative to the orbit diameter.
PLANE_RTOL = 1e-9
CIRCLE_RTOL = 1e-6
DEGENERATE_RTOL = 1e-12


class ConicClass(Enum):
    CIRCLE = "Circle"
    ELLIPSE = "Ellipse"
    PARABOLA = "Parabola"
    HYPERBOLA = "Hyperbola"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class PlaneFit:
    centroid: Tuple[float, float, float]
    normal: Tuple[float, float, float]
    basis_u: Tuple[float, float, float]
    basis_v: Tuple[float, float, float]
    residual: float  # max out-of-plane distance


@dataclass(frozen=True)
class ConicFit:
    coeffs: Tuple[float, float, float, float, float, float]
    kind: ConicClass
    semi_major: Optional[float]
    semi_minor: Optional[float]
    center: Optional[Tuple[float, float]]


@dataclass(frozen=True)
class TrajectoryReport:
    n_samples: int
    diameter: float
    plane: Optional[PlaneFit]
    plane_ok: bool
    conic: Optional[ConicFit]
    conic_class: ConicClass
    point: Optional[Tuple[float, float, float]] = None

    @property
    def plane_residual(self) -> float:
        return self.plane.residual if self.plane is not None else 0.0


def fit_plane(points: np.ndarray) -> PlaneFit:
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise InsufficientSamples("plane fit needs at least three samples")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    residual = float(np.max(np.abs(centered @ normal)))
    return PlaneFit(
        tuple(centroid), tuple(normal), tuple(vt[0]), tuple(vt[1]), residual
    )


def fit_conic(xy: np.ndarray) -> np.ndarray:
    """Least-squares general conic through 2D samples; returns [A,B,C,D,E,F]."""
    pts = np.asarray(xy, dtype=float)
    if pts.shape[0] < 6:
        raise InsufficientSamples("conic fit needs at least six samples")
    # Center and scale for conditioning; coefficients are mapped back below.
    mean = pts.mean(axis=0)
    scale = float(np.sqrt(((pts - mean) ** 2).sum(axis=1).mean()))
    if scale == 0:
        raise InsufficientSamples("conic fit needs spread-out samples")
    q = (pts - mean) / scale
    x, y = q[:, 0], q[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, _, vt = np.linalg.svd(design, full_matrices=False)
    a, b, c, d, e, f = vt[-1]
    # Undo the normalization u = (X - mx)/s, v = (Y - my)/s.
    s = scale
    mx, my = mean
    coeffs = np.array(
        [
            a / s**2,
            b / s**2,
            c / s**2,
            d / s - (2 * a * mx + b * my) / s**2,
            e / s - (2 * c * my + b * mx) / s**2,
            f
            + (a * mx * mx + b * mx * my + c * my * my) / s**2
            - (d * mx + e * my) / s,
        ]
    )
    n = np.linalg.norm(coeffs)
    return coeffs / n if n > 0 else coeffs


def classify_conic(coeffs: Sequence[float]) -> ConicFit:
    a, b, c, d, e, f = (float(v) for v in coeffs)
    norm = np.linalg.norm([a, b, c, d, e, f])
    if norm == 0:
        return ConicFit((a, b, c, d, e, f), ConicClass.DEGENERATE, None, None, None)
    a, b, c, d, e, f = (v / norm for v in (a, b, c, d, e, f))
    m33 = np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, f]])
    det33 = float(np.linalg.det(m33))
    disc = b * b - 4 * a * c
    if abs(det33) <= DEGENERATE_RTOL:
        return ConicFit((a, b, c, d, e, f), ConicClass.DEGENERATE, None, None, None)
    if abs(disc) <= DEGENERATE_RTOL:
        return ConicFit((a, b, c, d, e, f), ConicClass.PARABOLA, None, None, None)
    if disc > 0:
        return ConicFit((a, b, c, d, e, f), ConicClass.HYPERBOLA, None, None, None)
    det22 = a * c - b * b / 4
    cx, cy = np.linalg.solve([[a, b / 2], [b / 2, c]], [-d / 2, -e / 2])
    lams = np.linalg.eigvalsh([[a, b / 2], [b / 2, c]])
    vals = [-det33 / (det22 * lam) for lam in lams]
    if min(vals) <= 0:
        # Imaginary ellipse; cannot happen for a fit through real samples.
        return ConicFit((a, b, c, d, e, f), ConicClass.DEGENERATE, None, None, None)
    axes = sorted((float(np.sqrt(v)) for v in vals), reverse=True)
    kind = ConicClass.ELLIPSE
    if axes[1] > 0 and axes[0] / axes[1] - 1 <= CIRCLE_RTOL:
        kind = ConicClass.CIRCLE
    return ConicFit(
        (a, b, c, d, e, f), kind, axes[0], axes[1], (float(cx), float(cy))
    )


def trace_fit(
    points: Sequence[Sequence[float]],
    plane_rtol: float = PLANE_RTOL,
    moving_point: Optional[Tuple[float, float, float]] = None,
) -> TrajectoryReport:
    """Classify a sampled trajectory: plane fit, then in-plane conic fit."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 6:
        raise InsufficientSamples("trajectory classification needs at least six samples")
    centroid = pts.mean(axis=0)
    spread = np.linalg.norm(pts - centroid, axis=1)
    diameter = 2 * float(spread.max())
    # A fixed point orbits in a cloud of rounding noise; judge "no motion"
    # against the coordinate magnitude, not against exact zero.
    if diameter <= 1e-12 * (1.0 + float(np.linalg.norm(centroid))):
        return TrajectoryReport(
            n, diameter, None, True, None, ConicClass.DEGENERATE, moving_point
        )
    plane = fit_plane(pts)
    plane_ok = plane.residual <= plane_rtol * diameter
    centered = pts - np.asarray(plane.centroid)
    uv = np.column_stack(
        [centered @ np.asarray(plane.basis_u), centered @ np.asarray(plane.basis_v)]
    )
    # Collinear samples have no spread along the second in-plane direction.
    if float(np.abs(uv[:, 1]).max()) <= 1e-12 * diameter:
        return TrajectoryReport(
            n, diameter, plane, plane_ok, None, ConicClass.DEGENERATE, moving_point
        )
    conic = classify_conic(fit_conic(uv))
    return TrajectoryReport(
        n, diameter, plane, plane_ok, conic, conic.kind, moving_point
    )
