"""SVG rendering of linkage configurations.

Draws a grid of frames, one per parameter value, under an orthographic
projection (default: onto the xy plane, looking along the z axis).  In
each frame every joint axis is drawn as a segment about its point
nearest the origin; an axis parallel to the viewing direction projects
to a point and is drawn as a small circle instead.  The loop polyline
connects consecutive joint anchors, colored by chain, and an optional
traced point orbit is drawn behind the linkage.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ._numpy import np
from .darboux import t_grid
from .errors import KinematicsError
from .linkage import Linkage, axes_many

# (u-axis, v-axis, view direction) as coordinate indices
_VIEWS = {
    "xy": (0, 1, 2),
    "xz": (0, 2, 1),
    "yz": (1, 2, 0),
}

_CHAIN_COLORS = {"A": "#1f6fb4", "B": "#c44e52"}
_TRACE_COLOR = "#b0b0b0"
_AXIS_HALF_LENGTH_FRACTION = 0.22  # of the scene diameter
_VIEW_PARALLEL_TOL = 1e-9
_CELL = 260  # frame side in pixels
_TRACE_SAMPLES = 120  # vertices of the traced orbit


def _project(point: Sequence[float], view: str) -> Tuple[float, float]:
    iu, iv, _ = _VIEWS[view]
    return (float(point[iu]), float(point[iv]))


def _axis_screen_data(linkage: Linkage, ts: Sequence):
    """Anchor points nearest the origin and unit directions of every joint axis, per t."""
    axes = axes_many(linkage, ts)
    d, m = axes[..., :3], axes[..., 3:]
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    n2 = (d0 * d0 + d1 * d1 + d2 * d2)[..., None]
    # d x m / |d|^2, as AxisLine.point_nearest_origin
    anchors = np.stack((d1 * m2 - d2 * m1, d2 * m0 - d0 * m2, d0 * m1 - d1 * m0), axis=-1) / n2
    return anchors.tolist(), (d / np.sqrt(n2)).tolist()


def _is_view_parallel(direction: Tuple[float, float, float], view: str) -> bool:
    iu, iv, _ = _VIEWS[view]
    return math.hypot(direction[iu], direction[iv]) <= _VIEW_PARALLEL_TOL


def render_linkage(
    linkage: Linkage,
    ts: Sequence,
    view: str = "xy",
    trace_point: Optional[Tuple[float, float, float]] = None,
) -> str:
    """Render configurations at the given parameter values as an SVG grid."""
    if view not in _VIEWS:
        raise KinematicsError(f"unknown view {view!r}; expected one of xy, xz, yz")
    if not ts:
        raise KinematicsError("need at least one parameter value to plot")

    frames = list(zip((float(t) for t in ts), *_axis_screen_data(linkage, ts)))

    trace_pts: List[List[float]] = []
    if trace_point is not None:
        trace_pts = linkage.product_a.orbit(trace_point, t_grid(_TRACE_SAMPLES)).tolist()

    # Shared bounding box so all frames use one scale.
    pts2: List[Tuple[float, float]] = []
    for _, anchors, _ in frames:
        pts2.extend(_project(p, view) for p in anchors)
    pts2.extend(_project(p, view) for p in trace_pts)
    us = [p[0] for p in pts2]
    vs = [p[1] for p in pts2]
    umin, umax = min(us), max(us)
    vmin, vmax = min(vs), max(vs)
    diam = math.hypot(umax - umin, vmax - vmin)
    if diam == 0.0:
        diam = 1.0
    half_axis = _AXIS_HALF_LENGTH_FRACTION * diam
    # Leave room for axis segments extending past the anchors.
    umin -= half_axis
    umax += half_axis
    vmin -= half_axis
    vmax += half_axis

    margin = 0.07 * _CELL
    inner = _CELL - 2 * margin
    span = max(umax - umin, vmax - vmin)
    scale = inner / span

    n = len(frames)
    cols = min(n, max(1, math.ceil(math.sqrt(n))))
    rows = math.ceil(n / cols)
    width = cols * _CELL
    height = rows * _CELL

    def to_screen(p3, col: int, row: int) -> Tuple[float, float]:
        u, v = _project(p3, view)
        # center the scene in the cell; SVG y grows downward
        sx = col * _CELL + margin + (u - umin) * scale + (inner - (umax - umin) * scale) / 2
        sy = row * _CELL + margin + (vmax - v) * scale + (inner - (vmax - vmin) * scale) / 2
        return (sx, sy)

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    for idx, (t, anchors, dirs) in enumerate(frames):
        col = idx % cols
        row = idx // cols
        out.append(f'<g data-frame="{idx}">')
        out.append(
            f'<rect x="{col * _CELL + 1}" y="{row * _CELL + 1}" width="{_CELL - 2}" '
            f'height="{_CELL - 2}" fill="none" stroke="#dddddd"/>'
        )

        if trace_pts:
            path = " ".join(
                ("M" if i == 0 else "L")
                + "{:.2f},{:.2f}".format(*to_screen(p, col, row))
                for i, p in enumerate(trace_pts)
            )
            out.append(
                f'<path d="{path} Z" fill="none" stroke="{_TRACE_COLOR}" '
                f'stroke-width="1"/>'
            )

        # Loop polyline through consecutive anchors (links), colored by chain.
        m = len(anchors)
        for i in range(m):
            j = (i + 1) % m
            x1, y1 = to_screen(anchors[i], col, row)
            x2, y2 = to_screen(anchors[j], col, row)
            chain = linkage.joints[j].chain
            color = _CHAIN_COLORS.get(chain, "#444444")
            out.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )

        for i in range(m):
            chain = linkage.joints[i].chain
            color = _CHAIN_COLORS.get(chain, "#444444")
            ax, ay = to_screen(anchors[i], col, row)
            d = dirs[i]
            if _is_view_parallel(d, view):
                out.append(
                    f'<circle cx="{ax:.2f}" cy="{ay:.2f}" r="4" fill="{color}"/>'
                )
            else:
                iu, iv, _ = _VIEWS[view]
                du, dv = d[iu], d[iv]
                ln = math.hypot(du, dv)
                # unit in-view direction; world-length half_axis each way
                ex = du / ln * half_axis * scale
                ey = -dv / ln * half_axis * scale
                out.append(
                    f'<line x1="{ax - ex:.2f}" y1="{ay - ey:.2f}" '
                    f'x2="{ax + ex:.2f}" y2="{ay + ey:.2f}" '
                    f'stroke="{color}" stroke-width="2.5"/>'
                )
            out.append(
                f'<text x="{ax + 6:.2f}" y="{ay - 6:.2f}" font-size="10" '
                f'fill="#333333">{i + 1}</text>'
            )

        out.append(
            f'<text x="{col * _CELL + 8}" y="{row * _CELL + 16}" font-size="11" '
            f'fill="#333333">t = {t:.4g}</text>'
        )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
