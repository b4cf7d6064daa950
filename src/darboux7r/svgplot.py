"""SVG rendering of linkage configurations.

Draws a grid of frames, one per parameter value, under an orthographic
projection (default: onto the xy plane, looking along the z axis).  In
each frame every joint axis is drawn as a segment about its point
nearest the origin; an axis parallel to the viewing direction projects
to a point and is drawn as a small circle instead.  The loop polyline
connects consecutive joint anchors, colored by chain, and an optional
traced point orbit is drawn behind the linkage.  One array pass over the
sampled axis lines (Samples.lines, the axes times n0 > 0) gives every
frame's anchors and directions, and projecting is indexing.  Each frame
maps its anchors and the orbit to the screen with one elementwise array
formula and formats the orbit's path with one %-template, so the text is
that of formatting each vertex alone.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ._numpy import np
from .darboux import t_grid
from .dualquat import vcross, vdot
from .errors import KinematicsError
from .linkage import Linkage, simulate
from .scalars import Scalar

# (u-axis, v-axis) as coordinate indices
_VIEWS = {
    "xy": (0, 1),
    "xz": (0, 2),
    "yz": (1, 2),
}

_CHAIN_COLORS = {"A": "#1f6fb4", "B": "#c44e52"}
_TRACE_COLOR = "#b0b0b0"
_AXIS_HALF_LENGTH_FRACTION = 0.22  # of the scene diameter
_VIEW_PARALLEL_TOL = 1e-9
_CELL = 260  # frame side in pixels
_TRACE_SAMPLES = 120  # vertices of the traced orbit
_TRACE_PATH = "M%.2f,%.2f" + " L%.2f,%.2f" * (_TRACE_SAMPLES - 1)


def _axis_screen_data(linkage: Linkage, ts: Sequence):
    """Anchors nearest the origin and unit directions of every joint axis, shape (3, len(ts), n)."""
    lines = np.moveaxis(simulate(linkage, ts).lines, -1, 0)
    d, m = lines[:3], lines[3:]
    n2 = vdot(d, d)  # |d| = n0 <= (t^2 + 1)^4: finite for |t| <= 1e16
    # as AxisLine.point_nearest_origin, but m, which grows with n0 too, is never multiplied by d
    return np.array(vcross(d / n2, m)), d / np.sqrt(n2)


def render_linkage(
    linkage: Linkage, ts: Sequence, view: str, trace_point: Optional[Sequence[Scalar]]
) -> str:
    """Render configurations at the given parameter values as an SVG grid."""
    if view not in _VIEWS:
        raise KinematicsError(f"unknown view {view!r}; expected one of xy, xz, yz")
    if len(ts) == 0:
        raise KinematicsError("need at least one parameter value to plot")

    uv = list(_VIEWS[view])
    anchors, dirs = _axis_screen_data(linkage, ts)
    anchors_uv = anchors[uv]  # (2, len(ts), n)
    du, dv = dirs[uv].tolist()
    colors = [_CHAIN_COLORS[joint.chain] for joint in linkage.joints]

    # Shared bounding box so all frames use one scale.
    box = anchors_uv.reshape(2, -1)
    trace_uv = None  # the orbit's projected coordinates, (2, _TRACE_SAMPLES)
    if trace_point is not None:
        trace_uv = linkage.product_a.orbit(trace_point, t_grid(_TRACE_SAMPLES))[:, uv].T
        box = np.hstack((box, trace_uv))
    (umin, vmin), (umax, vmax) = box.min(axis=1).tolist(), box.max(axis=1).tolist()
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

    n = len(ts)
    cols = min(n, max(1, math.ceil(math.sqrt(n))))
    rows = math.ceil(n / cols)
    width = cols * _CELL
    height = rows * _CELL

    def to_screen(u, v, col: int, row: int):
        # Float64 arrays, elementwise.  Center the scene in the cell; SVG y
        # grows downward.
        sx = col * _CELL + margin + (u - umin) * scale + (inner - (umax - umin) * scale) / 2
        sy = row * _CELL + margin + (vmax - v) * scale + (inner - (vmax - vmin) * scale) / 2
        return np.column_stack((sx, sy))

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    for idx, t in enumerate(ts):
        col = idx % cols
        row = idx // cols
        out.append(f'<g data-frame="{idx}">')
        out.append(
            f'<rect x="{col * _CELL + 1}" y="{row * _CELL + 1}" width="{_CELL - 2}" '
            f'height="{_CELL - 2}" fill="none" stroke="#dddddd"/>'
        )

        if trace_uv is not None:
            path = _TRACE_PATH % tuple(to_screen(*trace_uv, col, row).ravel().tolist())
            out.append(
                f'<path d="{path} Z" fill="none" stroke="{_TRACE_COLOR}" '
                f'stroke-width="1"/>'
            )

        # Loop polyline through consecutive anchors (links), colored by chain.
        screen = to_screen(*anchors_uv[:, idx], col, row).tolist()
        m = len(screen)
        for i in range(m):
            j = (i + 1) % m
            x1, y1 = screen[i]
            x2, y2 = screen[j]
            out.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{colors[j]}" stroke-width="1.5"/>'
            )

        for i, ((ax, ay), eu, ev) in enumerate(zip(screen, du[idx], dv[idx])):
            ln = math.hypot(eu, ev)
            if ln <= _VIEW_PARALLEL_TOL:
                out.append(
                    f'<circle cx="{ax:.2f}" cy="{ay:.2f}" r="4" fill="{colors[i]}"/>'
                )
            else:
                # unit in-view direction; world-length half_axis each way
                ex = eu / ln * half_axis * scale
                ey = -ev / ln * half_axis * scale
                out.append(
                    f'<line x1="{ax - ex:.2f}" y1="{ay - ey:.2f}" '
                    f'x2="{ax + ex:.2f}" y2="{ay + ey:.2f}" '
                    f'stroke="{colors[i]}" stroke-width="2.5"/>'
                )
            out.append(
                f'<text x="{ax + 6:.2f}" y="{ay - 6:.2f}" font-size="10" '
                f'fill="#333333">{i + 1}</text>'
            )

        out.append(
            f'<text x="{col * _CELL + 8}" y="{row * _CELL + 16}" font-size="11" '
            f'fill="#333333">t = {float(t):.4g}</text>'
        )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
