"""Deterministic SVG and ASCII output for partitions and quiver strips.

Circle diagrams put label 1 at the top and run clockwise; signed models
place the two centroid labels in the middle of the polygon.  Strips lay
the translation quiver out with mesh arrows pointing right and mark the
vertices of a descriptor.
"""

from .derived_engine import build_label_walk
from .ncp_models import DPartition, SetPartitionA
from .root_coxeter import InvalidInput, arrows

import math


class WindowTooLarge(InvalidInput):
    pass


class WrongModel(InvalidInput):
    pass


MAX_STRIP_COLUMNS = 200


def _fmt(x):
    return f"{x:.4f}"


def _svg(width, height, body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _circle_points(labels, radius, cx, cy):
    """Positions for labels placed clockwise starting at the top."""
    n = len(labels)
    out = {}
    for i, lab in enumerate(labels):
        theta = math.pi / 2 - 2 * math.pi * i / n
        out[lab] = (cx + radius * math.cos(theta), cy - radius * math.sin(theta))
    return out


def _chord_elements(points, members, fill):
    """Chord line for a pair, filled polygon for three or more points."""
    pts = [points[m] for m in members]
    if len(pts) < 2:
        return []
    if len(pts) == 2:
        (x1, y1), (x2, y2) = pts
        return [
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="1.5"/>'
        ]
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    style = 'fill="#9ecbff" fill-opacity="0.55"' if fill else 'fill="none"'
    return [
        f'<polygon points="{coords}" {style} stroke="black" stroke-width="1.5"/>'
    ]


def render_circle(p, kind=None, radius=80.0):
    """SVG chord diagram of a circular partition.

    The A model draws n boundary points; the D model draws the 2n-2
    boundary labels with the centroid labelled by the last pair and a
    +/- sign on the block owning it.  Model "A" takes a SetPartitionA
    and model "D" a DPartition; anything else raises WrongModel.
    """
    if kind is None:
        kind = "A" if isinstance(p, SetPartitionA) else "D"
    if not (kind == "A" and isinstance(p, SetPartitionA)
            or kind == "D" and isinstance(p, DPartition)):
        raise WrongModel(f"cannot draw a {type(p).__name__} as model {kind!r}")
    margin = 30.0
    cx = cy = radius + margin
    size = 2 * (radius + margin)
    body = []
    if kind == "A":
        labels = list(range(1, p.n + 1))
        points = _circle_points(labels, radius, cx, cy)
        blocks = [(b, None) for b in p.blocks]
    else:
        n = p.n
        labels = list(range(1, n)) + [-x for x in range(1, n)]
        points = _circle_points(labels, radius, cx, cy)
        points[n] = (cx, cy)
        points[-n] = (cx, cy)
        zero = p.zero_block
        blocks = []
        for b in p.blocks:
            sign = None
            if b != zero and n in b:
                sign = "+"
            elif b != zero and -n in b:
                sign = "-"
            blocks.append((b, sign))
    body.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for b, sign in sorted(blocks):
        ordered = [x for x in labels if x in b]
        ordered += [x for x in b if x not in ordered]
        body.extend(_chord_elements(points, ordered, fill=len(b) > 2))
        if sign is not None:
            bx = sum(points[m][0] for m in b) / len(b)
            by = sum(points[m][1] for m in b) / len(b)
            body.append(
                f'<text x="{_fmt(bx + 4)}" y="{_fmt(by - 4)}" font-size="11">{sign}</text>'
            )
    for lab in labels:
        x, y = points[lab]
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>'
        )
        lx = cx + (x - cx) * 1.16
        ly = cy + (y - cy) * 1.16
        body.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly + 3)}" font-size="10" '
            f'text-anchor="middle">{lab}</text>'
        )
    if kind != "A":
        body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="black"/>')
        body.append(
            f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" font-size="10">'
            f"{p.n}, {-p.n}</text>"
        )
    return _svg(size, size, body)


def _strip_geometry(delta, window):
    labeling = build_label_walk(delta)
    m_lo, m_hi = window
    if m_hi <= m_lo:
        raise ValueError("empty strip window")
    if m_hi - m_lo > MAX_STRIP_COLUMNS:
        raise WindowTooLarge(f"strip window wider than {MAX_STRIP_COLUMNS} columns")
    offs = labeling.slice_offsets
    verts = [
        (m, q)
        for m in range(m_lo, m_hi)
        for q in range(1, delta.rank + 1)
    ]
    xy = {(m, q): (2 * m - offs[q - 1], q) for (m, q) in verts}
    arrs = []
    for (m, q) in verts:
        for (x, y) in arrows(delta):
            if x == q and (m, y) in xy:
                arrs.append(((m, x), (m, y)))
            if y == q and (m + 1, x) in xy:
                arrs.append(((m, y), (m + 1, x)))
    return labeling, verts, xy, arrs


def render_ar_strip(desc, window, spacing=28.0, domain_width=None):
    """SVG strip of the translation quiver with marked vertices."""
    delta = desc.delta
    labeling, verts, xy, arrs = _strip_geometry(delta, window)
    xs = [x for x, _ in xy.values()]
    x_min = min(xs)
    margin = 26.0

    def pos(v):
        x, q = xy[v]
        return margin + (x - x_min) * spacing / 2, margin + (q - 1) * spacing

    body = []
    for (a, b) in sorted(arrs):
        (x1, y1), (x2, y2) = pos(a), pos(b)
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#888" stroke-width="1"/>'
        )
    if domain_width:
        m_lo, m_hi = window
        start = m_lo + (-m_lo) % domain_width
        for m in range(start, m_hi + 1, domain_width):
            x = margin + (2 * m - x_min) * spacing / 2
            y1 = margin - 14
            y2 = margin + delta.rank * spacing - 14
            body.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y1)}" x2="{_fmt(x)}" y2="{_fmt(y2)}" '
                'stroke="black" stroke-width="1" stroke-dasharray="4 3"/>'
            )
    for v in verts:
        x, y = pos(v)
        if desc.marked(labeling, *v):
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="black"/>')
        else:
            body.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="white" '
                'stroke="black" stroke-width="1"/>'
            )
    width = margin * 2 + (max(xs) - x_min) * spacing / 2
    height = margin * 2 + (delta.rank - 1) * spacing
    return _svg(width, height, body)


def ascii_ar_strip(desc, window):
    """Text strip: one row per vertex of the diagram, marks as 'O'."""
    delta = desc.delta
    labeling, verts, xy, _ = _strip_geometry(delta, window)
    xs = [x for x, _ in xy.values()]
    x_min, x_max = min(xs), max(xs)
    grid = [[" "] * (x_max - x_min + 1) for _ in range(delta.rank)]
    for v in verts:
        x, q = xy[v]
        grid[q - 1][x - x_min] = "O" if desc.marked(labeling, *v) else "."
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
