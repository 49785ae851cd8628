"""Hand-emitted SVG scatter plots of complex roots.

No plotting dependency: a fixed 800x600 viewport, linear scaling computed
from the point bounding box, 2px dots, and an optional circle overlay (drawn
as an ellipse since the two axes may scale differently).  Output bytes are a
pure function of the input, so plots are reproducible.
"""

from __future__ import annotations

import html
import re
from typing import Sequence

WIDTH = 800
HEIGHT = 600
MARGIN = 60

#: A character outside XML 1.0's Char production: most C0 controls, lone
#: surrogates, U+FFFE and U+FFFF.  No escape can stand for one.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_scatter(
    points: Sequence[tuple[float, float]],
    circle: tuple[float, float, float] | None = None,
    title: str = "",
) -> str:
    """SVG scatter of (re, im) points; circle is (cx, cy, r) when given.
    Each character of the title that XML forbids becomes U+FFFD."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if circle is not None:
        cx, cy, r = circle
        xs += [cx - r, cx + r]
        ys += [cy - r, cy + r]
    if not xs:
        xs, ys = [-1.0, 1.0], [-1.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        # SVG y grows downward
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if x_lo < 0 < x_hi:
        out.append(
            f'<line x1="{_fmt(sx(0))}" y1="{MARGIN}" x2="{_fmt(sx(0))}" '
            f'y2="{HEIGHT - MARGIN}" stroke="#bbb" stroke-width="1"/>'
        )
    if y_lo < 0 < y_hi:
        out.append(
            f'<line x1="{MARGIN}" y1="{_fmt(sy(0))}" x2="{WIDTH - MARGIN}" '
            f'y2="{_fmt(sy(0))}" stroke="#bbb" stroke-width="1"/>'
        )
    if circle is not None:
        cx, cy, r = circle
        rx = r / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)
        ry = r / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)
        out.append(
            f'<ellipse cx="{_fmt(sx(cx))}" cy="{_fmt(sy(cy))}" rx="{_fmt(rx)}" '
            f'ry="{_fmt(ry)}" fill="none" stroke="#d33" stroke-width="1"/>'
        )
    for x, y in points:
        out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2" fill="#136"/>')
    # axis extent labels, then the title: (x, y, font size, fill, anchor, text)
    right = ' text-anchor="end"'
    labels = [
        (MARGIN, HEIGHT - MARGIN + 16, 11, "#444", "", _fmt(x_lo)),
        (WIDTH - MARGIN, HEIGHT - MARGIN + 16, 11, "#444", right, _fmt(x_hi)),
        (MARGIN - 4, HEIGHT - MARGIN, 11, "#444", right, _fmt(y_lo)),
        (MARGIN - 4, MARGIN + 10, 11, "#444", right, _fmt(y_hi)),
    ]
    if title:
        escaped = html.escape(_NOT_XML.sub("\ufffd", title), quote=False)
        labels.append((WIDTH // 2, MARGIN - 16, 14, "#222", ' text-anchor="middle"', escaped))
    for x, y, size, fill, anchor, text in labels:
        out.append(f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{anchor}>{text}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
