"""Minimal static SVG line plots (no renderer dependency, no numpy)."""

import math

from .errors import DomainError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 800, 600
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 780, 25, 555


def _spans(points):
    if not points:
        raise DomainError("there is no point to plot")
    xs, ys = zip(*points)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    # the largest products the pixel maps form: where both are finite and
    # nonzero, every point maps to a finite pixel
    products = ((_RIGHT - _LEFT) * (x1 - x0), (_BOTTOM - _TOP) * (y1 - y0))
    if not all(0.0 < p < math.inf for p in products):
        raise DomainError(
            f"cannot plot x over [{x0:.4g}, {x1:.4g}] and y over [{y0:.4g}, {y1:.4g}]: "
            "a span overflows or vanishes"
        )
    return x0, x1, y0, y1


def line_plot(series, x_label, y_label):
    """The lines of an SVG plot of polylines, each ending in a newline:
    their join is the SVG text.  series is [(label, [(x, y), ...]), ...]."""
    series = [(label, [(float(x), float(y)) for x, y in pts]) for label, pts in series]
    x0, x1, y0, y1 = _spans([p for _, pts in series for p in pts])

    def px(x):
        return _LEFT + (_RIGHT - _LEFT) * (x - x0) / (x1 - x0)

    def py(y):
        return _BOTTOM - (_BOTTOM - _TOP) * (y - y0) / (y1 - y0)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n',
        f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" stroke="black"/>\n',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" stroke="black"/>\n',
        f'<text x="{(_LEFT + _RIGHT) // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{x_label}</text>\n',
        f'<text x="18" y="{(_TOP + _BOTTOM) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 18 {(_TOP + _BOTTOM) // 2})">{y_label}</text>\n',
        f'<text x="{_LEFT}" y="{_BOTTOM + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x0:.4g}</text>\n',
        f'<text x="{_RIGHT}" y="{_BOTTOM + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x1:.4g}</text>\n',
        f'<text x="{_LEFT - 8}" y="{_BOTTOM + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y0:.4g}</text>\n',
        f'<text x="{_LEFT - 8}" y="{_TOP + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y1:.4g}</text>\n',
    ]
    if y0 < 0.0 < y1:
        zero = py(0.0)
        lines.append(
            f'<line x1="{_LEFT}" y1="{zero:.2f}" x2="{_RIGHT}" y2="{zero:.2f}" '
            'stroke="#999999" stroke-dasharray="5,4"/>\n'
        )
        lines.append(
            f'<text x="{_RIGHT - 4}" y="{zero - 5:.2f}" text-anchor="end" '
            'font-family="sans-serif" font-size="12" fill="#666666">0</text>\n'
        )
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>\n'
        )
        lines.append(
            f'<text x="{_RIGHT - 8}" y="{_TOP + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="{color}">{label}</text>\n'
        )
    lines.append("</svg>\n")
    return lines
