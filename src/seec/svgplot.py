"""Minimal static SVG line plots (no renderer dependency, no numpy)."""

import math

from .errors import DomainError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 800, 600
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 780, 25, 555


def _spans(x_columns, y_columns):
    xs = [(min(xs), max(xs)) for xs in x_columns if xs]
    ys = [(min(ys), max(ys)) for ys in y_columns if ys]
    x0, x1 = min(lo for lo, _ in xs), max(hi for _, hi in xs)
    y0, y1 = min(lo for lo, _ in ys), max(hi for _, hi in ys)
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


def line_plot(series, x_label, y_label, xs=None):
    """The lines of an SVG plot of polylines, each ending in a newline:
    their join is the SVG text.  series is [(label, values), ...]: given
    xs, the x values every series shares, values are a series' y values,
    one per x; without xs, values are its (x, y) pairs."""
    if xs is None:
        series = [(label, [float(x) for x, _ in pts], [float(y) for _, y in pts])
                  for label, pts in series]
        x_columns = [xs for _, xs, _ in series]
    else:
        series = [(label, xs, ys) for label, ys in series]
        x_columns = [xs]
    x0, x1, y0, y1 = _spans(x_columns, [ys for _, _, ys in series])

    # pixel coordinates of a list of data coordinates; the width and span
    # are bound once, since a call per point would double the plot's cost
    def px(xs):
        left, width, span = _LEFT, _RIGHT - _LEFT, x1 - x0
        return [left + width * (x - x0) / span for x in xs]

    def py(ys):
        bottom, height, span = _BOTTOM, _BOTTOM - _TOP, y1 - y0
        return tuple([bottom - height * (y - y0) / span for y in ys])

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
        (zero,) = py([0.0])
        lines.append(
            f'<line x1="{_LEFT}" y1="{zero:.2f}" x2="{_RIGHT}" y2="{zero:.2f}" '
            'stroke="#999999" stroke-dasharray="5,4"/>\n'
        )
        lines.append(
            f'<text x="{_RIGHT - 4}" y="{zero - 5:.2f}" text-anchor="end" '
            'font-family="sans-serif" font-size="12" fill="#666666">0</text>\n'
        )
    shared_xs = None
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        # one template for the whole polyline, its x pixels already written:
        # a format call per point costs more, and series that share their x
        # column share the template
        if xs is not shared_xs:
            shared_xs = xs
            template = " ".join(["%.2f,%%.2f" % x for x in px(xs)])
        coords = template % py(ys)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>\n'
        )
        lines.append(
            f'<text x="{_RIGHT - 8}" y="{_TOP + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="{color}">{label}</text>\n'
        )
    lines.append("</svg>\n")
    return lines
