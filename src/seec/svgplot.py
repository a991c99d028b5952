"""Minimal static SVG line plots (no renderer dependency)."""

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 800, 600
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 780, 25, 555


def _spans(series):
    xs = np.concatenate([pts[:, 0] for _, pts in series])
    ys = np.concatenate([pts[:, 1] for _, pts in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def line_plot(series, x_label, y_label):
    """SVG text for polylines; series is [(label, pts), ...] with pts an
    (N, 2) array or a sequence of (x, y) pairs."""
    series = [(label, np.asarray(pts, dtype=np.float64)) for label, pts in series]
    x0, x1, y0, y1 = _spans(series)

    def px(x):
        return _LEFT + (_RIGHT - _LEFT) * (x - x0) / (x1 - x0)

    def py(y):
        return _BOTTOM - (_BOTTOM - _TOP) * (y - y0) / (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" stroke="black"/>',
        f'<text x="{(_LEFT + _RIGHT) // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{x_label}</text>',
        f'<text x="18" y="{(_TOP + _BOTTOM) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 18 {(_TOP + _BOTTOM) // 2})">{y_label}</text>',
        f'<text x="{_LEFT}" y="{_BOTTOM + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x0:.4g}</text>',
        f'<text x="{_RIGHT}" y="{_BOTTOM + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x1:.4g}</text>',
        f'<text x="{_LEFT - 8}" y="{_BOTTOM + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y0:.4g}</text>',
        f'<text x="{_LEFT - 8}" y="{_TOP + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y1:.4g}</text>',
    ]
    if y0 < 0.0 < y1:
        zero = py(0.0)
        parts.append(
            f'<line x1="{_LEFT}" y1="{zero:.2f}" x2="{_RIGHT}" y2="{zero:.2f}" '
            'stroke="#999999" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{_RIGHT - 4}" y="{zero - 5:.2f}" text-anchor="end" '
            'font-family="sans-serif" font-size="12" fill="#666666">0</text>'
        )
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = px(pts[:, 0]).tolist(), py(pts[:, 1]).tolist()
        coords = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{_RIGHT - 8}" y="{_TOP + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
