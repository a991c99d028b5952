"""Independent brute-force oracles for the test suite.

Deliberately separate from the package's own quadrature code: uniform
panels here (no root splitting), loops instead of broadcasting.  The
exact entropies, roots and weights come from the stdlib reference in
reference.py.
Expected constants frozen in the tests were computed with 40-digit
arithmetic.
"""

import math

import numpy as np


def leggauss(order):
    """numpy's Gauss-Legendre rule on [-1, 1]: the reference for the
    package's frozen tables of orders 32, 48 and 96, its only panel
    orders, and the base rule of any other order a test integrates at."""
    return np.polynomial.legendre.leggauss(order)


def hermite_polynomial(k, z):
    """H_k(z) by numpy's Hermite series evaluation."""
    return np.polynomial.hermite.hermval(z, [0.0] * k + [1.0])


def log_hermite_function(k, a):
    """(ln |psi_k(a)|, sign psi_k(a)) of the normalized Hermite function
    psi_k = c_k e^{-a^2/2} H_k, summed in the log domain,
    ln c_k - a^2/2 + ln |H_k(a)|, with H_k from hermite_polynomial, so that
    no factor underflows before the product is formed."""
    a = np.asarray(a, dtype=float)
    h = hermite_polynomial(k, a)
    ln_c = -0.5 * (0.5 * math.log(math.pi) + math.lgamma(k + 1.0) + k * math.log(2.0))
    with np.errstate(divide="ignore"):
        return ln_c - 0.5 * a * a + np.log(np.abs(h)), np.sign(h)


def uniform_panel_integral(f, a, b, panels=64, order=24):
    """Composite Gauss-Legendre on equal panels (no singularity handling)."""
    base_x, base_w = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(base_w, f(mid + half * base_x)))
    return total


def density_entropy(density, a, b, panels=128, order=24):
    """-integral of p ln p, with 0 ln 0 continued by zero."""

    def integrand(u):
        p = np.asarray(density(u), dtype=float)
        out = np.zeros_like(p)
        mask = p > 0.0
        out[mask] = -p[mask] * np.log(p[mask])
        return out

    return uniform_panel_integral(integrand, a, b, panels=panels, order=order)


def gauss_entropy(sigma2):
    """Differential entropy of a normal density with variance sigma2."""
    return 0.5 * math.log(2.0 * math.pi * math.e * sigma2)


def panel_rule_loop(order, boundaries):
    """(nodes, weights) of the composite Gauss-Legendre rule built one
    panel at a time: the reference for the broadcast panel rule."""
    base_x, base_w = leggauss(order)
    boundaries = tuple(float(b) for b in boundaries)
    nodes = np.empty((len(boundaries) - 1) * order)
    weights = np.empty_like(nodes)
    for i, (a, b) in enumerate(zip(boundaries, boundaries[1:])):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes[i * order : (i + 1) * order] = mid + half * base_x
        weights[i * order : (i + 1) * order] = half * base_w
    return nodes, weights


def entropy_panel_layout_loop(n, roots, max_width=2.0):
    """The whole-line entropy panel layout built point by point from the
    roots of H_n, graded toward each root by a ratio of 8 in three levels,
    and gaps wider than ``max_width`` split from their left end on both
    sides of 0, so not mirror-exact at every order."""
    cut = math.sqrt(2.0 * n + 1.0) + 10.0
    raw = [-cut, *(float(x) for x in roots), cut]
    boundaries = [-cut]
    last = len(raw) - 2
    for i, (a, b) in enumerate(zip(raw, raw[1:])):
        mid = 0.5 * (a + b)
        if i > 0:  # left end is a root: grade away from it
            boundaries.extend(a + (mid - a) * 8.0 ** (-j) for j in range(3, -1, -1))
        else:
            boundaries.append(mid)
        if i < last:  # right end is a root: grade toward it
            boundaries.extend(b - (b - mid) * 8.0 ** (-j) for j in range(1, 4))
        boundaries.append(b)
    refined = []
    for a, b in zip(boundaries, boundaries[1:]):
        pieces = max(1, math.ceil((b - a) / max_width))
        refined.extend(a + (b - a) * j / pieces for j in range(pieces))
    refined.append(cut)
    return tuple(refined)


def entropy_panel_boundaries_loop(n, roots, max_width=2.0):
    """Entropy panel boundaries: the z >= 0 half of the whole-line layout,
    from its edge at 0: the reference for the array construction."""
    return tuple(b for b in entropy_panel_layout_loop(n, roots, max_width) if b >= 0.0)


def whole_line(half):
    """The mirror-exact whole line of a z >= 0 half that starts at 0: the
    half negated in reverse order below 0, then the half itself."""
    return np.concatenate((-half[:0:-1], half))


def hermite_pair_allocating(n, z):
    """(H_n, H_{n-1}) by the recurrence written as one expression per step,
    a new array each: the reference for the in-place kernel."""
    h_prev, h = np.ones_like(z), 2.0 * z
    if n == 0:
        return h_prev, np.zeros_like(z)
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - (2.0 * k) * h_prev, h
    return h, h_prev


def entropy_sum_allocating(n, nodes, weights):
    """-sum w p ln p with p = psi_n^2, continued by 0 where p is 0, with
    psi_n by the normalized recurrence psi_0 = pi^{-1/4} e^{-z^2/2},
    psi_{j+1} = sqrt(2/(j+1)) (z psi_j) - sqrt(j/(j+1)) psi_{j-1}, one
    expression per step and a new array each; nodes and weights hold one
    panel per row, each summed on its own and the panel sums by fsum: the
    reference for the entropy quadrature's sum."""
    psi_prev, psi = np.zeros_like(nodes), np.exp(-0.5 * (nodes * nodes)) * 0.75112554446494248286
    for j in range(n):
        step = math.sqrt(2.0 / (j + 1)) * (nodes * psi) - math.sqrt(j / (j + 1)) * psi_prev
        psi_prev, psi = psi, step
    p = psi * psi
    terms = np.log(np.where(p > 0.0, p, 1.0)) * p * weights
    return -math.fsum(float(np.add.reduce(row)) for row in np.atleast_2d(terms))
