"""The stdlib reference: S_k, I3(k), eta0(n, m) and the Gauss-Hermite rule
of every order k <= 64, in ``decimal`` to REF_DIGITS correct digits, and
the Gauss-Legendre rules of the panel quadrature.

It shares no formula with the package's panel quadrature.  H_k(z) =
2^k prod (z - x_i) over its roots x_i, so

    I3(k) = int e^{-z^2} H_k^2 ln H_k^2 dz = 2k ln 2 N_k + sum_i J(x_i),
    J(x)  = int e^{-z^2} H_k(z)^2 ln (z - x)^2 dz,

with N_k = sqrt(pi) 2^k k!.  Expand H_k^2 = sum_r 2^r r! C(k, r)^2 H_{2k-2r}
in exact integers.  For j >= 1, parts give int e^{-z^2} H_j ln (z - x)^2 dz
= 2 Q_{j-1}(x), where Q_q(x) = PV int e^{-z^2} H_q(z) / (z - x) dz obeys

    Q_0 = -2 sqrt(pi) D(x),  Q_{q+1} = 2 sqrt(pi) [q = 0] + 2x Q_q - 2q Q_{q-1},

D being Dawson's integral; the j = 0 term is -sqrt(pi) (gamma + 2 ln 2)
+ 4 sqrt(pi) int_0^x D.  Then S_k = ln N_k + k + 1/2 - I3(k) / N_k.

The roots come from Newton's method on the recurrence in floats, started
from the usual asymptotic guesses and checked to interlace with the roots
of H_{k-1}, then polished by Halley's method in decimal; pi is the
``decimal`` documentation's series, and Euler's gamma is Brent and
McMillan's.  The sum over r cancels many digits at large k, so each
entropy is summed at two working precisions from the same inputs (the
roots, D and int D, whose series have terms of one sign), and the two sums
must agree to REF_DIGITS digits.

The Gauss-Legendre nodes are the roots of P_q, each polished by Newton's
method on Bonnet's recurrence from a float that an exact sign change of
P_q within 2 ulps of it certifies, and the weights are
2 / ((1 - x^2) P_q'(x)^2).

Imports nothing outside the standard library, so it runs where numpy
cannot be imported.  Run as a script, it prints k, S_k and I3(k) for
every order.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

N_MAX = 64
REF_DIGITS = 40  # correct significant digits of every value returned
_GUARD = 20  # more digits of the second, checking precision


def _working_precision(k):
    # the first of the two precisions
    return REF_DIGITS + 10 + k


# pi and gamma are computed once, at more digits than any sum uses
_TOP_PREC = _working_precision(N_MAX) + _GUARD + 10


def _rounded(value, prec):
    with localcontext() as ctx:
        ctx.prec = prec
        return +value


@lru_cache(maxsize=None)
def pi(prec):
    """pi to ``prec`` digits, by the recipe of the decimal documentation."""
    with localcontext() as ctx:
        ctx.prec = prec + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return _rounded(s, prec)


@lru_cache(maxsize=None)
def euler_gamma(prec):
    """Euler's gamma to ``prec`` digits by Brent and McMillan's algorithm
    B1, whose U/V is within about e^{-4n} of it."""
    n = math.ceil(prec * math.log(10.0) / 4.0) + 2
    with localcontext() as ctx:
        ctx.prec = prec + 10
        eps = Decimal(10) ** -(prec + 5)
        a = u = -Decimal(n).ln()
        b = v = Decimal(1)
        k = 0
        while k <= n or abs(a) > eps * abs(u) or b > eps * v:
            k += 1
            b = b * (n * n) / (k * k)
            a = (a * (n * n) / k + b) / k
            u += a
            v += b
        gamma = u / v
    return _rounded(gamma, prec)


def _hermite_pair(k, x):
    # (H_k(x), H_{k-1}(x)) by the three-term recurrence, in the current context
    h_prev, h = 0 * x, 1 + 0 * x
    for j in range(k):
        h_prev, h = h, 2 * x * h - 2 * j * h_prev
    return h, h_prev


@lru_cache(maxsize=None)
def _float_roots(k):
    # the k roots of H_k in floats, ascending: asymptotic guesses for the
    # largest roots and extrapolation inward (as in Numerical Recipes'
    # gauher), then Newton's method on the recurrence.  Checked to be
    # strictly increasing and to interlace with the roots of H_{k-1}
    positive = []
    z = 0.0
    for i in range(k // 2):
        if i == 0:
            z = math.sqrt(2 * k + 1) - 1.85575 * (2 * k + 1) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * k**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * positive[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * positive[1]
        else:
            z = 2.0 * z - positive[i - 2]
        for _ in range(100):
            h, h_prev = _hermite_pair(k, z)
            step = h / (2 * k * h_prev)
            z -= step
            if abs(step) <= 1e-15 * abs(z):
                break
        positive.append(z)
    roots = [-x for x in positive] + [0.0] * (k % 2) + positive[::-1]
    below = _float_roots(k - 1) if k > 1 else ()
    if not all(a < b for a, b in zip(roots, roots[1:])) or not all(
        a < c < b for a, b, c in zip(roots, roots[1:], below)
    ):
        raise ArithmeticError(f"the roots of H_{k} do not interlace with those of H_{k - 1}")
    return tuple(roots)


def _precise_root(k, z, prec):
    # the root of H_k by Halley's method from its float z > 0, which it must
    # stay by.  A step of size s leaves an error of about C s^3, with
    # C = (1 - k - x^2) / 3 at a root x, |C| < 70 here, so the iteration
    # stops once s^3 is below 10^-(prec + 4)
    with localcontext() as ctx:
        ctx.prec = prec + 5
        tiny = Decimal(10) ** -((prec + 4) // 3 + 1)
        x = Decimal(z)
        for _ in range(10):
            # H' = 2k H_{k-1} and H'' = 2x H' - 2k H
            h, h_prev = _hermite_pair(k, x)
            ratio = h / (2 * k * h_prev)
            step = ratio / (1 - ratio * (x - k * ratio))
            x -= step
            if abs(step) <= tiny:
                break
        if not (abs(step) <= tiny and abs(float(x) - z) <= 1e-13 * z):
            raise ArithmeticError(f"Halley's method did not converge on a root of H_{k}")
    return _rounded(x, prec)


def _dawson_pair(x, prec):
    # (D(x), int_0^x D) for x >= 0, from one series in u_j = x^{2j} / j!:
    #   D = x e^{-x^2} sum_{j>=0} u_j / (2j + 1),
    #   int_0^x D = e^{-x^2} / 2 sum_{j>=1} u_j h_j,  h_j = sum_{n<j} 1 / (2n + 1),
    # the second by integrating D's series e^{-t^2} t^{2n+1} term by term.
    # Every term is positive, so nothing cancels, and the sums run in binary
    # fixed point: integers in units of 2^-bits, each step truncated by at
    # most one unit, which the 10 extra digits absorb
    bits = math.ceil((prec + 10) * math.log2(10))
    one = 1 << bits
    with localcontext() as ctx:
        ctx.prec = prec + 10
        x2 = x * x
        x2_fixed = int(x2 * one)
    u = d_sum = h = one
    f_sum = j = 0
    while j < x2 or u > d_sum >> bits:
        j += 1
        u = (u * x2_fixed >> bits) // j
        d_sum += u // (2 * j + 1)
        f_sum += u * h >> bits
        h += one // (2 * j + 1)
    with localcontext() as ctx:
        ctx.prec = prec + 5
        gauss = (-x2).exp() / one
        return _rounded(x * gauss * d_sum, prec), _rounded(gauss * f_sum / 2, prec)


@lru_cache(maxsize=None)
def hermite_roots(k):
    """The k roots of H_k, ascending, as Decimals to the checking precision
    of order k, at least 70 digits."""
    prec = _working_precision(k) + _GUARD
    positive = [_precise_root(k, z, prec) for z in _float_roots(k)[(k + 1) // 2 :]]
    return tuple([-x for x in reversed(positive)] + [Decimal(0)] * (k % 2) + positive)


@lru_cache(maxsize=None)
def _inputs(k):
    # the non-negative roots of H_k, ascending, each with its (D, int D),
    # at the checking precision
    prec = _working_precision(k) + _GUARD
    return tuple((x, *_dawson_pair(x, prec)) for x in hermite_roots(k)[k // 2 :])


def gauss_hermite_weights(k):
    """The weights w_i = 2^{k-1} k! sqrt(pi) / (k H_{k-1}(x_i))^2 of the
    Gauss-Hermite rule of order k >= 1, at the roots of H_k, ascending in
    x_i, to the precision of the roots."""
    prec = _working_precision(k) + _GUARD
    with localcontext() as ctx:
        ctx.prec = prec + 5
        scale = (+pi(_TOP_PREC)).sqrt() * (math.factorial(k) << k) / 2
        # an even function of x_i: the non-negative roots fix it
        half = [
            _rounded(scale / (k * _hermite_pair(k - 1, x)[0]) ** 2, prec)
            for x in hermite_roots(k)[k // 2 :]
        ]
    mirror = half[:0:-1] if k % 2 else half[::-1]
    return tuple(mirror + half)


def _legendre_pair(q, x):
    # (P_q(x), P_{q-1}(x)) by Bonnet's recurrence
    # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, in the current context
    p_prev, p = 0 * x, 1 + 0 * x
    for j in range(q):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


def _legendre_sign(q, x):
    # the sign of P_q at the rational x = num / den, exactly: the integers
    # Q_j = j! den^j P_j(x) obey Q_{j+1} = (2j + 1) num Q_j - j^2 den^2 Q_{j-1}
    num, den = x.numerator, x.denominator
    q_prev, q_j = 1, num
    for j in range(1, q):
        q_prev, q_j = q_j, (2 * j + 1) * num * q_j - j * j * den * den * q_prev
    return (q_j > 0) - (q_j < 0)


def legendre_rule(q, starts):
    """The non-negative nodes of the Gauss-Legendre rule of even order q
    on [-1, 1], ascending, and their weights, as two tuples of Decimals to
    about 50 digits, from ``starts``, a float near each node.

    P_q changes sign, exactly, between each start -+ 2 ulps, and these
    q / 2 brackets are disjoint and positive, so with their mirrors they
    hold all q roots of P_q, one each.  Newton's method polishes each root
    from its start, and must end inside the bracket."""
    if q % 2 or len(starts) != q // 2:
        raise ValueError(f"expected {q // 2} starts for an even order, got {len(starts)}")
    nodes, weights = [], []
    below = Fraction(0)
    for start in starts:
        two_ulps = 2 * Fraction(math.ulp(start))
        lo, hi = Fraction(start) - two_ulps, Fraction(start) + two_ulps
        if not (below < lo and _legendre_sign(q, lo) * _legendre_sign(q, hi) < 0):
            raise ArithmeticError(f"no root of P_{q} is certified within 2 ulps of {start}")
        below = hi
        with localcontext() as ctx:
            # Newton's error squares each step: a step below 10^-30 leaves
            # one far below 10^-50
            ctx.prec = 60
            tiny = Decimal(10) ** -30
            x = Decimal(start)
            for _ in range(10):
                # (x^2 - 1) P_q' = q (x P_q - P_{q-1})
                p, p_prev = _legendre_pair(q, x)
                step = p * (1 - x * x) / (q * (p_prev - x * p))
                x -= step
                if abs(step) <= tiny:
                    break
            if not (abs(step) <= tiny and lo < Fraction(x) < hi):
                raise ArithmeticError(f"Newton's method left the bracket of P_{q} at {start}")
            p, p_prev = _legendre_pair(q, x)
            derivative = q * (p_prev - x * p) / (1 - x * x)
            weights.append(2 / ((1 - x * x) * derivative * derivative))
        nodes.append(x)
    return tuple(nodes), tuple(weights)


def _entropy_and_i3(k, prec):
    # (S_k, I3(k)) summed at ``prec`` digits from the inputs rounded to it
    with localcontext() as ctx:
        ctx.prec = prec
        sqrt_pi = (+pi(_TOP_PREC)).sqrt()
        ln2 = Decimal(2).ln()
        t0 = -sqrt_pi * (+euler_gamma(_TOP_PREC) + 2 * ln2)
        norm = sqrt_pi * (math.factorial(k) << k)
        # H_k^2 = sum_r c_r H_{2k-2r}, c_r = 2^r r! C(k, r)^2
        coefficients = [math.factorial(r) * math.comb(k, r) ** 2 << r for r in range(k + 1)]
        i3 = 2 * k * ln2 * norm
        for x, dawson, dawson_integral in _inputs(k):
            x, dawson, dawson_integral = +x, +dawson, +dawson_integral
            # T_j = int e^{-z^2} H_j ln (z - x)^2: T_0 as above, and
            # T_j = 2 Q_{j-1} for j >= 1
            t = [t0 + 4 * sqrt_pi * dawson_integral]
            q_prev, q = None, -2 * sqrt_pi * dawson
            for j in range(2 * k):
                t.append(2 * q)
                q_prev, q = q, (2 * sqrt_pi if j == 0 else -2 * j * q_prev) + 2 * x * q
            j_x = sum(c * t_j for c, t_j in zip(coefficients, t[::-2]))
            # J(-x) = J(x): each positive root stands for its mirror too
            i3 += 2 * j_x if x > 0 else j_x
        return norm.ln() + k + Decimal("0.5") - i3 / norm, i3


@lru_cache(maxsize=None)
def _sums(k):
    # (S_k, I3(k)) at the working precision and at the checking precision
    prec = _working_precision(k)
    return _entropy_and_i3(k, prec), _entropy_and_i3(k, prec + _GUARD)


def agreement(k):
    """The digits to which the two precisions agree on S_k and on I3(k),
    relative to max(1, |value|): the lesser of the two."""
    low, high = _sums(k)
    with localcontext() as ctx:
        ctx.prec = 10
        gaps = [abs(a - b) / max(1, abs(b)) for a, b in zip(low, high)]
        return min(math.inf if gap == 0 else -float(gap.log10()) for gap in gaps)


@lru_cache(maxsize=None)
def _checked(k):
    # (S_k, I3(k)) at the checking precision rounded to REF_DIGITS, once
    # the two precisions agree that far
    if agreement(k) < REF_DIGITS:
        raise ArithmeticError(f"order {k} has not converged: {_sums(k)}")
    return tuple(_rounded(value, REF_DIGITS) for value in _sums(k)[1])


def entropy(k):
    """S_k = -int psi_k^2 ln psi_k^2 for 0 <= k <= 64, to REF_DIGITS digits."""
    return _checked(k)[0]


def entropy_integral(k):
    """I3(k) = int e^{-z^2} H_k^2 ln H_k^2 dz for 0 <= k <= 64, to
    REF_DIGITS digits relative to max(1, |I3(k)|)."""
    return _checked(k)[1]


def threshold(n, m):
    """eta0(n, m) = (S_n - S_0) + (S_m - S_0), to REF_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = REF_DIGITS + 5
        return _rounded((entropy(n) - entropy(0)) + (entropy(m) - entropy(0)), REF_DIGITS)


def ulps(value, exact):
    """(value - exact) in units of the last place of the float ``value``."""
    return float((Decimal(value) - exact) / Decimal(math.ulp(value)))


if __name__ == "__main__":
    for k in range(N_MAX + 1):
        print(k, entropy(k), entropy_integral(k))
