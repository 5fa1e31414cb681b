"""Real spherical harmonics as rational expressions on stereographic charts.

On the quadrature convention of this package, chart 'a' is centred at the
cos(theta) = +1 pole and chart 'b' (w = 1/z) at the opposite pole, so

    cos(theta) = (1 - |z|^2)/(1 + |z|^2)        on chart a,
    sin(theta)^m e^{i m phi} = (2/(1+|z|^2))^m z^m,

and on chart b the same expressions with w and conjugated angular factor.
Everything is plain arithmetic, so the harmonics evaluate over jets and
provide exact chart-coordinate derivatives.
"""

import math

import numpy as np


def _legendre_q(L, c):
    """Q[l][m] = P_l^m(c) / sin(theta)^m as polynomials in c (no
    Condon-Shortley phase), for 0 <= m <= l <= L."""
    Q = [[None] * (L + 1) for _ in range(L + 1)]
    Q[0][0] = 1.0 + 0.0 * c
    for m in range(1, L + 1):
        Q[m][m] = (2 * m - 1) * Q[m - 1][m - 1]
    for m in range(L):
        Q[m + 1][m] = (2 * m + 1) * c * Q[m][m]
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            Q[l][m] = ((2 * l - 1) * c * Q[l - 1][m]
                       - (l + m - 1) * Q[l - 2][m]) / (l - m)
    return Q


def _norms(L):
    N = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        for m in range(l + 1):
            N[l, m] = math.sqrt((2 * l + 1) / (4 * math.pi)
                                * math.factorial(l - m) / math.factorial(l + m))
    return N


def real_harmonics(chart, u, L):
    """All real harmonics with degree <= L at chart coordinates u.

    Returns a list ordered by (l, m), m = -l..l, of ring elements; u is a
    pair of ring elements (floats, arrays or jets).
    """
    x, y = u[0], u[1]
    r2 = x * x + y * y
    q = 1.0 + r2
    c = (1.0 - r2) / q if chart == "a" else (r2 - 1.0) / q
    t = 2.0 / q
    Q = _legendre_q(L, c)
    N = _norms(L)
    # powers of z (chart a) or conj(w) (chart b), times (2/q)^m
    sr, si = [1.0 + 0.0 * x], [0.0 * x]
    ym = -1.0 * y if chart == "b" else y
    for m in range(1, L + 1):
        pr = sr[-1] * x - si[-1] * ym
        pi = sr[-1] * ym + si[-1] * x
        sr.append(pr)
        si.append(pi)
    out = []
    sq2 = math.sqrt(2.0)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            if m == 0:
                out.append(N[l, 0] * Q[l][0])
            else:
                tm = t ** am
                base = (sq2 * N[l, am]) * Q[l][am] * tm
                out.append(base * (sr[am] if m > 0 else si[am]))
    return out

