"""Dense references for the band representations, written site by site.

The library holds every operator of the walk as bands; these loops build
the same operators as dense matrices, entry by entry from their
definitions, so that the tests can compare the two.
"""

import math

import numpy as np

from ssqw.analytic import alpha_coefficient


def loop_coin_sequences(window, profile):
    """Site-by-site reference for the vectorized coin_sequences."""
    a1 = np.empty(window.size)
    a2 = np.empty(window.size)
    b = np.empty(window.size, dtype=complex)
    for i, x in enumerate(window.sites):
        e = profile.entry(int(x))
        a1[i], a2[i], b[i] = e.a1, e.a2, e.b
    return a1, a2, b


def loop_q_epsilon(window, params, profile, sign):
    """Site-by-site dense chiral block, the reference for build_q_epsilon."""
    n = window.size

    def entry(x):
        if window.periodic:
            x = (x + window.half_width) % n - window.half_width
        return profile.entry(x)

    mat = np.zeros((n, n), dtype=complex)
    for i, x in enumerate(window.sites):
        x = int(x)
        here = entry(x)
        nxt = entry(x + 1)
        mat[i, i] = sign * params.abs_q * (nxt.a2 - here.a1)
        if i + 1 < n:
            mat[i, i + 1] = alpha_coefficient(params, nxt.b, sign)
        elif window.periodic:
            mat[i, 0] = alpha_coefficient(params, nxt.b, sign)
        if i - 1 >= 0:
            mat[i, i - 1] = -alpha_coefficient(params, here.b, -sign).conjugate()
        elif window.periodic:
            mat[i, n - 1] = -alpha_coefficient(params, here.b, -sign).conjugate()
    return mat


def densify(bands):
    """The dense block of a band stack [d, e, f]: d[x] at (x, x), e[x] at
    (x, x+1) and f[x] at (x+1, x), x+1 cyclic, so e[-1] and f[-1] land in
    the corners."""
    d, e, f = bands
    n = len(d)
    rows = np.arange(n)
    ahead = (rows + 1) % n
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, rows] = d
    mat[rows, ahead] = e
    mat[ahead, rows] = f
    return mat


def loop_gamma(window, params):
    """[[p, q L], [conj(q) L*, -p]] with (L psi)(x) = psi(x+1); an open window
    drops the couplings across its ends."""
    n = window.size
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        g[x, x], g[n + x, n + x] = params.p, -params.p
        if x + 1 < n or window.periodic:
            nxt = (x + 1) % n
            g[x, n + nxt] = params.q
            g[n + nxt, x] = params.q.conjugate()
    return g


def loop_coin(window, profile):
    """Sitewise [[a1, conj(b)], [b, a2]]."""
    n = window.size
    a1, a2, b = loop_coin_sequences(window, profile)
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        c[x, x], c[x, n + x] = a1[x], b[x].conjugate()
        c[n + x, x], c[n + x, n + x] = b[x], a2[x]
    return c


def loop_epsilon(window, params):
    """[[sqrt(1+p), -sqrt(1-p)], [sqrt(1-p) e^{-i theta} L*, sqrt(1+p) e^{-i theta} L*]]
    / sqrt(2) on a ring."""
    n = window.size
    phase = complex(math.cos(params.theta), -math.sin(params.theta))
    plus, minus = math.sqrt(1.0 + params.p), math.sqrt(1.0 - params.p)
    eps = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        prv = (x - 1) % n
        eps[x, x], eps[x, n + x] = plus, -minus
        eps[n + x, prv], eps[n + x, n + prv] = minus * phase, plus * phase
    return eps / math.sqrt(2.0)


def loop_split_step(window, params, profile):
    """Site-by-site dense U from the split-step formula, with x+-1 cyclic."""
    n = window.size
    a1, a2, b = loop_coin_sequences(window, profile)
    p, q = params.p, params.q
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        up, down = x, n + x
        nxt, prv = (x + 1) % n, (x - 1) % n
        u[up, x], u[up, n + x] = p * a1[x], p * b[x].conjugate()
        u[up, nxt], u[up, n + nxt] = q * b[nxt], q * a2[nxt]
        u[down, prv] = q.conjugate() * a1[prv]
        u[down, n + prv] = q.conjugate() * b[prv].conjugate()
        u[down, x], u[down, n + x] = -p * b[x], -p * a2[x]
    return u
