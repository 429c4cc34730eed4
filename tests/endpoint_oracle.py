"""Integrator-free endpoints of the guidance flow, a helper for the tests.

In packet-width units (eta = y / sigma0, T = t / tau, s^2 = 1 + T^2) the
joint density factorizes as exp(-c^2 / s^2) g_T(d) in the centre
c = (eta1 + eta2) / 2 and the half-separation d = (eta1 - eta2) / 2, with

    g_T(d) = 4 a b trig(T beta d / s^2)^2 + (a - b)^2,
    a = exp(-(d - beta)^2 / (2 s^2)),   b = exp(-(d + beta)^2 / (2 s^2)),

and trig = cos for bosons, sin for fermions. The centre spreads as c0 s, and d
follows a one-dimensional flow that carries g_T along. Such a flow cannot
reorder points, so the mass of g_T between 0 and d(T) equals the mass of g_0
between 0 and d0: d(T) = G_T^-1(G_0(d0)) for the CDF G_T. Since g_T is even,
G_T(0) = 1/2 for every T and d keeps its sign.

Masses are Gauss-Legendre sums over cells of [0, reach]; the inverse is a
bisection inside the cell that holds the target mass. Points beyond the
median count their mass from the far end inwards, so tail points keep their
precision.
"""

import numpy as np

from pairslit.quadrature import gauss_legendre

_CELL = 0.1  # sigma0; trig^2 has a period of at least 2 pi / beta
_NODES = 16
_BISECTIONS = 64
_REACH = 16.0  # packet widths beyond the slit at which the mass is cut


def _g(d, T, beta, sign):
    s2 = 1.0 + T * T
    a = np.exp(-((d - beta) ** 2) / (2.0 * s2))
    b = np.exp(-((d + beta) ** 2) / (2.0 * s2))
    trig = (np.cos if sign > 0 else np.sin)(T * beta * d / s2)
    return 4.0 * a * b * trig**2 + (a - b) ** 2


def _mass(lo, hi, T, beta, sign):
    """Mass of g_T over [lo, hi], elementwise over arrays that broadcast with T."""
    x, w = gauss_legendre(lo[..., None], hi[..., None], _NODES)
    return (w * _g(x, T[..., None], beta, sign)).sum(axis=-1)


class _Profile:
    """g_T on the cells of [0, reach] at S times: the mass inside and outside each edge.

    Every time shares the cells; reach is set by the latest time. Arrays over
    (time, pair) carry the times on axis 0.
    """

    def __init__(self, T, beta, sign):
        self.T, self.beta, self.sign = np.asarray(T, dtype=float)[:, None], beta, sign
        reach = beta + _REACH * np.sqrt(1.0 + self.T.max() ** 2)
        self.edges = np.linspace(0.0, reach, int(np.ceil(reach / _CELL)) + 1)
        cells = _mass(self.edges[:-1], self.edges[1:], self.T, beta, sign)
        zero = np.zeros((len(cells), 1))
        self.inner = np.concatenate((zero, np.cumsum(cells, axis=1)), axis=1)
        self.outer = np.concatenate((np.cumsum(cells[:, ::-1], axis=1)[:, ::-1], zero), axis=1)
        self.total = self.inner[:, -1:]

    def _cell(self, x):
        return np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.edges.size - 2)

    def _masses(self, k, lo, hi):
        """Mass inside lo and outside hi, with lo and hi in cell k."""
        rows = np.arange(len(self.T))[:, None]
        inner = self.inner[rows, k] + _mass(self.edges[k], lo, self.T, self.beta, self.sign)
        outer = self.outer[rows, k + 1] + _mass(hi, self.edges[k + 1], self.T, self.beta, self.sign)
        return inner, outer

    def fractions(self, x):
        """Shares of the mass on [0, x] and on [x, reach], each summed directly."""
        inner, outer = self._masses(self._cell(x), x, x)
        return inner / self.total, outer / self.total

    def inverse(self, share, from_inside):
        """x whose inner (from_inside) or outer share of the mass is share, per time."""
        target = share * self.total
        last = self.edges.size - 2
        k = np.empty(target.shape, dtype=np.intp)
        for row, (inner, outer, want) in enumerate(zip(self.inner, self.outer, target)):
            k[row] = np.where(
                from_inside,
                np.searchsorted(inner, want, side="right") - 1,
                outer.size - 1 - np.searchsorted(outer[::-1], want, side="left"),
            )
        k = np.clip(k, 0, last)
        lo, hi = self.edges[k], self.edges[k + 1]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            inner, outer = self._masses(k, mid, mid)
            short = np.where(from_inside, inner < target, outer > target)
            lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
        return 0.5 * (lo + hi)


def oracle_paths(initial, times, stats, p):
    """(n, S, 2) positions (y1, y2) at each of the S times (s) of pairs released at initial.

    initial is the (n, 2) array of release positions (y1, y2) in metres at
    t = 0, as sample_initial returns it.
    """
    e = np.asarray(initial) / p.sigma0
    c0 = 0.5 * (e[:, 0] + e[:, 1])
    d0 = 0.5 * (e[:, 0] - e[:, 1])
    T = np.asarray(times, dtype=float) / p.tau
    inner, outer = _Profile([0.0], p.beta, stats.sign).fractions(np.abs(d0))
    from_inside = inner <= 0.5
    share = np.where(from_inside, inner, outer)
    d = np.copysign(_Profile(T, p.beta, stats.sign).inverse(share, from_inside), d0)
    c = c0 * np.sqrt(1.0 + T[:, None] ** 2)
    return np.stack((c + d, c - d), axis=-1).swapaxes(0, 1) * p.sigma0


def oracle_endpoints(initial, t, stats, p):
    """(n, 2) positions (y1, y2) at time t (s) of pairs released at initial."""
    return oracle_paths(initial, (t,), stats, p)[:, 0]
