"""Gauss-Legendre nodes and weights for density integrals."""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on [-1, 1], computed once per n; callers only read it."""
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b].

    a and b may be arrays of interval ends; with a trailing axis of length 1
    they broadcast against the n nodes, giving every interval's rule at once.
    """
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
