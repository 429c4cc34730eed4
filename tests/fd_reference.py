"""Per-point central differences of an amplitude, a reference for guidance velocities.

One amplitude call per displaced point, on plain floats, and one complex
ratio per coordinate. It shares nothing with the package's closed-form
log-gradients, so with Richardson extrapolation it is the independent
reference for the four-slit velocities of pairslit.fourslit; tests bound the
difference. With a step of its own it is also the differentiation behind
oracles.velocity_oracle. Not package API.
"""

from pairslit import PairVelocity


def reference_velocity(amplitude, c, p, step=None, richardson=False) -> PairVelocity:
    """(hbar/m) Im[grad Psi / Psi] at c, stepping one coordinate at a time.

    amplitude is a callable (x1, y1, x2, y2, t) -> complex. step is the
    transverse step, 1e-4 sigma0 by default; the longitudinal step is
    1e-3 / kx, so the sampled phase difference of the plane wave stays small:
    a sigma0-scale step would alias it completely. richardson combines steps
    h and h/2 for fourth-order accuracy.
    """
    psi0 = amplitude(c.x1, c.y1, c.x2, c.y2, c.t)
    h_y = 1e-4 * p.sigma0 if step is None else step
    h_x = 1e-3 / p.kx

    def component(index: int, h: float) -> float:
        base = [c.x1, c.y1, c.x2, c.y2]

        def ratio(hh: float) -> float:
            hi, lo = list(base), list(base)
            hi[index] += hh
            lo[index] -= hh
            plus = amplitude(*hi, c.t)
            minus = amplitude(*lo, c.t)
            return complex((plus - minus) / (2.0 * hh * psi0)).imag

        if richardson:
            return (4.0 * ratio(0.5 * h) - ratio(h)) / 3.0
        return ratio(h)

    scale = p.hbar / p.m
    return PairVelocity(
        scale * component(0, h_x),
        scale * component(1, h_y),
        scale * component(2, h_x),
        scale * component(3, h_y),
    )
