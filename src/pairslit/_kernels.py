"""Hot-path kernels in packet-width / spreading-time units.

These are the only functions evaluated inside integration loops. Both
velocity kernels come from one body: reduced_velocity runs it on plain floats
through the math module (roughly 20x faster than numpy scalars) for the
scalar step loop, and reduced_velocity_array runs it on arrays through numpy
for the batch loop; only the transcendentals, the type of the constants and
the node return differ. The array kernel closes over its constants as 0-d
float64 arrays: at the batch loop's widths numpy takes one as an operand
about 0.2 us faster than a Python float, for the same bits. The step
loops, and integrate_pairs at release, read the joint density off the
velocity kernels' denominator. Tests pin that density against
wavefunction.joint_density_y.

The velocity kernels return the velocity of the half-separation
d = (eta1 - eta2) / 2 alone: the interference term cancels from the centre of
mass, which follows a closed form.

Scaling: eta = y / sigma0, T = t / tau, velocities in units of sigma0 / tau.
"""

from __future__ import annotations

import math

import numpy as np

# Interference denominator (see reduced_velocity) below which the velocity is
# considered to sit on a node. Bosons only approach zero denominators
# asymptotically; fermions hit an exact zero on the diagonal y1 = y2.
NODE_GUARD = 1e-13


def _velocity_kernel(name, exp, tan, copysign, fabs, one, minus_two, four, nan_on_node, doc):
    """The velocity kernel over the given exp, tan, copysign and abs.

    one, minus_two and four are the body's constants in the back end's own
    type. With nan_on_node its velocity is NaN where den < NODE_GUARD, a test
    only a scalar den can take.
    """

    def kernel(d, T, beta, sign, w=None, g=None):
        if w is None:
            s2 = one + T * T
            w, g = beta / s2, T / s2
        x = d * w
        e = exp(minus_two * fabs(x))
        t = tan(T * x)
        tt = t * t
        q = four * e / (one + tt)
        tail = T * copysign(one - e * e, x)
        m = one - e
        if sign > 0:
            den = m * m + q
            num = q * t + tail
        else:
            den = m * m + q * tt
            num = tail - q * t
        if nan_on_node and den < NODE_GUARD:
            return math.nan, den
        return d * g - w * num / den, den

    kernel.__name__ = kernel.__qualname__ = name
    kernel.__doc__ = doc
    return kernel


reduced_velocity = _velocity_kernel(
    "reduced_velocity", math.exp, math.tan, math.copysign, abs, 1.0, -2.0, 4.0, nan_on_node=True,
    doc="""Velocity dd/dT of the half-separation d = (eta1 - eta2) / 2, and its denominator.

    With x = beta d / (1 + T^2), e = exp(-2 |x|) and t = tan(T x), the
    interference denominator, with the dominant exponential factored out, is
    the sum of squares (1 - e)^2 + 4 e / (1 + t^2) for bosons and
    (1 - e)^2 + 4 e t^2 / (1 + t^2) for fermions. It never overflows however
    far the configuration sits from the diagonal (the raw cosh argument can
    exceed 700 at baseline separations), it cannot cancel to a negative value,
    and one tan serves where a sin and a cos would (the half-angle
    identities); the numerator 2 e sin(2 T x) +- T sgn(x) (1 - e^2) takes
    sin(2 T x) = 2 t / (1 + t^2). Below NODE_GUARD the velocity is meaningless and comes back
    as NaN. The particles move at deta1/dT, deta2/dT = c T / (1 + T^2) +- dd/dT,
    c being their centre of mass.

    The denominator also gives the joint density at the configuration:
    n2 / (2 pi s2) exp(-c0^2) den exp(-(|d| - beta)^2 / s2) with
    s2 = 1 + T^2 and c0 = c / sqrt(s2) the initial centre of mass. The step
    loops test the floor on it over n2 / (2 pi) exp(-c0^2), as integrator._peak
    does.

    d and T are floats. w and g, if given, are the stage-time factors
    beta / (1 + T^2) and T / (1 + T^2), as reduced_velocity_array takes them.
    """,
)

reduced_velocity_array = _velocity_kernel(
    "reduced_velocity_array",
    np.exp, np.tan, np.copysign, np.abs, np.array(1.0), np.array(-2.0), np.array(4.0),
    nan_on_node=False,
    doc="""reduced_velocity over arrays d and T, through numpy; returns (v, den).

    w and g are the stage-time factors beta / (1 + T^2) and T / (1 + T^2).
    A caller that evaluates several stages at once may pass them in,
    computed as here from the same T, to save the kernel those numpy calls;
    the result is the same to the bit. Without them the kernel forms both.

    Where den falls below NODE_GUARD the velocity is meaningless (not NaN as
    from the scalar kernel); callers silence numpy's floating-point warnings,
    which only such pairs can trigger.
    """,
)
