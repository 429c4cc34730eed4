"""Hot-path kernels in packet-width / spreading-time units.

These are the only functions evaluated inside integration loops. The two
velocity kernels take the same operations in the same order, in two bodies:
reduced_velocity runs them on plain floats through the math module (roughly
20x faster than numpy scalars) for the scalar step loop, and
reduced_velocity_array on arrays through numpy for the batch loop, writing
each temporary in place into a row of a workspace (numpy's positional out),
so that, given a workspace, a call allocates only the velocity and
denominator it returns. Only the transcendentals, the type of the constants
and the node return differ; tests/test_batch.py checks the array body lane
by lane, bit for bit, against the float body run on numpy's exp and tan. The
array kernel closes over its constants as 0-d float64 arrays: at the batch
loop's widths numpy takes one as an operand about 0.2 us faster than a
Python float, for the same bits. The step loops, and integrate_pairs at
release, read the joint density off the velocity kernels' denominator den.
den is the pair-density bracket g of wavefunction._pair_bracket, written
inline in the kernel's own terms (its tan serves the velocity too); tests pin
that density against wavefunction.joint_density_y, which evaluates the
bracket through the helper.

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


def _velocity_kernel(exp, tan, copysign, fabs, one, minus_two, four):
    """The float velocity kernel over the given exp, tan, copysign and abs.

    one, minus_two and four are the body's constants as floats. The body
    reads the functions and constants as closure cells, which Python loads
    faster than module attributes.
    """

    def reduced_velocity(d, T, beta, sign, w=None, g=None):
        """Velocity dd/dT of the half-separation d = (eta1 - eta2) / 2, and its denominator.

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
        """
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
        if den < NODE_GUARD:
            return math.nan, den
        return d * g - w * num / den, den

    reduced_velocity.__qualname__ = "reduced_velocity"
    return reduced_velocity


def _array_kernel(one, minus_two, four):
    """The array velocity kernel over the constants one, minus_two and four as 0-d arrays.

    Its body is reduced_velocity's, operation for operation; each operation
    writes its result in place (numpy's positional out) into a row of a
    workspace, except the two that start the returned velocity and
    denominator, which get arrays of their own.
    """
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    exp, tan, copysign, fabs = np.exp, np.tan, np.copysign, np.abs

    def reduced_velocity_array(d, T, beta, sign, w=None, g=None, space=None):
        """reduced_velocity over arrays d and T, through numpy; returns (v, den).

        w and g are the stage-time factors beta / (1 + T^2) and T / (1 + T^2).
        A caller that evaluates several stages at once may pass them in,
        computed as here from the same T, to save the kernel those numpy calls;
        the result is the same to the bit. Without them the kernel forms both.

        space is the workspace: six arrays of the result's shape, such as the
        rows of a (6, n) block, which the kernel overwrites and which must not
        overlap d, T, w or g. Without one the kernel allocates its own. v and
        den are new arrays either way, so they outlive the next call on the
        same workspace.

        Where den falls below NODE_GUARD the velocity is meaningless (not NaN as
        from the scalar kernel); callers silence numpy's floating-point warnings,
        which only such pairs can trigger.
        """
        if w is None:
            s2 = one + T * T
            w, g = beta / s2, T / s2
        if space is None:
            space = np.empty((6,) + np.broadcast(d, w).shape)
        # each row named after the float body's value it holds; r is scratch
        x, e, t, tt, q, r = space
        mul(d, w, x)
        exp(mul(minus_two, fabs(x, e), e), e)
        tan(mul(T, x, t), t)
        mul(t, t, tt)
        div(mul(four, e, q), add(one, tt, r), q)
        tail = mul(T, copysign(sub(one, mul(e, e, r), r), x, r), r)
        m = sub(one, e, x)  # x is read for the last time above
        den = mul(m, m)
        if sign > 0:
            add(den, q, den)
            num = add(mul(q, t, q), tail, q)
        else:
            add(den, mul(q, tt, tt), den)
            num = sub(tail, mul(q, t, q), q)
        v = mul(d, g)
        sub(v, div(mul(w, num, num), den, num), v)
        return v, den

    reduced_velocity_array.__qualname__ = "reduced_velocity_array"
    return reduced_velocity_array


reduced_velocity = _velocity_kernel(math.exp, math.tan, math.copysign, abs, 1.0, -2.0, 4.0)
reduced_velocity_array = _array_kernel(np.array(1.0), np.array(-2.0), np.array(4.0))
