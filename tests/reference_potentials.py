"""The single-nut potentials V0, H0 and their rod sums, nut by nut.

Reference for ``harmonic.potentials``, which reads the same sums off the
per-nut jets that ``tod.tod_fields`` keeps: each nut is evaluated here on
its own, with the same expressions in the same order, so the two must
agree bit for bit.  Points are floats (one point per call).
"""

from __future__ import annotations

from todkit.jets import Jet2

from reference_fields import halflog_ratio


def v0_jet(rho, zeta, order=4):
    """Jet of V0 = 2 R - 2 zeta artanh(zeta/R) at an interior point."""
    r = Jet2.seed(float(rho), 0, order)
    z = Jet2.seed(float(zeta), 1, order)
    at, R = halflog_ratio(r, z, float(zeta))
    return 2 * R - 2 * z * at


def h0_jet(rho, zeta, order=4):
    """Jet of the conjugate H0 = zeta R + rho^2 artanh(zeta/R)."""
    r = Jet2.seed(float(rho), 0, order)
    z = Jet2.seed(float(zeta), 1, order)
    at, R = halflog_ratio(r, z, float(zeta))
    return z * R + r * r * at


def build_v(rods, rho, zeta, order=4):
    """Jet of V = sum a_i V0(rho, zeta - z_i)."""
    acc = Jet2.const(0.0, order)
    for z_i, a_i in rods.floats.nuts:
        acc = acc + a_i * v0_jet(rho, float(zeta) - z_i, order)
    return acc


def build_h(rods, rho, zeta, order=4):
    """Jet of H = sum a_i H0(rho, zeta - z_i) + gauge constant."""
    acc = Jet2.const(rods.floats.gauge, order)
    for z_i, a_i in rods.floats.nuts:
        acc = acc + a_i * h0_jet(rho, float(zeta) - z_i, order)
    return acc
