"""Rod data that several test files share."""

from fractions import Fraction

from todkit.harmonic import RodData


def eh_rods(gauge="symmetric"):
    """The float two-nut benchmark, tod.eh_rod_data(a=1.0): equal nuts at
    -+1/4 with c = -1/16, in the given H gauge."""
    return RodData(c=-1 / 16, zs=(-0.25, 0.25), weights=(0.5, 0.5), gauge=gauge)


def eh_rods_exact():
    """The two-nut benchmark with exact c, nuts and weights."""
    return RodData(c=Fraction(-1, 16), zs=(Fraction(-1, 4), Fraction(1, 4)),
                   weights=(Fraction(1, 2), Fraction(1, 2)))


def skew_rods(gauge="symmetric"):
    """The skew three-nut data: float, with unequal gaps and weights, and
    every junction off the lattice."""
    return RodData(c=-0.3, zs=(-1.0, 0.2, 0.9), weights=(0.2, 0.5, 0.3), gauge=gauge)
