"""Rod data that several test files share."""

from todkit.harmonic import RodData


def skew_rods(gauge="symmetric"):
    """The skew three-nut data: float, with unequal gaps and weights, and
    every junction off the lattice."""
    return RodData(c=-0.3, zs=(-1.0, 0.2, 0.9), weights=(0.2, 0.5, 0.3), gauge=gauge)
