"""Point sets as array jets: every point gets the bits of its own call."""

from __future__ import annotations

import itertools
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from todkit import harmonic, tod
from todkit.errors import AxisEvaluationError, DegenerateMetricError
from todkit.harmonic import RodData

import reference_potentials

ORDERS = [0, 1, 2, 3, 4]


def exact_two_nut():
    return RodData(c=Fraction(-1, 16), zs=(Fraction(-1, 4), Fraction(1, 4)),
                   weights=(Fraction(1, 2), Fraction(1, 2)))


def skew_three_nut():
    return RodData(c=-0.3, zs=(-1.0, 0.2, 0.9), weights=(0.2, 0.5, 0.3))


def sixteen_nut():
    """Float ALE data with uneven gaps and weights, standard-cone c."""
    rng = random.Random(7)
    zs = list(itertools.accumulate((rng.uniform(0.5, 1.5) for _ in range(15)),
                                   initial=0.0))
    raw = [rng.uniform(0.5, 1.5) for _ in range(16)]
    weights = [a / sum(raw) for a in raw]
    c = -sum(weights[i] * weights[j] * (zs[j] - zs[i]) ** 2
             for i in range(16) for j in range(i + 1, 16))
    return RodData(c=c, zs=zs, weights=weights)


def sample_points(rods, radii):
    """Above, below and exactly at each nut height, then far out."""
    gap = rods.min_gap
    points = []
    for z in (float(z) for z in rods.zs):
        for rho in radii:
            points += [(rho * gap, z + 0.3 * gap), (rho * gap, z - 0.3 * gap),
                       (rho * gap, z)]
    far = 1e3 * rods.scale
    points += [(far, far), (far, -far), (far, 0.0), (far, -0.0),
               (10 * far, 3.0)]
    rho, zeta = zip(*points)
    return np.array(rho), np.array(zeta)


def assert_point_of_batch(batch, point, k):
    """Coefficient k of each batch jet has the bits of the point jet."""
    assert len(batch.c) == len(point.c)
    for b, p in zip(batch.c, point.c):
        got = b[k] if isinstance(b, np.ndarray) else b
        # float.hex tells -0.0 from 0.0 and keeps every bit
        assert float(got).hex() == float(p).hex()


CASES = [
    pytest.param(exact_two_nut, (1e-3, 0.4, 1.7), id="two-nut-exact"),
    pytest.param(skew_three_nut, (1e-3, 0.4, 1.7), id="skew-three-nut"),
    pytest.param(sixteen_nut, (0.4,), id="sixteen-nut"),
]


class TestBatchMatchesPoints:

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("make, radii", CASES)
    def test_tod_fields(self, make, radii, order):
        rods = make()
        rho, zeta = sample_points(rods, radii)
        batch = tod.tod_fields(rods, rho, zeta, order=order)
        for k in range(len(rho)):
            point = tod.tod_fields(rods, float(rho[k]), float(zeta[k]), order=order)
            for name in ("W", "e2nu", "F", "z", "x"):
                assert_point_of_batch(getattr(batch, name), getattr(point, name), k)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("make, radii", CASES)
    def test_potentials_match_reference(self, make, radii, order):
        # V and H read off the fields, for the point set and for each
        # point alone, carry the bits of the nut-by-nut reference sums
        rods = make()
        rho, zeta = sample_points(rods, radii)
        batch = harmonic.potentials(tod.tod_fields(rods, rho, zeta, order=order))
        for k in range(len(rho)):
            r, z = float(rho[k]), float(zeta[k])
            point = harmonic.potentials(tod.tod_fields(rods, r, z, order=order))
            want = (reference_potentials.build_v(rods, r, z, order),
                    reference_potentials.build_h(rods, r, z, order))
            for b, p, w in zip(batch, point, want):
                assert_point_of_batch(b, w, k)
                assert_point_of_batch(p, w, k)

    def test_extreme_scale_is_silent(self):
        # the float arithmetic overflows here; the batch stays as silent
        # as each point's own call and keeps its bits (NaN included)
        rods = RodData(c=-1e-300, zs=(-1e-160, 1e-160), weights=(0.5, 0.5))
        rho, zeta = np.array([1e-160, 3e-160]), np.array([0.5e-160, -2e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = tod.tod_fields(rods, rho, zeta, order=1)
            for k in range(len(rho)):
                point = tod.tod_fields(rods, float(rho[k]), float(zeta[k]), order=1)
                for name in ("W", "e2nu", "F", "z", "x"):
                    assert_point_of_batch(getattr(batch, name), getattr(point, name), k)

    @pytest.mark.parametrize("make, radii", CASES + [pytest.param(
        lambda: RodData(c=-1e-300, zs=(-1e-150, 1e-150), weights=(0.5, 0.5)),
        (0.4, 1.7), id="underflowing")])
    def test_tod_metric(self, make, radii):
        # NaN where the float arithmetic gives it, with no numpy warning
        rods = make()
        rho, zeta = sample_points(rods, radii)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = tod.tod_metric(tod.tod_fields(rods, rho, zeta, order=1))
            for k in range(len(rho)):
                point = tod.tod_metric(
                    tod.tod_fields(rods, float(rho[k]), float(zeta[k]), order=1))
                for b_row, p_row in zip(batch.comp, point.comp):
                    for b, p in zip(b_row, p_row):
                        assert_point_of_batch(b, p, k)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("make, radii", CASES[:2])
    def test_ward_coords(self, make, radii, order):
        rods = make()
        rho, zeta = sample_points(rods, radii)
        batch = harmonic.ward_coords(rods, rho, zeta, order=order)
        for k in range(len(rho)):
            point = harmonic.ward_coords(rods, float(rho[k]), float(zeta[k]), order=order)
            for b, p in zip(batch, point):
                assert_point_of_batch(b, p, k)


class TestBatchRejects:
    """A point set fails at its first bad point, as a loop over it would."""

    @pytest.mark.parametrize("rho, zeta", [
        ([0.5, 0.0, -1.0], [0.0, 0.1, 0.2]),          # on and across the axis
        ([0.5, 1e-9, 0.5], [0.0, 0.1, 0.2]),          # below rho_min
        ([0.5, 0.3, 1e-8], [0.0, 0.1, -0.25 + 1e-8]),  # inside a nut ball
        ([0.5, float("nan")], [0.0, 0.1]),
    ])
    def test_interior_check_first_failure(self, rho, zeta):
        rods = exact_two_nut()
        with pytest.raises(Exception) as batch:
            rods.interior_check(np.array(rho), np.array(zeta))
        for r, z in zip(rho, zeta):
            try:
                rods.interior_check(r, z)
            except Exception as exc:
                first = exc
                break
        assert type(batch.value) is type(first)
        assert str(batch.value) == str(first)

    def test_interior_check_passes_near_the_ball(self):
        # np.hypot only flags suspects; math.hypot decides, as for one point
        rods = exact_two_nut()
        r_nut = 1e-6 * rods.min_gap
        rho = np.array([r_nut * (1 + 1e-15), r_nut, 0.5])
        rods.interior_check(rho, np.array([-0.25, -0.25, 0.0]))

    def test_metric_first_failure(self):
        # single-nut data: W vanishes at every point
        rods = RodData(c=-0.25, zs=(0.0,), weights=(1.0,))
        f = tod.tod_fields(rods, np.array([0.5, 1.0]), np.array([0.3, -0.2]), order=1)
        with pytest.raises(DegenerateMetricError) as batch:
            tod.tod_metric(f)
        assert str(batch.value) == "W = 0.0 is not positive"

    def test_off_axis_without_interior_check(self):
        rods = skew_three_nut()
        rho = np.array([0.5, 0.2, -0.0])
        with pytest.raises(AxisEvaluationError, match="got -0.0"):
            tod.tod_fields(rods, rho, np.zeros(3), check_interior=False)
        with pytest.raises(AxisEvaluationError, match="got -0.0"):
            harmonic.ward_coords(rods, rho, np.zeros(3))
