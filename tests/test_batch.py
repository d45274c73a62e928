"""Point sets as array jets: every point gets the bits of its own call."""

from __future__ import annotations

import itertools
import random
import warnings

import numpy as np
import pytest

from todkit import harmonic, tod
from todkit.errors import AxisEvaluationError, DegenerateMetricError
from todkit.harmonic import RodData

import reference_potentials
from rod_fixtures import eh_rods_exact, skew_rods

ORDERS = [0, 1, 2, 3, 4]


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
    pytest.param(eh_rods_exact, (1e-3, 0.4, 1.7), id="two-nut-exact"),
    pytest.param(skew_rods, (1e-3, 0.4, 1.7), id="skew-three-nut"),
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
                for a in range(4):
                    for b in range(4):
                        assert_point_of_batch(batch.entry(a, b), point.entry(a, b), k)


class TestBatchRejects:
    """A point set fails at its first bad point, as a loop over it would."""

    @pytest.mark.parametrize("rho, zeta", [
        ([0.5, 0.0, -1.0], [0.0, 0.1, 0.2]),          # on and across the axis
        ([0.5, 1e-9, 0.5], [0.0, 0.1, 0.2]),          # below rho_min
        ([0.5, 0.3, 1e-8], [0.0, 0.1, -0.25 + 1e-8]),  # inside a nut ball
        ([0.5, float("nan")], [0.0, 0.1]),
    ])
    def test_interior_check_first_failure(self, rho, zeta):
        rods = eh_rods_exact()
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
        # math.hypot decides, for the set as for one point
        rods = eh_rods_exact()
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


def first_point_error(call, rho, zeta):
    """The exception the first failing point raises alone, in C order."""
    for k in np.ndindex(rho.shape):
        try:
            call(float(rho[k]), float(zeta[k]))
        except Exception as exc:
            return exc
    raise AssertionError("no point fails")


class TestTwoDimensionalSets:
    """A 2-D point set is read in C order, with flat positions."""

    def test_near_nut_set_matches_points(self):
        # inside twice the ball radius of a nut but outside the ball
        rods = tod.eh_rod_data()
        r_nut = 1e-6 * rods.min_gap
        rho = np.array([[0.5, 1.4 * r_nut, 0.3], [r_nut, 0.2, 1.9 * r_nut]])
        zeta = np.array([[0.0, -0.25, 0.1], [0.25, -0.7, 0.25]])
        batch = tod.tod_fields(rods, rho, zeta, order=2)
        for k in np.ndindex(rho.shape):
            point = tod.tod_fields(rods, float(rho[k]), float(zeta[k]), order=2)
            for name in ("W", "e2nu", "F", "z", "x"):
                assert_point_of_batch(getattr(batch, name), getattr(point, name), k)

    @pytest.mark.parametrize("rho, zeta", [
        ([[0.5, 0.3], [0.2, -0.0]], [[0.0, 0.1], [0.2, 0.3]]),
        ([[0.5, 0.3], [0.2, 1e-9]], [[0.0, 0.1], [0.2, 0.3]]),
        ([[0.5, 0.3, 0.4], [0.2, 4e-7, 0.0]], [[0.0, 0.1, 0.2], [0.3, 0.25, 0.1]]),
    ], ids=["axis", "below-rho-min", "nut-ball"])
    def test_interior_check_first_failure(self, rho, zeta):
        rods = tod.eh_rod_data()
        rho, zeta = np.array(rho), np.array(zeta)
        first = first_point_error(rods.interior_check, rho, zeta)
        with pytest.raises(type(first)) as batch:
            tod.tod_fields(rods, rho, zeta, order=1)
        assert str(batch.value) == str(first)


class TestScalarPartner:
    """A number partners every point of an array in the other coordinate."""

    def test_axis_point_with_scalar_zeta(self):
        rods = tod.eh_rod_data()
        rho = np.array([0.5, 0.0])
        first = first_point_error(rods.interior_check, rho, np.full(2, 0.3))
        assert type(first) is AxisEvaluationError
        for call in (rods.interior_check, lambda r, z: tod.tod_fields(rods, r, z, order=0)):
            with pytest.raises(AxisEvaluationError) as batch:
                call(rho, 0.3)
            assert str(batch.value) == str(first)

    def test_nut_ball_with_scalar_rho(self):
        rods = tod.eh_rod_data()
        zeta = np.array([0.3, 0.25])
        first = first_point_error(rods.interior_check, np.full(2, 4e-7), zeta)
        with pytest.raises(type(first)) as batch:
            tod.tod_fields(rods, 4e-7, zeta, order=0)
        assert str(batch.value) == str(first)

    @pytest.mark.parametrize("order", [0, 2])
    def test_scalar_rho_with_zeta_array(self, order):
        rods = tod.eh_rod_data()
        zeta = np.array([0.3, 0.25, -0.0])
        batch = tod.tod_fields(rods, 0.5, zeta, order=order)
        for k in range(len(zeta)):
            point = tod.tod_fields(rods, 0.5, float(zeta[k]), order=order)
            for name in ("W", "e2nu", "F", "z", "x"):
                assert_point_of_batch(getattr(batch, name), getattr(point, name), k)

