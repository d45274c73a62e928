"""``cli.sample_interior`` against the draw-by-draw loop it replaced.

The sampler draws the missing points in batches, screens each with
``RodData.interior_mask`` and refills the rejected draws in later
batches.  ``reference_sample`` is the loop: one rho exponent and one
zeta per draw, each point screened by ``interior_check``.  Both must
give the same points, to the bit, and leave the stream at the same
place, so that no extra number is drawn.
"""

import random

import numpy as np
import pytest

from rod_fixtures import eh_rods_exact, skew_rods
from test_cli import sixteen_nut_doc
from todkit import cli
from todkit.errors import NutProximityError, TodkitError
from todkit.harmonic import RodData


def reference_sample(data, count, rng):
    lo = float(data.zs[0]) - 0.75 * data.scale
    hi = float(data.zs[-1]) + 0.75 * data.scale
    points = []
    while len(points) < count:
        rho = data.scale * float(10.0 ** rng.uniform(-1.0, 0.45))
        zeta = float(rng.uniform(lo, hi))
        try:
            data.interior_check(rho, zeta)
        except TodkitError:
            continue
        points.append((rho, zeta))
    return points


def _sixteen_nut():
    doc = sixteen_nut_doc(random.Random(7))
    return RodData(c=doc["c"], zs=tuple(r["z"] for r in doc["rods"]),
                   weights=tuple(r["a"] for r in doc["rods"]))


DATA = {"two-nut": eh_rods_exact, "skew": skew_rods, "sixteen-nut": _sixteen_nut}


def _bits(points):
    return [(rho.hex(), zeta.hex()) for rho, zeta in points]


def _same_draws(data, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = cli.sample_interior(data, 25, got_rng)
    want = reference_sample(data, 25, want_rng)
    assert got.shape == (25, 2) and got.dtype == float
    assert _bits(got.tolist()) == _bits(want)
    # the stream is where the loop left it
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("name", list(DATA))
def test_points_match_the_loop(name):
    data = DATA[name]()
    for seed in range(1000):
        _same_draws(data, seed)


@pytest.mark.parametrize("name", list(DATA))
def test_rejected_draws_are_refilled(monkeypatch, name):
    # every third draw rejected, in stream order, by both screens: the
    # batches then refill, which natural draws, with nut balls of 1e-6
    # of the gap, almost never need
    data = DATA[name]()
    draws = {"mask": 0, "check": 0}
    mask, check = RodData.interior_mask, RodData.interior_check

    def every_third_mask(self, rho, zeta):
        kept = mask(self, rho, zeta)
        order = np.arange(draws["mask"] + 1, draws["mask"] + 1 + rho.size)
        draws["mask"] += rho.size
        return kept & (order % 3 != 0)

    def every_third_check(self, rho, zeta):
        draws["check"] += 1
        if draws["check"] % 3 == 0:
            raise NutProximityError("every third draw")
        return check(self, rho, zeta)

    monkeypatch.setattr(RodData, "interior_mask", every_third_mask)
    for seed in range(50):
        draws.update(mask=0, check=0)
        monkeypatch.setattr(RodData, "interior_check", check)
        got_rng = np.random.default_rng(seed)
        got = cli.sample_interior(data, 25, got_rng)
        monkeypatch.setattr(RodData, "interior_check", every_third_check)
        want_rng = np.random.default_rng(seed)
        want = reference_sample(data, 25, want_rng)
        assert _bits(got.tolist()) == _bits(want)
        assert got_rng.random() == want_rng.random()
        # 25 kept of 37 draws, the 37th kept
        assert draws["mask"] == draws["check"] == 37
