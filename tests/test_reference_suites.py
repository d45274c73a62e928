"""The verify suites against their point-by-point reference, byte for byte.

``cli.suite_fields``, ``suite_curvature`` and ``suite_cky`` read the
metric, curvature, Weyl split and Killing-Yano residuals of all their
sampled points from the one array pass of ``cli._evaluate``;
``reference_suites`` sends each point through the same layer functions
alone, and its runs skip that pass.  Every report (stdout, stderr and
exit code) must be the same.
"""

import math
import random

import numpy as np
import pytest

import reference_suites
from rod_fixtures import skew_rods
from test_cli import run, sixteen_nut_doc, write_rod_file
from todkit import cky, cli, tod

DOCS = {
    "two-nut-exact": {"c": "-1/16", "rods": [{"z": "-1/4", "a": "1/2"},
                                             {"z": "1/4", "a": "1/2"}]},
    "skew-three-nut": {"c": -0.3, "rods": [{"z": -1.0, "a": 0.2}, {"z": 0.2, "a": 0.5},
                                           {"z": 0.9, "a": 0.3}]},
    "sixteen-nut-float": sixteen_nut_doc(random.Random(7)),
    "single-nut": {"c": "-1/4", "rods": [{"z": "0", "a": "1"}]},
}


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("suite", ["fields", "curvature", "rods", "cky", "all"])
@pytest.mark.parametrize("doc", list(DOCS.values()), ids=list(DOCS))
def test_report_matches_reference(tmp_path, capsys, monkeypatch, doc, suite, seed):
    path = write_rod_file(tmp_path, doc)
    argv = ["verify", path, "--suite", suite, "--seed", str(seed)]
    got = run(argv, capsys)
    # the reference samples and evaluates its own points, so the pass is skipped
    monkeypatch.setattr(cli, "_evaluate", lambda *args: None)
    for name, reference in reference_suites.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, reference)
    assert got == run(argv, capsys)


@pytest.mark.parametrize("rods", [
    tod.eh_rod_data(),
    skew_rods(),
], ids=["two-nut", "skew-three-nut"])
def test_frames_match_reference(rods):
    # every decay radius in one pass, each with the bits of its own frame
    theta = 1.0
    st, ct = math.sin(theta), math.cos(theta)
    radii = np.array(cli.DECAY_RADII)
    rr = radii * radii
    fields = tod.tod_fields(rods, rr * st / 4.0, 0.1 + rr * ct / 4.0, order=1)
    frames = cky._frame_components(fields, radii, theta, st, ct)
    for k, r in enumerate(radii.tolist()):
        want = reference_suites.frame_components(
            reference_suites.fields_at(fields, k), r, theta, st, ct)
        assert [v.hex() for v in frames[k].ravel().tolist()] == \
            [v.hex() for v in want.ravel().tolist()]
