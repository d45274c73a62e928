"""The shared pass of ``verify --suite all`` against the suite-by-suite reference.

A ``--suite all`` run samples the points of the fields, curvature and
cky suites first and evaluates them in one pass; if that pass raises,
or numpy would warn, every suite evaluates its own points in its turn.
At nut scales where the order-4 pass fails and the suites' own passes do
not, and on the extreme-scale files, the report (stdout, stderr, exit
code and report file) must be the one of ``reference_suites``, whose
suites ignore the shared pass.  A single ``--suite`` takes no shared
pass.
"""

import warnings

import numpy as np
import pytest

import reference_suites
from test_cli import rod_doc, run, write_rod_file
from todkit import cli, curvature, tod
from todkit.errors import SignatureError
from todkit.harmonic import RodData

SKEW = RodData(c=-0.3, zs=(-1.0, 0.2, 0.9), weights=(0.2, 0.5, 0.3))
# 4^64 and beyond (and 4^-66 and below) the order-4 pass overflows where
# the suites' order-3 passes do not
DOCS = {f"{name}-4^{k}": rod_doc(tod.rescale(rods, 4.0 ** k))
        for name, rods in (("two-nut", tod.eh_rod_data()), ("skew", SKEW))
        for k in (-66, -64, -62, 62, 64, 66)}
DOCS.update({
    "tiny-1e-160": {"c": -1e-300, "rods": [{"z": -1e-160, "a": 0.5},
                                           {"z": 1e-160, "a": 0.5}]},
    "tiny-1e-150": {"c": -1e-300, "rods": [{"z": -1e-150, "a": 0.5},
                                           {"z": 1e-150, "a": 0.5}]},
    "huge-1e100": {"c": -1e200, "rods": [{"z": -1e100, "a": 0.5},
                                         {"z": 1e100, "a": 0.5}]},
})
EH_DOC = rod_doc(tod.eh_rod_data())


def _report(tmp_path, capsys, argv):
    """(exit code, stdout, stderr, report file) of one verify run."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code, stdout, stderr = run(argv + ["--out", str(out)], capsys)
    return code, stdout, stderr, out.read_text() if out.exists() else None


def _reference(tmp_path, capsys, monkeypatch, argv):
    for name, reference in reference_suites.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, reference)
    return _report(tmp_path, capsys, argv)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", ["all", "fields", "curvature", "cky"])
@pytest.mark.parametrize("doc", list(DOCS.values()), ids=list(DOCS))
def test_scales_match_reference(tmp_path, capsys, monkeypatch, doc, suite, seed):
    argv = ["verify", write_rod_file(tmp_path, doc), "--suite", suite, "--seed", str(seed)]
    got = _report(tmp_path, capsys, argv)
    assert got == _reference(tmp_path, capsys, monkeypatch, argv)


# the point count of a call of each spied function
SIZE = {"tod_fields": lambda rods, rho, *args, **kwargs: np.size(rho),
        "tod_metric": lambda fields: np.size(fields.point[0]),
        "curvature_pack": lambda metric: np.size(metric.base[0])}


def _spy(monkeypatch, module, name, fails=None, error=None):
    """Record the point count of every call of module.name, and raise
    error on the calls whose arguments fails accepts."""
    real, counts = getattr(module, name), []

    def spy(*args, **kwargs):
        counts.append(SIZE[name](*args, **kwargs))
        if fails is not None and fails(*args, **kwargs):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return counts


def test_all_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    fields = _spy(monkeypatch, tod, "tod_fields")
    metrics = _spy(monkeypatch, tod, "tod_metric")
    packs = _spy(monkeypatch, curvature, "curvature_pack")
    path = write_rod_file(tmp_path, EH_DOC)
    assert _report(tmp_path, capsys, ["verify", path])[0] == 0
    # the cky suite's 12 points are the fields suite's 13th to 24th, so
    # the 37 sampled points are 25 distinct ones, and 24 of them are
    # curvature or cky points; then come the conical and decay checks'
    # own passes and the eight flat-family members
    assert fields[0] == 25 and len(fields) == 3
    assert metrics[0] == 25 and len(metrics) == 2
    assert packs == [24, 8]


@pytest.mark.parametrize("suite, count", [("fields", 25), ("curvature", 20)])
def test_single_suite_keeps_its_own_pass(tmp_path, capsys, monkeypatch, suite, count):
    fields = _spy(monkeypatch, tod, "tod_fields")
    path = write_rod_file(tmp_path, EH_DOC)
    _report(tmp_path, capsys, ["verify", path, "--suite", suite])
    assert fields == [count]


def test_failing_shared_pass_is_dropped(tmp_path, capsys, monkeypatch):
    path = write_rod_file(tmp_path, EH_DOC)
    argv = ["verify", path, "--seed", "1"]
    want = _report(tmp_path, capsys, argv)
    fields = _spy(monkeypatch, tod, "tod_fields",
                  fails=lambda rods, rho, zeta, order: order == 4 and np.size(rho) == 25,
                  error=OverflowError("math range error"))
    assert _report(tmp_path, capsys, argv) == want
    # the union raised, then every suite evaluated its own points
    assert fields[:3] == [25, 25, 20] and 12 in fields
    assert want == _reference(tmp_path, capsys, monkeypatch, argv)


def test_cky_point_fails_in_the_cky_turn(tmp_path, capsys, monkeypatch):
    # a cky point whose curvature fails, and which no curvature point
    # shares: the shared pass raises, the fields, curvature and rods
    # suites run on their own points, and the cky suite then raises the
    # error the point gives
    turns = []
    for name, suite in list(cli.SUITES.items()):
        monkeypatch.setitem(cli.SUITES, name,
                            lambda *a, name=name, suite=suite: turns.append(name) or suite(*a))
    rods = tod.eh_rod_data()
    curved = cli.sample_interior(rods, 20, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    cli._flat_draws(rng)
    bad = [p for p in cli.sample_interior(rods, 12, rng) if p not in curved][-1][0]
    _spy(monkeypatch, curvature, "curvature_pack",
         fails=lambda metric: np.isin(bad, metric.base[0]),
         error=SignatureError("metric determinant -1.0 is not positive"))
    argv = ["verify", write_rod_file(tmp_path, EH_DOC)]
    got = _report(tmp_path, capsys, argv)
    assert got == (1, "", "evaluation error: metric determinant -1.0 is not positive\n",
                   None)
    assert turns == ["fields", "curvature", "rods", "cky"]
    assert got == _reference(tmp_path, capsys, monkeypatch, argv)


def test_shared_pass_that_would_warn_is_dropped(tmp_path, capsys, monkeypatch):
    # a numpy warning in the shared pass (here a division by zero in the
    # union's pack) would be printed before any suite runs; the pass is
    # dropped instead, and the suites' own passes print nothing
    real = curvature.curvature_pack

    def warning_pack(metric):
        if np.size(metric.base[0]) == 24:
            np.ones(1) / np.zeros(1)
        return real(metric)

    monkeypatch.setattr(curvature, "curvature_pack", warning_pack)
    argv = ["verify", write_rod_file(tmp_path, EH_DOC)]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = _report(tmp_path, capsys, argv)
    assert not seen
    assert got == _reference(tmp_path, capsys, monkeypatch, argv)
