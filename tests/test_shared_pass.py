"""The one evaluation pass of ``verify`` against the suite-by-suite reference.

Every ``verify`` run samples one point set, the 25 points of the seed,
and evaluates it in one pass, which the fields, curvature and cky suites
all read.  On the extreme-scale files, the report (stdout, stderr, exit
code and report file) must be the one of ``reference_suites``, whose
suites sample and evaluate the same points at orders 3 and 4; the
reference runs skip the pass.  Where that reference's order-4 curvature
pass overflows or divides by zero and the order-2 evaluation does not,
the run must print no evaluation error, and a ``--suite all`` run's
checks must be the four single suites' checks.
"""

import inspect
import json

import numpy as np
import pytest

import reference_suites
from rod_fixtures import skew_rods
from test_cli import rod_doc, run, write_rod_file
from todkit import cky, cli, curvature, tod
from todkit.errors import SignatureError

# at 4^64 and beyond (and 4^-66 and below) the reference's order-4
# curvature pass overflows or divides by zero; its order-3 passes do not
DOCS = {f"{name}-4^{k}": rod_doc(tod.rescale(rods, 4.0 ** k))
        for name, rods in (("two-nut", tod.eh_rod_data()), ("skew", skew_rods()))
        for k in (-66, -64, -62, 62, 64, 66)}
DOCS.update({
    "tiny-1e-160": {"c": -1e-300, "rods": [{"z": -1e-160, "a": 0.5},
                                           {"z": 1e-160, "a": 0.5}]},
    "tiny-1e-150": {"c": -1e-300, "rods": [{"z": -1e-150, "a": 0.5},
                                           {"z": 1e-150, "a": 0.5}]},
    "huge-1e100": {"c": -1e200, "rods": [{"z": -1e100, "a": 0.5},
                                         {"z": 1e100, "a": 0.5}]},
})
# the files and suites where the reference ends in an evaluation error
# and the order-2 evaluation writes a report
REPORTS = {(name, suite) for name in ("two-nut-4^-66", "two-nut-4^64", "two-nut-4^66",
                                      "skew-4^64", "skew-4^66")
           for suite in ("all", "curvature")}
EH_DOC = rod_doc(tod.eh_rod_data())


def _report(tmp_path, capsys, argv):
    """(exit code, stdout, stderr, report file) of one verify run."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code, stdout, stderr = run(argv + ["--out", str(out)], capsys)
    return code, stdout, stderr, out.read_text() if out.exists() else None


def _reference(tmp_path, capsys, monkeypatch, argv):
    # the pass is skipped, so that an error it raises cannot end both runs alike
    monkeypatch.setattr(cli, "_evaluate", lambda *args: None)
    for name, reference in reference_suites.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, reference)
    return _report(tmp_path, capsys, argv)


def _checks(tmp_path, capsys, argv):
    """The checks of one verify run that prints no evaluation error."""
    code, _, stderr, report = _report(tmp_path, capsys, argv)
    assert "evaluation error" not in stderr and code in (0, 1)
    return json.loads(report)["checks"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", ["all", "fields", "curvature", "cky"])
@pytest.mark.parametrize("name", list(DOCS), ids=list(DOCS))
def test_scales_match_reference(tmp_path, capsys, monkeypatch, name, suite, seed):
    path = write_rod_file(tmp_path, DOCS[name])

    def argv(suite):
        return ["verify", path, "--suite", suite, "--seed", str(seed)]

    if (name, suite) not in REPORTS:
        got = _report(tmp_path, capsys, argv(suite))
        assert got == _reference(tmp_path, capsys, monkeypatch, argv(suite))
        return
    checks = {s: _checks(tmp_path, capsys, argv(s)) for s in ["all", *cli.SUITES]}
    assert checks["all"] == [c for s in cli.SUITES for c in checks[s]]


@pytest.mark.parametrize("name", ["two-nut-4^64", "two-nut-4^66"])
def test_huge_two_nut_passes(tmp_path, capsys, name):
    # a full report that passes, as the unit-scale file does; the decay
    # entry skips, since the rescaled c is no longer -sum a_i a_j (z_j - z_i)^2
    argv = ["verify", write_rod_file(tmp_path, DOCS[name])]
    code, stdout, stderr, report = _report(tmp_path, capsys, argv)
    assert (code, stdout, stderr) == (0, "", "")
    assert json.loads(report)["summary"] == {"pass": 17, "fail": 0, "skip": 1}


# the point count of a call of each spied function
SIZE = {"tod_fields": lambda rods, rho, *args, **kwargs: np.size(rho),
        "tod_metric": lambda fields: np.size(fields.point[0]),
        "curvature_pack": lambda metric: np.size(metric.base[0]),
        "tod_cky_candidate": lambda fields, **kwargs: np.size(fields.point[0]),
        "flat_cky": lambda params, r, *args, **kwargs: np.size(r)}


def _spy(monkeypatch, module, name, fails=None, error=None, orders=None):
    """Record the point count of every call of module.name, and its jet
    order (the default included) in the list orders if one is given; raise
    error on the calls whose arguments fails accepts."""
    real, counts = getattr(module, name), []
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        counts.append(SIZE[name](*args, **kwargs))
        if orders is not None:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            orders.append(call.arguments["order"])
        if fails is not None and fails(*args, **kwargs):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return counts


def test_all_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    orders = {"tod_fields": [], "tod_cky_candidate": [], "flat_cky": []}
    fields = _spy(monkeypatch, tod, "tod_fields", orders=orders["tod_fields"])
    metrics = _spy(monkeypatch, tod, "tod_metric")
    packs = _spy(monkeypatch, curvature, "curvature_pack")
    for name in ("tod_cky_candidate", "flat_cky"):
        _spy(monkeypatch, cky, name, orders=orders[name])
    path = write_rod_file(tmp_path, EH_DOC)
    assert _report(tmp_path, capsys, ["verify", path])[0] == 0
    # the one point set, then the conical and decay checks' own passes;
    # one pack over the point set, and one over the eight flat-family
    # members
    assert fields[0] == 25 and len(fields) == 3
    assert metrics[0] == 25 and len(metrics) == 2
    assert packs == [25, 8]
    # no check reads a derivative above the second, and the two-forms'
    # residuals read first derivatives: the one pass is at order 2,
    # the conical and decay passes at order 1, the cky candidate and the
    # flat members at order 1, and the decay check's candidate at order 0
    assert orders == {"tod_fields": [2, 1, 1], "tod_cky_candidate": [1, 0],
                      "flat_cky": [1]}


# the (points, order) of each tod_fields call: one pass over the point
# set, then the conical and decay checks' own passes
@pytest.mark.parametrize("suite, calls", [
    ("fields", [(25, 2)]),
    ("curvature", [(25, 2)]),
    ("cky", [(25, 2), (5, 1)]),
    ("rods", [(21, 1)]),
], ids=["fields", "curvature", "cky", "rods"])
def test_single_suite_evaluates_each_point_once(tmp_path, capsys, monkeypatch, suite,
                                                 calls):
    orders = []
    fields = _spy(monkeypatch, tod, "tod_fields", orders=orders)
    path = write_rod_file(tmp_path, EH_DOC)
    _report(tmp_path, capsys, ["verify", path, "--suite", suite])
    assert list(zip(fields, orders)) == calls


def test_cky_point_failure_ends_the_run(tmp_path, capsys, monkeypatch):
    # a point whose curvature fails: the run prints the error the point
    # gives and writes no report, as the suite-by-suite reference does at
    # that point, in the curvature suite's turn or, with --suite cky, in
    # the cky suite's
    bad = cli.sample_interior(tod.eh_rod_data(), 25, np.random.default_rng(0))[-1][0]
    _spy(monkeypatch, curvature, "curvature_pack",
         fails=lambda metric: np.isin(bad, metric.base[0]),
         error=SignatureError("metric determinant -1.0 is not positive"))
    path = write_rod_file(tmp_path, EH_DOC)
    for suite in ("all", "cky"):
        argv = ["verify", path, "--suite", suite]
        got = _report(tmp_path, capsys, argv)
        assert got == (1, "", "evaluation error: metric determinant -1.0 is not positive\n",
                       None)
        with monkeypatch.context() as patch:
            assert got == _reference(tmp_path, capsys, patch, argv)
