"""The evaluation passes of ``verify`` against the suite-by-suite reference.

Every ``verify`` run samples one point set, the 25 points of the seed,
and evaluates it in one pass, which the fields, curvature and cky suites
all read; the conical heights and the decay radii share one order-1
pass.  On the extreme-scale files, the report (stdout, stderr, exit
code and report file) must be the one of ``reference_suites``, whose
suites sample and evaluate the same points at orders 3 and 4; the
reference runs skip the passes.  Where that reference's order-4
curvature pass overflows or divides by zero and the order-2 evaluation
does not, the run must print no evaluation error, and a ``--suite all``
run's checks must be the four single suites' checks.  Where the shared
order-1 pass raises, each check evaluates its own points, and every
error comes in the turn it comes in without the shared pass.
"""

import inspect
import json
import random

import numpy as np
import pytest

import reference_suites
from rod_fixtures import skew_rods
from test_cli import rod_doc, run, sixteen_nut_doc, write_rod_file
from todkit import cky, cli, curvature, rods, tod
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
        "connection": lambda metric: np.size(metric.base[0]),
        "fundamental_form": lambda fields: np.size(fields.point[0]),
        "tod_cky_candidate": lambda fields, form=None: np.size(fields.point[0]),
        "flat_cky": lambda params, coframe: np.size(coframe.base[0])}


def _spy(monkeypatch, module, name, fails=None, error=None, orders=None):
    """Record the point count of every call of module.name, and its jet
    order (the default included; for a call with no order argument the
    order its two-form comes out at: its coframe's, or one below its
    fields) in the list orders if one is given; raise error on the calls
    whose arguments fails accepts."""
    real, counts = getattr(module, name), []
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        counts.append(SIZE[name](*args, **kwargs))
        if orders is not None:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            given = call.arguments
            orders.append(given["order"] if "order" in given
                          else given["coframe"].jet.order if "coframe" in given
                          else given["fields"].z.order - 1)
        if fails is not None and fails(*args, **kwargs):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return counts


def test_all_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    orders = {"tod_fields": [], "tod_cky_candidate": [], "flat_cky": []}
    fields = _spy(monkeypatch, tod, "tod_fields", orders=orders["tod_fields"])
    metrics = _spy(monkeypatch, tod, "tod_metric")
    forms = _spy(monkeypatch, tod, "fundamental_form")
    packs = _spy(monkeypatch, curvature, "curvature_pack")
    connections = _spy(monkeypatch, curvature, "connection")
    for name in ("tod_cky_candidate", "flat_cky"):
        _spy(monkeypatch, cky, name, orders=orders[name])
    path = write_rod_file(tmp_path, EH_DOC)
    assert _report(tmp_path, capsys, ["verify", path])[0] == 0
    # the one point set, then one pass over the 21 conical heights and
    # the 5 decay radii; one metric over the point set and one over the
    # conical heights; one fundamental form over the point set, which the
    # fields suite and the cky candidate read, and one in the decay fit;
    # one pack over the point set, which starts from its connection, and
    # a connection alone over the eight flat-family members
    assert fields == [25, 26]
    assert metrics == [25, 21]
    assert forms == [25, 5]
    assert packs == [25]
    assert connections == [25, 8]
    # no check reads a derivative above the second, and the two-forms'
    # residuals read first derivatives: the one pass is at order 2,
    # the conical and decay pass at order 1, the cky candidate and the
    # flat members at order 1, the order of the one coframe they are
    # built on, and the decay check's candidate at order 0
    assert orders == {"tod_fields": [2, 1], "tod_cky_candidate": [1, 0],
                      "flat_cky": [1]}


# the (points, order) of each tod_fields call: one pass over the point
# set, then the conical heights or the decay radii alone
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


@pytest.mark.parametrize("suite, calls", [
    ("all", [(25, 2), (119, 1)]),
    ("cky", [(25, 2)]),
    ("rods", [(119, 1)]),
], ids=["all", "cky", "rods"])
def test_chart_limited_data_evaluates_no_decay_radius(tmp_path, capsys, monkeypatch,
                                                      suite, calls):
    # the 16-nut file has a nonzero centred third moment, so the decay
    # fit does not run: the order-1 pass holds the 17 x 7 conical heights
    orders = []
    fields = _spy(monkeypatch, tod, "tod_fields", orders=orders)
    path = write_rod_file(tmp_path, sixteen_nut_doc(random.Random(7)))
    _report(tmp_path, capsys, ["verify", path, "--suite", suite])
    assert list(zip(fields, orders)) == calls


@pytest.mark.parametrize("doc", [EH_DOC, rod_doc(skew_rods()),
                                 sixteen_nut_doc(random.Random(7))],
                         ids=["two-nut", "skew", "sixteen-nut"])
def test_shared_slices_keep_their_bits(tmp_path, doc):
    # the conical heights and decay radii in one order-1 pass, conical
    # first: each check reads its slice with the bits of its own pass
    data, _ = cli.load_rod_file(write_rod_file(tmp_path, doc))
    sets = [rods.conical_points(data), cky.decay_points(data, cli.DECAY_RADII)]
    rho, zeta = (np.concatenate(x) for x in zip(*sets))
    fields = tod.tod_fields(data, rho, zeta, order=1)
    cut = sets[0][0].size
    assert repr(rods.conical_check(data, fields.at(slice(None, cut)))) == \
        repr(rods.conical_check(data))
    radii = list(cli.DECAY_RADII)
    got = cky.cky_decay_check(data, radii, fields=fields.at(slice(cut, None)))
    assert repr(got) == repr(cky.cky_decay_check(data, radii))


def _separate_passes(monkeypatch):
    # no shared order-1 pass: each check evaluates its own points
    monkeypatch.setattr(cli, "_order1_fields", lambda *args: (None, None))


def test_failing_shared_pass_falls_back(tmp_path, capsys, monkeypatch):
    # an arithmetic error at a conical height: the shared pass raises, and
    # then the conical check's own pass, in the rods suite's turn, which
    # reports it as a located failure; the decay fit's own pass succeeds
    low = rods.conical_points(tod.eh_rod_data())[0][0]
    orders = []
    fields = _spy(monkeypatch, tod, "tod_fields", orders=orders,
                  fails=lambda data, rho, *args, **kwargs: np.isin(low, rho),
                  error=OverflowError("injected"))
    path = write_rod_file(tmp_path, EH_DOC)
    got = _report(tmp_path, capsys, ["verify", path])
    assert list(zip(fields, orders)) == [(25, 2), (26, 1), (21, 1), (5, 1)]
    assert got[:3] == (1, "", "")
    conical = {c["name"]: c for c in json.loads(got[3])["checks"]}["conical"]
    assert (conical["status"], conical["location"]) == ("fail", "evaluation error: injected")
    _separate_passes(monkeypatch)
    assert got == _report(tmp_path, capsys, ["verify", path])


# files whose checks raise: the two-nut file at 2^40 (a decay radius
# falls below rho_min, so the shared pass raises) and the files of
# test_cli's extreme-input tests
ERROR_DOCS = {
    "span-1e307": {"c": -1, "rods": [{"z": -1e307, "a": 0.5}, {"z": 1e307, "a": 0.5}]},
    "nuts-1e-150": {"c": -1.0, "rods": [{"z": -1e-150, "a": 0.5}, {"z": 1e-150, "a": 0.5}]},
    "huge-1e100": DOCS["huge-1e100"],
    "gauge-1e5": dict(EH_DOC, gauge={"h_constant": 1e5}),
    "two-nut-2^40": {"c": -0.0625 * 4.0 ** 40, "rods": [{"z": -0.25 * 2.0 ** 40, "a": 0.5},
                                                        {"z": 0.25 * 2.0 ** 40, "a": 0.5}]},
}
OVERFLOW = "(34, 'Numerical result out of range')"
BELOW = "rho = 2103.677462019741 below rho_min = 5497.55813888"
# (exit code, stderr, the conical entry's location or None) per file and
# suite, as verify gave them with a tod_fields call per check
ERRORS = {
    ("span-1e307", "all"): (1, "evaluation error: W = nan is not positive\n", None),
    ("span-1e307", "rods"): (1, "", f"evaluation error: {OVERFLOW}"),
    ("span-1e307", "cky"): (1, "evaluation error: W = nan is not positive\n", None),
    ("nuts-1e-150", "all"): (1, "evaluation error: float division by zero\n", None),
    ("nuts-1e-150", "rods"): (1, "", "evaluation error: float division by zero"),
    ("nuts-1e-150", "cky"): (1, "evaluation error: float division by zero\n", None),
    ("huge-1e100", "all"): (1, f"evaluation error: {OVERFLOW}\n", None),
    ("huge-1e100", "rods"): (0, "", "rod 1"),
    ("huge-1e100", "cky"): (1, f"evaluation error: {OVERFLOW}\n", None),
    ("gauge-1e5", "all"): (1, "", "evaluation error: float division by zero"),
    ("gauge-1e5", "rods"): (1, "", "evaluation error: float division by zero"),
    ("gauge-1e5", "cky"): (1, "", None),
    ("two-nut-2^40", "all"): (1, f"evaluation error: {BELOW}\n", None),
    ("two-nut-2^40", "rods"): (0, "", "rod 1"),
    ("two-nut-2^40", "cky"): (1, f"evaluation error: {BELOW}\n", None),
}


@pytest.mark.parametrize("name, suite", list(ERRORS), ids=[f"{n}-{s}" for n, s in ERRORS])
def test_errors_keep_their_turn(tmp_path, capsys, monkeypatch, name, suite):
    path = write_rod_file(tmp_path, ERROR_DOCS[name])
    argv = ["verify", path, "--suite", suite]
    got = _report(tmp_path, capsys, argv)
    checks = {c["name"]: c for c in json.loads(got[3])["checks"]} if got[3] else {}
    assert (got[0], got[2], checks.get("conical", {}).get("location")) == ERRORS[name, suite]
    _separate_passes(monkeypatch)
    assert got == _report(tmp_path, capsys, argv)


def test_cky_alone_builds_no_curvature_pack(tmp_path, capsys, monkeypatch):
    # the cky suite reads the connection only: one over the point set and
    # one over the eight flat-family members
    packs = _spy(monkeypatch, curvature, "curvature_pack")
    connections = _spy(monkeypatch, curvature, "connection")
    path = write_rod_file(tmp_path, EH_DOC)
    assert _report(tmp_path, capsys, ["verify", path, "--suite", "cky"])[0] == 0
    assert packs == [] and connections == [25, 8]


def test_cky_point_failure_ends_the_run(tmp_path, capsys, monkeypatch):
    # a point whose connection fails: the run prints the error the point
    # gives and writes no report, as the suite-by-suite reference does at
    # that point, in the curvature suite's turn or, with --suite cky, in
    # the cky suite's; curvature_pack starts from connection, so both
    # paths meet the failure
    bad = cli.sample_interior(tod.eh_rod_data(), 25, np.random.default_rng(0))[-1][0]
    _spy(monkeypatch, curvature, "connection",
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
