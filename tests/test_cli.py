"""Tests for rod-file ingestion, the verify suites, and report plumbing."""

import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from todkit import cli, tod
from todkit.errors import RodDataError

from test_batch import sixteen_nut

EH_DOC = {
    "mode": "ale",
    "c": "-1/16",
    "rods": [{"z": "-1/4", "a": "1/2"}, {"z": "1/4", "a": "1/2"}],
    "gauge": {"h_constant": "symmetric"},
}


def write_rod_file(tmp_path, doc, name="rods.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SINGLE_NUT_DOC = {"c": "-1/4", "rods": [{"z": "0", "a": "1"}]}

WIDE_DOC = {"c": -1, "rods": [{"z": 0.0, "a": 0.5}, {"z": 1.5e308, "a": 0.5}]}


def rod_doc(data):
    return {"c": data.c,
            "rods": [{"z": z, "a": a} for z, a in zip(data.zs, data.weights)]}


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRodFile:
    def test_fraction_strings_give_exact_data(self, tmp_path):
        data, digest = cli.load_rod_file(write_rod_file(tmp_path, EH_DOC))
        assert data.is_exact
        assert float(data.c) == -1 / 16
        assert data.zs == (-0.25, 0.25)
        assert len(digest) == 64

    def test_defaults(self, tmp_path):
        doc = {"c": -0.0625,
               "rods": [{"z": -0.25, "a": 0.5}, {"z": 0.25, "a": 0.5}]}
        data, _ = cli.load_rod_file(write_rod_file(tmp_path, doc))
        assert data.mode == "ale"
        assert data.gauge == "symmetric"

    def test_malformed_documents(self, tmp_path):
        bad = [
            "not json at all",
            json.dumps([1, 2]),
            json.dumps({"c": -1.0}),
            json.dumps({"c": -1.0, "rods": []}),
            json.dumps({"c": -1.0, "rods": [{"z": 0.0}]}),
            json.dumps({"c": -1.0, "rods": [{"z": 0.0, "a": "x/y"}]}),
            json.dumps({"c": -1.0, "rods": [{"z": 0.0, "a": 1.0}],
                        "gauge": {"wrong": 0}}),
            json.dumps({"c": True, "rods": [{"z": 0.0, "a": 1.0}]}),
        ]
        for k, text in enumerate(bad):
            path = tmp_path / f"bad{k}.json"
            path.write_text(text)
            with pytest.raises(RodDataError):
                cli.load_rod_file(str(path))

    def test_validation_exit_codes(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, {
            "c": 0.5, "rods": [{"z": 0.0, "a": 1.0}]})
        code, _, err = run(["verify", path], capsys)
        assert code == 2
        assert "c must be negative" in err

        path = write_rod_file(tmp_path, {
            "c": -1.0,
            "rods": [{"z": -0.5, "a": 0.4}, {"z": 0.5, "a": 0.4}]}, "sum.json")
        code, _, err = run(["verify", path], capsys)
        assert code == 2
        assert "summing to 1" in err


class TestBuild:
    def test_default_grid_row_count(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, _ = run(["build", path], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,zeta,W,F,e2nu,z,lambda"
        assert len(lines) == 401
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 7

    def test_grid_flag(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, _ = run(["build", path, "--grid", "3x5"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 16

    def test_bad_grid(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, _, err = run(["build", path, "--grid", "wide"], capsys)
        assert code == 2
        assert "grid" in err

    def test_lambda_column_matches_z(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, _ = run(["build", path, "--grid", "2x2"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            row = [float(v) for v in line.split(",")]
            assert abs(row[6] - (-2 * (-1 / 16) / row[5] ** 3)) < 1e-12


def per_point_csv(data, nr, nz, rho_range, zeta_range):
    """The build CSV from one tod_fields call per grid point."""
    c = float(data.c)
    lines = ["rho,zeta,W,F,e2nu,z,lambda"]
    for rho in np.linspace(*rho_range, nr):
        for zeta in np.linspace(*zeta_range, nz):
            f = tod.tod_fields(data, float(rho), float(zeta), order=0)
            lam = -2.0 * c / f.z.value ** 3
            row = (rho, zeta, f.W.value, f.F.value, f.e2nu.value, f.z.value, lam)
            lines.append(",".join(format(v, ".16e") for v in row))
    return "\n".join(lines) + "\n"


TINY_DOC = {"c": -1e-300, "rods": [{"z": -1e-160, "a": 0.5},
                                   {"z": 1e-160, "a": 0.5}]}
HUGE_DOC = {"c": -1e200, "rods": [{"z": -1e100, "a": 0.5},
                                  {"z": 1e100, "a": 0.5}]}
CUBE_OVERFLOW_DOC = {"c": -1e206, "rods": [{"z": -1e103, "a": 0.5},
                                           {"z": 1e103, "a": 0.5}]}
SKEW_DOC = {"c": -0.3, "rods": [{"z": -1.0, "a": 0.2}, {"z": 0.2, "a": 0.5},
                                {"z": 0.9, "a": 0.3}]}


class TestBatchedBuild:
    """build evaluates its grid in one pass, byte for byte as point by point."""

    # the single-row and single-column grids are where a loop that
    # formats each axis value once could pair rows with the wrong columns
    @pytest.mark.parametrize("doc, scale, grid", [
        (EH_DOC, 1.0, (7, 9)), (SKEW_DOC, 1.0, (7, 9)), (HUGE_DOC, 1e100, (7, 9)),
        (EH_DOC, 1.0, (1, 1)), (SKEW_DOC, 1.0, (1, 9)), (SKEW_DOC, 1.0, (9, 1)),
        (rod_doc(sixteen_nut()), 8.0, (7, 9)),
    ], ids=["two-nut", "skew", "huge", "two-nut-1x1", "skew-1x9", "skew-9x1",
            "sixteen-nut"])
    def test_csv_matches_point_loop(self, tmp_path, capsys, doc, scale, grid):
        path = write_rod_file(tmp_path, doc)
        rho_range = (0.05 * scale, 2.0 * scale)
        zeta_range = (-1.3 * scale, 1.1 * scale)
        code, out, err = run(["build", path, "--grid", "%dx%d" % grid,
                              f"--rho-range={rho_range[0]!r}:{rho_range[1]!r}",
                              f"--zeta-range={zeta_range[0]!r}:{zeta_range[1]!r}"],
                             capsys)
        assert (code, err) == (0, "")
        data, _ = cli.load_rod_file(path)
        assert out == per_point_csv(data, *grid, rho_range, zeta_range)

    def test_underflow_is_one_evaluation_error(self, tmp_path, capsys):
        # z^3 underflows to 0 in the lambda column; no partial CSV, and
        # the batch's silent overflows to inf raise no numpy warning
        path = write_rod_file(tmp_path, TINY_DOC)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["build", path, "--grid", "40x40"], capsys)
        assert caught == []
        assert code == 1
        assert out == ""
        assert err == "evaluation error: float division by zero\n"

    def test_overflow_is_one_evaluation_error(self, tmp_path, capsys):
        # z^3 overflows in the lambda column: the Python float power
        # raises where numpy's would write inf with a warning
        path = write_rod_file(tmp_path, CUBE_OVERFLOW_DOC)
        out_path = tmp_path / "fields.csv"
        for out_args in ([], ["--out", str(out_path)]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(["build", path, "--grid", "3x3", *out_args],
                                     capsys)
            assert caught == []
            assert (code, out) == (1, "")
            assert err == "evaluation error: (34, 'Numerical result out of range')\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("args, message", [
        (["--rho-range=0:1"], "rho = 0.0 is not interior"),
        (["--grid", "3x3", "--rho-range=1e-8:1", "--zeta-range=-0.2500000001:0.25"],
         "point within 5e-07 of nut at z = -1/4"),
    ], ids=["axis", "nut-ball"])
    def test_first_bad_grid_point(self, tmp_path, capsys, args, message):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, err = run(["build", path, *args], capsys)
        assert (code, out) == (1, "")
        assert err == f"evaluation error: {message}\n"


class TestInputErrors:
    """Bad numbers on the command line exit 2 before any work is done."""

    @pytest.mark.parametrize("args", [
        ["classify", "--nmax", "0"],
        ["pd", "scan", "--case", "ii", "--samples", "-3"],
        ["pd", "scan", "--case", "ii", "--samples", "0"],
        ["pd", "scan", "--case", "ii", "--seed", "-1"],
        ["verify", "ROD", "--seed", "-1"],
        ["build", "ROD", "--rho-range=0.1:inf"],
        ["build", "ROD", "--rho-range=0.1:nan"],
        ["build", "ROD", "--zeta-range=-1e308:1.7e308"],
        ["verify", "ROD", "--tol", "ricci_ratio=nan"],
        ["verify", "ROD", "--tol", "ricci_ratio=inf"],
        ["verify", "ROD", "--tol", "ricci_ratio=-1e-7"],
        # finite rod data, with a finite nut span, whose default build
        # window, and verify's sampling window, is wider than a float
        ["build", "WIDE"],
        ["verify", "WIDE"],
    ])
    def test_exit_two(self, tmp_path, capsys, args):
        paths = {"ROD": write_rod_file(tmp_path, EH_DOC),
                 "WIDE": write_rod_file(tmp_path, WIDE_DOC, "wide.json")}
        argv = [paths.get(a, a) for a in args]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv, capsys)
        assert caught == []
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and err.count("\n") == 1

    # json reads NaN, Infinity and -Infinity; rod data must be finite
    @pytest.mark.parametrize("doc", [
        {**EH_DOC, "c": -math.inf},
        {**EH_DOC, "rods": [{"z": -math.inf, "a": 0.5}, {"z": 0.25, "a": 0.5}]},
        {**EH_DOC, "rods": [{"z": math.nan, "a": 1.0}]},
        {**EH_DOC, "mode": "general",
         "rods": [{"z": -0.25, "a": 0.5}, {"z": 0.25, "a": math.inf}]},
        {**EH_DOC, "gauge": {"h_constant": math.nan}},
        {**EH_DOC, "gauge": {"h_constant": math.inf}},
        # exact, and beyond the float range
        {**EH_DOC, "c": "-1", "rods": [{"z": "-1e400", "a": "1/2"}, {"z": "1e400", "a": "1/2"}]},
        {**EH_DOC, "c": -10 ** 400},
        {**EH_DOC, "gauge": {"h_constant": "1e309"}},
        # finite numbers whose nut span is not, as floats and exactly
        {**EH_DOC, "c": -1, "rods": [{"z": -1e308, "a": 0.5}, {"z": 1e308, "a": 0.5}]},
        {**EH_DOC, "c": "-1", "rods": [{"z": "-1e308", "a": "1/2"}, {"z": "1e308", "a": "1/2"}]},
    ], ids=["c", "z", "z-nan", "a", "gauge-nan", "gauge-inf", "z-exact", "c-int", "gauge-exact",
            "span", "span-exact"])
    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_non_finite_rod_file(self, tmp_path, capsys, doc, command):
        path = write_rod_file(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([command, path], capsys)
        assert caught == []
        assert (code, out) == (2, "")
        assert err.startswith("input error: rod data must be finite")
        assert err.count("\n") == 1


class TestUnwritableOut:
    """An --out path that cannot be opened for writing is an input error."""

    @pytest.mark.parametrize("args", [
        ["build", "ROD", "--grid", "2x2"],
        ["verify", "ROD", "--suite", "rods"],
        ["classify", "--nmax", "2"],
        ["pd", "scan", "--case", "i", "--samples", "5"],
        ["pd", "check", "--roots", "0.2", "0.4", "2.0", "6.25"],
    ], ids=" ".join)
    @pytest.mark.parametrize("target, reason", [
        ("", "Is a directory"), ("missing/out.json", "No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_exit_two(self, tmp_path, capsys, args, target, reason):
        out_path = tmp_path / target
        argv = [write_rod_file(tmp_path, EH_DOC) if a == "ROD" else a for a in args]
        code, out, err = run([*argv, "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"input error: cannot write {out_path}: {reason}\n"
        assert "Traceback" not in err


class TestWorst:
    def test_declared_order_and_ties(self):
        worst = cli._Worst("b", "a")
        worst.push(["p1", "p2"], a=[0.5, 0.5], b=[0.0, -1.0])
        worst.push(["p3"], b=[2e-12])
        checks = worst.checks({"a": 0.1, "b": 1e-12})
        assert [(ch["name"], ch["status"], ch["measured"], ch["location"])
                for ch in checks] == [("b", "fail", 2e-12, "p3"),
                                      ("a", "fail", 0.5, "p2")]
        assert worst.checks({"a": 1.0, "b": 1.0}, good=False)[1]["status"] \
            == "fail"

    def test_nan_residual_fails_where_it_happened(self):
        worst = cli._Worst("a")
        worst.push(["p1", "p2", "p3"], a=[0.5, float("nan"), 0.7])
        worst.push(["p4"], a=[0.9])
        [entry] = worst.checks({"a": 1.0})
        assert entry["status"] == "fail"
        assert entry["location"] == "p2"
        assert math.isnan(entry["measured"])

    def test_nothing_read_is_a_skip(self):
        # a check with no entry, also after an empty push, skips with the
        # reason it is given; a check that read one entry does not
        worst = cli._Worst("b", "a")
        worst.push([], a=np.array([]), b=[])
        worst.push(["p1"], a=[0.0])
        assert worst.checks({"a": 0.0, "b": 0.0}, unread="why") \
            == [cli._skip("b", "why"), cli._check("a", 0.0, 0.0, "p1")]


# the skew three-nut file: float data, every junction off the lattice
SKEW_FILE_DOC = {"c": -0.3, "rods": [{"z": -1.0, "a": 0.3}, {"z": 0.2, "a": 0.4},
                                     {"z": 0.9, "a": 0.3}]}


def sixteen_nut_doc(rng):
    """Float ALE data with 16 uneven nuts: gaps and raw weights uniform on
    [0.5, 1.5], weights normalised to sum 1, standard-cone c."""
    zs = list(itertools.accumulate((rng.uniform(0.5, 1.5) for _ in range(15)),
                                   initial=0.0))
    zs = [z - (zs[0] + zs[-1]) / 2 for z in zs]
    raw = [rng.uniform(0.5, 1.5) for _ in range(16)]
    total = sum(raw)
    weights = [a / total for a in raw]
    c = -sum(weights[i] * weights[j] * (zs[j] - zs[i]) ** 2
             for i in range(16) for j in range(i + 1, 16))
    return {"c": c, "rods": [{"z": z, "a": a} for z, a in zip(zs, weights)]}


def assert_status_follows_tolerance(entry):
    """A check with numeric measured and tolerance passes exactly when
    measured <= tolerance; positivity is the one lower bound."""
    measured, tol = entry["measured"], entry["tolerance"]
    if type(measured) in (int, float) and type(tol) in (int, float):
        want = measured > tol if entry["name"] == "positivity" else measured <= tol
        assert (entry["status"] == "pass") == want, entry


class TestVerify:
    @pytest.mark.parametrize("suite", list(cli.SUITES))
    @pytest.mark.parametrize("doc", [SKEW_FILE_DOC, sixteen_nut_doc(random.Random(7))],
                             ids=["skew", "sixteen-nut"])
    def test_tolerances_are_applied(self, tmp_path, capsys, doc, suite):
        # at the defaults, and with each --tol set one ulp above and one
        # ulp below what its check measured
        path = write_rod_file(tmp_path, doc)

        def checks(overrides):
            args = ["verify", path, "--suite", suite]
            for name, tol in overrides:
                args += ["--tol", f"{name}={tol!r}"]
            _, out, _ = run(args, capsys)
            return json.loads(out)["checks"]

        default = checks(())
        measured = {ch["name"]: ch["measured"] for ch in default
                    if ch["name"] in cli.DEFAULT_TOLS and ch["status"] != "skip"
                    and math.isfinite(ch["measured"])}
        assert measured
        above = [(name, math.nextafter(m, math.inf)) for name, m in measured.items()]
        below = [(name, math.nextafter(m, -math.inf))
                 for name, m in measured.items() if m > 0]
        for overrides in ((), above, below):
            entries = checks(overrides) if overrides else default
            for entry in entries:
                assert_status_follows_tolerance(entry)
            tols = {ch["name"]: ch["tolerance"] for ch in entries}
            assert all(tols[name] == tol for name, tol in overrides)
            assert [ch["measured"] for ch in entries] == [ch["measured"] for ch in default]

    @pytest.mark.parametrize("weights", [
        ("2/5", "3/5"),
        (str(Fraction(1, 2) - Fraction(1, 10**30)),
         str(Fraction(1, 2) + Fraction(1, 10**30))),
    ], ids=["off-lattice", "near-miss"])
    @pytest.mark.parametrize("overrides", [[], ["--tol", "gl2z=10"]],
                             ids=["default", "override"])
    def test_gl2z_on_exact_data(self, tmp_path, capsys, weights, overrides):
        # exact data is compared with tolerance 0, and the report says so
        doc = {"c": "-1/16", "rods": [{"z": "-1/4", "a": weights[0]},
                                      {"z": "1/4", "a": weights[1]}]}
        path = write_rod_file(tmp_path, doc)
        _, out, _ = run(["verify", path, "--suite", "rods", *overrides], capsys)
        checks = json.loads(out)["checks"]
        for entry in checks:
            assert_status_follows_tolerance(entry)
        gl2z = next(ch for ch in checks if ch["name"] == "gl2z")
        assert (gl2z["tolerance"], gl2z["status"]) == (0.0, "fail")
        assert gl2z["measured"] > 0

    def test_eh_all_pass(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, _ = run(["verify", path, "--suite", "all"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "todkit-report-1"
        assert report["status"] == "pass"
        assert report["summary"]["fail"] == 0
        names = {ch["name"] for ch in report["checks"]}
        assert {"killing_det", "ricci_ratio", "gl2z", "decay_exponent"} <= names

    def test_reports_are_byte_stable(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        _, first, _ = run(["verify", path, "--seed", "5"], capsys)
        _, second, _ = run(["verify", path, "--seed", "5"], capsys)
        assert first == second

    def test_perturbed_weights_fail_integrality(self, tmp_path, capsys):
        doc = {"c": -0.0625,
               "rods": [{"z": -0.25, "a": 0.4}, {"z": 0.25, "a": 0.6}]}
        path = write_rod_file(tmp_path, doc)
        code, out, _ = run(["verify", path, "--suite", "rods"], capsys)
        assert code == 1
        report = json.loads(out)
        by_name = {ch["name"]: ch for ch in report["checks"]}
        assert by_name["gl2z"]["status"] == "fail"

    def test_single_nut_degenerate_code(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, {
            "c": -0.25, "rods": [{"z": 0.0, "a": 1.0}]})
        code, out, _ = run(["verify", path, "--suite", "fields"], capsys)
        assert code == 1
        report = json.loads(out)
        first = report["checks"][0]
        assert first["name"] == "w_identically_zero"
        assert first["status"] == "fail"
        assert first["measured"] == 0.0
        assert all(ch["status"] == "skip" for ch in report["checks"][1:])

    @pytest.mark.parametrize("doc, measured, found", [
        (SINGLE_NUT_DOC, 0.0, "W jets vanish on a grid of 36 points"),
        # subnormal c: A/c overflows and W = inf * 0 is NaN on the grid
        ({"c": -1e-320, "rods": [{"z": 0.0, "a": 1.0}]}, "NaN",
         "W jets are not all zero on a grid of 36 points"),
        # tiny c: NaN in three coefficients of higher order only
        ({"c": -1e-307, "rods": [{"z": 0.0, "a": 1.0}]}, "NaN",
         "W jets are not all zero on a grid of 36 points"),
    ], ids=["exact", "subnormal-c", "tiny-c"])
    def test_single_nut_location_follows_certificate(self, tmp_path, capsys,
                                                      doc, measured, found):
        path = write_rod_file(tmp_path, doc)
        code, out, _ = run(["verify", path, "--suite", "fields"], capsys)
        assert code == 1
        first = json.loads(out)["checks"][0]
        assert first["status"] == "fail"
        assert first["measured"] == measured
        assert first["location"] == (f"{found}; single-nut data gives a "
                                     "degenerate metric")

    def test_single_nut_all_suites_report(self, tmp_path, capsys):
        # every suite skips what single-nut data cannot support, so the
        # run ends in a report instead of a conical evaluation error
        path = write_rod_file(tmp_path, SINGLE_NUT_DOC)
        code, out, _ = run(["verify", path, "--suite", "all"], capsys)
        assert code == 1
        by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        assert by_name["w_identically_zero"]["status"] == "fail"
        assert by_name["conical"] == cli._skip("conical", cli.SINGLE_NUT)

    def test_degenerate_decay_fit_is_a_located_skip(self, tmp_path, capsys):
        # at this scale the candidate matches the flat member to rounding
        # at every radius, so the fit has no exponent to report
        path = write_rod_file(tmp_path, rod_doc(tod.eh_rod_data(0.01)))
        code, out, _ = run(["verify", path, "--suite", "cky"], capsys)
        assert code == 0
        by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        assert by_name["decay_exponent"] == cli._skip(
            "decay_exponent", "deviation at rounding level at every radius")

    @pytest.mark.parametrize("doc", [
        EH_DOC,
        SINGLE_NUT_DOC,
        {"c": -0.3, "rods": [{"z": -1.0, "a": 0.2}, {"z": 0.2, "a": 0.5},
                             {"z": 0.9, "a": 0.3}]},
        {"c": -1e-300, "rods": [{"z": -1e-160, "a": 0.5},
                                {"z": 1e-160, "a": 0.5}]},
        {"c": -1e200, "rods": [{"z": -1e100, "a": 0.5},
                               {"z": 1e100, "a": 0.5}]},
    ], ids=["two-nut", "single-nut", "skew", "tiny", "huge"])
    @pytest.mark.parametrize("command", [["verify"], ["build", "--grid", "3x3"],
                                         ["verify", "--suite", "rods"]])
    def test_valid_rod_data_never_raises(self, tmp_path, capsys, doc, command):
        path = write_rod_file(tmp_path, doc)
        code, _, err = run([command[0], path, *command[1:]], capsys)
        assert code in (0, 1)
        assert not err or err.startswith("evaluation error:")

    @pytest.mark.parametrize("h_constant, suite, message", [
        (1e8, "fields", "Singular matrix"),
        (1e300, "all", "Eigenvalues did not converge"),
        (1e300, "curvature", "Eigenvalues did not converge"),
        (-1e300, "all", "Eigenvalues did not converge"),
    ], ids=["1e8-fields", "1e300-all", "1e300-curvature", "-1e300-all"])
    def test_linear_algebra_error_is_an_evaluation_error(self, tmp_path, capsys,
                                                         h_constant, suite, message):
        # a huge gauge constant makes the metric singular, or the Weyl
        # blocks overflow, before the symmetric eigensolver sees them;
        # numpy warns nowhere on the way there
        path = write_rod_file(tmp_path, {**EH_DOC, "gauge": {"h_constant": h_constant}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["verify", path, "--suite", suite], capsys)
        assert (code, out, err) == (1, "", f"evaluation error: {message}\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("h_constant", [1e300, -1e300])
    @pytest.mark.parametrize("suite, failing", [
        ("fields", "killing_det"), ("cky", "candidate_residual")])
    def test_overflowing_gauge_is_a_located_failure(self, tmp_path, capsys, h_constant,
                                                    suite, failing):
        # the overflow reads inf or NaN in a failing check at a point, and
        # numpy warns nowhere on the way
        path = write_rod_file(tmp_path, {**EH_DOC, "gauge": {"h_constant": h_constant}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["verify", path, "--suite", suite], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (1, "")
        check = {ch["name"]: ch for ch in json.loads(out)["checks"]}[failing]
        assert check["status"] == "fail" and check["location"].startswith("rho=")

    @pytest.mark.parametrize("doc", [
        {**EH_DOC, "gauge": {"h_constant": 1e308}},
        {"c": -5e-324, "rods": [{"z": -0.25, "a": 0.5}, {"z": 0.25, "a": 0.5}]},
    ], ids=["gauge-1e308", "c-5e-324"])
    def test_non_finite_level_is_a_located_failure(self, tmp_path, capsys, doc):
        # the rod vectors overflow, so the junction level is NaN: gl2z reads
        # it as infinitely far from an integer
        path = write_rod_file(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["verify", path, "--suite", "rods"], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (1, "")
        checks = [(ch["name"], ch["location"], ch["measured"], ch["status"])
                  for ch in json.loads(out)["checks"]]
        assert checks == [
            ("gl2z", "junction 1", "Infinity", "fail"),
            ("conical", "rod 2", "NaN", "fail"),
            ("asymptotic_class", "normalized lattice data is not integral", None, "fail")]

    @pytest.mark.parametrize("doc, error", [
        ({"c": -1, "rods": [{"z": -1e307, "a": 0.5}, {"z": 1e307, "a": 0.5}]},
         "(34, 'Numerical result out of range')"),
        ({"c": "-1.0", "rods": [{"z": "-1.7e+308", "a": "3/10"},
                                {"z": "-100000000.0", "a": "3/10"},
                                {"z": "1e-160", "a": "1/10"}, {"z": "0.25", "a": "3/10"}]},
         "integer division result too large for a float"),
        ({"c": -1.0, "rods": [{"z": -1e-150, "a": 0.5}, {"z": 1e-150, "a": 0.5}]},
         "float division by zero"),
    ], ids=["span-1e307", "exact-1.7e308", "nuts-1e-150"])
    def test_conical_arithmetic_error_is_a_located_failure(self, tmp_path, capsys, doc,
                                                           error):
        # a conical sample that under- or overflows fails that one check;
        # gl2z and the asymptotic class are still measured
        path = write_rod_file(tmp_path, doc)
        code, out, err = run(["verify", path, "--suite", "rods"], capsys)
        assert (code, err) == (1, "")
        checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        assert list(checks) == ["gl2z", "conical", "asymptotic_class"]
        assert checks["conical"]["status"] == "fail"
        assert checks["conical"]["measured"] == "Infinity"
        assert checks["conical"]["location"] == f"evaluation error: {error}"

    @pytest.mark.parametrize("suite", ["rods", "all"])
    def test_conical_height_below_rho_min_is_a_located_failure(self, tmp_path, capsys,
                                                               suite):
        # the heights sit at about 0.2 min_gap, below rho_min for a 1e-100
        # gap: conical fails at that error, and gl2z and the asymptotic
        # class are still measured
        doc = {"c": -1.0, "rods": [{"z": 0.0, "a": 0.3}, {"z": 1e-100, "a": 0.3},
                                   {"z": 1.0, "a": 0.4}]}
        path = write_rod_file(tmp_path, doc)
        code, out, err = run(["verify", path, "--suite", suite], capsys)
        assert (code, err) == (1, "")
        checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        assert checks["conical"] == cli._check(
            "conical", "Infinity", 1e-6,
            "evaluation error: rho = 2e-101 below rho_min = 1e-08", good=False)
        assert checks["gl2z"]["location"] == "junction 2"
        assert checks["asymptotic_class"]["status"] == "fail"

    def test_degenerate_conical_metric_is_a_located_failure(self, tmp_path, capsys):
        # on nuts at -+1e-160 the conical heights' W underflows to 0: the
        # rods suite still reports the junction and the lens label
        path = write_rod_file(tmp_path, TINY_DOC)
        code, out, err = run(["verify", path, "--suite", "rods"], capsys)
        assert (code, err) == (1, "")
        checks = [(ch["name"], ch["status"], ch["measured"], ch["location"])
                  for ch in json.loads(out)["checks"]]
        assert checks == [
            ("gl2z", "pass", 0.0, "junction 1"),
            ("conical", "fail", "Infinity", "evaluation error: W = 0.0 is not positive"),
            ("asymptotic_class", "pass", None, "L(2,1)")]

    @pytest.mark.parametrize("suite", ["fields", "all"])
    def test_far_single_nut_certificate(self, tmp_path, capsys, suite):
        # the certificate's grid follows the nut, so its jets stay in range
        path = write_rod_file(tmp_path, {"c": -1.0, "rods": [{"z": 1e100, "a": 1.0}]})
        code, out, err = run(["verify", path, "--suite", suite], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out)["checks"][0] == cli._check(
            "w_identically_zero", 0.0, None,
            "W jets vanish on a grid of 36 points; single-nut data gives a "
            "degenerate metric", good=False)

    def test_tol_override(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        code, out, _ = run(["verify", path, "--suite", "rods",
                            "--tol", "conical=1e-20"], capsys)
        assert code == 1
        report = json.loads(out)
        by_name = {ch["name"]: ch for ch in report["checks"]}
        assert by_name["conical"]["status"] == "fail"

        code, _, err = run(["verify", path, "--tol", "bogus=1"], capsys)
        assert code == 2
        assert "bogus" in err

    def test_out_file(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, EH_DOC)
        out_path = tmp_path / "report.json"
        code, out, _ = run(["verify", path, "--suite", "rods",
                            "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["suite"] == "rods"

    def test_unnormalized_c_skips_decay(self, tmp_path, capsys):
        # kappa = 1/16 for these nuts but c = -0.25: cone is squashed, so
        # the decay fit is skipped rather than reported as a failure
        doc = {"c": -0.25,
               "rods": [{"z": -0.25, "a": 0.5}, {"z": 0.25, "a": 0.5}]}
        path = write_rod_file(tmp_path, doc)
        code, out, _ = run(["verify", path, "--suite", "cky"], capsys)
        assert code == 0
        report = json.loads(out)
        by_name = {ch["name"]: ch for ch in report["checks"]}
        assert by_name["decay_exponent"]["status"] == "skip"


class TestClassify:
    def test_default_single_family(self, capsys):
        code, out, _ = run(["classify", "--nmax", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["admissible"] == 1
        survivor = report["admissible"][0]
        assert survivor["n"] == 2
        assert survivor["details"]["level"] == 2
        assert survivor["details"]["weights"] == ["1/2", "1/2"]

    def test_nmax_one_has_degeneracy_certificate(self, capsys):
        code, out, _ = run(["classify", "--nmax", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["admissible"] == 0
        branch = report["branches"][0]
        assert "vanishing W" in branch["certificate"]
        assert branch["details"]["degenerate"] is True

    # a negative level bound is an input error that names the flag, before
    # the search: at --nmax 1 no survivor reads it, at --nmax 6 one would
    @pytest.mark.parametrize("nmax, lmax", [("1", "-5"), ("6", "-1")])
    def test_negative_lmax(self, capsys, nmax, lmax):
        code, out, err = run(["classify", "--nmax", nmax, "--lmax", lmax], capsys)
        assert (code, out) == (2, "")
        assert err == f"input error: --lmax must be at least 0, got {lmax}\n"

    # a bound below the two-nut survivor's level 2 is an input error that
    # names the flag, the bound and the level; the bound 2 holds
    @pytest.mark.parametrize("lmax", ["0", "1"])
    def test_lmax_below_surviving_level(self, capsys, lmax):
        code, out, err = run(["classify", "--nmax", "6", "--lmax", lmax], capsys)
        assert (code, out) == (2, "")
        assert err == f"input error: --lmax {lmax} is below the surviving level 2\n"

    def test_lmax_at_surviving_level(self, capsys):
        code, out, _ = run(["classify", "--nmax", "6", "--lmax", "2"], capsys)
        assert code == 0
        assert json.loads(out)["l_bound"] == 2

    def test_af_lattice_is_informational(self, capsys):
        code, out, _ = run(["classify", "--nmax", "3",
                            "--asymptotics", "af"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["admissible"] == 1
        statuses = {b["status"] for b in report["branches"] if b["n"] == 3}
        assert "informational" in statuses


class TestPd:
    def test_check_spot_values(self, capsys):
        code, out, _ = run(["pd", "check", "--roots",
                            "0.2", "0.4", "2.0", "6.25"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "generic"
        assert not report["regular"]
        assert abs(report["m"] - 32 / 3) < 1e-3
        assert abs(report["n"] + 0.120773) < 1e-5

    def test_check_flat_verdict(self, capsys):
        code, out, _ = run(["pd", "check", "--roots",
                            "-2", "-0.5", "0.5", "2"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "flat"

    def test_scan_is_reproducible(self, capsys):
        args = ["pd", "scan", "--case", "ii", "--samples", "100",
                "--seed", "42"]
        code, first, _ = run(args, capsys)
        assert code == 0
        _, second, _ = run(args, capsys)
        assert first == second
        report = json.loads(first)
        assert report["admissible"] == 0
        assert sum(report["certificates"].values()) == 100

    def test_selfdual_certificate(self, capsys):
        code, out, _ = run(["pd", "selfdual", "--case", "a",
                            "--u", "0.3", "--v", "0.6"], capsys)
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["case"] == "a"
        assert not cert["regular"]
        assert 0 < cert["eps"] < 1

    def test_invalid_roots_exit_two(self, capsys):
        code, _, err = run(["pd", "check", "--roots", "1", "2", "3", "4"],
                           capsys)
        assert code == 2
        assert "product" in err

        code, _, err = run(["pd", "selfdual", "--case", "a"], capsys)
        assert code == 2
        assert "--u" in err

    # strictly increasing roots one ulp apart: F' is exactly 0 at p1 or p2
    @pytest.mark.parametrize("args", [
        ["pd", "check", "--roots", "0.05", "0.05000000000000001",
         "19.999999999999996", "20.000000000000004"],
        ["pd", "selfdual", "--case", "a", "--u", "0.05", "--v", "0.05000000000000001"],
    ], ids=["check", "selfdual"])
    def test_double_root_exit_two(self, capsys, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert caught == []
        assert (code, out) == (2, "")
        assert err.startswith("input error: p1 and p2 form a double root for roots (0.05, ")
        assert err.count("\n") == 1


def strict_json(text):
    """Parse a report as RFC 8259 JSON: a bare NaN or Infinity token raises."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


# valid ALE data whose conical samples all underflow to NaN
UNDERFLOW_DOC = {"c": -1e-300, "rods": [{"z": -1e-150, "a": 0.5},
                                        {"z": 1e-150, "a": 0.5}]}
# valid ALE data whose junction level and conical samples overflow
OVERFLOW_DOC = {"c": -1, "rods": [{"z": -1e307, "a": 0.5}, {"z": 1e307, "a": 0.5}]}


class TestStrictJson:
    def test_non_finite_values_are_strings(self):
        plain = cli._plain({"a": math.nan, "b": [math.inf, np.float64(-math.inf)],
                            "c": 1.5, "d": np.float64(2.0)})
        assert plain == {"a": "NaN", "b": ["Infinity", "-Infinity"],
                         "c": 1.5, "d": 2.0}
        with pytest.raises(ValueError):
            cli.render_report({"a": math.nan})

    def test_nan_measured(self, tmp_path, capsys):
        path = write_rod_file(tmp_path, UNDERFLOW_DOC)
        code, out, _ = run(["verify", path, "--suite", "rods"], capsys)
        assert code == 1
        by_name = {ch["name"]: ch for ch in strict_json(out)["checks"]}
        assert by_name["conical"]["measured"] == "NaN"
        assert by_name["conical"]["status"] == "fail"

    def test_infinite_measured(self, tmp_path, capsys):
        # the junction level and the conical samples overflow
        path = write_rod_file(tmp_path, OVERFLOW_DOC)
        code, out, _ = run(["verify", path, "--suite", "rods"], capsys)
        assert code == 1
        by_name = {ch["name"]: ch for ch in strict_json(out)["checks"]}
        for name in ("gl2z", "conical"):
            assert by_name[name]["measured"] == "Infinity"
            assert by_name[name]["status"] == "fail"

    @pytest.mark.parametrize("args", [
        ["verify", "ROD_FILE", "--suite", "all"],
        ["classify", "--nmax", "6"],
        ["pd", "check", "--roots", "0.2", "0.4", "2.0", "6.25"],
        ["pd", "check", "--case", "a", "--u", "0.3", "--v", "0.6"],
        ["pd", "scan", "--case", "ii", "--samples", "100", "--seed", "42"],
        ["pd", "selfdual", "--case", "a", "--u", "0.3", "--v", "0.6"],
        ["pd", "selfdual", "--case", "b", "--u", "-2.5", "--v", "0.7"],
    ], ids=["verify", "classify", "pd-check-roots", "pd-check-case",
            "pd-scan", "pd-selfdual-a", "pd-selfdual-b"])
    def test_reports_are_strict_json(self, tmp_path, capsys, args):
        path = write_rod_file(tmp_path, EH_DOC)
        args = [path if a == "ROD_FILE" else a for a in args]
        code, out, _ = run(args, capsys)
        assert code in (0, 1)
        assert strict_json(out)["schema"] == cli.SCHEMA


def count_entries(monkeypatch, name):
    """Spy on harmonic.<name>, whose second argument is the per-nut jet s:
    the list returned gets the number of (nut, point) entries of each call."""
    entries = []
    helper = getattr(cli.harmonic, name)
    monkeypatch.setattr(cli.harmonic, name,
                        lambda *args: entries.append(np.size(args[1].value)) or helper(*args))
    return entries


class TestFieldsSuiteCost:
    def test_one_nut_pass_per_point(self, tmp_path, monkeypatch):
        # 25 points, each nut's sqrt and log evaluated once per point:
        # count the (nut, point) entries each split helper gets
        data, _ = cli.load_rod_file(write_rod_file(tmp_path, EH_DOC))
        radii = count_entries(monkeypatch, "_radius")
        logs = count_entries(monkeypatch, "_artanh")
        cli.suite_fields(data, 0, cli.DEFAULT_TOLS, cli._evaluate(data, 0, ["fields"]))
        assert sum(radii) == 25 * 2
        assert sum(logs) == 25 * 2


class TestArtanhEntries:
    """The per-nut artanh jets, and the Ward coordinate x they sum, are
    evaluated only at the points where a check reads x: the potentials,
    the Toda residual and the fundamental form."""

    @pytest.mark.parametrize("doc, args, entries", [
        (EH_DOC, ["build", "ROD_FILE", "--grid", "4x3"], 0),
        (sixteen_nut_doc(random.Random(7)), ["verify", "ROD_FILE", "--suite", "rods"], 0),
        (EH_DOC, ["classify", "--nmax", "6"], 0),
        # the sampled points and the decay radii, never the conical heights
        (EH_DOC, ["verify", "ROD_FILE", "--suite", "all"], (25 + len(cli.DECAY_RADII)) * 2),
        # chart-limited: the decay fit is skipped
        (sixteen_nut_doc(random.Random(7)), ["verify", "ROD_FILE", "--suite", "all"], 25 * 16),
    ], ids=["build", "verify-rods-16", "classify", "verify-all-2", "verify-all-16"])
    def test_commands(self, tmp_path, capsys, monkeypatch, doc, args, entries):
        path = write_rod_file(tmp_path, doc)
        logs = count_entries(monkeypatch, "_artanh")
        code, _, _ = run([path if a == "ROD_FILE" else a for a in args], capsys)
        assert code in (0, 1)
        assert sum(logs) == entries

    def test_single_nut_certificate(self, monkeypatch):
        logs = count_entries(monkeypatch, "_artanh")
        assert cli.classify.verify_n1_degenerate()["degenerate"]
        assert logs == []


def count_reads(monkeypatch, *names):
    """Spy on the lazy TodFields properties names: the list returned gets
    the name at each read."""
    reads = []
    for name in names:
        lazy = getattr(tod.TodFields, name)
        monkeypatch.setattr(tod.TodFields, name, property(
            lambda self, name=name, lazy=lazy:
                reads.append(name) or lazy.__get__(self, tod.TodFields)))
    return reads


class TestLazyMetricFields:
    """e^2nu and F are computed only where a check reads them: the metric
    and build do, the single-nut certificate, which reads W alone, does
    not."""

    @pytest.mark.parametrize("doc, args, read", [
        (EH_DOC, ["build", "ROD_FILE", "--grid", "4x3"], {"e2nu", "F"}),
        (EH_DOC, ["classify", "--nmax", "6"], set()),
    ], ids=["build", "classify"])
    def test_commands(self, tmp_path, capsys, monkeypatch, doc, args, read):
        path = write_rod_file(tmp_path, doc)
        reads = count_reads(monkeypatch, "e2nu", "F")
        code, _, _ = run([path if a == "ROD_FILE" else a for a in args], capsys)
        assert code == 0
        assert set(reads) == read

    def test_single_nut_certificate(self, monkeypatch):
        reads = count_reads(monkeypatch, "e2nu", "F")
        assert cli.classify.verify_n1_degenerate()["degenerate"]
        assert reads == []


CONE_TEXT = "needs c = -sum a_i a_j (z_j - z_i)^2 (standard asymptotic cone)"
MOMENT_TEXT = "nonzero centered third moment: polar chart is not the fast-rate chart"


def shrunk(doc, alpha):
    """doc with every nut position times alpha."""
    return {**doc, "rods": [{**r, "z": r["z"] * alpha} for r in doc["rods"]]}


def standard_cone(doc):
    """doc with c = -sum_{i<j} a_i a_j (z_j - z_i)^2, the standard cone."""
    nuts = [(r["z"], r["a"]) for r in doc["rods"]]
    c = -sum(a_i * a_j * (z_j - z_i) ** 2
             for i, (z_i, a_i) in enumerate(nuts) for z_j, a_j in nuts[i + 1:])
    return {**doc, "c": c}


class TestDecayPreconditions:
    @pytest.mark.parametrize("suite", ["cky", "all"])
    @pytest.mark.parametrize("doc, calls, location", [
        (SKEW_FILE_DOC, 0, CONE_TEXT),
        (standard_cone(SKEW_FILE_DOC), 0, MOMENT_TEXT),
        # the moment, -1.6e-13 here, is compared on the scale of the nuts
        (standard_cone(shrunk(SKEW_FILE_DOC, 1e-4)), 0, MOMENT_TEXT),
        (sixteen_nut_doc(random.Random(7)), 0, MOMENT_TEXT),
        (EH_DOC, 1, "r in [100, 10000]"),
    ], ids=["skew", "skew-standard-cone", "skew-standard-cone-1e-4", "sixteen-nut",
            "two-nut"])
    def test_fit_runs_only_where_reported(self, tmp_path, capsys, monkeypatch, suite,
                                          doc, calls, location):
        path = write_rod_file(tmp_path, doc)
        fits = []
        fit = cli.cky.cky_decay_check
        monkeypatch.setattr(cli.cky, "cky_decay_check",
                            lambda *args, **kwargs: fits.append(args) or fit(*args, **kwargs))
        _, out, _ = run(["verify", path, "--suite", suite], capsys)
        entry = {ch["name"]: ch for ch in json.loads(out)["checks"]}["decay_exponent"]
        assert len(fits) == calls
        assert entry["location"] == location
        assert (entry["status"] == "skip") == (calls == 0)
        if location == MOMENT_TEXT:
            # the fit that is no longer run would have said the same
            data, _ = cli.load_rod_file(path)
            assert fit(data, list(cli.DECAY_RADII))["chart_limited"]

