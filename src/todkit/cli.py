"""Command line front end: rod files, verification suites, and reports.

Subcommands: build samples the metric fields on a grid to CSV, verify
runs the invariant suites against a rod file and emits a JSON report,
classify prints the admissible-family search with certificates, and pd
dispatches the quartic-root family checks and scans.  The first main
call of a process builds the whole argparse tree (build_parser), and
every later call parses with that tree; main runs the command function
that the tree names, looked up in this module at call time.

Rod files are JSON: {"mode": "ale", "c": -0.0625, "rods": [{"z": -0.25,
"a": 0.5}, {"z": 0.25, "a": 0.5}], "gauge": {"h_constant": "symmetric"}}.
Numbers may be decimal or p/q strings, which opt in to exact-rational
evaluation where the receiving routine supports it.

Exit codes: 0 all checks pass, 1 verification or evaluation failure,
2 malformed input or an --out path that cannot be written.  Reports are
deterministic for a fixed input file and seed: keys are sorted, floats
use shortest round-trip notation, and no timestamps or environment
details are recorded.  All loops are serial, so thread count cannot
reorder any reduction.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, classify, cky, curvature, harmonic, jets, pd, rods, tod
from .cky import FlatCkyParams
from .errors import LevelBoundError, RodDataError, TodkitError
from .harmonic import RodData

SCHEMA = "todkit-report-1"

DECAY_RADII = tuple(100.0 * 100.0 ** (i / 4) for i in range(5))

# The jet order of the 25 points verify samples: no check reads a
# derivative above the second.  curvature_pack reads the metric's
# values, first and second derivatives (ricci_ratio, weyl_spectrum,
# lambda_z3, and conformal_factor, whose scalar_laplacian also reads
# 1/z to second order); the fields suite reads second partials of V and
# of the Toda jet, first partials of H and the Ward coordinates, and the
# metric's values.  cky_residual reads a two-form's values and first
# derivatives, and a connection, which reads a metric's values and first
# derivatives, so the flat-family members and their flat metric are built
# on one coframe at VERIFY_ORDER - 1, where the candidate comes out: a
# two-form comes out one order below its fields, as it carries first
# derivatives of the Ward coordinates.  The conical heights and decay
# radii share a second pass, at order 1 (_order1_fields): the conical
# quotient reads first derivatives of the metric, and the decay fit the
# values of its order-0 candidate.  One pass at order 2 over all three
# point sets would cost more than the two: on 16 nuts, 3.57 ms against
# 1.11 + 1.42 ms.
VERIFY_ORDER = 2

DEFAULT_TOLS = {
    "killing_det": 1e-12,
    "harmonic_v": 1e-12,
    "conjugate_pair": 1e-12,
    "toda": 1e-7,
    "norm_identity": 1e-11,
    "ricci_ratio": 1e-7,
    "weyl_spectrum": 1e-7,
    "lambda_z3": 1e-7,
    "conformal_factor": 1e-8,
    "gl2z": 1e-9,
    "conical": 1e-6,
    "flat_family_residual": 1e-12,
    "flat_norm_formula": 1e-12,
    "candidate_residual": 1e-8,
    "candidate_killing": 1e-8,
    "decay_exponent": 0.1,
}


# ---------------------------------------------------------------------------
# rod file ingestion


def _number(raw, field):
    """Accept JSON numbers, and decimal or p/q strings as exact rationals."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise RodDataError(f"{field}: cannot parse {raw!r} as a rational")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise RodDataError(f"{field}: expected a number, got {raw!r}")
    return raw


def load_rod_file(path):
    """Parse and validate a rod file; returns (RodData, sha256 hex)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise RodDataError(f"cannot read rod file: {exc}")
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise RodDataError(f"rod file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise RodDataError("rod file must hold a JSON object")
    for key in ("c", "rods"):
        if key not in doc:
            raise RodDataError(f"rod file is missing {key!r}")
    entries = doc["rods"]
    if not isinstance(entries, list) or not entries:
        raise RodDataError('"rods" must be a non-empty list')
    zs, weights = [], []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "z" not in entry or "a" not in entry:
            raise RodDataError(f'rod {k} must be an object with "z" and "a"')
        zs.append(_number(entry["z"], f"rods[{k}].z"))
        weights.append(_number(entry["a"], f"rods[{k}].a"))
    gauge = doc.get("gauge", {"h_constant": "symmetric"})
    if not isinstance(gauge, dict) or "h_constant" not in gauge:
        raise RodDataError('gauge must be an object with an "h_constant" entry')
    h_constant = gauge["h_constant"]
    if h_constant != "symmetric":
        h_constant = _number(h_constant, "gauge.h_constant")
    data = RodData(c=_number(doc["c"], "c"), zs=tuple(zs),
                   weights=tuple(weights), gauge=h_constant,
                   mode=doc.get("mode", "ale"))
    return data, hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# report plumbing


def _plain(value):
    """value as JSON data: Fractions and unknown objects as strings, and a
    NaN or an infinity as the string of its json token ("NaN",
    "Infinity", "-Infinity"), since the bare token is not JSON.

    The types of nearly every report value are checked first; a Fraction,
    whose isinstance check goes through its number ABC, falls through to
    str with the unknown objects."""
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else json.dumps(value)
    if isinstance(value, np.integer):
        return int(value)
    return str(value)


def _check(name, measured, tolerance, location="", good=None):
    if good is None:
        good = measured <= tolerance
    return {"name": name, "status": "pass" if good else "fail",
            "measured": measured, "tolerance": tolerance,
            "location": location}


def _skip(name, location):
    return {"name": name, "status": "skip", "measured": None,
            "tolerance": None, "location": location}


def _write_report(out, fields, seed=None, **metadata):
    """Emit one report: the schema tag, the command's fields and metadata."""
    report = {"schema": SCHEMA, **fields,
              "metadata": {"seed": seed, "version": __version__, **metadata}}
    _emit(render_report(_plain(report)), out)


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise RodDataError(f"cannot write {out}: {exc.strerror}")


def _loc(rho, zeta):
    return f"rho={rho:.6g}, zeta={zeta:.6g}"


def sample_interior(data, count, rng):
    """count points off rng that pass data.interior_check, from the window
    rho in scale * [0.1, 10^0.45] and zeta within 0.75 scale of the nuts,
    which must be finite: a (count, 2) array of (rho, zeta) rows.

    The missing points are drawn in one batch, a row per draw, and
    data.interior_mask screens it; later batches refill the rejected
    draws.  The stream is read in the order, and each value has the bits,
    of one draw at a time: u, then zeta, and rho = scale * 10.0 ** u, the
    float power.
    """
    lo = float(data.zs[0]) - 0.75 * data.scale
    hi = float(data.zs[-1]) + 0.75 * data.scale
    top = data.scale * 10.0 ** 0.45
    if not (math.isfinite(hi - lo) and math.isfinite(top)):
        raise RodDataError("sampling window must be finite, got "
                           f"rho up to {top!r} and zeta {lo!r}:{hi!r}")
    points = np.empty((0, 2))
    while len(points) < count:
        draws = rng.uniform((-1.0, lo), (0.45, hi), size=(count - len(points), 2))
        draws[:, 0] = data.scale * jets.libm(pow, np.full(len(draws), 10.0), draws[:, 0])
        points = np.concatenate([points, draws[data.interior_mask(*draws.T)]])
    return points


class _Evaluation(NamedTuple):
    """A verify run's one evaluation per jet order, which the suites read.

    At VERIFY_ORDER: the sampled points' locations (an object array of
    _loc strings), their fields and metric, their fundamental form when
    the fields or cky suite runs, and their curvature pack, or only its
    connection when the cky suite runs without the curvature suite.  At
    order 1: the fields of the conical heights and of the decay radii,
    where the two share a pass (_order1_fields).  Each is None where it
    is not evaluated here.
    """

    locations: np.ndarray
    fields: tod.TodFields
    metric: tod.JetMatrix
    form: tod.JetMatrix
    pack: curvature.Connection
    conical: tod.TodFields
    decay: tod.TodFields


def _flat_draws(rng):
    """The (angle, r, theta) draws of the cky suite's eight flat-family
    members, off their own default_rng(seed) stream: an (8, 3) array."""
    return rng.uniform((0.0, 0.4, 0.25), (2.0 * math.pi, 3.0, math.pi - 0.25),
                       size=(8, 3))


def _order1_fields(data, names):
    """The order-1 fields of the conical heights and of the decay radii,
    from one tod_fields call over both, conical heights first: (conical,
    decay), where the run holds the rods and cky suites and the decay
    fit runs.

    Else, or if the pass raises, both are None, and each check evaluates
    its own points: an error is then raised in its suite's turn, as it is
    without the shared pass.
    """
    try:
        if not ("rods" in names and "cky" in names) or _decay_skip(data):
            return None, None
        conical, decay = rods.conical_points(data), cky.decay_points(data, DECAY_RADII)
        fields = tod.tod_fields(data, *map(np.concatenate, zip(conical, decay)), order=1)
    except Exception:
        return None, None
    cut = conical[0].size
    return fields.at(slice(None, cut)), fields.at(slice(cut, None))


def _evaluate(data, seed, names):
    """The point sets of a verify run, each evaluated once per jet order.

    25 points come from the seed, and the fields, curvature and cky
    suites all read them.  One tod_fields and one tod_metric at
    VERIFY_ORDER run over the set, one fundamental_form for the fields
    and cky suites, then one curvature_pack when the curvature suite is
    selected, or else one connection, all that the cky suite reads, when
    that one is.  The conical and decay points share one order-1 pass
    (_order1_fields).  Returns the _Evaluation, or None on single-nut
    data and for the rods suite alone, whose conical check then
    evaluates its own points.
    """
    if data.n == 1 or names == ["rods"]:
        return None
    points = sample_interior(data, 25, np.random.default_rng(seed))
    fields = tod.tod_fields(data, *points.T, order=VERIFY_ORDER)
    metric = tod.tod_metric(fields)
    form = tod.fundamental_form(fields) if "fields" in names or "cky" in names else None
    pack = (curvature.curvature_pack(metric) if "curvature" in names
            else curvature.connection(metric) if "cky" in names else None)
    locations = np.array([_loc(rho, zeta) for rho, zeta in points.tolist()], dtype=object)
    return _Evaluation(locations, fields, metric, form, pack, *_order1_fields(data, names))


class _Worst:
    """The worst residual of each declared check and where it happened.

    push(locations, **residuals) reads one array per check, an entry per
    location, and keeps per name the largest entry read, a NaN counting
    as the largest of all, so that the check fails where it happened;
    on a tie the later entry wins.  Any split of the entries into pushes
    gives what pushing each alone, in order, gives.  checks() returns
    the entries in declared order, and a check that read no entry as a
    skip located at unread, the reason.
    """

    def __init__(self, *names):
        self.worst = dict.fromkeys(names)

    def push(self, locations, **residuals):
        for name, values in residuals.items():
            values = np.asarray(values, dtype=float)
            if not values.size:
                continue
            nan = np.flatnonzero(np.isnan(values))
            # the last NaN, else the last entry equal to the max
            k = nan[-1] if nan.size else values.size - 1 - np.argmax(values[::-1])
            value, stored = float(values[k]), self.worst[name]
            if stored is None or value >= stored[0] or math.isnan(value):
                self.worst[name] = (value, locations[k])

    def checks(self, tols, good=None, unread="no entry was read"):
        return [_skip(name, unread) if entry is None
                else _check(name, entry[0], tols[name], entry[1], good)
                for name, entry in self.worst.items()]


SINGLE_NUT = "degenerate single-nut data"


# ---------------------------------------------------------------------------
# suites


# Each suite takes the rod data, the seed, the tolerances and the run's
# _Evaluation from _evaluate, which is None for the rods suite alone and
# on single-nut data: the suites that sample points only read it.  A
# check whose shared order-1 fields are None evaluates its own points.


def suite_fields(data, seed, tols, evaluation):
    worst = _Worst("killing_det", "harmonic_v", "conjugate_pair", "toda",
                   "norm_identity")
    if data.n == 1:
        cert = classify.verify_n1_degenerate(rods=data)
        found = "vanish" if cert["degenerate"] else "are not all zero"
        return [_check("w_identically_zero", cert["max_abs_w_jet"], None,
                       f"W jets {found} on a grid of {cert['points']} points; "
                       "single-nut data gives a degenerate metric", good=False)
                ] + worst.checks(tols, unread=SINGLE_NUT) + [_skip("positivity", SINGLE_NUT)]

    locations, fields = evaluation.locations, evaluation.fields
    V, H = harmonic.potentials(fields)
    gv = evaluation.metric.values()
    r = fields.point[0]
    det = gv[:, 0, 0] * gv[:, 1, 1] - gv[:, 0, 1] * gv[:, 0, 1]
    killing_det = np.abs(det - r * r) / (r * r)
    om = evaluation.form.values()
    norm_sq = curvature.norm_squared(np.linalg.inv(gv), om)
    toda = harmonic.toda_residual(fields)
    v20, v10, v01, v02 = (V.partial(*p) for p in ((2, 0), (1, 0), (0, 1), (0, 2)))
    h10, h01 = (H.partial(*p) for p in ((1, 0), (0, 1)))
    low = np.where(fields.e2nu.value < fields.W.value, fields.e2nu.value, fields.W.value)
    t0, t1, t2 = v20, v10 / r, v02
    scale = np.abs(h10) + np.abs(h01)
    # libm's float division raises where a divisor is zero, as a point's
    # own division would; the terms add left to right, as ordered_sum does
    worst.push(
        locations, killing_det=killing_det,
        harmonic_v=jets.libm(operator.truediv, np.abs(0.0 + t0 + t1 + t2),
                             0.0 + np.abs(t0) + np.abs(t1) + np.abs(t2)),
        conjugate_pair=np.maximum(jets.libm(operator.truediv, np.abs(h10 + r * v01), scale),
                                  jets.libm(operator.truediv, np.abs(h01 - r * v10), scale)),
        toda=np.abs(toda), norm_identity=np.abs(norm_sq - 4.0) / 4.0)
    # the first strict minimum: no NaN and no inf is one
    k = np.argmin(np.where(low < math.inf, low, math.inf))
    min_field, min_loc = (float(low[k]), locations[k]) if low[k] < math.inf else (math.inf, "")
    return worst.checks(tols) + [_check("positivity", min_field, 0.0, min_loc,
                                        good=min_field > 0.0)]


def suite_curvature(data, seed, tols, evaluation):
    worst = _Worst("ricci_ratio", "weyl_spectrum", "lambda_z3",
                   "conformal_factor")
    if data.n == 1:
        return worst.checks(tols, unread=SINGLE_NUT)
    c = float(data.c)
    locations, fields, pack = evaluation.locations, evaluation.fields, evaluation.pack
    norms = curvature.invariant_norms(pack)
    split = curvature.weyl_split(pack)
    omega = 1 / fields.z
    lap = curvature.scalar_laplacian(pack, omega)
    # the points where the self-dual block has a simple eigenvalue lam
    has = np.not_equal(split.lam, None)
    lam = np.array(split.lam, dtype=float)
    want = np.sort(np.stack([lam, -lam / 2, -lam / 2], axis=-1), axis=-1)
    weyl = np.max(np.abs(np.sort(split.eigs_plus) - want), axis=-1) / np.abs(lam)
    # libm's pow and float division raise where a point's own would
    worst.push(locations, ricci_ratio=jets.libm(operator.truediv, norms["ricci"],
                                                norms["riemann"]),
               weyl_spectrum=np.where(has, weyl, math.inf))
    want_lap = -2 * c * jets.libm(pow, omega.value[has], 4)
    z3 = jets.libm(pow, fields.z.value[has], 3)
    worst.push(
        locations[has],
        lambda_z3=jets.libm(operator.truediv, np.abs(lam[has] * z3 + 2 * c), abs(2 * c)),
        conformal_factor=jets.libm(operator.truediv, np.abs(lap[has] - want_lap),
                                   np.abs(want_lap)))
    return worst.checks(tols, unread="no sampled point has a simple self-dual eigenvalue")


def suite_rods(data, seed, tols, evaluation):
    junctions = _Worst("gl2z")
    reports = rods.gl2z_compatibility(data, tol=tols["gl2z"])
    # measured on the exact level and sign, so that exact data reads its
    # true distance (tolerance 0), not a rounded one
    junctions.push(
        [f"junction {rep.middle}" + (" (singular basis)" if rep.singular else "")
         for rep in reports],
        gl2z=[float(rep.distance) for rep in reports])
    # the tolerance gl2z_compatibility applied: 0 on exact data
    checks = junctions.checks({"gl2z": tols["gl2z"] * data.slack},
                              good=all(rep.ok for rep in reports),
                              unread="no junction: single-nut data has no middle rod")

    conical = _Worst("conical")
    # the shared order-1 fields, or None for the check's own pass
    shared = evaluation.conical if evaluation else None
    try:
        reports = rods.conical_check(data, shared) if data.n > 1 else ()
    except (ArithmeticError, TodkitError) as exc:
        # a sample under- or overflowed as one float would, or a height
        # cannot be evaluated (below rho_min, say): the check fails, named
        # by the error, and the other rod checks stand
        conical.push([f"evaluation error: {exc}"], conical=[math.inf])
        reports = ()
    conical.push([f"rod {rep.rod}" for rep in reports],
                 conical=[abs(rep.limit - 1.0) for rep in reports])
    checks += conical.checks(tols, unread=SINGLE_NUT)

    try:
        label, good = rods.asymptotic_class(data).label, True
    except RodDataError as exc:
        label, good = str(exc), False
    return checks + [_check("asymptotic_class", None, None, label, good)]


def suite_cky(data, seed, tols, evaluation):
    flat = _Worst("flat_family_residual", "flat_norm_formula")
    ang, r, theta = _flat_draws(np.random.default_rng(seed)).T
    # all eight family members in one pass
    params = FlatCkyParams(k1=jets.libm(math.cos, ang), k2=jets.libm(math.sin, ang))
    # the residual and the norm read the connection and the form's first
    # derivatives only: one order-1 coframe serves both
    coframe = cky.flat_coframe(r, theta, VERIFY_ORDER - 1)
    pack = curvature.connection(cky.flat_metric(coframe))
    Z = cky.flat_cky(params, coframe)
    residual = curvature.cky_residual(pack, Z)[0]
    norm_sq = curvature.norm_squared(pack.ginv, Z.values())
    want = cky.flat_norm_squared(params, r, theta)
    flat.push([f"r={r_k:.6g}, theta={theta_k:.6g}, k1={k1:.6g}"
               for r_k, theta_k, k1 in zip(r, theta, params.k1)],
              flat_family_residual=residual,
              flat_norm_formula=np.abs(norm_sq - want) / np.maximum(np.abs(want), 1.0))
    checks = flat.checks(tols)

    candidate = _Worst("candidate_residual", "candidate_killing")
    if data.n == 1:
        return checks + candidate.checks(tols, unread=SINGLE_NUT) + [_decay_entry(data, tols)]
    pack, Z = evaluation.pack, cky.tod_cky_candidate(evaluation.fields, evaluation.form)
    residual, xi = curvature.cky_residual(pack, Z)
    off = np.max(np.abs(xi - np.array([1.0, 0, 0, 0])), axis=-1)
    killing = curvature.killing_residual(pack, xi)
    # the builtin max(off, killing), NaN included
    candidate.push(evaluation.locations, candidate_residual=residual,
                   candidate_killing=np.where(killing > off, killing, off))
    return checks + candidate.checks(tols) + [_decay_entry(data, tols, evaluation.decay)]


def _decay_skip(data):
    """Why the decay fit does not run on data, or None where it runs.

    Its preconditions are the standard cone and a zero centred third
    moment (RodData.third_moment); single-nut data has no fit.
    """
    if data.n == 1:
        return SINGLE_NUT
    c, kappa = data.floats.c, jets.ordered_sum(data.pairs.w.tolist())
    if abs(c + kappa) > 1e-9 * kappa:
        return "needs c = -sum a_i a_j (z_j - z_i)^2 (standard asymptotic cone)"
    if cky.chart_limited(data):
        return "nonzero centered third moment: polar chart is not the fast-rate chart"


def _decay_entry(data, tols, fields=None):
    """The two-form decay rate in the far field, or why it cannot be fitted.

    The preconditions (_decay_skip) are tested first, so the fit runs
    only where its exponent is reported.  fields are the order-1 fields
    at the fit's points, or None for the fit's own pass.
    """
    name = "decay_exponent"
    if reason := _decay_skip(data):
        return _skip(name, reason)
    report = cky.cky_decay_check(data, list(DECAY_RADII), fields=fields)
    if report["exponent"] is None:
        return _skip(name, "deviation at rounding level at every radius")
    return _check(name, abs(report["exponent"] + 2.0), tols[name],
                  f"r in [{DECAY_RADII[0]:g}, {DECAY_RADII[-1]:g}]")


SUITES = {
    "fields": suite_fields,
    "curvature": suite_curvature,
    "rods": suite_rods,
    "cky": suite_cky,
}


# ---------------------------------------------------------------------------
# commands


def _parse_range(text, fallback):
    """(lo, hi) from text "lo:hi", or the fallback when text is None; both
    must be finite and increasing."""
    if text is None:
        lo, hi = fallback
        shown = f"{lo!r}:{hi!r} (the default for this rod data)"
    else:
        shown = repr(text)
        parts = text.split(":")
        if len(parts) != 2:
            raise RodDataError(f"range must be lo:hi, got {shown}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise RodDataError(f"range must hold numbers, got {shown}")
    if not math.isfinite(hi - lo):
        # also catches a width beyond the float range, which np.linspace
        # would turn into NaN grid points
        raise RodDataError(f"range must be finite, got {shown}")
    if not lo < hi:
        raise RodDataError(f"range must be increasing, got {shown}")
    return lo, hi


def _at_least(flag, value, low):
    if value < low:
        raise RodDataError(f"{flag} must be at least {low}, got {value}")


_CELLS = ",".join(["%.16e"] * 5)


def cmd_build(args):
    data, _ = load_rod_file(args.rod_file)
    try:
        nr, nz = (int(p) for p in args.grid.lower().split("x"))
    except ValueError:
        raise RodDataError(f"grid must be NxM, got {args.grid!r}")
    if nr < 1 or nz < 1:
        raise RodDataError("grid must be at least 1x1")
    scale = data.scale
    rho_lo, rho_hi = _parse_range(args.rho_range,
                                  (0.05 * scale, 2.0 * scale))
    zeta_lo, zeta_hi = _parse_range(
        args.zeta_range,
        (float(data.zs[0]) - 0.5 * scale, float(data.zs[-1]) + 0.5 * scale))
    c = float(data.c)
    # the whole grid in one pass, rho-major; each point's floats are the
    # ones its own tod_fields call would give.  Each axis value is
    # formatted once; one iterator over the four field columns is shared
    # by the rows, zeta cells first so zip stops at a row's end.  lambda
    # is a Python float per point, so z^3's underflow or overflow raises
    rho = np.linspace(rho_lo, rho_hi, nr)
    zeta = np.linspace(zeta_lo, zeta_hi, nz)
    f = tod.tod_fields(data, np.repeat(rho, nz), np.tile(zeta, nr), order=0)
    values = zip(*(v.value.tolist() for v in (f.W, f.F, f.e2nu, f.z)))
    cells = ["%.16e," % q for q in zeta.tolist()]
    lines = ["rho,zeta,W,F,e2nu,z,lambda"]
    for head in ["%.16e," % r for r in rho.tolist()]:
        for q, (w, ff, e, z) in zip(cells, values):
            lines.append(head + q + _CELLS % (w, ff, e, z, -2.0 * c / z ** 3))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args):
    _at_least("--seed", args.seed, 0)
    data, input_hash = load_rod_file(args.rod_file)
    tols = dict(DEFAULT_TOLS)
    for override in args.tol:
        name, _, value = override.partition("=")
        if name not in tols or not value:
            raise RodDataError(f"unknown tolerance override {override!r}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise RodDataError(f"tolerance must be a number, got {override!r}")
        if not (math.isfinite(tols[name]) and tols[name] >= 0):
            raise RodDataError(
                f"tolerance must be finite and at least 0, got {override!r}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # the float semantics of the layers: an overflow reads inf or NaN in
    # the checks, as it would for one float, and numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        evaluation = _evaluate(data, args.seed, names)
        checks = []
        for name in names:
            checks.extend(SUITES[name](data, args.seed, tols, evaluation))
    summary = {"pass": 0, "fail": 0, "skip": 0}
    for entry in checks:
        summary[entry["status"]] += 1
    status = "fail" if summary["fail"] else "pass"
    _write_report(args.out, {"suite": args.suite, "status": status,
                             "checks": checks, "summary": summary},
                  args.seed, input_sha256=input_hash)
    return 1 if status == "fail" else 0


def cmd_classify(args):
    _at_least("--nmax", args.nmax, 1)
    _at_least("--lmax", args.lmax, 0)
    try:
        result = classify.search_admissible(n_max=args.nmax, l_bound=args.lmax,
                                            asymptotics=args.asymptotics)
    except LevelBoundError as exc:
        raise RodDataError(
            f"--lmax {exc.bound} is below the surviving level {exc.level}") from None
    _write_report(args.out, {
        "command": "classify",
        "n_max": result.n_max,
        "l_bound": result.l_bound,
        "asymptotics": result.asymptotics,
        "admissible": [vars(b) for b in result.survivors],
        "branches": [vars(b) for b in result.branches],
        "summary": {"branches": len(result.branches),
                    "admissible": len(result.survivors)},
    })
    return 0


def _pd_params(args):
    if args.roots:
        roots = tuple(float(r) for r in args.roots)
    elif args.case:
        if args.u is None or args.v is None:
            raise RodDataError("--case needs --u and --v")
        roots = pd.selfdual_roots(args.case, args.u, args.v)
    else:
        raise RodDataError("give --roots or --case with --u and --v")
    return pd.PdParams(roots=roots)


def cmd_pd_check(args):
    params = _pd_params(args)
    reg = pd.pd_regularity(params)
    verdict = "flat" if params.flat else (
        "selfdual" if params.selfdual else "generic")
    _write_report(args.out, {
        "command": "pd check",
        "roots": params.roots,
        "verdict": verdict,
        "regular": reg.ok,
        "eps": reg.eps,
        "epsbar": reg.epsbar,
        "m": reg.m,
        "n": reg.n,
        "m_raw": reg.m_raw,
        "n_raw": reg.n_raw,
        "collinear_12": reg.collinear_12,
        "collinear_34": reg.collinear_34,
    })
    return 0


def cmd_pd_scan(args):
    _at_least("--samples", args.samples, 1)
    _at_least("--seed", args.seed, 0)
    result = pd.pd_scan(args.case, samples=args.samples, seed=args.seed)
    fields = {"command": "pd scan", **vars(result)}
    seed = fields.pop("seed")
    _write_report(args.out, fields, seed)
    return 1 if result.admissible else 0


def cmd_pd_selfdual(args):
    params = _pd_params(args)
    _write_report(args.out, {
        "command": "pd selfdual",
        "roots": params.roots,
        "certificate": pd.pd_selfdual_check(params),
    })
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_command(sub, name, help, func):
    """A subcommand parser with its --out option, whose namespace names
    func by its __name__, which main looks up at call time."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--out", default="-")
    parser.set_defaults(func=func.__name__)
    return parser


def _add_roots(parser):
    parser.add_argument("--roots", nargs=4, type=float)
    parser.add_argument("--case", choices=("a", "b"))
    parser.add_argument("--u", type=float)
    parser.add_argument("--v", type=float)


def build_parser():
    """The whole argparse tree of todkit.

    Each command names its function (func) rather than holding it, so
    that one tree can serve every command of a process (_parser) while
    main looks the function up at call time, where a wrapper or a test
    may have replaced it.
    """
    parser = argparse.ArgumentParser(
        prog="todkit",
        description="verification toolkit for toric half-flat instanton "
                    "metrics built from rod data")
    sub = parser.add_subparsers(dest="command", required=True)
    build = _add_command(sub, "build", "sample metric fields to CSV", cmd_build)
    build.add_argument("rod_file")
    build.add_argument("--grid", default="20x20", help="rho x zeta counts")
    build.add_argument("--rho-range", default=None, metavar="LO:HI")
    build.add_argument("--zeta-range", default=None, metavar="LO:HI")
    verify = _add_command(sub, "verify", "run invariant suites", cmd_verify)
    verify.add_argument("rod_file")
    verify.add_argument("--suite", default="all",
                        choices=("fields", "curvature", "rods", "cky", "all"))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="override one tolerance")
    cls = _add_command(sub, "classify", "admissible rod structure search", cmd_classify)
    cls.add_argument("--nmax", type=int, default=4)
    cls.add_argument("--lmax", type=int, default=12)
    cls.add_argument("--asymptotics", default="ale", choices=("ale", "af"))
    pdsub = sub.add_parser("pd", help="quartic-root family checks").add_subparsers(
        dest="pd_command", required=True)
    _add_roots(_add_command(pdsub, "check", "regularity of one root set", cmd_pd_check))
    scan = _add_command(pdsub, "scan", "sampled non-regularity scan", cmd_pd_scan)
    scan.add_argument("--case", required=True,
                      choices=("i", "ii", "iii", "a", "b"))
    scan.add_argument("--samples", type=int, default=1000)
    scan.add_argument("--seed", type=int, default=7)
    _add_roots(_add_command(pdsub, "selfdual", "palindromic root certificates",
                            cmd_pd_selfdual))
    return parser


# built on the first main call, not at import
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except RodDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (TodkitError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        # ArithmeticError: valid but extreme rod data can under- or
        # overflow a float power deep in the jet arithmetic; LinAlgError:
        # a singular metric, or a Weyl block whose entries overflowed;
        # MemoryError: numpy cannot allocate an array, such as the point
        # arrays of an oversized build grid
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
