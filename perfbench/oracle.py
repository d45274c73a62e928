"""Output oracle: what the paper and the README conventions guarantee.

Every check returns a list of problems; an empty list accepts the output.
Expectations come from the paper's statements about the rod data, never
from an earlier run of the program.  Reports are read by check name, and
keys or columns the oracle does not know about are ignored, so a report
that gains fields still passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# Checks that hold for any normalized ALE rod data (fields suite, the
# curvature suite, the flat two-form family, the instanton candidate and
# conical regularity of every rod).
ALWAYS_PASS = ("killing_det", "harmonic_v", "conjugate_pair", "toda",
               "norm_identity", "positivity", "ricci_ratio", "weyl_spectrum",
               "lambda_z3", "conformal_factor", "conical")
ALWAYS_PASS_PREFIXES = ("flat_", "candidate_")
BUILD_COLUMNS = ("rho", "zeta", "W", "F", "e2nu", "z", "lambda")


@dataclass(frozen=True)
class VerifyExpect:
    """What one rod file must give besides the checks in ALWAYS_PASS.

    gl2z: the lattice-compatibility status.  Only the two-nut family of
    the classification passes it.
    decay: allowed statuses of the two-form decay check.  It must pass
    when the centred third moment vanishes; otherwise the polar chart is
    not the fast-rate chart and the check may be skipped, but never fails.
    lens: the asymptotic lens label the report must name, or None.
    """

    gl2z: str
    decay: frozenset
    lens: str | None = None


TWO_NUT = VerifyExpect(gl2z="pass", decay=frozenset({"pass"}), lens="L(2,1)")
ASYMMETRIC = VerifyExpect(gl2z="fail", decay=frozenset({"pass", "skip"}))


def _json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, ["output is not a JSON object"]
    return doc, []


def check_verify(text, code, expect, seed):
    doc, problems = _json(text)
    if doc is None:
        return problems
    checks = doc.get("checks")
    if not isinstance(checks, list):
        return ["report has no checks list"]
    status = {}
    for entry in checks:
        status.setdefault(entry.get("name"), []).append(entry.get("status"))

    def require(name, allowed):
        got = status.get(name)
        if not got:
            problems.append(f"check {name} missing")
        elif any(s not in allowed for s in got):
            problems.append(f"check {name} is {'/'.join(got)}, "
                            f"expected {'/'.join(sorted(allowed))}")

    for name in ALWAYS_PASS:
        require(name, {"pass"})
    for prefix in ALWAYS_PASS_PREFIXES:
        names = [n for n in status if isinstance(n, str) and n.startswith(prefix)]
        if not names:
            problems.append(f"no {prefix}* checks")
        for name in names:
            require(name, {"pass"})
    require("gl2z", {expect.gl2z})
    require("decay_exponent", expect.decay)
    if expect.lens is not None:
        require("asymptotic_class", {"pass"})
        where = [e.get("location", "") for e in checks
                 if e.get("name") == "asymptotic_class"]
        if not any(expect.lens in str(w) for w in where):
            problems.append(f"asymptotic class is not {expect.lens}")

    failed = any(e.get("status") == "fail" for e in checks)
    want_status = "fail" if failed else "pass"
    if doc.get("status") != want_status:
        problems.append(f"report status {doc.get('status')!r} but checks say "
                        f"{want_status!r}")
    want_code = 1 if failed else 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if doc.get("metadata", {}).get("seed") != seed:
        problems.append("report does not record the requested seed")
    return problems


def check_pd_scan(text, code, case, samples):
    doc, problems = _json(text)
    if doc is None:
        return problems
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if doc.get("case") != case:
        problems.append(f"case {doc.get('case')!r}, expected {case!r}")
    if doc.get("samples") != samples:
        problems.append(f"{doc.get('samples')} samples, expected {samples}")
    if doc.get("admissible") != 0:
        problems.append(f"admissible = {doc.get('admissible')}, the paper "
                        "excludes every sampled root set")
    certs = doc.get("certificates")
    if not isinstance(certs, dict) or sum(certs.values()) != samples:
        problems.append("certificate counts do not sum to the sample count")
    attempts = doc.get("attempts")
    if not isinstance(attempts, int) or attempts < samples:
        problems.append(f"attempts = {attempts!r} below the sample count")
    return problems


def check_classify(text, code):
    doc, problems = _json(text)
    if doc is None:
        return problems
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    survivors = doc.get("admissible")
    if not isinstance(survivors, list) or len(survivors) != 1:
        return problems + ["expected exactly one admissible branch"]
    branch = survivors[0]
    if branch.get("n") != 2:
        problems.append(f"admissible branch has n = {branch.get('n')}, expected 2")
    if branch.get("details", {}).get("lens") != [2, 1]:
        problems.append("admissible branch does not have lens [2, 1]")
    return problems


def check_build(text, code, rows, c):
    """rows: the grid size; c: the rod constant, for lambda = -2c/z^3."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    lines = text.splitlines()
    if not lines:
        return problems + ["empty CSV"]
    header = lines[0].split(",")
    missing = [col for col in BUILD_COLUMNS if col not in header]
    if missing:
        return problems + [f"CSV lacks columns {missing}"]
    col = {name: header.index(name) for name in BUILD_COLUMNS}
    body = lines[1:]
    if len(body) != rows:
        problems.append(f"{len(body)} rows, expected {rows}")
    for k, line in enumerate(body, start=1):
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            problems.append(f"row {k} does not parse")
            continue
        if len(vals) != len(header) or not all(math.isfinite(v) for v in vals):
            problems.append(f"row {k} is short or not finite")
            continue
        if not (vals[col["W"]] > 0 and vals[col["e2nu"]] > 0):
            problems.append(f"row {k}: W or e2nu not positive")
        want = -2.0 * c / vals[col["z"]] ** 3
        if abs(vals[col["lambda"]] - want) > 1e-12 * abs(want):
            problems.append(f"row {k}: lambda differs from -2c/z^3")
        if len(problems) > 5:
            break
    return problems
