"""The per-sample quartic-root scan: one draw, one PdParams, one
pd_regularity and one certificate per attempt.

Reference for ``pd.pd_scan``, whose attempts are drawn to the count as
numpy arrays and certified in one pass per up to ``_BLOCK`` kept rows:
both consume the same random stream with the same arithmetic, so their
results must be equal, whatever the sizes of the draws, and a failing
sample must raise the same error with the same message.
"""

from __future__ import annotations

import math

import numpy as np

from todkit.errors import CertificateError, RodDataError
from reference_regularity import pd_regularity
from todkit.pd import PdParams, PdScanResult, _roots_text


def _sample_roots(case, rng):
    """One sampling attempt; None when the draw violates the rectangle
    or degenerates."""
    if case in ("i", "ii", "iii"):
        signs = {"i": (1, 1, 1, 1), "ii": (-1, -1, 1, 1),
                 "iii": (-1, -1, -1, -1)}[case]
        mags = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=4))
        vals = sorted(s * m for s, m in zip(signs, mags))
        prod = abs(vals[0] * vals[1] * vals[2] * vals[3])
        roots = tuple(v / math.sqrt(math.sqrt(prod)) for v in vals)
        gaps = min(roots[i + 1] - roots[i] for i in range(3))
        if gaps < 1e-3:
            return None
        if case != "iii" and max(abs(roots[1]), abs(roots[2])) * max(abs(roots[0]), abs(roots[1])) >= 1:
            # all-negative quadruples never pass this filter; they are
            # kept and rejected through their corner certificate instead
            return None
        return roots
    if case == "a":
        u, v = sorted(np.exp(rng.uniform(math.log(0.05), math.log(0.95), size=2)))
        if v - u < 1e-3 or 1 / v - v < 1e-3:
            return None
        return (u, v, 1 / v, 1 / u)
    if case == "b":
        draws = [rng.uniform(math.log(1.05), math.log(20.0)),
                 rng.uniform(math.log(0.02), math.log(0.95))]
        u, v = np.exp(draws).tolist()
        u = -u
        if abs(u) * v >= 1 - 1e-6 or v - 1 / u < 1e-3 or 1 / v - v < 1e-3:
            return None
        return (u, 1 / u, v, 1 / v)
    raise RodDataError(f"unknown scan case {case!r}")


def pd_scan(case, samples=1000, seed=7):
    """Sample root sets of one sign pattern and count regular ones.

    Every accepted sample must carry its rejection certificate: the
    noninteger corner coefficient for positive roots, epsbar > 1 for a
    negative lower pair, the curvature bound cutting off the corner for
    all-negative roots, and the opposite rod pair with eps (or epsbar)
    away from one in the palindromic cases.
    """
    rng = np.random.default_rng(seed)
    admissible = 0
    certificates = {}
    attempts = 0
    accepted = 0
    limit = 200 * samples + 1000
    while accepted < samples:
        attempts += 1
        if attempts > limit:
            raise RodDataError("sampling failed to reach the requested count")
        roots = _sample_roots(case, rng)
        if roots is None:
            continue
        accepted += 1
        params = PdParams(roots=roots)
        reg = pd_regularity(params)
        if reg.ok:
            admissible += 1
            continue
        if case == "i":
            holds = -1 < reg.n < 0
            cert = "n strictly between -1 and 0"
        elif case == "ii":
            holds = reg.epsbar > 1
            cert = "epsbar exceeds 1"
        elif case == "iii":
            # sorted negative roots with product one force |p1 p2| > 1,
            # so the curvature bound crosses the rectangle and cuts off
            # the corner fixed point before any lattice count applies
            p1, p2, p3 = roots[0], roots[1], roots[2]
            holds = p3 * p3 < p2 * p2 < p1 * p1 and p1 * p1 * p2 * p2 > 1
            cert = "curvature bound inside the rectangle, corner cut off"
        elif case == "a":
            holds = reg.collinear_34 and 0 < reg.eps < 1
            cert = "rods 3 and 4 opposite, eps below 1"
        else:
            holds = reg.collinear_12 and reg.epsbar > 1
            cert = "rods 1 and 2 opposite, epsbar exceeds 1"
        if not holds:
            raise CertificateError(f"case {case}, roots {_roots_text(roots)}: certificate "
                                   f"'{cert}' does not hold")
        certificates[cert] = certificates.get(cert, 0) + 1
    return PdScanResult(case=case, samples=samples, attempts=attempts,
                        admissible=admissible, certificates=certificates,
                        seed=seed)
