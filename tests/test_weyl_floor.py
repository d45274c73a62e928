"""The floor under which ``weyl_split`` reads the Weyl spectrum as zero.

``curvature._simple_eigenvalue`` returns no ``lam`` where the self-dual
block's largest eigenvalue is at most ``WEYL_FLOOR * EPS`` times
``summand_norm``, the invariant norm of the Riemann tensor's summands in
absolute value.  Here the constant is held against a 50-digit oracle:
the self-dual eigenvalues of the same float64 metric jets by
``curvature_pack``'s and ``weyl_split``'s formulas in mpmath numbers.
Their float error must stay well under the floor, and on the curved
packs the exact eigenvalues far above it.
"""

import dataclasses
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from test_cli import EH_DOC, rod_doc, sixteen_nut_doc, write_rod_file
from todkit import cky, cli, tod
from todkit import curvature as cv

SKEW_DOC = {"c": -0.3, "rods": [{"z": -1.0, "a": 0.2}, {"z": 0.2, "a": 0.5},
                                {"z": 0.9, "a": 0.3}]}

big = np.vectorize(mpf, otypes=[object])


def _inverse(a):
    """The inverse of a 4x4 object array by cofactors, which, unlike
    mpmath's LU, has no absolute pivot tolerance to trip at 4^66."""
    def minor(i, j):
        m = [[a[r][c] for c in range(4) if c != j] for r in range(4) if r != i]
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    cof = np.array([[(-1) ** (i + j) * minor(i, j) for j in range(4)]
                    for i in range(4)], dtype=object)
    return cof.T / sum(a[0][j] * cof[0][j] for j in range(4))


def _cholesky(a):
    L = np.full((4, 4), mpf(0), dtype=object)
    for i in range(4):
        for j in range(i + 1):
            s = a[i][j] - sum(L[i][k] * L[j][k] for k in range(j))
            L[i][j] = mp.sqrt(s) if i == j else s / L[j][j]
    return L


def exact_eigenvalues(g, dg, ddg, orientation):
    """The self-dual Weyl eigenvalues of one point, in ascending order, at
    the working precision, from its float metric and its padded first and
    second derivatives."""
    T, O = cv._transpose, cv._outer
    g, dg, ddg = big(g), big(dg), big(ddg)
    ginv = _inverse(g)
    dginv = -np.einsum("ae,cef,fb->cab", ginv, dg, ginv)
    chris = dg + T(dg, "cdb", "bdc") - T(dg, "dbc", "bdc")
    gamma = np.einsum("ad,bdc->abc", ginv, chris) / 2
    sym = ddg + T(ddg, "ecdb", "ebdc") - T(ddg, "edbc", "ebdc")
    dgamma = (np.einsum("ead,bdc->eabc", dginv, chris)
              + np.einsum("ad,ebdc->eabc", ginv, sym)) / 2
    up = (T(dgamma, "cadb", "abcd") - T(dgamma, "dacb", "abcd")
          + np.einsum("ace,edb->abcd", gamma, gamma)
          - np.einsum("ade,ecb->abcd", gamma, gamma))
    riemann = np.einsum("ae,ebcd->abcd", g, up)
    ricci = np.einsum("abad->bd", up)
    scalar = np.einsum("bd,bd->", ginv, ricci)
    trace = (O(g, "ac", ricci, "bd") - O(g, "ad", ricci, "bc")
             + O(g, "bd", ricci, "ac") - O(g, "bc", ricci, "ad")) / 2
    weyl = riemann - trace + (O(g, "ac", g, "bd") - O(g, "ad", g, "bc")) * (scalar / 6)
    cup = cv._raise_all(ginv, weyl).reshape(16, 16)
    E = _cholesky(g).T
    if orientation < 0:
        E[3] = -E[3]

    def wedge(i, j):
        return E[i][:, None] * E[j][None, :] - E[j][:, None] * E[i][None, :]

    plus = np.stack([wedge(0, 1) + wedge(2, 3), wedge(1, 2) + wedge(0, 3),
                     wedge(1, 3) - wedge(0, 2)]).reshape(3, 16)
    m = plus @ cup @ plus.T / 8
    m = (m + m.T) / 2
    top = max(abs(x) for x in m.ravel())
    if top == 0:
        return [mpf(0)] * 3
    values, _ = mp.eigsy(mp.matrix((m / top).tolist()))
    return sorted(values[i] * top for i in range(3))


def _points(metric, count):
    """(g, dg, ddg) of the first count points of a metric jet."""
    g = metric.values()
    dg = cv._pad_first(metric.d1())
    ddg = np.zeros(g.shape[:-2] + (4, 4, 4, 4))
    ddg[..., 2:, 2:, :, :] = metric.d2()
    return [(g[k], dg[k], ddg[k]) for k in range(count)]


def _verify_metric(tmp_path, doc):
    data, _ = cli.load_rod_file(write_rod_file(tmp_path, doc))
    return cli._evaluate(data, 0, ["curvature"]).metric


def _flat_metric():
    rng = np.random.default_rng(0)
    return cky.flat_metric(cky.flat_coframe(rng.uniform(0.4, 3.0, 6),
                                            rng.uniform(0.25, np.pi - 0.25, 6)))


@pytest.mark.parametrize("make", [
    lambda tmp_path: _verify_metric(tmp_path, EH_DOC),
    lambda tmp_path: _verify_metric(tmp_path, SKEW_DOC),
    lambda tmp_path: _verify_metric(tmp_path, sixteen_nut_doc(random.Random(7))),
    lambda tmp_path: _verify_metric(
        tmp_path, rod_doc(tod.rescale(tod.eh_rod_data(), 4.0 ** 66))),
    lambda tmp_path: _flat_metric(),
], ids=["two-nut", "skew", "sixteen-nut", "two-nut-4^66", "flat"])
def test_floor_against_50_digits(tmp_path, make):
    metric = make(tmp_path)
    pack = cv.curvature_pack(metric)
    split = cv.weyl_split(pack)
    unit = cv.EPS * np.asarray(cv.summand_norm(pack))
    curved = split.lam[0] is not None
    with mp.workdps(50):
        for k, (g, dg, ddg) in enumerate(_points(metric, 6)):
            exact = exact_eigenvalues(g, dg, ddg, pack.orientation)
            error = max(abs(mpf(float(e)) - x) for e, x in zip(split.eigs_plus[k], exact))
            # the float error, measured at most 0.51 units on these packs
            assert error <= cv.WEYL_FLOOR / 16 * mpf(unit[k])
            # the exact spectrum: at least 5.7e10 units on a curved pack,
            # and on a flat one only the rounding of the float inputs
            size = max(abs(x) for x in exact) / mpf(unit[k])
            assert size >= 1e6 * cv.WEYL_FLOOR if curved else size <= 1.0
            assert (split.lam[k] is not None) == curved


def test_rounding_size_type_d_block_is_none(tmp_path):
    # the Eguchi-Hanson Weyl tensor, type D with lam = 8 / r^6 at a = 1,
    # keeps its lam, and scaled down to rounding size it has none
    pack = cv.curvature_pack(tod.eh_closed_form(1.0, 1.6, 0.9))
    lam = 8.0 / 1.6 ** 6
    assert abs(cv.weyl_split(pack).lam - lam) < 1e-12 * lam
    faint = cv.weyl_split(dataclasses.replace(pack, weyl=pack.weyl * 1e-15))
    want = 1e-15 * np.array([-lam / 2, -lam / 2, lam])
    assert np.max(np.abs(faint.eigs_plus - want)) < 1e-12 * 1e-15 * lam
    assert faint.lam is None
    # the same over the 25 points verify samples on the two-nut file
    pack = cv.curvature_pack(_verify_metric(tmp_path, EH_DOC))
    assert None not in cv.weyl_split(pack).lam
    faint = cv.weyl_split(dataclasses.replace(pack, weyl=pack.weyl * 1e-15))
    assert faint.lam == [None] * 25
