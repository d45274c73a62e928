"""The tensor norms of ``verify`` by staged index raising.

``curvature.norm_squared`` raises every index of a tensor with one matrix
product per index and sums the product with the tensor.  It replaced
one-call einsums of four and five operands, which numpy runs as a
4^(2 rank) term loop per point.  Here the staged norms that one
``verify --suite all`` asks for are held against a 50-digit value of the
same float64 inputs, and a spy on ``np.einsum`` keeps many-operand and
sum-free einsums off the ``verify`` path.
"""

import json
import random
import sys

import numpy as np
import pytest
from mpmath import mp, mpf

from test_cli import EH_DOC, run, sixteen_nut_doc, write_rod_file
from test_curvature import REMOVED as BY_NAME
from todkit import curvature

SKEW_DOC = {"c": -0.3, "rods": [{"z": -1.0, "a": 0.2}, {"z": 0.2, "a": 0.5},
                                {"z": 0.9, "a": 0.3}]}

# the one-call einsum each staged norm replaced, by the function that
# asks for the norm and the rank of the tensor
REMOVED = {
    ("suite_fields", 2): BY_NAME["two_form"],
    ("suite_cky", 2): BY_NAME["two_form"],
    ("cky_residual", 3): BY_NAME["cky_residual"],
    ("killing_residual", 2): BY_NAME["killing_residual"],
    # invariant_norms: Ricci, then Riemann and Weyl, whose raised tensor
    # was already staged and only the last sum was an einsum
    ("norm", 2): BY_NAME["ricci"],
    ("norm", 4): lambda gi, T: np.einsum("...abcd,...abcd->...",
                                         curvature._raise_all(gi, T), T),
}

# curvature_pack's contractions are kept as written: a matrix-product
# form of them moved every curvature digit, and on a flat pack it turned
# rounding noise into a simple Weyl eigenvalue
ALLOWED = {"...ae,...cef,...fb->...cab":
           "dginv in curvature_pack, whose contractions keep the pack's bits"}


def _exact(gi, T):
    """The norm squared of each point at 50 digits: the staged raising
    in mpmath numbers, from the float64 inputs as they are."""
    rank = T.ndim - (gi.ndim - 2)
    big = np.vectorize(mpf, otypes=[object])
    up = big(T)
    for _ in range(rank):
        up = np.moveaxis(np.matmul(big(gi), up.reshape(gi.shape[:-2] + (4, -1)))
                         .reshape(T.shape), -rank, -1)
    return (up * big(T)).reshape(gi.shape[:-2] + (-1,)).sum(axis=-1)


def _ulps(got, exact):
    return [float(abs(mpf(g) - e) / np.spacing(abs(float(e))))
            for g, e in zip(np.asarray(got).tolist(), exact)]


def test_staged_norms_against_50_digits(tmp_path, capsys, monkeypatch):
    # every norm verify --suite all asks for on the two-nut and skew
    # files at seeds 0-3
    calls, staged = [], curvature.norm_squared

    def spy(gi, T):
        who = (sys._getframe(1).f_code.co_name, T.ndim - (gi.ndim - 2))
        got = staged(gi, T)
        calls.append((who, gi, T, got))
        return got

    monkeypatch.setattr(curvature, "norm_squared", spy)
    for doc in (EH_DOC, SKEW_DOC):
        path = write_rod_file(tmp_path, doc)
        for seed in range(4):
            run(["verify", path, "--suite", "all", "--seed", str(seed)], capsys)
    assert {who for who, *_ in calls} == set(REMOVED)
    worst = {}
    with mp.workdps(50):
        for who, gi, T, got in calls:
            exact = _exact(gi, T)
            # a sum's rounding error is bounded by the sum of its absolute
            # terms (Higham 2002, ch. 3), here up to 1e5 times the norm
            scale = staged(np.abs(gi), np.abs(T)).tolist()
            for err, e, s in zip(_ulps(got, exact), exact, scale):
                assert err * np.spacing(abs(float(e))) <= 4 * np.spacing(s), who
            was = worst.get(who, (0.0, 0.0))
            worst[who] = (max([was[0]] + _ulps(got, exact)),
                          max([was[1]] + _ulps(REMOVED[who](gi, T), exact)))
    for who, (new, old) in worst.items():
        assert new <= old, (who, new, old)


@pytest.mark.parametrize("doc", [EH_DOC, sixteen_nut_doc(random.Random(7))],
                         ids=["two-nut", "sixteen-nut"])
def test_verify_runs_no_many_operand_einsum(tmp_path, capsys, monkeypatch, doc):
    calls, real = [], np.einsum

    def spy(subscripts, *operands, **kwargs):
        calls.append((subscripts, len(operands)))
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    code, out, _ = run(["verify", write_rod_file(tmp_path, doc), "--suite", "all",
                        "--seed", "0"], capsys)
    assert code in (0, 1) and json.loads(out)["checks"]
    assert calls
    for subscripts, count in calls:
        inputs, output = subscripts.replace("...", "").split("->")
        assert set(inputs) - {","} - set(output), f"{subscripts} sums no index"
        assert count <= 2 or subscripts in ALLOWED, subscripts
