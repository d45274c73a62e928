"""Property test: the curvature layer on a point set against each point alone.

``curvature_pack``, ``invariant_norms``, ``weyl_split``,
``scalar_laplacian``, ``cky_residual``, ``killing_residual`` and
``norm_squared`` take a leading point axis; a single point is the same code with no point axis.
On random rod data and point sets, and on random members of the flat
family, every array entry and float must carry the bits of that point's
own call.  A set with one bad point raises that point's own exception.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from test_fields_property import _point, rod_data
from todkit import cky, curvature, tod
from todkit.cky import FlatCkyParams
from todkit.errors import DegenerateMetricError, DomainError, SignatureError
from todkit.jets import Jet2
from todkit.tod import JetMatrix, TodFields

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))


def _hex(x):
    return [v.hex() for v in np.asarray(x, dtype=float).ravel().tolist()]


def _same(got, want):
    if want is None or isinstance(want, list):
        assert got == want
    else:
        assert _hex(got) == _hex(want)


def _layer(pack, omega, form):
    """Every output of the layer functions, by name."""
    norms = curvature.invariant_norms(pack)
    split = curvature.weyl_split(pack)
    residual, xi = curvature.cky_residual(pack, form)
    out = {f"pack.{name}": getattr(pack, name) for name in
           ("g", "ginv", "dg", "gamma", "riemann", "ricci", "scalar", "weyl", "sqrtg")}
    out.update({f"norms.{name}": value for name, value in norms.items()})
    out.update({"split.m_plus": split.m_plus, "split.m_minus": split.m_minus,
                "split.eigs_plus": split.eigs_plus, "split.eigs_minus": split.eigs_minus,
                "split.lam": split.lam,
                "laplacian": curvature.scalar_laplacian(pack, omega),
                "cky_residual": residual, "xi": xi,
                "killing_residual": curvature.killing_residual(pack, xi),
                "two_form_norm": curvature.norm_squared(pack.ginv, form.values())})
    return out


# the outputs that are floats at a single point, as before the point axis
FLOATS = ("pack.scalar", "pack.sqrtg", "norms.riemann", "norms.weyl", "norms.ricci",
          "norms.scalar", "laplacian", "cky_residual", "killing_residual")


def _assert_points(batch, points):
    for k, point in enumerate(points):
        for name, want in point.items():
            if name in FLOATS:
                assert type(want) is float, name
            _same(batch[name][k], want)


def _tod_layer(rods, rho, zeta):
    fields = tod.tod_fields(rods, rho, zeta, order=4)
    pack = curvature.curvature_pack(tod.tod_metric(fields))
    return _layer(pack, 1 / fields.z.truncate(2), cky.tod_cky_candidate(fields))


@SETTINGS
@given(rods=rod_data().filter(lambda rods: rods.n > 1),
       picks=st.lists(st.tuples(st.sampled_from(("axis", "nut", "far", "height")),
                                st.floats(0, 1), st.floats(0, 1), st.integers(0, 23)),
                      min_size=2, max_size=4))
def test_tod_points_match_their_own_calls(rods, picks):
    rho, zeta = (np.array(x) for x in zip(*(_point(rods, *p) for p in picks)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            batch = _tod_layer(rods, rho, zeta)
        except (SignatureError, np.linalg.LinAlgError, ArithmeticError) as exc:
            # far out or near the axis the float metric can lose its
            # signature; then the set raises what its first bad point does
            for r, z in zip(rho.tolist(), zeta.tolist()):
                try:
                    _tod_layer(rods, r, z)
                except type(exc) as first:
                    assert str(first) == str(exc)
                    return
            raise
        points = [_tod_layer(rods, r, z) for r, z in zip(rho.tolist(), zeta.tolist())]
    _assert_points(batch, points)


@SETTINGS
@given(members=st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(0.05, 5.0),
                                  st.floats(0.05, math.pi - 0.05)), min_size=1, max_size=8))
def test_flat_family_matches_its_own_calls(members):
    ang, r, theta = (np.array(x) for x in zip(*members))
    params = FlatCkyParams(k1=np.cos(ang), k2=np.sin(ang))

    def layer(params, r, theta):
        coframe = cky.flat_coframe(r, theta)
        metric = cky.flat_metric(coframe)
        pack = curvature.curvature_pack(metric)
        omega = Jet2.seed(metric.base[0], 0, 2) * Jet2.seed(metric.base[1], 1, 2)
        out = _layer(pack, omega, cky.flat_cky(params, coframe))
        out["norm_squared"] = cky.flat_norm_squared(params, r, theta)
        return out

    batch = layer(params, r, theta)
    points = [layer(FlatCkyParams(k1=math.cos(a), k2=math.sin(a)), rk, tk)
              for a, rk, tk in zip(ang.tolist(), r.tolist(), theta.tolist())]
    _assert_points(batch, points)


def _constant_metric(entries):
    """A constant metric jet: entries[m] holds the value of slot
    (m // 4, m % 4), a number for one point or a list over a point set."""
    comp = [[Jet2.const(np.array(entries[4 * a + b], dtype=float), 2) for b in range(4)]
            for a in range(4)]
    return JetMatrix.stack(("a", "b", "c", "d"), comp, (0.0, 0.0))


def _eye_slots(points):
    return [[1.0 if a == b else 0.0] * points for a in range(4) for b in range(4)]


def _negative_det(slots, k):
    slots[0][k] = -2.0


def _asymmetric(slots, k):
    slots[1][k] = 0.5


@pytest.mark.parametrize("first, later", [
    (_negative_det, _asymmetric), (_asymmetric, _negative_det),
    (_negative_det, _negative_det)])
def test_bad_metric_in_the_middle(first, later):
    slots = _eye_slots(5)
    first(slots, 2)
    later(slots, 3)
    with pytest.raises(SignatureError) as alone:
        curvature.curvature_pack(_constant_metric([row[2] for row in slots]))
    with pytest.raises(SignatureError) as batch:
        curvature.curvature_pack(_constant_metric(slots))
    assert str(batch.value) == str(alone.value)
    # the points before it pass alone
    for k in (0, 1):
        curvature.curvature_pack(_constant_metric([row[k] for row in slots]))


def test_degenerate_field_in_the_middle():
    rods = tod.eh_rod_data()
    fields = tod.tod_fields(rods, np.array([0.5, 0.7, 0.9]), np.array([0.1, 0.2, 0.3]),
                            order=2)
    W = Jet2(2, [np.array([1.0, -3.0, 0.0])] + fields.W.c[1:])
    with pytest.raises(DegenerateMetricError) as batch:
        tod.tod_metric(TodFields(W=W, e2nu=fields.e2nu, F=fields.F, z=fields.z,
                                 x=fields.x, rods=rods, point=fields.point))
    assert str(batch.value) == "W = -3.0 is not positive"


@pytest.mark.parametrize("r, theta", [
    ([1.0, -0.5, 2.0], [1.0, 1.0, 0.0]),
    ([1.0, 0.5, -2.0], [1.0, math.pi, 1.0]),
])
def test_flat_point_off_the_domain_in_the_middle(r, theta):
    for r_k, t_k in zip(r, theta):
        try:
            cky.flat_coframe(r_k, t_k)
        except DomainError as exc:
            first = exc
            break
    with pytest.raises(DomainError) as batch:
        cky.flat_coframe(np.array(r), np.array(theta))
    assert str(batch.value) == str(first)
    assert batch.value.value == first.value
