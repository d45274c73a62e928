"""Property test: no finite rod file ends a command in a traceback.

Rod files are drawn with nuts, c and the gauge on a ladder of magnitudes
from the smallest subnormal to near the float maximum, as floats and as
exact strings.  Every command must end with exit 0, 1 or 2, write at most
one ``input error:`` or ``evaluation error:`` line to stderr, and make
numpy warn nowhere.
"""

import contextlib
import io
import json
import warnings

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from todkit import cli, rods
from todkit.errors import RodDataError

LADDER = (5e-324, 1e-300, 1e-160, 1e-150, 1e-8, 0.25, 1.0, 3.0, 1e8, 1e100,
          1e300, 1e307, 1.7e308)
COMMANDS = (["verify", "--suite", "rods"], ["verify", "--suite", "all"],
            ["build", "--grid", "3x3"])

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

signed = st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from(LADDER)).map(
    lambda t: t[0] * t[1])


@st.composite
def rod_docs(draw):
    zs = sorted(draw(st.lists(signed, min_size=1, max_size=4, unique=True)))
    raw = draw(st.lists(st.integers(1, 3), min_size=len(zs), max_size=len(zs)))
    exact = draw(st.booleans())
    if exact:
        number, weights = repr, [f"{k}/{sum(raw)}" for k in raw]
    else:
        number, weights = float, [k / sum(raw) for k in raw]
    doc = {"c": number(-draw(st.sampled_from(LADDER))),
           "rods": [{"z": number(z), "a": a} for z, a in zip(zs, weights)]}
    gauge = draw(st.none() | signed)
    if gauge is not None:
        doc["gauge"] = {"h_constant": number(gauge)}
    return doc


@SETTINGS
@given(doc=rod_docs(), command=st.sampled_from(COMMANDS))
def test_no_traceback(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("rods") / "rods.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command[0], str(path), *command[1:]])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    err = err.getvalue()
    assert err == "" or (err.startswith(("input error:", "evaluation error:"))
                         and err.count("\n") == 1)


@SETTINGS
@given(doc=rod_docs())
def test_gl2z_reports_every_junction(tmp_path_factory, doc):
    # verify's rods suite calls gl2z_compatibility with no handler: on any
    # rod file that loads it reports each of the n - 1 junctions
    path = tmp_path_factory.mktemp("rods") / "rods.json"
    path.write_text(json.dumps(doc))
    try:
        data, _ = cli.load_rod_file(str(path))
    except RodDataError:
        return
    assert len(rods.gl2z_compatibility(data, tol=cli.DEFAULT_TOLS["gl2z"])) == data.n - 1
