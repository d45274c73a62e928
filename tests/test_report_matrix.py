"""The checked-in report matrix (tools/report_matrix.py) holds for a slice.

The slice is every rod file, the verify and pd scan commands at seeds 0
and 1, and the build, classify, pd check and pd selfdual lines;
``python3 tools/report_matrix.py --check`` runs the whole matrix, the
benchmark commands included.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py"
spec = importlib.util.spec_from_file_location("report_matrix", TOOL)
report_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_matrix)


def test_slice_keeps_its_bytes():
    want = report_matrix.read_digests()
    got = report_matrix.digests(lambda cmd: not cmd.bench and cmd.seed in (None, 0, 1))
    assert report_matrix.moved(got, want) == []
    # five suites at two seeds on each rod file
    assert sum(name.startswith("verify ") for name in got) == 10 * len(report_matrix.ROD_FILES)
    # five cases at four sample counts (1, 7, 300 and the benchmark count) and two seeds
    assert sum(name.startswith("pd scan ") for name in got) == 40


def test_a_moved_command_is_named():
    want = {"input files/a.json": "0", "verify files/a.json --seed 0": "1", "gone": "2"}
    got = {"input files/a.json": "0", "verify files/a.json --seed 0": "3", "extra": "4"}
    assert report_matrix.moved(got, want) == ["moved: verify files/a.json --seed 0",
                                              "new: extra"]
