"""The acceptance matrix: one test per numbered criterion, exact comparisons.

The matrix runs once, through ``run_criteria``, the same runner that
``homtwist paper`` prints from.  The criteria run in order on one closure list:
each appends ``(label, checker, object)`` for the constructed objects whose
conclusion it has not scanned, and criterion 9 runs each checker on its
object.  A criterion that raises becomes that criterion's failure only.  Each
test then asserts its criterion, and pytest -v shows one line per criterion.
"""

import pytest

from homtwist.suite import CRITERIA, run_criteria


@pytest.fixture(scope="module")
def results():
    return {cid: (passed, detail) for cid, passed, detail, _ in run_criteria()}


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA])
def test_criterion(cid, results):
    passed, detail = results[cid]
    assert passed, f"{cid}: {detail}"
