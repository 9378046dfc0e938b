"""Characterization test: `verify_smash_closed_forms` reports, pinned.

The two passing parameter tuples of the acceptance suite's criterion 8 at
bounds 2, and one perturbation that doubles the E and F rows' products on odd
r + s, are compared with ``smash_closed_pin.json``: ``passed``, the number of
equation instances scanned, and every recorded failure (equation, basis, lhs,
rhs) in scan order.

The fixture was written when the scan still ran its int instances itself, and
is the oracle for the symbolic scan: it is now reproduced from the symbolic
scan's equations, instantiated by ``uq_instances`` in the old scan order.
Parity is not in the ring, so the perturbation scales the instantiated left
side.  Never regenerate the fixture to make this test pass; ``test_gate``
pins its SHA-256.
"""

import json
import pathlib

import pytest

from homtwist.exact import Q
from homtwist.uqsl2 import UqParams
from uq_instances import CLOSED_FORM_ROW, closed_form_instances

PIN = pathlib.Path(__file__).with_name("smash_closed_pin.json")

CASES = {
    "q2_lam3_xi5": (2, 3, 5),
    "q3_lam1/2_xi2": (3, Q(1, 2), 2),
    "perturbed_EF_rows": (2, 3, 5),
}


def _doubled_on_odd_r_plus_s(equation, basis, lhs):
    _, _, r, s, _ = basis
    if equation in (CLOSED_FORM_ROW + "E", CLOSED_FORM_ROW + "F") and (r + s) % 2:
        return lhs.scale(2)
    return lhs


def _terms(terms):
    return [f"{key}: {value}" for key, value in terms]


def outcome(name):
    left = _doubled_on_odd_r_plus_s if name.startswith("perturbed") else None
    report, instances = closed_form_instances(UqParams(*CASES[name], 0), 2, left)
    return {
        "passed": report.passed,
        "scanned": len(instances),
        "failures": [
            [f.equation, list(f.basis), _terms(f.lhs), _terms(f.rhs)] for f in report.failures
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_report_is_pinned(name):
    assert outcome(name) == json.loads(PIN.read_text())[name]


def test_the_perturbation_fails_with_a_full_witness_list():
    pinned = json.loads(PIN.read_text())
    assert not pinned["perturbed_EF_rows"]["passed"]
    assert len(pinned["perturbed_EF_rows"]["failures"]) == 16
