"""Characterization test: `verify_smash_closed_forms` reports, pinned.

The two passing parameter tuples of the acceptance suite's criterion 8 at
bounds 2, and one perturbed `smash_mul_uq` that breaks the E and F rows on
odd plane degrees, are compared with ``smash_closed_pin.json``: ``passed``,
the number of equation instances scanned, and every recorded failure
(equation, basis, lhs, rhs) in scan order.

The fixture was written by this module's ``__main__`` block before the closed
rows became one term table, and is the oracle for that refactor: never
regenerate it to make this test pass.
"""

import json
import pathlib

import pytest

from homtwist import uqsl2
from homtwist.exact import Q, Scan
from homtwist.uqsl2 import MON_E, MON_F, UqParams, verify_smash_closed_forms

PIN = pathlib.Path(__file__).with_name("smash_closed_pin.json")

CASES = {
    "q2_lam3_xi5": (2, 3, 5),
    "q3_lam1/2_xi2": (3, Q(1, 2), 2),
    "perturbed_EF_rows": (2, 3, 5),
}


def _perturbed(original):
    def smash_mul_uq(t1, t2, params):
        out = original(t1, t2, params)
        (_, head), = t1.terms
        ((r, s), _), = t2.terms
        if head in (MON_E, MON_F) and (r + s) % 2:
            out = out.scale(2)
        return out

    return smash_mul_uq


def _terms(terms):
    return [f"{key}: {value}" for key, value in terms]


def outcome(name, monkeypatch):
    calls = []
    eq = Scan.eq

    def counting_eq(scan, *args):
        calls.append(None)
        return eq(scan, *args)

    monkeypatch.setattr(Scan, "eq", counting_eq)
    if name.startswith("perturbed"):
        monkeypatch.setattr(uqsl2, "smash_mul_uq", _perturbed(uqsl2.smash_mul_uq))
    report = verify_smash_closed_forms(UqParams(*CASES[name], 0), 2)
    return {
        "passed": report.passed,
        "scanned": len(calls),
        "failures": [
            [f.equation, list(f.basis), _terms(f.lhs), _terms(f.rhs)] for f in report.failures
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_report_is_pinned(name, monkeypatch):
    assert outcome(name, monkeypatch) == json.loads(PIN.read_text())[name]


def test_the_perturbation_fails_with_a_full_witness_list():
    pinned = json.loads(PIN.read_text())
    assert not pinned["perturbed_EF_rows"]["passed"]
    assert len(pinned["perturbed_EF_rows"]["failures"]) == 16


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    data = {}
    for case in sorted(CASES):
        data[case] = outcome(case, mp)
        mp.undo()
    PIN.write_text(json.dumps(data, indent=1) + "\n")
