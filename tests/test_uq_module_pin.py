"""Characterization test: `check_uq_module_hom_algebra` reports, pinned.

The six (parameter tuple, l) cases of the acceptance suite's criterion 8 at
plane-degree bound 3, and one perturbed `rho_l` that scales E-degree b by
lambda^{-b}, are compared with ``uq_module_pin.json``: ``passed``, the number
of equation instances scanned, the number that failed, and every recorded
failure (equation, basis, lhs, rhs) in scan order.

The fixture was written by this module's ``__main__`` block before `rho_l`
became a sum over memoized monomial actions, and is the oracle for that
change: never regenerate it to make this test pass.
"""

import json
import pathlib

import pytest

from homtwist import uqsl2
from homtwist.exact import Q, Scan
from homtwist.uqsl2 import QPlaneElement, UqElement, UqParams, check_uq_module_hom_algebra

PIN = pathlib.Path(__file__).with_name("uq_module_pin.json")
BOUND = 3

CASES = {
    f"{label}_l{l}": (tup, l)
    for label, tup in (("q2_lam3_xi5", (2, 3, 5)), ("q3_lam1/2_xi2", (3, Q(1, 2), 2)))
    for l in (0, 1, 2)
}
CASES["perturbed_E_degree"] = ((2, 3, 5), 0)


def _perturbed(original):
    """rho_l with the term of E-degree b scaled by lam^{-b}."""

    def rho_l(h, p, params):
        out = QPlaneElement({})
        for (a, b, c), coeff in h.terms.items():
            mon = UqElement.monomial((a, b, c), coeff * params.lam ** (-b))
            for key, v in original(mon, p, params).terms.items():
                out.add_term(key, v)
        return out

    return rho_l


def _terms(terms):
    return [f"{key}: {value}" for key, value in terms]


def outcome(name, monkeypatch):
    calls, failed = [], []
    eq = Scan.eq

    def counting_eq(scan, equation, basis, lhs, rhs):
        lhs, rhs = list(lhs), list(rhs)
        calls.append(None)
        if lhs != rhs:
            failed.append(None)
        return eq(scan, equation, basis, lhs, rhs)

    monkeypatch.setattr(Scan, "eq", counting_eq)
    if name.startswith("perturbed"):
        monkeypatch.setattr(uqsl2, "rho_l", _perturbed(uqsl2.rho_l))
    tup, l = CASES[name]
    report = check_uq_module_hom_algebra(UqParams(*tup, l), BOUND)
    record = {
        "passed": report.passed,
        "scanned": len(calls),
        "failed": len(failed),
        "failures": [
            [f.equation, f.basis, _terms(f.lhs), _terms(f.rhs)] for f in report.failures
        ],
    }
    return json.loads(json.dumps(record))  # nested basis tuples read back as lists


@pytest.mark.parametrize("name", sorted(CASES))
def test_module_report_is_pinned(name, monkeypatch):
    assert outcome(name, monkeypatch) == json.loads(PIN.read_text())[name]


def test_the_criterion_cases_pass_and_the_perturbation_fails():
    pinned = json.loads(PIN.read_text())
    for name, record in pinned.items():
        assert record["passed"] == (not name.startswith("perturbed")), name
        assert record["scanned"] == pinned["perturbed_E_degree"]["scanned"] > 0
    # every failed instance of the perturbation is recorded: the witness list is complete
    perturbed = pinned["perturbed_E_degree"]
    assert len(perturbed["failures"]) == perturbed["failed"] > 0


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    data = {}
    for case in sorted(CASES):
        data[case] = outcome(case, mp)
        mp.undo()
    PIN.write_text(json.dumps(data, indent=1) + "\n")
