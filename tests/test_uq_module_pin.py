"""Characterization test: `check_uq_module_hom_algebra` reports, pinned.

The six (parameter tuple, l) cases of the acceptance suite's criterion 8 at
plane-degree bound 3, and one perturbed `rho_l` that scales E-degree b by
lambda^{-b}, are compared with ``uq_module_pin.json``: ``passed``, the number
of equation instances scanned, the number that failed, and every recorded
failure (equation, basis, lhs, rhs) in scan order.

The fixture was written when the scan still ran its int instances itself, and
is the oracle for the symbolic scan: it is now reproduced from the symbolic
scan's equations, instantiated by ``uq_instances`` in the old scan order.
Never regenerate it to make this test pass; ``test_gate`` pins its
SHA-256.

The pin covers seven fixed cases.  `TestModuleScanMatchesTheLoop` compares
the instances with the int loop the scan once was, on drawn parameters and
bounds, plain and perturbed.  Perturbed, the check's own witnesses must also
be the loop's failures in the witness box, and with none there it must raise.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from homtwist import exact, uqsl2
from homtwist.errors import HomTwistError
from homtwist.exact import Q, Scan
from homtwist.formal import LAM_SLOT, power
from homtwist.uqsl2 import QPlaneElement, UqElement, UqParams, check_uq_module_hom_algebra
from test_uqsl2 import _PARAM_TUPLES
from uq_instances import (
    at_level,
    box_planes,
    loop_check_uq_module_hom_algebra,
    module_instances,
    plane_monomials,
    _terms,
)

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
            mon = UqElement({(a, b, c): coeff * power(LAM_SLOT, params.lam, -b)})
            for key, v in original(mon, p, params).terms.items():
                out.add_term(key, v)
        return out

    return rho_l


def outcome(name, monkeypatch):
    if name.startswith("perturbed"):
        monkeypatch.setattr(uqsl2, "rho_l", _perturbed(uqsl2.rho_l))
    tup, l = CASES[name]
    report, instances = module_instances(UqParams(*tup, l), BOUND)
    record = {
        "passed": report.passed,
        "scanned": len(instances),
        "failed": sum(differs for _, _, differs in instances),
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


def _looped(params, bound):
    """The int loop's report at params and bound, and the (equation, basis) of each instance."""
    seen = []
    eq = Scan.eq

    def recording_eq(scan, equation, basis, lhs, rhs):
        seen.append((equation, basis))
        return eq(scan, equation, basis, lhs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scan, "eq", recording_eq)
        return loop_check_uq_module_hom_algebra(params, plane_monomials(bound)), seen


def _instantiated(params, bound):
    """The symbolic scan's instances at params and bound, as `_looped` gives the loop's."""
    report, instances = module_instances(params, bound)
    return report, [(equation, basis) for equation, basis, _ in instances]


def _witnesses_are_the_loop_failures_in_the_box(params):
    """The check raises exactly when the loop passes the box, else witnesses its failures there.

    The witnesses span every level of the box; those at params.l are compared.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "DEFAULT_FAILURE_CAP", 10 ** 6)
        loop = loop_check_uq_module_hom_algebra(params, box_planes())
        try:
            witnesses = check_uq_module_hom_algebra(params).failures
        except HomTwistError:
            witnesses = None
    assert (witnesses is None) == loop.passed
    if witnesses is not None:
        assert at_level(witnesses, params.l) == set(loop.failures)


class TestModuleScanMatchesTheLoop:
    @given(_PARAM_TUPLES, st.integers(0, 2), st.sampled_from([1, exact.DEFAULT_FAILURE_CAP]))
    @settings(max_examples=30, deadline=None)
    def test_equal_reports_plain_and_perturbed(self, tup, bound, cap):
        for perturb in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exact, "DEFAULT_FAILURE_CAP", cap)
                if perturb:
                    mp.setattr(uqsl2, "rho_l", _perturbed(uqsl2.rho_l))
                    _witnesses_are_the_loop_failures_in_the_box(UqParams(*tup))
                # fresh params for each side, so neither reads tables the other filled
                got = _instantiated(UqParams(*tup), bound)
                want = _looped(UqParams(*tup), bound)
            assert got == want
            assert got[0].passed or perturb

    def test_the_perturbation_shows_from_degree_one(self):
        # sigma(E) kills x^m, so bound 0 cannot see a scaled E-row; bounds 1
        # and 2 fail in 2 and 4 instances, and a cap of 1 keeps the first
        for bound, failed in ((0, 0), (1, 2), (2, 4)):
            for cap in (1, exact.DEFAULT_FAILURE_CAP):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(exact, "DEFAULT_FAILURE_CAP", cap)
                    mp.setattr(uqsl2, "rho_l", _perturbed(uqsl2.rho_l))
                    got = _instantiated(UqParams(2, 3, 5), bound)
                    want = _looped(UqParams(2, 3, 5), bound)
                assert got == want
                assert got[0].passed == (failed == 0)
                assert len(got[0].failures) == min(failed, cap)
