"""Characterization test: `check_uq_module_hom_algebra` reports, pinned.

The six (parameter tuple, l) cases of the acceptance suite's criterion 8 at
plane-degree bound 3, and one perturbed `rho_l` that scales E-degree b by
lambda^{-b}, are compared with ``uq_module_pin.json``: ``passed``, the number
of equation instances scanned, the number that failed, and every recorded
failure (equation, basis, lhs, rhs) in scan order.

The fixture was written by this module's ``__main__`` block before `rho_l`
became a sum over memoized monomial actions, and is the oracle for that
change: never regenerate it to make this test pass.

The pin covers seven fixed cases.  `TestModuleScanMatchesTheLoop` compares
the scan with a verbatim copy of the loop it was before it tabulated its
monomial images, on drawn parameters and bounds, plain and perturbed.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from homtwist import exact, uqsl2
from homtwist.errors import ParamConstraintViolation
from homtwist.exact import Q, Scan
from homtwist.uqsl2 import (
    GEN_MONOMIAL,
    QPlaneElement,
    UqElement,
    UqParams,
    _plane_monomials,
    check_uq_module_hom_algebra,
    coproduct_alpha,
    mu_alpha,
    qp_beta,
    qp_mul,
    uq_alpha,
)
from test_uqsl2 import _PARAM_TUPLES

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


# ---------------------------------------------------------------------------
# the module scan and mu_beta before the scan tabulated its monomial images
# and mu_beta summed memoized monomial products, kept verbatim as oracles;
# `rho_l` is read from the module at call time, so a patched one reaches both
# ---------------------------------------------------------------------------


def mu_beta(p1, p2, params):
    """The Hom-quantum-plane multiplication beta o mu."""
    return qp_beta(qp_mul(p1, p2, params.q), 1, params)


def loop_check_uq_module_hom_algebra(params, bound):
    rho_l = uqsl2.rho_l
    if bound < 0:
        raise ParamConstraintViolation(f"plane degree bound must be non-negative, got {bound}")
    gens = {g: UqElement.monomial(mon) for g, mon in GEN_MONOMIAL.items()}
    planes = {
        mn: QPlaneElement.monomial(mn) for mn in _plane_monomials(bound)
    }
    scan = Scan()
    for gname, g in gens.items():
        ag = uq_alpha(g, 1, params.lam)
        for mn, p in planes.items():
            lhs = qp_beta(rho_l(g, p, params), 1, params)
            rhs = rho_l(ag, qp_beta(p, 1, params), params)
            scan.eq("module_alpha", (gname, mn), lhs.items(), rhs.items())
    for g1name, g1 in gens.items():
        ag1 = uq_alpha(g1, 1, params.lam)
        for g2name, g2 in gens.items():
            prod = mu_alpha(g1, g2, params)
            for mn, p in planes.items():
                lhs = rho_l(ag1, rho_l(g2, p, params), params)
                rhs = rho_l(prod, qp_beta(p, 1, params), params)
                scan.eq("module_assoc", (g1name, g2name, mn), lhs.items(), rhs.items())
    for gname, g in gens.items():
        a2g = uq_alpha(g, 2, params.lam)
        delta = coproduct_alpha(g, params)
        for mn1, p1 in planes.items():
            for mn2, p2 in planes.items():
                lhs = rho_l(a2g, mu_beta(p1, p2, params), params)
                rhs = QPlaneElement({})
                for (h1, h2), w in delta.terms.items():
                    term = mu_beta(
                        rho_l(UqElement.monomial(h1), p1, params),
                        rho_l(UqElement.monomial(h2), p2, params),
                        params,
                    )
                    for key, v in term.terms.items():
                        rhs.add_term(key, w * v)
                scan.eq("module_algebra_compat", (gname, mn1, mn2), lhs.items(), rhs.items())
    return scan.done()


def _scanned(check, params, bound):
    """check(params, bound) and the (equation, basis) of each Scan.eq call, in order."""
    seen = []
    eq = Scan.eq

    def recording_eq(scan, equation, basis, lhs, rhs):
        seen.append((equation, basis))
        return eq(scan, equation, basis, lhs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scan, "eq", recording_eq)
        return check(params, bound), seen


class TestModuleScanMatchesTheLoop:
    @given(_PARAM_TUPLES, st.integers(0, 2), st.sampled_from([1, exact.DEFAULT_FAILURE_CAP]))
    @settings(max_examples=30, deadline=None)
    def test_equal_reports_plain_and_perturbed(self, tup, bound, cap):
        for perturb in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exact, "DEFAULT_FAILURE_CAP", cap)
                if perturb:
                    mp.setattr(uqsl2, "rho_l", _perturbed(uqsl2.rho_l))
                # fresh params for each side, so neither reads tables the other filled
                got = _scanned(check_uq_module_hom_algebra, UqParams(*tup), bound)
                want = _scanned(loop_check_uq_module_hom_algebra, UqParams(*tup), bound)
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
                    got = _scanned(check_uq_module_hom_algebra, UqParams(2, 3, 5), bound)
                    want = _scanned(loop_check_uq_module_hom_algebra, UqParams(2, 3, 5), bound)
                assert got == want
                assert got[0].passed == (failed == 0)
                assert len(got[0].failures) == min(failed, cap)


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    data = {}
    for case in sorted(CASES):
        data[case] = outcome(case, mp)
        mp.undo()
    PIN.write_text(json.dumps(data, indent=1) + "\n")
