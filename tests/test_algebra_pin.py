"""Characterization test: the algebra checkers' reports and Yau-twist tables, pinned.

``algebra_pin.json`` holds, for each case, the report's ``passed`` and every
recorded failure (equation, basis, lhs, rhs) in scan order, of:

* ``check_hom_algebra``, ``multiplicativity_scan`` and
  ``check_algebra_morphism`` on seeded random rational algebras and maps of
  dimension 2-3, most of them failing, plus a few that pass;
* ``check_lemma_four_elements`` on the paper's 2-dimensional Hom-algebra, as
  is and with ``algebra.mat_inv`` returning twice the inverse, so that it
  fails with witnesses;
* the tables of ``_yau_twisted`` on inputs whose sums cancel; every zero
  entry must be the shared ``ZERO``.

The fixture was written before these checkers shared one multiplicativity
loop and the lemma became a composite declaration, and is the oracle for that
change: never regenerate it to make this test pass.  ``test_gate`` pins its
SHA-256.
"""

import json
import pathlib
import random

import pytest

from homtwist import algebra as algebra_module
from homtwist.algebra import (
    _yau_twisted,
    check_algebra_morphism,
    check_hom_algebra,
    check_lemma_four_elements,
    hom_algebra,
    multiplicativity_scan,
)
from homtwist.exact import ZERO, LinearMap, Q, mat_inv
from homtwist.gallery import GalleryKey, build, k2_algebra, swap_matrix

PIN = pathlib.Path(__file__).with_name("algebra_pin.json")

# Units of both signs beside zeros, so that sums of products cancel often.
ENTRIES = (0, 0, 0, 1, -1, 2, Q(1, 2), Q(-1, 2), Q(3, 2))


def _matrix(rng, rows, cols):
    return LinearMap.from_rows(
        [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    )


def _algebra(rng, d, classical=False):
    mul = [[[rng.choice(ENTRIES) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    return hom_algebra(d, mul, None if classical else _matrix(rng, d, d))


def _homalg_2dim(a, l1, l2):
    return build(GalleryKey("homalg_2dim", {"a": a, "l1": l1, "l2": l2}))["D"]


def _random_cases():
    cases = {}
    for seed in range(12):
        rng = random.Random(seed)
        d = 2 + seed % 2
        cases[f"check_hom_algebra/seed{seed}"] = (check_hom_algebra, (_algebra(rng, d),))
        a = _algebra(rng, d, classical=True)
        cases[f"multiplicativity_scan/seed{seed}"] = (
            multiplicativity_scan, (a, _matrix(rng, d, d)))
        e = 5 - d
        source, target = _algebra(rng, d), _algebra(rng, e)
        cases[f"check_algebra_morphism/seed{seed}"] = (
            check_algebra_morphism, (_matrix(rng, e, d), source, target))
    k2, sw = k2_algebra(), swap_matrix()
    twisted = _yau_twisted(k2, sw)
    cases["check_hom_algebra/yau_k2_swap"] = (check_hom_algebra, (twisted,))
    cases["multiplicativity_scan/k2_swap"] = (multiplicativity_scan, (k2, sw))
    cases["check_algebra_morphism/yau_k2_swap"] = (check_algebra_morphism, (sw, twisted, twisted))
    cases["check_algebra_morphism/k2_to_twist"] = (check_algebra_morphism, (sw, k2, twisted))
    return cases


LEMMA_PARAMS = {"a1_l1_l2_2": (1, 1, 2), "a2_l3_l2_-1": (2, 3, -1), "a1_l2_l2_1/2": (1, 2, Q(1, 2))}


def _doubled_inverse(m):
    inv = mat_inv(m)
    return LinearMap(inv.src, inv.dst, [tuple((r, 2 * x) for r, x in col) for col in inv.cols])


def _cancelling_yau_inputs():
    one, half = Q(1), Q(1, 2)
    # dual numbers in the basis (1 + x, x) and the twist x -> x/2: alpha(p p) cancels in q
    dual = hom_algebra(2, [[[one, one], [ZERO, one]], [[ZERO, one], [ZERO, ZERO]]])
    half_x = LinearMap.from_rows([[one, ZERO], [-half, half]])
    inputs = {"dual_numbers_half": (dual, half_x)}
    for seed in range(4):
        rng = random.Random(100 + seed)
        d = 2 + seed % 2
        inputs[f"seed{seed}"] = (_algebra(rng, d, classical=True), _matrix(rng, d, d))
    return inputs


def _report(report):
    record = {
        "passed": report.passed,
        "failures": [
            [f.equation, f.basis, [str(x) for x in f.lhs], [str(x) for x in f.rhs]]
            for f in report.failures
        ],
    }
    return json.loads(json.dumps(record))  # basis tuples read back as lists


def _table(algebra):
    return [[[str(x) for x in row] for row in plane] for plane in algebra.mul]


def outcome(name, monkeypatch):
    kind, case = name.split(":", 1)
    if kind == "report":
        check, args = _random_cases()[case]
        return _report(check(*args))
    if kind.startswith("lemma"):
        if kind == "lemma_doubled_inverse":
            monkeypatch.setattr(algebra_module, "mat_inv", _doubled_inverse)
        return _report(check_lemma_four_elements(_homalg_2dim(*LEMMA_PARAMS[case])))
    twisted = _yau_twisted(*_cancelling_yau_inputs()[case])
    entries = [x for plane in twisted.mul for row in plane for x in row]
    assert all(x is ZERO for x in entries if not x)
    return {"mul": _table(twisted)}


NAMES = (
    [f"report:{case}" for case in _random_cases()]
    + [f"{kind}:{case}" for kind in ("lemma", "lemma_doubled_inverse") for case in LEMMA_PARAMS]
    + [f"yau:{case}" for case in _cancelling_yau_inputs()]
)


@pytest.mark.parametrize("name", NAMES)
def test_outcome_is_pinned(name, monkeypatch):
    assert outcome(name, monkeypatch) == json.loads(PIN.read_text())[name]


def test_the_pin_holds_failures_and_passes():
    pinned = json.loads(PIN.read_text())
    assert sorted(pinned) == sorted(NAMES)
    reports = {name: r for name, r in pinned.items() if not name.startswith("yau:")}
    failing = [r for r in reports.values() if not r["passed"]]
    assert 0 < len(failing) < len(reports)
    assert all(r["failures"] for r in failing)
    for case in LEMMA_PARAMS:
        assert pinned[f"lemma:{case}"]["passed"]
        assert not pinned[f"lemma_doubled_inverse:{case}"]["passed"]

