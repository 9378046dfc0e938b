"""Crash isolation in the acceptance runner and in the closure criterion.

The scan guards wrap every public checker wherever a ``homtwist`` module binds
it, so they see the scans a criterion runs inline and the ones its
constructors run.
"""

import ast
import dataclasses
import functools
import inspect
import sys
import types

import pytest

from homtwist import algebra, coalgebra, exact, modsmash, suite, twisted, twistor
from homtwist.algebra import HomAlgebra, check_associative, check_hom_algebra
from homtwist.errors import ManifestSyntaxError
from homtwist.exact import CheckReport, Failure, LinearMap
from homtwist.gallery import GalleryKey, build, k2_algebra
from homtwist.manifest import Manifest
from homtwist.suite import (
    CRITERIA,
    criterion_4_clifford,
    criterion_8_quantum,
    criterion_9_closure,
    run_criteria,
)
from homtwist.twisted import CliffordParams, TwistingMapR, clifford
from homtwist.twistor import Operator2
from homtwist.uqsl2 import UqElement


def _boom(rec):
    raise ZeroDivisionError("division by zero in a criterion")


def _ok(rec):
    return True, "fine"


class TestRunCriteria:
    def test_crash_fails_only_its_criterion(self, monkeypatch):
        monkeypatch.setattr(suite, "CRITERIA", (("a-boom", _boom), ("b-ok", _ok)))
        results = [(cid, passed, detail) for cid, passed, detail, _ in run_criteria()]
        assert results == [
            ("a-boom", False, "ZeroDivisionError: division by zero in a criterion"),
            ("b-ok", True, "fine"),
        ]

    def test_paper_suite_prints_the_crash_and_fails(self, monkeypatch):
        monkeypatch.setattr(suite, "CRITERIA", (("a-boom", _boom), ("b-ok", _ok)))
        lines = []
        assert suite.paper_suite(out=lines.append) == 1
        assert lines[0].startswith("FAIL  a-boom")
        assert "ZeroDivisionError" in lines[0]
        assert lines[1].startswith("PASS  b-ok")
        assert lines[2].startswith("SOME CRITERIA FAILED")


class TestClosure:
    def test_raising_checker_is_a_named_failure_and_the_rest_still_run(self):
        ran = []

        def broken(obj):
            raise NameError("a checker that cannot run")

        def passing(obj):
            ran.append(obj)
            return check_associative(obj)

        k2 = k2_algebra()
        closure = [("broken(X)", broken, k2), ("k2", passing, k2)]
        assert criterion_9_closure(closure) == (False, "closure failures: ['broken(X): NameError']")
        assert ran == [k2]

    def test_failing_report_is_named(self):
        d = build(GalleryKey("homtwistor_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
        assert criterion_9_closure([("D", check_associative, d)]) == (
            False, "closure failures: ['D']"
        )

    def test_empty_closure_list_fails(self):
        passed, detail = criterion_9_closure([])
        assert not passed
        assert "no constructed objects" in detail


class TestQuantumCriterion:
    def test_failing_hopf_report_fails_the_criterion(self, monkeypatch):
        failure = Failure("delta_respects_relation", ("E", "F"), (), ())
        monkeypatch.setattr(
            suite, "check_hopf_on_relations", lambda q, lam: CheckReport(False, (failure,))
        )
        assert criterion_8_quantum([]) == (
            False, "Hopf check on the relations fails at q=2, lambda=3"
        )


class TestCliffordCriterion:
    EQUATIONS = ("doubling_1_1", "doubling_1_v", "doubling_v_1", "doubling_v_v")

    def test_four_equations_on_every_basis_pair_of_a(self, monkeypatch):
        seen = []
        eq = exact.Scan.eq

        def recorded(scan, equation, basis, lhs, rhs):
            if equation.startswith("doubling_"):
                seen.append((equation, basis))
            return eq(scan, equation, basis, lhs, rhs)

        monkeypatch.setattr(exact.Scan, "eq", recorded)
        assert criterion_4_clifford([]) == (
            True, "3 q-values verified against the closed doubling formula (4 equations x 4 basis pairs)"
        )
        # per q: the basis pairs (a, c) of A in order, the four equations for each
        per_q = [(name, (i, j)) for i in range(2) for j in range(2) for name in self.EQUATIONS]
        assert len(per_q) == 16
        assert seen == per_q * 3

    def test_sigma_identity_fails_with_the_first_witness(self, monkeypatch):
        gallery_build = suite.build

        def built_with_identity_sigma(key):
            bundle = gallery_build(key)
            if key.name == "clifford":
                params = CliffordParams(key.params["q"], LinearMap.identity(2))
                bundle = {**bundle, "Abar": clifford(bundle["A"], params)[0]}
            return bundle

        monkeypatch.setattr(suite, "build", built_with_identity_sigma)
        # A = yau_twist(k2, swap): e0 e0 = e1 and e0 e1 = 0, so (e0 (x) v)(e0 (x) 1) = e1 (x) v
        # in the flip-twisted product, while the doubling formula asks for e0 sigma(e0) (x) v = 0
        assert criterion_4_clifford([]) == (
            False,
            "closed doubling formula fails at q=1: "
            "doubling_v_1 at (0, 0): lhs=[0, 0, 0, 1] rhs=[0, 0, 0, 0]",
        )


# ---------------------------------------------------------------------------
# each scan once
# ---------------------------------------------------------------------------

CHECKER_MODULES = (algebra, coalgebra, twisted, twistor, modsmash)
CLIFFORD_QS = (1, 2, -3)


def _log_calls(monkeypatch, functions):
    """Wrap each function wherever a homtwist module binds it; the calls land in the log.

    The log holds (function, args, calling module) in call order, the function
    unwrapped.
    """
    log = []
    wrappers = {}
    for fn in functions:
        @functools.wraps(fn)
        def logged(*args, _fn=fn, **kwargs):
            log.append((_fn, args, sys._getframe(1).f_globals["__name__"]))
            return _fn(*args, **kwargs)

        wrappers[fn] = logged
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "homtwist":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])
    return log


def _public_checkers():
    return [
        fn
        for module in CHECKER_MODULES
        for name, fn in vars(module).items()
        if name.startswith("check_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    ]


def _scan_repeats(monkeypatch, criteria):
    """Run `criteria`; return the closure entries and the repeated scans.

    A repeat is a closure entry whose checker already ran on an equal object
    during the criterion that recorded it, given by its label, or a check the
    criterion ran inline that another scan of that criterion ran on equal
    arguments too, given as (criterion, checker name).
    """
    log = _log_calls(monkeypatch, _public_checkers())
    closure, repeats = [], []
    for cid, fn in criteria:
        first_call, first_entry = len(log), len(closure)
        passed, detail = fn(closure)
        assert passed, f"{cid}: {detail}"
        ran = log[first_call:]
        for label, checker, obj in closure[first_entry:]:
            checker = getattr(checker, "__wrapped__", checker)
            if any(f is checker and args == (obj,) for f, args, _ in ran):
                repeats.append(label)
        for i, (f, args, caller) in enumerate(ran):
            others = ran[:i] + ran[i + 1:]
            if caller == suite.__name__ and any(g is f and b == args for g, b, _ in others):
                repeats.append((cid, f.__name__))
    return closure, repeats


class TestEachScanOnce:
    def test_no_closure_entry_or_inline_check_repeats_a_scan_of_its_criterion(self, monkeypatch):
        criteria = [(cid, fn) for cid, fn in CRITERIA if cid != "9-oracle-closure"]
        closure, repeats = _scan_repeats(monkeypatch, criteria)
        assert repeats == []
        assert len(closure) == 16
        assert criterion_9_closure(closure) == (
            True, "16 constructed objects re-validated, 100% pass"
        )

    def test_the_guard_flags_a_clifford_entry_criterion_4_scanned_inline(self, monkeypatch):
        def clifford_with_its_entries(closure):
            result = criterion_4_clifford(closure)
            for q in CLIFFORD_QS:
                abar = build(GalleryKey("clifford", {"q": q}))["Abar"]
                closure.append((f"clifford(q={q})", check_hom_algebra, abar))
            return result

        _, repeats = _scan_repeats(monkeypatch, [("4-clifford", clifford_with_its_entries)])
        assert repeats == [f"clifford(q={q})" for q in CLIFFORD_QS]

    def test_criterion_5_builds_the_smash_triple_once(self, monkeypatch):
        log = _log_calls(monkeypatch, [twisted.iterated_ttp])
        [(_, passed, _, _)] = run_criteria("5-iterated")
        assert passed
        # one inside smash_two_sided, one for the all-flip triple
        assert len(log) == 2

    def test_criterion_3_scans_each_sample_once(self, monkeypatch):
        log = _log_calls(monkeypatch, [twisted.check_hom_twisting_map])
        [(_, passed, _, _)] = run_criteria("3-hom")
        assert passed
        assert len(log) == 50

    def test_a_failing_last_d_k2_sample_fails_criterion_3(self, monkeypatch):
        gallery_build = suite.build
        samples = []

        def last_sample_broken(key):
            bundle = gallery_build(key)
            if key.name == "homtwist_Dk2":
                samples.append(key)
                if len(samples) == 10:  # the identity is no Hom-twisting map of D and k2
                    bundle = {**bundle, "R": TwistingMapR(2, 2, LinearMap.identity(4))}
            return bundle

        monkeypatch.setattr(suite, "build", last_sample_broken)
        [(_, passed, detail, _)] = run_criteria("3-hom")
        assert not passed
        assert detail == "PreconditionFailure: precondition failed: check_hom_twisting_map"

    def test_suite_holds_no_lambda(self):
        tree = ast.parse(inspect.getsource(suite))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda)]


# ---------------------------------------------------------------------------
# every failure branch of the paper criteria
# ---------------------------------------------------------------------------

_WITNESS = Failure("altered", (0, 0), (), ())


def _altered(value):
    """A value unlike `value`: a report with its verdict flipped, an algebra with zero
    multiplication, an exit code plus one, a manifest without its first task, the zero
    U_q element; in a tuple, its first item altered."""
    if isinstance(value, CheckReport):
        return CheckReport(True) if not value.passed else CheckReport(False, (_WITNESS,))
    if isinstance(value, HomAlgebra):
        d = value.dim
        return HomAlgebra(d, LinearMap((d, d), (d,), [()] * (d * d)), value.alpha)
    if isinstance(value, tuple):
        return (_altered(value[0]),) + value[1:]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, Manifest):
        return dataclasses.replace(value, tasks=value.tasks[1:])
    if isinstance(value, UqElement):
        return UqElement()
    raise TypeError(f"nothing to alter in a {type(value).__name__}")


def _altered_result(original, *args):
    return _altered(original(*args))


def _passing(original, *args):
    return CheckReport(True)


def _parsed(original, *args):
    return None


def _syntax_error_without_position(original, *args):
    raise ManifestSyntaxError("no position", 0, 0)


def _identity_twistor(original, key):
    """The bundle with T = id, under which deform(D, T) is D, and D's table as expected."""
    bundle = original(key)
    return {**bundle, "T": Operator2(2, LinearMap.identity(4)), "expected_mul": bundle["D"].mul}


def _branch(criterion, name, n, then, detail, owner=suite):
    """A failure branch: `criterion` returns (False, detail) once the n-th call of
    `owner.name` (every call when n is None) gives ``then(original, *args)``."""
    number = criterion.__name__.split("_")[1]
    return pytest.param(criterion, owner, name, n, then, detail, id=f"{number}-{name}-{n}")


# Every `return False` of criteria 1-8 and 10 but three, which the tests above
# and test_uq_symbolic already require: criterion 4's doubling formula, and
# criterion 8's Hopf check and rho oracle.  Criterion 9's are in TestClosure.
FAILURE_BRANCHES = [
    _branch(suite.criterion_1_ttp_table, "ttp", 1, _altered_result,
            "table mismatch at lambda=0"),
    _branch(suite.criterion_2_two_dim_algebra, "check_associative", 1, _altered_result,
            "unexpectedly associative at (1, 1, 2)"),
    _branch(suite.criterion_2_two_dim_algebra, "check_hom_twistor", 1, _altered_result,
            "check_hom_twistor fails at (1, 1, 2)"),
    _branch(suite.criterion_2_two_dim_algebra, "deform", 1, _altered_result,
            "deformed table mismatch at (1, 1, 2)"),
    _branch(suite.criterion_2_two_dim_algebra, "build", 1, _identity_twistor,
            "deformed multiplication is commutative at (1, 1, 2)"),
    _branch(suite.criterion_2_two_dim_algebra, "check_associative", 2, _altered_result,
            "lambda2=0 case not associative at (1, 1)"),
    _branch(suite.criterion_3_hom_twisting_families, "check_hom_twisting_map", 1, _altered_result,
            "homtwist_R1 fails Hom-twisting at l1=1 sample 0"),
    _branch(suite.criterion_3_hom_twisting_families, "check_twisting_map", None, _passing,
            "no sampled R1 tuple fails the classical twisting axioms"),
    _branch(suite.criterion_3_hom_twisting_families, "check_hom_twisting_map", 41, _altered_result,
            "D-k2 family fails Hom-twisting at sample 0"),
    _branch(suite.criterion_4_clifford, "check_hom_algebra", 1, _altered_result,
            "Abar fails check_hom_algebra at q=1"),
    _branch(suite.criterion_5_iterated, "iterated_ttp", 1, _altered_result,
            "all-flip iterated product is not the plain triple tensor product"),
    _branch(suite.criterion_6_smash_suite, "check_hom_algebra", 1, _altered_result,
            "left smash algebra fails (identity)"),
    _branch(suite.criterion_6_smash_suite, "check_comodule_hom_algebra", 1, _altered_result,
            "rho multiplicativity fails (identity)"),
    _branch(suite.criterion_6_smash_suite, "check_hom_algebra", 4, _altered_result,
            "right smash algebra fails (twisted)"),
    _branch(suite.criterion_6_smash_suite, "check_comodule_hom_algebra", 4, _altered_result,
            "right-smash lambda multiplicativity fails (twisted)"),
    _branch(suite.criterion_6_smash_suite, "check_smash_twist_compat", 1, _altered_result,
            "left smash twist compatibility fails"),
    _branch(suite.criterion_6_smash_suite, "check_smash_twist_compat", 2, _altered_result,
            "right smash twist compatibility fails"),
    _branch(suite.criterion_6_smash_suite, "check_comodule_hom_algebra", 5, _altered_result,
            "lambda on the YD smash is not multiplicative"),
    _branch(suite.criterion_6_smash_suite, "check_bicomodule", 1, _altered_result,
            "bicomodule interchange fails on the YD smash"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "check_alpha_pseudotwistor", 1, _altered_result,
            "yau_operator rejected on Example algebra, l2=0"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "deform_with_alpha", 2, _altered_result,
            "A^T_alpha differs from A_alpha on k2 with swap"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "check_alpha_pseudotwistor", 3, _altered_result,
            "flip-lift operator triple rejected"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "alphaAB_ttp", 1, _altered_result,
            "flip lift does not equal the Yau twist of the tensor product"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "check_alpha_pseudotwistor", 4, _altered_result,
            "Clifford alpha operator triple rejected"),
    _branch(suite.criterion_7_alpha_pseudotwistor, "alphaAB_ttp", 2, _altered_result,
            "Clifford alpha variant does not equal (Abar)_sigmabar"),
    _branch(suite.criterion_8_quantum, "pbw_normalize", 1, _altered_result,
            "K E relation broken at q=2"),
    _branch(suite.criterion_8_quantum, "check_pbw_confluence", 2, _altered_result,
            "PBW rewriting not confluent at q=3"),
    _branch(suite.criterion_8_quantum, "check_uq_module_hom_algebra", 1, _altered_result,
            "module Hom-algebra check fails at (2, 3, 5)"),
    _branch(suite.criterion_8_quantum, "verify_smash_closed_forms", 2, _altered_result,
            "closed smash formulas fail at (3, 2, 5)"),
    _branch(suite.criterion_10_cli, "parse_manifest", 2, _altered_result,
            "parse/serialize round-trip is not stable", owner=suite.manifest_mod),
    _branch(suite.criterion_10_cli, "run", 1, _altered_result,
            "golden manifest exited 1, expected 0", owner=suite.manifest_mod),
    _branch(suite.criterion_10_cli, "parse_manifest", 3, _parsed,
            "truncated manifest unexpectedly parsed", owner=suite.manifest_mod),
    _branch(suite.criterion_10_cli, "parse_manifest", 3, _syntax_error_without_position,
            "syntax error lacks line/column", owner=suite.manifest_mod),
    _branch(suite.criterion_10_cli, "run", 2, _altered_result,
            "expected-pass-but-failing task exited 2, expected 1", owner=suite.manifest_mod),
]


@pytest.mark.parametrize("criterion, owner, name, n, then, detail", FAILURE_BRANCHES)
def test_each_failure_branch_is_reached(criterion, owner, name, n, then, detail, monkeypatch):
    original, calls = getattr(owner, name), []

    def patched(*args):
        calls.append(args)
        return then(original, *args) if n in (None, len(calls)) else original(*args)

    monkeypatch.setattr(owner, name, patched)
    assert criterion([]) == (False, detail)


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA if cid != "9-oracle-closure"])
def test_each_criterion_passes_alone(cid):
    assert [(c, passed) for c, passed, _, _ in run_criteria(cid)] == [(cid, True)]


def test_the_closure_criterion_alone_fails():
    [(cid, passed, detail, _)] = run_criteria("9-oracle")
    assert (cid, passed) == ("9-oracle-closure", False)
    assert "nothing to re-validate" in detail
