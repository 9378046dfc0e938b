"""Crash isolation in the acceptance runner and in the closure criterion.

The scan guards wrap every public checker wherever a ``homtwist`` module binds
it, so they see the scans a criterion runs inline and the ones its
constructors run.
"""

import ast
import functools
import inspect
import sys
import types

import pytest

from homtwist import algebra, coalgebra, exact, modsmash, suite, twisted, twistor
from homtwist.algebra import check_associative, check_hom_algebra
from homtwist.exact import CheckReport, Failure, LinearMap
from homtwist.gallery import GalleryKey, build, k2_algebra
from homtwist.suite import (
    CRITERIA,
    criterion_4_clifford,
    criterion_8_quantum,
    criterion_9_closure,
    run_criteria,
)
from homtwist.twisted import CliffordParams, TwistingMapR, clifford


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


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA if cid != "9-oracle-closure"])
def test_each_criterion_passes_alone(cid):
    assert [(c, passed) for c, passed, _, _ in run_criteria(cid)] == [(cid, True)]


def test_the_closure_criterion_alone_fails():
    [(cid, passed, detail, _)] = run_criteria("9-oracle")
    assert (cid, passed) == ("9-oracle-closure", False)
    assert "nothing to re-validate" in detail
