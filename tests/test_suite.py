"""Crash isolation in the acceptance runner and in the closure criterion."""

from homtwist import exact, suite
from homtwist.algebra import check_associative
from homtwist.exact import CheckReport, Failure, LinearMap
from homtwist.gallery import GalleryKey, build, k2_algebra
from homtwist.suite import (
    Recorder,
    criterion_4_clifford,
    criterion_8_quantum,
    criterion_9_closure,
    run_criteria,
)
from homtwist.twisted import CliffordParams, clifford


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
    def test_raising_thunk_is_a_named_failure_and_the_rest_still_run(self):
        ran = []

        def passing():
            ran.append("k2")
            return check_associative(k2_algebra())

        rec = Recorder()
        rec.record("broken(X)", lambda: undefined_checker())  # noqa: F821
        rec.record("k2", passing)
        assert criterion_9_closure(rec) == (False, "closure failures: ['broken(X): NameError']")
        assert ran == ["k2"]

    def test_failing_report_is_named(self):
        d = build(GalleryKey("homtwistor_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
        rec = Recorder()
        rec.record("D", lambda: check_associative(d))
        assert criterion_9_closure(rec) == (False, "closure failures: ['D']")

    def test_empty_recorder_fails(self):
        passed, detail = criterion_9_closure(Recorder())
        assert not passed
        assert "no constructed objects" in detail


class TestQuantumCriterion:
    def test_failing_hopf_report_fails_the_criterion(self, monkeypatch):
        failure = Failure("delta_respects_relation", ("E", "F"), (), ())
        monkeypatch.setattr(
            suite, "check_hopf_on_relations", lambda q, lam: CheckReport(False, (failure,))
        )
        assert criterion_8_quantum(Recorder()) == (
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
        assert criterion_4_clifford(Recorder()) == (
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
        assert criterion_4_clifford(Recorder()) == (
            False,
            "closed doubling formula fails at q=1: "
            "doubling_v_1 at (0, 0): lhs=[0, 0, 0, 1] rhs=[0, 0, 0, 0]",
        )
