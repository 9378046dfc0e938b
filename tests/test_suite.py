"""Crash isolation in the acceptance runner and in the closure criterion."""

from homtwist import suite
from homtwist.algebra import check_associative
from homtwist.exact import CheckReport, Failure
from homtwist.gallery import GalleryKey, build, k2_algebra
from homtwist.suite import Recorder, criterion_8_quantum, criterion_9_closure, run_criteria


def _boom(rec, bounds):
    raise ZeroDivisionError("division by zero in a criterion")


def _ok(rec, bounds):
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
        assert criterion_9_closure(rec, None) == (False, "closure failures: ['broken(X): NameError']")
        assert ran == ["k2"]

    def test_failing_report_is_named(self):
        d = build(GalleryKey("homtwistor_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
        rec = Recorder()
        rec.record("D", lambda: check_associative(d))
        assert criterion_9_closure(rec, None) == (False, "closure failures: ['D']")

    def test_empty_recorder_fails(self):
        passed, detail = criterion_9_closure(Recorder(), None)
        assert not passed
        assert "no constructed objects" in detail


class TestQuantumCriterion:
    def test_failing_hopf_report_fails_the_criterion(self, monkeypatch):
        failure = Failure("delta_respects_relation", ("E", "F"), (), ())
        monkeypatch.setattr(
            suite, "check_hopf_on_relations", lambda q, lam: CheckReport(False, (failure,))
        )
        assert criterion_8_quantum(Recorder(), None) == (
            False, "Hopf check on the relations fails at q=2, lambda=3"
        )
