import json

import pytest

from homtwist.cli import main
from homtwist.suite import GOLDEN_MANIFEST


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_MANIFEST))
    return str(path)


class TestCheckCommand:
    def test_golden_exits_zero(self, golden_file, capsys):
        assert main(["check", golden_file]) == 0
        assert "all expectations met" in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"objects": {"D": {')
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_semantic_error_exits_three(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"objects": {}, "tasks": [{"op": "check_hom_algebra", "args": ["Q"]}]}')
        assert main(["check", str(path)]) == 3

    def test_expectation_failure_exits_one(self, tmp_path):
        doc = json.loads(json.dumps(GOLDEN_MANIFEST))
        doc["tasks"] = [{"op": "check_associative", "args": ["D"], "expect": "pass"}]
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1

    def test_missing_file_exits_three(self):
        assert main(["check", "/no/such/file.json"]) == 3


class TestArgumentKinds:
    """A task whose arguments do not fit its op is a semantic error (exit 3), not a crash."""

    def write(self, tmp_path, task):
        doc = {
            "objects": {
                "A": {"kind": "hom_algebra", "dim": 1, "mul": [[["1"]]], "alpha": [["1"]]},
                "f": {"kind": "linear_map", "source_dim": 1, "target_dim": 1, "matrix": [["1"]]},
            },
            "tasks": [task],
        }
        path = tmp_path / "kinds.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_check_hom_algebra_on_a_linear_map(self, tmp_path, capsys):
        path = self.write(tmp_path, {"op": "check_hom_algebra", "args": ["f"]})
        assert main(["check", path]) == 3
        err = capsys.readouterr().err
        assert "argument 1 of check_hom_algebra" in err and "linear_map" in err

    def test_check_hom_algebra_with_two_args(self, tmp_path, capsys):
        path = self.write(tmp_path, {"op": "check_hom_algebra", "args": ["A", "A"]})
        assert main(["check", path]) == 3
        assert "check_hom_algebra takes 1 arguments, got 2" in capsys.readouterr().err


class TestTableCommand:
    def test_prints_table(self, golden_file, capsys):
        assert main(["table", golden_file, "D"]) == 0
        out = capsys.readouterr().out
        assert "e0" in out and "|" in out

    def test_unknown_name_exits_three(self, golden_file):
        assert main(["table", golden_file, "nope"]) == 3

    def test_wrong_kind_exits_three(self, golden_file):
        assert main(["table", golden_file, "C2"]) == 3


@pytest.fixture
def failing_construct_file(tmp_path):
    """A hom_ttp(N, N, R) task expected to fail beside an unrelated algebra A."""
    doc = {
        "objects": {
            "A": {"kind": "hom_algebra", "dim": 1, "mul": [[["1"]]], "alpha": [["1"]]},
            # not Hom-associative: alpha is not multiplicative for e0 e0 = e0
            "N": {"kind": "hom_algebra", "dim": 1, "mul": [[["1"]]], "alpha": [["2"]]},
            "R": {"kind": "twisting_map", "dim_a": 1, "dim_b": 1, "matrix": [["1"]]},
        },
        "tasks": [
            {"op": "hom_ttp", "args": ["N", "N", "R"], "as": "P", "expect": "fail"},
            {"op": "tensor_algebra", "args": ["P", "A"], "as": "Q", "expect": "fail"},
            {"op": "tensor_algebra", "args": ["A", "A"], "as": "AA", "expect": "pass"},
        ],
    }
    path = tmp_path / "failing_construct.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFailingConstruct:
    def test_table_prints_an_unrelated_algebra(self, failing_construct_file, capsys):
        assert main(["table", failing_construct_file, "A"]) == 0
        assert "e0" in capsys.readouterr().out

    def test_table_prints_a_later_construct(self, failing_construct_file, capsys):
        assert main(["table", failing_construct_file, "AA"]) == 0
        assert "e0" in capsys.readouterr().out

    def test_failed_construct_name_is_undefined(self, failing_construct_file, capsys):
        assert main(["table", failing_construct_file, "P"]) == 3
        assert "undefined name 'P'" in capsys.readouterr().err

    def test_check_meets_the_expected_failures(self, failing_construct_file, capsys):
        assert main(["check", failing_construct_file]) == 0
        out = capsys.readouterr().out
        assert "undefined name 'P'" in out and "all expectations met" in out


class TestPaperCommand:
    def test_filtered_subset(self, capsys):
        assert main(["paper", "--filter", "10-cli"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "10-cli" in out

    def test_closure_alone_has_nothing_to_revalidate(self, capsys):
        assert main(["paper", "--filter", "9-oracle"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  9-oracle-closure" in out and "SOME CRITERIA FAILED" in out

    def test_uq_filter_selects_quantum_criterion(self, capsys):
        assert main(["paper", "--filter", "uq", "--bounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "uq-quantum" in out

    def test_filter_matching_nothing_is_an_error(self, capsys):
        assert main(["paper", "--filter", "nomatch"]) == 3
        captured = capsys.readouterr()
        assert "no criterion matches" in captured.err
        assert "ALL CRITERIA PASS" not in captured.out

    def test_negative_bounds_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["paper", "--filter", "uq", "--bounds", "-5"])
        assert err.value.code == 2
        assert "bound must be >= 0" in capsys.readouterr().err

    def test_bounds_reduce_quantum_work(self, capsys):
        assert main(["paper", "--filter", "1-k2"]) == 0
