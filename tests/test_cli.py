import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import homtwist
from homtwist.cli import main
from homtwist.manifest import SIGNATURES
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

    @pytest.mark.parametrize(
        "name, kind", [("g", "bundle"), ("f", "linear_map"), ("act", "action")]
    )
    def test_wrong_kind_names_the_manifest_kind(self, tmp_path, capsys, name, kind):
        doc = {
            "objects": {
                "g": {"kind": "gallery", "name": "ttp_k2_lambda", "params": {"lam": "2"}},
                "f": {"kind": "linear_map", "source_dim": 1, "target_dim": 1, "matrix": [["1"]]},
                "act": {
                    "kind": "action",
                    "side": "left",
                    "acting_dim": 1,
                    "module_dim": 1,
                    "table": [[["1"]]],
                    "alpha_m": [["1"]],
                },
            },
            "tasks": [],
        }
        path = tmp_path / "kinds.json"
        path.write_text(json.dumps(doc))
        assert main(["table", str(path), name]) == 3
        err = capsys.readouterr().err
        assert err == f"semantic error: {name!r} is not an algebra (got {kind})\n"


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
        assert main(["paper", "--filter", "uq"]) == 0
        out = capsys.readouterr().out
        assert "uq-quantum" in out

    def test_filter_matching_nothing_is_an_error(self, capsys):
        assert main(["paper", "--filter", "nomatch"]) == 3
        captured = capsys.readouterr()
        assert "no criterion matches" in captured.err
        assert "ALL CRITERIA PASS" not in captured.out

    def test_k2_table_criterion_alone_passes(self, capsys):
        assert main(["paper", "--filter", "1-k2"]) == 0


def _read_one_line_then_close(*argv):
    """Run the CLI in a child, read one line of its output, close the pipe.

    Returns (first line, exit code, standard error).
    """
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(homtwist.__file__))}
    code = "import sys; from homtwist.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    line = proc.stdout.readline().decode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return line, proc.wait(timeout=120), err


class TestClosedPipe:
    """A reader that stops early, as `| head -1` does, ends no run in a traceback."""

    def test_paper_finishes_with_its_exit_code(self):
        line, code, err = _read_one_line_then_close("paper")
        assert line.startswith("PASS  1-k2-ttp-table")
        assert (code, err) == (0, "")

    def test_check_report_longer_than_the_pipe(self, tmp_path):
        k2 = {
            "kind": "hom_algebra",
            "dim": 2,
            "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "alpha": [[1, 0], [0, 1]],
        }
        # about 150 kB of report: more than a pipe buffers, so the writer is still writing
        task = {"op": "check_associative", "args": ["K2"], "expect": "fail"}
        doc = {"objects": {"K2": k2}, "tasks": [task] * 2000}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        line, code, err = _read_one_line_then_close("check", str(path))
        assert line == "task 1: check_associative(K2) -> pass (expected fail) EXPECTATION FAILED\n"
        assert (code, err) == (1, "")


class TestMalformedManifest:
    """Malformed manifests end in their documented exit code, never a traceback."""

    def write(self, tmp_path, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_objects_not_an_object_exits_three(self, tmp_path, capsys):
        assert main(["check", self.write(tmp_path, {"objects": [], "tasks": []})]) == 3
        assert "'objects' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("tasks", [{}, "", 0, None])
    def test_tasks_not_a_list_exits_three(self, tmp_path, capsys, tasks):
        assert main(["check", self.write(tmp_path, {"objects": {}, "tasks": tasks})]) == 3
        assert "'tasks' must be a JSON array" in capsys.readouterr().err

    @pytest.mark.parametrize("op", [{}, [], 1, None])
    def test_op_not_a_string_exits_three(self, tmp_path, capsys, op):
        doc = {"objects": {}, "tasks": [{"op": op, "args": []}]}
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert "task 1: unknown op" in capsys.readouterr().err

    @pytest.mark.parametrize("dim_a", [{}, "2", 2.0])
    def test_twisting_map_dim_not_an_integer_exits_three(self, tmp_path, capsys, dim_a):
        doc = json.loads(json.dumps(GOLDEN_MANIFEST))
        doc["objects"]["Rflip"]["dim_a"] = dim_a
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert "field 'dim_a' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [[], 3, None], ids=["list", "int", "null"])
    def test_kind_not_a_string_exits_three(self, tmp_path, capsys, kind):
        doc = {"objects": {"X": {"kind": kind}}, "tasks": []}
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert f"object 'X': unknown kind {kind!r}" in capsys.readouterr().err

    def test_group_algebra_non_integer_order_exits_three(self, tmp_path, capsys):
        doc = {"objects": {"G": {"kind": "gallery", "name": "group_algebra", "params": {"n": "5/2"}}},
               "tasks": [{"op": "check_hom_bialgebra", "args": ["G.H"]}]}
        assert main(["check", self.write(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert "group_algebra supports n in {2, 3}" in captured.err
        assert captured.out == ""

    def test_dimension_zero_deform_exits_zero(self, tmp_path):
        # the deformed table of a dim-0 algebra is empty, not a traceback
        doc = {
            "objects": {"Z": {"kind": "hom_algebra", "dim": 0, "mul": [], "alpha": []},
                        "T": {"kind": "operator2", "dim": 0, "matrix": []}},
            "tasks": [{"op": "deform", "args": ["Z", "T"], "as": "ZT"},
                      {"op": "check_hom_algebra", "args": ["ZT"], "expect": "pass"}],
        }
        assert main(["check", self.write(tmp_path, doc)]) == 0

    def test_morphisms_through_the_zero_algebra_exit_zero(self, tmp_path, capsys):
        # D -> 0 has two columns and no rows: `[]` is read with the declared dims
        doc = {
            "objects": {
                "D": GOLDEN_MANIFEST["objects"]["D"],
                "Z": {"kind": "hom_algebra", "dim": 0, "mul": [], "alpha": []},
                "f": {"kind": "linear_map", "source_dim": 2, "target_dim": 0, "matrix": []},
                "g": {"kind": "linear_map", "source_dim": 0, "target_dim": 2, "matrix": [[], []]},
            },
            "tasks": [{"op": "check_algebra_morphism", "args": ["f", "D", "Z"], "expect": "pass"},
                      {"op": "check_algebra_morphism", "args": ["g", "Z", "D"], "expect": "pass"}],
        }
        assert main(["check", self.write(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.count("-> pass (expected pass) OK") == 2

    def test_a_zero_row_matrix_with_a_row_exits_three(self, tmp_path, capsys):
        doc = {"objects": {"f": {"kind": "linear_map", "source_dim": 2, "target_dim": 0,
                                 "matrix": [[]]}}}
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert "matrix shape does not match declared dims" in capsys.readouterr().err

    def test_negative_twisting_map_dims_exit_three(self, tmp_path, capsys):
        # dims -2 x -2 multiply to a 4x4 matrix; a braid check over them would scan nothing
        identity = [[1 if r == c else 0 for c in range(4)] for r in range(4)]
        doc = {
            "objects": {"R": {"kind": "twisting_map", "dim_a": -2, "dim_b": -2, "matrix": identity}},
            "tasks": [{"op": "check_braid", "args": ["R", "R", "R"], "expect": "pass"}],
        }
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert "field 'dim_a' must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix, depth, suffix", [
        ('{"objects": ', 100_000, "}"),
        ('{"objects": {"A": {"kind": "hom_algebra", "dim": 1, "mul": ', 5_000,
         ', "alpha": [[1]]}}, "tasks": []}'),
    ], ids=["objects", "mul"])
    def test_over_nested_manifest_is_a_parse_error(self, tmp_path, capsys, prefix, depth, suffix):
        path = tmp_path / "nested.json"
        path.write_text(prefix + "[" * depth + "]" * depth + suffix)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(r"parse error: nesting too deep \(line 1, column (\d+)\)\n", err)
        assert found is not None, err
        # the column points into the run of opening brackets
        assert len(prefix) < int(found.group(1)) <= len(prefix) + depth

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"objects": {},\n "tasks": ["\xe9"]}')
        assert main(["check", str(path)]) == 2
        assert "parse error: invalid UTF-8 (line 2, column 13)" in capsys.readouterr().err

    A = {"kind": "hom_algebra", "dim": 1, "mul": [[[1]]], "alpha": [[1]]}
    CHECK = {"op": "check_hom_algebra", "args": ["A"]}
    TENSOR = {"op": "tensor_algebra", "args": ["A", "A"]}

    @pytest.mark.parametrize("doc, message", [
        ([], "manifest root must be a JSON object"),
        ({"objects": {}, "tasks": [], "extra": 1},
         "manifest has unknown top-level fields ['extra']"),
        ({"objects": {"A.B": A}}, "object name 'A.B' may not contain '.'"),
        ({"objects": {"A": {**A, "colour": "red"}}},
         "object 'A' (hom_algebra): unknown fields ['colour']"),
        ({"objects": {"G": {"kind": "gallery", "name": 3, "params": {}}}},
         "object 'G' (gallery): name must be a string"),
        ({"objects": {"G": {"kind": "gallery", "name": "sweedler_h4", "params": []}}},
         "object 'G': params must be an object"),
        ({"tasks": [3]}, "task 1: must be a JSON object"),
        ({"objects": {"A": A}, "tasks": [{**CHECK, "note": "x"}]},
         "task 1: unknown fields ['note']"),
        ({"objects": {"A": A}, "tasks": [{**TENSOR, "as": "A.A"}]},
         "task 1: 'as' must be a plain name"),
        ({"objects": {"A": A}, "tasks": [{**TENSOR, "as": "A"}]},
         "task 1: name 'A' already defined"),
        ({"objects": {"A": A}, "tasks": [{**CHECK, "expect": "maybe"}]},
         "task 1: expect must be one of ('pass', 'fail', 'any')"),
        ({"objects": {"A": A}, "tasks": [{**CHECK, "as": "X"}]},
         "task 1: check ops do not bind a result"),
    ], ids=[
        "root", "top-level-field", "dotted-name", "object-field", "gallery-name", "gallery-params",
        "task", "task-field", "as-dotted", "as-defined", "expect", "check-as",
    ])
    def test_rejected_manifest_exits_three(self, tmp_path, capsys, doc, message):
        assert main(["check", self.write(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == f"semantic error: {message}\n"


class TestLongIntegers:
    """Integers of any length are read and printed, past the interpreter's digit limit."""

    DIGITS = "1" * 5000

    def write(self, tmp_path, mul, alpha, expect):
        # written as text: a 5,000-digit int is past the default str() limit
        algebra = f'{{"kind": "hom_algebra", "dim": 1, "mul": [[[{mul}]]], "alpha": [[{alpha}]]}}'
        task = f'{{"op": "check_hom_algebra", "args": ["A"], "expect": "{expect}"}}'
        path = tmp_path / "long.json"
        path.write_text(f'{{"objects": {{"A": {algebra}}}, "tasks": [{task}]}}')
        return str(path)

    @pytest.mark.parametrize("mul, alpha", [
        (DIGITS, "1"),
        (f'"{DIGITS}"', '"1"'),
        ('"1"', f'"1/{DIGITS}"'),
    ], ids=["json-integer", "string-integer", "string-fraction"])
    def test_long_scalars_are_read(self, tmp_path, capsys, mul, alpha):
        assert main(["check", self.write(tmp_path, mul, alpha, "any")]) == 0
        assert capsys.readouterr().out.endswith("all expectations met\n")

    def test_a_witness_past_the_limit_is_printed_in_full(self, tmp_path, capsys):
        # alpha = 10^2200 is within the limit; alpha(e) alpha(e) = 10^4400 is not
        alpha = "1" + "0" * 2200
        assert main(["check", self.write(tmp_path, "1", alpha, "fail")]) == 0
        rhs = "1" + "0" * 4400
        assert capsys.readouterr().out == (
            "task 1: check_hom_algebra(A) -> fail (expected fail) OK\n"
            f"    witness: multiplicativity at (0, 0): lhs=[{alpha}] rhs=[{rhs}]\n"
            "all expectations met\n"
        )


def _paths(value, prefix=()):
    """Every (container path, key) in a JSON document, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


GOLDEN_PATHS = list(_paths(GOLDEN_MANIFEST))
GOLDEN_NAMES = set(GOLDEN_MANIFEST["objects"]) | {"g.D", "g.T"} | {
    t["as"] for t in GOLDEN_MANIFEST["tasks"] if "as" in t
}
SCALARS = st.integers(-3, 3) | st.fractions(max_denominator=4).map(str)
JSON_VALUES = st.recursive(
    SCALARS | st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(GOLDEN_PATHS), JSON_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(GOLDEN_PATHS), st.none()),
    st.tuples(
        st.just("kind"),
        st.sampled_from(sorted(GOLDEN_MANIFEST["objects"])),
        st.sampled_from(sorted({o["kind"] for o in GOLDEN_MANIFEST["objects"].values()})),
    ),
    st.tuples(
        st.just("op"),
        st.integers(0, len(GOLDEN_MANIFEST["tasks"]) - 1),
        st.sampled_from(sorted(SIGNATURES)),
    ),
    st.tuples(
        st.just("args"),
        st.integers(0, len(GOLDEN_MANIFEST["tasks"]) - 1),
        st.lists(st.sampled_from(sorted(GOLDEN_NAMES)), max_size=5),
    ),
)


def _mutate(doc, mutation):
    """Apply one mutation in place, unless an earlier one removed its path."""
    what, where, value = mutation
    if what == "kind":
        prefix, key = ("objects", where), "kind"
    elif what in ("op", "args"):
        prefix, key = ("tasks", where), what
    else:
        prefix, key = where
    try:
        node = doc
        for step in prefix:
            node = node[step]
        if what == "drop":
            del node[key]
        else:
            node[key] = value
    except (KeyError, IndexError, TypeError):
        pass


class TestManifestFuzz:
    @given(st.lists(MUTATIONS, min_size=1, max_size=3))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_mutated_golden_manifest_exits_with_a_documented_code(self, tmp_path, mutations):
        doc = json.loads(json.dumps(GOLDEN_MANIFEST))
        for mutation in mutations:
            _mutate(doc, mutation)
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) in (0, 1, 2, 3)
