import inspect
import json
import pathlib
import re

import pytest

import homtwist.exact
import homtwist.manifest

from homtwist.errors import (
    DimensionMismatch,
    DuplicateName,
    HomTwistError,
    ManifestSyntaxError,
    UnknownName,
    WrongKind,
)
from homtwist.gallery import FAMILIES, build
from homtwist.manifest import (
    CHECK_VERBS,
    CONSTRUCT_VERBS,
    EXIT_EXPECTATION,
    EXIT_OK,
    OBJECT_KINDS,
    SIGNATURES,
    parse_manifest,
    run,
    serialize_manifest,
    table,
)
from homtwist.suite import GOLDEN_MANIFEST
from test_gate import GALLERY_KEYS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def unit_rows(rows, cols):
    """A rows x cols matrix with ones on the diagonal."""
    return [[int(i == j) for j in range(cols)] for i in range(rows)]


def golden_text():
    return json.dumps(GOLDEN_MANIFEST)


def small_manifest(tasks=()):
    return json.dumps(
        {
            "objects": {
                "K2": {
                    "kind": "hom_algebra",
                    "dim": 2,
                    "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                    "alpha": [[1, 0], [0, 1]],
                }
            },
            "tasks": list(tasks),
        }
    )


class TestParse:
    def test_empty_manifest(self):
        m = parse_manifest('{"objects": {}, "tasks": []}')
        assert m.tasks == ()
        assert m.objects == {}

    def test_golden_parses_and_runs(self):
        code, report = run(parse_manifest(golden_text()))
        assert code == EXIT_OK
        assert "all expectations met" in report

    def test_over_nesting_is_located_outside_string_literals(self):
        # the deepest bracket is the last "[" of "b"; the 3,000 in the string after an
        # escaped quote do not count
        text = '{"b": ' + "[" * 2000 + "]" * 2000 + ',\n "a": "\\"' + "[" * 3000 + '"}'
        with pytest.raises(ManifestSyntaxError) as info:
            parse_manifest(text)
        assert str(info.value) == "nesting too deep (line 1, column 2006)"
        assert (info.value.line, info.value.col) == (1, 2006)

    def test_undefined_name(self):
        text = small_manifest([{"op": "check_hom_algebra", "args": ["Q"]}])
        with pytest.raises(UnknownName):
            parse_manifest(text)

    def test_unknown_op(self):
        text = small_manifest([{"op": "frobnicate", "args": ["K2"]}])
        with pytest.raises(UnknownName):
            parse_manifest(text)

    def test_duplicate_object_name(self):
        text = (
            '{"objects": {"A": {"kind": "hom_algebra", "dim": 1, "mul": [[[1]]],'
            ' "alpha": [[1]]}, "A": {"kind": "hom_algebra", "dim": 1, "mul": [[[1]]],'
            ' "alpha": [[1]]}}, "tasks": []}'
        )
        with pytest.raises(DuplicateName):
            parse_manifest(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ManifestSyntaxError) as err:
            parse_manifest('{"objects": {,}}')
        assert err.value.line >= 1 and err.value.col >= 1

    def test_scalar_validation(self):
        from homtwist.errors import MalformedRational

        bad = small_manifest().replace("[1, 0]", '["1.5", 0]', 1)
        with pytest.raises(MalformedRational):
            parse_manifest(bad)

    @pytest.mark.parametrize(
        "mangle",
        [
            ('"dim": 2', '"dim": "two"'),
            ('"side": "left"', '"side": "sideways"'),
            # a kind that is not a string is looked up in the kind table, so must hash
            ('"kind": "action"', '"kind": []'),
            ('"kind": "action"', '"kind": 3'),
            ('"kind": "action"', '"kind": null'),
        ],
    )
    def test_malformed_fields_are_semantic_errors(self, mangle):
        doc = {
            "objects": {
                "act": {
                    "kind": "action",
                    "side": "left",
                    "acting_dim": 2,
                    "module_dim": 2,
                    "table": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                    "alpha_m": [[1, 0], [0, 1]],
                },
                "K2": json.loads(small_manifest())["objects"]["K2"],
            },
            "tasks": [],
        }
        text = json.dumps(doc).replace(*mangle)
        with pytest.raises(WrongKind):
            parse_manifest(text)

    def test_linear_map_shape_names_the_object(self):
        text = json.dumps({"objects": {"f": {"kind": "linear_map", "source_dim": 2,
                                             "target_dim": 1, "matrix": [[1]]}}})
        with pytest.raises(DimensionMismatch, match=r"^object 'f' \(linear_map\): matrix shape"):
            parse_manifest(text)

    def test_gallery_binds_members(self):
        text = json.dumps(
            {
                "objects": {
                    "g": {
                        "kind": "gallery",
                        "name": "homalg_2dim",
                        "params": {"a": "1", "l1": "1", "l2": "2"},
                    }
                },
                "tasks": [{"op": "check_hom_algebra", "args": ["g.D"]}],
            }
        )
        code, _ = run(parse_manifest(text))
        assert code == EXIT_OK


class TestSignatures:
    def test_every_verb_has_a_signature_of_its_arity(self):
        assert set(SIGNATURES) == set(CHECK_VERBS) | set(CONSTRUCT_VERBS)
        for op, (module, kinds, result) in SIGNATURES.items():
            params = inspect.signature(getattr(module, op)).parameters.values()
            positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            required = [p for p in params if p.kind in positional and p.default is p.empty]
            assert len(kinds) == len(required), op
            assert (result is None) == (op in CHECK_VERBS), op

    @pytest.mark.parametrize("op", sorted(SIGNATURES))
    def test_verb_calls_the_module_attribute_at_call_time(self, monkeypatch, op):
        module, kinds, _ = SIGNATURES[op]
        calls = []
        monkeypatch.setattr(module, op, lambda *args: calls.append(args) or "result")
        args = [f"argument {i}" for i in range(len(kinds))]
        assert {**CHECK_VERBS, **CONSTRUCT_VERBS}[op](*args) == "result"
        assert calls == [tuple(args)]

    @pytest.mark.parametrize("op, args", [
        ("check_hom_twisting_map", ["K2", "K2", "K2"]),
        ("check_braid", ["K2", "K2", "K2"]),
        ("lift_13", ["K2"]),
    ])
    def test_wrong_kind(self, op, args):
        with pytest.raises(WrongKind):
            parse_manifest(small_manifest([{"op": op, "args": args}]))

    def test_construct_result_kind_is_checked(self):
        tasks = [
            {"op": "tensor_algebra", "args": ["K2", "K2"], "as": "T"},
            {"op": "lift_13", "args": ["T"], "as": "L"},
        ]
        with pytest.raises(WrongKind):
            parse_manifest(small_manifest(tasks))

    def test_construct_bundle_members_are_bound(self):
        doc = json.loads(small_manifest())
        doc["objects"]["F"] = {"kind": "twisting_map", "dim_a": 2, "dim_b": 2,
                               "matrix": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}
        doc["tasks"] = [
            {"op": "iterated_ttp", "args": ["K2", "K2", "K2", "F", "F", "F"], "as": "I"},
            {"op": "check_hom_algebra", "args": ["I.algebra"]},
            {"op": "tensor_algebra", "args": ["K2", "K2"], "as": "KK"},
            {"op": "check_hom_twisting_map", "args": ["KK", "K2", "I.P1"]},
        ]
        manifest = parse_manifest(json.dumps(doc))
        with pytest.raises(WrongKind):
            parse_manifest(json.dumps({**doc, "tasks": doc["tasks"][:1] + [
                {"op": "check_hom_algebra", "args": ["I"]}]}))
        assert run(manifest)[0] == EXIT_OK


class TestBialgebraStandsIn:
    """A hom_bialgebra in an algebra or coalgebra slot reaches the layer function as
    its .algebra or .coalgebra, for every op that has such a slot."""

    ONE_DIM = {
        "A": {"kind": "hom_algebra", "dim": 1, "mul": [[[1]]], "alpha": [[1]]},
        "C": {"kind": "hom_coalgebra", "dim": 1, "comul": [[[1]]], "alpha": [[1]]},
        "H": {"kind": "hom_bialgebra", "dim": 1, "mul": [[[1]]], "comul": [[[1]]], "alpha": [[1]]},
        "H2": {"kind": "hom_bialgebra", "dim": 1, "mul": [[[1]]], "comul": [[[1]]], "alpha": [[1]]},
        "f": {"kind": "linear_map", "source_dim": 1, "target_dim": 1, "matrix": [[1]]},
        "T": {"kind": "operator2", "dim": 1, "matrix": [[1]]},
        "T3": {"kind": "operator3", "dim": 1, "matrix": [[1]]},
        "R": {"kind": "twisting_map", "dim_a": 1, "dim_b": 1, "matrix": [[1]]},
        "act": {"kind": "action", "side": "left", "acting_dim": 1, "module_dim": 1,
                "table": [[[1]]], "alpha_m": [[1]]},
        "co": {"kind": "coaction", "side": "left", "coalgebra_dim": 1, "module_dim": 1,
               "table": [[[1]]], "alpha_m": [[1]]},
    }
    # the object bound in a slot of each first kind; H2 keeps H out of bialgebra-only slots
    FILLER = {"hom_algebra": "A", "hom_coalgebra": "C", "hom_bialgebra": "H2", "linear_map": "f",
              "operator2": "T", "operator3": "T3", "twisting_map": "R", "action": "act",
              "coaction": "co"}
    MEMBER = {"hom_algebra": "algebra", "hom_coalgebra": "coalgebra"}
    SLOTS = [
        (op, slot)
        for op, (_, accepted, _) in SIGNATURES.items()
        for slot, kinds in enumerate(accepted)
        if kinds[0] in ("hom_algebra", "hom_coalgebra")
    ]

    class Recorded(HomTwistError):
        pass

    @pytest.mark.parametrize("op, slot", SLOTS, ids=[f"{op}-{slot}" for op, slot in SLOTS])
    def test_layer_function_receives_the_member(self, monkeypatch, op, slot):
        module, accepted, _ = SIGNATURES[op]
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            raise self.Recorded("recorded")

        monkeypatch.setattr(module, op, record)
        args = [self.FILLER[kinds[0]] for kinds in accepted]
        args[slot] = "H"
        doc = {"objects": self.ONE_DIM, "tasks": [{"op": op, "args": args, "expect": "any"}]}
        manifest = parse_manifest(json.dumps(doc))
        run(manifest)
        bialgebra = manifest.objects["H"]
        member = getattr(bialgebra, self.MEMBER[accepted[slot][0]])
        (received,) = calls
        assert any(a is member for a in received)
        assert not any(a is bialgebra for a in received)


class TestReadme:
    """README's lists of kinds and gallery names are the tables the code reads."""

    TEXT = README.read_text(encoding="utf-8")

    def test_kinds_and_their_fields(self):
        section = re.search(r"^\* Kinds(.*?)\.\s", self.TEXT, re.M | re.S).group(1)
        listed = {
            kind: tuple(re.split(r",\s+", fields))
            for kind, fields in re.findall(r"`(\w+)`\s+\(([^)]*)\)", section)
        }
        assert listed == {kind: fields for kind, (_, fields) in OBJECT_KINDS.items()}

    def test_gallery_names(self):
        section = re.search(r"^Gallery names(.*?)\n\n", self.TEXT, re.M | re.S).group(1)
        assert re.findall(r"`(\w+)`", section) == list(FAMILIES)


class TestParseOnce:
    def test_each_scalar_literal_is_parsed_once(self, monkeypatch):
        calls = []
        original = homtwist.exact.rat_parse

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(homtwist.exact, "rat_parse", counting)
        monkeypatch.setattr(homtwist.manifest, "rat_parse", counting)
        depth = {"mul": 3, "comul": 3, "table": 3, "alpha": 2, "alpha_m": 2, "matrix": 2}

        def literals(value, d):
            return 1 if d == 0 else sum(literals(v, d - 1) for v in value)

        expected = sum(
            literals(value, depth[name]) if name in depth else len(value) if name == "params" else 0
            for objdef in GOLDEN_MANIFEST["objects"].values()
            for name, value in objdef.items()
        )
        parse_manifest(golden_text())
        assert len(calls) == expected


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        m = parse_manifest(golden_text())
        again = parse_manifest(serialize_manifest(m))
        assert again == m

    def test_small_round_trip(self):
        m = parse_manifest(small_manifest([{"op": "check_associative", "args": ["K2"]}]))
        assert parse_manifest(serialize_manifest(m)) == m

    def test_fractional_params_and_nested_scalars_round_trip(self):
        text = json.dumps({
            "objects": {
                "g": {"kind": "gallery", "name": "homalg_2dim",
                      "params": {"a": "2/4", "l1": 1, "l2": "-6/3"}},
                "D": {"kind": "hom_algebra", "dim": 2,
                      "mul": [[[1, "0/5"], ["2/4", 2]], [["2/4", 2], ["-3", "-8/2"]]],
                      "alpha": [["3/3", 1], [0, "4/2"]]},
            },
            "tasks": [{"op": "check_hom_algebra", "args": ["D"]}],
        })
        m = parse_manifest(text)
        assert m.defs["g"]["params"] == {"a": "1/2", "l1": "1", "l2": "-2"}
        assert m.defs["D"]["mul"][0] == [["1", "0"], ["1/2", "2"]]
        assert m.defs["D"]["alpha"] == [["1", "1"], ["0", "2"]]
        assert parse_manifest(serialize_manifest(m)) == m


# The smash and iterated products over the golden manifest's k[C2] bialgebra H,
# the algebra k^2 and flips; the group-likes of H act trivially.
BUNDLE_CONSTRUCTS = {
    "smash_left": ["K2", "H", "act"],
    "smash_right": ["H", "K2", "ract"],
    "iterated_ttp": ["K2", "K2", "K2", "Rflip", "Rflip", "Rflip"],
}


class TestBind:
    """The dotted names parsing gives kinds to are the names a run binds."""

    @staticmethod
    def kinds_and_env(monkeypatch, text):
        seen = {}
        check_signature, execute = homtwist.manifest._check_signature, homtwist.manifest._execute

        def recording_check(where, op, args, kinds):
            seen["kinds"] = kinds
            return check_signature(where, op, args, kinds)

        def recording_execute(task, env):
            seen["env"] = env
            return execute(task, env)

        monkeypatch.setattr(homtwist.manifest, "_check_signature", recording_check)
        monkeypatch.setattr(homtwist.manifest, "_execute", recording_execute)
        code, report = run(parse_manifest(text))
        assert code == EXIT_OK, report
        kinds, env = seen["kinds"], seen["env"]
        assert {n: homtwist.manifest._kind(env[n]) for n in env} == kinds
        return {n for n in kinds if "." in n}

    @pytest.mark.parametrize("key", GALLERY_KEYS, ids=lambda key: key.name)
    def test_gallery_bundle(self, key, monkeypatch):
        objects = json.loads(small_manifest())["objects"]
        params = {k: str(v) for k, v in key.params.items()}
        objects["g"] = {"kind": "gallery", "name": key.name, "params": params}
        text = json.dumps({
            "objects": objects, "tasks": [{"op": "check_hom_algebra", "args": ["K2"]}],
        })
        dotted = self.kinds_and_env(monkeypatch, text)
        assert dotted == {f"g.{member}" for member in build(key)}

    @pytest.mark.parametrize("op", BUNDLE_CONSTRUCTS)
    def test_construct_bundle(self, op, monkeypatch):
        objects = {**GOLDEN_MANIFEST["objects"], **json.loads(small_manifest())["objects"]}
        objects["ract"] = {**objects["act"], "side": "right"}
        text = json.dumps({
            "objects": objects,
            "tasks": [{"op": op, "args": BUNDLE_CONSTRUCTS[op], "as": "X"}],
        })
        dotted = self.kinds_and_env(monkeypatch, text)
        members = SIGNATURES[op][2]
        assert isinstance(members, dict)
        assert dotted == {"g.D", "g.T", "g.expected_mul"} | {f"X.{m}" for m in members}


class TestRun:
    def test_expected_fail_that_fails_is_ok(self):
        text = small_manifest(
            [{"op": "check_hom_algebra", "args": ["K2"], "expect": "pass"}]
        )
        code, _ = run(parse_manifest(text))
        assert code == EXIT_OK

    def test_expectation_failure(self):
        # K2 is associative, so expecting the check to fail must exit 1
        text = small_manifest(
            [{"op": "check_associative", "args": ["K2"], "expect": "fail"}]
        )
        code, report = run(parse_manifest(text))
        assert code == EXIT_EXPECTATION
        assert "EXPECTATION FAILED" in report

    def test_any_expectation(self):
        text = small_manifest(
            [{"op": "check_associative", "args": ["K2"], "expect": "any"}]
        )
        code, _ = run(parse_manifest(text))
        assert code == EXIT_OK

    def test_construct_binds_and_failures_report_witness(self):
        text = json.dumps(
            {
                "objects": {
                    "g": {
                        "kind": "gallery",
                        "name": "ttp_k2_lambda",
                        "params": {"lam": "2"},
                    }
                },
                "tasks": [
                    {"op": "ttp", "args": ["g.A", "g.B", "g.R"], "as": "P"},
                    {"op": "check_associative", "args": ["P"], "expect": "pass"},
                ],
            }
        )
        code, report = run(parse_manifest(text))
        assert code == EXIT_OK
        assert "task 2" in report

    def test_failed_construct_counts_as_fail(self):
        # the identity map is not a twisting map matrix here: use a broken one
        text = json.dumps(
            {
                "objects": {
                    "K2": {
                        "kind": "hom_algebra",
                        "dim": 2,
                        "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                        "alpha": [[1, 0], [0, 1]],
                    },
                    "bad": {
                        "kind": "twisting_map",
                        "dim_a": 2,
                        "dim_b": 2,
                        "matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    },
                },
                "tasks": [{"op": "ttp", "args": ["K2", "K2", "bad"], "expect": "fail"}],
            }
        )
        code, _ = run(parse_manifest(text))
        assert code == EXIT_OK


class TestEndomorphismShape:
    """An alpha that is not dim x dim is named as such, before any scan reads it."""

    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 3), (3, 2)])
    def test_alpha_of_the_wrong_shape(self, rows, cols):
        def linear_map(r, c):
            return {"kind": "linear_map", "source_dim": c, "target_dim": r, "matrix": unit_rows(r, c)}

        doc = json.loads(small_manifest())
        doc["objects"].update({
            "I": linear_map(2, 2),
            "M": linear_map(rows, cols),
            "T": {"kind": "operator2", "dim": 2, "matrix": unit_rows(4, 4)},
            "C": {"kind": "operator3", "dim": 2, "matrix": unit_rows(8, 8)},
            "R": {"kind": "twisting_map", "dim_a": 2, "dim_b": 2, "matrix": unit_rows(4, 4)},
        })
        doc["tasks"] = [
            {"op": op, "args": args, "expect": "fail"}
            for op, args in (
                ("check_alpha_pseudotwistor", ["K2", "M", "T", "C", "C"]),
                ("check_yau_compat", ["K2", "M", "T", "C", "C"]),
                ("check_alphaAB_twisting_map", ["K2", "K2", "M", "I", "R"]),
            )
        ]
        code, report = run(parse_manifest(json.dumps(doc)))
        assert code == EXIT_OK
        witnesses = [line.strip() for line in report.splitlines() if "witness:" in line]
        assert witnesses == ["witness: DimensionMismatch: alpha shape does not match the algebra"] * 3


class TestTable:
    def test_k2_table(self):
        m = parse_manifest(small_manifest())
        text = table(m, "K2")
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "e0" in lines[0] and "e1" in lines[0]
        assert lines[2].startswith("e0")

    def test_ttp_table_matches_paper_layout(self):
        # the lambda = 2 table, first row: 2 e00, 2 e01, -1 e00, -2 e01
        text = json.dumps(
            {
                "objects": {
                    "g": {"kind": "gallery", "name": "ttp_k2_lambda", "params": {"lam": "2"}}
                },
                "tasks": [{"op": "ttp", "args": ["g.A", "g.B", "g.R"], "as": "P"}],
            }
        )
        rows = table(parse_manifest(text), "P").splitlines()
        first = [c.strip() for c in rows[2].split("|")]
        assert first[1:] == ["2*e0", "2*e1", "-1*e0", "-2*e1"]
        third = [c.strip() for c in rows[4].split("|")]
        assert third[1:] == ["2*e2", "e3", "-1*e2", "-1*e3"]

    @pytest.mark.parametrize("name, constructs", [
        ("M2", []),
        ("g.A", []),
        ("P", ["hom_ttp"]),
        ("Q", ["hom_ttp", "ttp"]),
    ])
    def test_runs_construct_tasks_only_until_the_name_is_bound(
        self, monkeypatch, name, constructs
    ):
        text = json.dumps({
            "objects": {
                "M2": json.loads(small_manifest())["objects"]["K2"],
                "g": {"kind": "gallery", "name": "ttp_k2_lambda", "params": {"lam": "2"}},
            },
            "tasks": [
                {"op": "check_hom_algebra", "args": ["M2"]},
                {"op": "hom_ttp", "args": ["g.A", "g.B", "g.R"], "as": "P"},
                {"op": "check_associative", "args": ["P"]},
                {"op": "ttp", "args": ["g.A", "g.B", "g.R"], "as": "Q"},
                {"op": "hom_ttp", "args": ["g.A", "g.B", "g.R"], "as": "S"},
            ],
        })
        m = parse_manifest(text)
        expected = table(m, name)
        called = []
        for op, fn in CONSTRUCT_VERBS.items():
            def counted(*args, op=op, fn=fn):
                called.append(op)
                return fn(*args)

            monkeypatch.setitem(CONSTRUCT_VERBS, op, counted)
        assert table(m, name) == expected
        assert called == constructs

    def test_unknown_name(self):
        m = parse_manifest(small_manifest())
        with pytest.raises(UnknownName):
            table(m, "missing")

    def test_wrong_kind(self):
        text = json.dumps(
            {
                "objects": {
                    "C": {
                        "kind": "hom_coalgebra",
                        "dim": 1,
                        "comul": [[[1]]],
                        "alpha": [[1]],
                    }
                },
                "tasks": [],
            }
        )
        m = parse_manifest(text)
        with pytest.raises(WrongKind):
            table(m, "C")
