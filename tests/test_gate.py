"""One precondition gate, composites built from checked constructors, one dense product path.

``CheckReport.require`` is the only place where a failed report becomes an
exception.  A composite constructor calls the public checked constructors it
is built from, runs no check that one of them requires on equal arguments,
and calls a private builder only directly after it has verified that
builder's inputs itself; no object identity is tracked and no verified fact
is cached.  Every structure map is stored as a ``LinearMap``:
nested rows are read only by ``LinearMap.from_rows`` at the input boundary
(the manifest and the gallery), and a ``Matrix`` is made only as the dense
view that ``algebra._multiplicative`` reads through ``Matrix.apply`` and
``HomAlgebra.product``; nested structure constants are read only by the four
boundary constructors and tabulated only by the dense-view properties
``mul``, ``comul`` and ``table``; every other composite goes through
``exact.compose`` or ``exact.scan_composites``, whose kernel computes in
ints and rebuilds rationals only through ``exact.rationals``; no other
module reads an integer form or tabulates integer images.  No module
imports a name it never reads.
"""

import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import homtwist
from homtwist import algebra, cli, coalgebra, exact, modsmash, twisted, twistor, uqsl2
from homtwist.errors import PreconditionFailure
from homtwist.exact import ONE, LinearMap, Matrix
from homtwist.formal import M
from homtwist.gallery import (
    FAMILIES,
    GalleryKey,
    build,
    dual_numbers,
    h4_left_action,
    h4_twists,
    k2_algebra,
    swap_matrix,
    sweedler_h4,
)
from homtwist.manifest import parse_manifest
from homtwist.suite import GOLDEN_MANIFEST
from homtwist.uqsl2 import QPlaneElement, SmashTerm, UqElement, UqParams

SRC = pathlib.Path(twisted.__file__).parent


def _calls(monkeypatch, functions):
    """The arguments of each call to `functions`, by name, wherever a homtwist module binds one."""
    log = {fn.__name__: [] for fn in functions}
    wrappers = {}
    for fn in functions:
        def logged(*args, _fn=fn):
            log[_fn.__name__].append(args)
            return _fn(*args)

        wrappers[fn] = logged
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "homtwist":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])
    return log


class TestRepeatedArguments:
    """A checker given the same object twice scans it twice: no identity is tracked."""

    def test_check_alphaAB_twisting_map_scans_each_distinct_map(self, monkeypatch):
        calls = _calls(monkeypatch, [algebra.multiplicativity_scan])
        a, r = k2_algebra(), twisted.flip(2, 2)
        f, g = LinearMap.identity(2), LinearMap.identity(2)
        assert twisted.check_alphaAB_twisting_map(a, a, f, g, r).passed
        assert [args[0] for args in calls["multiplicativity_scan"]] == [a, a]


class TestCheckOrder:
    def test_twisting_maps_before_the_braid(self):
        """R3 fails its axioms and the triple fails the braid: R3 is reported."""
        lb = build(GalleryKey("ttp_k2_lambda", {"lam": 2}))
        flip = twisted.flip(2, 2).map.matrix()
        doubled = twisted.TwistingMapR(
            2, 2, LinearMap.from_rows([[2 * x for x in row] for row in flip.data])
        )
        with pytest.raises(PreconditionFailure) as info:
            twisted.iterated_ttp(lb["A"], lb["B"], k2_algebra(), lb["R"], lb["R"], doubled)
        assert str(info.value) == "precondition failed: check_hom_twisting_map:R3"


def scan_and_raise_sites(source, filename):
    """`if` statements that read a report's `passed` and raise in a branch."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        reads_passed = any(
            isinstance(n, ast.Attribute) and n.attr == "passed" for n in ast.walk(node.test)
        )
        raises = any(
            isinstance(n, ast.Raise) for branch in node.body + node.orelse for n in ast.walk(branch)
        )
        if reads_passed and raises:
            sites.append(f"{filename}:{node.lineno}")
    return sites


class TestSingleGate:
    def test_no_module_raises_on_a_report_outside_the_gate(self):
        sites = []
        for path in sorted(SRC.glob("*.py")):
            sites += scan_and_raise_sites(path.read_text(encoding="utf-8"), path.name)
        assert sites == []

    def test_the_guard_sees_the_old_pattern(self):
        old = (
            "def hom_ttp(a, b, rmap):\n"
            "    rep = check_hom_twisting_map(a, b, rmap)\n"
            "    if not rep.passed:\n"
            "        raise PreconditionFailure('check_hom_twisting_map', report=rep)\n"
        )
        assert scan_and_raise_sites(old, "old.py") == ["old.py:3"]

    def test_the_guard_allows_a_non_raising_capture(self):
        capture = (
            "def criterion(rec):\n"
            "    if not check_braid(r1, r2, r3).passed:\n"
            "        return False, 'braid fails'\n"
        )
        assert scan_and_raise_sites(capture, "suite.py") == []


# Receivers of a `.product(` or `.apply(` call that are not a HomAlgebra or a Matrix.
OTHER_PRODUCTS = {"itertools"}


def call_sites(source, filename, matches):
    """`file:function` of each call whose callee node `matches`, innermost function."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            if matches(node.func):
                where = self.stack[-1] if self.stack else "<module>"
                sites.append(f"{filename}:{where}")
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return sites


def _src_sites(find):
    """The sorted distinct sites that `find` reports over the package's modules."""
    return sorted({s for p in sorted(SRC.glob("*.py")) for s in find(
        p.read_text(encoding="utf-8"), p.name)})


def dense_product_sites(source, filename):
    """`file:function` of each `.product(`/`.apply(` call on an object, innermost function."""
    return call_sites(source, filename, lambda func: (
        isinstance(func, ast.Attribute)
        and func.attr in ("product", "apply")
        and not (isinstance(func.value, ast.Name) and func.value.id in OTHER_PRODUCTS)
    ))


class TestOneDenseProductPath:
    """``HomAlgebra.product`` and ``Matrix.apply`` on the dense view of a stored
    LinearMap are read only by the one multiplicativity scan."""

    def test_only_the_multiplicativity_scan_reads_product_and_apply(self):
        assert _src_sites(dense_product_sites) == ["algebra.py:_multiplicative"]

    def test_the_guard_sees_a_hand_built_table(self):
        old = (
            "def check_hom_algebra(algebra):\n"
            "    left = [[algebra.product(acol[i], e) for e in basis] for i in range(d)]\n"
            "    return [alpha.apply(col) for col in left]\n"
        )
        assert dense_product_sites(old, "algebra.py") == ["algebra.py:check_hom_algebra"] * 2

    def test_the_guard_allows_the_kernel_and_itertools(self):
        kernel = (
            "def scan(dims, mul):\n"
            "    mu = apply_path(path, x, dims)\n"
            "    return list(itertools.product(*(range(d) for d in dims)))\n"
        )
        assert dense_product_sites(kernel, "exact.py") == []


# Where a Matrix is made or read into a LinearMap, or a LinearMap viewed densely: the
# multiplicativity scan's dense view and the one maker of a Matrix.
DENSE_SITES = ["algebra.py:_multiplicative", "exact.py:matrix"]
# Where nested rows are read: the input boundary of the manifest and the gallery builders.
ROWS_SITES = [
    "gallery.py:_by_columns",
    "gallery.py:_two_dim_algebra",
    "gallery.py:_two_dim_twistor",
    "gallery.py:h4_twists",
    "gallery.py:swap_matrix",
    "manifest.py:_build_object",
]


def _names_matrix(node):
    return isinstance(node, ast.Name) and node.id == "Matrix"


def dense_sites(source, filename):
    """`file:function` of each `Matrix(`, `Matrix.x(` and `.matrix()` call."""
    return call_sites(source, filename, lambda func: _names_matrix(func) or (
        isinstance(func, ast.Attribute)
        and (func.attr == "matrix" or _names_matrix(func.value))
    ))


# One bundle of every gallery family.
R_PARAMS = {"a": 1, "l1": 1, "a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5}
GALLERY_KEYS = [
    GalleryKey("ttp_k2_lambda", {"lam": 2}),
    GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}),
    GalleryKey("homtwistor_2dim", {"a": 1, "l1": 1, "l2": 2}),
    GalleryKey("homtwist_R1", R_PARAMS),
    GalleryKey("homtwist_R2", R_PARAMS),
    GalleryKey("homtwist_Dk2", {"a": 1, "l1": 2, "a1": 1, "a2": 1}),
    GalleryKey("clifford", {"q": 2}),
    GalleryKey("sweedler_h4", {}),
    GalleryKey("group_algebra", {"n": 3}),
    GalleryKey("uq_setup", {"q": 2, "lam": 1, "xi": 1, "l": 1}),
    GalleryKey("alpha_ttp_flip", {}),
    GalleryKey("alpha_ttp_clifford", {"q": 2}),
]


def _stored_matrices(obj, where):
    """Paths of the Matrix values inside a built object, through dataclass fields and bundles."""
    if isinstance(obj, Matrix):
        return [where]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _stored_matrices(v, f"{where}.{k}")]
    if dataclasses.is_dataclass(obj):
        return [p for f in dataclasses.fields(obj)
                for p in _stored_matrices(getattr(obj, f.name), f"{where}.{f.name}")]
    return []


def rows_sites(source, filename):
    """`file:function` of each `.from_rows(` call."""
    return call_sites(source, filename, lambda func: (
        isinstance(func, ast.Attribute) and func.attr == "from_rows"
    ))


class TestOneDenseView:
    def test_matrices_appear_only_at_the_boundary_and_in_the_dense_view(self):
        assert _src_sites(dense_sites) == DENSE_SITES

    def test_rows_are_read_only_at_the_boundary(self):
        assert _src_sites(rows_sites) == ROWS_SITES

    def test_the_guard_sees_a_matrix_built_at_the_boundary(self):
        old = (
            "def _build_object(name, raw):\n"
            "    return Matrix(raw[f], raw.get('source_dim', 0))\n"
            "def swap_matrix():\n"
            "    return LinearMap.from_rows(Matrix(((ZERO, ONE), (ONE, ZERO))).data)\n"
        )
        assert dense_sites(old, "gallery.py") == [
            "gallery.py:_build_object", "gallery.py:swap_matrix"
        ]

    def test_the_guard_sees_a_round_trip(self):
        old = (
            "def iterated_ttp(a, b, c, r1, r2, r3):\n"
            "    p1 = TwistingMapR(a, b, compose(path, dims).matrix())\n"
            "    return LinearMap.from_rows(p1.matrix().data).reshaped((b, a), (a, b))\n"
        )
        assert dense_sites(old, "twisted.py") == ["twisted.py:iterated_ttp"] * 2

    def test_the_guard_sees_dense_matrices_built(self):
        old = (
            "def yau_operator(alpha):\n"
            "    ident2 = Matrix.identity(d * d)\n"
            "    return Operator2(d, kron(alpha, alpha)), Operator3(d, kron(ident2, alpha))\n"
            "def clifford_twisting_map(sigma):\n"
            "    return TwistingMapR(da, 2, Matrix.from_columns(columns))\n"
        )
        assert dense_sites(old, "twisted.py") == [
            "twisted.py:yau_operator", "twisted.py:clifford_twisting_map"
        ]

    def test_the_guard_allows_sparse_maps(self):
        sparse = (
            "def yau_operator(alpha):\n"
            "    return Operator2(d, compose([(alpha, 0), (alpha, 1)], (d, d)))\n"
        )
        assert dense_sites(sparse, "twistor.py") == []

    def test_no_parsed_or_gallery_object_stores_a_matrix(self):
        objects = parse_manifest(json.dumps(GOLDEN_MANIFEST)).objects
        for key in GALLERY_KEYS:
            objects[key.name] = build(key)
        assert [p for name, obj in objects.items() for p in _stored_matrices(obj, name)] == []
        assert isinstance(objects["idmap"], LinearMap)


# Where a map's integer form is read, or integer images tabulated or turned back into
# rationals: the kernel in exact.py, which alone decides forms and denominators.
INTEGER_SITES = [
    "exact.py:apply_at",
    "exact.py:apply_path",
    "exact.py:compose",
    "exact.py:scan_associator",
    "exact.py:scan_composites",
]
INTEGER_NAMES = {"integer_form", "tabulate", "rationals"}


def integer_sites(source, filename):
    """`file:function` of each call to `integer_form`, `tabulate` or `rationals`, as a
    name or an attribute."""
    return call_sites(source, filename, lambda func: (
        getattr(func, "attr", getattr(func, "id", None)) in INTEGER_NAMES
    ))


class TestOneIntegerKernel:
    def test_only_the_kernel_reads_integer_forms(self):
        assert _src_sites(integer_sites) == INTEGER_SITES

    def test_the_guard_sees_a_checker_reading_the_kernel(self):
        old = (
            "def check_hom_algebra(algebra):\n"
            "    left, _, den = tabulate([(alpha, 0), (mu, 0)], (d, d))\n"
            "    mu_den, cols = mu.integer_form()\n"
            "def _triple_scan(scan, name, cols, left, right, den, left_first):\n"
            "    a = to_dense(exact.rationals(a, den), (d,))\n"
        )
        assert integer_sites(old, "algebra.py") == [
            "algebra.py:check_hom_algebra", "algebra.py:check_hom_algebra",
            "algebra.py:_triple_scan",
        ]

    def test_the_guard_allows_other_calls(self):
        checker = (
            "def check_associative(algebra):\n"
            "    return scan_associator('associativity', algebra.map, swapped=True)\n"
            "def yau_twist(algebra, alpha):\n"
            "    return compose([(algebra.map, 0), (alpha, 0)], (d, d)).table()\n"
        )
        assert integer_sites(checker, "algebra.py") == []


# Where nested structure constants are made or read: the dense-view properties
# (ActionTable and CoactionTable share theirs) and the four boundary constructors.
TABLE_SITES = ["algebra.py:mul", "coalgebra.py:comul", "modsmash.py:table"]
CONSTANTS_SITES = [
    "algebra.py:hom_algebra",
    "coalgebra.py:hom_coalgebra",
    "modsmash.py:action_table",
    "modsmash.py:coaction_table",
]

def table_sites(source, filename):
    """`file:function` of each `.table()` call."""
    return call_sites(source, filename, lambda func: (
        isinstance(func, ast.Attribute) and func.attr == "table"
    ))


def constants_sites(source, filename):
    """`file:function` of each `from_constants(` call."""
    return call_sites(source, filename, lambda func: (
        func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    ) == "from_constants")


def _stored_tables(obj, where):
    """Paths of the dataclass fields inside a built object that hold nested tuples."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _stored_tables(v, f"{where}.{k}")]
    if not dataclasses.is_dataclass(obj):
        return []
    paths = []
    for f in dataclasses.fields(obj):
        value, path = getattr(obj, f.name), f"{where}.{f.name}"
        if isinstance(value, tuple) and any(isinstance(x, tuple) for x in value):
            paths.append(path)
        paths += _stored_tables(value, path)
    return paths


@dataclasses.dataclass(frozen=True)
class _TableField:
    dim: int
    mul: tuple


class TestOneConstantsBoundary:
    def test_tables_are_made_only_by_the_dense_views(self):
        assert _src_sites(table_sites) == TABLE_SITES

    def test_constants_are_read_only_by_the_boundary_constructors(self):
        assert _src_sites(constants_sites) == CONSTANTS_SITES

    def test_the_guard_sees_a_tabulated_composite(self):
        old = (
            "def _yau_twisted(algebra, alpha):\n"
            "    return HomAlgebra._canonical(d, compose(path, dims).table(), alpha)\n"
        )
        assert table_sites(old, "algebra.py") == ["algebra.py:_yau_twisted"]

    def test_the_guard_sees_constants_read_in_a_class(self):
        old = (
            "class HomAlgebra:\n"
            "    def __post_init__(self):\n"
            "        mul = from_constants(self.mul, (d, d), (d,), message)\n"
            "    def map(self):\n"
            "        return LinearMap.from_constants(self.mul, (d, d), (d,), message)\n"
        )
        assert constants_sites(old, "algebra.py") == ["algebra.py:__post_init__", "algebra.py:map"]

    def test_the_guard_allows_sparse_maps_and_other_tables(self):
        sparse = (
            "def _yau_twisted(algebra, alpha):\n"
            "    mul = compose([(algebra.map, 0), (alpha, 0)], (d, d))\n"
            "    return HomAlgebra(d, mul, alpha), table(manifest, name)\n"
        )
        assert table_sites(sparse, "algebra.py") == []
        assert constants_sites(sparse, "algebra.py") == []

    def test_every_gallery_family_is_walked(self):
        assert sorted(key.name for key in GALLERY_KEYS) == sorted(FAMILIES)

    def test_no_parsed_or_gallery_object_stores_a_table(self):
        objects = parse_manifest(json.dumps(GOLDEN_MANIFEST)).objects
        for key in GALLERY_KEYS:
            objects[key.name] = build(key)
        assert [p for name, obj in objects.items() for p in _stored_tables(obj, name)] == []
        assert objects["act"].table == (((ONE, 0), (0, ONE)),) * 2

    def test_the_walk_sees_a_stored_table(self):
        bundle = {"old": _TableField(1, ((ONE,),)), "expected_mul": ((ONE,),)}
        assert _stored_tables(bundle, "b") == ["b.old.mul"]


# The builders that check nothing, and the checked constructors allowed to call them.
PRIVATE_BUILDERS = {"_twisted_product", "_yau_twisted", "_deformed"}
BUILDER_CALLERS = [
    "algebra.py:tensor_algebra",
    "algebra.py:yau_twist_algebra",
    "twisted.py:hom_ttp",
    "twisted.py:iterated_ttp",
    "twisted.py:ttp",
    "twistor.py:deform",
    "twistor.py:deform_with_alpha",
]


def private_builder_sites(source, filename):
    """`file:function` of each call to a private builder, innermost function."""
    return call_sites(source, filename, lambda func: (
        func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    ) in PRIVATE_BUILDERS)


def _parameters(node):
    """The parameters of a function or lambda node; none for any other node."""
    if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
        return []
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    return params + [a for a in (args.vararg, args.kwarg) if a is not None]


def seen_tracking_sites(source, filename):
    """`file:line` of each `seen` parameter and each definition of `_first_time`."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        params = _parameters(node)
        defines = (
            isinstance(node, ast.FunctionDef) and node.name == "_first_time"
            or isinstance(node, ast.Name) and node.id == "_first_time"
            and isinstance(node.ctx, ast.Store)
        )
        if defines or any(a.arg == "seen" for a in params):
            sites.append(f"{filename}:{node.lineno}")
    return sites


class TestCompositesCallCheckedConstructors:
    def _sources(self):
        return [(p.read_text(encoding="utf-8"), p.name) for p in sorted(SRC.glob("*.py"))]

    def test_no_call_tracks_the_objects_it_has_seen(self):
        assert [site for src in self._sources() for site in seen_tracking_sites(*src)] == []

    def test_only_checked_constructors_call_the_private_builders(self):
        sites = [site for src in self._sources() for site in private_builder_sites(*src)]
        assert sorted(set(sites)) == BUILDER_CALLERS

    def test_the_guard_sees_seen_tracking(self):
        old = (
            "def _first_time(seen, *objs):\n"
            "    return True\n"
            "def _iterated(a, b, c, r1, r2, r3, seen):\n"
            "    return a\n"
        )
        assert seen_tracking_sites(old, "twisted.py") == ["twisted.py:1", "twisted.py:3"]

    def test_the_guard_sees_a_composite_calling_a_builder(self):
        old = (
            "def check_deform_compat_ttp(a, b, alpha_a, alpha_b, pmap):\n"
            "    classical = _twisted_product(a, b, pmap.map)\n"
            "    return algebra._yau_twisted(classical, alpha_a)\n"
        )
        sites = private_builder_sites(old, "twisted.py")
        assert sites == ["twisted.py:check_deform_compat_ttp"] * 2

    def test_the_guard_allows_other_seen_names(self):
        loop = (
            "def _fields(pairs):\n"
            "    seen = {}\n"
            "    return [seen.setdefault(k, v) for k, v in pairs]\n"
        )
        assert seen_tracking_sites(loop, "manifest.py") == []


def _equations(scans, name, endo):
    """The equations called `name` whose left path applies `endo`, over the logged scans."""
    return [
        eq
        for blocks, *_ in scans
        for _, equations in blocks
        for eq in equations
        if eq[0] == name and any(lmap == endo for lmap, _ in eq[1])
    ]


class TestEachHypothesisOnce:
    """A composite runs no check that a public constructor it calls requires on equal arguments."""

    def test_check_yau_compat(self, monkeypatch):
        calls = _calls(monkeypatch, [algebra.check_associative, algebra.multiplicativity_scan])
        ident2, ident3 = twistor.Operator2.identity(2), twistor.Operator3.identity(2)
        assert twistor.check_yau_compat(k2_algebra(), swap_matrix(), ident2, ident3, ident3)
        # check_pseudotwistor, then yau_twist_algebra on the base and on the deformation
        assert len(calls["check_associative"]) == 1
        assert len(calls["multiplicativity_scan"]) == 2

    def test_yau_twist_module_algebra(self, monkeypatch):
        calls = _calls(monkeypatch, [algebra.multiplicativity_scan, exact.scan_composites])
        alpha_h, alpha_a = h4_twists(2)
        modsmash.yau_twist_module_algebra(
            sweedler_h4(), dual_numbers(), h4_left_action(), alpha_h, alpha_a
        )
        # yau_twist_algebra on H and on A; yau_twist_coalgebra on the coalgebra of H
        assert len(calls["multiplicativity_scan"]) == 2
        assert len(_equations(calls["scan_composites"], "comultiplicativity", alpha_h)) == 1

    def test_check_hom_coalgebra_is_one_scan(self, monkeypatch):
        calls = _calls(monkeypatch, [exact.scan_composites])
        assert coalgebra.check_hom_coalgebra(sweedler_h4().coalgebra)
        assert len(calls["scan_composites"]) == 1


# A one-sided table states its side once: the table constructors take it, the
# table validates it, and the smash products require a left or a right action.
SIDE_TAKERS = [
    "modsmash.py:_check_side",
    "modsmash.py:_smash_preconditions",
    "modsmash.py:action_table",
    "modsmash.py:coaction_table",
]


def side_parameter_sites(source, filename):
    """`file:function` of each function or lambda with a parameter named `side`."""
    return [
        f"{filename}:{getattr(node, 'name', '<lambda>')}"
        for node in ast.walk(ast.parse(source))
        if any(a.arg == "side" for a in _parameters(node))
    ]


class TestSideStatedOnce:
    def test_only_the_tables_and_the_smash_take_a_side(self):
        sites = [
            site
            for path in sorted(SRC.glob("*.py"))
            for site in side_parameter_sites(path.read_text(encoding="utf-8"), path.name)
        ]
        assert sorted(sites) == SIDE_TAKERS

    def test_the_guard_sees_a_checker_taking_the_side_again(self):
        old = (
            "def check_module(side, algebra, action):\n"
            "    return scan_composites([])\n"
        )
        assert side_parameter_sites(old, "modsmash.py") == ["modsmash.py:check_module"]


def unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


class TestNoUnusedImports:
    def test_no_module_imports_a_name_it_never_reads(self):
        unused = {
            path.name: unused_imports(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))
        }
        assert {name: names for name, names in unused.items() if names} == {}

    def test_the_guard_sees_a_leftover_import(self):
        old = (
            "import re\n"
            "from .algebra import multiplicativity_scan, yau_twist_algebra as twist\n"
            "from .errors import NotMultiplicative\n"
            "def yau_twist_module_algebra(algebra, alpha):\n"
            "    return twist(algebra, alpha)\n"
        )
        assert unused_imports(old) == ["re", "multiplicativity_scan", "NotMultiplicative"]


# numpy alone takes a run's peak RSS from 13 to 27 MB, against a 5% bound on peak_rss_mb
HEAVY_PACKAGES = {"numpy", "scipy", "sympy"}


def heavy_imports(source):
    """The modules from HEAVY_PACKAGES that `source` imports, in import order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in HEAVY_PACKAGES]


class TestNoHeavyImports:
    def test_no_module_imports_numpy_scipy_or_sympy(self):
        found = {
            str(path.relative_to(SRC)): heavy_imports(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))
        }
        assert {name: names for name, names in found.items() if names} == {}

    def test_the_guard_sees_each_import_form(self):
        source = (
            "import numbers\n"
            "import numpy as np\n"
            "from scipy import sparse\n"
            "from .exact import ONE\n"
            "def f():\n"
            "    import sympy.core\n"
        )
        assert heavy_imports(source) == ["numpy", "scipy", "sympy.core"]


# The integer tensor kernel, by module: it multiplies and adds ints only, and hands its
# integer images to `exact.rationals`, the one place they become rationals again.
KERNEL_FUNCTIONS = {
    "exact.py": [
        "apply_at", "apply_path", "_runs", "tabulate", "compose", "_agree",
        "scan_composites", "scan_associator", "_combination",
    ],
}
# Names that would bring a rational or a float into the kernel's arithmetic.
RATIONAL_NAMES = {"Q", "Fraction", "ONE", "ZERO", "float", "as_scalar"}


def rational_sites(source, filename, functions):
    """`file:function` of each `/`, and each read of a RATIONAL_NAMES name or a
    ``.Fraction`` attribute, inside `functions`; a function not found is reported
    as `file:function missing`."""
    sites, found = [], set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or node.name not in functions:
            continue
        found.add(node.name)
        for n in ast.walk(node):
            if (
                isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
                or isinstance(n, ast.Name) and n.id in RATIONAL_NAMES
                or isinstance(n, ast.Attribute) and n.attr == "Fraction"
            ):
                sites.append(f"{filename}:{node.name}")
    return sites + [f"{filename}:{name} missing" for name in functions if name not in found]


class TestIntegerKernel:
    """The tensor kernel's hot loops run on ints: no `/`, and no rational built or read."""

    def test_the_kernel_functions_build_no_rational(self):
        sites = []
        for filename, functions in KERNEL_FUNCTIONS.items():
            sites += rational_sites((SRC / filename).read_text(encoding="utf-8"), filename, functions)
        assert sites == []

    def test_the_guard_sees_the_boundary_helper(self):
        source = (SRC / "exact.py").read_text(encoding="utf-8")
        assert set(rational_sites(source, "exact.py", ["rationals"])) == {"exact.py:rationals"}

    def test_the_guard_sees_the_fraction_kernel(self):
        old = (
            "def apply_at(lmap, xs, dims, pos):\n"
            "    p = w if v is ONE else v if w is ONE else v * w\n"
            "def scan_composites(blocks):\n"
            "    return [Q(v, den) for v in image] + [v / den for v in image]\n"
            "def _combination(terms, columns):\n"
            "    out = {}\n"
            "    out[r] /= fractions.Fraction(c)\n"
        )
        assert rational_sites(old, "k.py", ["apply_at", "scan_composites", "_combination"]) == [
            "k.py:apply_at", "k.py:apply_at",
            "k.py:scan_composites", "k.py:scan_composites",
            "k.py:_combination", "k.py:_combination",
        ]

    def test_the_guard_reports_a_function_it_cannot_find(self):
        kernel = "def apply_at(lmap, xs, dims, pos):\n    return [v * w // g for v in xs]\n"
        assert rational_sites(kernel, "k.py", ["apply_at", "compose"]) == ["k.py:compose missing"]


class TestIntExponentsGiveFractions:
    """`Fraction ** x` is a float for a non-Rational x, so no symbolic power may use it."""

    def test_every_int_exponent_coefficient_is_a_fraction(self):
        pbw = [(a, b, c) for a in range(2) for b in range(2) for c in (-1, 0, 1)]
        planes = [(m, n) for m in range(3) for n in range(3)]
        results = []
        for tup in ((2, 3, 5), (3, exact.Q(1, 2), 2)):
            for l in (0, 1, 2):
                params = UqParams(*tup, l)
                results += [uqsl2.q_int(n, params.q) for n in range(-2, 4)]
                for mn in planes:
                    p = QPlaneElement.monomial(mn)
                    results += [
                        c for k in (-1, 0, 1) for c in uqsl2.qp_beta(p, k, params).terms.values()
                    ]
                    for mon in pbw:
                        results += uqsl2.rho_l(UqElement.monomial(mon), p, params).terms.values()
                    for rs in planes:
                        product = uqsl2.mu_beta(p, QPlaneElement.monomial(rs), params)
                        results += product.terms.values()
                for h1, h2 in itertools.product(pbw, pbw):
                    t1, t2 = SmashTerm.monomial(((1, 2), h1)), SmashTerm.monomial(((2, 1), h2))
                    results += uqsl2.smash_mul_uq(t1, t2, params).terms.values()
        assert {type(c) for c in results} == {exact.Q}

    def test_a_symbolic_exponent_never_reaches_fraction_pow(self):
        assert type(exact.Q(2) ** 0.5) is float  # the hazard
        with pytest.raises(TypeError):
            exact.Q(2) ** M  # an Exponent has no __rpow__, so the mistake cannot pass silently

    def test_the_rules_hold_fractions_when_given_an_int_q(self):
        uqsl2._rules.cache_clear()  # an entry for Q(2) would answer for 2 as well
        rules = uqsl2._rules(2)
        assert {type(c) for terms in rules.values() for _, c in terms} == {exact.Q}


def parameter_pow_sites(source, filename):
    """`**` with a base named or read as an attribute `lam` or `xi`."""
    sites = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if getattr(node.left, "id", getattr(node.left, "attr", None)) in ("lam", "xi"):
                sites.append(f"{filename}:{node.lineno}")
    return sites


class TestParameterPowersGoThroughFormal:
    """lambda and xi may be formal, and a formal parameter has no `**`: every power is `power`."""

    def test_uqsl2_raises_no_lam_or_xi_with_pow(self):
        path = SRC / "uqsl2.py"
        assert parameter_pow_sites(path.read_text(encoding="utf-8"), path.name) == []

    def test_the_guard_sees_names_and_attributes(self):
        source = "a = lam ** 2\nb = params.xi ** (m + n)\nc = q ** 2\nd = power(1, lam, 2)\n"
        assert parameter_pow_sites(source, "s.py") == ["s.py:1", "s.py:2"]


class TestCriterion8ScansOncePerQ:
    def test_one_paper_run_calls_each_symbolic_check_twice(self, monkeypatch, capsys):
        checks = [
            uqsl2.check_rho_generator_formulas,
            uqsl2.check_uq_module_hom_algebra,
            uqsl2.verify_smash_closed_forms,
        ]
        calls = _calls(monkeypatch, checks)
        assert cli.main(["paper"]) == 0
        assert {name: len(args) for name, args in calls.items()} == {
            fn.__name__: 2 for fn in checks
        }
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 10


class TestNothingIsStoredOnUqParams:
    """The U_q(sl2) maps and scans leave a `UqParams` holding its four fields and nothing else."""

    def test_vars_are_the_dataclass_fields_after_every_map_and_scan(self):
        params = UqParams(3, exact.Q(1, 2), 2, 0)
        fields = {f.name for f in dataclasses.fields(UqParams)}
        assert fields == {"q", "lam", "xi", "l"}
        t = SmashTerm({((1, 1), (1, 1, -1)): ONE, ((M, 2), (0, 1, 1)): exact.Q(-3)})
        runs = [
            lambda: uqsl2.rho_l(UqElement({(1, 1, 1): ONE}), QPlaneElement({(M, 1): ONE}), params),
            lambda: uqsl2.smash_mul_uq(t, t, params),
            lambda: uqsl2.check_uq_module_hom_algebra(params),
            lambda: uqsl2.verify_smash_closed_forms(params),
            lambda: uqsl2.check_rho_generator_formulas(params),
        ]
        for run in runs:
            run()
            assert set(vars(params)) == fields


# the JSON oracles under tests/, by SHA-256
FIXTURE_SHA256 = {
    "algebra_pin.json": "e6b7c6adb444df3cbf321620608b87a398bc90bc8ca76d48c6d45f0dcd7b43bd",
    "smash_closed_pin.json": "52bbf9e101c95840a238d2fe0c240148155030ba33c09819f3a1aabba089e8fa",
    "uq_module_pin.json": "73c266592847dcf166c163d85bdf0c834450aa5aa765c0dc26f4fb2757c41ac9",
    "witness_golden.json": "fbc5c68f1b27b8541680a210791f8315e0cd029bef3210e0b9f23bb4bbe0a4dc",
}


class TestFixturesAreOracles:
    """A fixture is never regenerated: each JSON file under tests/ has its pinned digest."""

    def test_each_fixture_has_its_pinned_sha256(self):
        tests = pathlib.Path(__file__).parent
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tests.glob("*.json")}
        assert digests == FIXTURE_SHA256, (
            "a JSON fixture under tests/ was edited, added or removed; a fixture edit is a "
            "test change that CHANGES.md must list, with FIXTURE_SHA256 updated to match"
        )


def in_fresh_interpreter(script, *argv):
    """Run `script` in a new interpreter with only the package's source on the path.

    Returns (exit code, standard output, standard error).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


# runs the CLI on argv, then prints the homtwist modules it loaded, one a line
LOADED_BY_CLI = (
    "import sys\n"
    "from homtwist.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'homtwist'), sep='\\n')\n"
    "sys.exit(code)\n"
)
PAPER_ONLY_LAYERS = {"homtwist.suite", "homtwist.uqsl2", "homtwist.formal"}


class TestEachCommandLoadsOnlyItsLayers:
    """`check` and `table` never compile the acceptance suite or the U_q(sl2) layers."""

    @pytest.fixture
    def golden_file(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(GOLDEN_MANIFEST))
        return str(path)

    @staticmethod
    def loaded(*argv):
        code, out, err = in_fresh_interpreter(LOADED_BY_CLI, *argv)
        assert code == 0, err
        return {line for line in out.splitlines() if line.startswith("homtwist.")}

    def test_check_loads_no_suite_or_uq_layer(self, golden_file):
        loaded = self.loaded("check", golden_file)
        assert "homtwist.manifest" in loaded
        assert loaded & PAPER_ONLY_LAYERS == set()

    def test_table_loads_no_suite_or_uq_layer(self, golden_file):
        loaded = self.loaded("table", golden_file, "D")
        assert "homtwist.manifest" in loaded
        assert loaded & PAPER_ONLY_LAYERS == set()

    def test_paper_loads_the_suite(self):
        assert PAPER_ONLY_LAYERS <= self.loaded("paper", "--filter", "cli")


# the package's public names before they resolved on first use, by defining layer
EXPORTED = {
    "algebra": [
        "HomAlgebra", "check_algebra_morphism", "check_associative", "check_hom_algebra",
        "check_lemma_four_elements", "hom_algebra", "tensor_algebra", "yau_twist_algebra",
    ],
    "coalgebra": [
        "HomBialgebra", "HomCoalgebra", "check_hom_bialgebra", "check_hom_coalgebra",
        "hom_coalgebra", "yau_twist_bialgebra", "yau_twist_coalgebra",
    ],
    "exact": [
        "BACKEND", "CheckReport", "Failure", "LinearMap", "Matrix", "Q", "flatten_index",
        "kron", "mat_inv", "rat_parse", "unflatten_index",
    ],
    "gallery": ["GalleryKey", "build"],
    "modsmash": [
        "ActionTable", "CoactionTable", "action_table", "check_bicomodule", "check_comodule",
        "check_comodule_hom_algebra", "check_module", "check_module_hom_algebra",
        "check_smash_twist_compat", "check_yetter_drinfeld", "coaction_lambda_right_smash",
        "coaction_lambda_smash", "coaction_rho_smash", "coaction_table", "smash_left",
        "smash_right", "smash_two_sided", "tensor_modules", "yau_twist_module_algebra",
    ],
    "twisted": [
        "CliffordParams", "TwistingMapR", "alphaAB_from_classical", "alphaAB_ttp",
        "check_alphaAB_twisting_map", "check_braid", "check_deform_compat_ttp",
        "check_hom_twisting_map", "check_twisting_map", "clifford", "flip", "hom_ttp",
        "hom_twistor_from_R", "iterated_ttp", "ttp", "twistor_from_R",
    ],
    "twistor": [
        "Operator2", "Operator3", "check_alpha_pseudotwistor", "check_hom_pseudotwistor",
        "check_hom_twistor", "check_pseudotwistor", "check_twistor", "check_yau_compat",
        "deform", "deform_with_alpha", "lift_13", "yau_operator",
    ],
    "uqsl2": [
        "QPlaneElement", "SmashTerm", "UqElement", "UqParams", "check_uq_module_hom_algebra",
        "pbw_normalize", "q_int", "qp_beta", "qp_mul", "rho_l", "smash_mul_uq", "uq_alpha",
        "uq_coproduct", "uq_mul", "verify_smash_closed_forms",
    ],
}
EXPORTED_NAMES = {name for names in EXPORTED.values() for name in names}


class TestExportTable:
    """Each public name is its layer's object, found on first use."""

    @pytest.mark.parametrize(
        "layer, name", [(layer, name) for layer, names in EXPORTED.items() for name in names]
    )
    def test_each_name_is_its_layers_object(self, layer, name):
        module = importlib.import_module(f"homtwist.{layer}")
        assert getattr(homtwist, name) is getattr(module, name)

    def test_all_lists_exactly_the_names(self):
        assert len(homtwist.__all__) == len(EXPORTED_NAMES)
        assert set(homtwist.__all__) == EXPORTED_NAMES

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from homtwist import *", namespace)
        assert EXPORTED_NAMES <= set(namespace)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(homtwist, "no_such_name")
        assert not hasattr(homtwist, "paper_suite")

    def test_dir_lists_the_names(self):
        assert EXPORTED_NAMES <= set(dir(homtwist))
        assert "__version__" in dir(homtwist)

    def test_importing_the_package_loads_no_layer(self):
        script = "import sys, homtwist; print(sorted(m for m in sys.modules if 'homtwist' in m))"
        code, out, err = in_fresh_interpreter(script)
        assert (code, out.strip()) == (0, "['homtwist']"), err

    def test_the_bench_tracer_wraps_what_the_package_returns(self):
        # tracer.install imports every layer, then swaps each namespace
        script = (
            "import inspect, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import homtwist, tracer\n"
            "tracer.install(tracer.Tracer())\n"
            "values = [getattr(homtwist, name) for name in homtwist.__all__]\n"
            "functions = [v for v in values if inspect.isfunction(v)]\n"
            "print(len(functions), [f.__name__ for f in functions if not hasattr(f, '__wrapped__')])\n"
        )
        code, out, err = in_fresh_interpreter(script, str(SRC.parent.parent / "bench"))
        assert code == 0, err
        count, unwrapped = out.split(" ", 1)
        assert int(count) > 60
        assert unwrapped.strip() == "[]"
