"""One precondition gate, each fact checked once per call, one dense product path.

``CheckReport.require`` is the only place where a failed report becomes an
exception, and a composite constructor scans the same fact on the same
objects at most once in one call.  ``HomAlgebra.product`` and
``Matrix.apply`` are read only by ``algebra._multiplicative``; every other
composite goes through ``exact.compose`` or ``exact.scan_composites``.
"""

import ast
import pathlib

import pytest

from homtwist import coalgebra, modsmash, twisted
from homtwist.errors import PreconditionFailure
from homtwist.exact import Matrix
from homtwist.gallery import (
    GalleryKey,
    build,
    dual_numbers,
    h4_left_action,
    h4_right_action,
    h4_twists,
    k2_algebra,
    sweedler_h4,
)
from homtwist.modsmash import smash_two_sided

SRC = pathlib.Path(twisted.__file__).parent


def _counting(monkeypatch, name, *modules):
    """Record the first argument of every call to <module>.<name>, in one list.

    `modules` defaults to `twisted`.
    """
    seen = []
    for module in modules or (twisted,):
        original = getattr(module, name)

        def counted(first, *rest, original=original):
            seen.append(first)
            return original(first, *rest)

        monkeypatch.setattr(module, name, counted)
    return seen


class TestOncePerCall:
    def test_iterated_ttp_scans_each_algebra_once(self, monkeypatch):
        scanned = _counting(monkeypatch, "check_hom_algebra")
        m, f = k2_algebra(), twisted.flip(2, 2)
        product, _, _ = twisted.iterated_ttp(m, m, m, f, f, f)
        # M itself, then the inner products M (x) M of the two bracketings
        assert len(scanned) == len({id(x) for x in scanned}) == 3
        assert scanned[0] is m
        assert product.dim == 8

    def test_smash_two_sided_scans_each_algebra_once(self, monkeypatch):
        scanned = _counting(monkeypatch, "check_hom_algebra")
        a, h4, c = dual_numbers(), sweedler_h4(), dual_numbers()
        smash_two_sided(a, h4, c, h4_left_action(), h4_right_action())
        # A, H and C, then the inner products A # H and H # C of the two bracketings
        assert len(scanned) == len({id(x) for x in scanned}) == 5
        assert all(x is y for x, y in zip(scanned, (a, h4.algebra, c)))

    def test_no_state_survives_the_call(self, monkeypatch):
        scanned = _counting(monkeypatch, "check_hom_algebra")
        m, f = k2_algebra(), twisted.flip(2, 2)
        twisted.iterated_ttp(m, m, m, f, f, f)
        twisted.iterated_ttp(m, m, m, f, f, f)
        assert sum(x is m for x in scanned) == 2


class TestRepeatedArguments:
    """A classical checker given the same object twice scans it once."""

    def test_check_twisting_map_scans_a_once(self, monkeypatch):
        scanned = _counting(monkeypatch, "check_associative")
        a = k2_algebra()
        assert twisted.check_twisting_map(a, a, twisted.flip(2, 2)).passed
        assert scanned == [a]

    def test_check_alphaAB_twisting_map_scans_a_and_f_once(self, monkeypatch):
        scanned = _counting(monkeypatch, "check_associative")
        multiplied = _counting(monkeypatch, "multiplicativity_scan")
        a, f, r = k2_algebra(), Matrix.identity(2), twisted.flip(2, 2)
        assert twisted.check_alphaAB_twisting_map(a, a, f, f, r).passed
        assert scanned == [a] and multiplied == [a]

    def test_check_alphaAB_twisting_map_scans_each_distinct_map(self, monkeypatch):
        multiplied = _counting(monkeypatch, "multiplicativity_scan")
        a, r = k2_algebra(), twisted.flip(2, 2)
        f, g = Matrix.identity(2), Matrix.identity(2)
        assert twisted.check_alphaAB_twisting_map(a, a, f, g, r).passed
        assert multiplied == [a, a]

    def test_tensor_modules_scans_m_once(self, monkeypatch):
        checked = _counting(monkeypatch, "check_module", modsmash)
        act = h4_left_action()
        modsmash.tensor_modules(sweedler_h4(), act, act)
        assert checked == [modsmash.LEFT]

    @pytest.mark.parametrize("side, action", [
        (modsmash.LEFT, h4_left_action), (modsmash.RIGHT, h4_right_action)
    ])
    def test_check_smash_twist_compat_scans_the_classical_module_algebra_once(
        self, monkeypatch, side, action
    ):
        checked = _counting(monkeypatch, "check_module_hom_algebra", modsmash)
        alpha_h, alpha_a = h4_twists(2)
        assert modsmash.check_smash_twist_compat(
            side, sweedler_h4(), dual_numbers(), action(), alpha_h, alpha_a
        ).passed
        # the classical inputs inside yau_twist_module_algebra, then their twists
        assert checked == [side, side]

    @pytest.mark.parametrize("side, action", [
        (modsmash.LEFT, h4_left_action), (modsmash.RIGHT, h4_right_action)
    ])
    def test_check_smash_twist_compat_scans_h_once(self, monkeypatch, side, action):
        scanned = _counting(monkeypatch, "check_hom_algebra", coalgebra, twisted)
        h4, a = sweedler_h4(), dual_numbers()
        alpha_h, alpha_a = h4_twists(2)
        assert modsmash.check_smash_twist_compat(side, h4, a, action(), alpha_h, alpha_a).passed
        # H inside check_hom_bialgebra, then A and the two twists for the hom_ttp scans
        assert len(scanned) == len({id(x) for x in scanned}) == 4
        assert scanned[0] is h4.algebra and scanned[1] is a


class TestCheckOrder:
    def test_twisting_maps_before_the_braid(self):
        """R3 fails its axioms and the triple fails the braid: R3 is reported."""
        lb = build(GalleryKey("ttp_k2_lambda", {"lam": 2}))
        flip = twisted.flip(2, 2).matrix
        doubled = twisted.TwistingMapR(2, 2, Matrix([[2 * x for x in row] for row in flip.data]))
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
OTHER_PRODUCTS = {"itertools", "LinearMap"}


def dense_product_sites(source, filename):
    """`file:function` of each `.product(`/`.apply(` call on an object, innermost function."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("product", "apply")
                and not (isinstance(func.value, ast.Name) and func.value.id in OTHER_PRODUCTS)
            ):
                where = self.stack[-1] if self.stack else "<module>"
                sites.append(f"{filename}:{where}")
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return sites


class TestOneDenseProductPath:
    def test_only_the_multiplicativity_scan_reads_product_and_apply(self):
        sites = []
        for path in sorted(SRC.glob("*.py")):
            sites += dense_product_sites(path.read_text(encoding="utf-8"), path.name)
        assert sorted(set(sites)) == ["algebra.py:_multiplicative"]

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
            "    mu = LinearMap.product(mul)\n"
            "    return list(itertools.product(*(range(d) for d in dims)))\n"
        )
        assert dense_product_sites(kernel, "exact.py") == []
