from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from homtwist.algebra import (
    HomAlgebra,
    _twisted_product,
    check_algebra_morphism,
    check_associative,
    check_hom_algebra,
    check_lemma_four_elements,
    hom_algebra,
    tensor_algebra,
    yau_twist_algebra,
)
from homtwist import exact
from homtwist.errors import DimensionMismatch, NotMultiplicative, PreconditionFailure
from homtwist.exact import (
    ONE, ZERO, LinearMap, Q, Scan, compose, kron
)
from homtwist.gallery import GalleryKey, build, k2_algebra, swap_matrix
from homtwist.twisted import flip, ttp


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def example_2dim(a=1, l1=1, l2=2):
    return build(GalleryKey("homalg_2dim", {"a": a, "l1": l1, "l2": l2}))["D"]


def zero_algebra(dim):
    """Zero multiplication, identity structure map."""
    return hom_algebra(dim, [[[0] * dim for _ in range(dim)] for _ in range(dim)])


def basis_vec(n, i):
    return [ONE if p == i else ZERO for p in range(n)]


class TestCheckHomAlgebra:
    def test_paper_example(self):
        assert check_hom_algebra(example_2dim()).passed

    @pytest.mark.parametrize("params", [(2, 3, -1), (1, 2, Q(1, 2))])
    def test_paper_example_other_parameters(self, params):
        assert check_hom_algebra(example_2dim(*params)).passed

    def test_associative_with_identity_alpha(self):
        assert check_hom_algebra(k2_algebra()).passed

    def test_identity_alpha_on_nonassociative_mul_fails(self):
        bad = hom_algebra(2, example_2dim(l2=2).mul)
        rep = check_hom_algebra(bad)
        assert not rep.passed
        # brute-force confirms the witness triple really fails
        w = next(f for f in rep.failures if f.equation == "hom_associativity")
        i, j, k = w.basis
        lhs = bad.product([1 if p == i else 0 for p in range(2)], bad.mul[j][k])
        rhs = bad.product(bad.mul[i][j], [1 if p == k else 0 for p in range(2)])
        assert lhs != rhs

    def test_dimension_zero_vacuous(self):
        empty = hom_algebra(0, ())
        assert check_hom_algebra(empty).passed
        assert check_associative(empty).passed


class TestCheckAssociative:
    def test_l2_zero_is_associative(self):
        assert check_associative(example_2dim(l2=0)).passed

    def test_zero_multiplication(self):
        assert check_associative(zero_algebra(3)).passed

    def test_l2_two_not_associative(self):
        assert not check_associative(example_2dim(l2=2)).passed


class TestYauTwist:
    def test_swap_on_k2(self):
        twisted = yau_twist_algebra(k2_algebra(), swap_matrix())
        # e1 e1 = e1 in k2, swapped to e2
        assert twisted.mul[0][0] == (Q(0), Q(1))
        assert check_hom_algebra(twisted).passed

    def test_identity_twist_unchanged(self):
        a = k2_algebra()
        assert yau_twist_algebra(a, LinearMap.identity(2)) == a

    def test_not_multiplicative(self):
        with pytest.raises(NotMultiplicative) as err:
            yau_twist_algebra(k2_algebra(), lmap([[1, 1], [0, 1]]))
        assert err.value.witness is not None

    def test_requires_classical_input(self):
        with pytest.raises(PreconditionFailure):
            yau_twist_algebra(example_2dim(), LinearMap.identity(2))


class TestTensorAlgebra:
    def test_k2_square_is_diagonal_idempotents(self):
        t = tensor_algebra(k2_algebra(), k2_algebra())
        for i in range(4):
            for j in range(4):
                expected = [Q(0)] * 4
                if i == j:
                    expected[i] = Q(1)
                assert list(t.mul[i][j]) == expected

    def test_hom_example_tensor_k2_passes(self):
        t = tensor_algebra(example_2dim(), k2_algebra())
        assert check_hom_algebra(t).passed

    def test_shape(self):
        three = zero_algebra(3)
        assert tensor_algebra(k2_algebra(), three).dim == 6


class TestAlgebraMorphism:
    def test_identity_is_morphism(self):
        d = example_2dim()
        assert check_algebra_morphism(LinearMap.identity(2), d, d).passed

    def test_alpha_is_endomorphism(self):
        d = example_2dim()
        assert check_algebra_morphism(d.alpha, d, d).passed

    def test_zero_map_is_morphism(self):
        d = example_2dim()
        assert check_algebra_morphism(lmap([[0, 0], [0, 0]]), d, d).passed

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_algebra_morphism(lmap([[0, 0, 0], [0, 0, 0]]), example_2dim(), example_2dim())

    def test_swap_not_a_k2_to_example_morphism(self):
        assert not check_algebra_morphism(swap_matrix(), example_2dim(), example_2dim()).passed


class TestFourElementLemma:
    def test_paper_example(self):
        assert check_lemma_four_elements(example_2dim()).passed

    def test_associative_identity_alpha(self):
        assert check_lemma_four_elements(k2_algebra()).passed

    def test_precondition_reported(self):
        bad = hom_algebra(2, example_2dim().mul)
        with pytest.raises(PreconditionFailure) as err:
            check_lemma_four_elements(bad)
        assert err.value.cause == "check_hom_algebra"

    def test_holds_on_twisted_k2(self):
        twisted = yau_twist_algebra(k2_algebra(), swap_matrix())
        assert check_lemma_four_elements(twisted).passed


def dense_product(self, u, v):
    """HomAlgebra.product before it read sparse columns, kept as the test oracle."""
    out = [ZERO] * self.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        plane = self.mul[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            w = ui * vj
            for k, c in enumerate(plane[j]):
                if c:
                    out[k] = out[k] + w * c
    return out


# Zeros drawn as the shared ZERO and as fresh objects, beside small rationals;
# zeros are drawn most often, as in the structure constants of the paper's examples.
zero_or_rational = st.one_of(
    st.just(ZERO),
    st.builds(lambda: Fraction(0)),
    st.just(ZERO),
    st.builds(Q, st.integers(-3, 3), st.integers(1, 2)),
)


@st.composite
def algebras(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    mul = [[draw(st.lists(zero_or_rational, min_size=d, max_size=d)) for _ in range(d)]
           for _ in range(d)]
    alpha = [draw(st.lists(zero_or_rational, min_size=d, max_size=d)) for _ in range(d)]
    return hom_algebra(d, mul, lmap(alpha))


def hand_loop_tensor_mul(a, b):
    """tensor_algebra's structure constants before it was a flip path, kept as the test oracle."""
    da, db = a.dim, b.dim
    dim = da * db
    mul = []
    for i in range(da):
        for j in range(db):
            plane = []
            for k in range(da):
                for l in range(db):
                    row = [ZERO] * dim
                    arow = a.mul[i][k]
                    brow = b.mul[j][l]
                    for p, ap in enumerate(arow):
                        if not ap:
                            continue
                        base = p * db
                        for q, bq in enumerate(brow):
                            if bq:
                                row[base + q] = ap * bq
                    plane.append(tuple(row))
            mul.append(tuple(plane))
    return tuple(mul)


class TestTensorAlgebraOracle:
    @given(algebras(), algebras())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_hand_loop(self, a, b):
        t = tensor_algebra(a, b)
        assert t.mul == hand_loop_tensor_mul(a, b)
        assert t.alpha == kron(a.alpha, b.alpha)


class TestSparseProduct:
    @given(algebras(max_dim=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_loop(self, algebra, data):
        d = algebra.dim
        for _ in range(3):
            u = data.draw(st.lists(zero_or_rational, min_size=d, max_size=d))
            v = data.draw(st.lists(zero_or_rational, min_size=d, max_size=d))
            assert algebra.product(u, v) == dense_product(algebra, u, v)

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_checker_reports_match_the_dense_loop(self, algebra):
        sparse = [check(algebra) for check in (check_hom_algebra, check_associative)]
        with mock.patch.object(HomAlgebra, "product", dense_product):
            dense = [check(algebra) for check in (check_hom_algebra, check_associative)]
        assert sparse == dense

    def test_stored_zeros_are_shared_and_the_map_is_cached(self):
        fresh = [[[Fraction(0), Q(1)], [Q(0, 3), "0"]], [["-0/2", 0], [1, Fraction(0)]]]
        a = hom_algebra(2, fresh)
        assert all(c is ZERO for plane in a.mul for row in plane for c in row if not c)
        assert a.map is a.map
        assert a.map.cols == (((1, Q(1)),), (), (), ((0, Q(1)),))

    def test_vector_length_must_match_the_dimension(self):
        with pytest.raises(DimensionMismatch):
            k2_algebra().product([Q(1), ZERO], [Q(1), ZERO, ZERO])


def loop_check_hom_algebra(algebra):
    """check_hom_algebra before it read tabulated sparse columns, kept as the test oracle."""
    d = algebra.dim
    scan = Scan()
    alpha = algebra.alpha.matrix()  # the dense structure map the oracle was written for
    acol = [alpha.col(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            lhs = alpha.apply(algebra.mul[i][j])
            rhs = algebra.product(acol[i], acol[j])
            scan.eq("multiplicativity", (i, j), lhs, rhs)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = algebra.product(acol[i], algebra.mul[j][k])
                rhs = algebra.product(algebra.mul[i][j], acol[k])
                scan.eq("hom_associativity", (i, j, k), lhs, rhs)
    return scan.done()


def loop_check_associative(algebra):
    """check_associative before it read tabulated sparse columns, kept as the test oracle."""
    d = algebra.dim
    scan = Scan()
    for i in range(d):
        ei = basis_vec(d, i)
        for j in range(d):
            for k in range(d):
                lhs = algebra.product(algebra.mul[i][j], basis_vec(d, k))
                rhs = algebra.product(ei, algebra.mul[j][k])
                scan.eq("associativity", (i, j, k), lhs, rhs)
    return scan.done()


CHECKERS = [
    pytest.param(check_hom_algebra, loop_check_hom_algebra, id="check_hom_algebra"),
    pytest.param(check_associative, loop_check_associative, id="check_associative"),
]

# Units of both signs beside the zeros, so that sums of products cancel often.
cancelling = st.one_of(zero_or_rational, st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2)]))


@st.composite
def alphas(draw, d):
    """Arbitrary, rank-one (never invertible for d > 1), zero-column or identity structure maps.

    The identity is always multiplicative, so the first failure is a Hom-associativity one.
    """
    kind = draw(st.sampled_from(["any", "rank_one", "zero_column", "identity"]))
    if kind == "identity":
        return [[ONE if r == c else ZERO for c in range(d)] for r in range(d)]
    if kind == "rank_one":
        u = draw(st.lists(cancelling, min_size=d, max_size=d))
        v = draw(st.lists(cancelling, min_size=d, max_size=d))
        return [[x * y for y in v] for x in u]
    rows = [draw(st.lists(cancelling, min_size=d, max_size=d)) for _ in range(d)]
    if kind == "zero_column":
        c = draw(st.integers(0, d - 1))
        rows = [[Fraction(0) if j == c else x for j, x in enumerate(row)] for row in rows]
    return rows


@st.composite
def yau_twisted_diagonals(draw, max_dim):
    """k^d twisted by a partial injection of its idempotents: Hom-associative, alpha singular."""
    d = draw(st.integers(1, max_dim))
    images = draw(st.permutations(list(range(d)) + [None] * d))[:d]
    alpha = [[ONE if images[c] == r else ZERO for c in range(d)] for r in range(d)]
    mul = [[[alpha[r][i] if i == j else ZERO for r in range(d)] for j in range(d)]
           for i in range(d)]
    return hom_algebra(d, mul, lmap(alpha))


@st.composite
def cancelling_algebras(draw, max_dim=4):
    d = draw(st.integers(1, max_dim))
    mul = [[draw(st.lists(cancelling, min_size=d, max_size=d)) for _ in range(d)]
           for _ in range(d)]
    return hom_algebra(d, mul, lmap(draw(alphas(d))))


def dual_numbers_twisted():
    """Dual numbers in the basis (p, q) = (1 + x, x) and the twist x -> x/2.

    p p = p + q and alpha(p + q) = (p - q/2) + q/2 cancels in the q coordinate.
    """
    one, half = ONE, Q(1, 2)
    mul = [[[one, one], [ZERO, one]], [[ZERO, one], [ZERO, ZERO]]]
    return hom_algebra(2, mul), lmap([[one, ZERO], [-half, half]])


def sixth_roots():
    """k[x]/(x^2 - x + 1) in the basis (e_0, e_1) = (x, 1 - x).

    e_0 e_0 = -e_1, e_0 e_1 = e_1 e_0 = e_0 + e_1 and e_1 e_1 = -e_0.
    """
    return hom_algebra(2, [[[0, -1], [1, 1]], [[1, 1], [-1, 0]]])


def recorded_scan(check, algebra):
    """The report of `check` and every (equation, basis, lhs, rhs) it gave Scan.eq."""
    calls = []
    original = Scan.eq

    def spy(self, equation, basis, lhs, rhs):
        calls.append((equation, tuple(basis), tuple(lhs), tuple(rhs)))
        return original(self, equation, basis, lhs, rhs)

    with mock.patch.object(Scan, "eq", spy):
        report = check(algebra)
    return report, calls


sparse_scan_inputs = st.one_of(cancelling_algebras(), yau_twisted_diagonals(4))


class TestSparseScans:
    """check_hom_algebra and check_associative against their per-tuple loops."""

    @pytest.mark.parametrize("check, oracle", CHECKERS)
    @pytest.mark.parametrize("cap", [exact.DEFAULT_FAILURE_CAP, 1], ids=["default_cap", "cap_1"])
    @given(algebra=sparse_scan_inputs)
    @settings(max_examples=60, deadline=None)
    def test_reports_match_the_loops(self, check, oracle, cap, algebra):
        with mock.patch.object(exact, "DEFAULT_FAILURE_CAP", cap):
            assert check(algebra) == oracle(algebra)

    @pytest.mark.parametrize("check, oracle", CHECKERS)
    @given(algebra=sparse_scan_inputs)
    @settings(max_examples=60, deadline=None)
    def test_scan_eq_sees_the_loops_instances(self, check, oracle, algebra):
        report, calls = recorded_scan(check, algebra)
        expected_report, expected = recorded_scan(oracle, algebra)
        d = algebra.dim
        assert len(calls) == (d ** 2 + d ** 3 if check is check_hom_algebra else d ** 3)
        assert [c[:2] for c in calls] == [c[:2] for c in expected]
        for (_, basis, lhs, rhs), (_, _, want_lhs, want_rhs) in zip(calls, expected):
            if list(want_lhs) != list(want_rhs):
                assert (lhs, rhs) == (want_lhs, want_rhs)
            elif len(basis) == 3:
                assert (lhs, rhs) == ((), ())
            else:  # the multiplicativity scan passes every pair densely
                assert (lhs, rhs) == (want_lhs, want_rhs)
        assert report == expected_report

    @pytest.mark.parametrize("check, oracle", CHECKERS)
    def test_cancelled_sums_reach_the_scan_as_equal(self, check, oracle):
        # e_0 (e_0 e_1) = e_0 e_0 + e_0 e_1 = -e_1 + (e_0 + e_1) cancels in e_1,
        # while (e_0 e_0) e_1 = -e_1 e_1 = e_0 has nothing to cancel
        algebra = sixth_roots()
        report, calls = recorded_scan(check, algebra)
        assert report.passed and report == oracle(algebra)
        triples = [c for c in calls if len(c[1]) == 3]
        assert len(triples) == 8 and all(c[2:] == ((), ()) for c in triples)


class TestCanonicalTables:
    def test_a_ttp_stores_zeros_as_the_shared_zero(self):
        a = example_2dim()
        t = ttp(k2_algebra(), k2_algebra(), flip(2, 2))
        h = tensor_algebra(a, a)
        for algebra in (t, h):
            entries = [c for plane in algebra.mul for row in plane for c in row]
            assert all(c is ZERO for c in entries if not c)
            assert all(type(c) is Q for c in entries)
            d = algebra.dim
            assert algebra.map == LinearMap.from_constants(algebra.mul, (d, d), (d,), "shape")

    def test_a_product_whose_sums_cancel_is_canonical(self):
        # R(f (x) e_0) = (e_0 + e_1) (x) f, so (e_0 (x) f)(e_0 (x) f) = e_0 (e_0 + e_1) (x) f
        # = e_0 (x) f: the e_1 coordinate cancels
        r = lmap([[1, 0], [1, 1]]).reshaped((1, 2), (2, 1))
        t = _twisted_product(sixth_roots(), hom_algebra(1, [[[1]]]), r)
        assert t.mul[0][0] == (ONE, ZERO) and t.mul[0][0][1] is ZERO

    def test_dimension_zero_tables(self):
        empty = hom_algebra(0, ())
        assert yau_twist_algebra(empty, lmap(())).mul == ()
        assert tensor_algebra(empty, k2_algebra()).mul == ()
        assert LinearMap((2, 0), (1,), ()).table() == ((), ())

    def test_a_yau_twist_whose_entries_cancel_stores_the_shared_zero(self):
        a, alpha = dual_numbers_twisted()
        cancelled = alpha.matrix().apply(a.mul[0][0])
        assert cancelled[1] == 0 and cancelled[1] is not ZERO
        twisted = yau_twist_algebra(a, alpha)
        assert twisted.mul[0][0] == (ONE, ZERO)
        assert twisted.mul[0][0][1] is ZERO

    @given(algebra=cancelling_algebras())
    @settings(max_examples=60, deadline=None)
    def test_a_composed_table_stores_reduced_rationals_and_no_zero(self, algebra):
        # the kernel multiplies integers; compose turns each entry back into a rational once
        d = algebra.dim
        mu, alpha = algebra.map, algebra.alpha
        for path in ([(alpha, 0), (mu, 0)], [(alpha, 1), (mu, 0)]):
            table = compose(path, (d, d))
            entries = [c for col in table.cols for _, c in col]
            assert all(type(c) is Q and c for c in entries)
            assert all(c is ONE for c in entries if c == 1)
            assert table == LinearMap.from_rows(table.matrix().data).reshaped((d, d), (d,))

    @pytest.mark.parametrize("check", [check_hom_algebra, check_associative])
    @given(algebra=cancelling_algebras())
    @settings(max_examples=60, deadline=None)
    def test_a_failure_holds_reduced_rationals(self, check, algebra):
        # the multiplicativity scan keeps its dense Fraction loop, so only the triple
        # scans' failures come from integers
        for f in check(algebra).failures:
            assert all(type(c) is Q for c in f.lhs + f.rhs)
            if len(f.basis) == 3:
                assert all(c is ZERO for c in f.lhs + f.rhs if not c)
