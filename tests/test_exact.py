from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from homtwist import exact
from homtwist.algebra import hom_algebra
from homtwist.errors import (
    DimensionMismatch,
    MalformedRational,
    NotInvertible,
    NotMultiplicative,
    PreconditionFailure,
    ZeroDenominator,
)
from homtwist.exact import (
    CheckReport,
    LinearMap,
    Matrix,
    Q,
    Scan,
    ZERO,
    apply_at,
    apply_path,
    as_constants,
    as_scalar,
    compose,
    flatten_index,
    kron,
    mat_inv,
    rat_parse,
    rat_str,
    scan_composites,
    to_dense,
    unflatten_index,
)
from homtwist.gallery import GalleryKey
from homtwist.twisted import CliffordParams
from homtwist.uqsl2 import UqParams


class TestRatParse:
    def test_reduces(self):
        assert rat_parse("3/6") == Q(1, 2)

    def test_negative_integer(self):
        assert rat_parse("-4") == Q(-4)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            rat_parse("1/0")

    @pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "+3", " 3", "a", "1/2/3", "3 "])
    def test_malformed(self, bad):
        with pytest.raises(MalformedRational):
            rat_parse(bad)

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, num, den):
        x = Q(num, den)
        assert rat_parse(rat_str(x)) == x


def swap2():
    return Matrix([[0, 1], [1, 0]])


def composite(*matrices):
    """The matrix of applying `matrices` in turn, the first one first, tabulated by compose."""
    path = [(LinearMap.from_matrix(m), 0) for m in matrices]
    return compose(path, (matrices[0].cols,)).matrix()


class TestMatrices:
    def test_identity_product(self):
        m = Matrix([[1, 2], [3, "4/5"]])
        assert composite(m, Matrix.identity(2)) == m
        assert composite(Matrix.identity(2), m) == m

    def test_involution(self):
        assert composite(swap2(), swap2()) == Matrix.identity(2)

    def test_shape_mismatch(self):
        # a 2 -> 2 map followed by a map out of a 3-dimensional space
        with pytest.raises(DimensionMismatch):
            composite(Matrix([[0, 0], [0, 0]]), Matrix([[0, 0, 0], [0, 0, 0]]))

    def test_inverse_identity(self):
        assert mat_inv(Matrix.identity(3)) == Matrix.identity(3)

    def test_inverse_unipotent(self):
        m = Matrix([[1, 1], [0, 1]])
        inv = mat_inv(m)
        # independent check: compose back instead of trusting the elimination
        assert composite(m, inv) == Matrix.identity(2)
        assert composite(inv, m) == Matrix.identity(2)
        assert inv == Matrix([[1, -1], [0, 1]])

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_inverse_composes_to_the_identity(self, xs):
        m = Matrix([xs[:3], xs[3:6], xs[6:]])
        try:
            inv = mat_inv(m)
        except NotInvertible:
            assume(False)
        assert composite(m, inv) == composite(inv, m) == Matrix.identity(3)

    def test_inverse_rank_deficient(self):
        with pytest.raises(NotInvertible):
            mat_inv(Matrix([[1, 1], [1, 1]]))

    def test_inverse_non_square(self):
        with pytest.raises(DimensionMismatch):
            mat_inv(Matrix([[0, 0, 0], [0, 0, 0]]))

    def test_apply_matches_columns(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.apply([1, 0]) == list(m.col(0))
        assert m.apply([0, 1]) == list(m.col(1))


class TestKron:
    def test_identities(self):
        assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)

    def test_unit_factor(self):
        assert kron(swap2(), Matrix.identity(1)) == swap2()

    def test_one_dim_scalars(self):
        assert kron(Matrix([[2]]), Matrix([[3]])) == Matrix([[6]])

    def test_index_convention(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[5, 6], [7, 8]])
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        row = flatten_index((2, 2), (i, j))
                        col = flatten_index((2, 2), (p, q))
                        assert k[row, col] == a[i, p] * b[j, q]

    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_composition(self, xs, ys, zs, ws):
        a = Matrix([xs[:2], xs[2:]])
        b = Matrix([ys[:2], ys[2:]])
        c = Matrix([zs[:2], zs[2:]])
        d = Matrix([ws[:2], ws[2:]])
        # (a (x) b) o (c (x) d) = (a o c) (x) (b o d)
        assert composite(kron(c, d), kron(a, b)) == kron(composite(c, a), composite(d, b))

    @given(
        st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_is_the_composite_on_two_factors(self, xs, ys):
        a = Matrix([xs[:3], xs[3:]])  # 3 -> 2
        b = Matrix([ys[:2], ys[2:4], ys[4:]])  # 2 -> 3
        path = [(LinearMap.from_matrix(a), 0), (LinearMap.from_matrix(b), 1)]
        assert kron(a, b) == compose(path, (3, 2)).matrix()


class TestTensorIndex:
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, dims, data):
        total = 1
        for d in dims:
            total *= d
        if total > 10**5:
            return
        flat = data.draw(st.integers(0, total - 1))
        assert flatten_index(dims, unflatten_index(dims, flat)) == flat

    def test_left_associative(self):
        # ((i, j), k) flattening agrees with the three-factor form
        assert flatten_index((2, 3, 4), (1, 2, 3)) == (1 * 3 + 2) * 4 + 3

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            unflatten_index((2, 2), 4)


class TestCheckReport:
    def test_cap_does_not_mask_failure(self):
        with mock.patch.object(exact, "DEFAULT_FAILURE_CAP", 2):
            scan = Scan()
        for i in range(5):
            scan.eq("bogus", (i,), [0], [1])
        rep = scan.done()
        assert not rep.passed
        assert len(rep.failures) == 2
        assert rep.failures[0].basis == (0,)

    def test_passed_iff_no_failures(self):
        assert CheckReport(True).passed
        assert bool(CheckReport(True))
        assert not bool(CheckReport(False, ()))


def _failing_report():
    scan = Scan()
    scan.eq("multiplicativity", (0, 1), [1], [2])
    scan.eq("multiplicativity", (1, 1), [3], [4])
    return scan.done()


class TestAsConstants:
    def test_scalars_and_shape(self):
        table = as_constants([[["1", 0]], [[Fraction(1, 2), "-0/3"]]], (2, 1, 2), "bad")
        assert table == ((((Q(1), ZERO),), ((Q(1, 2), ZERO),)))
        assert table[0][0][1] is ZERO and table[1][0][1] is ZERO

    @pytest.mark.parametrize("table", [
        [[[1, 0]]],  # too few planes
        [[[1, 0]], [[1, 0], [0, 1]]],  # a plane with too many rows
        [[[1, 0]], [[1]]],  # a short row
    ])
    def test_wrong_shape_raises_the_given_message(self, table):
        with pytest.raises(DimensionMismatch) as info:
            as_constants(table, (2, 1, 2), "action constants are not 2x1x2 shaped")
        assert str(info.value) == "action constants are not 2x1x2 shaped"


class TestRequire:
    def test_a_passing_report_comes_back(self):
        rep = CheckReport(True)
        assert rep.require("anything") is rep
        assert rep.require("anything", NotMultiplicative) is rep

    def test_default_is_a_precondition_failure_carrying_the_report(self):
        rep = _failing_report()
        with pytest.raises(PreconditionFailure) as info:
            rep.require("check_hom_algebra:A")
        assert str(info.value) == "precondition failed: check_hom_algebra:A"
        assert info.value.cause == "check_hom_algebra:A"
        assert info.value.report is rep

    def test_an_error_type_gets_the_first_witness(self):
        with pytest.raises(NotMultiplicative) as info:
            _failing_report().require("alpha is not multiplicative", NotMultiplicative)
        assert str(info.value) == "alpha is not multiplicative; witness (0, 1)"
        assert info.value.witness == (0, 1)


def _size(dims):
    n = 1
    for d in dims:
        n *= d
    return n


_rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))
_sparse_entry = st.one_of(st.just(Q(0)), st.just(Q(0)), _rationals)


@st.composite
def _tensor_and_run(draw):
    """Factor dims (at most 4 factors of dim 1..3), a contiguous run and a sparse tensor."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    pos = draw(st.integers(0, len(dims) - 1))
    k = draw(st.integers(1, len(dims) - pos))
    coords = draw(st.lists(_sparse_entry, min_size=_size(dims), max_size=_size(dims)))
    return dims, pos, k, {i: c for i, c in enumerate(coords) if c}


class TestApplyAt:
    @given(_tensor_and_run(), st.lists(st.integers(1, 3), min_size=1, max_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_kron_with_identities(self, case, dst, data):
        dims, pos, k, x = case
        src = dims[pos:pos + k]
        n_in, n_out = _size(src), _size(dst)
        entries = data.draw(st.lists(_sparse_entry, min_size=n_in * n_out, max_size=n_in * n_out))
        m = Matrix([entries[r * n_in:(r + 1) * n_in] for r in range(n_out)])
        out_dims = dims[:pos] + tuple(dst) + dims[pos + k:]
        got = to_dense(apply_at(LinearMap.from_matrix(m, src, dst), x, dims, pos), out_dims)
        full = kron(kron(Matrix.identity(_size(dims[:pos])), m), Matrix.identity(_size(dims[pos + k:])))
        assert got == full.apply(to_dense(x, dims))

    @given(_tensor_and_run())
    @settings(max_examples=40, deadline=None)
    def test_flip_twice_is_identity(self, case):
        dims, pos, _, x = case
        if pos + 2 > len(dims):
            pos = len(dims) - 2
        if pos < 0:
            return
        d1, d2 = dims[pos], dims[pos + 1]
        path = [(LinearMap.flip(d1, d2), pos), (LinearMap.flip(d2, d1), pos)]
        y, out_dims = apply_path(path, x, dims)
        assert out_dims == dims
        assert to_dense(y, dims) == to_dense(x, dims)

    def test_flip_swaps_factors(self):
        y = apply_at(LinearMap.flip(2, 3), {flatten_index((2, 3), (1, 2)): Q(5)}, (2, 3), 0)
        assert y == {flatten_index((3, 2), (2, 1)): Q(5)}

    def test_run_must_match_the_factor_dims(self):
        with pytest.raises(DimensionMismatch):
            apply_at(LinearMap.flip(2, 3), {0: Q(1)}, (3, 2), 0)

    def test_constants_read_source_factors_first(self):
        # mul[i][j] = e_{i+j mod 2} on k[C2]
        mul = [[[Q(int((i + j) % 2 == k)) for k in range(2)] for j in range(2)] for i in range(2)]
        mu = LinearMap.product(mul)
        assert mu.src == (2, 2) and mu.dst == (2,)
        assert mu.table() == tuple(tuple(tuple(row) for row in plane) for plane in mul)

    def test_scan_is_tuple_major_and_lexicographic(self):
        flip = LinearMap.flip(2, 2)
        scale = LinearMap.from_matrix(Matrix([[2, 0], [0, 1]]))
        rep = scan_composites([((2, 2), [
            ("flip_commutes", [(flip, 0)], [(flip, 0)]),
            ("scale_commutes", [(scale, 0)], [(scale, 1)]),
            ("flip_is_identity", [(flip, 0)], []),
        ])])
        # diag(2, 1) on factor 0 vs factor 1 differs exactly off the diagonal
        assert [(f.equation, f.basis) for f in rep.failures] == [
            ("scale_commutes", (0, 1)),
            ("flip_is_identity", (0, 1)),
            ("scale_commutes", (1, 0)),
            ("flip_is_identity", (1, 0)),
        ]


class TestCanonicalScalars:
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**3))
    @settings(max_examples=60, deadline=None)
    def test_a_scalar_comes_back_unchanged(self, num, den):
        x = Q(num, den)
        assert as_scalar(x) is (ZERO if num == 0 else x)

    @pytest.mark.parametrize("zero", [0, "0", "-0/5", Fraction(0), Q(0, 7), False])
    def test_every_zero_is_the_shared_zero(self, zero):
        assert as_scalar(zero) is ZERO

    @pytest.mark.parametrize("text", ["0", "-0", "0/3", "-0/5"])
    def test_parsed_zero_is_the_shared_zero(self, text):
        assert rat_parse(text) is ZERO

    def test_zero_over_zero_is_still_an_error(self):
        with pytest.raises(ZeroDenominator):
            rat_parse("0/0")

    def test_matrix_stores_only_the_shared_zero(self):
        m = Matrix([[0, "0"], [Fraction(0), "-0/3"]])
        assert all(x is ZERO for row in m.data for x in row)


class TestFloatsAreRejected:
    """A float never becomes a scalar: its binary expansion is not the number meant."""

    @pytest.mark.parametrize("x", [0.1, 0.0, 2.0, float("inf")])
    def test_as_scalar(self, x):
        with pytest.raises(MalformedRational):
            as_scalar(x)

    @pytest.mark.parametrize("build", [
        lambda: hom_algebra(1, [[[0.5]]]),
        lambda: Matrix([[1, 0.1]]),
        lambda: GalleryKey("clifford", {"q": 2.0}),
        lambda: CliffordParams(0.5, Matrix.identity(2)),
        lambda: UqParams(2, 0.1, 1),
    ], ids=["hom_algebra", "Matrix", "GalleryKey", "CliffordParams", "UqParams"])
    def test_entry_points(self, build):
        with pytest.raises(MalformedRational):
            build()


def dense_apply(self, vec):
    """Matrix.apply before it read cached sparse columns, kept as the test oracle."""
    if len(vec) != self.cols:
        raise DimensionMismatch(f"vector of length {len(vec)} vs {self.cols} columns")
    out = [ZERO] * self.rows
    for c, xc in enumerate(vec):
        if not xc:
            continue
        col = self.col(c)
        for r, m in enumerate(col):
            if m:
                out[r] = out[r] + m * xc
    return out


# Zeros drawn as the shared ZERO and as fresh objects, beside small rationals.
zero_or_rational = st.one_of(
    st.just(ZERO),
    st.builds(lambda: Fraction(0)),
    st.builds(Q, st.integers(-5, 5), st.integers(1, 3)),
)


class TestSparseApply:
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_loop(self, rows, cols, data):
        entries = data.draw(st.lists(zero_or_rational, min_size=rows * cols, max_size=rows * cols))
        m = Matrix([entries[r * cols:(r + 1) * cols] for r in range(rows)])
        for _ in range(2):  # the second call reads the cached columns
            vec = data.draw(st.lists(zero_or_rational, min_size=cols, max_size=cols))
            assert m.apply(vec) == dense_apply(m, vec)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.identity(2).apply([Q(1)])
