import itertools
from fractions import Fraction
from math import prod as _size
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
    ONE,
    CheckReport,
    LinearMap,
    Q,
    Scan,
    ZERO,
    apply_at,
    apply_path,
    as_scalar,
    compose,
    flatten_index,
    intertwining,
    kron,
    mat_inv,
    rat_parse,
    rationals,
    scan_composites,
    to_dense,
    unflatten_index,
)
from homtwist.gallery import GalleryKey
from homtwist.twisted import CliffordParams
from homtwist.uqsl2 import UqParams
from linear_maps import composite, lmap


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
        assert rat_parse(str(x)) == x


def swap2():
    return lmap([[0, 1], [1, 0]])


class TestMatrices:
    def test_identity_product(self):
        m = lmap([[1, 2], [3, "4/5"]])
        assert composite(m, LinearMap.identity(2)) == m
        assert composite(LinearMap.identity(2), m) == m

    def test_involution(self):
        assert composite(swap2(), swap2()) == LinearMap.identity(2)

    def test_shape_mismatch(self):
        # a 2 -> 2 map followed by a map out of a 3-dimensional space
        with pytest.raises(DimensionMismatch):
            composite(lmap([[0, 0], [0, 0]]), lmap([[0, 0, 0], [0, 0, 0]]))

    def test_inverse_identity(self):
        assert mat_inv(LinearMap.identity(3)) == LinearMap.identity(3)

    def test_inverse_unipotent(self):
        m = lmap([[1, 1], [0, 1]])
        inv = mat_inv(m)
        # independent check: compose back instead of trusting the elimination
        assert composite(m, inv) == LinearMap.identity(2)
        assert composite(inv, m) == LinearMap.identity(2)
        assert inv == lmap([[1, -1], [0, 1]])

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_inverse_composes_to_the_identity(self, xs):
        m = lmap([xs[:3], xs[3:6], xs[6:]])
        try:
            inv = mat_inv(m)
        except NotInvertible:
            assume(False)
        assert composite(m, inv) == composite(inv, m) == LinearMap.identity(3)

    def test_inverse_rank_deficient(self):
        with pytest.raises(NotInvertible):
            mat_inv(lmap([[1, 1], [1, 1]]))

    def test_inverse_non_square(self):
        with pytest.raises(DimensionMismatch):
            mat_inv(lmap([[0, 0, 0], [0, 0, 0]]))

    def test_apply_matches_columns(self):
        m = lmap([[1, 2], [3, 4]]).matrix()
        assert m.apply([1, 0]) == list(m.col(0))
        assert m.apply([0, 1]) == list(m.col(1))


class TestKron:
    def test_identities(self):
        assert kron(LinearMap.identity(2), LinearMap.identity(2)) == LinearMap.identity(4)

    def test_unit_factor(self):
        assert kron(swap2(), LinearMap.identity(1)) == swap2()

    def test_one_dim_scalars(self):
        assert kron(lmap([[2]]), lmap([[3]])) == lmap([[6]])

    def test_index_convention(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        k = kron(lmap(a), lmap(b)).matrix().data
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        row = flatten_index((2, 2), (i, j))
                        col = flatten_index((2, 2), (p, q))
                        assert k[row][col] == a[i][p] * b[j][q]

    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_composition(self, xs, ys, zs, ws):
        a = lmap([xs[:2], xs[2:]])
        b = lmap([ys[:2], ys[2:]])
        c = lmap([zs[:2], zs[2:]])
        d = lmap([ws[:2], ws[2:]])
        # (a (x) b) o (c (x) d) = (a o c) (x) (b o d)
        assert composite(kron(c, d), kron(a, b)) == kron(composite(c, a), composite(d, b))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_kronecker_index_loop(self, data):
        f, g = data.draw(_small_maps), data.draw(_small_maps)
        assert kron(f, g) == _kron_by_indices(f, g)


def _kron_by_indices(f, g):
    """f (x) g between single factors: the Kronecker product of the two matrices."""
    rows = _size(g.dst)
    cols = [
        tuple((i * rows + j, a * b) for i, a in fc for j, b in gc) for fc in f.cols for gc in g.cols
    ]
    return LinearMap((_size(f.src) * _size(g.src),), (_size(f.dst) * rows,), cols)


_factors = st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def _linear_maps(draw):
    """A map between 1-2 factors of dims 0-3, with entries in {-1, 0, 1, 1/2}."""
    src, dst = draw(_factors), draw(_factors)
    entry = st.sampled_from([Q(-1), ZERO, ONE, Q(1, 2)])
    columns = draw(st.lists(
        st.lists(entry, min_size=_size(dst), max_size=_size(dst)),
        min_size=_size(src), max_size=_size(src),
    ))
    return LinearMap(src, dst, [tuple((r, v) for r, v in enumerate(c) if v) for c in columns])


_small_maps = _linear_maps()


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

    def test_sides_compare_as_lists_whatever_their_type(self):
        scan = Scan()
        scan.eq("e", (0,), (1, 2), [1, 2])  # unequal as objects, equal as lists
        scan.eq("e", (1,), (), ())
        scan.eq("e", (2,), iter([3]), (3,))
        assert scan.done() == CheckReport(True)
        scan.eq("e", (3,), (1,), [2])
        assert scan.done().failures == (exact.Failure("e", (3,), (1,), (2,)),)

    def test_passed_iff_no_failures(self):
        assert CheckReport(True).passed
        assert bool(CheckReport(True))
        assert not bool(CheckReport(False, ()))


def _failing_report():
    scan = Scan()
    scan.eq("multiplicativity", (0, 1), [1], [2])
    scan.eq("multiplicativity", (1, 1), [3], [4])
    return scan.done()


class TestFromConstants:
    def test_scalars_and_shape(self):
        m = LinearMap.from_constants([[["1", 0]], [[Fraction(1, 2), "-0/3"]]], (2, 1), (2,), "bad")
        assert m.cols == (((0, Q(1)),), ((0, Q(1, 2)),))
        assert m.table() == ((((Q(1), ZERO),), ((Q(1, 2), ZERO),)))
        assert m.table()[0][0][1] is ZERO and m.table()[1][0][1] is ZERO

    @pytest.mark.parametrize("table", [
        [[[1, 0]]],  # too few planes
        [[[1, 0]], [[1, 0], [0, 1]]],  # a plane with too many rows
        [[[1, 0]], [[1]]],  # a short row
    ])
    def test_wrong_shape_raises_the_given_message(self, table):
        with pytest.raises(DimensionMismatch) as info:
            LinearMap.from_constants(
                table, (2, 1), (2,), "action constants are not 2x1x2 shaped")
        assert str(info.value) == "action constants are not 2x1x2 shaped"


class TestFromRows:
    def test_columns_are_read_from_the_rows(self):
        m = LinearMap.from_rows([["1", 0], [Fraction(1, 2), "-0/3"]])
        assert (m.src, m.dst) == ((2,), (2,))
        assert m.cols == (((0, Q(1)), (1, Q(1, 2))), ())

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatch, match="^ragged rows in matrix literal$"):
            LinearMap.from_rows([[1, 0], [1]])

    def test_every_entry_is_read_before_the_lengths(self):
        with pytest.raises(MalformedRational):
            LinearMap.from_rows([[1, 0], [0.5]])

    def test_cols_sizes_a_matrix_with_no_rows(self):
        assert LinearMap.from_rows([], 3) == LinearMap((3,), (0,), [()] * 3)
        assert LinearMap.from_rows([[], []], 3).shape == (2, 0)


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


_int_entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))


@st.composite
def _tensor_and_run(draw):
    """Factor dims (at most 4 factors of dim 1..3), a contiguous run, an integer sparse tensor."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    pos = draw(st.integers(0, len(dims) - 1))
    k = draw(st.integers(1, len(dims) - pos))
    coords = draw(st.lists(_int_entry, min_size=_size(dims), max_size=_size(dims)))
    return dims, pos, k, {i: c for i, c in enumerate(coords) if c}


class TestApplyAt:
    @given(_tensor_and_run(), st.lists(st.integers(1, 3), min_size=1, max_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_kron_with_identities(self, case, dst, data):
        dims, pos, k, x = case
        src = dims[pos:pos + k]
        n_in, n_out = _size(src), _size(dst)
        entries = data.draw(st.lists(_sparse_entry, min_size=n_in * n_out, max_size=n_in * n_out))
        m = lmap([entries[r * n_in:(r + 1) * n_in] for r in range(n_out)])
        out_dims = dims[:pos] + tuple(dst) + dims[pos + k:]
        [y] = apply_at(m.reshaped(src, dst), [x], dims, pos)
        left = LinearMap.identity(_size(dims[:pos]))
        right = LinearMap.identity(_size(dims[pos + k:]))
        full = kron(kron(left, m), right)
        # the image is over the map's denominator, in integers
        den = m.integer_form()[0]
        assert all(type(v) is int for v in y.values())
        assert to_dense(rationals(y, den), out_dims) == full.matrix().apply(to_dense(x, dims))
        # a run of three tensors maps each one as it maps alone
        coords = st.lists(_int_entry, min_size=_size(dims), max_size=_size(dims))
        run = [x] + [{i: c for i, c in enumerate(data.draw(coords)) if c} for _ in range(2)]
        images = apply_at(m.reshaped(src, dst), run, dims, pos)
        assert images == [apply_at(m.reshaped(src, dst), [z], dims, pos)[0] for z in run]

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
        [y], out_dims, den = apply_path(path, [x], dims)
        assert out_dims == dims and den == 1
        assert to_dense(y, dims) == to_dense(x, dims)

    def test_flip_swaps_factors(self):
        y = apply_at(LinearMap.flip(2, 3), [{flatten_index((2, 3), (1, 2)): Q(5)}], (2, 3), 0)
        assert y == [{flatten_index((3, 2), (2, 1)): Q(5)}]

    def test_run_must_match_the_factor_dims(self):
        with pytest.raises(DimensionMismatch):
            apply_at(LinearMap.flip(2, 3), [{0: Q(1)}], (3, 2), 0)

    def test_constants_read_source_factors_first(self):
        # mul[i][j] = e_{i+j mod 2} on k[C2]
        mul = [[[Q(int((i + j) % 2 == k)) for k in range(2)] for j in range(2)] for i in range(2)]
        mu = LinearMap.from_constants(mul, (2, 2), (2,), "mul is not 2x2x2")
        assert mu.src == (2, 2) and mu.dst == (2,)
        assert mu.table() == tuple(tuple(tuple(row) for row in plane) for plane in mul)

    def test_scan_is_tuple_major_and_lexicographic(self):
        flip = LinearMap.flip(2, 2)
        scale = lmap([[2, 0], [0, 1]])
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

    @pytest.mark.parametrize("read, one", [
        (rat_parse, "1"), (rat_parse, "4/4"), (as_scalar, "1"), (as_scalar, 1), (as_scalar, True),
    ])
    def test_a_one_read_from_a_literal_or_an_int_is_the_shared_one(self, read, one):
        assert read(one) is ONE

    def test_zero_over_zero_is_still_an_error(self):
        with pytest.raises(ZeroDenominator):
            rat_parse("0/0")

    def test_matrix_stores_only_the_shared_zero(self):
        m = lmap([[0, "0"], [Fraction(0), "-0/3"]])
        assert m.cols == ((), ())
        assert all(x is ZERO for row in m.matrix().data for x in row)


class TestFloatsAreRejected:
    """A float never becomes a scalar: its binary expansion is not the number meant."""

    @pytest.mark.parametrize("x", [0.1, 0.0, 2.0, float("inf")])
    def test_as_scalar(self, x):
        with pytest.raises(MalformedRational):
            as_scalar(x)

    @pytest.mark.parametrize("build", [
        lambda: hom_algebra(1, [[[0.5]]]),
        lambda: LinearMap.from_rows([[1, 0.1]]),
        lambda: GalleryKey("clifford", {"q": 2.0}),
        lambda: CliffordParams(0.5, LinearMap.identity(2)),
        lambda: UqParams(2, 0.1, 1),
    ], ids=["hom_algebra", "from_rows", "GalleryKey", "CliffordParams", "UqParams"])
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
        m = lmap([entries[r * cols:(r + 1) * cols] for r in range(rows)]).matrix()
        for _ in range(2):  # two vectors through one view
            vec = data.draw(st.lists(zero_or_rational, min_size=cols, max_size=cols))
            assert m.apply(vec) == dense_apply(m, vec)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearMap.identity(2).matrix().apply([Q(1)])


def dense_mat_inv(a):
    """mat_inv on a dense Matrix, before structure maps were stored as LinearMaps; the oracle."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"cannot invert non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    m = [list(a.data[r]) + [ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise NotInvertible(f"exact rank deficiency at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return lmap([m[r][n:] for r in range(n)]).matrix()


def dense_is_identity(self):
    """Matrix.is_identity, before structure maps were stored as LinearMaps; the oracle."""
    return self.rows == self.cols and all(
        self.data[r][c] == (ONE if r == c else ZERO)
        for r in range(self.rows)
        for c in range(self.cols)
    )


@st.composite
def _dense_rows(draw, square=True):
    """Rows of a small matrix: often singular, often the identity with one entry changed."""
    n = draw(st.integers(0, 4))
    cols = n if square else draw(st.integers(0, 4))
    rows = [[ONE if r == c else ZERO for c in range(cols)] for r in range(n)]
    if draw(st.booleans()):
        entries = st.one_of(st.integers(-2, 2), st.builds(Q, st.integers(-3, 3), st.integers(1, 3)))
        rows = [[draw(entries) for _ in range(cols)] for _ in range(n)]
    elif n and cols and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, cols - 1))] = draw(_sparse_entry)
    return rows


def _draw_path(draw, dims, entry):
    """A path of one to three (map, position) steps that applies to `dims`, with
    coefficients drawn from `entry`; returns the path and its target dims."""
    path = []
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(dims) - 1))
        k = draw(st.integers(1, min(2, len(dims) - pos)))
        src = dims[pos:pos + k]
        if k == 2 and draw(st.booleans()):
            step = LinearMap.flip(*src)
        else:
            dst = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
            n_in, n_out = _size(src), _size(dst)
            entries = draw(st.lists(entry, min_size=n_in * n_out, max_size=n_in * n_out))
            rows = [entries[r * n_in:(r + 1) * n_in] for r in range(n_out)]
            step = lmap(rows).reshaped(src, dst)
        path.append((step, pos))
        dims = dims[:pos] + step.dst + dims[pos + k:]
    return path, dims


@st.composite
def _paths(draw):
    """Factor dims and a path of one to three (map, position) steps that applies to them."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    return dims, _draw_path(draw, dims, _sparse_entry)[0]


def _ones_as(f, make_one):
    """`f` with each coefficient equal to one replaced by ``make_one()``."""
    return LinearMap(f.src, f.dst, (tuple((r, make_one() if v == 1 else v) for r, v in col)
                                    for col in f.cols))


class TestLinearMapValues:
    """A LinearMap is its value: equality and hash ignore the order of a column's pairs."""

    def test_compose_keeps_path_order_and_still_equals_the_dense_read(self):
        flip = LinearMap.flip(2, 2)
        rows = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        m = lmap(rows).reshaped((2, 2), (2, 2))
        path = compose([(flip, 0), (m, 0), (flip, 0)], (2, 2))
        dense = lmap(path.matrix().data).reshaped((2, 2), (2, 2))
        assert path.cols[1] == ((2, ONE), (1, ONE)) and dense.cols[1] == ((1, ONE), (2, ONE))
        assert path == dense and hash(path) == hash(dense)

    @given(_paths())
    @settings(max_examples=80, deadline=None)
    def test_a_composite_equals_the_read_of_its_dense_view(self, case):
        dims, path = case
        f = compose(path, dims)
        g = lmap(f.matrix().data).reshaped(f.src, f.dst)
        assert f == g and hash(f) == hash(g)
        assert f.matrix().data == g.matrix().data

    def test_values_and_factors_both_count(self):
        f = lmap([[1, 2], [3, 4]])
        assert f != lmap([[1, 2], [3, 5]])
        assert f.reshaped((2, 1), (2,)) != f
        assert f != f.matrix()

    @pytest.mark.parametrize(
        "src, dst", [((0,), (3,)), ((2,), (0,)), ((2, 0), (1,)), ((1,), (0, 2))]
    )
    def test_zero_size_round_trip(self, src, dst):
        f = LinearMap(src, dst, [()] * _size(src))
        m = f.matrix()
        assert (m.rows, m.cols) == f.shape == (_size(dst), _size(src))
        assert LinearMap.from_rows(m.data, m.cols).reshaped(src, dst) == f

    def test_compose_on_a_zero_size_source_keeps_the_target_and_checks_each_factor(self):
        assert compose([(LinearMap.flip(0, 3), 0)], (0, 3)) == LinearMap.flip(0, 3)
        with pytest.raises(DimensionMismatch):
            compose([(LinearMap.flip(2, 3), 0)], (0, 3))

    def test_a_product_with_the_shared_one_passes_it_through(self):
        flip = LinearMap.flip(2, 3)
        f = compose([(flip, 0), (LinearMap.flip(3, 2), 0), (flip, 0)], (2, 3))
        assert f == flip and all(v is ONE for col in f.cols for _, v in col)

    @given(_paths())
    @settings(max_examples=60, deadline=None)
    def test_fresh_ones_compose_as_the_shared_one(self, case):
        dims, path = case
        shared = [(_ones_as(f, lambda: ONE), pos) for f, pos in path]
        fresh = [(_ones_as(f, lambda: Fraction(1)), pos) for f, pos in path]
        assert compose(fresh, dims) == compose(shared, dims) == compose(path, dims)

    def test_a_scan_of_a_zero_size_block_still_checks_each_path(self):
        wrong, fits = [(LinearMap.flip(3, 3), 0)], [(LinearMap.flip(0, 3), 0)]
        for lhs, rhs in [(wrong, []), (fits, wrong)]:
            with pytest.raises(DimensionMismatch):
                scan_composites([((0, 3), [("x", lhs, rhs)])])
        assert scan_composites([((0, 3), [("x", fits, fits)])]) == CheckReport(True)

    @given(_dense_rows())
    @settings(max_examples=80, deadline=None)
    def test_mat_inv_matches_dense_gauss_jordan(self, rows):
        try:
            expected = dense_mat_inv(lmap(rows).matrix())
        except (NotInvertible, DimensionMismatch) as exc:
            with pytest.raises(type(exc), match=f"^{exc}$"):
                mat_inv(lmap(rows))
            return
        got = mat_inv(lmap(rows))
        assert got.matrix().data == expected.data and got.shape == (expected.rows, expected.cols)

    @given(st.one_of(_dense_rows(), _dense_rows(square=False)))
    @settings(max_examples=80, deadline=None)
    def test_is_identity_matches_the_dense_check(self, rows):
        assert lmap(rows).is_identity() == dense_is_identity(lmap(rows).matrix())


# The per-tuple kernel that the batched one replaced, kept verbatim as the test oracle:
# each basis tensor goes through each path on its own.


def tuple_apply_at(lmap, x, dims, pos):
    """Apply `lmap` to factors pos, pos+1, ... of the sparse tensor `x` over `dims`.

    The factors before the run and after it pass through unchanged; the
    result lives over ``dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]``.
    """
    end = pos + len(lmap.src)
    if tuple(dims[pos:end]) != lmap.src:
        raise DimensionMismatch(f"factors {pos}..{end - 1} of {tuple(dims)} are not {lmap.src}")
    right = _size(dims[end:])
    block_in = _size(lmap.src) * right
    block_out = _size(lmap.dst) * right
    cols = lmap.cols
    out = {}
    for idx, v in x.items():
        outer, rest = divmod(idx, block_in)
        mid, rest = divmod(rest, right)
        base = outer * block_out + rest
        for t, w in cols[mid]:
            o = base + t * right
            out[o] = out[o] + v * w if o in out else v * w
    return out


def tuple_apply_path(path, x, dims):
    """Apply each ``(map, position)`` of `path` in turn; returns (tensor, dims)."""
    dims = tuple(dims)
    for lmap, pos in path:
        x = tuple_apply_at(lmap, x, dims, pos)
        dims = dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]
    return x, dims


def tuple_compose(path, dims):
    """The composite of `path` on tensors over `dims`, tabulated as a LinearMap."""
    # the empty tensor checks every factor and gives the target dims, even when no
    # source basis element exists
    _, out_dims = tuple_apply_path(path, {}, dims)
    cols = []
    for c in range(_size(dims)):
        y, _ = tuple_apply_path(path, {c: ONE}, dims)
        cols.append(tuple((r, v) for r, v in y.items() if v))
    return LinearMap(dims, out_dims, cols)


def tuple_scan_composites(blocks, scan=None):
    """Check equations between composites on every basis tuple.

    `blocks` is a sequence of ``(dims, equations)``, each equation a triple
    ``(name, lhs path, rhs path)``.  Within a block the basis tuples over
    `dims` run in lexicographic order and, for each tuple, the equations in
    the order given.  Returns the report of `scan` (a fresh Scan by default).
    """
    scan = Scan() if scan is None else scan
    for dims, equations in blocks:
        dims = tuple(dims)
        for flat, basis in enumerate(itertools.product(*(range(d) for d in dims))):
            x = {flat: ONE}
            for name, lhs, rhs in equations:
                scan.eq(name, basis, to_dense(*tuple_apply_path(lhs, x, dims)),
                        to_dense(*tuple_apply_path(rhs, x, dims)))
    return scan.done()


# Coefficients with both kinds of one, the shared ONE and a fresh Fraction(1), and with
# denominators 3, 4 and 6, so that the two sides of an equation often have different
# integer-form denominators.
_kernel_entry = st.one_of(
    st.just(Q(-1)), st.just(ZERO), st.just(Q(1, 2)), st.builds(Fraction, st.just(1)), st.just(ONE),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from([3, 4, 6])),
)


def _nudged(f, c, r):
    """`f` with one added to the coefficient of e_r in the image of e_c."""
    col = dict(f.cols[c])
    col[r] = col.get(r, ZERO) + 1
    cols = list(f.cols)
    cols[c] = tuple((t, w) for t, w in col.items() if w)
    return LinearMap(f.src, f.dst, cols)


@st.composite
def _equations(draw):
    """Factor dims (one to four of dim 1..3) and one to three equations between paths.

    A right side is another random path, the left path itself, or the left path
    with one coefficient of one step nudged, so that scans pass, fail on a few
    tuples and fail on more tuples than the witness cap records.
    """
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    equations = []
    for k in range(draw(st.integers(1, 3))):
        lhs, _ = _draw_path(draw, dims, _kernel_entry)
        kind = draw(st.sampled_from(["other", "same", "nudged"]))
        rhs = lhs if kind != "other" else _draw_path(draw, dims, _kernel_entry)[0]
        if kind == "nudged":
            i = draw(st.integers(0, len(lhs) - 1))
            f, pos = lhs[i]
            rows, cols = f.shape
            step = _nudged(f, draw(st.integers(0, cols - 1)), draw(st.integers(0, rows - 1)))
            rhs = lhs[:i] + [(step, pos)] + lhs[i + 1:]
        equations.append((f"eq{k}", lhs, rhs))
    return dims, equations


class TestBatchedKernelMatchesThePerTupleKernel:
    @given(_equations())
    @settings(max_examples=100, deadline=None)
    def test_compose_tabulates_the_same_map(self, case):
        dims, equations = case
        for _, lhs, rhs in equations:
            for path in (lhs, rhs):
                got, want = compose(path, dims), tuple_compose(path, dims)
                assert got == want and got.cols == want.cols

    @given(_equations(), st.sampled_from([1, exact.DEFAULT_FAILURE_CAP, 10**6]))
    @settings(max_examples=100, deadline=None)
    def test_scan_gives_the_same_report(self, case, cap):
        dims, equations = case
        blocks = [(dims, equations)]
        with mock.patch.object(exact, "DEFAULT_FAILURE_CAP", cap):
            got, want = scan_composites(blocks), tuple_scan_composites(blocks)
        # a report's equality covers `passed` and each failure's name, basis, lhs and rhs
        assert got == want

    def test_a_scan_past_the_witness_cap_keeps_the_same_witnesses(self):
        double, scale = lmap([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), lmap([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        blocks = [((3, 3, 3), [("all", [(double, 0)], []), ("some", [(scale, 2)], [(scale, 1)])])]
        got, want = scan_composites(blocks), tuple_scan_composites(blocks)
        assert got == want and not got.passed
        assert len(got.failures) == exact.DEFAULT_FAILURE_CAP


def _recorded_sides(blocks):
    """The report of scan_composites on `blocks` and the (lhs, rhs) of each Scan.eq call."""
    sides, eq = [], Scan.eq

    def recording_eq(scan, equation, basis, lhs, rhs):
        sides.append((lhs, rhs))
        return eq(scan, equation, basis, lhs, rhs)

    with mock.patch.object(Scan, "eq", recording_eq):
        report = scan_composites(blocks)
    return report, sides


class TestIntegerForm:
    """The kernel runs on integer columns over one denominator per map, and rebuilds
    rationals only for a stored table or a failing instance."""

    def test_a_map_is_its_integer_columns_over_the_lcm_denominator(self):
        f = lmap([[Q(1, 3), Q(-3, 4)], [0, Q(5, 6)]])
        assert f.integer_form() == (12, (((0, 4),), ((0, -9), (1, 10))))
        assert f.integer_form() is f.integer_form()
        assert lmap([[1, 0], [2, -1]]).integer_form() == (1, (((0, 1), (1, 2)), ((1, -1),)))

    def test_sides_equal_only_after_cross_multiplying(self):
        # (1/3)(3/4) = 1/4 entrywise: the left side is 3 over 12, the right 1 over 4
        third = lmap([[Q(1, 3), 0], [0, Q(1, 3)]])
        three_quarters = lmap([[Q(3, 4), 0], [0, Q(3, 4)]])
        quarter = lmap([[Q(1, 4), 0], [0, Q(1, 4)]])
        lhs, rhs = [(third, 0), (three_quarters, 0)], [(quarter, 1)]
        ls, _, l_den = apply_path(lhs, [{1: 1}], (2, 2))
        rs, _, r_den = apply_path(rhs, [{1: 1}], (2, 2))
        assert (ls, l_den, rs, r_den) == ([{1: 3}], 12, [{1: 1}], 4)
        blocks = [((2, 2), [("cross", lhs, rhs)])]
        report, sides = _recorded_sides(blocks)
        assert report == tuple_scan_composites(blocks) == CheckReport(True)
        assert sides == [((), ())] * 4

    def test_unequal_sides_give_the_oracles_reduced_rationals(self):
        f = lmap([[Q(1, 3), Q(2, 3)], [Q(-7, 6), Q(1, 4)]])
        g = lmap([[Q(3, 4), 1], [Q(1, 2), Q(-5, 3)]])
        # the matrix product f g, so applying g and then f agrees with it and f then g does not
        fg = lmap([[Q(7, 12), Q(-7, 9)], [Q(-3, 4), Q(-19, 12)]])
        blocks = [((2,), [
            ("fg", [(g, 0), (f, 0)], [(fg, 0)]), ("gf", [(f, 0), (g, 0)], [(fg, 0)]),
        ])]
        got, want = scan_composites(blocks), tuple_scan_composites(blocks)
        assert got == want and [x.equation for x in got.failures] == ["gf", "gf"]
        assert [str(x) for x in got.failures] == [str(x) for x in want.failures]
        for failure in got.failures:
            assert all(type(c) is Q for c in failure.lhs + failure.rhs)
            assert all(c is ZERO for c in failure.lhs + failure.rhs if not c)

    def test_a_sum_that_cancels_in_an_integer_image_still_reaches_the_scan_as_equal(self):
        # e_0 -> (e_0 - e_1)/2, then both coordinates summed: 1/2 - 1/2 = 0
        split, total = lmap([[Q(1, 2)], [Q(-1, 2)]]), lmap([[1, 1]])
        [image], _, den = apply_path([(split, 0), (total, 0)], [{0: 1}], (1,))
        assert image == {0: 0} and den == 2
        blocks = [((1,), [("cancels", [(split, 0), (total, 0)], [(lmap([[0]]), 0)])])]
        report, sides = _recorded_sides(blocks)
        assert report == tuple_scan_composites(blocks) == CheckReport(True)
        assert sides == [((), ())]
        assert compose([(split, 0), (total, 0)], (1,)).cols == ((),)


# Entries of the maps of an alpha-compatibility: halves, signs and zeros.
_intertwining_entry = st.sampled_from([Q(-1), ZERO, ONE, Q(1, 2)])


def _dense(f):
    """The rows of f's matrix."""
    rows, cols = f.shape
    out = [[ZERO] * cols for _ in range(rows)]
    for c, col in enumerate(f.cols):
        for r, v in col:
            out[r][c] = v
    return out


def _dense_mul(a, b):
    """The matrix product of two lists of rows."""
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def _dense_kron(matrices):
    """The Kronecker product of square matrices, the first factor outermost."""
    out = [[ONE]]
    for m in matrices:
        n = len(m)
        out = [[row[c] * m[r][k] for c in range(len(row)) for k in range(n)]
               for row in out for r in range(n)]
    return out


@st.composite
def _factor_maps(draw, dims):
    """One square map per factor of `dims`: random entries, or a scalar times the identity."""
    maps = []
    for d in dims:
        if draw(st.booleans()):
            c = draw(_intertwining_entry)
            rows = [[c if r == s else ZERO for s in range(d)] for r in range(d)]
        else:
            rows = [draw(st.lists(_intertwining_entry, min_size=d, max_size=d)) for _ in range(d)]
        maps.append(lmap(rows))
    return maps


@st.composite
def _intertwinings(draw):
    """A map f between one or two factors of dims 1..3, and maps on its source and target factors."""
    src = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    dst = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    n_in, n_out = _size(src), _size(dst)
    entries = draw(st.lists(_intertwining_entry, min_size=n_in * n_out, max_size=n_in * n_out))
    f = lmap([entries[r * n_in:(r + 1) * n_in] for r in range(n_out)]).reshaped(src, dst)
    return f, draw(_factor_maps(src)), draw(_factor_maps(dst))


class TestIntertwining:
    """The block of (after_0 (x) ...) o f = f o (before_0 (x) ...) against dense matrices."""

    @given(_intertwinings())
    @settings(max_examples=200, deadline=None)
    def test_the_scan_is_the_dense_equation(self, case):
        f, before, after = case
        lhs = _dense_mul(_dense_kron([_dense(a) for a in after]), _dense(f))
        rhs = _dense_mul(_dense(f), _dense_kron([_dense(b) for b in before]))
        report = scan_composites([intertwining("eq", f, before, after)])
        differing = [c for c in range(f.shape[1])
                     if [row[c] for row in lhs] != [row[c] for row in rhs]]
        assert report.passed == (not differing)
        if differing:
            c, first = differing[0], report.failures[0]
            assert (first.equation, first.basis) == ("eq", unflatten_index(f.src, c))
            assert list(first.lhs) == [row[c] for row in lhs]
            assert list(first.rhs) == [row[c] for row in rhs]

    def test_the_block_scans_the_source_of_f(self):
        f = LinearMap.flip(2, 2)
        a, b = lmap([[0, 1], [1, 0]]), lmap([[1, 0], [0, -1]])
        dims, [(name, lhs, rhs)] = intertwining("flip", f, [a, b], [b, a])
        assert (dims, name) == ((2, 2), "flip")
        assert lhs == [(f, 0), (b, 0), (a, 1)] and rhs == [(a, 0), (b, 1), (f, 0)]
        assert scan_composites([(dims, [(name, lhs, rhs)])]).passed
