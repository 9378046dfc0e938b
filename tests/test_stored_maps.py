"""Every algebra, coalgebra, action and coaction stores its structure map as a LinearMap.

Nested constants are read once, at the boundary, and ``mul``, ``comul`` and
``table`` read them back as dense views.  These tests pin that the boundary
keeps every constant, that each builder's stored map is the map of its own
dense view (``compose`` lists a column's pairs in path order,
``from_constants`` in row order), and that equality and hashing follow the
dense views.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homtwist.algebra import HomAlgebra, _twisted_product, _yau_twisted, hom_algebra
from homtwist.coalgebra import hom_coalgebra, yau_twist_coalgebra
from homtwist.exact import ZERO, LinearMap, Q, as_scalar
from homtwist.gallery import c2_trivial_yd, dual_numbers, h4_left_action, h4_right_action
from homtwist.gallery import h4_twists, sweedler_h4
from homtwist.modsmash import (
    LEFT,
    RIGHT,
    action_table,
    coaction_lambda_right_smash,
    coaction_lambda_smash,
    coaction_rho_smash,
    coaction_table,
    tensor_modules,
    yau_twist_module_algebra,
)
from homtwist.twistor import Operator2, _deformed

# Zeros in every accepted spelling, and small values whose sums often cancel.
scalars = st.one_of(
    st.sampled_from([0, ZERO, Fraction(0), "0", "-0/3"]),
    st.sampled_from([1, -1, "1", "-1", Q(1, 2), "-1/2"]),
)
units = st.sampled_from([-1, 0, 0, 1])
nonzero = st.sampled_from([2, 3, -1, Q(1, 2), Q(-3, 2)])


def tables(shape, entries=scalars):
    """Nested lists of `entries` in the given shape."""
    if not shape:
        return entries
    return st.lists(tables(shape[1:], entries), min_size=shape[0], max_size=shape[0])


@st.composite
def maps(draw, src, dst):
    """A LinearMap src -> dst with entries in {-1, 0, 1}."""
    return LinearMap.from_constants(draw(tables(src + dst, units)), src, dst, "shape")


@st.composite
def algebras(draw, max_dim=2):
    d = draw(st.integers(0, max_dim))
    return hom_algebra(d, draw(tables((d, d, d), units)), draw(maps((d,), (d,))))


def reads_back(obj, view):
    """The stored map equals, and hashes as, the map of its dense view."""
    m = obj.map
    dense = LinearMap.from_constants(view, m.src, m.dst, "shape")
    return m == dense and hash(m) == hash(dense)


def canonical(table):
    """Nested tuples of the entries read as scalars, as the dense views give them."""
    if isinstance(table, list):
        return tuple(canonical(part) for part in table)
    return as_scalar(table)


def dense(algebra):
    return algebra.dim, algebra.mul, algebra.alpha.matrix().data


class TestBoundary:
    @given(st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_algebras_and_coalgebras_read_their_constants_back(self, d, data):
        constants = data.draw(tables((d, d, d)))
        expected = canonical(constants)
        for view in (hom_algebra(d, constants).mul, hom_coalgebra(d, constants).comul):
            assert view == expected
            assert all(c is ZERO for plane in view for row in plane for c in row if not c)

    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_actions_and_coactions_read_their_constants_back(self, dh, dm, data):
        ident = LinearMap.identity(dm)
        constants = data.draw(tables((dh, dm, dm)))
        assert action_table(RIGHT, dh, dm, constants, ident).table == canonical(constants)
        for side, shape in ((LEFT, (dm, dh, dm)), (RIGHT, (dm, dm, dh))):
            constants = data.draw(tables(shape))
            assert coaction_table(side, dh, dm, constants, ident).table == canonical(constants)


class TestBuildersStoreTheirComposite:
    @given(algebras(), algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_twisted_product(self, a, b, data):
        r = data.draw(maps((b.dim, a.dim), (a.dim, b.dim)))
        product = _twisted_product(a, b, r)
        assert reads_back(product, product.mul)
        rebuilt = HomAlgebra(product.dim, LinearMap.from_constants(
            product.mul, (product.dim,) * 2, (product.dim,), "shape"), product.alpha)
        assert rebuilt == product and hash(rebuilt) == hash(product)

    @given(algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_yau_twist_and_deformation(self, a, data):
        d = a.dim
        alpha = data.draw(maps((d,), (d,)))
        twisted = _yau_twisted(a, alpha)
        assert reads_back(twisted, twisted.mul)
        op = Operator2(d, data.draw(maps((d, d), (d, d))))
        deformed = _deformed(a, op, alpha)
        assert reads_back(deformed, deformed.mul)

    @given(nonzero)
    @settings(max_examples=10, deadline=None)
    def test_coalgebra_actions_and_coactions(self, c):
        h4, module = sweedler_h4(), dual_numbers()
        alpha_h, alpha_a = h4_twists(c)
        coalgebra = yau_twist_coalgebra(h4.coalgebra, alpha_h)
        assert reads_back(coalgebra, coalgebra.comul)
        bi, alg, act = yau_twist_module_algebra(h4, module, h4_left_action(), alpha_h, alpha_a)
        bi2, alg2, ract = yau_twist_module_algebra(
            h4, module, h4_right_action(), alpha_h, alpha_a
        )
        c2, c2_module, c2_act, c2_co = c2_trivial_yd()
        built = [
            act,
            ract,
            tensor_modules(bi, act, act),
            coaction_rho_smash(alg, bi, act),
            coaction_lambda_right_smash(bi2, alg2, ract),
            coaction_lambda_smash(c2_module, c2, c2_act, c2_co),
        ]
        for obj in built:
            assert reads_back(obj, obj.table)


class TestEquality:
    @given(algebras(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_and_hash_equal_exactly_when_dense_views_are(self, a, data):
        d = a.dim
        constants = [[list(row) for row in plane] for plane in a.mul]
        if d and data.draw(st.booleans()):
            i, j, k = (data.draw(st.integers(0, d - 1)) for _ in range(3))
            constants[i][j][k] = data.draw(units)
        alpha = a.alpha if data.draw(st.booleans()) else data.draw(maps((d,), (d,)))
        b = hom_algebra(d, [[[str(c) for c in row] for row in plane] for plane in constants], alpha)
        assert (a == b) == (dense(a) == dense(b))
        if a == b:
            assert hash(a) == hash(b)

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_the_order_of_a_column_is_not_compared(self, a):
        def reverse(m):
            return LinearMap(m.src, m.dst, [col[::-1] for col in m.cols])

        reordered = HomAlgebra(a.dim, reverse(a.map), reverse(a.alpha))
        assert reordered == a and hash(reordered) == hash(a)
