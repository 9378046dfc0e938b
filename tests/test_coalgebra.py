import pytest

from homtwist.algebra import check_hom_algebra
from homtwist.coalgebra import (
    HomBialgebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    hom_coalgebra,
    yau_twist_bialgebra,
    yau_twist_coalgebra,
)
from homtwist.errors import NotComultiplicative, NotMultiplicative, PreconditionFailure
from homtwist.exact import LinearMap, ONE, ZERO
from homtwist.gallery import GalleryKey, build, group_algebra, sweedler_h4, swap_matrix


def grouplike(dim, alpha=None):
    comul = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        comul[i][i][i] = ONE
    return hom_coalgebra(dim, comul, alpha)


class TestCheckHomCoalgebra:
    def test_grouplike_twisted_by_permutation(self):
        # direct expansion: Delta_alpha(e_i) = e_{s(i)} (x) e_{s(i)} satisfies
        # both axioms; the untwisted coproduct with a non-identity permutation
        # does not (see test_plain_grouplike_with_swap_fails).
        twisted = yau_twist_coalgebra(grouplike(2), swap_matrix())
        assert check_hom_coalgebra(twisted).passed

    def test_plain_grouplike_with_swap_fails(self):
        rep = check_hom_coalgebra(grouplike(2, swap_matrix()))
        assert not rep.passed
        assert rep.failures[0].equation == "hom_coassociativity"

    def test_classical_coassociative(self):
        assert check_hom_coalgebra(grouplike(3)).passed

    def test_skew_coproduct_fails(self):
        comul = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        comul[0][0][1] = ONE  # Delta(e0) = e0 (x) e1, not coassociative
        bad = hom_coalgebra(2, comul)
        rep = check_hom_coalgebra(bad)
        assert not rep.passed
        assert rep.failures[0].equation == "hom_coassociativity"


class TestYauTwistCoalgebra:
    def test_swap_on_grouplike(self):
        twisted = yau_twist_coalgebra(grouplike(2), swap_matrix())
        # Delta_alpha(e0) = Delta(e1) = e1 (x) e1
        assert twisted.comul[0][1][1] == ONE
        assert twisted.comul[0][0][0] == ZERO
        assert check_hom_coalgebra(twisted).passed

    def test_identity_unchanged(self):
        c = grouplike(2)
        twisted = yau_twist_coalgebra(c, LinearMap.identity(2))
        assert twisted.comul == c.comul

    def test_not_comultiplicative(self):
        with pytest.raises(NotComultiplicative):
            yau_twist_coalgebra(grouplike(2), lmap([[1, 1], [0, 1]]))


class TestCheckHomBialgebra:
    def test_c2_group_algebra(self):
        assert check_hom_bialgebra(group_algebra(2)).passed

    def test_identity_twist(self):
        h = group_algebra(2)
        assert check_hom_bialgebra(yau_twist_bialgebra(h, LinearMap.identity(2))).passed

    def test_skew_grouplike_coproduct_still_passes(self):
        # without counits, Delta(g) = g (x) e satisfies every bialgebra axiom:
        # Delta(g)^2 = g^2 (x) e^2 = Delta(g^2)
        h = group_algebra(2)
        comul = [list(list(r) for r in p) for p in h.comul]
        comul[1] = [[ZERO, ZERO], [ONE, ZERO]]  # Delta(g) = g (x) e
        skew = HomBialgebra(h.algebra, hom_coalgebra(2, comul))
        assert check_hom_bialgebra(skew).passed

    def test_broken_coproduct_fails(self):
        h = group_algebra(2)
        comul = [list(list(r) for r in p) for p in h.comul]
        comul[1] = [[ZERO, ONE], [ONE, ZERO]]  # Delta(g) = e (x) g + g (x) e
        bad = HomBialgebra(h.algebra, hom_coalgebra(2, comul))
        rep = check_hom_bialgebra(bad)
        assert not rep.passed
        assert any(f.equation == "coproduct_multiplicative" for f in rep.failures)


class TestYauTwistBialgebra:
    def test_sweedler_h4_sign_twist(self):
        h4 = sweedler_h4()
        alpha = lmap(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )  # g -> g, x -> -x
        twisted = yau_twist_bialgebra(h4, alpha)
        assert check_hom_bialgebra(twisted).passed

    def test_identity_twist_unchanged(self):
        h = group_algebra(2)
        twisted = yau_twist_bialgebra(h, LinearMap.identity(2))
        assert twisted.algebra.mul == h.algebra.mul
        assert twisted.comul == h.comul

    def test_rank_one_projection_rejected(self):
        # the projection onto span(g); projecting onto the unit would be a
        # genuine endomorphism in the counit-free setting
        h = group_algebra(2)
        proj = lmap([[0, 0], [1, 1]])
        with pytest.raises((NotMultiplicative, NotComultiplicative)):
            yau_twist_bialgebra(h, proj)

    def test_requires_classical(self):
        h4 = sweedler_h4()
        alpha = lmap([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        twisted = yau_twist_bialgebra(h4, alpha)
        with pytest.raises(PreconditionFailure):
            yau_twist_bialgebra(twisted, alpha)


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def transpose(f):
    """The transposed map: the rows of its matrix are the columns of `f`'s."""
    dense = f.matrix()
    return lmap([dense.col(c) for c in range(dense.cols)])


class TestDuality:
    @pytest.mark.parametrize("key", [("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}),
                                     ("homalg_2dim", {"a": 2, "l1": 3, "l2": -1})])
    def test_transpose_gives_coalgebra(self, key):
        d = build(GalleryKey(*key))["D"]
        assert check_hom_algebra(d).passed
        dim = d.dim
        comul = [
            [[d.mul[i][j][k] for j in range(dim)] for i in range(dim)] for k in range(dim)
        ]
        dual = hom_coalgebra(dim, comul, transpose(d.alpha))
        assert check_hom_coalgebra(dual).passed

    def test_transpose_of_sweedler_h4_algebra(self):
        h = sweedler_h4().algebra
        dim = h.dim
        comul = [
            [[h.mul[i][j][k] for j in range(dim)] for i in range(dim)] for k in range(dim)
        ]
        dual = hom_coalgebra(dim, comul, transpose(h.alpha))
        assert check_hom_coalgebra(dual).passed
