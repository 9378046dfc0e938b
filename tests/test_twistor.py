import pytest

from homtwist.algebra import (
    check_hom_algebra,
    hom_algebra,
    tensor_algebra,
    yau_twist_algebra,
)
from homtwist.errors import DimensionMismatch, NotMultiplicative, PreconditionFailure
from homtwist.exact import LinearMap, Q, ZERO, compose, kron
from homtwist.gallery import GalleryKey, build, k2_algebra, swap_matrix
from homtwist.twisted import twistor_from_R
from homtwist.twistor import (
    Operator2,
    Operator3,
    check_alpha_pseudotwistor,
    check_hom_pseudotwistor,
    check_hom_twistor,
    check_pseudotwistor,
    check_twistor,
    check_yau_compat,
    deform,
    deform_with_alpha,
    lift_13,
    yau_operator,
)


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def flat(f):
    """`f` as a map between single factors, as its matrix reads."""
    rows, cols = f.shape
    return f.reshaped((cols,), (rows,))


def composite(*maps):
    """The map of applying `maps` in turn, the first one first, tabulated by compose."""
    return compose([(flat(f), 0) for f in maps], (maps[0].shape[1],))


def example_bundle(a=1, l1=1, l2=2):
    return build(GalleryKey("homtwistor_2dim", {"a": a, "l1": l1, "l2": l2}))


def lambda_twistor(lam=2):
    b = build(GalleryKey("ttp_k2_lambda", {"lam": lam}))
    return tensor_algebra(b["A"], b["B"]), twistor_from_R(b["A"], b["B"], b["R"])


def swap_operator2():
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[j * 2 + i][i * 2 + j] = Q(1)
    return Operator2(2, lmap(rows))


class TestLift13:
    def test_identity(self):
        assert flat(lift_13(Operator2.identity(2)).map) == LinearMap.identity(8)

    def test_swap_moves_outer_factors(self):
        lifted = lift_13(swap_operator2())
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    src = (i * 2 + j) * 2 + k
                    dst = (k * 2 + j) * 2 + i
                    col = lifted.map.matrix().col(src)
                    assert col[dst] == 1 and sum(1 for x in col if x) == 1

    def test_scalar(self):
        c = Q(3)
        scaled = Operator2(2, lmap([[c if i == j else ZERO for j in range(4)] for i in range(4)]))
        assert flat(lift_13(scaled).map) == lmap(
            [[c if i == j else ZERO for j in range(8)] for i in range(8)]
        )


class TestPseudotwistor:
    def test_identity_triple(self):
        k2 = k2_algebra()
        assert check_pseudotwistor(
            k2, Operator2.identity(2), Operator3.identity(2), Operator3.identity(2)
        ).passed

    def test_twisting_map_twistor_with_lifted_companions(self):
        ten, t = lambda_twistor(2)
        lifted = lift_13(t)
        assert check_pseudotwistor(ten, t, lifted, lifted).passed

    def test_swap_with_identity_companions_fails(self):
        k2 = k2_algebra()
        rep = check_pseudotwistor(
            k2, swap_operator2(), Operator3.identity(2), Operator3.identity(2)
        )
        assert not rep.passed


class TestTwistor:
    def test_identity(self):
        assert check_twistor(k2_algebra(), Operator2.identity(2)).passed

    def test_lambda_family(self):
        ten, t = lambda_twistor(2)
        assert check_twistor(ten, t).passed

    def test_random_non_twistor_fails(self):
        arbitrary = Operator2(2, lmap([[1, 2, 0, 0], [0, 1, 1, 0], [3, 0, 1, 0], [0, 0, 0, 1]]))
        assert not check_twistor(k2_algebra(), arbitrary).passed

    def test_twistor_implies_pseudotwistor(self):
        ten, t = lambda_twistor(-1)
        lifted = lift_13(t)
        assert check_twistor(ten, t).passed
        assert check_pseudotwistor(ten, t, lifted, lifted).passed


class TestHomTwistor:
    def test_paper_twistor(self):
        b = example_bundle()
        assert check_hom_twistor(b["D"], b["T"]).passed

    def test_identity(self):
        b = example_bundle()
        assert check_hom_twistor(b["D"], Operator2.identity(2)).passed

    def test_perturbed_entry_fails(self):
        b = example_bundle()
        rows = [list(r) for r in b["T"].map.matrix().data]
        rows[1][1] = rows[1][1] + 1
        assert not check_hom_twistor(b["D"], Operator2(2, lmap(rows))).passed

    def test_companions_variant(self):
        b = example_bundle()
        lifted = lift_13(b["T"])
        assert check_hom_pseudotwistor(b["D"], b["T"], lifted, lifted).passed
        assert not check_hom_pseudotwistor(
            b["D"], b["T"], Operator3.identity(2), Operator3.identity(2)
        ).passed


class TestDeform:
    def test_paper_table(self):
        b = example_bundle()
        deformed = deform(b["D"], b["T"])
        assert deformed.mul == b["expected_mul"]
        assert check_hom_algebra(deformed).passed

    def test_row_from_paper(self):
        b = example_bundle(a=1, l1=1, l2=2)
        deformed = deform(b["D"], b["T"])
        # mu_T(e2, e1) = l1 a e1 + l2 a e2
        assert list(deformed.mul[1][0]) == [Q(1), Q(2)]

    def test_identity_leaves_unchanged(self):
        b = example_bundle()
        assert deform(b["D"], Operator2.identity(2)).mul == b["D"].mul

    def test_not_commutative(self):
        b = example_bundle()
        deformed = deform(b["D"], b["T"])
        assert deformed.mul[0][1] != deformed.mul[1][0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            deform(k2_algebra(), Operator2.identity(3))

    @pytest.mark.parametrize("operator", [Operator2, Operator3])
    def test_negative_operator_dimension_rejected(self, operator):
        with pytest.raises(DimensionMismatch):
            operator(-2, LinearMap.identity(4))

    def test_dimension_zero(self):
        empty = hom_algebra(0, ())
        assert deform(empty, Operator2(0, lmap(()))).mul == ()
        assert flat(lift_13(Operator2(0, lmap(()))).map) == lmap(())
        with pytest.raises(DimensionMismatch):  # a 2x0 alpha on a dim-0 algebra
            deform_with_alpha(empty, lmap(((), ())), Operator2(0, lmap(())))


class TestAlphaPseudotwistor:
    def test_yau_operator_accepted(self):
        k2 = k2_algebra()
        t, c1, c2 = yau_operator(swap_matrix())
        assert check_alpha_pseudotwistor(k2, swap_matrix(), t, c1, c2).passed

    def test_identity_alpha_reduces_to_pseudotwistor(self):
        ten, t = lambda_twistor(2)
        lifted = lift_13(t)
        ident = LinearMap.identity(4)
        plain = check_pseudotwistor(ten, t, lifted, lifted)
        with_alpha = check_alpha_pseudotwistor(ten, ident, t, lifted, lifted)
        assert plain.passed == with_alpha.passed

    def test_identity_operator_with_nontrivial_alpha_fails_interchange(self):
        k2 = k2_algebra()
        rep = check_alpha_pseudotwistor(
            k2, swap_matrix(), Operator2.identity(2), Operator3.identity(2), Operator3.identity(2)
        )
        assert not rep.passed
        assert any(f.equation == "alpha_pseudotwistor_interchange" for f in rep.failures)

    def test_rejects_non_multiplicative_alpha(self):
        with pytest.raises(NotMultiplicative):
            check_alpha_pseudotwistor(
                k2_algebra(),
                lmap([[1, 1], [0, 1]]),
                Operator2.identity(2),
                Operator3.identity(2),
                Operator3.identity(2),
            )


class TestYauOperator:
    def test_identity(self):
        t, c1, c2 = yau_operator(LinearMap.identity(2))
        assert flat(t.map) == LinearMap.identity(4)
        assert flat(c1.map) == LinearMap.identity(8)
        assert flat(c2.map) == LinearMap.identity(8)

    def test_swap_deformation(self):
        k2 = k2_algebra()
        t, _, _ = yau_operator(swap_matrix())
        deformed = deform_with_alpha(k2, swap_matrix(), t)
        assert list(deformed.mul[0][0]) == [Q(0), Q(1)]  # e1 e1 = e2
        assert deformed == yau_twist_algebra(k2, swap_matrix())

    def test_shapes_dim3(self):
        alpha = lmap([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        t, c1, c2 = yau_operator(alpha)
        assert t.map.shape[0] == 9
        assert c1.map.shape[0] == 27 and c2.map.shape[1] == 27

    def test_yau_operator_mu_compat(self):
        # deform-with-(alpha (x) alpha) equals alpha o mu entry-wise on presets
        for algebra, alpha in (
            (k2_algebra(), swap_matrix()),
            (hom_algebra(2, example_bundle(l2=0)["D"].mul), example_bundle(l2=0)["D"].alpha),
        ):
            t, _, _ = yau_operator(alpha)
            assert deform_with_alpha(algebra, alpha, t) == yau_twist_algebra(algebra, alpha)


class TestYauCompat:
    def test_identity_alpha(self):
        ten, t = lambda_twistor(2)
        lifted = lift_13(t)
        assert check_yau_compat(ten, LinearMap.identity(4), t, lifted, lifted).passed

    def test_swap_swap_alpha(self):
        ten, t = lambda_twistor(2)
        lifted = lift_13(t)
        alpha = kron(swap_matrix(), swap_matrix())
        left = composite(t.map, kron(alpha, alpha))
        right = composite(kron(alpha, alpha), t.map)
        if left == right:
            assert check_yau_compat(ten, alpha, t, lifted, lifted).passed
        else:
            with pytest.raises(PreconditionFailure) as err:
                check_yau_compat(ten, alpha, t, lifted, lifted)
            assert err.value.cause == "alpha_commutes_with_operator"

    def test_precondition_named(self):
        k2 = k2_algebra()
        with pytest.raises(PreconditionFailure) as err:
            check_yau_compat(
                k2, LinearMap.identity(2), swap_operator2(),
                Operator3.identity(2), Operator3.identity(2),
            )
        assert err.value.cause == "check_pseudotwistor"
