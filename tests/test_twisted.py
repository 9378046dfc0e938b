import pytest

from homtwist.algebra import (
    check_associative,
    check_hom_algebra,
    hom_algebra,
    tensor_algebra,
    yau_twist_algebra,
)
from homtwist.errors import (
    BraidViolation,
    CommutationFailure,
    DimensionMismatch,
    NotCommutingWithAlpha,
    NotInvolutive,
    ParamConstraintViolation,
    PreconditionFailure,
)
from homtwist.exact import LinearMap, ONE, Q, ZERO, compose, kron
from homtwist.gallery import GalleryKey, build, k2_algebra, swap_matrix
from homtwist.twisted import (
    CliffordParams,
    TwistingMapR,
    alphaAB_from_classical,
    alphaAB_ttp,
    check_alphaAB_twisting_map,
    check_braid,
    check_deform_compat_ttp,
    check_hom_twisting_map,
    check_twisting_map,
    clifford,
    clifford_algebra,
    clifford_twisting_map,
    flip,
    hom_ttp,
    hom_twistor_from_R,
    iterated_ttp,
    ttp,
    twistor_from_R,
)
from homtwist.twistor import check_alpha_pseudotwistor, check_hom_twistor, check_twistor, deform


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


def lambda_bundle(lam=2):
    return build(GalleryKey("ttp_k2_lambda", {"lam": lam}))


def r1_bundle(**params):
    merged = {"a": 1, "l1": 1, "a1": 1, "a2": 0, "a3": 0, "a4": 0, "a5": 0}
    merged.update(params)
    return build(GalleryKey("homtwist_R1", merged))


class TestFlip:
    def test_one_dimensional(self):
        assert flat(flip(1, 1).map) == LinearMap.identity(1)

    def test_permutation(self):
        f = flip(2, 2)
        assert all(sum(1 for x in f.map.matrix().col(c) if x) == 1 for c in range(4))
        # flip(a, b) maps A (x) B to B (x) A, so flip(b, a) undoes it, not flip(a, b) itself
        assert composite(flip(2, 3).map, flip(3, 2).map) == LinearMap.identity(6)
        assert composite(flip(2, 3).map, flip(2, 3).map) != LinearMap.identity(6)

    def test_hom_ttp_with_flip_is_tensor(self):
        d = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
        k2 = k2_algebra()
        assert hom_ttp(d, k2, flip(2, 2)).mul == tensor_algebra(d, k2).mul


class TestCheckTwistingMap:
    def test_lambda_family(self):
        b = lambda_bundle(2)
        assert check_twisting_map(b["A"], b["B"], b["R"]).passed

    def test_flip(self):
        assert check_twisting_map(k2_algebra(), k2_algebra(), flip(2, 2)).passed

    def test_r1_fails_classical_axioms(self):
        b = r1_bundle()
        plain = hom_algebra(2, b["A"].mul)
        rep = check_twisting_map(plain, plain, b["R"])
        assert not rep.passed
        assert rep.failures  # witness recorded


class TestTtp:
    def test_paper_table_row(self):
        b = lambda_bundle(2)
        product = ttp(b["A"], b["B"], b["R"])
        # (e1 (x) e1)(e2 (x) e1) = (1 - lambda) e1 (x) e1
        assert list(product.mul[0][2]) == [Q(-1), Q(0), Q(0), Q(0)]

    def test_lambda_one_idempotent_entry(self):
        b = lambda_bundle(1)
        product = ttp(b["A"], b["B"], b["R"])
        assert list(product.mul[0][0]) == [Q(1), Q(0), Q(0), Q(0)]

    def test_flip_gives_ordinary_product(self):
        k2 = k2_algebra()
        assert ttp(k2, k2, flip(2, 2)).mul == tensor_algebra(k2, k2).mul

    @pytest.mark.parametrize("lam", [0, 1, 2, -1])
    def test_table_matches_gallery(self, lam):
        b = lambda_bundle(lam)
        assert ttp(b["A"], b["B"], b["R"]).mul == b["expected_mul"]

    def test_rejects_non_twisting_map(self):
        b = r1_bundle()
        plain = hom_algebra(2, b["A"].mul)
        with pytest.raises(PreconditionFailure):
            ttp(plain, plain, b["R"])


class TestTwistorFromR:
    def test_flip_deforms_to_ordinary_product(self):
        k2 = k2_algebra()
        t = twistor_from_R(k2, k2, flip(2, 2))
        ten = tensor_algebra(k2, k2)
        assert deform(ten, t).mul == ten.mul

    def test_lambda_family_is_twistor(self):
        b = lambda_bundle(2)
        t = twistor_from_R(b["A"], b["B"], b["R"])
        assert check_twistor(tensor_algebra(b["A"], b["B"]), t).passed

    @pytest.mark.parametrize("lam", [0, 1, 2, -1])
    def test_deform_equals_ttp(self, lam):
        b = lambda_bundle(lam)
        t = twistor_from_R(b["A"], b["B"], b["R"])
        ten = tensor_algebra(b["A"], b["B"])
        assert deform(ten, t).mul == ttp(b["A"], b["B"], b["R"]).mul


class TestHomTwistingMap:
    def test_r1_family(self):
        b = r1_bundle()
        assert check_hom_twisting_map(b["A"], b["B"], b["R"]).passed

    def test_flip_between_hom_algebras(self):
        d = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
        assert check_hom_twisting_map(d, d, flip(2, 2)).passed

    def test_perturbed_output_fails(self):
        b = r1_bundle()
        rows = [list(r) for r in b["R"].map.matrix().data]
        rows[0][0] = rows[0][0] + 1
        bad = TwistingMapR(2, 2, lmap(rows))
        assert not check_hom_twisting_map(b["A"], b["B"], bad).passed


class TestHomTtp:
    def test_dk2_family_zero_product(self):
        # For this family a a'_R lands in ker(alpha) products, so the twisted
        # multiplication vanishes identically; in particular it stays
        # associative for every parameter choice.
        b = build(GalleryKey("homtwist_Dk2", {"a": 1, "l1": 2, "a1": 3, "a2": -5}))
        product = hom_ttp(b["A"], b["B"], b["R"])
        assert all(not c for plane in product.mul for row in plane for c in row)
        assert check_hom_algebra(product).passed
        assert check_associative(product).passed

    def test_hom_twistor_deform_equals_hom_ttp(self):
        b = r1_bundle(a2=1, a4=2)
        t = hom_twistor_from_R(b["A"], b["B"], b["R"])
        ten = tensor_algebra(b["A"], b["B"])
        assert check_hom_twistor(ten, t).passed
        assert deform(ten, t).mul == hom_ttp(b["A"], b["B"], b["R"]).mul


class TestBraid:
    def test_all_flips(self):
        assert check_braid(flip(2, 2), flip(2, 2), flip(2, 2)).passed

    def test_two_flips_make_braid_vacuous(self):
        # with R2 = R3 = flip both braid sides reduce to a_R (x) b_R (x) c,
        # so ANY R1 satisfies the condition
        skew = TwistingMapR(2, 2, composite(lmap(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ), flip(2, 2).map))
        assert check_braid(skew, flip(2, 2), flip(2, 2)).passed

    def test_lambda_family_with_flip_breaks_braid(self):
        r = lambda_bundle(2)["R"]
        rep = check_braid(r, r, flip(2, 2))
        assert not rep.passed
        assert rep.failures[0].basis == (0, 0, 0)

    def test_lambda_family_triple_satisfies_braid(self):
        r = lambda_bundle(2)["R"]
        assert check_braid(r, r, r).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_braid(flip(2, 2), flip(3, 2), flip(2, 2))


class TestDimensions:
    def test_negative_dims_rejected(self):
        # -2 * -2 = 4 would otherwise admit a 4x4 matrix
        with pytest.raises(DimensionMismatch):
            TwistingMapR(-2, -2, LinearMap.identity(4))

    def test_dimension_zero_is_legal(self):
        assert TwistingMapR(0, 3, lmap(())).map.cols == ()

class TestIterated:
    def test_three_flips(self):
        k2 = k2_algebra()
        product, p1, p2 = iterated_ttp(k2, k2, k2, flip(2, 2), flip(2, 2), flip(2, 2))
        expected = tensor_algebra(tensor_algebra(k2, k2), k2)
        assert product.mul == expected.mul

    def test_mixed_r_between_hom_algebras(self):
        b = build(GalleryKey("homtwist_Dk2", {"a": 1, "l1": 2, "a1": 1, "a2": 3}))
        k2 = k2_algebra()
        product, _, _ = iterated_ttp(b["A"], b["B"], k2, b["R"], flip(2, 2), flip(2, 2))
        assert check_hom_algebra(product).passed

    def test_lambda_triple_bracketings_agree(self):
        b = lambda_bundle(2)
        r = b["R"]
        product, _, _ = iterated_ttp(b["A"], b["B"], k2_algebra(), r, r, r)
        assert check_hom_algebra(product).passed

    def test_braid_violation_raised(self):
        b = lambda_bundle(2)
        r = b["R"]
        with pytest.raises(BraidViolation):
            iterated_ttp(b["A"], b["B"], k2_algebra(), r, r, flip(2, 2))


class TestClifford:
    def test_dim1_substitution(self):
        unit_line = hom_algebra(1, (((ONE,),),))
        abar, _ = clifford(unit_line, CliffordParams(2, LinearMap.identity(1)))
        # (1 (x) v)(1 (x) v) = q (1 (x) 1)
        assert list(abar.mul[1][1]) == [Q(2), Q(0)]

    def test_q_one_doubling(self):
        k2 = k2_algebra()
        abar, _ = clifford(k2, CliffordParams(1, LinearMap.identity(2)))
        assert check_associative(abar).passed

    def test_yau_twisted_k2_with_sigma_alpha(self):
        a = yau_twist_algebra(k2_algebra(), swap_matrix())
        abar, rmap = clifford(a, CliffordParams(2, swap_matrix()))
        assert check_hom_algebra(abar).passed
        assert check_hom_twisting_map(a, clifford_algebra(2), rmap).passed

    def test_classical_clifford_is_associative(self):
        k2 = k2_algebra()
        abar, _ = clifford(k2, CliffordParams(-3, swap_matrix()))
        assert check_associative(abar).passed

    def test_twisting_map_on_basis(self):
        # R(1 (x) e_a) = e_a (x) 1 and R(v (x) e_a) = sigma(e_a) (x) v, sigma(e_a) = e_{1-a}
        rmap = clifford_twisting_map(swap_matrix())
        assert (rmap.dim_a, rmap.dim_b) == (2, 2)
        images = {(0, 0): 0, (0, 1): 2, (1, 0): 3, (1, 1): 1}  # (b, a) -> a' * 2 + b
        for (b, a), row in images.items():
            expected = tuple(ONE if r == row else ZERO for r in range(4))
            assert rmap.map.matrix().col(b * 2 + a) == expected
        a = yau_twist_algebra(k2_algebra(), swap_matrix())
        assert clifford(a, CliffordParams(2, swap_matrix()))[1] == rmap

    def test_invalid_params(self):
        with pytest.raises(ParamConstraintViolation):
            CliffordParams(0, LinearMap.identity(2))
        with pytest.raises(NotInvolutive):
            CliffordParams(1, lmap([[1, 1], [0, 1]]))

    def test_sigma_must_commute_with_alpha(self):
        d = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 0}))["D"]
        sigma = LinearMap.identity(2)
        ok_params = CliffordParams(1, sigma)
        clifford(d, ok_params)  # identity commutes
        # zero product, so the swap is multiplicative; it does not commute with alpha
        zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        a = hom_algebra(2, zero, lmap([[1, 1], [0, 1]]))
        with pytest.raises(NotCommutingWithAlpha):
            clifford(a, CliffordParams(1, swap_matrix()))


class TestDeformCompatTtp:
    def test_identity_alphas(self):
        b = lambda_bundle(2)
        ident = LinearMap.identity(2)
        assert check_deform_compat_ttp(b["A"], b["B"], ident, ident, b["R"]).passed

    @pytest.mark.parametrize("alpha", [
        LinearMap.identity(3), lmap([[0, 0, 0], [0, 0, 0]]), lmap([[0, 0], [0, 0], [0, 0]])
    ])
    def test_alpha_shape_is_named(self, alpha):
        b = lambda_bundle(2)
        ident = LinearMap.identity(2)
        message = "^alpha shapes do not match the twisting map$"
        for alphas in ((alpha, ident), (ident, alpha)):
            with pytest.raises(DimensionMismatch, match=message):
                check_deform_compat_ttp(b["A"], b["B"], *alphas, b["R"])
            with pytest.raises(DimensionMismatch, match=message):
                alphaAB_from_classical(b["R"], *alphas)

    def test_lambda_family_swap_alphas(self):
        b = lambda_bundle(2)
        sw = swap_matrix()
        left = composite(b["R"].map, kron(sw, sw))
        right = composite(kron(sw, sw), b["R"].map)
        if left == right:
            assert check_deform_compat_ttp(b["A"], b["B"], sw, sw, b["R"]).passed
        else:
            with pytest.raises(CommutationFailure):
                check_deform_compat_ttp(b["A"], b["B"], sw, sw, b["R"])


class TestAlphaABTwistingMap:
    def test_flip_lift_example(self):
        b = build(GalleryKey("alpha_ttp_flip", {}))
        assert check_alphaAB_twisting_map(
            b["A"], b["B"], b["alphaA"], b["alphaB"], b["R"]
        ).passed

    def test_identity_alphas_reduce_to_classical(self):
        b = lambda_bundle(2)
        ident = LinearMap.identity(2)
        classical = check_twisting_map(b["A"], b["B"], b["R"])
        with_alpha = check_alphaAB_twisting_map(b["A"], b["B"], ident, ident, b["R"])
        assert classical.passed == with_alpha.passed

    def test_plain_flip_with_nontrivial_alpha_fails(self):
        rep = check_alphaAB_twisting_map(
            k2_algebra(), k2_algebra(), swap_matrix(), swap_matrix(), flip(2, 2)
        )
        assert not rep.passed


class TestAlphaABTtp:
    def test_flip_lift_equals_yau_twist(self):
        b = build(GalleryKey("alpha_ttp_flip", {}))
        alg, t, c1, c2 = alphaAB_ttp(b["A"], b["B"], b["alphaA"], b["alphaB"], b["R"])
        ten = tensor_algebra(b["A"], b["B"])
        twist = kron(b["alphaA"], b["alphaB"])
        assert alg == yau_twist_algebra(ten, twist)
        assert check_alpha_pseudotwistor(ten, twist, t, c1, c2).passed

    def test_identity_alphas_give_ttp(self):
        b = lambda_bundle(2)
        ident = LinearMap.identity(2)
        alg, _, _, _ = alphaAB_ttp(b["A"], b["B"], ident, ident, b["R"])
        assert alg.mul == ttp(b["A"], b["B"], b["R"]).mul

    def test_clifford_variant_equals_twisted_doubling(self):
        b = build(GalleryKey("alpha_ttp_clifford", {"q": 2}))
        alg, _, _, _ = alphaAB_ttp(b["A"], b["B"], b["alphaA"], b["alphaB"], b["R"])
        # classical Clifford doubling, then Yau twist by sigma (x) id
        columns = []
        for bb in range(2):
            for a_idx in range(2):
                col = [ZERO] * 4
                if bb == 0:
                    col[a_idx * 2] = ONE
                else:
                    for p, s in enumerate(b["sigma"].matrix().col(a_idx)):
                        if s:
                            col[p * 2 + 1] = s
                columns.append(col)
        abar = ttp(b["A"], clifford_algebra(2), TwistingMapR(2, 2, lmap(list(zip(*columns)))))
        sigma_bar = kron(b["sigma"], LinearMap.identity(2))
        assert alg == yau_twist_algebra(abar, sigma_bar)


class TestAlphaABFromClassical:
    def test_flip_lift(self):
        sw = swap_matrix()
        lifted = alphaAB_from_classical(flip(2, 2), sw, sw)
        b = build(GalleryKey("alpha_ttp_flip", {}))
        assert lifted.map == b["R"].map

    def test_identity_alphas_give_back_p(self):
        b = lambda_bundle(2)
        ident = LinearMap.identity(2)
        assert alphaAB_from_classical(b["R"], ident, ident).map == b["R"].map

    def test_lambda_family_swap_alphas_branch(self):
        b = lambda_bundle(2)
        sw = swap_matrix()
        left = composite(b["R"].map, kron(sw, sw))
        right = composite(kron(sw, sw), b["R"].map)
        if left == right:
            lifted = alphaAB_from_classical(b["R"], sw, sw)
            assert check_alphaAB_twisting_map(b["A"], b["B"], sw, sw, lifted).passed
            alg, _, _, _ = alphaAB_ttp(b["A"], b["B"], sw, sw, lifted)
            expected = yau_twist_algebra(ttp(b["A"], b["B"], b["R"]), kron(sw, sw))
            assert alg == expected
        else:
            with pytest.raises(CommutationFailure):
                alphaAB_from_classical(b["R"], sw, sw)
