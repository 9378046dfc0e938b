import pytest

from homtwist.algebra import check_associative, check_hom_algebra
from homtwist.coalgebra import check_hom_bialgebra
from homtwist.errors import DegenerateQ, ParamConstraintViolation
from homtwist.exact import Q
from homtwist.gallery import GalleryKey, build
from homtwist.twisted import check_alphaAB_twisting_map, check_hom_twisting_map, check_twisting_map, clifford_algebra
from homtwist.twistor import check_hom_twistor


class TestGalleryKey:
    def test_unknown_name(self):
        with pytest.raises(ParamConstraintViolation):
            GalleryKey("no_such_example", {})

    def test_missing_params(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("homalg_2dim", {"a": 1}))

    def test_unknown_params(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 0, "zz": 1}))

    def test_params_parsed_from_strings(self):
        bundle = build(GalleryKey("homalg_2dim", {"a": "1", "l1": "1", "l2": "1/2"}))
        assert check_hom_algebra(bundle["D"]).passed


class TestParamConstraints:
    def test_l2_equal_one_rejected(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 1}))

    def test_a_zero_rejected(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("homalg_2dim", {"a": 0, "l1": 1, "l2": 2}))

    def test_r1_needs_l2_zero(self):
        params = {"a": 1, "l1": 1, "a1": 1, "a2": 0, "a3": 0, "a4": 0, "a5": 0, "l2": 1}
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("homtwist_R1", params))

    @pytest.mark.parametrize("key", [
        GalleryKey("clifford", {"q": 2, "l2": 7}),
        GalleryKey("sweedler_h4", {"l2": 0}),
        GalleryKey("ttp_k2_lambda", {"lam": 1, "l2": 0}),
    ], ids=["clifford", "sweedler_h4", "ttp_k2_lambda"])
    def test_l2_rejected_outside_the_two_dim_families(self, key):
        with pytest.raises(ParamConstraintViolation, match="unknown parameters"):
            build(key)

    def test_dk2_accepts_l2_zero(self):
        params = {"a": 1, "l1": 1, "a1": 1, "a2": 0, "l2": 0}
        assert build(GalleryKey("homtwist_Dk2", params))["R"].dim_a == 2

    def test_clifford_q_zero_rejected(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("clifford", {"q": 0}))

    def test_group_algebra_order(self):
        with pytest.raises(ParamConstraintViolation):
            build(GalleryKey("group_algebra", {"n": 5}))

    @pytest.mark.parametrize("n", ["5/2", "7/3", Q(3, 2)])
    def test_group_algebra_non_integer_order(self, n):
        # int() would truncate 5/2 to 2 and build k[C2]
        with pytest.raises(ParamConstraintViolation, match="n in"):
            build(GalleryKey("group_algebra", {"n": n}))

    def test_uq_setup_degenerate(self):
        with pytest.raises(DegenerateQ):
            build(GalleryKey("uq_setup", {"q": 1, "lam": 1, "xi": 1, "l": 0}))


class TestGalleryCoefficients:
    def test_homalg_2dim_e2_square(self):
        bundle = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}))
        assert list(bundle["D"].mul[1][1]) == [Q(-3), Q(-4)]

    def test_ttp_map_at_lambda_zero(self):
        bundle = build(GalleryKey("ttp_k2_lambda", {"lam": 0}))
        # R(e1 (x) e1) = -e2 (x) e2 at lambda = 0
        assert list(bundle["R"].map.matrix().col(0)) == [Q(0), Q(0), Q(0), Q(-1)]

    def test_twistor_coefficient(self):
        bundle = build(GalleryKey("homtwistor_2dim", {"a": 1, "l1": 1, "l2": 2}))
        # T(e2 (x) e2) = l1/(1 - l2) e2 (x) e1 = -e2 (x) e1
        assert list(bundle["T"].map.matrix().col(3)) == [Q(0), Q(0), Q(-1), Q(0)]


class TestClaimedCheckers:
    """Every gallery object passes the checker its example claims."""

    def test_homalg_2dim(self):
        bundle = build(GalleryKey("homalg_2dim", {"a": 2, "l1": 3, "l2": -1}))
        assert check_hom_algebra(bundle["D"]).passed

    def test_homtwistor_2dim(self):
        bundle = build(GalleryKey("homtwistor_2dim", {"a": 2, "l1": 3, "l2": -1}))
        assert check_hom_twistor(bundle["D"], bundle["T"]).passed

    @pytest.mark.parametrize("lam", [0, 1, 2, -1, Q(1, 3)])
    def test_ttp_k2_lambda(self, lam):
        bundle = build(GalleryKey("ttp_k2_lambda", {"lam": lam}))
        assert check_twisting_map(bundle["A"], bundle["B"], bundle["R"]).passed

    @pytest.mark.parametrize("name", ["homtwist_R1", "homtwist_R2"])
    def test_hom_twisting_families(self, name):
        params = {"a": 1, "l1": 3, "a1": Q(1, 2), "a2": -1, "a3": 2, "a4": 0, "a5": Q(5, 3)}
        bundle = build(GalleryKey(name, params))
        assert check_hom_twisting_map(bundle["A"], bundle["B"], bundle["R"]).passed

    def test_homtwist_dk2(self):
        bundle = build(GalleryKey("homtwist_Dk2", {"a": 1, "l1": 2, "a1": 1, "a2": -3}))
        assert check_hom_twisting_map(bundle["A"], bundle["B"], bundle["R"]).passed

    def test_clifford(self):
        bundle = build(GalleryKey("clifford", {"q": -3}))
        assert check_hom_algebra(bundle["Abar"]).passed
        assert check_hom_twisting_map(
            bundle["A"], clifford_algebra(-3), bundle["R"]
        ).passed

    def test_sweedler_h4(self):
        bundle = build(GalleryKey("sweedler_h4", {}))
        assert check_hom_bialgebra(bundle["H"]).passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_group_algebra(self, n):
        bundle = build(GalleryKey("group_algebra", {"n": n}))
        assert check_hom_bialgebra(bundle["H"]).passed
        assert check_associative(bundle["H"].algebra).passed

    def test_uq_setup(self):
        bundle = build(GalleryKey("uq_setup", {"q": 2, "lam": 3, "xi": 5, "l": 1}))
        assert bundle["params"].l == 1

    def test_alpha_ttp_flip(self):
        bundle = build(GalleryKey("alpha_ttp_flip", {}))
        assert check_alphaAB_twisting_map(
            bundle["A"], bundle["B"], bundle["alphaA"], bundle["alphaB"], bundle["R"]
        ).passed

    def test_alpha_ttp_clifford(self):
        bundle = build(GalleryKey("alpha_ttp_clifford", {"q": Q(1, 2)}))
        assert check_alphaAB_twisting_map(
            bundle["A"], bundle["B"], bundle["alphaA"], bundle["alphaB"], bundle["R"]
        ).passed
