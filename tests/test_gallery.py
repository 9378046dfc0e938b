import json

import pytest

from homtwist.algebra import check_associative, check_hom_algebra
from homtwist.coalgebra import check_hom_bialgebra
from homtwist.errors import DegenerateQ, ParamConstraintViolation
from homtwist.exact import Q
from homtwist.gallery import GalleryKey, build
from homtwist.twisted import check_alphaAB_twisting_map, check_hom_twisting_map, check_twisting_map, clifford_algebra
from homtwist.twistor import check_hom_twistor
from homtwist.uqsl2 import UqParams
from test_gate import in_fresh_interpreter


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


# prints the uq_setup bundle's params built from argv[1], or the error that building raised
BUILD_UQ_SETUP = (
    "import json, sys\n"
    "from homtwist.errors import HomTwistError\n"
    "from homtwist.gallery import GalleryKey, build\n"
    "assert 'homtwist.uqsl2' not in sys.modules\n"
    "try:\n"
    "    print(repr(build(GalleryKey('uq_setup', json.loads(sys.argv[1])))['params']))\n"
    "except HomTwistError as exc:\n"
    "    print(f'{type(exc).__name__}: {exc}')\n"
)
# runs `homtwist check` on the manifest argv[1], printing the params of its object U
CHECK_UQ_SETUP = (
    "import sys\n"
    "from homtwist import cli\n"
    "assert 'homtwist.uqsl2' not in sys.modules\n"
    "run = cli.run\n"
    "def run_and_show(manifest):\n"
    "    print(repr(manifest.objects['U.params']))\n"
    "    return run(manifest)\n"
    "cli.run = run_and_show\n"
    "sys.exit(cli.main(['check', sys.argv[1]]))\n"
)
UQ_SETUP_ERRORS = [
    ({"q": 1, "lam": 1, "xi": 1, "l": 0}, "DegenerateQ", "q must avoid {0, 1, -1}, got 1"),
    ({"q": 2, "lam": 1, "xi": 1, "l": "1/2"}, "ParamConstraintViolation", "l must be an integer"),
    ({"q": 2, "lam": 0, "xi": 1, "l": 0}, "ParamConstraintViolation", "lambda must be nonzero"),
]


class TestUqSetupFromAFreshInterpreter:
    """uq_setup imports its layer when it runs, so nothing needs to have loaded it first."""

    PARAMS = {"q": 2, "lam": 3, "xi": 5, "l": 1}

    def check(self, tmp_path, params):
        path = tmp_path / "uq.json"
        path.write_text(json.dumps(
            {"objects": {"U": {"kind": "gallery", "name": "uq_setup", "params": params}}}
        ))
        return in_fresh_interpreter(CHECK_UQ_SETUP, str(path))

    def test_build_yields_params(self):
        code, out, err = in_fresh_interpreter(BUILD_UQ_SETUP, json.dumps(self.PARAMS))
        assert (code, out) == (0, f"{UqParams(2, 3, 5, 1)!r}\n"), err

    def test_check_yields_params(self, tmp_path):
        code, out, err = self.check(tmp_path, self.PARAMS)
        assert (code, out) == (0, f"{UqParams(2, 3, 5, 1)!r}\nall expectations met\n"), err

    @pytest.mark.parametrize("params, error, message", UQ_SETUP_ERRORS)
    def test_build_raises_the_same_error(self, params, error, message):
        code, out, err = in_fresh_interpreter(BUILD_UQ_SETUP, json.dumps(params))
        assert (code, out) == (0, f"{error}: {message}\n"), err

    @pytest.mark.parametrize("params, error, message", UQ_SETUP_ERRORS)
    def test_check_reports_the_same_error(self, tmp_path, params, error, message):
        assert self.check(tmp_path, params) == (3, "", f"semantic error: {message}\n")
