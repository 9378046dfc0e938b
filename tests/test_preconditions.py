"""The first exception a composite constructor raises, pinned by type and message.

Each composite verifies several hypotheses before it builds anything, and the
order of those checks decides which one a bad input reports.  These cases fix
that order from the outside, one failing hypothesis at a time.  A second list
pins each rejection of a bad shape, side or parameter that no other test
reaches, one case per raise.
"""

import pytest

from homtwist.algebra import hom_algebra, yau_twist_algebra
from homtwist.coalgebra import HomBialgebra, hom_coalgebra, yau_twist_bialgebra, yau_twist_coalgebra
from homtwist.errors import (
    BraidViolation,
    DimensionMismatch,
    NotComultiplicative,
    NotCommutingWithAlpha,
    NotInvolutive,
    NotMultiplicative,
    ParamConstraintViolation,
    PreconditionFailure,
)
from homtwist.exact import LinearMap, ONE, ZERO, flatten_index
from homtwist.gallery import (
    GalleryKey,
    build,
    dual_numbers,
    group_algebra,
    h4_left_action,
    h4_right_action,
    h4_twists,
    k2_algebra,
    swap_matrix,
    sweedler_h4,
)
from homtwist.modsmash import (
    LEFT,
    RIGHT,
    action_table,
    check_bicomodule,
    check_comodule,
    check_comodule_hom_algebra,
    check_module,
    check_module_hom_algebra,
    check_smash_twist_compat,
    check_yetter_drinfeld,
    coaction_lambda_smash,
    coaction_table,
    smash_left,
    smash_right,
    smash_two_sided,
    tensor_modules,
    yau_twist_module_algebra,
)
from homtwist.twisted import (
    CliffordParams,
    TwistingMapR,
    alphaAB_ttp,
    check_alphaAB_twisting_map,
    check_deform_compat_ttp,
    check_twisting_map,
    clifford,
    flip,
    iterated_ttp,
)
from homtwist.twistor import (
    Operator2,
    Operator3,
    check_alpha_pseudotwistor,
    check_pseudotwistor,
    check_twistor,
    check_yau_compat,
    deform_with_alpha,
    yau_operator,
)
from homtwist.uqsl2 import (
    MON_E,
    QPlaneElement,
    UqElement,
    UqParams,
    pbw_normalize,
    q_int,
    qp_beta,
    rho_generator_formula,
    uq_alpha,
)


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def _diagonal(*entries):
    n = len(entries)
    return lmap([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _not_hom_associative():
    """k^2 with alpha = diag(1, 2): alpha(e1 e1) = 2 e1 but alpha(e1) alpha(e1) = 4 e1."""
    return hom_algebra(2, k2_algebra().mul, _diagonal(1, 2))


def _doubled_flip():
    return TwistingMapR(2, 2, lmap([[2 * x for x in row] for row in flip(2, 2).map.matrix().data]))


def _broken_right_action():
    right = h4_right_action()
    table = [[list(row) for row in plane] for plane in right.table]
    table[1][1][1] = table[1][1][1] + 1
    return action_table(RIGHT, 4, 2, table, right.alpha_m)


def _g_swaps_action():
    """g swaps 1 and y: a module, but not a module algebra."""
    z, o = ZERO, ONE
    table = (((o, z), (z, o)), ((z, o), (o, z)), ((z, z), (z, z)), ((z, z), (z, z)))
    return action_table(LEFT, 4, 2, table, LinearMap.identity(2))


def _broken_left_action():
    """H4's left action with x . y = 2: not a module."""
    left = h4_left_action()
    table = [[list(row) for row in plane] for plane in left.table]
    table[2][1][0] = table[2][1][0] + 1
    return action_table(LEFT, 4, 2, table, left.alpha_m)


def _scaled_alpha_m_action():
    """H4's left action on the dual numbers, with alpha_M = diag(1, 2)."""
    return action_table(LEFT, 4, 2, h4_left_action().table, _diagonal(1, 2))


def _x_to_x_plus_gx():
    """x -> x + gx and gx -> gx + x on H4: an algebra map that breaks Delta(x)."""
    return lmap([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])


def _trivial_coaction():
    """y^i -> 1 (x) y^i, a left H4-coaction on the dual numbers."""
    table = [[[ONE if (h, j) == (0, m) else ZERO for j in range(2)] for h in range(4)]
             for m in range(2)]
    return coaction_table(LEFT, 4, 2, table, LinearMap.identity(2))


def _perturbed_h4():
    h4 = sweedler_h4()
    comul = [[list(row) for row in plane] for plane in h4.comul]
    comul[1][1][1] += 2
    comul[2][0][1] += 1
    return HomBialgebra(h4.algebra, hom_coalgebra(4, comul))


def _lambda_bundle():
    return build(GalleryKey("ttp_k2_lambda", {"lam": 2}))


def _cases():
    k2, f = k2_algebra(), flip(2, 2)
    lb = _lambda_bundle()
    h4, a, c = sweedler_h4(), dual_numbers(), dual_numbers()
    ident2, ident3 = Operator2.identity(2), Operator3.identity(2)
    id2 = LinearMap.identity(2)
    alpha_h, alpha_a = h4_twists(2)
    return [
        ("iterated_ttp/c_not_hom_associative",
         lambda: iterated_ttp(k2, k2, _not_hom_associative(), f, f, f),
         PreconditionFailure, "precondition failed: check_hom_algebra:B"),
        ("iterated_ttp/a_not_hom_associative",
         lambda: iterated_ttp(_not_hom_associative(), k2, k2, f, f, f),
         PreconditionFailure, "precondition failed: check_hom_algebra:A"),
        ("iterated_ttp/bad_r1",
         lambda: iterated_ttp(k2, k2, k2, _doubled_flip(), f, f),
         PreconditionFailure, "precondition failed: check_hom_twisting_map:R1"),
        ("iterated_ttp/bad_r3",
         lambda: iterated_ttp(k2, k2, k2, f, f, _doubled_flip()),
         PreconditionFailure, "precondition failed: check_hom_twisting_map:R3"),
        ("iterated_ttp/braid",
         lambda: iterated_ttp(lb["A"], lb["B"], k2, lb["R"], lb["R"], f),
         BraidViolation, "braid condition fails; witness (0, 0, 0)"),
        ("smash_two_sided/right_not_a_module",
         lambda: smash_two_sided(a, h4, c, h4_left_action(), _broken_right_action()),
         PreconditionFailure, "precondition failed: check_module"),
        ("smash_two_sided/left_not_a_module_algebra",
         lambda: smash_two_sided(a, h4, c, _g_swaps_action(), h4_right_action()),
         PreconditionFailure, "precondition failed: check_module_hom_algebra"),
        ("check_yau_compat/alpha_not_multiplicative",
         lambda: check_yau_compat(k2, _diagonal(2, 2), ident2, ident3, ident3),
         NotMultiplicative, "alpha is not multiplicative; witness (0, 0)"),
        ("yau_twist_bialgebra/not_a_bialgebra",
         lambda: yau_twist_bialgebra(_perturbed_h4(), alpha_h),
         PreconditionFailure, "precondition failed: check_hom_bialgebra"),
        ("yau_twist_bialgebra/not_classical",
         lambda: yau_twist_bialgebra(yau_twist_bialgebra(h4, alpha_h), alpha_h),
         PreconditionFailure,
         "precondition failed: yau twist input must be a classical bialgebra"),
        ("check_deform_compat_ttp/not_a_twisting_map",
         lambda: check_deform_compat_ttp(
             lb["A"], lb["B"], LinearMap.identity(2), LinearMap.identity(2), _doubled_flip()),
         PreconditionFailure, "precondition failed: check_twisting_map"),
        ("alphaAB_ttp/alpha_a_not_multiplicative",
         lambda: alphaAB_ttp(k2, k2, _diagonal(2, 2), LinearMap.identity(2), f),
         NotMultiplicative, "alpha_A is not multiplicative; witness (0, 0)"),
        ("yau_twist_module_algebra/not_a_module_algebra",
         lambda: yau_twist_module_algebra(h4, a, _g_swaps_action(), alpha_h, alpha_a),
         PreconditionFailure, "precondition failed: classical module algebra axioms"),
        ("smash_left/not_a_module_algebra",
         lambda: smash_left(a, h4, _g_swaps_action()),
         PreconditionFailure, "precondition failed: check_module_hom_algebra"),
        ("smash_right/not_a_module",
         lambda: smash_right(h4, a, _broken_right_action()),
         PreconditionFailure, "precondition failed: check_module"),
        ("tensor_modules/n_not_a_module",
         lambda: tensor_modules(h4, h4_left_action(), _broken_left_action()),
         PreconditionFailure, "precondition failed: check_module:N"),
        ("check_smash_twist_compat/not_a_module_algebra",
         lambda: check_smash_twist_compat(h4, a, _g_swaps_action(), alpha_h, alpha_a),
         PreconditionFailure, "precondition failed: classical module algebra axioms"),
        ("coaction_lambda_smash/not_a_module_algebra",
         lambda: coaction_lambda_smash(a, h4, _g_swaps_action(), _trivial_coaction()),
         PreconditionFailure, "precondition failed: check_module_hom_algebra"),
        ("check_yau_compat/not_classical",
         lambda: check_yau_compat(_not_hom_associative(), id2, ident2, ident3, ident3),
         PreconditionFailure,
         "precondition failed: pseudotwistor base algebra must have identity structure map"),
        ("check_pseudotwistor/not_classical",
         lambda: check_pseudotwistor(_not_hom_associative(), ident2, ident3, ident3),
         PreconditionFailure,
         "precondition failed: pseudotwistor base algebra must have identity structure map"),
        ("check_twistor/not_classical",
         lambda: check_twistor(_not_hom_associative(), ident2),
         PreconditionFailure,
         "precondition failed: twistor base algebra must have identity structure map"),
        ("check_alpha_pseudotwistor/not_classical",
         lambda: check_alpha_pseudotwistor(_not_hom_associative(), id2, ident2, ident3, ident3),
         PreconditionFailure, "precondition failed: base algebra must have identity structure map"),
        ("deform_with_alpha/not_classical",
         lambda: deform_with_alpha(_not_hom_associative(), id2, ident2),
         PreconditionFailure, "precondition failed: base algebra must have identity structure map"),
        ("yau_twist_coalgebra/not_classical",
         lambda: yau_twist_coalgebra(yau_twist_bialgebra(h4, alpha_h).coalgebra, alpha_h),
         PreconditionFailure,
         "precondition failed: yau twist input must have identity structure map"),
        ("check_alphaAB_twisting_map/b_not_classical",
         lambda: check_alphaAB_twisting_map(k2, _not_hom_associative(), id2, id2, f),
         PreconditionFailure, "precondition failed: B must have identity structure map"),
        ("yau_twist_module_algebra/bialgebra_not_classical",
         lambda: yau_twist_module_algebra(
             yau_twist_bialgebra(h4, alpha_h), a, h4_left_action(), alpha_h, alpha_a),
         PreconditionFailure,
         "precondition failed: classical input required (identity structure maps)"),
        ("yau_twist_module_algebra/algebra_not_classical",
         lambda: yau_twist_module_algebra(
             h4, yau_twist_algebra(a, alpha_a), h4_left_action(), alpha_h, alpha_a),
         PreconditionFailure,
         "precondition failed: classical input required (identity structure maps)"),
        ("yau_twist_module_algebra/action_not_classical",
         lambda: yau_twist_module_algebra(h4, a, _scaled_alpha_m_action(), alpha_h, alpha_a),
         PreconditionFailure,
         "precondition failed: classical action required (identity alpha_M)"),
        ("yau_twist_module_algebra/alpha_h_not_multiplicative",
         lambda: yau_twist_module_algebra(
             h4, a, h4_left_action(), _diagonal(2, 1, 1, 1), alpha_a),
         NotMultiplicative, "alpha_H: alpha is not multiplicative; witness (0, 0)"),
        ("yau_twist_module_algebra/alpha_h_not_comultiplicative",
         lambda: yau_twist_module_algebra(h4, a, h4_left_action(), _x_to_x_plus_gx(), alpha_a),
         NotComultiplicative, "alpha_H: alpha is not comultiplicative; witness (2,)"),
        ("yau_twist_module_algebra/alpha_a_not_multiplicative",
         lambda: yau_twist_module_algebra(h4, a, h4_left_action(), alpha_h, _diagonal(2, 1)),
         NotMultiplicative, "alpha_A: alpha is not multiplicative; witness (0, 0)"),
        ("check_yau_compat/operator_dimension",
         lambda: check_yau_compat(
             k2, LinearMap.identity(2), Operator2.identity(3), Operator3.identity(3),
             Operator3.identity(3)),
         DimensionMismatch, "operator dimension does not match the algebra"),
    ]


def _right_coaction(dm, alpha_m):
    """e_m -> e_m (x) 1, a right H4-coaction on a module of dim `dm`."""
    table = [[[ONE if (i, h) == (m, 0) else ZERO for h in range(4)] for i in range(dm)]
             for m in range(dm)]
    return coaction_table(RIGHT, 4, dm, table, alpha_m)


def _rejections():
    k2, h4, a = k2_algebra(), sweedler_h4(), dual_numbers()
    c2 = group_algebra(2)
    id2, id3 = LinearMap.identity(2), LinearMap.identity(3)
    row = lmap([[1, 0]])
    r_params = {"a": 1, "l1": 0, "a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5}
    # zero product, so the swap is multiplicative; it does not commute with this alpha
    skew = hom_algebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], lmap([[1, 1], [0, 1]]))
    return [
        ("modsmash/side",
         lambda: action_table("up", 4, 2, h4_left_action().table, id2),
         ValueError, "side must be 'left' or 'right', got 'up'"),
        ("modsmash/alpha_m_shape",
         lambda: action_table(LEFT, 4, 2, h4_left_action().table, id3),
         DimensionMismatch, "alpha_M shape does not match the module"),
        ("check_module/acting_dim",
         lambda: check_module(k2, h4_left_action()),
         DimensionMismatch, "acting dimension does not match the algebra"),
        ("check_module_hom_algebra/module_dim",
         lambda: check_module_hom_algebra(h4, h4.algebra, h4_left_action()),
         DimensionMismatch, "module dimension does not match the algebra"),
        ("check_comodule_hom_algebra/module_dim",
         lambda: check_comodule_hom_algebra(h4, h4.algebra, _trivial_coaction()),
         DimensionMismatch, "module dimension does not match the algebra"),
        ("check_module_hom_algebra/alpha_m",
         lambda: check_module_hom_algebra(h4, a, _scaled_alpha_m_action()),
         PreconditionFailure,
         "precondition failed: action alpha_M must equal the algebra structure map"),
        ("check_comodule_hom_algebra/alpha_m",
         lambda: check_comodule_hom_algebra(h4, a, _right_coaction(2, _diagonal(1, 2))),
         PreconditionFailure,
         "precondition failed: coaction alpha_M must equal the algebra structure map"),
        ("tensor_modules/right_action",
         lambda: tensor_modules(h4, h4_right_action(), h4_left_action()),
         PreconditionFailure, "precondition failed: tensor_modules requires left modules"),
        ("check_comodule/coalgebra_dim",
         lambda: check_comodule(c2.coalgebra, _trivial_coaction()),
         DimensionMismatch, "coalgebra dimension does not match"),
        ("check_bicomodule/sides",
         lambda: check_bicomodule(h4.coalgebra, _right_coaction(2, id2), _right_coaction(2, id2)),
         DimensionMismatch, "bicomodule needs a left and a right coaction"),
        ("check_bicomodule/shared_module",
         lambda: check_bicomodule(
             h4.coalgebra, _trivial_coaction(), _right_coaction(1, LinearMap.identity(1))),
         PreconditionFailure, "precondition failed: coactions must share the module and alpha_M"),
        ("check_yetter_drinfeld/right_action",
         lambda: check_yetter_drinfeld(h4, h4_right_action(), _trivial_coaction()),
         PreconditionFailure, "precondition failed: Yetter-Drinfeld data must be left-sided"),
        ("hom_coalgebra/alpha_shape",
         lambda: hom_coalgebra(2, c2.comul, id3),
         DimensionMismatch, "alpha shape does not match the coalgebra"),
        ("HomBialgebra/dims",
         lambda: HomBialgebra(k2, h4.coalgebra),
         DimensionMismatch, "algebra and coalgebra dimensions differ"),
        ("HomBialgebra/alphas",
         lambda: HomBialgebra(hom_algebra(2, c2.algebra.mul, swap_matrix()), c2.coalgebra),
         PreconditionFailure,
         "precondition failed: algebra and coalgebra must share the structure map"),
        ("yau_twist_coalgebra/alpha_shape",
         lambda: yau_twist_coalgebra(h4.coalgebra, id2),
         DimensionMismatch, "alpha shape does not match the coalgebra"),
        ("hom_algebra/alpha_shape",
         lambda: hom_algebra(2, k2.mul, id3),
         DimensionMismatch, "alpha is 3x3, expected 2x2"),
        ("TwistingMapR/shape",
         lambda: TwistingMapR(2, 2, id3),
         DimensionMismatch, "twisting map matrix must be 4x4"),
        ("check_twisting_map/dims",
         lambda: check_twisting_map(k2, k2, flip(2, 1)),
         DimensionMismatch, "twisting map is (2,1), algebras are (2,2)"),
        ("CliffordParams/sigma_not_square",
         lambda: CliffordParams(1, row),
         DimensionMismatch, "sigma must be square"),
        ("CliffordParams/not_involutive",
         lambda: CliffordParams(1, _diagonal(1, 2)),
         NotInvolutive, "sigma squared is not the identity; witness (1,)"),
        ("clifford/sigma_shape",
         lambda: clifford(k2, CliffordParams(1, id3)),
         DimensionMismatch, "sigma shape does not match the algebra"),
        ("clifford/not_commuting",
         lambda: clifford(skew, CliffordParams(1, swap_matrix())),
         NotCommutingWithAlpha, "sigma does not commute with the structure map; witness (0,)"),
        ("Operator2/shape",
         lambda: Operator2(2, id3),
         DimensionMismatch, "operator matrix must be 4x4"),
        ("yau_operator/not_square",
         lambda: yau_operator(row),
         DimensionMismatch, "alpha must be square"),
        ("h4_twists/zero_scale",
         lambda: h4_twists(0),
         ParamConstraintViolation, "twist scale must be nonzero"),
        ("homtwist_R1/l1_zero",
         lambda: build(GalleryKey("homtwist_R1", r_params)),
         ParamConstraintViolation, "l1 must be nonzero"),
        ("uq_setup/l_not_an_integer",
         lambda: build(GalleryKey("uq_setup", {"q": 2, "lam": 1, "xi": 1, "l": "1/2"})),
         ParamConstraintViolation, "l must be an integer"),
        ("LinearMap/column_count",
         lambda: LinearMap((2,), (2,), [()]),
         DimensionMismatch, "1 columns for source dims (2,)"),
        ("LinearMap.reshaped/size",
         lambda: id2.reshaped((3,), (2,)),
         DimensionMismatch, "cannot regroup (2,) -> (2,) as (3,) -> (2,)"),
        ("flatten_index/length",
         lambda: flatten_index((2, 2), (0,)),
         DimensionMismatch, "index (0,) does not match dims (2, 2)"),
        ("flatten_index/range",
         lambda: flatten_index((2, 2), (0, 2)),
         DimensionMismatch, "index (0, 2) out of range for dims (2, 2)"),
        ("pbw_normalize/generator",
         lambda: pbw_normalize(("X",), 2),
         ValueError, "unknown generator 'X'"),
        ("rho_generator_formula/generator",
         lambda: rho_generator_formula("X", 0, 0, build(GalleryKey(
             "uq_setup", {"q": 2, "lam": 1, "xi": 1, "l": 0}))["params"]),
         ValueError, "unknown generator 'X'"),
    ] + [
        # a power of alpha, beta or q is an int of either sign; a float or a bool is not
        (f"uq_alpha/k_{label}",
         lambda k=k: uq_alpha(UqElement.monomial(MON_E), k, 2),
         ParamConstraintViolation, f"k must be an integer, got {k!r}")
        for label, k in (("half", 0.5), ("float_one", 1.0), ("true", True))
    ] + [
        (f"qp_beta/k_{label}",
         lambda k=k: qp_beta(QPlaneElement.monomial((1, 0)), k, UqParams(2, 3, 5)),
         ParamConstraintViolation, f"k must be an integer, got {k!r}")
        for label, k in (("half", 0.5), ("false", False))
    ] + [
        (f"q_int/n_{label}",
         lambda n=n: q_int(n, 2),
         ParamConstraintViolation, f"n must be an integer, got {n!r}")
        for label, n in (("half", 0.5), ("float_two", 2.0), ("true", True))
    ]


CASES = _cases() + _rejections()


@pytest.mark.parametrize(
    "thunk, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_first_raised_exception_is_pinned(thunk, error, message):
    with pytest.raises(Exception) as info:
        thunk()
    assert type(info.value) is error
    assert str(info.value) == message
