"""The first exception a composite constructor raises, pinned by type and message.

Each composite verifies several hypotheses before it builds anything, and the
order of those checks decides which one a bad input reports.  These cases fix
that order from the outside, one failing hypothesis at a time.
"""

import pytest

from homtwist.algebra import hom_algebra, yau_twist_algebra
from homtwist.coalgebra import HomBialgebra, hom_coalgebra, yau_twist_bialgebra, yau_twist_coalgebra
from homtwist.errors import (
    BraidViolation,
    DimensionMismatch,
    NotComultiplicative,
    NotMultiplicative,
    PreconditionFailure,
)
from homtwist.exact import LinearMap, Matrix, ONE, ZERO
from homtwist.gallery import (
    GalleryKey,
    build,
    dual_numbers,
    h4_left_action,
    h4_right_action,
    h4_twists,
    k2_algebra,
    sweedler_h4,
)
from homtwist.modsmash import (
    LEFT,
    RIGHT,
    action_table,
    check_smash_twist_compat,
    coaction_lambda_smash,
    coaction_table,
    smash_left,
    smash_right,
    smash_two_sided,
    tensor_modules,
    yau_twist_module_algebra,
)
from homtwist.twisted import (
    TwistingMapR,
    alphaAB_ttp,
    check_alphaAB_twisting_map,
    check_deform_compat_ttp,
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
)


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_matrix(Matrix(rows))


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
         NotMultiplicative, "alpha is not multiplicative; witness (0, 0)"),
        ("yau_twist_module_algebra/alpha_h_not_comultiplicative",
         lambda: yau_twist_module_algebra(h4, a, h4_left_action(), _x_to_x_plus_gx(), alpha_a),
         NotComultiplicative, "alpha is not comultiplicative; witness (2,)"),
        ("yau_twist_module_algebra/alpha_a_not_multiplicative",
         lambda: yau_twist_module_algebra(h4, a, h4_left_action(), alpha_h, _diagonal(2, 1)),
         NotMultiplicative, "alpha is not multiplicative; witness (0, 0)"),
        ("check_yau_compat/operator_dimension",
         lambda: check_yau_compat(
             k2, LinearMap.identity(2), Operator2.identity(3), Operator3.identity(3),
             Operator3.identity(3)),
         DimensionMismatch, "operator dimension does not match the algebra"),
    ]


@pytest.mark.parametrize(
    "thunk, error, message", [c[1:] for c in _cases()], ids=[c[0] for c in _cases()]
)
def test_first_raised_exception_is_pinned(thunk, error, message):
    with pytest.raises(Exception) as info:
        thunk()
    assert type(info.value) is error
    assert str(info.value) == message

