"""Characterization test: every checker's full report, pinned.

For each checker in ``twisted``, ``twistor``, ``modsmash`` and ``coalgebra``
this runs one passing gallery input and one perturbed input, and compares the
complete outcome with ``witness_golden.json``: ``passed``, then every recorded
failure (equation, basis, lhs, rhs) in scan order, or the type and message of
the precondition exception raised.  The constructors that tabulate composites
are pinned by a digest of their structure constants.

The fixture was written at the commit before the tensor-apply kernel existed,
and is the oracle for that refactor: never regenerate it to make this test
pass.  ``test_gate`` pins its SHA-256.
"""

import hashlib
import json
import pathlib

import pytest

from homtwist.algebra import HomAlgebra, hom_algebra
from homtwist.coalgebra import (
    HomBialgebra,
    HomCoalgebra,
    check_coassociative,
    check_hom_bialgebra,
    check_hom_coalgebra,
    hom_coalgebra,
    yau_twist_bialgebra,
    yau_twist_coalgebra,
)
from homtwist.errors import HomTwistError
from homtwist.exact import LinearMap, ONE, Q, ZERO, kron
from homtwist.gallery import (
    GalleryKey,
    build,
    c2_trivial_yd,
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
    ActionTable,
    CoactionTable,
    action_table,
    check_bicomodule,
    check_comodule,
    check_comodule_hom_algebra,
    check_module,
    check_module_hom_algebra,
    check_smash_twist_compat,
    check_yetter_drinfeld,
    coaction_lambda_right_smash,
    coaction_lambda_smash,
    coaction_rho_smash,
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
    check_braid,
    check_deform_compat_ttp,
    check_hom_twisting_map,
    check_twisting_map,
    clifford,
    CliffordParams,
    flip,
    hom_ttp,
    hom_twistor_from_R,
    iterated_ttp,
    ttp,
    twistor_from_R,
)
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
from inputs import (
    lambda_bundle,
    lambda_twistor,
    r1_bundle,
    regular_action,
    regular_coaction,
    swap_operator2,
    twistor_bundle,
)
from linear_maps import lmap

FIXTURE = pathlib.Path(__file__).with_name("witness_golden.json")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _bumped(f, r, c, by=1):
    rows = [list(row) for row in f.matrix().data]
    rows[r][c] = rows[r][c] + by
    return lmap(rows)


def _scaled(f, by):
    return lmap([[x * by for x in row] for row in f.matrix().data])


def _edit_table(table, edits):
    out = [[list(row) for row in plane] for plane in table]
    for (i, j, k), value in edits.items():
        out[i][j][k] = value
    return out


def h4_bad_g_action():
    """g swaps 1 and y: a module, but not a module algebra."""
    z, o = ZERO, ONE
    table = (((o, z), (z, o)), ((z, o), (o, z)), ((z, z), (z, z)), ((z, z), (z, z)))
    return action_table(LEFT, 4, 2, table, LinearMap.identity(2))


def twisted_h4(c=2):
    alpha_h, _ = h4_twists(c)
    return yau_twist_bialgebra(sweedler_h4(), alpha_h)


def perturbed_h4_bialgebra():
    h4 = sweedler_h4()
    comul = _edit_table(h4.comul, {(1, 1, 1): Q(2), (2, 0, 1): ONE})
    return HomBialgebra(h4.algebra, hom_coalgebra(4, comul))


def checker_cases():
    """(case id, thunk) pairs; each thunk returns a CheckReport or raises."""
    cases = []

    def case(name, thunk):
        cases.append((name, thunk))

    z, o = ZERO, ONE

    # twisted.py
    lb = lambda_bundle(2)
    case("twisting_map/pass", lambda: check_twisting_map(lb["A"], lb["B"], lb["R"]))
    bad_r = TwistingMapR(2, 2, _bumped(lb["R"].map, 1, 2))
    case("twisting_map/fail", lambda: check_twisting_map(lb["A"], lb["B"], bad_r))
    case(
        "twisting_map/precondition",
        lambda: check_twisting_map(twistor_bundle()["D"], lb["B"], lb["R"]),
    )
    r1 = r1_bundle()
    case("hom_twisting_map/pass", lambda: check_hom_twisting_map(r1["A"], r1["B"], r1["R"]))
    bad_r1 = TwistingMapR(2, 2, _bumped(r1["R"].map, 0, 3, Q(1, 2)))
    case("hom_twisting_map/fail", lambda: check_hom_twisting_map(r1["A"], r1["B"], bad_r1))
    c3 = group_algebra(3).algebra
    doubled = TwistingMapR(3, 3, _scaled(flip(3, 3).map, 2))
    case("hom_twisting_map/cap", lambda: check_hom_twisting_map(c3, c3, doubled))
    bad_alpha = hom_algebra(2, k2_algebra().mul, lmap([[1, 1], [0, 1]]))
    case(
        "hom_twisting_map/precondition",
        lambda: check_hom_twisting_map(bad_alpha, k2_algebra(), flip(2, 2)),
    )
    case("braid/pass", lambda: check_braid(lb["R"], lb["R"], lb["R"]))
    case("braid/fail", lambda: check_braid(lb["R"], lb["R"], flip(2, 2)))
    case(
        "braid/fail_mixed",
        lambda: check_braid(
            TwistingMapR(3, 2, _bumped(flip(3, 2).map, 4, 1)),
            flip(2, 2),
            TwistingMapR(3, 2, _bumped(flip(3, 2).map, 2, 3)),
        ),
    )
    ident2 = LinearMap.identity(2)
    case(
        "deform_compat_ttp/pass",
        lambda: check_deform_compat_ttp(lb["A"], lb["B"], ident2, ident2, lb["R"]),
    )
    sw = swap_matrix()
    case(
        "deform_compat_ttp/flip_swap",
        lambda: check_deform_compat_ttp(k2_algebra(), k2_algebra(), sw, sw, flip(2, 2)),
    )
    case(
        "deform_compat_ttp/precondition",
        lambda: check_deform_compat_ttp(lb["A"], lb["B"], sw, ident2, lb["R"]),
    )
    af = build(GalleryKey("alpha_ttp_flip", {}))
    case(
        "alphaAB_twisting_map/pass",
        lambda: check_alphaAB_twisting_map(af["A"], af["B"], af["alphaA"], af["alphaB"], af["R"]),
    )
    case(
        "alphaAB_twisting_map/fail",
        lambda: check_alphaAB_twisting_map(k2_algebra(), k2_algebra(), sw, sw, flip(2, 2)),
    )
    case(
        "alphaAB_twisting_map/fail_bumped",
        lambda: check_alphaAB_twisting_map(
            af["A"], af["B"], af["alphaA"], af["alphaB"], TwistingMapR(2, 2, _bumped(af["R"].map, 2, 1))
        ),
    )

    # twistor.py
    ten, t = lambda_twistor(2)
    lifted = lift_13(t)
    k2 = k2_algebra()
    i3 = Operator3.identity(2)
    case("pseudotwistor/pass", lambda: check_pseudotwistor(ten, t, lifted, lifted))
    case("pseudotwistor/fail", lambda: check_pseudotwistor(k2, swap_operator2(), i3, i3))
    lt3 = Operator3(4, _bumped(lifted.map, 5, 7))
    case("pseudotwistor/fail_companion", lambda: check_pseudotwistor(ten, t, lt3, lifted))
    arbitrary = Operator2(2, lmap([[1, 2, 0, 0], [0, 1, 1, 0], [3, 0, 1, 0], [0, 0, 0, 1]]))
    case("twistor/pass", lambda: check_twistor(ten, t))
    case("twistor/fail", lambda: check_twistor(k2, arbitrary))
    case("twistor/precondition", lambda: check_twistor(twistor_bundle()["D"], t))
    tb = twistor_bundle()
    tlift = lift_13(tb["T"])
    case("hom_pseudotwistor/pass", lambda: check_hom_pseudotwistor(tb["D"], tb["T"], tlift, tlift))
    case("hom_pseudotwistor/fail", lambda: check_hom_pseudotwistor(tb["D"], tb["T"], i3, i3))
    bumped_t = Operator2(2, _bumped(tb["T"].map, 1, 1))
    case("hom_twistor/pass", lambda: check_hom_twistor(tb["D"], tb["T"]))
    case("hom_twistor/fail", lambda: check_hom_twistor(tb["D"], bumped_t))
    case("hom_twistor/fail_arbitrary", lambda: check_hom_twistor(tb["D"], arbitrary))
    yt, yc1, yc2 = yau_operator(sw)
    case("alpha_pseudotwistor/pass", lambda: check_alpha_pseudotwistor(k2, sw, yt, yc1, yc2))
    i2op = Operator2.identity(2)
    case("alpha_pseudotwistor/fail", lambda: check_alpha_pseudotwistor(k2, sw, i2op, i3, i3))
    case(
        "alpha_pseudotwistor/fail_arbitrary",
        lambda: check_alpha_pseudotwistor(k2, sw, arbitrary, yc1, yc2),
    )
    case(
        "alpha_pseudotwistor/precondition",
        lambda: check_alpha_pseudotwistor(k2, lmap([[1, 1], [0, 1]]), i2op, i3, i3),
    )
    ident4 = LinearMap.identity(4)
    case("yau_compat/pass", lambda: check_yau_compat(ten, ident4, t, lifted, lifted))
    case(
        "yau_compat/swap_swap",
        lambda: check_yau_compat(ten, kron(sw, sw), t, lifted, lifted),
    )
    case("yau_compat/precondition", lambda: check_yau_compat(k2, ident2, swap_operator2(), i3, i3))

    # modsmash.py
    h4 = sweedler_h4()
    act = h4_left_action()
    bad_act = action_table(LEFT, 4, 2, _edit_table(act.table, {(2, 0, 0): ONE}), act.alpha_m)
    case("module/pass", lambda: check_module(h4.algebra, regular_action(h4)))
    case("module/pass_hom", lambda: check_module(twisted_h4().algebra, regular_action(twisted_h4())))
    case("module/fail", lambda: check_module(h4.algebra, bad_act))
    case("module/right_pass", lambda: check_module(h4.algebra, h4_right_action()))
    ract = h4_right_action()
    bad_ract = action_table(RIGHT, 4, 2, _edit_table(ract.table, {(1, 0, 0): Q(2)}), ract.alpha_m)
    case("module/right_fail", lambda: check_module(h4.algebra, bad_ract))
    case("module_hom_algebra/pass", lambda: check_module_hom_algebra(h4, dual_numbers(), act))
    case(
        "module_hom_algebra/fail",
        lambda: check_module_hom_algebra(h4, dual_numbers(), h4_bad_g_action()),
    )
    case(
        "module_hom_algebra/right_pass",
        lambda: check_module_hom_algebra(h4, dual_numbers(), ract),
    )
    case(
        "module_hom_algebra/precondition",
        lambda: check_module_hom_algebra(h4, dual_numbers(), bad_act),
    )
    th = twisted_h4()
    alpha_h, alpha_a = h4_twists(2)
    hb, alg, tact = yau_twist_module_algebra(h4, dual_numbers(), act, alpha_h, alpha_a)
    case("module_hom_algebra/twisted_pass", lambda: check_module_hom_algebra(hb, alg, tact))
    bad_tact = action_table(LEFT, 4, 2, _edit_table(tact.table, {(3, 1, 0): Q(5)}), tact.alpha_m)
    case("module_hom_algebra/twisted_precondition", lambda: check_module_hom_algebra(hb, alg, bad_tact))
    for side in (LEFT, RIGHT):
        case(f"comodule/{side}_pass", lambda side=side: check_comodule(h4.coalgebra, regular_coaction(h4, side)))
        case(
            f"comodule/{side}_pass_hom",
            lambda side=side: check_comodule(th.coalgebra, regular_coaction(th, side)),
        )
        co = regular_coaction(h4, side)
        bad_co = coaction_table(side, 4, 4, _edit_table(co.table, {(1, 0, 0): Q(2), (3, 2, 1): ONE}), co.alpha_m)
        case(f"comodule/{side}_fail", lambda side=side, bad_co=bad_co: check_comodule(h4.coalgebra, bad_co))
    rho = coaction_rho_smash(dual_numbers(), h4, act)
    bad_rho = coaction_table(RIGHT, 4, 8, _edit_table(rho.table, {(0, 0, 1): ONE}), rho.alpha_m)
    case("comodule/rho_smash_fail", lambda: check_comodule(h4.coalgebra, bad_rho))
    lam_h4, rho_h4 = regular_coaction(h4, LEFT), regular_coaction(h4, RIGHT)
    case("bicomodule/pass", lambda: check_bicomodule(h4.coalgebra, lam_h4, rho_h4))
    case(
        "bicomodule/pass_hom",
        lambda: check_bicomodule(th.coalgebra, regular_coaction(th, LEFT), regular_coaction(th, RIGHT)),
    )
    c2 = group_algebra(2)
    skew = coaction_table(
        RIGHT, 2, 2, _edit_table(c2.comul, {(1, 0, 1): ONE, (1, 1, 1): ZERO}), c2.alpha
    )
    case("bicomodule/skew", lambda: check_bicomodule(c2.coalgebra, regular_coaction(c2, LEFT), skew))
    flip_lam = coaction_table(
        LEFT, 2, 2, ((((ONE, ZERO), (ZERO, ZERO))), ((ZERO, ZERO), (ZERO, ONE))), LinearMap.identity(2)
    )
    flip_rho = coaction_table(
        RIGHT, 2, 2, ((((ZERO, ONE), (ZERO, ZERO))), ((ONE, ZERO), (ZERO, ZERO))), LinearMap.identity(2)
    )
    case("bicomodule/mixed", lambda: check_bicomodule(c2.coalgebra, flip_lam, flip_rho))
    h = Q(1, 2)
    graded_lam = coaction_table(LEFT, 2, 2, (((o, z), (z, z)), ((z, z), (z, o))), LinearMap.identity(2))
    rotated_rho = coaction_table(RIGHT, 2, 2, (((h, h), (h, -h)), ((h, -h), (h, h))), LinearMap.identity(2))
    case("bicomodule/fail", lambda: check_bicomodule(c2.coalgebra, graded_lam, rotated_rho))
    bi, module, yd_act, yd_co = c2_trivial_yd()
    case("comodule_hom_algebra/pass", lambda: check_comodule_hom_algebra(bi, module, yd_co))
    case(
        "comodule_hom_algebra/pass_regular",
        lambda: check_comodule_hom_algebra(h4, h4.algebra, lam_h4),
    )
    _, smash = smash_left(dual_numbers(), h4, act)
    case("comodule_hom_algebra/right_pass", lambda: check_comodule_hom_algebra(h4, smash, rho))
    bad_yd_co = coaction_table(LEFT, 2, 2, _edit_table(yd_co.table, {(1, 1, 1): ONE}), yd_co.alpha_m)
    case("comodule_hom_algebra/precondition", lambda: check_comodule_hom_algebra(bi, module, bad_yd_co))
    bad_rho2 = coaction_table(RIGHT, 4, 8, _edit_table(rho.table, {(5, 4, 1): Q(-1)}), rho.alpha_m)
    case("comodule_hom_algebra/right_precondition", lambda: check_comodule_hom_algebra(h4, smash, bad_rho2))
    odd_unit_left = coaction_table(LEFT, 2, 2, (((z, z), (o, z)), ((z, o), (z, z))), LinearMap.identity(2))
    odd_unit_right = coaction_table(RIGHT, 2, 2, (((z, o), (z, z)), ((z, z), (o, z))), LinearMap.identity(2))
    case(
        "comodule_hom_algebra/fail_grading",
        lambda: check_comodule_hom_algebra(c2, dual_numbers(), odd_unit_left),
    )
    case(
        "comodule_hom_algebra/right_fail_grading",
        lambda: check_comodule_hom_algebra(c2, dual_numbers(), odd_unit_right),
    )
    case("yetter_drinfeld/pass", lambda: check_yetter_drinfeld(bi, yd_act, yd_co))
    case(
        "yetter_drinfeld/fail",
        lambda: check_yetter_drinfeld(c2, regular_action(c2), regular_coaction(c2, LEFT)),
    )
    case(
        "yetter_drinfeld/fail_h4",
        lambda: check_yetter_drinfeld(h4, regular_action(h4), regular_coaction(h4, LEFT)),
    )
    case(
        "yetter_drinfeld/precondition",
        lambda: check_yetter_drinfeld(h4, bad_act, regular_coaction(h4, LEFT)),
    )
    ident4h = LinearMap.identity(4)
    case(
        "smash_twist_compat/pass",
        lambda: check_smash_twist_compat(h4, dual_numbers(), act, ident4h, ident2),
    )
    case(
        "smash_twist_compat/pass_twisted_right",
        lambda: check_smash_twist_compat(h4, dual_numbers(), ract, alpha_h, alpha_a),
    )
    case(
        "smash_twist_compat/precondition",
        lambda: check_smash_twist_compat(h4, dual_numbers(), act, alpha_h, lmap([[1, 0], [0, 3]])),
    )

    # coalgebra.py
    case("hom_coalgebra/pass", lambda: check_hom_coalgebra(th.coalgebra))
    bad_co = hom_coalgebra(4, _edit_table(th.comul, {(3, 1, 2): Q(7), (0, 3, 3): ONE}), th.alpha)
    case("hom_coalgebra/fail", lambda: check_hom_coalgebra(bad_co))
    case("coassociative/pass", lambda: check_coassociative(h4.coalgebra))
    case("coassociative/fail", lambda: check_coassociative(perturbed_h4_bialgebra().coalgebra))
    case("hom_bialgebra/pass", lambda: check_hom_bialgebra(th))
    case("hom_bialgebra/pass_group", lambda: check_hom_bialgebra(group_algebra(3)))
    case("hom_bialgebra/fail", lambda: check_hom_bialgebra(perturbed_h4_bialgebra()))
    bad_mul = _edit_table(h4.algebra.mul, {(1, 1, 1): ONE})
    case(
        "hom_bialgebra/fail_mul",
        lambda: check_hom_bialgebra(HomBialgebra(hom_algebra(4, bad_mul), h4.coalgebra)),
    )
    return cases


def constructor_cases():
    """(case id, thunk) pairs; each thunk returns the constructed object(s)."""
    lb = lambda_bundle(2)
    r1 = r1_bundle()
    tb = twistor_bundle()
    k2 = k2_algebra()
    sw = swap_matrix()
    h4 = sweedler_h4()
    act = h4_left_action()
    ract = h4_right_action()
    alpha_h, alpha_a = h4_twists(2)
    dk2 = build(GalleryKey("homtwist_Dk2", {"a": 1, "l1": 2, "a1": 1, "a2": 3}))
    af = build(GalleryKey("alpha_ttp_flip", {}))
    acl = build(GalleryKey("alpha_ttp_clifford", {"q": 3}))
    bi, module, yd_act, yd_co = c2_trivial_yd()
    return [
        ("ttp", lambda: ttp(lb["A"], lb["B"], lb["R"])),
        ("hom_ttp", lambda: hom_ttp(r1["A"], r1["B"], r1["R"])),
        ("twistor_from_R", lambda: twistor_from_R(lb["A"], lb["B"], lb["R"])),
        ("hom_twistor_from_R", lambda: hom_twistor_from_R(r1["A"], r1["B"], r1["R"])),
        (
            "iterated_ttp",
            lambda: iterated_ttp(dk2["A"], dk2["B"], k2, dk2["R"], flip(2, 2), flip(2, 2)),
        ),
        ("iterated_ttp_lambda", lambda: iterated_ttp(lb["A"], lb["B"], k2, lb["R"], lb["R"], lb["R"])),
        ("clifford", lambda: clifford(k2, CliffordParams(Q(-2), sw))),
        ("alphaAB_ttp_flip", lambda: alphaAB_ttp(af["A"], af["B"], af["alphaA"], af["alphaB"], af["R"])),
        (
            "alphaAB_ttp_clifford",
            lambda: alphaAB_ttp(acl["A"], acl["B"], acl["alphaA"], acl["alphaB"], acl["R"]),
        ),
        ("deform", lambda: deform(tb["D"], tb["T"])),
        ("deform_with_alpha", lambda: deform_with_alpha(k2, sw, yau_operator(sw)[0])),
        ("lift_13", lambda: lift_13(tb["T"])),
        ("lift_13_dim4", lambda: lift_13(twistor_from_R(lb["A"], lb["B"], lb["R"]))),
        ("yau_operator", lambda: yau_operator(lmap([[1, 2], [0, 3]]))),
        ("tensor_modules", lambda: tensor_modules(h4, act, act)),
        ("smash_left", lambda: smash_left(dual_numbers(), h4, act)),
        ("smash_right", lambda: smash_right(h4, dual_numbers(), ract)),
        ("smash_left_twisted", lambda: _twisted_smash_left()),
        ("smash_two_sided", lambda: smash_two_sided(dual_numbers(), h4, dual_numbers(), act, ract)),
        ("coaction_rho_smash", lambda: coaction_rho_smash(dual_numbers(), h4, act)),
        ("coaction_lambda_smash", lambda: coaction_lambda_smash(module, bi, yd_act, yd_co)),
        ("coaction_lambda_right_smash", lambda: coaction_lambda_right_smash(h4, dual_numbers(), ract)),
        ("yau_twist_coalgebra", lambda: yau_twist_coalgebra(h4.coalgebra, alpha_h)),
        ("yau_twist_bialgebra", lambda: yau_twist_bialgebra(h4, alpha_h)),
        (
            "yau_twist_module_algebra",
            lambda: yau_twist_module_algebra(h4, dual_numbers(), ract, alpha_h, alpha_a),
        ),
    ]


def _twisted_smash_left():
    alpha_h, alpha_a = h4_twists(Q(-1, 3))
    hb, alg, tact = yau_twist_module_algebra(
        sweedler_h4(), dual_numbers(), h4_left_action(), alpha_h, alpha_a
    )
    return smash_left(alg, hb, tact)


# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------


def _canonical(obj):
    """A text form of a constructed object that covers every structure field."""
    if isinstance(obj, LinearMap):  # digested through its dense view
        return "M" + repr([[str(x) for x in row] for row in obj.matrix().data])
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(_canonical(x) for x in obj) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, HomAlgebra):
        return f"A{obj.dim}{_canonical(obj.mul)}{_canonical(obj.alpha)}"
    if isinstance(obj, HomCoalgebra):
        return f"C{obj.dim}{_canonical(obj.comul)}{_canonical(obj.alpha)}"
    if isinstance(obj, HomBialgebra):
        return f"B{_canonical(obj.algebra)}{_canonical(obj.coalgebra)}"
    if isinstance(obj, TwistingMapR):
        return f"R{obj.dim_a},{obj.dim_b}{_canonical(obj.map)}"
    if isinstance(obj, (Operator2, Operator3)):
        return f"{type(obj).__name__}{obj.dim}{_canonical(obj.map)}"
    if isinstance(obj, ActionTable):
        return f"act{obj.side}{obj.acting_dim},{obj.module_dim}{_canonical(obj.table)}{_canonical(obj.alpha_m)}"
    if isinstance(obj, CoactionTable):
        return f"coact{obj.side}{obj.coalgebra_dim},{obj.module_dim}{_canonical(obj.table)}{_canonical(obj.alpha_m)}"
    return str(obj)


def _raised(exc):
    return {"raises": type(exc).__name__, "message": str(exc)}


def checker_outcome(thunk):
    try:
        rep = thunk()
    except HomTwistError as exc:
        return _raised(exc)
    return {
        "passed": rep.passed,
        "failures": [
            [f.equation, list(f.basis), [str(x) for x in f.lhs], [str(x) for x in f.rhs]]
            for f in rep.failures
        ],
    }


def constructor_outcome(thunk):
    try:
        built = thunk()
    except HomTwistError as exc:
        return _raised(exc)
    return {"sha256": hashlib.sha256(_canonical(built).encode()).hexdigest()}


def outcomes():
    return {
        "checkers": {name: checker_outcome(t) for name, t in checker_cases()},
        "constructors": {name: constructor_outcome(t) for name, t in constructor_cases()},
    }


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name,thunk", checker_cases(), ids=[n for n, _ in checker_cases()])
def test_checker_report_is_pinned(golden, name, thunk):
    assert checker_outcome(thunk) == golden["checkers"][name]


@pytest.mark.parametrize("name,thunk", constructor_cases(), ids=[n for n, _ in constructor_cases()])
def test_constructor_output_is_pinned(golden, name, thunk):
    assert constructor_outcome(thunk) == golden["constructors"][name]


def test_fixture_covers_every_case(golden):
    assert set(golden["checkers"]) == {n for n, _ in checker_cases()}
    assert set(golden["constructors"]) == {n for n, _ in constructor_cases()}


def test_fixture_pins_failures_caps_and_preconditions(golden):
    records = golden["checkers"].values()
    assert any(r.get("passed") is False and len(r["failures"]) == 16 for r in records)
    assert any("raises" in r for r in records)
    assert sum(1 for r in records if r.get("passed")) >= 20

