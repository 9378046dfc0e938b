import pytest

from homtwist.algebra import check_hom_algebra, hom_algebra, tensor_algebra
from homtwist.errors import DimensionMismatch, IntertwiningFailure, PreconditionFailure
from homtwist.exact import LinearMap, ONE, Q, ZERO
from homtwist.gallery import (
    c2_trivial_yd,
    dual_numbers,
    group_algebra,
    h4_left_action,
    h4_right_action,
    h4_twists,
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


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def zero_algebra(dim):
    """Zero multiplication, identity structure map."""
    return hom_algebra(dim, [[[0] * dim for _ in range(dim)] for _ in range(dim)])


def regular_action(bialgebra):
    """H acting on itself by its own multiplication."""
    h = bialgebra.algebra
    table = tuple(tuple(tuple(h.mul[i][j]) for j in range(h.dim)) for i in range(h.dim))
    return action_table(LEFT, h.dim, h.dim, table, h.alpha)


def zero_action(bialgebra, module_dim, alpha_m=None, side=LEFT):
    table = tuple(
        tuple((ZERO,) * module_dim for _ in range(module_dim)) for _ in range(bialgebra.dim)
    )
    alpha_m = alpha_m or LinearMap.identity(module_dim)
    return action_table(side, bialgebra.dim, module_dim, table, alpha_m)


def regular_coaction(bialgebra, side):
    c = bialgebra.coalgebra
    if side == LEFT:
        table = tuple(tuple(tuple(row) for row in plane) for plane in c.comul)
    else:
        table = tuple(tuple(tuple(row) for row in plane) for plane in c.comul)
    return coaction_table(side, c.dim, c.dim, table, c.alpha)


def zero_coaction(bialgebra, module_dim, side):
    dims = (bialgebra.dim, module_dim) if side == LEFT else (module_dim, bialgebra.dim)
    table = tuple(
        tuple((ZERO,) * dims[1] for _ in range(dims[0])) for _ in range(module_dim)
    )
    return coaction_table(side, bialgebra.dim, module_dim, table, LinearMap.identity(module_dim))


class TestCheckModule:
    def test_regular_representation(self):
        h4 = sweedler_h4()
        assert check_module(h4.algebra, regular_action(h4)).passed

    def test_hom_regular_representation(self):
        # for a genuinely Hom bialgebra the module axioms on the regular
        # action are exactly multiplicativity and Hom-associativity
        from homtwist.coalgebra import yau_twist_bialgebra
        from homtwist.gallery import h4_twists

        alpha_h, _ = h4_twists(2)
        twisted = yau_twist_bialgebra(sweedler_h4(), alpha_h)
        assert check_module(twisted.algebra, regular_action(twisted)).passed

    def test_zero_action(self):
        h4 = sweedler_h4()
        assert check_module(h4.algebra, zero_action(h4, 2)).passed

    def test_perturbed_action_fails(self):
        h4 = sweedler_h4()
        act = h4_left_action()
        table = [list(list(r) for r in p) for p in act.table]
        table[2][0][0] = ONE  # x . 1 = 1 breaks the module axioms
        bad = action_table(LEFT, 4, 2, table, act.alpha_m)
        assert not check_module(h4.algebra, bad).passed

    def test_right_module(self):
        h4 = sweedler_h4()
        assert check_module(h4.algebra, h4_right_action()).passed


class TestModuleHomAlgebra:
    def test_h4_preset(self):
        h4 = sweedler_h4()
        assert check_module_hom_algebra(h4, dual_numbers(), h4_left_action()).passed

    def test_zero_action(self):
        h4 = sweedler_h4()
        assert check_module_hom_algebra(h4, zero_algebra(2), zero_action(h4, 2)).passed

    def test_sign_flipped_x_action_breaks_module_axioms(self):
        h4 = sweedler_h4()
        act = h4_left_action()
        table = [list(list(r) for r in p) for p in act.table]
        table[2][1][0] = -table[2][1][0]  # x . y = -1 alone breaks g.(x.y) = (gx).y
        bad = action_table(LEFT, 4, 2, table, act.alpha_m)
        with pytest.raises(PreconditionFailure):
            check_module_hom_algebra(h4, dual_numbers(), bad)

    def test_flipping_both_derivation_rows_is_still_a_module_algebra(self):
        # x -> -x is a bialgebra automorphism of H4, so twisting the action
        # by it (flipping x AND gx rows) stays a module algebra
        h4 = sweedler_h4()
        act = h4_left_action()
        table = [list(list(r) for r in p) for p in act.table]
        table[2][1][0] = -table[2][1][0]
        table[3][1][0] = -table[3][1][0]
        twisted = action_table(LEFT, 4, 2, table, act.alpha_m)
        assert check_module_hom_algebra(h4, dual_numbers(), twisted).passed

    def test_non_automorphism_g_action_fails_compatibility(self):
        # g acting as the swap of 1 and y is module-legal (involutive) but not
        # an algebra map: g.(1*1) = y while (g.1)(g.1) = y^2 = 0
        h4 = sweedler_h4()
        z, o = ZERO, ONE
        table = (
            ((o, z), (z, o)),  # unit of H4 acts as the identity
            ((z, o), (o, z)),  # g swaps 1 and y
            ((z, z), (z, z)),  # x acts as zero
            ((z, z), (z, z)),  # gx = g(x .) acts as zero
        )
        bad = action_table(LEFT, 4, 2, table, LinearMap.identity(2))
        assert check_module(h4.algebra, bad).passed
        rep = check_module_hom_algebra(h4, dual_numbers(), bad)
        assert not rep.passed
        assert rep.failures[0].equation == "module_algebra_compat"

    def test_right_preset(self):
        h4 = sweedler_h4()
        assert check_module_hom_algebra(h4, dual_numbers(), h4_right_action()).passed


class TestYauTwistModuleAlgebra:
    def test_identity_unchanged(self):
        h4 = sweedler_h4()
        ident4, ident2 = LinearMap.identity(4), LinearMap.identity(2)
        hb, alg, act = yau_twist_module_algebra(
            h4, dual_numbers(), h4_left_action(), ident4, ident2
        )
        assert act.table == h4_left_action().table
        assert alg.mul == dual_numbers().mul

    @pytest.mark.parametrize("c", [2, Q(-1, 3)])
    def test_balanced_twists(self, c):
        h4 = sweedler_h4()
        alpha_h, alpha_a = h4_twists(c)
        hb, alg, act = yau_twist_module_algebra(
            h4, dual_numbers(), h4_left_action(), alpha_h, alpha_a
        )
        assert check_module_hom_algebra(hb, alg, act).passed

    def test_unbalanced_twists_fail_intertwining(self):
        h4 = sweedler_h4()
        alpha_h, _ = h4_twists(-1)
        alpha_a = lmap([[1, 0], [0, 2]])  # y -> 2y does not balance x -> -x
        with pytest.raises(IntertwiningFailure) as err:
            yau_twist_module_algebra(h4, dual_numbers(), h4_left_action(), alpha_h, alpha_a)
        assert err.value.witness is not None

    def test_right_side(self):
        h4 = sweedler_h4()
        alpha_h, alpha_c = h4_twists(3)
        hb, alg, act = yau_twist_module_algebra(
            h4, dual_numbers(), h4_right_action(), alpha_h, alpha_c
        )
        assert check_module_hom_algebra(hb, alg, act).passed


class TestTensorModules:
    def test_trivial_one_dimensional(self):
        c2 = group_algebra(2)
        triv = action_table(LEFT, 2, 1, (((ONE,),), ((ONE,),)), LinearMap.identity(1))
        assert check_module(c2.algebra, triv).passed
        squared = tensor_modules(c2, triv, triv)
        assert squared.module_dim == 1
        assert check_module(c2.algebra, squared).passed

    def test_h4_module_squared(self):
        h4 = sweedler_h4()
        act = h4_left_action()
        squared = tensor_modules(h4, act, act)
        assert check_module(h4.algebra, squared).passed

    def test_dimension_mismatch(self):
        h4 = sweedler_h4()
        c2 = group_algebra(2)
        triv = action_table(LEFT, 2, 1, (((ONE,),), ((ONE,),)), LinearMap.identity(1))
        with pytest.raises(DimensionMismatch):
            tensor_modules(h4, h4_left_action(), triv)


class TestComodules:
    @pytest.mark.parametrize("side", [LEFT, RIGHT])
    def test_coalgebra_over_itself(self, side):
        h4 = sweedler_h4()
        assert check_comodule(h4.coalgebra, regular_coaction(h4, side)).passed

    @pytest.mark.parametrize("side", [LEFT, RIGHT])
    def test_zero_coaction(self, side):
        h4 = sweedler_h4()
        assert check_comodule(h4.coalgebra, zero_coaction(h4, 2, side)).passed

    def test_perturbed_coaction_fails(self):
        h4 = sweedler_h4()
        co = regular_coaction(h4, LEFT)
        table = [list(list(r) for r in p) for p in co.table]
        table[1][0][0] = table[1][0][0] + 1
        bad = coaction_table(LEFT, 4, 4, table, co.alpha_m)
        assert not check_comodule(h4.coalgebra, bad).passed


class TestBicomodule:
    def test_coalgebra_is_bicomodule_over_itself(self):
        h4 = sweedler_h4()
        lam = regular_coaction(h4, LEFT)
        rho = regular_coaction(h4, RIGHT)
        assert check_bicomodule(h4.coalgebra, lam, rho).passed

    def test_zero_coactions(self):
        h4 = sweedler_h4()
        assert check_bicomodule(
            h4.coalgebra, zero_coaction(h4, 2, LEFT), zero_coaction(h4, 2, RIGHT)
        ).passed

    def test_perturbed_interchange_fails(self):
        c2 = group_algebra(2)
        lam = regular_coaction(c2, LEFT)
        rho = regular_coaction(c2, RIGHT)
        table = [list(list(r) for r in p) for p in rho.table]
        table[1] = [[ZERO, ONE], [ZERO, ZERO]]  # rho(g) = e (x) g
        skew = coaction_table(RIGHT, 2, 2, table, rho.alpha_m)
        if check_comodule(c2.coalgebra, skew).passed:
            assert not check_bicomodule(c2.coalgebra, lam, skew).passed
        else:
            with pytest.raises(PreconditionFailure):
                check_bicomodule(c2.coalgebra, lam, skew)


class TestComoduleHomAlgebra:
    def test_grouplike_coaction(self):
        bi, module, _act, co = c2_trivial_yd()
        assert check_comodule_hom_algebra(bi, module, co).passed

    def test_coproduct_on_itself(self):
        h4 = sweedler_h4()
        co = regular_coaction(h4, LEFT)
        assert check_comodule_hom_algebra(h4, h4.algebra, co).passed

    def test_perturbed_fails(self):
        bi, module, _act, co = c2_trivial_yd()
        table = [list(list(r) for r in p) for p in co.table]
        table[1][1][1] = ONE  # lambda(y) gains a g (x) y term
        bad = coaction_table(LEFT, 2, 2, table, co.alpha_m)
        if check_comodule(bi.coalgebra, bad).passed:
            assert not check_comodule_hom_algebra(bi, module, bad).passed
        else:
            with pytest.raises(PreconditionFailure):
                check_comodule_hom_algebra(bi, module, bad)


class TestSmashLeft:
    def test_zero_action_gives_zero_multiplication(self):
        h4 = sweedler_h4()
        mod = zero_algebra(2)
        rmap, smash = smash_left(mod, h4, zero_action(h4, 2))
        assert all(not c for plane in smash.mul for row in plane for c in row)
        assert check_hom_algebra(smash).passed

    def test_classical_degeneration_formula(self):
        h4 = sweedler_h4()
        a = dual_numbers()
        act = h4_left_action()
        rmap, smash = smash_left(a, h4, act)
        # (a # h)(a' # h') = a (h1 . a') # h2 h'
        da, dh = 2, 4
        for ai in range(da):
            for hi in range(dh):
                for aj in range(da):
                    for hj in range(dh):
                        expected = [ZERO] * (da * dh)
                        for p in range(dh):
                            for q, c in enumerate(h4.comul[hi][p]):
                                if not c:
                                    continue
                                avec = a.product(
                                    [ONE if t == ai else ZERO for t in range(da)],
                                    act.table[p][aj],
                                )
                                hvec = h4.algebra.mul[q][hj]
                                for r, av in enumerate(avec):
                                    for s, hv in enumerate(hvec):
                                        expected[r * dh + s] = (
                                            expected[r * dh + s] + c * av * hv
                                        )
                        assert list(smash.mul[ai * dh + hi][aj * dh + hj]) == expected

    def test_twisted_instance_passes(self):
        h4 = sweedler_h4()
        alpha_h, alpha_a = h4_twists(2)
        hb, alg, act = yau_twist_module_algebra(
            h4, dual_numbers(), h4_left_action(), alpha_h, alpha_a
        )
        rmap, smash = smash_left(alg, hb, act)
        assert check_hom_algebra(smash).passed


class TestSmashRight:
    def test_zero_action(self):
        h4 = sweedler_h4()
        rmap, smash = smash_right(h4, zero_algebra(2), zero_action(h4, 2, side=RIGHT))
        assert all(not c for plane in smash.mul for row in plane for c in row)

    def test_classical_degeneration_formula(self):
        h4 = sweedler_h4()
        c = dual_numbers()
        act = h4_right_action()
        rmap, smash = smash_right(h4, c, act)
        # (h # c)(h' # c') = h h'1 # (c . h'2) c'
        dh, dc = 4, 2
        for hi in range(dh):
            for ci in range(dc):
                for hj in range(dh):
                    for cj in range(dc):
                        expected = [ZERO] * (dh * dc)
                        for p in range(dh):
                            for q, w in enumerate(h4.comul[hj][p]):
                                if not w:
                                    continue
                                hvec = h4.algebra.mul[hi][p]
                                cvec = c.product(
                                    act.table[q][ci],
                                    [ONE if t == cj else ZERO for t in range(dc)],
                                )
                                for r, hv in enumerate(hvec):
                                    for s, cv in enumerate(cvec):
                                        expected[r * dc + s] = (
                                            expected[r * dc + s] + w * hv * cv
                                        )
                        assert list(smash.mul[hi * dc + ci][hj * dc + cj]) == expected

    def test_twisted_instance_passes(self):
        h4 = sweedler_h4()
        alpha_h, alpha_c = h4_twists(2)
        hb, alg, act = yau_twist_module_algebra(
            h4, dual_numbers(), h4_right_action(), alpha_h, alpha_c
        )
        rmap, smash = smash_right(hb, alg, act)
        assert check_hom_algebra(smash).passed


class TestTwoSided:
    def test_zero_actions(self):
        h4 = sweedler_h4()
        two = smash_two_sided(
            zero_algebra(2), h4, zero_algebra(2),
            zero_action(h4, 2), zero_action(h4, 2, side=RIGHT),
        )
        assert all(not c for plane in two.mul for row in plane for c in row)

    def test_h4_instance_matches_closed_formula(self):
        # smash_two_sided itself compares against the closed formula and raises
        # on any mismatch, so surviving construction is the assertion
        h4 = sweedler_h4()
        two = smash_two_sided(
            dual_numbers(), h4, dual_numbers(), h4_left_action(), h4_right_action()
        )
        assert check_hom_algebra(two).passed

    def test_zero_right_algebra_reduces_to_tensor_with_zero(self):
        h4 = sweedler_h4()
        a = dual_numbers()
        zero_c = zero_algebra(1)
        act_r = zero_action(h4, 1, side=RIGHT)
        two = smash_two_sided(a, h4, zero_c, h4_left_action(), act_r)
        _, left_smash = smash_left(a, h4, h4_left_action())
        expected = tensor_algebra(left_smash, zero_c)
        assert two.mul == expected.mul


class TestCoactions:
    def test_rho_on_zero_action_smash(self):
        h4 = sweedler_h4()
        mod = zero_algebra(2)
        act = zero_action(h4, 2)
        rho = coaction_rho_smash(mod, h4, act)
        _, smash = smash_left(mod, h4, act)
        assert check_comodule(h4.coalgebra, rho).passed
        assert check_comodule_hom_algebra(h4, smash, rho).passed

    def test_rho_on_h4_instance(self):
        h4 = sweedler_h4()
        a = dual_numbers()
        act = h4_left_action()
        rho = coaction_rho_smash(a, h4, act)
        _, smash = smash_left(a, h4, act)
        assert check_comodule(h4.coalgebra, rho).passed
        assert check_comodule_hom_algebra(h4, smash, rho).passed

    def test_perturbed_rho_fails(self):
        h4 = sweedler_h4()
        a = dual_numbers()
        rho = coaction_rho_smash(a, h4, h4_left_action())
        table = [list(list(r) for r in p) for p in rho.table]
        table[0][0][1] = table[0][0][1] + 1
        bad = coaction_table(RIGHT, 4, 8, table, rho.alpha_m)
        assert not check_comodule(h4.coalgebra, bad).passed

    def test_lambda_right_smash(self):
        h4 = sweedler_h4()
        c = dual_numbers()
        act = h4_right_action()
        lam = coaction_lambda_right_smash(h4, c, act)
        _, smash = smash_right(h4, c, act)
        assert check_comodule(h4.coalgebra, lam).passed
        assert check_comodule_hom_algebra(h4, smash, lam).passed


# Each smash map and smash coaction, given the action; the coaction that
# coaction_lambda_smash also takes is never reached.
LEFT_SMASHES = {
    "smash_left": lambda act: smash_left(dual_numbers(), sweedler_h4(), act),
    "coaction_rho_smash": lambda act: coaction_rho_smash(dual_numbers(), sweedler_h4(), act),
    "coaction_lambda_smash": lambda act: coaction_lambda_smash(dual_numbers(), sweedler_h4(), act, None),
}
RIGHT_SMASHES = {
    "smash_right": lambda act: smash_right(sweedler_h4(), dual_numbers(), act),
    "coaction_lambda_right_smash": lambda act: coaction_lambda_right_smash(
        sweedler_h4(), dual_numbers(), act
    ),
}


class TestSmashSide:
    """A left smash needs a left action and a right smash a right one."""

    @pytest.mark.parametrize("name, action, message", [
        *((name, h4_right_action, "action table is right-sided, expected left") for name in LEFT_SMASHES),
        *((name, h4_left_action, "action table is left-sided, expected right") for name in RIGHT_SMASHES),
    ])
    def test_an_action_of_the_other_side_is_refused(self, name, action, message):
        with pytest.raises(DimensionMismatch) as info:
            {**LEFT_SMASHES, **RIGHT_SMASHES}[name](action())
        assert str(info.value) == message


class TestYetterDrinfeld:
    def test_trivial_coaction_instance(self):
        bi, module, act, co = c2_trivial_yd()
        assert check_yetter_drinfeld(bi, act, co).passed

    def test_regular_action_trivial_coaction(self):
        # H acting on itself by multiplication with the trivial coaction;
        # the regular coaction is NOT Yetter-Drinfeld even for k[C2]
        # (witness (g, e): e (x) g vs g (x) g), see the next test
        c2 = group_algebra(2)
        act = regular_action(c2)
        co = zero_coaction(c2, 2, LEFT)
        table = [list(list(r) for r in p) for p in co.table]
        for m in range(2):
            table[m][0][m] = ONE  # m -> e (x) m
        trivial = coaction_table(LEFT, 2, 2, table, LinearMap.identity(2))
        assert check_yetter_drinfeld(c2, act, trivial).passed

    def test_regular_coaction_is_not_yd(self):
        c2 = group_algebra(2)
        rep = check_yetter_drinfeld(c2, regular_action(c2), regular_coaction(c2, LEFT))
        assert not rep.passed
        assert rep.failures[0].basis == (1, 0)

    def test_sign_perturbed_coaction_fails(self):
        c2 = group_algebra(2)
        act = regular_action(c2)
        co = regular_coaction(c2, LEFT)
        table = [list(list(r) for r in p) for p in co.table]
        table[1][1][1] = -table[1][1][1]
        bad = coaction_table(LEFT, 2, 2, table, co.alpha_m)
        if check_comodule(c2.coalgebra, bad).passed:
            assert not check_yetter_drinfeld(c2, act, bad).passed
        else:
            with pytest.raises(PreconditionFailure):
                check_yetter_drinfeld(c2, act, bad)

    def test_lambda_smash_requires_yd(self):
        bi, module, act, co = c2_trivial_yd()
        lam = coaction_lambda_smash(module, bi, act, co)
        rho = coaction_rho_smash(module, bi, act)
        assert check_bicomodule(bi.coalgebra, lam, rho).passed


class TestSmashTwistCompat:
    def test_identity_alphas(self):
        h4 = sweedler_h4()
        ident4, ident2 = LinearMap.identity(4), LinearMap.identity(2)
        assert check_smash_twist_compat(
            h4, dual_numbers(), h4_left_action(), ident4, ident2
        ).passed

    @pytest.mark.parametrize("side,act_fn", [(LEFT, h4_left_action), (RIGHT, h4_right_action)])
    def test_twisted_instance(self, side, act_fn):
        h4 = sweedler_h4()
        alpha_h, alpha_x = h4_twists(2)
        assert check_smash_twist_compat(
            h4, dual_numbers(), act_fn(), alpha_h, alpha_x
        ).passed

    def test_broken_intertwining_reported(self):
        h4 = sweedler_h4()
        alpha_h, _ = h4_twists(2)
        alpha_a = lmap([[1, 0], [0, 3]])
        with pytest.raises(IntertwiningFailure):
            check_smash_twist_compat(
                h4, dual_numbers(), h4_left_action(), alpha_h, alpha_a
            )
