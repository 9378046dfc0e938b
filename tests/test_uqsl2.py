import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from homtwist.errors import DegenerateQ, ParamConstraintViolation
from homtwist import uqsl2
from homtwist.exact import ONE, Q, Scan, ZERO, as_scalar
from homtwist.uqsl2 import (
    E,
    F,
    GENERATORS,
    K,
    KINV,
    MON_E,
    MON_F,
    MON_K,
    MON_KINV,
    QPlaneElement,
    SmashTerm,
    UNIT,
    UqElement,
    UqParams,
    UqTensor,
    check_hopf_on_relations,
    check_pbw_confluence,
    check_uq_module_hom_algebra,
    coproduct_alpha,
    mu_alpha,
    mu_beta,
    pbw_normalize,
    q_int,
    qp_beta,
    qp_mul,
    rho_generator_formula,
    rho_l,
    smash_mul_uq,
    uq_alpha,
    uq_coproduct,
    uq_mul,
    verify_smash_closed_forms,
)
from uq_instances import (
    closed_form_instances,
    loop_check_uq_module_hom_algebra,
    module_instances,
    plane_monomials,
    smash_product_left,
)

PARAMS = UqParams(2, 3, 5, 0)


def mono(key, coeff=1):
    return UqElement.monomial(key, coeff)


def plane(m, n, coeff=1):
    return QPlaneElement.monomial((m, n), coeff)


class TestQInt:
    def test_zero(self):
        assert q_int(0, Q(2)) == 0

    def test_one(self):
        assert q_int(1, Q(2)) == 1

    def test_two_at_q_two(self):
        # (q^2 - q^-2)/(q - q^-1) = q + 1/q = 5/2
        assert q_int(2, Q(2)) == Q(5, 2)

    def test_a_negative_n_is_valid(self):
        # [-n]_q = -[n]_q, and the powers alpha^-1, beta^-1 are used by the smash product
        assert q_int(-2, Q(2)) == Q(-5, 2)
        assert uq_alpha(mono(MON_E), -2, Q(3)) == mono(MON_E, Q(1, 9))
        assert qp_beta(plane(0, 1), -1, PARAMS) == plane(0, 1, PARAMS.lam / PARAMS.xi)

    @pytest.mark.parametrize("q", [0, 1, -1])
    def test_degenerate(self, q):
        with pytest.raises(DegenerateQ):
            q_int(2, Q(q))


class TestUqParams:
    def test_valid(self):
        UqParams(Q(3), Q(1, 2), 2, 1)

    def test_degenerate_q(self):
        with pytest.raises(DegenerateQ):
            UqParams(1, 3, 5, 0)

    # a bool is an int to isinstance, but UqParams(2, 3, 5, True) has no level
    @pytest.mark.parametrize(
        "kwargs",
        [dict(lam=0), dict(xi=0), dict(l=-1)]
        + [dict(l=l) for l in (True, False, 1.5, Q(1), "1")],
    )
    def test_constraints(self, kwargs):
        base = dict(q=2, lam=3, xi=5, l=0)
        base.update(kwargs)
        with pytest.raises(ParamConstraintViolation):
            UqParams(**base)


class TestPbwNormalize:
    def test_ke_relation(self):
        q = Q(2)
        assert pbw_normalize([K, E], q) == mono((0, 1, 1), q * q)

    def test_kf_relation(self):
        q = Q(2)
        assert pbw_normalize([K, F], q) == mono((1, 0, 1), 1 / (q * q))

    def test_ef_relation(self):
        q = Q(2)
        inv = ONE / (q - 1 / q)
        expected = UqElement({(1, 1, 0): ONE, (0, 0, 1): inv, (0, 0, -1): -inv})
        assert pbw_normalize([E, F], q) == expected

    def test_k_cancellation(self):
        assert pbw_normalize([K, KINV], Q(2)) == UqElement.unit()
        assert pbw_normalize([KINV, K], Q(2)) == UqElement.unit()

    def test_empty_word(self):
        assert pbw_normalize([], Q(2)) == UqElement.unit()

    def test_normal_word_is_fixed(self):
        assert pbw_normalize([F, F, E, K], Q(2)) == mono((2, 1, 1))

    @given(st.lists(st.sampled_from(GENERATORS), max_size=6), st.sampled_from([2, 3, "1/2"]))
    @settings(max_examples=120, deadline=None)
    def test_confluence(self, word, qlit):
        q = Q(qlit) if isinstance(qlit, int) else Q(1, 2)
        assert pbw_normalize(word, q) == rightmost_normalize(word, q)

    @pytest.mark.parametrize("q", [Q(2), Q(3)])
    def test_all_words_up_to_six_agree_with_the_rightmost_oracle(self, q):
        words = [()]
        for _ in range(6):
            words = [w + (g,) for w in words for g in GENERATORS]
            for w in words:
                assert pbw_normalize(w, q) == rightmost_normalize(w, q), w

    def test_no_strategy_argument(self):
        with pytest.raises(TypeError):
            pbw_normalize([K, E], Q(2), "rightmost")


def _find_redex_rightmost(word, rules):
    positions = reversed(range(len(word) - 1))
    for i in positions:
        if (word[i], word[i + 1]) in rules:
            return i
    return None


def _word_to_monomial(word):
    a = b = c = 0
    i = 0
    while i < len(word) and word[i] == F:
        a += 1
        i += 1
    while i < len(word) and word[i] == E:
        b += 1
        i += 1
    while i < len(word):
        c += 1 if word[i] == K else -1
        i += 1
    return (a, b, c)


def rightmost_normalize(word, q):
    """The former ``pbw_normalize(word, q, "rightmost")``, kept as the oracle.

    It and its helpers are the removed rightmost path verbatim, with the strategy fixed.
    """
    word = tuple(word)
    rules = uqsl2._rules(q)
    result = UqElement({})
    pending = {word: ONE}
    while pending:
        next_pending = {}
        for w, coeff in pending.items():
            pos = _find_redex_rightmost(w, rules)
            if pos is None:
                result.add_term(_word_to_monomial(w), coeff)
                continue
            for repl, rc in rules[(w[pos], w[pos + 1])]:
                nw = w[:pos] + repl + w[pos + 2 :]
                v = next_pending.get(nw, ZERO) + coeff * rc
                if v:
                    next_pending[nw] = v
                else:
                    next_pending.pop(nw, None)
        pending = next_pending
    return result


def _with_rule(monkeypatch, lhs, replacement):
    """Monkeypatch the rewriting system with `lhs` -> `replacement` added or replaced."""
    original = uqsl2._rules

    def rules(q):
        out = dict(original(q))
        out[lhs] = replacement(q)
        return out

    monkeypatch.setattr(uqsl2, "_rules", rules)


class TestPbwConfluence:
    OVERLAPS = [
        (K, E, F),
        (KINV, E, F),
        (K, KINV, E),
        (K, KINV, F),
        (K, KINV, K),
        (KINV, K, E),
        (KINV, K, F),
        (KINV, K, KINV),
    ]

    @pytest.mark.parametrize("q", [Q(2), Q(3), Q(1, 2), Q(-5, 3)])
    def test_passes(self, q):
        report = check_pbw_confluence(q)
        assert report.passed and report.failures == ()

    def test_degenerate_q(self):
        with pytest.raises(DegenerateQ):
            check_pbw_confluence(Q(1))

    def test_scans_seven_rules_then_eight_overlaps(self, monkeypatch):
        seen = []
        eq = Scan.eq

        def recording_eq(scan, equation, basis, lhs, rhs):
            seen.append((equation, basis))
            return eq(scan, equation, basis, lhs, rhs)

        monkeypatch.setattr(Scan, "eq", recording_eq)
        for q in (Q(2), Q(3)):
            seen.clear()
            check_pbw_confluence(q)
            rules = [b for e, b in seen if e == "rule_lowers_order"]
            overlaps = [b for e, b in seen if e == "overlap_resolves"]
            assert sorted(rules) == sorted(uqsl2._rules(q)) and len(rules) == 7
            assert overlaps == self.OVERLAPS
            assert len(seen) == 15

    def test_corrupted_ke_rule_fails_at_its_overlaps(self, monkeypatch):
        _with_rule(monkeypatch, (K, E), lambda q: (((E, K), q ** 3),))
        report = check_pbw_confluence(Q(2))
        assert not report.passed
        assert report.failures[0].equation == "overlap_resolves"
        assert report.failures[0].basis == (K, E, F)
        assert [f.basis for f in report.failures] == [(K, E, F), (K, KINV, E), (KINV, K, E)]

    @pytest.mark.parametrize(
        "lhs, repl",
        [
            ((E, K), (K, E)),  # more out-of-order pairs: rewrites E K -> K E -> E K forever
            ((E, F), (F, K)),  # fewer out-of-order pairs, but not a rearrangement of E F
            ((F, F), (F, F, F)),  # longer
        ],
    )
    def test_rule_that_does_not_lower_the_order_returns_at_once(self, monkeypatch, lhs, repl):
        _with_rule(monkeypatch, lhs, lambda q: ((repl, ONE),))

        def no_rewriting(pending, rules):
            raise AssertionError("normalized under a rule that need not terminate")

        monkeypatch.setattr(uqsl2, "_rewrite", no_rewriting)
        report = check_pbw_confluence(Q(2))
        assert not report.passed
        assert [(f.equation, f.basis, f.lhs) for f in report.failures] == [
            ("rule_lowers_order", lhs, (repl,))
        ]


class TestUqMul:
    def test_unit(self):
        u = mono((1, 2, -1), Q(3, 7))
        assert uq_mul(UqElement.unit(), u, Q(2)) == u
        assert uq_mul(u, UqElement.unit(), Q(2)) == u

    def test_ef_commutator(self):
        q = Q(2)
        ef = uq_mul(mono(MON_E), mono(MON_F), q)
        fe = uq_mul(mono(MON_F), mono(MON_E), q)
        inv = ONE / (q - 1 / q)
        assert ef - fe == UqElement({MON_K: inv, MON_KINV: -inv})

    def test_associativity_instance(self):
        q = Q(2)
        e, f = mono(MON_E), mono(MON_F)
        assert uq_mul(uq_mul(e, e, q), f, q) == uq_mul(e, uq_mul(e, f, q), q)

    def test_random_monomial_associativity(self):
        rng = random.Random(4242)
        q = Q(3)
        monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(-2, 3)]
        for _ in range(25):
            u, v, w = (mono(rng.choice(monos)) for _ in range(3))
            assert uq_mul(uq_mul(u, v, q), w, q) == uq_mul(u, uq_mul(v, w, q), q)


class TestUqAlpha:
    def test_identity_power(self):
        u = mono((1, 2, -1), Q(5))
        assert uq_alpha(u, 0, Q(3)) == u

    def test_generator_values(self):
        lam = Q(3)
        assert uq_alpha(mono(MON_E), 1, lam) == mono(MON_E, lam)
        assert uq_alpha(mono(MON_F), 1, lam) == mono(MON_F, 1 / lam)
        assert uq_alpha(mono(MON_K), 1, lam) == mono(MON_K)

    def test_inverse_of_f(self):
        lam = Q(3)
        assert uq_alpha(mono(MON_F), -1, lam) == mono(MON_F, lam)

    def test_bijectivity(self):
        lam = Q(3)
        u = UqElement({(1, 0, 0): Q(2), (0, 2, 1): Q(-1, 3)})
        assert uq_alpha(uq_alpha(u, 1, lam), -1, lam) == u


class TestCoproduct:
    def test_unit(self):
        cp = uq_coproduct(UqElement.unit(), Q(2))
        assert cp.terms == {(UNIT, UNIT): ONE}

    def test_kinv_grouplike(self):
        cp = uq_coproduct(mono(MON_KINV), Q(2))
        assert cp.terms == {(MON_KINV, MON_KINV): ONE}

    def test_e_squared(self):
        # Delta(E^2) = 1 (x) E^2 + (q^2 + 1) E (x) EK + E^2 (x) K^2
        q = Q(2)
        cp = uq_coproduct(mono((0, 2, 0)), q)
        assert cp.terms == {
            (UNIT, (0, 2, 0)): ONE,
            (MON_E, (0, 1, 1)): q * q + 1,
            ((0, 2, 0), (0, 0, 2)): ONE,
        }

    def test_multiplicative_on_sample(self):
        q = Q(2)
        u, v = mono((1, 0, 1)), mono((0, 1, -1))
        lhs = uq_coproduct(uq_mul(u, v, q), q)
        rhs = uq_coproduct(u, q).mul(uq_coproduct(v, q), q)
        assert lhs == rhs

    def test_alpha_is_coalgebra_map(self):
        q, lam = Q(2), Q(3)
        u = mono((1, 1, 0))
        lhs = uq_coproduct(uq_alpha(u, 1, lam), q)
        rhs_terms = {}
        for (m1, m2), c in uq_coproduct(u, q).terms.items():
            scale = lam ** ((m1[1] - m1[0]) + (m2[1] - m2[0]))
            rhs_terms[(m1, m2)] = c * scale
        assert lhs.terms == rhs_terms


HOPF_TUPLES = [(Q(2), Q(3)), (Q(3), Q(1, 2))]
MONOS = [(a, b, c) for a in range(3) for b in range(3) for c in range(-2, 3)]
SMALL = [m for m in MONOS if m[0] + m[1] + abs(m[2]) <= 3]


def _tensor_alpha(t, lam):
    out = UqTensor({})
    for (m1, m2), c in t.terms.items():
        scale = lam ** ((m1[1] - m1[0]) + (m2[1] - m2[0]))
        out.add_term((m1, m2), c * scale)
    return out


def _associativity_oracle(q):
    """The sampled triple loop criterion 8 used to run, over every triple of SMALL."""
    for m1, m2, m3 in itertools.product(SMALL, repeat=3):
        u, v, w = (UqElement.monomial(m) for m in (m1, m2, m3))
        if uq_mul(uq_mul(u, v, q), w, q) != uq_mul(u, uq_mul(v, w, q), q):
            return f"associativity broken at q={q}"
    return None


def _hopf_oracle(q, lam):
    """The pair loops criterion 8 used to run, through the module so that mutants reach them."""
    uq_alpha, uq_coproduct, uq_mul = uqsl2.uq_alpha, uqsl2.uq_coproduct, uqsl2.uq_mul
    for m1 in SMALL:
        u = UqElement.monomial(m1)
        au = uq_alpha(u, 1, lam)
        if uq_coproduct(au, q) != _tensor_alpha(uq_coproduct(u, q), lam):
            return f"alpha is not a coalgebra map on {m1}"
        for m2 in SMALL:
            v = UqElement.monomial(m2)
            lhs = uq_coproduct(uq_mul(u, v, q), q)
            rhs = uq_coproduct(u, q).mul(uq_coproduct(v, q), q)
            if lhs != rhs:
                return f"Delta not multiplicative on {m1}, {m2}"
            if uq_alpha(uq_mul(u, v, q), 1, lam) != uq_mul(au, uq_alpha(v, 1, lam), q):
                return f"alpha not multiplicative on {m1}, {m2}"
    return None


def _alpha_scaling_e_by_lam_squared(u, k, lam):
    lam = as_scalar(lam)
    return UqElement({(a, b, c): v * lam ** (k * (2 * b - a)) for (a, b, c), v in u.terms.items()})


@pytest.fixture
def fresh_coproducts(monkeypatch):
    """monkeypatch, with the coproduct memo emptied before and after the test."""
    uqsl2._monomial_coproduct.cache_clear()
    yield monkeypatch
    uqsl2._monomial_coproduct.cache_clear()


class TestHopfOnRelations:
    def test_scans_eighteen_instances(self, monkeypatch):
        seen = []
        eq = Scan.eq

        def recording_eq(scan, equation, basis, lhs, rhs):
            seen.append((equation, basis))
            return eq(scan, equation, basis, lhs, rhs)

        monkeypatch.setattr(Scan, "eq", recording_eq)
        for q, lam in HOPF_TUPLES:
            seen.clear()
            assert check_hopf_on_relations(q, lam).passed
            rules = list(uqsl2._rules(q))
            assert seen == [
                (name, lhs) for lhs in rules
                for name in ("delta_respects_relation", "alpha_respects_relation")
            ] + [("alpha_coalgebra_map", (g,)) for g in GENERATORS]
            assert len(seen) == 18

    @pytest.mark.parametrize("q, lam", HOPF_TUPLES)
    def test_scan_and_oracle_pass(self, q, lam):
        report = check_hopf_on_relations(q, lam)
        assert report.passed and report.failures == ()
        assert _hopf_oracle(q, lam) is None
        assert _associativity_oracle(q) is None

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateQ):
            check_hopf_on_relations(Q(-1), Q(3))
        with pytest.raises(ParamConstraintViolation):
            check_hopf_on_relations(Q(2), Q(0))

    @pytest.mark.parametrize(
        "generator, delta",
        [
            (E, ((MON_E, UNIT, ONE), (UNIT, MON_E, ONE))),  # E (x) 1 + 1 (x) E
            (F, ((MON_K, MON_F, ONE), (MON_F, UNIT, ONE))),  # K (x) F + F (x) 1
        ],
    )
    def test_mutated_coproduct_fails_both(self, fresh_coproducts, generator, delta):
        fresh_coproducts.setitem(uqsl2._DELTA_GEN, generator, delta)
        for q, lam in HOPF_TUPLES:
            report = check_hopf_on_relations(q, lam)
            assert not report.passed
            assert (report.failures[0].equation, report.failures[0].basis) == (
                "delta_respects_relation", (E, F)
            )
            assert _hopf_oracle(q, lam) is not None

    def test_mutated_alpha_fails_both(self, fresh_coproducts):
        fresh_coproducts.setattr(uqsl2, "uq_alpha", _alpha_scaling_e_by_lam_squared)
        for q, lam in HOPF_TUPLES:
            report = check_hopf_on_relations(q, lam)
            assert not report.passed
            assert {f.equation for f in report.failures} == {"alpha_respects_relation"}
            assert report.failures[0].basis == (E, F)
            assert _hopf_oracle(q, lam) is not None


class TestQuantumPlane:
    def test_commutation(self):
        q = Q(2)
        assert qp_mul(plane(0, 1), plane(1, 0), q) == plane(1, 1, q)

    def test_unit(self):
        p = QPlaneElement({(2, 3): Q(7)})
        assert qp_mul(QPlaneElement.unit(), p, Q(2)) == p

    def test_xy_squared(self):
        q = Q(5)
        assert qp_mul(plane(1, 1), plane(1, 1), q) == plane(2, 2, q)

    def test_beta_values(self):
        assert qp_beta(plane(1, 0), 1, PARAMS) == plane(1, 0, PARAMS.xi)
        assert qp_beta(plane(0, 1), 1, PARAMS) == plane(0, 1, PARAMS.xi / PARAMS.lam)
        assert qp_beta(plane(1, 0), -1, PARAMS) == plane(1, 0, 1 / PARAMS.xi)

    def test_beta_identity_power(self):
        p = QPlaneElement({(1, 2): Q(3)})
        assert qp_beta(p, 0, PARAMS) == p


class TestRhoL:
    def test_e_on_y(self):
        # rho_l(E, y) = [1]_q xi lam^l x = xi lam^l x
        for l in (0, 1, 2):
            params = UqParams(2, 3, 5, l)
            got = rho_l(mono(MON_E), plane(0, 1), params)
            assert got == plane(1, 0, params.xi * params.lam ** l)

    def test_unit_acts_as_beta(self):
        p = QPlaneElement({(2, 1): Q(1), (0, 3): Q(-2)})
        assert rho_l(UqElement.unit(), p, PARAMS) == qp_beta(p, 1, PARAMS)

    def test_k_on_xy(self):
        # rho_0(K, xy) = (q xi x)(q^-1 xi lam^-1 y) = xi^2 lam^-1 xy
        got = rho_l(mono(MON_K), plane(1, 1), PARAMS)
        assert got == plane(1, 1, PARAMS.xi ** 2 / PARAMS.lam)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_generator_oracle(self, l):
        params = UqParams(2, 3, 5, l)
        gens = ((E, MON_E), (F, MON_F), (K, MON_K), (KINV, MON_KINV))
        for gen, key in gens:
            for m in range(5):
                for n in range(5):
                    got = rho_l(mono(key), plane(m, n), params)
                    assert got == rho_generator_formula(gen, m, n, params)

    def test_oracle_at_second_parameter_tuple(self):
        params = UqParams(3, Q(1, 2), 2, 1)
        for gen, key in ((E, MON_E), (F, MON_F)):
            for m in range(3):
                for n in range(3):
                    assert rho_l(mono(key), plane(m, n), params) == rho_generator_formula(
                        gen, m, n, params
                    )


class TestModuleHomAlgebraScan:
    """The scan is symbolic; its int instances come from the int loop and from `uq_instances`."""

    def test_bound_three(self):
        assert loop_check_uq_module_hom_algebra(PARAMS, plane_monomials(3)).passed
        report, instances = module_instances(PARAMS, 3)
        assert report.passed and len(instances) == 4 * 10 + 16 * 10 + 4 * 100

    def test_bound_zero_products_vacuous(self):
        assert loop_check_uq_module_hom_algebra(PARAMS, plane_monomials(0)).passed
        report, instances = module_instances(PARAMS, 0)
        assert report.passed and len(instances) == 4 + 16 + 4

    # the scan takes no bound: one of any value is rejected, never ignored
    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_bound_is_an_error_not_a_pass(self, bound):
        with pytest.raises(TypeError):
            check_uq_module_hom_algebra(PARAMS, bound)

    @pytest.mark.parametrize("bound", [1.5, True, False, Q(2), "2"])
    def test_a_bound_that_is_not_an_int_is_an_error(self, bound):
        with pytest.raises(TypeError):
            check_uq_module_hom_algebra(PARAMS, bound)

    def test_perturbed_action_fails(self):
        # dropping one lambda power from the E-row (scale by lam^-b for
        # E-degree b) breaks the module axiom against the EF commutator,
        # whose K-terms carry no E and stay unscaled
        def bad_rho(h, p, params):
            out = QPlaneElement({})
            for (a, b, c), coeff in h.terms.items():
                term = rho_l(mono((a, b, c), coeff * params.lam ** (-b)), p, params)
                for key, v in term.terms.items():
                    out.add_term(key, v)
            return out

        params = PARAMS
        e, f = mono(MON_E), mono(MON_F)
        p = plane(1, 0)
        lhs = bad_rho(uq_alpha(e, 1, params.lam), bad_rho(f, p, params), params)
        rhs = bad_rho(
            uq_alpha(uq_mul(e, f, params.q), 1, params.lam), qp_beta(p, 1, params), params
        )
        assert lhs != rhs
        # the unperturbed action satisfies the same instance
        good_lhs = rho_l(uq_alpha(e, 1, params.lam), rho_l(f, p, params), params)
        good_rhs = rho_l(
            uq_alpha(uq_mul(e, f, params.q), 1, params.lam), qp_beta(p, 1, params), params
        )
        assert good_lhs == good_rhs


class TestSmashMul:
    def test_unit_times_unit_action(self):
        # (1 # 1)(p # h) = beta(p) # alpha(h) via Delta(1) = 1 (x) 1
        p, h = (2, 1), (1, 0, 1)
        got = smash_mul_uq(
            SmashTerm.monomial(((0, 0), UNIT)), SmashTerm.monomial((p, h)), PARAMS
        )
        bp = qp_beta(QPlaneElement.monomial(p), 1, PARAMS)
        ah = uq_alpha(mono(h), 1, PARAMS.lam)
        assert got == SmashTerm.smash(bp, ah)

    def test_e_times_k(self):
        # (1 # E)(1 # K) = lam (1 # EK)
        got = smash_mul_uq(
            SmashTerm.monomial(((0, 0), MON_E)), SmashTerm.monomial(((0, 0), MON_K)), PARAMS
        )
        assert got == SmashTerm({((0, 0), (0, 1, 1)): PARAMS.lam})

    def test_k_times_x(self):
        # (1 # K)(x # 1) = q xi (x # K)
        got = smash_mul_uq(
            SmashTerm.monomial(((0, 0), MON_K)), SmashTerm.monomial(((1, 0), UNIT)), PARAMS
        )
        assert got == SmashTerm({((1, 0), MON_K): PARAMS.q * PARAMS.xi})


class TestSmashClosedForms:
    """Each instance of a closed form against the int-exponent smash_mul_uq."""

    @pytest.mark.parametrize("tup", [(2, 3, 5), (3, Q(1, 2), 2)])
    def test_bounds_two(self, tup):
        params = UqParams(*tup, 0)
        report, instances = closed_form_instances(params, 2, smash_product_left(params))
        assert report.passed and len(instances) == 3 ** 4 * 24

    def test_bounds_zero(self):
        report, instances = closed_form_instances(PARAMS, 0, smash_product_left(PARAMS))
        assert report.passed and len(instances) == 24

    # the scan takes no bounds: ones of any value are rejected, never ignored
    @pytest.mark.parametrize("bounds", [-1, -3])
    def test_negative_bounds_are_an_error_not_a_pass(self, bounds):
        with pytest.raises(TypeError):
            verify_smash_closed_forms(PARAMS, bounds)

    @pytest.mark.parametrize("bounds", [1.5, True, False, Q(2), "2"])
    def test_bounds_that_are_not_an_int_are_an_error(self, bounds):
        with pytest.raises(TypeError):
            verify_smash_closed_forms(PARAMS, bounds)

    def test_requires_l_zero(self):
        with pytest.raises(ParamConstraintViolation):
            verify_smash_closed_forms(UqParams(2, 3, 5, 1))

    def test_each_row_forms_its_inner_action_once_for_all_six_g(self, monkeypatch):
        # one rho_l per term of Delta_alpha(h) of each of the four rows, not one per G
        calls = []
        real = uqsl2.rho_l

        def counted(h, p, params):
            calls.append(h)
            return real(h, p, params)

        monkeypatch.setattr(uqsl2, "rho_l", counted)
        assert verify_smash_closed_forms(PARAMS).passed
        rows = (MON_K, MON_KINV, MON_E, MON_F)
        assert len(calls) == sum(len(coproduct_alpha(mono(h), PARAMS).terms) for h in rows)

    def test_perturbed_formula_differs(self):
        # the K-row closed form with one extra lambda power disagrees with the
        # computed product at (m, n, r, s) = (0, 1, 0, 0), G = 1
        m, n, r, s = 0, 1, 0, 0
        computed = smash_mul_uq(
            SmashTerm.monomial(((m, n), MON_K)), SmashTerm.monomial(((r, s), UNIT)), PARAMS
        )
        coeff = (
            PARAMS.q ** (r - s + n * r)
            * PARAMS.xi ** (m + n + r + s)
            * PARAMS.lam ** (-n - s - 1)  # exponent perturbed by -1
        )
        perturbed = SmashTerm({((m + r, n + s), MON_K): coeff})
        assert computed != perturbed


# ---------------------------------------------------------------------------
# the loops rho_l and smash_mul_uq were before they summed memoized monomial
# kernels, kept verbatim as oracles (rho_l renamed to oracle_rho_l throughout),
# and the loops of the maps they call before every map became a rule under
# one extension (each renamed loop_*).  The oracles call only these copies, so
# a fault in `uqsl2._extend` or in a per-monomial rule cannot reach both sides;
# from `uqsl2` they take the PBW products `_monomial_mul` and the generator
# coproducts `_DELTA_GEN` alone.
# ---------------------------------------------------------------------------


def loop_tensor_mul(self, other, q):
    """UqTensor.mul."""
    out = UqTensor({})
    for (l1, r1), c in self.terms.items():
        for (l2, r2), d in other.terms.items():
            cd = c * d
            for ml, wl in uqsl2._monomial_mul(l1, l2, q):
                for mr, wr in uqsl2._monomial_mul(r1, r2, q):
                    out.add_term((ml, mr), cd * wl * wr)
    return out


def loop_uq_mul(u, v, q):
    out = UqElement({})
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            c = c1 * c2
            for mon, w in uqsl2._monomial_mul(m1, m2, q):
                out.add_term(mon, c * w)
    return out


def loop_uq_alpha(u, k, lam):
    lam = as_scalar(lam)
    out = {}
    for (a, b, c), coeff in u.terms.items():
        out[(a, b, c)] = coeff * lam ** (k * (b - a))
    return UqElement(out)


def loop_word_coproduct(word, q):
    """_word_coproduct, over loop_tensor_mul."""
    out = UqTensor.monomial((UNIT, UNIT))
    for g in word:
        out = loop_tensor_mul(out, UqTensor({(l, r): w for (l, r, w) in uqsl2._DELTA_GEN[g]}), q)
    return out


def loop_uq_coproduct(u, q):
    """uq_coproduct, with each monomial's coproduct from loop_word_coproduct."""
    out = UqTensor({})
    for mon, coeff in u.terms.items():
        for pair, w in loop_word_coproduct(uqsl2.monomial_word(mon), q).terms.items():
            out.add_term(pair, coeff * w)
    return out


def loop_qp_mul(p1, p2, q):
    out = QPlaneElement({})
    for (m, n), c1 in p1.terms.items():
        for (r, s), c2 in p2.terms.items():
            out.add_term((m + r, n + s), c1 * c2 * q ** (n * r))
    return out


def loop_qp_beta(p, k, params):
    out = {}
    for (m, n), coeff in p.terms.items():
        out[(m, n)] = coeff * params.xi ** (k * (m + n)) * params.lam ** (-k * n)
    return QPlaneElement(out)


def loop_mu_beta(p1, p2, params):
    """mu_beta before it summed memoized plane products."""
    return loop_qp_beta(loop_qp_mul(p1, p2, params.q), 1, params)


def loop_mu_alpha(u, v, params):
    return loop_uq_alpha(loop_uq_mul(u, v, params.q), 1, params.lam)


def loop_coproduct_alpha(u, params):
    return loop_uq_coproduct(loop_uq_alpha(u, 1, params.lam), params.q)


def loop_smash(plane, uq):
    """SmashTerm.smash."""
    out = SmashTerm({})
    for mn, c1 in plane.terms.items():
        for mon, c2 in uq.terms.items():
            out.add_term((mn, mon), c1 * c2)
    return out


def _sigma_k_power(p, c, q):
    """sigma(K)^c: x^m y^n -> q^{c(m-n)} x^m y^n."""
    out = {}
    for (m, n), coeff in p.terms.items():
        out[(m, n)] = coeff * q ** (c * (m - n))
    return QPlaneElement(out)


def _sigma_e(p, q):
    """sigma(E): x^m y^n -> [n]_q x^{m+1} y^{n-1}."""
    out = QPlaneElement({})
    for (m, n), coeff in p.terms.items():
        if n > 0:
            out.add_term((m + 1, n - 1), coeff * q_int(n, q))
    return out


def _sigma_f(p, q):
    """sigma(F): x^m y^n -> [m]_q x^{m-1} y^{n+1}."""
    out = QPlaneElement({})
    for (m, n), coeff in p.terms.items():
        if m > 0:
            out.add_term((m - 1, n + 1), coeff * q_int(m, q))
    return out


def oracle_rho_l(h, p, params):
    q = params.q
    base = loop_qp_beta(p, 1, params)
    out = QPlaneElement({})
    for (a, b, c), coeff in h.terms.items():
        w = coeff * params.lam ** ((params.l + 1) * (b - a))
        cur = _sigma_k_power(base, c, q)
        for _ in range(b):
            cur = _sigma_e(cur, q)
        for _ in range(a):
            cur = _sigma_f(cur, q)
        for key, v in cur.terms.items():
            out.add_term(key, w * v)
    return out


def oracle_smash_mul_uq(t1, t2, params):
    out = SmashTerm({})
    for (p1, h1), c1 in t1.terms.items():
        delta = loop_coproduct_alpha(UqElement.monomial(h1), params)
        plane1 = QPlaneElement.monomial(p1)
        for (p2, h2), c2 in t2.terms.items():
            c = c1 * c2
            binv = loop_qp_beta(QPlaneElement.monomial(p2), -1, params)
            h2el = UqElement.monomial(h2)
            for (ha, hb), w in delta.terms.items():
                acted = oracle_rho_l(
                    loop_uq_alpha(UqElement.monomial(ha), -2, params.lam), binv, params
                )
                plane = loop_mu_beta(plane1, acted, params)
                uq = loop_mu_alpha(
                    loop_uq_alpha(UqElement.monomial(hb), -1, params.lam), h2el, params
                )
                cw = c * w
                for mn, pv in plane.terms.items():
                    for mon, uv in uq.terms.items():
                        out.add_term((mn, mon), cw * pv * uv)
    return out


_SCALARS = st.builds(Q, st.integers(-4, 4).filter(bool), st.integers(1, 3))
_PARAM_TUPLES = st.tuples(
    st.sampled_from([Q(2), Q(3), Q(1, 2), Q(-2), Q(5, 3), Q(-3, 4)]),
    _SCALARS,
    _SCALARS,
    st.integers(0, 2),
)
# coefficients: the shared ONE and a fresh one as well as other rationals
_COEFFS = st.one_of(_SCALARS, st.just(ONE), st.builds(Q, st.just(1)))
_PBW = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
_PLANE = st.tuples(st.integers(0, 3), st.integers(0, 3))
_UQ = st.dictionaries(_PBW, _COEFFS, min_size=1, max_size=3).map(UqElement)
_QP = st.dictionaries(_PLANE, _COEFFS, min_size=1, max_size=3).map(QPlaneElement)
_SMASH = st.dictionaries(st.tuples(_PLANE, _PBW), _COEFFS, min_size=1, max_size=2).map(SmashTerm)
_TENSOR = st.dictionaries(st.tuples(_PBW, _PBW), _COEFFS, min_size=1, max_size=2).map(UqTensor)

_WARM = {}  # one UqParams per tuple, reused across examples: no result may depend on earlier calls


def _warm_and_fresh(tup):
    warm = _WARM.setdefault(tup, UqParams(*tup))
    return warm, UqParams(*tup)


def _cancel_one_term(x, image):
    """x with its first coefficient changed so that one key of image(x) cancels, and that key.

    image must be linear in x: the key's coefficient is r + c s, with r from
    the other terms of x and s from its first monomial alone.  When no key
    can cancel, x and None come back.
    """
    (k1, _), *rest = x.terms.items()
    others, alone = image(type(x)(dict(rest))), image(type(x)({k1: ONE}))
    for key, v in alone.terms.items():
        if key in others.terms:
            return type(x)({**x.terms, k1: -others.terms[key] / v}), key
    return x, None


def _assert_matches_its_loop(fn, loop, tup, x, *rest):
    """fn(x, *rest, params) equals the loop, on x and on x with a cancelling term, warm and fresh."""
    for params in _warm_and_fresh(tup):
        cancelled, key = _cancel_one_term(x, lambda v: loop(v, *rest, params))
        for first in (x, cancelled):
            assert fn(first, *rest, params) == loop(first, *rest, params)
        assert key not in fn(cancelled, *rest, params).terms


# each rewritten map and its loop as f(x[, y], params), with the strategies of x[, y];
# rho_l, mu_beta and smash_mul_uq have their own tests below
_MAPS = {
    "uq_mul": (lambda u, v, p: uq_mul(u, v, p.q), lambda u, v, p: loop_uq_mul(u, v, p.q), _UQ, _UQ),
    "UqTensor.mul": (
        lambda s, t, p: s.mul(t, p.q), lambda s, t, p: loop_tensor_mul(s, t, p.q), _TENSOR, _TENSOR
    ),
    # the power l - 1 of alpha and beta is -1, 0 or 1
    "uq_alpha": (
        lambda u, p: uq_alpha(u, p.l - 1, p.lam), lambda u, p: loop_uq_alpha(u, p.l - 1, p.lam), _UQ
    ),
    "uq_coproduct": (lambda u, p: uq_coproduct(u, p.q), lambda u, p: loop_uq_coproduct(u, p.q), _UQ),
    "qp_mul": (lambda a, b, p: qp_mul(a, b, p.q), lambda a, b, p: loop_qp_mul(a, b, p.q), _QP, _QP),
    "qp_beta": (lambda a, p: qp_beta(a, p.l - 1, p), lambda a, p: loop_qp_beta(a, p.l - 1, p), _QP),
    "mu_alpha": (mu_alpha, loop_mu_alpha, _UQ, _UQ),
    "coproduct_alpha": (coproduct_alpha, loop_coproduct_alpha, _UQ),
    "SmashTerm.smash": (
        lambda a, u, p: SmashTerm.smash(a, u), lambda a, u, p: loop_smash(a, u), _QP, _UQ
    ),
}


class TestMemoizedKernels:
    @given(_PARAM_TUPLES, _UQ, _QP)
    @settings(max_examples=80, deadline=None)
    def test_rho_l_matches_the_loop(self, tup, h, p):
        _assert_matches_its_loop(rho_l, oracle_rho_l, tup, h, p)

    @given(_PARAM_TUPLES, _SMASH, _SMASH)
    @settings(max_examples=40, deadline=None)
    def test_smash_mul_uq_matches_the_loop(self, tup, t1, t2):
        _assert_matches_its_loop(smash_mul_uq, oracle_smash_mul_uq, tup, t1, t2)

    @given(_PARAM_TUPLES, st.data())
    @settings(max_examples=40, deadline=None)
    def test_the_closed_forms_product_with_g_is_the_product_with_one_times_g(self, tup, data):
        t, plane, g = data.draw(_SMASH), data.draw(_PLANE), data.draw(_PBW)
        params = UqParams(*tup)
        by_unit = smash_mul_uq(t, SmashTerm.monomial((plane, UNIT)), params)
        want = smash_mul_uq(t, SmashTerm.monomial((plane, g)), params)
        assert uqsl2._right_factor(by_unit, g, params) == want

    @given(_PARAM_TUPLES, _QP, _QP)
    @settings(max_examples=80, deadline=None)
    def test_mu_beta_matches_beta_of_the_plane_product(self, tup, p1, p2):
        _assert_matches_its_loop(mu_beta, loop_mu_beta, tup, p1, p2)

    @pytest.mark.parametrize("name", list(_MAPS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_rewritten_map_matches_its_loop(self, name, data):
        fn, loop, *strategies = _MAPS[name]
        args = [data.draw(s) for s in strategies]
        _assert_matches_its_loop(fn, loop, data.draw(_PARAM_TUPLES), *args)

    @pytest.mark.parametrize(
        "fn, loop, x, y",
        [
            (mu_beta, loop_mu_beta, plane(1, 0) + plane(0, 1), plane(1, 0) + plane(0, 1)),
            (rho_l, oracle_rho_l, UqElement({UNIT: ONE, MON_K: ONE}), plane(1, 1)),
            (mu_alpha, loop_mu_alpha, mono(MON_E) + mono(MON_F), mono(MON_E) + mono(MON_F)),
        ],
        ids=["mu_beta", "rho_l", "mu_alpha"],
    )
    def test_a_term_that_cancels_is_not_stored(self, fn, loop, x, y):
        # drawn cases cancel a term only when two monomials' images share a
        # key; these fixed ones do, so that path always runs
        cancelled, key = _cancel_one_term(x, lambda v: loop(v, y, PARAMS))
        assert key is not None
        assert fn(cancelled, y, PARAMS) == loop(cancelled, y, PARAMS)
        assert key not in fn(cancelled, y, PARAMS).terms

    @pytest.mark.parametrize("zero", [ZERO, Q(0)], ids=["shared", "fresh"])
    def test_adding_zero_at_a_fresh_key_stores_nothing(self, zero):
        t = QPlaneElement({(1, 0): Q(2)})
        t.add_term((0, 1), zero)
        assert t.terms == {(1, 0): Q(2)}
        t.add_term((1, 0), Q(-2))
        assert t.terms == {}

    def test_a_fresh_one_acts_as_the_shared_one(self):
        fresh = Q(1)
        assert fresh is not ONE
        params = UqParams(3, Q(1, 2), 2, 1)
        for mon, mn in itertools.product([UNIT, MON_E, MON_F, (1, 1, -1)], [(0, 0), (1, 2)]):
            assert rho_l(UqElement({mon: fresh}), QPlaneElement({mn: fresh}), params) == rho_l(
                UqElement({mon: ONE}), QPlaneElement({mn: ONE}), params
            )
            t_fresh, t_one = SmashTerm({(mn, mon): fresh}), SmashTerm({(mn, mon): ONE})
            assert smash_mul_uq(t_fresh, t_fresh, params) == smash_mul_uq(t_one, t_one, params)
            assert smash_mul_uq(t_one, t_fresh, params) == oracle_smash_mul_uq(t_one, t_one, params)

    def test_a_changed_result_does_not_change_the_memo(self):
        params = UqParams(2, 3, 5, 1)
        h, p = UqElement({MON_E: ONE, (1, 1, -1): Q(2)}), plane(1, 2)
        t = SmashTerm({((1, 1), MON_F): ONE, ((0, 2), (0, 1, 1)): Q(-3)})
        rho_l(h, p, params).add_term((9, 9), ONE)
        smash_mul_uq(t, t, params).add_term(((9, 9), UNIT), ONE)
        assert rho_l(h, p, params) == oracle_rho_l(h, p, params)
        assert smash_mul_uq(t, t, params) == oracle_smash_mul_uq(t, t, params)

    def test_the_memo_dies_with_its_params(self):
        params = UqParams(3, Q(1, 2), 2, 2)
        t = SmashTerm({((1, 1), MON_E): ONE, ((2, 0), MON_KINV): Q(5)})
        smash_mul_uq(t, t, params)
        check_uq_module_hom_algebra(params)
        ref = weakref.ref(params)
        del params
        gc.collect()
        assert ref() is None

    def test_warm_and_cold_params_are_equal(self):
        warm = UqParams(2, 3, 5, 0)
        check_uq_module_hom_algebra(warm)
        smash_mul_uq(SmashTerm.monomial(((1, 0), MON_E)), SmashTerm.monomial(((0, 1), MON_F)), warm)
        cold = UqParams(2, 3, 5, 0)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert {warm: "found"}[cold] == "found"
        assert warm != UqParams(2, 3, 5, 1)


class TestOneExtension:
    """`_extend` and `_scan_eq`, which every term map and scan goes through."""

    def test_an_empty_element_on_either_side_gives_an_empty_result(self):
        def rule(k1, k2=None):
            return ((k1, ONE),)

        p = QPlaneElement({(1, 0): Q(2)})
        assert uqsl2._extend(QPlaneElement, rule, QPlaneElement(), p).terms == {}
        assert uqsl2._extend(QPlaneElement, rule, p, QPlaneElement()).terms == {}
        assert uqsl2._extend(QPlaneElement, rule, QPlaneElement()).terms == {}
        assert rho_l(UqElement(), p, PARAMS).terms == {}
        assert smash_mul_uq(SmashTerm(), SmashTerm.monomial(((0, 0), UNIT)), PARAMS).terms == {}

    def test_a_rule_that_returns_nothing_adds_nothing(self):
        p = QPlaneElement({(1, 0): Q(2), (0, 1): ONE})
        assert uqsl2._extend(QPlaneElement, lambda k1, k2: (), p, p).terms == {}
        # sigma(E) kills x^m y^0, so _monomial_rho gives no pair there
        assert uqsl2._monomial_rho(MON_E, (2, 0), PARAMS) == ()
        assert rho_l(UqElement({MON_E: ONE, UNIT: ONE}), plane(2, 0), PARAMS) == qp_beta(
            plane(2, 0), 1, PARAMS
        )

    @pytest.mark.parametrize("one", [ONE, Q(1)], ids=["shared", "fresh"])
    def test_a_sum_that_cancels_stores_no_key(self, one):
        x = QPlaneElement({(1, 0): one, (0, 1): -one})
        same = uqsl2._extend(QPlaneElement, lambda mn: (((0, 0), one),), x)
        assert same.terms == {}
        pair = uqsl2._extend(QPlaneElement, lambda mn, rs: (((0, 0), one),), x, plane(0, 0))
        assert pair.terms == {}
        kept = uqsl2._extend(QPlaneElement, lambda mn: ((mn, one), ((0, 0), one)), x)
        assert kept.terms == {(1, 0): ONE, (0, 1): -ONE}

    def test_both_coefficients_scale_the_rule(self):
        x, y = QPlaneElement({(1, 0): Q(2)}), QPlaneElement({(0, 1): Q(3)})
        got = uqsl2._extend(QPlaneElement, lambda mn, rs: (((0, 0), Q(5)),), x, y)
        assert got.terms == {(0, 0): Q(30)}

    def test_scans_pass_equal_maps_as_empty_and_sort_only_a_failing_pair(self, monkeypatch):
        seen, sorted_calls = [], []
        eq, items = Scan.eq, uqsl2._TermMap.items

        def recording_eq(scan, equation, basis, lhs, rhs):
            seen.append((equation, lhs, rhs))
            return eq(scan, equation, basis, lhs, rhs)

        def counting_items(self):
            sorted_calls.append(None)
            return items(self)

        monkeypatch.setattr(Scan, "eq", recording_eq)
        monkeypatch.setattr(uqsl2._TermMap, "items", counting_items)
        params = UqParams(2, 3, 5, 0)
        for report in (
            check_pbw_confluence(Q(2)),
            check_hopf_on_relations(Q(2), Q(3)),
            check_uq_module_hom_algebra(params),
            verify_smash_closed_forms(params),
        ):
            assert report.passed
        compared = [(lhs, rhs) for e, lhs, rhs in seen if e != "rule_lowers_order"]
        # 8 overlaps, 18 Hopf equations, 24 module equations, 24 closed forms
        assert len(compared) == 8 + 18 + 24 + 24
        assert set(compared) == {((), ())} and sorted_calls == []
        # a failing pair is passed sorted, as before
        scan = Scan()
        lhs, rhs = plane(0, 1) + plane(1, 0), plane(1, 0)
        uqsl2._scan_eq(scan, "e", (), lhs, rhs)
        assert scan.done().failures[0].lhs == (((0, 1), ONE), ((1, 0), ONE))
        assert len(sorted_calls) == 2
