import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from homtwist.errors import DegenerateQ, ParamConstraintViolation
from homtwist import uqsl2
from homtwist.exact import ONE, Q, Scan, ZERO
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

    @pytest.mark.parametrize("kwargs", [dict(lam=0), dict(xi=0), dict(l=-1)])
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
    def test_bound_three(self):
        assert check_uq_module_hom_algebra(PARAMS, 3).passed

    def test_bound_zero_products_vacuous(self):
        assert check_uq_module_hom_algebra(PARAMS, 0).passed

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
    @pytest.mark.parametrize("tup", [(2, 3, 5), (3, Q(1, 2), 2)])
    def test_bounds_two(self, tup):
        assert verify_smash_closed_forms(UqParams(*tup, 0), 2).passed

    def test_bounds_zero(self):
        assert verify_smash_closed_forms(PARAMS, 0).passed

    def test_requires_l_zero(self):
        with pytest.raises(ParamConstraintViolation):
            verify_smash_closed_forms(UqParams(2, 3, 5, 1), 1)

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
# kernels, kept verbatim as oracles (rho_l renamed to oracle_rho_l throughout)
# ---------------------------------------------------------------------------


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
    base = qp_beta(p, 1, params)
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
        delta = coproduct_alpha(UqElement.monomial(h1), params)
        plane1 = QPlaneElement.monomial(p1)
        for (p2, h2), c2 in t2.terms.items():
            c = c1 * c2
            binv = qp_beta(QPlaneElement.monomial(p2), -1, params)
            h2el = UqElement.monomial(h2)
            for (ha, hb), w in delta.terms.items():
                acted = oracle_rho_l(uq_alpha(UqElement.monomial(ha), -2, params.lam), binv, params)
                plane = mu_beta(plane1, acted, params)
                uq = mu_alpha(uq_alpha(UqElement.monomial(hb), -1, params.lam), h2el, params)
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
_PBW = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
_PLANE = st.tuples(st.integers(0, 3), st.integers(0, 3))
_UQ = st.dictionaries(_PBW, _SCALARS, min_size=1, max_size=3).map(UqElement)
_QP = st.dictionaries(_PLANE, _SCALARS, min_size=1, max_size=3).map(QPlaneElement)
_SMASH = st.dictionaries(st.tuples(_PLANE, _PBW), _SCALARS, min_size=1, max_size=2).map(SmashTerm)

_WARM = {}  # one UqParams per tuple, reused across examples so its memo tables stay filled


def _warm_and_fresh(tup):
    warm = _WARM.setdefault(tup, UqParams(*tup))
    return warm, UqParams(*tup)


class TestMemoizedKernels:
    @given(_PARAM_TUPLES, _UQ, _QP)
    @settings(max_examples=80, deadline=None)
    def test_rho_l_matches_the_loop(self, tup, h, p):
        for params in _warm_and_fresh(tup):
            assert rho_l(h, p, params) == oracle_rho_l(h, p, params)

    @given(_PARAM_TUPLES, _SMASH, _SMASH)
    @settings(max_examples=40, deadline=None)
    def test_smash_mul_uq_matches_the_loop(self, tup, t1, t2):
        for params in _warm_and_fresh(tup):
            assert smash_mul_uq(t1, t2, params) == oracle_smash_mul_uq(t1, t2, params)

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
        check_uq_module_hom_algebra(params, 1)
        ref = weakref.ref(params)
        del params
        gc.collect()
        assert ref() is None

    def test_warm_and_cold_params_are_equal(self):
        warm = UqParams(2, 3, 5, 0)
        check_uq_module_hom_algebra(warm, 1)
        smash_mul_uq(SmashTerm.monomial(((1, 0), MON_E)), SmashTerm.monomial(((0, 1), MON_F)), warm)
        cold = UqParams(2, 3, 5, 0)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert {warm: "found"}[cold] == "found"
        assert warm != UqParams(2, 3, 5, 1)
