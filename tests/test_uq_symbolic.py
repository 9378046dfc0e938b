"""The U_q(sl2) plane side over symbolic exponents.

`rho_l`, `mu_beta` and `smash_mul_uq` given plane monomials with symbolic
exponents m, n, r, s compute in the ring of sums c q^P lam^L xi^X.  Evaluated
at any exponents they must give the int-exponent result, which the loop
oracles of ``test_uqsl2`` pin independently.  `check_uq_module_hom_algebra`
and `verify_smash_closed_forms` scan that one symbolic basis; a formal
mismatch is reported at the failing instances of a small box, and one with
none there is an error, never a pass.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from homtwist import exact, formal, uqsl2
from homtwist.errors import HomTwistError
from homtwist.exact import ONE, Q, CheckReport, Failure, Scan
from homtwist.formal import LAM_SLOT, M, N, Q_SLOT, R, S, XI_SLOT, PowerSum, power, symbols
from homtwist.suite import criterion_8_quantum, run_criteria
from homtwist.uqsl2 import (
    GEN_MONOMIAL,
    MON_E,
    MON_F,
    QPlaneElement,
    SmashTerm,
    UqElement,
    UqParams,
    check_rho_generator_formulas,
    check_uq_module_hom_algebra,
    q_int,
    rho_generator_formula,
    verify_smash_closed_forms,
)
from test_uqsl2 import loop_mu_beta, oracle_rho_l, oracle_smash_mul_uq
from uq_instances import (
    at_level,
    box_planes,
    closed_form_instances,
    loop_check_uq_module_hom_algebra,
    smash_product_left,
)

# criterion 8's (q, lambda, xi) while lambda and xi were rationals; lambda xi = 1 at the second
CRITERION_TUPLES = [(2, 3, 5), (3, Q(1, 2), 2)]
CRITERION_POINTS = [(2, 3, 5), (3, 2, 5)]  # criterion 8's (q, lambda, xi)
# every tuple either criterion has used; the level given is formal in the scans
SCANNED_TUPLES = CRITERION_TUPLES + CRITERION_POINTS[1:]
BASES = (Q(2), Q(3), Q(5))
_PBW = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
_ENV = st.fixed_dictionaries({v: st.integers(0, 5) for v in "mnrs"})
_TUPLE_AND_LEVEL = st.tuples(st.sampled_from(CRITERION_TUPLES), st.integers(0, 2))


def _instance(x, env, params):
    return formal.instance(x, env, (params.q, params.lam, params.xi))


def _mismatch(fn, xs, env, tup, l):
    """fn on symbolic xs, evaluated at env, against fn on the evaluated xs; None if equal.

    `fn` names a `uqsl2` function, read at call time so that a patched one
    reaches both sides.
    """
    params = UqParams(*tup, l)
    got = _instance(getattr(uqsl2, fn)(*xs, params), env, params)
    want = getattr(uqsl2, fn)(*(_instance(x, env, params) for x in xs), params)
    return None if got == want else (got, want)


class TestExponent:
    def test_a_constant_result_is_an_int(self):
        assert (M + 1) - M == 1 and type((M + 1) - M) is int
        assert M * 0 == 0 and N - N == 0
        assert sum((M, N)) == M + N and 2 * (M - N) == 2 * M - 2 * N

    def test_equal_polynomials_are_equal_keys(self):
        assert (M + R) * (N - 1) == M * N + R * N - M - R
        assert {(M + 1, N): "x"}[(1 + M, N)] == "x"
        assert M != N and M + 1 != M

    def test_repr_and_value(self):
        assert repr(M * N - 2 * R + 3) == "m*n-2*r+3"
        assert (M * N - 2 * R + 3).at({"m": 2, "n": 5, "r": 1}) == 11


class TestPowerSum:
    def test_int_exponents_give_rationals(self):
        q = Q(2)
        assert power(Q_SLOT, q, 3) == Q(8) and type(power(Q_SLOT, q, -1)) is Q
        assert q_int(3, q) == q * q + 1 + 1 / (q * q)

    def test_constants_fold_into_the_coefficient(self):
        q = Q(2)
        q_m3 = power(Q_SLOT, q, M + 3)
        assert q_m3.terms == {(M, 0, 0): Q(8)}
        # q^{m+3} q^{-m} is the rational 8, not a PowerSum
        assert q_m3 * power(Q_SLOT, q, -M) == Q(8)
        assert q_m3 - q_m3 == 0 and type(q_m3 - q_m3) is Q

    def test_q_int_has_two_terms(self):
        q = Q(3)
        sym = q_int(N, q)
        assert type(sym) is PowerSum and len(sym.terms) == 2
        bases = (q, ONE, ONE)
        assert [sym.at({"n": n}, bases) for n in range(4)] == [q_int(n, q) for n in range(4)]

    def test_lambda_and_xi_keep_their_slots(self):
        params = UqParams(3, Q(1, 2), 2, 0)
        # lam xi = 1 here, yet lam^m and xi^{-m} are distinct keys of the ring
        lam_m = power(LAM_SLOT, params.lam, M)
        xi_inv = power(XI_SLOT, params.xi, -M)
        assert lam_m != xi_inv
        bases = (params.q, params.lam, params.xi)
        assert lam_m.at({"m": 3}, bases) == xi_inv.at({"m": 3}, bases) == Q(1, 8)


class TestSymbolicMatchesInts:
    """Differential: the symbolic maps, evaluated, equal the int maps and the loop oracles."""

    @given(_TUPLE_AND_LEVEL, _PBW, _ENV)
    @settings(max_examples=60, deadline=None)
    def test_rho_l(self, tl, h, env):
        xs = (UqElement.monomial(h), QPlaneElement.monomial((M, N)))
        assert _mismatch("rho_l", xs, env, *tl) is None
        params = UqParams(*tl[0], tl[1])
        ints = [_instance(x, env, params) for x in xs]
        assert _instance(uqsl2.rho_l(*xs, params), env, params) == oracle_rho_l(*ints, params)

    @given(_TUPLE_AND_LEVEL, _ENV)
    @settings(max_examples=30, deadline=None)
    def test_mu_beta(self, tl, env):
        xs = (QPlaneElement.monomial((M, N)), QPlaneElement.monomial((R, S)))
        assert _mismatch("mu_beta", xs, env, *tl) is None
        params = UqParams(*tl[0], tl[1])
        ints = [_instance(x, env, params) for x in xs]
        assert _instance(uqsl2.mu_beta(*xs, params), env, params) == loop_mu_beta(*ints, params)

    @given(_TUPLE_AND_LEVEL, _PBW, _PBW, _ENV)
    @settings(max_examples=40, deadline=None)
    def test_smash_mul_uq(self, tl, h1, h2, env):
        xs = (SmashTerm.monomial(((M, N), h1)), SmashTerm.monomial(((R, S), h2)))
        assert _mismatch("smash_mul_uq", xs, env, *tl) is None
        params = UqParams(*tl[0], tl[1])
        ints = [_instance(x, env, params) for x in xs]
        want = oracle_smash_mul_uq(*ints, params)
        assert _instance(uqsl2.smash_mul_uq(*xs, params), env, params) == want

    def test_the_odd_degree_doubling_is_caught(self, monkeypatch):
        # the mutant doubles E and F rows on odd r + s; parity is not a
        # function the ring can hold, so it reaches only int exponents, and
        # only the differential comparison sees it
        xs = (SmashTerm.monomial(((M, N), MON_E)), SmashTerm.monomial(((R, S), MON_F)))
        original = uqsl2.smash_mul_uq
        doubled = _doubled_on_odd_r_plus_s(original)
        with pytest.raises(TypeError):
            doubled(*xs, UqParams(2, 3, 5, 0))

        def smash_mul_uq(t1, t2, params):
            symbolic = symbols(tuple(t1.terms) + tuple(t2.terms))
            return (original if symbolic else doubled)(t1, t2, params)

        monkeypatch.setattr(uqsl2, "smash_mul_uq", smash_mul_uq)
        env = {"m": 1, "n": 2, "r": 0, "s": 1}
        assert _mismatch("smash_mul_uq", xs, env, (2, 3, 5), 0) is not None
        assert _mismatch("smash_mul_uq", xs, {**env, "s": 2}, (2, 3, 5), 0) is None
        # the symbolic closed-form scan cannot see it
        assert verify_smash_closed_forms(UqParams(2, 3, 5, 0)).passed


def _doubled_on_odd_r_plus_s(original):
    """smash_mul_uq with the products of the E and F rows doubled on odd r + s."""

    def smash_mul_uq(t1, t2, params):
        out = original(t1, t2, params)
        (_, head), = t1.terms
        ((r, s), _), = t2.terms
        if head in (MON_E, MON_F) and (r + s) % 2:
            out = out.scale(2)
        return out

    return smash_mul_uq


def _k_scaled_by_an_extra_q(mon, mn, params):
    """_monomial_rho with K^c scaled by q^{c(m-n+1)} in place of q^{c(m-n)}."""
    (a, b, c), (m, n) = mon, mn
    q, lam = params.q, params.lam
    coeff = power(LAM_SLOT, lam, (params.l + 1) * (b - a)) * power(XI_SLOT, params.xi, m + n)
    coeff *= power(LAM_SLOT, lam, -n) * power(Q_SLOT, q, c * (m - n + 1))
    for _ in range(b):
        coeff *= q_int(n, q)
        m, n = m + 1, n - 1
    for _ in range(a):
        coeff *= q_int(m, q)
        m, n = m - 1, n + 1
    return (((m, n), coeff),) if coeff else ()


def _module_box_loop(params):
    return loop_check_uq_module_hom_algebra(params, box_planes())


def _closed_form_box(params):
    box = formal.WITNESS_BOX - 1
    return closed_form_instances(params, box, smash_product_left(params))[0]


class TestSymbolicScans:
    @pytest.mark.parametrize("tup", SCANNED_TUPLES)
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_the_criterion_cases_pass_in_24_instances(self, tup, l, monkeypatch):
        seen = []
        eq = Scan.eq

        def recording_eq(scan, equation, basis, lhs, rhs):
            seen.append(equation)
            return eq(scan, equation, basis, lhs, rhs)

        monkeypatch.setattr(Scan, "eq", recording_eq)
        params = UqParams(*tup, l)
        assert check_uq_module_hom_algebra(params).passed
        assert len(seen) == 4 + 16 + 4
        if l == 0:
            seen.clear()
            assert verify_smash_closed_forms(params).passed
            assert len(seen) == 4 * 6

    @pytest.mark.parametrize(
        "check, int_scan, levels",
        [
            (check_uq_module_hom_algebra, _module_box_loop, range(formal.WITNESS_BOX)),
            (verify_smash_closed_forms, _closed_form_box, [0]),
        ],
        ids=["module", "closed_forms"],
    )
    def test_a_mutant_fails_where_the_bounded_scan_does(self, check, int_scan, levels, monkeypatch):
        monkeypatch.setattr(exact, "DEFAULT_FAILURE_CAP", 10 ** 6)
        monkeypatch.setattr(uqsl2, "_monomial_rho", _k_scaled_by_an_extra_q)
        report = check(UqParams(2, 3, 5, 0))
        assert not report.passed and report.failures
        assert all(not symbols(f.basis) for f in report.failures)
        # at each level of the box, the witnesses that hold there are exactly
        # the failures of the box scanned at int exponents: by the int loop,
        # or with the int-exponent smash_mul_uq against the closed forms
        for l in levels:
            assert at_level(report.failures, l) == set(int_scan(UqParams(2, 3, 5, l)).failures)

    def test_witnesses_come_in_lexicographic_order_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(uqsl2, "_monomial_rho", _k_scaled_by_an_extra_q)
        report = check_uq_module_hom_algebra(UqParams(2, 3, 5, 0))
        assert len(report.failures) == exact.DEFAULT_FAILURE_CAP
        first = report.failures[0]
        assert (first.equation, first.basis) == ("module_assoc", ("E", "F", (0, 0)))
        assert [f.basis[2] for f in report.failures[:4]] == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_a_mismatch_with_no_witness_in_the_box_is_an_error(self):
        params = UqParams(2, 3, 5, 0)
        # [m]_q [m-1]_q ... vanishes at every m in the box, but not in the ring
        vanishing = ONE
        for j in range(formal.WITNESS_BOX):
            vanishing = vanishing * q_int(M - j, params.q)
        lhs = QPlaneElement({(M, N): vanishing})
        scan = Scan()
        uqsl2._scan_eq(scan, "module_alpha", ("E", (M, N)), lhs, QPlaneElement())
        with pytest.raises(HomTwistError, match="differs in the ring but at no exponents below"):
            formal.witnessed(scan.done(), BASES, uqsl2._TermMap)
        # one more exponent in the box finds it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formal, "WITNESS_BOX", formal.WITNESS_BOX + 1)
            report = formal.witnessed(scan.done(), BASES, uqsl2._TermMap)
        assert not report.passed and report.failures[0].basis == ("E", (4, 0))

    def test_the_error_reaches_the_check(self, monkeypatch):
        monkeypatch.setattr(uqsl2, "_monomial_rho", _k_scaled_by_an_extra_q)
        monkeypatch.setattr(formal, "WITNESS_BOX", 0)
        with pytest.raises(HomTwistError):
            check_uq_module_hom_algebra(UqParams(2, 3, 5, 0))

    def test_concrete_reports_pass_through(self):
        failure = Failure("module_alpha", ("E", (1, 0)), (), ((((0, 0), ONE),)))
        for report in (CheckReport(True), CheckReport(False, (failure,))):
            assert formal.witnessed(report, BASES, uqsl2._TermMap) is report


def _rho_scaled_by(factor):
    """_monomial_rho with each image scaled by factor(params, n), n the y-degree acted on."""
    original = uqsl2._monomial_rho

    def mutant(mon, mn, params):
        extra = factor(params, mn[1])
        return tuple((key, c * extra) for key, c in original(mon, mn, params))

    return mutant


def _rho_times_q_to(exponent):
    """_monomial_rho with each image scaled by q^{exponent(n)}."""
    return _rho_scaled_by(lambda params, n: power(Q_SLOT, params.q, exponent(n)))


def _sampled_rho_oracle(params, degrees=range(5)):
    """The int loop criterion 8 ran before it compared the generators over symbols."""
    for (gen, mon), m, n in itertools.product(GEN_MONOMIAL.items(), degrees, degrees):
        got = uqsl2.rho_l(UqElement.monomial(mon), QPlaneElement.monomial((m, n)), params)
        if got != rho_generator_formula(gen, m, n, params):
            return gen, (m, n)
    return None


class TestRhoGeneratorFormulas:
    """rho_l on the generators against their closed formulas, once over symbolic m, n."""

    @pytest.mark.parametrize("tup", SCANNED_TUPLES)
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_the_criterion_cases_pass_in_4_equations(self, tup, l, monkeypatch):
        seen = []
        eq = Scan.eq

        def recording_eq(scan, equation, basis, lhs, rhs):
            seen.append(basis)
            return eq(scan, equation, basis, lhs, rhs)

        monkeypatch.setattr(Scan, "eq", recording_eq)
        assert check_rho_generator_formulas(UqParams(*tup, l)).passed
        assert seen == [(gen, (M, N)) for gen in GEN_MONOMIAL]

    @given(_TUPLE_AND_LEVEL, st.sampled_from(list(GEN_MONOMIAL)), _ENV)
    @settings(max_examples=40, deadline=None)
    def test_the_symbolic_formula_at_an_instance_is_the_int_formula(self, tl, gen, env):
        params = UqParams(*tl[0], tl[1])
        symbolic = _instance(rho_generator_formula(gen, M, N, params), env, params)
        assert symbolic == rho_generator_formula(gen, env["m"], env["n"], params)

    def test_a_mutant_wrong_only_above_degree_4_fails_criterion_8(self, monkeypatch):
        above_4 = _rho_times_q_to(lambda n: n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
        monkeypatch.setattr(uqsl2, "_monomial_rho", above_4)
        # the sampled oracle of degrees <= 4 cannot see it
        assert _sampled_rho_oracle(UqParams(2, 3, 5, 0)) is None
        assert _sampled_rho_oracle(UqParams(2, 3, 5, 0), range(6)) == ("E", (0, 5))
        # over symbols it differs in the ring, but at no instance of the box
        with pytest.raises(HomTwistError, match="rho_generator_formula at"):
            check_rho_generator_formulas(UqParams(2, 3, 5, 0))
        [(_, passed, detail, _)] = run_criteria("8-uq")
        assert not passed and detail.startswith("HomTwistError: rho_generator_formula at ('E'")

    def test_a_mutant_wrong_at_degree_2_fails_with_its_witness(self, monkeypatch):
        monkeypatch.setattr(uqsl2, "_monomial_rho", _rho_times_q_to(lambda n: n * (n - 1)))
        report = check_rho_generator_formulas(UqParams(2, 3, 5, 0))
        assert not report.passed
        assert all(not symbols(f.basis) for f in report.failures)
        assert report.failures[0].basis == ("E", (0, 2), "l=0")
        detail = "rho oracle mismatch at (2, 3, 5), ('E', (0, 2), 'l=0')"
        assert criterion_8_quantum([]) == (False, detail)


class TestFormalParameters:
    """lambda, xi and the level are formal in the symbolic scans; witnesses are at the caller's."""

    @pytest.mark.parametrize("point", CRITERION_POINTS)
    def test_a_lambda_mutant_fails_the_module_scan_at_e_e(self, point, monkeypatch):
        lam_n_n1 = _rho_scaled_by(lambda params, n: power(LAM_SLOT, params.lam, n * (n - 1)))
        monkeypatch.setattr(uqsl2, "_monomial_rho", lam_n_n1)
        report = check_uq_module_hom_algebra(UqParams(*point))
        assert not report.passed
        first = report.failures[0]
        assert (first.equation, first.basis) == ("module_assoc", ("E", "E", (0, 3), "l=0"))

    def test_a_mutant_that_is_the_identity_at_level_0_is_witnessed_at_level_1(self, monkeypatch):
        lam_l = _rho_scaled_by(lambda params, n: power(LAM_SLOT, params.lam, params.l))
        monkeypatch.setattr(uqsl2, "_monomial_rho", lam_l)
        # at level 0 the sampled oracle cannot see it
        assert _sampled_rho_oracle(UqParams(2, 3, 5, 0)) is None
        report = check_rho_generator_formulas(UqParams(2, 3, 5))
        assert not report.passed
        assert report.failures[0].basis == ("E", (0, 1), "l=1")
        assert all(f.basis[-1] != "l=0" for f in report.failures)
        assert criterion_8_quantum([]) == (
            False, "rho oracle mismatch at (2, 3, 5), ('E', (0, 1), 'l=1')"
        )

    @pytest.mark.parametrize("check", [check_rho_generator_formulas, check_uq_module_hom_algebra])
    def test_a_lambda_xi_mutant_is_witnessed_where_they_are_independent(self, check, monkeypatch):
        lam_xi_n = _rho_scaled_by(
            lambda params, n: power(LAM_SLOT, params.lam, n) * power(XI_SLOT, params.xi, n)
        )
        monkeypatch.setattr(uqsl2, "_monomial_rho", lam_xi_n)
        # lambda xi = 1 makes the mutant the identity, so no instance there fails
        with pytest.raises(HomTwistError, match="differs in the ring but at no exponents"):
            check(UqParams(3, Q(1, 2), 2))
        report = check(UqParams(*CRITERION_POINTS[1]))
        assert not report.passed and report.failures
        assert all(not symbols(f.basis) for f in report.failures)
