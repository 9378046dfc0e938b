"""Exact computation in U_q(sl2) at a rational q, with rational or formal lambda and xi.

PBW normal form is F^a E^b K^c (``c`` may be negative, meaning powers of the
inverse generator).  Words over the generators {E, F, K, Kinv} are rewritten
by the terminating system

    EF -> FE + (K - Kinv)/(q - q^{-1}),   KE -> q^2 EK,   KF -> q^{-2} FK,
    KinvE -> q^{-2} E Kinv,  KinvF -> q^2 F Kinv,  K Kinv -> 1,  Kinv K -> 1.

`pbw_normalize` rewrites the leftmost redex.  Each rule lowers words in the
order: shorter first, then, among rearrangements of the same letters, fewer
out-of-order pairs under F < E < K = Kinv.  That order is compatible with
concatenation and well-founded, so rewriting terminates; by Bergman's diamond
lemma (Adv. Math. 29, 1978) normal forms are then unique iff the 8 overlap
words x y z of two rules resolve.  `check_pbw_confluence` scans both facts.
The coproduct and alpha extend generator assignments along words, so
`check_hopf_on_relations` checks that they are algebra maps on the 7 rules
alone, and that alpha is a coalgebra map on the 4 generators alone.

The Hom-quantum plane carries beta(x) = xi x, beta(y) = xi/lambda y, and the
quantum group carries alpha(E) = lambda E, alpha(F) = lambda^{-1} F,
alpha(K) = K.  q is a rational; lambda, xi and the level l of the action are
rationals and an int, or the formal `formal.LAM`, `formal.XI` and `formal.LEVEL`.

Plane exponents may be symbols.  A plane key (m, n) may hold
`formal.Exponent`s, integer polynomials in the names m, n, r and s, and a
coefficient is then a `formal.PowerSum`: a finite sum c q^P lam^L xi^X with
rational c and exponent polynomials P, L, X, which may hold l too.  Every
power of a parameter, in `q_int`, `uq_alpha`, `qp_mul`, `qp_beta`,
`_monomial_rho` and `rho_generator_formula`, goes through `formal.power`, so
each rule has one definition, which at rational parameters and int exponents
gives exactly the rationals it always gave.  At int exponents E and F stop
acting where [0]_q = 0 appears; over symbols that q-integer is a two-term sum
that vanishes at the instance.

`check_rho_generator_formulas` compares rho_l with the closed formulas once
per generator on x^m y^n; `check_uq_module_hom_algebra` and
`verify_smash_closed_forms` scan one symbolic basis (24 equations each).
These three scans run at the caller's q with lambda, xi and the level formal
(the closed forms at l = 0).
Setting the names to ints and LAM, XI to nonzero rationals is a ring map that
commutes with every rule (a term whose key leaves the plane carries a
vanishing q-integer), so a pass holds for every lambda, xi, level and plane
degree.  Conversely, for rational q not 0 or +-1 the functions q^P of
distinct P are linearly independent on the exponents (restrict to a generic
ray and compare growth), so a mismatch in the ring fails somewhere.  It is
evaluated at the caller's lambda and xi on the box of the level and plane
exponents below ``formal.WITNESS_BOX`` and reported at its failing instances;
with none there the check raises HomTwistError and never passes.  Still
sampled are the generators and generator pairs of U_q in the module scan and
the six right factors G of the closed forms.

Pure values that depend on q alone are memoized; verified facts never are.
The rewriting rules, PBW monomial products and monomial coproducts are kept
in module-level ``lru_cache``s for the life of the process.  Nothing is
stored on a `UqParams`: the action, the plane product and the smash product
are recomputed on every call.
Every map is (bi)linear: a rule gives the (key, coeff) pairs of the image of
one monomial or pair, and `_extend` sums them, scaled by the coefficients
(passing the shared ``ONE`` through).  Scans
compare term maps through `_scan_eq`, which sorts only a pair that differs.
Every check rescans on every call.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateQ, ParamConstraintViolation
from .exact import ONE, Scan, ZERO, as_scalar
from .formal import (
    LAM,
    LAM_SLOT,
    LEVEL,
    M,
    N,
    Q_SLOT,
    R,
    S,
    XI,
    XI_SLOT,
    Exponent,
    power,
    witnessed,
)

E = "E"
F = "F"
K = "K"
KINV = "Kinv"
GENERATORS = (E, F, K, KINV)

UNIT = (0, 0, 0)
MON_E = (0, 1, 0)
MON_F = (1, 0, 0)
MON_K = (0, 0, 1)
MON_KINV = (0, 0, -1)
GEN_MONOMIAL = {E: MON_E, F: MON_F, K: MON_K, KINV: MON_KINV}


def _check_q(q):
    q = as_scalar(q)
    if q == 0 or q == 1 or q == -1:
        raise DegenerateQ(f"q must avoid {{0, 1, -1}}, got {q}")
    return q


@dataclass(frozen=True)
class UqParams:
    """Parameters (q, lambda, xi, l): rationals and a level, or the formal LAM, XI and LEVEL."""

    q: object
    lam: object
    xi: object
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))
        object.__setattr__(self, "lam", _unit("lambda", self.lam))
        object.__setattr__(self, "xi", _unit("xi", self.xi))
        if self.l is not LEVEL:
            _check_int("l", self.l, count=True)


def _unit(name, x):
    """x as a nonzero rational, or the formal LAM or XI itself."""
    if x is LAM or x is XI:
        return x
    if not (x := as_scalar(x)):
        raise ParamConstraintViolation(f"{name} must be nonzero")
    return x


def _check_int(name, value, count=False):
    """A power is an int, a count (a level) a non-negative one; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, int) or count and value < 0:
        kind = "a non-negative integer" if count else "an integer"
        raise ParamConstraintViolation(f"{name} must be {kind}, got {value!r}")


def _times(v, w):
    """v * w, passing the shared ONE through."""
    return w if v is ONE else v if w is ONE else v * w


def q_int(n, q):
    """The balanced q-integer [n]_q = (q^n - q^{-n})/(q - q^{-1}), for an int or symbolic n."""
    if not isinstance(n, Exponent):
        _check_int("n", n)
    q = _check_q(q)
    if n == 0:
        return ZERO
    return (power(Q_SLOT, q, n) - power(Q_SLOT, q, -n)) / (q - q ** (-1))


class _TermMap:
    """Finite scalar combination keyed by hashable monomials; zero-free."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def monomial(cls, key, coeff=ONE):
        coeff = as_scalar(coeff)
        return cls({key: coeff} if coeff else {})

    @classmethod
    def outer(cls, x, y):
        """The outer product: each pair (k1, k2) of keys of x and y, with c1 c2."""
        return _extend(cls, lambda k1, k2: (((k1, k2), ONE),), x, y)

    def add_term(self, key, coeff):
        v = self.terms[key] + coeff if key in self.terms else coeff
        if v:
            self.terms[key] = v
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = type(self)(self.terms)
        for k, v in other.terms.items():
            out.add_term(k, v)
        return out

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, coeff):
        coeff = as_scalar(coeff)
        if not coeff:
            return type(self)({})
        return type(self)({k: v * coeff for k, v in self.terms.items()})

    def items(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        parts = [f"{v}*{k}" for k, v in self.items()]
        return f"{type(self).__name__}({' + '.join(parts)})"


def _extend(cls, rule, x, y=None):
    """Sum c1 rule(k1) over the terms of x or, given y, c1 c2 rule(k1, k2) over pairs of terms."""
    out = cls()
    add = out.add_term
    if y is None:
        for k1, c1 in x.terms.items():
            for key, v in rule(k1):
                add(key, _times(c1, v))
        return out
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            c = _times(c1, c2)
            for key, v in rule(k1, k2):
                add(key, _times(c, v))
    return out


def _scan_eq(scan, equation, basis, lhs, rhs):
    """scan.eq on two term maps, sorting their terms only when they differ."""
    if lhs == rhs:
        scan.eq(equation, basis, (), ())
    else:
        scan.eq(equation, basis, lhs.items(), rhs.items())


class UqElement(_TermMap):
    """Combination of PBW monomials (a, b, c) meaning F^a E^b K^c."""

    @classmethod
    def unit(cls):
        return cls.monomial(UNIT)


class QPlaneElement(_TermMap):
    """Combination of quantum-plane monomials (m, n) meaning x^m y^n."""

    @classmethod
    def unit(cls):
        return cls.monomial((0, 0))


class UqTensor(_TermMap):
    """Combination of pairs of PBW monomials: an element of U_q (x) U_q."""

    def mul(self, other, q):
        def rule(t1, t2):
            (l1, r1), (l2, r2) = t1, t2
            right = _monomial_mul(r1, r2, q)
            return [((ml, mr), wl * wr) for ml, wl in _monomial_mul(l1, l2, q) for mr, wr in right]

        return _extend(UqTensor, rule, self, other)


# ---------------------------------------------------------------------------
# PBW rewriting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rules(q):
    q = _check_q(q)
    inv = ONE / (q - q ** (-1))
    return {
        (E, F): (((F, E), ONE), ((K,), inv), ((KINV,), -inv)),
        (K, E): (((E, K), q * q),),
        (K, F): (((F, K), ONE / (q * q)),),
        (KINV, E): (((E, KINV), ONE / (q * q)),),
        (KINV, F): (((F, KINV), q * q),),
        (K, KINV): (((), ONE),),
        (KINV, K): (((), ONE),),
    }


def _reduce_at(pending, word, pos, coeff, rules):
    """Add coeff times `word`, rewritten once at `pos`, to the word combination `pending`."""
    for repl, rc in rules[(word[pos], word[pos + 1])]:
        pending.add_term(word[:pos] + repl + word[pos + 2 :], coeff * rc)


def _rewrite(pending, rules):
    """Normal form of a combination of words, rewriting leftmost redexes."""
    result = UqElement({})
    while pending.terms:
        next_pending = _TermMap()
        for w, coeff in pending.terms.items():
            pos = next((i for i in range(len(w) - 1) if (w[i], w[i + 1]) in rules), None)
            if pos is None:
                result.add_term(_word_to_monomial(w), coeff)
            else:
                _reduce_at(next_pending, w, pos, coeff, rules)
        pending = next_pending
    return result


def _word_to_monomial(word):
    """The key (a, b, c) of an irreducible word, which is F^a E^b K^c."""
    return (word.count(F), word.count(E), word.count(K) - word.count(KINV))


def monomial_word(mon):
    """The PBW word F^a E^b K^c of a monomial key."""
    a, b, c = mon
    return (F,) * a + (E,) * b + ((K,) * c if c >= 0 else (KINV,) * (-c))


def pbw_normalize(word, q):
    """Rewrite a generator word into the PBW basis."""
    q = _check_q(q)
    word = tuple(word)
    for g in word:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}")
    return _rewrite(_TermMap({word: ONE}), _rules(q))


def _lowers(word, repl):
    """Whether `repl` is below `word` in the termination order of the module docstring."""
    shorter = len(repl) < len(word)
    return shorter or sorted(repl) == sorted(word) and _inversions(repl) < _inversions(word)


def _inversions(word):
    rank = {F: 0, E: 1, K: 2, KINV: 2}
    return sum(rank[a] > rank[b] for a, b in itertools.combinations(word, 2))


def check_pbw_confluence(q):
    """Confluence of the PBW rewriting system at q, by the diamond lemma.

    Scans that each rule lowers the termination order, and returns if one does
    not.  Then each overlap word x y z, rewritten once at position 0 and once
    at position 1, must normalize to the same element.
    """
    rules = _rules(q)
    scan = Scan()
    for lhs, terms in rules.items():
        rising = tuple(repl for repl, _ in terms if not _lowers(lhs, repl))
        scan.eq("rule_lowers_order", lhs, rising, ())
    if not scan.passed:
        return scan.done()
    for (x, y), z in itertools.product(rules, GENERATORS):
        if (y, z) in rules:
            word, sides = (x, y, z), []
            for pos in (0, 1):
                once = _TermMap()
                _reduce_at(once, word, pos, ONE, rules)
                sides.append(_rewrite(once, rules))
            _scan_eq(scan, "overlap_resolves", word, *sides)
    return scan.done()


@lru_cache(maxsize=None)
def _monomial_mul(m1, m2, q):
    """Normalized product of two PBW monomials as ((monomial, coeff), ...)."""
    prod = pbw_normalize(monomial_word(m1) + monomial_word(m2), q)
    return tuple(prod.terms.items())


def uq_mul(u, v, q):
    """Bilinear product in U_q(sl2), PBW-normalized."""
    q = _check_q(q)
    return _extend(UqElement, lambda m1, m2: _monomial_mul(m1, m2, q), u, v)


def uq_alpha(u, k, lam):
    """alpha^k with alpha(E) = lam E, alpha(F) = lam^{-1} F, alpha(K) = K."""
    _check_int("k", k)
    lam = _unit("lambda", lam)
    return _extend(UqElement, lambda mon: ((mon, power(LAM_SLOT, lam, k * (mon[1] - mon[0]))),), u)


_DELTA_GEN = {
    E: ((UNIT, MON_E, ONE), (MON_E, MON_K, ONE)),
    F: ((MON_KINV, MON_F, ONE), (MON_F, UNIT, ONE)),
    K: ((MON_K, MON_K, ONE),),
    KINV: ((MON_KINV, MON_KINV, ONE),),
}


def _word_coproduct(word, q):
    """Delta of a generator word: the product of its letters' coproducts."""
    out = UqTensor.monomial((UNIT, UNIT))
    for g in word:
        out = out.mul(UqTensor({(l, r): w for (l, r, w) in _DELTA_GEN[g]}), q)
    return out


@lru_cache(maxsize=None)
def _monomial_coproduct(mon, q):
    """Delta(F^a E^b K^c) as a tuple of ((left, right), coeff) pairs."""
    return tuple(_word_coproduct(monomial_word(mon), q).terms.items())


def uq_coproduct(u, q):
    """Delta extended as an algebra map, computed in the tensor square."""
    q = _check_q(q)
    return _extend(UqTensor, lambda mon: _monomial_coproduct(mon, q), u)


def check_hopf_on_relations(q, lam):
    """Delta and alpha respect each rule, and Delta alpha = (alpha (x) alpha) Delta on generators.

    Once `check_pbw_confluence` passes, the rules present U_q(sl2), so a map
    extended along words is an algebra map iff it sends both sides of every
    rule to the same element (Kassel, Quantum Groups, GTM 155, VII).  Both
    sides of the last equation are then algebra maps.
    """
    q = _check_q(q)

    def alpha(mon):
        return uq_alpha(UqElement.monomial(mon), 1, lam)

    def alpha_word(word):
        out = UqElement.unit()
        for g in word:
            out = uq_mul(out, alpha(GEN_MONOMIAL[g]), q)
        return out

    def alpha_alpha(pair):
        return UqTensor.outer(alpha(pair[0]), alpha(pair[1])).terms.items()

    scan = Scan()
    for lhs, terms in _rules(q).items():
        delta = sum((_word_coproduct(w, q).scale(c) for w, c in terms), UqTensor())
        _scan_eq(scan, "delta_respects_relation", lhs, _word_coproduct(lhs, q), delta)
        image = sum((alpha_word(w).scale(c) for w, c in terms), UqElement())
        _scan_eq(scan, "alpha_respects_relation", lhs, alpha_word(lhs), image)
    for g, mon in GEN_MONOMIAL.items():
        twisted = _extend(UqTensor, alpha_alpha, uq_coproduct(UqElement.monomial(mon), q))
        _scan_eq(scan, "alpha_coalgebra_map", (g,), uq_coproduct(alpha(mon), q), twisted)
    return scan.done()


# ---------------------------------------------------------------------------
# the Hom-quantum plane and the rho_l action
# ---------------------------------------------------------------------------


def qp_mul(p1, p2, q):
    """(x^m y^n)(x^r y^s) = q^{n r} x^{m+r} y^{n+s}, bilinearly."""
    q = _check_q(q)

    def rule(mn, rs):
        return (((mn[0] + rs[0], mn[1] + rs[1]), power(Q_SLOT, q, mn[1] * rs[0])),)

    return _extend(QPlaneElement, rule, p1, p2)


def qp_beta(p, k, params):
    """beta^k with beta(x^m y^n) = xi^{m+n} lam^{-n} x^m y^n."""
    _check_int("k", k)
    xi, lam = params.xi, params.lam

    def rule(mn):
        return ((mn, power(XI_SLOT, xi, k * sum(mn)) * power(LAM_SLOT, lam, -k * mn[1])),)

    return _extend(QPlaneElement, rule, p)


def _monomial_rho(mon, mn, params):
    """rho_l(F^a E^b K^c, x^m y^n) as its (key, coeff) pairs: none when it is 0, else one.

    alpha^{l+1} scales the PBW monomial by lam^{(l+1)(b-a)}.  On the plane,
    beta scales x^m y^n by xi^{m+n} lam^{-n}, sigma(K)^c by q^{c(m-n)}; then
    each sigma(E) sends x^m y^n to [n]_q x^{m+1} y^{n-1}, and each sigma(F)
    sends it to [m]_q x^{m-1} y^{n+1}.  At int exponents [0]_q = 0 makes the
    action vanish once E or F runs out of y or x, and [n]_q is nonzero for
    n != 0 because q is not 0 or +-1.
    """
    (a, b, c), (m, n) = mon, mn
    q, lam = params.q, params.lam
    coeff = power(LAM_SLOT, lam, (params.l + 1) * (b - a)) * power(XI_SLOT, params.xi, m + n)
    coeff *= power(LAM_SLOT, lam, -n) * power(Q_SLOT, q, c * (m - n))
    for _ in range(b):
        coeff *= q_int(n, q)
        m, n = m + 1, n - 1
    for _ in range(a):
        coeff *= q_int(m, q)
        m, n = m - 1, n + 1
    return (((m, n), coeff),) if coeff else ()


def rho_l(h, p, params):
    """The level-l action: rho_l(h, p) = sigma(alpha^{l+1}(h))(beta(p)).

    sigma is the classical composition action with sigma(E) raising x-degree,
    sigma(F) raising y-degree and sigma(K^{+-1}) rescaling; the unit acts as
    beta.  It is the bilinear extension of `_monomial_rho`, and
    `check_rho_generator_formulas` compares it with the closed generator
    formulas.
    """
    return _extend(QPlaneElement, lambda mon, mn: _monomial_rho(mon, mn, params), h, p)


def rho_generator_formula(gen, m, n, params):
    """The closed generator formulas, used as the independent oracle; m, n may be symbolic.

    E on y^0 and F on x^0 vanish through their factor [0]_q.
    """
    q, lam, xi, l = params.q, params.lam, params.xi, params.l
    common = power(XI_SLOT, xi, m + n)
    if gen == E:
        key, coeff = (m + 1, n - 1), q_int(n, q) * power(LAM_SLOT, lam, l - n + 1)
    elif gen == F:
        key, coeff = (m - 1, n + 1), q_int(m, q) * power(LAM_SLOT, lam, -l - n - 1)
    elif gen == K:
        key, coeff = (m, n), power(Q_SLOT, q, m - n) * power(LAM_SLOT, lam, -n)
    elif gen == KINV:
        key, coeff = (m, n), power(Q_SLOT, q, n - m) * power(LAM_SLOT, lam, -n)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return QPlaneElement({key: common * coeff})


def check_rho_generator_formulas(params):
    """rho_l of each generator on x^m y^n against its closed formula, at params.q.

    m, n, lambda, xi and the level are formal, so a pass holds for all of
    them; a mismatch is reported as the symbolic scans report theirs.
    """
    scan = Scan()
    plane, formal = QPlaneElement.monomial((M, N)), UqParams(params.q, LAM, XI, LEVEL)
    for gen, mon in GEN_MONOMIAL.items():
        got = rho_l(UqElement.monomial(mon), plane, formal)
        want = rho_generator_formula(gen, M, N, formal)
        _scan_eq(scan, "rho_generator_formula", (gen, (M, N)), got, want)
    return witnessed(scan.done(), (params.q, params.lam, params.xi), QPlaneElement)


def mu_beta(p1, p2, params):
    """The Hom-quantum-plane multiplication beta o mu."""
    return qp_beta(qp_mul(p1, p2, params.q), 1, params)


def mu_alpha(u, v, params):
    """The twisted U_q multiplication alpha o mu."""
    return uq_alpha(uq_mul(u, v, params.q), 1, params.lam)


def coproduct_alpha(u, params):
    """The twisted coproduct Delta o alpha."""
    return uq_coproduct(uq_alpha(u, 1, params.lam), params.q)


# ---------------------------------------------------------------------------
# module-Hom-algebra scan and the smash product
# ---------------------------------------------------------------------------


def check_uq_module_hom_algebra(params):
    """Module axioms and module-algebra compatibility on the Hom-quantum plane, at params.q.

    Generators h range over {E, F, K, K^{-1}} and the plane monomials are
    x^m y^n and x^r y^s, with m, n, r, s, lambda, xi and the level formal, so
    a pass holds for all of them.
    """
    bases = (params.q, params.lam, params.xi)
    params = UqParams(params.q, LAM, XI, LEVEL)
    gens = {g: UqElement.monomial(mon) for g, mon in GEN_MONOMIAL.items()}
    alpha = {gname: uq_alpha(g, 1, params.lam) for gname, g in gens.items()}
    p1, p2 = QPlaneElement.monomial((M, N)), QPlaneElement.monomial((R, S))
    beta_p1, product = qp_beta(p1, 1, params), mu_beta(p1, p2, params)
    acted = {gname: rho_l(g, p1, params) for gname, g in gens.items()}
    scan = Scan()
    for gname, image in acted.items():
        rhs = rho_l(alpha[gname], beta_p1, params)
        _scan_eq(scan, "module_alpha", (gname, (M, N)), qp_beta(image, 1, params), rhs)
    for g1name, g2name in itertools.product(gens, repeat=2):
        lhs = rho_l(alpha[g1name], acted[g2name], params)
        rhs = rho_l(mu_alpha(gens[g1name], gens[g2name], params), beta_p1, params)
        _scan_eq(scan, "module_assoc", (g1name, g2name, (M, N)), lhs, rhs)

    def acted_pair(pair):
        h1, h2 = (UqElement.monomial(h) for h in pair)
        return mu_beta(rho_l(h1, p1, params), rho_l(h2, p2, params), params).terms.items()

    for gname, g in gens.items():
        lhs = rho_l(uq_alpha(g, 2, params.lam), product, params)
        rhs = _extend(QPlaneElement, acted_pair, coproduct_alpha(g, params))
        _scan_eq(scan, "module_algebra_compat", (gname, (M, N), (R, S)), lhs, rhs)
    return witnessed(scan.done(), bases, _TermMap)


class SmashTerm(_TermMap):
    """Bilinear combination of plane-monomial # PBW-monomial pairs."""

    @classmethod
    def smash(cls, plane, uq):
        return cls.outer(plane, uq)


def smash_mul_uq(t1, t2, params):
    """The Hom-smash multiplication on the quantum plane # U_q(sl2)_alpha.

    (a # h)(a' # h') = a (alpha^{-2}(h1) . beta^{-1}(a')) # alpha(alpha^{-1}(h2) h')
    with Delta_alpha = Delta o alpha and the rho_l action, summed over
    Delta_alpha(h) = sum h1 (x) h2 and extended bilinearly.  Each pair of
    monomials is formed as (a # h)(a' # 1), whose U_q side is h2, and
    `_right_factor` then brings in h'.
    """

    def rule(ph1, ph2):
        (p1, h1), (p2, h2) = ph1, ph2
        a, binv = QPlaneElement.monomial(p1), qp_beta(QPlaneElement.monomial(p2), -1, params)

        def tail(pair):
            ha, hb = pair
            acted = rho_l(uq_alpha(UqElement.monomial(ha), -2, params.lam), binv, params)
            return SmashTerm.outer(mu_beta(a, acted, params), UqElement.monomial(hb)).terms.items()

        delta = coproduct_alpha(UqElement.monomial(h1), params)
        return _right_factor(_extend(SmashTerm, tail, delta), h2, params).terms.items()

    return _extend(SmashTerm, rule, t1, t2)


def _right_factor(by_unit, g, params):
    """(a # h)(a' # g) from by_unit = (a # h)(a' # 1): the U_q side of `smash_mul_uq`.

    Each term P # u of `by_unit` becomes P # alpha(alpha^{-1}(u) g), so the
    action on a', the part that does not read the right U_q factor, is formed
    once for any number of g.
    """
    right = UqElement.monomial(g)

    def rule(term):
        plane, u = term
        uq = mu_alpha(uq_alpha(UqElement.monomial(u), -1, params.lam), right, params)
        return SmashTerm.outer(QPlaneElement.monomial(plane), uq).terms.items()

    return _extend(SmashTerm, rule, by_unit)


def verify_smash_closed_forms(params):
    """Closed smash-product formulas for the K/Kinv, E and F rows at l = 0, at params.q.

    Compares smash_mul_uq against the closed forms after PBW normalization,
    for G in {1, E, F, K, Kinv, EK}, with the plane exponents m, n, r, s,
    lambda and xi formal, so a pass holds for all of them.  Each row times
    x^r y^s # 1 is formed once by smash_mul_uq, and each G is brought in by
    `_right_factor`, the step smash_mul_uq ends with, so each row's inner
    action is formed once for all six G.
    """
    if params.l != 0:
        raise ParamConstraintViolation("the closed formulas are stated for l = 0")
    bases = (params.q, params.lam, params.xi)
    params = UqParams(params.q, LAM, XI)
    q, lam, xi = params.q, params.lam, params.xi
    m, n, r, s = M, N, R, S
    g_choices = {"1": UNIT, "E": MON_E, "F": MON_F, "K": MON_K, "Kinv": MON_KINV, "EK": (0, 1, 1)}
    alpha_g = {gmon: uq_alpha(UqElement.monomial(gmon), 1, lam) for gmon in g_choices.values()}
    common = power(XI_SLOT, xi, m + n + r + s)
    lam_e, lam_f = power(LAM_SLOT, lam, 1 - n - s), power(LAM_SLOT, lam, -n - s - 1)
    lam_k = power(LAM_SLOT, lam, -n - s)
    closed = {  # (row, its monomial) -> terms (coefficient, head monomial, plane shift)
        ("K", MON_K): ((power(Q_SLOT, q, r - s + n * r) * lam_k, MON_K, (0, 0)),),
        ("Kinv", MON_KINV): ((power(Q_SLOT, q, s - r + n * r) * lam_k, MON_KINV, (0, 0)),),
        ("E", MON_E): (
            (power(Q_SLOT, q, n * r) * lam_e, MON_E, (0, 0)),
            (q_int(s, q) * power(Q_SLOT, q, n * (r + 1)) * lam_e, MON_K, (1, -1)),
        ),
        ("F", MON_F): (
            (power(Q_SLOT, q, s - r + n * r) * lam_f, MON_F, (0, 0)),
            (q_int(r, q) * power(Q_SLOT, q, n * (r - 1)) * lam_f, UNIT, (-1, 1)),
        ),
    }
    unit = SmashTerm.monomial(((r, s), UNIT))
    by_unit = {
        hmon: smash_mul_uq(SmashTerm.monomial(((m, n), hmon)), unit, params) for _, hmon in closed
    }
    scan = Scan()
    for gname, gmon in g_choices.items():
        for (rname, hmon), terms in closed.items():
            computed = _right_factor(by_unit[hmon], gmon, params)
            expected = SmashTerm({})
            for coeff, head, (dm, dn) in terms:
                for mon, w in uq_mul(UqElement.monomial(head), alpha_g[gmon], q).terms.items():
                    expected.add_term(((m + r + dm, n + s + dn), mon), common * coeff * w)
            row = "smash_closed_form_row_" + rname
            _scan_eq(scan, row, (m, n, r, s, gname), computed, expected)
    return witnessed(scan.done(), bases, _TermMap)
