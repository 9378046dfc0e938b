"""Exact computation in U_q(sl2) at instantiated rational parameters.

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

The Hom-quantum plane carries beta(x) = xi x, beta(y) = xi/lambda y, and the
quantum group carries alpha(E) = lambda E, alpha(F) = lambda^{-1} F,
alpha(K) = K.  All coefficients are exact rationals at instantiated
(q, lambda, xi).

Pure values are memoized; verified facts never are.  The rewriting rules, PBW
monomial products and monomial coproducts depend on q alone and are kept in
module-level ``lru_cache``s for the life of the process.  The rho_l action of
a PBW monomial on a plane monomial, and the smash tails of `smash_mul_uq`,
depend on the whole `UqParams`; they are kept in tables stored on that
instance and freed with it.  Every check rescans on every call.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps

from .errors import DegenerateQ, ParamConstraintViolation
from .exact import ONE, Scan, ZERO, as_scalar

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


def _check_q(q):
    q = as_scalar(q)
    if q == 0 or q == 1 or q == -1:
        raise DegenerateQ(f"q must avoid {{0, 1, -1}}, got {q}")
    return q


@dataclass(frozen=True)
class UqParams:
    """Instantiated parameters (q, lambda, xi, l) with nondegeneracy constraints."""

    q: object
    lam: object
    xi: object
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))
        object.__setattr__(self, "lam", as_scalar(self.lam))
        object.__setattr__(self, "xi", as_scalar(self.xi))
        if not self.lam:
            raise ParamConstraintViolation("lambda must be nonzero")
        if not self.xi:
            raise ParamConstraintViolation("xi must be nonzero")
        if not isinstance(self.l, int) or self.l < 0:
            raise ParamConstraintViolation("l must be a non-negative integer")


def _per_params(fn):
    """Memoize fn(*args, params) in a table on the params instance.

    The table lives in the instance's ``__dict__``, outside the dataclass
    fields, so equality and hashing ignore it and it is freed with the
    instance.  Values must be immutable, since every caller shares them.
    """

    @wraps(fn)
    def memoized(*args):
        table = args[-1].__dict__.setdefault(fn.__name__, {})
        key = args[:-1]
        if key not in table:
            table[key] = fn(*args)
        return table[key]

    return memoized


def q_int(n, q):
    """The balanced q-integer [n]_q = (q^n - q^{-n})/(q - q^{-1})."""
    q = _check_q(q)
    if n == 0:
        return ZERO
    return (q ** n - q ** (-n)) / (q - q ** (-1))


class _TermMap:
    """Finite scalar combination keyed by hashable monomials; zero-free."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def monomial(cls, key, coeff=ONE):
        coeff = as_scalar(coeff)
        return cls({key: coeff} if coeff else {})

    def add_term(self, key, coeff):
        v = self.terms.get(key, ZERO) + coeff
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
        out = UqTensor({})
        for (l1, r1), c in self.terms.items():
            for (l2, r2), d in other.terms.items():
                cd = c * d
                for ml, wl in _monomial_mul(l1, l2, q):
                    for mr, wr in _monomial_mul(r1, r2, q):
                        out.add_term((ml, mr), cd * wl * wr)
        return out


# ---------------------------------------------------------------------------
# PBW rewriting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rules(q):
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
    rules = _rules(_check_q(q))
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
                sides.append(_rewrite(once, rules).items())
            scan.eq("overlap_resolves", word, *sides)
    return scan.done()


@lru_cache(maxsize=None)
def _monomial_mul(m1, m2, q):
    """Normalized product of two PBW monomials as ((monomial, coeff), ...)."""
    prod = pbw_normalize(monomial_word(m1) + monomial_word(m2), q)
    return tuple(prod.terms.items())


def uq_mul(u, v, q):
    """Bilinear product in U_q(sl2), PBW-normalized."""
    q = _check_q(q)
    out = UqElement({})
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            c = c1 * c2
            for mon, w in _monomial_mul(m1, m2, q):
                out.add_term(mon, c * w)
    return out


def uq_alpha(u, k, lam):
    """alpha^k with alpha(E) = lam E, alpha(F) = lam^{-1} F, alpha(K) = K."""
    lam = as_scalar(lam)
    if not lam:
        raise ParamConstraintViolation("lambda must be nonzero")
    out = {}
    for (a, b, c), coeff in u.terms.items():
        out[(a, b, c)] = coeff * lam ** (k * (b - a))
    return UqElement(out)


_DELTA_GEN = {
    E: ((UNIT, MON_E, ONE), (MON_E, MON_K, ONE)),
    F: ((MON_KINV, MON_F, ONE), (MON_F, UNIT, ONE)),
    K: ((MON_K, MON_K, ONE),),
    KINV: ((MON_KINV, MON_KINV, ONE),),
}


@lru_cache(maxsize=None)
def _monomial_coproduct(mon, q):
    """Delta(F^a E^b K^c) as a tuple of ((left, right), coeff) pairs."""
    a, b, c = mon
    out = UqTensor.monomial((UNIT, UNIT))
    factors = [F] * a + [E] * b + ([K] * c if c >= 0 else [KINV] * (-c))
    for g in factors:
        gamma = UqTensor({(l, r): w for (l, r, w) in _DELTA_GEN[g]})
        out = out.mul(gamma, q)
    return tuple(out.terms.items())


def uq_coproduct(u, q):
    """Delta extended as an algebra map, computed in the tensor square."""
    q = _check_q(q)
    out = UqTensor({})
    for mon, coeff in u.terms.items():
        for pair, w in _monomial_coproduct(mon, q):
            out.add_term(pair, coeff * w)
    return out


# ---------------------------------------------------------------------------
# the Hom-quantum plane and the rho_l action
# ---------------------------------------------------------------------------


def qp_mul(p1, p2, q):
    """(x^m y^n)(x^r y^s) = q^{n r} x^{m+r} y^{n+s}, bilinearly."""
    q = _check_q(q)
    out = QPlaneElement({})
    for (m, n), c1 in p1.terms.items():
        for (r, s), c2 in p2.terms.items():
            out.add_term((m + r, n + s), c1 * c2 * q ** (n * r))
    return out


def qp_beta(p, k, params):
    """beta^k with beta(x^m y^n) = xi^{m+n} lam^{-n} x^m y^n."""
    out = {}
    for (m, n), coeff in p.terms.items():
        out[(m, n)] = coeff * params.xi ** (k * (m + n)) * params.lam ** (-k * n)
    return QPlaneElement(out)


@_per_params
def _monomial_rho(mon, mn, params):
    """rho_l(F^a E^b K^c, x^m y^n) as (key, coeff), or None when it is 0.

    alpha^{l+1} scales the PBW monomial by lam^{(l+1)(b-a)}.  On the plane,
    beta scales x^m y^n by xi^{m+n} lam^{-n}, sigma(K)^c by q^{c(m-n)}; then
    each sigma(E) sends x^m y^n to [n]_q x^{m+1} y^{n-1} (0 if n = 0), and
    each sigma(F) sends it to [m]_q x^{m-1} y^{n+1} (0 if m = 0).  [n]_q is
    nonzero for n > 0 because q is not 0 or +-1.
    """
    (a, b, c), (m, n) = mon, mn
    q, lam = params.q, params.lam
    if b > n or a > m + b:
        return None
    coeff = lam ** ((params.l + 1) * (b - a)) * params.xi ** (m + n) * lam ** (-n)
    coeff *= q ** (c * (m - n))
    for _ in range(b):
        coeff *= q_int(n, q)
        m, n = m + 1, n - 1
    for _ in range(a):
        coeff *= q_int(m, q)
        m, n = m - 1, n + 1
    return (m, n), coeff


def rho_l(h, p, params):
    """The level-l action: rho_l(h, p) = sigma(alpha^{l+1}(h))(beta(p)).

    sigma is the classical composition action with sigma(E) raising x-degree,
    sigma(F) raising y-degree and sigma(K^{+-1}) rescaling; the unit acts as
    beta.  This extension reproduces the closed generator formulas (the
    generator oracle is part of the test suite).  It is bilinear, so it is
    summed over `_monomial_rho`.
    """
    out = QPlaneElement({})
    for mon, c1 in h.terms.items():
        for mn, c2 in p.terms.items():
            term = _monomial_rho(mon, mn, params)
            if term is not None:
                out.add_term(term[0], c1 * c2 * term[1])
    return out


def rho_generator_formula(gen, m, n, params):
    """The closed generator formulas, used as the independent oracle."""
    q, lam, xi, l = params.q, params.lam, params.xi, params.l
    out = QPlaneElement({})
    if gen == E:
        if n > 0:
            out.add_term((m + 1, n - 1), q_int(n, q) * xi ** (m + n) * lam ** (l - n + 1))
    elif gen == F:
        if m > 0:
            out.add_term((m - 1, n + 1), q_int(m, q) * xi ** (m + n) * lam ** (-l - n - 1))
    elif gen == K:
        out.add_term((m, n), (q * xi) ** m * (xi / (q * lam)) ** n)
    elif gen == KINV:
        out.add_term((m, n), (xi / q) ** m * (q * xi / lam) ** n)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return out


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


def _plane_monomials(bound):
    return [(m, n) for total in range(bound + 1) for m in range(total + 1) for n in [total - m]]


def check_uq_module_hom_algebra(params, bound):
    """Module axioms and module-algebra compatibility up to plane degree `bound`.

    Generators h range over {E, F, K, K^{-1}}; plane monomials over
    m + n <= bound.
    """
    gens = {
        E: UqElement.monomial(MON_E),
        F: UqElement.monomial(MON_F),
        K: UqElement.monomial(MON_K),
        KINV: UqElement.monomial(MON_KINV),
    }
    planes = {
        mn: QPlaneElement.monomial(mn) for mn in _plane_monomials(bound)
    }
    scan = Scan()
    for gname, g in gens.items():
        ag = uq_alpha(g, 1, params.lam)
        for mn, p in planes.items():
            lhs = qp_beta(rho_l(g, p, params), 1, params)
            rhs = rho_l(ag, qp_beta(p, 1, params), params)
            scan.eq("module_alpha", (gname, mn), lhs.items(), rhs.items())
    for g1name, g1 in gens.items():
        ag1 = uq_alpha(g1, 1, params.lam)
        for g2name, g2 in gens.items():
            prod = mu_alpha(g1, g2, params)
            for mn, p in planes.items():
                lhs = rho_l(ag1, rho_l(g2, p, params), params)
                rhs = rho_l(prod, qp_beta(p, 1, params), params)
                scan.eq("module_assoc", (g1name, g2name, mn), lhs.items(), rhs.items())
    for gname, g in gens.items():
        a2g = uq_alpha(g, 2, params.lam)
        delta = coproduct_alpha(g, params)
        for mn1, p1 in planes.items():
            for mn2, p2 in planes.items():
                lhs = rho_l(a2g, mu_beta(p1, p2, params), params)
                rhs = QPlaneElement({})
                for (h1, h2), w in delta.terms.items():
                    term = mu_beta(
                        rho_l(UqElement.monomial(h1), p1, params),
                        rho_l(UqElement.monomial(h2), p2, params),
                        params,
                    )
                    for key, v in term.terms.items():
                        rhs.add_term(key, w * v)
                scan.eq("module_algebra_compat", (gname, mn1, mn2), lhs.items(), rhs.items())
    return scan.done()


class SmashTerm(_TermMap):
    """Bilinear combination of plane-monomial # PBW-monomial pairs."""

    @classmethod
    def smash(cls, plane, uq):
        out = cls({})
        for mn, c1 in plane.terms.items():
            for mon, c2 in uq.terms.items():
                out.add_term((mn, mon), c1 * c2)
        return out


@_per_params
def _smash_tail(h1, p2, h2, params):
    """The terms ((a, mon), coeff) of (p1 # h1)(p2 # h2) = sum coeff mu_beta(p1, a) # mon.

    They are alpha^{-2}(h1_(1)) . beta^{-1}(p2) # alpha^{-1}(h1_(2)) h2 summed
    over Delta_alpha(h1), before the plane factor is multiplied by p1.
    """
    out = SmashTerm({})
    binv = qp_beta(QPlaneElement.monomial(p2), -1, params)
    h2el = UqElement.monomial(h2)
    for (ha, hb), w in coproduct_alpha(UqElement.monomial(h1), params).terms.items():
        acted = rho_l(uq_alpha(UqElement.monomial(ha), -2, params.lam), binv, params)
        uq = mu_alpha(uq_alpha(UqElement.monomial(hb), -1, params.lam), h2el, params)
        for a, av in acted.terms.items():
            for mon, uv in uq.terms.items():
                out.add_term((a, mon), w * av * uv)
    return tuple(out.terms.items())


def smash_mul_uq(t1, t2, params):
    """The Hom-smash multiplication on the quantum plane # U_q(sl2)_alpha.

    (a # h)(a' # h') = a (alpha^{-2}(h1) . beta^{-1}(a')) # alpha^{-1}(h2) h'
    with Delta_alpha = Delta o alpha and the rho_l action.  It is bilinear,
    so it is summed over `_smash_tail` on monomials.
    """
    out = SmashTerm({})
    for (p1, h1), c1 in t1.terms.items():
        plane1 = QPlaneElement.monomial(p1)
        for (p2, h2), c2 in t2.terms.items():
            c = c1 * c2
            for (a, mon), v in _smash_tail(h1, p2, h2, params):
                for mn, pv in mu_beta(plane1, QPlaneElement.monomial(a), params).terms.items():
                    out.add_term((mn, mon), c * v * pv)
    return out


def verify_smash_closed_forms(params, bounds):
    """Closed smash-product formulas for the K/Kinv, E and F rows at l = 0.

    Scans all m, n, r, s <= bounds and G in {1, E, F, K, Kinv, EK}, comparing
    smash_mul_uq against the closed forms after PBW normalization.
    """
    if params.l != 0:
        raise ParamConstraintViolation("the closed formulas are stated for l = 0")
    q, lam, xi = params.q, params.lam, params.xi
    g_choices = (
        ("1", UNIT),
        ("E", MON_E),
        ("F", MON_F),
        ("K", MON_K),
        ("Kinv", MON_KINV),
        ("EK", (0, 1, 1)),
    )
    alpha_g = {gmon: uq_alpha(UqElement.monomial(gmon), 1, lam) for _, gmon in g_choices}
    head_g = {}  # (head, G) -> terms of head alpha(G), each formed once per call
    scan = Scan()
    for m, n, r, s in itertools.product(range(bounds + 1), repeat=4):
        common = xi ** (m + n + r + s)
        lam_e, lam_f = lam ** (1 - n - s), lam ** (-n - s - 1)
        closed = {  # (row, its monomial) -> terms (coefficient, head monomial, plane shift)
            ("K", MON_K): ((q ** (r - s + n * r) * lam ** (-n - s), MON_K, (0, 0)),),
            ("Kinv", MON_KINV): ((q ** (s - r + n * r) * lam ** (-n - s), MON_KINV, (0, 0)),),
            ("E", MON_E): (
                (q ** (n * r) * lam_e, MON_E, (0, 0)),
                (q_int(s, q) * q ** (n * (r + 1)) * lam_e, MON_K, (1, -1)),
            ),
            ("F", MON_F): (
                (q ** (s - r + n * r) * lam_f, MON_F, (0, 0)),
                (q_int(r, q) * q ** (n * (r - 1)) * lam_f, UNIT, (-1, 1)),
            ),
        }
        for gname, gmon in g_choices:
            right = SmashTerm.monomial(((r, s), gmon))
            for (rname, hmon), terms in closed.items():
                computed = smash_mul_uq(SmashTerm.monomial(((m, n), hmon)), right, params)
                expected = SmashTerm({})
                for coeff, head, (dm, dn) in terms:
                    if (head, gmon) not in head_g:
                        product = uq_mul(UqElement.monomial(head), alpha_g[gmon], q)
                        head_g[head, gmon] = tuple(product.terms.items())
                    for mon, w in head_g[head, gmon]:
                        expected.add_term(((m + r + dm, n + s + dn), mon), common * coeff * w)
                scan.eq(
                    "smash_closed_form_row_" + rname,
                    (m, n, r, s, gname),
                    computed.items(),
                    expected.items(),
                )
    return scan.done()
