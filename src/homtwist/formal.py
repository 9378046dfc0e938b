"""Formal exponents and parameters, and sums of parameter powers indexed by them.

This is the ring behind the symbolic scans of `uqsl2`: keys may hold
`Exponent`s, lambda and xi may be the formal `LAM` and `XI`, and coefficients
are then `PowerSum`s.  `power` raises a parameter to a maybe symbolic power,
`substitute` is the ring map setting names to ints and LAM, XI to rationals,
and `witnessed` turns a failure in the ring into failing instances of a box.
"""

import itertools
import math

from .errors import HomTwistError
from .exact import ONE, Scan, ZERO


class Exponent:
    """A non-constant integer polynomial in named plane exponents.

    Arithmetic with ints and exponents gives a plain int when the result is
    constant, so a key whose exponents are all constant is an ordinary int key.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        self.terms = terms  # sorted ((monomial, coefficient), ...), a monomial a sorted name tuple
        self._hash = hash(terms)

    def __add__(self, other):
        if type(other) is int and not other:
            return self
        poly = dict(self.terms)
        for mono, c in _poly(other):
            poly[mono] = poly.get(mono, 0) + c
        return _exponent(poly)

    __radd__ = __add__

    def __neg__(self):
        return Exponent(tuple((mono, -c) for mono, c in self.terms))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        poly = {}
        for m1, c1 in self.terms:
            for m2, c2 in _poly(other):
                mono = tuple(sorted(m1 + m2))
                poly[mono] = poly.get(mono, 0) + c1 * c2
        return _exponent(poly)

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is Exponent and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        out = ""
        for mono, c in sorted(self.terms, key=lambda t: not t[0]):  # the constant last
            name = "*".join(mono)
            text = str(c) if not mono else {1: name, -1: "-" + name}.get(c, f"{c}*{name}")
            out += text if not out or text[0] == "-" else "+" + text
        return out

    def at(self, env):
        """The int value when each name is set by `env`."""
        return sum(c * math.prod(env[v] for v in mono) for mono, c in self.terms)


def _poly(e):
    return e.terms if type(e) is Exponent else (((), e),)


def _exponent(poly):
    """The canonical form of {monomial: coefficient}: an int when it is constant."""
    terms = tuple(sorted((mono, c) for mono, c in poly.items() if c))
    if len(terms) > 1 or terms and terms[0][0]:
        return Exponent(terms)
    return terms[0][1] if terms else 0


LEVEL, M, N, R, S = (Exponent((((name,), 1),)) for name in "lmnrs")
Q_SLOT, LAM_SLOT, XI_SLOT = range(3)  # where q, lambda and xi sit in a PowerSum key


class PowerSum:
    """A finite sum of c q^P lam^L xi^X, with c rational and P, L, X exponent polynomials.

    The constant part of an exponent of an instantiated parameter is folded
    into c, and that of a formal one (`LAM`, `XI`) is kept.  The terms map each
    key (P, L, X) to its nonzero c.  Arithmetic gives the rational itself when
    only the key (0, 0, 0) is left, so a sum is never a disguised rational and
    every int-exponent coefficient of instantiated parameters stays a ``Fraction``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in _power_terms(other):
            out[k] = out[k] + c if k in out else c
        return _power_sum(out)

    __radd__ = __add__

    def __neg__(self):
        return PowerSum({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for (p1, l1, x1), c1 in self.terms.items():
            for (p2, l2, x2), c2 in _power_terms(other):
                k, c = (p1 + p2, l1 + l2, x1 + x2), c1 * c2
                out[k] = out[k] + c if k in out else c
        return _power_sum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (ONE / other)

    def __eq__(self, other):
        return type(other) is PowerSum and self.terms == other.terms

    def at(self, env, bases):
        """The rational value when each exponent name is set by `env`."""
        total = ZERO
        for key, c in self.terms.items():
            for base, e in zip(bases, key):
                c *= base ** substitute(e, env, bases)
            total += c
        return total


_CONSTANT = (0, 0, 0)
LAM, XI = (PowerSum({key: ONE}) for key in ((0, 1, 0), (0, 0, 1)))  # formal lambda and xi


def _power_terms(x):
    return x.terms.items() if type(x) is PowerSum else ((_CONSTANT, x),)


def _power_sum(terms):
    terms = {k: c for k, c in terms.items() if c}
    if len(terms) > 1 or terms and _CONSTANT not in terms:
        return PowerSum(terms)
    return terms[_CONSTANT] if terms else ZERO


def power(slot, base, e):
    """base ** e for a rational base and an int e; else base^e as a PowerSum with base in `slot`.

    ``Fraction ** x`` is a float for a non-Rational x, and a formal base has no
    ``**``, so every power that may be symbolic or formal goes through here.
    """
    formal = base is LAM or base is XI
    if type(e) is int and not formal:
        return base ** e
    c = 0 if formal else dict(e.terms).get((), 0)
    key = [0, 0, 0]
    key[slot] = e - c
    return _power_sum({tuple(key): ONE if formal else base ** c})


def substitute(x, env, bases):
    """x with every plane exponent set by `env`: exponents become ints, PowerSums rationals."""
    if type(x) is tuple:
        return tuple(substitute(v, env, bases) for v in x)
    if type(x) is Exponent:
        return x.at(env)
    return x.at(env, bases) if type(x) is PowerSum else x


def symbols(x):
    """The exponent names that occur in x, in its keys and in the exponents of its powers."""
    if type(x) in (tuple, PowerSum):
        return set().union(*map(symbols, x.terms if type(x) is PowerSum else x))
    return {v for mono, _ in x.terms for v in mono} if type(x) is Exponent else set()


def instance(x, env, bases):
    """The term map x with its keys and coefficients at the exponents `env`."""
    out = type(x)()
    for key, c in x.terms.items():
        out.add_term(substitute(key, env, bases), substitute(c, env, bases))
    return out


WITNESS_BOX = 4  # a symbolic failure is evaluated at every exponent in range(WITNESS_BOX)


def witnessed(report, bases, cls):
    """report, with each failure on symbolic exponents replaced by its failing instances.

    Each side is read back as a `cls` term map at the rational `bases` (q,
    lambda, xi), and its names are searched in lexicographic order below
    ``WITNESS_BOX``; each failing instance is an ordinary failure, "l=1" appended
    for a name its basis does not show, and none in the box raises HomTwistError.
    """
    if not any(symbols(f.basis) for f in report.failures):
        return report
    scan, found = Scan(), 0
    for f in report.failures:
        names = sorted(symbols((f.basis, f.lhs, f.rhs)))
        hidden = sorted(symbols((f.lhs, f.rhs)) - symbols(f.basis))
        for values in itertools.product(range(WITNESS_BOX), repeat=len(names)):
            env = dict(zip(names, values))
            lhs, rhs = (instance(cls(dict(side)), env, bases) for side in (f.lhs, f.rhs))
            if lhs != rhs:
                found += 1
                basis = substitute(f.basis, env, bases) + tuple(f"{v}={env[v]}" for v in hidden)
                scan.eq(f.equation, basis, lhs.items(), rhs.items())
    if not found:
        first = report.failures[0]
        raise HomTwistError(
            f"{first.equation} at {first.basis} differs in the ring but at no exponents "
            f"below {WITNESS_BOX}"
        )
    return scan.done()
