"""Hom-coassociative coalgebras and Hom-bialgebras by structure constants.

``comul[i][j][k]`` is the coefficient of ``e_j (x) e_k`` in ``Delta(e_i)``,
and ``alpha`` is the structure map as a ``LinearMap`` (d,) -> (d,).  Counits
and antipodes are not modeled.
"""

from dataclasses import dataclass
from functools import cached_property

from .algebra import HomAlgebra, check_hom_algebra, yau_twist_algebra
from .errors import DimensionMismatch, NotComultiplicative, PreconditionFailure
from .exact import LinearMap, Scan, as_constants, compose, scan_composites


@dataclass(frozen=True)
class HomCoalgebra:
    dim: int
    comul: tuple
    alpha: LinearMap

    def __post_init__(self):
        d = self.dim
        message = f"comultiplication constants are not {d}^3 shaped"
        object.__setattr__(self, "comul", as_constants(self.comul, (d, d, d), message))
        if self.alpha.shape != (d, d):
            raise DimensionMismatch("alpha shape does not match the coalgebra")
        object.__setattr__(self, "alpha", self.alpha.reshaped((d,), (d,)))

    @cached_property
    def map(self):
        """The comultiplication as a LinearMap (d,) -> (d, d), tabulated once."""
        return LinearMap.coproduct(self.comul)

    def is_classical(self):
        return self.alpha.is_identity()


def hom_coalgebra(dim, comul, alpha=None):
    """Convenience constructor; alpha is a LinearMap, a Matrix or its rows (default identity)."""
    if alpha is None:
        alpha = LinearMap.identity(dim)
    elif not isinstance(alpha, LinearMap):
        alpha = LinearMap.from_matrix(alpha)
    return HomCoalgebra(dim, comul, alpha)


@dataclass(frozen=True)
class HomBialgebra:
    """An algebra and a coalgebra on the same space sharing one structure map."""

    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatch("algebra and coalgebra dimensions differ")
        if self.algebra.alpha != self.coalgebra.alpha:
            raise PreconditionFailure("algebra and coalgebra must share the structure map")

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def alpha(self):
        return self.algebra.alpha

    @property
    def comul(self):
        return self.coalgebra.comul

    def is_classical(self):
        return self.algebra.is_classical()


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _comultiplicativity_scan(coalgebra, endo, equation="comultiplicativity"):
    """(endo (x) endo) o Delta = Delta o endo, scanned per basis element."""
    delta, e = coalgebra.map, endo
    lhs, rhs = [(delta, 0), (e, 0), (e, 1)], [(e, 0), (delta, 0)]
    return scan_composites([((coalgebra.dim,), [(equation, lhs, rhs)])])


def _hom_coassoc_scan(coalgebra, a, equation="hom_coassociativity"):
    """(Delta (x) a) o Delta = (a (x) Delta) o Delta per basis element."""
    delta = coalgebra.map
    lhs, rhs = [(delta, 0), (delta, 0), (a, 2)], [(delta, 0), (a, 0), (delta, 1)]
    return scan_composites([((coalgebra.dim,), [(equation, lhs, rhs)])])


def check_hom_coalgebra(coalgebra):
    """Comultiplicativity of alpha plus Hom-coassociativity, per basis element."""
    scan = Scan()
    scan.absorb("", _comultiplicativity_scan(coalgebra, coalgebra.alpha))
    scan.absorb("", _hom_coassoc_scan(coalgebra, coalgebra.alpha))
    return scan.done()


def check_coassociative(coalgebra):
    """Plain coassociativity, ignoring the structure map."""
    ident = LinearMap.identity(coalgebra.dim)
    return _hom_coassoc_scan(coalgebra, ident, equation="coassociativity")


def check_hom_bialgebra(bialgebra):
    """Algebra and coalgebra scans plus the three bialgebra compatibility equations."""
    H = bialgebra.algebra
    C = bialgebra.coalgebra
    d = bialgebra.dim
    scan = Scan()
    scan.absorb("algebra", check_hom_algebra(H))
    scan.absorb("coalgebra", check_hom_coalgebra(C))
    # Delta(h1) (x) alpha(h2) = alpha(h1) (x) Delta(h2) is Hom-coassociativity again,
    # rescanned under its bialgebra name for witness clarity.
    scan.absorb("", _hom_coassoc_scan(C, C.alpha, equation="coproduct_alpha_balance"))
    # Delta(h h') = h1 h'1 (x) h2 h'2
    mu, delta = H.map, C.map
    both = [(delta, 0), (delta, 2), (LinearMap.flip(d, d), 1), (mu, 0), (mu, 1)]
    scan_composites([((d, d), [("coproduct_multiplicative", [(mu, 0), (delta, 0)], both)])], scan)
    # Delta(alpha(h)) = alpha(h1) (x) alpha(h2) is comultiplicativity again.
    scan.absorb("", _comultiplicativity_scan(C, C.alpha, equation="coproduct_of_alpha"))
    return scan.done()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def yau_twist_coalgebra(coalgebra, alpha):
    """Twist a plain coassociative coalgebra: new comultiplication Delta o alpha."""
    if alpha.shape != (coalgebra.dim, coalgebra.dim):
        raise DimensionMismatch("alpha shape does not match the coalgebra")
    if not coalgebra.is_classical():
        raise PreconditionFailure("yau twist input must have identity structure map")
    check_coassociative(coalgebra).require("coassociativity")
    _comultiplicativity_scan(coalgebra, alpha).require(
        "alpha is not comultiplicative", NotComultiplicative
    )
    path = [(alpha, 0), (coalgebra.map, 0)]
    new_comul = compose(path, (coalgebra.dim,)).table()
    return HomCoalgebra(coalgebra.dim, new_comul, alpha)


def yau_twist_bialgebra(bialgebra, alpha):
    """Twist a classical bialgebra on both sides; alpha must be a bialgebra endomorphism."""
    if not bialgebra.is_classical():
        raise PreconditionFailure("yau twist input must be a classical bialgebra")
    check_hom_bialgebra(bialgebra).require("check_hom_bialgebra")
    twisted_algebra = yau_twist_algebra(bialgebra.algebra, alpha)
    twisted_coalgebra = yau_twist_coalgebra(bialgebra.coalgebra, alpha)
    return HomBialgebra(twisted_algebra, twisted_coalgebra)
