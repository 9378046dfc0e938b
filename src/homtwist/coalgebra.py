"""Hom-coassociative coalgebras and Hom-bialgebras by structure constants.

A coalgebra is a triple (dim, map, alpha) of Delta, a ``LinearMap``
(d,) -> (d, d), and the structure map, a ``LinearMap`` (d,) -> (d,).
``hom_coalgebra`` reads the constants ``comul[i][j][k]``, the coefficient of
``e_j (x) e_k`` in ``Delta(e_i)``, by ``LinearMap.from_constants``, and
``comul`` is their dense view.  Each axiom is a ``scan_composites`` block, so
``check_hom_coalgebra`` is one scan.  Counits and antipodes are not modeled.
"""

from dataclasses import dataclass
from functools import cached_property

from .algebra import HomAlgebra, check_hom_algebra, yau_twist_algebra
from .errors import DimensionMismatch, NotComultiplicative, PreconditionFailure
from .exact import LinearMap, Scan, compose, intertwining, scan_composites


@dataclass(frozen=True)
class HomCoalgebra:
    """A coalgebra by its comultiplication and structure map, regrouped as HomAlgebra's are."""

    dim: int
    map: LinearMap
    alpha: LinearMap

    def __post_init__(self):
        d = self.dim
        if self.alpha.shape != (d, d):
            raise DimensionMismatch("alpha shape does not match the coalgebra")
        object.__setattr__(self, "map", self.map.reshaped((d,), (d, d)))
        object.__setattr__(self, "alpha", self.alpha.reshaped((d,), (d,)))

    @cached_property
    def comul(self):
        """The dense view: ``comul[i][j][k]`` is the coefficient of e_j (x) e_k in Delta(e_i)."""
        return self.map.table()

    def is_classical(self):
        return self.alpha.is_identity()


def hom_coalgebra(dim, comul, alpha=None) -> HomCoalgebra:
    """The coalgebra of nested constants `comul`; alpha as in ``hom_algebra``."""
    if alpha is None:
        alpha = LinearMap.identity(dim)
    message = f"comultiplication constants are not {dim}^3 shaped"
    return HomCoalgebra(dim, LinearMap.from_constants(comul, (dim,), (dim, dim), message), alpha)


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


def _hom_coassoc_block(coalgebra, a, equation):
    """(Delta (x) a) o Delta = (a (x) Delta) o Delta per basis element."""
    delta = coalgebra.map
    lhs, rhs = [(delta, 0), (delta, 0), (a, 2)], [(delta, 0), (a, 0), (delta, 1)]
    return (coalgebra.dim,), [(equation, lhs, rhs)]


def check_hom_coalgebra(coalgebra):
    """Comultiplicativity of alpha, then Hom-coassociativity, per basis element."""
    alpha = coalgebra.alpha
    return scan_composites([
        intertwining("comultiplicativity", coalgebra.map, [alpha], [alpha, alpha]),
        _hom_coassoc_block(coalgebra, alpha, "hom_coassociativity"),
    ])


def check_coassociative(coalgebra):
    """Plain coassociativity, ignoring the structure map."""
    ident = LinearMap.identity(coalgebra.dim)
    return scan_composites([_hom_coassoc_block(coalgebra, ident, "coassociativity")])


def check_hom_bialgebra(bialgebra):
    """Algebra and coalgebra scans plus Delta(h h') = h1 h'1 (x) h2 h'2.

    The coalgebra scans already cover Delta(h1) (x) alpha(h2) = alpha(h1) (x)
    Delta(h2) and Delta(alpha(h)) = alpha(h1) (x) alpha(h2).
    """
    H = bialgebra.algebra
    C = bialgebra.coalgebra
    d = bialgebra.dim
    scan = Scan()
    scan.absorb("algebra", check_hom_algebra(H))
    scan.absorb("coalgebra", check_hom_coalgebra(C))
    mu, delta = H.map, C.map
    both = [(delta, 0), (delta, 2), (LinearMap.flip(d, d), 1), (mu, 0), (mu, 1)]
    scan_composites([((d, d), [("coproduct_multiplicative", [(mu, 0), (delta, 0)], both)])], scan)
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
    block = intertwining("comultiplicativity", coalgebra.map, [alpha], [alpha, alpha])
    scan_composites([block]).require("alpha is not comultiplicative", NotComultiplicative)
    path = [(alpha, 0), (coalgebra.map, 0)]
    return HomCoalgebra(coalgebra.dim, compose(path, (coalgebra.dim,)), alpha)


def yau_twist_bialgebra(bialgebra, alpha):
    """Twist a classical bialgebra on both sides; alpha must be a bialgebra endomorphism."""
    if not bialgebra.is_classical():
        raise PreconditionFailure("yau twist input must be a classical bialgebra")
    check_hom_bialgebra(bialgebra).require("check_hom_bialgebra")
    twisted_algebra = yau_twist_algebra(bialgebra.algebra, alpha)
    twisted_coalgebra = yau_twist_coalgebra(bialgebra.coalgebra, alpha)
    return HomBialgebra(twisted_algebra, twisted_coalgebra)
