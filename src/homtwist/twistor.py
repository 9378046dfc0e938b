"""Operators on D(x)D and D(x)D(x)D: twistors, pseudotwistors and their
Hom- and alpha- variants, plus the deformation constructor.

An operator on k factors stores its map (d,)*k -> (d,)*k as an
``exact.LinearMap``.  Each axiom is an equality of two composites of mu,
alpha, T and the companions, declared as paths of these maps and checked per
basis tuple by ``exact.scan_composites`` (never as one giant dim^3 x dim^3 matrix
equality), so failures come with a witness tuple and the memory stays
bounded.  T acting on factors 1 and 3 is T between two flips of factors 2
and 3.  The lift of T to factors 1 and 3 and the deformed product mu o T
are the same kind of path, tabulated once by ``exact.compose``.
"""

from dataclasses import dataclass

from .algebra import (
    HomAlgebra,
    check_associative,
    check_hom_algebra,
    multiplicativity_scan,
    yau_twist_algebra,
)
from .errors import DimensionMismatch, NotMultiplicative, PreconditionFailure
from .exact import LinearMap, Scan, compose, scan_composites


@dataclass(frozen=True)
class _Operator:
    """A linear operator on `arity` factors of dimension `dim`.

    Any map of the right size is accepted and regrouped into those factors.
    """

    dim: int
    map: LinearMap

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionMismatch(f"negative operator dimension {self.dim}")
        n = self.dim ** self.arity
        if self.map.shape != (n, n):
            raise DimensionMismatch(f"operator matrix must be {n}x{n}")
        dims = (self.dim,) * self.arity
        object.__setattr__(self, "map", self.map.reshaped(dims, dims))

    @classmethod
    def identity(cls, dim):
        return cls(dim, LinearMap.identity(dim ** cls.arity))


class Operator2(_Operator):
    """Linear operator on D(x)D."""

    arity = 2


class Operator3(_Operator):
    """Linear operator on D(x)D(x)D."""

    arity = 3


def _t13(op):
    """The path of T on factors 1 and 3 of D(x)D(x)D."""
    swap = LinearMap.flip(op.dim, op.dim)
    return [(swap, 1), (op.map, 0), (swap, 1)]


def lift_13(op):
    """Lift an Operator2 to act on factors 1 and 3 of D(x)D(x)D."""
    d = op.dim
    return Operator3(d, compose(_t13(op), (d, d, d)))


def _check_shapes(algebra, *ops):
    for op in ops:
        if op.dim != algebra.dim:
            raise DimensionMismatch("operator dimension does not match the algebra")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _commutes_with_alpha(alpha, op):
    """(alpha (x) alpha) o T = T o (alpha (x) alpha) on basis pairs."""
    t, d = op.map, op.dim
    both = [(alpha, 0), (alpha, 1)]
    return ((d, d), [("commutes_with_alpha", [(t, 0)] + both, both + [(t, 0)])])


def _twistor_axioms(prefix, algebra, op, companions, hom_alpha=None, alpha=None):
    """Scan the three (pseudo)twistor equations, tuple-major over basis triples.

    `companions` is (C1, C2), or None for a twistor: then both companions are
    T on factors 1 and 3 and the interchange carries none.  `hom_alpha` is the
    Hom-variant structure map on inputs and outputs; `alpha` the endomorphism
    of the alpha-variant, which enters the interchange and the commutation.
    """
    d = algebra.dim
    mu, t = algebra.map, op.map
    if companions is None:
        c1 = c2 = _t13(op)
        i1 = i2 = []
    else:
        c1, c2 = [(companions[0].map, 0)], [(companions[1].map, 0)]
        i1, i2 = c1, c2
    h0 = h1 = a0 = a2 = []
    blocks = []
    if hom_alpha is not None:
        h0, h1 = [(hom_alpha, 0)], [(hom_alpha, 1)]
        blocks.append(_commutes_with_alpha(hom_alpha, op))
    if alpha is not None:
        a0, a2 = [(alpha, 0)], [(alpha, 2)]
        blocks.append(_commutes_with_alpha(alpha, op))
    last = "commute" if companions is None else "interchange"
    blocks.append(((d, d, d), [
        (f"{prefix}_1", h0 + [(mu, 1), (t, 0)], [(t, 0)] + c1 + h0 + [(mu, 1)]),
        (f"{prefix}_2", [(mu, 0)] + h1 + [(t, 0)], [(t, 1)] + c2 + [(mu, 0)] + h1),
        (f"{prefix}_{last}", [(t, 1)] + a0 + [(t, 0)] + i1, [(t, 0)] + a2 + [(t, 1)] + i2),
    ]))
    return scan_composites(blocks)


def check_pseudotwistor(algebra, op, comp1, comp2):
    """Classical pseudotwistor equations on an associative algebra."""
    _check_shapes(algebra, op, comp1, comp2)
    if not algebra.is_classical():
        raise PreconditionFailure("pseudotwistor base algebra must have identity structure map")
    check_associative(algebra).require("check_associative")
    return _twistor_axioms("pseudotwistor", algebra, op, (comp1, comp2))


def check_twistor(algebra, op):
    """Classical twistor equations; companions are fixed to the 1-3 lift."""
    _check_shapes(algebra, op)
    if not algebra.is_classical():
        raise PreconditionFailure("twistor base algebra must have identity structure map")
    check_associative(algebra).require("check_associative")
    return _twistor_axioms("twistor", algebra, op, None)


def check_hom_pseudotwistor(algebra, op, comp1, comp2):
    """Hom-pseudotwistor equations on a Hom-associative algebra."""
    _check_shapes(algebra, op, comp1, comp2)
    check_hom_algebra(algebra).require("check_hom_algebra")
    return _twistor_axioms(
        "hom_pseudotwistor", algebra, op, (comp1, comp2), hom_alpha=algebra.alpha
    )


def check_hom_twistor(algebra, op):
    """Hom-twistor equations; companions are the 1-3 lift of the operator."""
    _check_shapes(algebra, op)
    check_hom_algebra(algebra).require("check_hom_algebra")
    return _twistor_axioms("hom_twistor", algebra, op, None, hom_alpha=algebra.alpha)


def check_alpha_pseudotwistor(algebra, alpha, op, comp1, comp2):
    """alpha-pseudotwistor equations on an associative algebra with endomorphism alpha.

    The interchange reads C1 o (T (x) id) o (alpha (x) T) = C2 o (id (x) T) o (T (x) alpha).
    """
    _check_shapes(algebra, op, comp1, comp2)
    if not algebra.is_classical():
        raise PreconditionFailure("base algebra must have identity structure map")
    check_associative(algebra).require("check_associative")
    multiplicativity_scan(algebra, alpha).require("alpha is not multiplicative", NotMultiplicative)
    return _twistor_axioms("alpha_pseudotwistor", algebra, op, (comp1, comp2), alpha=alpha)


# ---------------------------------------------------------------------------
# deformation and the Yau operator triple
# ---------------------------------------------------------------------------


def _deformed(algebra, op, alpha):
    """mu o T with structure map `alpha`; nothing is checked."""
    d = algebra.dim
    return HomAlgebra(d, compose([(op.map, 0), (algebra.map, 0)], (d, d)), alpha)


def deform(algebra, op):
    """Replace the multiplication by mu o T; only the shapes are checked."""
    _check_shapes(algebra, op)
    return _deformed(algebra, op, algebra.alpha)


def deform_with_alpha(algebra, alpha, op):
    """mu o T on an associative algebra, with alpha installed as the structure map."""
    _check_shapes(algebra, op)
    if not algebra.is_classical():
        raise PreconditionFailure("base algebra must have identity structure map")
    multiplicativity_scan(algebra, alpha).require("alpha is not multiplicative", NotMultiplicative)
    return _deformed(algebra, op, alpha)


def yau_operator(alpha):
    """The operator triple (alpha (x) alpha, id (x) id (x) alpha, alpha (x) id (x) id)."""
    d, cols = alpha.shape
    if d != cols:
        raise DimensionMismatch("alpha must be square")
    return (
        Operator2(d, compose([(alpha, 0), (alpha, 1)], (d, d))),
        Operator3(d, compose([(alpha, 2)], (d, d, d))),
        Operator3(d, compose([(alpha, 0)], (d, d, d))),
    )


def structure_constants_block(left, right):
    """The block comparing two algebras' structure constants on basis pairs."""
    lhs, rhs = left.map, right.map
    return ((left.dim, left.dim), [("structure_constants", [(lhs, 0)], [(rhs, 0)])])


def check_yau_compat(algebra, alpha, op, comp1, comp2):
    """Pseudotwistor vs Yau-twist compatibility: the deformations commute.

    The hypotheses are those of ``check_pseudotwistor`` and ``yau_twist_algebra``.
    """
    check_pseudotwistor(algebra, op, comp1, comp2).require("check_pseudotwistor")
    twisted = yau_twist_algebra(algebra, alpha)
    scan_composites([_commutes_with_alpha(alpha, op)]).require("alpha_commutes_with_operator")
    deformed = deform(algebra, op)
    deform_then_twist = yau_twist_algebra(deformed, alpha)

    scan = Scan()
    scan.absorb("hom_pseudotwistor_on_twist", check_hom_pseudotwistor(twisted, op, comp1, comp2))
    twist_then_deform = deform(twisted, op)
    return scan_composites([structure_constants_block(twist_then_deform, deform_then_twist)], scan)
