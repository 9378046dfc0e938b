"""Finite-dimensional (Hom-)associative algebras given by structure constants.

An algebra is a triple (dim, map, alpha) of the multiplication mu, a
``LinearMap`` (d, d) -> (d,), and the structure map, a ``LinearMap``
(d,) -> (d,).  ``hom_algebra`` reads the constants ``mul[i][j][k]``, the
coefficient of ``e_k`` in ``e_i e_j``, by ``LinearMap.from_constants`` and
takes alpha as a ``LinearMap``; ``mul`` is their dense view.  A plain
associative algebra has ``alpha`` the identity.  No axiom is assumed at
construction; the checkers decide status.  Algebras are nonunital throughout.

(Hom-)associativity is ``exact.scan_associator``, with alpha for
``check_hom_algebra`` and with no alpha step for ``check_associative``.
``HomAlgebra.product`` and the dense view f.matrix() (``Matrix.apply``,
``Matrix.col``) serve only ``_multiplicative``, the one d^2 scan of
f(e_i e_j) = f(e_i) f(e_j) shared by ``check_hom_algebra``,
``multiplicativity_scan`` and ``check_algebra_morphism``.  Alpha-intertwining
is an ``exact.intertwining`` block and the four-element lemma a
``scan_composites`` declaration; the Yau twist alpha o mu and the twisted
product are ``compose`` paths, stored as they come.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, NotMultiplicative, PreconditionFailure
from .exact import (
    LinearMap,
    Scan,
    ZERO,
    compose,
    intertwining,
    kron,
    mat_inv,
    scan_associator,
    scan_composites,
    to_dense,
)


@dataclass(frozen=True)
class HomAlgebra:
    """mu (d, d) -> (d,) and alpha (d,) -> (d,) as LinearMaps; equal iff all fields are."""

    dim: int
    map: LinearMap
    alpha: LinearMap

    def __post_init__(self):
        d = self.dim
        rows, cols = self.alpha.shape
        if (rows, cols) != (d, d):
            raise DimensionMismatch(f"alpha is {rows}x{cols}, expected {d}x{d}")
        object.__setattr__(self, "map", self.map.reshaped((d, d), (d,)))
        object.__setattr__(self, "alpha", self.alpha.reshaped((d,), (d,)))

    @cached_property
    def mul(self):
        """The dense view: ``mul[i][j][k]`` is the coefficient of e_k in e_i e_j."""
        return self.map.table()

    def product(self, u, v):
        """Bilinear extension of the structure constants to coefficient vectors.

        Entries that are ZERO are skipped and only the nonzero constants of
        e_i e_j are read; any other zero is multiplied through.
        """
        d = self.dim
        if len(u) != d or len(v) != d:
            raise DimensionMismatch(f"vectors of lengths {len(u)}, {len(v)} in dimension {d}")
        cols = self.map.cols
        out = [ZERO] * d
        vs = [(j, vj) for j, vj in enumerate(v) if vj is not ZERO]
        for i, ui in enumerate(u):
            if ui is ZERO:
                continue
            row = i * d
            for j, vj in vs:
                w = ui * vj
                for k, c in cols[row + j]:
                    out[k] = out[k] + w * c
        return out

    def is_classical(self):
        return self.alpha.is_identity()


def hom_algebra(dim, mul, alpha=None) -> HomAlgebra:
    """The algebra of nested constants `mul`; `alpha` is a LinearMap (default identity)."""
    if alpha is None:
        alpha = LinearMap.identity(dim)
    message = f"structure constants are not {dim}^3 shaped"
    return HomAlgebra(dim, LinearMap.from_constants(mul, (dim, dim), (dim,), message), alpha)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_hom_algebra(algebra):
    """Scan multiplicativity of alpha, then Hom-associativity, over all basis tuples."""
    scan = Scan()
    _multiplicative(scan, "multiplicativity", algebra.alpha, algebra, algebra)
    return scan_associator("hom_associativity", algebra.map, algebra.alpha, scan)


def check_associative(algebra):
    """(e_i e_j) e_k = e_i (e_j e_k) over all basis triples; the structure map is ignored."""
    return scan_associator("associativity", algebra.map, swapped=True)


def _multiplicative(scan, name, f, source, target):
    """Scan f(e_i e_j) = f(e_i) f(e_j) on every basis pair (i, j) of `source`, in order.

    `f` is a LinearMap from `source` to `target`, read through its dense view:
    the left side applies it to e_i e_j, densified from the sparse column of
    mu, and the right side multiplies two of its columns.
    """
    f = f.matrix()
    d = source.dim
    cols = source.map.cols
    for i in range(d):
        fi = f.col(i)
        for j in range(d):
            eij = to_dense(dict(cols[i * d + j]), (d,))
            scan.eq(name, (i, j), f.apply(eij), target.product(fi, f.col(j)))


def multiplicativity_scan(algebra, endo):
    """Does `endo` satisfy endo(e_i e_j) = endo(e_i) endo(e_j) for algebra.mul?"""
    if endo.shape != (algebra.dim, algebra.dim):
        raise DimensionMismatch("alpha shape does not match the algebra")
    scan = Scan()
    _multiplicative(scan, "multiplicativity", endo, algebra, algebra)
    return scan.done()


def check_algebra_morphism(f, source, target):
    """f is a morphism iff it intertwines structure maps and is multiplicative."""
    rows, cols = f.shape
    if (rows, cols) != (target.dim, source.dim):
        raise DimensionMismatch(f"map is {rows}x{cols}, expected {target.dim}x{source.dim}")
    scan = Scan()
    scan_composites([intertwining("intertwines_alpha", f, [source.alpha], [target.alpha])], scan)
    _multiplicative(scan, "multiplicative", f, source, target)
    return scan.done()


def check_lemma_four_elements(algebra):
    """(ab)(cd) = alpha(a)(alpha^{-1}(bc) d) over all basis quadruples."""
    check_hom_algebra(algebra).require("check_hom_algebra")
    inv = mat_inv(algebra.alpha)  # NotInvertible propagates
    mu, alpha = algebra.map, algebra.alpha
    d = algebra.dim
    return scan_composites([((d, d, d, d), [(
        "four_elements",
        [(mu, 2), (mu, 0), (mu, 0)],
        [(mu, 1), (inv, 1), (mu, 1), (alpha, 0), (mu, 0)],
    )])])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def yau_twist_algebra(algebra, alpha):
    """Twist a plain associative algebra: new multiplication alpha o mul."""
    if not algebra.is_classical():
        raise PreconditionFailure("yau twist input must have identity structure map")
    multiplicativity_scan(algebra, alpha).require("alpha is not multiplicative", NotMultiplicative)
    return _yau_twisted(algebra, alpha)


def _yau_twisted(algebra, alpha):
    """The Yau twist alpha o mul with structure map alpha; nothing is checked."""
    d = algebra.dim
    return HomAlgebra(d, compose([(algebra.map, 0), (alpha, 0)], (d, d)), alpha)


def tensor_algebra(a, b):
    """Componentwise tensor product algebra with structure map alphaA (x) alphaB."""
    return _twisted_product(a, b, LinearMap.flip(b.dim, a.dim))


def _twisted_product(a, b, r):
    """A (x)_R B for a LinearMap R: B (x) A -> A (x) B; nothing is checked.

    (a (x) b)(a' (x) b') = a a'_R (x) b_R b', with structure map alpha_A (x) alpha_B.
    """
    da, db = a.dim, b.dim
    path = [(r, 1), (a.map, 0), (b.map, 1)]
    return HomAlgebra(da * db, compose(path, (da, db, da, db)), kron(a.alpha, b.alpha))
