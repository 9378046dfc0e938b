"""Twisting maps, (Hom-/alpha-)twisted tensor products, iterated products and
the Clifford process.

A TwistingMapR stores R: B (x) A -> A (x) B as an ``exact.LinearMap`` with
source factors (dim_b, dim_a) and target factors (dim_a, dim_b): input
coordinates flatten as (b-index, a-index) and output coordinates as
(a-index, b-index), both row-major.  This is the single most error-prone
convention in Sweedler notation, so it is pinned here and reused by the
manifest format.

Every axiom below is a pair of paths of ``exact.LinearMap``s checked by
``exact.scan_composites``, and every product table or derived twisting map
is such a path tabulated by ``exact.compose``.
"""

from dataclasses import dataclass

from .algebra import (
    _twisted_product,
    check_associative,
    check_hom_algebra,
    hom_algebra,
    multiplicativity_scan,
    tensor_algebra,
    yau_twist_algebra,
)
from .errors import (
    BraidViolation,
    CommutationFailure,
    DimensionMismatch,
    NotCommutingWithAlpha,
    NotInvolutive,
    NotMultiplicative,
    ParamConstraintViolation,
    PreconditionFailure,
)
from .exact import ONE, ZERO, LinearMap, as_scalar, compose, kron, mat_inv, scan_composites
from .twistor import Operator2, Operator3, _t13, deform_with_alpha, structure_constants_block


@dataclass(frozen=True)
class TwistingMapR:
    """Linear map R: B (x) A -> A (x) B; no axiom assumed.

    Any map of size (dim_a dim_b) x (dim_a dim_b) is accepted and regrouped
    into the factors (dim_b, dim_a) -> (dim_a, dim_b).
    """

    dim_a: int
    dim_b: int
    map: LinearMap

    def __post_init__(self):
        a, b = self.dim_a, self.dim_b
        if a < 0 or b < 0:
            raise DimensionMismatch(f"negative dimensions ({a},{b})")
        if self.map.shape != (a * b, a * b):
            raise DimensionMismatch(f"twisting map matrix must be {a * b}x{a * b}")
        object.__setattr__(self, "map", self.map.reshaped((b, a), (a, b)))


def flip(dim_a, dim_b):
    """The flip b (x) a -> a (x) b as a permutation twisting map."""
    return TwistingMapR(dim_a, dim_b, LinearMap.flip(dim_b, dim_a))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _check_r_dims(a, b, rmap):
    if rmap.dim_a != a.dim or rmap.dim_b != b.dim:
        raise DimensionMismatch(
            f"twisting map is ({rmap.dim_a},{rmap.dim_b}), algebras are ({a.dim},{b.dim})"
        )


def _alpha_equation(name, rmap, alpha_a, alpha_b):
    """(alpha_A (x) alpha_B) o R = R o (alpha_B (x) alpha_A) on basis pairs."""
    r = rmap.map
    lhs, rhs = [(r, 0), (alpha_a, 0), (alpha_b, 1)], [(alpha_b, 0), (alpha_a, 1), (r, 0)]
    return ((rmap.dim_b, rmap.dim_a), [(name, lhs, rhs)])


def _twisting_axioms(prefix, a, b, rmap, hom=None, alphas=None):
    """Scan the twisting-map equations of R, classical unless a pair of maps is given.

    `hom` is the structure maps (alpha_A, alpha_B) of the Hom variant, which
    enter both module equations; `alphas` the endomorphisms of the
    (alpha_A, alpha_B) variant, whose inverses enter between the two R's.
    """
    r, mu_a, mu_b = rmap.map, a.map, b.map
    ha0 = ha1 = hb0 = hb1 = ia = ib = []
    blocks = []
    if hom:
        fa, fb = hom
        ha0, ha1, hb0, hb1 = [(fa, 0)], [(fa, 1)], [(fb, 0)], [(fb, 1)]
    if alphas:  # NotInvertible propagates
        ia, ib = ([(mat_inv(m), 1)] for m in alphas)
    if hom or alphas:
        blocks.append(_alpha_equation(f"{prefix}_0", rmap, *(hom or alphas)))
    da, db = a.dim, b.dim
    return scan_composites(blocks + [
        ((db, da, da), [(
            f"{prefix}_1", hb0 + [(mu_a, 1), (r, 0)], [(r, 0)] + ib + [(r, 1), (mu_a, 0)] + hb1
        )]),
        ((db, db, da), [(
            f"{prefix}_2", [(mu_b, 0)] + ha1 + [(r, 0)], [(r, 1)] + ia + [(r, 0), (mu_b, 1)] + ha0
        )]),
    ])


def check_twisting_map(a, b, rmap):
    """Classical twisting map equations over associative algebras."""
    _check_r_dims(a, b, rmap)
    for alg, name in ((a, "A"), (b, "B")):
        if not alg.is_classical():
            raise PreconditionFailure(f"{name} must have identity structure map")
        check_associative(alg).require(f"check_associative:{name}")
    return _twisting_axioms("twisting_map", a, b, rmap)


def check_hom_twisting_map(a, b, rmap):
    """Hom-twisting map equations over Hom-associative algebras."""
    _check_r_dims(a, b, rmap)
    for alg, name in ((a, "A"), (b, "B")):
        check_hom_algebra(alg).require(f"check_hom_algebra:{name}")
    return _twisting_axioms("hom_twisting_map", a, b, rmap, hom=(a.alpha, b.alpha))


def check_braid(r1, r2, r3):
    """Hexagon compatibility of R1: B(x)A, R2: C(x)B, R3: C(x)A."""
    da, db = r1.dim_a, r1.dim_b
    dc = r2.dim_b
    if r2.dim_a != db or r3.dim_a != da or r3.dim_b != dc:
        raise DimensionMismatch("braid triple dimensions are inconsistent")
    m1, m2, m3 = r1.map, r2.map, r3.map
    return scan_composites([
        ((dc, db, da), [("braid", [(m1, 1), (m3, 0), (m2, 1)], [(m2, 0), (m3, 1), (m1, 0)])]),
    ])


# ---------------------------------------------------------------------------
# twisted tensor products
# ---------------------------------------------------------------------------


def ttp(a, b, rmap):
    """Classical twisted tensor product; requires a verified twisting map."""
    check_twisting_map(a, b, rmap).require("check_twisting_map")
    return _twisted_product(a, b, rmap.map)


def hom_ttp(a, b, rmap):
    """Hom-twisted tensor product; requires a verified Hom-twisting map."""
    check_hom_twisting_map(a, b, rmap).require("check_hom_twisting_map")
    return _twisted_product(a, b, rmap.map)


def _twistor_path(a, b, rmap):
    """(a (x) b) (x) (a' (x) b') -> (a (x) b_R) (x) (a'_R (x) b')."""
    return [(rmap.map, 1), (LinearMap.flip(a.dim, b.dim), 1)]


def _twistor(a, b, rmap):
    return Operator2(a.dim * b.dim, compose(_twistor_path(a, b, rmap), (a.dim, b.dim) * 2))


def twistor_from_R(a, b, rmap):
    """The twistor on A (x) B induced by a classical twisting map."""
    check_twisting_map(a, b, rmap).require("check_twisting_map")
    return _twistor(a, b, rmap)


def hom_twistor_from_R(a, b, rmap):
    """The Hom-twistor on A (x) B induced by a Hom-twisting map."""
    check_hom_twisting_map(a, b, rmap).require("check_hom_twisting_map")
    return _twistor(a, b, rmap)


# ---------------------------------------------------------------------------
# iterated products
# ---------------------------------------------------------------------------


def iterated_ttp(a, b, c, r1, r2, r3):
    """Both bracketings of the iterated Hom-twisted tensor product.

    Returns (algebra, P1, P2) where P1 twists (A (x) B) with C and P2 twists A
    with (B (x) C); the two bracketings are compared entry-wise.
    """
    for rmap, left, right, name in ((r1, a, b, "R1"), (r2, b, c, "R2"), (r3, a, c, "R3")):
        check_hom_twisting_map(left, right, rmap).require(f"check_hom_twisting_map:{name}")
    check_braid(r1, r2, r3).require("braid condition fails", BraidViolation)
    da, db, dc = a.dim, b.dim, c.dim
    # P1: c (x) (a (x) b) -> (a (x) b) (x) c;  P2: (b (x) c) (x) a -> a (x) (b (x) c)
    p1 = TwistingMapR(da * db, dc, compose([(r3.map, 0), (r2.map, 1)], (dc, da, db)))
    p2 = TwistingMapR(da, db * dc, compose([(r3.map, 1), (r1.map, 0)], (db, dc, da)))

    # hom_ttp of (a, b, r1) and (b, c, r2), whose twisting maps passed above
    ab = _twisted_product(a, b, r1.map)
    left_first = hom_ttp(ab, c, p1)
    bc = _twisted_product(b, c, r2.map)
    right_first = hom_ttp(a, bc, p2)
    if left_first != right_first:
        raise BraidViolation("bracketings disagree despite a passing braid check")
    return left_first, p1, p2


# ---------------------------------------------------------------------------
# Clifford process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordParams:
    """q and the involution sigma for doubling along k[v]/(v^2 = q)."""

    q: object
    sigma: LinearMap

    def __post_init__(self):
        object.__setattr__(self, "q", as_scalar(self.q))
        if not self.q:
            raise ParamConstraintViolation("q must be nonzero")
        n, cols = self.sigma.shape
        if n != cols:
            raise DimensionMismatch("sigma must be square")
        s = self.sigma.reshaped((n,), (n,))
        object.__setattr__(self, "sigma", s)
        scan_composites([((n,), [("involution", [(s, 0), (s, 0)], [])])]).require(
            "sigma squared is not the identity", NotInvolutive
        )


def clifford_algebra(q):
    """C(k, q) = k[v]/(v^2 = q) with basis (1, v) and identity structure map."""
    return hom_algebra(2, (((ONE, ZERO), (ZERO, ONE)), ((ZERO, ONE), (q, ZERO))))


def clifford(a, params):
    """Clifford process: double A along C(k, q) with the sigma-twisting map."""
    s, alpha = params.sigma, a.alpha
    if s.shape[0] != a.dim:
        raise DimensionMismatch("sigma shape does not match the algebra")
    multiplicativity_scan(a, s).require("sigma is not multiplicative", NotMultiplicative)
    commutes = ("commutes_with_alpha", [(alpha, 0), (s, 0)], [(s, 0), (alpha, 0)])
    scan_composites([(s.src, [commutes])]).require(
        "sigma does not commute with the structure map", NotCommutingWithAlpha
    )
    rmap = clifford_twisting_map(s)
    return hom_ttp(a, clifford_algebra(params.q), rmap), rmap


def clifford_twisting_map(sigma):
    """R: C(k, q) (x) A -> A (x) C(k, q), R(1 (x) a) = a (x) 1 and R(v (x) a) = sigma(a) (x) v."""
    da = sigma.shape[0]
    ones = [((2 * a, ONE),) for a in range(da)]
    vs = [tuple((2 * r + 1, c) for r, c in col) for col in sigma.cols]
    return TwistingMapR(da, 2, LinearMap((2, da), (da, 2), ones + vs))


# ---------------------------------------------------------------------------
# compatibility with Yau twisting, and the alpha variants
# ---------------------------------------------------------------------------


def _alpha_lift(pmap, alpha_a, alpha_b):
    """(alpha_A (x) alpha_B) o P, which must equal P o (alpha_B (x) alpha_A)."""
    if set(alpha_a.shape) != {pmap.dim_a} or set(alpha_b.shape) != {pmap.dim_b}:
        raise DimensionMismatch("alpha shapes do not match the twisting map")
    block = _alpha_equation("alpha_lift", pmap, alpha_a, alpha_b)
    scan_composites([block]).require(
        "(alpha_A (x) alpha_B) o P differs from P o (alpha_B (x) alpha_A)", CommutationFailure
    )
    dims, [(_, lhs, _)] = block
    return compose(lhs, dims)


def check_deform_compat_ttp(a, b, alpha_a, alpha_b, pmap):
    """Twisting then Yau-deforming equals Yau-deforming then twisting."""
    classical = ttp(a, b, pmap)
    _alpha_lift(pmap, alpha_a, alpha_b)
    at = yau_twist_algebra(a, alpha_a)
    bt = yau_twist_algebra(b, alpha_b)
    twisted_classical = yau_twist_algebra(classical, kron(alpha_a, alpha_b))
    hom_side = hom_ttp(at, bt, pmap)
    return scan_composites([structure_constants_block(twisted_classical, hom_side)])


def check_alphaAB_twisting_map(a, b, alpha_a, alpha_b, rmap):
    """(alpha_A, alpha_B)-twisting map equations over associative algebras."""
    _check_r_dims(a, b, rmap)
    for alg, endo, name in ((a, alpha_a, "A"), (b, alpha_b, "B")):
        if not alg.is_classical():
            raise PreconditionFailure(f"{name} must have identity structure map")
        check_associative(alg).require(f"check_associative:{name}")
        multiplicativity_scan(alg, endo).require(
            f"alpha_{name} is not multiplicative", NotMultiplicative
        )
    return _twisting_axioms("alpha_twisting_map", a, b, rmap, alphas=(alpha_a, alpha_b))


def alphaAB_ttp(a, b, alpha_a, alpha_b, rmap):
    """The (alpha_A, alpha_B)-twisted tensor product with its operator triple.

    Returns (algebra, T, C1, C2); the algebra is the deformation of A (x) B by
    T with structure map alpha_A (x) alpha_B.
    """
    check_alphaAB_twisting_map(a, b, alpha_a, alpha_b, rmap).require("check_alphaAB_twisting_map")
    n = a.dim * b.dim
    # T(a (x) b (x) a' (x) b') = alpha_A(a) (x) b_R (x) a'_R (x) alpha_B(b')
    ends = [(alpha_a, 0), (alpha_b, 3)]
    top = Operator2(n, compose(_twistor_path(a, b, rmap) + ends, (a.dim, b.dim) * 2))

    # C1 = T_13 o (alpha^-1 (x) id (x) id), C2 = T_13 o (id (x) id (x) alpha^-1)
    inv_ab = kron(mat_inv(alpha_a), mat_inv(alpha_b))
    comp1, comp2 = (Operator3(n, compose([(inv_ab, p)] + _t13(top), (n, n, n))) for p in (0, 2))

    algebra = deform_with_alpha(tensor_algebra(a, b), kron(alpha_a, alpha_b), top)
    return algebra, top, comp1, comp2


def alphaAB_from_classical(pmap, alpha_a, alpha_b):
    """Lift a classical twisting map to the alpha setting: R = (alpha_A (x) alpha_B) o P."""
    return TwistingMapR(pmap.dim_a, pmap.dim_b, _alpha_lift(pmap, alpha_a, alpha_b))
