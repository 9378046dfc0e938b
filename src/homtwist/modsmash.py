"""Modules and comodules over Hom-(bi)algebras, their algebra-compatibility
checkers, Yetter-Drinfeld modules, and left/right/two-sided Hom-smash products.

Action constants: ``table[h][m][m']`` is the coefficient of ``e_{m'}`` in
``e_h . e_m`` (left) or ``e_m . e_h`` (right).  Coaction constants:
``table[m][i][j]`` is the coefficient of ``e_i (x) e_j`` in the coaction of
``e_m``, where the pair reads (coalgebra, module) on the left side and
(module, coalgebra) on the right side.

An action's ``map`` reads its constants as (h, m) -> m' on either side, so
every axiom below is a composite of these maps, mu, Delta and the structure
maps, with flips bringing the factors each map acts on together.
"""

from dataclasses import dataclass
from functools import cached_property

from .algebra import _twisted_product, _yau_twisted, multiplicativity_scan, yau_twist_algebra
from .coalgebra import (
    HomBialgebra,
    _comultiplicativity_scan,
    _yau_cotwisted,
    check_coassociative,
    check_hom_bialgebra,
)
from .errors import (
    DimensionMismatch,
    IntertwiningFailure,
    NotMultiplicative,
    PreconditionFailure,
    YDViolation,
)
from .exact import LinearMap, Matrix, as_constants, compose, kron, mat_inv, scan_composites
from .twisted import TwistingMapR, _first_time, _iterated, _require_hom_twisting, flip
from .twistor import structure_constants_block

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class ActionTable:
    """Structure constants of a one-sided action together with alpha_M."""

    side: str
    acting_dim: int
    module_dim: int
    table: tuple
    alpha_m: Matrix

    def __post_init__(self):
        _check_side(self.side)
        dh, dm = self.acting_dim, self.module_dim
        message = f"action constants are not {dh}x{dm}x{dm} shaped"
        object.__setattr__(self, "table", as_constants(self.table, (dh, dm, dm), message))
        if self.alpha_m.rows != self.module_dim or self.alpha_m.cols != self.module_dim:
            raise DimensionMismatch("alpha_M shape does not match the module")

    @cached_property
    def map(self):
        """H (x) M -> M, e_h (x) e_m -> table[h][m], for either side."""
        return LinearMap.from_constants(
            self.table, (self.acting_dim, self.module_dim), (self.module_dim,)
        )


@dataclass(frozen=True)
class CoactionTable:
    """Structure constants of a one-sided coaction together with alpha_M."""

    side: str
    coalgebra_dim: int
    module_dim: int
    table: tuple
    alpha_m: Matrix

    def __post_init__(self):
        _check_side(self.side)
        if self.side == LEFT:
            d1, d2 = self.coalgebra_dim, self.module_dim
        else:
            d1, d2 = self.module_dim, self.coalgebra_dim
        dm = self.module_dim
        message = f"coaction constants are not {dm}x{d1}x{d2} shaped"
        object.__setattr__(self, "table", as_constants(self.table, (dm, d1, d2), message))
        if self.alpha_m.rows != self.module_dim or self.alpha_m.cols != self.module_dim:
            raise DimensionMismatch("alpha_M shape does not match the module")

    @cached_property
    def map(self):
        """M -> C (x) M on the left side, M -> M (x) C on the right side."""
        pair = (self.coalgebra_dim, self.module_dim)
        return LinearMap.from_constants(
            self.table, (self.module_dim,), pair if self.side == LEFT else pair[::-1]
        )


# ---------------------------------------------------------------------------
# module checkers
# ---------------------------------------------------------------------------


def check_module(side, algebra, action):
    """Hom-module axioms for the declared side."""
    _check_side(side)
    if action.side != side:
        raise DimensionMismatch(f"action table is {action.side}-sided, expected {side}")
    if action.acting_dim != algebra.dim:
        raise DimensionMismatch("acting dimension does not match the algebra")
    d, dm = algebra.dim, action.module_dim
    act = action.map
    ah, am = LinearMap.from_matrix(algebra.alpha), LinearMap.from_matrix(action.alpha_m)
    # left: alpha(h) . (h' . m); right: (m . h) . alpha(h'), so h goes first
    first = [] if side == LEFT else [(LinearMap.flip(d, d), 0)]
    return scan_composites([
        ((d, dm), [("module_alpha", [(act, 0), (am, 0)], [(ah, 0), (am, 1), (act, 0)])]),
        ((d, d, dm), [(
            "module_assoc",
            first + [(act, 1), (ah, 0), (act, 0)],
            [(algebra.map, 0), (am, 1), (act, 0)],
        )]),
    ])


def check_module_hom_algebra(side, bialgebra, algebra, action):
    """Module axioms plus alpha_H^2(h) . (a a') = (h1 . a)(h2 . a') (or its mirror)."""
    if action.module_dim != algebra.dim:
        raise DimensionMismatch("module dimension does not match the algebra")
    if action.alpha_m != algebra.alpha:
        raise PreconditionFailure("action alpha_M must equal the algebra structure map")
    check_module(side, bialgebra.algebra, action).require("check_module")
    dh, da = bialgebra.dim, algebra.dim
    ah, act, mu = LinearMap.from_matrix(bialgebra.alpha), action.map, algebra.map
    delta = LinearMap.coproduct(bialgebra.comul)
    return scan_composites([((dh, da, da), [(
        "module_algebra_compat",
        [(mu, 1), (ah, 0), (ah, 0), (act, 0)],
        [(delta, 0), (LinearMap.flip(dh, da), 1), (act, 0), (act, 1), (mu, 0)],
    )])])


def yau_twist_module_algebra(side, bialgebra, algebra, action, alpha_h, alpha_a):
    """Twist a classical module algebra into a module Hom-algebra.

    The new action is h . a -> alpha_A(h . a); requires the intertwining
    alpha_A(h . a) = alpha_H(h) . alpha_A(a).
    """
    if not bialgebra.is_classical() or not algebra.is_classical():
        raise PreconditionFailure("classical input required (identity structure maps)")
    if not action.alpha_m.is_identity():
        raise PreconditionFailure("classical action required (identity alpha_M)")
    check_module_hom_algebra(side, bialgebra, algebra, action).require(
        "classical module algebra axioms"
    )
    h, c = bialgebra.algebra, bialgebra.coalgebra
    multiplicativity_scan(h, alpha_h).require("alpha_H is not multiplicative", NotMultiplicative)
    _comultiplicativity_scan(c, alpha_h).require("alpha_H must be a coalgebra endomorphism")
    multiplicativity_scan(algebra, alpha_a).require(
        "alpha_A is not multiplicative", NotMultiplicative
    )
    act, fa, fh = action.map, LinearMap.from_matrix(alpha_a), LinearMap.from_matrix(alpha_h)
    dims = (bialgebra.dim, algebra.dim)
    scan_composites([
        (dims, [("intertwining", [(act, 0), (fa, 0)], [(fh, 0), (fa, 1), (act, 0)])]),
    ]).require("alpha_A(h.a) != alpha_H(h).alpha_A(a)", IntertwiningFailure)
    # yau_twist_bialgebra and yau_twist_algebra, less the scans that passed above
    check_hom_bialgebra(bialgebra).require("check_hom_bialgebra")
    check_coassociative(c).require("coassociativity")
    twisted_bi = HomBialgebra(_yau_twisted(h, alpha_h), _yau_cotwisted(c, alpha_h))
    twisted_alg = _yau_twisted(algebra, alpha_a)
    new_table = compose([(act, 0), (fa, 0)], dims).table()
    twisted_action = ActionTable(side, bialgebra.dim, algebra.dim, new_table, alpha_a)
    return twisted_bi, twisted_alg, twisted_action


def tensor_modules(bialgebra, act_m, act_n):
    """Left module structure on M (x) N via h . (m (x) n) = h1 . m (x) h2 . n."""
    if act_m.side != LEFT or act_n.side != LEFT:
        raise PreconditionFailure("tensor_modules requires left modules")
    if act_m.acting_dim != bialgebra.dim or act_n.acting_dim != bialgebra.dim:
        raise DimensionMismatch("acting dimensions do not match the bialgebra")
    seen = []
    for act, name in ((act_m, "M"), (act_n, "N")):
        if _first_time(seen, act):
            check_module(LEFT, bialgebra.algebra, act).require(f"check_module:{name}")
    dh = bialgebra.dim
    dm, dn = act_m.module_dim, act_n.module_dim
    path = [
        (LinearMap.coproduct(bialgebra.comul), 0),
        (LinearMap.flip(dh, dm), 1),
        (act_m.map, 0),
        (act_n.map, 1),
    ]
    table = compose(path, (dh, dm, dn)).reshaped((dh, dm * dn), (dm * dn,)).table()
    return ActionTable(LEFT, dh, dm * dn, table, kron(act_m.alpha_m, act_n.alpha_m))


# ---------------------------------------------------------------------------
# comodule checkers
# ---------------------------------------------------------------------------


def check_comodule(side, coalgebra, coaction):
    """Hom-comodule axioms for the declared side."""
    _check_side(side)
    if coaction.side != side:
        raise DimensionMismatch(f"coaction table is {coaction.side}-sided, expected {side}")
    if coaction.coalgebra_dim != coalgebra.dim:
        raise DimensionMismatch("coalgebra dimension does not match")
    co = coaction.map
    am, ac = LinearMap.from_matrix(coaction.alpha_m), LinearMap.from_matrix(coalgebra.alpha)
    delta = LinearMap.coproduct(coalgebra.comul)
    if side == LEFT:
        # (alpha_C (x) alpha_M) o lambda, and
        # (Delta (x) alpha_M) o lambda = (alpha_C (x) lambda) o lambda
        pair_alpha = [(ac, 0), (am, 1)]
        lhs, rhs = [(delta, 0), (am, 2)], [(ac, 0), (co, 1)]
    else:
        # (alpha_M (x) alpha_C) o rho, and
        # (alpha_M (x) Delta) o rho = (rho (x) alpha_C) o rho
        pair_alpha = [(am, 0), (ac, 1)]
        lhs, rhs = [(am, 0), (delta, 1)], [(co, 0), (ac, 2)]
    dims = (coaction.module_dim,)
    return scan_composites([
        (dims, [("comodule_alpha", [(co, 0)] + pair_alpha, [(am, 0), (co, 0)])]),
        (dims, [("hom_coassociativity", [(co, 0)] + lhs, [(co, 0)] + rhs)]),
    ])


def check_bicomodule(coalgebra, lam, rho):
    """(lambda (x) alpha_C) o rho = (alpha_C (x) rho) o lambda."""
    if lam.side != LEFT or rho.side != RIGHT:
        raise DimensionMismatch("bicomodule needs a left and a right coaction")
    if lam.module_dim != rho.module_dim or lam.alpha_m != rho.alpha_m:
        raise PreconditionFailure("coactions must share the module and alpha_M")
    for side, table, name in ((LEFT, lam, "left"), (RIGHT, rho, "right")):
        check_comodule(side, coalgebra, table).require(f"check_comodule:{name}")
    ac = LinearMap.from_matrix(coalgebra.alpha)
    return scan_composites([((lam.module_dim,), [(
        "bicomodule_interchange",
        [(rho.map, 0), (lam.map, 0), (ac, 2)],
        [(lam.map, 0), (ac, 0), (rho.map, 1)],
    )])])


def check_comodule_hom_algebra(side, bialgebra, algebra, coaction):
    """The coaction must be multiplicative into the tensor Hom-algebra."""
    if coaction.module_dim != algebra.dim:
        raise DimensionMismatch("module dimension does not match the algebra")
    if coaction.alpha_m != algebra.alpha:
        raise PreconditionFailure("coaction alpha_M must equal the algebra structure map")
    check_comodule(side, bialgebra.coalgebra, coaction).require("check_comodule")
    dh, da = bialgebra.dim, algebra.dim
    co = coaction.map
    mu_a, mu_h = algebra.map, bialgebra.algebra.map
    # co(a) co(a'): the two coactions' middle factors trade places, then multiply pairwise
    if side == LEFT:
        products = [(LinearMap.flip(da, dh), 1), (mu_h, 0), (mu_a, 1)]
    else:
        products = [(LinearMap.flip(dh, da), 1), (mu_a, 0), (mu_h, 1)]
    return scan_composites([((da, da), [(
        "coaction_multiplicative", [(mu_a, 0), (co, 0)], [(co, 0), (co, 2)] + products
    )])])


def check_yetter_drinfeld(bialgebra, action, coaction):
    """The left-left Yetter-Drinfeld compatibility over all basis pairs."""
    if action.side != LEFT or coaction.side != LEFT:
        raise PreconditionFailure("Yetter-Drinfeld data must be left-sided")
    if action.module_dim != coaction.module_dim or action.alpha_m != coaction.alpha_m:
        raise PreconditionFailure("action and coaction must share the module and alpha_M")
    check_module(LEFT, bialgebra.algebra, action).require("check_module")
    check_comodule(LEFT, bialgebra.coalgebra, coaction).require("check_comodule")
    return _yetter_drinfeld_scan(bialgebra, action, coaction)


def _yetter_drinfeld_scan(bialgebra, action, coaction):
    """The Yetter-Drinfeld equation alone; the (co)module axioms are not checked."""
    dh, dm = bialgebra.dim, action.module_dim
    a, act, co = LinearMap.from_matrix(bialgebra.alpha), action.map, coaction.map
    mu, delta = bialgebra.algebra.map, LinearMap.coproduct(bialgebra.comul)
    return scan_composites([((dh, dm), [(
        "yetter_drinfeld",
        # (h1.m)_{(-1)} alpha^2(h2) (x) (h1.m)_{(0)}
        [(delta, 0), (LinearMap.flip(dh, dm), 1), (act, 0), (co, 0),
         (LinearMap.flip(dm, dh), 1), (a, 1), (a, 1), (mu, 0)],
        # alpha^2(h1) alpha(m_{(-1)}) (x) alpha(h2).m_{(0)}
        [(delta, 0), (co, 2), (LinearMap.flip(dh, dh), 1), (a, 0), (a, 0), (a, 1), (mu, 0),
         (a, 1), (act, 1)],
    )])])


# ---------------------------------------------------------------------------
# smash products
# ---------------------------------------------------------------------------


def _smash_preconditions(side, bialgebra, algebra, action, seen):
    """The module-algebra check; returns the inverses of alpha_H and the algebra's alpha.

    The scan is skipped when `seen` records it as passed on these very objects.
    """
    if _first_time(seen, side, bialgebra, algebra, action):
        check_module_hom_algebra(side, bialgebra, algebra, action).require(
            "check_module_hom_algebra"
        )
    inv_h = LinearMap.from_matrix(mat_inv(bialgebra.alpha))  # NotInvertible propagates
    return inv_h, LinearMap.from_matrix(mat_inv(algebra.alpha))


def _smash_left_map(algebra, bialgebra, action, seen):
    """R(h (x) a) = alpha_H^{-2}(h1) . alpha_A^{-1}(a) (x) alpha_H^{-1}(h2)."""
    inv_h, inv_a = _smash_preconditions(LEFT, bialgebra, algebra, action, seen)
    da, dh = algebra.dim, bialgebra.dim
    path = [
        (LinearMap.coproduct(bialgebra.comul), 0),
        (LinearMap.flip(dh, da), 1),
        (inv_h, 0), (inv_h, 0), (inv_a, 1), (action.map, 0),
        (inv_h, 1),
    ]
    return TwistingMapR(da, dh, compose(path, (dh, da)).matrix())


def _smash_right_map(bialgebra, algebra, action, seen):
    """R(c (x) h) = alpha_H^{-1}(h1) (x) alpha_C^{-1}(c) . alpha_H^{-2}(h2)."""
    inv_h, inv_c = _smash_preconditions(RIGHT, bialgebra, algebra, action, seen)
    dh, dc = bialgebra.dim, algebra.dim
    path = [
        (LinearMap.coproduct(bialgebra.comul), 1),
        (LinearMap.flip(dc, dh), 0),
        (LinearMap.flip(dc, dh), 1),
        (inv_h, 0), (inv_h, 1), (inv_h, 1), (inv_c, 2), (action.map, 1),
    ]
    return TwistingMapR(dh, dc, compose(path, (dc, dh)).matrix())


def smash_left(algebra, bialgebra, action):
    """Left Hom-smash product A # H; returns (R, A # H)."""
    return _smash_left(algebra, bialgebra, action, [])


def _smash_left(algebra, bialgebra, action, seen):
    """smash_left within one call; the hom_ttp scans that `seen` records are skipped."""
    h = bialgebra.algebra
    rmap = _smash_left_map(algebra, bialgebra, action, seen)
    _require_hom_twisting(algebra, h, rmap, "check_hom_twisting_map", seen)
    return rmap, _twisted_product(algebra, h, rmap.map, "hom_ttp").with_provenance("smash_left")


def smash_right(bialgebra, algebra, action):
    """Right Hom-smash product H # C; returns (R, H # C)."""
    return _smash_right(bialgebra, algebra, action, [])


def _smash_right(bialgebra, algebra, action, seen):
    """smash_right within one call; the hom_ttp scans that `seen` records are skipped."""
    h = bialgebra.algebra
    rmap = _smash_right_map(bialgebra, algebra, action, seen)
    _require_hom_twisting(h, algebra, rmap, "check_hom_twisting_map", seen)
    return rmap, _twisted_product(h, algebra, rmap.map, "hom_ttp").with_provenance("smash_right")


def smash_two_sided(algebra_a, bialgebra, algebra_c, action_left, action_right):
    """Two-sided Hom-smash product A # H # C as an iterated product.

    The result is compared entry-wise against the closed multiplication
    formula before being returned.
    """
    # the twisting maps of smash_left and smash_right, verified as their hom_ttp would
    h, seen = bialgebra.algebra, []
    r1 = _smash_left_map(algebra_a, bialgebra, action_left, seen)
    _require_hom_twisting(algebra_a, h, r1, "check_hom_twisting_map", seen)
    r2 = _smash_right_map(bialgebra, algebra_c, action_right, seen)
    _require_hom_twisting(h, algebra_c, r2, "check_hom_twisting_map", seen)
    r3 = flip(algebra_a.dim, algebra_c.dim)
    product, _p1, _p2 = _iterated(algebra_a, h, algebra_c, r1, r2, r3, seen)

    da, dh, dc = algebra_a.dim, bialgebra.dim, algebra_c.dim
    inv_h = LinearMap.from_matrix(mat_inv(bialgebra.alpha))
    inv_a = LinearMap.from_matrix(mat_inv(algebra_a.alpha))
    inv_c = LinearMap.from_matrix(mat_inv(algebra_c.alpha))
    delta = LinearMap.coproduct(bialgebra.comul)
    mu_a, mu_h, mu_c = (x.map for x in (algebra_a, h, algebra_c))
    # (a # h # c)(a' # h' # c') = a (alpha^{-2}(h1) . alpha^{-1}(a'))
    #   # alpha^{-1}(h2 h'1) # (alpha^{-1}(c) . alpha^{-2}(h'2)) c'
    closed = [
        (delta, 4), (delta, 1),  # a h1 h2 c a' h'1 h'2 c'
        (LinearMap.flip(dc, da), 3), (LinearMap.flip(dh, da), 2),
        (LinearMap.flip(dc, dh), 4), (LinearMap.flip(dc, dh), 5),  # a h1 a' h2 h'1 h'2 c c'
        (inv_h, 1), (inv_h, 1), (inv_a, 2), (action_left.map, 1), (mu_a, 0),
        (mu_h, 1), (inv_h, 1),
        (inv_h, 2), (inv_h, 2), (inv_c, 3), (action_right.map, 2), (mu_c, 2),
    ]
    n = da * dh * dc
    expected = compose(closed, (da, dh, dc) * 2).reshaped((n, n), (n,))
    scan_composites([((n, n), [(
        "two_sided_closed_formula", [(product.map, 0)], [(expected, 0)]
    )])]).require("two_sided_closed_formula")
    return product.with_provenance("smash_two_sided")


# ---------------------------------------------------------------------------
# coactions on smash products
# ---------------------------------------------------------------------------


def coaction_rho_smash(algebra, bialgebra, action):
    """rho(a # h) = (alpha_A(a) # h1) (x) h2 on A # H."""
    _smash_preconditions(LEFT, bialgebra, algebra, action, [])
    da, dh = algebra.dim, bialgebra.dim
    path = [(LinearMap.coproduct(bialgebra.comul), 1), (LinearMap.from_matrix(algebra.alpha), 0)]
    table = compose(path, (da, dh)).reshaped((da * dh,), (da * dh, dh)).table()
    return CoactionTable(RIGHT, dh, da * dh, table, kron(algebra.alpha, bialgebra.alpha))


def coaction_lambda_smash(algebra, bialgebra, action, coaction_a):
    """lambda(a # h) = a_{(-1)} h1 (x) (a_{(0)} # h2) on A # H.

    Requires A to be a left H-comodule Hom-algebra and (A, action, coaction)
    to be a Yetter-Drinfeld module.
    """
    _smash_preconditions(LEFT, bialgebra, algebra, action, [])
    check_comodule_hom_algebra(LEFT, bialgebra, algebra, coaction_a).require(
        "check_comodule_hom_algebra"
    )
    # check_yetter_drinfeld less its module and comodule scans, which passed above
    _yetter_drinfeld_scan(bialgebra, action, coaction_a).require(
        "Yetter-Drinfeld compatibility fails", YDViolation
    )
    da, dh = algebra.dim, bialgebra.dim
    path = [
        (coaction_a.map, 0),  # a_{(-1)} a_{(0)} h
        (LinearMap.coproduct(bialgebra.comul), 2),
        (LinearMap.flip(da, dh), 1),
        (bialgebra.algebra.map, 0),
    ]
    table = compose(path, (da, dh)).reshaped((da * dh,), (dh, da * dh)).table()
    return CoactionTable(
        LEFT, dh, da * dh, table, kron(algebra.alpha, bialgebra.alpha)
    )


def coaction_lambda_right_smash(bialgebra, algebra, action):
    """lambda(h # c) = h1 (x) (h2 # alpha_C(c)) on H # C."""
    _smash_preconditions(RIGHT, bialgebra, algebra, action, [])
    dh, dc = bialgebra.dim, algebra.dim
    path = [(LinearMap.coproduct(bialgebra.comul), 0), (LinearMap.from_matrix(algebra.alpha), 2)]
    table = compose(path, (dh, dc)).reshaped((dh * dc,), (dh, dh * dc)).table()
    return CoactionTable(
        LEFT, dh, dh * dc, table, kron(bialgebra.alpha, algebra.alpha)
    )


# ---------------------------------------------------------------------------
# compatibility with Yau twisting
# ---------------------------------------------------------------------------


def check_smash_twist_compat(side, bialgebra, algebra, action, alpha_h, alpha_x):
    """Twisted classical smash equals Hom-smash of the twists, and R = P.

    `side` selects the left smash A # H or the right smash H # C; all inputs
    are classical.  P is the classical smash twisting map (h (x) a -> h1 . a
    (x) h2 on the left, c (x) h -> h1 (x) c . h2 on the right).
    """
    _check_side(side)
    twisted_bi, twisted_alg, twisted_act = yau_twist_module_algebra(
        side, bialgebra, algebra, action, alpha_h, alpha_x
    )
    # the classical module-algebra axioms, and H's Hom-associativity inside
    # check_hom_bialgebra, passed in yau_twist_module_algebra
    seen = [(side, bialgebra, algebra, action), (bialgebra.algebra,)]
    if side == LEFT:
        pmap, classical = _smash_left(algebra, bialgebra, action, seen)
        rmap, hom_smash = _smash_left(twisted_alg, twisted_bi, twisted_act, seen)
        twist = kron(alpha_x, alpha_h)
    else:
        pmap, classical = _smash_right(bialgebra, algebra, action, seen)
        rmap, hom_smash = _smash_right(twisted_bi, twisted_alg, twisted_act, seen)
        twist = kron(alpha_h, alpha_x)
    twisted_classical = yau_twist_algebra(classical, twist)
    r, p = LinearMap.from_matrix(rmap.matrix), LinearMap.from_matrix(pmap.matrix)
    return scan_composites([
        structure_constants_block(twisted_classical, hom_smash),
        ((rmap.matrix.cols,), [("twisting_map_equals_classical", [(r, 0)], [(p, 0)])]),
    ])
