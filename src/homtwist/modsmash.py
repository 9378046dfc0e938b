"""Modules and comodules over Hom-(bi)algebras, their algebra-compatibility
checkers, Yetter-Drinfeld modules, and left/right/two-sided Hom-smash products.

An action stores its map (h, m) -> m' on either side, and a coaction its map
M -> C (x) M (left) or M -> M (x) C (right), each a ``LinearMap`` beside
``alpha_m``: (dm,) -> (dm,).  So every axiom below is a composite of these
maps, mu, Delta and the structure maps, with flips bringing the factors each
map acts on together, and every action or coaction built here is a
``compose`` of them.  ``action_table``/``coaction_table`` read nested
constants by ``LinearMap.from_constants``, and ``table`` is their dense view:
``table[h][m][m']`` is the coefficient of ``e_{m'}`` in ``e_h . e_m`` (left)
or ``e_m . e_h`` (right), and ``table[m][i][j]`` that of ``e_i (x) e_j`` in
the coaction of ``e_m``, the pair read (coalgebra, module) on the left and
(module, coalgebra) on the right.  A table states its side once: every
checker reads ``action.side`` or ``coaction.side``, and the action's side
picks the left smash A # H or the right smash H # C.
"""

from dataclasses import dataclass
from functools import cached_property

from .algebra import yau_twist_algebra
from .coalgebra import yau_twist_bialgebra
from .errors import (
    DimensionMismatch,
    IntertwiningFailure,
    NotComultiplicative,
    NotMultiplicative,
    PreconditionFailure,
    YDViolation,
)
from .exact import LinearMap, compose, kron, mat_inv, scan_composites
from .twisted import TwistingMapR, flip, hom_ttp, iterated_ttp
from .twistor import structure_constants_block

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class _SidedMap:
    """A one-sided (co)action: its map regrouped into its factors, and alpha_M."""

    def __post_init__(self):
        _check_side(self.side)
        dm = self.module_dim
        if self.alpha_m.shape != (dm, dm):
            raise DimensionMismatch("alpha_M shape does not match the module")
        object.__setattr__(self, "map", self.map.reshaped(*self._factors()))
        object.__setattr__(self, "alpha_m", self.alpha_m.reshaped((dm,), (dm,)))

    @cached_property
    def table(self):
        """The dense view of the map's constants (see the module docstring)."""
        return self.map.table()


@dataclass(frozen=True)
class ActionTable(_SidedMap):
    """A one-sided action H (x) M -> M, e_h (x) e_m -> e_h . e_m (or e_m . e_h)."""

    side: str
    acting_dim: int
    module_dim: int
    map: LinearMap
    alpha_m: LinearMap

    def _factors(self):
        return (self.acting_dim, self.module_dim), (self.module_dim,)


@dataclass(frozen=True)
class CoactionTable(_SidedMap):
    """A one-sided coaction: M -> C (x) M on the left side, M -> M (x) C on the right."""

    side: str
    coalgebra_dim: int
    module_dim: int
    map: LinearMap
    alpha_m: LinearMap

    def _factors(self):
        pair = (self.coalgebra_dim, self.module_dim)
        return (self.module_dim,), pair if self.side == LEFT else pair[::-1]


def action_table(side, acting_dim, module_dim, table, alpha_m) -> ActionTable:
    """The action of the nested constants ``table[h][m][m']``."""
    dh, dm = acting_dim, module_dim
    message = f"action constants are not {dh}x{dm}x{dm} shaped"
    lmap = LinearMap.from_constants(table, (dh, dm), (dm,), message)
    return ActionTable(side, dh, dm, lmap, alpha_m)


def coaction_table(side, coalgebra_dim, module_dim, table, alpha_m) -> CoactionTable:
    """The coaction of the nested constants ``table[m][i][j]``."""
    _check_side(side)
    dm = module_dim
    pair = (coalgebra_dim, dm) if side == LEFT else (dm, coalgebra_dim)
    message = f"coaction constants are not {dm}x{pair[0]}x{pair[1]} shaped"
    lmap = LinearMap.from_constants(table, (dm,), pair, message)
    return CoactionTable(side, coalgebra_dim, dm, lmap, alpha_m)


# ---------------------------------------------------------------------------
# module checkers
# ---------------------------------------------------------------------------


def check_module(algebra, action):
    """Hom-module axioms on the action's side."""
    if action.acting_dim != algebra.dim:
        raise DimensionMismatch("acting dimension does not match the algebra")
    d, dm = algebra.dim, action.module_dim
    act = action.map
    ah, am = algebra.alpha, action.alpha_m
    # left: alpha(h) . (h' . m); right: (m . h) . alpha(h'), so h goes first
    first = [] if action.side == LEFT else [(LinearMap.flip(d, d), 0)]
    return scan_composites([
        ((d, dm), [("module_alpha", [(act, 0), (am, 0)], [(ah, 0), (am, 1), (act, 0)])]),
        ((d, d, dm), [(
            "module_assoc",
            first + [(act, 1), (ah, 0), (act, 0)],
            [(algebra.map, 0), (am, 1), (act, 0)],
        )]),
    ])


def check_module_hom_algebra(bialgebra, algebra, action):
    """Module axioms plus alpha_H^2(h) . (a a') = (h1 . a)(h2 . a') (or its mirror)."""
    if action.module_dim != algebra.dim:
        raise DimensionMismatch("module dimension does not match the algebra")
    if action.alpha_m != algebra.alpha:
        raise PreconditionFailure("action alpha_M must equal the algebra structure map")
    check_module(bialgebra.algebra, action).require("check_module")
    dh, da = bialgebra.dim, algebra.dim
    ah, act, mu = bialgebra.alpha, action.map, algebra.map
    delta = bialgebra.coalgebra.map
    return scan_composites([((dh, da, da), [(
        "module_algebra_compat",
        [(mu, 1), (ah, 0), (ah, 0), (act, 0)],
        [(delta, 0), (LinearMap.flip(dh, da), 1), (act, 0), (act, 1), (mu, 0)],
    )])])


def yau_twist_module_algebra(bialgebra, algebra, action, alpha_h, alpha_a):
    """Twist a classical module algebra into a module Hom-algebra.

    The new action is h . a -> alpha_A(h . a); requires the intertwining
    alpha_A(h . a) = alpha_H(h) . alpha_A(a).  The two Yau twists require
    alpha_H to be a bialgebra endomorphism and alpha_A to be multiplicative;
    their errors name the map that fails.
    """
    if not bialgebra.is_classical() or not algebra.is_classical():
        raise PreconditionFailure("classical input required (identity structure maps)")
    if not action.alpha_m.is_identity():
        raise PreconditionFailure("classical action required (identity alpha_M)")
    check_module_hom_algebra(bialgebra, algebra, action).require("classical module algebra axioms")
    twisted_bi = _naming("alpha_H", yau_twist_bialgebra, bialgebra, alpha_h)
    twisted_alg = _naming("alpha_A", yau_twist_algebra, algebra, alpha_a)
    act, fa, fh = action.map, alpha_a, alpha_h
    dims = (bialgebra.dim, algebra.dim)
    scan_composites([
        (dims, [("intertwining", [(act, 0), (fa, 0)], [(fh, 0), (fa, 1), (act, 0)])]),
    ]).require("alpha_A(h.a) != alpha_H(h).alpha_A(a)", IntertwiningFailure)
    twisted_map = compose([(act, 0), (fa, 0)], dims)
    twisted_action = ActionTable(action.side, bialgebra.dim, algebra.dim, twisted_map, alpha_a)
    return twisted_bi, twisted_alg, twisted_action


def _naming(operand, twist, *args):
    """`twist(*args)`, its (co)multiplicativity error prefixed with the name of its alpha."""
    try:
        return twist(*args)
    except (NotMultiplicative, NotComultiplicative) as exc:
        raise type(exc)(f"{operand}: {exc}", witness=exc.witness) from None


def tensor_modules(bialgebra, act_m, act_n):
    """Left module structure on M (x) N via h . (m (x) n) = h1 . m (x) h2 . n."""
    if act_m.side != LEFT or act_n.side != LEFT:
        raise PreconditionFailure("tensor_modules requires left modules")
    if act_m.acting_dim != bialgebra.dim or act_n.acting_dim != bialgebra.dim:
        raise DimensionMismatch("acting dimensions do not match the bialgebra")
    for act, name in ((act_m, "M"), (act_n, "N")):
        check_module(bialgebra.algebra, act).require(f"check_module:{name}")
    dh = bialgebra.dim
    dm, dn = act_m.module_dim, act_n.module_dim
    path = [
        (bialgebra.coalgebra.map, 0),
        (LinearMap.flip(dh, dm), 1),
        (act_m.map, 0),
        (act_n.map, 1),
    ]
    action = compose(path, (dh, dm, dn))
    return ActionTable(LEFT, dh, dm * dn, action, kron(act_m.alpha_m, act_n.alpha_m))


# ---------------------------------------------------------------------------
# comodule checkers
# ---------------------------------------------------------------------------


def check_comodule(coalgebra, coaction):
    """Hom-comodule axioms on the coaction's side."""
    if coaction.coalgebra_dim != coalgebra.dim:
        raise DimensionMismatch("coalgebra dimension does not match")
    co = coaction.map
    am, ac, delta = coaction.alpha_m, coalgebra.alpha, coalgebra.map
    if coaction.side == LEFT:
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
    for table in (lam, rho):
        check_comodule(coalgebra, table).require(f"check_comodule:{table.side}")
    ac = coalgebra.alpha
    return scan_composites([((lam.module_dim,), [(
        "bicomodule_interchange",
        [(rho.map, 0), (lam.map, 0), (ac, 2)],
        [(lam.map, 0), (ac, 0), (rho.map, 1)],
    )])])


def check_comodule_hom_algebra(bialgebra, algebra, coaction):
    """The coaction must be multiplicative into the tensor Hom-algebra."""
    if coaction.module_dim != algebra.dim:
        raise DimensionMismatch("module dimension does not match the algebra")
    if coaction.alpha_m != algebra.alpha:
        raise PreconditionFailure("coaction alpha_M must equal the algebra structure map")
    check_comodule(bialgebra.coalgebra, coaction).require("check_comodule")
    dh, da = bialgebra.dim, algebra.dim
    co = coaction.map
    mu_a, mu_h = algebra.map, bialgebra.algebra.map
    # co(a) co(a'): the two coactions' middle factors trade places, then multiply pairwise
    if coaction.side == LEFT:
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
    check_module(bialgebra.algebra, action).require("check_module")
    check_comodule(bialgebra.coalgebra, coaction).require("check_comodule")
    dh, dm = bialgebra.dim, action.module_dim
    a, act, co = bialgebra.alpha, action.map, coaction.map
    mu, delta = bialgebra.algebra.map, bialgebra.coalgebra.map
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


def _smash_preconditions(side, bialgebra, algebra, action):
    """A `side` action passing the module-algebra check; returns alpha_H^{-1}, alpha_A^{-1}."""
    if action.side != side:
        raise DimensionMismatch(f"action table is {action.side}-sided, expected {side}")
    check_module_hom_algebra(bialgebra, algebra, action).require("check_module_hom_algebra")
    return mat_inv(bialgebra.alpha), mat_inv(algebra.alpha)  # NotInvertible propagates


def _smash_left_map(algebra, bialgebra, action):
    """R(h (x) a) = alpha_H^{-2}(h1) . alpha_A^{-1}(a) (x) alpha_H^{-1}(h2)."""
    inv_h, inv_a = _smash_preconditions(LEFT, bialgebra, algebra, action)
    da, dh = algebra.dim, bialgebra.dim
    path = [
        (bialgebra.coalgebra.map, 0),
        (LinearMap.flip(dh, da), 1),
        (inv_h, 0), (inv_h, 0), (inv_a, 1), (action.map, 0),
        (inv_h, 1),
    ]
    return TwistingMapR(da, dh, compose(path, (dh, da)))


def _smash_right_map(bialgebra, algebra, action):
    """R(c (x) h) = alpha_H^{-1}(h1) (x) alpha_C^{-1}(c) . alpha_H^{-2}(h2)."""
    inv_h, inv_c = _smash_preconditions(RIGHT, bialgebra, algebra, action)
    dh, dc = bialgebra.dim, algebra.dim
    path = [
        (bialgebra.coalgebra.map, 1),
        (LinearMap.flip(dc, dh), 0),
        (LinearMap.flip(dc, dh), 1),
        (inv_h, 0), (inv_h, 1), (inv_h, 1), (inv_c, 2), (action.map, 1),
    ]
    return TwistingMapR(dh, dc, compose(path, (dc, dh)))


def smash_left(algebra, bialgebra, action):
    """Left Hom-smash product A # H; returns (R, A # H)."""
    rmap = _smash_left_map(algebra, bialgebra, action)
    return rmap, hom_ttp(algebra, bialgebra.algebra, rmap)


def smash_right(bialgebra, algebra, action):
    """Right Hom-smash product H # C; returns (R, H # C)."""
    rmap = _smash_right_map(bialgebra, algebra, action)
    return rmap, hom_ttp(bialgebra.algebra, algebra, rmap)


def smash_two_sided(algebra_a, bialgebra, algebra_c, action_left, action_right):
    """Two-sided Hom-smash product A # H # C as an iterated product.

    The result is compared entry-wise against the closed multiplication
    formula before being returned.
    """
    # the twisting maps of smash_left and smash_right; iterated_ttp verifies both
    h = bialgebra.algebra
    r1 = _smash_left_map(algebra_a, bialgebra, action_left)
    r2 = _smash_right_map(bialgebra, algebra_c, action_right)
    r3 = flip(algebra_a.dim, algebra_c.dim)
    product, _p1, _p2 = iterated_ttp(algebra_a, h, algebra_c, r1, r2, r3)

    da, dh, dc = algebra_a.dim, bialgebra.dim, algebra_c.dim
    inv_h, inv_a, inv_c = (mat_inv(x.alpha) for x in (bialgebra, algebra_a, algebra_c))
    delta = bialgebra.coalgebra.map
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
    return product


# ---------------------------------------------------------------------------
# coactions on smash products
# ---------------------------------------------------------------------------


def coaction_rho_smash(algebra, bialgebra, action):
    """rho(a # h) = (alpha_A(a) # h1) (x) h2 on A # H."""
    _smash_preconditions(LEFT, bialgebra, algebra, action)
    da, dh = algebra.dim, bialgebra.dim
    path = [(bialgebra.coalgebra.map, 1), (algebra.alpha, 0)]
    rho = compose(path, (da, dh))
    return CoactionTable(RIGHT, dh, da * dh, rho, kron(algebra.alpha, bialgebra.alpha))


def coaction_lambda_smash(algebra, bialgebra, action, coaction_a):
    """lambda(a # h) = a_{(-1)} h1 (x) (a_{(0)} # h2) on A # H.

    Requires A to be a left H-comodule Hom-algebra and (A, action, coaction)
    to be a Yetter-Drinfeld module.
    """
    _smash_preconditions(LEFT, bialgebra, algebra, action)
    check_comodule_hom_algebra(bialgebra, algebra, coaction_a).require(
        "check_comodule_hom_algebra"
    )
    check_yetter_drinfeld(bialgebra, action, coaction_a).require(
        "Yetter-Drinfeld compatibility fails", YDViolation
    )
    da, dh = algebra.dim, bialgebra.dim
    path = [
        (coaction_a.map, 0),  # a_{(-1)} a_{(0)} h
        (bialgebra.coalgebra.map, 2),
        (LinearMap.flip(da, dh), 1),
        (bialgebra.algebra.map, 0),
    ]
    lam = compose(path, (da, dh))
    return CoactionTable(LEFT, dh, da * dh, lam, kron(algebra.alpha, bialgebra.alpha))


def coaction_lambda_right_smash(bialgebra, algebra, action):
    """lambda(h # c) = h1 (x) (h2 # alpha_C(c)) on H # C."""
    _smash_preconditions(RIGHT, bialgebra, algebra, action)
    dh, dc = bialgebra.dim, algebra.dim
    path = [(bialgebra.coalgebra.map, 0), (algebra.alpha, 2)]
    lam = compose(path, (dh, dc))
    return CoactionTable(LEFT, dh, dh * dc, lam, kron(bialgebra.alpha, algebra.alpha))


# ---------------------------------------------------------------------------
# compatibility with Yau twisting
# ---------------------------------------------------------------------------


def check_smash_twist_compat(bialgebra, algebra, action, alpha_h, alpha_x):
    """Twisted classical smash equals Hom-smash of the twists, and R = P.

    The action's side selects the left smash A # H or the right smash H # C;
    all inputs are classical.  P is the classical smash twisting map (h (x) a
    -> h1 . a (x) h2 on the left, c (x) h -> h1 (x) c . h2 on the right).
    """
    twisted_bi, twisted_alg, twisted_act = yau_twist_module_algebra(
        bialgebra, algebra, action, alpha_h, alpha_x
    )
    if action.side == LEFT:
        pmap, classical = smash_left(algebra, bialgebra, action)
        rmap, hom_smash = smash_left(twisted_alg, twisted_bi, twisted_act)
        twist = kron(alpha_x, alpha_h)
    else:
        pmap, classical = smash_right(bialgebra, algebra, action)
        rmap, hom_smash = smash_right(twisted_bi, twisted_alg, twisted_act)
        twist = kron(alpha_h, alpha_x)
    twisted_classical = yau_twist_algebra(classical, twist)
    n = rmap.map.shape[1]
    r, p = (x.map.reshaped((n,), (n,)) for x in (rmap, pmap))
    return scan_composites([
        structure_constants_block(twisted_classical, hom_smash),
        ((n,), [("twisting_map_equals_classical", [(r, 0)], [(p, 0)])]),
    ])
