"""Parameterized constructors for the named example families and presets.

Each gallery bundle carries fully-built objects ready for the checkers, with
each coefficient formula written down exactly once so tests and the
acceptance suite share a single source.  ``FAMILIES`` declares each name once,
with its builder and its required and optional parameters; ``build``
checks the parameters against it and calls the builder with them.  Bundles
are plain dicts of built objects.  Each matrix is written as rows (or as
columns, transposed) and each table of structure constants as nested
planes, and either is read once into a ``LinearMap``.
"""

from dataclasses import dataclass, field
from functools import partial

from .algebra import hom_algebra, yau_twist_algebra
from .coalgebra import HomBialgebra, hom_coalgebra
from .errors import ParamConstraintViolation
from .exact import ONE, ZERO, LinearMap, as_scalar
from .modsmash import LEFT, RIGHT, action_table, coaction_table
from .twisted import (
    CliffordParams,
    TwistingMapR,
    alphaAB_from_classical,
    clifford,
    clifford_algebra,
    clifford_twisting_map,
    flip,
)
from .twistor import Operator2


@dataclass(frozen=True)
class GalleryKey:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise ParamConstraintViolation(f"unknown gallery name {self.name!r}")
        object.__setattr__(
            self, "params", {k: as_scalar(v) for k, v in self.params.items()}
        )


def _require(key, names, optional):
    """ParamConstraintViolation unless `key` has all `names` and nothing outside `optional`."""
    missing = [n for n in names if n not in key.params]
    if missing:
        raise ParamConstraintViolation(f"{key.name} needs parameters {missing}")
    extra = sorted(set(key.params) - set(names) - set(optional))
    if extra:
        raise ParamConstraintViolation(f"{key.name} got unknown parameters {extra}")


def k2_algebra():
    """k^2 with e_i e_j = delta_ij e_i and identity structure map."""
    mul = (
        ((ONE, ZERO), (ZERO, ZERO)),
        ((ZERO, ZERO), (ZERO, ONE)),
    )
    return hom_algebra(2, mul)


def swap_matrix():
    """The map of k^2 exchanging its two basis vectors."""
    return LinearMap.from_rows(((ZERO, ONE), (ONE, ZERO)))


def _two_dim_algebra(a, l1, l2):
    if l2 == 1:
        raise ParamConstraintViolation("l2 must differ from 1")
    if not a:
        raise ParamConstraintViolation("a must be nonzero")
    one_m = ONE - l2
    mul = (
        ((a, ZERO), (l1 * a, l2 * a)),
        (
            (l1 * a, l2 * a),
            (l1 * l1 * (ONE - 2 * l2) * a / (one_m * one_m), 2 * l1 * l2 * a / one_m),
        ),
    )
    return hom_algebra(2, mul, LinearMap.from_rows(((ONE, l1), (ZERO, l2))))


def _two_dim_twistor(l1, l2):
    c = l1 / (ONE - l2)
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][0] = ONE  # T(e1 (x) e1) = e1 (x) e1
    rows[0][1] = c  # T(e1 (x) e2) = c e1 (x) e1
    rows[2][2] = ONE  # T(e2 (x) e1) = e2 (x) e1
    rows[2][3] = c  # T(e2 (x) e2) = c e2 (x) e1
    return Operator2(2, LinearMap.from_rows(rows))


def _two_dim_deformed_mul(a, l1, l2):
    c = l1 * a / (ONE - l2)
    return (
        ((a, ZERO), (c, ZERO)),
        ((l1 * a, l2 * a), (c * l1, c * l2)),
    )


def _ttp_k2_table(lam):
    one_m = ONE - lam
    lam_m = lam - ONE
    rows = {
        0: ((lam, 0), (lam, 1), (one_m, 0), (-lam, 1)),
        1: ((one_m, 0), (one_m, 1), (lam_m, 0), (lam, 1)),
        2: ((lam, 2), (lam_m, 3), (one_m, 2), (one_m, 3)),
        3: ((-lam, 2), (one_m, 3), (lam, 2), (lam, 3)),
    }
    mul = []
    for i in range(4):
        plane = []
        for j in range(4):
            coeff, target = rows[i][j]
            row = [ZERO] * 4
            row[target] = as_scalar(coeff)
            plane.append(tuple(row))
        mul.append(tuple(plane))
    return tuple(mul)


def _by_columns(dim_a, dim_b, columns):
    """The twisting map whose matrix has the given columns."""
    return TwistingMapR(dim_a, dim_b, LinearMap.from_rows(zip(*columns)))


def _ttp_k2_map(lam):
    one_m = ONE - lam
    lam_m = lam - ONE
    columns = [
        (lam, lam, lam, lam_m),  # R(e1 (x) e1)
        (one_m, -lam, one_m, one_m),  # R(e1 (x) e2)
        (one_m, one_m, -lam, one_m),  # R(e2 (x) e1)
        (lam_m, lam, lam, lam),  # R(e2 (x) e2)
    ]
    return _by_columns(2, 2, columns)


def _r_map(s, l1, a1, a2, a3, a4, a5):
    """R1 at s = 0 and R2 at s = 1; R2 - R1 is the flip."""
    half = ONE / (2 * l1)
    col0 = (s, ZERO, ZERO, ZERO)
    col1 = (a1, a2, s - a2 - a1 / l1, ZERO)
    col2 = (
        a3,
        -half * (a1 + a3 - a4 + a5 + 2 * a2 * l1 - 2 * s * l1),
        half * (a1 - a3 - a4 + a5 + 2 * a2 * l1),
        ZERO,
    )
    col3 = (
        l1 / 2 * (a1 + a3 - a4 - a5),
        a4,
        a5,
        -half * (a1 + a3 + a4 + a5 - 2 * s * l1),
    )
    return _by_columns(2, 2, [col0, col1, col2, col3])


def _dk2_map(l1, a1, a2):
    col0 = (ZERO, ZERO, ZERO, ZERO)  # R(f1 (x) e1)
    col1 = (a1, a2, -a1 / l1, -a2 / l1)  # R(f1 (x) e2)
    col2 = (ZERO, ZERO, ZERO, ZERO)  # R(f2 (x) e1)
    col3 = (a1 * l1, a2 * l1, -a1, -a2)  # R(f2 (x) e2)
    return _by_columns(2, 2, [col0, col1, col2, col3])


def sweedler_h4():
    """Sweedler's 4-dimensional Hopf algebra as a classical bialgebra.

    Basis order (1, g, x, gx) with g^2 = 1, x^2 = 0, x g = -g x,
    Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x.
    """
    d = 4
    one, g, x, gx = 0, 1, 2, 3
    mul = [[[ZERO] * d for _ in range(d)] for _ in range(d)]

    def put(i, j, k, v=ONE):
        mul[i][j][k] = as_scalar(v)

    for i in range(d):
        put(one, i, i)
        if i != one:
            put(i, one, i)
    put(g, g, one)
    put(g, x, gx)
    put(g, gx, x)
    put(x, g, gx, -ONE)
    put(gx, g, x, -ONE)
    # x x = x gx = gx x = gx gx = 0
    comul = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    comul[one][one][one] = ONE
    comul[g][g][g] = ONE
    comul[x][x][one] = ONE
    comul[x][g][x] = ONE
    comul[gx][gx][g] = ONE
    comul[gx][one][gx] = ONE
    algebra = hom_algebra(d, mul)
    coalgebra = hom_coalgebra(d, comul)
    return HomBialgebra(algebra, coalgebra)


def group_algebra(n):
    """Group algebra of the cyclic group C_n with the group-like coproduct."""
    if n not in (2, 3):
        raise ParamConstraintViolation("group_algebra supports n in {2, 3}")
    n = int(n)
    mul = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    comul = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        comul[i][i][i] = ONE
        for j in range(n):
            mul[i][j][(i + j) % n] = ONE
    algebra = hom_algebra(n, mul)
    coalgebra = hom_coalgebra(n, comul)
    return HomBialgebra(algebra, coalgebra)


def dual_numbers():
    """k[y]/(y^2) with basis (1, y); the canonical H4 module algebra carrier."""
    mul = (
        ((ONE, ZERO), (ZERO, ONE)),
        ((ZERO, ONE), (ZERO, ZERO)),
    )
    return hom_algebra(2, mul)


def h4_left_action():
    """g acts as the parity automorphism, x as the sigma-derivation with x.y = 1."""
    z = ZERO
    table = (
        ((ONE, z), (z, ONE)),  # 1 . (1, y)
        ((ONE, z), (z, -ONE)),  # g
        ((z, z), (ONE, z)),  # x: x.1 = 0, x.y = 1
        ((z, z), (ONE, z)),  # gx: gx.1 = 0, gx.y = g.(x.y) = 1
    )
    return action_table(LEFT, 4, 2, table, LinearMap.identity(2))


def h4_right_action():
    """Right-module-algebra mirror on k[z]/(z^2): z.g = -z, z.x = 1, z.gx = -1."""
    z = ZERO
    table = (
        ((ONE, z), (z, ONE)),  # . 1
        ((ONE, z), (z, -ONE)),  # . g
        ((z, z), (ONE, z)),  # . x
        ((z, z), (-ONE, z)),  # . gx, via c.(gx) = (c.g).x
    )
    return action_table(RIGHT, 4, 2, table, LinearMap.identity(2))


def h4_twists(c):
    """The intertwining-balanced endomorphism pair alpha_H: x -> c x, alpha_A: y -> y/c."""
    c = as_scalar(c)
    if not c:
        raise ParamConstraintViolation("twist scale must be nonzero")
    alpha_h = LinearMap.from_rows(
        (
            (ONE, ZERO, ZERO, ZERO),
            (ZERO, ONE, ZERO, ZERO),
            (ZERO, ZERO, c, ZERO),
            (ZERO, ZERO, ZERO, c),
        )
    )
    alpha_a = LinearMap.from_rows(((ONE, ZERO), (ZERO, ONE / c)))
    return alpha_h, alpha_a


def c2_trivial_yd():
    """k[C2] with the trivial action and trivial coaction on k[y]/(y^2)."""
    bi = group_algebra(2)
    module = dual_numbers()
    ident = LinearMap.identity(2)
    act = action_table(
        LEFT, 2, 2, (((ONE, ZERO), (ZERO, ONE)), ((ONE, ZERO), (ZERO, ONE))), ident
    )
    co_table = (((ONE, ZERO), (ZERO, ZERO)), ((ZERO, ONE), (ZERO, ZERO)))  # e_m -> e (x) e_m
    co = coaction_table(LEFT, 2, 2, co_table, ident)
    return bi, module, act, co


# ---------------------------------------------------------------------------
# the families: each builder takes the family's parameters by name and
# returns the bundle's members
# ---------------------------------------------------------------------------


def _ttp_k2_lambda(lam):
    return {
        "A": k2_algebra(),
        "B": k2_algebra(),
        "R": _ttp_k2_map(lam),
        "expected_mul": _ttp_k2_table(lam),
    }


def _homtwistor_2dim(a, l1, l2):
    return {
        "D": _two_dim_algebra(a, l1, l2),
        "T": _two_dim_twistor(l1, l2),
        "expected_mul": _two_dim_deformed_mul(a, l1, l2),
    }


def _l2_zero_algebra(a, l1, l2):
    """The 2-dimensional Hom-algebra that the Hom-twisting families live on."""
    if l2 != 0:
        raise ParamConstraintViolation("this family is defined for l2 = 0")
    if not l1:
        raise ParamConstraintViolation("l1 must be nonzero")
    return _two_dim_algebra(a, l1, ZERO)


def _homtwist_r(s, a, l1, a1, a2, a3, a4, a5, l2=ZERO):
    d = _l2_zero_algebra(a, l1, l2)
    return {"A": d, "B": d, "R": _r_map(s, l1, a1, a2, a3, a4, a5)}


def _homtwist_dk2(a, l1, a1, a2, l2=ZERO):
    return {"A": _l2_zero_algebra(a, l1, l2), "B": k2_algebra(), "R": _dk2_map(l1, a1, a2)}


def _clifford(q):
    a = yau_twist_algebra(k2_algebra(), swap_matrix())
    params = CliffordParams(q, swap_matrix())
    abar, rmap = clifford(a, params)
    return {"A": a, "params": params, "Abar": abar, "R": rmap}


def _uq_setup(q, lam, xi, l):
    from .uqsl2 import UqParams

    if l != int(l):
        raise ParamConstraintViolation("l must be an integer")
    return {"params": UqParams(q, lam, xi, int(l))}


def _alpha_ttp_flip():
    alpha = swap_matrix()
    return {
        "A": k2_algebra(),
        "B": k2_algebra(),
        "alphaA": alpha,
        "alphaB": alpha,
        "R": alphaAB_from_classical(flip(2, 2), alpha, alpha),
    }


def _alpha_ttp_clifford(q):
    sigma = swap_matrix()
    # R = (sigma (x) id) o P_sigma: 1 (x) a -> sigma(a) (x) 1 and v (x) a -> a (x) v
    return {
        "A": k2_algebra(),
        "B": clifford_algebra(q),
        "alphaA": sigma,
        "alphaB": LinearMap.identity(2),
        "sigma": sigma,
        "q": as_scalar(q),
        "R": alphaAB_from_classical(clifford_twisting_map(sigma), sigma, LinearMap.identity(2)),
    }


_R_PARAMS = ("a", "l1", "a1", "a2", "a3", "a4", "a5")

# name -> (builder, required parameters, optional parameters)
FAMILIES = {
    "ttp_k2_lambda": (_ttp_k2_lambda, ("lam",), ()),
    "homalg_2dim": (lambda a, l1, l2: {"D": _two_dim_algebra(a, l1, l2)}, ("a", "l1", "l2"), ()),
    "homtwistor_2dim": (_homtwistor_2dim, ("a", "l1", "l2"), ()),
    "homtwist_R1": (partial(_homtwist_r, ZERO), _R_PARAMS, ("l2",)),
    "homtwist_R2": (partial(_homtwist_r, ONE), _R_PARAMS, ("l2",)),
    "homtwist_Dk2": (_homtwist_dk2, ("a", "l1", "a1", "a2"), ("l2",)),
    "clifford": (_clifford, ("q",), ()),
    "sweedler_h4": (lambda: {"H": sweedler_h4()}, (), ()),
    "group_algebra": (lambda n: {"H": group_algebra(n)}, ("n",), ()),
    "uq_setup": (_uq_setup, ("q", "lam", "xi", "l"), ()),
    "alpha_ttp_flip": (_alpha_ttp_flip, (), ()),
    "alpha_ttp_clifford": (_alpha_ttp_clifford, ("q",), ()),
}


def build(key):
    """Construct the named bundle; raises ParamConstraintViolation on bad parameters."""
    builder, required, optional = FAMILIES[key.name]
    _require(key, required, optional)
    return builder(**key.params)
