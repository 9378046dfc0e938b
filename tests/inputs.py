"""Inputs shared by the tests: gallery bundles, twistors, regular (co)actions,
the zero algebra, and q-commuting Hom-twisting maps.

`q_commuting` builds A = k[x]/(x^n) and B = k[y]/(y^m), Yau-twisted by
x^i -> a^i x^i and y^j -> b^j y^j, with R(y^j (x) x^i) = q^{ij} x^i (x) y^j.
R commutes with both structure maps, so it is a Hom-twisting map for every
nonzero a, b and q; `raised` adds to the coefficient of x (x) y in
R(y (x) x), which for n, m >= 2 and max(n, m) >= 3 breaks the axioms unless
q = -1/2 (there (q + 1)^2 = q^2, so the raised map is the member at q + 1).
`q_commuting_triples` draws them.
"""

from hypothesis import strategies as st

from homtwist.algebra import hom_algebra, tensor_algebra, yau_twist_algebra
from homtwist.exact import ONE, Q, ZERO
from homtwist.gallery import GalleryKey, build
from homtwist.modsmash import LEFT, action_table, coaction_table
from homtwist.twisted import TwistingMapR, flip, twistor_from_R
from homtwist.twistor import Operator2
from linear_maps import lmap


def lambda_bundle(lam=2):
    return build(GalleryKey("ttp_k2_lambda", {"lam": lam}))


def r1_bundle(**params):
    merged = {"a": 1, "l1": 1, "a1": 1, "a2": 0, "a3": 0, "a4": 0, "a5": 0}
    merged.update(params)
    return build(GalleryKey("homtwist_R1", merged))


def twistor_bundle(a=1, l1=1, l2=2):
    return build(GalleryKey("homtwistor_2dim", {"a": a, "l1": l1, "l2": l2}))


def lambda_twistor(lam=2):
    b = lambda_bundle(lam)
    return tensor_algebra(b["A"], b["B"]), twistor_from_R(b["A"], b["B"], b["R"])


def swap_operator2():
    return Operator2(2, flip(2, 2).map)


def regular_action(bialgebra):
    """H acting on itself by its own multiplication."""
    h = bialgebra.algebra
    return action_table(LEFT, h.dim, h.dim, h.mul, h.alpha)


def regular_coaction(bialgebra, side):
    """H coacting on itself by its own comultiplication, on either side."""
    c = bialgebra.coalgebra
    return coaction_table(side, c.dim, c.dim, c.comul, c.alpha)


def zero_algebra(dim):
    """Zero multiplication, identity structure map."""
    return hom_algebra(dim, [[[0] * dim for _ in range(dim)] for _ in range(dim)])


def truncated_polynomials(n, a):
    """k[x]/(x^n) in the basis 1, x, ..., x^{n-1}, Yau-twisted by x^i -> a^i x^i."""
    mul = [[[ONE if k == i + j else ZERO for k in range(n)] for j in range(n)] for i in range(n)]
    alpha = lmap([[a ** i if r == i else ZERO for i in range(n)] for r in range(n)])
    return yau_twist_algebra(hom_algebra(n, mul), alpha)


def q_commuting(n, m, a, b, q, raised=0):
    """(A, B, R) as the module docstring says, R(y (x) x) raised by `raised` at x (x) y."""
    rows = [[ZERO] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(m):
            rows[i * m + j][j * n + i] = q ** (i * j)
    if raised:
        rows[m + 1][n + 1] += raised
    return truncated_polynomials(n, a), truncated_polynomials(m, b), TwistingMapR(n, m, lmap(rows))


SMALL_NONZERO = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def q_commuting_triples(draw, dims=st.tuples(st.integers(1, 3), st.integers(1, 3)), qs=SMALL_NONZERO,
                        raised=0):
    """(A, B, R) of `q_commuting` at drawn (n, m), a, b and q."""
    n, m = draw(dims)
    return q_commuting(n, m, draw(SMALL_NONZERO), draw(SMALL_NONZERO), draw(qs), raised)
