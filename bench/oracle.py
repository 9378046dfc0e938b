"""Reference answers for the benchmark, written with ``fractions.Fraction`` only.

Nothing here imports homtwist: the benchmark checks the program's verdicts and
witnesses against these functions, so they must not share code with it.  The
conventions are the ones the README pins: ``mul[i][j][k]`` is the coefficient
of ``e_k`` in ``e_i e_j``, a matrix acts on column vectors, and tensor factors
flatten row-major as ``(i, j) -> i * dim_b + j``.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# matrices as lists of rows
# ---------------------------------------------------------------------------


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def mat_mul(a, b):
    cols = len(b[0])
    return [
        [sum((row[k] * b[k][c] for k in range(len(b)) if row[k]), ZERO) for c in range(cols)]
        for row in a
    ]


def mat_vec(a, v):
    return [sum((row[c] * v[c] for c in range(len(v)) if v[c]), ZERO) for row in a]


def mat_inv(a):
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    m = [list(a[r]) + [ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def kron(a, b):
    return [
        [x * y for x in ra for y in rb]
        for ra in a
        for rb in b
    ]


def column(a, c):
    return [row[c] for row in a]


# ---------------------------------------------------------------------------
# algebras as structure constants
# ---------------------------------------------------------------------------


def matrix_units(n):
    """M_n in the basis e_(i, j) -> i * n + j: e_ij e_jl = e_il."""
    d = n * n
    mul = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mul[i * n + j][j * n + l][i * n + l] = ONE
    return mul


def product(mul, u, v):
    d = len(mul)
    out = [ZERO] * d
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            w = ui * vj
            for k, c in enumerate(mul[i][j]):
                if c:
                    out[k] += w * c
    return out


def change_basis(mul, p):
    """Structure constants in the basis f_a = sum_r p[r][a] e_r."""
    pinv = mat_inv(p)
    cols = [column(p, a) for a in range(len(p))]
    return [[mat_vec(pinv, product(mul, ca, cb)) for cb in cols] for ca in cols]


def conjugation(g):
    """Matrix of X -> g X g^-1 on M_n in the matrix-unit basis."""
    n = len(g)
    ginv = mat_inv(g)
    out = [[ZERO] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for r in range(n):
                for s in range(n):
                    out[r * n + s][i * n + j] = g[r][i] * ginv[j][s]
    return out


def yau_twist(mul, alpha):
    """The multiplication alpha o mul."""
    return [[mat_vec(alpha, row) for row in plane] for plane in mul]


def tensor(mul_a, mul_b):
    """Componentwise tensor product: (a (x) b)(a' (x) b') = aa' (x) bb'."""
    da, db = len(mul_a), len(mul_b)
    n = da * db
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(da):
        for k in range(da):
            arow = mul_a[i][k]
            for j in range(db):
                for l in range(db):
                    row = out[i * db + j][k * db + l]
                    for p, ap in enumerate(arow):
                        if ap:
                            for q, bq in enumerate(mul_b[j][l]):
                                if bq:
                                    row[p * db + q] = ap * bq
    return out


def flip(dim_a, dim_b):
    """R(e_b (x) e_a) = e_a (x) e_b: input (b, a), output (a, b)."""
    n = dim_a * dim_b
    out = [[ZERO] * n for _ in range(n)]
    for b in range(dim_b):
        for a in range(dim_a):
            out[a * dim_b + b][b * dim_a + a] = ONE
    return out


def permutation_matrix(perm):
    n = len(perm)
    out = [[ZERO] * n for _ in range(n)]
    for src, dst in enumerate(perm):
        out[dst][src] = ONE
    return out


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def _vec_text(vec):
    return "[" + ", ".join(str(x) for x in vec) + "]"


def associativity_failures(mul, limit):
    """The first `limit` triples, in lexicographic order, where (e_i e_j) e_k != e_i (e_j e_k).

    Each witness is written as the checker prints it.
    """
    d = len(mul)
    out = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = [ZERO] * d
                for p, c in enumerate(mul[i][j]):
                    if c:
                        for r, w in enumerate(mul[p][k]):
                            if w:
                                lhs[r] += c * w
                rhs = [ZERO] * d
                for p, c in enumerate(mul[j][k]):
                    if c:
                        for r, w in enumerate(mul[i][p]):
                            if w:
                                rhs[r] += c * w
                if lhs != rhs:
                    out.append(
                        f"associativity at {(i, j, k)}: lhs={_vec_text(lhs)} rhs={_vec_text(rhs)}"
                    )
                    if len(out) == limit:
                        return out
    return out
