"""Seeded inputs for the benchmark workloads and the answers expected of them.

Each check workload is a manifest for ``homtwist check`` plus, for every task,
the verdict the program must print and the witnesses it must list.  Pass
verdicts come from theory; the witnesses of expected-fail tasks come from
``oracle``, which never calls homtwist.  The generators depend only on the
seed, so the same seed gives byte-identical manifests.
"""

import json
import random
from fractions import Fraction

import oracle

WITNESSES_PRINTED = 3  # `homtwist check` prints the first three failures of a task


def _rand_scalar(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _rand_basis(rng, n):
    """A seeded random rational basis of Q^n, with its inverse.

    The rows of L L^T (L lower unitriangular, all ones below the diagonal) are
    permuted at random and its columns scaled by random rationals of fixed
    size.  Every seed thus gives different constants of about the same size,
    so the cost of a run does not depend on the seed.
    """
    lower = [[oracle.ONE if c <= r else oracle.ZERO for c in range(n)] for r in range(n)]
    base = oracle.mat_mul(lower, [list(col) for col in zip(*lower)])
    rows = list(range(n))
    rng.shuffle(rows)
    scale = [
        Fraction(rng.choice((-1, 1)) * rng.choice((5, 7, 11, 13)), rng.choice((2, 3, 4, 6)))
        for _ in range(n)
    ]
    m = [[base[rows[r]][c] * scale[c] for c in range(n)] for r in range(n)]
    return m, oracle.mat_inv(m)


def _rand_permutation(rng, n):
    ident = list(range(n))
    while True:
        perm = ident[:]
        rng.shuffle(perm)
        if perm != ident:
            return perm


def _text(x):
    return str(x) if x.denominator != 1 else int(x)


def _arr(value):
    if isinstance(value, list):
        return [_arr(v) for v in value]
    return _text(Fraction(value))


def _algebra(mul, alpha):
    return {"kind": "hom_algebra", "dim": len(mul), "mul": _arr(mul), "alpha": _arr(alpha)}


def _linear_map(m):
    return {"kind": "linear_map", "source_dim": len(m[0]), "target_dim": len(m), "matrix": _arr(m)}


def _twisting_map(dim_a, dim_b):
    return {
        "kind": "twisting_map",
        "dim_a": dim_a,
        "dim_b": dim_b,
        "matrix": _arr(oracle.flip(dim_a, dim_b)),
    }


class Workload:
    """A manifest and, per task, the expected verdict and printed witnesses."""

    def __init__(self):
        self.objects = {}
        self.tasks = []
        self.expected = []  # (op, verdict, witnesses) per task

    def task(self, op, args, verdict, witnesses=(), store=None):
        item = {"op": op, "args": list(args), "expect": verdict}
        if store is not None:
            item["as"] = store
        self.tasks.append(item)
        self.expected.append((op, verdict, tuple(witnesses)))

    def manifest_text(self):
        return json.dumps({"objects": self.objects, "tasks": self.tasks}, indent=1)


def dense_check(seed, sizes=(2, 3)):
    """Yau twists of M_n in a random rational basis, alpha conjugation by a random g.

    Every structure constant is a several-digit rational, so scalar arithmetic
    and `HomAlgebra.product` dominate.
    """
    rng = random.Random(f"dense-check:{seed}")
    w = Workload()
    for n in sizes:
        d = n * n
        basis, basis_inv = _rand_basis(rng, d)
        g, _ = _rand_basis(rng, n)
        mul = oracle.change_basis(oracle.matrix_units(n), basis)
        alpha = oracle.mat_mul(basis_inv, oracle.mat_mul(oracle.conjugation(g), basis))
        twisted = oracle.yau_twist(mul, alpha)
        witnesses = oracle.associativity_failures(twisted, WITNESSES_PRINTED)
        if not witnesses:
            raise RuntimeError(f"seed {seed}: the Yau twist of M_{n} is associative")
        a, f, y = f"A{n}", f"alpha{n}", f"Y{n}"
        w.objects[a] = _algebra(mul, oracle.identity(d))
        w.objects[f] = _linear_map(alpha)
        # Yau: the twist of an associative algebra by an endomorphism is Hom-associative.
        w.task("yau_twist_algebra", (a, f), "pass", store=y)
        w.task("check_hom_algebra", (y,), "pass")
        w.task("check_associative", (y,), "fail", witnesses)
        # alpha(x * y) = alpha(alpha(xy)) = alpha(x) * alpha(y) for multiplicative alpha.
        w.task("check_algebra_morphism", (f, y, y), "pass")
        if n == 2:
            # The Yau operator triple is an alpha-pseudotwistor for any multiplicative alpha.
            ident = oracle.identity(d * d)
            w.objects["T2"] = {"kind": "operator2", "dim": d, "matrix": _arr(oracle.kron(alpha, alpha))}
            w.objects["C2_1"] = {"kind": "operator3", "dim": d, "matrix": _arr(oracle.kron(ident, alpha))}
            w.objects["C2_2"] = {"kind": "operator3", "dim": d, "matrix": _arr(oracle.kron(alpha, ident))}
            w.task("check_alpha_pseudotwistor", (a, f, "T2", "C2_1", "C2_2"), "pass")
    # A gallery bundle, built while the manifest is parsed: its A is the Yau twist of k^2 by the swap.
    w.objects["cl"] = {"kind": "gallery", "name": "clifford", "params": {"q": str(_rand_scalar(rng))}}
    w.task("check_hom_algebra", ("cl.A",), "pass")
    return w


def sparse_twisted(seed, big=3):
    """M_2 and M_big in the matrix-unit basis, Yau-twisted by conjugation with a permutation.

    Entries are 0 or 1, so time goes to index flattening and table building.
    """
    rng = random.Random(f"sparse-twisted:{seed}")
    w = Workload()
    muls = {}
    for n in sorted({2, big}):
        alpha = oracle.conjugation(oracle.permutation_matrix(_rand_permutation(rng, n)))
        muls[n] = oracle.yau_twist(oracle.matrix_units(n), alpha)
        w.objects[f"M{n}"] = _algebra(muls[n], alpha)
    dims = sorted({(big * big, big * big), (big * big, 4), (4, 4), (3, 3)})
    for dim_a, dim_b in dims:
        w.objects[f"F{dim_a}x{dim_b}"] = _twisting_map(dim_a, dim_b)
    w.objects["G"] = {"kind": "gallery", "name": "group_algebra", "params": {"n": 3}}
    witnesses = oracle.associativity_failures(oracle.tensor(muls[big], muls[2]), WITNESSES_PRINTED)
    if not witnesses:
        raise RuntimeError(f"seed {seed}: M_{big} (x) M_2 is associative")
    mb, square, mixed = f"M{big}", f"F{big * big}x{big * big}", f"F{big * big}x4"
    # The flip is a Hom-twisting map between any two Hom-associative algebras,
    # the flip triple satisfies the braid condition, and the flip-twisted
    # product is the tensor product, which is Hom-associative.
    w.task("check_hom_twisting_map", (mb, mb, square), "pass")
    w.task("hom_ttp", (mb, "M2", mixed), "pass", store="P")
    w.task("check_hom_algebra", ("P",), "pass")
    w.task("check_associative", ("P",), "fail", witnesses)
    w.task("check_braid", (mixed, "F4x4", mixed), "pass")
    w.task("iterated_ttp", ("M2", "M2", "M2", "F4x4", "F4x4", "F4x4"), "pass", store="I")
    w.task("check_hom_twisting_map", ("G.H", "G.H", "F3x3"), "pass")
    return w


CHECK_WORKLOADS = {"dense-check": dense_check, "sparse-twisted": sparse_twisted}
