"""The one-command acceptance matrix: every numbered criterion as a function.

Each criterion takes the shared closure list and returns (passed, detail).
`run_criteria` runs them in order, turning a crash into a failure, and
`paper_suite` prints one PASS/FAIL line per criterion with wall time.

A criterion appends ``(label, checker, object)`` to the closure list for each
constructed object whose conclusion it has not scanned, and criterion 9 runs
``checker(object)`` on every entry.  No check a criterion runs inline, and no
entry, repeats a scan that the criterion runs elsewhere on equal arguments,
inline or inside a constructor or checker it calls.  The rule is per
criterion, so a filtered run still scans every conclusion it builds.
"""

import json
import random
import time

from . import manifest as manifest_mod
from .algebra import (
    HomAlgebra,
    check_associative,
    check_hom_algebra,
    tensor_algebra,
    yau_twist_algebra,
)
from .coalgebra import check_hom_bialgebra
from .exact import ONE, LinearMap, Q, kron, scan_composites
from .gallery import (
    GalleryKey,
    build,
    c2_trivial_yd,
    dual_numbers,
    h4_left_action,
    h4_right_action,
    h4_twists,
    k2_algebra,
    sweedler_h4,
    swap_matrix,
)
from .modsmash import (
    check_bicomodule,
    check_comodule_hom_algebra,
    check_smash_twist_compat,
    coaction_lambda_right_smash,
    coaction_lambda_smash,
    coaction_rho_smash,
    smash_left,
    smash_right,
    smash_two_sided,
    yau_twist_module_algebra,
)
from .twisted import (
    alphaAB_ttp,
    check_hom_twisting_map,
    check_twisting_map,
    clifford_algebra,
    clifford_twisting_map,
    flip,
    hom_ttp,
    iterated_ttp,
    ttp,
)
from .twistor import (
    check_alpha_pseudotwistor,
    check_hom_twistor,
    deform,
    deform_with_alpha,
    yau_operator,
)
from .uqsl2 import (
    E,
    F,
    K,
    KINV,
    UqElement,
    UqParams,
    check_hopf_on_relations,
    check_pbw_confluence,
    check_rho_generator_formulas,
    check_uq_module_hom_algebra,
    pbw_normalize,
    verify_smash_closed_forms,
)


def _rand_rat(rng):
    return Q(rng.randint(-6, 6), rng.randint(1, 4))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_ttp_table(closure):
    """The k2 (x) k2 twisted multiplication table for lambda in {0, 1, 2, -1}."""
    for lam in (0, 1, 2, -1):
        bundle = build(GalleryKey("ttp_k2_lambda", {"lam": lam}))
        product = ttp(bundle["A"], bundle["B"], bundle["R"])
        closure.append((f"ttp(k2,k2,R_{lam})", check_associative, product))
        if product.mul != bundle["expected_mul"]:
            return False, f"table mismatch at lambda={lam}"
    return True, "64 table entries match at lambda in {0, 1, 2, -1}"


def criterion_2_two_dim_algebra(closure):
    """The 2-dimensional Hom-algebra, its twistor and the deformed table."""
    cases = ((1, 1, 2), (2, 3, -1), (1, 2, Q(1, 2)))
    for a, l1, l2 in cases:
        bundle = build(GalleryKey("homtwistor_2dim", {"a": a, "l1": l1, "l2": l2}))
        d, t = bundle["D"], bundle["T"]
        if check_associative(d).passed:
            return False, f"unexpectedly associative at {(a, l1, l2)}"
        # check_hom_twistor requires check_hom_algebra(d)
        if not check_hom_twistor(d, t).passed:
            return False, f"check_hom_twistor fails at {(a, l1, l2)}"
        deformed = deform(d, t)
        closure.append((f"deform(D,{(a, l1, l2)})", check_hom_algebra, deformed))
        if deformed.mul != bundle["expected_mul"]:
            return False, f"deformed table mismatch at {(a, l1, l2)}"
        if deformed.mul[0][1] == deformed.mul[1][0]:
            return False, f"deformed multiplication is commutative at {(a, l1, l2)}"
        assoc_case = build(GalleryKey("homalg_2dim", {"a": a, "l1": l1, "l2": 0}))["D"]
        if not check_associative(assoc_case).passed:
            return False, f"lambda2=0 case not associative at {(a, l1)}"
    return True, f"{len(cases)} parameter tuples verified, plus the lambda2=0 degenerations"


def criterion_3_hom_twisting_families(closure):
    """R1/R2 families and the D-k2 family pass the Hom-twisting axioms."""
    rng = random.Random(20240229)
    witness = None
    for name in ("homtwist_R1", "homtwist_R2"):
        for l1 in (1, 3):
            for sample in range(10):
                params = {"a": 1, "l1": l1}
                params.update({f"a{i}": _rand_rat(rng) for i in range(1, 6)})
                bundle = build(GalleryKey(name, params))
                if not check_hom_twisting_map(bundle["A"], bundle["B"], bundle["R"]).passed:
                    return False, f"{name} fails Hom-twisting at l1={l1} sample {sample}"
                if name == "homtwist_R1" and witness is None:
                    plain = HomAlgebra(2, bundle["A"].map, LinearMap.identity(2))
                    rep = check_twisting_map(plain, plain, bundle["R"])
                    if not rep.passed:
                        witness = (params, rep.failures[0])
    for sample in range(10):
        params = {"a": 1, "l1": 2, "a1": _rand_rat(rng), "a2": _rand_rat(rng)}
        bundle = build(GalleryKey("homtwist_Dk2", params))
        a, b, r = bundle["A"], bundle["B"], bundle["R"]
        if sample < 9 and not check_hom_twisting_map(a, b, r).passed:
            return False, f"D-k2 family fails Hom-twisting at sample {sample}"
    # hom_ttp requires the last sample's Hom-twisting scan
    closure.append(("hom_ttp(D,k2,R)", check_hom_algebra, hom_ttp(a, b, r)))
    if witness is None:
        return False, "no sampled R1 tuple fails the classical twisting axioms"
    params, failure = witness
    shown = {k: str(v) for k, v in params.items()}
    return True, f"50 tuples pass; R1 classical-axiom witness at {shown}: {failure}"


def criterion_4_clifford(closure):
    """Clifford process on yau_twist(k2, swap) for q in {1, 2, -3}."""
    for q in (1, 2, -3):
        bundle = build(GalleryKey("clifford", {"q": q}))
        a, abar, params = bundle["A"], bundle["Abar"], bundle["params"]
        if not check_hom_algebra(abar).passed:
            return False, f"Abar fails check_hom_algebra at q={q}"
        report = scan_composites([_doubling_block(a, abar, params)])
        if not report.passed:
            return False, f"closed doubling formula fails at q={q}: {report.failures[0]}"
    return True, "3 q-values verified against the closed doubling formula (4 equations x 4 basis pairs)"


def _doubling_block(a, abar, params):
    """Abar = A (x)_R C(k, q) on the basis pairs (a, c) of A, by the doubling formulas.

    (a (x) 1)(c (x) 1) = ac (x) 1, (a (x) 1)(c (x) v) = ac (x) v,
    (a (x) v)(c (x) 1) = a sigma(c) (x) v and (a (x) v)(c (x) v) = q a sigma(c) (x) 1;
    the left sides multiply in Abar, the right sides in A.
    """
    d = a.dim

    def embed(c, coeff=ONE):  # A -> A (x) C(k, q), x -> coeff * x (x) (1, v)[c]
        return LinearMap((d,), (2 * d,), [((x * 2 + c, coeff),) for x in range(d)])

    one, v, q_one = embed(0), embed(1), embed(0, params.q)
    mu, bar, sigma = a.map, abar.map, params.sigma
    return ((d, d), [
        ("doubling_1_1", [(one, 0), (one, 1), (bar, 0)], [(mu, 0), (one, 0)]),
        ("doubling_1_v", [(one, 0), (v, 1), (bar, 0)], [(mu, 0), (v, 0)]),
        ("doubling_v_1", [(v, 0), (one, 1), (bar, 0)], [(sigma, 1), (mu, 0), (v, 0)]),
        ("doubling_v_v", [(v, 0), (v, 1), (bar, 0)], [(sigma, 1), (mu, 0), (q_one, 0)]),
    ])


def criterion_5_iterated(closure):
    """Braid condition and coinciding bracketings for the smash triple and flips."""
    a = dual_numbers()
    smash = smash_two_sided(a, sweedler_h4(), a, h4_left_action(), h4_right_action())
    closure.append(("smash_two_sided(smash triple)", check_hom_algebra, smash))
    d = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 1, "l2": 2}))["D"]
    k2 = k2_algebra()
    flips = (flip(2, 2), flip(2, 2), flip(2, 2))
    product2, _, _ = iterated_ttp(d, k2, k2, *flips)
    closure.append(("iterated_ttp(all flips)", check_hom_algebra, product2))
    if product2.map != tensor_algebra(tensor_algebra(d, k2), k2).map:
        return False, "all-flip iterated product is not the plain triple tensor product"
    return True, "smash triple braid + both bracketings coincide; all-flip triple reduces to A(x)B(x)C"


def criterion_6_smash_suite(closure):
    """Left/right smashes, twist compatibility, comodule structures, YD instance."""
    h4 = sweedler_h4()
    a = dual_numbers()
    act_l = h4_left_action()
    act_r = h4_right_action()
    alpha_h, alpha_a = h4_twists(2)
    ht, at, act_lt = yau_twist_module_algebra(h4, a, act_l, alpha_h, alpha_a)
    *_, act_rt = yau_twist_module_algebra(h4, a, act_r, alpha_h, alpha_a)  # the same ht and at
    closure.append(("yau_twist_bialgebra(H4)", check_hom_bialgebra, ht))
    variants = (("identity", h4, a, act_l, act_r), ("twisted", ht, at, act_lt, act_rt))
    for tag, bh, alg_a, al, ar in variants:
        _, smash = smash_left(alg_a, bh, al)
        if not check_hom_algebra(smash).passed:
            return False, f"left smash algebra fails ({tag})"
        rho = coaction_rho_smash(alg_a, bh, al)
        if not check_comodule_hom_algebra(bh, smash, rho).passed:
            return False, f"rho multiplicativity fails ({tag})"
        _, smash2 = smash_right(bh, alg_a, ar)
        if not check_hom_algebra(smash2).passed:
            return False, f"right smash algebra fails ({tag})"
        lam2 = coaction_lambda_right_smash(bh, alg_a, ar)
        if not check_comodule_hom_algebra(bh, smash2, lam2).passed:
            return False, f"right-smash lambda multiplicativity fails ({tag})"
    if not check_smash_twist_compat(h4, a, act_l, alpha_h, alpha_a).passed:
        return False, "left smash twist compatibility fails"
    if not check_smash_twist_compat(h4, a, act_r, alpha_h, alpha_a).passed:
        return False, "right smash twist compatibility fails"
    bi, mod, act, co = c2_trivial_yd()
    lam = coaction_lambda_smash(mod, bi, act, co)
    rho = coaction_rho_smash(mod, bi, act)
    _, smash3 = smash_left(mod, bi, act)
    if not check_comodule_hom_algebra(bi, smash3, lam).passed:
        return False, "lambda on the YD smash is not multiplicative"
    if not check_bicomodule(bi.coalgebra, lam, rho).passed:
        return False, "bicomodule interchange fails on the YD smash"
    return True, "both alphas variants pass all smash, coaction and YD checks"


def criterion_7_alpha_pseudotwistor(closure):
    """Yau operator triple, alphaAB flip lift and the Clifford alpha variant."""
    d0 = build(GalleryKey("homalg_2dim", {"a": 1, "l1": 2, "l2": 0}))["D"]
    cases = [(HomAlgebra(2, d0.map, LinearMap.identity(2)), d0.alpha, "Example algebra, l2=0")]
    cases.append((k2_algebra(), swap_matrix(), "k2 with swap"))
    for algebra_, alpha, tag in cases:
        op, c1, c2 = yau_operator(alpha)
        if not check_alpha_pseudotwistor(algebra_, alpha, op, c1, c2).passed:
            return False, f"yau_operator rejected on {tag}"
        deformed = deform_with_alpha(algebra_, alpha, op)
        closure.append((f"deform_with_alpha({tag})", check_hom_algebra, deformed))
        if deformed != yau_twist_algebra(algebra_, alpha):
            return False, f"A^T_alpha differs from A_alpha on {tag}"
    bundle = build(GalleryKey("alpha_ttp_flip", {}))
    alg, op, c1, c2 = alphaAB_ttp(
        bundle["A"], bundle["B"], bundle["alphaA"], bundle["alphaB"], bundle["R"]
    )
    closure.append(("alphaAB_ttp(flip lift)", check_hom_algebra, alg))
    base = tensor_algebra(bundle["A"], bundle["B"])
    twist = kron(bundle["alphaA"], bundle["alphaB"])
    if not check_alpha_pseudotwistor(base, twist, op, c1, c2).passed:
        return False, "flip-lift operator triple rejected"
    if alg != yau_twist_algebra(base, twist):
        return False, "flip lift does not equal the Yau twist of the tensor product"
    q = Q(2)
    bundle = build(GalleryKey("alpha_ttp_clifford", {"q": q}))
    alg, op, c1, c2 = alphaAB_ttp(
        bundle["A"], bundle["B"], bundle["alphaA"], bundle["alphaB"], bundle["R"]
    )
    closure.append(("alphaAB_ttp(clifford)", check_hom_algebra, alg))
    base = tensor_algebra(bundle["A"], bundle["B"])
    if not check_alpha_pseudotwistor(
        base, kron(bundle["alphaA"], bundle["alphaB"]), op, c1, c2
    ).passed:
        return False, "Clifford alpha operator triple rejected"
    sigma = bundle["sigma"]
    abar = ttp(bundle["A"], clifford_algebra(q), clifford_twisting_map(sigma))
    closure.append(("classical clifford ttp", check_associative, abar))
    sigma_bar = kron(sigma, LinearMap.identity(2))
    if alg != yau_twist_algebra(abar, sigma_bar):
        return False, "Clifford alpha variant does not equal (Abar)_sigmabar"
    return True, "Yau operator, flip lift and Clifford alpha variant all coincide as stated"


def criterion_8_quantum(closure):
    """Per q: PBW relations, Hopf maps on the rules, rho oracle, module and closed-form scans."""
    for point in ((2, 3, 5), (3, 2, 5)):  # q, lambda, xi multiplicatively independent
        params = UqParams(*point)
        q, lam = params.q, params.lam
        inv = ONE / (q - 1 / q)
        relations = (
            ((K, E), {(0, 1, 1): q * q}),
            ((K, F), {(1, 0, 1): 1 / (q * q)}),
            ((E, F), {(1, 1, 0): ONE, (0, 0, 1): inv, (0, 0, -1): -inv}),
            ((K, KINV), {(0, 0, 0): ONE}),
        )
        for word, expected in relations:
            if pbw_normalize(word, q) != UqElement(expected):
                return False, f"{' '.join(word)} relation broken at q={q}"
        if not check_pbw_confluence(q).passed:
            return False, f"PBW rewriting not confluent at q={q}"
        if not check_hopf_on_relations(q, lam).passed:
            return False, f"Hopf check on the relations fails at q={q}, lambda={lam}"
        rho = check_rho_generator_formulas(params)
        if not rho.passed:
            return False, f"rho oracle mismatch at {point}, {rho.failures[0].basis}"
        if not check_uq_module_hom_algebra(params).passed:
            return False, f"module Hom-algebra check fails at {point}"
        if not verify_smash_closed_forms(params).passed:
            return False, f"closed smash formulas fail at {point}"
    return True, (
        "relations, confluence (diamond lemma), Hopf maps on the rules; rho oracle, module "
        "check and closed formulas (l = 0) for every lambda, xi, level, degree at q = 2 and 3"
    )


def criterion_9_closure(closure):
    """Run each recorded checker on its constructed object."""
    if not closure:
        return False, "no constructed objects recorded: nothing to re-validate"
    failed = []
    for label, checker, obj in closure:
        try:
            if not checker(obj).passed:
                failed.append(label)
        except Exception as exc:  # one crashing checker must not hide the others
            failed.append(f"{label}: {type(exc).__name__}")
    if failed:
        return False, f"closure failures: {failed}"
    return True, f"{len(closure)} constructed objects re-validated, 100% pass"


GOLDEN_MANIFEST = {
    "objects": {
        "D": {
            "kind": "hom_algebra",
            "dim": 2,
            "mul": [[[1, 0], [1, 2]], [[1, 2], ["-3", "-4"]]],
            "alpha": [[1, 1], [0, 2]],
        },
        "C2": {
            "kind": "hom_coalgebra",
            "dim": 2,
            "comul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "alpha": [[1, 0], [0, 1]],
        },
        "H": {
            "kind": "hom_bialgebra",
            "dim": 2,
            "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "comul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "alpha": [[1, 0], [0, 1]],
        },
        "idmap": {
            "kind": "linear_map",
            "source_dim": 2,
            "target_dim": 2,
            "matrix": [[1, 0], [0, 1]],
        },
        "T": {
            "kind": "operator2",
            "dim": 2,
            "matrix": [
                [1, "-1", 0, 0],
                [0, 0, 0, 0],
                [0, 0, 1, "-1"],
                [0, 0, 0, 0],
            ],
        },
        "T3": {
            "kind": "operator3",
            "dim": 2,
            "matrix": [[1 if i == j else 0 for j in range(8)] for i in range(8)],
        },
        "Rflip": {
            "kind": "twisting_map",
            "dim_a": 2,
            "dim_b": 2,
            "matrix": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        },
        "act": {
            "kind": "action",
            "side": "left",
            "acting_dim": 2,
            "module_dim": 2,
            "table": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
            "alpha_m": [[1, 0], [0, 1]],
        },
        "co": {
            "kind": "coaction",
            "side": "left",
            "coalgebra_dim": 2,
            "module_dim": 2,
            "table": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
            "alpha_m": [[1, 0], [0, 1]],
        },
        "g": {
            "kind": "gallery",
            "name": "homtwistor_2dim",
            "params": {"a": "1", "l1": "1", "l2": "2"},
        },
    },
    "tasks": [
        {"op": "check_hom_algebra", "args": ["D"], "expect": "pass"},
        {"op": "check_associative", "args": ["D"], "expect": "fail"},
        {"op": "check_hom_coalgebra", "args": ["C2"], "expect": "pass"},
        {"op": "check_hom_bialgebra", "args": ["H"], "expect": "pass"},
        {"op": "check_algebra_morphism", "args": ["idmap", "D", "D"], "expect": "pass"},
        {"op": "check_twistor", "args": ["H", "T"], "expect": "pass"},
        {"op": "check_hom_twistor", "args": ["g.D", "g.T"], "expect": "pass"},
        {"op": "lift_13", "args": ["g.T"], "as": "L", "expect": "pass"},
        {"op": "check_hom_pseudotwistor", "args": ["g.D", "g.T", "L", "L"], "expect": "pass"},
        {"op": "check_hom_pseudotwistor", "args": ["g.D", "g.T", "T3", "T3"], "expect": "fail"},
        {"op": "check_twisting_map", "args": ["H", "H", "Rflip"], "expect": "pass"},
        {"op": "check_module", "args": ["H", "act"], "expect": "pass"},
        {"op": "check_comodule", "args": ["C2", "co"], "expect": "pass"},
        {"op": "ttp", "args": ["H", "H", "Rflip"], "as": "P", "expect": "pass"},
        {"op": "check_associative", "args": ["P"], "expect": "pass"},
        {"op": "deform", "args": ["g.D", "g.T"], "as": "DT", "expect": "pass"},
        {"op": "check_hom_algebra", "args": ["DT"], "expect": "pass"},
    ],
}


def criterion_10_cli(closure):
    """Manifest round-trip and the three CLI exit paths."""
    text = json.dumps(GOLDEN_MANIFEST)
    parsed = manifest_mod.parse_manifest(text)
    if manifest_mod.parse_manifest(manifest_mod.serialize_manifest(parsed)) != parsed:
        return False, "parse/serialize round-trip is not stable"
    code, _report = manifest_mod.run(parsed)
    if code != manifest_mod.EXIT_OK:
        return False, f"golden manifest exited {code}, expected 0"
    broken = text[: len(text) // 2]
    try:
        manifest_mod.parse_manifest(broken)
        return False, "truncated manifest unexpectedly parsed"
    except manifest_mod.ManifestSyntaxError as exc:
        if exc.line < 1 or exc.col < 1:
            return False, "syntax error lacks line/column"
    failing = json.loads(text)
    failing["tasks"] = [{"op": "check_associative", "args": ["D"], "expect": "pass"}]
    code, _report = manifest_mod.run(manifest_mod.parse_manifest(json.dumps(failing)))
    if code != manifest_mod.EXIT_EXPECTATION:
        return False, f"expected-pass-but-failing task exited {code}, expected 1"
    return True, "golden manifest exit 0, syntax error carries line/column, expectation failure exit 1"


CRITERIA = (
    ("1-k2-ttp-table", criterion_1_ttp_table),
    ("2-two-dim-hom-algebra", criterion_2_two_dim_algebra),
    ("3-hom-twisting-families", criterion_3_hom_twisting_families),
    ("4-clifford", criterion_4_clifford),
    ("5-iterated-products", criterion_5_iterated),
    ("6-smash-suite", criterion_6_smash_suite),
    ("7-alpha-pseudotwistor", criterion_7_alpha_pseudotwistor),
    ("8-uq-quantum-suite", criterion_8_quantum),
    ("9-oracle-closure", criterion_9_closure),
    ("10-cli", criterion_10_cli),
)


def selected_criteria(filter_substr=None):
    """The (cid, fn) pairs of CRITERIA whose id contains `filter_substr`."""
    return [(cid, fn) for cid, fn in CRITERIA if not filter_substr or filter_substr in cid]


def run_criteria(filter_substr=None):
    """Run the selected criteria in order on one shared closure list.

    Yields (cid, passed, detail, elapsed) per criterion.  A criterion that
    raises yields a failure naming the exception, and the later criteria
    still run.
    """
    closure = []
    for cid, fn in selected_criteria(filter_substr):
        start = time.perf_counter()
        try:
            passed, detail = fn(closure)
        except Exception as exc:  # a crash is a failure, not a missing line
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        yield cid, passed, detail, time.perf_counter() - start


def paper_suite(filter_substr=None, out=None):
    """Run the acceptance matrix; returns 0 iff every selected criterion passes."""
    emit = out if out is not None else print
    all_passed = True
    total = 0.0
    for cid, passed, detail, elapsed in run_criteria(filter_substr):
        total += elapsed
        all_passed = all_passed and passed
        emit(f"{'PASS' if passed else 'FAIL'}  {cid:<26} ({elapsed:6.2f}s)  {detail}")
    emit(f"{'ALL CRITERIA PASS' if all_passed else 'SOME CRITERIA FAILED'}  (total {total:.2f}s)")
    return 0 if all_passed else 1
