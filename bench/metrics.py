"""The benchmark's metrics, with the end-to-end metric each layer metric should move.

``BENCHMARK.json`` lists the same names, units and directions, and the
benchmark's self-test checks that the two agree.  Each per-layer row also
predicts the workloads on which the metric is non-zero and those on which it
is 0.  A traced run checks the predictions for the functions the program still
has: one that fails means the tracer missed calls or a call path changed.
"""

PAPER = "paper"
DENSE = "dense-check"
SPARSE = "sparse-twisted"
WORKLOADS = (PAPER, DENSE, SPARSE)
CHECKS = (DENSE, SPARSE)

# The workloads BENCHMARK.json lists.  Each listed workload is run many times
# at `run_seconds` within one fixed time budget, and on a 2-core host whose
# speed drifts by +-15% over tens of seconds a run needs about a minute to give
# a steady median.  So two workloads are listed: paper, and sparse-twisted, whose
# products and tensor index loops share the code dense-check stresses.
# dense-check stays runnable with the same command.
LISTED = (PAPER, SPARSE)

WORKLOAD_WHY = {
    PAPER: (
        "homtwist paper at default bounds, the README's headline command; uqsl2 PBW rewriting "
        "(criterion 8) dominates and tensor checks stay at dim <= 16"
    ),
    DENSE: (
        "check on Yau twists of M_2, M_3 in a random rational basis, alpha a random "
        "conjugation; several-digit constants make scalar arithmetic and products dominate"
    ),
    SPARSE: (
        "check on permutation-twisted M_2, M_3 with flips, hom_ttp at dim 36 and a dim-64 "
        "iterated product; 0/1 entries, so indexing and table building dominate"
    ),
}

# name -> (unit, better, bound, what it measures)
END_TO_END = {
    "run_s": ("s", "lower", 0.25, "wall time of one workload run in a fresh interpreter"),
    "cpu_s": ("s", "lower", 0.25, "user+sys CPU time of that run, from os.wait4"),
    "setup_s": ("s", "lower", 0.25, "fresh interpreter: import homtwist, parse the manifest"),
    "peak_rss_mb": ("MB", "lower", 0.05, "ru_maxrss of that run, from os.wait4"),
}

P, D, S = PAPER, DENSE, SPARSE
ALL = WORKLOADS


def _unit(name):
    return "count" if name.endswith((".calls", ".failed")) else "s"


def _rows(moves, predictions, zero=()):
    """One row per (name, workloads predicted non-zero); `zero`: predicted 0 there."""
    return [(name, _unit(name), "lower", moves, nonzero, zero) for name, nonzero in predictions]


# (name, unit, better, end-to-end metric it should move, predicted non-zero on, predicted 0 on)
PER_LAYER = (
    _rows("run_s on paper",
          [(f"suite.criterion_{i}.s", (P,)) for i in range(1, 11)], zero=CHECKS)
    + _rows("run_s on paper; no change on the check workloads", [
        ("uqsl2.pbw_normalize.calls", (P,)),
        ("uqsl2.pbw_normalize.self_s", (P,)),
        ("uqsl2.uq_mul.self_s", (P,)),
        ("uqsl2.uq_coproduct.self_s", (P,)),
        ("uqsl2.rho_l.self_s", (P,)),
        ("uqsl2.qp_mul.self_s", (P,)),
        ("uqsl2.smash_mul_uq.self_s", (P,)),
        ("uqsl2.check_uq_module_hom_algebra.self_s", (P,)),
        ("uqsl2.verify_smash_closed_forms.self_s", (P,)),
    ], zero=CHECKS)
    + [("uqsl2.monomial_mul.hit_ratio", "ratio", "higher",
        "run_s on paper; no change on the check workloads", (P,), CHECKS)]
    + _rows("run_s and cpu_s on dense-check; small on paper", [
        ("algebra.HomAlgebra.product.calls", ALL),
        ("algebra.HomAlgebra.product.self_s", ALL),
        ("exact.Matrix.apply.calls", ALL),
        ("exact.Matrix.apply.self_s", ALL),
        ("exact.mat_mul.self_s", (P, D)),
        ("exact.mat_inv.self_s", (P,)),
        ("exact.kron.self_s", ALL),
    ])
    + _rows("run_s on dense-check and sparse-twisted", [
        ("algebra.check_hom_algebra.calls", ALL),
        ("algebra.check_hom_algebra.self_s", ALL),
        ("algebra.check_associative.calls", ALL),
        ("algebra.check_associative.self_s", ALL),
        ("algebra.check_algebra_morphism.calls", (P, D)),
        ("algebra.check_algebra_morphism.self_s", (P, D)),
        ("algebra.multiplicativity_scan.calls", (P, D)),
        ("algebra.multiplicativity_scan.self_s", (P, D)),
        ("algebra.yau_twist_algebra.calls", (P, D)),
        ("algebra.yau_twist_algebra.self_s", (P, D)),
        ("algebra.tensor_algebra.calls", (P,)),
        ("algebra.tensor_algebra.self_s", (P,)),
        ("twistor.apply_t12.self_s", (P, D)),
        ("twistor.apply_t23.self_s", (P, D)),
        ("twistor.apply_t13.self_s", (P,)),
        ("twistor.check_alpha_pseudotwistor.self_s", (P, D)),
        ("twistor.check_hom_twistor.self_s", (P,)),
        ("twistor.deform.self_s", (P,)),
        ("twistor.lift_13.self_s", (P,)),
    ])
    + _rows("run_s and peak_rss_mb on sparse-twisted; small on paper", [
        ("twisted.check_hom_twisting_map.calls", ALL),
        ("twisted.check_hom_twisting_map.self_s", ALL),
        ("twisted.check_twisting_map.calls", (P,)),
        ("twisted.check_twisting_map.self_s", (P,)),
        ("twisted.check_braid.calls", (P, S)),
        ("twisted.check_braid.self_s", (P, S)),
        ("twisted.hom_ttp.calls", ALL),
        ("twisted.hom_ttp.self_s", ALL),
        ("twisted.ttp.calls", (P,)),
        ("twisted.ttp.self_s", (P,)),
        ("twisted.iterated_ttp.calls", (P, S)),
        ("twisted.iterated_ttp.self_s", (P, S)),
    ])
    + _rows("run_s on paper (criteria 5, 6 and 9)", [
        ("modsmash.smash_left.self_s", (P,)),
        ("modsmash.smash_right.self_s", (P,)),
        ("modsmash.smash_two_sided.self_s", (P,)),
        ("modsmash.check_comodule.self_s", (P,)),
        ("modsmash.check_comodule_hom_algebra.self_s", (P,)),
        ("modsmash.check_module_hom_algebra.self_s", (P,)),
        ("modsmash.check_yetter_drinfeld.self_s", (P,)),
        ("coalgebra.check_hom_bialgebra.self_s", (P,)),
        ("coalgebra.check_hom_coalgebra.self_s", (P,)),
    ], zero=CHECKS)
    + _rows("none: a work count; must repeat exactly, a pure speed-up keeps it", [
        ("exact.Scan.eq.calls", ALL),
        ("exact.Scan.eq.failed", ALL),
    ])
    + _rows("setup_s on dense-check and sparse-twisted", [
        ("manifest.parse_manifest.s", ALL),
        ("gallery.build.calls", ALL),
        ("gallery.build.self_s", ALL),
    ])
    + _rows("run_s on dense-check and sparse-twisted (time to verdict per task)", [
        ("manifest.task.yau_twist_algebra.s", (D,)),
        ("manifest.task.check_hom_algebra.s", ALL),
        ("manifest.task.check_associative.s", ALL),
        ("manifest.task.check_algebra_morphism.s", (P, D)),
        ("manifest.task.check_alpha_pseudotwistor.s", (D,)),
        ("manifest.task.check_hom_twisting_map.s", (S,)),
        ("manifest.task.hom_ttp.s", (S,)),
        ("manifest.task.check_braid.s", (S,)),
        ("manifest.task.iterated_ttp.s", (S,)),
    ])
    + _rows("none: traced run minus the untraced median run_s", [("trace.overhead_s", ())])
)
