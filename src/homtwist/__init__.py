"""Exact structure-constant calculus for Hom-associative algebras: twisting
operators, twisted tensor products and smash products, with machine-checked
axiom scans.

``import homtwist`` loads no layer.  Each public name resolves on first use
(PEP 562): ``homtwist.<name>`` imports the layer that defines it and returns
that layer's attribute, so a caller pays only for the layers it reads."""

import importlib

# layer -> the public names it defines
_EXPORTS = {
    "algebra": (
        "HomAlgebra", "check_algebra_morphism", "check_associative", "check_hom_algebra",
        "check_lemma_four_elements", "hom_algebra", "tensor_algebra", "yau_twist_algebra",
    ),
    "coalgebra": (
        "HomBialgebra", "HomCoalgebra", "check_hom_bialgebra", "check_hom_coalgebra",
        "hom_coalgebra", "yau_twist_bialgebra", "yau_twist_coalgebra",
    ),
    "exact": (
        "BACKEND", "CheckReport", "Failure", "LinearMap", "Matrix", "Q", "flatten_index",
        "kron", "mat_inv", "rat_parse", "unflatten_index",
    ),
    "gallery": ("GalleryKey", "build"),
    "modsmash": (
        "ActionTable", "CoactionTable", "action_table", "check_bicomodule", "check_comodule",
        "check_comodule_hom_algebra", "check_module", "check_module_hom_algebra",
        "check_smash_twist_compat", "check_yetter_drinfeld", "coaction_lambda_right_smash",
        "coaction_lambda_smash", "coaction_rho_smash", "coaction_table", "smash_left",
        "smash_right", "smash_two_sided", "tensor_modules", "yau_twist_module_algebra",
    ),
    "twisted": (
        "CliffordParams", "TwistingMapR", "alphaAB_from_classical", "alphaAB_ttp",
        "check_alphaAB_twisting_map", "check_braid", "check_deform_compat_ttp",
        "check_hom_twisting_map", "check_twisting_map", "clifford", "flip", "hom_ttp",
        "hom_twistor_from_R", "iterated_ttp", "ttp", "twistor_from_R",
    ),
    "twistor": (
        "Operator2", "Operator3", "check_alpha_pseudotwistor", "check_hom_pseudotwistor",
        "check_hom_twistor", "check_pseudotwistor", "check_twistor", "check_yau_compat",
        "deform", "deform_with_alpha", "lift_13", "yau_operator",
    ),
    "uqsl2": (
        "QPlaneElement", "SmashTerm", "UqElement", "UqParams", "check_uq_module_hom_algebra",
        "pbw_normalize", "q_int", "qp_beta", "qp_mul", "rho_l", "smash_mul_uq", "uq_alpha",
        "uq_coproduct", "uq_mul", "verify_smash_closed_forms",
    ),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER)
__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{layer}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
