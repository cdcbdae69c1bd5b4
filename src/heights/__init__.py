"""Exact and numerical height functionals on polarized integral models.

The package namespace is lazy (PEP 562): each public name is looked up
in its defining module on access, so the exact modules, and the scans,
load without numpy or mpmath until a name that needs them is used.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "errors": ("HeightsError", "NumericError", "ValidationError"),
    "heightvalue": ("HeightValue", "ZERO", "as_height", "is_prime"),
    "intersection": ("DivisorClassId", "FiberComponent", "FormalSum",
                     "IntersectionModel", "ModelPair", "SymmetricForm",
                     "form_key"),
    "functionals": ("arakelov_calabi", "arakelov_energy", "aubin_I_rel",
                    "aubin_J_rel", "component_twist_derivative",
                    "decomposition_check", "entropy_rel", "model_beta",
                    "modular_height", "na_calabi", "na_scalar_curvature",
                    "normalized_df", "normalized_df_twisted",
                    "relative_modular_height", "rescale_metric_const",
                    "ricci_energy_rel", "slope_semistability_test",
                    "twist_by_base_divisor"),
    "geometry": ("SphereGeometry", "TorusGeometry", "make_geometry"),
    "potentials": ("PotentialField", "load_potential_csv",
                   "save_potential_csv"),
    "energies": ("am_energy", "apply_metric_change", "aubin_i", "aubin_j",
                 "bott_chern_delta", "cubic_identity_check", "entropy",
                 "k_energy", "metric_model_pair", "ricci_density",
                 "ricci_energy", "scalar_curvature_l2"),
    "quantize": ("SectionGram", "arithmetic_degree", "balanced_iterate",
                 "balanced_step", "bergman_density", "chow_height",
                 "extended_chow_height", "fubini_study_of", "l2_gram",
                 "l2_gram_quadrature"),
    "scans": ("dequantization_scan", "hilbert_samuel_residual", "p1_deg_hat"),
    "toric": ("ToricThreefold", "barycentric_log_discrepancy",
              "blowup_family_oracle", "toric_log_discrepancy"),
    "families": ("BrieskornPhamSpec", "EllipticCurveData",
                 "brieskorn_pham_analyze", "build_p1_fs",
                 "build_p2_blowup_family", "curve_from_label",
                 "curve_periods", "elliptic_faltings_height",
                 "faltings_to_hk", "multiplicity_from_lengths"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
