"""Seeded random Cantor-series measures with verifiable Fourier decay.

The package builds translation-randomized Cantor-type measures on the
circle, certifies at finite depth that their supports carry no three-term
arithmetic progressions, and measures the Fourier-decay and mass-regularity
behavior that makes the limiting supports Salem-like.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed once under the module that defines it; that module is imported when one of its names
# is first read (PEP 562), so importing the package loads no submodule
_EXPORTS = {
    "ap_verifier": (
        "ApCertificate", "NodeCertificates", "ap_report", "cross_cell_scan", "node_certificates",
        "realize_cross_cell_triple",
    ),
    "cantor_tree": (
        "MeasureTree", "Schedule", "StepMeasure", "TreeLoadError", "build_tree", "cell_mass", "custom_schedule",
        "derive_run_seed", "derive_translation", "interval_of", "level_intervals", "load_tree", "save_tree",
        "schedule_a", "schedule_b", "tree_from_dict", "tree_to_dict",
    ),
    "discrete_ap": (
        "ApWitness", "OracleVerdict", "ResidueSet", "UniformityReport", "behrend_sphere", "dft_uniformity",
        "double_embed", "find_3ap_mod", "is_ap_free", "max_property_ii", "property_ii_oracle", "uniformity_demo",
    ),
    "fourier": (
        "DEFAULT_K_CAP", "DecayProfile", "FourierCoeffs", "IncrementBound", "IncrementReport", "decay_profile",
        "hoeffding_bound", "increment_bound", "increment_scan", "modulation_check", "mu_hat", "mu_hat_batch",
        "tail_envelope", "write_coeffs_csv",
    ),
    "regularity": (
        "LevelMassCheck", "MassBandReport", "RegularityReport", "ball_mass", "dyadic_radii", "frostman_scan",
        "variant_b_mass_check",
    ),
    "svgplot": ("emit_svg",),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    # read through the module every time and never stored here, so a patch on the module shows through
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
