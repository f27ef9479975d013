"""Greedy-approximation diagnostics on finite-dimensional quasi-normed
sequence spaces: gauges, biorthogonal bases, thresholding greedy operators,
democracy functions, sign-averaging comparisons, and the iterated
sequence-improvement chain, with witness-certified bound reporting.

The package imports its modules lazily: a public name is looked up in
``_EXPORTS`` on first use, its module is imported then, and the name is
cached here, so ``import qgreedy`` loads no submodule and a command loads
only the modules it calls."""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "bases": ("Basis", "coefficient_transform", "coordinate_projection", "load_basis",
              "save_basis", "sign_operator", "synthesize", "unconditional_constant", "zoo"),
    "bootstrap": ("BootstrapChain", "GrowthSequence", "bootstrap_chain", "bootstrap_step",
                  "harmonic"),
    "democracy": ("DemocracyProfile", "democracy_profile", "lower_democracy",
                  "sign_change_constant", "succ_constant", "super_democracy_constant",
                  "upper_democracy"),
    "embeddings": ("EmbeddingReport", "embed_lorentz_into_space",
                   "embed_space_into_weak_lorentz"),
    "estimates": ("BoundEstimate",),
    "greedy": ("conditionality_growth_profile", "greedy_approximation", "greedy_set",
               "greedy_truncation", "quasi_greedy_constant", "restricted_truncation",
               "truncation_constant"),
    "lorentz": ("difference_weight", "log_damped_primitive", "lorentz_gauge",
                "power_primitive", "power_weight", "primitive_weight"),
    "spaces": ("BlockLpL2", "Lp", "LorentzSpace", "ambient_gauge", "dual_gauge", "lp_gauge",
               "nonincreasing_rearrangement", "p_triangle_defect"),
    "strongly_absolute": ("PairFamily", "concentration_set", "counting_inequality_check",
                          "counting_parameters", "khintchine_square_function",
                          "random_pair_family", "strongly_absolute_check",
                          "strongly_absolute_function"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
