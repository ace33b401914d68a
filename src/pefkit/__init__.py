"""pefkit: perfect erasure functions over finite categorical distributions.

Construct erasure maps that remove a concept variable from categorical
representations with zero analytic information leakage, verify the utility
outer bound H(X|A) and the funnel envelope, and measure runs empirically.

Names resolve on first use (PEP 562): ``import pefkit`` loads no
submodule, and ``pefkit.X`` imports the module that defines ``X``, so a
``pefkit generate`` process never compiles the erasure stack.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, grouped by the module that defines it.
_EXPORTS = {
    "dist": (
        "AlignmentError",
        "Categorical",
        "DataConstraintError",
        "DistError",
        "FunnelCurve",
        "GroupedData",
        "Permutation",
        "PicSpectrum",
        "check_permutation_equal",
        "conditional_entropy_x_given_a",
        "entropy",
        "erasure_feasible",
        "funnel_bounds",
        "mutual_information_ax",
        "pic_spectrum",
    ),
    "coupling": (
        "Coupling",
        "CouplingError",
        "InstanceTooLarge",
        "PgdResult",
        "conditional_rows",
        "coupling_entropy",
        "greedy_mec",
        "mec_oracle",
        "pgd_solve",
    ),
    "qopt": (
        "BoConfig",
        "QCandidate",
        "bayes_opt_q",
        "default_out_size",
        "objective_j",
        "output_support",
        "scan_stationary",
        "select_q",
    ),
    "sample_io": (
        "Sample",
        "as_samples",
        "read_erased_csv",
        "read_samples_csv",
        "write_erased_csv",
        "write_samples_csv",
    ),
    "pef": (
        "ErasureFunction",
        "ErasureReport",
        "analyze",
        "apply",
        "build_deterministic_pef",
        "build_pef",
        "build_stochastic_pef",
        "default_tol",
        "grouped_from_samples",
        "load_function_json",
        "run_algorithm1",
        "save_function_json",
    ),
    "synth": ("SynthConfig", "bell_profile", "generate"),
    "evaluate": (
        "JointCounts",
        "TradeoffPoint",
        "emit_tradeoff_csv",
        "empirical_dist",
        "evaluate_run",
        "plugin_mi",
        "tv_distance",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"_kernels", "cli", *_EXPORTS})

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
