"""Desk-scale laboratory for finite groups with coprime automorphisms.

The names below load their module on first use (PEP 562), so that
``import coprimelab`` compiles no submodule and a process that only builds
groups never compiles the Lie layer, linear algebra or the report.
"""

from importlib import import_module

_HOMES = {
    "automorphisms": ("check_coprime_facts", "factorization_status", "fixed_generation_S",
                      "fixed_points_of_product", "nilpotent_decompose", "phi_invariant_closure",
                      "twisted_data"),
    "corpus": ("build_corpus_instance", "build_glauberman_example", "default_corpus",
               "load_instance"),
    "gf": ("FiniteField",),
    "groups": ("Automorphism", "DEFAULT_CAP", "FiniteGroup", "Subgroup", "are_conjugate",
               "build_automorphism", "center", "centralizer", "commutator_subgroup_pair",
               "generate_group", "quotient_group", "subgroup_generated"),
    "lie": ("GradedLieAlgebra", "NpSeries", "build_graded_lie", "check_lazard_all", "check_riley",
            "extend_and_eigendecompose", "jlz_series", "lie_fixed_points", "verify_np_series"),
    "report": ("analyze_instance", "run_suite", "theorem1_probe", "theorem2_probe",
               "thompson_probe"),
    "structure": ("SubgroupSeries", "derived_series", "fitting_height", "is_powerful",
                  "lower_central_series", "power_subgroup"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# submodules read as attributes, such as ``coprimelab.groups``, load on first use too
_SUBMODULES = (*_HOMES, "errors", "linalg", "numutil")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
