"""Desk-scale laboratory for finite groups with coprime automorphisms."""

from .automorphisms import (Automorphism, build_automorphism, check_coprime_facts,
                            factorization_status, fixed_generation_S, fixed_points_of_product,
                            nilpotent_decompose, phi_invariant_closure, soluble_exponent_probe,
                            twisted_data)
from .corpus import build_corpus_instance, build_glauberman_example, default_corpus, load_instance
from .gf import FiniteField
from .groups import (DEFAULT_CAP, FiniteGroup, Subgroup, QuotientGroup, are_conjugate,
                     center, centralizer, commutator_subgroup_pair, generate_group,
                     quotient_group, subgroup_generated)
from .lie import (GradedLieAlgebra, NpSeries, build_graded_lie, check_lazard_all, check_riley,
                  extend_and_eigendecompose, jlz_series, lie_fixed_points, subalgebra_LGH,
                  verify_np_series)
from .report import analyze_instance, run_suite, theorem1_probe, theorem2_probe, thompson_probe
from .structure import (SubgroupSeries, derived_series, fitting_height, fitting_subgroup,
                        is_powerful, lower_central_series, power_subgroup, sylow_subgroup)

__version__ = "0.1.0"
