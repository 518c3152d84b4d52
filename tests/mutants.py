"""Mutants of src/ and the tests that must catch each one.

A mutant is a small deliberate fault: in ``file``, the one occurrence of
``old`` is replaced by ``new``, and at least one of the tests named in
``tests`` must fail on the result. A change that moves or
rewrites the mutated code must restate its mutants here;
``tests/test_mutants.py`` checks in tier-1 that each ``old`` text occurs
exactly once and that each named test exists.

Run every mutant with

    python tests/mutants.py

from the root of a checkout. Each mutant is applied to a copy of src/,
tests/, perfbench/ (whose workload templates tests read) and pyproject.toml
in a temporary directory of its own, and only its named tests run there.
Mutants run on min(2, CPU count) threads, each waiting on one pytest
process, and print in table order. The run fails if a mutant survives
(its tests pass), if its tests cannot run (a collection or usage error
instead of a test failure), or if its ``old`` text does not occur exactly
once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # theorem 1 probe: the walk stops once e* reaches exp([G, phi])
    {"name": "theorem 1 walks every orbit",
     "file": "src/coprimelab/report.py",
     "old": "        if e_star >= bound:\n            break\n",
     "new": "",
     "tests": ["tests/test_report_cli.py::test_theorem1_closes_one_subgroup_per_orbit_glauberman"]},
    {"name": "theorem 1 bounded by the exponent of G",
     "file": "src/coprimelab/report.py",
     "old": "    bound = G.exponent_of(td.commutator_phi.members)\n",
     "new": "    bound = G.exponent()\n",
     "tests": ["tests/test_report_cli.py::test_theorem1_closes_one_subgroup_per_orbit_glauberman"]},
    {"name": "theorem 1 stops at exp([G, phi]) / 5",
     "file": "src/coprimelab/report.py",
     "old": "    bound = G.exponent_of(td.commutator_phi.members)\n",
     "new": "    bound = G.exponent_of(td.commutator_phi.members) // 5\n",
     "tests": ["tests/test_report_cli.py::test_theorem1_matches_unreduced_oracle_on_corpus"]},
    {"name": "theorem 1 ignores fixed elements",
     "file": "src/coprimelab/report.py",
     "old": "    e_star = max(map(G.element_order, td.fixed.members))\n",
     "new": "    e_star = 1\n",
     "tests": ["tests/test_report_cli.py::test_theorem1_matches_unreduced_oracle_on_corpus"]},
    # theorem 2 probe: the walk stops at the derived length of [G, phi],
    # which is computed once per automorphism
    {"name": "theorem 2 bounded by the derived length of G",
     "file": "src/coprimelab/report.py",
     "old": "    bound = td.commutator_derived_length\n",
     "new": "    bound = derived_series(G).derived_length\n",
     "tests": ["tests/test_report_cli.py::test_one_corpus_pass_closes_a_pinned_number_of_subgroups",
               "tests/test_report_cli.py::test_pair_walks_match_all_pairs_oracle_on_corpus"]},
    {"name": "theorem 2 bounded by 1",
     "file": "src/coprimelab/report.py",
     "old": "    bound = td.commutator_derived_length\n",
     "new": "    bound = 1\n",
     "tests": ["tests/test_report_cli.py::test_pair_walks_match_all_pairs_oracle_on_corpus"]},
    {"name": "the derived length of [G, phi] is not kept",
     "file": "src/coprimelab/automorphisms.py",
     "old": "    @cached_property\n    def commutator_derived_length(self)",
     "new": "    @property\n    def commutator_derived_length(self)",
     "tests": ["tests/test_report_cli.py::test_one_derived_series_of_commutator_phi_per_instance"]},
    {"name": "theorem 2 recomputes a pair closure equal to [G, phi]",
     "file": "src/coprimelab/report.py",
     "old": "    lengths = {td.commutator_phi.member_set: bound}",
     "new": "    lengths = {}",
     "tests": ["tests/test_report_cli.py::test_one_derived_series_of_commutator_phi_per_instance"]},
    {"name": "the theorem-2 memo keyed by the first pair element",
     "file": "src/coprimelab/report.py",
     "old": "        key = K.member_set\n",
     "new": "        key = K.gens[:1]\n",
     "tests": ["tests/test_report_cli.py::test_theorem2_derives_each_distinct_pair_closure_once",
               "tests/test_report_cli.py::test_pair_walks_match_all_pairs_oracle_on_corpus"]},
    {"name": "a memo kept on the automorphism",
     "file": "src/coprimelab/groups.py",
     "old": "        self._twisted = None\n",
     "new": "        self._twisted = None\n        self.closure_cache: dict = {}\n",
     "tests": ["tests/test_report_cli.py::test_the_automorphism_keeps_no_memo_that_grows_with_the_walks"]},
    # the batched kernel and the coset helpers
    {"name": "products composes the base columns in the wrong order",
     "file": "src/coprimelab/groups.py",
     "old": "        for column in reversed(images):\n            keys = [key * degree",
     "new": "        for column in images:\n            keys = [key * degree",
     "tests": ["tests/test_in_place.py::test_products_match_mul"]},
    {"name": "coset closure tries the new generator only",
     "file": "src/coprimelab/groups.py",
     "old": "            for y in G.products(repeat(r), gens):\n",
     "new": "            for y in G.products(repeat(r), [s]):\n",
     "tests": ["tests/test_in_place.py::test_subgroup_generated_matches_the_oracles"]},
    {"name": "coset labels by x * m",
     "file": "src/coprimelab/groups.py",
     "old": "            for y in G.products(N.members, repeat(x)) if N.order > 1 else (x,):\n",
     "new": "            for y in G.products(repeat(x), N.members) if N.order > 1 else (x,):\n",
     "tests": ["tests/test_in_place.py::test_coset_labels_number_right_cosets"]},
    # the automorphism section inside G
    {"name": "the order of phi from its first generator only",
     "file": "src/coprimelab/groups.py",
     "old": "for g in G.generator_indices))\n",
     "new": "for g in G.generator_indices[:1]))\n",
     "tests": ["tests/test_in_place.py::test_automorphism_order_is_the_order_of_its_element_permutation"]},
    {"name": "fixed_generation walks the twisted set of phi on G",
     "file": "src/coprimelab/automorphisms.py",
     "old": "    closures = twisted_pair_closures(phi, inner)\n",
     "new": "    closures = twisted_pair_closures(phi, twisted_data(phi))\n",
     "tests": ["tests/test_in_place.py::test_fixed_generation_walks_the_twisted_set_of_commutator_phi"]},
    {"name": "fixed_generation reads the fixed points of phi on G",
     "file": "src/coprimelab/automorphisms.py",
     "old": "    fixed = inner.fixed.member_set\n",
     "new": "    fixed = twisted_data(phi).fixed.member_set\n",
     "tests": ["tests/test_in_place.py::test_auto_section_matches_the_restriction_and_quotient_oracles"]},
    {"name": "the centralizing check reads the first generator of N only",
     "file": "src/coprimelab/automorphisms.py",
     "old": "for m in H.gens for x in N.gens):\n",
     "new": "for m in H.gens for x in N.gens[:1]):\n",
     "tests": ["tests/test_automorphisms.py::test_centralizing_by_generators_matches_all_pairs"]},
    {"name": "a fixed coset counts as meeting the fixed points",
     "file": "src/coprimelab/automorphisms.py",
     "old": "                 if labels[phi.table[x]] == k and k not in meets_fixed), None)\n",
     "new": "                 if labels[phi.table[x]] == k and k in meets_fixed), None)\n",
     "tests": ["tests/test_automorphisms.py::test_quotient_check_failure_carries_a_witness_that_replays"]},
    {"name": "the np-series check keys commutators by the first term only",
     "file": "src/coprimelab/lie.py",
     "old": "            comm = commutators.get((top, other))\n",
     "new": "            comm = commutators.get((top, top))\n",
     "tests": ["tests/test_in_place.py::test_np_series_check_matches_the_per_pair_walk"]},
    {"name": "the np-series check fails a commutator generator of weight i + j",
     "file": "src/coprimelab/lie.py",
     "old": "            if any(weight[g] < i + j for g in comm.gens):\n",
     "new": "            if any(weight[g] <= i + j for g in comm.gens):\n",
     "tests": ["tests/test_in_place.py::test_np_series_check_matches_the_per_pair_walk"]},
    # the Lie checks return None or their first witness
    {"name": "the np-series check drops its power-axiom return",
     "file": "src/coprimelab/lie.py",
     "old": "            return (\"power\", i)\n",
     "new": "            pass\n",
     "tests": ["tests/test_lie.py::test_verify_np_series_detects_violation"]},
    {"name": "the bracket-axiom check returns None after its antisymmetry loop",
     "file": "src/coprimelab/lie.py",
     "old": "                return ((i, u), (j, v))\n",
     "new": "                return ((i, u), (j, v))\n    return None\n",
     "tests": ["tests/test_lie.py::test_a_consistent_pair_of_structure_constants_breaks_jacobi"]},
    {"name": "the Lazard check passes elements whose brackets differ",
     "file": "src/coprimelab/lie.py",
     "old": "        if left != right:\n            return x\n",
     "new": "        if left != right:\n            continue\n",
     "tests": ["tests/test_lie_layer.py::"
               "test_a_corrupted_structure_constant_fails_where_the_oracle_fails"]},
    {"name": "the fixed-point check names the layer after the one that fails",
     "file": "src/coprimelab/lie.py",
     "old": "            return i\n    return None\n",
     "new": "            return i + 1\n    return None\n",
     "tests": ["tests/test_lie.py::"
               "test_lie_fixed_points_fail_where_the_fixed_subgroup_misses_a_fixed_layer"]},
    {"name": "the Riley check names term c",
     "file": "src/coprimelab/lie.py",
     "old": "subgroup=A.series.term(c + 1)) else c + 1\n",
     "new": "subgroup=A.series.term(c + 1)) else c\n",
     "tests": ["tests/test_lie.py::test_riley_fails_on_a_series_with_an_empty_first_layer"]},
    {"name": "the eigen product rule check never fails",
     "file": "src/coprimelab/lie.py",
     "old": "                                return ((i, ji, u), (j, jj, v))\n",
     "new": "                                continue\n",
     "tests": ["tests/test_lie.py::test_a_changed_layer_matrix_breaks_the_eigen_product_rule"]},
    # the constructions: generators only, enumerated once
    {"name": "a heisenberg generator indexes points as p * x + y",
     "file": "src/coprimelab/corpus.py",
     "old": "    return p * p, [tuple((x + y) % p + p * y for x, y in points),\n",
     "new": "    return p * p, [tuple(p * ((x + y) % p) + y for x, y in points),\n",
     "tests": ["tests/test_corpus.py::test_heisenberg_on_p_squared_points_matches_the_regular_action"]},
    {"name": "heisenberg is charged for p^3 points",
     "file": "src/coprimelab/corpus.py",
     "old": "_odd_prime, lambda p: p ** 3, _heisenberg_degree,",
     "new": "_odd_prime, lambda p: p ** 3, lambda p: p ** 3,",
     "tests": ["tests/test_corpus.py::test_store_budget_checked_before_anything_is_built"]},
    {"name": "the order of a construction is not checked",
     "file": "src/coprimelab/corpus.py",
     "old": "    if G.order != order:\n",
     "new": "    if False:\n",
     "tests": ["tests/test_corpus.py::test_a_construction_of_the_wrong_order_or_degree_is_a_bug"]},
    {"name": "direct product blocks start one point late",
     "file": "src/coprimelab/corpus.py",
     "old": "        pos += factor_degree\n",
     "new": "        pos += factor_degree + 1\n",
     "tests": ["tests/test_corpus.py::test_factory_orders"]},
    # cold start: a process imports only what it runs
    {"name": "the report imports the process pool at module level",
     "file": "src/coprimelab/report.py",
     "old": "\nfrom .automorphisms import (",
     "new": "\nfrom concurrent.futures import ProcessPoolExecutor\nfrom .automorphisms import (",
     "tests": ["tests/test_stdlib_only.py::test_cli_import_loads_no_pool_and_no_dataclasses"]},
    {"name": "SubgroupSeries is a dataclass",
     "file": "src/coprimelab/structure.py",
     "old": "\nclass SubgroupSeries:",
     "new": "\nfrom dataclasses import dataclass\n\n\n@dataclass\nclass SubgroupSeries:",
     "tests": ["tests/test_stdlib_only.py::test_cli_import_loads_no_pool_and_no_dataclasses"]},
    {"name": "are_conjugate with its two columns swapped",
     "file": "src/coprimelab/groups.py",
     "old": "map(operator.eq, G.extend_images(G._right, x), G.right_column(y))",
     "new": "map(operator.eq, G.extend_images(G._right, y), G.right_column(x))",
     "tests": ["tests/test_cayley_walks.py::test_are_conjugate_matches_the_full_scan"]},
    {"name": "the package imports the Lie layer eagerly",
     "file": "src/coprimelab/__init__.py",
     "old": "from importlib import import_module\n",
     "new": "from importlib import import_module\n\nfrom . import lie  # noqa: F401\n",
     "tests": ["tests/test_stdlib_only.py::test_package_import_loads_no_submodule"]},
    {"name": "the corpus imports the finite field at module level",
     "file": "src/coprimelab/corpus.py",
     "old": "from .numutil import is_prime\n",
     "new": "from .numutil import is_prime\nfrom .gf import FiniteField  # noqa: F401\n",
     "tests": ["tests/test_stdlib_only.py::test_building_a_group_loads_only_the_construction_modules"]},
    {"name": "producers kept on the data of phi on [G, phi]",
     "file": "src/coprimelab/automorphisms.py",
     "old": "\n                          if len(elements) == G.order else None)",
     "new": ")",
     "tests": ["tests/test_automorphisms.py::test_producers_are_kept_on_the_data_of_phi_on_g_only"]},
    {"name": "the data of phi on G stored as its own inner data",
     "file": "src/coprimelab/automorphisms.py",
     "old": "    return td if td.commutator_phi.order == phi.group.order else td.inner\n",
     "new": ("    if td.commutator_phi.order == phi.group.order:\n"
             "        td.inner = td\n"
             "    return td.inner\n"),
     "tests": ["tests/test_report_cli.py::"
               "test_dropping_phi_frees_its_twisted_data_without_the_cycle_collector"]},
    {"name": "the corpus imports the automorphism analysis at module level",
     "file": "src/coprimelab/corpus.py",
     "old": "from .numutil import is_prime\n",
     "new": "from .numutil import is_prime\nfrom . import automorphisms  # noqa: F401\n",
     "tests": ["tests/test_stdlib_only.py::test_building_a_group_loads_only_the_construction_modules"]},
    {"name": "the parser is built again in every main call",
     "file": "src/coprimelab/cli.py",
     "old": "    if _parser is None:\n",
     "new": "    if True:\n",
     "tests": ["tests/test_report_cli.py::test_main_builds_its_parser_once_per_process"]},
    # the Lie and field layers from their defining recursions
    {"name": "Jennings' recursion reads D_floor(i/p)",
     "file": "src/coprimelab/lie.py",
     "old": "        source = terms[(i - 1) // p]  # D_ceil(i/p)\n",
     "new": "        source = terms[i // p - 1]  # D_ceil(i/p)\n",
     "tests": ["tests/test_lie.py::test_jlz_terms_against_product_of_powers_oracle"]},
    {"name": "Jennings' recursion commutates D_(i-1) with itself",
     "file": "src/coprimelab/lie.py",
     "old": "commutator_subgroup_pair(G, terms[-1], whole)",
     "new": "commutator_subgroup_pair(G, terms[-1], terms[-1])",
     "tests": ["tests/test_lie.py::test_jlz_terms_against_product_of_powers_oracle"]},
    # the weight and coordinate tables, from their definitions
    {"name": "the weight fill stops one term early",
     "file": "src/coprimelab/lie.py",
     "old": "        for i, term in enumerate(terms, start=1):\n",
     "new": "        for i, term in enumerate(terms[:-1], start=1):\n",
     "tests": ["tests/test_lie.py::test_weight_and_coordinate_tables_match_the_terms"]},
    {"name": "a layer also writes log for its bottom coset",
     "file": "src/coprimelab/lie.py",
     "old": "        if k:\n            log[x] = span[k]\n",
     "new": "        log[x] = span[k]\n",
     "tests": ["tests/test_lie.py::test_weight_and_coordinate_tables_match_the_terms"]},
    {"name": "trial division stops one degree short",
     "file": "src/coprimelab/gf.py",
     "old": "for d in range(1, (len(f) - 1) // 2 + 1))",
     "new": "for d in range(1, (len(f) - 1) // 2))",
     "tests": ["tests/test_gf.py::test_irreducibility_degree4_paths"]},
    {"name": "field pow drops its last multiply",
     "file": "src/coprimelab/gf.py",
     "old": "        while e:\n            if e & 1:\n",
     "new": "        while e > 1:\n            if e & 1:\n",
     "tests": ["tests/test_gf.py::test_pow_matches_repeated_mul"]},
    {"name": "a stored attribute that src never reads",
     "file": "src/coprimelab/structure.py",
     "old": "        self.terms = terms\n",
     "new": "        self.terms = terms\n        self.kind = \"lower-central\"\n",
     "tests": ["tests/test_no_dead_code.py::test_every_stored_attribute_is_read_in_src"]},
    # one normal core (groups.normal_core) for O_p(G) and the core of C_G(phi)
    {"name": "the core intersects with the first generator's conjugates only",
     "file": "src/coprimelab/groups.py",
     "old": "for k in range(len(gens))))",
     "new": "for k in range(1)))",
     "tests": ["tests/test_group_layer.py::test_normal_core_matches_intersection_of_all_conjugates"]},
    {"name": "the core is H without a normality test",
     "file": "src/coprimelab/groups.py",
     "old": "    if normality_witness(G, H.gens, H.member_set) is None:\n        return H\n",
     "new": "    return H\n",
     "tests": ["tests/test_group_layer.py::test_normal_core_matches_intersection_of_all_conjugates"]},
    # the Fitting height walks the lower nilpotent series from the cached
    # lower central series of G
    {"name": "the Fitting height walks the derived series",
     "file": "src/coprimelab/structure.py",
     "old": "height, residual = 1, lower_central_series(G).terms[-1]",
     "new": "height, residual = 1, derived_series(G).terms[1]",
     "tests": ["tests/test_structure.py::test_fitting_subgroup_and_height",
               "tests/test_structure.py::test_fitting_height_matches_the_quotient_oracle"]},
    {"name": "the Fitting height recomputes the lower central series of G",
     "file": "src/coprimelab/structure.py",
     "old": "height, residual = 1, lower_central_series(G).terms[-1]",
     "new": "height, residual = 1, lower_central_series(G, G.whole_subgroup()).terms[-1]",
     "tests": ["tests/test_group_layer.py::test_glauberman_group_section_mul_count_is_pinned"]},
    # member sets on first read, byte base-image columns, bijectivity from the
    # kernel: the traced peaks of the Glauberman instance
    {"name": "the member set built on first read leaves out the identity",
     "file": "src/coprimelab/groups.py",
     "old": "        self.member_set = frozenset(self.members)\n",
     "new": "        self.member_set = frozenset(self.members[1:])\n",
     "tests": ["tests/test_group_layer.py::test_member_sets_built_on_first_read_keep_their_meaning"]},
    {"name": "the commutator series stops one term early",
     "file": "src/coprimelab/structure.py",
     "old": "        if nxt.order == cur.order:\n",
     "new": "        if nxt.order <= cur.order:\n",
     "tests": ["tests/test_group_layer.py::test_member_sets_built_on_first_read_keep_their_meaning"]},
    {"name": "a homomorphism is taken as bijective without counting its kernel",
     "file": "src/coprimelab/groups.py",
     "old": "        if broken or table.count(0) != 1:\n",
     "new": "        if broken:\n",
     "tests": ["tests/test_cayley_walks.py::test_a_homomorphism_with_a_kernel_is_not_bijective"]},
    {"name": "a map that breaks the law is not checked for bijectivity",
     "file": "src/coprimelab/groups.py",
     "old": "        if broken and len(set(table)) == G.order:\n",
     "new": "        if broken:\n",
     "tests": ["tests/test_cayley_walks.py::"
               "test_a_map_that_is_neither_bijective_nor_a_homomorphism_is_not_bijective"]},
    {"name": "generator images are not checked against the group order",
     "file": "src/coprimelab/groups.py",
     "old": "or any(type(s) is not int or not 0 <= s < G.order for s in images)",
     "new": "or any(type(s) is not int for s in images)",
     "tests": ["tests/test_cayley_walks.py::test_bad_images_get_an_honest_error_at_once"]},
    {"name": "the whole group's member set is built up front",
     "file": "src/coprimelab/groups.py",
     "old": "            self._whole = Subgroup(self._indices(), self.generator_indices)\n",
     "new": "            self._whole = Subgroup(self._indices(), self.generator_indices)\n"
            "            self._whole.member_set = frozenset(self._whole.members)\n",
     "tests": ["tests/test_traced_peaks.py::"
               "test_glauberman_build_and_analysis_stay_under_their_traced_peaks"]},
    {"name": "whole_subgroup hands out a fresh handle",
     "file": "src/coprimelab/groups.py",
     "old": "        return self._whole\n",
     "new": "        return Subgroup(self._whole.members, self._whole.gens)\n",
     "tests": ["tests/test_group_layer.py::test_one_whole_subgroup_handle_per_group"]},
    {"name": "base-image columns are lists",
     "file": "src/coprimelab/groups.py",
     "old": "encode(map(itemgetter(pt), store))",
     "new": "list(map(itemgetter(pt), store))",
     "tests": ["tests/test_kernel.py::test_store_type_follows_degree"]},
    {"name": "generator indices read a later column entry",
     "file": "src/coprimelab/groups.py",
     "old": "tuple(column[0] for column in right)",
     "new": "tuple(column[-1] for column in right)",
     "tests": ["tests/test_kernel.py::"
               "test_generator_indices_are_the_first_entries_of_the_cayley_columns"]},
    {"name": "subgroup equality drops the last member",
     "file": "src/coprimelab/groups.py",
     "old": "self.members == other.members",
     "new": "self.members[:-1] == other.members[:-1]",
     "tests": ["tests/test_group_layer.py::"
               "test_member_sets_built_on_first_read_keep_their_meaning"]},
    {"name": "the Lie class stops one bracketing early",
     "file": "src/coprimelab/lie.py",
     "old": "        while any(X):\n",
     "new": "        while any(self.bracket_spans(X, self.lp_layers)):\n",
     "tests": ["tests/test_lie.py::test_graded_lie_heisenberg",
               "tests/test_lie_layer.py::"
               "test_the_first_layer_algebra_has_the_class_of_the_whole_algebra"]},
    {"name": "powerful_generation bounds a 2-group's omega by m, not 2m",
     "file": "src/coprimelab/report.py",
     "old": "            bound = 2 * m if p == 2 else m\n",
     "new": "            bound = m\n",
     "tests": ["tests/test_small_p_groups.py::"
               "test_powerful_generation_holds_on_a_powerful_2_group_of_exponent_8"]},
    {"name": "the Lie class is bracketed out on every call",
     "file": "src/coprimelab/lie.py",
     "old": "    @cached_property\n    def lie_class(self)",
     "new": "    @property\n    def lie_class(self)",
     "tests": ["tests/test_lie_layer.py::test_the_lie_class_is_bracketed_out_once_per_algebra"]},
    # the eigen split by the order of phi: one rule (lie.split_field_degree),
    # phi coprime and the field degree bounded before any search, read by the
    # split, the suite and eigen alike; lie and eigen take p from the group order
    {"name": "the field degree bound is off by one",
     "file": "src/coprimelab/numutil.py",
     "old": "for d in range(1, bound + 1)",
     "new": "for d in range(1, bound)",
     "tests": ["tests/test_gf.py::test_root_field_degree_is_the_order_of_p_up_to_its_bound"]},
    {"name": "the field bound check is skipped",
     "file": "src/coprimelab/gf.py",
     "old": "        if p ** (k // 2) > MAX_SEARCH:\n",
     "new": "        if False:\n",
     "tests": ["tests/test_gf.py::"
               "test_a_field_above_the_search_bound_is_refused_before_any_search"]},
    {"name": "the degree bound of the eigen split is off by one",
     "file": "src/coprimelab/lie.py",
     "old": "    degree = root_field_degree(p, n, MAX_DEGREE)\n",
     "new": "    degree = root_field_degree(p, n, MAX_DEGREE - 1)\n",
     "tests": ["tests/test_lie.py::"
               "test_eigen_refuses_a_field_degree_above_the_bound_before_any_search",
               "tests/test_report_cli.py::"
               "test_default_root_order_of_field_degree_21_reaches_the_split"]},
    {"name": "the eigen split accepts a non-coprime phi",
     "file": "src/coprimelab/lie.py",
     "old": "    if n % p == 0:\n        raise NotCoprime(",
     "new": "    if False:\n        raise NotCoprime(",
     "tests": ["tests/test_lie.py::test_eigen_rejects_characteristic_divisor"]},
    {"name": "decompose and eigen accept a non-coprime phi",
     "file": "src/coprimelab/cli.py",
     "old": "    if not phi.coprime:\n",
     "new": "    if False:\n",
     "tests": ["tests/test_report_cli.py::test_cli_unmet_precondition_is_an_input_error"]},
    {"name": "lie accepts an order that is not a prime power",
     "file": "src/coprimelab/cli.py",
     "old": "    A, payload = _lie_fields(G, _characteristic(G, args.file))\n",
     "new": "    A, payload = _lie_fields(G, prime_power_base(G.order))\n",
     "tests": ["tests/test_report_cli.py::test_cli_unmet_precondition_is_an_input_error"]},
    # one rule per hypothesis: each guard raises its hypothesis' class with
    # the wording the bundle prints, and only those classes become skips
    {"name": "theorem 2 returns its refusal as a dict again",
     "file": "src/coprimelab/report.py",
     "old": "    fixed_lcs = nilpotent_fixed_series(phi)\n",
     "new": "    require_coprime(phi)\n"
            "    fixed_lcs = lower_central_series(phi.group, twisted_data(phi).fixed)\n"
            "    if not fixed_lcs.is_nilpotent:\n"
            "        return {\"skipped\": \"fixed-point subgroup is not nilpotent\"}\n",
     "tests": ["tests/test_report_cli.py::test_theorem2_skips_non_nilpotent_fixed",
               "tests/test_acceptance.py::test_suite_bundle_is_pinned"]},
    {"name": "the skip helper also catches PreconditionViolated",
     "file": "src/coprimelab/report.py",
     "old": "    except (NotCoprime, NotNilpotent, NotSoluble) as exc:\n",
     "new": "    except (NotCoprime, NotNilpotent, NotSoluble, PreconditionViolated) as exc:\n",
     "tests": ["tests/test_guards.py::test_a_commutator_invariant_failure_is_a_hard_error"]},
    {"name": "the coprime guard's message drops 'is'",
     "file": "src/coprimelab/automorphisms.py",
     "old": "        raise NotCoprime(\"action is not coprime\")\n",
     "new": "        raise NotCoprime(\"action not coprime\")\n",
     "tests": ["tests/test_guards.py::"
               "test_every_guard_raises_its_class_with_the_wording_the_bundle_prints"]},
    # every command's exit code is 1 iff its payload holds a fail verdict
    # (report.outcome), and an instance's id is never counted as a verdict
    {"name": "a command exits 0 whatever its verdicts",
     "file": "src/coprimelab/report.py",
     "old": "    return (1 if counts[\"fail\"] else 0,\n",
     "new": "    return (0,\n",
     "tests": ["tests/test_report_cli.py::test_cli_info_exits_1_on_a_failing_class_bound",
               "tests/test_report_cli.py::test_cli_lie_exits_1_on_a_failing_np_series"]},
    {"name": "an id that spells a verdict is counted",
     "file": "src/coprimelab/report.py",
     "old": "            walk([v for key, v in node.items() if key != \"id\"])\n",
     "new": "            walk(list(node.values()))\n",
     "tests": ["tests/test_report_cli.py::test_an_id_that_spells_a_verdict_is_not_counted"]},
    # the automorphism checks return witnesses, and the report alone turns
    # them into verdicts
    {"name": "the report passes a quotient check whose witness is set",
     "file": "src/coprimelab/report.py",
     "old": "**_witnessed(G, x, \"x\")} for name, N, x in quotients],",
     "new": "**_witnessed(G, None, \"x\")} for name, N, x in quotients],",
     "tests": ["tests/test_automorphisms.py::"
               "test_quotient_check_failure_carries_a_witness_that_replays"]},
    {"name": "the product check never names a witness",
     "file": "src/coprimelab/automorphisms.py",
     "old": "min(lhs - rhs.member_set, default=None)",
     "new": "None",
     "tests": ["tests/test_automorphisms.py::test_product_failure_carries_a_witness_that_replays"]},
    {"name": "the decomposition check counts factorizations when the product covers",
     "file": "src/coprimelab/automorphisms.py",
     "old": "    if td.product_covers:\n        return None\n",
     "new": "",
     "tests": ["tests/test_report_cli.py::"
               "test_a_corpus_pass_counts_factorizations_once_per_automorphism"]},
    # no verdict passes by the shape of its input: a phi that acts
    # trivially, a central subgroup for fact (c) and a product that is one of
    # its members are each refused before the check
    {"name": "a trivially acting phi is not refused",
     "file": "src/coprimelab/report.py",
     "old": "    if twisted_data(phi).commutator_phi.is_trivial:\n",
     "new": "    if False:\n",
     "tests": ["tests/test_shape_and_content.py::test_no_verdict_passes_by_the_shape_of_its_input"]},
    {"name": "fact (c) checks a central subgroup",
     "file": "src/coprimelab/automorphisms.py",
     "old": "        if not N.member_set <= central:\n",
     "new": "        if True:\n",
     "tests": ["tests/test_shape_and_content.py::test_no_verdict_passes_by_the_shape_of_its_input"]},
    {"name": "the product check runs when the product is one of its factors",
     "file": "src/coprimelab/report.py",
     "old": "    if not family or any(",
     "new": "    if not family or False and any(",
     "tests": ["tests/test_shape_and_content.py::test_no_verdict_passes_by_the_shape_of_its_input"]},
    {"name": "the commutator exponent reads exp(G)",
     "file": "src/coprimelab/report.py",
     "old": "        \"commutator_exponent\": G.exponent_of(cp.members),\n",
     "new": "        \"commutator_exponent\": G.exponent(),\n",
     "tests": ["tests/test_in_place.py::"
               "test_auto_section_matches_the_restriction_and_quotient_oracles"]},
    {"name": "a raw group over the cap names no place in the input",
     "file": "src/coprimelab/corpus.py",
     "old": "        except (InvalidPermutation, CapExceeded) as exc:\n",
     "new": "        except InvalidPermutation as exc:\n",
     "tests": ["tests/test_corpus.py::"
               "test_cli_raw_group_over_the_cap_exits_2_naming_its_generators",
               "tests/test_cli_fuzz.py::test_every_file_command_keeps_the_exit_code_contract"]},
]


def text_problems(mutant: dict) -> list:
    """Why this mutant cannot be applied as written; empty when it can."""
    path = ROOT / mutant["file"]
    if not path.is_file():
        return [f"{mutant['file']} does not exist"]
    found = path.read_text(encoding="utf-8").count(mutant["old"])
    problems = [] if found == 1 else [f"old text occurs {found} times in {mutant['file']}"]
    if mutant["old"] == mutant["new"]:
        problems.append("old and new text are the same")
    return problems


def run(mutant: dict) -> str:
    """'caught', 'SURVIVED', or why the named tests could not decide."""
    problems = text_problems(mutant)
    if problems:
        return "; ".join(problems)
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / mutant["file"]
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant["tests"]], cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "SURVIVED"
    if done.returncode == 1:
        return "caught"
    return f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def timed_run(mutant: dict) -> tuple:
    """(``run(mutant)``, its wall time in seconds)."""
    t0 = time.perf_counter()
    return run(mutant), time.perf_counter() - t0


def main() -> int:
    failures = 0
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for mutant, (outcome, seconds) in zip(MUTANTS, pool.map(timed_run, MUTANTS)):
            failures += outcome != "caught"
            print(f"{outcome:10s} {seconds:5.1f}s  {mutant['name']}", flush=True)
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
