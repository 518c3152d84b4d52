import concurrent.futures
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import pytest

from coprimelab import automorphisms
from coprimelab.automorphisms import (Automorphism, build_automorphism, decomposition_witness,
                                      fixed_generation_S, phi_invariant_closure,
                                      twisted_data, twisted_pair_closures)
from coprimelab import cli
from coprimelab.cli import main
from coprimelab.corpus import build_corpus_instance, build_glauberman_example, default_corpus
from coprimelab import report
from coprimelab.errors import NotCoprime, NotNilpotent, NotSoluble, ParseError
from coprimelab.numutil import prime_power_base
from coprimelab.report import (analyze_instance, canonical_json, count_verdicts, run_suite,
                               theorem1_probe, theorem2_probe, thompson_probe)
from coprimelab import structure
from coprimelab.structure import lower_central_series
from helpers import (C2_10_ORDER_889, C2_13_ORDER_6141, _all_twisted_pair_closures,
                     all_pairs_derived_length, all_pairs_fixed_generation_S, cyclic_spec,
                     generated_members, heisenberg_spec, identity_automorphism, load_workloads,
                     modular_spec, per_element_decomposition_witness, product_spec,
                     quaternion_group, restrict_automorphism, unreduced_theorem1)
from regen_golden import (C5_POW5, GOLDEN, HEIS5_INV, STDOUT_PINS, json_differences,
                          pinned_spec)


@pytest.fixture
def closures(monkeypatch):
    """The seed sets of the invariant closures built from here on, one entry
    per ``phi_invariant_closure`` call, whether made in automorphisms or in
    report."""
    built = []
    inner = automorphisms.phi_invariant_closure

    def counting(phi, seeds):
        built.append(frozenset(seeds))
        return inner(phi, seeds)

    monkeypatch.setattr(automorphisms, "phi_invariant_closure", counting)
    monkeypatch.setattr(report, "phi_invariant_closure", counting)
    return built


def c7_phi():
    return build_corpus_instance({"name": "cyclic", "params": {"m": 7},
                                  "automorphism": {"recipe": "power", "k": 2}})[1]


def test_theorem1_c7():
    assert theorem1_probe(c7_phi()) == {"e_star": 7}


def test_theorem1_exponent_p_group():
    phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                 "automorphism": {"recipe": "power", "k": -1}})[1]
    assert theorem1_probe(phi)["e_star"] == 3 == phi.group.exponent()


def test_theorem1_matches_unreduced_oracle_on_corpus():
    # the shipped corpus, the benchmark's nilpotent_pairs corpus and its
    # cli_commands files, both of seed 1
    workloads = load_workloads()
    specs = (default_corpus()["instances"] + workloads.nilpotent_corpus(1)["instances"]
             + list(workloads.cli_plan(1)["files"].values()))
    checked = 0
    for spec in specs:
        phi = build_corpus_instance(spec)[1]
        if phi is None or not phi.coprime:
            continue
        assert theorem1_probe(phi) == unreduced_theorem1(phi), spec["id"]
        checked += 1
    assert checked >= 33


def test_unique_decomposition_matches_per_element_loop_on_corpus():
    checked = 0
    for spec in default_corpus()["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is None or not phi.coprime or not lower_central_series(G).is_nilpotent:
            continue
        section = report._auto_section(G, phi)
        if section["commutator_order"] == 1:
            assert section["unique_decomposition"] == "skipped: phi acts trivially", spec["id"]
            continue
        witness = per_element_decomposition_witness(phi)
        assert section["unique_decomposition"] == ("fail" if witness else "pass"), spec["id"]
        assert section.get("unique_decomposition_witness") == witness, spec["id"]
        checked += 1
    assert checked >= 17


@pytest.mark.parametrize("m, k", [(4, 3), (9, 4)])
def test_forced_coprime_decomposition_witness_matches_per_element_loop(m, k, monkeypatch):
    G, phi = build_corpus_instance({"name": "cyclic", "params": {"m": m},
                                    "automorphism": {"recipe": "power", "k": k}})
    assert not phi.coprime
    monkeypatch.setattr(Automorphism, "coprime", property(lambda self: True))
    witness = decomposition_witness(phi)
    assert witness is not None and witness["error"].endswith("factorizations")
    assert witness == per_element_decomposition_witness(phi)


def test_a_corpus_pass_counts_factorizations_once_per_automorphism(monkeypatch):
    # |twisted| |fixed| = |G|, so the product covers G iff every element has
    # one factorization: the unique-decomposition check reads the cover that
    # the factorization check counted, on every nilpotent instance; a phi
    # that acts trivially is counted by neither
    counted = []
    count = automorphisms._factorization_counts

    def counting(td):
        counted.append(td)
        return count(td)

    monkeypatch.setattr(automorphisms, "_factorization_counts", counting)
    nilpotent = 0
    for spec in default_corpus()["instances"]:
        counted.clear()
        auto = analyze_instance(spec)["automorphism"]
        acts = auto is not None and auto["coprime"] and auto["commutator_order"] > 1
        assert len(counted) == acts, spec["id"]
        nilpotent += auto is not None and auto["unique_decomposition"] == "pass"
    assert nilpotent >= 17


def test_an_id_that_spells_a_verdict_is_not_counted(tmp_path, capsys):
    # ids "fail" and "pass" give the summary and exit code of id "ok"
    outcomes = {}
    for name in ("ok", "fail", "pass"):
        corpus = {"schema": 1, "instances": [{"id": name, "name": "cyclic", "params": {"m": 2}}]}
        bundle, code = run_suite(corpus)
        assert main(["suite", _write(tmp_path, "corpus.json", corpus)]) == code
        printed = json.loads(capsys.readouterr().out)
        assert printed == bundle
        outcomes[name] = code, bundle["summary"]
    assert outcomes["ok"][1]["hard_failures"] == []
    assert outcomes["fail"] == outcomes["pass"] == outcomes["ok"]


def test_theorem1_closes_one_subgroup_per_orbit_glauberman(closures):
    # fixed elements need no closure; one twisted orbit representative is
    # closed at a time until e_star reaches exp([G, phi])
    G, phi = build_glauberman_example()
    assert theorem1_probe(phi)["e_star"] == G.exponent_of(twisted_data(phi).commutator_phi.members)
    assert len(closures) == 3


def _corpus_spec(inst_id):
    return next(s for s in default_corpus()["instances"] if s["id"] == inst_id)


def _check_pair_walks(G, phi) -> bool:
    """Compare ``fixed_generation_S`` and the full-mode ``theorem2_probe`` with
    the all-pairs oracles wherever their preconditions hold. True if either
    walk was checked."""
    if phi is None or not phi.coprime:
        return False
    td = twisted_data(phi)
    theorem2 = report._or_skip(theorem2_probe, phi)
    nilpotent = lower_central_series(G).is_nilpotent
    if nilpotent:
        # in place on [G, phi], against the unreduced walk on its re-enumeration
        rphi = restrict_automorphism(phi, td.commutator_phi)[1]
        assert fixed_generation_S(phi) == all_pairs_fixed_generation_S(rphi)
    if theorem2 == "skipped: fixed-point subgroup is not nilpotent":
        return nilpotent
    d = all_pairs_derived_length(phi)
    if d is None:
        assert theorem2 == "skipped: a twisted-pair closure is insoluble"
    else:
        assert theorem2["d"] == d
    return True


def test_pair_walks_match_all_pairs_oracle_on_corpus():
    checked = [spec["id"] for spec in default_corpus()["instances"]
               if _check_pair_walks(*build_corpus_instance(spec))]
    assert len(checked) >= 20


def _template(group, powers):
    recipe = ({"recipe": "power", "k": powers} if isinstance(powers, int)
              else {"recipe": "gen_powers", "powers": list(powers)})
    return {**group, "automorphism": recipe}


MOD7_ORD3 = _template(modular_spec(7), (30, 1))

# The six groups of the benchmark's nilpotent_pairs corpus, each with the
# automorphism its seeds generate the cyclic group of.
NILPOTENT_PAIRS = {
    "heis7_ord6": _template(heisenberg_spec(7), (3, 5)),
    "heis5_ord4": _template(heisenberg_spec(5), 2),
    "c125_ord4": _template(cyclic_spec(125), 57),
    "mod7_ord3": MOD7_ORD3,
    "heis3_c9_inv": _template(product_spec(heisenberg_spec(3), cyclic_spec(9)), -1),
    "c25_c5_ord4": _template(product_spec(cyclic_spec(25), cyclic_spec(5)), (7, 2)),
}


@pytest.mark.parametrize("inst_id", NILPOTENT_PAIRS)
def test_pair_walks_match_all_pairs_oracle_on_nilpotent_templates(inst_id):
    assert _check_pair_walks(*build_corpus_instance(NILPOTENT_PAIRS[inst_id]))


def _check_probe_bounds(G, phi) -> bool:
    """Check the facts the probe walks stop on: a fixed x closes to <x>, and
    every twisted pair closure the all-pairs oracle builds lies in [G, phi];
    the second wherever theorem 2 walks, that is where C_G(phi) is nilpotent.
    True if phi is coprime, so that the facts were checked."""
    if phi is None or not phi.coprime:
        return False
    td = twisted_data(phi)
    for x in td.fixed.members:
        assert phi_invariant_closure(phi, {x}).order == G.element_order(x)
    if lower_central_series(G, td.fixed).is_nilpotent:
        inside = td.commutator_phi.member_set
        assert all(K.member_set <= inside for K in _all_twisted_pair_closures(phi))
    return True


def test_probe_bounds_hold_on_corpus():
    checked = [spec["id"] for spec in default_corpus()["instances"]
               if _check_probe_bounds(*build_corpus_instance(spec))]
    assert len(checked) >= 20


@pytest.mark.parametrize("inst_id", NILPOTENT_PAIRS)
def test_probe_bounds_hold_on_nilpotent_templates(inst_id):
    assert _check_probe_bounds(*build_corpus_instance(NILPOTENT_PAIRS[inst_id]))


def test_one_corpus_pass_closes_a_pinned_number_of_subgroups(closures):
    run_suite(default_corpus())
    assert len(closures) == 118


def test_one_derived_series_of_commutator_phi_per_instance(monkeypatch):
    # the automorphism section reads the derived length of [G, phi] for
    # every phi, and theorem 2 and a pair closure equal to [G, phi] read
    # the same cached length
    seen = []
    inner = structure.derived_series

    def counting(G, H=None):
        if H is not None:
            seen.append(H.member_set)
        return inner(G, H)

    monkeypatch.setattr(automorphisms, "derived_series", counting)
    monkeypatch.setattr(report, "derived_series", counting)
    counts = {}
    for spec in default_corpus()["instances"]:
        seen.clear()
        analyze_instance(spec)
        phi = build_corpus_instance(spec)[1]
        if phi is not None:
            counts[spec["id"]] = seen.count(twisted_data(phi).commutator_phi.member_set)
    assert set(counts.values()) == {1} and len(counts) == 29


def test_theorem2_derives_each_distinct_pair_closure_once(monkeypatch):
    # heis5_inv's pair walk meets 7 of its closures twice, heis3_inv and
    # heis3_c5_inv one each: 9 calls more if the walk kept no derived length
    # per distinct closure. [G, phi] counts once for each of the 29 instances
    # with an automorphism.
    seen = []
    inner = structure.derived_series

    def counting(G, H=None):
        if H is not None:
            seen.append(H.member_set)
        return inner(G, H)

    monkeypatch.setattr(automorphisms, "derived_series", counting)
    monkeypatch.setattr(report, "derived_series", counting)
    total = 0
    for spec in default_corpus()["instances"]:
        seen.clear()
        analyze_instance(spec)
        assert len(set(seen)) == len(seen), spec["id"]
        total += len(seen)
    assert total == 62


def test_theorem2_stops_at_the_derived_length_of_commutator_phi(closures):
    # mod7_ord3 has derived length 2, but [G, phi] is abelian: the walk stops
    # at d = 1, after the trivial pair closure and one more
    G, phi = build_corpus_instance(MOD7_ORD3)
    orbits = set()
    for t in {G.mul(G.inv(x), phi.table[x]) for x in range(G.order)}:
        orbit, y = {t}, phi.table[t]
        while y != t:
            orbit.add(y)
            y = phi.table[y]
        orbits.add(frozenset(orbit))
    r = len(orbits)
    walked = [K.member_set for K in twisted_pair_closures(phi, twisted_data(phi))]
    assert len(walked) == r * (r + 1) // 2
    assert set(walked) == {frozenset(generated_members(G, a | b))
                           for a in orbits for b in orbits}
    closures.clear()
    assert theorem2_probe(phi)["d"] == 1
    assert len(closures) == 2


def _q8_ord3():
    G = quaternion_group()
    return G, build_automorphism(G, [(2,), (1, 2)])  # i -> j -> k, fixing -1


# Closures built by fixed_generation_S (None where G is not nilpotent) and then
# by theorem2_probe, each walk on its own: one per pair of <phi>-orbits until S
# is all of C_G(phi) and d is the derived length of [G, phi].
@pytest.mark.parametrize("build, by_generation, by_theorem2", [
    (lambda: build_corpus_instance(_corpus_spec("heis3_inv")), 7, 7),
    (lambda: build_corpus_instance(_corpus_spec("aff8_frob")), None, 3),
    (lambda: build_corpus_instance(NILPOTENT_PAIRS["heis5_ord4"]), 0, 35),
    (_q8_ord3, 2, 2),
], ids=["heis3_inv", "aff8_frob", "heis5_ord4", "q8_ord3"])
def test_pair_walks_close_a_pinned_number_of_subgroups(build, by_generation, by_theorem2,
                                                       closures):
    G, phi = build()
    if by_generation is not None:
        assert fixed_generation_S(phi)["generates"] is True
        assert len(closures) == by_generation
        closures.clear()
    theorem2_probe(phi)
    assert len(closures) == by_theorem2


def test_theorem2_c7():
    out = theorem2_probe(c7_phi())
    assert out["c"] == 0          # trivial fixed subgroup
    assert out["d"] == 1
    assert out["e"] == 7
    phi = c7_phi()
    assert report._auto_section(phi.group, phi)["commutator_exponent"] == 7


def test_theorem2_identity_phi(c9):
    phi = identity_automorphism(c9)
    assert theorem2_probe(phi)["e"] == 1
    section = report._auto_section(c9, phi)
    assert section["commutator_exponent"] == 1 and section["commutator_derived_length"] == 0


def test_theorem2_skips_non_nilpotent_fixed(s5):
    with pytest.raises(NotNilpotent, match="^fixed-point subgroup is not nilpotent$"):
        theorem2_probe(identity_automorphism(s5))
    rep = analyze_instance({"name": "symmetric", "params": {"m": 5},
                            "automorphism": {"recipe": "identity"}})
    assert rep["probes"]["theorem2"] == "skipped: fixed-point subgroup is not nilpotent"


def test_thompson_probe(s3, s5):
    out = thompson_probe(identity_automorphism(s3))
    assert out == {"omega_n": 0, "n": 1, "fitting_height": 2}
    with pytest.raises(NotSoluble):
        thompson_probe(identity_automorphism(s5))


def test_thompson_glauberman(glauberman):
    _, phi = glauberman
    out = thompson_probe(phi)
    assert out == {"omega_n": 1, "n": 3, "fitting_height": 2}


def test_probes_require_coprime():
    phi = build_corpus_instance({"name": "affine", "params": {"p": 3, "k": 2},
                                 "automorphism": {"recipe": "frobenius"}})[1]
    with pytest.raises(NotCoprime):
        theorem1_probe(phi)


def test_analyze_instance_shape():
    rep = analyze_instance({"id": "probe", "name": "heisenberg", "params": {"p": 3},
                            "automorphism": {"recipe": "power", "k": -1}})
    assert rep["id"] == "probe"
    assert rep["group"]["order"] == 27
    assert rep["lie"]["layer_dims"] == [2, 1]
    counts = count_verdicts(rep)
    assert counts["fail"] == 0
    assert rep["automorphism"]["unique_decomposition"] == "pass"


def test_run_suite_empty():
    bundle, code = run_suite({"schema": 1, "instances": []})
    assert code == 0
    assert bundle["summary"]["instance_count"] == 0


@pytest.mark.parametrize("corpus, err", [
    ({"schema": True, "instances": []}, "schema: expected int, got True"),
    ({"schema": 1.0, "instances": []}, "schema: expected int, got 1.0"),
    ({"instances": []}, "schema: missing"),
    ({"schema": 2, "instances": []}, "schema: unsupported corpus schema 2"),
    ({"schema": 1, "instances": {"name": "cyclic"}},
     "instances: expected list, got {'name': 'cyclic'}"),
    ({"schema": 1, "instances": [{"name": "cyclic", "params": {"m": 3}}, {"id": "x"}]},
     "instances[1]: lacks a 'name' or 'degree'"),
    ({"schema": 1, "instances": [7]}, "instances[0]: lacks a 'name' or 'degree'"),
], ids=["schema-true", "schema-float", "schema-missing", "schema-2", "instances-object",
        "instance-unnamed", "instance-int"])
def test_cli_suite_refuses_a_malformed_corpus_naming_its_path(tmp_path, capsys, corpus, err):
    assert main(["suite", _write(tmp_path, "corpus.json", corpus)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_corpus_that_is_no_object_is_refused(tmp_path, capsys):
    # the command refuses the file before the suite sees it
    path = _write(tmp_path, "corpus.json", [{"name": "cyclic", "params": {"m": 3}}])
    assert main(["suite", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: top-level JSON value must be an "
                                       f"object\n")
    with pytest.raises(ParseError, match="^corpus must be a JSON object$"):
        run_suite([{"name": "cyclic", "params": {"m": 3}}])


def test_run_suite_mini_and_determinism():
    corpus = {"schema": 1, "instances": [
        {"id": "a", "name": "cyclic", "params": {"m": 7},
         "automorphism": {"recipe": "power", "k": 2}},
        {"id": "noncoprime", "name": "affine", "params": {"p": 3, "k": 2},
         "automorphism": {"recipe": "frobenius"}},
        {"id": "b", "name": "symmetric", "params": {"m": 3},
         "automorphism": {"recipe": "identity"}},
    ]}
    b1, c1 = run_suite(corpus)
    b2, c2 = run_suite(corpus)
    assert c1 == c2 == 0
    assert canonical_json(b1) == canonical_json(b2)
    noncoprime = b1["instances"][1]
    assert noncoprime["automorphism"]["factorization"].startswith("skipped:")
    assert b1["instances"][0]["id"] == "a"


def test_run_suite_cap_exceeded_marks_skip(monkeypatch):
    monkeypatch.setattr("coprimelab.corpus.DEFAULT_CAP", 3)
    corpus = {"schema": 1, "instances": [
        {"id": "big", "name": "cyclic", "params": {"m": 7}}]}
    bundle, code = run_suite(corpus)
    assert code == 0
    assert bundle["instances"][0]["skipped"].startswith("cap exceeded")
    assert bundle["summary"]["skipped"] == 1


def test_run_suite_parallel_matches_serial():
    corpus = {"schema": 1, "instances": [
        {"id": "x", "name": "cyclic", "params": {"m": 9},
         "automorphism": {"recipe": "power", "k": -1}},
        {"id": "y", "name": "dihedral", "params": {"m": 4},
         "automorphism": {"recipe": "identity"}},
        {"id": "z", "name": "heisenberg", "params": {"p": 3},
         "automorphism": {"recipe": "power", "k": -1}},
    ]}
    serial, c1 = run_suite(corpus, jobs=1)
    parallel, c2 = run_suite(corpus, jobs=2)
    assert canonical_json(serial) == canonical_json(parallel)
    assert c1 == c2


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100000, 8, [3]), (2, 8, [2]), (100000, 2, [2]), (100000, 1, []), (1, 8, [])])
def test_run_suite_pool_is_bounded_by_instances_and_cpus(jobs, cpus, workers, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(report.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    corpus = {"schema": 1, "instances": [
        {"id": str(m), "name": "cyclic", "params": {"m": m}} for m in (2, 3, 5)]}
    bundle, code = run_suite(corpus, jobs=jobs)
    assert _RecordingPool.sizes == workers
    assert code == 0 and [rep["id"] for rep in bundle["instances"]] == ["2", "3", "5"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_suite_rejects_jobs_below_one(jobs, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert main(["suite", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert f"--jobs {jobs}" in captured.err and captured.out == ""


def test_raw_spec_id_is_a_string_analysed_and_skipped(monkeypatch):
    spec = {"degree": 3, "generators": [[1, 2, 0]], "id": 5}
    assert analyze_instance(spec)["id"] == "5"
    corpus = {"schema": 1, "instances": [spec]}
    for cap, key in ((3, "group"), (2, "skipped")):
        monkeypatch.setattr("coprimelab.corpus.DEFAULT_CAP", cap)
        bundle, _ = run_suite(corpus)
        assert bundle["instances"][0]["id"] == "5" and key in bundle["instances"][0]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_info(tmp_path, capsys):
    path = _write(tmp_path, "c9.json", {"name": "cyclic", "params": {"m": 9}})
    assert main(["info", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 9 and out["exponent"] == 9
    assert out["is_nilpotent"] and out["nilpotency_class"] == 1


def test_cli_auto(tmp_path, capsys):
    path = _write(tmp_path, "c7.json", {"name": "cyclic", "params": {"m": 7},
                                        "automorphism": {"recipe": "power", "k": 2}})
    assert main(["auto", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 3
    assert out["factorization"]["product_covers"] is True


def test_cli_decompose(tmp_path, capsys):
    path = _write(tmp_path, "c3c3.json",
                  {"name": "direct_product",
                   "params": {"factors": [{"name": "cyclic", "params": {"m": 3}},
                                          {"name": "cyclic", "params": {"m": 3}}]},
                   "automorphism": {"recipe": "swap"}})
    assert main(["decompose", path, "--element", "1,2,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] == "pass"
    assert out["fixed_part"] == 0


def test_cli_lie(tmp_path, capsys):
    path = _write(tmp_path, "h3.json", {"name": "heisenberg", "params": {"p": 3}})
    assert main(["lie", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["layer_dims"] == [2, 1]
    assert out["lie_class"] == 2
    assert out["lazard"] == "pass" and out["riley"] == "pass"


def test_cli_eigen(tmp_path, capsys):
    path = _write(tmp_path, "gf125.json",
                  {"name": "direct_product",
                   "params": {"factors": [{"name": "cyclic", "params": {"m": 5}}] * 3},
                   "automorphism": {"recipe": "frobenius"}})
    assert main(["eigen", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [[1, 1, 1]]
    assert out["field_degree"] == 2


def test_cli_info_exits_1_on_a_failing_class_bound(tmp_path, capsys, monkeypatch):
    # G^(k) <= gamma_(2^k) makes the bound hold on every nilpotent group, so
    # only a patched class can fail it: heis3 has derived length 2 > 0, the
    # bound for class 0
    path = _write(tmp_path, "h3.json", heisenberg_spec(3))
    monkeypatch.setattr(report, "require_nilpotent",
                        lambda G: types.SimpleNamespace(nilpotency_class=0))
    assert main(["info", path]) == 1
    assert json.loads(capsys.readouterr().out)["derived_length_class_bound"] == "fail"


def test_cli_lie_exits_1_on_a_failing_np_series(tmp_path, capsys, monkeypatch):
    # lazard and riley pass; the np_series verdict alone decides the exit
    path = _write(tmp_path, "h3.json", heisenberg_spec(3))
    monkeypatch.setattr(report, "verify_np_series", lambda series: ("power", 1))
    assert main(["lie", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["np_series"] == "fail"
    assert out["lazard"] == "pass" and out["riley"] == "pass"


def test_cli_suite_exits_1_on_a_failing_fixed_subalgebra(tmp_path, capsys, monkeypatch):
    # the count reads as failed on every Jennings section below layer 1, so
    # heis3_inv's central layer fails, and c5_pow2, with one layer, does not
    real = automorphisms._bare_fixed_coset

    def failing(phi, K, N):
        return K.members[-1] if K.order < phi.group.order else real(phi, K, N)

    monkeypatch.setattr(automorphisms, "_bare_fixed_coset", failing)
    corpus = {"schema": 1, "instances": [_corpus_spec("c5_pow2"), _corpus_spec("heis3_inv")]}
    assert main(["suite", _write(tmp_path, "corpus.json", corpus)]) == 1
    out, err = capsys.readouterr()
    bundle = json.loads(out)
    assert bundle["summary"]["fail"] == 1
    assert bundle["summary"]["hard_failures"] == ["heis3_inv"]
    assert bundle["instances"][1]["lie"]["fixed_subalgebra"] == "fail"
    assert "1 fail" in err


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_cli_an_unreadable_file_exits_2_naming_its_path(tmp_path, capsys, kind):
    path = tmp_path / "instance.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "cyclic", "params": {"m": 2}, "id": "\xff"}')
    assert main(["info", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ")


def test_cli_auto_skips_fixed_generation_above_the_pair_cap(tmp_path, capsys, monkeypatch):
    # heisenberg(3) under inversion: [G, phi] = G has 9 twisted elements in 5
    # <phi>-orbits, so 15 orbit pairs
    path = _write(tmp_path, "h3.json", {"name": "heisenberg", "params": {"p": 3},
                                        "automorphism": {"recipe": "power", "k": -1}})
    monkeypatch.setattr(report, "PAIR_CAP", 15)
    assert main(["auto", path]) == 0
    assert json.loads(capsys.readouterr().out)["fixed_generation"]["generates"] == "pass"
    monkeypatch.setattr(report, "PAIR_CAP", 14)
    assert main(["auto", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fixed_generation"] == "skipped: 15 orbit pairs above the pair cap"


def test_one_pair_cap_counts_orbit_pairs_for_theorem2_and_fixed_generation(monkeypatch,
                                                                           closures):
    # heisenberg(5) under inversion: [G, phi] = G, so the restriction is phi
    # itself; its 25 twisted elements lie in 13 <phi>-orbits, 91 orbit pairs
    monkeypatch.setattr(report, "PAIR_CAP", 91)
    G, phi = build_corpus_instance(HEIS5_INV)
    assert report._auto_section(G, phi)["fixed_generation"]["generates"] == "pass"
    assert theorem2_probe(phi)["d"] == 2
    monkeypatch.setattr(report, "PAIR_CAP", 90)
    G, phi = build_corpus_instance(HEIS5_INV)
    closures.clear()
    reason = "91 orbit pairs above the pair cap"
    assert report._auto_section(G, phi)["fixed_generation"] == f"skipped: {reason}"
    assert theorem2_probe(phi) == f"skipped: {reason}"
    assert not closures


def test_suite_on_c5_to_the_fifth_walks_its_pairs_exactly(tmp_path, capsys, closures):
    # 3125 twisted elements in 783 <phi>-orbits: m^2 is above the pair cap,
    # the 306,936 orbit pairs are not, and both walks stop early
    path = _write(tmp_path, "corpus.json", {"schema": 1, "instances": [C5_POW5]})
    assert main(["suite", path]) == 0
    rep = json.loads(capsys.readouterr().out)["instances"][0]
    assert rep["probes"]["theorem2"]["d"] == 1
    assert "d_is_lower_bound" not in rep["probes"]["theorem2"]
    assert rep["automorphism"]["fixed_generation"]["generates"] == "pass"
    # fixed_generation needs no closure (C_G(phi) is trivial); each probe
    # closes the trivial subgroup and one of order 5, which reaches its bound
    G, phi = build_corpus_instance(C5_POW5)
    closures.clear()
    report._auto_section(G, phi)
    assert len(closures) == 0
    report._probe_section(phi)
    assert len(closures) == 4


# G has derived length 2, but [G, phi] is abelian of exponent 25. A theorem 2
# walk bounded by G closes all 13,366 orbit pairs here.
MOD5_C25 = _template(product_spec(modular_spec(5), cyclic_spec(25)), (-7, 1, -1))


def test_suite_on_mod5_c25_stops_both_walks_at_the_commutator_phi_bounds(tmp_path, capsys,
                                                                         closures):
    path = _write(tmp_path, "corpus.json", {"schema": 1, "instances": [MOD5_C25]})
    assert main(["suite", path]) == 0
    probes = json.loads(capsys.readouterr().out)["instances"][0]["probes"]
    assert probes["theorem2"]["d"] == 1
    assert probes["theorem1"]["e_star"] == 25
    G, phi = build_corpus_instance(MOD5_C25)
    for probe in (theorem1_probe, theorem2_probe):
        closures.clear()
        probe(phi)
        assert len(closures) <= 2, probe.__name__


def test_the_automorphism_keeps_no_memo_that_grows_with_the_walks():
    G, phi = build_corpus_instance(C5_POW5)
    report._auto_section(G, phi)
    report._probe_section(phi)
    assert set(vars(phi)) == {"group", "table", "order_n", "_twisted"}


@pytest.mark.parametrize("spec_id, proper", [("mod27_inv", True), ("heis3_inv", False)])
def test_dropping_phi_frees_its_twisted_data_without_the_cycle_collector(monkeypatch, spec_id,
                                                                          proper):
    # the twisted data holds G and phi's table, never phi, and the data of
    # phi on [G, phi] = G is the data itself, never stored as its own inner
    # data: reference counting alone frees all of it once phi and G go
    loaded = []
    load = report.load_instance

    def kept(spec):
        loaded.append(load(spec))
        return loaded[-1]

    monkeypatch.setattr(report, "load_instance", kept)
    gc.disable()
    try:
        analyze_instance(_corpus_spec(spec_id))
        G, phi, _ = loaded.pop()
        td = twisted_data(phi)
        inner = automorphisms.commutator_twisted_data(phi)
        assert (inner is not td) == proper == (td.commutator_phi.order < G.order)
        refs = [weakref.ref(obj) for obj in (td, inner, G)]
        del G, phi, td, inner
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_suite_and_lie_agree_on_lazard_at_order_3125(tmp_path, capsys):
    spec = product_spec(heisenberg_spec(5), cyclic_spec(25))
    path = _write(tmp_path, "heis5_c25.json", spec)
    assert main(["lie", path]) == 0
    lazard = json.loads(capsys.readouterr().out)["lazard"]
    path = _write(tmp_path, "corpus.json", {"schema": 1, "instances": [spec]})
    assert main(["suite", path]) == 0
    rep = json.loads(capsys.readouterr().out)["instances"][0]
    assert rep["group"]["order"] == 3125
    assert rep["lie"]["lazard"] == lazard == "pass"


# SHA-256 of each `lie` and `eigen` stdout kept in tests/golden/, structure
# constants and moduli included, which the suite bundle does not carry.
STDOUT_SHA256 = {
    "heis5-lie": "89a7443ec6df7f5d3ddd4a1f7276110f3bed3e9d7c91ec7d089089a21aaf0426",
    "heis5-eigen": "fda4e81672a1920cadc52a74fd6c775ac9d270249c925c0b1be3e5eff600f913",
    "heis3xc9-lie": "dd5b84e2079c7f96e925fc07c217321a0c3af9353d8b6fabd0b0b81be9480c68",
    "heis3xc9-eigen": "29d21c3abb2367bc64aaa2389e2ead7be3e0ad24bcadcadda82c03c2cc09477c",
    "c5^5-lie": "098de2fe9934c5beb17acdbc91203d81485f6cb2c1c29d7c19c61f54f8546a0f",
    "c5^5-eigen": "3a6aaa2f25394f9ebdb2b604ea4d15cc600efdb71c6c79c484a3148aed5cdb06",
    "c2quad_m5-eigen": "407c1d1a6d343ba6ed9aa7321fcfa5cd9a36153fad31932cec15cdca51099686",
    "c2cube_m7-eigen": "8dcfdf8bbf2fbe8aa3a0e99852449aef529a1010e884e26928a572f4a445d46b",
}


@pytest.mark.parametrize("stem", STDOUT_PINS)
def test_cli_lie_eigen_stdout_pins(tmp_path, capsys, stem):
    golden = (GOLDEN / f"{stem}.json").read_text(encoding="ascii")
    assert hashlib.sha256(golden.encode("ascii")).hexdigest() == STDOUT_SHA256[stem]
    command, spec = STDOUT_PINS[stem]
    assert main([command, _write(tmp_path, "spec.json", pinned_spec(spec))]) == 0
    out = capsys.readouterr().out
    assert out == golden, "\n".join(json_differences(json.loads(golden), json.loads(out), stem))


def _usage_error(argv, capsys) -> str:
    """The stderr of an argparse usage error, which exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_cli_lie_rejects_bad_p(tmp_path, capsys):
    # lie takes p from the group order: --p is no option of it
    path = _write(tmp_path, "c9.json", {"name": "cyclic", "params": {"m": 9}})
    for p in ("3", "5", "0"):
        assert "unrecognized arguments: --p" in _usage_error(["lie", path, "--p", p], capsys)


def _readme_commands() -> dict:
    """Command -> the flags its line in README's command block shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        commands[words[1]] = {w.strip("[]").split("=")[0] for w in words[2:]
                              if w.strip("[]").startswith("--")}
    return commands


def test_readme_command_block_shows_every_flag_of_the_parser():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    flags = {name: {opt for action in sub._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")} for name, sub in subparsers.items()}
    assert flags == _readme_commands()


def test_cli_takes_no_cap(tmp_path, capsys):
    # the enumeration cap is the constant groups.DEFAULT_CAP: --cap is no option
    path = _write(tmp_path, "c5.json", C5)
    assert "unrecognized arguments: --cap 5" in _usage_error(["info", path, "--cap", "5"],
                                                              capsys)


def test_cli_eigen_rejects_bad_n(tmp_path, capsys):
    # eigen splits by the order of phi: --n is no option of it
    path = _write(tmp_path, "h5.json", HEIS5_INV)
    for n in ("2", "4", "8"):
        assert "unrecognized arguments: --n" in _usage_error(["eigen", path, "--n", n], capsys)


def test_default_root_order_above_the_field_degree_bound_is_refused(tmp_path, capsys):
    # phi of order 6141 needs GF(2^22): eigen names the automorphism at once,
    # and the suite skips the eigen split and keeps the rest of its report
    path = _write(tmp_path, "deg22.json", C2_13_ORDER_6141)
    start = time.perf_counter()
    assert main(["eigen", path]) == 2
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: automorphism: roots of unity of order 6141 need an "
                                 "extension of F_2 of degree above 21\n"), err
    path = _write(tmp_path, "corpus.json", {"schema": 1, "instances": [C2_13_ORDER_6141]})
    assert main(["suite", path]) == 0
    lie = json.loads(capsys.readouterr().out)["instances"][0]["lie"]
    assert lie["eigen"] == ("skipped: roots of unity of order 6141 need an "
                            "extension of F_2 of degree above 21")
    assert lie["fixed_subalgebra"] == "pass"


class _SplitReached(Exception):
    """Raised in place of the eigen split."""


def test_default_root_order_of_field_degree_21_reaches_the_split(tmp_path, monkeypatch):
    # phi of order 889 needs GF(2^21), the largest field allowed: the
    # command and the report both go on to the split, which they both reach
    # through the report's eigen fields
    def split(A, phi):
        raise _SplitReached

    monkeypatch.setattr(report, "extend_and_eigendecompose", split)
    with pytest.raises(_SplitReached):
        main(["eigen", _write(tmp_path, "deg21.json", C2_10_ORDER_889)])
    with pytest.raises(_SplitReached):
        analyze_instance(C2_10_ORDER_889)


def test_eigen_and_the_suite_split_alike(tmp_path, capsys):
    # every p-group here with a coprime phi gets the same split from eigen as
    # from the report's lie section, and the same six shared fields from lie;
    # the section skips the split of a phi that acts trivially, and eigen not
    workloads = load_workloads()
    specs = (default_corpus()["instances"] + workloads.nilpotent_corpus(1)["instances"]
             + list(workloads.cli_plan(1)["files"].values()))
    path = str(tmp_path / "spec.json")
    checked = trivial = 0
    for spec in specs:
        G, phi = build_corpus_instance(spec)
        if phi is None or not phi.coprime or prime_power_base(G.order) is None:
            continue
        _write(tmp_path, "spec.json", spec)
        section = analyze_instance(spec)["lie"]
        assert main(["eigen", path]) == 0, spec["id"]
        out = json.loads(capsys.readouterr().out)
        if twisted_data(phi).commutator_phi.is_trivial:
            assert section["eigen"] == "skipped: phi acts trivially", spec["id"]
            trivial += 1
        else:
            assert {k: out[k] for k in section["eigen"]} == section["eigen"], spec["id"]
        assert main(["lie", path]) == 0, spec["id"]
        out = json.loads(capsys.readouterr().out)
        del out["structure_constants"]
        assert len(out) == 6 and out == {k: section[k] for k in out}, spec["id"]
        checked += 1
    assert checked - trivial >= 25 and trivial >= 5, (checked, trivial)


def test_cli_missing_parameter_names_its_path(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"name": "cyclic", "params": {}})
    assert main(["info", path]) == 2
    assert "params.m" in capsys.readouterr().err
    corpus = {"schema": 1, "instances": [
        {"name": "cyclic", "params": {"m": 3}},
        {"name": "direct_product", "params": {"factors": [{"name": "cyclic"}]}}]}
    path = _write(tmp_path, "corpus.json", corpus)
    assert main(["suite", path]) == 2
    assert "instances[1].params.factors[0].params.m: missing" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"name": "cyclic", "params": {"m": 0}},
    {"degree": 3, "generators": [[0, 0, 1]]},
    {"name": "cyclic", "params": {"m": 4}, "automorphism": {"recipe": "power", "k": 2}},
], ids=["UnknownSpec", "InvalidPermutation", "NotBijective"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_suite_load_errors_are_input_errors(tmp_path, capsys, spec, jobs):
    corpus = {"schema": 1, "instances": [{"name": "cyclic", "params": {"m": 3}}, spec]}
    path = _write(tmp_path, "corpus.json", corpus)
    assert main(["suite", path, "--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: instances[1]."), err


def test_cli_info_and_auto_print_their_analysis_sections(tmp_path, capsys):
    for spec in default_corpus()["instances"]:
        report = analyze_instance(spec)
        path = _write(tmp_path, "spec.json", spec)
        assert main(["info", path]) == 0
        assert capsys.readouterr().out == canonical_json(report["group"]) + "\n", spec["id"]
        if report["automorphism"] is None:
            assert main(["auto", path]) == 2
            assert capsys.readouterr().err == "error: automorphism: missing\n"
            continue
        assert main(["auto", path]) == 0
        assert capsys.readouterr().out == canonical_json(report["automorphism"]) + "\n", \
            spec["id"]


C3 = {"name": "cyclic", "params": {"m": 3}}
C5 = {"name": "cyclic", "params": {"m": 5}}
C5_AUTO = {**C5, "automorphism": {"recipe": "power", "k": 2}}
INFO = ["info", "FILE"]


@pytest.mark.parametrize("spec, location, command", [
    ({"name": "cyclic", "params": 5}, "params", INFO),
    ({"name": "direct_product", "params": {"factors": 5}}, "params.factors", INFO),
    ({**C5, "automorphism": 7}, "automorphism", INFO),
    ({"name": "direct_product", "params": {"factors": [C3, C3]},
      "automorphism": {"recipe": "swap", "blocks": [0, 5]}}, "automorphism.blocks", INFO),
    ({"name": "cyclic", "params": {"m": "x"}}, "params.m", INFO),
    ({**C5, "automorphism": {"recipe": "power", "k": "z"}}, "automorphism.k", INFO),
    ({"degree": "a", "generators": []}, "degree", INFO),
    ({**C5, "automorphism": {"images": [[1], [1]]}}, "automorphism.images", INFO),
    ({**C5, "automorphism": {"images": [[7]]}}, "automorphism.images", INFO),
    (C5_AUTO, "--element", ["decompose", "FILE", "--element", "3"]),
], ids=["params", "factors", "automorphism", "blocks", "m", "k", "degree", "image-count",
        "image-entry", "element"])
def test_cli_malformed_input_names_its_location(tmp_path, capsys, spec, location, command):
    path = _write(tmp_path, "bad.json", spec)
    assert main([path if arg == "FILE" else arg for arg in command]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(location)}[: ]", err), err


C4_CUBE = {"name": "cyclic", "params": {"m": 4}, "automorphism": {"recipe": "power", "k": 3}}
D3_IDENTITY = {"name": "dihedral", "params": {"m": 3},
               "automorphism": {"recipe": "power", "k": 1}}


@pytest.mark.parametrize("spec, command, location", [
    (C4_CUBE, ["eigen", "FILE"], "automorphism"),
    (C4_CUBE, ["decompose", "FILE", "--element=1"], "automorphism"),
    (D3_IDENTITY, ["decompose", "FILE", "--element=1"], "FILE"),
    (D3_IDENTITY, ["eigen", "FILE"], "FILE"),
    (C5, ["auto", "FILE"], "automorphism"),
    ({"name": "symmetric", "params": {"m": 3}}, ["lie", "FILE"], "FILE"),
], ids=["eigen-p-divides-phi", "decompose-not-coprime", "decompose-not-nilpotent",
        "eigen-not-p-group", "auto-no-automorphism", "lie-not-p-group"])
def test_cli_unmet_precondition_is_an_input_error(tmp_path, capsys, spec, command, location):
    # a command whose hypotheses the input does not meet exits 2, naming the
    # automorphism or the file; exit 1 is for a check that fails
    path = _write(tmp_path, "spec.json", spec)
    assert main([path if arg == "FILE" else arg for arg in command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path if location == 'FILE' else location}: "), err


@pytest.mark.parametrize("spec, err", [
    ({"name": "heisenberg", "params": {"p": 3},
      "automorphism": {"recipe": "gen_powers", "powers": [2]}},
     "automorphism.powers: gen_powers needs 2 exponents"),
    ({"name": "direct_product",
      "params": {"factors": [C3, {"name": "dihedral", "params": {"m": 3}}]},
      "automorphism": {"recipe": "frobenius"}},
     "automorphism.recipe: frobenius needs cyclic(p)^k factors"),
    ({"name": "direct_product", "params": {"factors": [cyclic_spec(4), cyclic_spec(4)]},
      "automorphism": {"recipe": "frobenius"}},
     "automorphism.recipe: frobenius needs prime cyclic factors"),
], ids=["gen_powers-count", "frobenius-not-cyclic", "frobenius-not-prime"])
def test_cli_auto_refuses_a_recipe_that_does_not_apply(tmp_path, capsys, spec, err):
    path = _write(tmp_path, "spec.json", spec)
    assert main(["auto", path]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_cli_info_on_the_trivial_symmetric_group(tmp_path, capsys):
    path = _write(tmp_path, "s1.json", {"name": "symmetric", "params": {"m": 1}})
    assert main(["info", path]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 1


def test_cli_suite(tmp_path, capsys):
    corpus = {"schema": 1, "instances": [
        {"id": "a", "name": "cyclic", "params": {"m": 5},
         "automorphism": {"recipe": "power", "k": 2}}]}
    path = _write(tmp_path, "corpus.json", corpus)
    assert main(["suite", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["instance_count"] == 1
    assert out["summary"]["fail"] == 0


def test_cli_usage_and_input_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["info", str(bad)]) == 2
    capsys.readouterr()


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    from coprimelab import cli
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)  # earlier tests have built it
    monkeypatch.setattr(cli, "build_parser", counting)
    path = _write(tmp_path, "c9.json", {"name": "cyclic", "params": {"m": 9}})
    assert main(["info", path]) == 0
    assert main(["lie", path]) == 0
    assert len(built) == 1
    capsys.readouterr()


def _fresh_process(argv) -> tuple:
    """(exit code, stdout, stderr) of ``python -m coprimelab`` in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "coprimelab", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_no_state_carries_over_between_main_calls(tmp_path, capsys):
    # the trivial group has no characteristic: refused alike in-process and
    # in a fresh process
    trivial = _write(tmp_path, "c1.json", {"name": "cyclic", "params": {"m": 1}})
    code = main(["lie", trivial])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == _fresh_process(["lie", trivial])
    assert code == 2
    assert out.err == f"error: {trivial}: group order 1 is not a prime power\n"
    # a usage error exits through argparse, and the next command still runs
    with pytest.raises(SystemExit) as exc:
        main(["lie", trivial, "--p", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    heis = _write(tmp_path, "h3.json", {"name": "heisenberg", "params": {"p": 3}})
    code = main(["lie", heis])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == _fresh_process(["lie", heis])
    assert code == 0


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}'
