"""One rule per hypothesis: the coprime, nilpotent and soluble guards.

Every guarded public name refuses an input that lacks its hypothesis with
that hypothesis' one exception class, and the message is the wording that
the suite bundle prints after "skipped: ". The refused inputs are corpus
instances: aff9_frob (phi of order 2 on a group of order 72, so not
coprime), s3 (not nilpotent, and neither is its fixed-point subgroup under
the identity), aff8_frob (not nilpotent, with a phi that acts), glauberman
(whose fixed-point subgroup is not nilpotent) and s5 (insoluble). On s3 the
statements about phi print "phi acts trivially" instead, a guard that
raises nothing, so its rows read the group section and theorem 2. Two
invariant checks that fire in the middle of a computation are hard errors,
never skips.
"""

import json
import types

import pytest

from coprimelab import automorphisms, lie
from coprimelab.automorphisms import (Automorphism, check_coprime_facts, decomposition_witness,
                                      default_normal_family, factorization_status,
                                      fixed_generation_S, fixed_points_of_product,
                                      nilpotent_decompose, nilpotent_fixed_series,
                                      require_coprime)
from coprimelab.cli import main
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import NotCoprime, NotNilpotent, NotSoluble
from coprimelab.lie import build_graded_lie, jlz_series, lie_fixed_points, split_field_degree
from coprimelab.report import run_suite, theorem1_probe, theorem2_probe, thompson_probe
from coprimelab.structure import fitting_height, require_nilpotent, require_soluble
from regen_golden import GOLDEN


def _heis3_inner():
    """heisenberg(3) and conjugation by a generator, of order 3: the Lie
    algebra a non-coprime phi is refused on (aff9_frob is no p-group)."""
    G = build_corpus_instance({"name": "heisenberg", "params": {"p": 3}})[0]
    c = G.generator_indices[0]
    phi = Automorphism(G, [G.conjugate(g, c) for g in G.generator_indices])
    return build_graded_lie(jlz_series(G, 3)), phi


# (public name, its call on (G, phi), the refused corpus instance, the class
# raised, the bundle path of that instance that prints the wording)
GUARDS = [
    ("require_coprime", lambda G, phi: require_coprime(phi),
     "aff9_frob", NotCoprime, "probes.theorem1"),
    ("factorization_status", lambda G, phi: factorization_status(phi),
     "aff9_frob", NotCoprime, "automorphism.factorization"),
    ("check_coprime_facts", lambda G, phi: check_coprime_facts(phi),
     "aff9_frob", NotCoprime, "automorphism.coprime_facts"),
    ("default_normal_family", lambda G, phi: default_normal_family(phi),
     "aff9_frob", NotCoprime, "automorphism.product_fixed_points"),
    ("fixed_points_of_product", lambda G, phi: fixed_points_of_product(phi, []),
     "aff9_frob", NotCoprime, "automorphism.product_fixed_points"),
    ("nilpotent_decompose", lambda G, phi: nilpotent_decompose(phi, 0),
     "aff9_frob", NotCoprime, "automorphism.unique_decomposition"),
    ("decomposition_witness", lambda G, phi: decomposition_witness(phi),
     "aff9_frob", NotCoprime, "automorphism.unique_decomposition"),
    ("fixed_generation_S", lambda G, phi: fixed_generation_S(phi),
     "aff9_frob", NotCoprime, "automorphism.fixed_generation"),
    ("nilpotent_fixed_series", lambda G, phi: nilpotent_fixed_series(phi),
     "aff9_frob", NotCoprime, "automorphism.soluble_when_fixed_nilpotent"),
    ("theorem1_probe", lambda G, phi: theorem1_probe(phi),
     "aff9_frob", NotCoprime, "probes.theorem1"),
    ("theorem2_probe", lambda G, phi: theorem2_probe(phi),
     "aff9_frob", NotCoprime, "probes.theorem2"),
    ("thompson_probe", lambda G, phi: thompson_probe(phi),
     "aff9_frob", NotCoprime, "probes.thompson"),
    # 2 divides both |G| = 72 and the order of phi
    ("split_field_degree", lambda G, phi: split_field_degree(2, phi.order_n),
     "aff9_frob", NotCoprime, "probes.theorem1"),
    ("lie_fixed_points", lambda G, phi: lie_fixed_points(*_heis3_inner()),
     "aff9_frob", NotCoprime, "probes.theorem1"),
    ("require_nilpotent", lambda G, phi: require_nilpotent(G),
     "s3", NotNilpotent, "group.derived_length_class_bound"),
    ("nilpotent_decompose", lambda G, phi: nilpotent_decompose(phi, 0),
     "s3", NotNilpotent, "group.derived_length_class_bound"),
    ("decomposition_witness", lambda G, phi: decomposition_witness(phi),
     "s3", NotNilpotent, "group.derived_length_class_bound"),
    ("fixed_generation_S", lambda G, phi: fixed_generation_S(phi),
     "s3", NotNilpotent, "group.derived_length_class_bound"),
    ("nilpotent_fixed_series", lambda G, phi: nilpotent_fixed_series(phi),
     "s3", NotNilpotent, "probes.theorem2"),
    ("decomposition_witness", lambda G, phi: decomposition_witness(phi),
     "aff8_frob", NotNilpotent, "automorphism.unique_decomposition"),
    ("fixed_generation_S", lambda G, phi: fixed_generation_S(phi),
     "aff8_frob", NotNilpotent, "automorphism.fixed_generation"),
    ("nilpotent_fixed_series", lambda G, phi: nilpotent_fixed_series(phi),
     "glauberman", NotNilpotent, "automorphism.soluble_when_fixed_nilpotent"),
    ("theorem2_probe", lambda G, phi: theorem2_probe(phi),
     "s3", NotNilpotent, "probes.theorem2"),
    ("require_soluble", lambda G, phi: require_soluble(G),
     "s5", NotSoluble, "probes.thompson"),
    ("fitting_height", lambda G, phi: fitting_height(G),
     "s5", NotSoluble, "probes.thompson"),
    ("thompson_probe", lambda G, phi: thompson_probe(phi),
     "s5", NotSoluble, "probes.thompson"),
]


@pytest.fixture(scope="module")
def golden():
    lines = (GOLDEN / "suite.jsonl").read_text(encoding="ascii").splitlines()
    return {inst["id"]: inst for inst in map(json.loads, lines[:-1])}


@pytest.fixture(scope="module")
def refused():
    specs = {spec["id"]: spec for spec in default_corpus()["instances"]}
    return {inst_id: build_corpus_instance(specs[inst_id])
            for inst_id in ("aff9_frob", "s3", "aff8_frob", "glauberman", "s5")}


@pytest.mark.parametrize("name, call, inst_id, cls, path", GUARDS,
                         ids=[f"{row[0]}-{row[2]}" for row in GUARDS])
def test_every_guard_raises_its_class_with_the_wording_the_bundle_prints(
        name, call, inst_id, cls, path, golden, refused):
    with pytest.raises(cls) as info:
        call(*refused[inst_id])
    assert type(info.value) is cls
    printed = golden[inst_id]
    for key in path.split("."):
        printed = printed[key]
    assert f"skipped: {info.value}" == printed


def test_the_bundle_words_each_hypothesis_one_way(golden):
    wordings = set()

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str) and node.startswith("skipped:") and any(
                word in node for word in ("coprime", "nilpotent", "soluble")):
            wordings.add(node)

    walk(list(golden.values()))
    assert wordings == {"skipped: action is not coprime", "skipped: group is not nilpotent",
                        "skipped: fixed-point subgroup is not nilpotent",
                        "skipped: group is not soluble"}


HEIS3_INV = {"id": "heis3_inv", "name": "heisenberg", "params": {"p": 3},
             "automorphism": {"recipe": "power", "k": -1}}


def _assert_hard_error(tmp_path, capsys, command, message):
    """The suite writes a hard_error record for HEIS3_INV and exits 1, and
    so does ``command`` on its file, with ``message`` on stderr."""
    bundle, code = run_suite({"schema": 1, "instances": [HEIS3_INV]})
    assert code == 1
    assert bundle["instances"][0] == {"id": "heis3_inv", "verdict": "fail",
                                      "hard_error": f"PreconditionViolated: {message}"}
    path = tmp_path / "heis3_inv.json"
    path.write_text(json.dumps(HEIS3_INV), encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    assert f"invariant failure: PreconditionViolated: {message}" in capsys.readouterr().err


def test_a_commutator_invariant_failure_is_a_hard_error(monkeypatch, tmp_path, capsys):
    # [[G, phi], phi] read as trivial: the check in fixed_generation_S fires
    real = automorphisms.commutator_twisted_data

    def shrunk(phi):
        data = real(phi)
        return types.SimpleNamespace(**{**vars(data),
                                        "commutator_phi": phi.group.trivial_subgroup()})

    monkeypatch.setattr(automorphisms, "commutator_twisted_data", shrunk)
    _assert_hard_error(tmp_path, capsys, "auto", "[G, phi, phi] = [G, phi] required")


def test_a_filtration_invariant_failure_is_a_hard_error(monkeypatch, tmp_path, capsys):
    # phi read as sending a layer-2 basis element into layer 1
    real = lie.layer_matrices

    def broken(A, phi):
        table = list(phi.table)
        table[A.bases[1][0]] = A.bases[0][0]
        return real(A, types.SimpleNamespace(group=phi.group, table=table))

    monkeypatch.setattr(lie, "layer_matrices", broken)
    _assert_hard_error(tmp_path, capsys, "eigen",
                       "automorphism does not preserve filtration term 2")
