import json
import re
import time

import pytest

from coprimelab.cli import main
from coprimelab.corpus import build_corpus_instance, build_glauberman_example, default_corpus
from coprimelab.errors import NotCoprime, NotSoluble
from coprimelab.report import (analyze_instance, canonical_json, count_verdicts, run_suite,
                               theorem1_probe, theorem2_probe, thompson_probe)
from helpers import unreduced_theorem1


def c7_phi():
    return build_corpus_instance({"name": "cyclic", "params": {"m": 7},
                                  "automorphism": {"recipe": "power", "k": 2}})[1]


def test_theorem1_c7():
    out = theorem1_probe(c7_phi())
    assert out["e_star"] == 7 and out["exponent"] == 7 and out["n"] == 3
    assert out["e_star_divides_exponent"] == "pass"


def test_theorem1_exponent_p_group():
    phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                 "automorphism": {"recipe": "power", "k": -1}})[1]
    out = theorem1_probe(phi)
    assert out["e_star"] == 3 and out["exponent"] == 3


def test_theorem1_matches_unreduced_oracle_on_corpus():
    checked = 0
    for spec in default_corpus()["instances"]:
        phi = build_corpus_instance(spec)[1]
        if phi is None or not phi.coprime:
            continue
        assert theorem1_probe(phi) == unreduced_theorem1(phi), spec["id"]
        checked += 1
    assert checked >= 20


def test_theorem1_closes_one_subgroup_per_orbit_glauberman():
    _, phi = build_glauberman_example()
    assert not phi.closure_cache
    theorem1_probe(phi)
    assert len(phi.closure_cache) == 27


def test_theorem2_c7():
    out = theorem2_probe(c7_phi())
    assert out["c"] == 0          # trivial fixed subgroup
    assert out["d"] == 1
    assert out["e"] == 7
    assert out["exponent_commutator"] == 7
    assert out["d_is_lower_bound"] is False


def test_theorem2_identity_phi(c9):
    from coprimelab.automorphisms import identity_automorphism
    out = theorem2_probe(identity_automorphism(c9))
    assert out["exponent_commutator"] == 1
    assert out["e"] == 1


def test_theorem2_skips_non_nilpotent_fixed(s5):
    from coprimelab.automorphisms import identity_automorphism
    out = theorem2_probe(identity_automorphism(s5))
    assert out == {"skipped": "fixed-point subgroup is not nilpotent"}


def test_theorem2_sampling_is_deterministic():
    phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 5},
                                 "automorphism": {"recipe": "power", "k": -1}})[1]
    full = theorem2_probe(phi)
    sampled = theorem2_probe(phi, pair_cap=50, full_limit=3)
    assert sampled["d_is_lower_bound"] is True
    assert sampled["d"] <= full["d"]
    assert sampled == theorem2_probe(phi, pair_cap=50, full_limit=3)


def test_thompson_probe(s3, s5):
    from coprimelab.automorphisms import identity_automorphism
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


def test_run_suite_cap_exceeded_marks_skip():
    corpus = {"schema": 1, "instances": [
        {"id": "big", "name": "cyclic", "params": {"m": 7}, "cap": 3}]}
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


def test_cli_lie_rejects_bad_p(tmp_path, capsys):
    path = _write(tmp_path, "s3.json", {"name": "symmetric", "params": {"m": 3}})
    for p in ("3", "4", "0"):
        assert main(["lie", path, "--p", p]) == 2
        assert "--p" in capsys.readouterr().err


def test_cli_eigen_rejects_bad_n(tmp_path, capsys):
    path = _write(tmp_path, "h5.json", {"name": "heisenberg", "params": {"p": 5},
                                        "automorphism": {"recipe": "power", "k": -1}})
    for n in ("3", "0", "-2", "5"):
        assert main(["eigen", path, "--n", n]) == 2
        assert "--n" in capsys.readouterr().err
    assert main(["eigen", path, "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 4


def test_cli_eigen_rejects_large_field_degree(tmp_path, capsys):
    path = _write(tmp_path, "h5.json", {"name": "heisenberg", "params": {"p": 5},
                                        "automorphism": {"recipe": "power", "k": -1}})
    start = time.perf_counter()
    assert main(["eigen", path, "--n", "202"]) == 2  # 5 has order 25 mod 202
    assert time.perf_counter() - start < 0.5
    assert "--n 202" in capsys.readouterr().err


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


def test_cli_info_and_auto_print_their_analysis_sections(tmp_path, capsys):
    for spec in default_corpus()["instances"]:
        report = analyze_instance(spec)
        path = _write(tmp_path, "spec.json", spec)
        assert main(["info", path]) == 0
        assert capsys.readouterr().out == canonical_json(report["group"]) + "\n", spec["id"]
        if report["automorphism"] is None:
            assert main(["auto", path]) == 2
            assert "no automorphism" in capsys.readouterr().err
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
    (C5, "--cap", INFO + ["--cap", "0"]),
    (C5_AUTO, "--element", ["decompose", "FILE", "--element", "3"]),
], ids=["params", "factors", "automorphism", "blocks", "m", "k", "degree", "image-count",
        "image-entry", "cap", "element"])
def test_cli_malformed_input_names_its_location(tmp_path, capsys, spec, location, command):
    path = _write(tmp_path, "bad.json", spec)
    assert main([path if arg == "FILE" else arg for arg in command]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(location)}[: ]", err), err


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


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}'
