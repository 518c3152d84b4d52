"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import hashlib
import time
from contextlib import contextmanager

import pytest

from coprimelab.automorphisms import (check_coprime_facts, factorization_status,
                                      nilpotent_decompose, twisted_data)
from coprimelab.corpus import build_corpus_instance, build_glauberman_example, default_corpus
from coprimelab.lie import (build_graded_lie, check_lazard_all, check_riley,
                            extend_and_eigendecompose, jlz_series,
                            verify_eigen_product_rule, verify_np_series)
from coprimelab.report import canonical_json, count_verdicts, run_suite
from coprimelab.structure import lower_central_series


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {title}: PASS")


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def built_instances(corpus):
    out = []
    for spec in corpus["instances"]:
        G, phi = build_corpus_instance(spec)
        out.append((spec["id"], G, phi))
    return out


@pytest.fixture(scope="module")
def suite_runs(corpus):
    t0 = time.time()
    bundle1, code1 = run_suite(corpus, jobs=1)
    t1 = time.time() - t0
    t0 = time.time()
    bundle2, code2 = run_suite(corpus, jobs=2)
    t2 = time.time() - t0
    return {"bundle1": bundle1, "code1": code1, "t1": t1,
            "bundle2": bundle2, "code2": code2, "t2": t2}


# SHA-256 of the shipped-corpus suite bundle as `coprimelab suite` prints it. A
# change that alters the bundle must update this pin and say why.
SUITE_BUNDLE_SHA256 = "4923cabc7de86f7faa5b715f0773b21aaecd9434ae213deeec8c0f68b9db4c30"


def test_suite_bundle_is_pinned(suite_runs):
    for bundle in (suite_runs["bundle1"], suite_runs["bundle2"]):
        text = canonical_json(bundle) + "\n"
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == SUITE_BUNDLE_SHA256


def test_criterion_1_glauberman_counterexample():
    with criterion(1, "glauberman counterexample"):
        t0 = time.time()
        G, phi = build_glauberman_example()
        td = twisted_data(phi)
        status = factorization_status(phi)
        elapsed = time.time() - t0
        assert G.order == 15500
        assert phi.order_n == 3
        assert phi.coprime is True
        assert td.fixed.order == 20
        assert len(td.twisted) == 775
        assert status.product_covers is False
        assert status.criterion_holds is False
        w = status.witness
        assert w is not None
        twist_of_b = G.mul(G.inv(w["b"]), phi.table[w["b"]])
        assert twist_of_b == G.conjugate(w["a"], w["c"]) == w["twisted_element"]
        assert elapsed < 30.0, f"glauberman report took {elapsed:.1f}s"


def test_criterion_2_factorization_equivalence(corpus, built_instances):
    with criterion(2, "product-covering criterion equivalence"):
        assert len(corpus["instances"]) >= 25
        checked = 0
        for inst_id, G, phi in built_instances:
            assert G.order <= 20000, inst_id
            if phi is None or not phi.coprime:
                continue
            status = factorization_status(phi)
            assert status.product_covers == status.criterion_holds, inst_id
            checked += 1
        assert checked >= 20


def test_criterion_3_unique_decomposition(built_instances):
    with criterion(3, "unique twisted*fixed decomposition"):
        t0 = time.time()
        checked_instances = 0
        for inst_id, G, phi in built_instances:
            if phi is None or not phi.coprime:
                continue
            if not lower_central_series(G).is_nilpotent:
                continue
            td = twisted_data(phi)
            for x in range(G.order):
                g, h = nilpotent_decompose(phi, x)
                assert G.mul(g, h) == x, (inst_id, x)
                assert g in td.twisted_set and h in td.fixed.member_set
            checked_instances += 1
        elapsed = time.time() - t0
        assert checked_instances >= 10
        assert elapsed < 60.0, f"decomposition sweep took {elapsed:.1f}s"


def test_criterion_4_jlz_golden_values():
    with criterion(4, "canonical filtration golden dimensions"):
        c9 = build_corpus_instance({"name": "cyclic", "params": {"m": 9}})[0]
        assert jlz_series(c9, 3).layer_dims() == (1, 0, 1)
        h3 = build_corpus_instance({"name": "heisenberg", "params": {"p": 3}})[0]
        A = build_graded_lie(jlz_series(h3, 3))
        assert A.dims == (2, 1)
        w = A.bracket(1, (1, 0), 1, (0, 1))
        assert w is not None and any(w)
        assert A.lie_class_of_generated() == 2
        m27 = build_corpus_instance({"name": "modular", "params": {"p": 3}})[0]
        assert jlz_series(m27, 3).layer_dims() == (2, 0, 1)


def _corpus_p_groups(built_instances):
    from coprimelab.numutil import factorization
    out = []
    for inst_id, G, phi in built_instances:
        if G.order == 1:
            continue
        fac = factorization(G.order)
        if len(fac) == 1:
            out.append((inst_id, G, phi, next(iter(fac))))
    return out


def test_criterion_5_lazard_identity(built_instances):
    with criterion(5, "graded bracket power compatibility"):
        groups = _corpus_p_groups(built_instances)
        assert groups
        for inst_id, G, phi, p in groups:
            assert G.order <= max(3 ** 5, 2 ** 6) or G.order <= 1024
            A = build_graded_lie(jlz_series(G, p))
            assert verify_np_series(A.series)["verdict"] == "pass", inst_id
            out = check_lazard_all(A)
            assert out["verdict"] == "pass", (inst_id, out)
            assert out["checked"] == G.order


def test_criterion_6_riley_criterion(built_instances):
    with criterion(6, "powerful filtration-term criterion"):
        for inst_id, G, phi, p in _corpus_p_groups(built_instances):
            assert check_riley(G, p)["verdict"] == "pass", inst_id


def test_criterion_7_eigen_decomposition(built_instances):
    with criterion(7, "eigenspace decomposition over the cyclotomic extension"):
        G, phi = build_corpus_instance(
            {"name": "direct_product",
             "params": {"factors": [{"name": "cyclic", "params": {"m": 5}}] * 3},
             "automorphism": {"recipe": "frobenius"}})
        A = build_graded_lie(jlz_series(G, 5))
        ext = extend_and_eigendecompose(A, phi)
        assert ext.field.k == 2
        assert ext.dims == [[1, 1, 1]]
        for inst_id, Gp, phip, p in _corpus_p_groups(built_instances):
            if phip is None or not phip.coprime:
                continue
            extp = extend_and_eigendecompose(build_graded_lie(jlz_series(Gp, p)), phip)
            assert verify_eigen_product_rule(extp)["verdict"] == "pass", inst_id
            for layer_dims, layer in zip(extp.dims, extp.base.layers):
                assert sum(layer_dims) == layer.dim


def test_criterion_8_coprime_facts_suite(suite_runs):
    with criterion(8, "coprime-action facts corpus-wide"):
        for inst in suite_runs["bundle1"]["instances"]:
            auto = inst.get("automorphism")
            if not isinstance(auto, dict):
                continue
            if not auto.get("coprime"):
                continue
            assert auto["coprime_facts"]["verdict"] == "pass", inst["id"]
            if isinstance(auto.get("product_fixed_points"), dict):
                assert auto["product_fixed_points"]["verdict"] == "pass", inst["id"]
            lie = inst.get("lie")
            if isinstance(lie, dict):
                assert lie["fixed_subalgebra"] == "pass", inst["id"]


def test_criterion_9_suite_determinism_and_probes(suite_runs):
    with criterion(9, "probe completion, sanity, determinism"):
        assert suite_runs["code1"] == 0
        assert suite_runs["code2"] == 0
        text1 = canonical_json(suite_runs["bundle1"])
        text2 = canonical_json(suite_runs["bundle2"])
        assert text1 == text2, "suite output differs between runs/job counts"
        counts = count_verdicts(suite_runs["bundle1"])
        assert counts["fail"] == 0
        coprime_with_auto = 0
        for inst in suite_runs["bundle1"]["instances"]:
            probes = inst.get("probes")
            assert probes is not None, inst["id"]
            t1 = probes.get("theorem1")
            if isinstance(t1, dict):
                assert t1["e_star_divides_exponent"] == "pass", inst["id"]
                coprime_with_auto += 1
            t2 = probes.get("theorem2")
            if isinstance(t2, dict) and "skipped" not in t2:
                assert t2["commutator_exponent_divides"] == "pass", inst["id"]
                assert t2["e_divides_exponent"] == "pass", inst["id"]
        assert coprime_with_auto >= 20
        assert suite_runs["t1"] < 600.0, f"suite took {suite_runs['t1']:.0f}s"
        assert suite_runs["t2"] < 600.0
        print(f"\n  suite runtimes: {suite_runs['t1']:.1f}s (jobs=1), "
              f"{suite_runs['t2']:.1f}s (jobs=2)")
