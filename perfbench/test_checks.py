"""Tests of the benchmark's own checks and input generators.

    python3 perfbench/test_checks.py

Each check must accept the program's real output and reject a copy with one
value corrupted; the generators must give the same inputs for the same seed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from coprimelab import cli, corpus, report  # noqa: E402


def run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def corrupted(payload, path, value):
    bad = copy.deepcopy(payload)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return bad


class GeneratorTests(unittest.TestCase):
    def test_equal_seeds_give_equal_inputs(self):
        for seed in (0, 1, 7, 123456):
            self.assertEqual(workloads.nilpotent_corpus(seed), workloads.nilpotent_corpus(seed))
            self.assertEqual(workloads.cli_plan(seed), workloads.cli_plan(seed))

    def test_seeds_vary_the_inputs(self):
        corpora = {json.dumps(workloads.nilpotent_corpus(s), sort_keys=True) for s in range(8)}
        plans = {json.dumps(workloads.cli_plan(s), sort_keys=True) for s in range(8)}
        self.assertGreater(len(corpora), 1)
        self.assertGreater(len(plans), 1)

    def test_seeded_automorphisms_generate_the_template_group(self):
        for seed in range(6):
            specs = (workloads.nilpotent_corpus(seed)["instances"]
                     + list(workloads.cli_plan(seed)["files"].values()))
            for spec in specs:
                template = workloads.TEMPLATES[spec["id"]]
                seeded = template[:4] + (tuple(workloads.generator_powers(spec)),)
                self.assertEqual(workloads.phi_order(seeded), workloads.phi_order(template))


class SuiteCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ids = {"c7_pow2", "s3", "heis3_inv", "mod27_inv", "c3c3_swap", "gf8_frob"}
        cls.specs = [s for s in corpus.default_corpus()["instances"] if s["id"] in ids]
        cls.bundle, code = report.run_suite({"schema": 1, "instances": cls.specs})
        assert code == 0

    def test_accepts_real_bundle(self):
        checks.check_suite(self.bundle, self.specs)

    def test_rejects_corruptions(self):
        heis = next(i for i, s in enumerate(self.specs) if s["id"] == "heis3_inv")
        lie = ("instances", heis, "lie")
        cases = [
            (("summary", "fail"), 1),
            (("summary", "hard_failures"), ["heis3_inv"]),
            (("instances", heis, "automorphism", "order_product_identity"), "fail"),
            (("instances", heis, "group", "order"), 81),
            (("instances", heis, "automorphism", "twisted_size"), lambda v: v + 1),
            (lie + ("layer_dims",), lambda v: v[:-1] + [v[-1] + 1]),
            (lie + ("eigen", "dims"), lambda v: [v[0][:-1] + [v[0][-1] + 1]] + v[1:]),
            (("instances", heis, "id"), "other"),
            (("instances",), lambda v: v[:-1]),
        ]
        for path, value in cases:
            with self.subTest(path=path):
                with self.assertRaises(checks.CheckFailed):
                    checks.check_suite(corrupted(self.bundle, path, value), self.specs)

    def test_runner_checks_the_output_of_a_failed_command(self):
        # A suite with a fail verdict prints its bundle and exits 1; the
        # runner must check that bundle and count the exit as a failure.
        job = {"plan": [{"argv": ["suite", "corpus.json", "--jobs", "1"], "kind": "suite"}],
               "suite_specs": self.specs, "files": {}}
        heis = next(i for i, s in enumerate(self.specs) if s["id"] == "heis3_inv")
        bad = corrupted(self.bundle, ("instances", heis, "automorphism", "order_product_identity"),
                        "fail")

        def errors(text, code):
            return worker.check_outputs(job, [{"outputs": [text], "codes": [code]}])

        self.assertEqual(errors(json.dumps(self.bundle), 0), [])
        found = errors(json.dumps(bad), 1)
        self.assertTrue(any("exited 1" in e for e in found), found)
        self.assertTrue(any("fail verdicts" in e for e in found), found)
        self.assertTrue(any("fail verdicts" in e for e in errors(json.dumps(bad), 0)))
        self.assertEqual(len(errors("", 2)), 2)


class GlaubermanCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.payload = run_cli(["glauberman"])
        G, _, _ = corpus.load_instance(workloads.GLAUBERMAN_SPEC)
        cls.tuples = (G.elements, G.generators)
        cls.rep = {"group": {"order": cls.payload["group_order"], "exponent": G.exponent()},
                   "automorphism": {"order": cls.payload["automorphism_order"],
                                    "fixed_order": cls.payload["fixed_order"],
                                    "twisted_size": cls.payload["twisted_size"],
                                    "factorization": {
                                        "product_covers": cls.payload["product_covers"],
                                        "witness": cls.payload["witness"]}}}

    def test_accepts_real_output(self):
        checks.check_glauberman_payload(self.payload, *self.tuples)
        checks.check_suite_glauberman(self.rep, *self.tuples)

    def test_rejects_corrupted_command_output(self):
        w = self.payload["witness"]
        cases = [
            (("group_order",), 15000), (("automorphism_order",), 6), (("fixed_order",), 25),
            (("twisted_size",), 620), (("product_covers",), True), (("coprime",), False),
            (("witness",), None),
            (("witness", "a"), 0), (("witness", "a"), w["a"] + 1),
            (("witness", "b"), w["b"] + 1), (("witness", "c"), w["c"] + 1),
            (("witness", "twisted_element"), w["twisted_element"] + 1),
        ]
        for path, value in cases:
            with self.subTest(path=path, value=value):
                with self.assertRaises(checks.CheckFailed):
                    checks.check_glauberman_payload(corrupted(self.payload, path, value),
                                                    *self.tuples)

    def test_rejects_corrupted_suite_report(self):
        for path, value in ((("group", "exponent"), 310),
                            (("automorphism", "factorization", "witness", "c"), 1)):
            with self.subTest(path=path):
                with self.assertRaises(checks.CheckFailed):
                    checks.check_suite_glauberman(corrupted(self.rep, path, value), *self.tuples)

    def test_witness_replay_does_not_use_the_kernel(self):
        from coprimelab.groups import FiniteGroup
        original = FiniteGroup.mul

        def forbidden(*_):
            raise AssertionError("FiniteGroup.mul called")

        FiniteGroup.mul = forbidden
        try:
            checks.check_glauberman_payload(self.payload, *self.tuples)
        finally:
            FiniteGroup.mul = original


class CommandCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out"))
        plan = workloads.cli_plan(3)
        cls.spec = plan["files"]["heis5_fix5"]
        cls.path = os.path.join(cls.tmp.name, "heis5_fix5.json")
        workloads.write_json(cls.path, cls.spec)
        cls.info = run_cli(["info", cls.path])
        cls.auto = run_cli(["auto", cls.path])
        cls.lie = run_cli(["lie", cls.path])
        cls.eigen = run_cli(["eigen", cls.path])
        cls.word = [1, 2, -1, 2, 2]
        cls.decomp = run_cli(["decompose", cls.path, "--element=1,2,-1,2,2"])
        G, _, _ = corpus.load_instance(cls.spec)
        cls.tuples = (G.elements, G.generators)
        cls.powers = workloads.generator_powers(cls.spec)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_accepts_real_output(self):
        checks.check_info(self.spec, self.info)
        checks.check_auto(self.spec, self.auto)
        checks.check_lie(self.spec, self.lie)
        checks.check_eigen(self.spec, self.eigen, self.lie["layer_dims"])
        checks.check_decompose(self.word, self.decomp, *self.tuples, self.powers)

    def test_rejects_corruptions(self):
        layer = self.lie["layer_dims"]
        cases = [
            (lambda p: checks.check_info(self.spec, p), self.info, ("order",), 250),
            (lambda p: checks.check_info(self.spec, p), self.info, ("exponent",), 3),
            (lambda p: checks.check_info(self.spec, p), self.info,
             ("nilpotent_implies_soluble",), "fail"),
            (lambda p: checks.check_auto(self.spec, p), self.auto, ("fixed_order",), 1),
            (lambda p: checks.check_auto(self.spec, p), self.auto,
             ("unique_decomposition",), "fail"),
            (lambda p: checks.check_lie(self.spec, p), self.lie, ("layer_dims",),
             lambda v: v + [1]),
            (lambda p: checks.check_lie(self.spec, p), self.lie, ("riley",), "fail"),
            (lambda p: checks.check_eigen(self.spec, p, layer), self.eigen, ("dims",),
             lambda v: [list(reversed(d)) for d in reversed(v)]),
            (lambda p: checks.check_eigen(self.spec, p, layer), self.eigen, ("dims",),
             lambda v: [d + [1] for d in v]),
            (lambda p: checks.check_eigen(self.spec, p, layer), self.eigen,
             ("product_rule",), "fail"),
        ]
        for key in ("element", "twisted_part", "fixed_part"):
            cases.append((lambda p: checks.check_decompose(self.word, p, *self.tuples,
                                                           self.powers),
                          self.decomp, (key,), lambda v: (v + 1) % 125))
        cases.append((lambda p: checks.check_decompose(self.word, p, *self.tuples, self.powers),
                      self.decomp, ("fixed_word",), lambda v: v + [1]))
        for check, payload, path, value in cases:
            with self.subTest(path=path):
                with self.assertRaises(checks.CheckFailed):
                    check(corrupted(payload, path, value))

    def test_swapped_parts_are_rejected(self):
        bad = dict(self.decomp)
        bad["twisted_part"], bad["fixed_part"] = self.decomp["fixed_part"], self.decomp["twisted_part"]
        bad["twisted_word"], bad["fixed_word"] = self.decomp["fixed_word"], self.decomp["twisted_word"]
        with self.assertRaises(checks.CheckFailed):
            checks.check_decompose(self.word, bad, *self.tuples, self.powers)


class OrderFormulaTests(unittest.TestCase):
    def test_formula_matches_every_shipped_instance(self):
        for spec in corpus.default_corpus()["instances"]:
            if spec["id"] == "glauberman":
                continue
            G, _, _ = corpus.load_instance(spec)
            self.assertEqual(checks.expected_order(spec), G.order, spec["id"])
        self.assertEqual(checks.expected_order(workloads.GLAUBERMAN_SPEC),
                         checks.GLAUBERMAN_ORDER)


if __name__ == "__main__":
    unittest.main()
