"""No verdict about phi passes by the shape of its input, and every kind of
them passes somewhere it says something.

Each verdict kind about an automorphism has a shape predicate: a property of
its input under which no input can fail it, however broken, so that only a
bug in the check itself could. A phi that acts trivially ([G, phi] = 1)
makes every statement about phi read X = X; fact (b) on N = G reads 1 = 1
on G/G; fact (c) on a central N holds for every subgroup; and the product
check on a product that is one of its members N reads C_N(phi) = <C_N(phi)>
(Gorenstein, *Finite Groups*, ch. 5-6). The content predicate of a kind is
its shape predicate negated.

The inputs are the shipped corpus, UT_4(3), UT_4(5), the maximal-class
wreath subgroups, S3 x C11 and the small p-group pools, each pool group with
the identity. None of the others is in ``corpus.json``, which the benchmark
reads. The first test fails on a verdict that passes under its shape, and
on a verdict path that has no row in ``SHAPES``; the second fails on a kind
that has no input with content.
"""

import functools

from coprimelab import automorphisms, report
from coprimelab.automorphisms import default_normal_family, twisted_data
from coprimelab.corpus import default_corpus, load_instance
from coprimelab.groups import center, generate_group
from coprimelab.numutil import prime_power_base
from helpers import identity_automorphism, unitriangular_spec, wreath_spec
from test_automorphisms import S3_C11
from test_small_p_groups import POOLS


def _trivial(inp, i) -> bool:
    return twisted_data(inp.phi).commutator_phi.is_trivial


def _quotient_by_g(inp, i) -> bool:
    return _trivial(inp, i) or inp.family[i][1].order == inp.G.order


def _central(inp, i) -> bool:
    N = automorphisms._central_candidates(inp.phi, inp.family)[i][1]
    return _trivial(inp, i) or N.member_set <= center(inp.G).member_set


def _product_is_a_member(inp, i) -> bool:
    family = [N.member_set for _, N in inp.family]
    return _trivial(inp, i) or any(all(M <= N for M in family) for N in family)


# verdict path, list indices written [] -> its shape predicate, called with
# the input and the index of the list row (None outside a list)
SHAPES = {
    "automorphism.factorization.equivalence": _trivial,
    "automorphism.coprime_facts.commutator_stable": _trivial,
    "automorphism.coprime_facts.quotient_fixed_points[].verdict": _quotient_by_g,
    "automorphism.coprime_facts.centralizing[].verdict": _central,
    "automorphism.coprime_facts.verdict": _trivial,
    "automorphism.product_fixed_points.verdict": _product_is_a_member,
    "automorphism.soluble_when_fixed_nilpotent": _trivial,
    "automorphism.unique_decomposition": _trivial,
    "automorphism.fixed_generation.generates": _trivial,
    "lie.fixed_subalgebra": _trivial,
    "lie.eigen.product_rule": _trivial,
}


class _Input:
    """An instance and the verdicts of its report about phi. Fact (b) checks
    the quotient by each member of ``family`` in turn, and fact (c) each of
    ``_central_candidates``, in the order of the report's rows."""

    def __init__(self, G, phi):
        self.G, self.phi = G, phi
        auto = report._auto_section(G, phi)
        self.sections = {"automorphism": auto}
        p = prime_power_base(G.order)
        if p is not None:
            lie = report._lie_section(G, phi, p)
            self.sections["lie"] = {key: lie[key] for key in ("fixed_subalgebra", "eigen")}

    @functools.cached_property
    def family(self) -> list:
        return default_normal_family(self.phi)

    def verdicts(self):
        """(path, row index, verdict) for every pass or fail leaf."""
        def walk(node, path, row):
            if node in ("pass", "fail"):
                yield path, row, node
            elif isinstance(node, dict):
                for key, value in node.items():
                    yield from walk(value, f"{path}.{key}" if path else key, row)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from walk(value, f"{path}[]", i)

        return walk(self.sections, "", None)


def _specs() -> dict:
    specs = {spec["id"]: spec for spec in default_corpus()["instances"]}
    specs["ut4_3"] = unitriangular_spec(3, 4, [[1], [2], [-3]])
    specs["ut4_5"] = unitriangular_spec(5, 4, [[1], [2], [-3]])
    for p in (2, 3, 5):
        for k in range(2, p + 1):
            specs[f"c{p}_wr_c{p}_{k}"] = wreath_spec(p, k)
    specs["s3_c11"] = S3_C11
    return specs


@functools.cache
def _inputs() -> dict:
    """Input name -> _Input, for every input with an automorphism."""
    inputs = {}
    for name, spec in _specs().items():
        G, phi = load_instance(spec)[:2]
        if phi is not None:
            inputs[name] = _Input(G, phi)
    for name, (degree, gens) in POOLS.items():
        G = generate_group(degree, gens)
        inputs[name] = _Input(G, identity_automorphism(G))
    return inputs


@functools.cache
def _rows() -> list:
    """(input name, path, verdict, its shape predicate's value or None when
    the path has no row in SHAPES)."""
    rows = []
    for name, inp in _inputs().items():
        for path, i, verdict in inp.verdicts():
            shape = SHAPES.get(path)
            rows.append((name, path, verdict, None if shape is None else shape(inp, i)))
    return rows


def test_no_verdict_passes_by_the_shape_of_its_input():
    # a verdict path with no row has no shape stated, and counts as one
    unlisted = sorted({path for _, path, _, shape in _rows() if shape is None})
    corpus = {spec["id"] for spec in default_corpus()["instances"]}
    flagged = [(name, path) for name, path, verdict, shape in _rows()
               if shape is not False and verdict == "pass"]
    in_corpus = sum(name in corpus for name, _ in flagged)
    assert (unlisted, flagged) == ([], []), (
        f"{len(flagged)} passes by shape, {in_corpus} on the corpus")


def test_every_verdict_kind_has_an_input_with_content():
    content = {path: set() for path in SHAPES}
    for name, path, _, shape in _rows():
        if shape is False:
            content[path].add(name)
    assert all(content.values()), [path for path, names in content.items() if not names]
    # fact (c) meets a non-central subgroup only on S3 x C11, and the
    # factorization equivalence a product that does not cover only on the two
    # corpus groups that are not nilpotent under a phi that acts
    assert content["automorphism.coprime_facts.centralizing[].verdict"] == {"s3_c11"}
    factorizations = {name: inp.sections["automorphism"]["factorization"]
                      for name, inp in _inputs().items()}
    uncovered = {name for name, f in factorizations.items()
                 if isinstance(f, dict) and not f["product_covers"]}
    assert uncovered == {"aff8_frob", "glauberman"}
