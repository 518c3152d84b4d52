import copy

import pytest

from coprimelab import report
from coprimelab.automorphisms import (Automorphism, build_automorphism, check_coprime_facts,
                                      commutator_twisted_data, decomposition_witness,
                                      default_normal_family, factorization_status,
                                      fixed_generation_S, fixed_points_of_product,
                                      is_phi_invariant, nilpotent_decompose,
                                      phi_invariant_closure, twisted_data)
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import (NotBijective, NotCoprime, NotInvariant, NotNilpotent,
                               PreconditionViolated)
from coprimelab.groups import center, is_normal, normal_core, quotient_group, subgroup_generated
from coprimelab.structure import lower_central_series
from helpers import (commutator_with_automorphism, cyclic_spec, identity_automorphism,
                     load_workloads, per_element_decomposition_witness, product_spec,
                     quaternion_group, quotient_automorphism, quotient_fixed_points_by_group,
                     quotient_projection, restrict_automorphism)


def c7_square():
    return build_corpus_instance({"name": "cyclic", "params": {"m": 7},
                                  "automorphism": {"recipe": "power", "k": 2}})


def test_identity_automorphism(s3):
    phi = identity_automorphism(s3)
    assert phi.order_n == 1 and phi.coprime
    td = twisted_data(phi)
    assert td.fixed.order == s3.order
    assert td.twisted == (0,)
    assert td.commutator_phi.is_trivial


def test_c7_power_map():
    G, phi = c7_square()
    assert phi.order_n == 3
    td = twisted_data(phi)
    assert td.fixed.is_trivial
    assert len(td.twisted) == 7
    assert td.commutator_phi.order == 7


def test_not_bijective_rejected():
    G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
    with pytest.raises(NotBijective):
        build_automorphism(G, [(1, 1)])  # t -> t^2 kills the order-2 element


def test_order_product_identity_everywhere(c3c3_swap):
    for G, phi in (c7_square(), c3c3_swap):
        td = twisted_data(phi)
        assert len(td.twisted) * td.fixed.order == G.order


def test_glauberman_counts(glauberman):
    G, phi = glauberman
    assert G.order == 125 * 124 == 15500
    assert phi.order_n == 3 and phi.coprime
    td = twisted_data(phi)
    assert td.fixed.order == 20
    assert len(td.twisted) == 775
    assert len(td.twisted) * td.fixed.order == G.order


def test_glauberman_scaling_orbit(glauberman):
    G, _ = glauberman
    scaling = G.generators[1]
    seen = set()
    x = 1  # index of the field element 1
    while x not in seen:
        seen.add(x)
        x = scaling[x]
    assert len(seen) == 124  # transitive on the nonzero field elements


def test_glauberman_translations_subgroup(glauberman):
    G, phi = glauberman
    A = lower_central_series(G).terms[-1]  # the translations
    assert A.order == 125
    assert is_normal(G, A)
    assert all(G.element_order(x) == 5 for x in A.members if x != 0)
    fixed_in_A = [x for x in A.members if phi.table[x] == x]
    assert len(fixed_in_A) == 5


def test_glauberman_twisted_translations_conjugate_into_fixed(glauberman):
    G, phi = glauberman
    A = lower_central_series(G).terms[-1]  # the translations
    a_fixed = {x for x in A.members if phi.table[x] == x}
    a_twisted = {G.mul(G.inv(x), phi.table[x]) for x in A.members}
    # conjugates of the fixed translations, walked through generator conjugation
    union = set(a_fixed)
    queue = list(a_fixed)
    while queue:
        x = queue.pop()
        for g in G.generator_indices:
            y = G.conjugate(x, g)
            if y not in union:
                union.add(y)
                queue.append(y)
    assert all(x in union for x in a_twisted if x != 0)


def test_factorization_status_glauberman(glauberman):
    G, phi = glauberman
    product_covers, criterion_holds, w = factorization_status(phi)
    assert product_covers is False
    assert criterion_holds is False
    assert w is not None
    lhs = G.mul(G.inv(w["b"]), phi.table[w["b"]])
    assert lhs == w["twisted_element"]
    assert G.conjugate(w["a"], w["c"]) == w["twisted_element"]
    assert w["a"] in twisted_data(phi).fixed.member_set and w["a"] != 0


def test_factorization_status_nilpotent(c3c3_swap):
    _, phi = c3c3_swap
    assert factorization_status(phi) == (True, True, None)


def test_factorization_status_identity(s3):
    product_covers, criterion_holds, _ = factorization_status(identity_automorphism(s3))
    assert product_covers and criterion_holds


def test_factorization_requires_coprime():
    G, phi = build_corpus_instance({"name": "affine", "params": {"p": 3, "k": 2},
                                    "automorphism": {"recipe": "frobenius"}})
    assert not phi.coprime
    with pytest.raises(NotCoprime):
        factorization_status(phi)


def test_phi_invariant_closure(c3c3_swap, glauberman):
    G, phi = c3c3_swap
    e1 = G.generator_indices[0]
    assert phi_invariant_closure(phi, {e1}).order == 9
    Gg, phig = glauberman
    s = Gg.generator_indices[1]
    B = phi_invariant_closure(phig, {s})
    assert B.order == 124
    td = twisted_data(phig)
    K = phi_invariant_closure(phig, set(td.fixed.members))
    assert K.member_set >= td.fixed.member_set


def test_check_coprime_facts(glauberman, c3c3_swap):
    G, phi = glauberman
    unstable, quotients, central = check_coprime_facts(phi)
    assert unstable is None
    assert [(name, N.order, x) for name, N, x in quotients] == [("commutator_phi", 3875, None),
                                                                ("derived", 125, None)]
    # no family member lies in C_G(phi), of order 20, whose core is trivial
    assert normal_core(G, twisted_data(phi).fixed).is_trivial and central == []
    G2, phi2 = c3c3_swap
    diag = subgroup_generated(G2, {G2.mul(G2.generator_indices[0], G2.generator_indices[1])})
    unstable, quotients, central = check_coprime_facts(phi2, family=[("diagonal", diag)])
    assert unstable is None
    assert quotients == [("diagonal", diag, None)]
    # C3 x C3 is abelian: fact (c) has no non-central subgroup to check
    assert central == []


def test_commutator_stable_under_twisting(glauberman):
    _, phi = glauberman
    td = twisted_data(phi)
    assert commutator_with_automorphism(phi, td.commutator_phi) == td.commutator_phi.member_set


def test_commutator_phi_is_normal_and_invariant_for_every_corpus_automorphism():
    # t_x = x^-1 x^phi gives t_x^g = t_(xg) t_g^-1 and t_x^phi = t_(x^phi), so
    # [G, phi] is normal and phi-invariant whatever phi is, coprime or not:
    # no input can fail it, and the report prints no verdict for it
    checked = non_coprime = 0
    for spec in default_corpus()["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is None:
            continue

        def t(x):
            return G.mul(G.inv(x), phi.table[x])

        for x in range(G.order):
            assert t(phi.table[x]) == phi.table[t(x)], spec["id"]
            for g in G.generator_indices:
                assert G.conjugate(t(x), g) == G.mul(t(G.mul(x, g)), G.inv(t(g))), spec["id"]
        H = twisted_data(phi).commutator_phi
        assert is_normal(G, H) and is_phi_invariant(phi, H), spec["id"]
        assert {phi.table[h] for h in H.members} == H.member_set, spec["id"]
        checked += 1
        non_coprime += not phi.coprime
    assert (checked, non_coprime) == (29, 1)


def test_images_index_is_the_least_x_with_that_twisted_image():
    # factorization_status names images.index(t) as the b with b^-1 b^phi = t;
    # the data of phi on a proper [G, phi] reads the same table
    proper = 0
    for spec in default_corpus()["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is None:
            continue
        least = {}
        for x in range(G.order):
            least.setdefault(G.mul(G.inv(x), phi.table[x]), x)
        td = twisted_data(phi)
        assert {t: td.images.index(t) for t in td.twisted} == least, spec["id"]
        inner = commutator_twisted_data(phi)
        if inner is not td:
            assert inner.images is td.images, spec["id"]
            proper += 1
    assert proper


def test_commutator_stable_check_reads_the_twice_twisted_subgroup():
    # [[G, phi], phi], as check_coprime_facts reads it, against the oracle on
    # every corpus automorphism, coprime or not
    proper = 0
    for spec in default_corpus()["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is None:
            continue
        H = twisted_data(phi).commutator_phi
        twice = commutator_twisted_data(phi).commutator_phi
        assert twice.member_set == commutator_with_automorphism(phi, H), spec["id"]
        proper += twice != H
        if phi.coprime:
            assert check_coprime_facts(phi)[0] is None, spec["id"]
    assert proper


def test_commutator_stable_failure_names_the_least_element_outside(monkeypatch):
    # [[G, phi], phi] = [G, phi] under coprime action, so only a patched
    # twice-twisted subgroup, the centre of heisenberg(3), can fail it
    from coprimelab import automorphisms
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                    "automorphism": {"recipe": "power", "k": -1}})
    H = twisted_data(phi).commutator_phi
    Z = lower_central_series(G).terms[1]
    fake = copy.copy(twisted_data(phi))
    fake.commutator_phi = Z
    monkeypatch.setattr(automorphisms, "commutator_twisted_data", lambda phi: fake)
    assert check_coprime_facts(phi)[0] == min(x for x in H.members if x not in Z.member_set)
    section = report._coprime_facts(phi)
    assert section["commutator_stable"] == section["verdict"] == "fail"


def test_nilpotent_decompose_c3c3(c3c3_swap):
    G, phi = c3c3_swap
    x = G.evaluate_word((1, 2, 2))          # the pair (1, 2)
    g, h = nilpotent_decompose(phi, x)
    assert g == G.evaluate_word((1, 2, 2))  # twisted part (1, -1) = (1, 2)
    assert h == 0
    td = twisted_data(phi)
    for y in td.fixed.members:
        assert nilpotent_decompose(phi, y) == (0, y)
    for y in td.twisted:
        assert nilpotent_decompose(phi, y) == (y, 0)


def test_nilpotent_decompose_all_elements_q8():
    q8 = quaternion_group()
    phi = build_automorphism(q8, [(2,), (1, 2)])  # order-3 rotation of i, j, k
    assert phi.order_n == 3 and phi.coprime
    td = twisted_data(phi)
    assert td.fixed.order == 2 and len(td.twisted) == 4
    twisted = set(td.twisted)
    for x in range(q8.order):
        g, h = nilpotent_decompose(phi, x)
        assert q8.mul(g, h) == x
        assert g in twisted and h in td.fixed.member_set


def test_decomposition_witness_names_an_element_without_factorization(c3c3_swap, monkeypatch):
    G, phi = c3c3_swap
    td = twisted_data(phi)
    assert decomposition_witness(phi) is None
    assert td.product_covers
    # a corrupted twisted set: its last member dropped, so the products miss
    # that member's coset of the fixed points; the copy must not keep the
    # cover that the data read before
    corrupted = copy.copy(td)
    corrupted.twisted = td.twisted[:-1]
    del corrupted.product_covers
    monkeypatch.setattr(phi, "_twisted", corrupted)
    witness = decomposition_witness(phi)
    assert witness == per_element_decomposition_witness(phi)
    x = witness["element"]
    assert witness["error"] == f"element {x} admits no twisted*fixed factorization"


@pytest.mark.parametrize("check", [check_coprime_facts, fixed_points_of_product])
def test_a_family_member_that_is_no_invariant_normal_subgroup_is_refused(check, s3, c3c3_swap):
    swap = subgroup_generated(s3, [s3.generator_indices[1]])  # <(0 1)>, not normal in S3
    with pytest.raises(NotInvariant, match="^family member swap is not normal$"):
        check(identity_automorphism(s3), [("swap", swap)])
    G, phi = c3c3_swap
    factor = subgroup_generated(G, [G.generator_indices[0]])  # normal; phi swaps the factors
    assert is_normal(G, factor)
    with pytest.raises(NotInvariant, match="^family member factor is not phi-invariant$"):
        check(phi, [("factor", factor)])


def test_nilpotent_decompose_rejects_insoluble_shape(s3):
    phi = identity_automorphism(s3)
    with pytest.raises(NotNilpotent):
        nilpotent_decompose(phi, 1)


def test_restrict_automorphism(c3c3_swap):
    G, phi = c3c3_swap
    td = twisted_data(phi)
    H, rphi, to_parent = restrict_automorphism(phi, td.commutator_phi)
    assert H.order == 3
    assert rphi.order_n == 2
    for i in range(H.order):
        assert to_parent[rphi.table[i]] == phi.table[to_parent[i]]


def test_quotient_automorphism_glauberman(glauberman):
    G, phi = glauberman
    A = lower_central_series(G).terms[-1]  # the translations
    Q = quotient_group(G, A)
    qphi = quotient_automorphism(phi, A, Q)
    fixed_count = sum(1 for q in range(Q.order) if qphi.table[q] == q)
    assert fixed_count == 4  # image of the fixed subgroup: order 20 over kernel 5


def test_fixed_generation_trivial_fixed():
    G, phi = c7_square()
    out = fixed_generation_S(phi)
    assert out["generates"] is True


def test_fixed_generation_on_commutator_restriction(c3c3_swap):
    G, phi = c3c3_swap
    td = twisted_data(phi)
    H, rphi, _ = restrict_automorphism(phi, td.commutator_phi)
    out = fixed_generation_S(rphi)
    assert out["generates"] is True


def test_fixed_generation_heisenberg():
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                    "automorphism": {"recipe": "power", "k": -1}})
    td = twisted_data(phi)
    assert td.fixed.order == 3  # the center survives inversion of the generators
    assert td.commutator_phi.order == 27
    out = fixed_generation_S(phi)
    assert out["generates"] is True


def test_fixed_generation_precondition(s3):
    with pytest.raises(NotNilpotent, match="^group is not nilpotent$"):
        fixed_generation_S(identity_automorphism(s3))


def test_fixed_points_of_product(glauberman):
    G, phi = glauberman
    A = lower_central_series(G).terms[-1]  # the translations
    whole = G.whole_subgroup()
    # (|product|, witness): the Frobenius fixes the translations by GF(5)
    assert fixed_points_of_product(phi, [("translations", A), ("whole", whole)]) == (15500, None)
    assert fixed_points_of_product(phi, [("translations", A)]) == (125, None)


def test_fixed_points_of_product_componentwise():
    G, phi = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "heisenberg", "params": {"p": 3}},
                                {"name": "cyclic", "params": {"m": 5}}]},
         "automorphism": {"recipe": "gen_powers", "powers": [-1, -1, 1]}})
    h_part = subgroup_generated(G, set(G.generator_indices[:2]))
    c_part = subgroup_generated(G, {G.generator_indices[2]})
    assert fixed_points_of_product(phi, [("h", h_part), ("c", c_part)]) == (135, None)


def test_product_failure_carries_a_witness_that_replays(monkeypatch):
    # only a patched product can fail the check: the whole group in place of
    # the product of two subgroups of order 9 of the heisenberg factor, neither
    # inside the other, whose fixed points are its centre and miss C_5
    from coprimelab import automorphisms
    spec = {"name": "direct_product",
            "params": {"factors": [{"name": "heisenberg", "params": {"p": 3}},
                                   {"name": "cyclic", "params": {"m": 5}}]},
            "automorphism": {"recipe": "gen_powers", "powers": [-1, -1, 1]}}
    G, phi = build_corpus_instance(spec)
    a, b = G.generator_indices[:2]
    z = G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
    family = [("a", subgroup_generated(G, {a, z})), ("b", subgroup_generated(G, {b, z}))]
    monkeypatch.setattr(automorphisms, "product_of_subgroups", lambda G, subs: G.whole_subgroup())
    monkeypatch.setattr(report, "default_normal_family", lambda phi: family)
    fixed = twisted_data(phi).fixed.member_set
    generated = subgroup_generated(G, {0}.union(*(N.member_set & fixed for _, N in family)))
    x = fixed_points_of_product(phi, family)[-1]
    assert x == min(fixed - generated.member_set)
    section = report._product_fixed_points(phi)
    assert section["verdict"] == "fail" and set(section["witness"]) == {"x"}
    assert G.evaluate_word(section["witness"]["x"]) == x
    # the word replays on a fresh enumeration as a fixed element outside the
    # heisenberg factor, which holds the fixed points of both members
    G2, phi2 = build_corpus_instance(spec)
    y = G2.evaluate_word(section["witness"]["x"])
    assert phi2.table[y] == y and G2.element_order(y) % 5 == 0


def test_commutator_facts_c7():
    G, phi = c7_square()
    section = report._auto_section(G, phi)
    assert (section["commutator_order"], section["commutator_exponent"],
            section["commutator_derived_length"]) == (7, 7, 1)


def test_commutator_facts_print_for_any_phi_and_null_when_insoluble(s5):
    # conjugation by a generator is not coprime, and [G, phi] is A5
    c = s5.generator_indices[0]
    phi = Automorphism(s5, [s5.conjugate(g, c) for g in s5.generator_indices])
    assert not phi.coprime
    section = report._auto_section(s5, phi)
    assert (section["commutator_order"], section["commutator_exponent"],
            section["commutator_derived_length"]) == (60, 30, None)


def test_commutator_facts_glauberman_restriction(glauberman):
    # phi restricted to H = [G, phi] has [H, phi] = H, so the section of the
    # restriction prints the facts of H that the section of G prints
    G, phi = glauberman
    td = twisted_data(phi)
    H, rphi, _ = restrict_automorphism(phi, td.commutator_phi)
    section = report._auto_section(H, rphi)
    assert section["commutator_order"] == H.order == td.commutator_phi.order
    assert section["commutator_derived_length"] == td.commutator_derived_length == 2
    assert section["commutator_exponent"] == H.exponent() == 155
    assert section["commutator_exponent"] % H.exponent_of(twisted_data(rphi).twisted) == 0


def _corpus_coprime_actions(max_order):
    from coprimelab.corpus import default_corpus
    for spec in default_corpus()["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is not None and phi.coprime and G.order <= max_order:
            yield spec["id"], G, phi


def test_automorphism_walks_match_brute_force_on_corpus():
    from coprimelab import automorphisms
    checked = 0
    for name, G, phi in _corpus_coprime_actions(max_order=2000):
        td = twisted_data(phi)
        fixed = td.fixed.member_set
        classes = [{G.conjugate(x, c) for c in range(G.order)} for x in td.fixed.members]
        core = {x for cls in classes if cls <= fixed for x in cls}
        assert automorphisms.normal_core(G, td.fixed).member_set == core, name
        products = {G.mul(g, h) for g in td.twisted for h in td.fixed.members}
        product_covers, criterion_holds, _ = factorization_status(phi)
        assert product_covers == (len(products) == G.order), name
        meets_fixed = set().union(*classes)
        assert criterion_holds == all(x == 0 or x not in meets_fixed
                                             for x in td.twisted), name
        H, rphi, to_parent = restrict_automorphism(phi, td.commutator_phi)
        assert all(to_parent[rphi.table[i]] == phi.table[to_parent[i]]
                   for i in range(H.order)), name
        for _, N in automorphisms.default_normal_family(phi):
            Q = quotient_group(G, N)
            qphi = quotient_automorphism(phi, N, Q)
            to_q = quotient_projection(G, Q)
            induced = {to_q[x]: to_q[phi.table[x]] for x in range(G.order)}
            assert qphi.table == tuple(induced[q] for q in range(Q.order)), name
        checked += 1
    assert checked >= 10


def _bare_fixed_coset(phi, N):
    """The least x whose coset N x phi maps onto itself while no element of it
    is fixed, by comparing the coset sets; None if there is none."""
    G = phi.group
    for x in range(G.order):
        coset = {G.mul(n, x) for n in N.members}
        if ({phi.table[y] for y in coset} == coset
                and all(phi.table[y] != y for y in coset)):
            return x
    return None


def test_quotient_check_failure_carries_a_witness_that_replays(monkeypatch):
    from coprimelab import automorphisms
    # the Frobenius map of order 2 on aff(9) is not coprime to |G| = 72;
    # forced coprime, it has a fixed coset of [G, phi] with no fixed element
    spec = {"name": "affine", "params": {"p": 3, "k": 2}, "automorphism": {"recipe": "frobenius"}}
    monkeypatch.setattr(automorphisms.Automorphism, "coprime", property(lambda self: True))
    G, phi = build_corpus_instance(spec)
    family = dict(automorphisms.default_normal_family(phi))
    quotients = check_coprime_facts(phi)[1]
    section = report._coprime_facts(phi)
    assert section["verdict"] == "fail"
    checks = section["quotient_fixed_points"]
    assert [c["verdict"] for c in checks] == ["fail", "pass"]
    for check, (name, N, x) in zip(checks, quotients, strict=True):
        assert check["subgroup"] == name and family[name] == N
        assert quotient_fixed_points_by_group(phi, N) == (check["verdict"] == "pass")
        bare = _bare_fixed_coset(phi, N)
        assert x == bare
        if check["verdict"] == "pass":
            assert bare is None and "witness" not in check
        else:
            assert set(check["witness"]) == {"x"}
            assert G.evaluate_word(check["witness"]["x"]) == bare
    # the word replays on a fresh enumeration
    words = checks[0]["witness"]["x"]
    G2, phi2 = build_corpus_instance(spec)
    N2 = dict(automorphisms.default_normal_family(phi2))[checks[0]["subgroup"]]
    x = G2.evaluate_word(words)
    coset = {G2.mul(n, x) for n in N2.members}
    assert {phi2.table[y] for y in coset} == coset
    assert all(phi2.table[y] != y for y in coset)


def test_a_fixed_coset_count_with_no_bare_coset_is_an_invariant_failure(monkeypatch):
    # the forced-coprime Frobenius on aff(9) fails the count on [G, phi]; with
    # N C_G(phi) read as all of G no coset is bare, which never reads as a pass
    from coprimelab import automorphisms
    spec = {"name": "affine", "params": {"p": 3, "k": 2}, "automorphism": {"recipe": "frobenius"}}
    monkeypatch.setattr(automorphisms.Automorphism, "coprime", property(lambda self: True))
    G, phi = build_corpus_instance(spec)
    monkeypatch.setattr(automorphisms, "product_of_subgroups", lambda G, subs: G.whole_subgroup())
    with pytest.raises(PreconditionViolated, match="subgroup of order 36 miscounted"):
        report._coprime_facts(phi)


def test_centralizing_failure_carries_a_witness_that_replays(monkeypatch):
    from coprimelab import automorphisms
    spec = {"name": "heisenberg", "params": {"p": 3},
            "automorphism": {"recipe": "power", "k": -1}}
    G, phi = build_corpus_instance(spec)
    assert all("witness" not in c for c in report._coprime_facts(phi)["centralizing"])
    # a core that [G, phi] = G does not centralize, generated by a product of
    # generators, so that its elements' words are not their indices
    a, b = G.generator_indices
    core = subgroup_generated(G, [G.mul(a, b)])
    monkeypatch.setattr(automorphisms, "normal_core", lambda G, H: core)
    section = report._coprime_facts(phi)
    assert section["verdict"] == "fail"
    failed = [c for c in section["centralizing"] if c["verdict"] == "fail"]
    assert [c["subgroup"] for c in failed] == ["core_of_fixed"]
    assert all("witness" not in c for c in section["centralizing"] if c["verdict"] == "pass")
    words = failed[0]["witness"]
    assert set(words) == {"m", "x"}
    assert all(type(k) is int for w in words.values() for k in w)
    # the words spell the first non-commuting pair of the scan
    first = next((m, x) for m in twisted_data(phi).commutator_phi.members
                 for x in core.members if G.mul(m, x) != G.mul(x, m))
    assert len(words["x"]) > 1
    assert (G.evaluate_word(words["m"]), G.evaluate_word(words["x"])) == first
    G2, phi2 = build_corpus_instance(spec)
    m, x = G2.evaluate_word(words["m"]), G2.evaluate_word(words["x"])
    assert m in twisted_data(phi2).commutator_phi.member_set
    assert G2.mul(m, x) != G2.mul(x, m)


def _first_noncommuting_pair(G, H, N):
    """The first (m, x), m in H and x in N in member order, with m x != x m,
    by a scan of all pairs; None when H centralizes N."""
    return next(((m, x) for m in H.members for x in N.members
                 if G.mul(m, x) != G.mul(x, m)), None)


def test_centralizing_by_generators_matches_all_pairs():
    # fact (c) checks only non-central subgroups: on the corpus and the
    # nilpotent seed they come from a phi that acts trivially, so S3 x C11
    # gives the candidates under a phi that acts
    from coprimelab import automorphisms
    specs = (default_corpus()["instances"] + load_workloads().nilpotent_corpus(1)["instances"]
             + [S3_C11])
    candidates = acting = failing = 0
    for spec in specs:
        G, phi = build_corpus_instance(spec)
        if phi is None or not phi.coprime:
            continue
        td = twisted_data(phi)
        family = automorphisms.default_normal_family(phi)
        central = [N for _, N in automorphisms._central_candidates(phi, family)]
        pairs = [(td.commutator_phi, N) for N in central]
        # pairs that need not commute, so that failing verdicts are compared too
        subgroups = [td.commutator_phi, td.fixed, G.whole_subgroup(), *(N for _, N in family)]
        pairs += [(H, N) for H in subgroups for N in subgroups if H.order * N.order <= 50_000]
        for H, N in pairs:
            expected = _first_noncommuting_pair(G, H, N)
            assert automorphisms._noncommuting_pair(G, H, N) == expected, spec["id"]
            failing += expected is not None
        candidates += len(central)
        acting += len(central) * (td.commutator_phi.order > 1)
    assert candidates >= 14 and acting >= 2 and failing >= 100, (candidates, acting, failing)


# S3 x C11 with phi of order 5 on C11 (ROADMAP item 27): fact (c) meets
# subgroups outside the centre, and the product check a product larger than
# each member, which no shipped instance gives it
S3_C11 = {**product_spec({"name": "symmetric", "params": {"m": 3}}, cyclic_spec(11)),
          "automorphism": {"recipe": "gen_powers", "powers": [1, 1, 3]}}


def test_s3_c11_gives_fact_c_and_the_product_check_content():
    G, phi = build_corpus_instance(S3_C11)
    assert (G.order, phi.order_n, phi.coprime) == (66, 5, True)
    out = report.analyze_instance(S3_C11)
    auto = out["automorphism"]
    assert [(c["subgroup"], c["order"], c["verdict"])
            for c in auto["coprime_facts"]["centralizing"]] == [("derived", 3, "pass"),
                                                                ("core_of_fixed", 6, "pass")]
    Z = center(G).member_set
    central = check_coprime_facts(phi)[2]
    assert len(central) == 2 and not any(N.member_set <= Z for _, N, _ in central)
    members = sorted(N.order for _, N in default_normal_family(phi))
    product = auto["product_fixed_points"]
    assert members == [3, 11] and product["product_order"] == 33
    assert product["verdict"] == "pass"
    counts = report.count_verdicts(out)
    assert (counts["pass"], counts["fail"]) == (8, 0)
