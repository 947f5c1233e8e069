import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import blockfuse.cli as cli
import blockfuse.descent as descent
import blockfuse.fusion as fusion
import blockfuse.groups as groups_mod
from blockfuse.algebra import (VerificationError, augmentation, basis_element, find_block,
                               primitive_central_idempotents, principal_block)
from blockfuse.brauer import maximal_pairs
from blockfuse.brauer import BrauerPair, centralizer_blocks, subpair_table
from blockfuse.fusion import (FusionSystem, _extension_counterexample, alperin_check,
                              assert_fusion_axioms, block_fusion, closure,
                              factorization_check, fusion_equal, group_fusion,
                              inner_automorphisms, map_order, saturation_report, sylow_index)
from blockfuse.gf import make_tower
from blockfuse.groups import (GroupMap, Subgroup, all_subgroups, build_group,
                              centralizer_in, full_subgroup, normalizer_in,
                              sylow_p_subgroup, trivial_subgroup)
from oracles import (block_fusion_scan, closure_bfs, conjugation_isos_scan, cyclic_subgroup,
                     extension_counterexample_scan, factorization_check_scan,
                     fully_centralized_scan, fully_normalized_scan, fusion_axioms_scan,
                     fusion_equal_scan, generated_subgroup_bfs, hom_count_matrix_dense,
                     is_centric_scan, n_phi_scan, saturation_report_full_scan)

F2 = make_tower(2, 1, 1)
F4 = make_tower(2, 1, 2)
BENCH_GROUPS = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def _c4(d24):
    return cyclic_subgroup(d24, d24.power(1, 3))


def _d24_block_b(d24, tower=F2):
    blocks = primitive_central_idempotents(d24, tower)
    g, g2 = d24.power(1, 4), d24.power(1, 8)
    return find_block(blocks, basis_element(d24, tower, g) + basis_element(d24, tower, g2))


def test_group_fusion_of_p_on_itself(groups):
    d8 = groups["d8"]
    P = full_subgroup(d8)
    F = group_fusion(P, d8)
    assert fusion_equal(F, closure(P, []))  # the minimal fusion system
    assert_fusion_axioms(F)


def test_group_fusion_c4_in_d24(d24):
    P = _c4(d24)
    F = group_fusion(P, d24)
    assert len(F.aut_set(P)) == 2  # identity and inversion
    assert_fusion_axioms(F)


def test_conjugation_isos_match_the_all_elements_scan(corpus_objects):
    """One transporter per left coset of C_H(Q) gives the maps of every x
    in H, for H = G and H = P, and one per left coset of C_P(Q) in N_P(Q)
    gives Aut_P(Q) for every Q <= P: on the principal defect group of each
    corpus entry and on a Sylow 2-subgroup of 2^3:S4."""
    bench = cli.load_group_file(str(BENCH_GROUPS / "2e3s4.json"))
    cases = [(o["group"], o["principal"].p_subgroup) for o in corpus_objects]
    cases.append((bench, sylow_p_subgroup(bench, 2)))
    for G, P in cases:
        assert (fusion._conjugation_isos(P, full_subgroup(G))
                == conjugation_isos_scan(P, G.elements()))
        inner = conjugation_isos_scan(P, P.elems)
        assert fusion._conjugation_isos(P, P) == inner
        for Q in all_subgroups(P):
            assert inner_automorphisms(P, Q) == {m for m in inner
                                                 if m.domain == Q and m.codomain == Q}


def test_sylow_index_counts_the_automorphism_sets(corpus_objects):
    """|Aut_F(P)| / |Aut_P(P)| from the maps of both sets, for the
    principal system and both sides of every descent of the corpus."""
    systems = [o["principal"] for o in corpus_objects]
    systems += [F for o in corpus_objects for ctx in o["contexts"]
                for F in (ctx.system_l, ctx.system_k)]
    for F in systems:
        P = F.p_subgroup
        inner = {m for m in conjugation_isos_scan(P, P.elems) if m.domain == m.codomain == P}
        assert sylow_index(F) * len(inner) == len(F.aut_set(P))


def test_group_fusion_abelian_only_inclusions(groups):
    v4 = groups["c2c2"]
    P = full_subgroup(v4)
    F = group_fusion(P, v4)
    for Q in F.subgroups:
        for R in F.subgroups:
            homs = F.hom_set(Q, R)
            if Q.is_subset_of(R):
                assert len(homs) == 1  # the inclusion only
            else:
                assert not homs


def test_block_fusion_d24_f2(d24):
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    F = block_fusion(d24, F2, b, root)
    P = root.subgroup
    assert len(inner_automorphisms(P, P)) == 1  # P abelian
    assert len(F.aut_set(P)) == 2
    assert sylow_index(F) == 2
    rep = saturation_report(F)
    assert not rep.sylow_ok and rep.extension_ok and not rep.saturated
    assert rep.aut_index == 2 and rep.witness == {"kind": "sylow_index", "index": 2}
    assert_fusion_axioms(F)


def test_block_fusion_d24_f4(d24):
    b = _d24_block_b(d24, F4)
    root = maximal_pairs(d24, F4, b).pairs[0]
    F = block_fusion(d24, F4, b, root)
    assert len(F.aut_set(root.subgroup)) == 1
    rep = saturation_report(F)
    assert rep.sylow_ok and rep.saturated and rep.witness is None
    assert_fusion_axioms(F)


def test_block_fusion_requires_maximal_root(d24):
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    C2 = cyclic_subgroup(d24, d24.power(1, 6))
    small = BrauerPair(C2, subpair_table(root)[C2])
    with pytest.raises(ValueError):
        block_fusion(d24, F2, b, small)


def test_principal_block_fusion_is_group_fusion(groups, d24):
    for G, tower, p in ((groups["s4"], F2, 2), (groups["a4"], F2, 2),
                        (d24, F2, 2), (groups["s4"], make_tower(3, 1, 1), 3)):
        blocks = primitive_central_idempotents(G, tower)
        pb = principal_block(blocks)
        mp = maximal_pairs(G, tower, pb)
        root = mp.pairs[0]
        S = sylow_p_subgroup(G, p)
        assert root.subgroup.order == S.order
        F = block_fusion(G, tower, pb, root)
        assert fusion_equal(F, group_fusion(root.subgroup, G))
        assert saturation_report(F).saturated


def test_block_fusion_matches_scan_oracle_on_corpus(corpus_objects):
    cases = []
    for objects in corpus_objects:
        G, tower = objects["group"], objects["tower"]
        pb = principal_block(primitive_central_idempotents(G, tower))
        cases.append((objects["principal"], G, tower, pb, maximal_pairs(G, tower, pb).pairs[0]))
        for ctx in objects["contexts"]:
            cases.append((ctx.system_l, ctx.group, ctx.tower, ctx.block, ctx.root))
            cases.append((ctx.system_k, ctx.group, ctx.tower, ctx.k_block, ctx.k_root))
    assert cases
    for F, G, tower, b, root in cases:
        assert F.isos == block_fusion_scan(G, tower, b, root).isos


@pytest.mark.parametrize("p", [2, 3])
def test_block_fusion_matches_scan_oracle_on_builtin_groups(groups, p):
    """Every block of every builtin group over F_{p^2} and over F_p."""
    tower = make_tower(p, 1, 2)
    non_principal = 0
    for G in groups.values():
        for over_k in (False, True):
            for b in primitive_central_idempotents(G, tower, over_k):
                root = maximal_pairs(G, tower, b).pairs[0]
                assert (block_fusion(G, tower, b, root).isos
                        == block_fusion_scan(G, tower, b, root).isos)
                non_principal += augmentation(b.elem) != 1
    assert non_principal


def test_fusion_report_shares_lattices_and_transports_by_cosets(monkeypatch):
    """On the fusion reports of S4 and D24 at p = 2 each subgroup lattice is
    enumerated once, conjugate_block runs at most once per distinct map
    c_x: Q -> P (that is, per coset x C_G(Q)) and only for the Q whose
    k C_G(Q) has several blocks, and the cached lattice is not handed out.
    Every centralizer of a 2-subgroup of S4 has one block, so S4
    transports nothing; D24 transports the blocks of C_G(Q) = C12 for
    Q >= C4."""
    enumerated = []
    transported = []
    lattice, conjugate = groups_mod._subgroup_lattice, fusion.conjugate_block

    def counted_lattice(P):
        enumerated.append((id(P.parent), P.elems))
        return lattice(P)

    def counted_conjugate(x, block):
        transported.append(x)
        return conjugate(x, block)

    monkeypatch.setattr(groups_mod, "_subgroup_lattice", counted_lattice)
    monkeypatch.setattr(fusion, "conjugate_block", counted_conjugate)
    for name in ("s4", "d24"):
        G = cli.load_group_file(f"builtin:{name}")
        enumerated.clear()
        transported.clear()
        systems = cli.fusion_report(G, F2)["systems"]
        assert enumerated and len(enumerated) == len(set(enumerated))
        maps = set()
        for i, system in enumerate(systems):
            P = Subgroup(G, system["root"]["P"])
            pset = set(P.elems)
            for Q in all_subgroups(P):
                if len(centralizer_blocks(G, F2, Q, False)) == 1:
                    continue
                for x in range(G.order):
                    images = tuple(G.conj(x, g) for g in Q.elems)
                    if pset.issuperset(images):
                        maps.add((i, Q.elems, images))
        assert len(transported) <= len(maps)
        assert (len(transported) > 0) == (name == "d24")
    subs = all_subgroups(P)
    expected = [S.elems for S in subs]
    subs.clear()
    assert [S.elems for S in all_subgroups(P)] == expected


def test_fully_centralized_normalized(d24):
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    F = block_fusion(d24, F2, b, root)
    P = root.subgroup
    assert P.elems in F.fully_centralized and P.elems in F.fully_normalized
    triv = trivial_subgroup(d24)
    assert triv.elems in F.fully_centralized and triv.elems in F.fully_normalized
    for Q in F.subgroups:
        assert Q.elems in F.fully_normalized  # P abelian: every normalizer is P


def test_is_centric_cases(d24, groups):
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    F = block_fusion(d24, F2, b, root)
    P = root.subgroup
    assert P.elems in F.centric
    C2 = cyclic_subgroup(d24, d24.power(1, 6))
    assert C2.elems not in F.centric  # C_P(C2) = P strictly contains C2
    assert trivial_subgroup(d24).elems not in F.centric


def test_local_predicates_reject_non_objects(d24):
    """The three sets hold objects of the system only: subgroups of G
    that are not inside P are in none of them."""
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    F = block_fusion(d24, F2, b, root)
    objects = {Q.elems for Q in F.subgroups}
    outside = cyclic_subgroup(d24, 1)  # order 12, not inside P
    for facts in (F.fully_centralized, F.fully_normalized, F.centric):
        assert facts and facts <= objects
        assert outside.elems not in facts and full_subgroup(d24).elems not in facts


def _assert_local_facts_match_scans(F):
    """The system's three sets equal the per-subgroup class scans."""
    for facts, scan in ((F.fully_centralized, fully_centralized_scan),
                        (F.fully_normalized, fully_normalized_scan),
                        (F.centric, is_centric_scan)):
        assert facts == frozenset(Q.elems for Q in F.subgroups if scan(F, Q))


def test_local_facts_match_scan_oracles_on_corpus(corpus_objects):
    """The principal systems and the L- and K-systems of all 52 descents."""
    principal = [o["principal"] for o in corpus_objects]
    contexts = [ctx for o in corpus_objects for ctx in o["contexts"]]
    assert principal and len(contexts) == 52
    for F in principal + [F for ctx in contexts for F in (ctx.system_l, ctx.system_k)]:
        _assert_local_facts_match_scans(F)


def test_centric_is_an_inclusion_not_an_order_bound():
    """In P = D8 x C2 the subgroup R = D8 x 1 has |C_P(R)| = 4 < |R|, yet
    C_P(R) = Z(D8) x C2 is not inside R, so R is not centric."""
    G = build_group({"kind": "perm", "name": "D8xC2", "degree": 6, "generators": [
        [1, 2, 3, 0, 4, 5], [0, 3, 2, 1, 4, 5], [0, 1, 2, 3, 5, 4]]})
    P = full_subgroup(G)
    R = generated_subgroup_bfs(G, [1, 2])
    assert R.order == 8 and centralizer_in(P, R).order == 4
    F = closure(P, [])
    assert R.elems not in F.centric and P.elems in F.centric
    _assert_local_facts_match_scans(F)


def test_corpus_decides_saturation_once_per_system(monkeypatch):
    """One corpus pass builds 79 block fusion systems: a descent with K = L
    builds one, and the principal check reads the system of the principal
    block's descent.  A descent whose K-side system has the L-side isos
    keeps the L-side object for both, so the extension check runs once on
    each of the other 54, and on no system twice.  The pass builds the
    N_P/C_P table and the inner isos of P once per (group, P), 21 of each
    since each group file is loaded once, and derives at most 198 hom sets
    (the automizers read by the Sylow index and the Alperin seeds)."""
    built, checked, tables, inner, homs = [], [], [], [], []

    def recording(build):
        def wrapped(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        return wrapped

    for mod in (cli, descent):
        monkeypatch.setattr(mod, "block_fusion", recording(mod.block_fusion))
    extension, local = fusion._extension_counterexample, fusion._build_local_table
    monkeypatch.setattr(fusion, "_extension_counterexample",
                        lambda F: checked.append(F) or extension(F))
    monkeypatch.setattr(fusion, "_build_local_table", lambda P: tables.append(P) or local(P))
    memo, hom_set = groups_mod.FiniteGroup.memo, fusion.FusionSystem.hom_set

    def counted_memo(G, key, build):
        if key[0] == "inner":
            return memo(G, key, lambda: inner.append((id(G), key[1])) or build())
        return memo(G, key, build)

    monkeypatch.setattr(groups_mod.FiniteGroup, "memo", counted_memo)
    monkeypatch.setattr(fusion.FusionSystem, "hom_set",
                        lambda F, Q, R: homs.append(Q) or hom_set(F, Q, R))
    report = cli.run_corpus(cli.load_corpus(cli.default_corpus_path()),
                            base=cli.default_corpus_path().parent)
    assert report["ok"]
    assert len(built) == 79
    assert len(checked) == len({id(F) for F in checked}) == 54
    kept = {id(F) for F in checked}
    assert kept <= {id(F) for F in built}
    shared = [F for F in built if id(F) not in kept]
    assert len(shared) == 25
    assert all(any(F.isos == K.isos for K in checked) for F in shared)
    keys = [(id(P.parent), P.elems) for P in tables]
    assert len(keys) == len(set(keys)) == 21
    assert len(inner) == len(set(inner)) == 21
    assert 0 < len(homs) <= 198


def test_n_phi_cases(groups, d24):
    """The N_phi oracle that the extension check is compared with."""
    d8 = groups["d8"]
    P8 = full_subgroup(d8)
    C4 = cyclic_subgroup(d8, 1)
    ident = GroupMap(C4, C4, C4.elems)
    assert n_phi_scan(P8, ident) == normalizer_in(P8, C4)
    inv_map = GroupMap(C4, C4, tuple(d8.inv[g] for g in C4.elems))
    got = n_phi_scan(P8, inv_map)
    # sanity bounds; here inversion intertwines with every conjugation
    assert C4.is_subset_of(got) and got.is_subset_of(normalizer_in(P8, C4))
    assert got == P8
    # abelian P: the twist subgroup is all of P for every isomorphism
    P4 = _c4(d24)
    inv4 = GroupMap(P4, P4, tuple(d24.inv[g] for g in P4.elems))
    assert n_phi_scan(P4, inv4) == P4


def test_closure_empty_seeds_and_idempotence(groups, d24):
    d8 = groups["d8"]
    P = full_subgroup(d8)
    F_min = closure(P, [])
    assert fusion_equal(F_min, group_fusion(P, d8))
    s4 = groups["s4"]
    S = sylow_p_subgroup(s4, 2)
    F = group_fusion(S, s4)
    again = closure(S, F.isos)
    assert fusion_equal(F, again)
    assert_fusion_axioms(again)


def test_closure_monotone(d24):
    P = _c4(d24)
    F_small = closure(P, [])
    inv_map = GroupMap(P, P, tuple(d24.inv[g] for g in P.elems))
    F_big = closure(P, [inv_map])
    for Q in F_small.subgroups:
        for R in F_small.subgroups:
            assert F_small.hom_set(Q, R) <= F_big.hom_set(Q, R)
    assert not fusion_equal(F_small, F_big)
    assert_fusion_axioms(F_big)


def test_fusion_equal_cases(d24):
    P = _c4(d24)
    F1 = group_fusion(P, d24)
    assert fusion_equal(F1, F1)
    assert not fusion_equal(closure(P, []), F1)  # extra fusion from reflections
    b = _d24_block_b(d24, F4)
    root = maximal_pairs(d24, F4, b).pairs[0]
    F = block_fusion(d24, F4, b, root)
    b2 = _d24_block_b(d24, F2)
    root2 = maximal_pairs(d24, F2, b2).pairs[0]
    F_tilde = block_fusion(d24, F2, b2, root2)
    # proper inclusion of fusion systems across the field descent
    for Q in F.subgroups:
        for R in F.subgroups:
            assert F.hom_set(Q, R) <= F_tilde.hom_set(Q, R)
    assert not fusion_equal(F, F_tilde)


def test_fusion_system_accepts_only_isos_onto_images(groups, d24):
    d8 = groups["d8"]
    P = full_subgroup(d8)
    twin = full_subgroup(cli.load_group_file("builtin:d8"))  # same table, another group
    C4 = cyclic_subgroup(d8, 1)
    inner = closure(P, []).isos
    for bad in (GroupMap(twin, twin, twin.elems), GroupMap(C4, P, C4.elems)):
        with pytest.raises(ValueError):
            FusionSystem(P, inner | {bad})
    with pytest.raises(ValueError):
        closure(P, [GroupMap(twin, twin, twin.elems)])
    C4 = _c4(d24)
    outside = cyclic_subgroup(d24, next(g for g in d24.elements() if g not in C4.elems))
    with pytest.raises(ValueError):
        FusionSystem(C4, [GroupMap(outside, outside, outside.elems)])


def test_alperin_cases(groups, d24):
    d8 = groups["d8"]
    F_min = closure(full_subgroup(d8), [])
    assert alperin_check(F_min)
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    F_tilde = block_fusion(d24, F2, b, root)
    assert alperin_check(F_tilde)  # holds although F_tilde is not saturated


def test_factorization_trivial_and_constructed(d24):
    P = _c4(d24)
    F = closure(P, [])
    ident = GroupMap(P, P, P.elems)
    assert factorization_check(F, F, ident)
    inv_map = GroupMap(P, P, tuple(d24.inv[g] for g in P.elems))
    F_big = closure(P, [inv_map])
    assert map_order(inv_map) == 2
    assert factorization_check(F, F_big, inv_map)
    # sigma must belong to the bigger system
    with pytest.raises(ValueError):
        factorization_check(F, F, inv_map)


def test_extension_axiom_group_fusion_sylow(groups, d24):
    for G, p in ((groups["s4"], 2), (groups["a4"], 2), (d24, 2), (groups["s3"], 3)):
        S = sylow_p_subgroup(G, p)
        F = group_fusion(S, G)
        rep = saturation_report(F)
        assert rep.extension_ok and rep.saturated


def test_hom_sets_closed_under_inner_twists(groups, d24):
    """Block-fusion hom sets absorb pre and post composition with inner
    conjugation maps."""
    cases = []
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    cases.append(block_fusion(d24, F2, b, root))
    s4 = groups["s4"]
    pb = primitive_central_idempotents(s4, F2)[0]
    root4 = maximal_pairs(s4, F2, pb).pairs[0]
    cases.append(block_fusion(s4, F2, pb, root4))
    for F in cases:
        P = F.p_subgroup
        G = P.parent
        for Q in F.subgroups:
            for R in F.subgroups:
                homs = F.hom_set(Q, R)
                for m in homs:
                    for u in P.elems:
                        # post-compose with c_u when it keeps the image in R
                        post = tuple(G.conj(u, m.apply(g)) for g in Q.elems)
                        if set(post) <= set(R.elems):
                            assert any(h.images == post for h in homs)
                        # pre-compose with c_u on a stable domain
                        if all(G.conj(u, g) in set(Q.elems) for g in Q.elems):
                            pre = tuple(m.apply(G.conj(u, g)) for g in Q.elems)
                            assert any(h.images == pre for h in homs)


def _hom_count_table(F):
    """|Hom(Q, R)| for Q, R over `F.subgroups`, read from the per-class
    rows of `hom_count_rows`."""
    rows = {Q: row for cls, row in F.hom_count_rows(F.subgroups) for Q in cls}
    return [list(rows[Q]) for Q in F.subgroups]


def _assert_matches_scan_oracles(F):
    """The extension witness against the scan that builds every N_phi by
    `n_phi_scan`, and the hom-count rows against the hom sets."""
    assert _extension_counterexample(F) == extension_counterexample_scan(F)
    counts = _hom_count_table(F)
    assert [[len(F.hom_set(Q, R)) for R in F.subgroups] for Q in F.subgroups] == counts


def _assert_per_class_matches_full_scan(F):
    """The saturation report and the hom counts equal the full-scan and
    dense-product oracles, and the full scan runs, after the per-class
    check, exactly when F is not saturated: in a saturated system the
    first fully normalized member of each class is fully automized and
    receptive, and in any other some class has no such member."""
    scans = []
    scan = fusion._first_non_extendable
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fusion, "_first_non_extendable",
                      lambda F: scans.append(F) or scan(F))
        rep = saturation_report(F)
    assert len(scans) == (not rep.saturated)
    assert rep == saturation_report_full_scan(F)
    assert _hom_count_table(F) == hom_count_matrix_dense(F).tolist()
    return rep


def test_equality_and_factorization_match_scan_oracles_on_corpus(corpus_objects):
    """Both verdicts of every descent: L = K and closure(L + sigma) = K,
    and the twist factorization of K over L."""
    contexts = [ctx for o in corpus_objects for ctx in o["contexts"]]
    assert len(contexts) == 52
    for ctx in contexts:
        generated = closure(ctx.root.subgroup, ctx.system_l.isos | {ctx.sigma})
        for F in (ctx.system_l, generated):
            assert fusion_equal(F, ctx.system_k) == fusion_equal_scan(F, ctx.system_k)
        assert (factorization_check(ctx.system_l, ctx.system_k, ctx.sigma)
                == factorization_check_scan(ctx.system_l, ctx.system_k, ctx.sigma))


def test_extension_check_matches_scan_oracle_on_corpus(corpus_objects):
    systems = [F for o in corpus_objects for ctx in o["contexts"]
               for F in (ctx.system_l, ctx.system_k)]
    assert systems
    for F in systems:
        _assert_matches_scan_oracles(F)


def _injective_homs_into(P):
    """Every injective homomorphism from a subgroup of P into P: images of
    a greedy generating set extended along words, kept when GroupMap
    accepts the result."""
    G = P.parent
    out = []
    for Q in all_subgroups(P):
        gens = []
        for g in Q.elems:
            if g not in generated_subgroup_bfs(G, gens).elems:
                gens.append(g)
        for targets in itertools.product(P.elems, repeat=len(gens)):
            image = {0: 0}
            frontier = [0]
            while frontier:
                w = frontier.pop()
                for g, t in zip(gens, targets):
                    if G.mul[w][g] not in image:
                        image[G.mul[w][g]] = G.mul[image[w]][t]
                        frontier.append(G.mul[w][g])
            try:
                out.append(GroupMap(Q, P, [image[g] for g in Q.elems]))
            except ValueError:  # not injective, or not a homomorphism
                pass
    return out


@pytest.fixture(scope="module")
def sylow2_homs(groups):
    out = {}
    for name in ("d8", "s4"):
        P = sylow_p_subgroup(groups[name], 2)
        out[name] = (P, _injective_homs_into(P))
    return out


@given(st.data())
def test_closure_extension_check_matches_scan_oracle(sylow2_homs, data):
    """The closure of drawn seeds equals the breadth-first oracle's, and
    its extension check, hom counts and saturation report the scans'."""
    P, homs = sylow2_homs[data.draw(st.sampled_from(("d8", "s4")))]
    seeds = data.draw(st.lists(st.sampled_from(homs), max_size=3))
    F = closure(P, seeds)
    assert F.isos == closure_bfs(P, seeds).isos
    _assert_matches_scan_oracles(F)
    _assert_per_class_matches_full_scan(F)


@given(st.data())
def test_closure_local_facts_match_scan_oracles(sylow2_homs, data):
    P, homs = sylow2_homs[data.draw(st.sampled_from(("d8", "s4")))]
    seeds = data.draw(st.lists(st.sampled_from(homs), max_size=3))
    _assert_local_facts_match_scans(closure(P, seeds))


@given(st.data())
def test_closure_equality_and_factorization_match_scan_oracles(sylow2_homs, data):
    """F = closure(P, s1) inside F_big = closure(P, s1 + s2), with sigma
    drawn from Aut_{F_big}(P)."""
    P, homs = sylow2_homs[data.draw(st.sampled_from(("d8", "s4")))]
    s1 = data.draw(st.lists(st.sampled_from(homs), max_size=2))
    s2 = data.draw(st.lists(st.sampled_from(homs), max_size=2))
    F, F_big = closure(P, s1), closure(P, s1 + s2)
    sigma = data.draw(st.sampled_from(sorted(F_big.aut_set(P), key=lambda m: m.images)))
    assert fusion_equal(F, F_big) == fusion_equal_scan(F, F_big)
    assert factorization_check(F, F_big, sigma) == factorization_check_scan(F, F_big, sigma)


def _alperin_seeds(F):
    """The seeds `alperin_check` closes: Aut_F(Q) for every centric, fully
    normalized Q."""
    return [m for Q in F.subgroups
            if Q.elems in F.centric and Q.elems in F.fully_normalized for m in F.aut_set(Q)]


def _assert_closure_matches_bfs(contexts):
    """`closure` equals the breadth-first oracle on the generation seeds
    (the L-side isos plus sigma) and on the Alperin seeds of both sides of
    every descent."""
    for ctx in contexts:
        P = ctx.root.subgroup
        for seeds in (ctx.system_l.isos | {ctx.sigma},
                      _alperin_seeds(ctx.system_l), _alperin_seeds(ctx.system_k)):
            assert closure(P, seeds).isos == closure_bfs(P, seeds).isos


def test_closure_matches_bfs_oracle_on_corpus(corpus_objects):
    _assert_closure_matches_bfs([ctx for o in corpus_objects for ctx in o["contexts"]])


@pytest.mark.parametrize("source,tower", [
    ("builtin:c5c8s2", (2, 1, 4)), ("builtin:c7c9s3", (3, 2, 6)), ("builtin:c7v4s3", (2, 1, 3))])
def test_closure_matches_bfs_oracle_on_nonsplit_descents(source, tower):
    """(C5xC8):C2 over F16/F2, (C7xC9):C3 over F_{3^6}/F_{3^2} and
    (C7xV4):C3 over F8/F2, where closing the L-side system with sigma adds
    fusion."""
    G, t = cli.load_group_file(source), make_tower(*tower)
    contexts = [descent.run_descent(G, t, b)[1] for b in cli._descent_blocks(G, t, "all")]
    assert any(not fusion_equal(ctx.system_l, ctx.system_k) for ctx in contexts)
    _assert_closure_matches_bfs(contexts)


def test_fusion_axioms_name_the_map_the_closure_adds(groups):
    """The group fusion of S4 on its Sylow 2-subgroup P passes both axiom
    checks.  Each broken copy fails both: one that drops a non-identity
    inner iso, the inverse of an order-3 automorphism alpha of the normal
    V4, a restriction of alpha to an order-2 subgroup it moves, or a
    non-inner involution of V4 (a restriction of nothing in F, only a
    composite), and one that adds a non-injective map.  Where a map is
    dropped, the error names it."""
    s4 = groups["s4"]
    P = sylow_p_subgroup(s4, 2)
    F = group_fusion(P, s4)
    assert_fusion_axioms(F)
    fusion_axioms_scan(F)
    V = next(Q for Q in F.subgroups if Q.order == 4 and len(F.aut_set(Q)) == 6)
    outer = sorted(F.aut_set(V) - inner_automorphisms(P, V), key=lambda m: m.images)
    alpha = next(m for m in outer if map_order(m) == 3)
    involution = next(m for m in outer if map_order(m) == 2)
    moved = next(Q for Q in F.subgroups if Q.order == 2 and Q.is_subset_of(V)
                 and alpha.restrict(Q).codomain != Q)
    inner = next(m for m in sorted(inner_automorphisms(P, P), key=lambda m: m.images)
                 if m.images != P.elems)
    dropped = [inner, alpha.inverse(), alpha.restrict(moved), involution]
    assert len(set(dropped)) == 4 and set(dropped) <= F.isos
    for m in dropped:
        broken = FusionSystem(P, F.isos - {m})
        with pytest.raises(VerificationError, match=re.escape(repr(m))):
            assert_fusion_axioms(broken)
        with pytest.raises(VerificationError):
            fusion_axioms_scan(broken)
    collapse = GroupMap(moved, moved, (moved.elems[0],) * 2, _checked=True)
    broken = FusionSystem(P, F.isos | {collapse})
    with pytest.raises(VerificationError, match="non-injective"):
        assert_fusion_axioms(broken)
    with pytest.raises(VerificationError, match="non-injective"):
        fusion_axioms_scan(broken)


def test_extension_witness_is_canonical(groups):
    s4 = groups["s4"]
    P = sylow_p_subgroup(s4, 2)
    Z = centralizer_in(P, P)
    seeds = [GroupMap(Q, Z, Z.elems) for Q in all_subgroups(P)
             if Q.order == 2 and Q != Z]
    rep = saturation_report(closure(P, seeds))
    assert rep.sylow_ok and not rep.extension_ok
    assert rep.witness == {"kind": "non_extendable_morphism", "domain": [0, 15],
                           "images": [0, 3]}


def test_per_class_saturation_matches_full_scan_on_corpus(corpus_objects):
    """Every L-side and K-side block system of the corpus, the unsaturated
    K-sides that fall back to the full scan included."""
    systems = {id(F): F for o in corpus_objects for ctx in o["contexts"]
               for F in (ctx.system_l, ctx.system_k)}
    verdicts = [_assert_per_class_matches_full_scan(F).saturated for F in systems.values()]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("source,tower", [
    ("builtin:c5c8s2", (2, 1, 4)), ("builtin:c7c9s3", (3, 2, 6)), ("2e3s4.json", (2, 1, 1))])
def test_per_class_saturation_matches_full_scan(source, tower):
    """Both systems of every descent of (C5xC8):C2 over F16/F2 and of
    (C7xC9):C3 over F_{3^6}/F_{3^2}, and the block systems of 2^3:S4 at
    p = 2."""
    if not source.startswith("builtin:"):
        source = str(Path(__file__).resolve().parents[1] / "perfbench" / "groups" / source)
    G, t = cli.load_group_file(source), make_tower(*tower)
    systems = []
    if t.m < t.n:
        for b in cli._descent_blocks(G, t, "all"):
            ctx = descent.run_descent(G, t, b)[1]
            systems += [ctx.system_l, ctx.system_k]
    else:
        systems = [block_fusion(G, t, b, maximal_pairs(G, t, b).pairs[0])
                   for b in primitive_central_idempotents(G, t)]
    assert systems
    for F in systems:
        _assert_per_class_matches_full_scan(F)
