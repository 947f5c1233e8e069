from pathlib import Path

import pytest

import blockfuse.brauer as brauer
import blockfuse.cli as cli
from blockfuse.algebra import (basis_element, conjugate_element, find_block, is_stable,
                               primitive_central_idempotents, principal_block)
from blockfuse.brauer import (BrauerPair, centralizer_blocks, conjugate_block,
                              is_pair_of_block, maximal_pairs, normal_leq,
                              pair_stabilizer, subpair_table)
from blockfuse.fusion import block_fusion
from blockfuse.gf import make_tower
from blockfuse.groups import Subgroup, all_subgroups, sylow_p_subgroup, trivial_subgroup

from conftest import GROUP_NAMES, load_builtin
from oracles import (block_fusion_cosets, conjugate_element_scan, conjugate_subgroup,
                     cyclic_subgroup, is_stable_scan, subpair_table_normal_steps, support)

ROOT = Path(__file__).resolve().parents[1]

F2 = make_tower(2, 1, 1)
F4 = make_tower(2, 1, 2)


def _d24_block_b(d24, tower=F2):
    blocks = primitive_central_idempotents(d24, tower)
    g, g2 = d24.power(1, 4), d24.power(1, 8)
    return find_block(blocks, basis_element(d24, tower, g) + basis_element(d24, tower, g2))


def _c4(d24):
    return cyclic_subgroup(d24, d24.power(1, 3))


def conjugate_pair(x: int, pair: BrauerPair) -> BrauerPair:
    return BrauerPair(conjugate_subgroup(pair.subgroup, x), conjugate_block(x, pair.block))


def test_trivial_pair_of_any_block(d24):
    for b in primitive_central_idempotents(d24, F2):
        pair = BrauerPair(trivial_subgroup(d24), b)
        assert is_pair_of_block(pair, b)


def test_c4_pair_of_b(d24):
    b = _d24_block_b(d24)
    P = _c4(d24)
    cent = centralizer_blocks(d24, F2, P, over_k=False)
    e = find_block(cent, brauer_map_of(d24, b, P))
    assert is_pair_of_block(BrauerPair(P, e), b)
    b0 = principal_block(primitive_central_idempotents(d24, F2))
    assert not is_pair_of_block(BrauerPair(P, e), b0)


def brauer_map_of(G, block, P):
    from blockfuse.algebra import brauer_map
    return brauer_map(block.elem, P, check_stable=False)


def test_normal_leq_cases(d24):
    b = _d24_block_b(d24)
    P = _c4(d24)
    e = find_block(centralizer_blocks(d24, F2, P, over_k=False), brauer_map_of(d24, b, P))
    root = BrauerPair(P, e)
    assert normal_leq(root, root)  # reflexive
    triv = BrauerPair(trivial_subgroup(d24), b)
    assert normal_leq(triv, root)
    # exactly one block of k C_G(C2) sits under the root
    C2 = cyclic_subgroup(d24, d24.power(1, 6))
    hits = [f for f in centralizer_blocks(d24, F2, C2, over_k=False)
            if normal_leq(BrauerPair(C2, f), root)]
    assert len(hits) == 1
    # C2 here is central, so its centralizer blocks are the blocks of kG
    assert hits[0].elem.coeffs == b.elem.coeffs


def test_normal_leq_requires_normality(groups):
    s4 = groups["s4"]
    blocks = primitive_central_idempotents(s4, F2)
    b = blocks[0]
    S = sylow_p_subgroup(s4, 2)
    mp = maximal_pairs(s4, F2, b)
    root = mp.pairs[0]
    # a non-normal order-2 subgroup of the Sylow: a transposition-type one
    cands = [Q for Q in all_subgroups(S) if Q.order == 2]
    non_normal = [Q for Q in cands
                  if any(s4.conj(x, g) not in set(Q.elems) for x in S.elems for g in Q.elems)]
    assert non_normal
    f = centralizer_blocks(s4, F2, non_normal[0], over_k=False)[0]
    with pytest.raises(ValueError):
        normal_leq(BrauerPair(non_normal[0], f), root)


def test_subpair_cases(d24):
    b = _d24_block_b(d24)
    P = _c4(d24)
    e = find_block(centralizer_blocks(d24, F2, P, over_k=False), brauer_map_of(d24, b, P))
    root = BrauerPair(P, e)
    table = subpair_table(root)
    assert table[P] == e
    triv = table[trivial_subgroup(d24)]
    assert triv.elem.coeffs == b.elem.coeffs
    C2 = cyclic_subgroup(d24, d24.power(1, 6))
    f = table[C2]
    assert normal_leq(BrauerPair(C2, f), root)


def test_subpair_transitivity(groups, d24):
    """Computing e_Q through an intermediate pair gives the same block."""
    for G, tower in ((d24, F2), (groups["s4"], F2), (d24, F4)):
        for b in primitive_central_idempotents(G, tower):
            mp = maximal_pairs(G, tower, b)
            root = mp.pairs[0]
            table = subpair_table(root)
            for R in all_subgroups(root.subgroup):
                mid = BrauerPair(R, table[R.elems])
                mid_table = subpair_table(mid)
                for Q in all_subgroups(R):
                    assert mid_table[Q.elems] == table[Q.elems]


def test_subpair_independent_of_normal_tower(groups):
    """Solving normal steps down an arbitrary normal tower, not just the
    normalizer tower, gives the same assignment."""
    s4 = groups["s4"]
    b = primitive_central_idempotents(s4, F2)[0]
    root = maximal_pairs(s4, F2, b).pairs[0]
    P = root.subgroup
    table = subpair_table(root)

    def is_normal_in(Q, R):
        qset = set(Q.elems)
        return Q.is_subset_of(R) and all(
            s4.conj(x, g) in qset for x in R.elems for g in Q.elems)

    for R in all_subgroups(P):
        if not is_normal_in(R, P):
            continue
        sup = BrauerPair(R, table[R.elems])
        # every normal step below R must land on the table entry
        hits_sup = [f for f in centralizer_blocks(s4, F2, R, over_k=False)
                    if normal_leq(BrauerPair(R, f), root)]
        assert hits_sup == [table[R.elems]]
        for Q in all_subgroups(R):
            if not is_normal_in(Q, R):
                continue
            hits = [f for f in centralizer_blocks(s4, F2, Q, over_k=False)
                    if normal_leq(BrauerPair(Q, f), sup)]
            assert hits == [table[Q.elems]]


def test_maximal_pairs_p_group(groups):
    d8 = groups["d8"]
    b = primitive_central_idempotents(d8, F2)[0]
    mp = maximal_pairs(d8, F2, b)
    assert mp.defect_order == 8
    assert len(mp.pairs) == 1
    assert mp.pairs[0].subgroup.order == 8


def test_maximal_pairs_d24_f2(d24):
    b = _d24_block_b(d24)
    mp = maximal_pairs(d24, F2, b)
    assert mp.defect_order == 4
    assert len(mp.pairs) == 1
    assert mp.pairs[0].subgroup == _c4(d24)
    # the pair block is b itself seen inside k C_G(C4) = k C12
    assert set(support(mp.pairs[0].block.elem)) == {
        mp.pairs[0].block.owner.ambient_elems.index(d24.power(1, 4)),
        mp.pairs[0].block.owner.ambient_elems.index(d24.power(1, 8))}


def test_maximal_pairs_d24_f4(d24):
    b4 = _d24_block_b(d24, F4)
    mp = maximal_pairs(d24, F4, b4)
    assert mp.defect_order == 4
    assert len(mp.pairs) == 2  # the two centralizer blocks under b
    assert {pr.subgroup for pr in mp.pairs} == {_c4(d24)}
    # same defect order as over F2
    assert mp.defect_order == maximal_pairs(d24, F2, _d24_block_b(d24)).defect_order


def test_conjugate_pair_cases(d24):
    b4 = _d24_block_b(d24, F4)
    mp = maximal_pairs(d24, F4, b4)
    p1, p2 = mp.pairs
    assert conjugate_pair(0, p1) == p1
    # any element of the centralizer fixes the pair
    x = p1.block.owner.ambient_elems[1]
    assert conjugate_pair(x, p1) == p1
    # a reflection swaps the two maximal pairs
    s = 2
    assert conjugate_pair(s, p1) == p2
    assert conjugate_pair(s, p2) == p1


def test_maximal_pairs_single_orbit(groups, d24):
    """All maximal pairs of a block are conjugate, including the ones found
    by an unrestricted search over every p-subgroup."""
    for G, tower, p in ((d24, F2, 2), (groups["s4"], F2, 2), (groups["s4"],
                        make_tower(3, 1, 1), 3), (groups["c3sc4"], F2, 2)):
        S = sylow_p_subgroup(G, p)
        all_p_subs = {}
        for x in range(G.order):
            for Q in all_subgroups(conjugate_subgroup(S, x)):
                all_p_subs[Q.elems] = Q
        for b in primitive_central_idempotents(G, tower):
            mp = maximal_pairs(G, tower, b)
            from blockfuse.algebra import brauer_map, multiply
            unrestricted = []
            best = max(Q.order for Q in all_p_subs.values()
                       if not brauer_map(b.elem, Q, check_stable=False).is_zero)
            assert best == mp.defect_order
            for Q in all_p_subs.values():
                if Q.order != best:
                    continue
                br = brauer_map(b.elem, Q, check_stable=False)
                if br.is_zero:
                    continue
                for e in centralizer_blocks(G, tower, Q, b.over_k):
                    if multiply(br, e.elem) == e.elem:
                        unrestricted.append(BrauerPair(Q, e))
            orbit = {conjugate_pair(x, mp.pairs[0]) for x in range(G.order)}
            assert set(unrestricted) == orbit
            assert set(mp.pairs) <= orbit


def test_sylow_brauer_image_detects_defect(groups, d24):
    """Br_S(b) for a Sylow S is nonzero exactly when S is a defect group."""
    from blockfuse.algebra import brauer_map
    for G, tower, p in ((d24, F2, 2), (groups["a4"], F2, 2), (groups["s4"],
                        make_tower(3, 1, 1), 3)):
        S = sylow_p_subgroup(G, p)
        for b in primitive_central_idempotents(G, tower):
            mp = maximal_pairs(G, tower, b)
            nonzero = not brauer_map(b.elem, S, check_stable=False).is_zero
            assert nonzero == (mp.defect_order == S.order)


def test_subpair_conjugation_equivariance(d24):
    b = _d24_block_b(d24)
    root = maximal_pairs(d24, F2, b).pairs[0]
    table = subpair_table(root)
    for x in (1, 2, 5):
        xroot = conjugate_pair(x, root)
        xtable = subpair_table(xroot)
        for elems, e_q in table.items():
            conj_elems = tuple(sorted(d24.conj(x, g) for g in elems))
            assert xtable[conj_elems] == conjugate_block(x, e_q)


def test_pair_stabilizer(d24):
    b4 = _d24_block_b(d24, F4)
    mp = maximal_pairs(d24, F4, b4)
    stab = pair_stabilizer(mp.pairs[0])
    assert stab.order == 12  # C12: the reflections move the block
    b2 = _d24_block_b(d24, F2)
    mp2 = maximal_pairs(d24, F2, b2)
    assert pair_stabilizer(mp2.pairs[0]).order == 24


def test_pair_stabilizer_matches_scan(groups):
    """N_G(P, e) against testing every element of G for both coordinates."""
    for name in ("d24", "s4", "c3sc4"):
        G = groups[name]
        for b in primitive_central_idempotents(G, F4):
            for pair in maximal_pairs(G, F4, b).pairs:
                P, e = pair.subgroup, pair.block.elem
                scan = tuple(x for x in range(G.order)
                             if all(G.conj(x, g) in P.elems for g in P.elems)
                             and conjugate_element(x, e) == e)
                assert pair_stabilizer(pair).elems == scan


def test_corpus_builds_pairs_and_tables_once(monkeypatch):
    """One corpus pass builds the maximal pairs of each (group, tower, block)
    and the subpair table of each root exactly once; every other call is a
    memo hit."""
    pair_keys, roots = [], []

    def count_pairs(G, tower, b):
        pair_keys.append((tower.key, b))  # b holds its group: ids stay distinct
        return build_pairs(G, tower, b)

    def count_tables(root):
        roots.append(root)
        return build_table(root)

    build_pairs, build_table = brauer._maximal_pairs, brauer._subpair_table
    monkeypatch.setattr(brauer, "_maximal_pairs", count_pairs)
    monkeypatch.setattr(brauer, "_subpair_table", count_tables)
    report = cli.run_corpus(cli.load_corpus(cli.default_corpus_path()),
                            base=cli.default_corpus_path().parent)
    assert report["ok"]
    assert len(pair_keys) == len(set(pair_keys)) == 106
    assert len(roots) == len(set(roots)) == 104


def test_corpus_stability_and_conjugation_match_scans(monkeypatch):
    """Every stability test of the subpair-table steps of a corpus pass, and
    every block conjugation, agrees with the per-element scan oracles."""
    stable, moved, wrong = [], [], []

    def checked_stable(a, S):
        got = is_stable(a, S)
        stable.append(got)
        if got != is_stable_scan(a, S):
            wrong.append(("is_stable", a, S))
        return got

    def checked_conjugate(x, a):
        got = conjugate_element(x, a)
        moved.append(x)
        if got != conjugate_element_scan(x, a):
            wrong.append(("conjugate_element", x, a))
        return got

    monkeypatch.setattr(brauer, "is_stable", checked_stable)
    monkeypatch.setattr(brauer, "conjugate_element", checked_conjugate)
    report = cli.run_corpus(cli.load_corpus(cli.default_corpus_path()),
                            base=cli.default_corpus_path().parent)
    assert report["ok"] and not wrong
    assert True in stable and False in stable and moved


def _pairs_summary(mp):
    return (mp.defect_order, mp.sylow.elems,
            [(pr.subgroup.elems, _block_summary(pr.block)) for pr in mp.pairs])


def _block_summary(e):
    return (e.index, e.over_k, e.owner.ambient_elems, e.elem.tower.key, e.elem.coeffs)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_memoized_pairs_match_a_fresh_group(name):
    """One group answers for F_{p^2}/F_p at p = 2 and 3, L- and K-blocks
    interleaved; each answer equals the one of a freshly loaded group, so
    no memo key ignores the tower or mixes the two kinds of block."""
    G = load_builtin(name)
    for p in (2, 3):
        tower = make_tower(p, 1, 2)
        for over_k in (False, True):
            fresh = load_builtin(name)
            blocks = primitive_central_idempotents(G, tower, over_k)
            fresh_blocks = primitive_central_idempotents(fresh, tower, over_k)
            assert list(map(_block_summary, blocks)) == list(map(_block_summary, fresh_blocks))
            for b, fb in zip(blocks, fresh_blocks):
                mp, fmp = maximal_pairs(G, tower, b), maximal_pairs(fresh, tower, fb)
                assert _pairs_summary(mp) == _pairs_summary(fmp)
                for root, froot in zip(mp.pairs, fmp.pairs):
                    table = {q: _block_summary(e) for q, e in subpair_table(root).items()}
                    assert table == {q: _block_summary(e)
                                     for q, e in subpair_table(froot).items()}


def _forced_rule_cases():
    """(group file, tower) for every distinct corpus entry, plus 2^3:S4
    at p = 2, D24 over F4/F2 and the two non-split builtins over the
    towers where their descents have index p."""
    entries = cli.load_corpus(cli.default_corpus_path())
    cases = {(e.group, (e.p, e.m, e.n)) for e in entries}
    cases |= {("perfbench/groups/2e3s4.json", (2, 1, 1)), ("builtin:d24", (2, 1, 2)),
              ("builtin:c5c8s2", (2, 1, 4)), ("builtin:c7c9s3", (3, 2, 6))}
    return [pytest.param(source, tower, id=f"{source}@p{tower[0]}m{tower[1]}n{tower[2]}")
            for source, tower in sorted(cases)]


@pytest.mark.parametrize("source,tower", _forced_rule_cases())
def test_forced_subpairs_and_fusion_match_normal_step_oracles(source, tower):
    """For every L- and K-block and every maximal pair, the subpair table
    that takes the only block of a single-block k C_G(Q) equals the one
    solved by normal steps throughout, and block fusion, which transports
    no block into a single-block centralizer, equals the oracle that
    transports one into every coset.  On the non-split groups some
    k C_G(Q) has several blocks over L and over K, so both paths run."""
    G = cli.load_group_file(source, ROOT)
    t = make_tower(*tower)
    for over_k in (False, True):
        unforced = 0
        for b in primitive_central_idempotents(G, t, over_k):
            for root in maximal_pairs(G, t, b).pairs:
                table = subpair_table(root)
                assert table.assignment == subpair_table_normal_steps(root).assignment
                assert table.forced == {q for q in table.assignment
                                        if len(centralizer_blocks(
                                            G, t, Subgroup(G, q, _checked=True), over_k)) == 1}
                unforced += len(table.assignment) - len(table.forced)
                assert block_fusion(G, t, b, root).isos == block_fusion_cosets(G, t, b, root).isos
        if source in ("builtin:c5c8s2", "builtin:c7c9s3"):
            assert unforced
