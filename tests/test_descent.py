import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

import blockfuse.cli as cli
import blockfuse.descent as descent
from blockfuse.algebra import (AlgebraElement, basis_element, find_block,
                               is_k_rational, primitive_central_idempotents,
                               principal_block)
from blockfuse.brauer import maximal_pairs
from blockfuse.descent import (block_correspondence, check_generation,
                               check_local_agreement, check_order_preservation,
                               galois_context, galois_orbit, orbit_sum, run_descent)
from blockfuse.fusion import block_fusion, fusion_equal
from blockfuse.gf import make_tower

from conftest import NONSPLIT_DESCENTS, NONSPLIT_NAMES
from oracles import galois_stabilizer_order_scan, support

F2 = make_tower(2, 1, 1)
F4 = make_tower(2, 1, 2)
F9 = make_tower(3, 1, 2)


def _d24_block_b(d24, tower=F2):
    blocks = primitive_central_idempotents(d24, tower)
    g, g2 = d24.power(1, 4), d24.power(1, 8)
    return find_block(blocks, basis_element(d24, tower, g) + basis_element(d24, tower, g2))


def test_orbit_sum_rational_fixed(groups):
    c3 = groups["c3"]
    blocks = primitive_central_idempotents(c3, F4)
    e0 = blocks[0]  # 1 + g + g^2, already rational
    tilde = orbit_sum(e0)
    assert tilde.elem == e0.elem and tilde.over_k


def test_orbit_sum_f4c3(groups):
    c3 = groups["c3"]
    blocks = primitive_central_idempotents(c3, F4)
    e1 = find_block(blocks, AlgebraElement(c3, F4, (1, 2, 3)))
    tilde = orbit_sum(e1)
    assert tilde.elem.coeffs == (0, 1, 1)  # g + g^2
    assert len(galois_orbit(e1)) == 2


def test_orbit_sum_principal(groups, d24):
    for G in (groups["s4"], d24):
        pb = principal_block(primitive_central_idempotents(G, F4))
        assert orbit_sum(pb).elem == pb.elem


def test_orbit_sum_rejects_k_blocks(groups):
    kb = primitive_central_idempotents(groups["c3"], F4, over_k=True)[0]
    with pytest.raises(ValueError):
        orbit_sum(kb)


def test_block_correspondence_f4c3(groups):
    c3 = groups["c3"]
    corr = block_correspondence(c3, F4)
    assert corr.orbits == ((0,), (1, 2))
    assert corr.bijective and corr.defects_match
    k_blocks = primitive_central_idempotents(c3, F4, over_k=True)
    assert [k_blocks[i].elem.coeffs for i in corr.k_block_of_orbit] == [
        (1, 1, 1), (0, 1, 1)]


def test_block_correspondence_split_identity(groups):
    s4 = groups["s4"]
    corr = block_correspondence(s4, F9)
    assert all(len(o) == 1 for o in corr.orbits)
    assert corr.bijective and corr.defects_match


def test_block_correspondence_d24_f4(d24):
    """Over F4 the two D24 blocks stay primitive and rational, so the
    correspondence is the identity with defect orders 8 and 4."""
    corr = block_correspondence(d24, F4)
    assert corr.orbits == ((0,), (1,))
    assert corr.bijective and corr.defects_match
    assert sorted(corr.defect_orders_l) == [4, 8]
    for b in primitive_central_idempotents(d24, F4):
        assert is_k_rational(b.elem)


def test_block_correspondence_c6_nontrivial_orbit(groups):
    c6 = groups["c6"]
    corr = block_correspondence(c6, F4)
    sizes = sorted(len(o) for o in corr.orbits)
    assert sizes == [1, 2]
    assert corr.bijective and corr.defects_match
    assert set(corr.defect_orders_l) == {2}  # the Sylow 2-subgroup everywhere


def test_descend_pair_d24(d24):
    b4 = _d24_block_b(d24, F4)
    ctx = galois_context(d24, F4, b4)
    k_pair = ctx.k_root
    assert k_pair.subgroup == ctx.root.subgroup
    assert k_pair.block.over_k and k_pair.block == orbit_sum(ctx.root.block)
    # the orbit sum of either centralizer block is g + g^2 in k C12
    own = k_pair.block.owner
    g_loc = own.ambient_elems.index(d24.power(1, 4))
    g2_loc = own.ambient_elems.index(d24.power(1, 8))
    assert support(k_pair.block.elem) == tuple(sorted((g_loc, g2_loc)))


def test_goursat_d24_flagship(d24):
    ctx = galois_context(d24, F4, _d24_block_b(d24, F4))
    assert ctx.k1.order == 12
    assert ctx.p1.order == 24
    assert ctx.k2_order == 1 and ctx.p2_order == 2
    assert ctx.index == 2


def test_goursat_degenerate_tower(d24):
    ctx = galois_context(d24, F2, _d24_block_b(d24, F2))
    assert ctx.index == 1
    assert ctx.k1.order == ctx.p1.order == 24
    assert ctx.k2_order == ctx.p2_order == 1


def test_galois_stabilizer_orders_match_the_divisor_scan(corpus_objects):
    """|Gamma_e| and |Gamma_b|, read as [L:K] over the Galois orbit size,
    equal the least fixing power found by the divisor scan, for every
    corpus descent and the index-4 descent of (C5xC16):C4 over F16/F2."""
    contexts = [ctx for objects in corpus_objects for ctx in objects["contexts"]]
    G, t = _nonsplit_builtin((5, 16, 2, 5)), make_tower(2, 1, 4)
    contexts += [galois_context(G, t, b) for b in cli._descent_blocks(G, t, "all")]
    for ctx in contexts:
        assert ctx.k2_order == galois_stabilizer_order_scan(ctx.root.block.elem)
        assert ctx.p2_order == galois_stabilizer_order_scan(ctx.block.elem)
    assert {ctx.p2_order // ctx.k2_order for ctx in contexts} == {1, 2, 4}


def test_goursat_principal_trivial_quotient(groups, d24):
    for G in (groups["s4"], d24, groups["a4"]):
        pb = principal_block(primitive_central_idempotents(G, F4))
        assert galois_context(G, F4, pb).index == 1


def test_twist_automorphism_trivial(groups):
    s4 = groups["s4"]
    pb = principal_block(primitive_central_idempotents(s4, F4))
    ctx = galois_context(s4, F4, pb)
    assert ctx.g0 == 0
    assert ctx.sigma.images == ctx.root.subgroup.elems


def test_twist_automorphism_d24(d24):
    ctx = galois_context(d24, F4, _d24_block_b(d24, F4))
    assert ctx.g0 == 2  # the first reflection in enumeration order
    sigma = ctx.sigma
    for g in ctx.root.subgroup.elems:
        assert sigma.apply(g) == d24.inv[g]  # inversion on C4
    # sigma to the quotient order lands inside the smaller fusion system
    power = sigma.compose(sigma)
    assert power in ctx.system_l.aut_set(ctx.root.subgroup)


def test_generation_flagship(d24):
    b4 = _d24_block_b(d24, F4)
    ctx = galois_context(d24, F4, b4)
    assert check_generation(ctx)
    assert not fusion_equal(ctx.system_l, ctx.system_k)


def test_generation_degenerate_tower(d24):
    b2 = _d24_block_b(d24, F2)
    ctx = galois_context(d24, F2, b2)
    assert fusion_equal(ctx.system_l, ctx.system_k)
    assert check_generation(ctx)


def test_generation_defect_zero(groups):
    c3 = groups["c3"]
    blocks = primitive_central_idempotents(c3, F4)
    e1 = find_block(blocks, AlgebraElement(c3, F4, (1, 2, 3)))
    ctx = galois_context(c3, F4, e1)
    assert ctx.root.subgroup.order == 1
    assert check_generation(ctx)


def test_saturation_transfer_flagship(d24):
    data, _ = run_descent(d24, F4, _d24_block_b(d24, F4))
    assert data["verdicts"]["saturation_transfer"]
    assert data["saturated"] == {"l": True, "k": False}
    assert data["index_expressions"] == {"group": 2, "galois": 2, "field": 2}


def test_saturation_transfer_index_prime_to_p(d24):
    """p = 3 tower on D24: the descent index is 2, prime to 3, so
    saturation transfers to the subfield system."""
    picked = None
    for b in primitive_central_idempotents(d24, F9):
        data, _ = run_descent(d24, F9, b)
        assert data["verdicts"]["saturation_transfer"]
        if data["index_expressions"]["galois"] == 2:
            picked = data
    assert picked is not None
    assert picked["saturated"] == {"l": True, "k": True}


def test_local_agreement(d24):
    b4 = _d24_block_b(d24, F4)
    ctx = galois_context(d24, F4, b4)
    assert len(ctx.system_l.subgroups) == 3
    assert check_local_agreement(ctx)


def test_order_preservation(d24):
    b4 = _d24_block_b(d24, F4)
    ctx = galois_context(d24, F4, b4)
    assert check_order_preservation(ctx)


def test_sigma_in_k_system(d24, groups):
    for G, tower in ((d24, F4), (groups["s4"], F4), (groups["c3sc4"], F9)):
        for b in primitive_central_idempotents(G, tower):
            ctx = galois_context(G, tower, b)
            assert ctx.sigma in ctx.system_k.aut_set(ctx.root.subgroup)


def _nonsplit_generators(q, pa, u, v):
    """The generators of G(q, p^a, u, v) = (C_q x C_{p^a}) : C_{p^b} on
    q + p^a points: a cycles the first q points, b the other p^a, and t
    multiplies them by u mod q and by v mod p^a."""
    a = [(i + 1) % q for i in range(q)] + [q + j for j in range(pa)]
    b = list(range(q)) + [q + (j + 1) % pa for j in range(pa)]
    t = [u * i % q for i in range(q)] + [q + v * j % pa for j in range(pa)]
    return [a, b, t]


# (C7xC2^2):C3 on 7 + 4 points: a cycles the first 7, b1 and b2 are the
# two involutions of C2^2, and t multiplies by 2 mod 7 and cycles b1, b2
# and b1 b2.
C7V4S3_GENERATORS = [[1, 2, 3, 4, 5, 6, 0, 7, 8, 9, 10],
                     [0, 1, 2, 3, 4, 5, 6, 8, 7, 10, 9],
                     [0, 1, 2, 3, 4, 5, 6, 9, 10, 7, 8],
                     [0, 2, 4, 6, 1, 3, 5, 7, 9, 10, 8]]


def _nonsplit_builtin(group):
    """The shipped group: G(q, p^a, u, v), given by its parameters and
    checked against the generators above, or builtin:c7v4s3 checked
    against C7V4S3_GENERATORS."""
    name = NONSPLIT_NAMES[group]
    generators = C7V4S3_GENERATORS if group == "c7v4s3" else _nonsplit_generators(*group)
    spec = json.loads(cli._builtin_path(name).read_text(encoding="utf-8"))
    assert spec["generators"] == generators
    return cli.load_group_file(f"builtin:{name}")


@pytest.mark.parametrize("group,tower,expected", NONSPLIT_DESCENTS)
def test_nonsplit_descents(group, tower, expected):
    """(C5xC8):C2 and (C7xC9):C3, where t acts on the q-th roots of unity
    as a power of Frobenius: over F16/F2 and F_{3^6}/F_{3^2} an L-saturated
    system descends, with index 2 or 3 = p, to a K-system that is not
    saturated; over F4 and F9 the same blocks are unsaturated on both
    sides, with index 1.  (C7xC2^2):C3 over F8/F2 has index 3, prime to
    p = 2, and both sides saturated.  (C5xC16):C4 descends with index 4 =
    p^2 over F16/F2 and index 2 over F16/F4, and (C13xC9):C3, of order
    351, with index 3 four times over F27/F3, each to an unsaturated
    K-system.  (C7xC9):C3 over F_{3^6}/F3 has one index-3 descent to an
    unsaturated K-system, and over F_{3^6}/F27 only index 1.  Each
    descent, one per Galois orbit, has (index, saturated_l, saturated_k,
    defect_order) pinned, all verdicts true, and
    |Aut_{F_K}(P)| = index |Aut_{F_L}(P)|.  The groups are the shipped
    builtin:c5c8s2, builtin:c7c9s3, builtin:c7v4s3, builtin:c5c16s4 and
    builtin:c13c9s3."""
    G, t = _nonsplit_builtin(group), make_tower(*tower)
    got = []
    for b in cli._descent_blocks(G, t, "all"):
        report, ctx = run_descent(G, t, b)
        assert report["all_ok"]
        P = ctx.root.subgroup
        assert len(ctx.system_k.aut_set(P)) == report["index"] * len(ctx.system_l.aut_set(P))
        got.append((report["index"], report["saturated"]["l"], report["saturated"]["k"],
                    report["defect_order"]))
    assert got == expected


def test_nonsplit_corpus_runs_the_pinned_descents():
    """The shipped non-split corpus holds the towers of
    test_nonsplit_descents, and `cli.run_corpus` on it passes with each
    entry's descents pinned as there."""
    path = cli.default_corpus_path().parent / "nonsplit.json"
    entries = cli.load_corpus(path)
    report = cli.run_corpus(entries, base=path.parent)
    assert report["ok"]
    got = {(e.group, (e.p, e.m, e.n)): [(d["index"], d["saturated"]["l"], d["saturated"]["k"],
                                         d["defect_order"]) for d in r["descent"]]
           for e, r in zip(entries, report["entries"], strict=True)}
    assert got == {(f"builtin:{NONSPLIT_NAMES[group]}", tower): expected
                   for group, tower, expected in NONSPLIT_DESCENTS}


def test_run_descent_report_shape(d24):
    b4 = _d24_block_b(d24, F4)
    data, ctx = run_descent(d24, F4, b4)
    assert set(data) == {"group", "tower", "block_index", "k_block_index", "orbit_size",
                         "defect_order", "root", "k_root", "stabilizers", "index", "g0",
                         "sigma", "verdicts", "saturated", "index_expressions", "all_ok"}
    assert data["all_ok"] is all(data["verdicts"].values()) is True
    assert data["verdicts"]["generation"]
    assert data["index"] == 2
    assert data["sigma"] == [d24.inv[g] for g in ctx.root.subgroup.elems]


def test_readme_worked_example_runs(capsys):
    """The README's python block runs as printed and shows nine verdicts,
    every one True."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(snippet, "README.md", "exec"), {})
    verdicts = ast.literal_eval(capsys.readouterr().out)
    assert len(verdicts) == 9 and all(v is True for v in verdicts.values())


def test_k_system_is_the_l_system_exactly_when_the_isos_agree(corpus_objects):
    """Of the 52 corpus descents, those whose K-side block fusion system
    has the L-side isos keep one object for both sides, and only those."""
    shared = 0
    for objects in corpus_objects:
        for ctx in objects["contexts"]:
            fresh = block_fusion(ctx.group, ctx.tower, ctx.k_block, ctx.k_root)
            assert fresh is not ctx.system_l
            assert (ctx.system_k is ctx.system_l) == (fresh.isos == ctx.system_l.isos)
            assert fresh.isos == ctx.system_k.isos
            shared += ctx.system_k is ctx.system_l
    assert shared == 50


def test_shared_system_leaves_reports_unchanged(monkeypatch, corpus_run):
    """With a separately built K-side system in every GaloisContext, the
    corpus report and the index-p non-split descent reports are byte for
    byte those of the shared object, all_ok included."""
    nonsplit = [(cli.load_group_file(f"builtin:{name}"), make_tower(*tower))
                for name, tower in (("c5c8s2", (2, 1, 4)), ("c7c9s3", (3, 2, 6)))]
    shared = [cli.render_json(cli.descent_report(G, t)) for G, t in nonsplit]
    context = descent.galois_context

    def separate_k_system(G, tower, b):
        ctx = context(G, tower, b)
        return dataclasses.replace(ctx, system_k=block_fusion(G, tower, ctx.k_block, ctx.k_root))

    monkeypatch.setattr(descent, "galois_context", separate_k_system)
    separate = [cli.render_json(cli.descent_report(G, t)) for G, t in nonsplit]
    assert separate == shared
    report = cli.run_corpus(cli.load_corpus(cli.default_corpus_path()),
                            base=cli.default_corpus_path().parent)
    assert report["ok"] and cli.render_json(report) == cli.render_json(corpus_run)
