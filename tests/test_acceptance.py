"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus sweeps share the descent contexts of the shipped corpus (the
`corpus_objects` session fixture), so the whole module stays well inside
its time budget.
"""

import random
import time

from blockfuse.algebra import (AlgebraElement, basis_element, brauer_map,
                               conjugate_element, find_block, galois_apply, multiply,
                               primitive_central_idempotents, principal_block,
                               trace_map, zero)
from blockfuse.brauer import maximal_pairs
from blockfuse.descent import check_local_agreement, galois_context
from blockfuse.fusion import (alperin_check, assert_fusion_axioms, block_fusion, closure,
                              factorization_check, fusion_equal, group_fusion,
                              inner_automorphisms, saturation_report)
from blockfuse.gf import make_tower
from blockfuse.groups import coset_reps, full_subgroup, sylow_p_subgroup
from conftest import load_builtin, GROUP_NAMES
from oracles import (brute_force_blocks, conjugacy_classes, conjugate_element_scan,
                     conjugate_subgroup, cyclic_subgroup, galois_stabilizer_order_scan,
                     normalizer_in_scan, support)


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def _contexts(corpus_objects):
    for objects in corpus_objects:
        for ctx in objects["contexts"]:
            yield objects["label"], ctx


def test_criterion_01_example_reproduction(d24):
    started = time.monotonic()
    t2 = make_tower(2, 1, 1)
    blocks = primitive_central_idempotents(d24, t2)
    g, g2 = d24.power(1, 4), d24.power(1, 8)
    b = find_block(blocks, basis_element(d24, t2, g) + basis_element(d24, t2, g2))
    mp = maximal_pairs(d24, t2, b)
    C4 = cyclic_subgroup(d24, d24.power(1, 3))
    root = mp.pairs[0]
    F = block_fusion(d24, t2, b, root)
    sat = saturation_report(F)
    elapsed = time.monotonic() - started
    ok = (mp.defect_order == 4
          and len(mp.pairs) == 1
          and root.subgroup == C4
          and set(support(root.block.elem)) == {
              root.block.owner.ambient_elems.index(g),
              root.block.owner.ambient_elems.index(g2)}
          and len(inner_automorphisms(C4, C4)) == 1
          and len(F.aut_set(C4)) == 2
          and not sat.sylow_ok
          and not sat.saturated
          and elapsed < 10.0)
    _verdict(1, "example-reproduction", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def test_criterion_02_generation_flagship(d24):
    started = time.monotonic()
    t = make_tower(2, 1, 2)
    blocks = primitive_central_idempotents(d24, t)
    g, g2 = d24.power(1, 4), d24.power(1, 8)
    b = find_block(blocks, basis_element(d24, t, g) + basis_element(d24, t, g2))
    ctx = galois_context(d24, t, b)
    generated = closure(ctx.root.subgroup, ctx.system_l.isos | {ctx.sigma})
    equal = fusion_equal(generated, ctx.system_k)
    factors = factorization_check(ctx.system_l, ctx.system_k, ctx.sigma)
    elapsed = time.monotonic() - started
    ok = equal and factors and elapsed < 60.0
    _verdict(2, "generation-flagship", ok)
    assert ok, f"equal={equal} factors={factors} elapsed={elapsed:.2f}s"


def test_criterion_03_saturation_transfer_sweep(corpus_objects):
    """Saturation over K holds iff it holds over L and p does not divide
    the descent index, and the group, Galois and field index expressions
    agree."""
    failures = []
    for label, ctx in _contexts(corpus_objects):
        sat_l = saturation_report(ctx.system_l).saturated
        sat_k = saturation_report(ctx.system_k).saturated
        gamma = ctx.tower.gamma_order
        index_field = (gamma // ctx.k2_order) // (gamma // ctx.p2_order)
        if (sat_k != (sat_l and ctx.index % ctx.tower.p != 0)
                or not ctx.p1.order // ctx.k1.order == ctx.p2_order // ctx.k2_order
                == index_field == ctx.index):
            failures.append((label, ctx.block.index))
    _verdict(3, "saturation-transfer-sweep", not failures)
    assert not failures, failures


def test_criterion_04_extension_axiom_sweep(corpus_objects):
    failures = []
    for label, ctx in _contexts(corpus_objects):
        if not saturation_report(ctx.system_l).extension_ok:
            failures.append((label, ctx.block.index, "L"))
        if not saturation_report(ctx.system_k).extension_ok:
            failures.append((label, ctx.block.index, "K"))
    _verdict(4, "extension-axiom-sweep", not failures)
    assert not failures, failures


def test_criterion_05_alperin_sweep(corpus_objects):
    failures = []
    for label, ctx in _contexts(corpus_objects):
        if not alperin_check(ctx.system_l):
            failures.append((label, ctx.block.index, "L"))
        if not alperin_check(ctx.system_k):
            failures.append((label, ctx.block.index, "K"))
    _verdict(5, "alperin-sweep", not failures)
    assert not failures, failures


def test_criterion_06_block_correspondence_sweep(corpus_run):
    failures = []
    for entry in corpus_run["entries"]:
        corr = entry.get("correspondence")
        if corr is None:
            failures.append((entry.get("label"), "missing"))
        elif not corr["bijective"] or not corr["defects_match"]:
            failures.append((entry.get("label"), corr))
    _verdict(6, "block-correspondence-sweep", not failures)
    assert not failures, failures


def _stabilizer_scan(N, a):
    """The elements of N that fix the algebra element a under conjugation."""
    return tuple(x for x in N.elems if conjugate_element_scan(x, a) == a)


def _coset_order_scan(G, x, H):
    """The least j >= 1 with x^j in H."""
    j, power = 1, x
    while power not in H.elems:
        j, power = j + 1, G.mul[power][x]
    return j


def test_criterion_07_goursat_sweep(corpus_objects):
    """The Goursat fields of each GaloisContext, read from scans: k1 and p1
    are the elements of N_G(P) fixing e and its orbit sum, k2_order and
    p2_order the Galois stabilizer orders of e and b, index both |p1|/|k1|
    and p2/k2, and g0 an element of p1 whose coset has order index."""
    failures = []
    for label, ctx in _contexts(corpus_objects):
        G, P = ctx.group, ctx.root.subgroup
        N = normalizer_in_scan(full_subgroup(G), P)
        found = (ctx.k1.elems == _stabilizer_scan(N, ctx.root.block.elem),
                 ctx.p1.elems == _stabilizer_scan(N, ctx.k_root.block.elem),
                 ctx.k2_order == galois_stabilizer_order_scan(ctx.root.block.elem),
                 ctx.p2_order == galois_stabilizer_order_scan(ctx.block.elem),
                 ctx.index * ctx.k1.order == ctx.p1.order,
                 ctx.index * ctx.k2_order == ctx.p2_order,
                 ctx.g0 in ctx.p1.elems and _coset_order_scan(G, ctx.g0, ctx.k1) == ctx.index)
        if not all(found):
            failures.append((label, ctx.block.index, found))
    _verdict(7, "goursat-sweep", not failures)
    assert not failures, failures


def test_criterion_08_local_agreement_sweep(corpus_objects):
    failures = []
    for label, ctx in _contexts(corpus_objects):
        if not check_local_agreement(ctx):
            failures.append((label, ctx.block.index))
    _verdict(8, "local-agreement-sweep", not failures)
    assert not failures, failures


def test_criterion_09_oracle_equivalence(corpus_entries):
    failures = []
    seen = set()
    for entry in corpus_entries:
        tower = make_tower(entry.p, entry.m, entry.n)
        if tower.q > 4:
            continue
        key = (entry.group, tower.key)
        if key in seen:
            continue
        seen.add(key)
        G = load_builtin(entry.group.split(":", 1)[1])
        if len(conjugacy_classes(G)) > 10:
            continue
        for over_k in (False, True):
            got = [b.elem.coeffs for b in
                   primitive_central_idempotents(G, tower, over_k=over_k)]
            expected = brute_force_blocks(G, tower, over_k=over_k)
            if got != expected:
                failures.append((entry.label, over_k))
    _verdict(9, "oracle-equivalence", not failures)
    assert seen and not failures, failures


def test_criterion_10_principal_block_sanity():
    failures = []
    for name in GROUP_NAMES:
        G = load_builtin(name)
        for p in (2, 3):
            tower = make_tower(p, 1, 1)
            blocks = primitive_central_idempotents(G, tower)
            pb = principal_block(blocks)
            mp = maximal_pairs(G, tower, pb)
            root = mp.pairs[0]
            S = sylow_p_subgroup(G, p)
            F = block_fusion(G, tower, pb, root)
            ok = (root.subgroup.order == S.order
                  and fusion_equal(F, group_fusion(root.subgroup, G))
                  and saturation_report(F).saturated)
            if not ok:
                failures.append((name, p))
    _verdict(10, "principal-block-sanity", not failures)
    assert not failures, failures


def test_criterion_11_structural_axioms(corpus_objects, d24):
    started = time.monotonic()
    failures = []
    n_systems = 0
    for label, ctx in _contexts(corpus_objects):
        for system in (ctx.system_l, ctx.system_k):
            n_systems += 1
            try:
                assert_fusion_axioms(system)
            except Exception as exc:
                failures.append((label, str(exc)))
    # trace: transversal independence on 100 random stable inputs
    t = make_tower(2, 1, 2)
    rng = random.Random(0xACCE)
    P = cyclic_subgroup(d24, d24.power(1, 3))
    H = full_subgroup(d24)
    reps = coset_reps(H, P)
    for _ in range(100):
        coeffs = [0] * d24.order
        covered = set()
        for g in range(d24.order):
            if g in covered:
                continue
            orbit = {d24.conj(x, g) for x in P.elems}
            covered |= orbit
            c = rng.randrange(t.q)
            for h in orbit:
                coeffs[h] = c
        a = AlgebraElement(d24, t, tuple(coeffs))
        base = trace_map(a, P, H)
        twisted = zero(d24, t)
        for x in reps:
            twisted = twisted + conjugate_element(
                d24.mul[x][P.elems[rng.randrange(P.order)]], a)
        if twisted != base:
            failures.append(("trace", "transversal dependence"))
    # Brauer projection: multiplicative and conjugation-equivariant on 100
    # random stable inputs
    for _ in range(100):
        pair = []
        for _ in range(2):
            coeffs = [0] * d24.order
            covered = set()
            for g in range(d24.order):
                if g in covered:
                    continue
                orbit = {d24.conj(x, g) for x in P.elems}
                covered |= orbit
                c = rng.randrange(t.q)
                for h in orbit:
                    coeffs[h] = c
            pair.append(AlgebraElement(d24, t, tuple(coeffs)))
        a, b = pair
        if brauer_map(multiply(a, b), P, check_stable=False) != multiply(
                brauer_map(a, P), brauer_map(b, P)):
            failures.append(("brauer", "not multiplicative"))
        x = rng.randrange(d24.order)
        if conjugate_element(x, brauer_map(a, P)) != brauer_map(
                conjugate_element(x, a), conjugate_subgroup(P, x)):
            failures.append(("brauer", "not equivariant"))
        j = rng.randrange(t.gamma_order)
        if galois_apply(j, brauer_map(a, P)) != brauer_map(galois_apply(j, a), P):
            failures.append(("brauer", "galois does not commute"))
    elapsed = time.monotonic() - started
    ok = not failures and n_systems > 0 and elapsed < 300.0
    _verdict(11, "structural-axioms", ok)
    assert ok, (failures[:5], f"systems={n_systems}", f"elapsed={elapsed:.1f}s")
