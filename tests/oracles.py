"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles (pair scans, subset
enumeration, exhaustive idempotent search, dense kernels) and never calls
the production algorithms it is checking.  The last section holds small
conveniences that only tests use (class sums, cyclic subgroups, supports,
scalar multiples, conjugate subgroups, polynomials from codes and expanded
factorizations), built on the library's data structures.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

import numpy as np

from blockfuse.algebra import (AlgebraElement, VerificationError, brauer_map, central_multiply,
                               galois_apply, multiply, one, zero)
from blockfuse.brauer import (BrauerPair, MaximalPairs, SubpairTable, centralizer_blocks,
                              conjugate_block, is_pair_of_block, maximal_pairs, normal_leq,
                              subpair_table)
from blockfuse.fusion import FusionSystem, SaturationReport, _first_non_extendable, sylow_index
from blockfuse.gf import (FieldTower, _pdivmod, _pinvmod, _pmod, _pmul, _pnorm, factor,
                          factor_over_subfield)
from blockfuse.groups import (MAX_ORDER, FiniteGroup, GroupMap, Subgroup, all_subgroups,
                              centralizer_in, class_data, coset_reps, full_subgroup,
                              normalizer_in, sylow_p_subgroup)
from blockfuse.linalg import Echelon


def conjugacy_classes_brute(G: FiniteGroup) -> list[tuple[int, ...]]:
    classes = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {G.mul[G.mul[x][g]][G.inv[x]] for x in range(G.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def all_subgroups_brute(P: Subgroup) -> set[tuple[int, ...]]:
    """Every subgroup of P by filtering all subsets; |P| must be tiny."""
    assert P.order <= 12
    G = P.parent
    out = set()
    rest = [g for g in P.elems if g != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = (0,) + combo
            cset = set(cand)
            if all(G.mul[a][b] in cset for a in cand for b in cand):
                out.add(tuple(sorted(cand)))
    return out


def perm_table_bfs(degree: int, generators):
    """Multiplication table and inverses of a permutation group: elements
    by breadth-first closure in generator order, then every ordered pair
    composed as tuples and looked up; (f*g)(x) = f(g(x))."""
    def compose(f, g):
        return tuple(f[x] for x in g)

    gens = [tuple(int(x) for x in gen) for gen in generators]
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    queue = [identity]
    while queue:
        cur = queue.pop(0)
        for gen in gens:
            nxt = compose(cur, gen)
            if nxt not in index:
                if len(elems) >= MAX_ORDER:
                    raise ValueError(f"group order exceeds bound {MAX_ORDER}")
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
    mul = [[index[compose(a, b)] for b in elems] for a in elems]
    inv = []
    for e in elems:
        out = [0] * degree
        for src, dst in enumerate(e):
            out[dst] = src
        inv.append(index[tuple(out)])
    return mul, inv


def generated_subgroup_bfs(G: FiniteGroup, gens) -> Subgroup:
    """<gens> by breadth-first closure of the identity under right
    multiplication by the generators."""
    seen = {0}
    queue = [0]
    gens = [int(g) for g in gens]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = G.mul[cur][g]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return Subgroup._of(G, tuple(sorted(seen)))


def centralizer_in_scan(H: Subgroup, S: Subgroup) -> Subgroup:
    """C_H(S) by testing hs = sh for every h in H and s in S."""
    mul = H.parent.mul
    members = [h for h in H.elems if all(mul[h][s] == mul[s][h] for s in S.elems)]
    return Subgroup._of(H.parent, tuple(members))


def normalizer_in_scan(H: Subgroup, S: Subgroup) -> Subgroup:
    """N_H(S) by conjugating every s in S by every h in H."""
    G = H.parent
    sset = set(S.elems)
    members = [h for h in H.elems if all(G.conj(h, s) in sset for s in S.elems)]
    return Subgroup._of(G, tuple(members))


def conjugate_element_scan(x: int, a: AlgebraElement) -> AlgebraElement:
    """x a x^-1 one coefficient at a time through `FiniteGroup.conj`; an
    element of a subgroup view moves to the view of the re-sorted
    conjugated element set."""
    g = a.group
    if g.ambient is None:
        out = [0] * g.order
        for i, c in enumerate(a.coeffs):
            if c:
                out[g.conj(x, i)] = c
        return AlgebraElement(g, a.tower, tuple(out))
    amb = g.ambient
    moved = {amb.conj(x, g.ambient_elems[i]): c
             for i, c in enumerate(a.coeffs) if c}
    target_elems = tuple(sorted(amb.conj(x, e) for e in g.ambient_elems))
    target = Subgroup._of(amb, target_elems).as_group()
    out = [0] * target.order
    for i, e in enumerate(target_elems):
        out[i] = moved.get(e, 0)
    return AlgebraElement(target, a.tower, tuple(out))


def is_stable_scan(a: AlgebraElement, S: Subgroup) -> bool:
    """True iff `conjugate_element_scan` by every element of S fixes a."""
    amb = a.group.ambient or a.group
    if S.parent is not amb:
        raise ValueError("subgroup does not live in the owner's ambient group")
    return all(conjugate_element_scan(x, a) == a for x in S.elems if x != 0)


def galois_stabilizer_order_scan(a: AlgebraElement) -> int:
    """|Gamma_a|, the order of the stabilizer of a in the cyclic Galois
    group: gamma / j for the least divisor j of gamma whose power of the
    generator fixes a."""
    gamma = a.tower.gamma_order
    return gamma // next(j for j in range(1, gamma + 1)
                         if gamma % j == 0 and galois_apply(j, a) == a)


def render_json_reference(report) -> str:
    """The report as the standard library's encoder prints it, a
    `cli.HomCounts` table as the dict it reads as."""
    return json.dumps(report, sort_keys=True, indent=2, default=dict) + "\n"


def hom_counts_dict(F: FusionSystem) -> dict[str, int]:
    """The fusion report's hom-count table as a dict keyed "Q|R" by the
    comma-joined element lists, its keys inserted in sorted order: rows by
    label + "|" ("|" sorts after every digit and ","), columns by label."""
    labels = [",".join(map(str, Q.elems)) for Q in F.subgroups]
    rows = sorted(range(len(labels)), key=lambda i: labels[i] + "|")
    cols = sorted(range(len(labels)), key=labels.__getitem__)
    col_labels = [labels[j] for j in cols]
    out: dict[str, int] = {}
    for i, counts in zip(rows, hom_count_matrix_dense(F)[np.ix_(rows, cols)].tolist()):
        out.update(zip(map((labels[i] + "|").__add__, col_labels), counts))
    return out


def generating_maps_by_compose(aut_maps) -> list:
    """Greedy generating subset of a finite set of automorphisms, each
    closure built by composing `GroupMap`s."""
    maps = sorted(aut_maps, key=lambda m: m.images)
    if not maps:
        return []
    identity = next(m for m in maps if m.images == m.domain.elems)
    gens: list = []
    generated = {identity.images}
    for m in maps:
        if m.images in generated:
            continue
        gens.append(m)
        frontier = [identity]
        generated = {identity.images}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = g.compose(cur)
                if nxt.images not in generated:
                    generated.add(nxt.images)
                    frontier.append(nxt)
        if len(generated) == len(maps):
            break
    return gens


def subgroup_lattice_bfs_joins(P: Subgroup) -> list[Subgroup]:
    """Every subgroup of P, sorted by (order, element set): the cyclic
    subgroups closed under joins with one generator per cyclic subgroup,
    each join a breadth-first closure of the generator tuple."""
    G = P.parent
    found = {(0,): generated_subgroup_bfs(G, ())}
    cyclic_gens = []
    queue = []
    for g in P.elems:
        H = generated_subgroup_bfs(G, (g,))
        if H.elems not in found:
            found[H.elems] = H
            cyclic_gens.append(g)
            queue.append((H, (g,)))
    while queue:
        H, gens = queue.pop()
        for x in cyclic_gens:
            if x in H.elems:
                continue
            J = generated_subgroup_bfs(G, gens + (x,))
            if J.elems not in found:
                found[J.elems] = J
                queue.append((J, gens + (x,)))
    return sorted(found.values(), key=lambda s: (s.order, s.elems))


def sylow_p_subgroup_by_joins(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup by the library's growth rule, each step one
    breadth-first join: x is the first element of N_G(H) whose coset xH
    has order d divisible by p, and H becomes <H, x^(d/p)>."""
    H = generated_subgroup_bfs(G, ())
    while G.order // H.order % p == 0:
        hset = set(H.elems)
        for x in normalizer_in_scan(full_subgroup(G), H).elems:
            d, cur = 1, x
            while cur not in hset:
                cur = G.mul[cur][x]
                d += 1
            if d % p == 0:
                break
        else:
            raise AssertionError("sylow growth stalled")
        H = generated_subgroup_bfs(G, H.elems + (G.power(x, d // p),))
    return H


def all_subgroups_by_element_joins(P: Subgroup) -> list[Subgroup]:
    """Every subgroup of P, sorted by (order, element set): cyclic
    subgroups, then joins of each found subgroup's full element set with
    every single element of P, until stable."""
    G = P.parent
    found = {(0,): generated_subgroup_bfs(G, ())}
    queue = []
    for g in P.elems:
        H = generated_subgroup_bfs(G, (g,))
        if H.elems not in found:
            found[H.elems] = H
            queue.append(H)
    while queue:
        H = queue.pop()
        hset = set(H.elems)
        for x in P.elems:
            if x in hset:
                continue
            J = generated_subgroup_bfs(G, H.elems + (x,))
            if J.elems not in found:
                found[J.elems] = J
                queue.append(J)
    return sorted(found.values(), key=lambda s: (s.order, s.elems))


def n_phi_scan(P: Subgroup, phi: GroupMap) -> Subgroup:
    """N_phi by scanning every pair y in N_P(Q), z in N_P(R) for
    phi c_y = c_z phi on all of Q."""
    G = P.parent
    Q = phi.domain
    R = Subgroup._of(G, phi.image_elems)
    NQ = normalizer_in_scan(P, Q)
    NR = normalizer_in_scan(P, R)
    members = []
    for y in NQ.elems:
        for z in NR.elems:
            if all(phi.apply(G.conj(y, u)) == G.conj(z, phi.apply(u)) for u in Q.elems):
                members.append(y)
                break
    return Subgroup(G, members)


def iso_class_scan(F: FusionSystem, Q: Subgroup) -> list[Subgroup]:
    """The objects joined to Q by a chain of isos of F (in either
    direction), by breadth-first search; ValueError unless Q is an object."""
    if Q not in F.subgroups:
        raise ValueError("subgroup is not an object of this fusion system")
    linked: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for m in F.isos:
        linked.setdefault(m.domain.elems, set()).add(m.image_elems)
        linked.setdefault(m.image_elems, set()).add(m.domain.elems)
    seen = {Q.elems}
    frontier = [Q.elems]
    while frontier:
        for nxt in linked.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return [R for R in F.subgroups if R.elems in seen]


def fully_centralized_scan(F: FusionSystem, Q: Subgroup) -> bool:
    """|C_P(Q)| is maximal in Q's F-class, every centralizer by scan."""
    P = F.p_subgroup
    mine = centralizer_in_scan(P, Q).order
    return all(mine >= centralizer_in_scan(P, R).order for R in iso_class_scan(F, Q))


def fully_normalized_scan(F: FusionSystem, Q: Subgroup) -> bool:
    """|N_P(Q)| is maximal in Q's F-class, every normalizer by scan."""
    P = F.p_subgroup
    mine = normalizer_in_scan(P, Q).order
    return all(mine >= normalizer_in_scan(P, R).order for R in iso_class_scan(F, Q))


def is_centric_scan(F: FusionSystem, Q: Subgroup) -> bool:
    """Every R in Q's F-class has C_P(R) = Z(R), both by scan."""
    P = F.p_subgroup
    return all(centralizer_in_scan(P, R).elems == centralizer_in_scan(R, R).elems
               for R in iso_class_scan(F, Q))


def extension_counterexample_scan(F: FusionSystem) -> GroupMap | None:
    """First morphism into P with fully normalized image that does not
    extend to N_phi, deciding each morphism on its own: fully normalized
    by `fully_normalized_scan`, N_phi by `n_phi_scan`, extension by trying every
    morphism N_phi -> P.  Same scan order as the production check (Q in
    `F.subgroups` order, phi by image tuple)."""
    P = F.p_subgroup
    for Q in F.subgroups:
        for phi in sorted(F.hom_set(Q, P), key=lambda m: m.images):
            if not fully_normalized_scan(F, Subgroup._of(P.parent, phi.image_elems)):
                continue
            n = n_phi_scan(P, phi.restrict(Q))
            if not any(all(psi.apply(g) == phi.apply(g) for g in Q.elems)
                       for psi in F.hom_set(n, P)):
                return phi
    return None


def saturation_report_full_scan(F: FusionSystem) -> SaturationReport:
    """`saturation_report` with the extension axiom decided by the full
    scan alone: every morphism into P with fully normalized image, in
    `F.subgroups` order, with no per-class shortcut."""
    if F.prime is None:
        idx, sylow_ok = 1, True
    else:
        idx = sylow_index(F)
        sylow_ok = idx % F.prime != 0
    counter = _first_non_extendable(F)
    witness = None
    if not sylow_ok:
        witness = {"kind": "sylow_index", "index": idx}
    elif counter is not None:
        witness = {"kind": "non_extendable_morphism", "domain": list(counter.domain.elems),
                   "images": list(counter.images)}
    return SaturationReport(sylow_ok, counter is None, idx, witness)


def hom_count_matrix_dense(F: FusionSystem) -> np.ndarray:
    """|Hom(Q, R)| for Q, R over `F.subgroups` as the dense product A @ C:
    A counts the isos per (domain, image) and C[i, j] is 1 iff
    subgroups[i] <= subgroups[j]."""
    index = {S.elems: i for i, S in enumerate(F.subgroups)}
    n = len(F.subgroups)
    A = np.zeros((n, n), dtype=np.int64)
    for m in F.isos:
        A[index[m.domain.elems], index[m.image_elems]] += 1
    C = np.array([[Q.is_subset_of(R) for R in F.subgroups] for Q in F.subgroups],
                 dtype=np.int64)
    return A @ C


def closure_bfs(P: Subgroup, seeds) -> FusionSystem:
    """Least fusion system over P containing the seed morphisms, as the
    breadth-first fixpoint of the inner isos plus the seeds, onto their
    images, under inversion, restriction to every smaller subgroup and
    composition on either side."""
    contained = {Q.elems: [S for S in all_subgroups(P) if S.is_subset_of(Q)]
                 for Q in all_subgroups(P)}
    maps: set[GroupMap] = set()
    by_dom: dict[tuple[int, ...], list[GroupMap]] = {}
    by_cod: dict[tuple[int, ...], list[GroupMap]] = {}
    queue: deque[GroupMap] = deque()

    def add(m: GroupMap):
        if m not in maps:
            maps.add(m)
            by_dom.setdefault(m.domain.elems, []).append(m)
            by_cod.setdefault(m.codomain.elems, []).append(m)
            queue.append(m)

    for m in conjugation_isos_scan(P, P.elems):
        add(m)
    for s in seeds:
        if (s.domain.parent is not P.parent or s.domain.elems not in contained
                or not set(s.images) <= set(P.elems)):
            raise ValueError("seed morphism is not between subgroups of P")
        add(s.restrict(s.domain))
    while queue:
        m = queue.popleft()
        add(m.inverse())
        for Q in contained[m.domain.elems]:
            if Q.order < m.domain.order:
                add(m.restrict(Q))
        for other in list(by_dom.get(m.codomain.elems, ())):
            add(other.compose(m))
        for other in list(by_cod.get(m.domain.elems, ())):
            add(m.compose(other))
    return FusionSystem(P, maps)


def fusion_axioms_scan(F: FusionSystem) -> None:
    """Raise VerificationError unless F satisfies each axiom of a fusion
    system, checked map by map: inner maps present, injectivity, the
    inverse and every restriction of each map present, and every
    composite of two maps present."""
    if not conjugation_isos_scan(F.p_subgroup, F.p_subgroup.elems) <= F.isos:
        raise VerificationError("inner conjugation map is missing")
    for m in F.isos:
        if len(set(m.images)) != m.domain.order:
            raise VerificationError("non-injective morphism stored")
        if m.inverse() not in F.isos:
            raise VerificationError("inverse morphism is missing")
        for Q in F.subgroups:
            if Q.order < m.domain.order and Q.is_subset_of(m.domain):
                if m.restrict(Q) not in F.isos:
                    raise VerificationError("restriction is missing")
    for m in F.isos:
        for other in F.isos:
            if other.domain.elems == m.image_elems and other.compose(m) not in F.isos:
                raise VerificationError("composition is missing")


def fusion_equal_scan(F1: FusionSystem, F2: FusionSystem) -> bool:
    """Hom-set equality over every ordered pair of subgroups."""
    if F1.p_subgroup != F2.p_subgroup:
        raise ValueError("fusion systems live over different p-groups")
    return all(F1.hom_set(Q, R) == F2.hom_set(Q, R)
               for Q in F1.subgroups for R in F1.subgroups)


def factorization_check_scan(F: FusionSystem, F_big: FusionSystem, sigma: GroupMap) -> bool:
    """The twist factorization tested on every morphism phi: Q -> R of the
    larger system, for every ordered pair (Q, R): for some i,
    sigma^-i . phi lies in F's Hom(Q, sigma^-i(R)) and phi . sigma^-i in
    F's Hom(sigma^i(Q), R)."""
    P = F.p_subgroup
    if sigma not in F_big.aut_set(P):
        raise ValueError("sigma is not an automorphism in the larger system")
    powers = [GroupMap(P, P, P.elems, _checked=True)]
    while sigma.compose(powers[-1]).images != P.elems:
        powers.append(sigma.compose(powers[-1]))
    order = len(powers)
    for Q in F_big.subgroups:
        for R in F_big.subgroups:
            for phi in F_big.hom_set(Q, R):
                ok = False
                for i in range(order):
                    sig_inv = powers[-i % order]
                    left = sig_inv.compose(phi).restrict(Q)
                    target_l = Subgroup._of(P.parent,
                                            tuple(sorted(sig_inv.apply(g) for g in R.elems)))
                    if left.with_codomain(target_l) not in F.hom_set(Q, target_l):
                        continue
                    dom_r = Subgroup._of(P.parent,
                                         tuple(sorted(powers[i].apply(g) for g in Q.elems)))
                    right = phi.compose(sig_inv.restrict(dom_r))
                    if right.with_codomain(R) in F.hom_set(dom_r, R):
                        ok = True
                        break
                if not ok:
                    return False
    return True


def conjugation_isos_scan(P: Subgroup, xs) -> set[GroupMap]:
    """The maps c_x: Q -> xQx^-1 for Q <= P and every x in xs, where
    xQx^-1 <= P."""
    G = P.parent
    pset = set(P.elems)
    isos = set()
    for Q in all_subgroups(P):
        for x in xs:
            images = tuple(G.conj(x, g) for g in Q.elems)
            if pset.issuperset(images):
                target = Subgroup._of(G, tuple(sorted(images)))
                isos.add(GroupMap(Q, target, images, _checked=True))
    return isos


def block_fusion_scan(G: FiniteGroup, tower: FieldTower, b, root: BrauerPair) -> FusionSystem:
    """The block fusion system by scanning every x in G against every
    Q <= P and testing x e_Q = e_{xQ} through the subpair table, one
    conjugate_block call per x with xQ <= P."""
    if not is_pair_of_block(root, b):
        raise ValueError("root is not a pair of the given block")
    mp = maximal_pairs(G, tower, b)
    if root.subgroup.order != mp.defect_order:
        raise ValueError("root pair is not maximal for the block")
    P = root.subgroup
    pset = set(P.elems)
    table = subpair_table(root)
    isos = set()
    for Q in all_subgroups(P):
        e_q = table[Q.elems]
        for x in range(G.order):
            images = tuple(G.conj(x, g) for g in Q.elems)
            if not set(images) <= pset:
                continue
            target_elems = tuple(sorted(images))
            if conjugate_block(x, e_q) != table[target_elems]:
                continue
            target = Subgroup._of(G, target_elems)
            isos.add(GroupMap(Q, target, images, _checked=True))
    return FusionSystem(P, isos)


def maximal_pairs_scan(G: FiniteGroup, tower: FieldTower, b) -> MaximalPairs:
    """The maximal pairs of b inside one Sylow p-subgroup S, with the
    defect order read as the largest order of a subgroup of S onto which
    b has a nonzero Brauer projection: every subgroup of S is projected."""
    S = sylow_p_subgroup(G, tower.p)
    candidates = []
    for P in all_subgroups(S):
        br = brauer_map(b.elem, P, check_stable=False)
        if not br.is_zero:
            candidates.append((P, br))
    defect = max(P.order for P, _ in candidates)
    pairs = [BrauerPair(P, e) for P, br in candidates if P.order == defect
             for e in centralizer_blocks(G, tower, P, b.over_k)
             if central_multiply(br, e.elem) == e.elem]
    pairs.sort(key=lambda pr: (pr.subgroup.elems, pr.block.index))
    return MaximalPairs(tuple(pairs), defect, S)


def subpair_table_normal_steps(root: BrauerPair) -> SubpairTable:
    """The subpair table with every e_Q solved by a normal step along the
    normalizer tower of Q, a single-block centralizer included: the
    unique f among the blocks of k C_G(Q) with (Q, f) normal in
    (N_P(Q), e_{N_P(Q)})."""
    G = root.group
    tower = root.block.elem.tower
    over_k = root.block.over_k
    P = root.subgroup
    table = {P.elems: root.block}

    def solve(Q: Subgroup):
        got = table.get(Q.elems)
        if got is not None:
            return got
        N = normalizer_in(P, Q)
        sup = BrauerPair(N, solve(N))
        hits = [f for f in centralizer_blocks(G, tower, Q, over_k)
                if normal_leq(BrauerPair(Q, f), sup)]
        if len(hits) != 1:
            raise VerificationError(f"normal step expects a unique block, found {len(hits)}")
        table[Q.elems] = hits[0]
        return hits[0]

    for Q in all_subgroups(P):
        solve(Q)
    return SubpairTable(root, table, frozenset())


def block_fusion_cosets(G: FiniteGroup, tower: FieldTower, b, root: BrauerPair) -> FusionSystem:
    """The block fusion system with one transporter per coset x C_G(Q) and
    the block transported for every one of them, read against the
    normal-step subpair table."""
    if not is_pair_of_block(root, b):
        raise ValueError("root is not a pair of the given block")
    P = root.subgroup
    pset = set(P.elems)
    table = subpair_table_normal_steps(root)
    everything = full_subgroup(G)
    isos = set()
    for Q in all_subgroups(P):
        e_q = table[Q.elems]
        for x in coset_reps(everything, centralizer_in(everything, Q)):
            images = tuple(G.conj(x, g) for g in Q.elems)
            if not pset.issuperset(images):
                continue
            target_elems = tuple(sorted(images))
            if conjugate_block(x, e_q) != table[target_elems]:
                continue
            target = Subgroup._of(G, target_elems)
            isos.add(GroupMap(Q, target, images, _checked=True))
    return FusionSystem(P, isos)


def commuting_with(G: FiniteGroup, elems) -> tuple[int, ...]:
    return tuple(g for g in range(G.order)
                 if all(G.mul[g][s] == G.mul[s][g] for s in elems))


def convolve(G: FiniteGroup, t: FieldTower, a, b) -> tuple[int, ...]:
    out = [0] * G.order
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    k = G.mul[i][j]
                    out[k] = t.add(out[k], t.mul(ca, cb))
    return tuple(out)


def nullspace(t: FieldTower, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel of the matrix, by plain RREF."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = t.inv(mat[r][c])
        mat[r] = [t.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [t.sub(x, t.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = t.neg(mat[i][fc])
        basis.append(vec)
    return basis


class CenterOracle:
    """The center of L[G] with explicit structure constants."""

    def __init__(self, G: FiniteGroup, t: FieldTower):
        self.G, self.t = G, t
        self.classes = conjugacy_classes_brute(G)
        self.dim = len(self.classes)
        self.reps = [cls[0] for cls in self.classes]
        self.sums = []
        for cls in self.classes:
            vec = [0] * G.order
            for g in cls:
                vec[g] = 1
            self.sums.append(tuple(vec))
        # products of basis class sums, re-expressed in the basis
        self.table = []
        for zi in self.sums:
            row = []
            for zj in self.sums:
                prod = convolve(G, t, zi, zj)
                row.append(tuple(prod[rep] for rep in self.reps))
            self.table.append(row)

    def to_vector(self, coords) -> tuple[int, ...]:
        out = [0] * self.G.order
        for c, cls in zip(coords, self.classes):
            for g in cls:
                out[g] = c
        return tuple(out)

    def mul(self, x, y) -> tuple[int, ...]:
        t = self.t
        out = [0] * self.dim
        for i, ci in enumerate(x):
            if ci:
                for j, cj in enumerate(y):
                    if cj:
                        f = t.mul(ci, cj)
                        for k, s in enumerate(self.table[i][j]):
                            if s:
                                out[k] = t.add(out[k], t.mul(f, s))
        return tuple(out)

    def power_q(self, x, q: int) -> tuple[int, ...]:
        acc = x
        for _ in range(q - 1):
            acc = self.mul(acc, x)
        return acc


def _frobenius_fixed_points(oracle: CenterOracle):
    """Every x in Z(L[G]) with x^p = x, in class coordinates: the kernel of
    the F_p-linear map x -> x^p - x, solved on F_p digit vectors."""
    t = oracle.t
    fp = FieldTower(t.p, 1, 1)
    width = oracle.dim * t.n

    def digits(vec):
        return [d for c in vec for d in t.coeffs(c)]

    columns = []
    for i in range(oracle.dim):
        for a in range(t.n):
            basis = [0] * oracle.dim
            basis[i] = t.p ** a
            img = oracle.power_q(tuple(basis), t.p)
            columns.append(digits([t.sub(x, b) for x, b in zip(img, basis)]))
    mat = [[col[r] for col in columns] for r in range(width)]
    kernel = nullspace(fp, mat, width)
    for coords in itertools.product(range(t.p), repeat=len(kernel)):
        flat = [sum(c * vec[r] for c, vec in zip(coords, kernel)) % t.p for r in range(width)]
        yield tuple(digits_code(t, flat[i * t.n:(i + 1) * t.n]) for i in range(oracle.dim))


def brute_force_blocks(G: FiniteGroup, t: FieldTower, over_k: bool = False,
                       full_limit: int = 4096) -> list[tuple[int, ...]]:
    """Primitive idempotents of Z(L[G]) (or Z(K[G])) as full coefficient
    vectors, sorted; exhaustive search, independent of the splitting code.

    When the full coefficient enumeration is too large, the search is cut
    down to the F_p-subspace {x : x^p = x} (Frobenius is F_p-linear on the
    commutative centre), which contains every idempotent since e^2 = e
    forces e^p = e; K-blocks are its idempotents with K-rational codes.
    """
    oracle = CenterOracle(G, t)
    codes = tuple(a for a in range(t.q) if not over_k or t.is_k_rational(a))
    if len(codes) ** oracle.dim <= full_limit:
        candidates = itertools.product(codes, repeat=oracle.dim)
    else:
        candidates = _frobenius_fixed_points(oracle)
    idempotents = []
    for cand in candidates:
        if not any(cand) or (over_k and not all(t.is_k_rational(c) for c in cand)):
            continue
        if oracle.mul(cand, cand) == cand:
            idempotents.append(cand)
    minimal = []
    for e in idempotents:
        if all(f == e or oracle.mul(e, f) != f for f in idempotents):
            minimal.append(e)
    return sorted(oracle.to_vector(e) for e in minimal)


def _minimal_polynomial_kg(z: AlgebraElement, c: AlgebraElement):
    """Monic minimal polynomial mu with mu(z) * c = 0 and the Krylov
    vectors c, z c, ..., z^(deg mu - 1) c, by products in L[G]."""
    t = z.tower
    ech = Echelon(t, c.group.order)
    vectors = []
    cur = c
    while True:
        combo = ech.insert(list(cur.coeffs))
        if combo is not None:
            return tuple([t.neg(x) for x in combo] + [1]), vectors
        vectors.append(cur)
        cur = multiply(z, cur)


def _bezout_idempotents_kg(t: FieldTower, mu, factors, vectors) -> list[AlgebraElement]:
    parts = []
    for codes, mult in factors:
        qpow = (1,)
        for _ in range(mult):
            qpow = _pmul(t, qpow, codes)
        u, r = _pdivmod(t, mu, qpow)
        assert not r
        s = _pmod(t, _pmul(t, u, _pinvmod(t, u, qpow)), mu)
        acc = zero(vectors[0].group, t)
        for k, coef in enumerate(s):
            if coef:
                acc = acc + scale(vectors[k], coef)
        parts.append(acc)
    return parts


def blocks_by_group_algebra_splitting(G: FiniteGroup, t: FieldTower,
                                      over_k: bool = False) -> list[tuple[int, ...]]:
    """Block coefficient vectors, sorted, from the center-splitting loop run
    with |G|-dimensional Krylov sequences and convolution products in
    L[G], the predecessor of the class-sum splitting."""
    summands = [one(G, t)]
    for z in center_basis(G, t):
        refined = []
        for c in summands:
            mu, vectors = _minimal_polynomial_kg(z, c)
            _, factors = (factor_over_subfield if over_k else factor)(t, mu)
            if len(factors) == 1:
                refined.append(c)
                continue
            parts = _bezout_idempotents_kg(t, mu, factors, vectors)
            assert all(not part.is_zero for part in parts)
            total = zero(G, t)
            for part in parts:
                total = total + part
            assert total == c
            refined.extend(parts)
        summands = refined
    return sorted(c.coeffs for c in summands)


def polynomial_roots_brute(t: FieldTower, codes) -> list[int]:
    """All roots of the polynomial by evaluating at every field element."""
    out = []
    for a in range(t.q):
        acc = 0
        for c in reversed(codes):
            acc = t.add(t.mul(acc, a), c)
        if acc == 0:
            out.append(a)
    return out


def _code_digits(t: FieldTower, code: int) -> list[int]:
    out = []
    for _ in range(t.n):
        code, digit = divmod(code, t.p)
        out.append(digit)
    return out


def digits_code(t: FieldTower, digits) -> int:
    """The code whose base-p digits, least significant first, are digits."""
    return sum(d * t.p ** i for i, d in enumerate(digits))


def field_add_digits(t: FieldTower, a: int, b: int) -> int:
    """a + b by adding the code digits mod p, one coefficient at a time."""
    return digits_code(t, [(x + y) % t.p
                            for x, y in zip(_code_digits(t, a), _code_digits(t, b))])


def field_neg_digits(t: FieldTower, a: int) -> int:
    """-a by negating the code digits mod p."""
    return digits_code(t, [-x % t.p for x in _code_digits(t, a)])


def field_mul_digits(t: FieldTower, a: int, b: int) -> int:
    """a * b by the schoolbook product of the code digits, reduced by the
    tower modulus."""
    p, n = t.p, t.n
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(_code_digits(t, a)):
        for j, y in enumerate(_code_digits(t, b)):
            prod[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        lead = prod[i] % p
        for k in range(n):
            prod[i - n + k] -= lead * t.modulus[k]
    return digits_code(t, [c % p for c in prod[:n]])


def field_pow_digits(t: FieldTower, a: int, e: int) -> int:
    """a^e for e >= 1, by square-and-multiply on field_mul_digits."""
    out = a
    for bit in bin(e)[3:]:
        out = field_mul_digits(t, out, out)
        if bit == "1":
            out = field_mul_digits(t, out, a)
    return out


def _fp_remainder(p: int, f: tuple[int, ...], d: tuple[int, ...]) -> list[int]:
    """f mod d over F_p for monic d, coefficients low degree first, by
    schoolbook long division."""
    r, m = list(f), len(d) - 1
    for i in range(len(f) - 1 - m, -1, -1):
        lead = r[i + m]
        for k, c in enumerate(d):
            r[i + k] = (r[i + k] - lead * c) % p
    return r[:m]


def smallest_irreducible_scan(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree n over F_p: the
    first candidate in scan order that trial division by every monic
    polynomial of degree 1 to n // 2 leaves with a nonzero remainder."""
    if n == 1:
        return (0, 1)
    divisors = [low + (1,) for d in range(1, n // 2 + 1)
                for low in itertools.product(range(p), repeat=d)]
    for low in itertools.product(range(p), repeat=n):
        f = low + (1,)
        if all(any(_fp_remainder(p, f, d)) for d in divisors):
            return f
    raise AssertionError("no irreducible found")


def primitive_element_walk(t: FieldTower) -> list[int]:
    """The powers g^0, ..., g^(q-2) of the first code g >= 2 whose cyclic
    walk has period q - 1, walking every candidate in turn ([1] for F_2)."""
    if t.q == 2:
        return [1]
    for g in range(2, t.q):
        exp = [1]
        cur = g
        while cur != 1:
            exp.append(cur)
            cur = field_mul_digits(t, cur, g)
        if len(exp) == t.q - 1:
            return exp
    raise AssertionError("no primitive element found")


# ---------------------------------------------------------------------------
# test conveniences on top of the library
# ---------------------------------------------------------------------------

def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Classes as sorted tuples, ordered by smallest member."""
    return class_data(G).classes


def cyclic_subgroup(G: FiniteGroup, g: int) -> Subgroup:
    return generated_subgroup_bfs(G, (g,))


def center_basis(G: FiniteGroup, tower: FieldTower) -> list[AlgebraElement]:
    """Class sums, one per conjugacy class, ordered by smallest member."""
    out = []
    for cls in conjugacy_classes(G):
        coeffs = [0] * G.order
        for g in cls:
            coeffs[g] = 1
        out.append(AlgebraElement(G, tower, tuple(coeffs)))
    return out


def is_central(a: AlgebraElement) -> bool:
    """a is constant on every conjugacy class."""
    return all(a.coeffs[g] == a.coeffs[cls[0]]
               for cls in conjugacy_classes(a.group) for g in cls)


def support(a: AlgebraElement) -> tuple[int, ...]:
    """The group elements with a nonzero coefficient in a."""
    return tuple(i for i, c in enumerate(a.coeffs) if c)


def scale(a: AlgebraElement, code: int) -> AlgebraElement:
    """code * a."""
    t = a.tower
    return AlgebraElement(a.group, t, tuple(t.mul(code, c) for c in a.coeffs))


def conjugate_subgroup(S: Subgroup, x: int) -> Subgroup:
    """x S x^-1."""
    return Subgroup._of(S.parent, tuple(sorted(S.parent.conj(x, g) for g in S.elems)))


def make_poly(codes) -> tuple[int, ...]:
    """The polynomial with the given codes, low degree first, trailing
    zeros dropped."""
    return _pnorm([int(c) for c in codes])


def expand(t: FieldTower, fac) -> tuple[int, ...]:
    """The product of the unit and the factor powers of a `factor` result."""
    unit, factors = fac
    acc: tuple[int, ...] = (unit,)
    for codes, mult in factors:
        for _ in range(mult):
            acc = _pmul(t, acc, codes)
    return acc
