"""Fusion systems over a finite p-group: construction from groups and from
blocks, saturation axioms, generated closure, Alperin generation, and the
twist-factorization checker.

Morphisms are stored extensionally as `GroupMap` image arrays.  A system
is its set of isomorphisms, each onto its image, since a fusion system is
determined by the isomorphisms it contains (Aschbacher-Kessar-Oliver, LMS
LNS 391, I.2): systems are equal iff their iso sets are, and hom sets are
derived from the isos on each call, without a cache.

F-isomorphism classes and the local predicates (fully normalized, fully
centralized, centric) are decided once per system, on construction, and
N_P(Q), C_P(Q) and the inner isos once per (group, P), memoized on the group.
Hom counts are built one row per F-class.

The axioms are stated once, in `closure`: the generated system is the
groupoid generated by the inner isos and the restricted seeds with their
inverses, and `assert_fusion_axioms` asks whether closing a system adds
anything, naming the first map it adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import VerificationError
from .brauer import (BrauerPair, conjugate_block, is_pair_of_block, maximal_pairs,
                     subpair_table)
from .gf import FieldTower
from .groups import (FiniteGroup, GroupMap, Subgroup, _least_prime_factor, all_subgroups,
                     centralizer_in, conjugates, coset_reps, full_subgroup, normalizer_in)


class FusionSystem:
    """Category on the subgroups of a p-group P, carried by its isos.

    Each iso goes from an object onto its image, which is its codomain;
    the constructor raises ValueError for any other map.

    `classes` holds the F-isomorphism classes, each a tuple of objects in
    `subgroups` order.  `fully_normalized`, `fully_centralized` and
    `centric` hold the element sets of the objects with that property,
    decided on construction per class; a class is centric iff C_P(R) <= R
    for every R in it.

    The class-level shortcuts (`hom_count_rows`, one row per F-class, and
    the saturation check) assume the isos form a fusion system: closed
    under inverses, composition and restriction, with the inner isos
    present.  Every system built here is one, and `assert_fusion_axioms`
    checks it by asking whether `closure` adds anything."""

    def __init__(self, P: Subgroup, isos):
        self.p_subgroup = P
        self.subgroups = tuple(all_subgroups(P))
        self.isos = frozenset(isos)
        objects = set(self.subgroups)  # a Subgroup hashes and compares with its parent
        self._by_domain: dict[tuple[int, ...], list[GroupMap]] = {}
        for m in sorted(self.isos, key=lambda m: (m.domain.elems, m.images)):
            if not (m.domain in objects and m.codomain in objects
                    and m.codomain.order == m.domain.order):
                raise ValueError(f"{m!r} is not an iso between subgroups of P onto its image")
            self._by_domain.setdefault(m.domain.elems, []).append(m)
        local = _local_table(P)
        self.classes = _f_classes(self.subgroups, self.isos)
        normalized, centralized, centric = set(), set(), set()
        for cls in self.classes:
            top_n = max(local[R.elems][0].order for R in cls)
            top_c = max(local[R.elems][1].order for R in cls)
            normalized.update(R.elems for R in cls if local[R.elems][0].order == top_n)
            centralized.update(R.elems for R in cls if local[R.elems][1].order == top_c)
            if all(local[R.elems][1].is_subset_of(R) for R in cls):
                centric.update(R.elems for R in cls)
        self.fully_normalized = frozenset(normalized)
        self.fully_centralized = frozenset(centralized)
        self.centric = frozenset(centric)

    @property
    def prime(self) -> int | None:
        n = self.p_subgroup.order
        return None if n == 1 else _least_prime_factor(n)

    def hom_set(self, Q: Subgroup, R: Subgroup) -> frozenset:
        """All morphisms Q -> R: isos out of Q whose image lies inside R,
        with codomain R."""
        rset = set(R.elems)
        return frozenset(GroupMap(m.domain, R, m.images, _checked=True)
                         for m in self._by_domain.get(Q.elems, ()) if rset.issuperset(m.images))

    def hom_count_rows(self, columns):
        """Yield (cls, row) per F-class, row[j] = |Hom(Q, columns[j])| for
        every Q in cls: |Aut_F(Q)| times the number of members of the class
        inside columns[j], since a morphism Q -> R is an iso onto some
        R' <= R and the isos from Q onto one member form a coset of
        Aut_F(Q).  Inclusions are read from the masks, one small array per
        class."""
        width = (self.p_subgroup.parent.order + 7) // 8

        def masks(subgroups):
            return np.frombuffer(b"".join(S.mask.to_bytes(width, "little") for S in subgroups),
                                 np.uint8).reshape(len(subgroups), width)

        outside = ~masks(columns)
        for cls in self.classes:
            inside = ~(masks(cls)[:, None, :] & outside[None, :, :]).any(axis=2)
            yield cls, tuple((self._aut_order(cls[0]) * inside.sum(axis=0)).tolist())

    def _aut_order(self, Q: Subgroup) -> int:
        """|Aut_F(Q)|, counted without building the maps."""
        qset = set(Q.elems)
        return sum(map(qset.issuperset, (m.images for m in self._by_domain.get(Q.elems, ()))))

    def aut_set(self, Q: Subgroup) -> frozenset:
        return self.hom_set(Q, Q)

    def __repr__(self) -> str:
        return (f"FusionSystem(|P|={self.p_subgroup.order}, "
                f"objects={len(self.subgroups)}, isos={len(self.isos)})")


def _f_classes(subgroups, isos) -> tuple[tuple[Subgroup, ...], ...]:
    """The F-isomorphism classes of the objects, by union-find over the
    isos' (domain, codomain) pairs, each in `subgroups` order."""
    parent = {S.elems: S.elems for S in subgroups}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for m in isos:
        a, b = find(m.domain.elems), find(m.codomain.elems)
        if a != b:
            parent[a] = b
    classes: dict[tuple[int, ...], list[Subgroup]] = {}
    for S in subgroups:
        classes.setdefault(find(S.elems), []).append(S)
    return tuple(map(tuple, classes.values()))


def _local_table(P: Subgroup) -> dict[tuple[int, ...], tuple[Subgroup, Subgroup]]:
    """(N_P(Q), C_P(Q)) for every Q <= P, keyed by Q's element set;
    memoized on the group per P."""
    return P.parent.memo(("local", P.elems), lambda: _build_local_table(P))


def _build_local_table(P: Subgroup) -> dict[tuple[int, ...], tuple[Subgroup, Subgroup]]:
    return {Q.elems: (normalizer_in(P, Q), centralizer_in(P, Q)) for Q in all_subgroups(P)}


def _transports(P: Subgroup, H: Subgroup):
    """Yield (Q, x, images) for Q <= P and x in H with xQx^-1 <= P, where
    images lists x q x^-1 for q in Q.  c_x on Q depends only on the left
    coset x C_H(Q), so x runs over one transporter per coset, conjugating
    Q in one gather per Q."""
    pset = set(P.elems)
    for Q in all_subgroups(P):
        xs = coset_reps(H, centralizer_in(H, Q))
        for x, images in zip(xs, conjugates(P.parent, xs, Q.elems).tolist()):
            if pset.issuperset(images):
                yield Q, x, tuple(images)


def _conjugation_isos(P: Subgroup, H: Subgroup) -> set[GroupMap]:
    """The maps c_x: Q -> xQx^-1 for Q <= P and x in H, where xQx^-1 <= P."""
    return {GroupMap(Q, Subgroup._of(P.parent, tuple(sorted(images))), images, _checked=True)
            for Q, _, images in _transports(P, H)}


def _inner_isos(P: Subgroup) -> frozenset:
    """`_conjugation_isos(P, P)`, memoized on the group per P."""
    return P.parent.memo(("inner", P.elems), lambda: frozenset(_conjugation_isos(P, P)))


def group_fusion(P: Subgroup, G: FiniteGroup) -> FusionSystem:
    """The fusion system of G on P: all conjugation maps between
    subgroups of P realized by elements of G."""
    if P.parent is not G:
        raise ValueError("P must be a subgroup of G")
    return FusionSystem(P, _conjugation_isos(P, full_subgroup(G)))


def block_fusion(G: FiniteGroup, tower: FieldTower, b, root: BrauerPair) -> FusionSystem:
    """The fusion system of the block b at the maximal pair root: the
    conjugation maps c_x with x(Q, e_Q) under (R, e_R), decided through
    the subpair table by x e_Q = e_{xQ}.

    Both c_x on Q and x e_Q depend only on the left coset x C_G(Q), the
    latter because e_Q is central in k C_G(Q).  So x runs over the
    transporters of `_transports`, and each distinct map is tested once.
    When k C_G(Q) has one block, so has its conjugate k C_G(xQ), and x e_Q
    = 1 = e_{xQ} holds without transporting the block."""
    if not is_pair_of_block(root, b):
        raise ValueError("root is not a pair of the given block")
    mp = maximal_pairs(G, tower, b)
    if root.subgroup.order != mp.defect_order:
        raise ValueError("root pair is not maximal for the block")
    P = root.subgroup
    table = subpair_table(root)
    subgroups = {S.elems: S for S in all_subgroups(P)}
    isos = set()
    for Q, x, images in _transports(P, full_subgroup(G)):
        target = subgroups[tuple(sorted(images))]
        if (Q.elems in table.forced
                or conjugate_block(x, table[Q.elems]) == table[target.elems]):
            isos.add(GroupMap(Q, target, images, _checked=True))
    return FusionSystem(P, isos)


def closure(P: Subgroup, seeds) -> FusionSystem:
    """Least fusion system over P containing the seed morphisms: the
    groupoid generated by the inner isos and by each seed's restrictions,
    onto their images, to every subgroup of its domain, with their inverses.

    Restriction commutes with composition and inversion (Aschbacher-
    Kessar-Oliver, Fusion Systems in Algebra and Topology, I.2), and these
    generators are closed under both, so every morphism of the generated
    system is a word in them: closing under composition alone suffices."""
    subs = all_subgroups(P)
    objects = {Q.elems for Q in subs}
    pset = set(P.elems)
    maps = set(_inner_isos(P))
    for s in sorted(seeds, key=lambda s: -s.domain.order):
        if (s.domain.parent is not P.parent or s.domain.elems not in objects
                or not pset.issuperset(s.images)):
            raise ValueError("seed morphism is not between subgroups of P")
        if s.restrict(s.domain) in maps:  # maps is closed under restriction and inverses
            continue
        for Q in subs:
            if Q.is_subset_of(s.domain):
                m = s.restrict(Q)
                maps.update((m, m.inverse()))
    out_of: dict[tuple[int, ...], list[GroupMap]] = {}
    for m in maps:
        out_of.setdefault(m.domain.elems, []).append(m)
    frontier = list(maps)
    while frontier:
        m = frontier.pop()
        for g in out_of.get(m.codomain.elems, ()):
            word = g.compose(m)
            if word not in maps:
                maps.add(word)
                frontier.append(word)
    return FusionSystem(P, maps)


def fusion_equal(F1: FusionSystem, F2: FusionSystem) -> bool:
    """Equality of the iso sets, which is hom-set equality over every
    ordered pair of subgroups because each iso is stored onto its image."""
    if F1.p_subgroup != F2.p_subgroup:
        raise ValueError("fusion systems live over different p-groups")
    return F1.isos == F2.isos


def _normalizer_cosets(P: Subgroup, Q: Subgroup) -> list[tuple[int, ...]]:
    """The left cosets of Q C_P(Q) in N_P(Q), each led by its smallest
    element."""
    NQ, CQ = _local_table(P)[Q.elems]
    mul = P.parent.mul
    QC = Subgroup._of(P.parent, tuple(sorted({mul[q][c] for q in Q.elems for c in CQ.elems})))
    return [tuple(mul[x][h] for h in QC.elems) for x in coset_reps(NQ, QC)]


def _automizer(P: Subgroup, R: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Aut_P(R) as image tuples over R, one conjugation per left coset of
    C_P(R) in N_P(R), since c_u on R depends only on u C_P(R)."""
    return set(map(tuple, conjugates(P.parent, coset_reps(*_local_table(P)[R]), R).tolist()))


def inner_automorphisms(P: Subgroup, Q: Subgroup) -> frozenset:
    """Aut_P(Q) for Q <= P: conjugations of Q by normalizer elements in P."""
    return frozenset(GroupMap(Q, Q, images, _checked=True) for images in _automizer(P, Q.elems))


def sylow_index(F: FusionSystem) -> int:
    """|Aut_F(P)| / |Aut_P(P)|, both counted without building the maps."""
    P = F.p_subgroup
    aut_f, aut_p = F._aut_order(P), len(_automizer(P, P.elems))
    if aut_f % aut_p:
        raise VerificationError("inner automorphisms do not divide Aut_F(P)")
    return aut_f // aut_p


def _extends(F: FusionSystem, phi: GroupMap, cosets, aut_r: set[tuple[int, ...]]) -> bool:
    """Whether phi: Q -> R extends to N_phi, given the left cosets of
    Q C_P(Q) in N_P(Q), each led by its smallest element, and Aut_P(R) as
    image tuples over R.elems.

    N_phi = {y in N_P(Q) : phi c_y phi^-1 in Aut_P(R)} (Aschbacher-
    Kessar-Oliver, Fusion Systems in Algebra and Topology, I.2) is a
    subgroup containing Q C_P(Q): c_y is the identity on Q for y in
    C_P(Q), and phi c_y phi^-1 = c_{phi(y)} for y in Q.  So the leader of
    each coset decides the whole coset, and phi extends iff its images are
    among the restrictions to Q of the isos out of N_phi, scanned up to
    the first match."""
    fwd = dict(zip(phi.domain.elems, phi.images)).__getitem__
    pre = [src for _, src in sorted(zip(phi.images, phi.domain.elems))]  # phi^-1 on R.elems
    twisted = conjugates(phi.domain.parent, [coset[0] for coset in cosets], pre).tolist()
    N = tuple(sorted(y for coset, row in zip(cosets, twisted)
                     if tuple(map(fwd, row)) in aut_r for y in coset))
    at = list(map({g: i for i, g in enumerate(N)}.__getitem__, phi.domain.elems))
    return phi.images in (tuple(map(psi.images.__getitem__, at)) for psi in F._by_domain.get(N, ()))


def _extension_counterexample(F: FusionSystem):
    """First morphism phi: Q -> P with fully normalized image that does not
    extend to N_phi, or None.

    F is saturated iff each F-class has a member that is fully automized
    and receptive (Aschbacher-Kessar-Oliver, Definition I.2.2), and then
    every fully normalized subgroup is both.  So when `_classes_saturated`
    finds that for every class, no such phi exists; otherwise the full
    scan `_first_non_extendable` decides."""
    if _classes_saturated(F):
        return None
    return _first_non_extendable(F)


def _classes_saturated(F: FusionSystem) -> bool:
    """Whether every F-class has its first fully normalized member R, in
    `F.subgroups` order, fully automized (|Aut_F(R)| / |Aut_P(R)| prime
    to p) and receptive (every iso Q -> R extends to N_phi).

    For y in N_P(R), N_{c_y phi} = N_phi and c_y phi extends iff phi does,
    so one iso per Aut_P(R)-orbit of the isos Q -> R is tested: the orbit
    of phi is read off the image tuples of Aut_P(R)."""
    P, p = F.p_subgroup, F.prime
    if p is None:  # P = 1: one object, one morphism
        return True
    for cls in F.classes:
        R = next(S for S in cls if S.elems in F.fully_normalized)
        aut_r = _automizer(P, R.elems)
        if F._aut_order(R) // len(aut_r) % p == 0:
            return False
        rset, at = set(R.elems), {r: i for i, r in enumerate(R.elems)}
        for Q in cls:
            cosets = _normalizer_cosets(P, Q)
            seen: set[tuple[int, ...]] = set()
            for phi in F._by_domain.get(Q.elems, ()):
                if phi.images in seen or not rset.issuperset(phi.images):
                    continue
                if not _extends(F, phi, cosets, aut_r):
                    return False
                pos = list(map(at.__getitem__, phi.images))
                seen.update(tuple(map(twist.__getitem__, pos)) for twist in aut_r)
    return True


def _first_non_extendable(F: FusionSystem):
    """The full scan: Q runs in `F.subgroups` order and phi over the isos
    out of Q by image tuple, so the witness (with codomain P) is
    canonical.  The automizers of the fully normalized subgroups are
    built once per call."""
    P = F.p_subgroup
    automizers = {S: _automizer(P, S) for S in F.fully_normalized}
    for Q in F.subgroups:
        cosets = _normalizer_cosets(P, Q)
        for phi in F._by_domain.get(Q.elems, ()):
            aut_r = automizers.get(phi.codomain.elems)
            if aut_r is not None and not _extends(F, phi, cosets, aut_r):
                return phi.with_codomain(P)
    return None


def alperin_check(F: FusionSystem) -> bool:
    """True iff F is generated by the automorphism groups of its centric,
    fully normalized subgroups."""
    seeds = [m for Q in F.subgroups
             if Q.elems in F.centric and Q.elems in F.fully_normalized for m in F.aut_set(Q)]
    return fusion_equal(closure(F.p_subgroup, seeds), F)


def map_order(sigma: GroupMap) -> int:
    ident = sigma.domain.elems
    k, acc = 1, sigma
    while acc.images != ident:
        acc = sigma.compose(acc)
        k += 1
    return k


def factorization_check(F: FusionSystem, F_big: FusionSystem, sigma: GroupMap) -> bool:
    """Every iso phi: Q -> R of the larger system factors, for a single
    exponent i, both as sigma^i after an iso of F (sigma^-i . phi on Q) and
    as an iso of F (phi . sigma^-i on sigma^i(Q)) after sigma^i restricted;
    a morphism factors iff the iso onto its image does."""
    P = F.p_subgroup
    if sigma not in F_big.isos:
        raise ValueError("sigma is not an automorphism in the larger system")
    powers = [GroupMap(P, P, P.elems, _checked=True)]
    for _ in range(map_order(sigma) - 1):
        powers.append(sigma.compose(powers[-1]))
    order = len(powers)
    isos = {(m.domain.elems, m.images) for m in F.isos}
    for phi in F_big.isos:
        Q = phi.domain
        for i in range(order):
            sig_inv = powers[-i % order]
            if (Q.elems, tuple(sig_inv.apply(g) for g in phi.images)) not in isos:
                continue
            dom_r = Subgroup._of(P.parent, tuple(sorted(powers[i].apply(g) for g in Q.elems)))
            if (dom_r.elems, phi.compose(sig_inv.restrict(dom_r)).images) in isos:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SaturationReport:
    sylow_ok: bool
    extension_ok: bool
    aut_index: int
    witness: dict | None

    @property
    def saturated(self) -> bool:
        return self.sylow_ok and self.extension_ok


def saturation_report(F: FusionSystem) -> SaturationReport:
    """Both saturation axioms with their witness: the Sylow index and the
    extension check run once each."""
    if F.prime is None:  # P = 1: Aut_F(P) = Aut_P(P) = 1
        idx, sylow_ok = 1, True
    else:
        idx = sylow_index(F)
        sylow_ok = idx % F.prime != 0
    counter = _extension_counterexample(F)
    witness = None
    if not sylow_ok:
        witness = {"kind": "sylow_index", "index": idx}
    elif counter is not None:
        witness = {"kind": "non_extendable_morphism",
                   "domain": list(counter.domain.elems),
                   "images": list(counter.images)}
    return SaturationReport(sylow_ok, counter is None, idx, witness)


def assert_fusion_axioms(F: FusionSystem) -> None:
    """Raise unless F is a fusion system: its maps are injective and
    `closure` of them adds nothing, so the inner isos, inverses,
    restrictions and composites are all present.  The error names the
    first iso the closure adds, by least domain, then least images."""
    for m in F.isos:
        if len(set(m.images)) != m.domain.order:
            raise VerificationError(f"non-injective morphism stored: {m!r}")
    added = closure(F.p_subgroup, F.isos).isos - F.isos
    if added:
        first = min(added, key=lambda m: (m.domain.elems, m.images))
        raise VerificationError(f"not closed: the closure adds {first!r}")
