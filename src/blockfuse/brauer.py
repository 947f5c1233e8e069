"""Brauer pairs, the partial order via chains of normal inclusions,
subpair tables, maximal pairs and defect groups.

A pair (P, e) couples a p-subgroup P of G with a block e of k C_G(P).
The order is computed only in the form "which block f makes (Q, f) lie
under the root?": each normal step Q normal in R requires f to be
R-stable with Br_R(f) e_R = e_R, and chains of normal steps through the
normalizer tower Q, N_P(Q), N_P(N_P(Q)), ..., P settle every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (BlockIdempotent, VerificationError, brauer_map, central_multiply,
                      conjugate_element, embed, find_block, is_stable,
                      primitive_central_idempotents)
from .gf import FieldTower
from .groups import (FiniteGroup, Subgroup, all_subgroups, centralizer, normalizer,
                     normalizer_in, sylow_p_subgroup)


@dataclass(frozen=True)
class BrauerPair:
    """(P, e): a p-subgroup with a block of the centralizer algebra."""

    subgroup: Subgroup
    block: BlockIdempotent

    def __post_init__(self):
        owner = self.block.owner
        ambient = owner.ambient or owner
        if ambient is not self.subgroup.parent:
            raise ValueError("block lives over a different group")
        owner_elems = owner.ambient_elems or tuple(range(owner.order))
        expected = centralizer(self.subgroup.parent, self.subgroup)
        if owner_elems != expected.elems:
            raise ValueError("block does not belong to the centralizer algebra of P")

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent

    def __repr__(self) -> str:
        return f"BrauerPair(P={list(self.subgroup.elems)}, e=block#{self.block.index})"


def centralizer_blocks(G: FiniteGroup, tower: FieldTower, P: Subgroup,
                       over_k: bool, seed: int = 0) -> tuple[BlockIdempotent, ...]:
    """Blocks of k C_G(P), the centralizer treated as a group in its own
    right; memoized on the centralizer's view."""
    owner = centralizer(G, P).as_group()
    return primitive_central_idempotents(owner, tower, over_k, seed)


def is_pair_of_block(pair: BrauerPair, b: BlockIdempotent) -> bool:
    """True iff Br_P(b) e = e, i.e. (P, e) belongs to the block b of kG."""
    br = brauer_map(b.elem, pair.subgroup, check_stable=False)
    e = pair.block.elem
    return central_multiply(br, e) == e


def conjugate_block(x: int, block: BlockIdempotent) -> BlockIdempotent:
    """Transport a centralizer block along conjugation by x; the result is
    located inside the conjugated centralizer's own block list."""
    moved = conjugate_element(x, block.elem)
    target_blocks = primitive_central_idempotents(moved.group, block.elem.tower, block.over_k)
    return find_block(target_blocks, moved)


def conjugate_pair(x: int, pair: BrauerPair) -> BrauerPair:
    return BrauerPair(pair.subgroup.conjugate(x), conjugate_block(x, pair.block))


def normal_leq(sub: BrauerPair, sup: BrauerPair) -> bool:
    """The normal-inclusion relation: sub.P normal in sup.P, sub.e stable
    under sup.P, and Br_{sup.P}(sub.e) sup.e = sup.e."""
    Q, R = sub.subgroup, sup.subgroup
    if not Q.is_subset_of(R):
        raise ValueError("sub.P is not contained in sup.P")
    if normalizer_in(R, Q).order != R.order:
        raise ValueError("sub.P is not normal in sup.P")
    f = sub.block.elem
    if not is_stable(f, R):
        return False
    br = brauer_map(embed(f), R, check_stable=False)
    e = sup.block.elem
    return central_multiply(br, e) == e


@dataclass(frozen=True)
class SubpairTable:
    """The assignment Q -> e_Q of every subgroup of the root's defect
    group to the unique block lying under the root."""

    root: BrauerPair
    assignment: dict

    def __getitem__(self, key) -> BlockIdempotent:
        if isinstance(key, Subgroup):
            key = key.elems
        return self.assignment[key]

    def items(self):
        return self.assignment.items()


def subpair_table(root: BrauerPair, seed: int = 0) -> SubpairTable:
    """For every Q <= P the unique block e_Q with (Q, e_Q) under the root,
    solved along the normalizer tower of each Q; memoized on the group per
    root."""
    return root.group.memo(("subpairs", root), lambda: _subpair_table(root, seed))


def _subpair_table(root: BrauerPair, seed: int) -> SubpairTable:
    G = root.group
    tower = root.block.elem.tower
    over_k = root.block.over_k
    P = root.subgroup
    table: dict[tuple[int, ...], BlockIdempotent] = {P.elems: root.block}

    def solve(Q: Subgroup) -> BlockIdempotent:
        got = table.get(Q.elems)
        if got is not None:
            return got
        N = normalizer_in(P, Q)
        e_n = solve(N)
        sup = BrauerPair(N, e_n)
        hits = [f for f in centralizer_blocks(G, tower, Q, over_k, seed)
                if normal_leq(BrauerPair(Q, f), sup)]
        if len(hits) != 1:
            raise VerificationError(
                f"normal step expects a unique block, found {len(hits)}")
        table[Q.elems] = hits[0]
        return hits[0]

    for Q in all_subgroups(P):
        solve(Q)
    return SubpairTable(root, table)


def subpair(root: BrauerPair, Q: Subgroup, seed: int = 0) -> BlockIdempotent:
    """The unique block e_Q of k C_G(Q) with (Q, e_Q) below the root."""
    if not Q.is_subset_of(root.subgroup):
        raise ValueError("Q is not contained in the root's subgroup")
    return subpair_table(root, seed)[Q.elems]


@dataclass(frozen=True)
class MaximalPairs:
    pairs: tuple[BrauerPair, ...]
    defect_order: int
    sylow: Subgroup


def maximal_pairs(G: FiniteGroup, tower: FieldTower, b: BlockIdempotent,
                  seed: int = 0) -> MaximalPairs:
    """All maximal pairs of the block b with first coordinate inside one
    fixed Sylow p-subgroup, plus the defect-group order.

    Restricting to a single Sylow subgroup is justified because defect
    groups form one conjugacy class; the corpus cross-checks compare with
    an unrestricted search.  The result is memoized on G per tower and
    block.
    """
    if b.elem.group is not G:
        raise ValueError("block does not belong to kG")
    return G.memo(("maximal_pairs", tower.key, b), lambda: _maximal_pairs(G, tower, b, seed))


def _maximal_pairs(G: FiniteGroup, tower: FieldTower, b: BlockIdempotent,
                   seed: int) -> MaximalPairs:
    p = tower.p
    S = sylow_p_subgroup(G, p)
    candidates = []
    for P in all_subgroups(S):
        br = brauer_map(b.elem, P, check_stable=False)
        if not br.is_zero:
            candidates.append((P, br))
    defect = max(P.order for P, _ in candidates)
    pairs = []
    for P, br in candidates:
        if P.order != defect:
            continue
        for e in centralizer_blocks(G, tower, P, b.over_k, seed):
            if central_multiply(br, e.elem) == e.elem:
                pairs.append(BrauerPair(P, e))
    pairs.sort(key=lambda pr: (pr.subgroup.elems, pr.block.index))
    return MaximalPairs(tuple(pairs), defect, S)


def pair_stabilizer(pair: BrauerPair) -> Subgroup:
    """N_G(P, e): ambient elements fixing both coordinates."""
    e = pair.block.elem
    members = [x for x in normalizer(pair.group, pair.subgroup).elems
               if conjugate_element(x, e) == e]
    return Subgroup(pair.group, members, _checked=True)
