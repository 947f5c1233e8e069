"""Brauer pairs, the partial order via chains of normal inclusions,
subpair tables, maximal pairs and defect groups.

A pair (P, e) couples a p-subgroup P of G with a block e of k C_G(P).
The order is computed only in the form "which block f makes (Q, f) lie
under the root?": each normal step Q normal in R requires f to be
R-stable with Br_R(f) e_R = e_R, and chains of normal steps through the
normalizer tower Q, N_P(Q), N_P(N_P(Q)), ..., P settle every comparison.
For each Q <= P exactly one block of k C_G(Q) lies under the root
(Alperin-Broue), so when k C_G(Q) has a single block that block is e_Q
and no normal step is solved.  The rule holds over L and over K alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .algebra import (BlockIdempotent, VerificationError, brauer_map, central_multiply,
                      conjugate_element, embed, find_block, is_stable,
                      primitive_central_idempotents, _fixed_by)
from .gf import FieldTower
from .groups import (FiniteGroup, Subgroup, all_subgroups, centralizer, normalizer,
                     normalizer_in, sylow_p_subgroup)
from .groups import _centralizer_masks, p_part


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
                       over_k: bool) -> tuple[BlockIdempotent, ...]:
    """Blocks of k C_G(P), the centralizer treated as a group in its own
    right; memoized on the centralizer's view."""
    owner = centralizer(G, P).as_group()
    return primitive_central_idempotents(owner, tower, over_k)


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
    group to the unique block lying under the root; `forced` holds the
    element sets of the Q whose k C_G(Q) has one block, so e_Q = 1."""

    root: BrauerPair
    assignment: dict
    forced: frozenset

    def __getitem__(self, key) -> BlockIdempotent:
        if isinstance(key, Subgroup):
            key = key.elems
        return self.assignment[key]

    def items(self):
        return self.assignment.items()


def subpair_table(root: BrauerPair) -> SubpairTable:
    """For every Q <= P the unique block e_Q with (Q, e_Q) under the root:
    the only block of k C_G(Q) when there is one, else solved along the
    normalizer tower of Q; memoized on the group per root."""
    return root.group.memo(("subpairs", root), lambda: _subpair_table(root))


def _subpair_table(root: BrauerPair) -> SubpairTable:
    G = root.group
    tower = root.block.elem.tower
    over_k = root.block.over_k
    P = root.subgroup
    subs = all_subgroups(P)
    blocks = {Q.elems: centralizer_blocks(G, tower, Q, over_k) for Q in subs}
    forced = frozenset(q for q, cands in blocks.items() if len(cands) == 1)
    table: dict[tuple[int, ...], BlockIdempotent] = {q: blocks[q][0] for q in forced}
    table[P.elems] = root.block

    def solve(Q: Subgroup) -> BlockIdempotent:
        got = table.get(Q.elems)
        if got is not None:
            return got
        N = normalizer_in(P, Q)
        sup = BrauerPair(N, solve(N))
        hits = [f for f in blocks[Q.elems] if normal_leq(BrauerPair(Q, f), sup)]
        if len(hits) != 1:
            raise VerificationError(
                f"normal step expects a unique block, found {len(hits)}")
        table[Q.elems] = hits[0]
        return hits[0]

    for Q in subs:
        solve(Q)
    return SubpairTable(root, table, forced)


@dataclass(frozen=True)
class MaximalPairs:
    pairs: tuple[BrauerPair, ...]
    defect_order: int
    sylow: Subgroup


def maximal_pairs(G: FiniteGroup, tower: FieldTower, b: BlockIdempotent) -> MaximalPairs:
    """All maximal pairs of the block b with first coordinate inside one
    fixed Sylow p-subgroup, plus the defect-group order.

    Restricting to a single Sylow subgroup is justified because defect
    groups form one conjugacy class; the corpus cross-checks compare with
    an unrestricted search.  The result is memoized on G per tower and
    block.
    """
    if b.elem.group is not G:
        raise ValueError("block does not belong to kG")
    return G.memo(("maximal_pairs", tower.key, b), lambda: _maximal_pairs(G, tower, b))


def _maximal_pairs(G: FiniteGroup, tower: FieldTower, b: BlockIdempotent) -> MaximalPairs:
    """|D| is the largest p-part of |C_G(x)| over the support of b: the
    support's classes have defect groups up to D (Brauer and Green's defect
    classes), and Br_D(b) != 0 puts some x in C_G(D) into it."""
    p = tower.p
    S = sylow_p_subgroup(G, p)
    cmasks = _centralizer_masks(G)
    defect = max(p_part(cmasks[x].bit_count(), p) for x, c in enumerate(b.elem.coeffs) if c)
    pairs = []
    for P in all_subgroups(S):
        if P.order != defect:
            continue
        br = brauer_map(b.elem, P, check_stable=False)
        if br.is_zero:
            continue
        for e in centralizer_blocks(G, tower, P, b.over_k):
            if central_multiply(br, e.elem) == e.elem:
                pairs.append(BrauerPair(P, e))
    if not pairs:
        raise VerificationError(f"no subgroup of order {defect} has a pair of block {b.index}")
    pairs.sort(key=lambda pr: (pr.subgroup.elems, pr.block.index))
    return MaximalPairs(tuple(pairs), defect, S)


def pair_stabilizer(pair: BrauerPair) -> Subgroup:
    """N_G(P, e): the x in N_G(P), which normalize C_G(P), whose
    conjugation fixes e."""
    N = normalizer(pair.group, pair.subgroup)
    fixes = _fixed_by(pair.block.elem, N).tolist()
    return Subgroup._of(pair.group, tuple(compress(N.elems, fixes)))
