"""Galois descent for blocks and fusion systems.

The cyclic Galois group of the tower acts on L[G] coefficientwise.  Orbit
sums of L-blocks are K-blocks, maximal pairs descend coordinatewise, and
the fusion system over K is generated by the fusion system over L
together with a single twist automorphism of the defect group, obtained
by conjugating with a generator of the cyclic quotient
N_G(P, orbit-sum e) / N_G(P, e).  This module computes those objects and
verifies the advertised identities; the identities are theorems, so any
failure raises `VerificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (BlockIdempotent, VerificationError, _galois_orbit_sum, central_multiply,
                      find_block, galois_apply, is_k_rational, primitive_central_idempotents)
from .brauer import BrauerPair, maximal_pairs, pair_stabilizer, subpair_table
from .fusion import (FusionSystem, alperin_check, block_fusion, closure,
                     factorization_check, fusion_equal, saturation_report)
from .gf import FieldTower
from .groups import FiniteGroup, GroupMap, Subgroup, coset_order, normalizer_in


def galois_orbit(b: BlockIdempotent) -> list[BlockIdempotent]:
    """The distinct Galois conjugates of a block, starting at b."""
    blocks = primitive_central_idempotents(b.owner, b.elem.tower, b.over_k)
    orbit = [b]
    cur = galois_apply(1, b.elem)
    while cur != b.elem:
        orbit.append(find_block(blocks, cur))
        cur = galois_apply(1, cur)
    return orbit


def orbit_sum(b: BlockIdempotent) -> BlockIdempotent:
    """Sum of the distinct Galois conjugates of an L-block: the unique
    K-block of the same algebra lying over it."""
    if b.over_k:
        raise ValueError("orbit_sum applies to blocks over the top field")
    total = _galois_orbit_sum(b.elem)
    if not is_k_rational(total):
        raise VerificationError("orbit sum is not Frobenius fixed")
    k_blocks = primitive_central_idempotents(b.owner, b.elem.tower, over_k=True)
    return find_block(k_blocks, total)


@dataclass(frozen=True)
class Correspondence:
    """Orbit sums set up a bijection from Galois orbits of L-blocks to
    K-blocks, preserving defect-group orders."""

    orbits: tuple[tuple[int, ...], ...]          # L-block indices per orbit
    k_block_of_orbit: tuple[int, ...]            # K-block index per orbit
    defect_orders_l: tuple[int, ...]             # per orbit (shared by members)
    bijective: bool
    defects_match: bool


def block_correspondence(G: FiniteGroup, tower: FieldTower) -> Correspondence:
    """The block correspondence over the tower, memoized on G per tower."""
    return G.memo(("correspondence", tower.key), lambda: _block_correspondence(G, tower))


def _block_correspondence(G: FiniteGroup, tower: FieldTower) -> Correspondence:
    l_blocks = primitive_central_idempotents(G, tower, over_k=False)
    k_blocks = primitive_central_idempotents(G, tower, over_k=True)
    seen: set[int] = set()
    orbits = []
    k_of_orbit = []
    defects_l = []
    defects_k = []
    for b in l_blocks:
        if b.index in seen:
            continue
        orbit = galois_orbit(b)
        seen.update(x.index for x in orbit)
        orbits.append(tuple(sorted(x.index for x in orbit)))
        tilde = orbit_sum(b)
        k_of_orbit.append(tilde.index)
        orders = {maximal_pairs(G, tower, x).defect_order for x in orbit}
        if len(orders) != 1:
            raise VerificationError("orbit members have different defect orders")
        defects_l.append(orders.pop())
        defects_k.append(maximal_pairs(G, tower, tilde).defect_order)
    bijective = (sorted(k_of_orbit) == [b.index for b in k_blocks]
                 and len(set(k_of_orbit)) == len(k_of_orbit))
    defects_match = tuple(defects_l) == tuple(defects_k)
    return Correspondence(tuple(orbits), tuple(k_of_orbit), tuple(defects_l),
                          bijective, defects_match)


@dataclass
class GaloisContext:
    """Everything the descent verifiers need for one L-block, each piece
    computed once by galois_context.  k1, p1, k2_order and p2_order are
    the four projections of the stabilizer of the root in G x Gamma, the
    Galois ones by their orders.  When the two systems have the same
    isos, system_k is the system_l object, so each check that reads one
    system runs once."""

    group: FiniteGroup
    tower: FieldTower
    block: BlockIdempotent           # b, block of L[G]
    k_block: BlockIdempotent         # its orbit sum, block of K[G]
    root: BrauerPair                 # maximal pair (P, e) of b over L
    k_root: BrauerPair               # (P, orbit sum of e), maximal for the K-block
    k1: Subgroup                     # N_G(P, e)
    p1: Subgroup                     # N_G(P, orbit sum of e)
    k2_order: int                    # |Gamma_e|
    p2_order: int                    # |Gamma_b|
    index: int                       # common cyclic quotient size
    g0: int                          # first x in p1 whose coset generates p1 / k1
    sigma: GroupMap                  # the twist: conjugation by g0 on P
    system_l: FusionSystem = field(repr=False)
    system_k: FusionSystem = field(repr=False)


def galois_context(G: FiniteGroup, tower: FieldTower, b: BlockIdempotent) -> GaloisContext:
    """The descent of the L-block b, with the theorem-backed identities
    asserted: any failure raises `VerificationError`."""
    k_block = orbit_sum(b)
    if central_multiply(b.elem, k_block.elem) != b.elem:
        raise VerificationError("orbit sum does not cover the block")
    mp_l = maximal_pairs(G, tower, b)
    root = mp_l.pairs[0]
    P = root.subgroup
    k_root = BrauerPair(P, orbit_sum(root.block))
    mp_k = maximal_pairs(G, tower, k_block)
    if mp_k.defect_order != mp_l.defect_order:
        raise VerificationError("defect orders differ across the descent")
    if k_root not in mp_k.pairs:
        raise VerificationError("descended root is not a maximal pair over K")
    k1 = pair_stabilizer(root)
    p1 = pair_stabilizer(k_root)
    # |Gamma_a| = [L:K] / |Galois orbit of a|
    k2 = tower.gamma_order // len(galois_orbit(root.block))
    p2 = tower.gamma_order // len(galois_orbit(b))
    if not k1.is_subset_of(p1) or normalizer_in(p1, k1).order != p1.order:
        raise VerificationError("pair stabilizer is not normal in the orbit-sum stabilizer")
    if p2 % k2:
        raise VerificationError("Galois stabilizers are not nested")
    index = p1.order // k1.order
    if index != p2 // k2:
        raise VerificationError("group-side and Galois-side indices differ")
    g0 = 0
    if index > 1:
        g0 = next((x for x in p1.elems if coset_order(G, x, k1) == index), None)
        if g0 is None:
            raise VerificationError("stabilizer quotient is not cyclic")
    sigma = GroupMap(P, P, tuple(G.conj(g0, g) for g in P.elems), _checked=True)
    system_l = block_fusion(G, tower, b, root)
    # K = L gives k_root == root; F_K = F_L: one object, decided once
    system_k = system_l if k_root == root else block_fusion(G, tower, k_block, k_root)
    if system_k.isos == system_l.isos:
        system_k = system_l
    return GaloisContext(G, tower, b, k_block, root, k_root, k1, p1, k2, p2, index, g0,
                         sigma, system_l, system_k)


def check_generation(ctx: GaloisContext) -> bool:
    """The K-side system equals the closure of the L-side system plus the
    twist, and every K-side morphism factors through twist powers on
    either side."""
    generated = closure(ctx.root.subgroup, ctx.system_l.isos | {ctx.sigma})
    if not fusion_equal(generated, ctx.system_k):
        return False
    return factorization_check(ctx.system_l, ctx.system_k, ctx.sigma)


def check_local_agreement(ctx: GaloisContext) -> bool:
    """Fully centralized, fully normalized and centric agree between the
    L-side and K-side systems on every subgroup of P."""
    L, K = ctx.system_l, ctx.system_k
    return (L.fully_centralized == K.fully_centralized
            and L.fully_normalized == K.fully_normalized and L.centric == K.centric)


def check_order_preservation(ctx: GaloisContext) -> bool:
    """Descending every subpair of the maximal root lands under the
    descended root: the orbit-sum map on pairs preserves the order."""
    table_l = subpair_table(ctx.root)
    table_k = subpair_table(ctx.k_root)
    return all(orbit_sum(e_q) == table_k[elems] for elems, e_q in table_l.items())


def run_descent(G: FiniteGroup, tower: FieldTower,
                b: BlockIdempotent) -> tuple[dict, GaloisContext]:
    """Run every descent check for the L-block b.  Returns the JSON report
    (the block, its orbit sum and maximal pairs, the Goursat stabilizer
    orders, the twist g0 and sigma, the nine verdicts, both saturation
    flags, the three index expressions and `all_ok`, the conjunction of
    the verdicts) together with the GaloisContext it was read from."""
    ctx = galois_context(G, tower, b)
    P = ctx.root.subgroup
    rep_l = saturation_report(ctx.system_l)
    rep_k = rep_l if ctx.system_k is ctx.system_l else saturation_report(ctx.system_k)
    alperin_l = alperin_check(ctx.system_l)
    verdicts = {
        "generation": check_generation(ctx),
        # saturation over K holds iff it holds over L and p does not divide the index
        "saturation_transfer": rep_k.saturated == (rep_l.saturated and ctx.index % tower.p != 0),
        "extension_axiom_l": rep_l.extension_ok,
        "extension_axiom_k": rep_k.extension_ok,
        "alperin_l": alperin_l,
        "alperin_k": alperin_l if ctx.system_k is ctx.system_l else alperin_check(ctx.system_k),
        "local_agreement": check_local_agreement(ctx),
        "order_preserved": check_order_preservation(ctx),
        "sigma_in_k_system": ctx.sigma in ctx.system_k.isos,
    }
    report = {
        "group": G.name,
        "tower": {"p": tower.p, "m": tower.m, "n": tower.n},
        "block_index": b.index,
        "k_block_index": ctx.k_block.index,
        "orbit_size": tower.gamma_order // ctx.p2_order,  # |Gamma| / |Gamma_b|
        "defect_order": P.order,
        "root": {"P": list(P.elems), "e": ctx.root.block.index, "defect_order": P.order},
        "k_root": {"P": list(P.elems), "e": ctx.k_root.block.index, "defect_order": P.order},
        "stabilizers": {"pair_l": ctx.k1.order, "pair_k": ctx.p1.order,
                        "gamma_b": ctx.p2_order, "gamma_e": ctx.k2_order},
        "index": ctx.index,
        "g0": ctx.g0,
        "sigma": list(ctx.sigma.images),
        "verdicts": verdicts,
        "saturated": {"l": rep_l.saturated, "k": rep_k.saturated},
        # [N_G(P, orbit sum) : N_G(P, e)], [Gamma_b : Gamma_e] and [K(e) : K(b)],
        # the last from the fixed-field degrees [K(a) : K] = gamma / |Gamma_a|
        "index_expressions": {"group": ctx.p1.order // ctx.k1.order,
                              "galois": ctx.p2_order // ctx.k2_order,
                              "field": (tower.gamma_order // ctx.k2_order)
                              // (tower.gamma_order // ctx.p2_order)},
        "all_ok": all(verdicts.values()),
    }
    return report, ctx
