"""Group-algebra arithmetic, the Brauer projection, traces, Galois action,
and primitive central idempotent (block) computation.

An `AlgebraElement` stores one field code per element of its owner group.
The owner is either a root group G or a localized subgroup view
(`Subgroup.as_group()`), which is how centralizer algebras k C_G(P) are
handled: local coefficient vectors, with the embedding back into kG kept
on the view.  Conjugation by an ambient group element moves an element of
k C_G(Q) to k C_G(xQx^-1) through that embedding.

Centre arithmetic runs in class-sum coordinates: a central element is one
code per conjugacy class, and products use the owner's class structure
counts (`groups.ClassData`, the class matrices of Dixon's character
method), so it costs a function of k(G), the number of classes, rather
than of |G|.  Blocks are found by the classical center-splitting loop on
such k(G)-vectors: starting from the identity, each class sum acts on the
current summand, its minimal polynomial is factored (over L, or over the
Frobenius-fixed subfield K for blocks of KG computed inside L), and
coprime factor powers split the summand through the corresponding Bezout
idempotents; only the final blocks are expanded to group coordinates.
`central_multiply` multiplies two central elements of the group algebra
the same way.  All zero tests are exact; no tolerances exist anywhere.

Each algebra is split at most once per field, on the smallest algebra
that determines its blocks:
- the algebra of a p-group is local, so its one block is the identity
  and no splitting runs;
- for Z = O_p(Z(H)) != 1 the blocks of kH correspond to those of k[H/Z],
  and a block is supported on p-regular elements (Osima).  A coset hZ
  holds at most one p-regular element, none when the p-part of h is not
  in Z, so each block of kH is the block of k[H/Z] read at the p-regular
  element of each coset, and must vanish on the cosets that have none;
- L/K is Galois, so the K-blocks of a centralizer view are the Galois
  orbit sums of its L-blocks.  A root group is still split over K, which
  keeps the block correspondence check an independent computation;
- when K = L a K-side request is an L-side request and returns the
  L-blocks themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldTower, Poly, factor, factor_over_subfield, _pdivmod, _pinvmod, _pmod, _pmul
from .groups import (ClassData, FiniteGroup, Subgroup, _conj_table, _index_dtype, centralizer,
                     class_data, conj_rows, coset_reps, p_part)
from .linalg import Echelon


class VerificationError(RuntimeError):
    """A property that is a theorem failed; signals an implementation bug."""


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of L[group]; coeffs[i] is the field code at group element i."""

    group: FiniteGroup
    tower: FieldTower
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector length mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.group is other.group
                and self.tower is other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.group), id(self.tower), self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_owner(self, other)
        t = self.tower
        return AlgebraElement(self.group, t,
                              tuple(t.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_owner(self, other)
        t = self.tower
        return AlgebraElement(self.group, t,
                              tuple(t.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def to_sparse(self) -> dict[str, list[int]]:
        """Serialization form: {element index: coefficient array} on the support."""
        return {str(i): list(self.tower.coeffs(c))
                for i, c in enumerate(self.coeffs) if c}

    def __repr__(self) -> str:
        parts = [f"{self.tower.coeffs(c)}*g{i}" for i, c in enumerate(self.coeffs) if c]
        return "AlgebraElement(" + (" + ".join(parts) or "0") + ")"


def _check_owner(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.group is not b.group or a.tower is not b.tower:
        raise ValueError("algebra elements have different owners")


def zero(group: FiniteGroup, tower: FieldTower) -> AlgebraElement:
    return AlgebraElement(group, tower, (0,) * group.order)


def one(group: FiniteGroup, tower: FieldTower) -> AlgebraElement:
    return AlgebraElement(group, tower, (1,) + (0,) * (group.order - 1))


def basis_element(group: FiniteGroup, tower: FieldTower, g: int, code: int = 1) -> AlgebraElement:
    coeffs = [0] * group.order
    coeffs[g] = code
    return AlgebraElement(group, tower, tuple(coeffs))


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product in the owner's group algebra."""
    _check_owner(a, b)
    t = a.tower
    mul = a.group.mul
    out = [0] * a.group.order
    bsupp = [(j, c) for j, c in enumerate(b.coeffs) if c]
    for i, ca in enumerate(a.coeffs):
        if ca:
            row = mul[i]
            for j, cb in bsupp:
                k = row[j]
                out[k] = t.add(out[k], t.mul(ca, cb))
    return AlgebraElement(a.group, t, tuple(out))


def _class_mul(t: FieldTower, cd: ClassData, x, y) -> list[int]:
    """Product of two central elements given in class-sum coordinates:
    (xy)_k = sum_i x_i sum_j n_ijk y_j, the count n_ijk taken as the
    prime-field code n % p."""
    p = t.p
    out = [0] * len(cd.reps)
    for i, xi in enumerate(x):
        if not xi:
            continue
        triples = iter(cd.counts[i])
        for k, j, n in zip(triples, triples, triples):
            n %= p
            if n and y[j]:
                out[k] = t.add(out[k], t.mul(t.mul(xi, n), y[j]))
    return out


def _class_coords(a: AlgebraElement, cd: ClassData) -> tuple[int, ...] | None:
    """a's codes at the class representatives, or None if a is not
    constant on conjugacy classes."""
    at_reps = tuple(a.coeffs[r] for r in cd.reps)
    if tuple(at_reps[k] for k in cd.class_of) != a.coeffs:
        return None
    return at_reps


def central_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product of two central elements, computed at the class
    representatives only; equals `multiply(a, b)`.

    Raises ValueError unless both inputs are constant on classes.
    """
    _check_owner(a, b)
    cd = class_data(a.group)
    x, y = _class_coords(a, cd), _class_coords(b, cd)
    if x is None or y is None:
        raise ValueError("central_multiply needs central elements")
    prod = _class_mul(a.tower, cd, x, y)
    return AlgebraElement(a.group, a.tower, tuple(prod[k] for k in cd.class_of))


def augmentation(a: AlgebraElement) -> int:
    acc = 0
    for c in a.coeffs:
        acc = a.tower.add(acc, c)
    return acc


def conjugate_element(x: int, a: AlgebraElement) -> AlgebraElement:
    """Coefficient permutation g -> x g x^-1 by an ambient group element.

    For a root-owned element the owner is unchanged.  For an element of a
    localized subgroup algebra the result lives in the algebra of the
    conjugated subgroup (the same owner exactly when x normalizes it).
    """
    g = a.group
    if g.ambient is None:
        # out[h] = a[x^-1 h x]: the coefficients read along the row of x^-1
        return AlgebraElement(g, a.tower, tuple(map(a.coeffs.__getitem__,
                                                    conj_rows(g)[g.inv[x]])))
    amb = g.ambient
    row = conj_rows(amb)[x]
    images = list(map(row.__getitem__, g.ambient_elems))
    moved = dict(zip(images, a.coeffs))
    images.sort()
    target = Subgroup._of(amb, tuple(images)).as_group()
    return AlgebraElement(target, a.tower, tuple(map(moved.__getitem__, images)))


def is_stable(a: AlgebraElement, S: Subgroup) -> bool:
    """True iff conjugation by every element of S fixes a: one gather of
    the conjugation table over S x the owner's elements, read through a's
    coefficients spread over the ambient group, with -1 (no field code)
    outside the owner, so an image that leaves the owner never matches."""
    g = a.group
    amb = g.ambient or g
    if S.parent is not amb:
        raise ValueError("subgroup does not live in the owner's ambient group")
    elems = np.asarray(g.ambient_elems or g.elements())
    coeffs = np.asarray(a.coeffs)
    spread = np.full(amb.order, -1, dtype=coeffs.dtype)
    spread[elems] = coeffs
    return bool((spread[_conj_table(amb)[np.asarray(S.elems)[:, None], elems]] == coeffs).all())


def embed(a: AlgebraElement) -> AlgebraElement:
    """Extend an element of a localized subgroup algebra by zero into the
    ambient group algebra."""
    g = a.group
    if g.ambient is None:
        return a
    out = [0] * g.ambient.order
    for i, c in enumerate(a.coeffs):
        out[g.ambient_elems[i]] = c
    return AlgebraElement(g.ambient, a.tower, tuple(out))


def brauer_map(a: AlgebraElement, P: Subgroup, *, check_stable: bool = True) -> AlgebraElement:
    """Projection of a P-fixed element of kG onto k C_G(P).

    An algebra homomorphism on P-stable inputs; the stability precheck can
    be disabled in inner loops.
    """
    G = a.group
    if G.ambient is not None:
        raise ValueError("apply the Brauer projection to ambient-owned elements")
    if P.parent is not G:
        raise ValueError("subgroup lives in a different group")
    if check_stable and not is_stable(a, P):
        raise ValueError("element is not stable under the given subgroup")
    C = centralizer(G, P)
    owner = C.as_group()
    return AlgebraElement(owner, a.tower, tuple(a.coeffs[g] for g in C.elems))


def trace_map(a: AlgebraElement, I: Subgroup, H: Subgroup) -> AlgebraElement:
    """Relative trace: sum of the conjugates of a over coset representatives
    of I in H; requires a to be I-stable, so the result is transversal
    independent."""
    if not I.is_subset_of(H):
        raise ValueError("I is not contained in H")
    if not is_stable(a, I):
        raise ValueError("element is not stable under I")
    acc = zero(a.group, a.tower)
    for x in coset_reps(H, I):
        acc = acc + conjugate_element(x, a)
    return acc


def galois_apply(j: int, a: AlgebraElement) -> AlgebraElement:
    """Coefficientwise power of the Galois generator."""
    t = a.tower
    return AlgebraElement(a.group, t, tuple(t.frob_power(c, j) for c in a.coeffs))


def is_k_rational(a: AlgebraElement) -> bool:
    return all(a.tower.is_k_rational(c) for c in a.coeffs)


@dataclass(frozen=True)
class BlockIdempotent:
    """Primitive central idempotent of the owner's group algebra over L,
    or over the distinguished subfield K != L when over_k is set (still
    stored with L-coefficients, necessarily Frobenius fixed)."""

    elem: AlgebraElement
    over_k: bool
    index: int

    @property
    def owner(self) -> FiniteGroup:
        return self.elem.group

    def __repr__(self) -> str:
        field = "K" if self.over_k else "L"
        return f"Block[{self.index}/{field}]({self.elem!r})"


def _minimal_polynomial(t: FieldTower, cd: ClassData, z, c) -> tuple[tuple[int, ...], list]:
    """Monic minimal polynomial mu with mu(z) * c = 0, plus the Krylov
    vectors c, z c, z^2 c, ... of length deg(mu); class-sum coordinates."""
    ech = Echelon(t, len(c))
    vectors = []
    cur = c
    while True:
        combo = ech.insert(cur)
        if combo is not None:
            k = len(vectors)
            mu = [t.neg(x) for x in combo] + [1]
            if len(mu) != k + 1:
                raise VerificationError("Krylov relation has the wrong length")
            return tuple(mu), vectors
        vectors.append(cur)
        cur = _class_mul(t, cd, z, cur)


def _bezout_idempotents(t: FieldTower, mu, factors, vectors) -> list[list[int]]:
    """Split the identity of k[z]c along coprime factor powers of mu."""
    parts = []
    for poly, mult in factors:
        qpow = (1,)
        for _ in range(mult):
            qpow = _pmul(t, qpow, poly.codes)
        u, r = _pdivmod(t, mu, qpow)
        if r:
            raise VerificationError("factor power does not divide the minimal polynomial")
        w = _pinvmod(t, u, qpow)
        s = _pmod(t, _pmul(t, u, w), mu)
        acc = [0] * len(vectors[0])
        for k, coef in enumerate(s):
            if coef:
                acc = [t.add(a, t.mul(coef, v)) for a, v in zip(acc, vectors[k])]
        parts.append(acc)
    return parts


def primitive_central_idempotents(G: FiniteGroup, tower: FieldTower,
                                  over_k: bool = False) -> tuple[BlockIdempotent, ...]:
    """The complete set of blocks of L[G], or of K[G] when over_k.

    When K = L a K-side request returns the L-blocks themselves, so every
    memo keyed by a block serves both sides.  The output is sorted by
    group coefficient sequence, so block indices are reproducible.  The
    blocks are memoized on the group per tower and field.
    """
    over_k = over_k and tower.gamma_order > 1
    return G.memo(("blocks", tower.key, over_k),
                  lambda: _primitive_central_idempotents(G, tower, over_k))


def _primitive_central_idempotents(G: FiniteGroup, tower: FieldTower,
                                   over_k: bool) -> tuple[BlockIdempotent, ...]:
    # k[G] of a p-group is local: the identity is its only block
    if p_part(G.order, tower.p) == G.order:
        return (BlockIdempotent(one(G, tower), over_k, 0),)
    # L/K is Galois: the K-blocks of a centralizer view are the orbit sums
    # of its L-blocks; a root group is split over K, for the correspondence
    if over_k and G.ambient is not None:
        return _indexed({_galois_orbit_sum(b.elem)
                         for b in primitive_central_idempotents(G, tower)}, over_k)
    H, lift = _central_p_quotient(G, tower.p)
    if H is G:
        return _split_center(G, tower, over_k)
    return _indexed([_lift_block(G, lift, b.elem)
                     for b in primitive_central_idempotents(H, tower, over_k)], over_k)


def _indexed(elems, over_k: bool) -> tuple[BlockIdempotent, ...]:
    """Blocks numbered in the order of their group coefficient sequences."""
    return tuple(BlockIdempotent(elem, over_k, i)
                 for i, elem in enumerate(sorted(elems, key=lambda a: a.coeffs)))


def _galois_orbit_sum(a: AlgebraElement) -> AlgebraElement:
    """Sum of the distinct Galois conjugates of a."""
    total, cur = a, galois_apply(1, a)
    while cur != a:
        total, cur = total + cur, galois_apply(1, cur)
    return total


def _central_p_quotient(G: FiniteGroup, p: int) -> tuple[FiniteGroup, tuple[int, ...] | None]:
    """(G/Z, lift) for Z = O_p(Z(G)), the central p-elements.

    G/Z is a table group on the cosets gZ, numbered by their smallest
    members.  lift[g] is the index of gZ when g is p-regular and -1
    otherwise.  For h = h_p h_p' and z in Z, (hz)_p = h_p z, so hz is
    p-regular iff z = h_p^-1: a coset holds at most one p-regular element,
    and none when h_p is not in Z.  When Z = 1 the quotient is G itself
    and lift is None.

    Not memoized, and built with plain loops over the int rows: the
    callers keep only the blocks lifted from the quotient, and a kept
    quotient, centralizer masks of a view or numpy's set and search
    kernels each cost more peak memory than these loops cost time.
    """
    mul = G.mul
    central = list(G.elements())
    for h in G.elements():  # Z(G) is the intersection of the C_G(h)
        if len(central) == 1:  # the identity alone
            break
        central = [z for z in central if mul[z][h] == mul[h][z]]
    pp = p_part(G.order, p)
    zs = [z for z in central if G.power(z, pp) == 0]
    if len(zs) == 1:
        return G, None
    lead = [min(map(row.__getitem__, zs)) for row in mul]  # row g of mul holds gZ
    leads = sorted(set(lead))
    number = dict(zip(leads, range(len(leads))))
    coset = [number[g] for g in lead]
    pos, idx = np.array(coset, dtype=_index_dtype(len(leads))), np.array(leads)
    H = FiniteGroup(f"{G.name}/O{p}Z", pos[G._table[np.ix_(idx, idx)]],
                    pos[np.asarray(G.inv)[idx]], _validate=False)
    regular = G.order // pp
    return H, tuple(c if G.power(g, regular) == 0 else -1 for g, c in enumerate(coset))


def _lift_block(G: FiniteGroup, lift, a: AlgebraElement) -> AlgebraElement:
    """The block of kG over the block a of k[G/Z], Z = O_p(Z(G)), given
    lift from `_central_p_quotient`: blocks are supported on p-regular
    elements (Osima), so each p-regular g takes a's coefficient at gZ and
    every other element 0.  Raises VerificationError if a coset holds two
    p-regular elements or a is nonzero on a coset that holds none."""
    hits = [0] * a.group.order
    for c in lift:
        if c >= 0:
            hits[c] += 1
    if max(hits) > 1:
        raise VerificationError("a coset of O_p(Z(G)) holds two p-regular elements")
    if any(code for code, n in zip(a.coeffs, hits) if not n):
        raise VerificationError("block is nonzero on a coset with no p-regular element")
    return AlgebraElement(G, a.tower, tuple(a.coeffs[c] if c >= 0 else 0 for c in lift))


def _split_center(G: FiniteGroup, tower: FieldTower,
                  over_k: bool) -> tuple[BlockIdempotent, ...]:
    """The center-splitting loop on G itself, for any group; the test
    oracle of the p-group, central p-quotient and orbit-sum paths."""
    cd = class_data(G)
    width = len(cd.reps)
    summands = [[1] + [0] * (width - 1)]
    for i in range(width):
        z = [0] * width
        z[i] = 1
        refined = []
        for c in summands:
            mu, vectors = _minimal_polynomial(tower, cd, z, c)
            mu_poly = Poly(tower, mu)
            if over_k:
                if not all(tower.is_k_rational(x) for x in mu):
                    raise VerificationError("minimal polynomial left the subfield")
                fac = factor_over_subfield(mu_poly)
            else:
                fac = factor(mu_poly)
            if len(fac.factors) == 1:
                refined.append(c)
                continue
            parts = _bezout_idempotents(tower, mu, fac.factors, vectors)
            total = [0] * width
            for part in parts:
                if not any(part):
                    raise VerificationError("zero part in idempotent splitting")
                total = [tower.add(a, b) for a, b in zip(total, part)]
            if total != c:
                raise VerificationError("idempotent splitting does not sum back")
            refined.extend(parts)
        summands = refined
    return _indexed((AlgebraElement(G, tower, tuple(c[k] for k in cd.class_of))
                     for c in summands), over_k)


def find_block(blocks, elem: AlgebraElement) -> BlockIdempotent:
    for b in blocks:
        if b.elem == elem:
            return b
    raise VerificationError("element is not in the block list")


def principal_block(blocks) -> BlockIdempotent:
    """The block with augmentation 1; unique, since augmentation is an
    algebra map onto the field."""
    hits = [b for b in blocks if augmentation(b.elem) == 1]
    if len(hits) != 1:
        raise VerificationError("principal block is not unique")
    return hits[0]
