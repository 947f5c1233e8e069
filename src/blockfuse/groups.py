"""Finite groups as validated multiplication tables, with subgroup services.

Element indices run 0..order-1 and index 0 is always the identity.  Groups
built from permutation generators enumerate elements by breadth-first
closure in the given generator order, so indices are reproducible.  The
closure records, for every element, its products with the generators and
the (element, generator) pair that first reached it; element c is
parent(c) * gen(c), so column c of the table is one gather of column
parent(c) through the generator products.

A group keeps its table twice: `mul`, rows of ints for scalar lookups (the
rows share one int object per index), and an int16/int32 numpy array for
whole-table work.

Everything derived from the group is built on first use and kept in one
dict, `FiniteGroup._memo`, filled only through `FiniteGroup.memo(key,
build)`: the conjugation table K[x, g] = x g x^-1 as a numpy array
(key "conj") and as shared-int tuple rows (key "conj_rows", for the
conjugation loops of block fusion; class data keeps `FiniteGroup.conj`, so
a blocks report does not build rows that on S6 are 720 x 720 pointers),
the centralizer bitmasks cmask[g] (bit h set iff gh = hg), G as a
subgroup of itself, subgroup views, subgroup lattices and class data
here, and the blocks, maximal pairs, subpair tables and N_P(Q)/C_P(Q)
tables of the algebra, brauer and fusion layers.  The memo lives as long
as the group, which the command line builds once per report, and a serial
corpus run once per group file, dropped after the last entry naming it.

A `Subgroup` is a sorted index set inside a parent group together with the
same set as an int bitmask (bit g set iff g is a member).  Membership and
inclusion are integer tests, C_H(S) is H's mask ANDed with cmask[s] for s
in S, and N_H(S) is one gather from K.  Subgroups are generated by
Dimino's coset enumeration: <H, x> is the union of right cosets Hy, and
only coset representatives times generators are tested for membership.
The subgroup lattice, of p-groups only, is built by index-p steps.

`as_group()` re-labels a subgroup as a standalone multiplication table
group (needed to treat centralizer algebras as group algebras in their own
right); the re-map back to parent indices is kept on the view as
`ambient` / `ambient_elems`, and views are memoized per element set so
identical subgroups share one object.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import lt

import numpy as np

MAX_ORDER = 2000
SUBGROUP_BOUND = 256


def _index_dtype(n: int):
    return np.int16 if n <= 1 << 15 else np.int32


def _shared_rows(table: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Rows as tuples, converted one row at a time; equal entries share one
    int object, so the tuples cost a pointer per entry."""
    get = list(range(table.shape[1])).__getitem__
    return tuple(tuple(map(get, row.tolist())) for row in table)


class FiniteGroup:
    """Multiplication-table group; immutable after construction."""

    def __init__(self, name, mul, inv, *, ambient=None, ambient_elems=None,
                 _validate=True):
        self.name = str(name)
        table = np.asarray(mul)
        if _validate:
            _validate_group_table(table, np.asarray(inv))
        self._table = table.astype(_index_dtype(len(table)), copy=False)
        self.mul = _shared_rows(self._table)
        self.order = len(self.mul)
        self.inv = tuple(int(x) for x in inv)
        self.id = 0
        self.ambient: FiniteGroup | None = ambient
        self.ambient_elems: tuple[int, ...] | None = (
            tuple(ambient_elems) if ambient_elems is not None else None)
        # the only cache; values are deterministic, so concurrent
        # population is harmless
        self._memo: dict = {}

    def memo(self, key, build):
        """The value stored under key, or build() stored there on first
        use.  A build that raises stores nothing; no value is None."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def elements(self) -> range:
        return range(self.order)

    def conj(self, x: int, g: int) -> int:
        """x g x^-1."""
        return self.mul[self.mul[x][g]][self.inv[x]]

    def power(self, g: int, k: int) -> int:
        """g^k, by square-and-multiply."""
        if k < 0:
            return self.power(self.inv[g], -k)
        acc = 0
        while k:
            if k & 1:
                acc = self.mul[acc][g]
            g = self.mul[g][g]
            k >>= 1
        return acc

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _conj_table(G: FiniteGroup) -> np.ndarray:
    """K[x, g] = x g x^-1, memoized."""
    def build():
        M = G._table
        return M[M, np.asarray(G.inv, dtype=M.dtype)[:, None]]
    return G.memo("conj", build)


def conj_rows(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """conj_rows(G)[x][g] = x g x^-1: the conjugation table as shared-int
    tuple rows, memoized, so conjugating a set by x is one row lookup per
    element."""
    return G.memo("conj_rows", lambda: _shared_rows(_conj_table(G)))


def _centralizer_masks(G: FiniteGroup) -> tuple[int, ...]:
    """cmask[g] = the bitmask of C_G(g), memoized."""
    def build():
        M = G._table
        rows = np.packbits(M == M.T, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
    return G.memo("cmasks", build)


def _validate_group_table(arr: np.ndarray, inv: np.ndarray) -> None:
    n = len(arr)
    if n == 0:
        raise ValueError("empty multiplication table")
    if arr.shape != (n, n):
        raise ValueError("multiplication table is not square")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("multiplication table entries are not integers")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("multiplication table entry out of range")
    ar = np.arange(n)
    if not (np.sort(arr, axis=1) == ar).all() or not (np.sort(arr, axis=0) == ar[:, None]).all():
        raise ValueError("multiplication table rows/columns are not permutations")
    if not (arr[0] == ar).all() or not (arr[:, 0] == ar).all():
        raise ValueError("index 0 is not a two-sided identity")
    for a in range(n):
        if not np.array_equal(arr[arr[a]], arr[a][arr]):
            raise ValueError(f"multiplication table is not associative (row {a})")
    if inv.shape != (n,):
        raise ValueError("inverse table length mismatch")
    wrong = np.flatnonzero((arr[ar, inv] != 0) | (arr[inv, ar] != 0))
    if len(wrong):
        raise ValueError(f"inverse table wrong at {wrong[0]}")


def _table_from_spec(spec):
    table = spec["table"]
    if len(table) > MAX_ORDER:
        raise ValueError(f"group order {len(table)} exceeds bound {MAX_ORDER}")
    inv = []
    for a, row in enumerate(table):
        try:
            inv.append(list(row).index(0))
        except ValueError:
            raise ValueError(f"row {a} has no inverse entry") from None
    return table, inv


def _bfs_from_generators(degree, generators):
    """Table and inverses of the group generated by the permutations.

    Elements are numbered in breadth-first order from the identity, trying
    the generators in the given order; (f*g)(x) = f(g(x)).
    """
    gens = []
    for gen in generators:
        gen = tuple(int(x) for x in gen)
        if sorted(gen) != list(range(degree)):
            raise ValueError(f"generator {list(gen)} is not a permutation of 0..{degree - 1}")
        gens.append(gen)
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    right = []          # right[i][j]: the index of elems[i] * gens[j]
    first = [(0, 0)]    # first[c]: the (parent, generator) that reached c
    for i, cur in enumerate(elems):  # elems grows while it is walked: a queue
        row = []
        for j, gen in enumerate(gens):
            nxt = tuple(map(cur.__getitem__, gen))
            k = index.get(nxt)
            if k is None:
                if len(elems) >= MAX_ORDER:
                    raise ValueError(f"group order exceeds bound {MAX_ORDER}")
                k = index[nxt] = len(elems)
                elems.append(nxt)
                first.append((i, j))
            row.append(k)
        right.append(row)
    n = len(elems)
    dtype = _index_dtype(n)
    R = np.array(right, dtype=dtype).reshape(n, len(gens))
    # row c of T is column c of the table: a * elems[c] = (a * elems[p]) * gen
    T = np.empty((n, n), dtype=dtype)
    T[0] = np.arange(n)
    for c in range(1, n):
        p, j = first[c]
        T[c] = R[T[p], j]
    mul = T.T
    return mul, mul.argmin(axis=1)


def build_group(spec) -> FiniteGroup:
    """Build a validated group from a description mapping.

    Accepted kinds: {"kind": "table", "name": ..., "table": [[...]]} with a
    full multiplication table (identity must be index 0), or
    {"kind": "perm", "name": ..., "degree": d, "generators": [[0-based
    images], ...]} enumerated by breadth-first closure in generator order.
    """
    kind = spec.get("kind")
    name = spec.get("name", "G")
    if kind == "table":
        table, inv = _table_from_spec(spec)
        return FiniteGroup(name, table, inv)
    if kind == "perm":
        mul, inv = _bfs_from_generators(int(spec["degree"]), spec["generators"])
        # BFS tables are groups by construction; skip the cubic associativity scan
        g = FiniteGroup(name, mul, inv, _validate=False)
        _validate_light(g)
        return g
    raise ValueError(f"unknown group description kind: {kind!r}")


def _validate_light(g: FiniteGroup) -> None:
    arr = g._table
    ar = np.arange(g.order)
    if not (arr[0] == ar).all() or not (arr[:, 0] == ar).all():
        raise ValueError("index 0 is not a two-sided identity")
    if not (np.sort(arr, axis=1) == ar).all():
        raise ValueError("multiplication table rows are not permutations")


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_of(elems) -> int:
    return sum(map((1).__lshift__, elems))


def _mask_elems(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)))


class Subgroup:
    """Sorted element-index set, closed under the parent multiplication.

    `mask` holds the same set as an int bitmask, and the hash is kept,
    both made on first use.
    """

    __slots__ = ("parent", "elems", "_mask", "_hash")

    def __init__(self, parent: FiniteGroup, elems, *, _checked=False):
        self.parent = parent
        if _checked and type(elems) is tuple and all(map(lt, elems, islice(elems, 1, None))):
            self.elems = elems
        else:
            self.elems = tuple(sorted(set(map(int, elems))))
        self._mask = self._hash = None
        if not _checked:
            if not self.elems or self.elems[0] != 0:
                raise ValueError("subgroup must contain the identity")
            if self.elems[-1] >= parent.order:
                raise ValueError("subgroup element out of range")
            member = set(self.elems)
            mul = parent.mul
            for a in self.elems:
                for b in self.elems:
                    if mul[a][b] not in member:
                        raise ValueError("element set is not closed under multiplication")

    @classmethod
    def _of(cls, parent: FiniteGroup, elems: tuple[int, ...], mask: int | None = None):
        """A subgroup from a sorted element tuple known to be closed."""
        S = cls.__new__(cls)
        S.parent, S.elems, S._mask, S._hash = parent, elems, mask, None
        return S

    @property
    def order(self) -> int:
        return len(self.elems)

    @property
    def mask(self) -> int:
        if self._mask is None:
            self._mask = _mask_of(self.elems)
        return self._mask

    def __contains__(self, g: int) -> bool:
        return g >= 0 and bool(self.mask >> g & 1)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return not self.mask & ~other.mask

    def as_group(self) -> FiniteGroup:
        """Standalone multiplication-table copy, re-map kept on the view.

        The full subgroup is its own view, so algebras over G and over
        C_G(1) share one owner and one memo.
        """
        G = self.parent
        if len(self.elems) == G.order:
            return G

        def build():
            elems = np.array(self.elems)
            pos = np.zeros(G.order, dtype=_index_dtype(len(elems)))
            pos[elems] = np.arange(len(elems))
            return FiniteGroup(
                f"{G.name}[{','.join(map(str, self.elems))}]",
                pos[G._table[np.ix_(elems, elems)]], pos[np.asarray(G.inv)[elems]],
                ambient=G, ambient_elems=self.elems, _validate=False)
        return G.memo(("view", self.elems), build)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elems == self.elems)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.parent), self.elems))
        return self._hash

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elems={list(self.elems)})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._of(G, (0,), 1)


def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, memoized."""
    return G.memo("full", lambda: Subgroup._of(G, tuple(range(G.order)), (1 << G.order) - 1))


def _join(mul, H: list[int], hmask: int, gens: tuple[int, ...], x: int):
    """Elements (unsorted) and mask of <H, x>, for H = <gens> given by its
    elements and mask and x not in H: Dimino's enumeration.

    The join is kept a union of right cosets Hy.  A representative r
    times a generator s that falls outside it adds the whole coset H(rs);
    when no product leaves it, the union is closed under right
    multiplication by generators, so it is the join.
    """
    gens += (x,)
    elems, reps = list(H), []

    def add_coset(y):
        nonlocal hmask
        coset = [mul[h][y] for h in H]
        elems.extend(coset)
        hmask |= _mask_of(coset)
        reps.append(y)

    add_coset(x)
    for r in reps:
        row = mul[r]
        for s in gens:
            if not hmask >> row[s] & 1:
                add_coset(row[s])
    return elems, hmask


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """<gens>, joining one generator at a time by Dimino's enumeration."""
    elems, mask, used = [0], 1, ()
    for g in gens:
        g = int(g)
        if not mask >> g & 1:
            elems, mask = _join(G.mul, elems, mask, used, g)
            used += (g,)
    return Subgroup._of(G, tuple(sorted(elems)), mask)


def centralizer_in(H: Subgroup, S: Subgroup) -> Subgroup:
    """C_H(S): H's mask ANDed with the centralizer mask of each s in S."""
    cmask = _centralizer_masks(H.parent)
    mask = H.mask
    for s in S.elems:
        mask &= cmask[s]
    return Subgroup._of(H.parent, _mask_elems(mask), mask)


def centralizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """C_G(S) = elements commuting with every member of S."""
    return centralizer_in(full_subgroup(G), S)


def normalizer_in(H: Subgroup, S: Subgroup) -> Subgroup:
    """N_H(S): the h in H whose row of the conjugation table maps S into S."""
    G = H.parent
    rows, cols = np.array(H.elems), np.array(S.elems)
    inside = np.zeros(G.order, dtype=bool)
    inside[cols] = True
    keep = inside[_conj_table(G)[rows[:, None], cols]].all(axis=1)
    return Subgroup._of(G, tuple(rows[keep].tolist()))


def normalizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """N_G(S) = elements whose conjugation preserves S."""
    return normalizer_in(full_subgroup(G), S)


def p_part(num: int, p: int) -> int:
    out = 1
    while num % p == 0:
        num //= p
        out *= p
    return out


def sylow_p_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown inside its own normalizer.

    Deterministic given the element ordering; returns the trivial
    subgroup when p does not divide the group order.
    """
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"p={p} is not prime")
    target = p_part(G.order, p)
    H = trivial_subgroup(G)
    while H.order < target:
        N = normalizer(G, H)
        grown = False
        for x in N.elems:
            if x in H:
                continue
            d, cur = 1, x
            while cur not in H:
                cur = G.mul[cur][x]
                d += 1
            if d % p == 0:
                y = G.power(x, d // p)
                H = generated_subgroup(G, H.elems + (y,))
                grown = True
                break
        if not grown:  # cannot happen for p | [N : H]
            raise AssertionError("sylow growth stalled")
    return H


def all_subgroups(P: Subgroup) -> list[Subgroup]:
    """Every subgroup of the p-group P, sorted by (order, element set).

    The lattice is enumerated once per element set of P and memoized on
    the parent group; each call returns a fresh list.  P of order above
    SUBGROUP_BOUND, or whose order is not a prime power, is a ValueError.
    """
    if P.order > SUBGROUP_BOUND:
        raise ValueError(f"subgroup enumeration bound exceeded ({P.order} > {SUBGROUP_BOUND})")
    if p_part(P.order, _least_prime_factor(P.order)) != P.order:
        raise ValueError(f"subgroup enumeration needs a p-group, not one of order {P.order}")
    return list(P.parent.memo(("subgroups", P.elems), lambda: _subgroup_lattice(P)))


def _least_prime_factor(n: int) -> int:
    """The least prime dividing n, and 2 for n = 1."""
    p = 2
    while p < n and n % p:
        p += 1
    return p


def _subgroup_lattice(P: Subgroup) -> tuple[Subgroup, ...]:
    """The lattice of the p-group P, one order at a time.

    A subgroup K > 1 has a maximal subgroup H, normal of index p, so K =
    H u Hx u ... u Hx^(p-1) for any x in K - H: x normalizes H and x^p is
    in H.  So each layer comes from the one below by taking, for every H,
    the x outside H that conjugate H's generators into H and have x^p in
    H; every x of the K so found gives K again and is skipped.  Each
    found subgroup keeps the generator tuple it was reached by.
    """
    G = P.parent
    mul, inv = G.mul, G.inv
    p = _least_prime_factor(P.order)
    layer = [([0], 1, ())]
    lattice = [trivial_subgroup(G)]
    while len(layer[0][0]) < P.order:
        found: dict[int, tuple[list[int], int, tuple[int, ...]]] = {}
        for H, hmask, gens in layer:
            covered = hmask
            for x in P.elems:
                if covered >> x & 1:
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = mul[xp][x]
                row, xi = mul[x], inv[x]
                if not hmask >> xp & 1 or not all(hmask >> mul[row[g]][xi] & 1 for g in gens):
                    continue
                elems, y = list(H), x
                for _ in range(p - 1):
                    elems += [mul[h][y] for h in H]
                    y = mul[y][x]
                kmask = _mask_of(elems)
                covered |= kmask
                if kmask not in found:
                    found[kmask] = (elems, kmask, gens + (x,))
        layer = list(found.values())
        lattice += sorted((Subgroup._of(G, tuple(sorted(elems)), mask)
                           for elems, mask, _ in layer), key=lambda S: S.elems)
    return tuple(lattice)


class ClassData:
    """Conjugacy classes of one group with their class-sum structure counts.

    `classes` are sorted tuples ordered by smallest member, `reps[i]` is
    the smallest member of class i (so class 0 is {identity}) and
    `class_of[g]` is the class index of g.  `counts[i]` is a flat tuple of
    the triples (k, j, n) with n = n_ijk = #{x in C_i : x^-1 r_k in C_j} > 0,
    so that for class sums z, z_i * sum_j c_j z_j = sum_k (sum_j n c_j) z_k,
    the integer n read in the prime field.  Building the counts takes
    O(k(G) |G|) table lookups; the flat layout keeps them to one tuple per
    class.
    """

    __slots__ = ("classes", "class_of", "reps", "counts")

    def __init__(self, G: FiniteGroup):
        class_of = [-1] * G.order
        classes = []
        for g in range(G.order):
            if class_of[g] >= 0:
                continue
            orbit = sorted({G.conj(x, g) for x in range(G.order)})
            for h in orbit:
                class_of[h] = len(classes)
            classes.append(tuple(orbit))
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        self.reps = tuple(cls[0] for cls in classes)
        mul, inv = G.mul, G.inv
        counts = []
        for cls in classes:
            flat: list[int] = []
            for k, r in enumerate(self.reps):
                hits: dict[int, int] = {}
                for x in cls:
                    j = class_of[mul[inv[x]][r]]
                    hits[j] = hits.get(j, 0) + 1
                for j in sorted(hits):
                    flat += (k, j, hits[j])
            counts.append(tuple(flat))
        self.counts = tuple(counts)


def class_data(G: FiniteGroup) -> ClassData:
    """The group's ClassData, memoized."""
    return G.memo("class_data", lambda: ClassData(G))


def coset_reps(H: Subgroup, I: Subgroup) -> list[int]:
    """Representatives of the left cosets xI inside H, smallest first."""
    if not I.is_subset_of(H):
        raise ValueError("I is not contained in H")
    mul = H.parent.mul
    covered = set()
    reps = []
    for x in H.elems:
        if x in covered:
            continue
        reps.append(x)
        covered.update(map(mul[x].__getitem__, I.elems))
    return reps


class GroupMap:
    """Injective homomorphism between subgroups of one parent group; the
    hash is kept once made."""

    __slots__ = ("domain", "codomain", "images", "_pos", "_hash")

    def __init__(self, domain: Subgroup, codomain: Subgroup, images, *, _checked=False):
        self.domain = domain
        self.codomain = codomain
        self.images = images if _checked and type(images) is tuple else tuple(map(int, images))
        self._pos = self._hash = None
        if not _checked:
            if domain.parent is not codomain.parent:
                raise ValueError("domain and codomain live in different groups")
            if len(self.images) != domain.order:
                raise ValueError("image array length mismatch")
            cset = set(codomain.elems)
            if not set(self.images) <= cset:
                raise ValueError("image not contained in codomain")
            if len(set(self.images)) != len(self.images):
                raise ValueError("map is not injective")
            mul = domain.parent.mul
            pos = self._positions()
            for i, a in enumerate(domain.elems):
                for j, b in enumerate(domain.elems):
                    if self.images[pos[mul[a][b]]] != mul[self.images[i]][self.images[j]]:
                        raise ValueError("map does not respect multiplication")

    def _positions(self):
        if self._pos is None:
            self._pos = {g: i for i, g in enumerate(self.domain.elems)}
        return self._pos

    def apply(self, g: int) -> int:
        return self.images[self._positions()[g]]

    @property
    def image_elems(self) -> tuple[int, ...]:
        return tuple(sorted(self.images))

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.domain.parent, self.images, _checked=True)

    def is_iso_onto_codomain(self) -> bool:
        return self.image_elems == self.codomain.elems

    def onto_image(self) -> "GroupMap":
        return GroupMap(self.domain, self.image_subgroup(), self.images, _checked=True)

    def inverse(self) -> "GroupMap":
        if not self.is_iso_onto_codomain():
            raise ValueError("only isomorphisms onto the codomain can be inverted")
        back = {img: src for src, img in zip(self.domain.elems, self.images)}
        return GroupMap(self.codomain, self.domain,
                        (back[g] for g in self.codomain.elems), _checked=True)

    def restrict(self, Q: Subgroup) -> "GroupMap":
        if not Q.is_subset_of(self.domain):
            raise ValueError("restriction domain is not contained")
        images = tuple(self.apply(g) for g in Q.elems)
        return GroupMap(Q, Subgroup(self.domain.parent, images, _checked=True),
                        images, _checked=True)

    def with_codomain(self, R: Subgroup) -> "GroupMap":
        if not set(self.images) <= set(R.elems):
            raise ValueError("image not contained in new codomain")
        return GroupMap(self.domain, R, self.images, _checked=True)

    def compose(self, inner: "GroupMap") -> "GroupMap":
        """self after inner; inner's image must lie in self's domain."""
        if not set(inner.images) <= set(self.domain.elems):
            raise ValueError("maps are not composable")
        return GroupMap(inner.domain, self.codomain,
                        (self.apply(g) for g in inner.images), _checked=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupMap)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.images == other.images)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.domain.parent), self.domain.elems,
                               self.codomain.elems, self.images))
        return self._hash

    def __repr__(self) -> str:
        return f"GroupMap({list(self.domain.elems)} -> {list(self.images)})"
