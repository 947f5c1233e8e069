"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles (pair scans, subset
enumeration, exhaustive idempotent search, dense kernels) and never calls
the production algorithms it is checking.
"""

from __future__ import annotations

import itertools

from blockfuse.fusion import FusionSystem, fully_normalized
from blockfuse.gf import FieldTower, _fp_is_irreducible
from blockfuse.groups import (FiniteGroup, GroupMap, Subgroup, cyclic_subgroup,
                              generated_subgroup, normalizer_in, trivial_subgroup)


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


def all_subgroups_by_element_joins(P: Subgroup) -> list[Subgroup]:
    """Every subgroup of P, sorted by (order, element set): cyclic
    subgroups, then joins of each found subgroup's full element set with
    every single element of P, until stable."""
    G = P.parent
    triv = trivial_subgroup(G)
    found = {triv.elems: triv}
    queue = []
    for g in P.elems:
        H = cyclic_subgroup(G, g)
        if H.elems not in found:
            found[H.elems] = H
            queue.append(H)
    while queue:
        H = queue.pop()
        hset = set(H.elems)
        for x in P.elems:
            if x in hset:
                continue
            J = generated_subgroup(G, H.elems + (x,))
            if J.elems not in found:
                found[J.elems] = J
                queue.append(J)
    return sorted(found.values(), key=lambda s: (s.order, s.elems))


def n_phi_scan(P: Subgroup, phi: GroupMap) -> Subgroup:
    """N_phi by scanning every pair y in N_P(Q), z in N_P(R) for
    phi c_y = c_z phi on all of Q."""
    G = P.parent
    Q = phi.domain
    R = phi.image_subgroup()
    NQ = normalizer_in(P, Q)
    NR = normalizer_in(P, R)
    members = []
    for y in NQ.elems:
        for z in NR.elems:
            if all(phi.apply(G.conj(y, u)) == G.conj(z, phi.apply(u)) for u in Q.elems):
                members.append(y)
                break
    return Subgroup(G, members)


def extension_counterexample_scan(F: FusionSystem) -> GroupMap | None:
    """First morphism into P with fully normalized image that does not
    extend to N_phi, deciding each morphism on its own: fully normalized
    from the class scan, N_phi by `n_phi_scan`, extension by trying every
    morphism N_phi -> P.  Same scan order as the production check (Q in
    `F.subgroups` order, phi by image tuple)."""
    P = F.p_subgroup
    for Q in F.subgroups:
        for phi in sorted(F.hom_set(Q, P), key=lambda m: m.images):
            if not fully_normalized(F, phi.image_subgroup()):
                continue
            n = n_phi_scan(P, phi.onto_image())
            if not any(all(psi.apply(g) == phi.apply(g) for g in Q.elems)
                       for psi in F.hom_set(n, P)):
                return phi
    return None


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


def brute_force_blocks(G: FiniteGroup, t: FieldTower, over_k: bool = False,
                       full_limit: int = 32768) -> list[tuple[int, ...]]:
    """Primitive idempotents of Z(L[G]) (or Z(K[G])) as full coefficient
    vectors, sorted; exhaustive search, independent of the splitting code.

    When the full coefficient enumeration is too large, the search is cut
    down to the subalgebra {x : x^q = x}, which contains every idempotent
    since e^2 = e forces e^q = e.
    """
    oracle = CenterOracle(G, t)
    q = t.k_order if over_k else t.q
    codes = t.k_codes() if over_k else tuple(range(t.q))
    idempotents = []
    if len(codes) ** oracle.dim <= full_limit:
        candidates = itertools.product(codes, repeat=oracle.dim)
        for cand in candidates:
            if not any(cand):
                continue
            if oracle.mul(cand, cand) == cand:
                idempotents.append(cand)
    else:
        rows = []
        for i in range(oracle.dim):
            basis = [0] * oracle.dim
            basis[i] = 1
            img = oracle.power_q(tuple(basis), q)
            col = [t.sub(img[k], 1 if k == i else 0) for k in range(oracle.dim)]
            rows.append(col)
        # rows[i] is the image column of basis vector i; transpose to rows
        mat = [[rows[i][k] for i in range(oracle.dim)] for k in range(oracle.dim)]
        kernel = nullspace(t, mat, oracle.dim)
        for kernel_vec in kernel:
            assert all((not over_k) or t.is_k_rational(c) for c in kernel_vec)
        for coords in itertools.product(codes, repeat=len(kernel)):
            cand = [0] * oracle.dim
            for c, vec in zip(coords, kernel):
                for k in range(oracle.dim):
                    cand[k] = t.add(cand[k], t.mul(c, vec[k]))
            cand = tuple(cand)
            if not any(cand):
                continue
            if oracle.mul(cand, cand) == cand:
                idempotents.append(cand)
    minimal = []
    for e in idempotents:
        if all(f == e or oracle.mul(e, f) != f for f in idempotents):
            minimal.append(e)
    return sorted(oracle.to_vector(e) for e in minimal)


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


def _digits_code(t: FieldTower, digits) -> int:
    return sum(d * t.p ** i for i, d in enumerate(digits))


def field_add_digits(t: FieldTower, a: int, b: int) -> int:
    """a + b by adding the code digits mod p, one coefficient at a time."""
    return _digits_code(t, [(x + y) % t.p
                            for x, y in zip(_code_digits(t, a), _code_digits(t, b))])


def field_neg_digits(t: FieldTower, a: int) -> int:
    """-a by negating the code digits mod p."""
    return _digits_code(t, [-x % t.p for x in _code_digits(t, a)])


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
    return _digits_code(t, [c % p for c in prod[:n]])


def smallest_irreducible_scan(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree n over F_p, by
    the irreducibility test on every candidate in scan order."""
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=n):
        f = low + (1,)
        if _fp_is_irreducible(p, f):
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
