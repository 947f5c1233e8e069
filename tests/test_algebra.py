import random

import pytest
from hypothesis import given, strategies as st

import blockfuse.algebra as algebra
import blockfuse.cli as cli
from blockfuse.algebra import (AlgebraElement, BlockIdempotent, VerificationError,
                               _central_p_quotient, _lift_block, _split_center, augmentation,
                               basis_element, brauer_map, central_multiply, conjugate_element,
                               embed, find_block, galois_apply, is_k_rational, is_stable,
                               multiply, one, primitive_central_idempotents, principal_block,
                               trace_map, zero)
from blockfuse.gf import make_tower
from blockfuse.groups import (all_subgroups, centralizer, class_data, coset_reps,
                              full_subgroup, p_part, sylow_p_subgroup, trivial_subgroup)
from blockfuse.linalg import Echelon
from conftest import GROUP_NAMES, load_builtin
from oracles import (blocks_by_group_algebra_splitting, brute_force_blocks, center_basis,
                     conjugate_element_scan, conjugate_subgroup, convolve, cyclic_subgroup,
                     digits_code, is_central, is_stable_scan, scale, support)


F2 = make_tower(2, 1, 1)
F4 = make_tower(2, 1, 2)


def test_multiply_identity_and_basis(groups):
    c3 = groups["c3"]
    a = basis_element(c3, F2, 1) + basis_element(c3, F2, 2)
    assert multiply(a, one(c3, F2)) == a
    g = basis_element(c3, F2, 1)
    h = basis_element(c3, F2, 2)
    assert multiply(g, h) == basis_element(c3, F2, c3.mul[1][2])


def test_b_is_idempotent_in_f2c3(groups):
    c3 = groups["c3"]
    b = basis_element(c3, F2, 1) + basis_element(c3, F2, 2)  # g + g^2
    assert multiply(b, b) == b


def test_multiply_owner_mismatch(groups):
    with pytest.raises(ValueError):
        multiply(one(groups["c3"], F2), one(groups["c2"], F2))


def test_center_basis_counts(groups, d24):
    c6 = groups["c6"]
    assert len(center_basis(c6, F2)) == c6.order
    assert len(center_basis(d24, F2)) == 9
    assert len(center_basis(groups["s3"], F2)) == 3
    for z in center_basis(d24, F2):
        assert is_central(z)


def test_p_group_algebra_has_single_block(groups):
    for name in ("c4", "d8", "c2c2"):
        for t in (F2, F4):
            blocks = primitive_central_idempotents(groups[name], t)
            assert len(blocks) == 1
            assert blocks[0].elem == one(groups[name], t)


def test_f2_d24_blocks(d24):
    g = d24.power(1, 4)
    g2 = d24.power(1, 8)
    blocks = primitive_central_idempotents(d24, F2)
    b_elem = basis_element(d24, F2, g) + basis_element(d24, F2, g2)
    b = find_block(blocks, b_elem)
    assert principal_block(blocks).elem == one(d24, F2) - b_elem + zero(d24, F2)


def test_f4c3_and_f2c3_blocks(groups):
    c3 = groups["c3"]
    # over F4: 1+g+g^2, 1+wg+w^2g^2, 1+w^2g+wg^2 (codes: w=2, w^2=3)
    blocks4 = primitive_central_idempotents(c3, F4)
    assert [b.elem.coeffs for b in blocks4] == [(1, 1, 1), (1, 2, 3), (1, 3, 2)]
    blocks2 = primitive_central_idempotents(c3, F2)
    assert [b.elem.coeffs for b in blocks2] == [(0, 1, 1), (1, 1, 1)]
    # independent oracle: exhaustive idempotent enumeration
    assert [b.elem.coeffs for b in blocks4] == brute_force_blocks(c3, F4)
    assert [b.elem.coeffs for b in blocks2] == brute_force_blocks(c3, F2)


def test_blocks_partition_identity(groups, d24):
    for G in (groups["s4"], groups["a4"], d24, groups["c3sc4"]):
        for t in (F2, F4, make_tower(3, 1, 2)):
            blocks = primitive_central_idempotents(G, t)
            total = zero(G, t)
            for b in blocks:
                assert multiply(b.elem, b.elem) == b.elem
                total = total + b.elem
                for c in blocks:
                    if c is not b:
                        assert multiply(b.elem, c.elem).is_zero
            assert total == one(G, t)
            # the Galois action permutes the block set
            supports = {b.elem.coeffs for b in blocks}
            assert {galois_apply(1, b.elem).coeffs for b in blocks} == supports


def test_brauer_map_cases(d24):
    blocks = primitive_central_idempotents(d24, F2)
    g = d24.power(1, 4)
    b = find_block(blocks, basis_element(d24, F2, g) + basis_element(d24, F2, d24.power(1, 8)))
    assert brauer_map(b.elem, trivial_subgroup(d24)) == b.elem
    P = cyclic_subgroup(d24, d24.power(1, 3))
    assert brauer_map(one(d24, F2), P) == one(centralizer(d24, P).as_group(), F2)
    br = brauer_map(b.elem, P)
    assert not br.is_zero
    # support survives whole: both group elements centralize P
    assert embed(br) == b.elem


def test_brauer_map_rejects_unstable(d24):
    a = basis_element(d24, F2, 1)  # r alone is not stable under conjugation by s
    P = cyclic_subgroup(d24, 2)
    with pytest.raises(ValueError):
        brauer_map(a, P)
    brauer_map(a, P, check_stable=False)  # explicit opt-out


def test_is_stable_cases(d24):
    s_gen = cyclic_subgroup(d24, 2)
    # 1 + w g + w^2 g^2, g of order 3 and w = 2 a cube root of unity in F4
    e1 = (one(d24, F4) + basis_element(d24, F4, d24.power(1, 4), 2)
          + basis_element(d24, F4, d24.power(1, 8), 3))
    assert not is_stable(e1, s_gen)  # the reflection swaps the two cube roots
    assert is_stable(one(d24, F4), s_gen)
    for z in center_basis(d24, F4):
        assert is_stable(z, full_subgroup(d24))


def test_trace_map_cases(d24):
    I = cyclic_subgroup(d24, 1)  # index 2
    H = full_subgroup(d24)
    a = one(d24, F2)
    assert trace_map(a, H, H) == a
    assert trace_map(a, I, H).is_zero  # index 2 = 0 in F2
    t3 = make_tower(3, 1, 1)
    assert trace_map(one(d24, t3), I, H) == scale(one(d24, t3), 2)


def test_trace_map_errors(d24):
    I = cyclic_subgroup(d24, 1)
    with pytest.raises(ValueError):
        trace_map(one(d24, F2), full_subgroup(d24), I)  # I not <= H
    with pytest.raises(ValueError):
        trace_map(basis_element(d24, F2, 2), I, full_subgroup(d24))  # not I-stable


def test_block_in_trace_image_of_defect_group(d24):
    """Linear-algebra oracle: b lies in the image of the trace from its
    defect group, computed by solving over the span of traced orbit sums."""
    blocks = primitive_central_idempotents(d24, F2)
    b = blocks[0]
    assert support(b.elem) == (d24.power(1, 4), d24.power(1, 8))
    P = cyclic_subgroup(d24, d24.power(1, 3))
    H = full_subgroup(d24)
    # basis of the P-fixed subalgebra: P-conjugation orbit sums
    seen = set()
    ech = Echelon(F2, d24.order)
    for g in range(d24.order):
        if g in seen:
            continue
        orbit = {d24.conj(x, g) for x in P.elems}
        seen |= orbit
        vec = [0] * d24.order
        for h in orbit:
            vec[h] = 1
        traced = trace_map(AlgebraElement(d24, F2, tuple(vec)), P, H)
        ech.insert(list(traced.coeffs))
    assert ech.contains(list(b.elem.coeffs))


def test_trace_transversal_independence(d24):
    """The trace does not depend on the choice of coset representatives."""
    rng = random.Random(31337)
    t = F4
    P = cyclic_subgroup(d24, d24.power(1, 3))
    H = full_subgroup(d24)
    reps = coset_reps(H, P)
    for _ in range(100):
        # random P-stable element: constant on P-conjugation orbits
        coeffs = [0] * d24.order
        seen = set()
        for g in range(d24.order):
            if g in seen:
                continue
            orbit = {d24.conj(x, g) for x in P.elems}
            seen |= orbit
            c = rng.randrange(t.q)
            for h in orbit:
                coeffs[h] = c
        a = AlgebraElement(d24, t, tuple(coeffs))
        base = trace_map(a, P, H)
        # re-sum over a randomized transversal
        twisted = zero(d24, t)
        for x in reps:
            y = d24.mul[x][P.elems[rng.randrange(P.order)]]
            twisted = twisted + conjugate_element(y, a)
        assert twisted == base


def test_galois_apply_cases(groups):
    c3 = groups["c3"]
    e1 = AlgebraElement(c3, F4, (1, 2, 3))
    e2 = AlgebraElement(c3, F4, (1, 3, 2))
    assert galois_apply(1, e1) == e2
    assert galois_apply(F4.gamma_order, e1) == e1
    assert galois_apply(1, one(c3, F4)) == one(c3, F4)
    assert is_k_rational(e1 + e2)


def _random_p_stable(rng, G, t, P):
    coeffs = [0] * G.order
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {G.conj(x, g) for x in P.elems}
        seen |= orbit
        c = rng.randrange(t.q)
        for h in orbit:
            coeffs[h] = c
    return AlgebraElement(G, t, tuple(coeffs))


def test_brauer_homomorphism_and_equivariance(d24):
    """Br_P is multiplicative on P-stable elements, commutes with the
    Galois action, and conjugation twists it to the conjugate subgroup."""
    rng = random.Random(0xB10C)
    t = F4
    P = cyclic_subgroup(d24, d24.power(1, 3))
    for _ in range(100):
        a = _random_p_stable(rng, d24, t, P)
        b = _random_p_stable(rng, d24, t, P)
        left = brauer_map(multiply(a, b), P, check_stable=False)
        right = multiply(brauer_map(a, P), brauer_map(b, P))
        assert left == right
        j = rng.randrange(t.gamma_order)
        assert brauer_map(galois_apply(j, a), P) == galois_apply(j, brauer_map(a, P))
        assert galois_apply(j, multiply(a, b)) == multiply(galois_apply(j, a),
                                                           galois_apply(j, b))
        x = rng.randrange(d24.order)
        xP = conjugate_subgroup(P, x)
        assert conjugate_element(x, brauer_map(a, P)) == brauer_map(conjugate_element(x, a), xP)


def test_brauer_map_surjectivity(d24):
    """Every element of the centralizer algebra is hit by a P-stable one."""
    P = cyclic_subgroup(d24, d24.power(1, 3))
    C = centralizer(d24, P)
    owner = C.as_group()
    for g in C.elems:
        # the P-orbit sum of g restricts to a basis-like element when g
        # centralizes P (its orbit is {g})
        pre = _random_p_stable(random.Random(g), d24, F2, P)
        assert brauer_map(pre, P).group is owner
        vec = [0] * d24.order
        vec[g] = 1
        assert support(brauer_map(AlgebraElement(d24, F2, tuple(vec)), P,
                                  check_stable=False)) == (owner.ambient_elems.index(g),)


def test_multiply_matches_oracle(groups):
    rng = random.Random(7)
    G = groups["s3"]
    t = make_tower(3, 1, 2)
    for _ in range(25):
        a = AlgebraElement(G, t, tuple(rng.randrange(t.q) for _ in range(G.order)))
        b = AlgebraElement(G, t, tuple(rng.randrange(t.q) for _ in range(G.order)))
        assert multiply(a, b).coeffs == convolve(G, t, a.coeffs, b.coeffs)
        c = AlgebraElement(G, t, tuple(rng.randrange(t.q) for _ in range(G.order)))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_augmentation_identifies_principal(groups, d24):
    for G in (groups["s4"], d24, groups["c3sc4"]):
        for t in (F2, F4):
            blocks = primitive_central_idempotents(G, t)
            pb = principal_block(blocks)
            assert augmentation(pb.elem) == 1
            for b in blocks:
                if b is not pb:
                    assert augmentation(b.elem) == 0


def test_sparse_roundtrip(d24, monkeypatch):
    """to_sparse keys the support by element index and spells each code
    as its coefficient list, which digits_code reads back; each distinct
    nonzero code is converted to digits once per call."""
    blocks = primitive_central_idempotents(d24, F4)
    converted = []
    coeffs_of = type(F4).coeffs
    monkeypatch.setattr(type(F4), "coeffs", lambda t, c: converted.append(c) or coeffs_of(t, c))
    for b in blocks:
        converted.clear()
        sparse = b.elem.to_sparse()
        assert sorted(converted) == sorted(set(b.elem.coeffs) - {0})
        coeffs = [0] * d24.order
        for key, arr in sparse.items():
            coeffs[int(key)] = digits_code(F4, arr)
        assert list(sparse) == [str(g) for g in support(b.elem)]
        assert tuple(coeffs) == b.elem.coeffs


CORPUS_TOWERS = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_class_sum_blocks_match_group_algebra_oracles(name):
    """Class-sum splitting against the kG splitting and the exhaustive
    idempotent search, on a freshly loaded group (no cached blocks)."""
    G = load_builtin(name)
    for tower in (make_tower(*key) for key in CORPUS_TOWERS):
        for over_k in (False, True):
            got = [b.elem.coeffs for b in primitive_central_idempotents(G, tower, over_k)]
            assert got == blocks_by_group_algebra_splitting(G, tower, over_k), (tower.key, over_k)
            assert got == brute_force_blocks(G, tower, over_k), (tower.key, over_k)


# the corpus groups over the corpus towers, and the non-split groups over
# towers where Frobenius moves centralizer blocks
ORACLE_CASES = ([(name, CORPUS_TOWERS) for name in GROUP_NAMES]
                + [("c5c8s2", ((2, 1, 4),)), ("c7c9s3", ((3, 2, 6),))])


def _sylow_centralizers(G, p):
    """The algebras k C_G(Q) for Q <= a Sylow p-subgroup, each once; C_G(1)
    is G itself."""
    views = {}
    for Q in all_subgroups(sylow_p_subgroup(G, p)):
        C = centralizer(G, Q)
        views.setdefault(C.elems, C.as_group())
    return list(views.values())


def _coeffs(blocks):
    return [b.elem.coeffs for b in blocks]


@pytest.mark.parametrize("name, towers", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES])
def test_view_k_blocks_are_orbit_sums_of_l_blocks(name, towers):
    """On every C_G(Q), Q <= Sylow, the K-blocks (orbit sums of the
    L-blocks on a view) equal the split of the center over K."""
    G = load_builtin(name)
    merged = 0
    for tower in (make_tower(*key) for key in towers):
        for owner in _sylow_centralizers(G, tower.p):
            got = primitive_central_idempotents(owner, tower, over_k=True)
            assert _coeffs(got) == _coeffs(_split_center(owner, tower, True))
            merged += len(got) < len(primitive_central_idempotents(owner, tower))
    if name in ("c5c8s2", "c7c9s3"):
        assert merged  # some orbit has two or more members


@pytest.mark.parametrize("name, towers", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES])
def test_blocks_through_central_p_quotient_match_direct_split(name, towers):
    """On every C_G(Q), Q <= Sylow, the L-blocks lifted from the quotient by
    Z = O_p(Z(H)), and the K-blocks of G, equal the split of H itself."""
    G = load_builtin(name)
    quotients = 0
    for tower in (make_tower(*key) for key in towers):
        for owner in _sylow_centralizers(G, tower.p):
            for over_k in (False, True) if owner is G else (False,):
                got = primitive_central_idempotents(owner, tower, over_k)
                assert _coeffs(got) == _coeffs(_split_center(owner, tower, over_k))
            quotients += _central_p_quotient(owner, tower.p)[0] is not owner
    assert quotients


def _order(G, g):
    k, cur = 1, g
    while cur:
        cur, k = G.mul[cur][g], k + 1
    return k


def test_p_regular_lift_is_at_most_one_per_coset(d24):
    """D24 at p = 2: Z = O_2(Z(D24)) has order 2; lift marks exactly the
    p-regular elements, each inside its own coset, and the cosets of the
    reflections hold none, where a block must vanish."""
    H, lift = _central_p_quotient(d24, 2)
    assert H.order == 12
    for g in d24.elements():
        assert (lift[g] >= 0) == (_order(d24, g) % 2 != 0)
    hits = [lift.count(c) for c in range(H.order)]
    assert max(hits) == 1 and 0 in hits
    assert _lift_block(d24, lift, one(H, F2)) == one(d24, F2)
    empty = hits.index(0)
    with pytest.raises(VerificationError):
        _lift_block(d24, lift, basis_element(H, F2, empty))
    s3 = load_builtin("s3")  # Z(S3) = 1: the quotient is the group itself
    assert _central_p_quotient(s3, 3) == (s3, None)


def test_corpus_splits_over_k_only_root_groups_with_gamma_above_one(monkeypatch):
    """A corpus pass splits each algebra at most once per field, and over K
    only on root groups (or their central p-quotients) with K != L: the
    K-blocks of a view are orbit sums, and with K = L they are the
    L-blocks."""
    calls = []
    split = algebra._split_center
    monkeypatch.setattr(algebra, "_split_center",
                        lambda G, t, over_k: calls.append((G, t, over_k)) or split(G, t, over_k))
    report = cli.run_corpus(cli.load_corpus(cli.default_corpus_path()),
                            base=cli.default_corpus_path().parent)
    assert report["ok"]
    keys = [(id(G), t.key, over_k) for G, t, over_k in calls]
    assert len(keys) == len(set(keys))
    over_k = [(G, t) for G, t, k in calls if k]
    assert over_k and all(G.ambient is None and t.gamma_order > 1 for G, t in over_k)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_p_group_blocks_match_center_splitting(name):
    """k[H] is local when H is a p-group: on every p-subgroup Q of a Sylow
    p-subgroup of a builtin group, and on C_G(Q) when it is a p-group, the
    identity is the only block over L and over K, as center splitting finds."""
    G = load_builtin(name)
    checked = 0
    for tower in (F4, make_tower(3, 1, 2)):
        for Q in all_subgroups(sylow_p_subgroup(G, tower.p)):
            for H in {Q, centralizer(G, Q)}:
                if p_part(H.order, tower.p) != H.order:
                    continue
                owner = H.as_group()
                for over_k in (False, True):
                    blocks = primitive_central_idempotents(owner, tower, over_k)
                    assert blocks == (BlockIdempotent(one(owner, tower), over_k, 0),)
                    assert blocks == _split_center(owner, tower, over_k)
                    checked += 1
    assert checked >= 8


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_structure_counts_match_class_sum_products(name, groups):
    """n_ijk is the coefficient at r_k of z_i z_j, read in a field whose
    characteristic exceeds every count."""
    G = groups[name]
    t = make_tower(251, 1, 1)
    cd = class_data(G)
    sums = [z.coeffs for z in center_basis(G, t)]
    assert cd.reps == tuple(cls[0] for cls in cd.classes)
    assert all(cd.class_of[g] == i for i, cls in enumerate(cd.classes) for g in cls)
    for i, zi in enumerate(sums):
        for j, zj in enumerate(sums):
            prod = convolve(G, t, zi, zj)
            triples = cd.counts[i]
            found = {(k, jj): n for k, jj, n in zip(*[iter(triples)] * 3)}
            counts = [found.get((k, j), 0) for k in range(len(sums))]
            assert [prod[r] for r in cd.reps] == counts


def _central_algebras(groups):
    """Non-abelian groups, plus the centralizer view D8 = C_S4(double transposition)."""
    s4 = groups["s4"]
    views = [centralizer(s4, cyclic_subgroup(s4, g)) for g in range(s4.order)]
    view = next(C for C in views if C.order == 8).as_group()
    return [s4, groups["c3sc4"], groups["a4"], groups["d24"], view]


@given(st.data())
def test_central_multiply_matches_multiply(groups, data):
    G = data.draw(st.sampled_from(_central_algebras(groups)))
    t = data.draw(st.sampled_from((F2, F4, make_tower(3, 1, 2))))
    k = len(class_data(G).reps)
    codes = st.lists(st.integers(0, t.q - 1), min_size=k, max_size=k)

    def central(coords):
        return AlgebraElement(G, t, tuple(coords[c] for c in class_data(G).class_of))

    a, b = central(data.draw(codes)), central(data.draw(codes))
    assert is_central(a) and is_central(b)
    assert central_multiply(a, b) == multiply(a, b)
    # a non-central input is refused, in either position
    g = data.draw(st.sampled_from([g for cls in class_data(G).classes if len(cls) > 1
                                   for g in cls]))
    bumped = list(b.coeffs)
    bumped[g] = t.add(bumped[g], 1)
    skew = AlgebraElement(G, t, tuple(bumped))
    assert not is_central(skew)
    with pytest.raises(ValueError):
        central_multiply(a, skew)
    with pytest.raises(ValueError):
        central_multiply(skew, a)


@given(st.data())
def test_conjugation_and_stability_match_scans(groups, data):
    """On k C_G(h) for a builtin group G: conjugate_element and is_stable
    agree with their per-element scans, for coefficients that are random
    or constant on the classes of G (then stable under N_G(C_G(h)))."""
    G = groups[data.draw(st.sampled_from(GROUP_NAMES))]
    t = data.draw(st.sampled_from((F2, F4, make_tower(3, 1, 2))))
    element = st.integers(0, G.order - 1)
    owner = centralizer(G, cyclic_subgroup(G, data.draw(element))).as_group()
    elems = owner.ambient_elems or range(G.order)
    cd = class_data(G)
    if data.draw(st.booleans()):
        codes = data.draw(st.lists(st.integers(0, t.q - 1), min_size=len(cd.reps),
                                   max_size=len(cd.reps)))
        coeffs = [codes[cd.class_of[g]] for g in elems]
    else:
        coeffs = data.draw(st.lists(st.integers(0, t.q - 1), min_size=owner.order,
                                    max_size=owner.order))
    a = AlgebraElement(owner, t, tuple(coeffs))
    x = data.draw(element)
    assert conjugate_element(x, a) == conjugate_element_scan(x, a)
    S = data.draw(st.sampled_from((cyclic_subgroup(G, data.draw(element)), full_subgroup(G),
                                   trivial_subgroup(G))))
    assert is_stable(a, S) == is_stable_scan(a, S)
