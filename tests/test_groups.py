import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import blockfuse.cli as cli
import blockfuse.groups as groups_mod
from blockfuse.groups import (GroupMap, Subgroup, all_subgroups, build_group,
                              centralizer, centralizer_in, class_data, conjugates,
                              coset_reps, full_subgroup, normalizer, normalizer_in, p_part,
                              sylow_p_subgroup, trivial_subgroup)
from conftest import GROUP_NAMES, load_builtin
from oracles import (all_subgroups_brute, all_subgroups_by_element_joins,
                     centralizer_in_scan, commuting_with, conjugacy_classes,
                     conjugacy_classes_brute, cyclic_subgroup, generated_subgroup_bfs,
                     normalizer_in_scan, perm_table_bfs, subgroup_lattice_bfs_joins,
                     sylow_p_subgroup_by_joins)

BENCH_GROUPS = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def _perm_specs():
    paths = [cli._builtin_path(name) for name in GROUP_NAMES]
    paths += sorted(BENCH_GROUPS.glob("*.json"))
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


@pytest.fixture(scope="module")
def bench_groups():
    return {spec["name"]: build_group(spec) for spec in _perm_specs()[len(GROUP_NAMES):]}


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def test_build_trivial_table():
    G = build_group({"kind": "table", "name": "1", "table": [[0]]})
    assert G.order == 1 and G.inv == (0,)


def test_build_d24_from_generators(d24):
    assert d24.order == 24
    r, s = 1, 2  # breadth-first indices of the two generators
    assert [k for k in range(1, 25) if d24.power(r, k) == 0][0] == 12
    assert [k for k in range(1, 25) if d24.power(s, k) == 0][0] == 2
    # s r s = r^-1
    assert d24.mul[d24.mul[s][r]][s] == d24.inv[r]


def test_c3_class_count(groups):
    c3 = groups["c3"]
    assert len(conjugacy_classes(c3)) == 3
    assert conjugacy_classes(c3) == tuple(conjugacy_classes_brute(c3))


def test_class_order_and_oracle(groups):
    for G in groups.values():
        classes = conjugacy_classes(G)
        assert list(classes) == conjugacy_classes_brute(G)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)


def test_class_data_matches_pairwise_scans(bench_groups):
    """Classes and the flat (k, j, n) triples, in their order, against
    per-element scans, on S6, 2^3:S4 and c13c9s3 (order 351)."""
    for G in [*bench_groups.values(), load_builtin("c13c9s3")]:
        cd = class_data(G)
        assert list(cd.classes) == conjugacy_classes_brute(G)
        for i, cls in enumerate(cd.classes):
            flat = []
            for k, r in enumerate(cd.reps):
                hits = Counter(cd.class_of[G.mul[G.inv[x]][r]] for x in cls)
                for j in sorted(hits):
                    flat += (k, j, hits[j])
            assert cd.counts[i] == tuple(flat)


def test_associativity_and_inverse_involution(groups):
    for G in groups.values():
        for a in range(G.order):
            assert G.inv[G.inv[a]] == a
            for b in range(G.order):
                for c in range(G.order):
                    assert G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]


def test_build_rejects_non_associative():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    build_group({"kind": "table", "name": "V", "table": table})  # fine: Klein four
    bad = [row[:] for row in table]
    bad[3][3] = 1  # row 3 now repeats 1; caught as a non-permutation
    with pytest.raises(ValueError):
        build_group({"kind": "table", "name": "broken", "table": bad})
    # a latin square with identity that is not associative (an order-5 loop)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="associative"):
        build_group({"kind": "table", "name": "loop5", "table": loop})


def test_build_rejects_bad_generators():
    with pytest.raises(ValueError):
        build_group({"kind": "perm", "name": "x", "degree": 3, "generators": [[0, 0, 1]]})


def test_build_rejects_oversize(monkeypatch):
    monkeypatch.setattr(groups_mod, "MAX_ORDER", 4)
    with pytest.raises(ValueError, match="exceeds bound 4"):
        build_group({"kind": "perm", "name": "c5", "degree": 5,
                     "generators": [[1, 2, 3, 4, 0]]})
    with pytest.raises(ValueError, match="group order exceeds bound 4"):
        build_group({"kind": "perm", "name": "s4", "degree": 4,
                     "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]})
    with pytest.raises(ValueError, match="exceeds bound 4"):
        build_group({"kind": "table", "name": "c5",
                     "table": [[(a + b) % 5 for b in range(5)] for a in range(5)]})


def test_centralizer_trivial_and_full(groups):
    for G in groups.values():
        assert centralizer(G, trivial_subgroup(G)).order == G.order
    c6 = groups["c6"]
    any_sub = cyclic_subgroup(c6, 1)
    assert centralizer(c6, any_sub).order == c6.order  # abelian


def test_centralizer_of_c4_in_d24(d24):
    r = 1
    C4 = cyclic_subgroup(d24, d24.power(r, 3))
    cent = centralizer(d24, C4)
    assert cent.order == 12
    assert cent.elems == cyclic_subgroup(d24, r).elems
    assert cent.elems == commuting_with(d24, C4.elems)


def test_normalizer_cases(d24):
    assert normalizer(d24, full_subgroup(d24)).order == 24
    assert normalizer(d24, trivial_subgroup(d24)).order == 24
    C4 = cyclic_subgroup(d24, d24.power(1, 3))
    assert normalizer(d24, C4).order == 24  # C4 is normal in D24


def test_sylow_examples(groups, d24):
    assert sylow_p_subgroup(groups["c3"], 2).order == 1
    assert sylow_p_subgroup(d24, 2).order == 8
    S3 = sylow_p_subgroup(d24, 3)
    assert S3.order == 3
    assert S3.elems == cyclic_subgroup(d24, d24.power(1, 4)).elems


def test_sylow_against_subgroup_enumeration(groups):
    for G in groups.values():
        for p in (2, 3):
            S = sylow_p_subgroup(G, p)
            assert S.order == p_part(G.order, p)
            subs = subgroup_lattice_bfs_joins(full_subgroup(G))
            assert S.order == max(H.order for H in subs
                                  if H.order == p_part(H.order, p))


def test_sylow_matches_join_oracle_and_is_built_once():
    """Every shipped and bench group file, every p in (2, 3, 5, 7, 13):
    the index-p coset unions give the element set of breadth-first joins,
    and the subgroup is built once per group and p."""
    paths = sorted(cli._builtin_path("c2").parent.glob("*.json"))
    paths += sorted(BENCH_GROUPS.glob("*.json"))
    assert len(paths) == 18
    for path in paths:
        G = build_group(json.loads(path.read_text(encoding="utf-8")))
        for p in (2, 3, 5, 7, 13):
            S = sylow_p_subgroup(G, p)
            assert S.elems == sylow_p_subgroup_by_joins(G, p).elems, (G.name, p)
            assert S.order == p_part(G.order, p)
            assert sylow_p_subgroup(G, p) is S


def test_sylow_rejects_composite(d24):
    with pytest.raises(ValueError):
        sylow_p_subgroup(d24, 4)


def test_all_subgroups_counts(groups, d24):
    c4 = groups["c4"]
    assert len(all_subgroups(full_subgroup(c4))) == 3
    v4 = groups["c2c2"]
    assert len(all_subgroups(full_subgroup(v4))) == 5
    d8 = groups["d8"]
    subs = all_subgroups(full_subgroup(d8))
    assert len(subs) == 10
    assert {H.elems for H in subs} == all_subgroups_brute(full_subgroup(d8))
    assert [(

        H.order, H.elems) for H in subs] == sorted((H.order, H.elems) for H in subs)


def test_all_subgroups_bound(d24, monkeypatch):
    monkeypatch.setattr(groups_mod, "SUBGROUP_BOUND", 8)
    with pytest.raises(ValueError, match="bound exceeded"):
        all_subgroups(full_subgroup(d24))


def test_conjugation_rows_give_group_maps(d24):
    """The gather of `conjugates` is G.conj entry by entry, also on rows
    and columns out of order and repeated; each row over C4 is an
    injective homomorphism (GroupMap checks both), the identity's row is
    the inclusion and a reflection's row inverts C4."""
    r, s = 1, 2
    C4 = cyclic_subgroup(d24, d24.power(r, 3))
    every = range(d24.order)
    table = conjugates(d24, every, every).tolist()
    assert all(table[x][g] == d24.conj(x, g) for x in every for g in every)
    xs, gs = [5, 0, 5, 23], [7, 3, 3, 0]
    assert conjugates(d24, xs, gs).tolist() == [[d24.conj(x, g) for g in gs] for x in xs]
    rows = conjugates(d24, every, C4.elems).tolist()
    for row in rows:
        GroupMap(C4, full_subgroup(d24), row)
    assert rows[0] == list(C4.elems)
    assert rows[s] == [d24.inv[g] for g in C4.elems]


def test_centralizer_subset_normalizer(groups):
    for G in groups.values():
        for H in all_subgroups(sylow_p_subgroup(G, 2)):
            assert centralizer(G, H).is_subset_of(normalizer(G, H))


def test_subgroup_validation(d24):
    with pytest.raises(ValueError):
        Subgroup(d24, (0, 1))  # r alone is not closed
    with pytest.raises(ValueError):
        Subgroup(d24, (1, 2))  # missing identity


def test_group_map_validation(d24):
    C4 = cyclic_subgroup(d24, d24.power(1, 3))
    with pytest.raises(ValueError):
        GroupMap(C4, C4, (0, 6, 6, 18))  # not injective
    with pytest.raises(ValueError):
        GroupMap(C4, C4, (6, 0, 17, 18))  # identity not preserved


def test_as_group_localization(d24):
    C = centralizer(d24, cyclic_subgroup(d24, d24.power(1, 3)))
    local = C.as_group()
    assert local.order == 12
    assert local.ambient is d24
    assert local.ambient_elems == C.elems
    assert C.as_group() is local  # cached
    # local index arithmetic matches ambient arithmetic through the re-map
    for i in range(local.order):
        for j in range(local.order):
            assert C.elems[local.mul[i][j]] == d24.mul[C.elems[i]][C.elems[j]]
    assert full_subgroup(d24).as_group() is d24


def test_coset_reps_cover(d24):
    H = full_subgroup(d24)
    I = cyclic_subgroup(d24, 1)
    reps = coset_reps(H, I)
    assert len(reps) == 2
    seen = {d24.mul[x][i] for x in reps for i in I.elems}
    assert seen == set(range(24))


def test_relative_centralizer_normalizer(d24):
    P = sylow_p_subgroup(d24, 2)
    C2 = cyclic_subgroup(d24, d24.power(1, 6))
    assert centralizer_in(P, C2).is_subset_of(P)
    assert normalizer_in(P, C2).is_subset_of(P)
    assert centralizer_in(P, C2).is_subset_of(normalizer_in(P, C2))


def test_all_subgroups_matches_element_join_oracle(groups):
    sylows = [sylow_p_subgroup(G, p) for G in groups.values()
              for p in range(2, G.order + 1)
              if G.order % p == 0 and all(p % d for d in range(2, p))]
    # C4 wr C2, order 32, nonabelian
    wreath = build_group({"kind": "perm", "name": "C4wrC2", "degree": 8,
                          "generators": [[1, 2, 3, 0, 4, 5, 6, 7],
                                         [4, 5, 6, 7, 0, 1, 2, 3]]})
    assert wreath.order == 32
    for P in sylows + [full_subgroup(wreath)]:
        assert ([S.elems for S in all_subgroups(P)]
                == [S.elems for S in all_subgroups_by_element_joins(P)])


@pytest.mark.parametrize("spec", _perm_specs(), ids=lambda spec: spec["name"])
def test_perm_build_matches_pairwise_oracle(spec):
    G = build_group(spec)
    mul, inv = perm_table_bfs(spec["degree"], spec["generators"])
    assert [row.tolist() for row in G.mul] == [list(row) for row in mul]
    assert G.inv == tuple(inv)
    # row x of mul is a read-only view of row x of the one table
    T = G._table
    assert T.flags.c_contiguous and not T.flags.writeable
    for x, row in enumerate(G.mul):
        assert row.readonly and len(row) == G.order
        assert np.asarray(row).ctypes.data == T.ctypes.data + x * T.strides[0]
    assert hash(G.mul) == hash(build_group(spec).mul)
    with pytest.raises(ValueError, match="read-only"):
        T[0, 0] = 1
    with pytest.raises(TypeError, match="read-only"):
        G.mul[0][0] = 1


def test_centralizers_and_normalizers_match_scans_on_sylow_lattices(groups, bench_groups):
    for G in list(groups.values()) + list(bench_groups.values()):
        for p in _primes(G.order):
            P = sylow_p_subgroup(G, p)
            for S in all_subgroups(P):
                for H in (full_subgroup(G), P):
                    C = centralizer_in(H, S)
                    assert C.elems == centralizer_in_scan(H, S).elems
                    assert C.mask == sum(1 << g for g in C.elems)
                    assert normalizer_in(H, S).elems == normalizer_in_scan(H, S).elems


@given(st.data())
def test_generated_subgroups_match_oracles(groups, bench_groups, data):
    pool = sorted(groups.values(), key=lambda g: g.name) + [bench_groups["2^3:S4"]]
    G = data.draw(st.sampled_from(pool), label="group")
    element = st.integers(0, G.order - 1)
    gens = data.draw(st.lists(element, max_size=3), label="gens")
    other = data.draw(st.lists(element, max_size=3), label="other")
    H = generated_subgroup_bfs(G, gens)
    S = generated_subgroup_bfs(G, other)
    for A in (H, full_subgroup(G)):
        assert centralizer_in(A, S).elems == centralizer_in_scan(A, S).elems
        assert normalizer_in(A, S).elems == normalizer_in_scan(A, S).elems
    assert S.is_subset_of(H) == (set(S.elems) <= set(H.elems))
    assert [g in H for g in range(-1, G.order + 1)] == [
        g in H.elems for g in range(-1, G.order + 1)]


def test_lattices_match_bfs_join_oracle(groups, bench_groups):
    """The index-p lattice on every p-group case against the BFS joins."""
    cases = [full_subgroup(G) for G in groups.values() if len(_primes(G.order)) <= 1]
    cases += [sylow_p_subgroup(G, p) for G in bench_groups.values() for p in _primes(G.order)]
    for P in cases:
        assert ([S.elems for S in all_subgroups(P)]
                == [S.elems for S in subgroup_lattice_bfs_joins(P)])


def test_all_subgroups_takes_p_groups_only(groups, d24):
    """A group whose order is not a prime power is a ValueError; the
    trivial group is a p-group with one subgroup, for every p."""
    for G in groups.values():
        if len(_primes(G.order)) > 1:
            with pytest.raises(ValueError, match="needs a p-group"):
                all_subgroups(full_subgroup(G))
    assert [S.elems for S in all_subgroups(trivial_subgroup(d24))] == [(0,)]
    assert [S.elems for S in subgroup_lattice_bfs_joins(trivial_subgroup(d24))] == [(0,)]


def test_lattice_builds_no_conjugation_table():
    """The index-p steps read `mul` and `inv` only: enumerating the
    lattice of C4 wr C2 (order 32) builds no conjugation table."""
    G = build_group({"kind": "perm", "name": "C4wrC2", "degree": 8,
                     "generators": [[1, 2, 3, 0, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]]})
    subs = all_subgroups(full_subgroup(G))
    assert len(subs) == len(subgroup_lattice_bfs_joins(full_subgroup(G)))
    assert "conj" not in G._memo
