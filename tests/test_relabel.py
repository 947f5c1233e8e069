"""Metamorphic test: renaming the elements of a group changes no verdict.

Each builtin group is rewritten as a multiplication table under a
permutation of its element indices that fixes the identity.  Block
counts, defect orders, fusion-system invariants (the multiset of hom-set
sizes, the saturation axioms) and every descent verdict are properties of
the group, so they must not move; anything indexed by elements may.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import blockfuse.cli as cli
from blockfuse import build_group, make_tower
from conftest import GROUP_NAMES, load_builtin


def relabel(G, perm):
    """G's table with element a renamed perm[a] (perm[0] == 0)."""
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return build_group({"kind": "table", "name": G.name, "table": table})


def invariants(G) -> dict:
    out = {}
    for p in (2, 3):
        if G.order % p:
            continue
        tower = make_tower(p, 1, 2)
        blocks = cli.blocks_report(G, tower)
        systems = cli.fusion_report(G, tower)["systems"]
        descents = cli.descent_report(G, tower)["descents"]
        out[p] = {
            "blocks": len(blocks["blocks"]),
            "defects": sorted(b["defect_order"] for b in blocks["blocks"]),
            "systems": sorted([s["defect_order"], s["aut_order"], s["saturated"],
                               s["sylow_axiom"], s["extension_axiom"],
                               sorted(s["hom_counts"].values())] for s in systems),
            "descents": sorted(json.dumps({k: d[k] for k in (
                "defect_order", "orbit_size", "stabilizers", "index", "verdicts",
                "saturated", "all_ok")}, sort_keys=True) for d in descents),
        }
    return out


@pytest.mark.parametrize("name", GROUP_NAMES)
@settings(max_examples=4)
@given(data=st.data())
def test_relabelled_group_keeps_invariants(name, data):
    G = load_builtin(name)
    perm = [0] + data.draw(st.permutations(range(1, G.order)), label="perm")
    assert invariants(relabel(G, perm)) == invariants(G)
