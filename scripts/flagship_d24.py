#!/usr/bin/env python3
"""Walk through the dihedral flagship computation and print the story.

The group is D24 of order 24 at p = 2.  Over F2 the non-principal block
b = g + g^2 (g the order-3 rotation) has defect group C4 and a block
fusion system whose full automorphism group on C4 has order 2 while the
inner one is trivial, so the Sylow axiom fails.  Passing to F4 splits the
centralizer block, the F4-side system is saturated, and the F2-side
system is recovered from it by adjoining a single twist automorphism.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockfuse import (basis_element, block_fusion, find_block, inner_automorphisms,
                       make_tower, maximal_pairs, primitive_central_idempotents,
                       run_descent, saturation_report)
from blockfuse.cli import load_group_file


def main() -> int:
    G = load_group_file("builtin:d24")
    g, g2 = G.power(1, 4), G.power(1, 8)

    print("== F2 side ==")
    t2 = make_tower(2, 1, 1)
    blocks = primitive_central_idempotents(G, t2)
    b = find_block(blocks, basis_element(G, t2, g) + basis_element(G, t2, g2))
    print(f"blocks of F2[D24]: {len(blocks)}; b = g + g^2 is block #{b.index}")
    mp = maximal_pairs(G, t2, b)
    root = mp.pairs[0]
    print(f"defect order {mp.defect_order}, maximal pair P = {list(root.subgroup.elems)}")
    F = block_fusion(G, t2, b, root)
    sat = saturation_report(F)
    print(f"|Aut_P(P)| = {len(inner_automorphisms(root.subgroup, root.subgroup))}, "
          f"|Aut_F(P)| = {len(F.aut_set(root.subgroup))}")
    print(f"Sylow axiom: {sat.sylow_ok}, extension axiom: {sat.extension_ok}, "
          f"saturated: {sat.saturated}")

    print("\n== descent through F4/F2 ==")
    t = make_tower(2, 1, 2)
    blocks4 = primitive_central_idempotents(G, t)
    b4 = find_block(blocks4, basis_element(G, t, g) + basis_element(G, t, g2))
    data, _ = run_descent(G, t, b4)
    print(f"orbit size {data['orbit_size']}, descent index {data['index']}, "
          f"g0 = {data['g0']}, sigma = {data['sigma']}")
    print(f"saturated over F4: {data['saturated']['l']}, over F2: {data['saturated']['k']}")
    print("verdicts:")
    for key, value in sorted(data["verdicts"].items()):
        print(f"  {key}: {value}")
    print(json.dumps({"all_ok": data["all_ok"]}))
    return 0 if data["all_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
