from __future__ import annotations

import json

import pytest
from hypothesis import settings

import blockfuse.cli as cli
from blockfuse import (block_fusion, build_group, make_tower, maximal_pairs,
                       primitive_central_idempotents, principal_block, run_descent)

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

GROUP_NAMES = ("c2", "c3", "c4", "c6", "c2c2", "d8", "s3", "a4", "s4", "d24", "c3sc4")

# the shipped non-split groups: G(q, p^a, u, v) by its parameters, and c7v4s3
NONSPLIT_NAMES = {(5, 8, 4, 5): "c5c8s2", (7, 9, 2, 4): "c7c9s3", "c7v4s3": "c7v4s3",
                  (5, 16, 2, 5): "c5c16s4", (13, 9, 3, 4): "c13c9s3"}

# (group, tower, one (index, saturated_l, saturated_k, defect_order) per
# descent): the towers of the shipped corpus data/nonsplit.json
NONSPLIT_DESCENTS = [
    ((5, 8, 4, 5), (2, 1, 4), [(2, True, False, 8), (1, True, True, 16)]),
    ((5, 8, 4, 5), (2, 2, 2), [(1, False, False, 8)] * 2 + [(1, True, True, 16)]),
    ((7, 9, 2, 4), (3, 2, 6), [(3, True, False, 9)] * 2 + [(1, True, True, 27)]),
    ((7, 9, 2, 4), (3, 2, 2), [(1, False, False, 9)] * 2 + [(1, True, True, 27)]),
    ("c7v4s3", (2, 1, 3), [(3, True, True, 4)] * 2 + [(1, True, True, 4)]),
    ((5, 16, 2, 5), (2, 1, 4), [(4, True, False, 16), (1, True, True, 64)]),
    ((5, 16, 2, 5), (2, 2, 4), [(2, True, False, 16), (1, True, True, 64)]),
    ((13, 9, 3, 4), (3, 1, 3), [(3, True, False, 9)] * 4 + [(1, True, True, 27)]),
    ((7, 9, 2, 4), (3, 1, 6), [(3, True, False, 9), (1, True, True, 27)]),
    ((7, 9, 2, 4), (3, 3, 6), [(1, True, True, 9), (1, True, True, 27)]),
]


def load_builtin(name: str):
    path = cli._builtin_path(name)
    with open(path, "r", encoding="utf-8") as fh:
        return build_group(json.load(fh))


@pytest.fixture(scope="session")
def groups():
    return {name: load_builtin(name) for name in GROUP_NAMES}


@pytest.fixture(scope="session")
def d24(groups):
    return groups["d24"]


@pytest.fixture(scope="session")
def corpus_entries():
    return cli.load_corpus(cli.default_corpus_path())


@pytest.fixture(scope="session")
def corpus_run(corpus_entries):
    """One run of the shipped corpus report, shared by the CLI-level checks."""
    return cli.run_corpus(corpus_entries, base=cli.default_corpus_path().parent)


@pytest.fixture(scope="session")
def corpus_objects(corpus_entries):
    """Per shipped corpus entry, the objects its checks read: the label,
    group and tower, the principal block fusion system and the
    GaloisContext of every descent it runs, built as `cli.run_entry`
    builds them."""
    base = cli.default_corpus_path().parent
    out = []
    for entry in corpus_entries:
        G = cli.load_group_file(entry.group, base)
        tower = make_tower(entry.p, entry.m, entry.n)
        pb = principal_block(primitive_central_idempotents(G, tower))
        principal = block_fusion(G, tower, pb, maximal_pairs(G, tower, pb).pairs[0])
        contexts = [run_descent(G, tower, b)[1] for b in cli._descent_blocks(G, tower, "all")]
        out.append({"label": entry.label, "group": G, "tower": tower,
                    "principal": principal, "contexts": contexts})
    return out
