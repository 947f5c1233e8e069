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
