import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import blockfuse
import blockfuse.cli as cli
from blockfuse import (block_fusion, maximal_pairs, primitive_central_idempotents,
                       run_descent)
from blockfuse.algebra import VerificationError, principal_block
from blockfuse.cli import CorpusEntry, main, render_json, run_entry
from blockfuse.gf import make_tower
from oracles import generating_maps_by_compose, hom_counts_dict, render_json_reference

BENCH_GROUPS = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_blocks_command_d24(capsys):
    code, out = _run(capsys, ["blocks", "--group", "builtin:d24", "--p", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "D24" and report["order"] == 24
    non_principal = [b for b in report["blocks"] if not b["principal"]]
    assert len(non_principal) == 1
    blk = non_principal[0]
    assert blk["defect_order"] == 4
    assert sorted(blk["support"].values()) == [[1], [1]]
    assert blk["k_rational"]


def test_blocks_command_c3_tower(capsys):
    code, out = _run(capsys, ["blocks", "--group", "builtin:c3", "--p", "2", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert len(report["blocks"]) == 3
    assert sorted(len(o) for o in report["orbits"]) == [1, 2]
    assert len(report["k_blocks"]) == 2


def test_blocks_command_trivial_group(tmp_path, capsys):
    path = tmp_path / "triv.json"
    path.write_text(json.dumps({"kind": "table", "name": "1", "table": [[0]]}))
    code, out = _run(capsys, ["blocks", "--group", str(path), "--p", "2"])
    assert code == 0
    report = json.loads(out)
    assert len(report["blocks"]) == 1
    assert report["blocks"][0]["support"] == {"0": [1]}


def test_fusion_command_d24(capsys):
    code, out = _run(capsys, ["fusion", "--group", "builtin:d24", "--p", "2"])
    assert code == 0
    report = json.loads(out)
    non_principal = next(s for s in report["systems"] if s["sylow_index"] == 2)
    assert non_principal["saturated"] is False
    assert non_principal["witness"] == {"kind": "sylow_index", "index": 2}
    assert non_principal["aut_order"] == 2
    principal = next(s for s in report["systems"] if s is not non_principal)
    assert principal["saturated"] is True


def test_fusion_command_p_group(capsys):
    code, out = _run(capsys, ["fusion", "--group", "builtin:c4", "--p", "2"])
    assert code == 0
    report = json.loads(out)
    system = report["systems"][0]
    assert system["saturated"] and system["aut_order"] == 1
    assert system["defect_order"] == 4


def test_descent_command_flagship(capsys):
    code, out = _run(capsys, ["descent", "--group", "builtin:d24", "--p", "2",
                              "--m", "1", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"]
    flagship = next(d for d in report["descents"] if d["index"] == 2)
    assert flagship["saturated"] == {"l": True, "k": False}
    assert all(flagship["verdicts"].values())


def test_descent_degenerate_and_defect_zero(capsys):
    code, out = _run(capsys, ["descent", "--group", "builtin:d24", "--p", "2"])
    assert code == 0
    assert json.loads(out)["all_ok"]
    code, out = _run(capsys, ["descent", "--group", "builtin:c3", "--p", "2",
                              "--n", "2", "--block", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"]
    assert report["descents"][0]["defect_order"] == 1


def test_verify_small_corpus(tmp_path, capsys):
    corpus = {"entries": [
        {"group": "builtin:c3", "p": 2, "m": 1, "n": 2, "label": "c3"},
        {"group": "builtin:s3", "p": 3, "m": 1, "n": 1, "label": "s3"},
    ]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out = _run(capsys, ["verify", "--corpus", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and len(report["entries"]) == 2


def test_verify_empty_corpus(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"entries": []}))
    code, out = _run(capsys, ["verify", "--corpus", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["entries"] == []


def test_verify_corrupted_table(tmp_path, capsys):
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    gpath = tmp_path / "loop.json"
    gpath.write_text(json.dumps({"kind": "table", "name": "loop", "table": loop}))
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps({"entries": [
        {"group": "loop.json", "p": 2, "label": "bad"}]}))
    code, out = _run(capsys, ["verify", "--corpus", str(cpath)])
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]
    assert "associative" in report["entries"][0]["error"]
    assert report["entries"][0]["kind"] == "input"


def test_report_determinism(capsys):
    _, out1 = _run(capsys, ["blocks", "--group", "builtin:d24", "--p", "2", "--n", "2"])
    _, out2 = _run(capsys, ["blocks", "--group", "builtin:d24", "--p", "2", "--n", "2"])
    assert out1 == out2
    _, t1 = _run(capsys, ["descent", "--group", "builtin:c3sc4", "--p", "3", "--n", "2"])
    _, t2 = _run(capsys, ["descent", "--group", "builtin:c3sc4", "--p", "3", "--n", "2"])
    assert t1 == t2


def test_table_format(capsys):
    code, out = _run(capsys, ["blocks", "--group", "builtin:c3", "--p", "3",
                              "--format", "table"])
    assert code == 0
    assert "group = C3" in out
    assert "blocks[0]" in out


def test_full_corpus_exit_zero(corpus_run):
    assert corpus_run["ok"]
    assert len(corpus_run["entries"]) >= 29
    for entry in corpus_run["entries"]:
        assert entry.get("ok"), entry.get("label")


def test_principal_block_is_a_descent_representative(corpus_entries):
    """run_entry reads the principal block's fusion system off its descent,
    so the principal block must be among the orbit representatives that
    descend: on every shipped corpus entry and on the non-split builtins
    over the towers where their descents have index p or prime to p."""
    base = cli.default_corpus_path().parent
    cases = [(e.group, (e.p, e.m, e.n)) for e in corpus_entries]
    cases += [("builtin:c5c8s2", (2, 1, 4)), ("builtin:c7c9s3", (3, 2, 6)),
              ("builtin:c7v4s3", (2, 1, 3))]
    for source, tower in cases:
        G, t = cli.load_group_file(source, base), make_tower(*tower)
        pb = principal_block(primitive_central_idempotents(G, t))
        assert pb in cli._descent_blocks(G, t, "all"), (source, tower)


def test_run_entry_report_is_plain_json():
    """A corpus entry's report holds JSON data only, descents included."""
    entry = CorpusEntry(group="builtin:d24", p=2, m=1, n=2, label="flag")
    report = run_entry(entry)
    assert report["ok"] and report["descent"]
    assert json.loads(render_json(report)) == report


def test_verify_under_optimized_mode():
    """`python -O` strips asserts; the shipped corpus must still verify."""
    src = str(Path(blockfuse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-m", "blockfuse.cli", "verify"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("argv,message", [
    (["blocks", "--group", "builtin:s3", "--p", "4"], "p=4 is not prime"),
    (["blocks", "--group", "builtin:s3", "--p", "2", "--m", "2", "--n", "3"],
     "m=2 must divide n=3"),
    (["blocks", "--group", "builtin:s3", "--p", "2", "--n", "17"], "too large"),
    (["blocks", "--group", "no_such_group.json", "--p", "2"], "no_such_group.json"),
    (["fusion", "--group", "builtin:s3", "--p", "2", "--block", "99"], "out of range"),
    (["descent", "--group", "builtin:s3", "--p", "2", "--block", "first"], "--block"),
    (["verify", "--corpus", "no_such_corpus.json"], "no_such_corpus.json"),
    *[(["verify", "--corpus", f"{{tmp}}/{name}.json"], f"unknown corpus entry key {key!r}")
      for name, key in (("checks", "checks"), ("string_checks", "checks"),
                        ("empty_checks", "checks"), ("block", "block"), ("lable", "lable"))],
    (["fusion", "--group", "builtin:s3", "--p", "2", "--block", "-1"], "not '-1'"),
    (["descent", "--group", "builtin:s3", "--p", "2", "--block", "99"], "out of range"),
    *[([command, "--group", "{tmp}/c2e9.json", "--p", "2"],
        "Sylow 2-subgroup of order 512, over the subgroup enumeration bound 256")
      for command in ("blocks", "fusion", "descent")],
])
def test_bad_input_exits_2_with_one_line(argv, message, tmp_path, capsys):
    """{tmp}/checks.json, string_checks.json and empty_checks.json are
    corpora whose one entry has a "checks" key (a list, a string, an empty
    list), block.json one with a "block" key and lable.json one with a
    misspelt "label": a corpus entry has no other keys than group, p, m,
    n and label.  {tmp}/c2e9.json is C2^9, of order 512, under the group
    bound, but its Sylow 2-subgroup is over the subgroup enumeration
    bound."""
    (tmp_path / "c2e9.json").write_text(json.dumps(C2E9))
    s3 = {"group": "builtin:s3", "p": 2}
    for name, extra in (("checks", {"checks": ["blcoks"]}),
                        ("string_checks", {"checks": "descent"}),
                        ("empty_checks", {"checks": []}), ("block", {"block": "all"}),
                        ("lable", {"lable": "x"})):
        (tmp_path / f"{name}.json").write_text(json.dumps({"entries": [s3 | extra]}))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blockfuse: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--checks", "blocks"]])
def test_verify_has_one_configuration(option, capsys):
    """verify runs every check on every block, serially: no pool size or
    check filter is accepted."""
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", *option])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_malformed_group_and_corpus_files_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    perm = {"kind": "perm", "name": "bad", "generators": []}
    # entries that are not JSON integers: bools, which Python and numpy
    # take for 0 and 1, and a non-integral float
    for text in ("not json", "[1, 2]", json.dumps({"kind": "perm", "degree": 3}),
                 json.dumps(perm | {"degree": -4}), json.dumps(perm | {"degree": 10**12}),
                 json.dumps(perm | {"degree": 2, "generators": [[True, False]]}),
                 json.dumps(perm | {"degree": 3, "generators": [[1.0, 2.9, 0]]}),
                 json.dumps({"kind": "table", "name": "bad", "table": [[0, True], [True, 0]]})):
        path.write_text(text)
        assert main(["blocks", "--group", str(path), "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockfuse: error: group ") and err.count("\n") == 1
    s3 = {"group": "builtin:s3", "p": 3}
    for corpus in ([1, 2], {"entries": [{"p": 2}]}, {"entries": [1]}, {"entries": {"a": 1}},
                   {"entries": [{"group": 5, "p": 2}]}, {"entries": [s3 | {"p": 3.9}]},
                   {"entries": [s3 | {"p": True}]}, {"entries": [s3 | {"n": "2"}]},
                   {"entries": [s3 | {"label": [1]}]}, {"entries": [s3 | {"checks": ["descent"]}]},
                   {"entries": [s3 | {"block": "0"}]}, {"entries": [s3 | {"lable": "x"}]}):
        path.write_text(json.dumps(corpus))
        assert main(["verify", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockfuse: error: corpus ") and err.count("\n") == 1


# C2^9 on 18 points: the transpositions (2i 2i+1)
C2E9 = {"kind": "perm", "name": "C2^9", "degree": 18,
        "generators": [[j ^ 1 if j // 2 == i else j for j in range(18)] for i in range(9)]}


def _write_corpus(tmp_path, entries) -> str:
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"entries": entries}))
    return str(path)


def test_verify_sylow_over_subgroup_bound_is_input_error(tmp_path, capsys):
    (tmp_path / "c2e9.json").write_text(json.dumps(C2E9))
    path = _write_corpus(tmp_path, [{"group": "c2e9.json", "p": 2, "label": "c2e9"}])
    code, out = _run(capsys, ["verify", "--corpus", path])
    assert code == 2
    (entry,) = json.loads(out)["entries"]
    assert entry == {"label": "c2e9", "kind": "input", "ok": False,
                     "error": "InputError: C2^9 has a Sylow 2-subgroup of order 512, "
                              "over the subgroup enumeration bound 256"}


def test_verify_bad_prime_is_input_error(tmp_path, capsys):
    path = _write_corpus(tmp_path, [{"group": "builtin:s3", "p": 4, "label": "p4"}])
    code, out = _run(capsys, ["verify", "--corpus", path])
    assert code == 2
    (entry,) = json.loads(out)["entries"]
    assert entry == {"label": "p4", "error": "ValueError: p=4 is not prime",
                     "kind": "input", "ok": False}


def _failing_report(*args, **kwargs):
    raise VerificationError("principal block is not unique")


def test_verification_error_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "blocks_report", _failing_report)
    assert main(["blocks", "--group", "builtin:s3", "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("blockfuse: error: VerificationError: "
                            "principal block is not unique\n")
    # a verification failure outranks an input error in the same corpus
    path = _write_corpus(tmp_path, [{"group": "builtin:s3", "p": 4, "label": "bad"},
                                    {"group": "builtin:s3", "p": 2, "label": "broken"}])
    code, out = _run(capsys, ["verify", "--corpus", path])
    assert code == 3
    kinds = [e["kind"] for e in json.loads(out)["entries"]]
    assert kinds == ["input", "verification"]


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("inverse of zero")

    monkeypatch.setattr(cli, "blocks_report", crash)
    path = _write_corpus(tmp_path, [{"group": "builtin:s3", "p": 2, "label": "crash"}])
    code, out = _run(capsys, ["verify", "--corpus", path])
    assert code == 3
    (entry,) = json.loads(out)["entries"]
    assert entry["kind"] == "internal"
    assert entry["error"] == "ZeroDivisionError: inverse of zero"


@pytest.mark.parametrize("exc,code,kind", [
    (VerificationError("composition is missing"), 1, None),
    (TypeError("unhashable type: 'list'"), 3, "internal"),
])
def test_axiom_check_failures(exc, code, kind, tmp_path, capsys, monkeypatch):
    """A VerificationError from the fusion-axiom check is a false verdict
    (axioms_ok false, exit 1); any other exception is a program fault and
    surfaces as an internal error (exit 3), not as a false verdict."""
    def failing(F):
        raise exc

    monkeypatch.setattr(cli, "assert_fusion_axioms", failing)
    path = _write_corpus(tmp_path, [{"group": "builtin:d24", "p": 2, "m": 1, "n": 2,
                                     "label": "d24"}])
    got, out = _run(capsys, ["verify", "--corpus", path])
    assert got == code
    (entry,) = json.loads(out)["entries"]
    assert entry.get("kind") == kind and entry["ok"] is False
    if kind is None:
        assert entry["descent"] and not any(d["axioms_ok"] for d in entry["descent"])
    else:
        assert entry["error"] == f"{type(exc).__name__}: {exc}"


def test_reports_add_no_group_attributes():
    """Caches are declared in FiniteGroup.__init__; a report that added an
    attribute later would grow the instance dict of every group it touches."""
    G = cli.load_group_file("builtin:d24")
    keys = set(vars(G))
    tower = cli.make_tower(2, 1, 2)
    cli.blocks_report(G, tower)
    cli.fusion_report(G, tower)
    cli.descent_report(G, tower)
    assert set(vars(G)) == keys
    views = [v for k, v in G._memo.items() if k[0] == "view"]
    assert views and G._memo.get("class_data") is not None
    for view in views:
        assert set(vars(view)) == keys


def test_false_descent_verdict_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "descent_report", lambda *args: {"all_ok": False})
    assert main(["descent", "--group", "builtin:s3", "--p", "2"]) == 1
    assert json.loads(capsys.readouterr().out) == {"all_ok": False}


_ODD_TEXT = st.sampled_from(["", "plain", "caf\u00e9", "\u20ac5", "\U0001f600", 'say "hi"',
                             "back\\slash", "line\nbreak\ttab", "\x00\x1f\x7f", "</script>"])
_JSON_TEXT = st.text(max_size=8) | _ODD_TEXT
_PLAIN_SCALARS = (st.none() | st.booleans() | _JSON_TEXT
                  | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                  | st.sampled_from([0, -1, 2 ** 63, -2 ** 64, 10 ** 40]))
# flat containers of str, int, bool and None of 14 to 18 items
_FLAT = st.integers(14, 18).flatmap(
    lambda n: st.lists(_PLAIN_SCALARS, min_size=n, max_size=n)
    | st.dictionaries(_JSON_TEXT, _PLAIN_SCALARS, min_size=n, max_size=n))
_JSON_VALUES = st.recursive(
    _PLAIN_SCALARS | st.floats() | _FLAT | st.just([]) | st.just({}),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_JSON_TEXT, children, max_size=5),
    max_leaves=40)


@given(_JSON_VALUES)
def test_render_json_matches_the_standard_library(value):
    assert render_json(value) == render_json_reference(value)


def test_render_json_defers_other_values_to_the_standard_library():
    report = {"a": (1, 2.5, [None]), "b": {2: "int key", 1: float("inf")}, "t": ()}
    assert render_json(report) == render_json_reference(report)


@pytest.fixture(scope="module")
def fusion_2e3s4():
    """2^3:S4 (order 192) at p = 2 and its fusion report, the largest of
    the benchmark's reports."""
    G = cli.load_group_file(str(BENCH_GROUPS / "2e3s4.json"))
    tower = make_tower(2, 1, 1)
    return G, tower, cli.fusion_report(G, tower)


def test_render_json_matches_the_standard_library_on_reports(corpus_run, fusion_2e3s4):
    """Every corpus entry, the corpus report and the fusion report of
    2^3:S4."""
    for entry in corpus_run["entries"]:
        assert render_json(entry) == render_json_reference(entry)
    assert render_json(corpus_run) == render_json_reference(corpus_run)
    report = fusion_2e3s4[2]  # 3.25 MB, compared by lines for a readable failure
    assert render_json(report).split("\n") == render_json_reference(report).split("\n")


_PLAIN_KEY = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                   blacklist_characters='"\\'), max_size=6)
_ESCAPED_KEY = st.builds("{}{}{}".format, _PLAIN_KEY,
                         st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u20ac\U0001f600'), _PLAIN_KEY)


@st.composite
def _int_dicts(draw, sizes):
    """Flat dicts of int values, their keys inserted out of sorted order;
    in about half of them keys may need JSON escapes."""
    key = _PLAIN_KEY | _ESCAPED_KEY if draw(st.booleans()) else _PLAIN_KEY
    n = draw(sizes)
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))  # a few bytes of entropy, not n
    if n <= 64:
        keys = draw(st.lists(key, min_size=n, max_size=n, unique=True))
    else:  # about n keys, each a drawn stem and a number
        stems = draw(st.lists(key, min_size=1, max_size=8))
        keys = list({f"{rnd.choice(stems)}{i}": None for i in range(n)})
    rnd.shuffle(keys)
    pool = draw(st.lists(st.integers(-3, 3) | st.integers(), min_size=1, max_size=6))
    return {k: rnd.choice(pool) for k in keys}


@given(_int_dicts(st.integers(14, 18) | st.integers(1990, 2010)))
def test_render_json_writes_int_dicts_like_the_standard_library(value):
    # compared by lines: pytest's diff of two long strings takes minutes
    for report in (value, {"a": [value, {"b": value}], "c": 1}):
        assert render_json(report).split("\n") == render_json_reference(report).split("\n")


def test_render_json_keeps_true_apart_from_1():
    """True == 1 and they hash alike, but JSON spells them differently."""
    value = {f"k{i:02}": i % 2 for i in range(16)}
    for extra in ({"t": True}, {"t": True, "f": False}, {"t": True, "z": 1.0}):
        report = value | extra
        assert render_json(report) == render_json_reference(report)
        assert '"t": true' in render_json(report)


def test_render_json_passes_no_large_container_to_json_dumps(fusion_2e3s4, monkeypatch):
    """The 50,625 hom counts of 2^3:S4 are written as pieces, not by the
    standard library's encoder."""
    report = fusion_2e3s4[2]
    assert len(report["systems"][0]["hom_counts"]) == 225 ** 2
    sizes = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        sizes.append(len(obj) if isinstance(obj, (list, dict)) else 0)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    render_json(report)
    assert max(sizes, default=0) < 1000


def test_render_json_joins_each_container_without_an_int_table(corpus_run, fusion_2e3s4):
    """Only a hom-count table and the containers holding it stay in pieces
    until the final join, the table in two per row, the row's key and its
    joined columns, so the many small strings of a large report are not
    all alive at once."""
    pieces = []
    assert not cli._json_pieces(corpus_run, "\n", pieces)
    assert len(pieces) == 1
    pieces = []
    assert cli._json_pieces(fusion_2e3s4[2], "\n", pieces)
    assert 2 * 225 <= len(pieces) < 2 * 225 + 100


def test_hom_counts_read_as_the_dict_they_replace(corpus_objects, fusion_2e3s4):
    """`HomCounts` equals the "Q|R"-keyed dict, its keys iterated in sorted
    order, for every corpus principal system, both sides of every corpus
    descent and of (C5xC8):C2 over F16/F2, and every block of 2^3:S4 at
    p = 2; a key that names no pair of subgroups is missing."""
    systems = [o["principal"] for o in corpus_objects]
    systems += [F for o in corpus_objects for ctx in o["contexts"]
                for F in (ctx.system_l, ctx.system_k)]
    G = cli.load_group_file("builtin:c5c8s2")
    t = make_tower(2, 1, 4)
    for b in cli._descent_blocks(G, t, "all"):
        ctx = run_descent(G, t, b)[1]
        systems += [ctx.system_l, ctx.system_k]
    G, tower, _ = fusion_2e3s4
    for b in primitive_central_idempotents(G, tower):
        systems.append(block_fusion(G, tower, b, maximal_pairs(G, tower, b).pairs[0]))
    for F in systems:
        counts, expected = cli.HomCounts(F), hom_counts_dict(F)
        assert dict(counts) == expected
        assert list(counts) == sorted(expected)
    assert len(counts) == 225 ** 2
    for key in ("0", "0|0|0", "0|1,2", "", 0, None):
        assert key not in counts


def test_table_format_renders_the_json_data(corpus_run, fusion_2e3s4):
    """`--format table` reads a hom-count table as the dict it encodes."""
    for report in (corpus_run, fusion_2e3s4[2]):
        assert cli.render_table(report) == cli.render_table(json.loads(render_json(report)))


def test_generating_maps_match_composing_group_maps(corpus_objects, fusion_2e3s4):
    """Composing image tuples picks the generators that composing
    `GroupMap`s picks, for Aut_F(P) of every corpus system (L and K
    sides) and of every block of 2^3:S4 at p = 2."""
    systems = [o["principal"] for o in corpus_objects]
    systems += [F for o in corpus_objects for ctx in o["contexts"]
                for F in (ctx.system_l, ctx.system_k)]
    G, tower, report = fusion_2e3s4
    for b in primitive_central_idempotents(G, tower):
        systems.append(block_fusion(G, tower, b, maximal_pairs(G, tower, b).pairs[0]))
    lengths = set()
    for F in systems:
        aut = F.aut_set(F.p_subgroup)
        gens = cli._generating_maps(aut)
        assert gens == generating_maps_by_compose(aut)
        lengths.add(len(gens))
    assert max(lengths) >= 2
    assert [list(m.images) for m in gens] == report["systems"][-1]["aut_generators"]


def test_blocks_report_builds_no_conjugation_rows():
    """A blocks report never needs the conjugation table as tuple rows,
    which on S6 would be 720 x 720 pointers."""
    G = cli.load_group_file(str(BENCH_GROUPS / "s6.json"))
    report = cli.blocks_report(G, make_tower(3, 1, 2))
    assert "conj_rows" not in G._memo
    assert render_json(report) == render_json_reference(report)
