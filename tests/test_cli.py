import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import blockfuse
import blockfuse.cli as cli
from blockfuse.algebra import VerificationError
from blockfuse.cli import CorpusEntry, main, render_json, run_entry
from blockfuse.gf import make_tower
from oracles import render_json_reference

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


def test_jobs_output_matches_serial(tmp_path, capsys):
    corpus = {"entries": [
        {"group": "builtin:c3", "p": 2, "m": 1, "n": 2, "label": "a"},
        {"group": "builtin:c6", "p": 2, "m": 1, "n": 2, "label": "b"},
    ]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code1, out1 = _run(capsys, ["verify", "--corpus", str(path), "--jobs", "1"])
    code2, out2 = _run(capsys, ["verify", "--corpus", str(path), "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_pool_is_capped_at_entry_count(tmp_path, capsys, monkeypatch):
    """The pool starts every worker it is given; the stand-in pool records
    the request and runs the entries in this process."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = _write_corpus(tmp_path, [{"group": "builtin:c3", "p": 2, "label": "a"},
                                    {"group": "builtin:s3", "p": 3, "label": "b"}])
    code, out = _run(capsys, ["verify", "--corpus", path, "--jobs", "64"])
    assert code == 0 and json.loads(out)["ok"]
    assert requested == [2]


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


def test_checks_filter(tmp_path, capsys):
    corpus = {"entries": [{"group": "builtin:c3", "p": 3, "label": "c3"}]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out = _run(capsys, ["verify", "--corpus", str(path), "--checks", "blocks"])
    assert code == 0
    report = json.loads(out)
    assert "descent" not in report["entries"][0]
    assert "blocks" in report["entries"][0]


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
    (["verify", "--jobs", "0"], "--jobs must be at least 1"),
    (["verify", "--jobs", "-2"], "--jobs must be at least 1"),
    (["verify", "--checks", "blocks,blcoks"], "--checks: unknown check 'blcoks'"),
    (["verify", "--corpus", "{tmp}/checks.json"], "unknown check 'blcoks'"),
    (["verify", "--corpus", "{tmp}/string_checks.json"],
     '"checks" must be a list of check names'),
    (["verify", "--checks", ""], "--checks: no check selected"),
    (["verify", "--corpus", "{tmp}/empty_checks.json"], "no check selected"),
    *[([command, "--group", "{tmp}/c2e9.json", "--p", "2"],
        "Sylow 2-subgroup of order 512, over the subgroup enumeration bound 256")
      for command in ("blocks", "fusion", "descent")],
])
def test_bad_input_exits_2_with_one_line(argv, message, tmp_path, capsys):
    """{tmp}/checks.json is a corpus whose one entry names an unknown check,
    {tmp}/string_checks.json one whose "checks" is a string and
    {tmp}/empty_checks.json one whose "checks" is empty.  {tmp}/c2e9.json
    is C2^9, of order 512, under the group bound, but its Sylow 2-subgroup
    is over the subgroup enumeration bound."""
    (tmp_path / "c2e9.json").write_text(json.dumps(C2E9))
    (tmp_path / "checks.json").write_text(json.dumps(
        {"entries": [{"group": "builtin:s3", "p": 2, "checks": ["blcoks"]}]}))
    (tmp_path / "string_checks.json").write_text(json.dumps(
        {"entries": [{"group": "builtin:s3", "p": 2, "checks": "descent"}]}))
    (tmp_path / "empty_checks.json").write_text(json.dumps(
        {"entries": [{"group": "builtin:c3", "p": 2, "checks": []}]}))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blockfuse: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_malformed_group_and_corpus_files_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in ("not json", "[1, 2]", json.dumps({"kind": "perm", "degree": 3})):
        path.write_text(text)
        assert main(["blocks", "--group", str(path), "--p", "2"]) == 2
        assert capsys.readouterr().err.startswith("blockfuse: error: group ")
    s3 = {"group": "builtin:s3", "p": 3}
    for corpus in ([1, 2], {"entries": [{"p": 2}]}, {"entries": [1]}, {"entries": {"a": 1}},
                   {"entries": [{"group": 5, "p": 2}]}, {"entries": [s3 | {"p": 3.9}]},
                   {"entries": [s3 | {"p": True}]}, {"entries": [s3 | {"n": "2"}]},
                   {"entries": [s3 | {"label": [1]}]}):
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


@pytest.mark.parametrize("block,message", [("first", "'first'"), ("99", "out of range")])
def test_verify_bad_block_is_input_error(block, message, tmp_path, capsys):
    path = _write_corpus(tmp_path, [{"group": "builtin:s3", "p": 2, "block": block}])
    code, out = _run(capsys, ["verify", "--corpus", path])
    assert code == 2
    (entry,) = json.loads(out)["entries"]
    assert entry["kind"] == "input" and message in entry["error"]


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
                                     "label": "d24", "checks": ["descent"]}])
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
# flat containers of str, int, bool and None on both sides of the
# C-encoder threshold
_FLAT = st.integers(cli._C_ENCODER_MIN - 2, cli._C_ENCODER_MIN + 2).flatmap(
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


def test_render_json_matches_the_standard_library_on_reports(corpus_run):
    """Every corpus entry, the corpus report and the fusion report of
    2^3:S4, the largest of the benchmark's reports."""
    for entry in corpus_run["entries"]:
        assert render_json(entry) == render_json_reference(entry)
    assert render_json(corpus_run) == render_json_reference(corpus_run)
    G = cli.load_group_file(str(BENCH_GROUPS / "2e3s4.json"))
    report = cli.fusion_report(G, make_tower(2, 1, 1))
    assert render_json(report) == render_json_reference(report)


def test_blocks_report_builds_no_conjugation_rows():
    """A blocks report never needs the conjugation table as tuple rows,
    which on S6 would be 720 x 720 pointers."""
    G = cli.load_group_file(str(BENCH_GROUPS / "s6.json"))
    report = cli.blocks_report(G, make_tower(3, 1, 2))
    assert "conj_rows" not in G._memo
    assert render_json(report) == render_json_reference(report)
