"""Command-line interface: group-file ingestion, per-command reports, and
corpus verification with deterministic machine-readable output.

All reports are JSON; `--format table` is a rendering of the same data.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .algebra import (VerificationError, augmentation, is_k_rational,
                      primitive_central_idempotents, principal_block)
from .brauer import maximal_pairs
from .descent import block_correspondence, run_descent
from .fusion import (assert_fusion_axioms, block_fusion, fusion_equal, group_fusion,
                     saturation_report)
from .gf import make_tower
from .groups import SUBGROUP_BOUND, build_group, p_part
from . import __version__


class InputError(ValueError):
    """Bad input that only shows once the group and tower are known."""


def _builtin_path(name: str) -> Path:
    """The shipped group file builtin:name; name must be one of their stems."""
    groups = resources.files("blockfuse").joinpath("data", "groups")
    names = sorted(f.name[:-5] for f in groups.iterdir() if f.name.endswith(".json"))
    if name not in names:
        raise ValueError(f"unknown builtin group {name!r}; the builtins are {', '.join(names)}")
    return Path(str(groups.joinpath(f"{name}.json")))


def default_corpus_path() -> Path:
    return Path(str(resources.files("blockfuse").joinpath("data", "corpus.json")))


def load_group_file(path: str, base: Path | None = None):
    if path.startswith("builtin:"):
        file = _builtin_path(path.split(":", 1)[1])
    else:
        file = Path(path)
        if base is not None and not file.is_absolute():
            file = base / file
    with open(file, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("a group description must be a JSON object")
    return build_group(spec)


def _tower_dict(tower) -> dict:
    return {"p": tower.p, "m": tower.m, "n": tower.n, "modulus": list(tower.modulus)}


def _block_entry(G, tower, block) -> dict:
    return {
        "index": block.index,
        "support": block.elem.to_sparse(),
        "k_rational": is_k_rational(block.elem),
        "defect_order": maximal_pairs(G, tower, block).defect_order,
        "principal": augmentation(block.elem) == 1,
    }


def blocks_report(G, tower) -> dict:
    l_blocks = primitive_central_idempotents(G, tower, over_k=False)
    report = {
        "group": G.name,
        "order": G.order,
        "tower": _tower_dict(tower),
        "blocks": [_block_entry(G, tower, b) for b in l_blocks],
    }
    corr = block_correspondence(G, tower)
    report["orbits"] = [list(o) for o in corr.orbits]
    if tower.gamma_order > 1:
        k_blocks = primitive_central_idempotents(G, tower, over_k=True)
        report["k_blocks"] = [_block_entry(G, tower, b) for b in k_blocks]
        report["k_block_of_orbit"] = list(corr.k_block_of_orbit)
    return report


def _generating_maps(aut_maps) -> list:
    """Greedy generating subset of a finite set of automorphisms of one subgroup."""
    maps = sorted(aut_maps, key=lambda m: m.images)
    if not maps:
        return []
    at = {g: i for i, g in enumerate(maps[0].domain.elems)}.__getitem__
    by_perm = {tuple(map(at, m.images)): m for m in maps}
    identity = tuple(range(len(maps[0].images)))
    gens: list = []
    generated = {identity}
    for perm in by_perm:
        if perm in generated:
            continue
        gens.append(perm)
        frontier = [identity]
        generated = {identity}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple(map(g.__getitem__, cur))  # g after cur, on element positions
                if nxt not in generated:
                    generated.add(nxt)
                    frontier.append(nxt)
        if len(generated) == len(maps):
            break
    return [by_perm[g] for g in gens]


class HomCounts(Mapping):
    """|Hom_F(Q, R)| keyed "Q|R", Q and R a system's subgroups written as
    their comma-joined element lists; read-only, iterated in sorted key
    order.  Rows of one F-class are equal, and are written from one list
    of column pieces."""

    def __init__(self, system):
        def label(Q):
            return ",".join(map(str, Q.elems))

        columns = sorted(system.subgroups, key=label)
        self._cols = {label(R): c for c, R in enumerate(columns)}
        # "|" sorts after every digit and ",", so "Q|R" keys sort by "Q|" first
        self._rows = dict(sorted((label(Q) + "|", counts)
                                 for cls, counts in system.hom_count_rows(columns) for Q in cls))

    def __getitem__(self, key) -> int:
        row, bar, col = str(key).partition("|")
        return self._rows[row + bar][self._cols[col]]

    def __iter__(self):
        return (row + col for row in self._rows for col in self._cols)

    def __len__(self) -> int:
        return len(self._rows) * len(self._cols)

    def json_pieces(self, pad: str, out: list[str]) -> None:
        """Append the JSON text as `_json_pieces` does, two pieces per row:
        its key "Q|", and its column pieces 'R": n,<newline and indent>"'
        joined with that key."""
        tail = "," + pad + '  "'
        columns: dict[tuple[int, ...], list[str]] = {}
        out.append("{" + tail[1:])
        for row, counts in self._rows.items():
            if counts not in columns:
                columns[counts] = [f'{col}": {n}{tail}' for col, n in zip(self._cols, counts)]
            out += (row, row.join(columns[counts]))
        out[-1:] = (out[-1][:-len(tail)], pad + "}")


def _fusion_system_report(G, tower, block) -> dict:
    mp = maximal_pairs(G, tower, block)
    root = mp.pairs[0]
    system = block_fusion(G, tower, block, root)
    P = root.subgroup
    sat = saturation_report(system)
    aut = system.aut_set(P)
    return {
        "block_index": block.index,
        "defect_order": mp.defect_order,
        "maximal_pairs": [{"P": list(pr.subgroup.elems), "e": pr.block.index,
                           "defect_order": mp.defect_order} for pr in mp.pairs],
        "root": {"P": list(P.elems), "e": root.block.index},
        "aut_order": len(aut),
        "aut_generators": [list(m.images) for m in _generating_maps(aut)],
        "inner_aut_order": len(aut) // sat.aut_index,
        "hom_counts": HomCounts(system),
        "saturated": sat.saturated,
        "sylow_axiom": sat.sylow_ok,
        "extension_axiom": sat.extension_ok,
        "sylow_index": sat.aut_index,
        "witness": sat.witness,
        "centric": [list(Q.elems) for Q in system.subgroups if Q.elems in system.centric],
        "fully_normalized": [list(Q.elems) for Q in system.subgroups
                             if Q.elems in system.fully_normalized],
    }


def fusion_report(G, tower, block_sel="all") -> dict:
    l_blocks = primitive_central_idempotents(G, tower, over_k=False)
    if block_sel == "all":
        selected = list(l_blocks)
    else:
        selected = [l_blocks[int(block_sel)]]
    return {
        "group": G.name,
        "order": G.order,
        "tower": _tower_dict(tower),
        "systems": [_fusion_system_report(G, tower, b) for b in selected],
    }


def _descent_blocks(G, tower, block_sel: str) -> list:
    """The L-block with index block_sel, or for 'all' the first L-block of
    each Galois orbit."""
    l_blocks = primitive_central_idempotents(G, tower, over_k=False)
    if block_sel != "all":
        return [l_blocks[int(block_sel)]]
    return [l_blocks[o[0]] for o in block_correspondence(G, tower).orbits]


def descent_report(G, tower, block_sel="all") -> dict:
    out = [run_descent(G, tower, b)[0] for b in _descent_blocks(G, tower, block_sel)]
    return {
        "group": G.name,
        "order": G.order,
        "tower": _tower_dict(tower),
        "descents": out,
        "all_ok": all(r["all_ok"] for r in out),
    }


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus line: a group file and a field tower, on which every
    check runs on every block."""

    group: str
    p: int
    m: int = 1
    n: int = 1
    label: str | None = None

    @staticmethod
    def from_dict(d: dict) -> "CorpusEntry":
        if not isinstance(d, dict) or not isinstance(d.get("group"), str):
            raise ValueError(f'a corpus entry must be an object with a "group" file, not {d!r}')
        unknown = sorted(d.keys() - {"group", "p", "m", "n", "label"})
        if unknown:
            raise ValueError(f"unknown corpus entry key {unknown[0]!r}; "
                             f"the keys are group, p, m, n and label")
        if "p" not in d:
            raise ValueError("corpus entry key 'p' is missing")
        p, m, n = d["p"], d.get("m", 1), d.get("n", 1)
        for name, value in (("p", p), ("m", m), ("n", n)):
            if type(value) is not int:  # bool is an int subclass, and not a number here
                raise ValueError(f'"{name}" must be an integer, not {value!r}')
        label = d.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f'"label" must be a string, not {label!r}')
        return CorpusEntry(group=d["group"], p=p, m=m, n=n, label=label)


def _check_input(G, tower, block: str = "all") -> None:
    """Raise InputError unless the Sylow p-subgroup is within the subgroup
    enumeration bound and block is 'all' or the index of an L-block."""
    sylow = p_part(G.order, tower.p)
    if sylow > SUBGROUP_BOUND:
        raise InputError(f"{G.name} has a Sylow {tower.p}-subgroup of order {sylow}, over "
                         f"the subgroup enumeration bound {SUBGROUP_BOUND}")
    if block == "all":
        return
    if not block.isdecimal():
        raise InputError(f"--block must be a block index or 'all', not {block!r}")
    count = len(primitive_central_idempotents(G, tower, over_k=False))
    if int(block) >= count:
        raise InputError(f"--block {block} is out of range: {G.name} has {count} "
                         f"blocks over F_{tower.p}^{tower.n}")


def run_entry(entry: CorpusEntry, base: Path | None = None, group=None) -> dict:
    """Run every check for one corpus entry, on group when given (the group
    its file describes) and else on the group loaded from the file; never
    raises, error text is embedded instead, with its kind: "input" (group
    file, tower, or a Sylow subgroup over the enumeration bound),
    "verification" (a VerificationError) or "internal" (any other
    exception)."""
    label = entry.label or f"{entry.group}@p{entry.p}m{entry.m}n{entry.n}"

    def error(kind: str, exc: Exception) -> dict:
        return {"label": label, "error": f"{type(exc).__name__}: {exc}", "kind": kind,
                "ok": False}

    try:
        G = load_group_file(entry.group, base) if group is None else group
        tower = make_tower(entry.p, entry.m, entry.n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return error("input", exc)
    try:
        _check_input(G, tower)
        pb = principal_block(primitive_central_idempotents(G, tower, over_k=False))
        report: dict = {"label": label, "group": G.name, "order": G.order,
                        "tower": _tower_dict(tower), "blocks": blocks_report(G, tower)}
        corr = block_correspondence(G, tower)
        report["correspondence"] = {
            "orbits": [list(o) for o in corr.orbits],
            "k_block_of_orbit": list(corr.k_block_of_orbit),
            "defect_orders": list(corr.defect_orders_l),
            "bijective": corr.bijective,
            "defects_match": corr.defects_match,
        }
        verdicts = [corr.bijective, corr.defects_match]
        descents = []
        # pb is Galois-fixed, so it is the representative of its own orbit
        for b in _descent_blocks(G, tower, "all"):
            d, ctx = run_descent(G, tower, b)
            axioms_ok = True
            try:
                assert_fusion_axioms(ctx.system_l)
                if ctx.system_k is not ctx.system_l:
                    assert_fusion_axioms(ctx.system_k)
            except VerificationError:
                axioms_ok = False
            d["axioms_ok"] = axioms_ok
            descents.append(d)
            verdicts += [d["all_ok"], axioms_ok]
            if b == pb:  # the descent built pb's system at its first maximal pair
                system, sat = ctx.system_l, d["saturated"]["l"]
        report["descent"] = descents
        mp = maximal_pairs(G, tower, pb)
        root = mp.pairs[0]
        same = fusion_equal(system, group_fusion(root.subgroup, G))
        report["principal"] = {"block_index": pb.index, "sylow_order": mp.sylow.order,
                               "matches_group_fusion": same, "saturated": sat}
        verdicts += [same, sat, root.subgroup.order == mp.sylow.order]
        report["ok"] = all(verdicts)
        return report
    except InputError as exc:
        return error("input", exc)
    except VerificationError as exc:
        return error("verification", exc)
    except Exception as exc:  # error path: surface, do not crash the sweep
        return error("internal", exc)


def run_corpus(entries, base: Path | None = None) -> dict:
    """Run every entry in order.  Each group file is loaded once and its
    group is kept until the last entry that names it; a file that fails
    to load is left to run_entry, which reports the error on each entry."""
    entries = list(entries)
    last = {e.group: i for i, e in enumerate(entries)}
    groups: dict = {}
    results = []
    for i, e in enumerate(entries):
        G = groups.get(e.group)
        if G is None:
            try:
                G = groups[e.group] = load_group_file(e.group, base)
            except (OSError, ValueError, KeyError, TypeError):
                pass
        results.append(run_entry(e, base, G))
        if last[e.group] == i:
            groups.pop(e.group, None)
    return {"version": __version__, "entries": results,
            "ok": all(r.get("ok", False) for r in results)}


def load_corpus(path: Path) -> list[CorpusEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ValueError('a corpus must be a JSON object whose "entries" is a list')
    unknown = sorted(data.keys() - {"entries"})
    if unknown:
        raise ValueError(f"unknown corpus key {unknown[0]!r}; the only key is entries")
    return [CorpusEntry.from_dict(d) for d in data["entries"]]


def render_json(report: dict) -> str:
    """`json.dumps(report, sort_keys=True, indent=2, default=dict) + "\\n"`,
    byte for byte.

    With an indent the standard library encodes in Python, one small piece
    per token.  Here str, int, bool and None are written directly, and a
    `HomCounts` table is written a row at a time, joined only with the
    whole report.  Anything else (floats, tuples, non-string keys) is left
    to the standard library."""
    pieces: list[str] = []
    _json_pieces(report, "\n", pieces)
    return "".join(pieces + ["\n"])


_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_pieces(value, pad: str, out: list[str]) -> bool:
    """Append the JSON text of value to out; return whether it went in as
    several pieces, which it does only if value is or holds a `HomCounts`.
    pad, a newline and the indentation of value's first line, starts each
    of its other lines."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
        return False
    if kind is HomCounts:
        value.json_pieces(pad, out)
        return True
    if kind is list:
        brackets = "[]"
    elif kind is dict and {*map(type, value)} <= {str}:
        brackets = "{}"
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", pad))
        return False
    if not value:
        out.append(brackets)
        return False
    inner = pad + "  "
    sep = "," + inner
    pieces = [brackets[0], inner]
    split = False
    if kind is list:
        for v in value:
            split |= _json_pieces(v, inner, pieces)
            pieces.append(sep)
    else:
        key = _JSON_SCALARS[str]
        for k, v in sorted(value.items()):
            pieces += (key(k), ": ")
            split |= _json_pieces(v, inner, pieces)
            pieces.append(sep)
    pieces[-1] = pad  # in place of the separator after the last item
    pieces.append(brackets[1])
    # joined unless split, so that small pieces do not all live until the final join
    out += pieces if split else ["".join(pieces)]
    return split


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, Mapping):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix} = {value}")
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix} = {value}")


def render_table(report: dict) -> str:
    lines: list[str] = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def _input_error(message: str) -> int:
    """Report bad command-line input on one stderr line; exit code 2."""
    sys.stderr.write(f"blockfuse: error: {message}\n")
    return 2


def _emit(report: dict, fmt: str) -> None:
    text = render_json(report) if fmt == "json" else render_table(report)
    sys.stdout.write(text)


def _add_common(parser) -> None:
    parser.add_argument("--group", required=True, help="group description file or builtin:<name>")
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--format", choices=("json", "table"), default="json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blockfuse",
                                     description="blocks, Brauer pairs and fusion systems "
                                                 "of finite-group algebras over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_blocks = sub.add_parser("blocks", help="block idempotents and defect groups")
    _add_common(p_blocks)

    p_fusion = sub.add_parser("fusion", help="block fusion systems and saturation")
    _add_common(p_fusion)
    p_fusion.add_argument("--block", default="all", help="block index or 'all'")

    p_descent = sub.add_parser("descent", help="Galois-descent verification for one tower")
    _add_common(p_descent)
    p_descent.add_argument("--block", default="all", help="L-block index or 'all' (orbit reps)")

    p_verify = sub.add_parser("verify", help="run a corpus and aggregate the verdicts")
    p_verify.add_argument("--corpus", default=None, help="corpus file (default: shipped corpus)")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")

    args = parser.parse_args(argv)

    if args.command == "verify":
        corpus_path = Path(args.corpus) if args.corpus else default_corpus_path()
        try:
            entries = load_corpus(corpus_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _input_error(f"corpus {corpus_path}: {type(exc).__name__}: {exc}")
        report = run_corpus(entries, base=corpus_path.parent)
        _emit(report, args.format)
        kinds = {e.get("kind") for e in report["entries"]}
        if kinds & {"verification", "internal"}:
            return 3
        if "input" in kinds:
            return 2
        return 0 if report["ok"] else 1

    # Bad input exits 2, a failed theorem check 3; exit 1 is a false
    # verdict.  Only the --block range waits for the (memoized) L-blocks,
    # which every report computes first; the Sylow bound needs |G| only.
    block = getattr(args, "block", "all")
    try:
        tower = make_tower(args.p, args.m, args.n)
    except ValueError as exc:
        return _input_error(str(exc))
    try:
        G = load_group_file(args.group)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _input_error(f"group {args.group}: {type(exc).__name__}: {exc}")
    try:
        _check_input(G, tower, block)
        if args.command == "blocks":
            report = blocks_report(G, tower)
        elif args.command == "fusion":
            report = fusion_report(G, tower, block)
        else:
            report = descent_report(G, tower, block)
    except InputError as exc:
        return _input_error(str(exc))
    except VerificationError as exc:
        sys.stderr.write(f"blockfuse: error: VerificationError: {exc}\n")
        return 3
    _emit(report, args.format)
    return 0 if report.get("all_ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
