"""Command-line interface: group-file ingestion, per-command reports, and
corpus verification with deterministic machine-readable output.

All reports are JSON; `--format table` is a rendering of the same data.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .algebra import (VerificationError, augmentation, is_k_rational,
                      primitive_central_idempotents, principal_block)
from .brauer import maximal_pairs
from .descent import block_correspondence, galois_orbit, run_descent
from .fusion import (assert_fusion_axioms, block_fusion, fusion_equal, group_fusion,
                     saturation_report)
from .gf import make_tower
from .groups import SUBGROUP_BOUND, build_group, p_part
from . import __version__


class InputError(ValueError):
    """Bad input that only shows once the group and tower are known."""


def _builtin_path(name: str) -> Path:
    return Path(str(resources.files("blockfuse").joinpath("data", "groups", f"{name}.json")))


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
    """Greedy generating subset of a finite set of automorphisms."""
    maps = sorted(aut_maps, key=lambda m: m.images)
    if not maps:
        return []
    identity = next(m for m in maps if m.images == m.domain.elems)
    gens: list = []
    generated = {identity.images}
    for m in maps:
        if m.images in generated:
            continue
        gens.append(m)
        frontier = [identity]
        generated = {identity.images}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = g.compose(cur)
                if nxt.images not in generated:
                    generated.add(nxt.images)
                    frontier.append(nxt)
        if len(generated) == len(maps):
            break
    return gens


def _fusion_system_report(G, tower, block) -> dict:
    mp = maximal_pairs(G, tower, block)
    root = mp.pairs[0]
    system = block_fusion(G, tower, block, root)
    P = root.subgroup
    sat = saturation_report(system)
    # "Q|R" keys inserted in the order render_json sorts them into: rows by
    # label + "|" ("|" sorts after every digit and ","), columns by label
    labels = [",".join(map(str, Q.elems)) for Q in system.subgroups]
    rows = sorted(range(len(labels)), key=lambda i: labels[i] + "|")
    cols = sorted(range(len(labels)), key=labels.__getitem__)
    col_labels = [labels[j] for j in cols]
    hom_counts: dict[str, int] = {}
    for i, counts in zip(rows, system.hom_count_matrix()[np.ix_(rows, cols)].tolist()):
        hom_counts.update(zip(map((labels[i] + "|").__add__, col_labels), counts))
    return {
        "block_index": block.index,
        "defect_order": mp.defect_order,
        "maximal_pairs": [{"P": list(pr.subgroup.elems), "e": pr.block.index,
                           "defect_order": mp.defect_order} for pr in mp.pairs],
        "root": {"P": list(P.elems), "e": root.block.index},
        "aut_order": len(system.aut_set(P)),
        "aut_generators": [list(m.images) for m in _generating_maps(system.aut_set(P))],
        "inner_aut_order": len(system.aut_set(P)) // sat.aut_index,
        "hom_counts": hom_counts,
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
    seen: set[int] = set()
    selected = []
    for b in l_blocks:
        if b.index not in seen:
            seen.update(x.index for x in galois_orbit(b))
            selected.append(b)
    return selected


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
    """One corpus line: a group file, a field tower, a block selector and
    the checks to run (None means all; ValueError if it names none)."""

    group: str
    p: int
    m: int = 1
    n: int = 1
    block: str = "all"
    checks: tuple[str, ...] | None = None
    label: str | None = None

    def __post_init__(self):
        if self.checks is not None:
            _check_names(self.checks)

    @staticmethod
    def from_dict(d: dict) -> "CorpusEntry":
        if not isinstance(d, dict) or not isinstance(d.get("group"), str):
            raise ValueError(f'a corpus entry must be an object with a "group" file, not {d!r}')
        checks = d.get("checks")
        if checks is not None and not isinstance(checks, list):
            raise ValueError(f'"checks" must be a list of check names, not {checks!r}')
        p, m, n = d["p"], d.get("m", 1), d.get("n", 1)
        for name, value in (("p", p), ("m", m), ("n", n)):
            if type(value) is not int:  # bool is an int subclass, and not a number here
                raise ValueError(f'"{name}" must be an integer, not {value!r}')
        label = d.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f'"label" must be a string, not {label!r}')
        return CorpusEntry(group=d["group"], p=p, m=m, n=n, block=str(d.get("block", "all")),
                           checks=None if checks is None else tuple(checks), label=label)

    def wants(self, check: str) -> bool:
        return self.checks is None or check in self.checks


ALL_CHECKS = ("blocks", "correspondence", "principal", "descent")


def _check_names(names) -> tuple[str, ...]:
    """names as a tuple; ValueError if it is empty or a name is not in
    ALL_CHECKS."""
    names = tuple(names)
    if not names:
        raise ValueError(f"no check selected; the checks are {', '.join(ALL_CHECKS)}")
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r}; the checks are {', '.join(ALL_CHECKS)}")
    return names


def _check_input(G, tower, block: str) -> None:
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
    """Run every requested check for one corpus entry, on group when given
    (the group its file describes) and else on the group loaded from the
    file; never raises, error text is embedded instead, with its kind:
    "input" (group file, tower, block selector or range, or a Sylow
    subgroup over the enumeration bound), "verification" (a
    VerificationError) or "internal" (any other exception)."""
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
        _check_input(G, tower, entry.block)
        report: dict = {"label": label, "group": G.name, "order": G.order,
                        "tower": _tower_dict(tower)}
        verdicts = []
        if entry.wants("blocks"):
            report["blocks"] = blocks_report(G, tower)
        if entry.wants("correspondence"):
            corr = block_correspondence(G, tower)
            report["correspondence"] = {
                "orbits": [list(o) for o in corr.orbits],
                "k_block_of_orbit": list(corr.k_block_of_orbit),
                "defect_orders": list(corr.defect_orders_l),
                "bijective": corr.bijective,
                "defects_match": corr.defects_match,
            }
            verdicts += [corr.bijective, corr.defects_match]
        if entry.wants("principal"):
            l_blocks = primitive_central_idempotents(G, tower, over_k=False)
            pb = principal_block(l_blocks)
            mp = maximal_pairs(G, tower, pb)
            root = mp.pairs[0]
            system = block_fusion(G, tower, pb, root)
            same = fusion_equal(system, group_fusion(root.subgroup, G))
            sat = saturation_report(system).saturated
            report["principal"] = {"block_index": pb.index, "sylow_order": mp.sylow.order,
                                   "matches_group_fusion": same, "saturated": sat}
            verdicts += [same, sat, root.subgroup.order == mp.sylow.order]
        if entry.wants("descent"):
            descents = []
            for b in _descent_blocks(G, tower, entry.block):
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
            report["descent"] = descents
        report["ok"] = all(verdicts)
        return report
    except InputError as exc:
        return error("input", exc)
    except VerificationError as exc:
        return error("verification", exc)
    except Exception as exc:  # error path: surface, do not crash the sweep
        return error("internal", exc)


def _worker(payload: tuple) -> dict:
    entry_dict, base_str = payload
    base = Path(base_str) if base_str else None
    return run_entry(CorpusEntry.from_dict(entry_dict), base)


def run_corpus(entries, base: Path | None = None, jobs: int = 1) -> dict:
    """Run every entry.  Serially, each group file is loaded once and its
    group is kept until the last entry that names it; a file that fails
    to load is left to run_entry, which reports the error on each entry."""
    entries = list(entries)
    # the pool starts all of its workers up front: no more than there are entries
    jobs = min(jobs, len(entries))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # most runs start no pool
        payloads = [(e.__dict__ | {"checks": None if e.checks is None else list(e.checks)},
                     str(base) if base else "") for e in entries]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, payloads))
    else:
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
    if not isinstance(data, dict) or not isinstance(data.get("entries", []), list):
        raise ValueError('a corpus must be a JSON object whose "entries" is a list')
    return [CorpusEntry.from_dict(d) for d in data.get("entries", [])]


def render_json(report: dict) -> str:
    """`json.dumps(report, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    With an indent the standard library encodes in Python, one small piece
    per token.  Here each container joins its pieces once, str, int, bool
    and None are written directly, and a container of at least
    `_C_ENCODER_MIN` such scalars goes whole to the C encoder, whose item
    separator carries the newline and indentation.  Anything else (floats,
    tuples, non-string keys) is left to the standard library."""
    return "".join(_json_pieces(report, "\n") + ["\n"])


_C_ENCODER_MIN = 16
_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str) -> str:
    scalar = _JSON_SCALARS.get(type(value))
    return scalar(value) if scalar else "".join(_json_pieces(value, pad))


def _json_pieces(value, pad: str) -> list[str]:
    """The JSON text of value in pieces; pad, a newline and the indentation
    of value's first line, starts each of its other lines."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return [scalar(value)]
    if kind is list:
        brackets, values = "[]", value
    elif kind is dict and {*map(type, value)} <= {str}:
        brackets, values = "{}", value.values()
    else:
        return [json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)]
    if not value:
        return [brackets]
    inner = pad + "  "
    if len(value) >= _C_ENCODER_MIN and {*map(type, values)} <= _JSON_SCALARS.keys():
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        return [brackets[0], inner, text[1:-1], pad, brackets[1]]
    sep = "," + inner
    pieces = [brackets[0], inner]
    if kind is list:
        for v in value:
            pieces += (_json_text(v, inner), sep)
    else:
        key = _JSON_SCALARS[str]
        for k, v in sorted(value.items()):
            pieces += (key(k), ": ", _json_text(v, inner), sep)
    pieces[-1] = pad
    pieces.append(brackets[1])
    return pieces


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
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
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--checks", default=None,
                          help="comma-separated subset of " + ",".join(ALL_CHECKS))
    p_verify.add_argument("--format", choices=("json", "table"), default="json")

    args = parser.parse_args(argv)

    if args.command == "verify":
        if args.jobs < 1:
            return _input_error(f"--jobs must be at least 1, got {args.jobs}")
        corpus_path = Path(args.corpus) if args.corpus else default_corpus_path()
        try:
            entries = load_corpus(corpus_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _input_error(f"corpus {corpus_path}: {type(exc).__name__}: {exc}")
        if args.checks is not None:
            try:
                wanted = _check_names(args.checks.split(",") if args.checks else ())
            except ValueError as exc:
                return _input_error(f"--checks: {exc}")
            entries = [CorpusEntry(e.group, e.p, e.m, e.n, e.block, wanted, e.label)
                       for e in entries]
        report = run_corpus(entries, base=corpus_path.parent, jobs=args.jobs)
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
