"""One cold blockfuse invocation of the benchmark ladder.

Usage: python3 perfbench/child.py '<job JSON>'   (run.py builds the job)

Set-up imports blockfuse from the job's source tree and loads the input
group or corpus.  The timed report phase then does what the CLI does with
those inputs (builds the field tower, computes and renders the report)
and every output is described for run.py to check.  Prints one JSON line: the monotonic time at which the
inputs were ready, the report time, each operation's latency, digests
of its report bytes and of its labelling-free summary, its verdict, peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _blocks_summary(report: dict) -> dict:
    def rows(blocks):
        return sorted([b["defect_order"], b["k_rational"], b["principal"]] for b in blocks)

    out = {"blocks": rows(report["blocks"]),
           "orbit_sizes": sorted(len(o) for o in report["orbits"])}
    if "k_blocks" in report:
        out["k_blocks"] = rows(report["k_blocks"])
    return out


def _fusion_summary(report: dict) -> dict:
    systems = [[s["defect_order"], s["aut_order"], s["inner_aut_order"], s["saturated"],
                s["sylow_axiom"], s["extension_axiom"], sorted(s["hom_counts"].values())]
               for s in report["systems"]]
    return {"systems": sorted(systems)}


def _descent_summary(d: dict) -> dict:
    keep = ("defect_order", "orbit_size", "stabilizers", "index", "verdicts", "saturated",
            "index_expressions", "all_ok", "axioms_ok")
    return {k: d[k] for k in keep if k in d}


def _sorted_by_json(items: list) -> list:
    return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))


def _entry_summary(entry: dict) -> dict:
    out = {"ok": entry.get("ok"), "error": entry.get("error")}
    if "blocks" in entry:
        out["blocks"] = _blocks_summary(entry["blocks"])
    if "correspondence" in entry:
        c = entry["correspondence"]
        out["correspondence"] = {"bijective": c["bijective"],
                                 "defects_match": c["defects_match"],
                                 "defect_orders": sorted(c["defect_orders"]),
                                 "orbit_sizes": sorted(len(o) for o in c["orbits"])}
    if "principal" in entry:
        pr = entry["principal"]
        out["principal"] = {k: pr[k] for k in ("sylow_order", "matches_group_fusion",
                                               "saturated")}
    if "descent" in entry:
        out["descent"] = _sorted_by_json([_descent_summary(d) for d in entry["descent"]])
    return out


def summarize(kind: str, report: dict) -> tuple[dict, bool]:
    """Labelling-free summary of a report and whether its verdicts hold."""
    if kind == "blocks":
        return _blocks_summary(report), True
    if kind == "fusion":
        return _fusion_summary(report), True
    return ({"descents": _sorted_by_json([_descent_summary(d) for d in report["descents"]]),
             "all_ok": report["all_ok"]}, report["all_ok"] is True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary_digest(summary: dict) -> str:
    return _digest(json.dumps(summary, sort_keys=True))


def _run_corpus(cli, entries, base: Path) -> tuple[float, list[dict]]:
    latencies: list[float] = []
    run_entry = cli.run_entry

    def timed_entry(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_entry(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    cli.run_entry = timed_entry
    try:
        start = time.perf_counter()
        report = cli.run_corpus(entries, base=base)
        cli.render_json(report)
        report_s = time.perf_counter() - start
    finally:
        cli.run_entry = run_entry
    ops = [{"key": e["label"], "latency_s": lat, "sha256": _digest(cli.render_json(e)),
            "summary_sha256": _summary_digest(_entry_summary(e)), "ok": e.get("ok") is True,
            "error": e.get("error")}
           for e, lat in zip(report["entries"], latencies, strict=True)]
    return report_s, ops


def _run_report(cli, gf, job: dict, G) -> tuple[float, list[dict]]:
    make_report = {"blocks": cli.blocks_report, "fusion": cli.fusion_report,
                   "descent": cli.descent_report}[job["kind"]]
    start = time.perf_counter()
    try:
        tower = gf.make_tower(job["p"], job["m"], job["n"])
        text = cli.render_json(make_report(G, tower))
    except Exception as exc:  # a failed operation is counted, not fatal
        text, error = None, f"{type(exc).__name__}: {exc}"
    report_s = time.perf_counter() - start
    if text is None:
        op = {"sha256": None, "summary_sha256": None, "ok": False, "error": error}
    else:
        summary, ok = summarize(job["kind"], json.loads(text))
        op = {"sha256": _digest(text), "summary_sha256": _summary_digest(summary), "ok": ok,
              "error": None}
    return report_s, [{"key": "report", "latency_s": report_s, **op}]


def main(job: dict) -> dict:
    if sys.flags.optimize:
        raise SystemExit("refusing to run under -O: blockfuse keeps bookkeeping in asserts")
    import blockfuse
    from blockfuse import cli, gf

    src = Path(job["src"]).resolve()
    if src not in Path(blockfuse.__file__).resolve().parents:
        raise SystemExit(f"blockfuse imported from {blockfuse.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(blockfuse)

    if job["kind"] == "corpus":
        corpus = Path(job["corpus"])
        entries = cli.load_corpus(corpus)
        ready = time.monotonic()
        report_s, ops = _run_corpus(cli, entries, corpus.parent)
    else:
        G = cli.load_group_file(job["group"])
        if G.order != job["order"]:
            raise SystemExit(f"{job['group']}: group of order {G.order}, "
                             f"expected {job['order']}")
        ready = time.monotonic()
        report_s, ops = _run_report(cli, gf, job, G)
    result = {"ready": ready, "report_s": report_s, "ops": ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "numpy": sys.modules["numpy"].__version__}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(job["spans_out"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
