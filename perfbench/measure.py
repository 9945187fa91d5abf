"""The measured phase of one benchmark run.

run.py starts this script in a process of its own, after set-up, so the
peak RSS it reports belongs to the measured phase alone.  It reads the
plan that set-up wrote, runs the workload's rounds and prints one JSON
object on its last line of output.

Untraced (``trace`` false): rounds repeat until ``seconds`` passed; the
result holds the end-to-end metrics.  Traced: an untraced pass runs for
half the time, then the same rounds run again with the tracer installed;
the result holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
LAYER_METRICS = [
    ("warc.scan_s", "s", "lower"),
    ("warc.records_per_s", "rec/s", "higher"),
    ("warc.decode_stored_ms", "ms", "lower"),
    ("cdx.parse_s", "s", "lower"),
    ("cdx.entries_per_result", "ratio", "lower"),
    ("cdx.fetch_s", "s", "lower"),
    ("cdx.build_s", "s", "lower"),
    ("cdx.bytes_ratio", "ratio", "lower"),
    ("convert.canon_s", "s", "lower"),
    ("convert.canon_us_per_rec", "us", "lower"),
    ("httpmsg.digest_s", "s", "lower"),
    ("httpmsg.split_s", "s", "lower"),
    ("convert.carc_s", "s", "lower"),
    ("convert.rarc_s", "s", "lower"),
    ("carc.write_s", "s", "lower"),
    ("rarc.write_s", "s", "lower"),
    ("carc.read_s", "s", "lower"),
    ("carc.read_mb_s", "MB/s", "higher"),
    ("carc.groups_planned_ratio", "ratio", "lower"),
    ("carc.rows_useful_ratio", "ratio", "higher"),
    ("rarc.read_s", "s", "lower"),
    ("rarc.read_mb_s", "MB/s", "higher"),
    ("rarc.split_read_amp", "ratio", "lower"),
    ("query.extract_text_s", "s", "lower"),
    ("query.extract_links_s", "s", "lower"),
    ("query.self_s", "s", "lower"),
] + [
    (f"io.{counter}.{backend}", unit, "lower")
    for counter, unit in (("bytes_read", "B"), ("seek_count", "count"), ("open_count", "count"))
    for backend in ("warc", "warc_cdx", "carc", "rarc")
] + [
    ("bench.gen_s", "s", "lower"),
    ("bench.selectivity_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def peak_rss_mb() -> float:
    """High-water RSS of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(plan: dict) -> dict:
    """A copy of the plan whose request schedule starts again from the beginning.

    Answers recorded by an earlier pass (first-round hashes) stay, so a
    later pass must reproduce them."""
    return {k: v for k, v in plan.items() if k != "_schedule"}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, traced, untraced, plan: dict, rounds: int) -> dict[str, float]:
    summary = tracer.summary()
    counts = tracer.counts
    zero = {"spans": 0, "total_s": 0.0, "self_s": 0.0}

    def get(label, key):
        return summary.get(label, zero)[key]

    def per_round(x):
        return x / rounds

    ok = [o for o in traced.ops if not o.failed and o.measurement is not None]
    backend_bytes: dict[str, int] = {}
    for o in ok:
        backend_bytes[o.backend] = backend_bytes.get(o.backend, 0) + o.measurement.bytes_read

    scan_self = get("warc.scan_warc", "self_s")
    carc_read = get("carc.read_carc", "self_s")
    rarc_read = get("rarc.read_rarc", "self_s") + get("rarc.resync", "self_s")
    split_ops = [o for o in ok if o.kind == "split"]
    cdx_bytes = os.path.getsize(plan["cdx"]) if "cdx" in plan else plan.get("_ingest_sizes", {}).get("cdx", 0)
    m = {
        "warc.scan_s": per_round(scan_self),
        "warc.records_per_s": _div(counts["warc.scan_warc.yield"], scan_self),
        "warc.decode_stored_ms": _div(get("warc.decode_stored", "total_s"), get("warc.decode_stored", "spans")) * 1e3,
        "cdx.parse_s": per_round(get("cdx.parse_cdx", "self_s")),
        "cdx.entries_per_result": _div(
            counts["cdx.parse_cdx.yield"], sum(o.records for o in ok if o.backend == "warc_cdx")
        ),
        "cdx.fetch_s": per_round(get("cdx.iter_fetch_records", "self_s")),
        "cdx.build_s": per_round(get("cdx.build_cdx", "total_s")),
        "cdx.bytes_ratio": cdx_bytes / plan["warc_bytes"],
        "convert.canon_s": per_round(get("convert.to_canonical", "total_s")),
        "convert.canon_us_per_rec": _div(get("convert.to_canonical", "total_s"), get("convert.to_canonical", "spans")) * 1e6,
        "httpmsg.digest_s": per_round(get("httpmsg.payload_digest", "total_s")),
        "httpmsg.split_s": per_round(get("httpmsg.split_http_block", "total_s")),
        "convert.carc_s": per_round(get("convert.convert:carc", "total_s")),
        "convert.rarc_s": per_round(get("convert.convert:rarc", "total_s")),
        "carc.write_s": per_round(get("carc.write_carc", "self_s")),
        "rarc.write_s": per_round(get("rarc.write_rarc", "self_s")),
        "carc.read_s": per_round(carc_read),
        "carc.read_mb_s": _div(backend_bytes.get("carc", 0) / 1e6, carc_read),
        "carc.groups_planned_ratio": _div(counts["carc.groups_planned"], counts["carc.groups_total"]),
        "carc.rows_useful_ratio": _div(counts["carc.read_carc.yield"], counts["carc.rows_planned"]),
        "rarc.read_s": per_round(rarc_read),
        "rarc.read_mb_s": _div(backend_bytes.get("rarc", 0) / 1e6, rarc_read),
        "rarc.split_read_amp": _div(
            sum(o.measurement.bytes_read for o in split_ops),
            len(split_ops) * os.path.getsize(plan["rarc"]) if "rarc" in plan else 0,
        ),
        "query.extract_text_s": per_round(get("query.extract_text", "total_s")),
        "query.extract_links_s": per_round(get("query.extract_links", "total_s")),
        "query.self_s": per_round(get("query.run_query", "self_s")),
    }
    # ingest reads only WARC files, so its I/O is booked to the warc store
    io = {(c, b): 0 for c in ("bytes_read", "seek_count", "open_count") for b in ("warc", "warc_cdx", "carc", "rarc")}
    for o in ok:
        backend = "warc" if plan["workload"] == "ingest" else o.backend
        for c in ("bytes_read", "seek_count", "open_count"):
            io[(c, backend)] += getattr(o.measurement, c)
    for (c, b), v in io.items():
        m[f"io.{c}.{b}"] = per_round(v)
    # normalized op times, so that host drift between the two passes cancels
    m["trace.overhead_ratio"] = _div(
        sum(traced.normalized(o) for o in traced.ops if not o.failed),
        sum(untraced.normalized(o) for o in untraced.ops if not o.failed),
    )
    return m


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import tracer as tracing
    import workloads as wl

    seconds = plan["seconds"]
    if not plan["trace"]:
        runner = wl.Runner()
        pass_plan = _fresh(plan)  # the pass records output sizes in it
        rounds = wl.run_rounds(runner, pass_plan, seconds, plan["min_rounds"])
        peak = peak_rss_mb()
        metrics, wall = wl.gated_metrics(runner, pass_plan)
        metrics["peak_rss_mb"] = peak
        named = wall + wl.named_metrics(runner, pass_plan)
        runs = [runner]
    else:
        untraced = wl.Runner()
        untraced_plan = _fresh(plan)
        rounds = wl.run_rounds(untraced, untraced_plan, seconds / 2, 1)
        tracer = tracing.Tracer()
        traced = wl.Runner(tracer=tracer)
        traced_plan = _fresh(untraced_plan)
        tracer.install()
        try:
            wl.run_rounds(traced, traced_plan, 0, rounds)  # exactly the untraced rounds
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced, untraced, traced_plan, rounds)
        spans_path = Path(plan["trace_dir"]) / f"spans-{plan['workload']}.tsv.gz"  # the latest traced run only
        n_spans = tracer.write(spans_path)
        named = [("trace.spans", n_spans, "count", str(spans_path))]
        runs = [untraced, traced]

    ops = [o for r in runs for o in r.ops]
    result = {
        "rounds": rounds,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "errors": [e for r in runs for e in r.errors],
        "metrics": metrics,
        "named": named,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
