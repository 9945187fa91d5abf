"""The three benchmark workloads: set-up, operation schedule and metrics.

Every workload is a closed loop with one client: an operation starts only
after the previous one returned.  A *round* is one pass over a workload's
fixed schedule of operations; the measured phase repeats rounds until its
time is up.  Each operation goes through archfmt's public API, and its
answer is compared with the other backends' answers to the same question.

* ``scan``   - large records; full-range and time-range scans on warc, carc
  and rarc, a 2-way RARC split scan, and link/text extraction.
* ``lookup`` - small records; wayback-style single-URL lookups and 30-capture
  window listings on warc_cdx and carc, in a fixed 7:3 proportion.
* ``ingest`` - the lookup corpus indexed and converted to CARC and RARC.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib
import math
import os
import random
import re
import shutil
import statistics
import string
import time
import traceback
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

bench = importlib.import_module("archfmt.bench")
cdx = importlib.import_module("archfmt.cdx")
convert = importlib.import_module("archfmt.convert")  # the package attribute is the function
iostats = importlib.import_module("archfmt.iostats")
query = importlib.import_module("archfmt.query")
rarc = importlib.import_module("archfmt.rarc")

QuerySpec, DatasetPaths = query.QuerySpec, query.DatasetPaths

# Corpus sizes.  "full" is what BENCHMARK.json runs; "tiny" is for the smoke test.
SCALES = {
    "full": {
        "scan": {"records": 600, "payload_mean": 40_000, "rows_per_block": 32, "min_rounds": 3, "setups": 3},
        "lookup": {"records": 8000, "payload_mean": 1000, "min_rounds": 10, "setups": 3},
        "ingest": {"records": 8000, "payload_mean": 1000, "min_rounds": 3, "setups": 5},
    },
    "tiny": {
        "scan": {"records": 40, "payload_mean": 4000, "rows_per_block": 8, "min_rounds": 1, "setups": 1},
        "lookup": {"records": 200, "payload_mean": 1000, "min_rounds": 1, "setups": 1},
        "ingest": {"records": 200, "payload_mean": 1000, "min_rounds": 1, "setups": 1},
    },
}

# The host is shared and its speed drifts by tens of percent over minutes, so
# gated timings are normalized by a fixed reference computation interleaved
# with the operations: an operation's normalized time is its wall time times
# REFERENCE_NOMINAL_S / the median of the REFERENCE_NEAREST reference samples
# taken closest to it.  The reference takes REFERENCE_SHARE of the op time.
REFERENCE_NOMINAL_S = 0.025  # about the reference's median on a shared 2-vCPU VM
REFERENCE_SHARE = 0.2
REFERENCE_NEAREST = 7
WINDOW_CAPTURES = 30
LOOKUP_PATTERN = "uuwuuwuuwu"  # 7 single-URL lookups : 3 window listings per round
SCAN_SELECTIVITY = 0.1


def disk_bytes_needed(workload: str, scale: str) -> int:
    """Generous estimate of the scratch bytes one run writes at once."""
    s = SCALES[scale][workload]
    payload = s["records"] * s["payload_mean"]
    # gzip WARC ~0.3x, CARC and RARC ~0.3x each, text output ~1x, sort spill ~1x
    return int(payload * 3.0) + (32 << 20)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def _reference_input() -> tuple[str, bytes]:
    rng = random.Random(12345)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9))) for _ in range(500)]
    text = "\n".join(" ".join(rng.choices(words, k=12)) for _ in range(3000))
    return text, text.encode("ascii")


_WS = re.compile(r"\s+")


def reference_seconds() -> float:
    """Time one fixed computation that mixes what archfmt spends its time on:
    deflate and inflate, SHA-1, a whitespace regex, and a Python loop that
    splits lines into fields."""
    text, blob = _reference_input()
    t0 = time.perf_counter()
    zlib.decompress(zlib.compress(blob, 3))
    hashlib.sha1(blob).digest()
    _WS.sub(" ", text)
    n = 0
    for line in text.splitlines():
        fields = line.split(" ")
        n += len(fields[0]) + int(fields[-1] > fields[0])
    return time.perf_counter() - t0


def reference_block(seconds: float) -> list[float]:
    """Reference samples filling at least `seconds` of wall time (one at least)."""
    samples = [reference_seconds()]
    while sum(samples) < seconds:
        samples.append(reference_seconds())
    return samples


def modeled_s(m) -> float:
    """The paper's cost model (10 ms per seek, 100 MiB/s transfer), in seconds."""
    return bench.modeled_ms(m) / 1000.0


# --- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int, scale: str, work_dir: Path, tracer=None) -> dict:
    """Generate the corpus and the artifacts the workload reads; return its plan."""
    s = SCALES[scale][workload]
    spec = bench.SyntheticSpec(record_count=s["records"], payload_mean_bytes=s["payload_mean"], seed=seed)
    warc_files = bench.generate_corpus(spec, work_dir / "warc")
    plan = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "records": s["records"],
        "min_rounds": s["min_rounds"],
        "work_dir": str(work_dir),
        "warc_files": warc_files,
        "warc_bytes": sum(os.path.getsize(f) for f in warc_files),
    }
    if workload == "ingest":
        return plan
    index = str(work_dir / "index.cdx")
    cdx.build_cdx(warc_files, index)
    plan["cdx"] = index
    sort = "timestamp" if workload == "scan" else "urlkey"
    plan["carc"] = convert.convert(warc_files, "carc", work_dir / "carc", sort=sort).output
    if workload == "scan":
        plan["rarc"] = convert.convert(
            warc_files, "rarc", work_dir / "rarc", rows_per_block=s["rows_per_block"]
        ).output
        with tracer.span("bench.selectivity") if tracer else nullcontext():
            (plan["time_range"],) = bench.selectivity_ranges(index, [SCAN_SELECTIVITY])
    else:
        with tracer.span("bench.selectivity") if tracer else nullcontext():
            entries = list(cdx.parse_cdx(index))
            plan["urlkeys"] = sorted({e.urlkey for e in entries})
            plan["stamps"] = sorted(cdx.parse_timestamp14(e.timestamp14) for e in entries)
    return plan


def determinism_record(plan: dict) -> dict:
    """SHA-256 of the generated WARC files and the size of every artifact."""
    rec = {
        "warc_sha256": [sha256_file(f) for f in plan["warc_files"]],
        "warc_bytes": plan["warc_bytes"],
    }
    for key in ("cdx", "carc", "rarc"):
        if key in plan:
            rec[f"{key}_bytes"] = os.path.getsize(plan[key])
    return rec


# --- the measured phase -----------------------------------------------------------

@dataclass
class Op:
    round: int
    kind: str
    backend: str
    seconds: float = 0.0
    end: float = 0.0  # perf_counter() when it returned
    records: int = 0
    measurement: Optional[object] = None
    failed: bool = False


@dataclass
class Runner:
    """Runs operations one at a time and keeps what each one cost."""

    tracer: Optional[object] = None
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    reference: list[tuple[float, float]] = field(default_factory=list)  # (when, reference_seconds())
    _owed: float = 0.0  # reference time still to run, in seconds

    def run(self, rnd: int, kind: str, backend: str, fn: Callable[[], tuple]) -> tuple[Op, object]:
        """fn returns (answer, records, measurement); the answer is what gets compared."""
        op = Op(rnd, kind, backend)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.request_id = len(self.ops)
        t0 = time.perf_counter()
        try:
            answer, op.records, op.measurement = fn()
        except Exception:
            op.failed = True
            self.errors.append(f"{kind}/{backend} round {rnd}: {traceback.format_exc(limit=3)}")
            return op, None
        op.end = time.perf_counter()
        op.seconds = op.end - t0
        self._owed += REFERENCE_SHARE * op.seconds
        if self._owed > 0:
            samples = reference_block(self._owed)
            self._owed -= sum(samples)
            now = time.perf_counter()
            self.reference.extend((now, r) for r in samples)
        return op, answer

    def normalized(self, op: Op) -> float:
        """op.seconds at nominal host speed, judged by the nearest reference samples."""
        at = bisect.bisect_left(self.reference, (op.end,))
        near = self.reference[max(0, at - REFERENCE_NEAREST // 2):][:REFERENCE_NEAREST]
        return op.seconds * REFERENCE_NOMINAL_S / statistics.median(r for _, r in near)

    def check(self, what: str, ops: list[Op], ok: bool, detail: str = "answers differ") -> None:
        """Fail every operation of the group unless ok and none of them failed."""
        if ok and not any(op.failed for op in ops):
            return
        for op in ops:
            op.failed = True
        self.errors.append(f"{what} round {ops[0].round}: {detail}")

    def agree(self, what: str, results: list[tuple[Op, object]]) -> None:
        """Fail every operation of the group unless all answers are equal."""
        shown = ", ".join(f"{op.backend}={str(a)[:16]}" for op, a in results)
        self.check(what, [op for op, _ in results], len({repr(a) for _, a in results}) == 1,
                   f"backends disagree: {shown}")


def _paths(plan) -> DatasetPaths:
    return DatasetPaths(tuple(plan["warc_files"]), plan.get("cdx"), plan.get("carc"), plan.get("rarc"))


def _query(spec, backend, paths, keep_rows=False):
    def fn():
        r = query.run_query(spec, backend, paths, keep_rows=keep_rows)
        answer = (r.record_ids_digest, sorted(r.rows)) if keep_rows else r.record_ids_digest
        return answer, r.measurement.records_out, r.measurement
    return fn


def _extract(backend, paths, extractor, out):
    def fn():
        _, m = query.scan_extract(backend, paths, extractor, out)
        return out, m.records_out, m
    return fn


def _hash_and_drop(op: Op, out: Path):
    """Replace a derived file by its hash, so text output never piles up on disk."""
    digest = None if op.failed else sha256_file(out)
    out.unlink(missing_ok=True)
    return digest


def _split_scan(path, total: int):
    """2-way split of the RARC file through resync at offsets 0 and size/2.

    resync has no end offset, so the first reader stops after the rows the
    second one does not deliver (total - len(second)); together they
    deliver every row once.
    """
    def fn():
        tracker = iostats.IoTracker()
        second = [(r[0], r[2], r[6]) for r in rarc.resync(path, os.path.getsize(path) // 2, tracker)]
        first = []
        reader = rarc.resync(path, 0, tracker)
        try:
            for row in reader:
                if len(first) == total - len(second):
                    break
                first.append((row[0], row[2], row[6]))
        finally:
            reader.close()
        return sorted(first + second), len(first) + len(second), tracker.measurement(len(first) + len(second))
    return fn


def scan_round(runner: Runner, plan: dict, rnd: int) -> None:
    paths = _paths(plan)
    work = Path(plan["work_dir"])
    full = QuerySpec("meta")
    ranged = QuerySpec("records", time_range=tuple(plan["time_range"]))
    metas, ranges = [], []
    for backend in ("warc", "carc", "rarc"):
        metas.append(runner.run(rnd, "meta", backend, _query(full, backend, paths, keep_rows=True)))
        ranges.append(runner.run(rnd, "records", backend, _query(ranged, backend, paths)))
    runner.agree("meta full range", metas)
    runner.agree("records time range", ranges)

    rarc_op, rarc_answer = metas[-1]
    rarc_rows = rarc_answer[1] if rarc_answer is not None else []
    split = runner.run(rnd, "split", "rarc", _split_scan(plan["rarc"], len(rarc_rows)))
    runner.agree("rarc split scan vs full rarc listing", [split, (rarc_op, rarc_rows)])

    links = []
    for backend in ("warc", "carc", "rarc"):
        out = work / f"links-{backend}.tsv"
        op, _ = runner.run(rnd, "links", backend, _extract(backend, paths, "links", out))
        links.append((op, _hash_and_drop(op, out)))
    runner.agree("extract links", links)

    out = work / "text-carc.tsv"
    op, _ = runner.run(rnd, "text", "carc", _extract("carc", paths, "text", out))
    text_hash = _hash_and_drop(op, out)
    # only one backend runs text extraction: it must repeat its first answer
    runner.check("extract text vs first round", [op], text_hash == plan.setdefault("_text_hash", text_hash))


def lookup_requests(plan: dict):
    """The endless seeded request schedule: (kind, QuerySpec) in LOOKUP_PATTERN order."""
    rng = random.Random(plan["seed"])
    keys, stamps = plan["urlkeys"], plan["stamps"]
    span = min(WINDOW_CAPTURES, len(stamps))
    while True:
        for kind in LOOKUP_PATTERN:
            if kind == "u":
                key = keys[rng.randrange(len(keys))]
                yield "url", QuerySpec("records", urlkeys=(key,))
            else:
                i = rng.randrange(len(stamps) - span + 1)
                yield "window", QuerySpec("meta", time_range=(stamps[i], stamps[i + span - 1]))


def lookup_round(runner: Runner, plan: dict, rnd: int) -> None:
    paths = _paths(plan)
    schedule = plan.setdefault("_schedule", lookup_requests(plan))
    for _ in LOOKUP_PATTERN:
        kind, spec = next(schedule)
        runner.agree(
            f"{kind} lookup",
            [runner.run(rnd, kind, backend, _query(spec, backend, paths)) for backend in ("warc_cdx", "carc")],
        )


@contextmanager
def _opened_trackers():
    """Collect every IoTracker that opens a file, for calls that take no tracker."""
    seen = {}
    original = iostats.IoTracker.open

    def open_(tracker, *args, **kwargs):
        seen[id(tracker)] = tracker
        return original(tracker, *args, **kwargs)

    iostats.IoTracker.open = open_
    try:
        yield seen
    finally:
        iostats.IoTracker.open = original


def _ingest_step(fn, records_of):
    def run():
        with _opened_trackers() as opened:
            result = fn()
        n = records_of(result)
        total = iostats.Measurement(records_out=n)
        for t in opened.values():
            total.bytes_read += t.bytes_read
            total.seek_count += t.seek_count
            total.open_count += t.open_count
        return result, n, total
    return run


def ingest_round(runner: Runner, plan: dict, rnd: int) -> None:
    files = plan["warc_files"]
    out = Path(plan["work_dir"]) / "ingest"
    shutil.rmtree(out, ignore_errors=True)
    index = str(out / "index.cdx")
    out.mkdir(parents=True)
    steps = [
        runner.run(rnd, "build", "cdx", _ingest_step(lambda: cdx.build_cdx(files, index), lambda n: n)),
        runner.run(rnd, "convert", "carc", _ingest_step(
            lambda: convert.convert(files, "carc", out / "carc", sort="timestamp"), lambda m: m.out_count)),
        runner.run(rnd, "convert", "rarc", _ingest_step(
            lambda: convert.convert(files, "rarc", out / "rarc"), lambda m: m.out_count)),
    ]
    runner.agree("ingest record counts", [(op, op.records) for op, _ in steps])
    if not any(op.failed for op, _ in steps):
        ops = [op for op, _ in steps]
        outputs = {"cdx": index, "carc": steps[1][1].output, "rarc": steps[2][1].output}
        sizes = {k: os.path.getsize(p) for k, p in outputs.items()}
        hashes = {k: sha256_file(p) for k, p in outputs.items()}
        plan.setdefault("_ingest_sizes", sizes)
        runner.check("ingest outputs vs first round", ops, hashes == plan.setdefault("_ingest_hashes", hashes))
        if rnd == 0 and runner.tracer is None:  # untimed, and kept out of the trace
            runner.check("ingest outputs listed by warc_cdx/carc/rarc", ops, _lists_all(plan, outputs))
    shutil.rmtree(out, ignore_errors=True)


def _lists_all(plan, outputs) -> bool:
    """The new CDX, CARC and RARC give the same full listing of every record."""
    paths = DatasetPaths(tuple(plan["warc_files"]), outputs["cdx"], outputs["carc"], outputs["rarc"])
    results = [query.run_query(QuerySpec("meta"), b, paths, keep_rows=False) for b in ("warc_cdx", "carc", "rarc")]
    return (len({r.record_ids_digest for r in results}) == 1
            and all(r.measurement.records_out == plan["records"] for r in results))


ROUNDS = {"scan": scan_round, "lookup": lookup_round, "ingest": ingest_round}


def run_rounds(runner: Runner, plan: dict, seconds: float, min_rounds: int) -> int:
    """Closed loop: repeat rounds until `seconds` passed and `min_rounds` ran."""
    round_fn = ROUNDS[plan["workload"]]
    t0 = time.perf_counter()
    rnd = 0
    while rnd < min_rounds or time.perf_counter() - t0 < seconds:
        round_fn(runner, plan, rnd)
        rnd += 1
    return rnd


# --- metrics -----------------------------------------------------------------------

def _rate(ops) -> float:
    secs = sum(o.seconds for o in ops)
    return sum(o.records for o in ops) / secs if secs else 0.0


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _typical(ops: list[Op], seconds_of) -> tuple[float, float]:
    """(a typical round in s, geometric mean over operation classes of the class median in ms).

    The typical round takes each operation class (kind x backend) at its
    median, as often as a round runs it; the geometric mean weighs every
    class the same, whatever its size."""
    by_class: dict[tuple[str, str], list[float]] = {}
    for o in ops:
        by_class.setdefault((o.kind, o.backend), []).append(seconds_of(o))
    if not by_class:
        return 0.0, 0.0
    rounds = len({o.round for o in ops})
    round_s = sum(statistics.median(v) * len(v) for v in by_class.values()) / rounds
    gmean_ms = math.exp(statistics.fmean(math.log(statistics.median(v) * 1000.0) for v in by_class.values()))
    return round_s, gmean_ms


def gated_metrics(runner: Runner, plan: dict) -> tuple[dict[str, float], list[tuple]]:
    """The workload-independent metrics BENCHMARK.json gates (all but set-up and
    memory), and as printed figures the same timings in wall time."""
    ok = [o for o in runner.ops if not o.failed]
    round_norm_s, gmean_norm_ms = _typical(ok, runner.normalized)
    round_s, gmean_ms = _typical(ok, lambda o: o.seconds)
    # modeled cost per round over the rounds every run completes, so it depends on the seed only
    first = [o for o in ok if o.round < plan["min_rounds"] and o.measurement is not None]
    carc_bytes = os.path.getsize(plan["carc"]) if "carc" in plan else plan.get("_ingest_sizes", {}).get("carc", 0)
    gated = {
        "round_norm_s": round_norm_s,
        "op_norm_ms_gmean": gmean_norm_ms,
        "modeled_s": sum(modeled_s(o.measurement) for o in first) / plan["min_rounds"],
        "carc_bytes_ratio": carc_bytes / plan["warc_bytes"],
    }
    refs = [r for _, r in runner.reference]
    wall = [
        ("round_s", round_s, "s", "wall"),
        ("op_ms_gmean", gmean_ms, "ms", "wall"),
        ("reference_ms", statistics.median(refs) * 1000.0 if refs else 0.0, "ms", f"median of {len(refs)} samples"),
    ]
    return gated, wall


def named_metrics(runner: Runner, plan: dict) -> list[tuple[str, float, str, str]]:
    """The workload's own headline figures: (name, value, unit, note)."""
    ok = [o for o in runner.ops if not o.failed]
    wl = plan["workload"]
    out = []
    if wl == "scan":
        for b in ("warc", "carc", "rarc"):
            qs = [o for o in ok if o.backend == b and o.kind in ("meta", "records", "split")]
            out.append((f"scan_rec_s.{b}", _rate(qs), "rec/s", f"{len(qs)} queries"))
        links = [o for o in ok if o.kind == "links"]
        text = [o for o in ok if o.kind == "text"]
        out.append(("extract_links_docs_s", _rate(links), "docs/s", f"{len(links)} extracts, 3 backends"))
        out.append(("extract_text_docs_s", _rate(text), "docs/s", f"{len(text)} extracts, carc"))
        out.append(("rarc_bytes_ratio", os.path.getsize(plan["rarc"]) / plan["warc_bytes"], "ratio", "multi-row blocks"))
    elif wl == "lookup":
        for b in ("warc_cdx", "carc"):
            ms = [o.seconds * 1000.0 for o in ok if o.backend == b]
            if ms:
                out.append((f"query_ms_p50.{b}", statistics.median(ms), "ms", f"n={len(ms)}"))
                out.append((f"query_ms_p90.{b}", _p90(ms), "ms", f"n={len(ms)}"))
            for kind in ("url", "window"):
                ms = [o.seconds * 1000.0 for o in ok if o.backend == b and o.kind == kind]
                if ms:
                    out.append((f"query_ms_p50.{b}.{kind}", statistics.median(ms), "ms", f"n={len(ms)}"))
    else:
        secs = sum(o.seconds for o in ok)
        done = sum(1 for o in ok if o.kind == "build")
        out.append(("ingest_rec_s", plan["records"] * done / secs if secs else 0.0, "rec/s",
                    f"{done} x (index + CARC + RARC) of {plan['records']} records"))
        sizes = plan.get("_ingest_sizes", {})
        if "rarc" in sizes:
            out.append(("rarc_bytes_ratio", sizes["rarc"] / plan["warc_bytes"], "ratio", "default layout"))
    return out
