"""Synthetic corpora, the task suite, and report generation.

All randomness flows from one seed, so a given spec always produces
byte-identical WARC files.  Benchmark cells record measured I/O plus a
modeled runtime (seek cost + transfer cost) so scan-vs-seek crossovers can
be analyzed independently of the host's cache behaviour.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import gzip
import random
import statistics
import string
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import cdx, iostats, query, warc
from .carc import ordered_map
from .convert import utc_fields
from .errors import BadCsv, EquivalenceFailure, IoFailure, Unachievable
from .iostats import Measurement
from .query import DatasetPaths, QuerySpec

TASKS = ("t1", "t2", "t3", "t4", "t5", "t6", "single_url")
CSV_HEADER = [
    "task", "backend", "selectivity", "repeat", "wall_ms", "bytes_read",
    "seek_count", "open_count", "records_out", "modeled_ms", "dataset_bytes",
]

_FILE_BYTES = 100 << 20  # split WARC output at ~100 MiB compressed
_RUN_BYTES = 256 << 10  # the serialized records generate_corpus gzips as one unit

# 2018-05-20T00:00:00Z .. 2018-05-23T00:00:00Z
_DEFAULT_RANGE = (1526774400000, 1527033600000)


@dataclass(frozen=True)
class SyntheticSpec:
    record_count: int
    domain_count: int = 50
    payload_mean_bytes: int = 4096
    html_fraction: float = 0.9
    time_range: tuple[int, int] = _DEFAULT_RANGE
    template_redundancy: float = 0.7
    seed: int = 42


def _iso_of_sec(sec: int) -> str:
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % utc_fields(sec * 1000)[:6]


def _take(data: bytes, offset: int, n: int) -> bytes:
    """n bytes from a circular buffer."""
    offset %= len(data)
    out = data[offset : offset + n]
    while len(out) < n:
        out += data[: n - len(out)]
    return out


class _Synth:
    """All derived generator state for one spec (deterministic)."""

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        rng = self.rng = random.Random(spec.seed)
        vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
                 for _ in range(800)]
        self.pool = (" ".join(rng.choices(vocab, k=400_000))).encode("ascii")
        self.templates = [
            (" ".join(rng.choices(vocab, k=2500))).encode("ascii") for _ in range(12)
        ]
        url_pool_size = max(1, spec.record_count // 3)
        self.urls = []
        for i in range(url_pool_size):
            domain = f"site{rng.randrange(max(1, spec.domain_count))}.example"
            depth = rng.randint(1, 3)
            path = "/".join(rng.choices(vocab, k=depth))
            self.urls.append(f"http://{domain}/{path}-{i}.html")

    def record(self, i: int) -> warc.WarcRecord:
        rng, spec = self.rng, self.spec
        url = self.urls[rng.randrange(len(self.urls))]
        lo_s, hi_s = spec.time_range[0] // 1000, spec.time_range[1] // 1000
        sec = rng.randrange(lo_s, hi_s + 1)
        is_html = int((i + 1) * spec.html_fraction) > int(i * spec.html_fraction)

        mean = spec.payload_mean_bytes
        sigma = 0.5
        size = int(rng.lognormvariate(math.log(mean) - sigma * sigma / 2, sigma))
        size = max(200, min(size, mean * 8))
        red = int(size * spec.template_redundancy)
        template = self.templates[rng.randrange(len(self.templates))]
        shared = _take(template, rng.randrange(len(template)), red)
        unique = _take(self.pool, rng.randrange(len(self.pool)), max(0, size - red))

        if is_html:
            anchors = b"".join(
                f'<a href="{self.urls[rng.randrange(len(self.urls))]}">{k}</a> '.encode("ascii")
                for k in range(rng.randint(1, 5))
            )
            body = (
                b"<html><head><title>page</title></head><body><p>"
                + shared + b"</p><p>" + unique + b"</p>" + anchors + b"</body></html>"
            )
            mime = "text/html"
        else:
            body = shared + unique
            mime = "text/plain"

        http = (
            f"HTTP/1.1 200 OK\r\nContent-Type: {mime}; charset=UTF-8\r\n"
            f"Content-Length: {len(body)}\r\nServer: synth/1.0\r\n\r\n"
        ).encode("ascii") + body
        record_id = f"<urn:uuid:{uuid.UUID(bytes=rng.randbytes(16), version=4)}>"
        return warc.make_record(
            record_id=record_id,
            record_type="response",
            target_uri=url,
            warc_date=_iso_of_sec(sec),
            content_type="application/http; msgtype=response",
            block=http,
        )


def generate_corpus(spec: SyntheticSpec, out_dir) -> list[str]:
    """Write the corpus as member-gzip WARC files, ~100 MiB compressed each.
    Each record is gzipped alone (mtime 0) through carc.ordered_map, in runs
    of _RUN_BYTES, so the files hold the same bytes at any thread count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    synth = _Synth(spec)
    paths: list[str] = []
    out = None
    written = 0

    def runs() -> Iterator[list[bytes]]:
        run, size = [], 0
        for i in range(spec.record_count):
            run.append(warc.serialize_record(synth.record(i)))
            size += len(run[-1])
            if size >= _RUN_BYTES:
                yield run
                run, size = [], 0
        if run:
            yield run

    try:
        def open_next():
            nonlocal out, written
            if out is not None:
                out.close()
            path = out_dir / f"corpus-{spec.seed}-{len(paths):03d}.warc.gz"
            paths.append(str(path))
            out = open(path, "wb")
            written = 0
            return out

        out = open_next()
        batches = ordered_map(lambda run: [gzip.compress(r, compresslevel=warc.GZIP_LEVEL, mtime=0) for r in run],
                              runs(), lambda run: sum(map(len, run)))
        for batch in batches:
            for member in batch:
                if written and written + len(member) > _FILE_BYTES:
                    out = open_next()
                out.write(member)
                written += len(member)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    finally:
        if out is not None:
            out.close()
    return paths


# --- selectivity derivation ---------------------------------------------------

def _index_stats(cdx_path) -> tuple[list[int], Counter]:
    """What the selectivities derive from, in one parse of a CDX: every
    line's timestamp, sorted, and the lines of each urlkey, in first-seen order."""
    stamps, counts = [], Counter()
    for e in cdx.parse_cdx(cdx_path):
        stamps.append(e.timestamp)
        counts[e.urlkey] += 1
    stamps.sort()
    return stamps, counts


def selectivity_ranges(cdx_path, targets: Sequence[float]) -> list[tuple[int, int]]:
    """Time ranges whose matched fraction is within 10% relative of each target."""
    return _ranges_of(_index_stats(cdx_path)[0], targets)


def _ranges_of(stamps: list[int], targets: Sequence[float]) -> list[tuple[int, int]]:
    n = len(stamps)
    out = []
    for s in targets:
        if n == 0 or s < 1.0 / n:
            raise Unachievable(f"selectivity {s} below 1/{n}")
        if s >= 1.0:
            out.append((stamps[0], stamps[-1]))
            continue
        k = max(1, round(s * n))
        for _ in range(64):
            start = (n - k) // 2
            lo, hi = stamps[start], stamps[start + k - 1]
            matched = bisect.bisect_right(stamps, hi) - bisect.bisect_left(stamps, lo)
            frac = matched / n
            if abs(frac - s) <= 0.1 * s:
                break
            k = max(1, k - 1) if frac > s else k + 1
            if k > n:
                raise Unachievable(f"selectivity {s} not reachable")
        else:
            raise Unachievable(f"selectivity {s} not reachable within tolerance")
        out.append((lo, hi))
    return out


def selectivity_url_lists(cdx_path, targets: Sequence[float], seed: int = 0) -> list[tuple[str, ...]]:
    """URL-key lists hitting each target selectivity, sampled deterministically."""
    return _url_lists_of(_index_stats(cdx_path)[1], targets, seed)


def _url_lists_of(counts: Counter, targets: Sequence[float], seed: int) -> list[tuple[str, ...]]:
    total = counts.total()
    keys = list(counts)
    random.Random(seed).shuffle(keys)
    out = []
    for s in targets:
        if total == 0 or s < 1.0 / total:
            raise Unachievable(f"selectivity {s} below 1/{total}")
        want = s * total
        picked, got = [], 0
        for k in keys:
            if got >= want:
                break
            picked.append(k)
            got += counts[k]
        out.append(tuple(picked))
    return out


# --- suite runner ---------------------------------------------------------------

@dataclass
class SuiteConfig:
    paths: DatasetPaths
    out_csv: str  # scan_extract outputs go beside it
    backends: tuple[str, ...] = query.BACKENDS
    tasks: tuple[str, ...] = TASKS
    selectivities: tuple[float, ...] = (0.001, 0.01, 0.1, 0.5, 1.0)
    repeats: int = 3
    extractor: str = "links"
    seed: int = 0


def modeled_ms(m: Measurement) -> float:
    """m's cost under the paper's model (iostats.SEEK_MS a seek, iostats.MB_PER_S of transfer), in ms."""
    return m.seek_count * iostats.SEEK_MS + m.bytes_read / (iostats.MB_PER_S * (1 << 20)) * 1000.0


def _dataset_bytes(backend: str, paths: DatasetPaths) -> int:
    return sum(Path(f).stat().st_size for f in paths.files(backend))


def _task_specs(task: str, config: SuiteConfig, index) -> list[tuple[float, Optional[QuerySpec]]]:
    """(selectivity, spec) pairs for one task; spec None marks scan_extract.
    index() gives the suite's _index_stats of its CDX."""
    if task == "t1":
        return [(1.0, QuerySpec("count"))]
    if task == "t6":
        return [(1.0, None)]
    if config.paths.cdx is None:
        raise EquivalenceFailure("predicated tasks need a CDX index to derive selectivities")
    stamps, counts = index()
    kind = "meta" if task in ("t2", "t3") else "records"
    if task in ("t2", "t4"):
        ranges = _ranges_of(stamps, config.selectivities)
        return [(s, QuerySpec(kind, time_range=r)) for s, r in zip(config.selectivities, ranges)]
    if task in ("t3", "t5"):
        lists = _url_lists_of(counts, config.selectivities, config.seed)
        return [(s, QuerySpec(kind, urlkeys=u)) for s, u in zip(config.selectivities, lists)]
    if task == "single_url":
        total = counts.total()
        key = sorted(counts)[random.Random(config.seed).randrange(len(counts))]
        return [(counts[key] / total, QuerySpec("records", urlkeys=(key,)))]
    raise EquivalenceFailure(f"unknown task {task!r}")


def _run_cell(
    task: str, spec: Optional[QuerySpec], backend: str, config: SuiteConfig
) -> tuple[Measurement, str]:
    if spec is None:  # t6: scan_extract
        work = Path(config.out_csv).parent
        work.mkdir(parents=True, exist_ok=True)
        out = work / f"derived-{task}-{backend}.tsv"
        _, m = query.scan_extract(backend, config.paths, config.extractor, out)
        return m, _file_digest(out)
    result = query.run_query(spec, backend, config.paths, keep_rows=False)
    return result.measurement, result.record_ids_digest


def _file_digest(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_suite(config: SuiteConfig) -> str:
    """Run every (task, backend, selectivity) cell; one CSV row per repeat.

    Before a cell is recorded, all backends of the cell must agree on the
    matched-record digest; disagreement aborts the cell with
    EquivalenceFailure.
    """
    rows = []
    index = functools.cache(lambda: _index_stats(config.paths.cdx))  # the CDX is parsed once a suite
    for task in config.tasks:
        for selectivity, spec in _task_specs(task, config, index):
            cell: list[list] = []
            digests: dict[str, str] = {}
            for backend in config.backends:
                for repeat in range(config.repeats):
                    m, digest = _run_cell(task, spec, backend, config)
                    if backend in digests and digests[backend] != digest:
                        raise EquivalenceFailure(
                            f"{task}@{selectivity}: {backend} not deterministic across repeats"
                        )
                    digests[backend] = digest
                    cell.append(
                        [
                            task,
                            backend,
                            f"{selectivity:g}",
                            repeat,
                            f"{m.wall_ms:.3f}",
                            m.bytes_read,
                            m.seek_count,
                            m.open_count,
                            m.records_out,
                            f"{modeled_ms(m):.3f}",
                            _dataset_bytes(backend, config.paths),
                        ]
                    )
            if len(set(digests.values())) > 1:
                raise EquivalenceFailure(f"{task}@{selectivity}: backends disagree: {digests}")
            rows.extend(cell)

    with open(config.out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return config.out_csv


# --- reporting ------------------------------------------------------------------

_PALETTE = {
    "warc": "#1f77b4",
    "warc_cdx": "#ff7f0e",
    "carc": "#2ca02c",
    "rarc": "#d62728",
}

# published full-scale sizes (TB) for the equivalent formats, used as a
# reference column in the size table
REFERENCE_SIZES_TB = {"warc": 0.985, "warc_cdx": 0.998, "rarc": 1.321, "carc": 0.914}


def _svg_chart(task: str, series: dict[str, list[tuple[float, float]]]) -> str:
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    ys = [max(y, 1e-3) for y in ys]
    x_lo, x_hi = math.log10(min(xs)), math.log10(max(xs))
    y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(x):
        return ml + (math.log10(x) - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        y = max(y, 1e-3)
        return height - mb - (math.log10(y) - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2}" y="24" text-anchor="middle" font-size="16">{task}: runtime vs selectivity</text>',
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>',
        f'<text x="{width/2}" y="{height-12}" text-anchor="middle" font-size="12">selectivity (log)</text>',
        f'<text x="16" y="{height/2}" font-size="12" transform="rotate(-90 16 {height/2})" text-anchor="middle">wall ms (log)</text>',
    ]
    for d in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        x = px(10 ** d)
        if ml <= x <= width - mr:
            parts.append(f'<line x1="{x:.1f}" y1="{height-mb}" x2="{x:.1f}" y2="{mt}" stroke="#ddd"/>')
            parts.append(f'<text x="{x:.1f}" y="{height-mb+16}" text-anchor="middle" font-size="10">1e{d}</text>')
    for d in range(math.floor(y_lo), math.ceil(y_hi) + 1):
        y = py(10 ** d)
        if mt <= y <= height - mb:
            parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{width-mr}" y2="{y:.1f}" stroke="#ddd"/>')
            parts.append(f'<text x="{ml-6}" y="{y+3:.1f}" text-anchor="end" font-size="10">1e{d}</text>')
    legend_y = mt + 8
    for backend, pts in sorted(series.items()):
        color = _PALETTE.get(backend, "#777")
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<rect x="{width-mr-150}" y="{legend_y-9}" width="12" height="12" fill="{color}"/>'
            f'<text x="{width-mr-132}" y="{legend_y+2}" font-size="12">{backend}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts)


def _report_row(csv_path, line: int, row: list[str]) -> dict:
    """A bench CSV row by column, with the numbers the report reads parsed;
    BadCsv at csv:line unless it has every column, finite numbers, a byte
    count of at most 63 bits and a selectivity above 0, as the chart's log
    scale needs."""
    if len(row) != len(CSV_HEADER):
        raise BadCsv(f"{csv_path}:{line}: {len(row)} fields, not {len(CSV_HEADER)}")
    r = dict(zip(CSV_HEADER, row))
    floats = ("selectivity", "wall_ms", "modeled_ms")
    try:
        r.update({name: float(r[name]) for name in floats}, dataset_bytes=int(r["dataset_bytes"]))
    except ValueError as exc:
        raise BadCsv(f"{csv_path}:{line}: {exc}") from None
    if not (all(math.isfinite(r[name]) for name in floats) and r["selectivity"] > 0
            and 0 <= r["dataset_bytes"] < 1 << 63):
        raise BadCsv(f"{csv_path}:{line}: selectivity {r['selectivity']}, wall_ms {r['wall_ms']}, "
                     f"modeled_ms {r['modeled_ms']} or dataset_bytes {r['dataset_bytes']} out of range")
    return r


def emit_report(csv_path, out_dir) -> list[str]:
    """One SVG chart per task, a size table, and a crossover summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = reader if next(reader, None) == CSV_HEADER else ()
            data = [_report_row(csv_path, reader.line_num, row) for row in rows if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise BadCsv(f"{csv_path}: not a CSV of UTF-8 text: {exc}") from None
    if not data:
        raise BadCsv(f"{csv_path}: empty or wrong header")

    outputs = []
    tasks = sorted({r["task"] for r in data})
    for task in tasks:
        series: dict[str, dict[float, list[float]]] = {}
        for r in (r for r in data if r["task"] == task):
            series.setdefault(r["backend"], {}).setdefault(r["selectivity"], []).append(r["wall_ms"])
        med = {
            b: [(s, statistics.median(v)) for s, v in sorted(pts.items())]
            for b, pts in series.items()
        }
        path = out_dir / f"{task}.svg"
        path.write_text(_svg_chart(task, med), encoding="utf-8")
        outputs.append(str(path))

    # size table
    sizes = {}
    for r in data:
        sizes.setdefault(r["backend"], r["dataset_bytes"])
    lines = ["format\tbytes\tratio_vs_warc\treference_full_scale_ratio"]
    warc_size = sizes.get("warc")
    for backend in query.BACKENDS:
        if backend not in sizes:
            continue
        ratio = f"{sizes[backend] / warc_size:.3f}" if warc_size else "-"
        ref = f"{REFERENCE_SIZES_TB[backend] / REFERENCE_SIZES_TB['warc']:.3f}"
        lines.append(f"{backend}\t{sizes[backend]}\t{ratio}\t{ref}")
    size_path = out_dir / "sizes.tsv"
    size_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append(str(size_path))

    # crossover summary (modeled)
    summary = []
    for task in tasks:
        cells: dict[str, dict[float, float]] = {}
        for r in (r for r in data if r["task"] == task):
            cell = cells.setdefault(r["backend"], {})
            cell[r["selectivity"]] = max(cell.get(r["selectivity"], 0.0), r["modeled_ms"])
        if "warc" in cells and "warc_cdx" in cells:
            common = sorted(set(cells["warc"]) & set(cells["warc_cdx"]))
            crossed = [s for s in common if cells["warc_cdx"][s] > cells["warc"][s]]
            if crossed:
                summary.append(
                    f"{task}: warc_cdx modeled cost exceeds warc full scan from selectivity {min(crossed):g}"
                )
            else:
                summary.append(f"{task}: no crossover within measured selectivities")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs.append(str(summary_path))
    return outputs
