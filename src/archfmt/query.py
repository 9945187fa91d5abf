"""Run the three workload types uniformly over four storage backends.

Backends: ``warc`` (full sequential scan), ``warc_cdx`` (index lookup plus
positioned reads), ``carc`` (columnar with pushdown), ``rarc`` (row-binary
full scan).  Every query is a fold over the one scan path, :func:`_scan`, and
reports an order-insensitive digest of the matched records so backends can
be checked against each other.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional
from urllib.parse import urldefrag, urljoin

from . import carc, cdx, convert, rarc, warc
from .carc import ScanPredicate
from .convert import COL
from .errors import ArchfmtError, BackendUnavailable, UnknownColumn
from .iostats import IoTracker, Measurement

BACKENDS = ("warc", "warc_cdx", "carc", "rarc")
KINDS = ("count", "meta", "records")
COLUMNS = tuple(COL)  # canonical schema order
META_COLUMNS = tuple(c for c in COLUMNS if c not in ("payload", "http_headers"))
DEFAULT_META_PROJECTION = ("urlkey", "timestamp", "digest")  # what the result digest hashes

@dataclass(frozen=True)
class QuerySpec:
    kind: str  # count | meta | records
    time_range: Optional[tuple[int, int]] = None  # epoch ms, inclusive
    urlkeys: Optional[tuple[str, ...]] = None
    projection: tuple[str, ...] = DEFAULT_META_PROJECTION

    def __post_init__(self):
        if self.time_range is not None and self.urlkeys is not None:
            raise ValueError("at most one predicate")
        if self.kind not in KINDS:
            raise ArchfmtError(f"unknown query kind {self.kind!r}")
        unknown = [name for name in self.projection if name not in COL]
        if unknown:
            raise UnknownColumn(f"unknown projection column(s): {', '.join(unknown)}")

    def predicate(self) -> Optional[ScanPredicate]:
        if self.time_range is not None:
            return ScanPredicate.range("timestamp", *self.time_range)
        if self.urlkeys is not None:
            return ScanPredicate.isin("urlkey", self.urlkeys)
        return None


@dataclass(frozen=True)
class DatasetPaths:
    warc_files: tuple[str, ...] = ()
    cdx: Optional[str] = None
    carc: Optional[str] = None
    rarc: Optional[str] = None

    @property
    def warc_dir(self) -> str:
        return str(Path(self.warc_files[0]).parent)

    def source(self, backend: str):
        """What backend reads first; BackendUnavailable if unknown or not given."""
        inputs = {"warc": self.warc_files, "warc_cdx": self.cdx, "carc": self.carc, "rarc": self.rarc}
        if not inputs.get(backend):
            raise BackendUnavailable(f"backend {backend!r} is unknown or has no input")
        return inputs[backend]


@dataclass
class QueryResult:
    rows: Optional[list]
    measurement: Measurement
    backend: str
    record_ids_digest: str


def _scan(
    backend: str,
    paths: DatasetPaths,
    columns: tuple[str, ...],
    pred: Optional[ScanPredicate],
    tracker: IoTracker,
    bytes_view: bool = False,
) -> Iterator[tuple]:
    """Yield a tuple of exactly `columns`, in that order, per row matching pred.

    carc reads only the chunks it needs of the row groups the planner keeps.
    warc_cdx has parse_cdx decode only the index lines pred matches, and
    answers from the CDX alone when every column is a CDX column, else
    fetches the records.  warc and rarc filter full canonical rows.
    bytes_view is passed to the container readers.
    """
    source = paths.source(backend)
    if backend == "carc":
        yield from carc.read_carc(
            source, projection=columns, pred=pred, tracker=tracker, bytes_view=bytes_view
        )
        return
    if backend == "warc_cdx":
        entries = cdx.parse_cdx(source, pred, tracker)
        if all(c in cdx.CDX_COLUMNS for c in columns):
            yield from (tuple(getattr(e, c) for c in columns) for e in entries)
            return
        paths.source("warc")  # the records are read from the WARC files
        records = cdx.iter_fetch_records(list(entries), paths.warc_dir, tracker)  # index pass first
        rows = (convert.to_canonical(record) for record in records)
    else:
        if backend == "warc":
            rows = (
                convert.to_canonical(record)
                for file in source
                for record, _loc in warc.scan_warc(file, tracker=tracker)
                if record.record_type == "response"
            )
        else:
            rows = rarc.read_rarc(source, tracker=tracker, bytes_view=bytes_view)
        if pred is not None:
            key = COL[pred.column]
            rows = (row for row in rows if pred.matches(row[key]))
    pick = [COL[c] for c in columns]
    for row in rows:
        yield tuple(row[i] for i in pick)


def _digest(ids: list[tuple]) -> str:
    h = hashlib.sha256()
    for u, t, d in sorted(ids):
        h.update(f"{u}\x1f{t}\x1f{d}\n".encode("utf-8"))
    return h.hexdigest()


def run_query(
    spec: QuerySpec, backend: str, paths: DatasetPaths, keep_rows: bool = True
) -> QueryResult:
    """Execute a count/meta/records query on one backend."""
    tracker = IoTracker()
    pred = spec.predicate()
    if spec.kind == "count":
        n = sum(1 for _ in _scan(backend, paths, (), pred, tracker))
        rows: Optional[list] = [n]
        digest = hashlib.sha256(f"count:{n}".encode()).hexdigest()
    else:
        out = COLUMNS if spec.kind == "records" else spec.projection
        k = len(out)
        ids = []
        rows = [] if keep_rows else None
        for row in _scan(backend, paths, out + DEFAULT_META_PROJECTION, pred, tracker):
            ids.append(row[k:])
            if rows is not None:
                rows.append(row[:k])
        n = len(ids)
        digest = _digest(ids)
    return QueryResult(
        rows=rows,
        measurement=tracker.measurement(records_out=n),
        backend=backend,
        record_ids_digest=digest,
    )


# --- payload extractors -------------------------------------------------------

_COMMENT_RE = re.compile(rb"<!--.*?-->", re.S)
_SCRIPT_RE = re.compile(rb"<(script|style)\b[^>]*>.*?</\1\s*>", re.S | re.I)
_TAG_RE = re.compile(rb"<[^>]*>")
_ENTITY_RE = re.compile(r"&(#[0-9]+|#[xX][0-9a-fA-F]+|amp|lt|gt|quot|apos);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_HREF_RE = re.compile(rb"""<a\s[^>]*?href\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""", re.I)


def _entity_sub(m: re.Match) -> str:
    body = m.group(1)
    if body.startswith("#"):
        try:
            code = int(body[2:], 16) if body[1] in "xX" else int(body[1:])
            return chr(code)
        except (ValueError, OverflowError):
            return m.group(0)
    return _NAMED_ENTITIES[body]


def extract_text(payload: bytes, mime: str) -> str:
    """Visible text of an HTML payload; empty string for anything else."""
    if mime.split(";")[0].strip().lower() != "text/html":
        return ""
    b = _COMMENT_RE.sub(b" ", payload)
    b = _SCRIPT_RE.sub(b" ", b)
    b = _TAG_RE.sub(b" ", b)
    text = b.decode("utf-8", errors="replace")
    if "&" in text:
        text = _ENTITY_RE.sub(_entity_sub, text)
    return " ".join(text.split())


def extract_links(payload: bytes, base_url: str) -> list[str]:
    """Anchor hrefs in document order, resolved against base_url, fragments stripped."""
    out = []
    for m in _HREF_RE.finditer(payload):
        raw = m.group(1)
        if raw[:1] in (b'"', b"'"):
            raw = raw[1:-1]
        if (
            (raw[:7] == b"http://" or raw[:8] == b"https://")
            and b"&" not in raw
            and not raw[-1:].isspace()
        ):
            out.append(raw.split(b"#", 1)[0].decode("utf-8", "replace"))
            continue
        href = raw.decode("utf-8", errors="replace").strip()
        if "&" in href:
            href = _ENTITY_RE.sub(_entity_sub, href)
        if not href:
            continue
        if href.startswith("http://") or href.startswith("https://"):
            out.append(href.partition("#")[0])
            continue
        try:
            resolved = urldefrag(urljoin(base_url, href)).url
        except ValueError:
            continue
        if resolved.startswith("http://") or resolved.startswith("https://"):
            out.append(resolved)
    return out


def _escape_derived(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


_EXTRACT_COLUMNS = ("mime", "digest", "url", "payload")


def scan_extract(
    backend: str, paths: DatasetPaths, extractor: str, out_path
) -> tuple[str, Measurement]:
    """Derive (digest, extracted text or links) for every HTML record.

    Output lines are sorted so the derived file is byte-identical across
    backends regardless of their storage order.
    """
    tracker = IoTracker()
    lines = []
    rows = _scan(backend, paths, _EXTRACT_COLUMNS, None, tracker, bytes_view=True)
    for mime, digest, url, payload in rows:
        if mime.split(";")[0].strip().lower() != "text/html":
            continue
        if extractor == "links":
            derived = " ".join(extract_links(payload, url))
        else:
            derived = extract_text(payload, mime)
        lines.append(f"{digest}\t{_escape_derived(derived)}\n")
    lines.sort()
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return str(out_path), tracker.measurement(records_out=len(lines))
