"""WARC records to the canonical typed schema, and WARC -> CARC/RARC runs.

The canonical schema is shared by both containers: one row per archived
response with the URL key, typed timestamp, HTTP metadata, payload digest,
raw HTTP header text, and the payload bytes.  :func:`to_canonical` is the
only derivation of these columns from a record; the CDX index stores a
projection of its row.
"""

from __future__ import annotations

import heapq
import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional
from urllib.parse import urlsplit

from . import carc, rarc, warc
from .carc import CarcSchema, Column
from .errors import ArchfmtError, BadDate, IoFailure, NotAbsoluteUrl
from .httpmsg import http_fields, payload_digest

CANONICAL_SCHEMA = CarcSchema(
    (
        Column("urlkey", "STRING"),
        Column("url", "STRING"),
        Column("timestamp", "INT64"),
        Column("record_type", "STRING"),
        Column("mime", "STRING"),
        Column("status", "INT64"),
        Column("digest", "STRING"),
        Column("content_length", "INT64"),
        Column("http_headers", "STRING", nullable=True),
        Column("payload", "BYTES"),
    )
)

# "No pushdown" variant: the timestamp kept as the raw WARC-Date text.
CANONICAL_SCHEMA_TEXT_TS = CarcSchema(
    tuple(
        Column(c.name, "STRING" if c.name == "timestamp" else c.ctype, c.nullable)
        for c in CANONICAL_SCHEMA.columns
    )
)

COL = {c.name: i for i, c in enumerate(CANONICAL_SCHEMA.columns)}

_SORT_KEYS = {"none": None, "timestamp": COL["timestamp"], "urlkey": COL["urlkey"]}
_SPILL_BYTES = 256 << 20  # external sort chunk budget

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ISO_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.([0-9]+))?Z")
_DEFAULT_PORTS = {"http": 80, "https": 443}


class CanonicalRecord(NamedTuple):
    """One canonical row; fields in CANONICAL_SCHEMA column order."""

    urlkey: str
    url: str
    timestamp_ms: int
    record_type: str
    mime: str
    status: int
    digest: str
    content_length: int
    http_headers: Optional[str]
    payload: bytes


def canonicalize_url(url: str) -> str:
    """SURT-style sort key: reversed lowercase host, then path and sorted query."""
    try:
        parts = urlsplit(url)
        port = parts.port  # may raise ValueError on junk ports
    except ValueError as exc:
        raise NotAbsoluteUrl(f"{url!r}: {exc}") from None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https") or not parts.hostname:
        raise NotAbsoluteUrl(repr(url))
    host = parts.hostname.lower()
    if host.startswith("www."):
        host = host[4:]
    key = ",".join(reversed(host.split(".")))
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        key += f":{port}"
    key += ")"
    key += parts.path.lower() or "/"
    query = parts.query.lower()
    if query:
        key += "?" + "&".join(sorted(query.split("&")))
    return key


def parse_warc_date(s: str) -> int:
    """ISO-8601 UTC ("Z") to epoch milliseconds; fraction truncated to ms."""
    m = _ISO_RE.fullmatch(s)
    if m is None:
        raise BadDate(f"not YYYY-MM-DDThh:mm:ss[.fraction]Z in ASCII digits: {s!r}")
    *fields, frac = m.groups()
    try:  # datetime validates the calendar fields
        delta = datetime(*map(int, fields), tzinfo=timezone.utc) - _EPOCH
    except ValueError as exc:
        raise BadDate(f"{s!r}: {exc}") from None
    return (delta.days * 86400 + delta.seconds) * 1000 + int(f"{frac or ''}000"[:3])


def to_canonical(record: warc.WarcRecord) -> CanonicalRecord:
    """Flatten one WARC record: the one derivation of every canonical column
    (the CDX entry of a record is a projection of this row)."""
    status, mime, headers, payload = http_fields(record.content_type, record.block)
    url = record.target_uri
    return CanonicalRecord(
        urlkey=canonicalize_url(url) if url else "",
        url=url,
        timestamp_ms=parse_warc_date(record.warc_date_raw),
        record_type=record.record_type,
        mime=mime,
        status=status,
        digest=payload_digest(payload),
        content_length=len(payload),
        http_headers=headers,
        payload=payload,
    )


def _external_sort(rows: Iterator[tuple], key_idx: int, tmp_dir) -> Iterator[tuple]:
    """Sort an arbitrarily large row stream, spilling chunks to tmp_dir."""
    chunk_paths = []
    buffer: list[tuple] = []
    buffered = 0

    def spill():
        nonlocal buffered
        buffer.sort(key=lambda r: r[key_idx])
        fd, path = tempfile.mkstemp(dir=tmp_dir, suffix=".sortchunk")
        with os.fdopen(fd, "wb") as fh:
            for row in buffer:
                pickle.dump(row, fh, protocol=pickle.HIGHEST_PROTOCOL)
        chunk_paths.append(path)
        buffer.clear()
        buffered = 0

    for row in rows:
        buffer.append(row)
        buffered += len(row[COL["payload"]]) + 200
        if buffered >= _SPILL_BYTES:
            spill()

    if not chunk_paths:  # fits in memory
        buffer.sort(key=lambda r: r[key_idx])
        yield from buffer
        return
    if buffer:
        spill()

    def read_chunk(path):
        with open(path, "rb") as fh:
            while True:
                try:
                    yield pickle.load(fh)
                except EOFError:
                    return

    try:
        yield from heapq.merge(*(read_chunk(p) for p in chunk_paths), key=lambda r: r[key_idx])
    finally:
        for p in chunk_paths:
            try:
                os.unlink(p)
            except OSError:
                pass


@dataclass
class Manifest:
    inputs: list[str]
    schema: CarcSchema
    sort: str
    codec: str
    in_count: int
    out_count: int
    excluded: int
    output: str
    path: str  # manifest file itself

    def write(self, path) -> str:
        lines = []
        for f in self.inputs:
            lines.append(f"input\t{f}")
        lines.append("schema\t" + self.schema.to_text().replace("\n", ","))
        lines.append(f"sort\t{self.sort}")
        lines.append(f"codec\t{self.codec}")
        lines.append(f"in_count\t{self.in_count}")
        lines.append(f"out_count\t{self.out_count}")
        lines.append(f"excluded\t{self.excluded}")
        lines.append(f"output\t{self.output}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return str(path)


def convert(
    warc_files,
    target: str,
    out_dir,
    sort: str = "none",
    rows_per_group: int = 4096,
    rows_per_block: int = 1024,
    codec: str = "gzip",
    seed: int = 0,
    timestamp_as_text: bool = False,
    compresslevel: int = 3,
) -> Manifest:
    """Convert the response records of WARC files into one CARC or RARC file
    plus a manifest."""
    if target not in ("carc", "rarc"):
        raise ArchfmtError(f"unknown target {target!r}")
    if sort not in _SORT_KEYS:
        raise ArchfmtError(f"unknown sort {sort!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"data.{target}"
    schema = CANONICAL_SCHEMA_TEXT_TS if timestamp_as_text else CANONICAL_SCHEMA
    warc_files = [str(f) for f in warc_files]

    counts = {"in": 0, "out": 0, "excluded": 0}

    def rows() -> Iterator[tuple]:
        for file in warc_files:
            for record, _loc in warc.scan_warc(file):
                counts["in"] += 1
                if record.record_type != "response":
                    counts["excluded"] += 1
                    continue
                row = to_canonical(record)
                if timestamp_as_text:
                    row = row[:2] + (record.warc_date_raw,) + row[3:]
                counts["out"] += 1
                yield row

    try:
        stream: Iterable[tuple] = rows()
        key_idx = _SORT_KEYS[sort]
        if key_idx is not None:
            stream = _external_sort(iter(stream), key_idx, out_dir)
        if target == "carc":
            carc.write_carc(
                stream,
                schema,
                out_path,
                rows_per_group=rows_per_group,
                codec=codec,
                sort_key=sort if sort != "none" else None,
                compresslevel=compresslevel,
            )
        else:
            rarc.write_rarc(
                stream,
                schema,
                out_path,
                rows_per_block=rows_per_block,
                codec=codec,
                seed=seed,
                compresslevel=compresslevel,
            )
    except BaseException as exc:
        if out_path.exists():
            out_path.unlink()
        if isinstance(exc, OSError):
            raise IoFailure(f"converting to {out_path}: {exc}") from exc
        raise

    manifest = Manifest(
        inputs=warc_files,
        schema=schema,
        sort=sort,
        codec=codec,
        in_count=counts["in"],
        out_count=counts["out"],
        excluded=counts["excluded"],
        output=str(out_path),
        path=str(out_dir / f"manifest.{target}.txt"),
    )
    manifest.write(manifest.path)
    return manifest
