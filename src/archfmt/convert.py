"""WARC records to the canonical typed schema, and WARC -> CARC/RARC runs.

The canonical schema is shared by both containers: one row per archived
response with the URL key, typed timestamp, HTTP metadata, payload digest,
raw HTTP header text, and the payload bytes.  :func:`to_canonical` is the
only derivation of these columns from a record; the CDX index stores a
projection of its row.

:func:`epoch_ms` and its inverse :func:`utc_fields` are the one conversion
between UTC calendar fields and epoch ms.  The WARC-Date, the CDX stamp and
the CLI's query bounds parse or format through them, so all accept the years
1000-9999 (``MIN_MS`` to ``MAX_MS``) and fail with BadDate outside them.
"""

from __future__ import annotations

import heapq
import os
import re
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
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

_EPOCH_DAY = date(1970, 1, 1).toordinal()
_ISO_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.([0-9]{1,3})[0-9]*)?Z")
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


def epoch_ms(y: int, mo: int, d: int, h: int = 0, mi: int = 0, s: int = 0, ms: int = 0) -> int:
    """UTC calendar fields to epoch milliseconds; BadDate if a field is out
    of range or the year outside 1000-9999."""
    if not (1000 <= y <= 9999 and 0 <= h < 24 and 0 <= mi < 60 and 0 <= s < 60 and 0 <= ms < 1000):
        raise BadDate(f"{(y, mo, d, h, mi, s, ms)} is not a time of the years 1000-9999")
    try:  # date validates the month and the day
        days = date(y, mo, d).toordinal() - _EPOCH_DAY
    except ValueError as exc:
        raise BadDate(f"{(y, mo, d)}: {exc}") from None
    return (((days * 24 + h) * 60 + mi) * 60 + s) * 1000 + ms


MIN_MS = epoch_ms(1000, 1, 1)
MAX_MS = epoch_ms(9999, 12, 31, 23, 59, 59, 999)


def utc_fields(ms: int) -> tuple[int, int, int, int, int, int, int]:
    """Epoch milliseconds to (year, month, day, hour, minute, second, ms) in
    UTC, the inverse of epoch_ms; BadDate outside the years 1000-9999."""
    if not MIN_MS <= ms <= MAX_MS:
        raise BadDate(f"{ms} ms is outside the years 1000-9999")
    days, ms = divmod(ms, 86_400_000)
    day = date.fromordinal(days + _EPOCH_DAY)
    h, ms = divmod(ms, 3_600_000)
    mi, ms = divmod(ms, 60_000)
    s, ms = divmod(ms, 1000)
    return day.year, day.month, day.day, h, mi, s, ms


def parse_warc_date(s: str) -> int:
    """ISO-8601 UTC ("Z") to epoch milliseconds; fraction truncated to ms."""
    m = _ISO_RE.fullmatch(s)
    if m is None:
        raise BadDate(f"not YYYY-MM-DDThh:mm:ss[.fraction]Z in ASCII digits: {s!r}")
    y, mo, d, h, mi, sec, ms = m.groups()  # ms: the first 1-3 digits of the fraction
    try:
        return epoch_ms(int(y), int(mo), int(d), int(h), int(mi), int(sec), int(ms.ljust(3, "0")) if ms else 0)
    except BadDate as exc:
        raise BadDate(f"{s!r}: {exc}") from None


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


def _external_sort(rows: Iterator[tuple], key_idx: int, schema: CarcSchema, tmp_dir) -> Iterator[tuple]:
    """Sort an arbitrarily large row stream stably: each _SPILL_BYTES run but
    the last is sorted and spilled to an uncompressed RARC file in tmp_dir,
    one row a block so the merge holds one decoded row of each run, and the
    runs are merged with the last one, held in memory."""
    key = itemgetter(key_idx)
    runs: list[str] = []
    buffer: list[tuple] = []
    buffered = 0
    try:
        for row in rows:
            buffer.append(row)
            buffered += len(row[COL["payload"]]) + 200
            if buffered >= _SPILL_BYTES:
                buffer.sort(key=key)
                runs.append(os.path.join(tmp_dir, f".sortrun-{len(runs)}.rarc"))
                rarc.write_rarc(buffer, schema, runs[-1], rows_per_block=1, codec="none")
                buffer, buffered = [], 0
        buffer.sort(key=key)
        yield from heapq.merge(*map(rarc.read_rarc, runs), buffer, key=key)
    finally:
        for path in runs:
            Path(path).unlink(missing_ok=True)


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
            stream = _external_sort(stream, key_idx, schema, out_dir)
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
