"""Plain-text CDX index: build from WARC files, parse, and fetch by offset.

Nine space-delimited fields per line (" CDX N b a m s k S V g" header):
urlkey, 14-digit timestamp, original URL, MIME, status, payload digest,
stored length, offset, filename.  Lines are sorted by (urlkey, timestamp).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional
from urllib.parse import urlsplit

from . import warc
from .errors import BadFieldCount, BadOffset, BadTimestamp, BadDate, NotAbsoluteUrl
from .httpmsg import http_fields, payload_digest
from .iostats import IoTracker, Measurement

CDX_HEADER = " CDX N b a m s k S V g"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ISO_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$")
_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True)
class CdxEntry:
    urlkey: str
    timestamp14: str
    original_url: str
    mime: str
    status: str
    digest: str
    stored_length: int
    offset: int
    filename: str

    def to_line(self) -> str:
        fields = [
            self.urlkey,
            self.timestamp14,
            self.original_url,
            self.mime or "-",
            self.status or "-",
            self.digest or "-",
            str(self.stored_length),
            str(self.offset),
            self.filename,
        ]
        return " ".join(f.replace(" ", "%20") for f in fields)


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


# --- timestamp codecs -------------------------------------------------------

def parse_warc_date(s: str) -> int:
    """ISO-8601 UTC ("Z") to epoch milliseconds; fraction truncated to ms."""
    if not s.endswith("Z"):
        raise BadDate(f"not a UTC Z timestamp: {s!r}")
    body = s[:-1]
    frac_ms = 0
    if "." in body:
        body, _, frac = body.partition(".")
        if not frac.isdigit():
            raise BadDate(f"bad fraction in {s!r}")
        frac_ms = int((frac + "000")[:3])
    # Fixed-layout parse; datetime validates the calendar fields.
    try:
        if _ISO_RE.match(body) is None:
            raise ValueError(f"not YYYY-MM-DDThh:mm:ss: {body!r}")
        dt = datetime(
            int(body[0:4]), int(body[5:7]), int(body[8:10]),
            int(body[11:13]), int(body[14:16]), int(body[17:19]),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise BadDate(f"{s!r}: {exc}") from None
    delta = dt - _EPOCH
    return (delta.days * 86400 + delta.seconds) * 1000 + frac_ms


def timestamp14_of(epoch_ms: int) -> str:
    """Epoch milliseconds to YYYYMMDDhhmmss, truncating sub-second toward zero."""
    sec, rem = divmod(epoch_ms, 1000)
    if epoch_ms < 0 and rem:
        sec += 1  # truncate toward zero, not floor
    dt = _EPOCH + timedelta(seconds=sec)
    if not 1000 <= dt.year <= 9999:
        raise BadTimestamp(f"year {dt.year} outside 1000-9999")
    return f"{dt.year:04d}{dt.month:02d}{dt.day:02d}{dt.hour:02d}{dt.minute:02d}{dt.second:02d}"


def parse_timestamp14(s: str) -> int:
    if len(s) != 14 or not s.isascii() or not s.isdigit():
        raise BadTimestamp(f"not 14 digits: {s!r}")
    year = int(s[0:4])
    if year < 1000:
        raise BadTimestamp(f"year {year} outside 1000-9999")
    try:
        dt = datetime(
            year, int(s[4:6]), int(s[6:8]), int(s[8:10]), int(s[10:12]), int(s[12:14]),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise BadTimestamp(f"{s!r}: {exc}") from None
    delta = dt - _EPOCH
    return (delta.days * 86400 + delta.seconds) * 1000


# --- index build / parse / fetch -------------------------------------------

def entry_for(record: warc.WarcRecord, loc: warc.RecordLocation) -> CdxEntry:
    status, mime, _, payload = http_fields(record.content_type, record.block)
    return CdxEntry(
        urlkey=canonicalize_url(record.target_uri),
        timestamp14=timestamp14_of(parse_warc_date(record.warc_date_raw)),
        original_url=record.target_uri,
        mime=mime or "-",
        status=str(status) if status >= 0 else "-",
        digest=payload_digest(payload),
        stored_length=loc.stored_length,
        offset=loc.offset,
        filename=Path(loc.file).name,
    )


def build_cdx(warc_files, out) -> int:
    """Index the response records of the given WARC files into one sorted CDX
    file; returns line count."""
    entries = []
    for file in warc_files:
        for record, loc in warc.scan_warc(file):
            if record.record_type == "response":
                entries.append(entry_for(record, loc))
    entries.sort(key=lambda e: (e.urlkey, e.timestamp14))
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CDX_HEADER + "\n")
        for entry in entries:
            fh.write(entry.to_line() + "\n")
    return len(entries)


def parse_cdx(file) -> Iterator[CdxEntry]:
    with open(file, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith(" CDX"):
                continue
            fields = line.split(" ")
            if len(fields) != 9:
                raise BadFieldCount(str(file), line_no, len(fields))
            fields = [f.replace("%20", " ") for f in fields]
            parse_timestamp14(fields[1])  # validates
            yield CdxEntry(
                urlkey=fields[0],
                timestamp14=fields[1],
                original_url=fields[2],
                mime=fields[3],
                status=fields[4],
                digest=fields[5],
                stored_length=int(fields[6]),
                offset=int(fields[7]),
                filename=fields[8],
            )


def iter_fetch_records(
    entries: Iterable[CdxEntry], warc_dir, tracker: Optional[IoTracker] = None
) -> Iterator[warc.WarcRecord]:
    """One positioned read per entry; records yielded in entry order."""
    warc_dir = Path(warc_dir)
    tracker = tracker or IoTracker()
    open_files: dict[str, object] = {}
    try:
        for entry in entries:
            fh = open_files.get(entry.filename)
            if fh is None:
                path = warc_dir / entry.filename
                if not path.exists():
                    raise BadOffset(str(path), entry.offset, f"missing file for {entry.to_line()}")
                fh = open_files[entry.filename] = tracker.open(path)
            raw = fh.pread(entry.offset, entry.stored_length)
            yield warc.decode_stored(raw, str(warc_dir / entry.filename), entry.offset)
    finally:
        for fh in open_files.values():
            fh.close()


def fetch_records(
    entries: Iterable[CdxEntry], warc_dir, tracker: Optional[IoTracker] = None
) -> tuple[list[warc.WarcRecord], Measurement]:
    tracker = tracker or IoTracker()
    records = list(iter_fetch_records(entries, warc_dir, tracker))
    return records, tracker.measurement(records_out=len(records))
