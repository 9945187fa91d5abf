"""Plain-text CDX index: build from WARC files, parse, and fetch by offset.

Nine space-delimited fields per line (" CDX N b a m s k S V g" header):
urlkey, timestamp, original URL, MIME, status, payload digest, stored
length, offset, filename.  The timestamp is YYYYMMDDhhmmss, with the
milliseconds appended (17 digits) when they are not zero.  Lines are sorted
by (urlkey, timestamp).

A :class:`CdxEntry` holds the canonical values of the columns a line carries
(``CDX_COLUMNS``, read by canonical column name): a projection of
:func:`convert.to_canonical`'s row, plus where the record is stored.  Only
this module knows the line: :meth:`CdxEntry.to_line` encodes it and
:func:`parse_cdx` decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import convert, warc
from .convert import canonicalize_url  # noqa: F401 (the urlkey codec, importable from here)
from .errors import BadCdxLine, BadFieldCount, BadOffset, BadTimestamp
from .httpmsg import http_status
from .iostats import IoTracker, Measurement

CDX_HEADER = " CDX N b a m s k S V g"
CDX_COLUMNS = ("urlkey", "url", "timestamp", "record_type", "mime", "status", "digest")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class CdxEntry:
    """One CDX line: canonical column values and the record's location."""

    urlkey: str
    timestamp: int  # epoch ms
    url: str
    mime: str  # "" when the record has none
    status: int  # -1 when the record has none
    digest: str
    stored_length: int
    offset: int
    filename: str
    record_type = "response"  # the index holds response records only

    @property
    def timestamp14(self) -> str:
        """The timestamp field: 14 digits, or 17 when there are milliseconds."""
        sec, ms = divmod(self.timestamp, 1000)
        text = timestamp14_of(sec * 1000)
        return f"{text}{ms:03d}" if ms else text

    def to_line(self) -> str:
        status = f"{self.status:03d}" if self.status >= 0 else "-"
        fields = (self.urlkey, self.timestamp14, self.url, self.mime or "-", status, self.digest,
                  str(self.stored_length), str(self.offset), self.filename)
        return " ".join(f.replace(" ", "%20") for f in fields)


# --- timestamp codecs -------------------------------------------------------

def timestamp14_of(epoch_ms: int) -> str:
    """Epoch milliseconds to YYYYMMDDhhmmss, truncating sub-second toward zero."""
    sec, rem = divmod(epoch_ms, 1000)
    if epoch_ms < 0 and rem:
        sec += 1  # truncate toward zero, not floor
    dt = _EPOCH + timedelta(seconds=sec)
    if not 1000 <= dt.year <= 9999:
        raise BadTimestamp(f"year {dt.year} outside 1000-9999")
    return "%04d%02d%02d%02d%02d%02d" % (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)


def parse_timestamp14(s: str) -> int:
    """YYYYMMDDhhmmss, or YYYYMMDDhhmmssSSS, to epoch milliseconds."""
    if len(s) not in (14, 17) or not s.isascii() or not s.isdigit():
        raise BadTimestamp(f"not 14 or 17 digits: {s!r}")
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
    return (delta.days * 86400 + delta.seconds) * 1000 + int(s[14:] or 0)


# --- index build / parse / fetch -------------------------------------------

def entry_for(record: warc.WarcRecord, loc: warc.RecordLocation) -> CdxEntry:
    """The record's canonical row, projected onto the CDX columns, at loc."""
    row = convert.to_canonical(record)
    return CdxEntry(
        row.urlkey, row.timestamp_ms, row.url, row.mime, row.status, row.digest,
        loc.stored_length, loc.offset, Path(loc.file).name,
    )


def build_cdx(warc_files, out) -> int:
    """Index the response records of the given WARC files into one sorted CDX
    file; returns line count."""
    entries = []
    for file in warc_files:
        for record, loc in warc.scan_warc(file):
            if record.record_type == "response":
                entries.append(entry_for(record, loc))
    entries.sort(key=lambda e: (e.urlkey, e.timestamp))  # the order of the line text
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CDX_HEADER + "\n")
        for entry in entries:
            fh.write(entry.to_line() + "\n")
    return len(entries)


def parse_cdx(file) -> Iterator[CdxEntry]:
    """The entries of a CDX file; a line that does not decode is BadCdxLine."""
    with open(file, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.rstrip(b"\r\n").decode("utf-8")
                if not line or line.startswith(" CDX"):
                    continue
                fields = line.split(" ")
                if len(fields) != 9:
                    raise BadFieldCount(str(file), line_no, f"expected 9 fields, got {len(fields)}")
                if "%20" in line:
                    fields = [f.replace("%20", " ") for f in fields]
                urlkey, stamp, url, mime, status, digest, length, offset, name = fields
                if not ((length + offset).isascii() and length.isdigit() and offset.isdigit()):
                    raise ValueError(f"length {length!r} or offset {offset!r} is not ASCII digits")
                entry = CdxEntry(
                    urlkey, parse_timestamp14(stamp), url, "" if mime == "-" else mime,
                    http_status(status), digest, int(length), int(offset), name,
                )
            except (ValueError, BadTimestamp) as exc:
                raise BadCdxLine(str(file), line_no, exc) from None
            yield entry


def iter_fetch_records(
    entries: Iterable[CdxEntry], warc_dir, tracker: Optional[IoTracker] = None
) -> Iterator[warc.WarcRecord]:
    """One positioned read per entry; records yielded in entry order."""
    warc_dir = Path(warc_dir)
    tracker = tracker or IoTracker()
    open_files: dict[str, tuple] = {}  # filename: (file, size)
    try:
        for entry in entries:
            path = warc_dir / entry.filename
            if entry.filename not in open_files:
                if not path.exists():
                    raise BadOffset(str(path), entry.offset, f"missing file for {entry.to_line()}")
                open_files[entry.filename] = tracker.open(path), path.stat().st_size
            fh, size = open_files[entry.filename]
            if entry.offset + entry.stored_length > size:
                raise BadOffset(str(path), entry.offset, f"{entry.stored_length} bytes run past {size}")
            yield warc.decode_stored(fh.pread(entry.offset, entry.stored_length), str(path), entry.offset)
    finally:
        for fh, _ in open_files.values():
            fh.close()


def fetch_records(
    entries: Iterable[CdxEntry], warc_dir, tracker: Optional[IoTracker] = None
) -> tuple[list[warc.WarcRecord], Measurement]:
    tracker = tracker or IoTracker()
    records = list(iter_fetch_records(entries, warc_dir, tracker))
    return records, tracker.measurement(records_out=len(records))
