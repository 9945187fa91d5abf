"""Plain-text CDX index: build from WARC files, parse, and fetch by offset.

Nine space-delimited fields per line (" CDX N b a m s k S V g" header):
urlkey, timestamp, original URL, MIME, status, payload digest, stored
length, offset, filename.  The timestamp is YYYYMMDDhhmmss, with the
milliseconds appended (17 digits) when they are not zero, of the years
1000-9999: it is parsed and formatted through :func:`convert.epoch_ms` and
:func:`convert.utc_fields`, the conversion every time form shares.  Lines
are sorted by (urlkey, timestamp).  A field escapes ``%`` as ``%25``, then
a space as ``%20``, LF as ``%0A`` and CR as ``%0D``; the decoder undoes all
four in one pass, so every value round-trips.  The filename must be a bare
file name; :func:`iter_fetch_records` finds it among the WARC files given.

:func:`parse_cdx` is the one reader.  It reads the file once, sequentially,
in fixed-size chunks.  Given a urlkey or timestamp predicate it checks the
field count and decodes the predicate field of every line (a timestamp is
compared as 17-digit text, whose order is its time order), and decodes the
other fields only of the lines that pass.  So a predicate scan does not
validate those fields on lines it skips; without a predicate every field of
every line is validated.  The index is not bisected with positioned reads:
at 10 ms a seek and 100 MiB/s, reading an 8,000-line (1.44 MB) index once
costs 23.7 ms, and the five or more 64 KiB probes of a bisection 53 ms.

A :class:`CdxEntry` holds the canonical values of the columns a line carries
(``CDX_COLUMNS``, read by canonical column name): a projection of the row
:func:`convert.response_rows` derives, plus where the record is stored.
Only this module knows the line: :meth:`CdxEntry.to_line` encodes it and
:func:`parse_cdx` decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import convert, warc
from .carc import ScanPredicate
from .convert import canonicalize_url  # noqa: F401 (the urlkey codec, importable from here)
from .errors import ArchfmtError, BadCdxLine, BadDate, BadFieldCount, BadOffset
from .httpmsg import http_status
from .iostats import IoTracker

CDX_HEADER = " CDX N b a m s k S V g"
CDX_COLUMNS = ("urlkey", "url", "timestamp", "record_type", "mime", "status", "digest")

_READ_CHUNK = 1 << 13  # parse_cdx read size: the buffer of a plain buffered reader


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
        return _format_stamp(self.timestamp)

    def to_line(self) -> str:
        status = f"{self.status:03d}" if self.status >= 0 else "-"
        fields = (self.urlkey, self.timestamp14, self.url, self.mime or "-", status, self.digest,
                  str(self.stored_length), str(self.offset), self.filename)
        return " ".join([f.replace("%", "%25").replace(" ", "%20").replace("\n", "%0A").replace("\r", "%0D")
                         for f in fields])


def _unescape(field: str) -> str:
    """Undo to_line's escapes in one pass.  Splitting at %25 first keeps an
    escaped % from being read as the start of another escape."""
    return "%".join(p.replace("%20", " ").replace("%0A", "\n").replace("%0D", "\r")
                    for p in field.split("%25")) if "%" in field else field


# --- timestamp codecs: text forms of convert.epoch_ms / utc_fields ---------

def _format_stamp(epoch_ms: int) -> str:
    """The one stamp encoder: YYYYMMDDhhmmss, and SSS when the ms are not 0."""
    y, mo, d, h, mi, s, ms = convert.utc_fields(epoch_ms)
    n = ((((y * 100 + mo) * 100 + d) * 100 + h) * 100 + mi) * 100 + s
    return str(n * 1000 + ms if ms else n)  # a 4-digit year: exactly 14 or 17 digits


def timestamp14_of(epoch_ms: int) -> str:
    """Epoch milliseconds to YYYYMMDDhhmmss, truncating sub-second toward zero."""
    return _format_stamp(epoch_ms - (epoch_ms % 1000 if epoch_ms >= 0 else -(-epoch_ms % 1000)))


def _stamp17(s: str) -> str:
    """A timestamp field checked for 14 or 17 ASCII digits, right-padded to 17.

    For stamps of the years 1000-9999 the text order of the result is the
    order of their epoch milliseconds."""
    if len(s) not in (14, 17) or not s.isascii() or not s.isdigit():
        raise BadDate(f"not 14 or 17 digits: {s!r}")
    return s.ljust(17, "0")


def parse_timestamp14(s: str) -> int:
    """YYYYMMDDhhmmss, or YYYYMMDDhhmmssSSS, to epoch milliseconds."""
    n = int(_stamp17(s))  # arithmetic picks the fields out faster than slicing the text
    return convert.epoch_ms(n // 10**13, n // 10**11 % 100, n // 10**9 % 100, n // 10**7 % 100,
                            n // 10**5 % 100, n // 1000 % 100, n % 1000)


def _bound17(epoch_ms: int) -> str:
    """A time bound as 17-digit stamp text, clamped to the years 1000-9999."""
    return _format_stamp(min(max(epoch_ms, convert.MIN_MS), convert.MAX_MS)).ljust(17, "0")


# --- index build / parse / fetch -------------------------------------------

def build_cdx(warc_files, out) -> int:
    """Index the response records of the given WARC files into one sorted CDX
    file; returns line count."""
    entries = [
        CdxEntry(row.urlkey, row.timestamp_ms, row.url, row.mime, row.status, row.digest,
                 loc.stored_length, loc.offset, Path(loc.file).name)
        for row, loc, _ in convert.response_rows(pair for f in warc_files for pair in warc.scan_warc(f))
    ]
    entries.sort(key=lambda e: (e.urlkey, e.timestamp))  # the order of the line text
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CDX_HEADER + "\n")
        for entry in entries:
            fh.write(entry.to_line() + "\n")
    return len(entries)


def parse_cdx(
    file, pred: Optional[ScanPredicate] = None, tracker: Optional[IoTracker] = None
) -> Iterator[CdxEntry]:
    """The entries of a CDX file, or only those whose pred column matches.

    The file is read once, sequentially, in _READ_CHUNK pieces.  Every line
    is checked for nine fields.  With a urlkey or timestamp predicate only
    that field is decoded on every line, and only the lines it keeps are
    decoded in full; pred.matches decides on the decoded entry.  A line that
    does not decode is BadCdxLine.
    """
    tracker = tracker or IoTracker()
    keep = _field_test(pred)
    with tracker.open(file, sequential=True) as fh:
        for first, lines in _line_chunks(fh):
            for line_no, line in enumerate(lines, first):
                line = line.rstrip(b"\r")
                if not line or line.startswith(b" CDX"):
                    continue
                fields = line.split(b" ")
                if len(fields) != 9:
                    raise BadFieldCount(str(file), line_no, f"expected 9 fields, got {len(fields)}")
                try:
                    if keep is not None and not keep(fields):
                        continue
                    entry = _decode_line(line)
                except (ValueError, BadDate) as exc:
                    raise BadCdxLine(str(file), line_no, exc) from None
                if pred is None or pred.matches(getattr(entry, pred.column)):
                    yield entry


def _line_chunks(fh) -> Iterator[tuple[int, list[bytes]]]:
    """(number of the first line, the lines a read ends, without b"\\n") per
    _READ_CHUNK read.  A line read in pieces is joined once, so memory holds
    one chunk plus the longest line; a last line without b"\\n" comes last."""
    line_no, head = 1, []  # head: the pieces of the line no read has ended yet
    while chunk := fh.read(_READ_CHUNK):
        *ended, tail = chunk.split(b"\n")
        if ended:
            ended[0] = b"".join(head) + ended[0]
            yield line_no, ended
            line_no += len(ended)
            head = []
        head.append(tail)
    last = b"".join(head)
    if last:
        yield line_no, [last]


def _decode_line(line: bytes) -> CdxEntry:
    """Every field of a nine-field line; ValueError or BadDate if one does not decode."""
    text = line.decode("utf-8")
    urlkey, stamp, url, mime, status, digest, length, offset, name = (
        map(_unescape, text.split(" ")) if "%" in text else text.split(" ")
    )
    if not ((length + offset).isascii() and length.isdigit() and offset.isdigit()):
        raise ValueError(f"length {length!r} or offset {offset!r} is not ASCII digits")
    if name in ("", ".", "..") or "/" in name:
        raise ValueError(f"filename {name!r} is not a bare file name")
    return CdxEntry(
        urlkey, parse_timestamp14(stamp), url, "" if mime == "-" else mime,
        http_status(status), digest, int(length), int(offset), name,
    )


def _field_test(pred: Optional[ScanPredicate]):
    """A test of a line's raw fields that keeps at least every line pred
    matches, or None when every line is to be decoded.  It decodes the
    predicate field as _decode_line does, so it fails on that field as
    _decode_line would."""
    if pred is None:
        return None
    if pred.column == "urlkey":
        return lambda fields: pred.matches(_unescape(fields[0].decode("utf-8")))
    if pred.column == "timestamp" and pred.values is None:
        lo, hi = _bound17(pred.lo), _bound17(pred.hi)
        return lambda fields: lo <= _stamp17(fields[1].decode("utf-8")) <= hi
    return None


def iter_fetch_records(
    entries: Iterable[CdxEntry], warc_files, tracker: Optional[IoTracker] = None
) -> Iterator[tuple[warc.WarcRecord, warc.RecordLocation]]:
    """(record, location) for each entry, in entry order, with one positioned
    read each.  An entry's bare file name is looked up among warc_files.  The
    record read must be the response the line describes, of its url and
    timestamp: a stale or forged line is BadOffset naming file@offset."""
    tracker = tracker or IoTracker()
    by_name: dict[str, str] = {}
    for path in map(str, warc_files):
        if (other := by_name.setdefault(Path(path).name, path)) != path:
            raise ArchfmtError(f"WARC files {other} and {path} share a name, all a CDX line says of its file")
    open_files: dict[str, tuple] = {}  # path: (file, size)
    try:
        for entry in entries:
            path = by_name.get(entry.filename)
            if path is None:
                raise BadOffset(entry.filename, entry.offset, f"not among the WARC files given: {entry.to_line()}")
            if path not in open_files:
                open_files[path] = tracker.open(path), Path(path).stat().st_size
            fh, size = open_files[path]
            record = warc.read_stored(fh, path, size, entry.offset, entry.stored_length)
            if not _describes(entry, record):
                raise BadOffset(path, entry.offset, f"not the record of the CDX line {entry.to_line()}")
            yield record, warc.RecordLocation(path, entry.offset, entry.stored_length)
    finally:
        for fh, _ in open_files.values():
            fh.close()


def _describes(entry: CdxEntry, record: warc.WarcRecord) -> bool:
    try:
        return (record.record_type == entry.record_type and record.target_uri == entry.url
                and convert.parse_warc_date(record.warc_date_raw) == entry.timestamp)
    except BadDate:
        return False

