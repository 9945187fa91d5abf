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

:func:`build_cdx` writes beside the CDX a summary (:func:`summary_path`,
``<cdx>.idx``) in the manner of pywb's ZipNum summary: a header line
``" CDX-SUMMARY <bytes of the CDX>"``, then for every block of
``SUMMARY_LINES`` lines its first urlkey field and its start offset, the
first block starting at 0.  The CDX bytes do not depend on it.

:func:`parse_cdx` is the one reader: it reads byte spans of the file in
fixed-size chunks.  Given a urlkey or timestamp predicate it checks the
field count and decodes the predicate field of every line it reads (a
timestamp is compared as 17-digit text, whose order is its time order), and
decodes the other fields only of the lines that pass.  So a predicate scan
does not validate those fields on lines it skips; without a predicate every
field of every line is validated.  With no predicate or a time range the
span is the whole file.  With a urlkey predicate and a summary the spans
are the blocks that can hold its keys, read in runs with one seek each:
at 10 ms a seek and 100 MiB/s, a lookup on an 8,000-line (1.44 MB) index
costs 20.3 ms instead of the whole file's 23.7 ms, and on a 200,000-line
(36 MB) index 21.0 ms instead of 358 ms.  Of the block sizes tried (32 to
1,024 lines), 64 gave the fastest lookup at 8,000 lines and 256 at 200,000;
``SUMMARY_LINES`` = 128 came within 15% and 35% of them, closer at both
sizes at once than any other.  The
summary is checked before it is trusted: its size, the CDX size it records,
its offsets and keys in order and inside the CDX, the line start and key at
every block read and the key just past every run, and the order of the
lines read.  A mismatch is :class:`BadSummary` (or :class:`BadCdxLine` for
lines out of order) at file@offset, not an answer that differs from a
whole-file read, as long as the CDX outside the blocks read is still
sorted: a same-size edit of a block a lookup does not read is not seen.
A URL list that needs every block reads the whole file, as without a
summary.

:func:`iter_fetch_records` fetches in (file, offset) order, one positioned
read for records stored back to back, up to ``_FETCH_BYTES``, unless told
to read each record on its own.

A :class:`CdxEntry` holds the canonical values of the columns a line carries
(``CDX_COLUMNS``, read by canonical column name): a projection of the row
:func:`convert.response_rows` derives, plus where the record is stored.
Only this module knows the line: :meth:`CdxEntry.to_line` encodes it and
:func:`parse_cdx` decodes it.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import convert, warc
from .carc import ScanPredicate
from .convert import canonicalize_url  # noqa: F401 (the urlkey codec, importable from here)
from .errors import ArchfmtError, BadCdxLine, BadDate, BadFieldCount, BadOffset, BadSummary
from .httpmsg import http_status
from .iostats import IoTracker

CDX_HEADER = " CDX N b a m s k S V g"
CDX_COLUMNS = ("urlkey", "url", "timestamp", "record_type", "mime", "status", "digest")

_READ_CHUNK = 1 << 13  # parse_cdx read size: the buffer of a plain buffered reader
SUMMARY_LINES = 128  # CDX lines a summary block holds (see the module docstring)
SUMMARY_HEADER = b" CDX-SUMMARY "  # then the byte size of the CDX summarized
_FETCH_BYTES = 8 << 20  # most bytes iter_fetch_records reads at once, unless one record is larger
_MERGE_GAP = 1 << 20  # a gap read through rather than sought over: one 10 ms seek's worth at 100 MiB/s


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
    """Epoch milliseconds to YYYYMMDDhhmmss, the second that holds them."""
    return _format_stamp(epoch_ms)[:14]


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

def summary_path(cdx_path) -> str:
    """Where build_cdx writes the summary of the CDX at cdx_path."""
    return f"{cdx_path}.idx"


def build_cdx(warc_files, out) -> int:
    """Index the response records of the given WARC files into one sorted CDX
    file, and its summary beside it; returns line count."""
    entries = [
        CdxEntry(row.urlkey, row.timestamp_ms, row.url, row.mime, row.status, row.digest,
                 loc.stored_length, loc.offset, Path(loc.file).name)
        for row, loc, _ in convert.response_rows(pair for f in warc_files for pair in warc.scan_warc(f))
    ]
    entries.sort(key=lambda e: (e.urlkey, e.timestamp))  # the order of the line text
    _write_index(entries, out)
    return len(entries)


def _write_index(entries: list[CdxEntry], out) -> None:
    """Write sorted entries as a CDX file and its summary."""
    Path(summary_path(out)).unlink(missing_ok=True)  # no summary outlives the CDX it describes
    blocks = []  # per SUMMARY_LINES lines: the first line's urlkey field and where the block starts
    with open(out, "wb") as fh:
        at = fh.write(CDX_HEADER.encode() + b"\n")
        for i, entry in enumerate(entries):
            line = entry.to_line().encode("utf-8") + b"\n"
            if i % SUMMARY_LINES == 0:  # the first block starts at 0, so it holds the header
                blocks.append(b"%s %d\n" % (line[: line.index(b" ")], at if i else 0))
            at += fh.write(line)
    with open(summary_path(out), "wb") as fh:
        fh.write(b"%s%d\n%s" % (SUMMARY_HEADER, at, b"".join(blocks)))


def parse_cdx(
    file, pred: Optional[ScanPredicate] = None, tracker: Optional[IoTracker] = None
) -> Iterator[CdxEntry]:
    """The entries of a CDX file, or only those whose pred column matches.

    The file is read in _READ_CHUNK pieces over the spans _spans picks: the
    whole file, or for a urlkey predicate on a CDX with a summary the blocks
    that can hold its keys, whose lines must then be in (urlkey, timestamp)
    order.  Every line read is checked for nine fields.  With a urlkey or
    timestamp predicate only that field is decoded on every line (on a
    summary read the urlkey is compared as UTF-8 bytes instead), and only
    the lines it keeps are decoded in full; pred.matches decides on the
    decoded entry.  A line that does not decode is BadCdxLine.
    """
    tracker = tracker or IoTracker()
    keep = _field_test(pred)
    spans = _spans(file, pred, tracker)
    if not spans:
        return
    last = stamp = None  # on a summary read, the urlkey (as UTF-8) and stamp fields of the line before
    if spans[0][2] is not None:  # a summary read: pred is a urlkey set
        last = stamp = b""
        wanted = {k.encode("utf-8", "surrogatepass") for k in pred.values if isinstance(k, str)}
    with tracker.open(file) as fh:
        for first, at, lines in _line_chunks(fh, str(file), spans):
            for i, line in enumerate(lines):
                line = line.rstrip(b"\r")
                if not line or line.startswith(b" CDX"):
                    continue
                fields = line.split(b" ")
                try:
                    if len(fields) != 9:
                        raise _bad_line(BadFieldCount, file, first, at, lines, i,
                                        f"expected 9 fields, got {len(fields)}")
                    if last is not None:  # keys as UTF-8 bytes, whose order is the text's
                        key = fields[0] if b"%" not in fields[0] else _unescape(fields[0].decode("utf-8")).encode()
                        if key <= last and (key < last or fields[1].ljust(17, b"0") < stamp.ljust(17, b"0")):
                            raise ValueError("not in (urlkey, timestamp) order")
                        last, stamp = key, fields[1]
                        if key not in wanted:
                            continue
                    elif keep is not None and not keep(fields):
                        continue
                    entry = _decode_line(line)
                except (ValueError, BadDate) as exc:
                    raise _bad_line(BadCdxLine, file, first, at, lines, i, exc) from None
                if pred is None or pred.matches(getattr(entry, pred.column)):
                    yield entry


def _bad_line(kind, file, first: Optional[int], at: int, lines: list[bytes], i: int, detail) -> BadCdxLine:
    """A kind error at lines[i], of lines whose first is line number first
    (None when unknown) and starts at byte at."""
    return kind(str(file), None if first is None else first + i, detail,
                at + sum(len(line) + 1 for line in lines[:i]))


# A span of the CDX to read: (start, end or None for the end of the file, the
# urlkey field its first line must have or None, the urlkey field the line at
# end must have or None).  Only a summary read has keys.
Span = tuple[int, Optional[int], Optional[bytes], Optional[bytes]]


def _spans(file, pred: Optional[ScanPredicate], tracker: IoTracker) -> list[Span]:
    """What parse_cdx reads of file for pred: the whole file, unless pred is
    a set of urlkeys and file has a summary of one block or more.  Then for
    each key the blocks from the last whose first key is below it through
    the last whose first key is not above it, the first block when there are
    none such, so that the block read shows where the key is; blocks less
    than _MERGE_GAP bytes apart are read with the blocks between them, in
    one run.  When that is every block, the whole file, read as without a
    summary."""
    whole = [(0, None, None, None)]
    path = summary_path(file)
    if pred is None or pred.column != "urlkey" or pred.values is None or not os.path.exists(path):
        return whole
    size = os.path.getsize(file)
    with tracker.open(path, sequential=True) as fh:
        firsts, starts, fields = _read_summary(fh, path, str(file), size)
    if not starts:
        return whole
    ends = starts[1:] + [size]
    picked: list[int] = []
    keys = {k for k in pred.values if isinstance(k, str)}  # no other value is a urlkey
    blocks = {max(i - 1, 0) for i in set(map(bisect_left, repeat(firsts), keys))}  # the bisects run in C
    for k in keys.intersection(firsts):  # a key that starts blocks may have lines in each of them
        blocks.update(range(bisect_left(firsts, k), bisect_right(firsts, k)))
    for i in sorted(blocks):
        if picked and starts[i] - ends[picked[-1]] < _MERGE_GAP:
            picked.extend(range(picked[-1] + 1, i))
        picked.append(i)
    if len(picked) == len(starts):  # every block: the whole file, which needs no summary to be read right
        return whole
    return [(starts[i], ends[i], fields[i], fields[i + 1] if i + 1 < len(fields) else None) for i in picked]


def _read_summary(fh, path: str, cdx_path: str, size: int) -> tuple[list[str], list[int], list[bytes]]:
    """A summary's blocks: first urlkeys, start offsets and first urlkey
    fields.  BadSummary unless it summarizes a CDX of size bytes in blocks
    that start in order inside it, the first at 0, at urlkeys in order."""
    own = os.path.getsize(path)
    if own > size:  # each block's line is shorter than the CDX line it stands for
        raise BadSummary(path, 0, f"{own} bytes, more than the {size} of {cdx_path}")
    data = fh.read(own)
    head, _, body = data.partition(b"\n")
    if not head.startswith(SUMMARY_HEADER) or not data.endswith(b"\n"):
        raise BadSummary(path, 0, "not a CDX summary, or cut short")
    if _number(head[len(SUMMARY_HEADER):]) != size:
        raise BadSummary(path, 0, f"describes a CDX of {head[len(SUMMARY_HEADER):][:24]!r} bytes, "
                                  f"{cdx_path} has {size}: the CDX changed after it was summarized")
    firsts: list[str] = []
    starts: list[int] = []
    fields: list[bytes] = []
    at = len(head) + 1
    for line in body.split(b"\n")[:-1]:
        key_field, _, number = line.partition(b" ")
        start = _number(number)
        try:
            key = _unescape(key_field.decode("utf-8"))
        except UnicodeDecodeError:
            key = None
        if (key is None or start is None or start >= size
                or (start <= starts[-1] or key < firsts[-1] if starts else start != 0)):
            raise BadSummary(path, at, f"not a block after the one before inside {size} bytes: {line[:80]!r}")
        firsts.append(key)
        starts.append(start)
        fields.append(key_field)
        at += len(line) + 1
    return firsts, starts, fields


def _number(text: bytes) -> Optional[int]:
    """The value of 1 to 20 ASCII digits, else None."""
    return int(text) if 0 < len(text) <= 20 and text.isascii() and text.isdigit() else None


def _line_chunks(fh, file: str, spans: list[Span]) -> Iterator[tuple[Optional[int], int, list[bytes]]]:
    """Per _READ_CHUNK read over spans, in file order: the number of the
    first line the read ends (None unless the reading began at the top of
    the file), the offset of that line, and the lines, without b"\\n".  A
    line read in pieces is joined once, so memory holds one chunk plus the
    longest line; a last line without b"\\n" comes last.

    A span that does not continue the one before starts a run with one seek.
    Where a span has keys, its start and end must be line starts (the byte
    before a run is read for its b"\\n"), the first line past the header
    must have its first key, and after a run the bytes at its end must be
    its end key and a space; else BadSummary at that offset.
    """
    line_no, line_at, at, head = None, 0, None, []  # head: the pieces of the line no read has ended yet
    check = fence = None  # (offset, urlkey field) to find at the next line, at the end of the run
    for start, end, key, end_key in spans:
        if start != at:  # a new run
            _close_run(fh, file, at, head, fence)
            fh.seek(max(start - 1, 0))
            if start and fh.read(1) != b"\n":
                raise BadSummary(file, start, "no CDX line starts here")
            line_no, line_at, at, head = (1 if start == 0 else None), start, start, []
        elif any(head):
            raise BadSummary(file, start, "no CDX line starts here")
        check, fence = (start, key) if key is not None else None, (end, end_key) if end_key is not None else None
        while end is None or at < end:
            if not (chunk := fh.read(_READ_CHUNK if end is None else min(_READ_CHUNK, end - at))):
                break
            at += len(chunk)
            *ended, tail = chunk.split(b"\n")
            if ended:
                ended[0] = b"".join(head) + ended[0]
                check = _check_first(file, ended, check)
                yield line_no, line_at, ended
                if line_no is not None:
                    line_no += len(ended)
                line_at, head = at - len(tail), []
            head.append(tail)
        if check is not None and not any(head):
            raise BadSummary(file, check[0], "the summary has a block here that holds no CDX line")
    _close_run(fh, file, at, head, fence)
    last = b"".join(head)
    if last:
        _check_first(file, [last], check)
        yield line_no, line_at, [last]


def _check_first(file: str, lines: list[bytes], check):
    """check, or None once the first of lines past the header has the
    urlkey field check asks for; BadSummary if it has another."""
    if check is not None:
        for line in lines:
            if line.rstrip(b"\r") and not line.startswith(b" CDX"):
                if line.split(b" ", 1)[0] != check[1]:
                    raise BadSummary(file, check[0], f"the summary has {check[1][:80]!r} at the start of the block")
                return None
    return check


def _close_run(fh, file: str, at, head: list[bytes], fence) -> None:
    """At the end of a run: it must end a line, and where a block follows,
    the bytes there must be that block's first urlkey field and a space."""
    if fence is None:
        return
    if any(head):
        raise BadSummary(file, at, "no CDX line starts here")
    if fh.read(len(fence[1]) + 1) != fence[1] + b" ":
        raise BadSummary(file, fence[0], f"the summary has {fence[1][:80]!r} at the start of the block")


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
    entries: Iterable[CdxEntry], warc_files, tracker: Optional[IoTracker] = None, coalesce: bool = True
) -> Iterator[tuple[warc.WarcRecord, warc.RecordLocation]]:
    """(record, location) for each entry, in (file, offset) order.  An
    entry's bare file name is looked up among warc_files.  With coalesce,
    records stored exactly back to back are fetched with one positioned read
    of at most _FETCH_BYTES (or one record, if that is larger); without it,
    each record with a positioned read of its own.  Each record read must
    be the response its line describes, of its url and timestamp: a stale
    or forged line is BadOffset naming file@offset."""
    tracker = tracker or IoTracker()
    by_name: dict[str, str] = {}
    for path in map(str, warc_files):
        if (other := by_name.setdefault(Path(path).name, path)) != path:
            raise ArchfmtError(f"WARC files {other} and {path} share a name, all a CDX line says of its file")
    runs: list[list[CdxEntry]] = []  # the entries of each read
    for entry in sorted(entries, key=lambda e: (e.filename, e.offset)):
        if entry.filename not in by_name:
            raise BadOffset(entry.filename, entry.offset, f"not among the WARC files given: {entry.to_line()}")
        run = runs[-1] if runs else None
        if (coalesce and run and run[-1].filename == entry.filename and run[-1].offset + run[-1].stored_length == entry.offset
                and entry.offset + entry.stored_length - run[0].offset <= _FETCH_BYTES):
            run.append(entry)
        else:
            runs.append([entry])
    open_files: dict[str, tuple] = {}  # path: (file, size)
    try:
        for run in runs:
            path = by_name[run[0].filename]
            if path not in open_files:
                open_files[path] = tracker.open(path), Path(path).stat().st_size
            fh, size = open_files[path]
            records = warc.read_stored(fh, path, size, run[0].offset, [e.stored_length for e in run])
            for entry, record in zip(run, records):
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

