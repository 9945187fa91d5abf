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

:func:`parse_cdx` is the one reader.  Given a urlkey or timestamp predicate
it checks the field count and decodes the predicate field of every line it
reads (a timestamp is compared as 17-digit text, whose order is its time
order), and decodes the other fields only of the lines that pass.  So a
predicate scan does not validate those fields on lines it skips; without a
predicate every field of every line is validated.  With no predicate or a
time range it reads the whole file in ``_READ_CHUNK`` pieces.  With a
urlkey predicate and a summary it reads the blocks that can hold its keys,
in runs with one seek each and each block in one read, blocks at most the
cost model's break-even (``iostats.MERGE_GAP``) apart sharing a run: at
10 ms a seek and 100 MiB/s, a lookup on an 8,000-line (1.44 MB) index
costs 20.3 ms instead of the whole file's 23.7 ms, and on a 200,000-line
(36 MB) index 21.0 ms instead of 358 ms.  Of the block sizes tried (32 to 1,024 lines), 64 gave
the fastest lookup at 8,000 lines and 256 at 200,000; ``SUMMARY_LINES`` =
128 came within 15% and 35% of them, closer at both sizes at once than any
other.  A block to read of more than ``_FETCH_BYTES``, or a URL list that
needs every block, reads the whole file, as without a summary, so memory
holds one block or one chunk plus the longest line.  The summary is checked
before it is trusted: its size, the CDX size it records, its offsets and
keys in order and inside the CDX, the line start and key at every block
read and the key just past every run, and the order of the lines read.  A
mismatch is :class:`BadSummary` (or :class:`BadCdxLine` for lines out of
order) at file@offset, not an answer that differs from a whole-file read,
as long as the CDX outside the blocks read is still sorted: a same-size
edit of a block a lookup does not read is not seen.  Every lookup reads
the summary and checks its size; its blocks are decoded once per distinct
summary bytes, CDX size and paths among the last ``SUMMARY_MEMO``.

A time range tests the lines of each whole-file read together
(:func:`_window_rows`): eight spaces a line, the stamps' lengths and digits
over their concatenation, and the range on the stamps as padded text.  A
summary read checks each block together (:func:`_summary_rows`): nine
plain fields a line, stamps of one length, and the (urlkey, timestamp)
order in one comparison of the block's pairs with their sorted list, from
the line before on; the wanted keys are found by bisection.  A read or
block with a line that fails a check, or that the loop skips (a header,
an empty line), is tested line by line, so an error keeps its line number
and offset.

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

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import convert, warc
from .carc import ScanPredicate
from .convert import canonicalize_url  # noqa: F401 (the urlkey codec, importable from here)
from .errors import ArchfmtError, BadCdxLine, BadDate, BadFieldCount, BadOffset, BadSummary
from .httpmsg import http_status
from .iostats import MERGE_GAP, RUN_BYTES, IoTracker, coalesce

CDX_HEADER = " CDX N b a m s k S V g"
CDX_COLUMNS = ("urlkey", "url", "timestamp", "record_type", "mime", "status", "digest")

_READ_CHUNK = 1 << 16  # parse_cdx whole-file read size; memory holds one piece plus the longest line
SUMMARY_LINES = 128  # CDX lines a summary block holds (see the module docstring)
SUMMARY_HEADER = b" CDX-SUMMARY "  # then the byte size of the CDX summarized
SUMMARY_MEMO = 1  # decoded summaries kept, each with the bytes it was decoded from
_FETCH_BYTES = RUN_BYTES  # most bytes one fetch reads (unless one record is larger) or one summary block holds
_MERGE_GAP = MERGE_GAP  # a gap read through rather than sought over: the cost model's break-even


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
    entries: list[CdxEntry] = []
    for f in warc_files:
        name = Path(f).name
        entries += [CdxEntry(row.urlkey, row.timestamp_ms, row.url, row.mime, row.status, row.digest,
                             loc.stored_length, loc.offset, name)
                    for row, loc, _ in convert.response_rows(warc.scan_warc(f))]
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

    _plan picks what is read: the whole file, in _READ_CHUNK pieces, or for
    a urlkey predicate on a CDX with a summary the runs of blocks that can
    hold its keys, each block in one read, whose lines must then be in
    (urlkey, timestamp) order.  Every line read is checked for nine fields.
    With a urlkey or timestamp predicate only that field is decoded on every
    line (on a summary read the urlkey is compared as UTF-8 bytes instead),
    and only the lines it keeps are decoded in full; pred.matches decides
    on the decoded entry.  The lines of a plain summary block are checked
    and matched together by _summary_rows, those of a whole-file read under
    a time range by _window_rows, when they all pass.  A line that does
    not decode is BadCdxLine.
    """
    tracker = tracker or IoTracker()
    keep = _field_test(pred)
    window = None  # a time range as 17-digit stamp bytes, tested a read at a time by _window_rows
    if pred is not None and pred.column == "timestamp" and pred.values is None:
        window = _bound17(pred.lo).encode(), _bound17(pred.hi).encode()
    plan = _plan(file, pred, tracker)
    last = stamp = None  # on a summary read, the urlkey (as UTF-8) and stamp fields of the line before
    if plan is not None:  # a summary read: pred is a urlkey set
        last = stamp = b""
        wanted = {k.encode("utf-8", "surrogatepass") for k in pred.values if isinstance(k, str)}
        in_order = sorted(wanted)
    with tracker.open(file) as fh:
        for first, at, lines in _file_lines(fh) if plan is None else _block_lines(fh, str(file), *plan):
            kept = None
            if window is not None:
                kept = _window_rows(lines, *window)
            elif plan is not None and (found := _summary_rows(lines, last, stamp, in_order)) is not None:
                kept, last, stamp = found
            if kept is not None:  # every line checked, these to decode
                for i in kept:
                    try:
                        entry = _decode_line(lines[i].rstrip(b"\r"))
                    except (ValueError, BadDate) as exc:
                        raise _bad_line(BadCdxLine, file, first, at, lines, i, exc) from None
                    if pred.matches(getattr(entry, pred.column)):
                        yield entry
                continue
            for i, line in enumerate(lines):
                line = line.rstrip(b"\r")
                if not line or line.startswith(b" CDX"):
                    continue
                fields = line.split(b" ")
                try:
                    if len(fields) != 9:
                        raise _bad_line(BadFieldCount, file, first, at, lines, i,
                                        f"expected 9 fields, got {len(fields)}")
                    if last is not None:  # keys as UTF-8 bytes, whose order is the text's, decoded unless ASCII
                        key = (fields[0] if fields[0].isascii() and b"%" not in fields[0]
                               else _unescape(fields[0].decode("utf-8")).encode())
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


def _window_rows(lines: list[bytes], lo: bytes, hi: bytes) -> Optional[list[int]]:
    """The indices of the lines of one read whose timestamp field, padded to
    17 digits, lies in [lo, hi], found in a few passes over the read.  None
    unless every line passes what parse_cdx checks of a line before it
    decodes it: nine fields, as eight spaces (so no line is empty or a
    header), and a stamp of 14 or 17 ASCII digits; then parse_cdx tests the
    lines one by one, to raise at the line that fails."""
    if set(map(bytes.count, lines, repeat(b" "))) != {8}:
        return None
    stamps = [line.split(b" ", 2)[1] for line in lines]
    if not (b"".join(stamps).isdigit() and set(map(len, stamps)) <= {14, 17}):
        return None
    return [i for i, s in enumerate(stamps) if lo <= s.ljust(17, b"0") <= hi]


_PLAIN = bytes(range(0x20, 0x7F)).replace(b"%", b"") + b"\n"  # the bytes of a block _summary_rows checks in batch


def _summary_rows(lines: list[bytes], last: bytes, stamp: bytes,
                  wanted: list[bytes]) -> Optional[tuple[list[int], bytes, bytes]]:
    """For the lines of one summary block, read after a line of urlkey field
    last and stamp field stamp, and the sorted keys wanted: the indices of
    the lines whose urlkey field is wanted, and the urlkey and stamp fields
    of the block's last line.  The block is checked in a few passes: every
    line plain (eight spaces, so nine fields; printable ASCII without a %
    escape, so no CR and each urlkey field its key; no header), every stamp
    of one length, 14 or 17, and the (urlkey, stamp) pairs in order from
    the line before on.  An empty last line, which ends the file, is left
    out.  None unless the block passes; then parse_cdx checks its lines one
    by one, to raise at the line that fails."""
    if lines and not lines[-1]:
        lines = lines[:-1]
    if not lines or set(map(bytes.count, lines, repeat(b" "))) != {8}:
        return None
    block = b"\n".join(lines)
    if block.translate(None, _PLAIN) or block.startswith(b" CDX") or b"\n CDX" in block:
        return None
    pairs = [line.split(b" ", 2)[:2] for line in lines]
    key, first = pairs[0]
    if ({len(s) for _, s in pairs} not in ({14}, {17})
            or key <= last and (key < last or first.ljust(17, b"0") < stamp.ljust(17, b"0"))
            or sorted(pairs) != pairs):
        return None
    keys = [key for key, _ in pairs]
    near = wanted[bisect_left(wanted, keys[0]) : bisect_right(wanted, keys[-1])]  # the keys the block can hold
    rows = [i for k in near for i in range(bisect_left(keys, k), bisect_right(keys, k))]
    return rows, *pairs[-1]


def _bad_line(kind, file, first: Optional[int], at: int, lines: list[bytes], i: int, detail) -> BadCdxLine:
    """A kind error at lines[i], of lines whose first is line number first
    (None when unknown) and starts at byte at."""
    return kind(str(file), None if first is None else first + i, detail,
                at + sum(len(line) + 1 for line in lines[:i]))


def _plan(file, pred: Optional[ScanPredicate], tracker: IoTracker):
    """What parse_cdx reads of file for pred: None for the whole file, unless
    pred is a set of urlkeys and file has a summary of one block or more.
    Then (bounds, fields, runs): where each block starts, then the file
    size; each block's first urlkey field; and the runs of blocks to read,
    as (first, last) block.  For each key they hold the blocks from the last
    whose first key is below it through the last whose first key is not
    above it, the first block when there are none such, so that the block
    read shows where the key is; blocks at most _MERGE_GAP bytes apart
    are read with the blocks between them, in one run.  None again when
    that is every block, which reads as without a summary, or when a block
    to read is larger than _FETCH_BYTES, as _block_lines holds each whole."""
    path = summary_path(file)
    if pred is None or pred.column != "urlkey" or pred.values is None or not os.path.exists(path):
        return None
    size = os.path.getsize(file)
    with tracker.open(path, sequential=True) as fh:
        firsts, bounds, fields = _read_summary(fh, path, str(file), size)
    if not fields:
        return None
    keys = {k for k in pred.values if isinstance(k, str)}  # no other value is a urlkey
    blocks = {max(i - 1, 0) for i in set(map(bisect_left, repeat(firsts), keys))}  # the bisects run in C
    for k in keys.intersection(firsts):  # a key that starts blocks may have lines in each of them
        blocks.update(range(bisect_left(firsts, k), bisect_right(firsts, k)))
    # no cap: a run is read a block at a time
    spans = coalesce([(bounds[i], bounds[i + 1]) for i in blocks], _MERGE_GAP, math.inf)
    runs = [(bisect_left(bounds, start), bisect_left(bounds, end) - 1) for start, end in spans]
    if runs == [(0, len(fields) - 1)] or any(
            bounds[i + 1] - bounds[i] > _FETCH_BYTES for first, last in runs for i in range(first, last + 1)):
        return None
    return bounds, fields, runs


def _read_summary(fh, path: str, cdx_path: str, size: int) -> tuple[tuple, tuple, tuple]:
    """A summary's blocks: first urlkeys, start offsets then size, and first
    urlkey fields.  BadSummary unless it summarizes a CDX of size bytes in
    blocks that start in order inside it, the first at 0, at urlkeys in
    order.  The summary is read and its size checked on every call, and
    decoded by _summary_blocks."""
    own = os.path.getsize(path)
    if own > size:  # each block's line is shorter than the CDX line it stands for
        raise BadSummary(path, 0, f"{own} bytes, more than the {size} of {cdx_path}")
    return _summary_blocks(fh.read(own), path, cdx_path, size)


@lru_cache(maxsize=SUMMARY_MEMO)
def _summary_blocks(data: bytes, path: str, cdx_path: str, size: int) -> tuple[tuple, tuple, tuple]:
    """_read_summary's result from the summary's bytes, decoded once per
    distinct arguments among the last SUMMARY_MEMO (the paths name errors);
    an error is not kept, so a bad summary raises on every read."""
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
    return tuple(firsts), (*starts, size), tuple(fields)


def _number(text: bytes) -> Optional[int]:
    """The value of 1 to 20 ASCII digits, else None."""
    return int(text) if 0 < len(text) <= 20 and text.isascii() and text.isdigit() else None


def _file_lines(fh) -> Iterator[tuple[int, int, list[bytes]]]:
    """Per _READ_CHUNK read of the whole file: the number and offset of the
    first line the read ends, and the lines, without b"\\n".  A line read in
    pieces is joined once, so memory holds one chunk plus the longest line;
    a last line without b"\\n" comes last."""
    fh.seek(0)
    line_no, line_at, at, head = 1, 0, 0, []  # head: the pieces of the line no read has ended yet
    while chunk := fh.read(_READ_CHUNK):
        at += len(chunk)
        *ended, tail = chunk.split(b"\n")
        if ended:
            ended[0] = b"".join(head) + ended[0]
            yield line_no, line_at, ended
            line_no += len(ended)
            line_at, head = at - len(tail), []
        head.append(tail)
    if last := b"".join(head):
        yield line_no, line_at, [last]


def _block_lines(fh, file: str, bounds: Sequence[int], fields: Sequence[bytes],
                 runs: list[tuple[int, int]]) -> Iterator[tuple[Optional[int], int, list[bytes]]]:
    """Per block of runs, in file order: the number of its first line (None
    unless its run starts the file), its offset, and its lines, without
    b"\\n".  A run is one seek and a block one read, so memory holds one
    block.  The byte before a run must be b"\\n", the first line of a block
    past the header must have its urlkey field, a block must end a line
    unless it ends the file, and after a run the bytes there must be the
    next block's urlkey field and a space; else BadSummary at that offset.
    """
    for first, last in runs:
        fh.seek(max(bounds[first] - 1, 0))
        if bounds[first] and fh.read(1) != b"\n":
            raise BadSummary(file, bounds[first], "no CDX line starts here")
        line_no = 1 if bounds[first] == 0 else None
        for i in range(first, last + 1):
            start, end = bounds[i], bounds[i + 1]
            lines = fh.read(end - start).split(b"\n")
            tail = lines.pop() if i + 1 < len(fields) else b""  # the start of a line the block does not end
            head = next((line for line in lines if line.rstrip(b"\r") and not line.startswith(b" CDX")), None)
            if head is None and not tail:
                raise BadSummary(file, start, "the summary has a block here that holds no CDX line")
            if head is not None and head.split(b" ", 1)[0] != fields[i]:
                raise BadSummary(file, start, f"the summary has {fields[i][:80]!r} at the start of the block")
            yield line_no, start, lines
            if tail:
                raise BadSummary(file, end, "no CDX line starts here")
            if line_no is not None:
                line_no += len(lines)
        if last + 1 < len(fields) and fh.read(len(fields[last + 1]) + 1) != fields[last + 1] + b" ":
            raise BadSummary(file, bounds[last + 1],
                             f"the summary has {fields[last + 1][:80]!r} at the start of the block")


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

