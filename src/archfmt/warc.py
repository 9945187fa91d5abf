"""Read and write WARC files, plain or with one gzip member per record.

A record is a version line, CRLF-terminated header lines, a blank line,
``Content-Length`` bytes of block, and a CRLF CRLF terminator.  The two
CRLFs belong to the preceding record's stored_length so that the
stored lengths of a scan tile the file exactly.

``scan_warc`` walks a file front to back through one read window, refilled
only when it runs short.  A plain record is parsed in place, its
Content-Length checked against the file size before the block is buffered;
a gzip member is inflated from the window in bounded slices.  Memory stays
within one record plus the window.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import BadOffset, GzipCorrupt, IoFailure, LengthMismatch, MalformedHeader
from .iostats import IoTracker

MANDATORY = ("warc-record-id", "content-length", "warc-date", "warc-type")

GZIP_MAGIC = b"\x1f\x8b"
_VERSION_LINES = (b"WARC/1.0\r\n", b"WARC/1.1\r\n")
_WS = " \t\n\r\x0b\x0c"  # what bytes.strip() strips
GZIP_LEVEL = 6
_READ_CHUNK = 1 << 20
# zlib copies the unused rest of its input slice after each member: ~15 KB for
# a 1 KB member; a 64 KiB slice copied 63 KB and scanned such members 5% slower
_INFLATE_SLICE = 1 << 14
_MAX_HEADER = 1 << 20


@dataclass
class WarcRecord:
    record_id: str
    record_type: str  # lowercased WARC-Type value; unknown values kept verbatim
    target_uri: str
    warc_date_raw: str
    content_type: str
    content_length: int
    header_fields: list[tuple[str, str]] = field(default_factory=list)
    block: bytes = b""


@dataclass(frozen=True)
class RecordLocation:
    file: str
    offset: int
    stored_length: int


def make_record(
    record_id: str,
    record_type: str,
    target_uri: str,
    warc_date: str,
    content_type: str,
    block: bytes,
) -> WarcRecord:
    """Assemble a WarcRecord with a conformant header field list."""
    headers = [
        ("WARC-Type", record_type),
        ("WARC-Record-ID", record_id),
        ("WARC-Date", warc_date),
        ("Content-Length", str(len(block))),
        ("Content-Type", content_type),
    ]
    if target_uri:
        headers.insert(3, ("WARC-Target-URI", target_uri))
    return WarcRecord(
        record_id=record_id,
        record_type=record_type.lower(),
        target_uri=target_uri,
        warc_date_raw=warc_date,
        content_type=content_type,
        content_length=len(block),
        header_fields=headers,
        block=block,
    )


def _parse_header(raw: bytes, pos: int, file: str, offset: int) -> Optional[tuple]:
    """Parse the version line and header fields of the record at raw[pos:].

    Returns (fields, fields by lowercased name, header length including the
    blank line, Content-Length), or None when raw ends before the header does.
    """
    if raw[pos : pos + 10] not in _VERSION_LINES:
        if len(raw) - pos >= 10:
            raise MalformedHeader(file, offset, "missing WARC/1.x version line")
        return None
    end = raw.find(b"\r\n\r\n", pos + 8)
    if end < 0:
        return None
    fields: list[tuple[str, str]] = []
    lines = raw[pos + 10 : end].decode("latin-1").split("\r\n") if end > pos + 8 else ()
    for line in lines:
        if line[:1] in (" ", "\t") and fields:  # RFC 2822 continuation
            name, value = fields[-1]
            fields[-1] = (name, value + " " + line.strip(_WS))
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise MalformedHeader(file, offset, f"bad header line {line[:40]!r}")
        fields.append((name, value.strip(_WS)))

    by_name = {k.lower(): v for k, v in fields}
    for name in MANDATORY:
        if name not in by_name:
            raise MalformedHeader(file, offset, f"missing mandatory header {name}")
    length = by_name["content-length"]
    if not (length.isascii() and length.isdigit()):
        raise MalformedHeader(file, offset, f"bad Content-Length {length[:40]!r}")
    return fields, by_name, end + 4 - pos, int(length)


def _take_block(
    raw: bytes, pos: int, head: tuple, file: str, offset: int
) -> tuple[WarcRecord, int]:
    """Cut out the block of the record whose header head was parsed at raw[pos:];
    returns the record and the index in raw just past its terminator."""
    fields, by_name, header_len, length = head
    body = pos + header_len
    end = body + length
    if len(raw) < end:
        raise LengthMismatch(file, offset, f"block shorter than Content-Length {length}")
    if raw[end : end + 4] != b"\r\n\r\n":
        raise MalformedHeader(file, offset, "missing CRLF CRLF record terminator")
    record = WarcRecord(
        record_id=by_name["warc-record-id"],
        record_type=by_name["warc-type"].lower(),
        target_uri=by_name.get("warc-target-uri", ""),
        warc_date_raw=by_name["warc-date"],
        content_type=by_name.get("content-type", ""),
        content_length=length,
        header_fields=fields,
        block=raw[body:end],
    )
    return record, end + 4


def _parse_record(raw: bytes, file: str, offset: int) -> WarcRecord:
    """Parse raw, which holds one whole record and nothing else."""
    head = _parse_header(raw, 0, file, offset)
    if head is None:
        raise MalformedHeader(file, offset, "unterminated header")
    record, end = _take_block(raw, 0, head, file, offset)
    if end != len(raw):
        raise LengthMismatch(file, offset, f"{len(raw) - end} bytes after the record")
    return record


def scan_warc(
    file, tracker: Optional[IoTracker] = None
) -> Iterator[tuple[WarcRecord, RecordLocation]]:
    """Yield every record of file in order together with its location."""
    file = str(file)
    size = os.path.getsize(file)
    if size == 0:
        return
    tracker = tracker or IoTracker()
    with tracker.open(file, sequential=True) as fh:
        buf, base, pos = b"", 0, 0  # the read window: buf[pos] is the byte at offset base + pos

        def fill(need: int) -> bool:  # need bytes from pos on, with at most one read
            nonlocal buf, base, pos
            if len(buf) - pos < need:
                chunk = fh.read(max(_READ_CHUNK, need - len(buf) + pos))
                buf, base, pos = buf[pos:] + chunk, base + pos, 0
            return len(buf) - pos >= need

        gzipped = fill(2) and buf[:2] == GZIP_MAGIC
        while fill(1):
            start = base + pos
            if gzipped:
                if not fill(2) or buf[pos : pos + 2] != GZIP_MAGIC:
                    raise GzipCorrupt(file, start, "missing gzip magic")
                inflater = zlib.decompressobj(wbits=31)
                parts = []
                while not inflater.eof:
                    if not fill(1):
                        raise GzipCorrupt(file, start, "truncated member")
                    piece = memoryview(buf)[pos : pos + _INFLATE_SLICE]
                    try:
                        parts.append(inflater.decompress(piece))
                    except zlib.error as exc:
                        raise GzipCorrupt(file, start, str(exc)) from None
                    pos += len(piece) - len(inflater.unused_data)
                record = _parse_record(b"".join(parts), file, start)
            else:
                while (head := _parse_header(buf, pos, file, start)) is None:
                    if len(buf) - pos > _MAX_HEADER or not fill(len(buf) - pos + 1):
                        raise MalformedHeader(file, start, "unterminated header")
                _, _, header_len, length = head
                if start + header_len + length > size:
                    raise LengthMismatch(file, start, f"Content-Length {length} past end of file")
                fill(header_len + length + 4)
                record, pos = _take_block(buf, pos, head, file, start)
            yield record, RecordLocation(file, start, base + pos - start)


def decode_stored(raw: bytes, file: str, offset: int) -> WarcRecord:
    """Decode the stored bytes of exactly one record: a gzip member if they
    start with the gzip magic, else a plain record."""
    if raw[:2] == GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise BadOffset(file, offset, f"bad gzip member: {exc}") from None
    try:
        return _parse_record(raw, file, offset)
    except MalformedHeader as exc:
        raise BadOffset(file, offset, str(exc)) from None


def read_stored(fh, file: str, size: int, offset: int, lengths: Sequence[int]) -> Iterator[WarcRecord]:
    """Decode the records stored back to back from offset of fh, an open file
    of size bytes, one of each length, with one positioned read; BadOffset
    at the first record whose bytes do not lie inside the file.  Every
    positioned record read goes through here."""
    at = offset
    for length in lengths:
        if not (0 <= at and 0 <= length and at + length <= size):
            raise BadOffset(file, at, f"{length} bytes at {at} do not lie inside its {size} bytes")
        at += length
    data = fh.pread(offset, at - offset)
    at = 0
    for length in lengths:
        yield decode_stored(data[at : at + length], file, offset + at)
        at += length


def read_record_at(file, location: RecordLocation, tracker: Optional[IoTracker] = None) -> WarcRecord:
    """Read exactly one record with a single positioned read of stored_length bytes."""
    file = str(file)
    tracker = tracker or IoTracker()
    with tracker.open(file) as fh:
        return next(read_stored(fh, file, os.path.getsize(file), location.offset, [location.stored_length]))


def serialize_record(record: WarcRecord) -> bytes:
    if record.content_length != len(record.block):
        raise LengthMismatch("<memory>", 0, "content_length != len(block)")
    lines = [b"WARC/1.1\r\n"]
    for name, value in record.header_fields:
        lines.append(f"{name}: {value}\r\n".encode("latin-1"))
    lines.append(b"\r\n")
    lines.append(record.block)
    lines.append(b"\r\n\r\n")
    return b"".join(lines)


def write_warc(records, file, mode: str = "plain") -> list[RecordLocation]:
    """Write records as WARC/1.1, returning the location of each."""
    file = str(file)
    locations = []
    offset = 0
    try:
        with open(file, "wb") as out:
            for record in records:
                raw = serialize_record(record)
                if mode == "member_gzip":
                    raw = gzip.compress(raw, compresslevel=GZIP_LEVEL, mtime=0)
                out.write(raw)
                locations.append(RecordLocation(file, offset, len(raw)))
                offset += len(raw)
    except OSError as exc:
        raise IoFailure(f"writing {file}: {exc}") from exc
    return locations
