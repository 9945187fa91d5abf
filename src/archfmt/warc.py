"""Read and write WARC files, plain or with one gzip member per record.

A record is a version line, CRLF-terminated header lines, a blank line,
``Content-Length`` bytes of block, and a CRLF CRLF terminator.  The two
CRLFs belong to the preceding record's stored_length so that the
stored lengths of a scan tile the file exactly.
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .errors import BadOffset, GzipCorrupt, IoFailure, LengthMismatch, MalformedHeader
from .iostats import IoTracker

MANDATORY = ("warc-record-id", "content-length", "warc-date", "warc-type")

GZIP_MAGIC = b"\x1f\x8b"
_CRLF = b"\r\n"
_READ_CHUNK = 1 << 20


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

    def header(self, name: str) -> Optional[str]:
        """First value of a header, case-insensitive, or None."""
        low = name.lower()
        for k, v in self.header_fields:
            if k.lower() == low:
                return v
        return None


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


def _parse_record_bytes(raw: bytes, file: str, offset: int) -> tuple[WarcRecord, int]:
    """Parse one record from raw, returning (record, bytes consumed)."""
    if not raw.startswith(b"WARC/1.0\r\n") and not raw.startswith(b"WARC/1.1\r\n"):
        raise MalformedHeader(file, offset, "missing WARC/1.x version line")
    pos = raw.index(_CRLF) + 2
    fields: list[tuple[str, str]] = []
    while True:
        end = raw.find(_CRLF, pos)
        if end < 0:
            raise MalformedHeader(file, offset, "unterminated header")
        line = raw[pos:end]
        pos = end + 2
        if not line:
            break
        if line[:1] in b" \t" and fields:  # RFC 2822 continuation
            name, value = fields[-1]
            fields[-1] = (name, value + " " + line.strip().decode("latin-1"))
            continue
        sep = line.find(b":")
        if sep < 0:
            raise MalformedHeader(file, offset, f"bad header line {line[:40]!r}")
        fields.append((line[:sep].decode("latin-1"), line[sep + 1 :].strip().decode("latin-1")))

    by_name = {k.lower(): v for k, v in fields}
    for name in MANDATORY:
        if name not in by_name:
            raise MalformedHeader(file, offset, f"missing mandatory header {name}")
    try:
        length = int(by_name["content-length"])
    except ValueError:
        raise MalformedHeader(file, offset, "non-numeric Content-Length") from None

    if len(raw) - pos < length:
        raise LengthMismatch(
            file, offset, f"block shorter than Content-Length {length}: {len(raw) - pos} available"
        )
    block = raw[pos : pos + length]
    pos += length
    if raw[pos : pos + 4] != b"\r\n\r\n":
        raise MalformedHeader(file, offset, "missing CRLF CRLF record terminator")
    pos += 4

    record = WarcRecord(
        record_id=by_name["warc-record-id"],
        record_type=by_name["warc-type"].lower(),
        target_uri=by_name.get("warc-target-uri", ""),
        warc_date_raw=by_name["warc-date"],
        content_type=by_name.get("content-type", ""),
        content_length=length,
        header_fields=fields,
        block=block,
    )
    return record, pos


def detect_mode(file) -> str:
    with open(file, "rb") as fh:
        magic = fh.read(2)
    return "member_gzip" if magic == GZIP_MAGIC else "plain"


def _scan_plain(fh, file: str) -> Iterator[tuple[WarcRecord, RecordLocation]]:
    buf = bytearray()
    base = 0  # absolute offset of buf[0]
    eof = False
    while True:
        # buffer until one whole record parses (or the file truly ends)
        while True:
            if buf:
                try:
                    record, consumed = _parse_record_bytes(bytes(buf), file, base)
                    break
                except (LengthMismatch, MalformedHeader):
                    if eof:
                        raise
            elif eof:
                return
            chunk = fh.read(_READ_CHUNK)
            if chunk:
                buf += chunk
            else:
                eof = True
        yield record, RecordLocation(file, base, consumed)
        del buf[:consumed]
        base += consumed


def _scan_member_gzip(fh, file: str) -> Iterator[tuple[WarcRecord, RecordLocation]]:
    buf = b""
    member_start = 0
    eof = False
    while True:
        # Keep at least two bytes buffered so the magic check never sees a
        # member header split across read-chunk boundaries.
        while len(buf) < 2 and not eof:
            chunk = fh.read(_READ_CHUNK)
            if not chunk:
                eof = True
            else:
                buf += chunk
        if not buf and eof:
            return
        if buf[:2] != GZIP_MAGIC:
            raise GzipCorrupt(file, member_start, "missing gzip magic")
        decomp = zlib.decompressobj(wbits=31)
        parts = []
        consumed = 0
        while not decomp.eof:
            if not buf:
                chunk = fh.read(_READ_CHUNK)
                if not chunk:
                    raise GzipCorrupt(file, member_start, "truncated member")
                buf = chunk
            try:
                parts.append(decomp.decompress(buf))
            except zlib.error as exc:
                raise GzipCorrupt(file, member_start, str(exc)) from None
            leftover = decomp.unused_data
            consumed += len(buf) - len(leftover)
            buf = leftover
        out = parts[0] if len(parts) == 1 else b"".join(parts)
        record, used = _parse_record_bytes(out, file, member_start)
        if used != len(out):
            raise MalformedHeader(file, member_start, "trailing bytes after record in gzip member")
        yield record, RecordLocation(file, member_start, consumed)
        member_start += consumed


def scan_warc(
    file, tracker: Optional[IoTracker] = None
) -> Iterator[tuple[WarcRecord, RecordLocation]]:
    """Yield every record of file in order together with its location."""
    file = str(file)
    if Path(file).stat().st_size == 0:
        return
    tracker = tracker or IoTracker()
    with tracker.open(file, sequential=True) as fh:
        if detect_mode(file) == "member_gzip":
            yield from _scan_member_gzip(fh, file)
        else:
            yield from _scan_plain(fh, file)


def decode_stored(raw: bytes, file: str, offset: int, mode: str = "auto") -> WarcRecord:
    """Decode the stored bytes of exactly one record (member-gzip or plain)."""
    if mode == "auto":
        mode = "member_gzip" if raw[:2] == GZIP_MAGIC else "plain"
    if mode == "member_gzip":
        if raw[:2] != GZIP_MAGIC:
            raise BadOffset(file, offset, "no gzip member starts here")
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise BadOffset(file, offset, f"bad gzip member: {exc}") from None
    if not raw.startswith(b"WARC/1.0\r\n") and not raw.startswith(b"WARC/1.1\r\n"):
        raise BadOffset(file, offset)
    try:
        record, used = _parse_record_bytes(raw, file, offset)
    except MalformedHeader as exc:
        raise BadOffset(file, offset, str(exc)) from None
    if used != len(raw):
        raise LengthMismatch(file, offset, "record does not fill stored_length")
    return record


def read_record_at(
    file, location: RecordLocation, mode: str = "auto", tracker: Optional[IoTracker] = None
) -> WarcRecord:
    """Read exactly one record with a single positioned read of stored_length bytes."""
    file = str(file)
    tracker = tracker or IoTracker()
    with tracker.open(file) as fh:
        raw = fh.pread(location.offset, location.stored_length)
    return decode_stored(raw, file, location.offset, mode)


def serialize_record(record: WarcRecord) -> bytes:
    if record.content_length != len(record.block):
        raise LengthMismatch("<memory>", 0, "content_length != len(block)")
    lines = [b"WARC/1.1\r\n"]
    for name, value in record.header_fields:
        lines.append(f"{name}: {value}\r\n".encode("latin-1"))
    lines.append(_CRLF)
    lines.append(record.block)
    lines.append(b"\r\n\r\n")
    return b"".join(lines)


def write_warc(records, file, mode: str = "plain", compresslevel: int = 6) -> list[RecordLocation]:
    """Write records as WARC/1.1, returning the location of each."""
    file = str(file)
    locations = []
    offset = 0
    try:
        with open(file, "wb") as out:
            for record in records:
                raw = serialize_record(record)
                if mode == "member_gzip":
                    raw = gzip.compress(raw, compresslevel=compresslevel, mtime=0)
                out.write(raw)
                locations.append(RecordLocation(file, offset, len(raw)))
                offset += len(raw)
    except OSError as exc:
        raise IoFailure(f"writing {file}: {exc}") from exc
    return locations
