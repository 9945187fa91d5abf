"""Row-binary archival container with sync-marker-delimited blocks.

Layout (little-endian): magic "RARC" + u16 version + codec u8 +
u32 schema text length + schema text + 16-byte sync marker; then blocks.
Each block is record_count u32, uncompressed_len u64, compressed_len u64,
the (possibly compressed) concatenated record encodings, and a copy of
the sync marker.  Sequential reads follow the lengths; split readers
recover block boundaries by searching for the marker, which makes the
format splittable and concatenatable.
"""

from __future__ import annotations

import io
import random
import struct
import zlib
from typing import Iterable, Iterator, Optional, Sequence

from .carc import _CODEC_ID, _CODEC_NAME, CarcSchema, _check_value
from .errors import BadMagic, DecompressFailure, SchemaMismatch, SyncLost
from .iostats import IoTracker, Measurement

MAGIC = b"RARC"
VERSION = 1
SYNC_LEN = 16
_BLOCK_HEAD = struct.Struct("<IQQ")


def encode_rows(rows: Sequence[Sequence], schema: CarcSchema) -> bytes:
    parts = []
    for row in rows:
        if len(row) != len(schema.columns):
            raise SchemaMismatch(f"row has {len(row)} fields, schema has {len(schema.columns)}")
        for value, col in zip(row, schema.columns):
            _check_value(value, col)
            if col.nullable:
                parts.append(b"\x01" if value is not None else b"\x00")
                if value is None:
                    continue
            if col.ctype == "INT64":
                parts.append(struct.pack("<q", value))
            else:
                b = value.encode("utf-8") if col.ctype == "STRING" else value
                parts.append(struct.pack("<I", len(b)))
                parts.append(b)
    return b"".join(parts)


def decode_rows(
    raw: bytes, schema: CarcSchema, count: int, bytes_view: bool = False
) -> list[tuple]:
    """Decode count rows from a block payload.

    With bytes_view=True, BYTES values are zero-copy memoryview slices over
    raw; call bytes() on a value to detach it.
    """
    rows = []
    view = memoryview(raw) if bytes_view else raw
    pos = 0
    for _ in range(count):
        fields = []
        for col in schema.columns:
            if col.nullable:
                present = raw[pos]
                pos += 1
                if not present:
                    fields.append(None)
                    continue
            if col.ctype == "INT64":
                fields.append(struct.unpack_from("<q", raw, pos)[0])
                pos += 8
            else:
                (n,) = struct.unpack_from("<I", raw, pos)
                pos += 4
                b = view[pos : pos + n]
                pos += n
                fields.append(str(b, "utf-8") if col.ctype == "STRING" else b)
        rows.append(tuple(fields))
    if pos != len(raw):
        raise DecompressFailure(f"block payload has {len(raw) - pos} trailing bytes")
    return rows


def encode_block(
    rows: Sequence[Sequence], schema: CarcSchema, codec: str, sync: bytes, compresslevel: int = 3
) -> bytes:
    raw = encode_rows(rows, schema)
    stored = zlib.compress(raw, compresslevel) if codec == "gzip" else raw
    return _BLOCK_HEAD.pack(len(rows), len(raw), len(stored)) + stored + sync


def write_rarc(
    rows: Iterable[Sequence],
    schema: CarcSchema,
    out_path,
    rows_per_block: int = 1024,
    codec: str = "gzip",
    seed: int = 0,
    compresslevel: int = 3,
) -> str:
    """Stream rows into an RARC file; the sync marker derives from seed."""
    if codec not in _CODEC_ID:
        raise SchemaMismatch(f"unknown codec {codec!r}")
    out_path = str(out_path)
    sync = random.Random(seed).randbytes(SYNC_LEN)
    schema_text = schema.to_text().encode("utf-8")
    with open(out_path, "wb") as out:
        out.write(MAGIC + struct.pack("<HB", VERSION, _CODEC_ID[codec]))
        out.write(struct.pack("<I", len(schema_text)) + schema_text)
        out.write(sync)
        buffer: list[Sequence] = []
        for row in rows:
            buffer.append(tuple(row))
            if len(buffer) >= rows_per_block:
                out.write(encode_block(buffer, schema, codec, sync, compresslevel))
                buffer.clear()
        if buffer:
            out.write(encode_block(buffer, schema, codec, sync, compresslevel))
    return out_path


def read_header(fh, file) -> tuple[CarcSchema, str, bytes, int]:
    """Returns (schema, codec, sync marker, header length)."""
    head = fh.read(7)
    if head[:4] != MAGIC:
        raise BadMagic(f"{file}: not an RARC file")
    version, codec_id = struct.unpack("<HB", head[4:])
    (schema_len,) = struct.unpack("<I", fh.read(4))
    schema = CarcSchema.from_text(fh.read(schema_len).decode("utf-8"))
    sync = fh.read(SYNC_LEN)
    return schema, _CODEC_NAME[codec_id], sync, 11 + schema_len + SYNC_LEN


def _decode_block_payload(stored: bytes, ulen: int, codec: str, file, offset) -> bytes:
    if codec == "gzip":
        try:
            stored = zlib.decompress(stored, zlib.MAX_WBITS, ulen or 1)
        except zlib.error as exc:
            raise DecompressFailure(f"{file}@{offset}: {exc}") from None
    if len(stored) != ulen:
        raise DecompressFailure(f"{file}@{offset}: uncompressed length mismatch")
    return stored


def read_rarc(
    file, tracker: Optional[IoTracker] = None, bytes_view: bool = False
) -> Iterator[tuple]:
    """Yield all rows in write order with one sequential pass over the file.

    bytes_view is forwarded to decode_rows; views stay valid only until the
    next block is decoded.
    """
    file = str(file)
    tracker = tracker or IoTracker()
    with tracker.open(file, sequential=True) as fh:
        schema, codec, sync, offset = read_header(fh, file)
        while True:
            head = fh.read(_BLOCK_HEAD.size)
            if not head:
                return
            if len(head) < _BLOCK_HEAD.size:
                raise SyncLost(file, offset, "truncated block header")
            count, ulen, clen = _BLOCK_HEAD.unpack(head)
            stored = fh.read(clen)
            marker = fh.read(SYNC_LEN)
            if len(stored) < clen or len(marker) < SYNC_LEN:
                raise SyncLost(file, offset, "truncated block")
            if marker != sync:
                raise SyncLost(file, offset + _BLOCK_HEAD.size + clen, "sync marker mismatch")
            raw = _decode_block_payload(stored, ulen, codec, file, offset)
            yield from decode_rows(raw, schema, count, bytes_view)
            offset += _BLOCK_HEAD.size + clen + SYNC_LEN


def read_rarc_rows(file, tracker: Optional[IoTracker] = None) -> tuple[list[tuple], Measurement]:
    tracker = tracker or IoTracker()
    rows = list(read_rarc(file, tracker))
    return rows, tracker.measurement(records_out=len(rows))


def _valid_block_at(data: bytes, pos: int, sync: bytes) -> bool:
    if pos == len(data):
        return True  # end of file: nothing follows the marker
    if pos + _BLOCK_HEAD.size > len(data):
        return False
    count, ulen, clen = _BLOCK_HEAD.unpack_from(data, pos)
    end = pos + _BLOCK_HEAD.size + clen
    return end + SYNC_LEN <= len(data) and data[end : end + SYNC_LEN] == sync


def resync(file, start_offset: int, tracker: Optional[IoTracker] = None) -> Iterator[tuple]:
    """Scan forward from start_offset for a sync marker, then yield every
    record of every subsequent block.

    A marker whose copy ends at or after start_offset counts, so
    resync(0) and resync(header_len) both pass the header marker and yield
    the whole file.  Payload bytes that happen to equal the marker are
    rejected by validating the block structure that would follow them.
    """
    file = str(file)
    tracker = tracker or IoTracker()
    with tracker.open(file, sequential=True) as fh:
        data = fh.read()
    schema, codec, sync, header_len = read_header(io.BytesIO(data), file)

    search = max(0, start_offset - SYNC_LEN)
    while True:
        idx = data.find(sync, search)
        if idx < 0:
            return
        pos = idx + SYNC_LEN
        if _valid_block_at(data, pos, sync):
            break
        search = idx + 1

    while pos < len(data):
        if pos + _BLOCK_HEAD.size > len(data):
            raise SyncLost(file, pos, "truncated block header")
        count, ulen, clen = _BLOCK_HEAD.unpack_from(data, pos)
        end = pos + _BLOCK_HEAD.size + clen
        if end + SYNC_LEN > len(data) or data[end : end + SYNC_LEN] != sync:
            raise SyncLost(file, pos, "block not terminated by sync marker")
        raw = _decode_block_payload(data[pos + _BLOCK_HEAD.size : end], ulen, codec, file, pos)
        yield from decode_rows(raw, schema, count)
        pos = end + SYNC_LEN
