"""Row-binary archival container with sync-marker-delimited blocks.

Layout (little-endian): magic "RARC" + u16 version + codec u8 +
u32 schema text length + schema text + 16-byte sync marker; then blocks.
Each block is record_count u32, uncompressed_len u64, compressed_len u64,
the (possibly compressed) concatenated record encodings, and a copy of
the sync marker.  Sequential reads follow the lengths; split readers
recover block boundaries by searching for the marker, which makes the
format splittable and concatenatable.  Both go through one block walker,
which checks every length against the file size and the codec before it
sizes a buffer by it.  Blocks are compressed and inflated by the codec
functions of carc, which CARC chunks use too.
"""

from __future__ import annotations

import os
import random
import struct
from typing import Iterable, Iterator, Optional, Sequence

from .carc import _CODEC_ID, _CODEC_NAME, _DECODE_ERRORS, CarcSchema, _check_value, compress, inflate
from .errors import BadMagic, DecompressFailure, SchemaMismatch, SyncLost
from .iostats import IoTracker, Measurement

MAGIC = b"RARC"
VERSION = 1
SYNC_LEN = 16
_HEADER = struct.Struct("<4sHBI")  # magic, version, codec id, schema text length
_BLOCK_HEAD = struct.Struct("<IQQ")
_READ_CHUNK = 1 << 16  # marker search read size
_MAX_SCHEMA = 1 << 20


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
    stored = compress(raw, codec, compresslevel)
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
        head = _HEADER.pack(MAGIC, VERSION, _CODEC_ID[codec], len(schema_text))
        out.write(head + schema_text + sync)
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
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise BadMagic(f"{file}: not an RARC file")
    _, version, codec_id, schema_len = _HEADER.unpack(head)
    if version != VERSION or codec_id not in _CODEC_NAME or schema_len > _MAX_SCHEMA:
        raise BadMagic(f"{file}: RARC version {version}, codec {codec_id}, schema {schema_len} B")
    text = fh.read(schema_len)
    sync = fh.read(SYNC_LEN)
    if len(sync) < SYNC_LEN:
        raise BadMagic(f"{file}: truncated RARC header")
    try:
        schema = CarcSchema.from_text(text.decode("utf-8"))
    except UnicodeDecodeError:
        raise BadMagic(f"{file}: RARC schema is not UTF-8") from None
    return schema, _CODEC_NAME[codec_id], sync, _HEADER.size + schema_len + SYNC_LEN


def _blocks(fh, file: str, header, offset: int, size: int, bytes_view: bool) -> Iterator[list]:
    """Decode the blocks from offset, where fh stands, to the end of the file:
    one list of rows per block.

    A block's stored length is checked against the file size before it is
    read, and its sync marker before inflate checks its uncompressed length,
    so a false marker tried by resync fails with SyncLost.
    """
    schema, codec, sync, _ = header
    while True:
        head = fh.read(_BLOCK_HEAD.size)
        if not head:
            return
        if len(head) < _BLOCK_HEAD.size:
            raise SyncLost(file, offset, "truncated block header")
        count, ulen, clen = _BLOCK_HEAD.unpack(head)
        end = offset + _BLOCK_HEAD.size + clen
        if end + SYNC_LEN > size:
            raise SyncLost(file, offset, f"block of {clen} bytes runs past the end of the file")
        stored = fh.read(clen)
        if fh.read(SYNC_LEN) != sync:
            raise SyncLost(file, end, "sync marker mismatch")
        try:
            rows = decode_rows(inflate(stored, ulen, codec), schema, count, bytes_view)
        except _DECODE_ERRORS as exc:
            raise DecompressFailure(f"{file}@{offset}: {exc}") from None
        yield rows
        offset = end + SYNC_LEN


def read_rarc(
    file, tracker: Optional[IoTracker] = None, bytes_view: bool = False
) -> Iterator[tuple]:
    """Yield all rows in write order with one sequential pass over the file.

    bytes_view is forwarded to decode_rows; a view pins the block it was cut
    from and stays valid for as long as it is held.
    """
    file = str(file)
    tracker = tracker or IoTracker()
    size = os.path.getsize(file)
    with tracker.open(file, sequential=True) as fh:
        header = read_header(fh, file)
        for rows in _blocks(fh, file, header, header[3], size, bytes_view):
            yield from rows


def read_rarc_rows(file, tracker: Optional[IoTracker] = None) -> tuple[list[tuple], Measurement]:
    tracker = tracker or IoTracker()
    rows = list(read_rarc(file, tracker))
    return rows, tracker.measurement(records_out=len(rows))


def _find_marker(fh, sync: bytes, start: int) -> Optional[int]:
    """Seek fh to just past the first copy of sync at or after offset start and
    return that offset, or None if the file holds no further copy."""
    buf = fh.pread(start, _READ_CHUNK)
    base = start
    while (idx := buf.find(sync)) < 0:
        chunk = fh.read(_READ_CHUNK)
        if not chunk:
            return None
        keep = buf[1 - SYNC_LEN :]  # a marker split across two reads
        base += len(buf) - len(keep)
        buf = keep + chunk
    fh.seek(base + idx + SYNC_LEN)
    return base + idx + SYNC_LEN


def resync(file, start_offset: int, tracker: Optional[IoTracker] = None) -> Iterator[tuple]:
    """Stream forward from start_offset to a sync marker, then yield every
    record of every subsequent block.

    A marker whose copy ends at or after start_offset counts, so resync(0)
    and resync(header_len) both yield the whole file.  Payload bytes that
    equal the marker are passed over when no block frames after them.
    Blocks are read as rows are consumed, so reading stops with the caller.
    """
    file = str(file)
    tracker = tracker or IoTracker()
    size = os.path.getsize(file)
    with tracker.open(file, sequential=True) as fh:
        header = read_header(fh, file)
        sync, pos = header[2], header[3]
        if start_offset > pos:
            pos = _find_marker(fh, sync, start_offset - SYNC_LEN)
        while pos is not None:
            blocks = _blocks(fh, file, header, pos, size, False)
            try:
                first = next(blocks, [])
            except SyncLost:
                pos = _find_marker(fh, sync, pos - SYNC_LEN + 1)
                continue
            yield from first
            for rows in blocks:
                yield from rows
            return
