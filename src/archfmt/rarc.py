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
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .carc import (
    CODEC_ID, CTYPES, _CODEC_NAME, _DECODE_ERRORS, _LEN_STRUCT, CarcSchema, ScanPredicate, _check_value, compress,
    created, inflate, ordered_map,
)
from .errors import BadMagic, DecompressFailure, SchemaMismatch, SyncLost
from .iostats import IoTracker

MAGIC = b"RARC"
VERSION = 1
SYNC_LEN = 16
_HEADER = struct.Struct("<4sHBI")  # magic, version, codec id, schema text length
_BLOCK_HEAD = struct.Struct("<IQQ")
_READ_CHUNK = 1 << 16  # marker search read size
_MAX_SCHEMA = 1 << 20
_INT_STRUCT = struct.Struct("<q")


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


def row_layout(schema: CarcSchema, columns: Optional[Sequence[int]] = None) -> tuple[tuple[bool, int, bool], ...]:
    """What decode_rows walks in a row of schema, per column: (nullable,
    0 INT64 / 1 STRING / 2 BYTES, whether it is built), every column built
    when columns, the indices of the columns to build, is None."""
    return tuple((col.nullable, CTYPES.index(col.ctype), columns is None or ci in columns)
                 for ci, col in enumerate(schema.columns))


def decode_rows(
    raw: bytes,
    layout: tuple[tuple[bool, int, bool], ...],
    count: int,
    bytes_view: bool = False,
    rows: Optional[Sequence[int]] = None,
) -> list[tuple]:
    """Decode the rows at the indices rows (every row when None) of the count
    rows of a block payload, in block order, each as a tuple of the columns
    the layout (see row_layout) builds, in schema order.

    Every null flag and value length of every row is walked, so a block that
    does not frame fails whatever is built; other fields and rows are
    skipped unbuilt, so a STRING value is checked to be UTF-8 only when it
    is returned.  With bytes_view=True, BYTES values are zero-copy
    memoryview slices over raw; call bytes() on a value to detach it.
    """
    unpack_len = _LEN_STRUCT.unpack_from
    view = memoryview(raw) if bytes_view else raw
    taken = None if rows is None else set(rows)
    walk = layout if rows is None else tuple((nullable, kind, False) for nullable, kind, _ in layout)  # of a row not taken
    out = []
    pos = 0
    for r in range(count):
        take = taken is None or r in taken
        fields = []
        for nullable, kind, built in layout if take else walk:
            if nullable:
                present = raw[pos]
                pos += 1
                if not present:
                    if built:
                        fields.append(None)
                    continue
            if kind == 0:
                if built:
                    fields.append(_INT_STRUCT.unpack_from(raw, pos)[0])
                pos += 8
            else:
                (n,) = unpack_len(raw, pos)
                pos += 4
                if built:
                    b = view[pos : pos + n]
                    fields.append(str(b, "utf-8") if kind == 1 else b)
                pos += n
        if take:
            out.append(tuple(fields))
    if pos != len(raw):
        raise DecompressFailure(f"block payload has {len(raw) - pos} trailing bytes")
    return out


def encode_block(count: int, raw: bytes, codec: str, sync: bytes, compresslevel: int = 3) -> bytes:
    """The framed block of count rows whose encoding (encode_rows) is raw."""
    stored = compress(raw, codec, compresslevel)
    return _BLOCK_HEAD.pack(count, len(raw), len(stored)) + stored + sync


def write_rarc(
    rows: Iterable[Sequence],
    schema: CarcSchema,
    out_path,
    rows_per_block: int = 1024,
    codec: str = "gzip",
    seed: int = 0,
    compresslevel: int = 3,
) -> str:
    """Stream rows into an RARC file; the sync marker derives from seed.
    Blocks are encoded in the calling thread and each is compressed alone
    through ordered_map, so the bytes do not depend on the thread count.
    On any error the file is removed."""
    if codec not in CODEC_ID:
        raise SchemaMismatch(f"unknown codec {codec!r}")
    out_path = str(out_path)
    sync = random.Random(seed).randbytes(SYNC_LEN)
    schema_text = schema.to_text().encode("utf-8")
    it = map(tuple, rows)
    encoded = ((len(b), encode_rows(b, schema)) for b in iter(lambda: list(islice(it, rows_per_block)), []))
    with created(out_path) as out:
        head = _HEADER.pack(MAGIC, VERSION, CODEC_ID[codec], len(schema_text))
        out.write(head + schema_text + sync)
        for block in ordered_map(lambda unit: encode_block(*unit, codec, sync, compresslevel), encoded,
                                 lambda unit: 0 if codec == "none" else len(unit[1])):
            out.write(block)
    return out_path


def read_header(fh, file) -> tuple[CarcSchema, str, bytes, int]:
    """Returns (schema, codec, sync marker, header length); BadMagic at
    file@offset if the header is not one this reader reads."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise BadMagic(f"{file}@0: not an RARC file")
    _, version, codec_id, schema_len = _HEADER.unpack(head)
    if version != VERSION or codec_id not in _CODEC_NAME or schema_len > _MAX_SCHEMA:
        raise BadMagic(f"{file}@4: RARC version {version}, codec {codec_id}, schema {schema_len} B")
    text = fh.read(schema_len)
    sync = fh.read(SYNC_LEN)
    if len(sync) < SYNC_LEN:
        raise BadMagic(f"{file}@{_HEADER.size + len(text) + len(sync)}: truncated RARC header")
    try:
        schema = CarcSchema.from_text(text.decode("utf-8"))
    except (UnicodeDecodeError, SchemaMismatch) as exc:
        raise BadMagic(f"{file}@{_HEADER.size}: RARC schema: {exc}") from None
    return schema, _CODEC_NAME[codec_id], sync, _HEADER.size + schema_len + SYNC_LEN


def _frames(
    fh, file: str, sync: bytes, offset: int, size: int, stop: Optional[int] = None
) -> Iterator[tuple[int, int, int, bytes]]:
    """The blocks from offset, where fh stands, to the end of the file, or to
    the first block that starts at or past stop: per block, its offset, row
    count, uncompressed length and stored bytes.

    A block's stored length is checked against the file size before it is
    read, and its sync marker before anyone inflates it, so a false marker
    tried by resync fails with SyncLost.
    """
    while stop is None or offset < stop:
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
        yield offset, count, ulen, stored
        offset = end + SYNC_LEN


def _blocks(
    fh, file: str, header, offset: int, size: int, decode: Callable[[bytes, int], list], stop: Optional[int] = None
) -> Iterator[list]:
    """Per block of _frames, what decode makes of its inflated payload and
    row count; inflate checks the uncompressed length.  Blocks are read
    here, in the calling thread, and inflated and decoded through
    ordered_map, so one block may be read and decoded ahead of the one
    yielded, and a framing error (SyncLost) is raised after the blocks
    before it were yielded."""
    _, codec, sync, _ = header

    def rows(frame: tuple[int, int, int, bytes]) -> list:
        at, count, ulen, stored = frame
        try:
            return decode(inflate(stored, ulen, codec), count)
        except _DECODE_ERRORS as exc:
            raise DecompressFailure(f"{file}@{at}: {exc}") from None

    return ordered_map(rows, _frames(fh, file, sync, offset, size, stop), itemgetter(2))  # by uncompressed length


def read_rarc(
    file,
    tracker: Optional[IoTracker] = None,
    bytes_view: bool = False,
    projection: Optional[Sequence[str]] = None,
    pred: Optional[ScanPredicate] = None,
) -> Iterator[tuple]:
    """Yield the projection's fields, in projection order, of the rows
    matching pred, in write order, with one sequential pass over the file.
    projection=None means every schema column.

    Of each block, the predicate column is decoded first, and the projected
    columns are built only for the rows it matches (see decode_rows).
    bytes_view is forwarded to decode_rows; a view pins the block it was cut
    from and stays valid for as long as it is held.
    """
    file = str(file)
    tracker = tracker or IoTracker()
    size = os.path.getsize(file)
    with tracker.open(file, sequential=True) as fh:
        header = read_header(fh, file)
        schema = header[0]
        names = [c.name for c in schema.columns] if projection is None else projection
        proj_idx = [schema.index_of(name) for name in names]
        built = sorted(set(proj_idx))  # the fields decode_rows builds, in schema order
        pick = [built.index(ci) for ci in proj_idx]
        whole = pick == list(range(len(built)))
        layout = row_layout(schema, built)
        key_layout = None if pred is None else row_layout(schema, (schema.index_of(pred.column),))

        def decode(raw: bytes, count: int) -> list:
            rows = None
            if pred is not None:
                keys = decode_rows(raw, key_layout, count)
                rows = pred.matching([value for value, in keys])
                if not rows:
                    return []
            return decode_rows(raw, layout, count, bytes_view, rows)

        for rows in _blocks(fh, file, header, header[3], size, decode):
            for row in rows:
                yield row if whole else tuple([row[i] for i in pick])


def _find_marker(fh, sync: bytes, start: int) -> Optional[int]:
    """Seek fh to just past the first copy of sync at or after offset start and
    return that offset, or None if the file holds no further copy."""
    fh.seek(start)
    buf = fh.read(_READ_CHUNK)
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


def resync(
    file, start_offset: int, tracker: Optional[IoTracker] = None, end: Optional[int] = None
) -> Iterator[tuple]:
    """Stream forward from start_offset to a sync marker, then yield every
    record of every subsequent block, up to the first block that starts at
    or past end (the end of the file when end is None).

    A marker whose copy ends at or after start_offset counts, so resync(0)
    and resync(header_len) both yield the whole file, and a block belongs to
    the one range [a, b) its start lies in: readers over ranges that tile
    [0, size) together yield every row once.  Payload bytes that equal the
    marker are passed over when no block frames after them.  Blocks are
    read as rows are consumed, so reading stops with the caller, at most one
    block past the one it stopped in (see _blocks).
    """
    file = str(file)
    tracker = tracker or IoTracker()
    size = os.path.getsize(file)
    with tracker.open(file, sequential=True) as fh:
        header = read_header(fh, file)
        sync, pos = header[2], header[3]
        layout = row_layout(header[0])

        def decode(raw: bytes, count: int) -> list:
            return decode_rows(raw, layout, count)

        if start_offset > pos:
            pos = _find_marker(fh, sync, start_offset - SYNC_LEN)
        while pos is not None:
            blocks = _blocks(fh, file, header, pos, size, decode, end)
            try:
                first = next(blocks, [])
            except SyncLost:
                pos = _find_marker(fh, sync, pos - SYNC_LEN + 1)
                continue
            yield from first
            for rows in blocks:
                yield from rows
            return


def describe(file) -> dict:
    """The header and block layout of an RARC file as JSON-ready data: per
    block its offset, row count, and stored and raw length, framed as a
    read frames it, but no block is inflated."""
    file = str(file)
    size = os.path.getsize(file)
    with IoTracker().open(file, sequential=True) as fh:
        schema, codec, sync, header_len = read_header(fh, file)
        blocks = [
            {"offset": at, "rows": count, "stored_len": len(stored), "raw_len": ulen}
            for at, count, ulen, stored in _frames(fh, file, sync, header_len, size)
        ]
    return {
        "format": "RARC",
        "version": VERSION,
        "codec": codec,
        "schema": schema.to_text().splitlines(),
        "sync": sync.hex(),
        "header_len": header_len,
        "blocks": blocks,
    }
