"""Columnar archival container.

Layout (little-endian): magic "CARC" + u16 version, then row groups (per
group, one chunk per column: presence bitmap then values, each chunk
independently compressed), then footer, u32 CRC32 of the footer, u64
footer length, magic "CARC".  Readers locate the footer from the trailer.

Row-group metadata keeps per-chunk offsets, lengths, null counts, and
min/max statistics (INT64 and STRING only) so queries can skip groups
whose stats interval cannot intersect the predicate, and read only the
column chunks they project.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BadMagic,
    DecompressFailure,
    FooterCorrupt,
    SchemaMismatch,
    StatlessColumn,
    UnknownColumn,
    UnsortedInput,
)
from .iostats import IoTracker, Measurement

MAGIC = b"CARC"
VERSION = 1
TRAILER_LEN = 16  # crc u32 + footer_len u64 + magic
STAT_TRUNCATE = 64  # bytes kept of STRING min/max
_LEN_STRUCT = struct.Struct("<I")

CTYPES = ("INT64", "STRING", "BYTES")


@dataclass(frozen=True)
class Column:
    name: str
    ctype: str
    nullable: bool = False


@dataclass(frozen=True)
class CarcSchema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if not names or len(set(names)) != len(names) or any(not n for n in names):
            raise SchemaMismatch("column names must be unique and non-empty")
        for c in self.columns:
            if c.ctype not in CTYPES:
                raise SchemaMismatch(f"bad ctype {c.ctype!r}")

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UnknownColumn(name)

    def to_text(self) -> str:
        return "\n".join(
            f"{c.name} {c.ctype}{' nullable' if c.nullable else ''}" for c in self.columns
        )

    @classmethod
    def from_text(cls, text: str) -> "CarcSchema":
        cols = []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "nullable"):
                raise SchemaMismatch(f"bad schema line {line!r}")
            cols.append(Column(parts[0], parts[1], len(parts) == 3))
        return cls(tuple(cols))


@dataclass
class ChunkMeta:
    chunk_offset: int
    chunk_compressed_len: int
    chunk_uncompressed_len: int
    null_count: int
    min: Optional[object] = None  # int for INT64, bytes for STRING
    max: Optional[object] = None


@dataclass
class RowGroupMeta:
    row_count: int
    chunks: list[ChunkMeta] = field(default_factory=list)  # one per schema column


@dataclass
class CarcFooter:
    schema: CarcSchema
    row_groups: list[RowGroupMeta]
    total_rows: int
    sort_key: Optional[str]
    codec: str


@dataclass(frozen=True)
class ScanPredicate:
    """Range or set filter over one stats-bearing column."""

    column: str
    lo: Optional[object] = None  # range, inclusive
    hi: Optional[object] = None
    values: Optional[tuple] = None  # set predicate; tuple order feeds the planner
    _members: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "_members", frozenset(self.values))

    def matches(self, value) -> bool:
        """True if a row whose column holds value passes the filter."""
        if value is None:
            return False
        if self._members is not None:
            return value in self._members
        return self.lo <= value <= self.hi

    @classmethod
    def range(cls, column, lo, hi) -> "ScanPredicate":
        return cls(column=column, lo=lo, hi=hi)

    @classmethod
    def isin(cls, column, values) -> "ScanPredicate":
        return cls(column=column, values=tuple(values))


# --- value / chunk encoding --------------------------------------------------

def _check_value(value, col: Column):
    if value is None:
        if not col.nullable:
            raise SchemaMismatch(f"null in non-nullable column {col.name}")
        return
    expected = {"INT64": int, "STRING": str, "BYTES": bytes}[col.ctype]
    if not isinstance(value, expected) or (col.ctype == "INT64" and isinstance(value, bool)):
        raise SchemaMismatch(f"column {col.name}: expected {col.ctype}, got {type(value).__name__}")


def _encode_chunk(values: Sequence, col: Column) -> tuple[bytes, int, Optional[object], Optional[object]]:
    """Returns (raw chunk bytes, null_count, min, max)."""
    n = len(values)
    bitmap = bytearray((n + 7) // 8)
    present = []
    for i, v in enumerate(values):
        if v is not None:
            bitmap[i >> 3] |= 1 << (i & 7)
            present.append(v)
    null_count = n - len(present)

    if col.ctype == "INT64":
        body = struct.pack(f"<{len(present)}q", *present)
        lo = min(present) if present else None
        hi = max(present) if present else None
    else:
        if col.ctype == "STRING":
            encoded = [v.encode("utf-8") for v in present]
        else:
            encoded = present
        parts = []
        for b in encoded:
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        body = b"".join(parts)
        if col.ctype == "BYTES" or not encoded:
            lo = hi = None
        else:
            lo = _truncate_min(min(encoded))
            hi = _truncate_max(max(encoded))
    return bytes(bitmap) + body, null_count, lo, hi


def _truncate_min(b: bytes) -> bytes:
    return b[:STAT_TRUNCATE]


def _truncate_max(b: bytes) -> Optional[bytes]:
    if len(b) <= STAT_TRUNCATE:
        return b
    t = b[:STAT_TRUNCATE]
    # round up so the truncated stat stays an upper bound: bump the last
    # non-0xFF byte and drop everything after it
    for i in range(len(t) - 1, -1, -1):
        if t[i] != 0xFF:
            return t[:i] + bytes([t[i] + 1])
    return None  # all 0xFF: no finite upper bound


def _decode_chunk(raw: bytes, col: Column, row_count: int, bytes_view: bool = False) -> list:
    """The row_count values of one raw chunk: None where the bitmap marks a null."""
    bitmap_len = (row_count + 7) // 8
    bits = int.from_bytes(raw[:bitmap_len], "little")
    if len(raw) < bitmap_len or bits >> row_count:
        raise DecompressFailure(f"chunk does not hold a bitmap of {row_count} rows")
    present = bits.bit_count()
    if present < row_count and not col.nullable:
        raise DecompressFailure(f"null in non-nullable column {col.name}")
    if col.ctype == "INT64":
        values = list(struct.unpack_from(f"<{present}q", raw, bitmap_len))
        pos = bitmap_len + 8 * present
    else:
        is_str = col.ctype == "STRING"
        unpack_len = _LEN_STRUCT.unpack_from
        # slice through a memoryview: avoids materializing intermediate copies
        # of the (potentially large) chunk body
        view = memoryview(raw)
        values = []
        pos = bitmap_len
        for _ in range(present):
            (n,) = unpack_len(view, pos)
            pos += 4
            chunk = view[pos : pos + n]
            pos += n
            values.append(str(chunk, "utf-8") if is_str else (chunk if bytes_view else bytes(chunk)))
    if pos != len(raw):
        raise DecompressFailure(f"chunk holds {len(raw) - pos} bytes past its values")
    if present == row_count:
        return values
    it = iter(values)  # scattered to the rows the bitmap marks present
    return [next(it) if raw[i >> 3] >> (i & 7) & 1 else None for i in range(row_count)]


# --- footer serialization ----------------------------------------------------

_CODEC_ID = {"none": 0, "gzip": 1}
_CODEC_NAME = {v: k for k, v in _CODEC_ID.items()}
_MAX_INFLATE = 1032  # deflate expands its input at most about 1032-fold
# what a hostile chunk or block raises in decode; readers add its file@offset
_DECODE_ERRORS = (struct.error, UnicodeDecodeError, IndexError, DecompressFailure)


def compress(raw: bytes, codec: str, level: int) -> bytes:
    """The stored form of one CARC chunk or RARC block."""
    return zlib.compress(raw, level) if codec == "gzip" else raw


def inflate(stored: bytes, ulen: int, codec: str) -> bytes:
    """The ulen raw bytes of one stored CARC chunk or RARC block.

    ulen is checked against len(stored) and the codec before it sizes any
    buffer; errors carry no location, callers add theirs.
    """
    clen = len(stored)
    if ulen != clen if codec == "none" else ulen > _MAX_INFLATE * clen + 64:
        raise DecompressFailure(f"{ulen} bytes cannot be {clen} {codec} bytes")
    if codec == "none":
        return stored
    try:
        # exact bufsize: avoids repeated realloc on large units
        raw = zlib.decompress(stored, zlib.MAX_WBITS, ulen or 1)
    except zlib.error as exc:
        raise DecompressFailure(str(exc)) from None
    if len(raw) != ulen:
        raise DecompressFailure(f"inflated to {len(raw)} bytes, not {ulen}")
    return raw


def _pack_scalar(v) -> bytes:
    if v is None:
        return b"\x00"
    if isinstance(v, int):
        return b"\x01" + struct.pack("<q", v)
    return b"\x02" + struct.pack("<I", len(v)) + v


def _unpack_scalar(raw: bytes, pos: int):
    kind = raw[pos]
    pos += 1
    if kind == 0:
        return None, pos
    if kind == 1:
        return struct.unpack_from("<q", raw, pos)[0], pos + 8
    (n,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    return raw[pos : pos + n], pos + n


def _serialize_footer(footer: CarcFooter) -> bytes:
    out = bytearray()
    schema_text = footer.schema.to_text().encode("utf-8")
    out += b"\x01" + struct.pack("<I", len(schema_text)) + schema_text

    groups = bytearray(struct.pack("<I", len(footer.row_groups)))
    for g in footer.row_groups:
        groups += struct.pack("<Q", g.row_count)
        for c in g.chunks:
            groups += struct.pack(
                "<QQQQ", c.chunk_offset, c.chunk_compressed_len, c.chunk_uncompressed_len, c.null_count
            )
            groups += _pack_scalar(c.min)
            groups += _pack_scalar(c.max)
    out += b"\x02" + struct.pack("<I", len(groups)) + groups

    out += b"\x03" + struct.pack("<I", 8) + struct.pack("<Q", footer.total_rows)
    sk = footer.sort_key.encode("utf-8") if footer.sort_key else b""
    out += b"\x04" + struct.pack("<I", len(sk)) + sk
    out += b"\x05" + struct.pack("<I", 1) + bytes([_CODEC_ID[footer.codec]])
    return bytes(out)


def _deserialize_footer(raw: bytes) -> CarcFooter:
    fields = {}
    pos = 0
    while pos < len(raw):
        tag = raw[pos]
        (n,) = struct.unpack_from("<I", raw, pos + 1)
        fields[tag] = raw[pos + 5 : pos + 5 + n]
        pos += 5 + n
    schema = CarcSchema.from_text(fields[1].decode("utf-8"))
    ncols = len(schema.columns)
    graw = fields[2]
    (ngroups,) = struct.unpack_from("<I", graw, 0)
    gpos = 4
    groups = []
    for _ in range(ngroups):
        (row_count,) = struct.unpack_from("<Q", graw, gpos)
        gpos += 8
        chunks = []
        for _ in range(ncols):
            off, clen, ulen, nulls = struct.unpack_from("<QQQQ", graw, gpos)
            gpos += 32
            mn, gpos = _unpack_scalar(graw, gpos)
            mx, gpos = _unpack_scalar(graw, gpos)
            chunks.append(ChunkMeta(off, clen, ulen, nulls, mn, mx))
        groups.append(RowGroupMeta(row_count, chunks))
    (total_rows,) = struct.unpack_from("<Q", fields[3], 0)
    sort_key = fields[4].decode("utf-8") or None
    codec = _CODEC_NAME[fields[5][0]]
    return CarcFooter(schema, groups, total_rows, sort_key, codec)


# --- writer -------------------------------------------------------------------

def write_carc(
    rows: Iterable[Sequence],
    schema: CarcSchema,
    out_path,
    rows_per_group: int = 4096,
    codec: str = "gzip",
    sort_key: Optional[str] = None,
    compresslevel: int = 3,
) -> str:
    """Stream rows into a CARC file; verifies sort_key order when claimed."""
    if codec not in _CODEC_ID:
        raise SchemaMismatch(f"unknown codec {codec!r}")
    out_path = str(out_path)
    sort_idx = schema.index_of(sort_key) if sort_key else None
    ncols = len(schema.columns)

    groups: list[RowGroupMeta] = []
    total = 0
    prev_key = None

    with open(out_path, "wb") as out:
        out.write(MAGIC + struct.pack("<H", VERSION))
        offset = out.tell()
        buffer: list[Sequence] = []

        def flush():
            nonlocal offset, total
            if not buffer:
                return
            meta = RowGroupMeta(len(buffer))
            for ci, col in enumerate(schema.columns):
                raw, nulls, mn, mx = _encode_chunk([r[ci] for r in buffer], col)
                stored = compress(raw, codec, compresslevel)
                out.write(stored)
                meta.chunks.append(ChunkMeta(offset, len(stored), len(raw), nulls, mn, mx))
                offset += len(stored)
            groups.append(meta)
            total += len(buffer)
            buffer.clear()

        for row in rows:
            if len(row) != ncols:
                raise SchemaMismatch(f"row has {len(row)} fields, schema has {ncols}")
            for ci, col in enumerate(schema.columns):
                _check_value(row[ci], col)
            if sort_idx is not None:
                key = row[sort_idx]
                if prev_key is not None and key is not None and key < prev_key:
                    raise UnsortedInput(total + len(buffer))
                if key is not None:
                    prev_key = key
            buffer.append(tuple(row))
            if len(buffer) >= rows_per_group:
                flush()
        flush()

        footer = _serialize_footer(CarcFooter(schema, groups, total, sort_key, codec))
        out.write(footer)
        out.write(struct.pack("<I", zlib.crc32(footer)))
        out.write(struct.pack("<Q", len(footer)))
        out.write(MAGIC)
    return out_path


# --- reader -------------------------------------------------------------------

def read_footer(file, tracker: Optional[IoTracker] = None) -> CarcFooter:
    tracker = tracker or IoTracker()
    with tracker.open(file) as fh:
        return _read_footer_fh(fh, file)[0]


def _read_footer_fh(fh, file) -> tuple[CarcFooter, int]:
    """Returns (footer, footer offset); row-group data lies in [6, footer offset)."""
    size = Path(file).stat().st_size
    if size < 6 + TRAILER_LEN:
        raise BadMagic(f"{file}: too small for a CARC file")
    trailer = fh.pread(size - TRAILER_LEN, TRAILER_LEN)
    crc, footer_len = struct.unpack("<IQ", trailer[:12])
    if trailer[12:] != MAGIC:
        raise BadMagic(f"{file}@{size - 4}: trailer magic missing")
    if footer_len > size - 6 - TRAILER_LEN:
        raise FooterCorrupt(f"{file}@{size - TRAILER_LEN}: footer length {footer_len} exceeds file")
    start = size - TRAILER_LEN - footer_len
    raw = fh.pread(start, footer_len)
    if zlib.crc32(raw) != crc:
        raise FooterCorrupt(f"{file}@{start}: footer CRC mismatch")
    try:
        return _deserialize_footer(raw), start
    except (KeyError, struct.error, IndexError, UnicodeDecodeError, SchemaMismatch) as exc:
        raise FooterCorrupt(f"{file}@{start}: cannot decode footer: {exc!r}") from None


def _stats_comparable(col: Column, sample) -> bool:
    if col.ctype == "INT64":
        return isinstance(sample, int)
    return isinstance(sample, (str, bytes))


def _as_stat(value, col: Column):
    if col.ctype == "STRING" and isinstance(value, str):
        return value.encode("utf-8")
    return value


def plan_row_groups(footer: CarcFooter, pred: Optional[ScanPredicate]) -> list[int]:
    """Indices of row groups whose stats interval can intersect the predicate.

    Pure function; never excludes a group that contains a matching row.
    Groups without usable stats, and predicates whose scalar type does not
    match the column type, plan every group.
    """
    if pred is None:
        return list(range(len(footer.row_groups)))
    ci = footer.schema.index_of(pred.column)
    col = footer.schema.columns[ci]
    if col.ctype == "BYTES":
        raise StatlessColumn(pred.column)

    scalars = list(pred.values) if pred.values is not None else [pred.lo, pred.hi]
    if any(not _stats_comparable(col, s) for s in scalars):
        return list(range(len(footer.row_groups)))  # type mismatch: no pruning possible
    scalars = [_as_stat(s, col) for s in scalars]

    planned = []
    for gi, g in enumerate(footer.row_groups):
        c = g.chunks[ci]
        if c.min is None and c.max is None and c.null_count != g.row_count:
            planned.append(gi)  # stats absent: must read
            continue
        if c.null_count == g.row_count:
            continue  # all null: no value can match
        if pred.values is not None:
            hit = any(
                (c.min is None or v >= c.min) and (c.max is None or v <= c.max) for v in scalars
            )
        else:
            lo, hi = scalars
            hit = (c.max is None or lo <= c.max) and (c.min is None or c.min <= hi)
        if hit:
            planned.append(gi)
    return planned


def read_carc(
    file,
    projection: Optional[Sequence[str]] = None,
    pred: Optional[ScanPredicate] = None,
    tracker: Optional[IoTracker] = None,
    bytes_view: bool = False,
) -> Iterator[tuple]:
    """Yield the projection's fields, in projection order, of rows matching
    pred, in file row order.  projection=None means every schema column.

    Only the chunks of projected and predicate columns of planned groups
    are read.  Pass a tracker to collect the I/O measurement.

    With bytes_view=True, BYTES values are yielded as zero-copy memoryview
    slices over the decoded chunk; call bytes() on a value to detach it.
    """
    tracker = tracker or IoTracker()
    file = str(file)
    with tracker.open(file) as fh:
        footer, data_end = _read_footer_fh(fh, file)
        schema = footer.schema
        names = [c.name for c in schema.columns] if projection is None else projection
        proj_idx = [schema.index_of(name) for name in names]
        pred_idx = None if pred is None else schema.index_of(pred.column)
        need_idx = sorted(set(proj_idx + ([] if pred is None else [pred_idx])))  # file order

        for gi in plan_row_groups(footer, pred):
            g = footer.row_groups[gi]
            decoded = {}
            for ci in need_idx:
                c = g.chunks[ci]
                off, clen = c.chunk_offset, c.chunk_compressed_len
                if not 6 <= off <= data_end - clen:
                    raise FooterCorrupt(f"{file}@{off}: chunk of {clen} bytes runs outside the data")
                try:
                    decoded[ci] = _decode_chunk(
                        inflate(fh.pread(off, clen), c.chunk_uncompressed_len, footer.codec),
                        schema.columns[ci], g.row_count, bytes_view,
                    )
                except _DECODE_ERRORS as exc:
                    raise DecompressFailure(f"{file}@{off}: {exc}") from None
            cols = [decoded[ci] for ci in proj_idx]
            rows = zip(*cols) if cols else repeat((), g.row_count)
            if pred is None:
                yield from rows
            else:
                for value, row in zip(decoded[pred_idx], rows):
                    if pred.matches(value):
                        yield row


def read_carc_rows(
    file, projection=None, pred=None
) -> tuple[list[tuple], Measurement]:
    tracker = IoTracker()
    rows = list(read_carc(file, projection, pred, tracker))
    return rows, tracker.measurement(records_out=len(rows))
