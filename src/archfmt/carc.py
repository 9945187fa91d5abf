"""Columnar archival container, format version 4.

Layout (little-endian): magic "CARC", then row groups, then footer, u32
CRC32 of the footer, u64 footer length, magic "CARC".  Readers locate the
footer from the trailer.

A row group holds one chunk per column, and a chunk is a run of pages
stored back to back; the chunks lie in group order, then column order.
A page closes at PAGE_ROWS rows, or at the value that brings its encoded
values to PAGE_BYTES (256 KiB), and is compressed alone.  A page is a
presence bitmap, then its present values: INT64 as i64 each; STRING and
BYTES as one u32 array of their lengths, then the values back to back (as
Arrow's variable-size binary and Parquet's DELTA_LENGTH_BYTE_ARRAY keep the
lengths apart), so a reader frames a page with one unpack and finds a
value without walking the ones before it.  The lengths must frame the page
exactly.  The footer keeps per chunk its null count and per page its row
count, lengths and min/max statistics (INT64 and STRING only): the page
index.  It stores nothing that can be derived: a chunk's offset, lengths
and min/max, a group's row count and the file's are derived from the page
index when the footer is read.  So a query skips the groups whose stats
interval cannot intersect its predicate, reads only the chunks it
projects, decodes only the predicate column's pages whose stats can match,
and inflates of each other projected chunk only the pages that hold the
matching rows.  A group's spans of those pages are read in runs across
holes of at most the cost model's break-even (iostats.coalesce), so a
lookup makes a few positioned reads, not one per chunk.  The footer also
holds the format version; a file of another version (1 to 3 had other
page or footer layouts) is BadMagic naming its version.

A predicate page is matched without building its values where it can
(_match_page): after the bitmap, the lengths and the page's end are
checked, a page with every value present is tested on its unpacked INT64
values, or, for a set of at most _FIND_KEYS non-empty strings on a
STRING page whose values are all ASCII (so all UTF-8), searched for each
key's bytes, a hit counting only where a value starts and ends, until
more than one value in _FIND_SHARE is a hit.  A page with nulls or
non-ASCII values, under more keys or the empty key, under a range on a
STRING column, or with that many hits, is decoded whole and tested with
ScanPredicate.matching, which raises any error its values hold.

Every read reads the trailer and footer and checks the CRC.  read_carc
decodes the footer through _footer_of, once per distinct footer bytes and
data end among the last FOOTER_MEMO, so reads of an unchanged file in one
process share one footer; read_footer decodes a footer of the caller's own.
"""

from __future__ import annotations

import os
import struct
import zlib
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BadMagic,
    DecompressFailure,
    FooterCorrupt,
    SchemaMismatch,
    StatlessColumn,
    UnknownColumn,
    UnsortedInput,
)
from .iostats import MERGE_GAP, RUN_BYTES, IoTracker, coalesce

MAGIC = b"CARC"
VERSION = 4
TRAILER_LEN = 16  # crc u32 + footer_len u64 + magic
STAT_TRUNCATE = 64  # bytes kept of STRING min/max
PAGE_ROWS = 1024  # a page closes at this many rows,
PAGE_BYTES = 256 << 10  # or once its encoded values reach this many bytes
FOOTER_MEMO = 1  # decoded footers kept, each with the bytes it was decoded from
_LEN_STRUCT = struct.Struct("<I")
_CHUNK_STRUCT = struct.Struct("<QI")  # a chunk's null count and page count
_PAGE_STRUCT = struct.Struct("<IQQ")  # a page's row count, compressed and uncompressed length

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


class PageMeta(NamedTuple):
    row_count: int
    compressed_len: int
    uncompressed_len: int
    min: Optional[object] = None  # as a chunk's; both None for a page of nulls only
    max: Optional[object] = None


@dataclass
class ChunkMeta:
    chunk_offset: int
    chunk_compressed_len: int
    chunk_uncompressed_len: int
    null_count: int
    min: Optional[object] = None  # int for INT64, bytes for STRING
    max: Optional[object] = None
    pages: list[PageMeta] = field(default_factory=list)  # stored back to back from chunk_offset


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
        """True if a row whose column holds value passes; SchemaMismatch if the bounds cannot compare with it."""
        if value is None:
            return False
        if self._members is not None:
            return value in self._members
        try:
            return self.lo <= value <= self.hi
        except TypeError:  # e.g. int bounds on a timestamp stored as text
            raise SchemaMismatch(f"column {self.column}: bounds of type {type(self.lo).__name__} "
                                 f"cannot bound {value!r}") from None

    def matching(self, values: Sequence) -> list[int]:
        """The ascending indices of the values that pass: [i for i, v in
        enumerate(values) if self.matches(v)], in one comprehension, and
        raising what matches raises at the same value."""
        if self._members is not None:
            members = self._members
            return [i for i, v in enumerate(values) if v is not None and v in members]
        lo, hi = self.lo, self.hi
        try:
            return [i for i, v in enumerate(values) if v is not None and lo <= v <= hi]
        except TypeError:  # matches names the first value the bounds cannot compare with
            return [i for i, v in enumerate(values) if self.matches(v)]

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
    """Returns (raw page bytes, null_count, min, max)."""
    n = len(values)
    bitmap = bytearray((n + 7) // 8)
    present = []
    for i, v in enumerate(values):
        if v is not None:
            bitmap[i >> 3] |= 1 << (i & 7)
            present.append(v)
    null_count = n - len(present)

    if col.ctype == "INT64":
        body = [struct.pack(f"<{len(present)}q", *present)]
        lo = min(present) if present else None
        hi = max(present) if present else None
    else:
        if col.ctype == "STRING":
            encoded = [v.encode("utf-8") for v in present]
        else:
            encoded = present
        body = [struct.pack(f"<{len(encoded)}I", *map(len, encoded)), *encoded]
        if col.ctype == "BYTES" or not encoded:
            lo = hi = None
        else:
            lo = _truncate_min(min(encoded))
            hi = _truncate_max(max(encoded))
    return b"".join([bitmap, *body]), null_count, lo, hi


def _pages(values: Sequence, col: Column) -> Iterator[Sequence]:
    """values cut into consecutive pages: each closes at PAGE_ROWS values, or
    at the value that brings its encoded values (without the bitmap) to
    PAGE_BYTES."""
    start = size = 0
    for i, v in enumerate(values):
        if v is not None:
            if col.ctype == "INT64":
                size += 8
            else:
                size += 4 + len(v if col.ctype == "BYTES" or v.isascii() else v.encode("utf-8"))
        if i + 1 - start >= PAGE_ROWS or size >= PAGE_BYTES:
            yield values[start : i + 1]
            start, size = i + 1, 0
    if start < len(values):
        yield values[start:]


def _span_of(pages: Sequence[PageMeta]) -> tuple[Optional[object], Optional[object]]:
    """A chunk's min/max from its pages': what _encode_chunk gives over all
    the chunk's values, as truncation keeps order (a None max is unbounded)."""
    held = [p for p in pages if p.min is not None]  # the pages holding a value with stats
    if not held:
        return None, None
    hi = None if any(p.max is None for p in held) else max(p.max for p in held)
    return min(p.min for p in held), hi


def _chunk_meta(offset: int, null_count: int, pages: list[PageMeta]) -> ChunkMeta:
    """The chunk whose pages lie back to back from offset: its lengths are
    its pages' sums, its min/max their span.  The writer and the footer
    reader both build chunks here, so both derive the same footer."""
    clen = sum(p.compressed_len for p in pages)
    ulen = sum(p.uncompressed_len for p in pages)
    return ChunkMeta(offset, clen, ulen, null_count, *_span_of(pages), pages)


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


def _frame(raw: bytes, col: Column, row_count: int) -> tuple[int, Sequence[int]]:
    """(present, framed) of one raw page: the count of its present values,
    and the values themselves for INT64, else where each value starts, then
    the page's end.  The bitmap, the lengths array and the page's end are
    checked: the lengths must frame the page exactly."""
    bitmap_len = (row_count + 7) // 8
    bits = int.from_bytes(raw[:bitmap_len], "little")
    if len(raw) < bitmap_len or bits >> row_count:
        raise DecompressFailure(f"chunk does not hold a bitmap of {row_count} rows")
    present = bits.bit_count()
    if present < row_count and not col.nullable:
        raise DecompressFailure(f"null in non-nullable column {col.name}")
    if col.ctype == "INT64":
        framed = struct.unpack_from(f"<{present}q", raw, bitmap_len)
        pos = bitmap_len + 8 * present
    else:
        lengths = struct.unpack_from(f"<{present}I", raw, bitmap_len)
        framed = list(accumulate(lengths, initial=bitmap_len + 4 * present))
        pos = framed[-1]
    if pos != len(raw):
        raise DecompressFailure(f"the page's values end at byte {pos}, not at its end {len(raw)}")
    return present, framed


def _decode_chunk(
    raw: bytes, col: Column, row_count: int, bytes_view: bool = False, rows: Optional[Sequence[int]] = None
) -> list:
    """The values of one raw page at the ascending row indices rows (every
    row when None): None where the bitmap marks a null.

    The page is checked by _frame whatever rows holds.  Only the values
    returned are built, so a STRING value is checked to be UTF-8 only when
    it is returned.
    """
    return _framed_values(raw, col, row_count, *_frame(raw, col, row_count), bytes_view, rows)


def _framed_values(
    raw: bytes, col: Column, row_count: int, present: int, framed: Sequence[int],
    bytes_view: bool = False, rows: Optional[Sequence[int]] = None,
) -> list:
    """_decode_chunk's values, from the (present, framed) _frame gave."""
    if present == row_count:
        at = range(present) if rows is None else rows  # the index among the present values of each row
    else:
        slot, k = [], 0
        for i in range(row_count):
            if raw[i >> 3] >> (i & 7) & 1:
                slot.append(k)
                k += 1
            else:
                slot.append(None)
        at = slot if rows is None else [slot[i] for i in rows]
    if col.ctype == "INT64":
        return [None if k is None else framed[k] for k in at]
    # slice through a memoryview: avoids materializing intermediate copies
    # of the (potentially large) page body
    view = memoryview(raw)
    if col.ctype == "STRING":
        return [None if k is None else str(view[framed[k] : framed[k + 1]], "utf-8") for k in at]
    cut = view if bytes_view else raw  # a slice of the bytes raw is a copy
    return [None if k is None else cut[framed[k] : framed[k + 1]] for k in at]


_FIND_KEYS = 20  # the most keys a predicate page is searched for; with more it is decoded and tested whole
_FIND_SHARE = 32  # a search stops, and the page is decoded whole, past one hit in this many values


def _match_page(
    raw: bytes, col: Column, row_count: int, pred: ScanPredicate, keys: Optional[frozenset]
) -> tuple[list[int], list]:
    """(the rows of one raw page of the predicate column that pred matches,
    their values): what _decode_chunk and pred.matching give and raise, but
    building only the matching values where the page allows.  keys is
    pred's set as ASCII bytes when pred is a set on a STRING column (a key
    that is not an ASCII string can equal no value of an ASCII page), else
    None.

    _frame checks the page first.  Then, when every value is present, an
    INT64 page is tested on its unpacked values, and a STRING page whose
    values are all ASCII (so all UTF-8), under at most _FIND_KEYS keys none
    of them empty, is searched for each key, a hit counting where a value
    starts and ends, until more than one value in _FIND_SHARE is a hit.  Any
    other page (with nulls, not ASCII, under more keys, the empty key or a
    range on a STRING column, or with that many hits) is decoded whole and
    tested with pred.matching, which raises any error its values hold.
    """
    present, framed = _frame(raw, col, row_count)
    if present == row_count:
        if col.ctype == "INT64":
            rows = pred.matching(framed)
            return rows, [framed[i] for i in rows]
        if keys is not None and len(keys) <= _FIND_KEYS and b"" not in keys and raw[framed[0] :].isascii():
            rows = _find_rows(raw, framed, keys, row_count // _FIND_SHARE)
            if rows is not None:
                return rows, [raw[framed[i] : framed[i + 1]].decode("ascii") for i in rows]
    values = _framed_values(raw, col, row_count, present, framed)
    rows = pred.matching(values)
    return rows, [values[i] for i in rows]


def _ascii_keys(pred: ScanPredicate, col: Column) -> Optional[frozenset]:
    """The keys _match_page takes for pred on col: pred's ASCII strings as
    bytes if pred is a set on a STRING column, else None."""
    if col.ctype != "STRING" or pred.values is None:
        return None
    return frozenset(k.encode("ascii") for k in pred.values if isinstance(k, str) and k.isascii())


def _find_rows(raw: bytes, bounds: list[int], keys: Iterable[bytes], most: int) -> Optional[list[int]]:
    """The ascending indices of the values that bounds frame in raw (where
    each starts, then the end) that equal one of the non-empty keys, or None
    once more than most do.  Each key is searched for from the first value
    on; a hit counts where a value starts and ends, and the search goes on
    from the next value's start."""
    rows = []
    for key in keys:
        at = raw.find(key, bounds[0])
        while at >= 0:
            i = bisect_right(bounds, at) - 1  # the value holding byte at
            if bounds[i] == at and bounds[i + 1] == at + len(key):
                if len(rows) == most:
                    return None
                rows.append(i)
            at = raw.find(key, bounds[i + 1])
    return sorted(rows)


# --- footer serialization ----------------------------------------------------

CODEC_ID = {"none": 0, "gzip": 1}
_CODEC_NAME = {v: k for k, v in CODEC_ID.items()}
_MAX_INFLATE = 1032  # deflate expands its input at most about 1032-fold
# what a hostile chunk or block raises in decode; readers add its file@offset
_DECODE_ERRORS = (struct.error, UnicodeDecodeError, IndexError, DecompressFailure)


def compress(raw: bytes, codec: str, level: int) -> bytes:
    """The stored form of one CARC page or RARC block."""
    return zlib.compress(raw, level) if codec == "gzip" else raw


@contextmanager
def created(path: str) -> Iterator:
    """path opened to write, and removed if the writing fails."""
    out = open(path, "wb")
    try:
        with out:
            yield out
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _inflatable(clen: int, ulen: int, codec: str) -> bool:
    """Whether clen stored bytes of codec can hold ulen raw bytes."""
    return ulen == clen if codec == "none" else ulen <= _MAX_INFLATE * clen + 64


def inflate(stored, ulen: int, codec: str) -> bytes:
    """The ulen raw bytes of one stored CARC page or RARC block, given as
    bytes or a memoryview.

    ulen is checked against len(stored) and the codec before it sizes any
    buffer; errors carry no location, callers add theirs.
    """
    clen = len(stored)
    if not _inflatable(clen, ulen, codec):
        raise DecompressFailure(f"{ulen} bytes cannot be {clen} {codec} bytes")
    if codec == "none":
        return bytes(stored)  # no copy when stored is bytes
    try:
        # exact bufsize: avoids repeated realloc on large units
        raw = zlib.decompress(stored, zlib.MAX_WBITS, ulen or 1)
    except zlib.error as exc:
        raise DecompressFailure(str(exc)) from None
    if len(raw) != ulen:
        raise DecompressFailure(f"inflated to {len(raw)} bytes, not {ulen}")
    return raw


# ordered_map computes one unit ahead in _POOL where this process may run on more than one CPU
_PARALLEL = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) > 1
_INLINE_BYTES = 128 << 10  # a unit of fewer raw bytes runs in the caller
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="archfmt-decode")
_END = object()


def ordered_map(fn: Callable, units: Iterable, size: Callable[..., int]) -> Iterator:
    """fn(unit) for each of units, in their order.  Under _PARALLEL the
    units go in pairs: the calling thread computes the first while _POOL
    computes the second, if its size(unit) >= _INLINE_BYTES (a smaller one
    runs in the caller too).  size is the raw length a unit inflates to on
    the read side, and the raw length it deflates on the write side (0 for
    codec none, which deflates nothing).  zlib releases the interpreter
    lock, so the pool's inflate or deflate runs beside the caller's.

    So at most two units are in flight, and units is read at most one unit
    ahead of the results yielded.  An exception from units is raised after
    the result of every unit before it, and one from fn in its unit's
    turn.  When the caller stops, the pool's unit is cancelled, or left to
    finish with its result dropped: a unit works on bytes already read.
    """
    it = iter(units)
    for unit in it:
        ahead, error, future = _END, None, None
        if _PARALLEL:
            try:
                ahead = next(it, _END)
            except Exception as exc:  # raised in its turn, after the result of the unit before it
                error = exc
            if ahead is not _END and size(ahead) >= _INLINE_BYTES:
                future = _POOL.submit(fn, ahead)
        try:
            yield fn(unit)
            if ahead is not _END:
                yield fn(ahead) if future is None else future.result()
        finally:
            if future is not None:
                future.cancel()
        if error is not None:
            raise error


def _pack_scalar(v) -> bytes:
    if v is None:
        return b"\x00"
    if isinstance(v, int):
        return b"\x01" + struct.pack("<q", v)
    return b"\x02" + struct.pack("<I", len(v)) + v


_STAT_TYPE = {"INT64": int, "STRING": bytes, "BYTES": type(None)}  # of a page's min/max


def _unpack_scalar(raw: bytes, pos: int):
    kind = raw[pos]
    pos += 1
    if kind == 0:
        return None, pos
    if kind == 1:
        return struct.unpack_from("<q", raw, pos)[0], pos + 8
    if kind != 2:
        raise FooterCorrupt(f"page min/max of kind {kind}, not 0, 1 or 2")
    (n,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    return raw[pos : pos + n], pos + n


def _serialize_footer(footer: CarcFooter) -> bytes:
    out = bytearray()
    schema_text = footer.schema.to_text().encode("utf-8")
    out += b"\x01" + struct.pack("<I", len(schema_text)) + schema_text

    groups = bytearray(struct.pack("<I", len(footer.row_groups)))
    for g in footer.row_groups:
        for c in g.chunks:
            groups += _CHUNK_STRUCT.pack(c.null_count, len(c.pages))
            for p in c.pages:
                groups += _PAGE_STRUCT.pack(p.row_count, p.compressed_len, p.uncompressed_len)
                groups += _pack_scalar(p.min)
                groups += _pack_scalar(p.max)
    out += b"\x02" + struct.pack("<I", len(groups)) + groups

    sk = footer.sort_key.encode("utf-8") if footer.sort_key else b""
    out += b"\x04" + struct.pack("<I", len(sk)) + sk
    out += b"\x05" + struct.pack("<I", 1) + bytes([CODEC_ID[footer.codec]])
    out += b"\x06" + struct.pack("<I", 2) + struct.pack("<H", VERSION)
    return bytes(out)


def _stats(raw: bytes, pos: int, col: Column) -> tuple[object, object, int]:
    """(min, max, position after them) of a page of column col."""
    mn, pos = _unpack_scalar(raw, pos)
    mx, pos = _unpack_scalar(raw, pos)
    if not all(v is None or type(v) is _STAT_TYPE[col.ctype] for v in (mn, mx)):
        raise FooterCorrupt(f"page min/max of {col.ctype} column {col.name}: {mn!r}, {mx!r}")
    return mn, mx, pos


def _deserialize_footer(raw: bytes, data_end: int) -> CarcFooter:
    """The footer of a file whose row groups lie in [len(MAGIC), data_end).

    Every length and row count is checked before a reader sizes anything by
    it: the chunks, in group order then column order, tile the data exactly,
    each page holds at least one row and can inflate to its length, and the
    columns of a group hold the same number of rows.  A chunk holds no more
    nulls than rows, none in a non-nullable column, and has no min/max if it
    holds nulls only.  The groups field is read to its last byte.
    """
    fields = {}
    pos = 0
    while pos < len(raw):
        tag = raw[pos]
        (n,) = struct.unpack_from("<I", raw, pos + 1)
        fields[tag] = raw[pos + 5 : pos + 5 + n]
        pos += 5 + n
    version = struct.unpack("<H", fields[6])[0] if 6 in fields else 1  # version 1 wrote no tag 6
    if version != VERSION:
        raise BadMagic(f"CARC version {version}; this reader reads version {VERSION} only")
    schema = CarcSchema.from_text(fields[1].decode("utf-8"))
    codec = _CODEC_NAME[fields[5][0]]
    graw = fields[2]
    (ngroups,) = struct.unpack_from("<I", graw, 0)
    gpos, offset = 4, len(MAGIC)
    groups = []
    for gi in range(ngroups):
        chunks, counts = [], set()
        for col in schema.columns:
            nulls, npages = _CHUNK_STRUCT.unpack_from(graw, gpos)
            gpos += _CHUNK_STRUCT.size
            pages = []
            for _ in range(npages):
                rows, pclen, pulen = _PAGE_STRUCT.unpack_from(graw, gpos)
                pmn, pmx, gpos = _stats(graw, gpos + _PAGE_STRUCT.size, col)
                if rows < 1:
                    raise FooterCorrupt(f"page of column {col.name} holds {rows} rows")
                if not _inflatable(pclen, pulen, codec):
                    raise FooterCorrupt(f"page of {pulen} bytes cannot be stored in {pclen} {codec} bytes")
                pages.append(PageMeta(rows, pclen, pulen, pmn, pmx))
            chunk = _chunk_meta(offset, nulls, pages)
            held = sum(p.row_count for p in pages)
            # the planner skips a group whose predicate chunk holds nulls only, which then has no min/max
            if nulls > (held if col.nullable else 0) or nulls == held and chunk.min is not None:
                raise FooterCorrupt(f"{nulls} nulls in {held} rows of column {col.name}, min {chunk.min!r}")
            chunks.append(chunk)
            counts.add(held)
            offset += chunk.chunk_compressed_len
        if len(counts) != 1:
            raise FooterCorrupt(f"the columns of row group {gi} hold {sorted(counts)} rows")
        groups.append(RowGroupMeta(held, chunks))
    if gpos != len(graw):
        raise FooterCorrupt(f"{len(graw) - gpos} bytes follow the row groups in their field")
    if offset != data_end:
        raise FooterCorrupt(f"the chunks end at {offset}, not at the footer's start {data_end}")
    sort_key = fields[4].decode("utf-8") or None
    return CarcFooter(schema, groups, sum(g.row_count for g in groups), sort_key, codec)


def _write_footer(out, footer: CarcFooter) -> None:
    """Close the file out with footer and the trailer."""
    raw = _serialize_footer(footer)
    out.write(raw + struct.pack("<IQ", zlib.crc32(raw), len(raw)) + MAGIC)


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
    """Stream rows into a CARC file; verifies sort_key order when claimed.
    Pages are encoded in the calling thread and each is compressed alone
    through ordered_map, so the bytes do not depend on the thread count.
    SchemaMismatch and UnsortedInput come at their row; on any error the
    file is removed."""
    if codec not in CODEC_ID:
        raise SchemaMismatch(f"unknown codec {codec!r}")
    out_path = str(out_path)
    sort_idx = schema.index_of(sort_key) if sort_key else None
    ncols = len(schema.columns)

    def checked() -> Iterator[tuple]:
        prev_key = None
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise SchemaMismatch(f"row has {len(row)} fields, schema has {ncols}")
            for ci, col in enumerate(schema.columns):
                _check_value(row[ci], col)
            if sort_idx is not None:
                key = row[sort_idx]
                if prev_key is not None and key is not None and key < prev_key:
                    raise UnsortedInput(i)
                if key is not None:
                    prev_key = key
            yield tuple(row)

    def encoded() -> Iterator[tuple]:
        """Each page of each group, in file order: (rows, raw bytes, null
        count, min, max, whether it closes its column's chunk)."""
        it = checked()
        for group in iter(lambda: list(islice(it, rows_per_group)), []):
            for ci, col in enumerate(schema.columns):
                cut = list(_pages([r[ci] for r in group], col))
                for k, values in enumerate(cut):
                    yield (len(values), *_encode_chunk(values, col), k == len(cut) - 1)

    chunks, pages, nulls = [], [], 0
    with created(out_path) as out:
        out.write(MAGIC)
        stored_pages = ordered_map(lambda page: (page, compress(page[1], codec, compresslevel)), encoded(),
                                   lambda page: 0 if codec == "none" else len(page[1]))
        for (n, raw, page_nulls, mn, mx, closes), stored in stored_pages:
            out.write(stored)
            pages.append(PageMeta(n, len(stored), len(raw), mn, mx))
            nulls += page_nulls
            if closes:
                chunks.append(_chunk_meta(out.tell() - sum(p.compressed_len for p in pages), nulls, pages))
                pages, nulls = [], 0
        groups = [RowGroupMeta(sum(p.row_count for p in chunks[k].pages), chunks[k : k + ncols])
                  for k in range(0, len(chunks), ncols)]
        _write_footer(out, CarcFooter(schema, groups, sum(g.row_count for g in groups), sort_key, codec))
    return out_path


# --- reader -------------------------------------------------------------------

def read_footer(file, tracker: Optional[IoTracker] = None) -> CarcFooter:
    """The footer of a CARC file, decoded afresh: the caller owns it."""
    tracker = tracker or IoTracker()
    with tracker.open(file) as fh:
        return _read_footer_fh(fh, file, _deserialize_footer)


@lru_cache(maxsize=FOOTER_MEMO)
def _footer_of(raw: bytes, data_end: int) -> CarcFooter:
    """_deserialize_footer(raw, data_end), decoded once per distinct pair
    among the last FOOTER_MEMO: the reads of an unchanged file share one
    footer, which read_carc does not change.  An error is not kept, so a
    bad footer raises on every read."""
    return _deserialize_footer(raw, data_end)


def _read_footer_fh(fh, file, decode: Callable[[bytes, int], CarcFooter]) -> CarcFooter:
    """The footer, checked against the row-group data, which lies between the
    leading magic and the footer.  The trailer and footer are read, and the
    CRC checked, on every call; decode (_deserialize_footer, or _footer_of
    for read_carc alone) decodes the footer bytes."""
    size = Path(file).stat().st_size
    if size < len(MAGIC) + TRAILER_LEN:
        raise BadMagic(f"{file}@0: too small for a CARC file")
    trailer = fh.pread(size - TRAILER_LEN, TRAILER_LEN)
    crc, footer_len = struct.unpack("<IQ", trailer[:12])
    if trailer[12:] != MAGIC:
        raise BadMagic(f"{file}@{size - 4}: trailer magic missing")
    if footer_len > size - len(MAGIC) - TRAILER_LEN:
        raise FooterCorrupt(f"{file}@{size - TRAILER_LEN}: footer length {footer_len} exceeds file")
    start = size - TRAILER_LEN - footer_len
    raw = fh.pread(start, footer_len)
    if zlib.crc32(raw) != crc:
        raise FooterCorrupt(f"{file}@{start}: footer CRC mismatch")
    try:
        return decode(raw, start)
    except BadMagic as exc:
        raise BadMagic(f"{file}@{start}: {exc}") from None
    except (KeyError, struct.error, IndexError, UnicodeDecodeError, SchemaMismatch, FooterCorrupt) as exc:
        raise FooterCorrupt(f"{file}@{start}: cannot decode footer: {exc!r}") from None


def _stats_comparable(col: Column, sample) -> bool:
    if col.ctype == "INT64":
        return isinstance(sample, int)
    return isinstance(sample, (str, bytes))


def _as_stat(value, col: Column):
    if col.ctype == "STRING" and isinstance(value, str):
        return value.encode("utf-8")
    return value


def _stat_scalars(schema: CarcSchema, pred: ScanPredicate) -> tuple[int, Optional[list]]:
    """(index of the predicate column, the predicate's scalars as stats
    compare them, or None when its scalars do not have the column's type and
    stats can prune nothing)."""
    ci = schema.index_of(pred.column)
    col = schema.columns[ci]
    if col.ctype == "BYTES":
        raise StatlessColumn(pred.column)
    scalars = list(pred.values) if pred.values is not None else [pred.lo, pred.hi]
    if any(not _stats_comparable(col, s) for s in scalars):
        return ci, None
    return ci, [_as_stat(s, col) for s in scalars]


def _may_hold(stats, pred: ScanPredicate, scalars: Optional[list]) -> bool:
    """False only when no value between stats.min and stats.max (a None
    bound is unbounded) passes pred: the one pruning rule of groups and
    pages."""
    if scalars is None:
        return True
    lo, hi = stats.min, stats.max
    if pred.values is not None:
        return any((lo is None or v >= lo) and (hi is None or v <= hi) for v in scalars)
    plo, phi = scalars
    return (hi is None or plo <= hi) and (lo is None or lo <= phi)


def plan_row_groups(footer: CarcFooter, pred: Optional[ScanPredicate]) -> list[int]:
    """Indices of row groups whose stats interval can intersect the predicate.

    Pure function; never excludes a group that contains a matching row.
    Groups of nulls only are excluded; groups without usable stats, and
    every group when the predicate's scalar type does not match the column
    type, are planned.
    """
    if pred is None:
        return list(range(len(footer.row_groups)))
    ci, scalars = _stat_scalars(footer.schema, pred)
    return [
        gi for gi, g in enumerate(footer.row_groups)
        if g.chunks[ci].null_count != g.row_count and _may_hold(g.chunks[ci], pred, scalars)
    ]


def _rows_by_page(pages: Sequence[PageMeta], rows: Optional[list[int]]) -> list[tuple[int, Optional[list[int]]]]:
    """(page index, its rows counted from its first) of each page holding one
    of the ascending group rows, every page with None when rows is None."""
    if rows is None:
        return [(pi, None) for pi in range(len(pages))]
    ends = list(accumulate(p.row_count for p in pages))
    by_page: dict[int, list[int]] = {}
    for r in rows:
        pi = bisect_right(ends, r)
        by_page.setdefault(pi, []).append(r - ends[pi] + pages[pi].row_count)
    return list(by_page.items())


def _page_starts(c: ChunkMeta) -> list[int]:
    """Where each page of chunk c starts in the file, then where c ends."""
    return list(accumulate((p.compressed_len for p in c.pages), initial=c.chunk_offset))


def read_carc(
    file,
    projection: Optional[Sequence[str]] = None,
    pred: Optional[ScanPredicate] = None,
    tracker: Optional[IoTracker] = None,
    bytes_view: bool = False,
) -> Iterator[tuple]:
    """Yield the projection's fields, in projection order, of rows matching
    pred, in file row order.  projection=None means every schema column.

    Of each planned group, the predicate column's pages whose stats can
    match are read, with one read spanning them, and decoded first.  A
    group with no matching row reads nothing more.  Otherwise each other
    projected chunk wants the span from the first to the last page that
    holds a matching row (every page without a predicate).  The group's
    spans are read before any of their pages is inflated, in the runs
    iostats.coalesce plans: spans whose hole is at most MERGE_GAP bytes
    (the cost model's break-even) share one read of at most RUN_BYTES, so
    no read costs more under the model than a read per span, and no run
    crosses a group.  Each page is inflated when its first value is
    reached, and the columns advance together.  Pages are inflated and
    decoded through ordered_map: while the calling thread decodes one page
    of a chunk, the pool may decode the next, so a read holds up to two
    inflated pages per column.  A page is checked whole but builds only
    the values of the matching rows (see _decode_chunk).  Pass a tracker to
    collect the I/O measurement; the reads are made in the calling thread,
    and are the same with the pool or without it.

    With bytes_view=True, BYTES values are yielded as zero-copy memoryview
    slices over the decoded page; call bytes() on a value to detach it.
    """
    tracker = tracker or IoTracker()
    file = str(file)
    with tracker.open(file) as fh:
        footer = _read_footer_fh(fh, file, _footer_of)
        schema = footer.schema
        names = [c.name for c in schema.columns] if projection is None else projection
        proj_idx = [schema.index_of(name) for name in names]
        built = sorted(set(proj_idx))  # the columns read, in file order
        pick = [built.index(ci) for ci in proj_idx]
        in_order = pick == list(range(len(built)))
        pred_idx, scalars = (None, None) if pred is None else _stat_scalars(schema, pred)
        pred_col = None if pred is None else schema.columns[pred_idx]
        ascii_keys = None if pred is None else _ascii_keys(pred, pred_col)

        def decode(raw: bytes, p: PageMeta, ci: int, rows: Optional[list[int]]):
            if ci == pred_idx:
                return _match_page(raw, pred_col, p.row_count, pred, ascii_keys)
            return _decode_chunk(raw, schema.columns[ci], p.row_count, bytes_view, rows)

        def page_values(c: ChunkMeta, ci: int, wanted: list[tuple[int, Optional[list[int]]]],
                        at: list[int], run: memoryview, run_at: int) -> Iterator:
            """Per page of wanted, (page index, its rows or None for all), the
            values of those rows, or of the predicate column's pages (rows
            None) what _match_page gives; the page starting at at[pi] lies in
            run, the bytes read from run_at."""
            def values(page: tuple[int, Optional[list[int]]]):
                pi, rows = page
                p = c.pages[pi]
                try:
                    raw = inflate(run[at[pi] - run_at : at[pi + 1] - run_at], p.uncompressed_len, footer.codec)
                    return decode(raw, p, ci, rows)
                except _DECODE_ERRORS as exc:
                    raise DecompressFailure(f"{file}@{at[pi]}: {exc}") from None

            return ordered_map(values, wanted, lambda page: c.pages[page[0]].uncompressed_len)

        def read_pages(g: RowGroupMeta, wanted: dict[int, list]) -> dict[int, Iterator]:
            """Per column ci of wanted, the page_values of its wanted pages of
            group g, given as page_values takes them.  Each column's span,
            from its first wanted page to its last, is read first, in the runs
            iostats.coalesce plans, one pread each, in file order."""
            wanted = {ci: w for ci, w in wanted.items() if w}
            at = {ci: _page_starts(g.chunks[ci]) for ci in wanted}
            spans = {ci: (at[ci][w[0][0]], at[ci][w[-1][0] + 1]) for ci, w in wanted.items()}
            runs = coalesce(spans.values(), MERGE_GAP, RUN_BYTES)
            starts = [start for start, _ in runs]
            views = [memoryview(fh.pread(start, end - start)) for start, end in runs]
            out = {}
            for ci, (start, _) in spans.items():
                r = bisect_right(starts, start) - 1
                out[ci] = page_values(g.chunks[ci], ci, wanted[ci], at[ci], views[r], starts[r])
            return out

        for gi in plan_row_groups(footer, pred):
            g = footer.row_groups[gi]
            rows, keys, n = None, None, g.row_count
            if pred is not None:
                pages = g.chunks[pred_idx].pages
                tested = [(pi, None) for pi, p in enumerate(pages) if _may_hold(p, pred, scalars)]
                first = list(accumulate((p.row_count for p in pages), initial=0))
                rows, keys = [], []
                for (pi, _), (hits, values) in zip(tested, read_pages(g, {pred_idx: tested}).get(pred_idx, ())):
                    rows += [first[pi] + i for i in hits]
                    keys += values
                if not rows:
                    continue
                n = len(rows)
            chunks = read_pages(g, {ci: _rows_by_page(g.chunks[ci].pages, rows) for ci in built if ci != pred_idx})
            cols = [iter(keys) if ci == pred_idx else chain.from_iterable(chunks.get(ci, ())) for ci in built]
            if not cols:
                yield from repeat((), n)
            elif in_order:
                yield from zip(*cols)
            else:
                yield from (tuple([row[i] for i in pick]) for row in zip(*cols))


# --- inspect ------------------------------------------------------------------

def describe(file) -> dict:
    """The footer of a CARC file as JSON-ready data: its length in bytes and
    its page count, the schema, and per row group its chunks with their page
    index.  A STRING min/max is shown as text, a byte that is not UTF-8
    escaped."""
    footer = read_footer(file)
    chunks = [c for g in footer.row_groups for c in g.chunks]
    data_end = len(MAGIC) + sum(c.chunk_compressed_len for c in chunks)  # where the footer starts

    def stat(v):
        return v.decode("utf-8", "backslashreplace") if isinstance(v, bytes) else v

    def pages(c: ChunkMeta) -> list[dict]:
        return [dict(p._asdict(), min=stat(p.min), max=stat(p.max)) for p in c.pages]

    return {
        "format": "CARC",
        "version": VERSION,
        "codec": footer.codec,
        "sort_key": footer.sort_key,
        "total_rows": footer.total_rows,
        "footer_len": Path(file).stat().st_size - TRAILER_LEN - data_end,
        "page_count": sum(len(c.pages) for c in chunks),
        "schema": footer.schema.to_text().splitlines(),
        "row_groups": [
            {
                "row_count": g.row_count,
                "chunks": [
                    {
                        "column": col.name,
                        "offset": c.chunk_offset,
                        "compressed_len": c.chunk_compressed_len,
                        "uncompressed_len": c.chunk_uncompressed_len,
                        "null_count": c.null_count,
                        "min": stat(c.min),
                        "max": stat(c.max),
                        "pages": pages(c),
                    }
                    for col, c in zip(footer.schema.columns, g.chunks)
                ],
            }
            for g in footer.row_groups
        ],
    }
