import os
import random
import re
import struct

import pytest

import archfmt.rarc as rarc_mod
from archfmt import carc
from archfmt.errors import ArchfmtError, BadMagic, DecompressFailure, SchemaMismatch, SyncLost, UnknownColumn
from archfmt.iostats import IoTracker
from archfmt.rarc import (
    encode_block,
    encode_rows,
    read_header,
    read_rarc,
    resync,
    write_rarc,
)
from conftest import at_threads, written_at_one_and_two_threads
from test_carc import PROJECTIONS, SCHEMA, _detached, _predicates, make_rows, with_bad_utf8
from archfmt.carc import ScanPredicate


def header_len(path):
    with open(path, "rb") as fh:
        _, _, _, hlen = read_header(fh, str(path))
    return hlen


def test_zero_rows_header_only(tmp_path):
    path = tmp_path / "zero.rarc"
    write_rarc([], SCHEMA, path)
    assert os.path.getsize(path) == header_len(path)
    assert list(read_rarc(path)) == []


def test_block_sizes_ceiling_division(tmp_path):
    path = tmp_path / "b.rarc"
    write_rarc(make_rows(2500), SCHEMA, path, rows_per_block=1024)
    with open(path, "rb") as fh:
        _, _, sync, hlen = read_header(fh, str(path))
        fh.seek(hlen)
        counts = []
        while True:
            head = fh.read(20)
            if not head:
                break
            count, ulen, clen = struct.unpack("<IQQ", head)
            counts.append(count)
            fh.seek(clen, 1)
            assert fh.read(16) == sync
    assert counts == [1024, 1024, 452]


def test_two_seeds_same_rows_different_markers(tmp_path):
    rows = make_rows(500, seed=1)
    a, b = tmp_path / "a.rarc", tmp_path / "b.rarc"
    write_rarc(rows, SCHEMA, a, seed=1)
    write_rarc(rows, SCHEMA, b, seed=2)
    with open(a, "rb") as fh:
        _, _, sync_a, _ = read_header(fh, str(a))
    with open(b, "rb") as fh:
        _, _, sync_b, _ = read_header(fh, str(b))
    assert sync_a != sync_b
    assert list(read_rarc(a)) == list(read_rarc(b)) == rows


def test_roundtrip_2500(tmp_path):
    rows = make_rows(2500, seed=5)
    path = tmp_path / "rt.rarc"
    write_rarc(rows, SCHEMA, path)
    m = IoTracker()
    got = list(read_rarc(path, m))
    assert got == rows
    assert m.bytes_read == os.path.getsize(path)
    assert m.seek_count == 1


def test_truncated_mid_block(tmp_path, threads):
    rows = make_rows(300, seed=6)
    path = tmp_path / "full.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=100)
    data = path.read_bytes()
    cut = tmp_path / "cut.rarc"
    cut.write_bytes(data[: len(data) - 37])  # inside the last block
    got = []
    with pytest.raises(SyncLost):
        for row in read_rarc(cut):
            got.append(row)
    assert got == rows[:200]  # two complete blocks survive


def test_empty_after_header(tmp_path):
    path = tmp_path / "full.rarc"
    write_rarc(make_rows(10), SCHEMA, path)
    empty = tmp_path / "hdr.rarc"
    empty.write_bytes(path.read_bytes()[: header_len(path)])
    assert list(read_rarc(empty)) == []


def test_resync_from_zero_and_eof(tmp_path, threads):
    rows = make_rows(777, seed=7)
    path = tmp_path / "r.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=50)
    assert list(resync(path, 0)) == rows
    assert list(resync(path, header_len(path))) == rows
    assert list(resync(path, os.path.getsize(path))) == []


def test_resync_midpoint_partition(tmp_path, threads):
    rows = make_rows(900, seed=8)
    path = tmp_path / "m.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=64)
    size = os.path.getsize(path)
    mid = size // 2
    first = list(resync(path, 0))
    second = list(resync(path, mid))
    # reader 1 claims blocks found in [0, mid), reader 2 the rest
    claimed_first = first[: len(first) - len(second)]
    assert claimed_first + second == rows
    assert len(set(map(tuple, claimed_first)) & set(map(tuple, second))) == 0


@pytest.mark.parametrize("rows_per_block", [1, 13, 1024])
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_roundtrip_all_options(tmp_path, rows_per_block, codec):
    rows = make_rows(200, seed=rows_per_block)
    path = tmp_path / f"rt{rows_per_block}{codec}.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=rows_per_block, codec=codec)
    assert list(read_rarc(path)) == rows


def test_split_partition_100_points(tmp_path, threads):
    rows = make_rows(600, seed=9)
    path = tmp_path / "split.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=37)
    size = os.path.getsize(path)
    rng = random.Random(10)
    for _ in range(100):
        s = rng.randint(1, size)
        lo_rows = list(resync(path, 0))
        hi_rows = list(resync(path, s))
        # suffix property: hi_rows is a suffix of lo_rows; the split partitions
        assert lo_rows == rows
        assert hi_rows == rows[len(rows) - len(hi_rows) :]


def test_concatenatability(tmp_path):
    rows_a = make_rows(130, seed=11)
    rows_b = make_rows(70, seed=12)
    a = tmp_path / "a.rarc"
    write_rarc(rows_a, SCHEMA, a, rows_per_block=50, seed=3)
    with open(a, "rb") as fh:
        schema, codec, sync, _ = read_header(fh, str(a))
    blob = bytearray(a.read_bytes())
    for start in range(0, len(rows_b), 50):
        block = rows_b[start : start + 50]
        blob += encode_block(len(block), encode_rows(block, schema), codec, sync)
    merged = tmp_path / "merged.rarc"
    merged.write_bytes(bytes(blob))
    assert list(read_rarc(merged)) == rows_a + rows_b


def test_bytes_view_yields_equal_views(tmp_path):
    from archfmt.rarc import read_rarc

    rows = make_rows(150, seed=22)
    path = tmp_path / "v.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=40)
    got = []
    for row in read_rarc(path, bytes_view=True):
        assert isinstance(row[-1], memoryview)
        # detach before the next block recycles the buffer
        got.append(tuple(bytes(v) if isinstance(v, memoryview) else v for v in row))
    assert got == rows


@pytest.mark.parametrize("rows_per_block", [1, 7, 64])
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_predicate_read_equals_filtered_full_read(tmp_path, rows_per_block, codec):
    rng = random.Random(rows_per_block * 2 + (codec == "gzip"))
    rows = make_rows(150, seed=rows_per_block)
    path = tmp_path / "p.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=rows_per_block, codec=codec)
    names = [c.name for c in SCHEMA.columns]
    for bytes_view in (False, True):
        assert [_detached(r) for r in read_rarc(path, bytes_view=bytes_view)] == rows
        for pred in [None] + _predicates(rows, rng):
            for proj in PROJECTIONS:
                idx = range(len(names)) if proj is None else [names.index(n) for n in proj]
                want = [tuple(r[i] for i in idx) for r in rows
                        if pred is None or pred.matches(r[names.index(pred.column)])]
                got = list(read_rarc(path, bytes_view=bytes_view, projection=proj, pred=pred))
                assert [_detached(r) for r in got] == want, (pred, proj)


def test_utf8_is_checked_only_on_values_returned(tmp_path):
    rows = make_rows(40, seed=41, ts=list(range(40)))
    rows[5] = (rows[5][0], rows[5][1], "note-5", rows[5][3])
    path = with_bad_utf8(tmp_path, rows, write_rarc, rows_per_block=16)
    skip5 = ScanPredicate.range("timestamp", 6, 39)
    assert list(read_rarc(path, projection=("note",), pred=skip5)) == [(r[2],) for r in rows[6:]]
    assert list(read_rarc(path, projection=("timestamp",))) == [(r[1],) for r in rows]
    # the first block's note is returned, or is the predicate column
    for proj, pred in [(("note",), None), (("note",), ScanPredicate.range("timestamp", 5, 5)),
                       ((), ScanPredicate.isin("note", ["n7"]))]:
        with pytest.raises(DecompressFailure, match=re.escape(f"{path}@{header_len(path)}: ")):
            list(read_rarc(path, projection=proj, pred=pred))


def _block_heads(path):
    """The file's bytes, its header length and the offset of every block head."""
    data = path.read_bytes()
    hlen = header_len(path)
    heads, pos = [], hlen
    while pos < len(data):
        heads.append(pos)
        pos += 20 + struct.unpack_from("<IQQ", data, pos)[2] + 16
    return data, hlen, heads


@pytest.mark.parametrize(
    "where, value, error",
    [
        ("clen", struct.pack("<Q", 2**40), SyncLost),
        ("codec", b"\x07", BadMagic),
        ("count", None, DecompressFailure),
    ],
    ids=["clen", "codec", "count"],
)
def test_hostile_lengths_are_typed(tmp_path, where, value, error):
    path = tmp_path / "h.rarc"
    write_rarc(make_rows(50, seed=13), SCHEMA, path, rows_per_block=10)
    data, hlen, heads = _block_heads(path)
    data = bytearray(data)
    if where == "clen":
        data[hlen + 12 : hlen + 20] = value
    elif where == "codec":
        data[6:7] = value
    else:  # one row more than the block holds
        data[hlen : hlen + 4] = struct.pack("<I", struct.unpack_from("<I", data, hlen)[0] + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(error):
        list(read_rarc(path))


def test_mutation_fuzz_raises_only_typed_errors(tmp_path, threads):
    path = tmp_path / "f.rarc"
    write_rarc(make_rows(120, seed=31), SCHEMA, path, rows_per_block=16)
    data, hlen, heads = _block_heads(path)
    spots = list(range(hlen)) + [h + i for h in heads for i in range(20)]
    bad = tmp_path / "bad.rarc"
    located = re.compile(rf"^{re.escape(str(bad))}@\d+: ")
    rng = random.Random(2024)
    for _ in range(300):
        mutated = bytearray(data)
        at = rng.choice(spots)
        mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
        bad.write_bytes(bytes(mutated))
        pred = ScanPredicate.range("timestamp", 0, 5 * 10**11)
        for read in (lambda: read_rarc(bad), lambda: read_rarc(bad, projection=("urlkey",), pred=pred),
                     lambda: resync(bad, rng.randrange(len(data))), lambda: [rarc_mod.describe(bad)]):
            try:
                for _ in read():
                    pass
            except UnknownColumn:
                pass  # a query naming a column the mutated schema renamed: no offset to give
            except ArchfmtError as exc:
                assert located.match(str(exc)), str(exc)


def test_resync_streams_and_stops_with_its_caller(tmp_path, monkeypatch, threads):
    monkeypatch.setattr(rarc_mod, "_READ_CHUNK", 64)
    rows = make_rows(900, seed=8)
    path = tmp_path / "s.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=64)
    size = os.path.getsize(path)
    tracker = IoTracker()
    second = list(resync(path, size // 2, tracker))
    assert second == rows[len(rows) - len(second) :] and second
    assert tracker.bytes_read < size
    tracker = IoTracker()
    reader = resync(path, 0, tracker)
    assert next(reader) == rows[0]
    reader.close()
    assert tracker.bytes_read < size // 2


def test_a_reader_closed_after_its_first_block_reads_at_most_one_block_more_at_two_threads(tmp_path, monkeypatch):
    """A reader closed early may have read one block more than it yielded,
    and no more seeks: at 2 threads, read_rarc and resync read the
    block after the one they stopped in, to inflate it beside it."""
    monkeypatch.setattr(rarc_mod, "_READ_CHUNK", 64)
    rows = make_rows(120, seed=18)
    path = tmp_path / "e.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=16)
    _, _, heads = _block_heads(path)
    size = os.path.getsize(path)
    largest = max(b - a for a, b in zip(heads, heads[1:] + [size]))  # a block's head, payload and marker
    reads = {"read_rarc": lambda t: read_rarc(path, t), "resync": lambda t: resync(path, heads[2] - 5, t)}
    for name, read in reads.items():
        io = {}
        for n in (1, 2):
            with at_threads(n) as pool:
                tracker = IoTracker()
                reader = read(tracker)
                for _ in range(16):  # the first block's rows
                    next(reader)
                reader.close()
            io[n] = tracker.bytes_read, tracker.seek_count
            assert pool.submitted == n - 1, name
        (bytes1, seeks1), (bytes2, seeks2) = io[1], io[2]
        assert seeks2 == seeks1 and bytes1 < bytes2 <= bytes1 + largest, (name, io)


@pytest.mark.parametrize("chunk", [1, 7, 16, 17])
def test_resync_partitions_with_small_read_chunks(tmp_path, monkeypatch, chunk, threads):
    monkeypatch.setattr(rarc_mod, "_READ_CHUNK", chunk)
    rows = make_rows(300, seed=14)
    path = tmp_path / "c.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=20)
    _, hlen, heads = _block_heads(path)
    size = os.path.getsize(path)
    # each block start, and one byte either side of it, splits the file
    points = sorted({p + d for p in heads + [size] for d in (-1, 0, 1)} | {0, hlen})
    assert list(resync(path, 0)) == rows
    for s in points:
        hi = list(resync(path, s))
        # a block belongs to the reader whose range holds the marker before it
        assert len(hi) == 20 * sum(1 for h in heads if h >= s)
        assert hi == rows[len(rows) - len(hi) :]


def test_resync_passes_a_false_marker_with_a_bad_length(tmp_path, threads):
    path = tmp_path / "x.rarc"
    write_rarc([], SCHEMA, path, codec="none")
    with open(path, "rb") as fh:
        _, _, sync, hlen = read_header(fh, str(path))
    rows = make_rows(40, seed=15)
    # a payload that holds the marker and a block head whose ulen cannot be its clen
    fake = sync + struct.pack("<IQQ", 1, 999, 5) + bytes(40)
    rows[5] = rows[5][:3] + (fake,)
    write_rarc(rows, SCHEMA, path, rows_per_block=10, codec="none")
    false_marker = path.read_bytes().find(sync, hlen)
    assert false_marker < _block_heads(path)[2][1]  # inside the first block
    assert list(resync(path, false_marker)) == rows[10:]


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_resync_ranges_tile_the_file_and_yield_every_row_once(tmp_path, monkeypatch, chunk, threads):
    """Readers over [a, b) ranges that tile the file need no trimming: each
    yields the blocks that start in its range, and together every row once."""
    monkeypatch.setattr(rarc_mod, "_READ_CHUNK", chunk)
    rows = make_rows(500, seed=16)
    path = tmp_path / "t.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=23)
    _, hlen, heads = _block_heads(path)
    size = os.path.getsize(path)
    counts = [min(23, len(rows) - 23 * i) for i in range(len(heads))]  # the rows of each block
    rng = random.Random(chunk)
    edges = sorted({p + d for p in heads for d in (-1, 0, 1)} | {hlen, size})
    for cuts in [[], edges, rng.sample(range(1, size), 40), rng.sample(range(1, size), 3)]:
        bounds = [0] + sorted(set(cuts) - {0, size}) + [size]
        parts = []
        for a, b in zip(bounds, bounds[1:]):
            part = list(resync(path, a, end=b))
            assert len(part) == sum(n for h, n in zip(heads, counts) if a <= h < b)
            parts.extend(part)
        assert parts == rows
    # a reader stops at its end: it reads no block that starts past it
    tracker = IoTracker()
    assert list(resync(path, 0, tracker, end=heads[1])) == rows[:23]
    assert tracker.bytes_read < heads[2]


# --- parallel compress --------------------------------------------------------

@pytest.mark.parametrize("codec", ["gzip", "none"])
def test_write_rarc_is_byte_identical_at_one_and_two_threads(tmp_path, codec):
    """Each block is compressed alone, so the file's bytes do not depend on
    the thread count."""
    rows = make_rows(300, seed=33)
    digests, submitted = written_at_one_and_two_threads(
        lambda n: [write_rarc(rows, SCHEMA, tmp_path / f"{n}.rarc", rows_per_block=20, codec=codec, seed=4)]
    )
    assert digests[1] == digests[2] and submitted > 0  # at gate 0 even a codec-none block takes the pool
    assert list(read_rarc(tmp_path / "2.rarc")) == rows


def test_a_codec_none_block_runs_in_the_caller(tmp_path):
    """A codec-none block has nothing to deflate, so, however large, it is
    framed in the caller: as convert's spill runs are written, one row a
    block of over 128 KiB; a gzip block of that size takes the pool."""
    rng = random.Random(5)
    rows = [(f"com,big)/{i}", i, None, rng.randbytes(200 << 10)) for i in range(4)]
    for codec, submitted in (("none", 0), ("gzip", 2)):
        with at_threads(2, gate=128 << 10) as pool:
            path = write_rarc(rows, SCHEMA, tmp_path / f"{codec}.rarc", rows_per_block=1, codec=codec)
        assert pool.submitted == submitted, codec
        assert list(read_rarc(path)) == rows


@pytest.mark.parametrize("error", ["schema", "source"])
def test_write_rarc_error_leaves_no_file_and_the_pool_free(tmp_path, threads, error):
    """A SchemaMismatch, or an error of the row source, raised after earlier
    blocks went through the pool, removes the partial file."""
    rows, bad = make_rows(200, seed=6), 150
    if error == "schema":
        rows[bad] = rows[bad][:3]

    def source():
        for i, row in enumerate(rows):
            if error == "source" and i == bad:
                raise RuntimeError("the row source failed")
            yield row

    path = tmp_path / "e.rarc"
    with pytest.raises(SchemaMismatch if error == "schema" else RuntimeError):
        write_rarc(source(), SCHEMA, path, rows_per_block=20)
    assert not path.exists()
    assert carc._POOL.submitted > 0 if threads == 2 else carc._POOL.submitted == 0
    assert carc._POOL.submit(int).result(timeout=10) == 0
