import os
import random
import struct

import pytest

import archfmt.rarc as rarc_mod
from archfmt.errors import ArchfmtError, BadMagic, DecompressFailure, SyncLost
from archfmt.iostats import IoTracker
from archfmt.rarc import (
    encode_block,
    read_header,
    read_rarc,
    read_rarc_rows,
    resync,
    write_rarc,
)
from test_carc import SCHEMA, make_rows


def header_len(path):
    with open(path, "rb") as fh:
        _, _, _, hlen = read_header(fh, str(path))
    return hlen


def test_zero_rows_header_only(tmp_path):
    path = tmp_path / "zero.rarc"
    write_rarc([], SCHEMA, path)
    assert os.path.getsize(path) == header_len(path)
    rows, _ = read_rarc_rows(path)
    assert rows == []


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
    assert read_rarc_rows(a)[0] == read_rarc_rows(b)[0] == rows


def test_roundtrip_2500(tmp_path):
    rows = make_rows(2500, seed=5)
    path = tmp_path / "rt.rarc"
    write_rarc(rows, SCHEMA, path)
    got, m = read_rarc_rows(path)
    assert got == rows
    assert m.bytes_read == os.path.getsize(path)
    assert m.seek_count == 1


def test_truncated_mid_block(tmp_path):
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
    rows, _ = read_rarc_rows(empty)
    assert rows == []


def test_resync_from_zero_and_eof(tmp_path):
    rows = make_rows(777, seed=7)
    path = tmp_path / "r.rarc"
    write_rarc(rows, SCHEMA, path, rows_per_block=50)
    assert list(resync(path, 0)) == rows
    assert list(resync(path, header_len(path))) == rows
    assert list(resync(path, os.path.getsize(path))) == []


def test_resync_midpoint_partition(tmp_path):
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
    got, _ = read_rarc_rows(path)
    assert got == rows


def test_split_partition_100_points(tmp_path):
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
        blob += encode_block(rows_b[start : start + 50], schema, codec, sync)
    merged = tmp_path / "merged.rarc"
    merged.write_bytes(bytes(blob))
    got, _ = read_rarc_rows(merged)
    assert got == rows_a + rows_b


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


def test_mutation_fuzz_raises_only_typed_errors(tmp_path):
    path = tmp_path / "f.rarc"
    write_rarc(make_rows(120, seed=31), SCHEMA, path, rows_per_block=16)
    data, hlen, heads = _block_heads(path)
    spots = list(range(hlen)) + [h + i for h in heads for i in range(20)]
    bad = tmp_path / "bad.rarc"
    rng = random.Random(2024)
    for _ in range(300):
        mutated = bytearray(data)
        at = rng.choice(spots)
        mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
        bad.write_bytes(bytes(mutated))
        for read in (lambda: read_rarc(bad), lambda: resync(bad, rng.randrange(len(data)))):
            try:
                for _ in read():
                    pass
            except ArchfmtError:
                pass


def test_resync_streams_and_stops_with_its_caller(tmp_path, monkeypatch):
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


@pytest.mark.parametrize("chunk", [1, 7, 16, 17])
def test_resync_partitions_with_small_read_chunks(tmp_path, monkeypatch, chunk):
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


def test_resync_passes_a_false_marker_with_a_bad_length(tmp_path):
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
