import math
import random
import re
import struct
import zlib

import pytest

from archfmt.carc import (
    MAGIC,
    TRAILER_LEN,
    CarcFooter,
    CarcSchema,
    Column,
    RowGroupMeta,
    ScanPredicate,
    _deserialize_footer,
    _serialize_footer,
    plan_row_groups,
    read_carc,
    read_carc_rows,
    read_footer,
    write_carc,
)
from archfmt.errors import (
    ArchfmtError,
    BadMagic,
    FooterCorrupt,
    StatlessColumn,
    UnknownColumn,
    UnsortedInput,
)

SCHEMA = CarcSchema(
    columns=(
        Column("urlkey", "STRING", False),
        Column("timestamp", "INT64", False),
        Column("note", "STRING", True),
        Column("payload", "BYTES", False),
    )
)


def make_rows(n, seed=0, ts=None):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            (
                f"com,site{rng.randint(0, 9)})/p/{i}",
                ts[i] if ts is not None else rng.randint(0, 10**12),
                None if rng.random() < 0.3 else f"n{i}",
                rng.randbytes(rng.randint(0, 100)),
            )
        )
    return rows


def test_zero_rows(tmp_path):
    path = tmp_path / "zero.carc"
    write_carc([], SCHEMA, path)
    footer = read_footer(path)
    assert footer.total_rows == 0 and footer.row_groups == []
    rows, _ = read_carc_rows(path)
    assert rows == []


def test_group_sizes_ceiling_division(tmp_path):
    path = tmp_path / "g.carc"
    write_carc(make_rows(10000), SCHEMA, path, rows_per_group=4096)
    footer = read_footer(path)
    assert [g.row_count for g in footer.row_groups] == [4096, 4096, 1808]


def test_unsorted_input_reports_row_index(tmp_path):
    rows = make_rows(4, ts=[5, 3, 7, 9])
    with pytest.raises(UnsortedInput) as exc:
        write_carc(rows, SCHEMA, tmp_path / "u.carc", sort_key="timestamp")
    assert exc.value.row_index == 1


def write_ts_groups(tmp_path, name, ranges):
    """One file whose row groups carry exactly the given timestamp [lo,hi] stats."""
    rows = []
    for lo, hi in ranges:
        mid = (lo + hi) // 2
        rows.extend(make_rows(1, ts=[lo]) + make_rows(1, ts=[mid]) + make_rows(1, ts=[hi]))
    path = tmp_path / name
    write_carc(rows, SCHEMA, path, rows_per_group=3)
    return path


def test_plan_interval_intersection(tmp_path):
    path = write_ts_groups(tmp_path, "p.carc", [(0, 99), (100, 199), (200, 299)])
    footer = read_footer(path)
    assert plan_row_groups(footer, ScanPredicate.range("timestamp", 150, 250)) == [1, 2]
    assert plan_row_groups(footer, ScanPredicate.range("timestamp", 300, 400)) == []
    assert plan_row_groups(footer, None) == [0, 1, 2]


def test_plan_unsorted_all_overlap(tmp_path):
    path = write_ts_groups(tmp_path, "o.carc", [(0, 299), (0, 299), (0, 299)])
    footer = read_footer(path)
    assert plan_row_groups(footer, ScanPredicate.range("timestamp", 150, 250)) == [0, 1, 2]


def test_plan_errors(tmp_path):
    footer = read_footer(write_ts_groups(tmp_path, "e.carc", [(0, 9)]))
    with pytest.raises(UnknownColumn):
        plan_row_groups(footer, ScanPredicate.range("nope", 0, 1))
    with pytest.raises(StatlessColumn):
        plan_row_groups(footer, ScanPredicate.range("payload", b"a", b"b"))


def test_projection_reads_only_projected_chunks(tmp_path):
    path = tmp_path / "proj.carc"
    write_carc(make_rows(10000), SCHEMA, path, rows_per_group=4096)
    footer = read_footer(path)
    rows, m = read_carc_rows(path, projection=("timestamp",))
    assert len(rows) == 10000
    ts_idx = footer.schema.index_of("timestamp")
    chunk_bytes = sum(g.chunks[ts_idx].chunk_compressed_len for g in footer.row_groups)
    payload_bytes = sum(
        g.chunks[footer.schema.index_of("payload")].chunk_compressed_len
        for g in footer.row_groups
    )
    assert m.bytes_read < chunk_bytes + payload_bytes  # payload chunks untouched
    footer_overhead = m.bytes_read - chunk_bytes
    assert 0 < footer_overhead < 64 * 1024  # only footer + trailer on top


def test_disjoint_predicate_reads_footer_only(tmp_path):
    path = write_ts_groups(tmp_path, "d.carc", [(0, 99), (100, 199), (200, 299)])
    rows, m = read_carc_rows(path, pred=ScanPredicate.range("timestamp", 300, 400))
    assert rows == []
    chunk_total = sum(
        c.chunk_compressed_len for g in read_footer(path).row_groups for c in g.chunks
    )
    import os

    # Everything except the chunks and the 6-byte leading magic+version.
    assert m.bytes_read == os.path.getsize(path) - chunk_total - 6


def test_set_predicate_matches_bruteforce(tmp_path):
    rows = make_rows(500, seed=2)
    key = rows[123][0]
    expected = [r for r in rows if r[0] == key]
    path = tmp_path / "s.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=64)
    got, _ = read_carc_rows(path, pred=ScanPredicate.isin("urlkey", [key]))
    assert got == expected


@pytest.mark.parametrize("rows_per_group", [1, 7, 4096])
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_roundtrip_all_options(tmp_path, rows_per_group, codec):
    rows = make_rows(300, seed=rows_per_group)
    path = tmp_path / f"rt{rows_per_group}{codec}.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=rows_per_group, codec=codec)
    got, _ = read_carc_rows(path)
    assert got == rows


def test_pushdown_soundness_randomized(tmp_path):
    rng = random.Random(77)
    for trial in range(30):
        rows = make_rows(rng.randint(0, 200), seed=trial)
        path = tmp_path / f"pd{trial}.carc"
        write_carc(rows, SCHEMA, path, rows_per_group=rng.choice([1, 5, 32]))
        if rng.random() < 0.5:
            lo = rng.randint(0, 10**12)
            pred = ScanPredicate.range("timestamp", lo, lo + rng.randint(0, 10**11))
            oracle = [r for r in rows if lo <= r[1] <= pred.hi]
        else:
            keys = [r[0] for r in rng.sample(rows, min(3, len(rows)))] if rows else ["x)/"]
            pred = ScanPredicate.isin("urlkey", keys)
            oracle = [r for r in rows if r[0] in set(keys)]
        got, _ = read_carc_rows(path, pred=pred)
        assert got == oracle


def test_plan_row_groups_property_1000(tmp_path):
    """Planner soundness on 1000+ synthetic footers: no false negatives."""
    rng = random.Random(123)
    for _ in range(1100):
        n_groups = rng.randint(0, 6)
        intervals = []
        for _ in range(n_groups):
            lo = rng.randint(0, 1000)
            intervals.append((lo, lo + rng.randint(0, 300)))
        path_free_footer = _synthetic_footer(intervals)
        if rng.random() < 0.5:
            plo = rng.randint(0, 1300)
            pred = ScanPredicate.range("timestamp", plo, plo + rng.randint(0, 400))
            truthy = [
                i
                for i, (lo, hi) in enumerate(intervals)
                if not (pred.hi < lo or pred.lo > hi)
            ]
        else:
            members = [rng.randint(0, 1300) for _ in range(rng.randint(1, 4))]
            pred = ScanPredicate.isin("timestamp", members)
            truthy = [
                i
                for i, (lo, hi) in enumerate(intervals)
                if any(lo <= v <= hi for v in members)
            ]
        assert plan_row_groups(path_free_footer, pred) == truthy


def _synthetic_footer(ts_intervals):
    from archfmt.carc import ChunkMeta

    groups = []
    for lo, hi in ts_intervals:
        chunks = []
        for col in SCHEMA.columns:
            has = col.name == "timestamp"
            chunks.append(
                ChunkMeta(
                    chunk_offset=0,
                    chunk_compressed_len=0,
                    chunk_uncompressed_len=0,
                    null_count=0,
                    min=lo if has else None,
                    max=hi if has else None,
                )
            )
        groups.append(RowGroupMeta(row_count=3, chunks=list(chunks)))
    return CarcFooter(
        schema=SCHEMA,
        row_groups=list(groups),
        total_rows=3 * len(groups),
        sort_key=None,
        codec="gzip",
    )


def test_statless_group_always_planned():
    footer = _synthetic_footer([(0, 9)])
    ts_i = SCHEMA.index_of("timestamp")
    chunk = footer.row_groups[0].chunks[ts_i]
    chunk.min = chunk.max = None  # stats absent, but rows are non-null
    assert plan_row_groups(footer, ScanPredicate.range("timestamp", 100, 200)) == [0]


def test_type_mismatched_predicate_plans_everything():
    footer = _synthetic_footer([(0, 9), (10, 19)])
    pred = ScanPredicate.range("timestamp", "a", "b")  # strings against INT64
    assert plan_row_groups(footer, pred) == [0, 1]


def test_stats_tightness(tmp_path):
    rows = make_rows(1000, seed=8)
    path = tmp_path / "tight.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=128)
    footer = read_footer(path)
    start = 0
    ts_i = footer.schema.index_of("timestamp")
    uk_i = footer.schema.index_of("urlkey")
    for g in footer.row_groups:
        chunk_rows = rows[start : start + g.row_count]
        ts_values = [r[1] for r in chunk_rows]
        assert g.chunks[ts_i].min == min(ts_values)
        assert g.chunks[ts_i].max == max(ts_values)
        keys = [r[0] for r in chunk_rows]
        assert g.chunks[uk_i].min == min(keys).encode()  # keys are < 64 bytes
        assert g.chunks[uk_i].max == max(keys).encode()
        start += g.row_count


def test_projection_monotonicity(tmp_path):
    path = tmp_path / "mono.carc"
    write_carc(make_rows(2000, seed=4), SCHEMA, path, rows_per_group=256)
    sizes = []
    for proj in [("timestamp",), ("timestamp", "urlkey"), None]:
        _, m = read_carc_rows(path, projection=proj)
        sizes.append(m.bytes_read)
    assert sizes == sorted(sizes)


def test_sorted_range_plan_bound(tmp_path):
    n = 5000
    ts = sorted(random.Random(3).randint(0, 10**9) for _ in range(n))
    rows = make_rows(n, ts=ts)
    path = tmp_path / "sorted.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=100, sort_key="timestamp")
    footer = read_footer(path)
    total_groups = len(footer.row_groups)
    rng = random.Random(6)
    for _ in range(20):
        i = rng.randint(0, n - 1)
        width = rng.randint(0, n - 1 - i)
        lo, hi = ts[i], ts[i + width]
        matched = sum(1 for t in ts if lo <= t <= hi)
        s = matched / n
        planned = plan_row_groups(footer, ScanPredicate.range("timestamp", lo, hi))
        assert len(planned) <= math.ceil(s * total_groups) + 2


def test_sort_key_intervals_non_overlapping(tmp_path):
    ts = sorted(random.Random(1).randint(0, 10**6) for _ in range(1000))
    path = tmp_path / "sk.carc"
    write_carc(make_rows(1000, ts=ts), SCHEMA, path, rows_per_group=64, sort_key="timestamp")
    footer = read_footer(path)
    ts_i = footer.schema.index_of("timestamp")
    prev_max = None
    for g in footer.row_groups:
        if prev_max is not None:
            assert g.chunks[ts_i].min >= prev_max
        prev_max = g.chunks[ts_i].max


def test_bad_magic_and_corrupt_footer(tmp_path):
    path = tmp_path / "c.carc"
    write_carc(make_rows(10), SCHEMA, path)
    data = bytearray(path.read_bytes())
    bad = tmp_path / "notcarc.bin"
    bad.write_bytes(bytes(data[:-4]) + b"JUNK")  # trailer magic is what readers check
    with pytest.raises(BadMagic):
        read_footer(bad)
    corrupt = bytearray(data)
    corrupt[-20] ^= 0xFF  # inside the footer CRC region
    cpath = tmp_path / "corrupt.carc"
    cpath.write_bytes(bytes(corrupt))
    with pytest.raises(FooterCorrupt):
        read_footer(cpath)


def test_bytes_view_yields_equal_views(tmp_path):
    from archfmt.carc import read_carc

    rows = make_rows(200, seed=21)
    path = tmp_path / "v.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=64)
    got = list(read_carc(path, bytes_view=True))
    assert len(got) == len(rows)
    for view_row, row in zip(got, rows):
        assert isinstance(view_row[-1], memoryview)
        assert [bytes(v) if isinstance(v, memoryview) else v for v in view_row] == list(row)


def test_projection_order_is_kept(tmp_path):
    rows = make_rows(300, seed=8)
    path = tmp_path / "order.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=64)
    got, _ = read_carc_rows(path, projection=("timestamp", "urlkey", "timestamp"))
    assert got == [(r[1], r[0], r[1]) for r in rows]


def test_scan_predicate_matches():
    rng = ScanPredicate.range("timestamp", 10, 20)
    assert [rng.matches(v) for v in (9, 10, 20, 21, None)] == [False, True, True, False, False]
    keys = [f"k{i}" for i in range(1000)]
    isin = ScanPredicate.isin("urlkey", keys)
    assert isin.values == tuple(keys)  # the planner iterates the tuple
    assert isin.matches("k999") and not isin.matches("k1000") and not isin.matches(None)


# (field of row group 0 or of its first chunk, value) written into a footer
# whose CRC is then recomputed; "schema" puts the value at the start of the
# schema text
HOSTILE_FOOTERS = [
    ("chunk_uncompressed_len", 2**62),
    ("chunk_uncompressed_len", 2**34),
    ("row_count", 2**40),
    ("row_count", 2**31),
    ("chunk_offset", 2**63 - 1),
    ("schema", b"\xff"),
]
HOSTILE_IDS = ["ulen62", "ulen34", "rows40", "rows31", "offset63", "schema_utf8"]


def write_hostile_footer(path, field, value):
    data = path.read_bytes()
    (footer_len,) = struct.unpack_from("<Q", data, len(data) - 12)
    start = len(data) - TRAILER_LEN - footer_len
    footer = _deserialize_footer(data[start : len(data) - TRAILER_LEN])
    group = footer.row_groups[0]
    if field == "row_count":
        group.row_count = value
    elif field != "schema":
        setattr(group.chunks[0], field, value)
    raw = _serialize_footer(footer)
    if field == "schema":
        raw = raw[:5] + value + raw[5 + len(value) :]  # after the tag and length
    path.write_bytes(data[:start] + raw + struct.pack("<IQ", zlib.crc32(raw), len(raw)) + MAGIC)


@pytest.mark.parametrize("field, value", HOSTILE_FOOTERS, ids=HOSTILE_IDS)
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_hostile_footers_are_typed(tmp_path, codec, field, value):
    path = tmp_path / "h.carc"
    write_carc(make_rows(50, seed=13), SCHEMA, path, rows_per_group=10, codec=codec)
    write_hostile_footer(path, field, value)
    with pytest.raises(ArchfmtError, match=re.escape(f"{path}@")):
        list(read_carc(path))


@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_mutation_fuzz_raises_only_typed_errors(tmp_path, codec):
    path = tmp_path / "f.carc"
    write_carc(make_rows(120, seed=31), SCHEMA, path, rows_per_group=16, codec=codec)
    data = path.read_bytes()
    bad = tmp_path / "bad.carc"
    rng = random.Random(2024)
    for _ in range(300):
        mutated = bytearray(data)
        at = rng.randrange(len(data))
        mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
        bad.write_bytes(bytes(mutated))
        try:
            for _ in read_carc(bad):
                pass
        except ArchfmtError as exc:
            assert str(exc).startswith(f"{bad}@")
