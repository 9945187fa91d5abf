import errno
import hashlib
import io
import itertools
import math
import random
import re
import struct
import threading
import time
import tracemalloc
import zlib

import pytest

from archfmt import carc, iostats
from archfmt.bench import modeled_ms
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
    read_footer,
    write_carc,
)
from archfmt.errors import (
    ArchfmtError,
    BadMagic,
    DecompressFailure,
    FooterCorrupt,
    SchemaMismatch,
    StatlessColumn,
    UnknownColumn,
    UnsortedInput,
)
from archfmt.iostats import IoTracker
from conftest import at_threads, written_at_one_and_two_threads

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
    assert list(read_carc(path)) == []


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
    m = IoTracker()
    rows = list(read_carc(path, projection=("timestamp",), tracker=m))
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
    m = IoTracker()
    rows = list(read_carc(path, pred=ScanPredicate.range("timestamp", 300, 400), tracker=m))
    assert rows == []
    chunk_total = sum(
        c.chunk_compressed_len for g in read_footer(path).row_groups for c in g.chunks
    )
    # Everything except the chunks and the leading magic.
    assert m.bytes_read == path.stat().st_size - chunk_total - len(MAGIC)


def test_set_predicate_matches_bruteforce(tmp_path):
    rows = make_rows(500, seed=2)
    key = rows[123][0]
    expected = [r for r in rows if r[0] == key]
    path = tmp_path / "s.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=64)
    got = list(read_carc(path, pred=ScanPredicate.isin("urlkey", [key])))
    assert got == expected


@pytest.mark.parametrize("rows_per_group", [1, 7, 4096])
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_roundtrip_all_options(tmp_path, rows_per_group, codec):
    rows = make_rows(300, seed=rows_per_group)
    path = tmp_path / f"rt{rows_per_group}{codec}.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=rows_per_group, codec=codec)
    assert list(read_carc(path)) == rows


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
        assert list(read_carc(path, pred=pred)) == oracle


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


def test_stats_tightness(tmp_path, monkeypatch):
    """The chunk stats derived from 16-row pages are the min/max of each
    group's values, and the chunks lie back to back from the leading magic
    to the footer."""
    monkeypatch.setattr(carc, "PAGE_ROWS", 16)
    rows = make_rows(1000, seed=8)
    path = tmp_path / "tight.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=128)
    footer = read_footer(path)
    assert {len(c.pages) for g in footer.row_groups[:-1] for c in g.chunks} == {8}
    start, offset = 0, len(MAGIC)
    for g in footer.row_groups:
        group_rows = rows[start : start + g.row_count]
        for ci, col in enumerate(SCHEMA.columns[:3]):
            held = [r[ci] for r in group_rows if r[ci] is not None]
            if col.ctype == "STRING":
                held = [v.encode() for v in held]  # test values are < 64 bytes
            c = g.chunks[ci]
            assert (c.min, c.max, c.null_count) == (min(held), max(held), len(group_rows) - len(held))
        for c in g.chunks:
            assert c.chunk_offset == offset
            offset += c.chunk_compressed_len
        start += g.row_count
    (footer_len,) = struct.unpack_from("<Q", path.read_bytes(), path.stat().st_size - 12)
    assert offset == path.stat().st_size - TRAILER_LEN - footer_len


def test_projection_monotonicity(tmp_path):
    path = tmp_path / "mono.carc"
    write_carc(make_rows(2000, seed=4), SCHEMA, path, rows_per_group=256)
    sizes = []
    for proj in [("timestamp",), ("timestamp", "urlkey"), None]:
        m = IoTracker()
        list(read_carc(path, projection=proj, tracker=m))
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
    bad.write_bytes(b"CARC")
    with pytest.raises(BadMagic, match=re.escape(f"{bad}@0: too small")):
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
    got = list(read_carc(path, projection=("timestamp", "urlkey", "timestamp")))
    assert got == [(r[1], r[0], r[1]) for r in rows]


def _detached(row):
    return tuple(bytes(v) if isinstance(v, memoryview) else v for v in row)


def _predicates(rows, rng):
    """Range and set predicates over rows: all rows, none, some, absent keys,
    and a set on a column that holds nulls."""
    stamps = sorted(r[1] for r in rows)
    lo = rng.choice(stamps)
    notes = [r[2] for r in rows if r[2] is not None]
    return [
        ScanPredicate.range("timestamp", stamps[0], stamps[-1]),
        ScanPredicate.range("timestamp", stamps[-1] + 1, stamps[-1] + 10),
        ScanPredicate.range("timestamp", lo, lo + 10**11),
        ScanPredicate.isin("urlkey", [r[0] for r in rng.sample(rows, 3)] + ["absent)/"]),
        ScanPredicate.isin("urlkey", ["absent)/"]),
        ScanPredicate.isin("note", rng.sample(notes, 5) + ["absent"]),
    ]


PROJECTIONS = [None, (), ("payload",), ("timestamp",), ("note", "urlkey"), ("payload", "timestamp", "payload")]


# (PAGE_ROWS, PAGE_BYTES): one page per chunk of the small test files, pages
# closed by their row count, and pages closed by their values' bytes
PAGE_SIZES = [(1024, 1 << 20), (3, 1 << 20), (1024, 64)]
PAGE_IDS = ["whole", "rows3", "bytes64"]


def set_pages(monkeypatch, page_rows, page_bytes):
    monkeypatch.setattr(carc, "PAGE_ROWS", page_rows)
    monkeypatch.setattr(carc, "PAGE_BYTES", page_bytes)


@pytest.mark.parametrize("pages", PAGE_SIZES, ids=PAGE_IDS)
@pytest.mark.parametrize("rows_per_group", [1, 7, 64])
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_predicate_read_equals_filtered_full_read(tmp_path, monkeypatch, rows_per_group, codec, pages):
    """read_carc(pred) is the brute-force filter of read_carc(), for every
    projection, with the predicate column projected or not, and repeated,
    whatever the pages."""
    set_pages(monkeypatch, *pages)
    rng = random.Random(rows_per_group * 2 + (codec == "gzip"))
    rows = make_rows(150, seed=rows_per_group)
    path = tmp_path / "p.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=rows_per_group, codec=codec)
    names = [c.name for c in SCHEMA.columns]
    for bytes_view in (False, True):
        full = list(read_carc(path, bytes_view=bytes_view))
        assert [_detached(r) for r in full] == rows
        assert all(isinstance(r[3], memoryview if bytes_view else bytes) for r in full)
        for pred in _predicates(rows, rng):
            key = names.index(pred.column)
            for proj in PROJECTIONS:
                idx = range(len(names)) if proj is None else [names.index(n) for n in proj]
                want = [tuple(r[i] for i in idx) for r in rows if pred.matches(r[key])]
                got = list(read_carc(path, projection=proj, pred=pred, bytes_view=bytes_view))
                assert [_detached(r) for r in got] == want, (pred, proj)


def chunk_bytes(footer):
    return sum(c.chunk_compressed_len for g in footer.row_groups for c in g.chunks)


@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_pages_read_no_more_than_one_page_chunks(tmp_path, monkeypatch, codec):
    """Every query on 8-row pages makes no more positioned reads than on the
    same rows written with one page per chunk, and without compression, where
    the chunks are the same bytes, reads no more of them; pruned pages read
    fewer."""
    rng = random.Random(17)
    rows = make_rows(400, seed=17, ts=sorted(rng.randint(0, 10**12) for _ in range(400)))
    paths = {}
    for name, page_rows in (("whole", 1024), ("paged", 8)):
        monkeypatch.setattr(carc, "PAGE_ROWS", page_rows)
        paths[name] = tmp_path / f"{name}.carc"
        write_carc(rows, SCHEMA, paths[name], rows_per_group=64, codec=codec, sort_key="timestamp")
    footers = {name: read_footer(path) for name, path in paths.items()}
    assert {len(c.pages) for g in footers["paged"].row_groups[:-1] for c in g.chunks} == {8}
    if codec == "none":
        assert chunk_bytes(footers["paged"]) == chunk_bytes(footers["whole"])
    fewer = 0
    for pred in [None] + _predicates(rows, rng):
        for proj in PROJECTIONS:
            cost = {}
            for name, path in paths.items():
                m = IoTracker()
                got = list(read_carc(path, projection=proj, pred=pred, tracker=m))
                footer_region = path.stat().st_size - len(MAGIC) - chunk_bytes(footers[name])
                cost[name] = (m.seek_count, m.bytes_read - footer_region, [_detached(r) for r in got])
            assert cost["paged"][2] == cost["whole"][2]
            assert cost["paged"][0] <= cost["whole"][0], (pred, proj)
            if codec == "none":
                assert cost["paged"][1] <= cost["whole"][1], (pred, proj)
                fewer += cost["paged"][1] < cost["whole"][1]
    assert codec == "gzip" or fewer > 0


def test_urlkey_lookup_inflates_one_page_per_projected_column(tmp_path, monkeypatch):
    monkeypatch.setattr(carc, "PAGE_ROWS", 16)
    rows = sorted(make_rows(500, seed=9))  # unique urlkeys, in order
    path = tmp_path / "k.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=200, sort_key="urlkey")
    inflated = []
    inflate = carc.inflate
    monkeypatch.setattr(carc, "inflate", lambda *args: inflated.append(args[1]) or inflate(*args))
    for i in (0, 137, 250, 499):
        for proj in (None, ("payload",), ("timestamp", "note"), ("urlkey",)):
            inflated.clear()
            m = IoTracker()
            got = list(read_carc(path, projection=proj, pred=ScanPredicate.isin("urlkey", [rows[i][0]]), tracker=m))
            assert got == [rows[i] if proj is None else tuple(rows[i][SCHEMA.index_of(n)] for n in proj)]
            columns = {"urlkey", *(proj or (c.name for c in SCHEMA.columns))}
            assert len(inflated) == len(columns), (i, proj)  # one page of each
            # trailer, footer, the predicate page, then the runs that the spans of row i's pages
            # of the other columns make: one, as the file is far smaller than the break-even
            footer = read_footer(path)
            g, row = footer.row_groups[i // 200], i % 200
            spans = []
            for name in columns - {"urlkey"}:
                c = g.chunks[SCHEMA.index_of(name)]
                at = list(itertools.accumulate((p.compressed_len for p in c.pages), initial=c.chunk_offset))
                pi = row // 16
                spans.append((at[pi], at[pi + 1]))
            runs = iostats.coalesce(spans, iostats.MERGE_GAP, iostats.RUN_BYTES)
            assert len(runs) == (len(columns) > 1)
            assert m.seek_count == 3 + len(runs)


def _reads_of(monkeypatch):
    """The list that collects every positioned read, as (offset, length read)."""
    reads = []
    pread = iostats.TrackedFile.pread
    monkeypatch.setattr(iostats.TrackedFile, "pread", lambda self, at, n: reads.append((at, n)) or pread(self, at, n))
    return reads


def _read_with_merging(monkeypatch, gap, cap, path, proj, pred, reads):
    """(rows, measurement, positioned reads) of read_carc with runs planned at gap and cap."""
    monkeypatch.setattr(carc, "MERGE_GAP", gap)
    monkeypatch.setattr(carc, "RUN_BYTES", cap)
    reads.clear()
    m = IoTracker()
    rows = [_detached(r) for r in read_carc(path, projection=proj, pred=pred, tracker=m)]
    return rows, m, list(reads)


@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_coalesced_reads_equal_a_read_per_span_and_never_cost_more(tmp_path, monkeypatch, codec):
    """Against a reader that reads each span alone (merging patched off), the
    rows are the same, and seeks and modeled cost are no higher.  Each read
    of a group's spans is one span, or spans joined across holes of at most
    the gap, no larger than the cap unless it is one span, inside one group."""
    rng = random.Random(5 + (codec == "gzip"))
    reads = _reads_of(monkeypatch)
    merged = 0
    for trial in range(40):
        set_pages(monkeypatch, rng.choice([3, 16, 1024]), rng.choice([64, 1 << 20]))
        rows = make_rows(rng.randint(12, 300), seed=trial)  # enough for _predicates to sample
        sort_key = rng.choice([None, "urlkey"])
        if sort_key:
            rows.sort()
        path = tmp_path / f"c{trial}.carc"
        write_carc(rows, SCHEMA, path, rows_per_group=rng.choice([1, 7, 64, 500]), codec=codec, sort_key=sort_key)
        groups = [(g.chunks[0].chunk_offset, g.chunks[-1].chunk_offset + g.chunks[-1].chunk_compressed_len)
                  for g in read_footer(path).row_groups]
        gap, cap = rng.choice([(iostats.MERGE_GAP, iostats.RUN_BYTES), (0, iostats.RUN_BYTES),
                               (rng.randint(1, 400), rng.randint(1, 3000))])
        for pred in [None] + _predicates(rows, rng):
            proj = rng.choice(PROJECTIONS)
            want, ref, per_span = _read_with_merging(monkeypatch, -1, cap, path, proj, pred, reads)
            got, m, runs = _read_with_merging(monkeypatch, gap, cap, path, proj, pred, reads)
            assert got == want, (trial, pred, proj)
            assert m.seek_count <= ref.seek_count
            assert modeled_ms(m) <= modeled_ms(ref)
            assert runs[:2] == per_span[:2]  # trailer and footer
            spans = iter(per_span[2:])
            for at, n in runs[2:]:  # each run is the spans it covers, taken in order
                inside = [next(spans)]
                while inside[-1][0] + inside[-1][1] < at + n:
                    inside.append(next(spans))
                assert inside[0][0] == at and inside[-1][0] + inside[-1][1] == at + n
                assert all(b[0] - (a[0] + a[1]) <= min(gap, iostats.MERGE_GAP) for a, b in zip(inside, inside[1:]))
                assert n <= cap or len(inside) == 1
                assert any(start <= at and at + n <= end for start, end in groups)
                merged += len(inside) > 1
            assert next(spans, None) is None
    assert merged > 0


@pytest.mark.parametrize("n", [1, 2])
def test_an_error_inside_a_merged_run_is_typed_and_located_as_in_a_read_per_span(tmp_path, monkeypatch, n):
    """A corrupted page inside a run, and a truncated file, raise the error
    class and file@offset a read per span raises, at 1 and 2 threads."""
    monkeypatch.setattr(carc, "PAGE_ROWS", 8)
    path = tmp_path / "r.carc"
    write_carc(make_rows(100, seed=23), SCHEMA, path, rows_per_group=50)
    footer = read_footer(path)
    reads = _reads_of(monkeypatch)
    data = path.read_bytes()
    note = footer.row_groups[1].chunks[SCHEMA.index_of("note")]
    cases = {  # a page of a column read inside a run, stored bytes flipped; the file cut short
        "page": bytes(b ^ 0xFF if i == note.chunk_offset + 3 else b for i, b in enumerate(data)),
        "truncated": data[: len(data) // 2],
    }
    bad = tmp_path / "bad.carc"
    for name, mutated in cases.items():
        bad.write_bytes(mutated)
        for pred in (None, ScanPredicate.range("timestamp", 0, 10**12)):
            errors = []
            for gap in (-1, iostats.MERGE_GAP):
                with at_threads(n):
                    with pytest.raises(ArchfmtError) as info:
                        _read_with_merging(monkeypatch, gap, iostats.RUN_BYTES, bad, None, pred, reads)
                errors.append((type(info.value), str(info.value), len(reads)))
            assert errors[0][:2] == errors[1][:2], (name, pred)
            assert errors[0][1].startswith(f"{bad}@")
            if name == "page":
                assert errors[0][0] is DecompressFailure and errors[1][2] < errors[0][2]  # fewer reads, same error


def test_pages_close_at_page_rows_or_page_bytes(tmp_path, monkeypatch):
    set_pages(monkeypatch, 6, 150)
    rows = make_rows(100, seed=3)
    path = tmp_path / "c.carc"
    write_carc(rows, SCHEMA, path, rows_per_group=40)
    start = 0
    for g in read_footer(path).row_groups:
        for ci, (col, c) in enumerate(zip(SCHEMA.columns, g.chunks)):
            values = [r[ci] for r in rows[start : start + g.row_count]]
            encoded = [v.encode() if isinstance(v, str) else v for v in values]
            cuts, count, size = [], 0, 0
            for v in encoded:
                count += 1
                size += 0 if v is None else 8 if col.ctype == "INT64" else 4 + len(v)
                if count == 6 or size >= 150:
                    cuts.append(count)
                    count = size = 0
            assert [p.row_count for p in c.pages] == cuts + [count] * (count > 0)
            first = 0
            for p in c.pages:
                held = [v for v in encoded[first : first + p.row_count] if v is not None]
                stats = (min(held), max(held)) if held and col.ctype != "BYTES" else (None, None)
                assert (p.min, p.max) == stats  # test values are shorter than STAT_TRUNCATE
                first += p.row_count
            held = [v for v in encoded if v is not None]
            assert (c.min, c.max) == ((min(held), max(held)) if held and col.ctype != "BYTES" else (None, None))
        start += g.row_count


def test_reading_a_column_holds_one_inflated_page(tmp_path, monkeypatch):
    """Memory of a read is bounded by the page size, not the chunk size."""
    rows = make_rows(400, seed=4)
    rows = [(r[0], r[1], r[2], (f"<p>row {i} of some markup " * 300).encode()) for i, r in enumerate(rows)]
    peaks = {}
    for name, page_bytes in (("whole", 1 << 30), ("paged", 64 * 1024)):
        monkeypatch.setattr(carc, "PAGE_BYTES", page_bytes)
        path = tmp_path / f"{name}.carc"
        write_carc(rows, SCHEMA, path, rows_per_group=400)
        raw = read_footer(path).row_groups[0].chunks[SCHEMA.index_of("payload")].chunk_uncompressed_len
        tracemalloc.start()
        try:
            assert sum(len(v) for (v,) in read_carc(path, projection=("payload",))) == sum(len(r[3]) for r in rows)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["whole"] > raw > 4 * peaks["paged"], (raw, peaks)


# --- parallel decode: carc.ordered_map ------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_ordered_map_keeps_order_reads_at_most_threads_units_ahead_and_raises_in_turn(n):
    pulled = []

    def units():
        for i in range(7):
            pulled.append(i)
            yield i
        raise DecompressFailure("f@99: the units end in an error")

    got = []
    with at_threads(n) as pool, pytest.raises(DecompressFailure, match="f@99"):
        for result in carc.ordered_map(lambda u: u * u, units(), lambda u: 1):
            assert len(pulled) <= len(got) + n  # the unit yielded and at most n - 1 after it
            got.append(result)
    assert got == [i * i for i in range(7)]  # every unit before the error was yielded
    assert pool.submitted == (3 if n == 2 else 0)  # units 1, 3 and 5: the second of each pair


def test_ordered_map_runs_units_under_the_gate_in_the_caller():
    gate = 128 << 10
    assert carc._INLINE_BYTES == gate
    for size, submitted in ((gate - 1, 0), (gate, 2)):
        with at_threads(2, gate) as pool:
            assert list(carc.ordered_map(str, range(5), lambda u: size)) == list("01234")
        assert pool.submitted == submitted, size


@pytest.mark.parametrize("n", [1, 2])
def test_ordered_map_error_of_a_unit_is_raised_in_its_turn(n):
    def fn(u):
        if u == 3:
            raise DecompressFailure(f"f@{u}: bad unit")
        return u

    got = []
    with at_threads(n), pytest.raises(DecompressFailure, match="f@3"):
        for result in carc.ordered_map(fn, range(6), lambda u: 1):
            got.append(result)
    assert got == [0, 1, 2]


def test_ordered_map_closed_early_does_not_wait_for_the_pool_unit():
    """A map closed early cancels the pool's unit, or leaves it to finish with
    its result dropped: a unit works on bytes already read."""
    release = threading.Event()

    def fn(u):
        if u == 1:  # the pool's unit, running until released
            release.wait(10)
        return u

    with at_threads(2) as pool:
        results = carc.ordered_map(fn, range(10), lambda u: 1)
        assert next(results) == 0
        began = time.monotonic()
        results.close()
        assert time.monotonic() - began < 5 and pool.submitted == 1
    release.set()
    assert carc._POOL.submit(int).result(timeout=10) == 0  # the pool is free again


def test_read_carc_closed_after_its_first_page_reads_no_more_at_two_threads(tmp_path, monkeypatch):
    """A reader closed early may have read one unit more than it yielded;
    read_carc reads each group's runs of wanted pages before any page is
    inflated, so it reads exactly what it reads at one thread."""
    monkeypatch.setattr(carc, "PAGE_ROWS", 8)
    path = tmp_path / "e.carc"
    write_carc(make_rows(100, seed=17), SCHEMA, path, rows_per_group=50)
    pages = read_footer(path).row_groups[0].chunks[0].pages
    assert len(pages) > 2
    io = {}
    for n in (1, 2):
        for pred in (None, ScanPredicate.range("timestamp", 0, 10**12)):
            with at_threads(n) as pool:
                tracker = IoTracker()
                reader = read_carc(path, pred=pred, tracker=tracker)
                for _ in range(pages[0].row_count):
                    next(reader)
                reader.close()
            io[n, pred is None] = tracker.bytes_read, tracker.seek_count
            assert pool.submitted >= (n - 1) * len(SCHEMA.columns)
    assert io[1, True] == io[2, True] and io[1, False] == io[2, False]


# --- parallel compress: the writers through carc.ordered_map -------------------

ONE_COLUMN = CarcSchema(columns=(Column("urlkey", "STRING", False),))


@pytest.mark.parametrize("case", ["groups", "one_column"])
def test_write_carc_is_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch, case):
    """Each page is compressed alone, so the file's bytes do not depend on
    the thread count; a one-column schema keeps one chunk per group."""
    monkeypatch.setattr(carc, "PAGE_ROWS", 8)
    rows = sorted(make_rows(300, seed=31), key=lambda r: r[1])
    schema, sort_key = SCHEMA, "timestamp"
    if case == "one_column":
        rows, schema, sort_key = [r[:1] for r in rows], ONE_COLUMN, None
    paths = {}

    def write(n):
        paths[n] = write_carc(rows, schema, tmp_path / f"{n}.carc", rows_per_group=64, sort_key=sort_key)
        return [paths[n]]

    digests, submitted = written_at_one_and_two_threads(write)
    assert digests[1] == digests[2] and submitted > 0
    footer = read_footer(paths[2])
    assert [g.row_count for g in footer.row_groups] == [64, 64, 64, 64, 44]
    assert all(len(g.chunks) == len(schema.columns) and len(g.chunks[0].pages) > 1 for g in footer.row_groups)
    if case == "groups":
        assert 0 < sum(c.null_count for g in footer.row_groups for c in g.chunks)  # the nullable note column
    assert list(read_carc(paths[2])) == [tuple(r) for r in rows]


@pytest.mark.parametrize("error", ["unsorted", "schema", "source"])
def test_write_carc_error_leaves_no_file_and_the_pool_free(tmp_path, monkeypatch, threads, error):
    """UnsortedInput and SchemaMismatch are raised at their row, and an error
    of the row source as raised, after earlier groups went through the pool;
    the partial file is removed."""
    monkeypatch.setattr(carc, "PAGE_ROWS", 8)
    rows, bad = make_rows(200, seed=5, ts=list(range(200))), 150
    if error == "unsorted":
        rows[bad] = (rows[bad][0], 0, *rows[bad][2:])
    elif error == "schema":
        rows[bad] = rows[bad][:3]

    def source():
        for i, row in enumerate(rows):
            if error == "source" and i == bad:
                raise RuntimeError("the row source failed")
            yield row

    path = tmp_path / "e.carc"
    expected = {"unsorted": UnsortedInput, "schema": SchemaMismatch, "source": RuntimeError}[error]
    with pytest.raises(expected) as exc:
        write_carc(source(), SCHEMA, path, rows_per_group=50, sort_key="timestamp")
    if error == "unsorted":
        assert exc.value.row_index == bad
    assert not path.exists()
    assert carc._POOL.submitted > 0 if threads == 2 else carc._POOL.submitted == 0
    assert carc._POOL.submit(int).result(timeout=10) == 0


class FullDisk(io.FileIO):
    """A file whose writes fail once its first bytes, the header, are written."""

    def write(self, b):
        if self.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


@pytest.mark.parametrize("writer", ["carc", "rarc"])
def test_a_write_failing_while_the_pool_compresses_returns_without_waiting(tmp_path, monkeypatch, writer):
    """The first unit's write fails while the pool still compresses the
    second: the writer removes its file and returns without waiting, and the
    pool is free once its unit ends."""
    from archfmt import rarc

    release = threading.Event()
    real = carc.compress

    def held(raw, codec, level):
        if threading.current_thread().name.startswith("archfmt-decode"):
            release.wait(10)
        return real(raw, codec, level)

    monkeypatch.setattr(carc, "compress", held)
    monkeypatch.setattr(rarc, "compress", held)
    monkeypatch.setattr(carc, "open", lambda path, mode: FullDisk(path, "w"), raising=False)
    path = tmp_path / f"f.{writer}"
    write = write_carc if writer == "carc" else lambda rows, schema, path: rarc.write_rarc(rows, schema, path, 10)
    with at_threads(2) as pool:
        began = time.monotonic()
        with pytest.raises(OSError, match="No space"):
            write(make_rows(100, seed=8), SCHEMA, path)
        assert time.monotonic() - began < 5 and pool.submitted == 1
    assert not path.exists()
    release.set()
    assert carc._POOL.submit(int).result(timeout=10) == 0


# A file of two rows (urlkey STRING, timestamp INT64; codec none) as the
# version-1 writer wrote it: its chunks are not paged, and its footer holds no
# version.
V1_FILE = bytes.fromhex(
    "434152430100030300000061292f0300000062292f030100000000000000020000000000"
    "0000011d00000075726c6b657920535452494e470a74696d657374616d7020494e543634"
    "026e00000001000000020000000000000006000000000000000f000000000000000f0000"
    "00000000000000000000000000020300000061292f020300000062292f15000000000000"
    "0011000000000000001100000000000000000000000000000001010000000000000001"
    "02000000000000000308000000020000000000000004000000000501000000008baca323"
    "ad0000000000000043415243"
)
# The same rows as the version-2 writer wrote them: paged chunks, and the
# version in the file head and in the footer.
V2_FILE = bytes.fromhex(
    "434152430200030300000061292f0300000062292f030100000000000000020000000000"
    "0000011d00000075726c6b657920535452494e470a74696d657374616d7020494e543634"
    "02c000000001000000020000000000000006000000000000000f000000000000000f0000"
    "00000000000000000000000000020300000061292f020300000062292f01000000020000"
    "000f000000000000000f00000000000000020300000061292f020300000062292f150000"
    "000000000011000000000000001100000000000000000000000000000001010000000000"
    "000001020000000000000001000000020000001100000000000000110000000000000001"
    "010000000000000001020000000000000003080000000200000000000000040000000005"
    "0100000000060200000002007a3ebffe060100000000000043415243"
)
# The same rows as the version-3 writer wrote them: each STRING page holds a
# length before each of its values.
V3_FILE = bytes.fromhex(
    "43415243030300000061292f0300000062292f0301000000000000000200000000000000"
    "011d00000075726c6b657920535452494e470a74696d657374616d7020494e5436340266"
    "00000001000000000000000000000001000000020000000f000000000000000f00000000"
    "000000020300000061292f020300000062292f0000000000000000010000000200000011"
    "000000000000001100000000000000010100000000000000010200000000000000040000"
    "00000501000000000602000000030048e010339f0000000000000043415243"
)
OLD_VERSIONS = [(1, V1_FILE), (2, V2_FILE), (3, V3_FILE)]
OLD_IDS = [f"v{version}" for version, _ in OLD_VERSIONS]


@pytest.mark.parametrize("version, data", OLD_VERSIONS, ids=OLD_IDS)
def test_older_version_file_is_bad_magic_naming_its_version(tmp_path, version, data):
    path = tmp_path / "old.carc"
    path.write_bytes(data)
    for read in (read_footer, lambda p: list(read_carc(p))):
        with pytest.raises(BadMagic, match=re.escape(f"{path}@") + f".*CARC version {version};"):
            read(path)


def test_group_without_a_match_reads_only_its_predicate_chunk(tmp_path):
    path = write_ts_groups(tmp_path, "n.carc", [(0, 99), (100, 199), (200, 299)])
    footer = read_footer(path)
    ts = footer.schema.index_of("timestamp")
    pred = ScanPredicate.range("timestamp", 10, 20)  # inside group 0's stats, between its rows 0, 49, 99
    assert plan_row_groups(footer, pred) == [0]
    m = IoTracker()
    assert list(read_carc(path, pred=pred, tracker=m)) == []
    chunk_total = sum(c.chunk_compressed_len for g in footer.row_groups for c in g.chunks)
    footer_bytes = path.stat().st_size - chunk_total - len(MAGIC)
    assert m.bytes_read == footer_bytes + footer.row_groups[0].chunks[ts].chunk_compressed_len
    assert m.seek_count == 2 + 1  # trailer, footer, one chunk


def with_bad_utf8(tmp_path, rows, writer, **opts):
    """rows written with codec none, then the stored note of row 5 (its
    first copy; a footer stat may hold another) overwritten by bytes of the
    same length that are not UTF-8."""
    path = tmp_path / "u.bin"
    writer(rows, SCHEMA, path, codec="none", **opts)
    note = rows[5][2].encode()
    path.write_bytes(path.read_bytes().replace(note, b"\xff" * len(note), 1))
    return path


def test_utf8_is_checked_only_on_values_returned(tmp_path):
    rows = make_rows(40, seed=41, ts=list(range(40)))
    rows[5] = (rows[5][0], rows[5][1], "note-5", rows[5][3])
    path = with_bad_utf8(tmp_path, rows, write_carc, rows_per_group=16)
    where = re.escape(f"{path}@")
    # the chunk is read and framed whole, but row 5's value is not returned
    skip5 = ScanPredicate.range("timestamp", 6, 39)
    assert list(read_carc(path, projection=("note",), pred=skip5)) == [(r[2],) for r in rows[6:]]
    assert list(read_carc(path, projection=("timestamp",))) == [(r[1],) for r in rows]
    for pred in (None, ScanPredicate.range("timestamp", 5, 5)):
        with pytest.raises(DecompressFailure, match=where):
            list(read_carc(path, projection=("note",), pred=pred))
    # a predicate column is decoded for every row of a planned group
    with pytest.raises(DecompressFailure, match=where):
        list(read_carc(path, projection=(), pred=ScanPredicate.isin("note", ["n7"])))


def test_scan_predicate_matches():
    rng = ScanPredicate.range("timestamp", 10, 20)
    assert [rng.matches(v) for v in (9, 10, 20, 21, None)] == [False, True, True, False, False]
    keys = [f"k{i}" for i in range(1000)]
    isin = ScanPredicate.isin("urlkey", keys)
    assert isin.values == tuple(keys)  # the planner iterates the tuple
    assert isin.matches("k999") and not isin.matches("k1000") and not isin.matches(None)


def test_scan_predicate_matching_is_matches_over_the_values():
    ints = [None, 3, 10, 20, 21, 15, 10, None, -4]
    texts = ["a", None, "b", "", "a", "\u00e9", "ab"]
    for pred, values in [
        (ScanPredicate.range("timestamp", 10, 20), ints),
        (ScanPredicate.isin("timestamp", [10, 21, None, "10"]), ints),
        (ScanPredicate.range("urlkey", "a", "b"), texts),
        (ScanPredicate.isin("urlkey", ["a", "", None, 3, b"b"]), texts),
        (ScanPredicate.isin("urlkey", []), texts),
    ]:
        assert pred.matching(values) == [i for i, v in enumerate(values) if pred.matches(v)]
    mixed = ScanPredicate.range("timestamp", 10, 20)
    with pytest.raises(SchemaMismatch) as first:
        mixed.matches("x")
    with pytest.raises(SchemaMismatch, match=re.escape(str(first.value))):
        mixed.matching([12, None, "x", b"y", 5])


def _decode_then_match(raw, col, row_count, pred):
    """What read_carc made of a predicate page before _match_page: every
    value decoded, then each tested with matches."""
    values = carc._decode_chunk(raw, col, row_count)
    rows = [i for i, v in enumerate(values) if pred.matches(v)]
    return rows, [values[i] for i in rows]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArchfmtError, struct.error, UnicodeDecodeError, IndexError) as exc:
        return type(exc), str(exc)


def _forged_lengths(raw, row_count, present, deltas):
    """raw with deltas[i] added to the i-th length of a STRING page."""
    at = (row_count + 7) // 8
    lengths = list(struct.unpack_from(f"<{present}I", raw, at))
    for i, delta in deltas.items():
        lengths[i] = max(lengths[i] + delta, 0)
    return raw[:at] + struct.pack(f"<{present}I", *lengths) + raw[at + 4 * present :]


@pytest.mark.parametrize("seed", range(4))
def test_predicate_page_kernel_equals_decode_then_matches(seed, monkeypatch):
    """_match_page gives and raises what decoding the page and testing each
    value did: with nulls, non-ASCII values, duplicate and absent keys, the
    empty key, keys inside or at the start of other values, more keys than
    _FIND_KEYS, a search stopped for its hits, and lengths forged to frame
    the page otherwise or not at all."""
    rng = random.Random(seed)
    found, find_rows, share = [], carc._find_rows, carc._FIND_SHARE  # found: what each search gave
    monkeypatch.setattr(carc, "_find_rows", lambda *args: found.append(find_rows(*args)) or found[-1])
    for _ in range(300):
        monkeypatch.setattr(carc, "_FIND_SHARE", rng.choice([1, 2, share]))
        n = rng.randint(1, 30)
        col = Column("urlkey", "STRING", rng.random() < 0.3)
        pool = ["".join(rng.choice("ab/") for _ in range(rng.randint(0, 4))) for _ in range(6)]
        if rng.random() < 0.2:
            pool.append("\u00e9" + pool[0])
        values = [None if col.nullable and rng.random() < 0.2 else rng.choice(pool) for _ in range(n)]
        raw = carc._encode_chunk(values, col)[0]
        present = sum(v is not None for v in values)
        if present > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(present), 2)
            raw = _forged_lengths(raw, n, present, rng.choice([{i: 1, j: -1}, {i: 1}, {i: -1}]))
        elif rng.random() < 0.05:
            raw = raw[: rng.randrange(len(raw))]
        candidates = pool + ["absent", "", "abab", "\u00e9", 3, None, b"a"] + [v[:1] for v in pool]
        candidates += ["".join(rng.choice("ab/") for _ in range(rng.randint(1, 6))) for _ in range(30)]
        k = rng.choice([0, 1, 2, 3, carc._FIND_KEYS, carc._FIND_KEYS + 1, 40])
        pred = ScanPredicate.isin("urlkey", rng.choices(candidates, k=k))
        keys = carc._ascii_keys(pred, col)
        got = _outcome(carc._match_page, raw, col, n, pred, keys)
        assert got == _outcome(_decode_then_match, raw, col, n, pred), (values, pred)
    assert None in found and any(found)


@pytest.mark.parametrize("nullable", [False, True])
def test_int_predicate_page_kernel_equals_decode_then_matches(nullable):
    rng = random.Random(nullable)
    col = Column("timestamp", "INT64", nullable)
    for _ in range(200):
        n = rng.randint(1, 30)
        values = [None if nullable and rng.random() < 0.2 else rng.randint(-50, 50) for _ in range(n)]
        raw = carc._encode_chunk(values, col)[0]
        if rng.random() < 0.1:
            raw = raw[:-1]
        lo = rng.randint(-60, 60)
        pred = rng.choice([
            ScanPredicate.range("timestamp", lo, lo + rng.randint(0, 40)),
            ScanPredicate.range("timestamp", str(lo), "z"),  # bounds that cannot compare with a value
            ScanPredicate.isin("timestamp", rng.choices(values + [99, "1"], k=3)),
        ])
        got = _outcome(carc._match_page, raw, col, n, pred, carc._ascii_keys(pred, col))
        assert got == _outcome(_decode_then_match, raw, col, n, pred), (values, pred)


def test_a_footer_is_decoded_once_per_distinct_bytes(tmp_path):
    """Reads of an unchanged file share one decoded footer; a file rewritten
    in place at the same size with another footer is decoded anew, and one
    whose footer is corrupted after a read is still FooterCorrupt."""
    carc._footer_of.cache_clear()

    def decoded():
        return carc._footer_of.cache_info().misses

    path = tmp_path / "m.carc"
    rows = make_rows(40, seed=5)
    write_carc(rows, SCHEMA, path, rows_per_group=16, codec="none")
    pred = ScanPredicate.isin("urlkey", [rows[7][0]])
    assert list(read_carc(path)) == rows
    assert list(read_carc(path, pred=pred)) == [r for r in rows if r[0] == rows[7][0]]
    assert decoded() == 1
    size = path.stat().st_size
    other = [(r[0].replace("com", "org"), *r[1:]) for r in rows]  # other stats, the same lengths
    write_carc(other, SCHEMA, path, rows_per_group=16, codec="none")
    assert path.stat().st_size == size
    assert list(read_carc(path)) == other and decoded() == 2
    data = bytearray(path.read_bytes())
    data[-TRAILER_LEN - 3] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@") + ".*CRC"):
        list(read_carc(path))
    assert decoded() == 2


def test_a_changed_read_footer_result_does_not_change_a_read(tmp_path):
    """read_footer decodes a footer of its own each call: stripping the stats
    of the one it returned leaves the plan of a later read as it was."""
    carc._footer_of.cache_clear()
    path = tmp_path / "own.carc"
    rows = make_rows(64, seed=6)
    write_carc(rows, SCHEMA, path, rows_per_group=16, codec="none")
    pred = ScanPredicate.isin("urlkey", [rows[40][0]])
    want = [r for r in rows if r[0] == rows[40][0]]
    assert list(read_carc(path, pred=pred)) == want
    footer = read_footer(path)
    assert footer is not read_footer(path)
    ki = SCHEMA.index_of("urlkey")
    for g in footer.row_groups:
        g.chunks[ki].min = g.chunks[ki].max = b"\xff"  # stats that no key falls under: every group pruned
        g.chunks[ki].pages[:] = []
    assert list(read_carc(path, pred=pred)) == want
    assert read_footer(path) != footer


# (field, value) written into the footer of a file, whose CRC is then
# recomputed.  The field is one of row group 0's first chunk, or with
# "page_", of that chunk's first page, or with "mid_page_", of its middle
# page; it takes value, or value(its value) when value is callable.
# "schema" puts value at the start of the schema text, and "groups" appends
# it to the row groups field.
HOSTILE_FOOTERS = [
    ("schema", b"\xff"),
    ("groups", b"\x00"),
    ("page_compressed_len", 2**40),
    ("page_compressed_len", 0),
    ("page_uncompressed_len", 2**62),
    ("page_row_count", 0),
    ("page_row_count", 2**31),
    ("page_row_count", lambda n: n + 1),
    ("mid_page_compressed_len", lambda n: n + 1),
    ("mid_page_compressed_len", lambda n: n - 1),
]
HOSTILE_IDS = [
    "schema_utf8", "groups+1byte", "page_clen40", "page_clen0", "page_ulen62",
    "page_rows0", "page_rows31", "page_rows+1", "mid_page_clen+1", "mid_page_clen-1",
]


def write_hostile_footer(path, field, value, column=0):
    data = path.read_bytes()
    (footer_len,) = struct.unpack_from("<Q", data, len(data) - 12)
    start = len(data) - TRAILER_LEN - footer_len
    footer = _deserialize_footer(data[start : len(data) - TRAILER_LEN], start)
    chunk = footer.row_groups[0].chunks[column]
    forge = value if callable(value) else lambda _: value
    if "page_" in field:
        pi = len(chunk.pages) // 2 if field.startswith("mid_") else 0
        name = field.split("page_")[1]
        chunk.pages[pi] = chunk.pages[pi]._replace(**{name: forge(getattr(chunk.pages[pi], name))})
    elif field not in ("schema", "groups"):
        setattr(chunk, field, forge(getattr(chunk, field)))
    raw = _serialize_footer(footer)
    if field == "schema":
        raw = raw[:5] + value + raw[5 + len(value) :]  # after the tag and length
    elif field == "groups":
        at = 5 + len(footer.schema.to_text())  # the groups field's tag, after the schema's
        (n,) = struct.unpack_from("<I", raw, at + 1)
        raw = raw[: at + 1] + struct.pack("<I", n + len(value)) + raw[at + 5 : at + 5 + n] + value + raw[at + 5 + n :]
    path.write_bytes(data[:start] + raw + struct.pack("<IQ", zlib.crc32(raw), len(raw)) + MAGIC)


FUZZ_PREDICATES = [
    None,
    ScanPredicate.range("timestamp", 0, 5 * 10**11),
    ScanPredicate.isin("urlkey", [f"com,site{i})/p/{i}" for i in range(0, 120, 9)]),
    ScanPredicate.isin("urlkey", [row[0] for row in make_rows(120, seed=31)[::5]]),  # more than _FIND_KEYS
]


@pytest.mark.parametrize("field, value", HOSTILE_FOOTERS, ids=HOSTILE_IDS)
@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_hostile_footers_are_typed(tmp_path, monkeypatch, codec, field, value):
    monkeypatch.setattr(carc, "PAGE_ROWS", 4)  # pages of 4, 4 and 2 rows
    path = tmp_path / "h.carc"
    write_carc(make_rows(50, seed=13), SCHEMA, path, rows_per_group=10, codec=codec)
    assert [p.row_count for p in read_footer(path).row_groups[0].chunks[0].pages] == [4, 4, 2]
    write_hostile_footer(path, field, value)
    for pred in FUZZ_PREDICATES:
        with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@")):
            list(read_carc(path, pred=pred))


@pytest.mark.parametrize("codec", ["none", "gzip"])
def test_mutation_fuzz_raises_only_typed_errors(tmp_path, monkeypatch, codec, threads):
    monkeypatch.setattr(carc, "PAGE_ROWS", 5)
    monkeypatch.setattr(carc, "PAGE_BYTES", 200)
    path = tmp_path / "f.carc"
    write_carc(make_rows(120, seed=31), SCHEMA, path, rows_per_group=16, codec=codec)
    assert all(len(c.pages) > 1 for g in read_footer(path).row_groups[:-1] for c in g.chunks)
    data = path.read_bytes()
    bad = tmp_path / "bad.carc"
    rng = random.Random(2024)
    for _ in range(300):
        mutated = bytearray(data)
        at = rng.randrange(len(data))
        mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
        bad.write_bytes(bytes(mutated))
        for pred in FUZZ_PREDICATES:
            try:
                for _ in read_carc(bad, pred=pred):
                    pass
            except ArchfmtError as exc:
                assert str(exc).startswith(f"{bad}@")


@pytest.mark.parametrize("field", ["page_min", "page_max"])
@pytest.mark.parametrize(
    "column, stat",
    [("timestamp", b"\x00" * 8), ("urlkey", 7), ("payload", b"x"), ("payload", 3)],
)
def test_footer_stat_of_wrong_type_is_footer_corrupt(tmp_path, column, stat, field):
    path = tmp_path / "s.carc"
    write_carc(make_rows(50, seed=13), SCHEMA, path, rows_per_group=10)
    write_hostile_footer(path, field, stat, column=SCHEMA.index_of(column))
    pred = ScanPredicate.range("timestamp", 0, 10**12)
    with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@")):
        list(read_carc(path, pred=pred))


@pytest.mark.parametrize("kind", [3, 7, 255])
def test_footer_scalar_of_unknown_kind_is_footer_corrupt(tmp_path, kind):
    """A page min/max scalar is kind 0 (none), 1 (INT64) or 2 (bytes): a
    footer forged with another kind and a CRC to match does not read."""
    path = tmp_path / "k.carc"
    write_carc(make_rows(50, seed=13), SCHEMA, path, rows_per_group=10)
    data = path.read_bytes()
    (footer_len,) = struct.unpack_from("<Q", data, len(data) - 12)
    start = len(data) - TRAILER_LEN - footer_len
    raw = data[start : len(data) - TRAILER_LEN]
    stat = read_footer(path).row_groups[0].chunks[SCHEMA.index_of("urlkey")].pages[0].min
    scalar = b"\x02" + struct.pack("<I", len(stat)) + stat
    assert raw.count(scalar) >= 1
    raw = raw.replace(scalar, bytes([kind]) + scalar[1:], 1)
    path.write_bytes(data[:start] + raw + struct.pack("<IQ", zlib.crc32(raw), len(raw)) + MAGIC)
    with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@{start}: ") + ".*kind"):
        read_footer(path)


@pytest.mark.parametrize("column", ["urlkey", "note"])
def test_footer_null_count_that_would_hide_a_group_is_footer_corrupt(tmp_path, column):
    """A chunk claimed to hold nulls only, in a non-nullable column or beside
    its own min/max, is rejected: the planner would skip its group."""
    path = tmp_path / "n.carc"
    rows = make_rows(50, seed=13)
    write_carc(rows, SCHEMA, path, rows_per_group=10)
    ci = SCHEMA.index_of(column)
    key = next(r[ci] for r in rows[:10] if r[ci] is not None)
    assert list(read_carc(path, pred=ScanPredicate.isin(column, [key]))) == [r for r in rows if r[ci] == key]
    write_hostile_footer(path, "null_count", 10, column=ci)
    with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@")):
        list(read_carc(path, pred=ScanPredicate.isin(column, [key])))


def test_columns_of_a_group_must_hold_the_same_rows(tmp_path):
    """A page of a nullable column claimed one row longer would read as a
    null past the group's rows, which shifts the column against the others."""
    path = tmp_path / "r.carc"
    rows = make_rows(200, seed=5)
    write_carc(rows, SCHEMA, path, rows_per_group=64)
    assert list(read_carc(path)) == rows and read_footer(path).total_rows == 200
    write_hostile_footer(path, "page_row_count", lambda n: n + 1, column=SCHEMA.index_of("note"))
    with pytest.raises(FooterCorrupt, match=re.escape(f"{path}@") + ".*columns of row group 0 hold"):
        list(read_carc(path))


def first_page(path, column):
    """(offset, raw bytes) of the first page of column in row group 0 of a
    file written with codec none."""
    c = read_footer(path).row_groups[0].chunks[SCHEMA.index_of(column)]
    data = path.read_bytes()
    return c.chunk_offset, data[c.chunk_offset : c.chunk_offset + c.pages[0].compressed_len]


def patch_length(i, forge):
    """A page fault: the length of present value i forged."""
    def patch(page):
        at = 1 + 4 * i  # after the one-byte bitmap of the test pages
        (n,) = struct.unpack_from("<I", page, at)
        struct.pack_into("<I", page, at, forge(n))
    return patch


def fill_bitmap(page):
    page[0] = 0x3F  # all six rows present


# (column, page fault).  The payload page of the six rows holds values of
# 0 to 5 bytes; the note page holds nulls only, so it is its bitmap alone.
PAGE_FAULTS = [
    ("payload", patch_length(5, lambda n: n + 1)),  # the lengths sum one byte past the page end
    ("payload", patch_length(0, lambda n: 2**32 - 1)),  # ... 4 GiB past it, which sizes nothing
    ("payload", patch_length(5, lambda n: n - 1)),  # a byte is left after the last value
    ("note", fill_bitmap),  # six present values need 24 length bytes; the page holds none
]
PAGE_FAULT_IDS = ["sum_past_end", "sum_4gib_past_end", "byte_after_values", "bitmap_needs_lengths"]


@pytest.mark.parametrize("column, fault", PAGE_FAULTS, ids=PAGE_FAULT_IDS)
def test_page_that_its_lengths_do_not_frame_is_located_decompress_failure(tmp_path, column, fault):
    rows = [(f"com,a)/{i}", i, None, b"v" * i) for i in range(6)]
    path = tmp_path / "pf.carc"
    write_carc(rows, SCHEMA, path, codec="none")
    assert list(read_carc(path)) == rows
    offset, page = first_page(path, column)
    forged = bytearray(page)
    fault(forged)
    data = path.read_bytes()
    path.write_bytes(data[:offset] + forged + data[offset + len(page) :])
    for proj in (None, (column,)):
        with pytest.raises(DecompressFailure, match=re.escape(f"{path}@{offset}: ")):
            list(read_carc(path, projection=proj))
    assert list(read_carc(path, projection=("timestamp",))) == [(r[1],) for r in rows]


# Rows with nulls, non-ASCII STRINGs and empty BYTES, and the SHA-256 of the
# file they make at default options and with codec none.  A change of the
# layout changes these hashes: it must bump VERSION and add the old layout to
# OLD_VERSIONS.  The default file is deflated, so its hash also pins zlib's
# output; it is asserted under the zlib it was taken with.
GOLDEN_ROWS = [
    ("com,example)/", 1_500_000_000_000, "note", b"\x00\xff"),
    ("com,example)/caf\u00e9", -1, None, b""),
    ("org,\u4f8b)/\u30da\u30fc\u30b8", 2**63 - 1, "\u00fcber \U0001f600", b""),
    ("org,zz)/", -(2**63), None, b"payload " * 40),
]
GOLDEN_SHA256 = {
    "none": "3aadbbeef72525990933c9f75e5db421cff5bcd486d0a8e8e5b305ab54a61335",
    "default": "0243b35146fbed2c86e9d509d91d6f9490afe0d39558991d3dccb020bccba030",
}
GOLDEN_ZLIB = "1.2.13"


@pytest.mark.parametrize("opts", ["default", "none"])
def test_golden_bytes(tmp_path, opts):
    path = tmp_path / "golden.carc"
    write_carc(GOLDEN_ROWS, SCHEMA, path, **({"codec": "none"} if opts == "none" else {}))
    assert list(read_carc(path)) == GOLDEN_ROWS
    if opts == "default" and zlib.ZLIB_RUNTIME_VERSION != GOLDEN_ZLIB:
        return
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[opts]
