import calendar
import random
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from archfmt import cdx as cdx_mod
from archfmt.carc import ScanPredicate
from archfmt.cdx import (
    CDX_HEADER,
    CdxEntry,
    build_cdx,
    canonicalize_url,
    iter_fetch_records,
    parse_cdx,
    parse_timestamp14,
    timestamp14_of,
)
from archfmt.errors import BadCdxLine, BadDate, BadFieldCount, BadOffset, NotAbsoluteUrl
from archfmt.iostats import IoTracker
from archfmt.warc import make_record, scan_warc, write_warc

from conftest import request_record, synth_records


def test_canonicalize_basic():
    assert canonicalize_url("http://example.com/") == "com,example)/"


def test_canonicalize_full_rule_set():
    assert (
        canonicalize_url("https://Www.Example.COM:443/About?b=2&a=1#x")
        == "com,example)/about?a=1&b=2"
    )


def test_canonicalize_relative_url_rejected():
    with pytest.raises(NotAbsoluteUrl):
        canonicalize_url("about/me")


def test_canonicalize_randomized_determinism_and_shape():
    rng = random.Random(5)
    tlds = ["com", "org", "net", "io"]
    for _ in range(1200):
        labels = [rng.choice("abcdef") * rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        host = ".".join(labels + [rng.choice(tlds)])
        www = "www." if rng.random() < 0.5 else ""
        path = "/" + "/".join(rng.choice("xyz") for _ in range(rng.randint(0, 3)))
        params = [f"{rng.choice('pq')}={rng.randint(0, 9)}" for _ in range(rng.randint(0, 3))]
        query = "?" + "&".join(params) if params else ""
        frag = "#f" if rng.random() < 0.3 else ""
        scheme = rng.choice(["http", "https"])
        url = f"{scheme}://{www}{host.upper() if rng.random() < 0.5 else host}{path}{query}{frag}"
        key = canonicalize_url(url)
        assert key == canonicalize_url(url)  # deterministic
        assert key == key.lower()
        assert "#" not in key and "://" not in key
        host_part, _, _ = key.partition(")")
        assert host_part.split(",") == list(reversed(host.lower().split(".")))
        if params:
            qs = key.partition("?")[2].split("&")
            assert qs == sorted(qs)


def test_timestamp14_epoch():
    assert timestamp14_of(0) == "19700101000000"


def test_timestamp14_known_instant():
    epoch_ms = int(
        datetime(2006, 9, 19, 17, 20, 24, tzinfo=timezone.utc).timestamp() * 1000
    )
    assert timestamp14_of(epoch_ms) == "20060919172024"


def test_parse_timestamp14_against_calendar_oracle():
    assert parse_timestamp14("20060919172024") == (
        calendar.timegm((2006, 9, 19, 17, 20, 24)) * 1000
    )
    assert parse_timestamp14("20060919172024") == 1158686424000


def test_timestamp14_roundtrip_property():
    rng = random.Random(9)
    lo = -30610224000  # 1000-01-01 in seconds
    hi = 253402300799  # 9999-12-31T23:59:59
    for _ in range(1500):
        t = rng.randint(lo, hi) * 1000
        s = timestamp14_of(t)
        assert len(s) == 14 and s.isdigit()
        assert parse_timestamp14(s) == t
    # sub-second instants floor to their second, before 1970 too
    assert timestamp14_of(1500) == timestamp14_of(1000)
    assert timestamp14_of(-1) == "19691231235959"
    assert timestamp14_of(-1500) == "19691231235958"


def test_timestamp14_rejects_bad_input():
    for bad in ["2006", "200609191720xx", "20061319172024", "00990101000000"]:
        with pytest.raises(BadDate):
            parse_timestamp14(bad)


def test_build_cdx_empty_list(tmp_path):
    out = tmp_path / "empty.cdx"
    assert build_cdx([], out) == 0
    assert out.read_text() == CDX_HEADER + "\n"


def test_build_cdx_counts_responses_only(tmp_path):
    records = synth_records(2)
    records.insert(1, request_record(0))
    path = tmp_path / "mix.warc"
    write_warc(records, path, mode="plain")
    assert build_cdx([path], tmp_path / "mix.cdx") == 2


def test_build_cdx_globally_sorted_across_files(tmp_path):
    a = tmp_path / "a.warc"
    b = tmp_path / "b.warc"
    write_warc(synth_records(10, seed=1), a, mode="plain")
    write_warc(synth_records(10, seed=2), b, mode="plain")
    out = tmp_path / "both.cdx"
    build_cdx([a, b], out)
    lines = out.read_text().splitlines()[1:]
    keys = [(ln.split(" ")[0], ln.split(" ")[1]) for ln in lines]
    assert keys == sorted(keys)
    assert lines == sorted(lines[:])  # byte order agrees on the joint key prefix


def test_parse_cdx_roundtrip(corpus):
    entries = list(parse_cdx(corpus["paths"].cdx))
    assert len(entries) == corpus["spec"].record_count
    # Rebuilding from parsed entries is byte-exact.
    rebuilt = CDX_HEADER + "\n" + "".join(e.to_line() + "\n" for e in entries)
    with open(corpus["paths"].cdx, encoding="utf-8") as fh:
        assert fh.read() == rebuilt


def test_parse_cdx_eight_fields(tmp_path):
    bad = tmp_path / "bad.cdx"
    bad.write_text(" CDX N b a m s k S V g\na b c d e f 1 2\n")
    with pytest.raises(BadFieldCount) as exc:
        list(parse_cdx(bad))
    assert exc.value.line_no == 2


def test_parse_cdx_header_skipped(tmp_path):
    p = tmp_path / "h.cdx"
    p.write_text(" CDX N b a m s k S V g\n")
    assert list(parse_cdx(p)) == []


def test_fetch_records_empty():
    m = IoTracker()
    assert list(iter_fetch_records([], [], m)) == [] and m.seek_count == 0


def test_fetch_records_matches_scan(tmp_path):
    path = tmp_path / "ten.warc.gz"
    write_warc(synth_records(10, seed=4), path, mode="member_gzip")
    cdx_path = tmp_path / "ten.cdx"
    build_cdx([path], cdx_path)
    entries = list(parse_cdx(cdx_path))
    m = IoTracker()
    records = [r for r, _ in iter_fetch_records(entries, [path], m)]
    # the ten records are stored back to back: one positioned read fetches them all
    assert (m.seek_count, m.open_count, m.bytes_read) == (1, 1, path.stat().st_size)
    assert [r.record_id for r in records] == [r.record_id for r, _ in scan_warc(path)]
    m = IoTracker()
    apart = [r for r, _ in iter_fetch_records(entries, [path], m, coalesce=False)]
    assert (m.seek_count, m.open_count, m.bytes_read) == (10, 1, path.stat().st_size)
    assert [r.record_id for r in apart] == [r.record_id for r in records]


@pytest.mark.parametrize("cap", [1, 2500, 6000, 1 << 30])
def test_fetches_merge_adjacent_records_in_file_order_up_to_a_cap(tmp_path, monkeypatch, cap):
    monkeypatch.setattr(cdx_mod, "_FETCH_BYTES", cap)
    a, b = tmp_path / "a.warc.gz", tmp_path / "b.warc"
    write_warc(synth_records(12, seed=5), a, mode="member_gzip")
    write_warc(synth_records(9, seed=6), b)
    cdx_path = tmp_path / "ab.cdx"
    build_cdx([b, a], cdx_path)
    entries = list(parse_cdx(cdx_path))
    rng = random.Random(cap)
    picked = rng.sample(entries, 15)
    m = IoTracker()
    got = [(loc.file, loc.offset, r.record_id) for r, loc in iter_fetch_records(picked, [a, b], m)]
    want = sorted((str(a if e.filename == a.name else b), e.offset) for e in picked)
    assert [g[:2] for g in got] == want  # file order, whatever the order of the lines
    by_place = {(str(loc.file), loc.offset): r.record_id for f in (a, b) for r, loc in scan_warc(f)}
    assert [g[2] for g in got] == [by_place[w] for w in want]
    runs, run_bytes = 0, 0  # reads of back-to-back extents, none over cap unless one record is
    order = sorted(picked, key=lambda e: (e.filename, e.offset))
    for prev, e in zip([None] + order, order):
        if prev and prev.filename == e.filename and prev.offset + prev.stored_length == e.offset \
                and run_bytes + e.stored_length <= cap:
            run_bytes += e.stored_length
        else:
            runs, run_bytes = runs + 1, e.stored_length
    assert m.seek_count == runs and m.bytes_read == sum(e.stored_length for e in picked)
    assert m.open_count == len({e.filename for e in picked})
    if cap == 1:
        assert runs == len(picked)


def test_fetch_records_bad_offset(tmp_path):
    path = tmp_path / "one.warc.gz"
    write_warc(synth_records(1), path, mode="member_gzip")
    cdx_path = tmp_path / "one.cdx"
    build_cdx([path], cdx_path)
    [entry] = parse_cdx(cdx_path)
    import dataclasses

    shifted = dataclasses.replace(entry, offset=entry.offset + 1)
    with pytest.raises(BadOffset):
        list(iter_fetch_records([shifted], [path]))


def test_index_completeness(corpus):
    paths = corpus["paths"]
    scan_ids = []
    for f in paths.warc_files:
        scan_ids.extend(r.record_id for r, _ in scan_warc(f) if r.record_type == "response")
    entries = list(parse_cdx(paths.cdx))
    fetched = [r for r, _ in iter_fetch_records(entries, paths.warc_files)]
    assert sorted(r.record_id for r in fetched) == sorted(scan_ids)


def test_cdx_timestamp_has_milliseconds_only_when_nonzero():
    assert parse_timestamp14("20180521080000500") == 1526889600500
    assert parse_timestamp14("20180521080000") == 1526889600000
    rng = random.Random(17)
    stamps = [rng.randint(-30610224000000, 253402300799999) for _ in range(1500)]
    stamps += [-500, -1000, 0, 1, 999, 1000, 1526889600500]
    texts = []
    for ms in stamps:
        text = CdxEntry("k", ms, "u", "", -1, "D", 1, 0, "f").timestamp14
        assert len(text) == (14 if ms % 1000 == 0 else 17) and text.isdigit()
        assert text[:14] == timestamp14_of(ms - ms % 1000)
        assert parse_timestamp14(text) == ms
        texts.append(text)
    # mixed 14/17-digit text sorts as the values do
    assert sorted(texts) == [t for _, t in sorted(zip(stamps, texts))]


def test_build_cdx_sub_second_lines_sort_and_round_trip(tmp_path):
    dates = ["2018-05-21T08:00:01Z", "2018-05-21T08:00:00.500Z", "2018-05-21T08:00:00Z",
             "2018-05-21T08:00:00.05Z"]
    records = [
        make_record(f"<urn:uuid:00000000-0000-4000-c000-00000000000{i}>", "response",
                    "http://same.example/", date, "application/http; msgtype=response",
                    b"HTTP/1.1 200 OK\r\n\r\n" + date.encode())
        for i, date in enumerate(dates)
    ]
    path = tmp_path / "sub.warc"
    write_warc(records, path, mode="plain")
    out = tmp_path / "sub.cdx"
    build_cdx([path], out)
    lines = out.read_text().splitlines()[1:]
    assert [ln.split(" ")[1] for ln in lines] == [
        "20180521080000", "20180521080000050", "20180521080000500", "20180521080001"
    ]
    assert lines == sorted(lines)
    entries = list(parse_cdx(out))
    assert [e.timestamp for e in entries] == [1526889600000, 1526889600050, 1526889600500, 1526889601000]
    assert [e.to_line() for e in entries] == lines


def test_cdx_status_decoder_matches_http_split(tmp_path):
    p = tmp_path / "s.cdx"
    statuses = ["200", "²00", "20", "2000", "-", "000", "+20"]
    p.write_text(
        CDX_HEADER + "\n"
        + "".join(f"com,a)/ 20180521080000 http://a.com/ - {s} D 10 0 a.warc\n" for s in statuses),
        encoding="utf-8",
    )
    assert [e.status for e in parse_cdx(p)] == [200, -1, -1, -1, -1, 0, -1]
    assert [e.mime for e in parse_cdx(p)] == [""] * len(statuses)


@pytest.mark.parametrize(
    "line",
    [
        b"a 2018052108000 u m 200 D 1 2 f",  # 13-digit timestamp
        b"a 20180521080000 u m 200 D 1 x f",  # offset not a number
        b"a 20180521080000 u m 200 D 1 \xd9\xa3 f",  # non-ASCII digit
        b"a 20180521080000 u m 200 D 1 2 \xff",  # not UTF-8
    ],
)
def test_parse_cdx_bad_line_is_typed(tmp_path, line):
    p = tmp_path / "bad.cdx"
    p.write_bytes(CDX_HEADER.encode() + b"\n" + line + b"\n")
    with pytest.raises(BadCdxLine, match=re.escape(f"{p}:2: ")) as exc:
        list(parse_cdx(p))
    assert exc.value.line_no == 2


@pytest.mark.parametrize("stored_length", [10**15, 2**63])
def test_fetch_records_length_past_end_is_bad_offset(tmp_path, stored_length):
    import dataclasses

    path = tmp_path / "one.warc.gz"
    write_warc(synth_records(1), path, mode="member_gzip")
    build_cdx([path], tmp_path / "one.cdx")
    [entry] = parse_cdx(tmp_path / "one.cdx")
    with pytest.raises(BadOffset, match=re.escape(f"{path}@0: ")):
        list(iter_fetch_records([dataclasses.replace(entry, stored_length=stored_length)], [path]))


def test_fetch_of_a_line_whose_timestamp_differs_is_bad_offset(tmp_path):
    import dataclasses

    path = tmp_path / "one.warc"
    write_warc(synth_records(1), path)
    build_cdx([path], tmp_path / "one.cdx")
    [entry] = parse_cdx(tmp_path / "one.cdx")
    with pytest.raises(BadOffset, match=re.escape(f"{path}@0: not the record of the CDX line ")):
        list(iter_fetch_records([dataclasses.replace(entry, timestamp=entry.timestamp + 1)], [path]))


# --- predicate scans and the line walker ---------------------------------------

def _write_cdx(path, entries, newline="\n"):
    lines = [CDX_HEADER] + [e.to_line() for e in entries]
    path.write_bytes("".join(ln + newline for ln in lines).encode("utf-8"))


def _mixed_entries(rng, keys, n):
    """Entries over the given urlkeys with 14- and 17-digit stamps, pre-1970
    ones included, sorted as build_cdx sorts."""
    stamps = [rng.randint(-2_000_000_000_000, 2_000_000_000_000) for _ in range(n // 2)]
    stamps += [rng.randint(-10_000, 10_000) * 1000 + rng.choice([0, 0, 1, 500, 999]) for _ in range(n - n // 2)]
    entries = [
        CdxEntry(rng.choice(keys), ms, f"http://u{i}.example/a b%", rng.choice(["", "text/html"]),
                 rng.choice([-1, 200]), f"D{i}", rng.randint(1, 999), i * 1000, "f.warc.gz")
        for i, ms in enumerate(stamps)
    ]
    return sorted(entries, key=lambda e: (e.urlkey, e.timestamp))


def test_predicate_scan_equals_filtered_full_scan(tmp_path):
    rng = random.Random(77)
    keys = ["", "com,a)/", "com,a)/x%20y", "com,a)/x y", "com,a)/a%25b", "com,a)/%", "org,b)/q?x=1"]
    path = tmp_path / "mixed.cdx"
    low, high = -30610224000001, 253402300800000  # 1 ms outside the years 1000-9999
    entries = _mixed_entries(rng, keys, 300)
    entries += [CdxEntry("zz)/", ms, "u", "", -1, "D", 1, 0, "f") for ms in (low + 1, high - 1)]
    _write_cdx(path, entries)
    stamps = sorted({e.timestamp for e in entries})
    assert {len(e.timestamp14) for e in entries} == {14, 17} and stamps[0] < 0
    preds = [ScanPredicate.isin("urlkey", rng.sample(keys + ["absent)/", "com,a)/x%2520y"], k))
             for k in (0, 1, 2, 4, 9)]
    for _ in range(40):
        a, b = sorted(rng.sample(stamps, 2))
        preds.append(ScanPredicate.range("timestamp", a + rng.choice([-1, 0, 1]), b + rng.choice([-1, 0, 1])))
    preds += [ScanPredicate.range("timestamp", lo, hi) for lo, hi in
              [(low, high), (low, stamps[1]), (stamps[-2], high), (low - 5, low), (high, high + 5),
               (-10**18, 10**18), (stamps[5], stamps[4])]]
    for pred in preds:
        expected = [e for e in parse_cdx(path) if pred.matches(getattr(e, pred.column))]
        assert list(parse_cdx(path, pred)) == expected, pred
    assert list(parse_cdx(path, ScanPredicate.range("timestamp", low, high))) == entries


def test_escaped_fields_round_trip(tmp_path):
    values = ["a%20b", "a b", "%25", "%", " %2", "100%% %%20"]
    entries = [CdxEntry(v, 0, v, v, 200, v, 1, 0, v) for v in values]
    path = tmp_path / "esc.cdx"
    _write_cdx(path, entries)
    assert list(parse_cdx(path)) == entries
    assert path.read_text().splitlines()[1].count(" ") == 8


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_line_walker_across_chunk_boundaries(tmp_path, monkeypatch, chunk, newline):
    monkeypatch.setattr(cdx_mod, "_READ_CHUNK", chunk)
    entries = _mixed_entries(random.Random(chunk), ["com,a)/", "com,a)/x\ry", "com,b)/"], 12)
    assert any(e.urlkey == "com,a)/x\ry" for e in entries)  # a lone \r inside a field
    path = tmp_path / "w.cdx"
    _write_cdx(path, entries, newline)
    urlkey = ScanPredicate.isin("urlkey", ["com,a)/x\ry"])
    stamps = sorted(e.timestamp for e in entries)
    window = ScanPredicate.range("timestamp", stamps[3], stamps[8])
    for _ in ("line end after the last line", "none"):
        for pred in (None, urlkey, window):
            expected = [e for e in entries if pred is None or pred.matches(getattr(e, pred.column))]
            assert list(parse_cdx(path, pred)) == expected
        path.write_bytes(path.read_bytes()[: -len(newline)])
    _write_cdx(path, [], newline)  # the header alone
    assert list(parse_cdx(path)) == [] == list(parse_cdx(path, urlkey))
    path.write_bytes(b"")
    assert list(parse_cdx(path)) == [] == list(parse_cdx(path, window))


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_bad_line_number_with_and_without_predicate(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cdx_mod, "_READ_CHUNK", chunk)
    good = "com,a)/ 20180521080000 http://a.com/ - 200 D 10 0 a.warc"
    cases = {
        "com,z)/ 20180521080000 u - 200 D 10 0": BadFieldCount,  # 8 fields
        "com,z)/ 20180521080000 u - 200 D 10 0 f g": BadFieldCount,  # 10 fields
        "com,z)/ 2018052108000 u - 200 D 10 0 f": BadCdxLine,  # 13-digit stamp
        "com,z)/ 201805210800000 u - 200 D 10 0 f": BadCdxLine,  # 15-digit stamp
    }
    hit = ScanPredicate.isin("urlkey", ["com,z)/"])
    nowhere = ScanPredicate.isin("urlkey", ["absent)/"])
    never = ScanPredicate.range("timestamp", 0, 1)
    for bad, error in cases.items():
        path = tmp_path / "bad.cdx"
        path.write_text(f"{CDX_HEADER}\r\n{good}\n{good}\n{bad}\n{good}\n", encoding="utf-8")
        preds = [None, hit, never] + ([nowhere] if error is BadFieldCount else [])
        for pred in preds:
            with pytest.raises(error, match=re.escape(f"{path}:4: ")) as exc:
                list(parse_cdx(path, pred))
            assert exc.value.line_no == 4


def _parsed(path, pred):
    """parse_cdx's entries for pred, or its error: class, message, line and offset."""
    try:
        return list(parse_cdx(path, pred))
    except BadCdxLine as exc:
        return type(exc), str(exc), exc.line_no, exc.offset


@pytest.mark.parametrize("chunk", [1, 64, 700])
def test_window_reads_tested_in_batch_equal_the_per_line_loop(tmp_path, monkeypatch, chunk):
    """A time window tests the lines of each read in a batch, and tests them
    one by one where a line fails a check or is skipped: the entries, or the
    error with its line and offset, are those of testing every line alone."""
    monkeypatch.setattr(cdx_mod, "_READ_CHUNK", chunk)
    rng = random.Random(chunk)
    lines = [e.to_line() for e in _mixed_entries(rng, ["com,a)/", "com,b)/"], 60)]
    odd = {  # lines the batch must not take as they are
        "header": CDX_HEADER, "empty": "", "cr": "\r",
        "8 fields": "com,z)/ 20180521080000 u - 200 D 10 0",
        "10 fields": "com,z)/ 20180521080000 u - 200 D 10 0 f g",
        "13-digit stamp": "com,z)/ 2018052108000 u - 200 D 10 0 f",
        "letter in stamp": "com,z)/ 2018052108000x u - 200 D 10 0 f",
        "non-ASCII digit": "com,z)/ 2018052108000\uff10 u - 200 D 10 0 f",
        "header-like": " CDX a b c d e f g h",
        "bad length": "com,z)/ 20180521080000 u - 200 D 1x 0 f",  # fails only once decoded
        "cr inside": "com,z)/ 20180521080000 u\rv - 200 D 10 0 f",
    }
    windows = [ScanPredicate.range("timestamp", -10**15, 10**15), ScanPredicate.range("timestamp", 0, 1)]
    stamps = sorted(parse_timestamp14(line.split(" ")[1]) for line in lines)
    windows += [ScanPredicate.range("timestamp", stamps[i], stamps[i + 9]) for i in (0, 25, 50)]
    batched = []
    window_rows = cdx_mod._window_rows
    monkeypatch.setattr(cdx_mod, "_window_rows", lambda *args: batched.append(window_rows(*args)) or batched[-1])
    path = tmp_path / "b.cdx"
    for name, line in [("none", None), *odd.items()]:
        for newline in ("\n", "\r\n"):
            body = [CDX_HEADER] + lines
            if line is not None:
                body.insert(rng.randrange(1, len(body) + 1), line)
            path.write_bytes("".join(ln + newline for ln in body).encode("utf-8"))
            for window in windows:
                got = _parsed(path, window)
                with monkeypatch.context() as m:
                    m.setattr(cdx_mod, "_window_rows", lambda *args: None)
                    assert got == _parsed(path, window), (name, newline, window)
    assert any(rows is not None for rows in batched) and None in batched


def test_predicate_scan_decodes_other_fields_only_on_matching_lines(tmp_path):
    path = tmp_path / "skip.cdx"
    path.write_text(
        "com,a)/ 20180521080000 http://a.com/ - 200 D 10 0 a.warc\n"
        "com,b)/ 20190521080000 http://b.com/ - 200 D x 0 a.warc\n",  # bad length
        encoding="utf-8",
    )
    [entry] = parse_cdx(path, ScanPredicate.isin("urlkey", ["com,a)/"]))
    assert entry.urlkey == "com,a)/"
    assert list(parse_cdx(path, ScanPredicate.range("timestamp", 0, 1527000000000))) == [entry]
    for pred in (None, ScanPredicate.isin("urlkey", ["com,b)/"])):
        with pytest.raises(BadCdxLine, match=re.escape(f"{path}:2: ")):
            list(parse_cdx(path, pred))


def test_mutation_fuzz_raises_only_located_errors(tmp_path):
    path = tmp_path / "f.warc"
    write_warc(synth_records(12, seed=6), path, mode="plain")
    good = tmp_path / "f.cdx"
    build_cdx([path], good)
    data = good.read_bytes()
    entries = list(parse_cdx(good))
    stamps = sorted(e.timestamp for e in entries)
    preds = [None, ScanPredicate.isin("urlkey", [entries[3].urlkey, entries[7].urlkey]),
             ScanPredicate.range("timestamp", stamps[2], stamps[9])]
    bad = tmp_path / "bad.cdx"
    rng = random.Random(2025)
    for i in range(300):
        if i % 4:
            mutated = bytearray(data)
            at = rng.randrange(len(data))
            mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
            bad.write_bytes(bytes(mutated))
        else:
            bad.write_bytes(data[: rng.randrange(len(data))])
        for pred in preds:
            try:
                list(parse_cdx(bad, pred))
            except BadCdxLine as exc:
                assert str(exc).startswith(f"{bad}:{exc.line_no}: ")


# --- line breaks in fields, bare file names -------------------------------------

def test_line_breaks_in_fields_are_escaped_and_round_trip(tmp_path):
    values = ["text/html\nx-a: b", "a\rb", "\r\n", "%0A literal", "%0D%20%25", "x\n%0A\r%0D"]
    entries = [CdxEntry(f"com,a)/{i}", 1526889600000 + i, f"http://a.com/{v}", v, 200, "D", 1, i, "f")
               for i, v in enumerate(values)]
    path = tmp_path / "breaks.cdx"
    _write_cdx(path, entries)
    text = path.read_bytes()
    assert text.count(b"\n") == len(entries) + 1 and b"\r" not in text
    assert list(parse_cdx(path)) == entries
    pred = ScanPredicate.isin("urlkey", (entries[2].urlkey,))
    assert list(parse_cdx(path, pred)) == [entries[2]]


@pytest.mark.parametrize("name", ["/abs/x.warc", "a/b.warc", "..", ".", ""])
def test_cdx_filename_must_be_a_bare_file_name(tmp_path, name):
    p = tmp_path / "names.cdx"
    p.write_text(f"{CDX_HEADER}\ncom,a)/ 20180521080000 http://a.com/ - 200 D 10 0 {name}\n", encoding="utf-8")
    with pytest.raises(BadCdxLine, match=re.escape(f"{p}:2: ")):
        list(parse_cdx(p))


def test_warc_cdx_serves_no_record_named_outside_the_dataset(tmp_path):
    from archfmt.query import DatasetPaths, QuerySpec, run_query

    (tmp_path / "inside").mkdir()
    (tmp_path / "outside").mkdir()
    inside, outside = tmp_path / "inside" / "in.warc", tmp_path / "outside" / "out.warc"
    write_warc(synth_records(2, seed=1), inside)
    write_warc(synth_records(2, seed=2), outside)
    build_cdx([outside], tmp_path / "i.cdx")
    text = (tmp_path / "i.cdx").read_text().replace(" out.warc\n", f" {outside}\n")
    (tmp_path / "i.cdx").write_text(text)
    paths = DatasetPaths(warc_files=(str(inside),), cdx=str(tmp_path / "i.cdx"))
    with pytest.raises(BadCdxLine):
        run_query(QuerySpec(kind="records"), "warc_cdx", paths)



# --- the summary: a urlkey lookup reads the blocks that can hold its keys ------

def _summary_corpus(rng, n=240):
    """Entries over urlkeys that need escapes, the empty one, and one key
    with captures enough to span blocks, sorted as build_cdx sorts."""
    keys = ["", "com,a)/", "com,a)/x%20y", "com,a)/x y", "com,a)/a%25b", "com,a)/%", "org,b)/q?x=1"]
    keys += [f"net,k{i:03d})/" for i in range(40)]
    entries = _mixed_entries(rng, keys, n)
    entries += [CdxEntry("net,k020)/many", 1526889600000 + i, "u", "", -1, "D", 1, i, "f") for i in range(70)]
    return sorted(entries, key=lambda e: (e.urlkey, e.timestamp))


def _lookup(path, keys, tracker=None):
    return list(parse_cdx(path, ScanPredicate.isin("urlkey", keys), tracker))


@pytest.mark.parametrize("lines", [1, 3, 64])
def test_summary_reads_equal_whole_file_reads(tmp_path, monkeypatch, lines):
    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", lines)
    rng = random.Random(lines)
    entries = _summary_corpus(rng)
    path = tmp_path / "s.cdx"
    cdx_mod._write_index(entries, path)
    summary = tmp_path / "s.cdx.idx"
    assert len(summary.read_bytes().splitlines()) == 1 + -(-len(entries) // lines)
    keys = sorted({e.urlkey for e in entries})
    spanning = "net,k020)/many"
    assert sum(e.urlkey == spanning for e in entries) > 64  # its captures cross a block boundary
    queries = [[k] for k in keys] + [["\x00"], ["~~~"], ["com,a)/x"], ["net,k020)/man"], ["net,k020)/manz"]]
    queries += [rng.sample(keys + ["absent)/", "zzz)/"], rng.randint(1, 50)) for _ in range(30)]
    size = path.stat().st_size
    for q in queries:
        expected = [e for e in entries if e.urlkey in set(q)]
        tracker = IoTracker()
        assert _lookup(path, q, tracker) == expected, q
        if len(q) == 1 and lines < 64:
            assert tracker.bytes_read < size and tracker.open_count <= 2 and tracker.seek_count <= 2
    rows = [line.split(b" ") for line in summary.read_bytes().splitlines()[1:]]
    fields, bounds = [f for f, _ in rows], [int(at) for _, at in rows] + [size]
    firsts = [cdx_mod._unescape(f.decode()) for f in fields]
    # two keys far apart, with blocks a byte apart read in runs of their own: per run one
    # seek, the byte before it, its blocks, and the first urlkey field and a space after it
    monkeypatch.setattr(cdx_mod, "_MERGE_GAP", 1)
    q = [keys[1], keys[-1]]
    runs: list[list[int]] = []
    for i in range(len(fields)):  # the blocks from the last whose first key is below a key to the last not above it
        if any(firsts[i] <= k and (i + 1 == len(fields) or k <= firsts[i + 1]) for k in q):
            if runs and runs[-1][-1] == i - 1:
                runs[-1].append(i)
            else:
                runs.append([i])
    assert len(runs) >= 2
    run_bytes = [(bounds[r[0]] > 0) + bounds[r[-1] + 1] - bounds[r[0]]
                 + (len(fields[r[-1] + 1]) + 1 if r[-1] + 1 < len(fields) else 0) for r in runs]
    tracker = IoTracker()
    assert _lookup(path, q, tracker) == [e for e in entries if e.urlkey in q]
    assert (tracker.bytes_read, tracker.seek_count, tracker.open_count) == (
        summary.stat().st_size + sum(run_bytes), 1 + len(runs), 2)
    # a block to read larger than _FETCH_BYTES is not held whole: the lookup reads the whole file
    big = max(range(len(fields)), key=lambda i: bounds[i + 1] - bounds[i])
    q = [firsts[big]]
    for cap, whole in ((bounds[big + 1] - bounds[big], False), (bounds[big + 1] - bounds[big] - 1, True)):
        monkeypatch.setattr(cdx_mod, "_FETCH_BYTES", cap)
        tracker = IoTracker()
        assert _lookup(path, q, tracker) == [e for e in entries if e.urlkey in q]
        assert (tracker.bytes_read == summary.stat().st_size + size) == whole and tracker.seek_count == 2
    summary.unlink()  # the same answers from the whole file
    assert all(_lookup(path, q) == [e for e in entries if e.urlkey in set(q)] for q in queries)


def test_summary_of_an_empty_cdx_and_of_a_time_range(tmp_path):
    path = tmp_path / "e.cdx"
    cdx_mod._write_index([], path)
    assert (tmp_path / "e.cdx.idx").read_bytes() == b" CDX-SUMMARY 23\n"
    tracker = IoTracker()
    assert _lookup(path, ["com,a)/"], tracker) == []
    assert (tracker.bytes_read, tracker.seek_count, tracker.open_count) == (16 + 23, 2, 2)  # no block: the whole file
    entries = _summary_corpus(random.Random(4))
    cdx_mod._write_index(entries, path)
    tracker = IoTracker()
    window = ScanPredicate.range("timestamp", -10**15, 10**15)
    assert list(parse_cdx(path, window, tracker)) == [e for e in entries if window.matches(e.timestamp)]
    assert (tracker.bytes_read, tracker.seek_count, tracker.open_count) == (path.stat().st_size, 1, 1)


def _stale_cases(data: bytes, starts: list[int]) -> dict:
    lines = data.split(b"\n")
    at = starts[2]  # the first line of the third block: one letter of its urlkey changed
    edited = bytearray(data)
    edited[at + 4] = ord("b") if data[at + 4] != ord("b") else ord("c")
    return {
        "appended": data + lines[-2] + b"\n",
        "truncated": data[:-40],
        "a line removed": b"\n".join(lines[:5] + lines[6:]),
        "a block's first line edited": bytes(edited),
    }


def test_a_stale_summary_is_a_located_error(tmp_path, monkeypatch, capsys):
    from archfmt.cli import main
    from archfmt.errors import BadSummary

    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", 8)
    entries = sorted((CdxEntry(f"com,k{i:03d})/", 1526889600000 + i, f"http://k{i}.com/", "", 200, "D", 1, i, "f")
                      for i in range(60)), key=lambda e: (e.urlkey, e.timestamp))
    path = tmp_path / "st.cdx"
    cdx_mod._write_index(entries, path)
    data = path.read_bytes()
    starts = [int(line.split(b" ")[1]) for line in (tmp_path / "st.cdx.idx").read_bytes().splitlines()[1:]]
    urls = tmp_path / "urls.txt"
    urls.write_text("http://k016.com/\n")  # the urlkey com,k016)/
    for case, stale in _stale_cases(data, starts).items():
        path.write_bytes(stale)
        with pytest.raises(BadSummary, match=rf"^{re.escape(str(path))}(\.idx)?@\d+: ") as exc:
            _lookup(path, ["com,k016)/"])
        where = (str(path), starts[2]) if case.startswith("a block") else (f"{path}.idx", 0)
        assert (exc.value.file, exc.value.offset) == where, case
        capsys.readouterr()
        assert main(["query", "meta", "--backend", "warc_cdx", "--cdx", str(path), "--warc", str(tmp_path / "f"),
                     "--url-file", str(urls)]) == 2
        assert "error: " in capsys.readouterr().err


def test_a_summary_is_decoded_once_per_distinct_bytes(tmp_path):
    """Lookups in an unchanged CDX share one decoded summary, read and
    size-checked each time; a summary changed after a lookup is checked anew."""
    from archfmt.errors import BadSummary

    cdx_mod._summary_blocks.cache_clear()
    entries = _summary_corpus(random.Random(4))
    path = tmp_path / "m.cdx"
    cdx_mod._write_index(entries, path)
    key = entries[100].urlkey
    want = [e for e in entries if e.urlkey == key]
    trackers = [IoTracker(), IoTracker()]
    assert _lookup(path, [key], trackers[0]) == want == _lookup(path, [key], trackers[1])
    io = [(t.bytes_read, t.seek_count, t.open_count) for t in trackers]
    assert io[0] == io[1]
    info = cdx_mod._summary_blocks.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    summary = tmp_path / "m.cdx.idx"
    data = summary.read_bytes()
    head, body = data.split(b"\n", 1)
    summary.write_bytes(head[:-1] + b"%d" % ((head[-1] - 47) % 10) + b"\n" + body)  # another CDX size, same length
    with pytest.raises(BadSummary, match=re.escape(f"{summary}@")):
        _lookup(path, [key])


def test_a_block_read_starts_a_line_and_its_lines_are_in_order(tmp_path, monkeypatch):
    from archfmt.errors import BadSummary

    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", 1)
    entries = [CdxEntry(k, 1526889600000, "u", "", 200, "D", 1, 0, "f") for k in ("a)/", "xb)/", "z)/")]
    path = tmp_path / "o.cdx"
    cdx_mod._write_index(entries, path)
    summary = tmp_path / "o.cdx.idx"
    at = int(summary.read_bytes().splitlines()[2].split(b" ")[1])
    # the second block moved one byte into its line, where the bytes read "b)/ " and a line of nine fields
    summary.write_bytes(summary.read_bytes().replace(b"xb)/ %d\n" % at, b"b)/ %d\n" % (at + 1)))
    with pytest.raises(BadSummary, match=re.escape(f"{path}@{at + 1}: no CDX line starts here")):
        _lookup(path, ["c)/"])
    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", 8)
    entries = [CdxEntry(f"com,k{i:03d})/", 1526889600000, "u", "", 200, "D", 1, i, "f") for i in range(40)]
    cdx_mod._write_index(entries, path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"com,k010)/", b"com,k030)/"))  # a line inside the second block, same size
    with pytest.raises(BadCdxLine, match=rf"^{re.escape(str(path))}@{data.index(b'com,k011)/')}: not in .* order"):
        _lookup(path, ["com,k011)/"])
    # the last line a lookup of com,k011)/ reads, whose order no line after it shows, with a key not UTF-8
    path.write_bytes(data.replace(b"com,k015)/", b"com,k01\xff)/"))
    with pytest.raises(BadCdxLine, match=rf"^{re.escape(str(path))}@{data.index(b'com,k015)/')}: 'utf-8' codec"):
        _lookup(path, ["com,k011)/"])
    # two captures of one key, their timestamps swapped in place: in urlkey order, not in time order
    entries = [CdxEntry(f"com,a{i:02d})/", 1526889600000, "u", "", 200, "D", 1, i, "f") for i in range(16)]
    entries += [CdxEntry("com,k)/", 1526889700000 + 1000 * i, "u", "", 200, "D", 1, i, "f") for i in range(8)]
    entries += [CdxEntry(f"com,z{i:02d})/", 1526889600000, "u", "", 200, "D", 1, i, "f") for i in range(16)]
    cdx_mod._write_index(entries, path)
    a, b = entries[18].timestamp14.encode(), entries[21].timestamp14.encode()
    path.write_bytes(path.read_bytes().replace(a, b"#" * len(a)).replace(b, a).replace(b"#" * len(a), b))
    with pytest.raises(BadCdxLine, match="not in .* order"):
        _lookup(path, ["com,k)/"])
    # a list that needs every block reads the file whole, as it would without a summary
    keys = [e.urlkey for e in entries]
    tracker = IoTracker()
    assert _lookup(path, keys, tracker) == [e for e in parse_cdx(path) if e.urlkey in keys]
    assert tracker.bytes_read == path.stat().st_size + summary.stat().st_size and tracker.seek_count == 2


def _write_summarized(path, lines, block_lines, newline="\n"):
    """Write the header and the CDX lines, and a summary of them in blocks of
    block_lines lines, as _write_index does: each block keyed by the first
    field of its first line, the first block starting at 0."""
    data = (CDX_HEADER + newline).encode()
    blocks = []
    for i, ln in enumerate(lines):
        if i % block_lines == 0:
            blocks.append(b"%s %d\n" % (ln.encode("utf-8").split(b" ")[0], len(data) if i else 0))
        data += (ln + newline).encode("utf-8")
    path.write_bytes(data)
    Path(cdx_mod.summary_path(path)).write_bytes(b"%s%d\n%s" % (cdx_mod.SUMMARY_HEADER, len(data), b"".join(blocks)))


def _looked_up(path, keys):
    """_lookup's entries, or its error: class, message, line and offset."""
    from archfmt.errors import BadSummary

    try:
        return _lookup(path, keys)
    except (BadCdxLine, BadSummary) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), exc.offset


def _edit_line(lines, at, case):
    """Apply one case to the CDX lines (header left out) at index at, so that
    lines at and at + 1 stay in order unless the case breaks it."""
    key, stamp, *rest = lines[at].split(" ")
    if case == "equal pair":
        lines.insert(at, lines[at])
    elif case == "out of order":
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    elif case == "stamp below its padding":  # in raw order after line at, not once padded to 17 digits
        other = stamp + "!!!" if len(stamp) == 14 else stamp[:14]
        lines.insert(at + 1, " ".join([key, other, *rest]))
    elif case == "8 fields":
        lines[at] = lines[at].rsplit(" ", 1)[0]
    elif case == "10 fields":
        lines[at] += " g"
    elif case == "bad length":  # fails only once decoded
        lines[at] = " ".join([key, stamp, *rest[:-3], "1x", *rest[-2:]])
    elif case == "bad stamp":
        lines[at] = " ".join([key, stamp[:-1] + "x", *rest])
    elif case in ("tab in key", "control byte in key", "non-ASCII key"):  # the last line of its key
        while at + 1 < len(lines) and lines[at + 1].split(" ")[0] == key:
            at += 1
        end = {"tab in key": "\t", "control byte in key": "\x01", "non-ASCII key": "\u00e9"}[case]
        lines[at] = lines[at].replace(" ", end + " ", 1)
    elif case == "header-like":  # after the lines of the empty key, in order but for the header skip
        lines.insert(sum(ln.startswith(" ") for ln in lines), " CDX12345678901 a b c d e f g")


def test_summary_blocks_checked_in_batch_equal_the_per_line_loop(tmp_path, monkeypatch):
    """A lookup checks a plain summary block in one batch (_summary_rows), and
    every other block line by line: the entries, or the error with its
    class, line and offset, are those of checking every line alone."""
    rng = random.Random(31)
    plain = [f"com,k{i:02d})/" for i in range(12)]
    escaped = ["com,k03)/x%20y", "com,k05)/a b", "com,k07)/%", "org,z)/q?x=1", ""]
    cases = ["random", "equal pair", "out of order", "stamp below its padding", "8 fields", "10 fields",
             "bad length", "bad stamp", "tab in key", "control byte in key", "non-ASCII key", "header-like"]
    batched = []
    summary_rows = cdx_mod._summary_rows
    monkeypatch.setattr(cdx_mod, "_summary_rows", lambda *args: batched.append(summary_rows(*args)) or batched[-1])
    path = tmp_path / "s.cdx"
    for case in cases:
        for trial in range(4):
            # plain keys or escaped ones too; stamps of 14 digits, 17, or mixed
            pool = plain if trial < 2 else plain + escaped
            ms = [[0], [1, 500, 999], [0], [0, 0, 1, 999]][trial]
            entries = [CdxEntry(rng.choice(pool), rng.randint(0, 2 * 10**9) * 1000 + rng.choice(ms), f"http://u{i}/",
                                "", 200, f"D{i}", 10, i, "f") for i in range(rng.randint(30, 90))]
            entries.sort(key=lambda e: (e.urlkey, e.timestamp))
            near = set()
            if case == "header-like":  # lines of the empty key, enough to fill a block past the first
                entries[:0] = [CdxEntry("", 1526889600000 + 1000 * i, "u", "", 200, "D", 10, i, "f") for i in range(6)]
                near.add("")
            lines = [e.to_line() for e in entries]
            at = rng.randrange(len(lines) - 1)
            near.update(ln.split(" ")[0] for ln in lines[max(at - 1, 0) : at + 3])
            _edit_line(lines, at, case)
            keyed = sorted(cdx_mod._unescape(k) for k in near)
            queries = [[k] for k in keyed] + [keyed, rng.sample(pool, 3), ["absent)/"]]
            for block_lines in (4, 16):
                for newline in ("\n", "\r\n"):
                    _write_summarized(path, lines, block_lines, newline)
                    for q in queries:
                        got = _looked_up(path, q)
                        with monkeypatch.context() as m:
                            m.setattr(cdx_mod, "_summary_rows", lambda *args: None)
                            assert got == _looked_up(path, q), (case, trial, block_lines, newline, q)
                        if case == "random":
                            assert got == [e for e in entries if e.urlkey in q]
    assert any(rows is not None for rows in batched) and None in batched


def test_summary_fuzz_fails_only_with_located_errors(tmp_path, monkeypatch):
    """Whatever a mutated or truncated summary says, a lookup answers as the
    whole file does or fails with an error that names file@offset."""
    from archfmt.errors import ArchfmtError

    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", 3)
    entries = _summary_corpus(random.Random(8), n=60)
    path = tmp_path / "z.cdx"
    cdx_mod._write_index(entries, path)
    summary = tmp_path / "z.cdx.idx"
    good = summary.read_bytes()
    keys = sorted({e.urlkey for e in entries})
    rng = random.Random(2026)
    queries = [[k] for k in rng.sample(keys, 8)] + [["absent)/"], rng.sample(keys, 5), keys]
    located = re.compile(rf"^({re.escape(str(path))}|{re.escape(str(summary))})@\d+: ")
    outcomes = set()
    for i in range(400):
        if i % 4:
            mutated = bytearray(good)
            for _ in range(rng.choice([1, 1, 2])):
                at = rng.randrange(len(good))
                mutated[at] = rng.choice([(mutated[at] + rng.randrange(1, 256)) % 256, ord(rng.choice("0189 \n,a"))])
            summary.write_bytes(bytes(mutated))
        else:
            summary.write_bytes(good[: rng.randrange(len(good))])
        for q in queries:
            try:
                got = _lookup(path, q)
            except ArchfmtError as exc:
                assert located.match(str(exc)), str(exc)
                outcomes.add(type(exc).__name__)
            else:
                assert got == [e for e in entries if e.urlkey in set(q)], (i, q)
                outcomes.add("answer")
    assert {"answer", "BadSummary"} <= outcomes


def test_cdx_fuzz_beside_a_good_summary_fails_only_with_located_errors(tmp_path, monkeypatch):
    """Whatever a CDX changed in place beside its good summary holds, a
    lookup answers as a whole-file read does of the CDX with only the
    changes that lie in what the lookup read (the summary cannot see a
    same-size edit of a block it does not read), or fails with an error that
    names where.  A truncated CDX fails as the summary records its size."""
    from archfmt.errors import ArchfmtError, BadSummary

    monkeypatch.setattr(cdx_mod, "SUMMARY_LINES", 3)
    monkeypatch.setattr(cdx_mod, "_MERGE_GAP", 64)  # so that a list of keys reads in several runs
    entries = _summary_corpus(random.Random(9), n=60)
    path, plain = tmp_path / "m.cdx", tmp_path / "plain.cdx"  # plain has no summary: a whole-file read
    cdx_mod._write_index(entries, path)
    good = path.read_bytes()
    keys = sorted({e.urlkey for e in entries})
    rng = random.Random(2027)
    queries = [[k] for k in rng.sample(keys, 8)] + [["absent)/"], rng.sample(keys, 3), rng.sample(keys, 6)]
    spans = []  # the bytes of the CDX a lookup read through the summary, as [start, end) ranges
    block_lines = cdx_mod._block_lines

    def spy(fh, file, bounds, fields, runs):
        for first, last in runs:
            after = len(fields[last + 1]) + 1 if last + 1 < len(fields) else 0
            spans.append((bounds[first] - 1, bounds[last + 1] + after))
        return block_lines(fh, file, bounds, fields, runs)

    monkeypatch.setattr(cdx_mod, "_block_lines", spy)
    located = re.compile(rf"^{re.escape(str(path))}(@\d+|:\d+): ")
    outcomes = set()
    for i in range(400):
        if i % 5 == 0:
            path.write_bytes(good[: rng.randrange(len(good))])
            with pytest.raises(BadSummary, match=re.escape(f"{path}.idx@0: ")):
                _lookup(path, queries[0])
            continue
        mutated = bytearray(good)
        changed = rng.sample(range(len(good)), rng.choice([1, 1, 2]))
        for at in changed:
            mutated[at] = rng.choice([(mutated[at] + rng.randrange(1, 256)) % 256, ord(rng.choice("0189 \n\r,a%"))])
        path.write_bytes(bytes(mutated))
        for q in queries:
            spans.clear()
            try:
                got = _lookup(path, q)
            except ArchfmtError as exc:
                assert located.match(str(exc)), str(exc)
                outcomes.add(type(exc).__name__)
                continue
            seen = bytearray(good)  # the CDX with only the changes the lookup read
            for at in changed:
                if not spans or any(a <= at < b for a, b in spans):
                    seen[at] = mutated[at]
            plain.write_bytes(bytes(seen))
            assert got == _lookup(plain, q), (i, q)
            outcomes.add("answer" if seen == mutated else "unread")
    assert {"answer", "unread", "BadSummary", "BadCdxLine", "BadFieldCount"} <= outcomes


@pytest.mark.parametrize("body", [
    b" CDX-SUMMARY %d\ncom,a)/ 0\ncom,b)/ 999999999999999999\n",  # a block past the end
    b" CDX-SUMMARY %d\ncom,a)/ 0\ncom,b)/ 99999999999999999999999999\n",  # a number too long to be an offset
    b" CDX-SUMMARY %d\ncom,a)/ 5\n",  # the first block does not start at 0
    b" CDX-SUMMARY %d\ncom,b)/ 0\ncom,a)/ 40\n",  # keys out of order
    b" CDX-SUMMARY %d\ncom,a)/ 0\ncom,b)/ 40\ncom,c)/ 40\n",  # a block that starts where one did
    b" CDX-SUMMARY 99999999999999999999999\ncom,a)/ 0\n",  # another CDX size
    b" CDX-SUMMARY %d\ncom,a)/ 0",  # cut short
    b"CDX-SUMMARY %d\ncom,a)/ 0\n",  # no summary
])
def test_summary_numbers_are_checked_before_they_are_used(tmp_path, body):
    from archfmt.errors import BadSummary

    path = tmp_path / "n.cdx"
    cdx_mod._write_index(_summary_corpus(random.Random(1), n=30), path)
    (tmp_path / "n.cdx.idx").write_bytes(body.replace(b"%d", b"%d" % path.stat().st_size))
    with pytest.raises(BadSummary, match=rf"^{re.escape(str(path))}\.idx@\d+: "):
        _lookup(path, ["com,a)/"])


def test_a_summary_larger_than_its_cdx_is_refused_unread(tmp_path):
    from archfmt.errors import BadSummary

    path = tmp_path / "l.cdx"
    cdx_mod._write_index(_summary_corpus(random.Random(2), n=10), path)
    summary = tmp_path / "l.cdx.idx"
    summary.write_bytes(summary.read_bytes() + b"x" * path.stat().st_size)
    tracker = IoTracker()
    with pytest.raises(BadSummary, match="more than"):
        _lookup(path, ["com,a)/"], tracker)
    assert tracker.bytes_read == 0
