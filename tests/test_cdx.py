import calendar
import random
import re
from datetime import datetime, timezone

import pytest

from archfmt import cdx as cdx_mod
from archfmt.carc import ScanPredicate
from archfmt.cdx import (
    CDX_HEADER,
    CdxEntry,
    build_cdx,
    canonicalize_url,
    fetch_records,
    parse_cdx,
    parse_timestamp14,
    timestamp14_of,
)
from archfmt.errors import BadCdxLine, BadFieldCount, BadOffset, BadTimestamp, NotAbsoluteUrl
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
    # sub-second truncation toward zero
    assert timestamp14_of(1500) == timestamp14_of(1000)


def test_timestamp14_rejects_bad_input():
    for bad in ["2006", "200609191720xx", "20061319172024", "00990101000000"]:
        with pytest.raises(BadTimestamp):
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
    records, m = fetch_records([], "/nonexistent")
    assert records == [] and m.seek_count == 0


def test_fetch_records_matches_scan(tmp_path):
    path = tmp_path / "ten.warc.gz"
    write_warc(synth_records(10, seed=4), path, mode="member_gzip")
    cdx_path = tmp_path / "ten.cdx"
    build_cdx([path], cdx_path)
    entries = list(parse_cdx(cdx_path))
    records, m = fetch_records(entries, tmp_path)
    assert m.seek_count == 10 and m.open_count == 1
    assert sorted(r.record_id for r in records) == sorted(
        r.record_id for r, _ in scan_warc(path)
    )


def test_fetch_records_bad_offset(tmp_path):
    path = tmp_path / "one.warc.gz"
    write_warc(synth_records(1), path, mode="member_gzip")
    cdx_path = tmp_path / "one.cdx"
    build_cdx([path], cdx_path)
    [entry] = parse_cdx(cdx_path)
    import dataclasses

    shifted = dataclasses.replace(entry, offset=entry.offset + 1)
    with pytest.raises(BadOffset):
        fetch_records([shifted], tmp_path)


def test_index_completeness(corpus):
    paths = corpus["paths"]
    scan_ids = []
    for f in paths.warc_files:
        scan_ids.extend(r.record_id for r, _ in scan_warc(f) if r.record_type == "response")
    entries = list(parse_cdx(paths.cdx))
    fetched, _ = fetch_records(entries, paths.warc_dir)
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
        fetch_records([dataclasses.replace(entry, stored_length=stored_length)], tmp_path)


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

