import hashlib
import random

import pytest

from archfmt import cdx
from archfmt.bench import selectivity_ranges, selectivity_url_lists
from archfmt.convert import convert
from archfmt.errors import BackendUnavailable
from archfmt.query import (
    BACKENDS,
    DatasetPaths,
    QuerySpec,
    extract_links,
    extract_text,
    run_query,
    scan_extract,
)
from archfmt.warc import write_warc

from conftest import synth_records


def test_count_matches_generator(corpus):
    n = corpus["spec"].record_count
    spec = QuerySpec(kind="count")
    for backend in BACKENDS:
        result = run_query(spec, backend, corpus["paths"])
        assert result.rows == [n]
        assert result.backend == backend


def test_meta_empty_time_range_all_backends(corpus):
    spec = QuerySpec(kind="meta", time_range=(1, 2))  # 1970: nothing there
    digests = set()
    for backend in BACKENDS:
        result = run_query(spec, backend, corpus["paths"])
        assert result.rows == []
        digests.add(result.record_ids_digest)
    assert len(digests) == 1


def test_records_url_list_matches_warc_oracle(corpus):
    entries = list(cdx.parse_cdx(corpus["paths"].cdx))
    by_key = {}
    for e in entries:
        by_key.setdefault(e.urlkey, []).append(e)
    keys = sorted(by_key, key=lambda k: -len(by_key[k]))[:3]
    expected = sum(len(by_key[k]) for k in keys)
    spec = QuerySpec(kind="records", urlkeys=tuple(keys))
    oracle = run_query(spec, "warc", corpus["paths"])
    assert len(oracle.rows) == expected
    for backend in ("warc_cdx", "carc", "rarc"):
        result = run_query(spec, backend, corpus["paths"])
        assert result.record_ids_digest == oracle.record_ids_digest
        assert len(result.rows) == expected


def test_backend_equivalence_randomized(corpus):
    rng = random.Random(31)
    paths = corpus["paths"]
    time_lo, time_hi = corpus["spec"].time_range
    all_keys = sorted({e.urlkey for e in cdx.parse_cdx(paths.cdx)})
    for _ in range(12):
        kind = rng.choice(["count", "meta", "records"])
        if rng.random() < 0.5:
            a = rng.randint(time_lo, time_hi)
            spec = QuerySpec(kind=kind, time_range=(a, a + rng.randint(0, time_hi - a)))
        else:
            spec = QuerySpec(
                kind=kind, urlkeys=tuple(rng.sample(all_keys, rng.randint(1, 5)))
            )
        digests = {run_query(spec, b, paths).record_ids_digest for b in BACKENDS}
        assert len(digests) == 1, f"backends disagree for {spec}"


def test_type1_payload_avoidance(corpus):
    paths = corpus["paths"]
    spec = QuerySpec(kind="meta", time_range=corpus["spec"].time_range)
    carc_result = run_query(spec, "carc", paths)
    import os

    assert carc_result.measurement.bytes_read < 0.2 * os.path.getsize(paths.carc)
    cdx_result = run_query(spec, "warc_cdx", paths)
    assert cdx_result.measurement.open_count == 1  # the CDX file only, no WARC


def test_monotone_io_warc_cdx_and_constant_warc(corpus):
    paths = corpus["paths"]
    ranges = selectivity_ranges(paths.cdx, [0.1, 0.5, 1.0])
    cdx_bytes, warc_bytes, matched = [], [], []
    for lo, hi in ranges:
        spec = QuerySpec(kind="records", time_range=(lo, hi))
        r1 = run_query(spec, "warc_cdx", paths, keep_rows=False)
        r2 = run_query(spec, "warc", paths, keep_rows=False)
        cdx_bytes.append(r1.measurement.bytes_read)
        warc_bytes.append(r2.measurement.bytes_read)
        matched.append(r1.measurement.records_out)
    assert matched == sorted(matched) and matched[0] < matched[-1]
    assert cdx_bytes == sorted(cdx_bytes) and cdx_bytes[0] < cdx_bytes[-1]
    assert len(set(warc_bytes)) == 1  # full scan regardless of selectivity


def test_warc_cdx_io_is_one_index_pass_plus_one_read_per_match(corpus):
    """warc_cdx reads the whole CDX once, then each matching record once."""
    import os

    paths = corpus["paths"]
    entries = list(cdx.parse_cdx(paths.cdx))
    rng = random.Random(8)
    keys = sorted({e.urlkey for e in entries})
    stamps = sorted(e.timestamp for e in entries)
    specs = [QuerySpec(kind="records", urlkeys=tuple(rng.sample(keys, n)) + ("absent)/",))
             for n in (0, 1, 3)]
    for n in (0, 1, 30, len(stamps) - 1):
        i = rng.randrange(len(stamps) - n)
        specs.append(QuerySpec(kind="records", time_range=(stamps[i], stamps[i + n])))
    cdx_size = os.path.getsize(paths.cdx)
    for spec in specs:
        pred = spec.predicate()
        matches = [e for e in entries if pred.matches(getattr(e, pred.column))]
        m = run_query(spec, "warc_cdx", paths, keep_rows=False).measurement
        assert m.records_out == len(matches)
        assert m.bytes_read == cdx_size + sum(e.stored_length for e in matches)
        assert m.seek_count == 1 + len(matches)
        assert m.open_count == 1 + len({e.filename for e in matches})
        meta = run_query(QuerySpec(kind="meta", time_range=spec.time_range, urlkeys=spec.urlkeys),
                         "warc_cdx", paths).measurement
        assert (meta.bytes_read, meta.seek_count, meta.open_count) == (cdx_size, 1, 1)
    full = run_query(QuerySpec(kind="meta"), "warc_cdx", paths).measurement
    assert (full.bytes_read, full.seek_count, full.open_count) == (cdx_size, 1, 1)


def test_carc_count_reads_what_the_footer_read_reads(corpus):
    """count on carc goes through the one scan path and costs one footer read."""
    from archfmt.carc import read_footer
    from archfmt.iostats import IoTracker

    tracker = IoTracker()
    footer = read_footer(corpus["paths"].carc, tracker)
    result = run_query(QuerySpec(kind="count"), "carc", corpus["paths"])
    assert result.rows == [footer.total_rows] == [corpus["spec"].record_count]
    m = result.measurement
    assert (m.bytes_read, m.seek_count, m.open_count) == (tracker.bytes_read, tracker.seek_count, 1)


def test_missing_artifact_raises(corpus):
    paths = DatasetPaths(warc_files=corpus["paths"].warc_files, cdx=None, carc=None, rarc=None)
    for backend in ("warc_cdx", "carc", "rarc"):
        with pytest.raises(BackendUnavailable):
            run_query(QuerySpec(kind="count"), backend, paths)


# --- extractors --------------------------------------------------------------

def test_extract_text_tag_stripping():
    assert extract_text(b"<p>Hello <b>world</b></p>", "text/html") == "Hello world"


def test_extract_text_script_and_entities():
    assert extract_text(b"<script>x=1</script>Hi&amp;Bye", "text/html") == "Hi&Bye"


def test_extract_text_non_html():
    assert extract_text(b"\x89PNG...", "image/png") == ""


def test_extract_text_comments_numeric_entities_whitespace():
    html = b"<!-- no -->  A&#65;&#x42;   <style>p{}</style> B\n\nC  "
    assert extract_text(html, "text/html") == "AAB B C"


def test_extract_links_root_relative():
    assert extract_links(b'<a href="/about">', "http://x.com/home") == ["http://x.com/about"]


def test_extract_links_relative_and_absolute():
    html = b'<a href="b.html"><a href="http://y.com/">'
    assert extract_links(html, "http://x.com/a/") == [
        "http://x.com/a/b.html",
        "http://y.com/",
    ]


def test_extract_links_none():
    assert extract_links(b"<p>nothing here</p>", "http://x.com/") == []


def test_extract_links_fragments_and_duplicates():
    html = b'<a href="/p#frag"><a href="/p">'
    assert extract_links(html, "http://x.com/") == ["http://x.com/p", "http://x.com/p"]


# --- scan_extract -------------------------------------------------------------

def make_dataset(tmp_path, records):
    warc_path = tmp_path / "d.warc.gz"
    write_warc(records, warc_path, mode="member_gzip")
    cdx_path = tmp_path / "d.cdx"
    cdx.build_cdx([warc_path], cdx_path)
    carc_m = convert([warc_path], "carc", tmp_path / "carc")
    rarc_m = convert([warc_path], "rarc", tmp_path / "rarc")
    return DatasetPaths(
        warc_files=(str(warc_path),), cdx=str(cdx_path), carc=carc_m.output, rarc=rarc_m.output
    )


@pytest.mark.parametrize("extractor", ["text", "links"])
def test_scan_extract_identical_across_backends(tmp_path, extractor):
    paths = make_dataset(tmp_path, synth_records(5, seed=40))
    digests = {}
    for backend in BACKENDS:
        out = tmp_path / f"{backend}.{extractor}.tsv"
        scan_extract(backend, paths, extractor, out)
        digests[backend] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert sum(1 for _ in open(out)) == 5
    assert len(set(digests.values())) == 1


def test_scan_extract_images_only(tmp_path):
    paths = make_dataset(tmp_path, synth_records(4, seed=41, html=False))
    out = tmp_path / "img.tsv"
    scan_extract("carc", paths, "text", out)
    assert out.read_bytes() == b""


def test_scan_extract_seek_counts(tmp_path):
    paths = make_dataset(tmp_path, synth_records(8, seed=42))
    _, m_cdx = scan_extract("warc_cdx", paths, "links", tmp_path / "a.tsv")
    assert m_cdx.seek_count >= 8  # one positioned read per record (+ CDX pass)
    assert m_cdx.seek_count <= 8 + 2
    _, m_warc = scan_extract("warc", paths, "links", tmp_path / "b.tsv")
    assert m_warc.seek_count == len(paths.warc_files)


def test_url_list_selectivity_helper(corpus):
    paths = corpus["paths"]
    n = corpus["spec"].record_count
    lists = selectivity_url_lists(paths.cdx, [0.1, 1.0], seed=2)
    full = QuerySpec(kind="count", urlkeys=lists[1])
    assert run_query(full, "carc", paths).rows == [n]
    part = run_query(QuerySpec(kind="count", urlkeys=lists[0]), "carc", paths).rows[0]
    assert abs(part / n - 0.1) <= 0.1 * 0.1 + 2 / n


PCT_URLS = ("http://pct.example/x%20y", "http://pct.example/x y", "http://pct.example/a%25b")


def test_meta_rows_identical_across_backends(corpus, tmp_path):
    """meta answers with the same rows on every backend, for the full
    metadata projection and for one the CDX alone can serve, including a
    response whose HTTP message names no Content-Type, URLs holding the CDX
    escape characters and MIMEs holding a line break."""
    from archfmt.query import META_COLUMNS
    from archfmt.warc import make_record, scan_warc

    records = [r for f in corpus["paths"].warc_files for r, _ in scan_warc(f)]
    extra = [("http://no-content-type.example/", b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")]
    extra += [(url, b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + url.encode()) for url in PCT_URLS]
    extra += [(f"http://line-break.example/{i}", b"HTTP/1.1 200 OK\r\nContent-Type: text/html" + sep + b"X-A: b\r\n\r\nhi")
              for i, sep in enumerate((b"\n", b"\r"))]  # a bare LF or CR inside the header
    for i, (url, block) in enumerate(extra, 1):
        records.append(
            make_record(
                record_id=f"<urn:uuid:00000000-0000-4000-a000-{i:012d}>",
                record_type="response",
                target_uri=url,
                warc_date="2018-05-21T08:00:00Z",
                content_type="application/http; msgtype=response",
                block=block,
            )
        )
    paths = make_dataset(tmp_path, records)
    cdx_only = tuple(c for c in META_COLUMNS if c != "content_length")
    for projection in (META_COLUMNS, cdx_only):
        spec = QuerySpec(kind="meta", projection=projection)
        answers = {b: sorted(run_query(spec, b, paths).rows) for b in BACKENDS}
        assert len(answers["warc"]) == len(records)
        for backend in BACKENDS:
            assert answers[backend] == answers["warc"], (backend, projection)
    no_ct = [r for r in answers["warc"] if r[0].startswith("example,no-content-type)")]
    assert [r[cdx_only.index("mime")] for r in no_ct] == ["application/http"]
    breaks = sorted(r[cdx_only.index("mime")] for r in answers["warc"] if r[0].startswith("example,line-break)"))
    assert breaks == ["text/html\nx-a: b", "text/html\rx-a: b"]
    pct = sorted(r[cdx_only.index("url")] for r in answers["warc"] if r[0].startswith("example,pct)"))
    assert pct == sorted(PCT_URLS)
    for key in ("example,pct)/x%20y", "example,pct)/x y", "example,pct)/a%25b", "example,pct)/a%b"):
        spec = QuerySpec(kind="meta", urlkeys=(key,), projection=("urlkey", "url"))
        answers = {b: run_query(spec, b, paths).rows for b in BACKENDS}
        assert all(rows == answers["warc"] for rows in answers.values()), key
        assert len(answers["warc"]) == (0 if key.endswith("a%b") else 1)


def test_bad_query_spec_is_typed_error():
    from archfmt.errors import ArchfmtError, UnknownColumn

    with pytest.raises(UnknownColumn):
        QuerySpec(kind="meta", projection=("urlkey", "bogus"))
    with pytest.raises(ArchfmtError):
        QuerySpec(kind="bogus")


def test_sub_second_record_agrees_on_all_backends(corpus, tmp_path):
    """A WARC-Date with milliseconds keeps them on every backend, the CDX included."""
    from archfmt.warc import make_record, scan_warc

    records = [r for f in corpus["paths"].warc_files for r, _ in scan_warc(f)]
    records.append(
        make_record(
            record_id="<urn:uuid:00000000-0000-4000-a000-000000000003>",
            record_type="response",
            target_uri="http://sub-second.example/",
            warc_date="2018-05-21T08:00:00.500Z",
            content_type="application/http; msgtype=response",
            block=b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>half</p>",
        )
    )
    paths = make_dataset(tmp_path, records)
    meta = QuerySpec(kind="meta")
    assert len({run_query(meta, b, paths).record_ids_digest for b in BACKENDS}) == 1
    window = QuerySpec(kind="count", time_range=(1526889600500, 1526889600999))
    assert {b: run_query(window, b, paths).rows for b in BACKENDS} == {b: [1] for b in BACKENDS}


def test_response_without_target_uri_agrees_on_all_backends(tmp_path):
    from archfmt.warc import make_record

    records = synth_records(3, seed=43)
    records.append(
        make_record(
            record_id="<urn:uuid:00000000-0000-4000-a000-000000000004>",
            record_type="response",
            target_uri="",
            warc_date="2018-05-21T08:00:00Z",
            content_type="application/http; msgtype=response",
            block=b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>anon</p>",
        )
    )
    paths = make_dataset(tmp_path, records)
    spec = QuerySpec(kind="meta", projection=("urlkey", "url", "status"))
    answers = {b: sorted(run_query(spec, b, paths).rows) for b in BACKENDS}
    assert ("", "", 200) in answers["warc"]
    assert all(rows == answers["warc"] for rows in answers.values())


def test_extract_text_collapses_every_unicode_space():
    spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    html = f"<p>{spaces}a{spaces}b &#12288; c{spaces}</p>".encode("utf-8")
    assert extract_text(html, "text/html") == "a b c"
