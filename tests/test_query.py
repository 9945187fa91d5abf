import dataclasses
import hashlib
import os
import random
import re
import sys
from pathlib import Path

import pytest

from archfmt import carc as carc_mod
from archfmt import cdx
from archfmt import rarc as rarc_mod
from archfmt.bench import selectivity_ranges, selectivity_url_lists
from archfmt.convert import convert, to_canonical
from archfmt.errors import ArchfmtError, BackendUnavailable, BadDate, BadOffset, NotAbsoluteUrl, SchemaMismatch
from archfmt.query import (
    BACKENDS,
    COLUMNS,
    DatasetPaths,
    QuerySpec,
    extract_links,
    extract_text,
    run_query,
    _HTML,
    scan_extract,
)
from archfmt.iostats import IoTracker
from archfmt.warc import make_record, scan_warc, write_warc

from conftest import at_threads, synth_records


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


@pytest.mark.parametrize("kind", ["count", "meta", "records"])
@pytest.mark.parametrize("which", ["none", "time_range", "urlkeys"])
def test_four_backends_agree_on_every_kind_and_predicate(corpus, kind, which):
    paths = corpus["paths"]
    entries = list(cdx.parse_cdx(paths.cdx))
    stamps = sorted(e.timestamp for e in entries)
    keys = sorted({e.urlkey for e in entries})
    spec = {
        "none": QuerySpec(kind),
        "time_range": QuerySpec(kind, time_range=(stamps[100], stamps[160])),
        "urlkeys": QuerySpec(kind, urlkeys=tuple(keys[::40]) + ("absent)/",)),
    }[which]
    pred = spec.predicate()
    expected = sum(1 for e in entries if pred is None or pred.matches(getattr(e, pred.column)))
    results = [run_query(spec, backend, paths) for backend in BACKENDS]
    assert 0 < expected and all(r.measurement.records_out == expected for r in results)
    assert len({r.record_ids_digest for r in results}) == 1
    assert len({repr(sorted(r.rows, key=repr)) for r in results}) == 1


def test_warc_splits_and_digests_only_the_matching_rows_that_need_it(corpus, monkeypatch):
    import archfmt.convert as convert_mod

    calls = []
    real = convert_mod.to_canonical
    monkeypatch.setattr(convert_mod, "to_canonical", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    paths = corpus["paths"]
    stamps = sorted(e.timestamp for e in cdx.parse_cdx(paths.cdx))
    assert run_query(QuerySpec(kind="count"), "warc", paths).rows == [len(stamps)]
    assert calls == []
    for kind in ("count", "meta", "records"):
        r = run_query(QuerySpec(kind=kind, time_range=(stamps[10], stamps[20])), "warc", paths)
        assert r.measurement.records_out == 11
    assert len(calls) == 22  # meta hashes the digest, records every column


def test_a_mime_term_hashes_only_the_records_it_matches(corpus, monkeypatch):
    import archfmt.convert as convert_mod

    pairs = [pair for f in corpus["paths"].warc_files for pair in scan_warc(f)]
    every = [row for row, _, _ in convert_mod.response_rows(pairs)]
    html = _HTML  # scan_extract's term
    hashed = []
    real = convert_mod.payload_digest
    monkeypatch.setattr(convert_mod, "payload_digest", lambda payload: hashed.append(1) or real(payload))
    got = [row for row, _, _ in convert_mod.response_rows(pairs, html)]
    assert got == [row for row in every if html.matches(row.mime)]
    assert 0 < len(hashed) == len(got) < len(every)
    hashed.clear()
    digest = carc_mod.ScanPredicate.isin("digest", [every[3].digest])  # a digest term is tested after the digest
    assert [row for row, _, _ in convert_mod.response_rows(pairs, digest)] == [every[3]]
    assert len(hashed) == len(every)


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


def _fetch_reads(matches) -> int:
    """Positioned reads that fetch matches: one per run of extents stored back to back."""
    order = sorted(matches, key=lambda e: (e.filename, e.offset))
    return sum(1 for prev, e in zip([None] + order, order)
               if not (prev and prev.filename == e.filename and prev.offset + prev.stored_length == e.offset))


def _summary_read(cdx_path, keys) -> tuple[int, int, int]:
    """(bytes, seeks, opens) of a urlkey read through the summary of a CDX
    under 1 MiB, whose blocks are all read in one run: the whole summary;
    then one seek, the byte before the run unless it starts at 0, the run
    from the first block whose first key is below a key (or the first
    block) through the last whose first key is not above one (or the first
    block), and the first urlkey field and space of the block after it."""
    import os

    summary = Path(cdx.summary_path(cdx_path)).read_bytes()
    blocks = [line.split(b" ") for line in summary.split(b"\n")[1:-1]]
    firsts, starts = [f.decode() for f, _ in blocks], [int(n) for _, n in blocks]
    picked = [i for i in range(len(blocks)) for k in keys
              if (firsts[i] <= k or i == 0) and (i + 1 == len(blocks) or firsts[i + 1] >= k)]
    lo, hi = min(picked), max(picked)
    end = starts[hi + 1] if hi + 1 < len(blocks) else os.path.getsize(cdx_path)
    fence = len(blocks[hi + 1][0]) + 1 if hi + 1 < len(blocks) else 0
    return len(summary) + (starts[lo] > 0) + end - starts[lo] + fence, 2, 2


def test_warc_cdx_io_is_one_index_pass_plus_one_read_per_match(corpus):
    """warc_cdx reads the CDX once, the whole file for a time range and the
    summary and the blocks that can hold the keys for a URL list, then the
    matching records, one positioned read per run stored back to back."""
    import os

    paths = corpus["paths"]
    entries = list(cdx.parse_cdx(paths.cdx))
    rng = random.Random(8)
    keys = sorted({e.urlkey for e in entries})
    stamps = sorted(e.timestamp for e in entries)
    specs = [QuerySpec(kind="records", urlkeys=tuple(rng.sample(keys, n)) + ("absent)/",))
             for n in (0, 1, 3)]
    specs.append(QuerySpec(kind="records", urlkeys=(keys[0], keys[-1], "zzz)/")))
    for n in (0, 1, 30, len(stamps) - 1):
        i = rng.randrange(len(stamps) - n)
        specs.append(QuerySpec(kind="records", time_range=(stamps[i], stamps[i + n])))
    cdx_size = os.path.getsize(paths.cdx)
    assert len(Path(cdx.summary_path(paths.cdx)).read_text().splitlines()) == 1 + -(-len(entries) // cdx.SUMMARY_LINES)
    for spec in specs:
        pred = spec.predicate()
        matches = [e for e in entries if pred.matches(getattr(e, pred.column))]
        index = (cdx_size, 1, 1) if spec.urlkeys is None else _summary_read(paths.cdx, spec.urlkeys)
        m = run_query(spec, "warc_cdx", paths, keep_rows=False).measurement
        assert m.records_out == len(matches)
        assert m.bytes_read == index[0] + sum(e.stored_length for e in matches)
        assert m.seek_count == index[1] + _fetch_reads(matches)
        assert m.open_count == index[2] + len({e.filename for e in matches})
        meta = run_query(QuerySpec(kind="meta", time_range=spec.time_range, urlkeys=spec.urlkeys),
                         "warc_cdx", paths).measurement
        assert (meta.bytes_read, meta.seek_count, meta.open_count) == index
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


def test_dataset_paths_files_lists_every_input_of_a_backend():
    paths = DatasetPaths(("a.warc", "b.warc"), "i.cdx", None, "d.rarc")
    assert {b: paths.files(b) for b in BACKENDS} == {
        "warc": ["a.warc", "b.warc"], "warc_cdx": ["i.cdx", "a.warc", "b.warc"], "carc": [], "rarc": ["d.rarc"],
    }
    assert paths.source("warc_cdx") == "i.cdx" and paths.files("bogus") == []
    with pytest.raises(BackendUnavailable):
        paths.source("bogus")


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
        with open(out) as fh:
            assert sum(1 for _ in fh) == 5
    assert len(set(digests.values())) == 1


def test_scan_extract_images_only(tmp_path):
    paths = make_dataset(tmp_path, synth_records(4, seed=41, html=False))
    out = tmp_path / "img.tsv"
    scan_extract("carc", paths, "text", out)
    assert out.read_bytes() == b""


def test_scan_extract_seek_counts(tmp_path):
    records = synth_records(8, seed=42) + mixed_records()
    paths = make_dataset(tmp_path, records)
    n_html = sum(_is_html(to_canonical(r).mime) for r in records)
    _, m_cdx = scan_extract("warc_cdx", paths, "links", tmp_path / "a.tsv")
    assert m_cdx.seek_count == n_html + 1  # a positioned read per HTML record, and the CDX pass
    _, m_warc = scan_extract("warc", paths, "links", tmp_path / "b.tsv")
    assert m_warc.seek_count == len(paths.warc_files)


def _response(i, content_type, block):
    return make_record(f"<urn:uuid:00000000-0000-4000-a000-{i:012d}>", "response", f"http://mix.example/{i}",
                       f"2019-03-0{1 + i % 9}T10:00:{i % 60:02d}Z", content_type, block)


def _http(i, head, body):
    return _response(i, "application/http; msgtype=response", b"HTTP/1.1 200 OK\r\n" + head + b"\r\n" + body)


def mixed_records():
    """HTML, binary, an upper-case HTTP Content-Type with a parameter, an HTTP
    block with no Content-Type, and a non-HTTP response whose WARC
    Content-Type names HTML in mixed case."""
    html = b'<html><body><p>page</p><a href="/next">n</a></body></html>'
    return [
        _http(0, b"Content-Type: text/html\r\n", html),
        _http(1, b"Content-Type: application/octet-stream\r\n", bytes(range(256))),
        _http(2, b"Content-Type: TEXT/HTML; charset=x\r\n", html.replace(b"page", b"upper")),
        _http(3, b"Server: x\r\n", html.replace(b"page", b"untyped")),
        _response(4, "Text/HTML; charset=utf-8", html.replace(b"page", b"bare")),
        _http(5, b"Content-Type: image/png\r\n", b"\x89PNG" * 50),
        _http(6, b"Content-Type: text/html\r\n", html.replace(b"/next", b"/other")),
    ]


def _is_html(mime):  # extract_text's HTML test, which the pushed term must equal
    return mime.split(";")[0].strip().lower() == "text/html"


@pytest.mark.parametrize("extractor", ["text", "links"])
def test_scan_extract_equals_brute_force_filter(tmp_path, extractor):
    records = mixed_records()
    paths = make_dataset(tmp_path, records)
    rows = [to_canonical(r) for r in records]
    for row in rows:  # the pushed term selects what extract_text's test does
        assert _HTML.matches(row.mime) == _is_html(row.mime), row.mime
    expected = []
    for row in rows:
        if _is_html(row.mime):
            derived = " ".join(extract_links(row.payload, row.url)) if extractor == "links" else \
                extract_text(row.payload, row.mime)
            expected.append(f"{row.digest}\t{derived}\n")
    assert len(expected) == 4
    for backend in BACKENDS:
        out = tmp_path / f"{backend}.tsv"
        scan_extract(backend, paths, extractor, out)
        assert out.read_text(encoding="utf-8") == "".join(sorted(expected)), backend


def test_stored_mime_is_in_normal_form(tmp_path):
    paths = make_dataset(tmp_path, mixed_records())
    spec = QuerySpec(kind="meta", projection=("url", "mime"))
    for backend in BACKENDS:
        mimes = dict(run_query(spec, backend, paths).rows)
        assert all(m == m.split(";")[0].strip().lower() for m in mimes.values()), (backend, mimes)
        assert mimes["http://mix.example/4"] == mimes["http://mix.example/2"] == "text/html"
        assert mimes["http://mix.example/3"] == "application/http"


def test_scan_extract_skips_clustered_non_html_payloads(tmp_path):
    """30 binary records of 100 KB, then 10 HTML ones: carc inflates only the
    payload pages holding HTML rows, and warc_cdx fetches only those records."""
    rng = random.Random(5)
    records = [_http(i, b"Content-Type: application/octet-stream\r\n", rng.randbytes(100_000)) for i in range(30)]
    records += [_http(i, b"Content-Type: text/html\r\n", b"<p>" + rng.randbytes(10_000).hex().encode() + b"</p>")
                for i in range(30, 40)]
    paths = make_dataset(tmp_path, records)
    footer = carc_mod.read_footer(paths.carc)
    [group] = footer.row_groups
    payload_bytes = group.chunks[footer.schema.index_of("payload")].chunk_compressed_len
    for backend in ("carc", "warc_cdx"):
        _, m = scan_extract(backend, paths, "links", tmp_path / f"{backend}.tsv")
        assert m.records_out == 10
        assert m.bytes_read < payload_bytes, (backend, m.bytes_read, payload_bytes)


def test_url_list_selectivity_helper(corpus):
    paths = corpus["paths"]
    n = corpus["spec"].record_count
    lists = selectivity_url_lists(paths.cdx, [0.1, 1.0], seed=2)
    full = QuerySpec(kind="count", urlkeys=lists[1])
    assert run_query(full, "carc", paths).rows == [n]
    part = run_query(QuerySpec(kind="count", urlkeys=lists[0]), "carc", paths).rows[0]
    assert abs(part / n - 0.1) <= 0.1 * 0.1 + 2 / n


PCT_URLS = ("http://pct.example/x%20y", "http://pct.example/x y", "http://pct.example/a%25b")
META_COLUMNS = tuple(c for c in COLUMNS if c not in ("payload", "http_headers"))  # every column but the bodies


def test_meta_rows_identical_across_backends(corpus, tmp_path):
    """meta answers with the same rows on every backend, for the full
    metadata projection and for one the CDX alone can serve, including a
    response whose HTTP message names no Content-Type, URLs holding the CDX
    escape characters and MIMEs holding a line break."""
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
    from archfmt.errors import UnknownColumn

    with pytest.raises(UnknownColumn):
        QuerySpec(kind="meta", projection=("urlkey", "bogus"))
    with pytest.raises(ArchfmtError, match="unknown query kind"):
        QuerySpec(kind="bogus")
    with pytest.raises(ArchfmtError, match="at most one predicate"):
        QuerySpec(kind="count", time_range=(0, 1), urlkeys=("a)/",))


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


# --- the located row source ---------------------------------------------------

def _two_directory_dataset(tmp_path, names=("x.warc", "y.warc")):
    """Two WARC files in the directories a/ and b/, indexed into one CDX."""
    files = []
    for i, (directory, name) in enumerate(zip("ab", names)):
        (tmp_path / directory).mkdir()
        files.append(str(tmp_path / directory / name))
        write_warc(synth_records(3, seed=60 + i), files[-1], mode="plain")
    cdx_path = tmp_path / "both.cdx"
    cdx.build_cdx(files, cdx_path)
    return DatasetPaths(warc_files=tuple(files), cdx=str(cdx_path))


def test_warc_cdx_reads_warc_files_in_two_directories(tmp_path):
    paths = _two_directory_dataset(tmp_path)
    for kind in ("count", "meta", "records"):
        spec = QuerySpec(kind=kind)
        want = run_query(spec, "warc", paths)
        got = run_query(spec, "warc_cdx", paths)
        assert got.record_ids_digest == want.record_ids_digest, kind
        assert sorted(got.rows) == sorted(want.rows), kind
    assert run_query(QuerySpec(kind="count"), "warc", paths).rows == [6]


def test_warc_files_sharing_a_name_are_a_typed_error(tmp_path):
    paths = _two_directory_dataset(tmp_path, names=("x.warc", "x.warc"))
    with pytest.raises(ArchfmtError) as exc:
        run_query(QuerySpec(kind="records"), "warc_cdx", paths)
    assert all(f in str(exc.value) for f in paths.warc_files)
    with pytest.raises(ArchfmtError):
        list(cdx.iter_fetch_records([], paths.warc_files))


def test_cdx_name_not_among_the_warc_files_is_bad_offset(tmp_path):
    paths = _two_directory_dataset(tmp_path)
    with pytest.raises(BadOffset, match=r"y\.warc@0: not among the WARC files given"):
        run_query(QuerySpec(kind="records"), "warc_cdx", DatasetPaths(paths.warc_files[:1], paths.cdx))


@pytest.mark.parametrize("field, error", [("warc_date", BadDate), ("target_uri", NotAbsoluteUrl)])
def test_a_row_error_names_its_file_and_offset_on_every_path(tmp_path, field, error):
    from archfmt.warc import make_record

    good = synth_records(1, seed=70)
    bad = dict(record_id="<urn:uuid:00000000-0000-4000-a000-000000000070>", record_type="response",
               target_uri="http://bad.example/", warc_date="2018-05-21T08:00:00Z",
               content_type="application/http; msgtype=response", block=b"HTTP/1.1 200 OK\r\n\r\nhi")
    bad[field] = {"warc_date": "0999-12-31T23:59:59Z", "target_uri": "/relative/path"}[field]
    warc_path = tmp_path / "x.warc"
    [_, loc] = write_warc(good + [make_record(**bad)], warc_path, mode="plain")
    where = f"x.warc@{loc.offset}: "
    assert loc.offset > 0
    runs = {
        "build_cdx": lambda: cdx.build_cdx([warc_path], tmp_path / "x.cdx"),
        "convert carc": lambda: convert([warc_path], "carc", tmp_path / "carc"),
        "convert rarc": lambda: convert([warc_path], "rarc", tmp_path / "rarc"),
        "warc query": lambda: run_query(QuerySpec(kind="count"), "warc", DatasetPaths((str(warc_path),))),
        # the bad record fails although no predicate matches it
        "warc time range": lambda: run_query(QuerySpec(kind="records", time_range=(0, 1)), "warc",
                                             DatasetPaths((str(warc_path),))),
        "warc urlkeys": lambda: run_query(QuerySpec(kind="meta", urlkeys=("absent)/",)), "warc",
                                          DatasetPaths((str(warc_path),))),
    }
    for name, run in runs.items():
        with pytest.raises(error) as exc:
            run()
        assert type(exc.value) is error and where in str(exc.value), name


@pytest.mark.parametrize("backend", ["carc", "rarc"])
def test_time_range_on_a_text_timestamp_container_is_schema_mismatch(tmp_path, backend):
    warc_path = tmp_path / "t.warc"
    write_warc(synth_records(4, seed=71), warc_path, mode="plain")
    out = convert([warc_path], backend, tmp_path / backend, timestamp_as_text=True).output
    paths = DatasetPaths(**{backend: out})
    with pytest.raises(SchemaMismatch, match="column timestamp"):
        run_query(QuerySpec(kind="count", time_range=(0, 2**40)), backend, paths)
    keys = tuple(sorted(row[0] for row in run_query(QuerySpec(kind="meta"), backend, paths).rows))
    assert run_query(QuerySpec(kind="count", urlkeys=keys), backend, paths).rows == [4]


def forged_index(tmp_path) -> DatasetPaths:
    """A WARC of a request and a response of a.example and a response of
    b.example, and a CDX whose a.example line points at the request and
    whose b.example line points at a.example's response."""
    def record(i, kind, url):
        return make_record(f"<urn:uuid:00000000-0000-4000-b000-{i:012d}>", kind, url, "2018-05-21T08:00:00Z",
                           f"application/http; msgtype={kind}", b"HTTP/1.1 200 OK\r\n\r\nhi")

    warc_path, cdx_path = tmp_path / "f.warc", tmp_path / "f.cdx"
    request, response_a, _ = write_warc(
        [record(0, "request", "http://a.example/"), record(1, "response", "http://a.example/"),
         record(2, "response", "http://b.example/")], warc_path)
    cdx.build_cdx([warc_path], cdx_path)
    entries = [dataclasses.replace(e, offset=loc.offset, stored_length=loc.stored_length)
               for e, loc in zip(cdx.parse_cdx(cdx_path), (request, response_a))]
    cdx._write_index(entries, cdx_path)  # the forged CDX and its summary
    return DatasetPaths((str(warc_path),), str(cdx_path))


def test_warc_cdx_fetch_must_be_the_record_of_its_line(tmp_path):
    paths = forged_index(tmp_path)
    assert run_query(QuerySpec(kind="count"), "warc_cdx", paths).rows == [2]  # the CDX alone
    with pytest.raises(BadOffset, match=r"f\.warc@0: not the record of the CDX line example,a\)/ "):
        run_query(QuerySpec(kind="records"), "warc_cdx", paths)
    _, b_line = cdx.parse_cdx(paths.cdx)
    with pytest.raises(BadOffset, match=rf"f\.warc@{b_line.offset}: .* line example,b\)/ "):
        run_query(QuerySpec(kind="records", urlkeys=("example,b)/",)), "warc_cdx", paths)


# --- parallel decode ------------------------------------------------------------

def _io(m) -> tuple[int, int, int]:
    return m.bytes_read, m.seek_count, m.open_count


def _outcome(read) -> tuple[list, object, object]:
    """The rows read() yields, and the class and message of the error it
    ends in (None, None when it ends without one)."""
    rows = []
    try:
        for row in read():
            rows.append(row)
    except ArchfmtError as exc:
        return rows, type(exc), str(exc)
    return rows, None, None


def _flip(src, dest, at: int) -> str:
    """A copy of src at dest with the byte at offset at changed."""
    data = bytearray(Path(src).read_bytes())
    data[at] ^= 0x5A
    dest.write_bytes(bytes(data))
    return str(dest)


def test_reads_are_identical_at_one_and_two_threads(corpus, tmp_path, monkeypatch):
    """Parallel decode changes no answer.  Reads run to the end give the same
    rows, query digests, scan_extract bytes and I/O counters at 1 and 2
    threads; reads that fail give the same error class and file@offset
    message after the same rows.  At 2 threads the pool computes units."""
    monkeypatch.setattr(carc_mod, "PAGE_ROWS", 8)  # chunks of many pages, each a unit
    paths = dataclasses.replace(corpus["paths"], carc=convert(
        corpus["paths"].warc_files, "carc", tmp_path / "carc", sort="timestamp", rows_per_group=64).output)
    entries = list(cdx.parse_cdx(paths.cdx))
    (window,) = selectivity_ranges(paths.cdx, [0.3])
    specs = [QuerySpec(kind="count"), QuerySpec(kind="meta"), QuerySpec(kind="records", time_range=window),
             QuerySpec(kind="records", urlkeys=tuple(sorted({e.urlkey for e in entries})[::7]))]

    blocks = rarc_mod.describe(paths.rarc)["blocks"]
    size = os.path.getsize(paths.rarc)
    cut = tmp_path / "cut.rarc"
    cut.write_bytes(Path(paths.rarc).read_bytes()[: size - 40])  # inside the last block
    bad_rarc = _flip(paths.rarc, tmp_path / "bad.rarc", blocks[3]["offset"] + 20 + blocks[3]["stored_len"] // 2)
    group = carc_mod.read_footer(paths.carc).row_groups[2]
    chunk = group.chunks[COLUMNS.index("payload")]
    page_at = chunk.chunk_offset + sum(p.compressed_len for p in chunk.pages[:3])
    bad_carc = _flip(paths.carc, tmp_path / "bad.carc", page_at + chunk.pages[3].compressed_len // 2)

    failing = {
        "truncated rarc": lambda: rarc_mod.read_rarc(cut),
        "truncated rarc resync": lambda: rarc_mod.resync(cut, size // 2),
        "bad rarc block": lambda: rarc_mod.read_rarc(bad_rarc, projection=("urlkey", "payload")),
        "bad carc page": lambda: carc_mod.read_carc(bad_carc, projection=("urlkey", "payload")),
    }

    def read_all(n):
        out = {}
        with at_threads(n) as pool:
            for backend in BACKENDS:
                for spec in specs:
                    r = run_query(spec, backend, paths)
                    out[backend, spec] = r.rows, r.record_ids_digest, _io(r.measurement)
                for extractor in ("links", "text"):
                    dest = tmp_path / f"{n}.{backend}.{extractor}.tsv"
                    _, m = scan_extract(backend, paths, extractor, dest)
                    out[backend, extractor] = hashlib.sha256(dest.read_bytes()).hexdigest(), _io(m), m.records_out
            tracker = IoTracker()
            out["resync"] = list(rarc_mod.resync(paths.rarc, size // 2, tracker)), _io(tracker)
            for name, read in failing.items():
                out[name] = _outcome(read)
        return out, pool.submitted

    one, submitted = read_all(1)
    assert submitted == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the caller and the pool thread interleave often
    try:
        two, submitted = read_all(2)
    finally:
        sys.setswitchinterval(interval)
    assert submitted > 100
    assert one.keys() == two.keys()
    for key in one:
        assert one[key] == two[key], key
    for name in failing:
        rows, error, message = one[name]
        assert rows and error is not None and re.match(r"\S+@\d+: ", message), (name, error, message)
