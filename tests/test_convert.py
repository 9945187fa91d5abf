import calendar
import random

import pytest

from archfmt.carc import read_footer
from archfmt.cdx import canonicalize_url
from archfmt.convert import (
    CANONICAL_SCHEMA,
    COL,
    convert,
    parse_warc_date,
    to_canonical,
)
from archfmt.errors import BadDate
from archfmt.httpmsg import payload_digest
from archfmt.warc import make_record, scan_warc, write_warc

from conftest import request_record, synth_records


def test_parse_warc_date_epoch():
    assert parse_warc_date("1970-01-01T00:00:00Z") == 0


def test_parse_warc_date_known_instants():
    assert parse_warc_date("2006-09-19T17:20:24Z") == (
        calendar.timegm((2006, 9, 19, 17, 20, 24)) * 1000
    )
    assert parse_warc_date("2006-09-19T17:20:24Z") == 1158686424000
    assert parse_warc_date("2018-05-20T00:00:00Z") == (
        calendar.timegm((2018, 5, 20, 0, 0, 0)) * 1000
    )
    assert parse_warc_date("2018-05-20T00:00:00Z") == 1526774400000


def test_parse_warc_date_fraction_truncates():
    assert parse_warc_date("1970-01-01T00:00:00.1239Z") == 123


def test_parse_warc_date_rejects_garbage():
    for bad in ["2018-05-20", "2018-05-20T00:00:00", "yesterday", "2018-13-01T00:00:00Z"]:
        with pytest.raises(BadDate):
            parse_warc_date(bad)


def test_parse_warc_date_property_roundtrip():
    rng = random.Random(14)
    for _ in range(1200):
        y, mo, d = rng.randint(1970, 2260), rng.randint(1, 12), rng.randint(1, 28)
        h, mi, s = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
        text = f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}Z"
        assert parse_warc_date(text) == calendar.timegm((y, mo, d, h, mi, s)) * 1000


def test_to_canonical_http_response():
    html = b"<html>hello</html>"
    block = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\r\n" + html
    )
    record = make_record(
        record_id="<urn:uuid:1>",
        record_type="response",
        target_uri="http://example.com/",
        warc_date="2018-05-20T00:00:00Z",
        content_type="application/http; msgtype=response",
        block=block,
    )
    c = to_canonical(record)
    assert c.status == 200
    assert c.mime == "text/html"
    assert c.payload == html
    assert c.content_length == len(html)
    assert c.http_headers is not None and "Content-Type" in c.http_headers
    assert c.timestamp_ms == 1526774400000
    assert c.urlkey == canonicalize_url("http://example.com/")
    assert c.digest == payload_digest(html)


def test_to_canonical_resource_without_envelope():
    blob = bytes(range(10))
    record = make_record(
        record_id="<urn:uuid:2>",
        record_type="resource",
        target_uri="http://example.com/f.bin",
        warc_date="2018-05-20T00:00:00Z",
        content_type="application/octet-stream",
        block=blob,
    )
    c = to_canonical(record)
    assert c.status == -1
    assert c.http_headers is None
    assert c.payload == blob


@pytest.mark.parametrize("target", ["carc", "rarc"])
def test_convert_counts(tmp_path, target):
    records = synth_records(50, seed=20)
    path = tmp_path / "in.warc.gz"
    write_warc(records, path, mode="member_gzip")
    manifest = convert([path], target, tmp_path / target)
    assert manifest.in_count == 50
    assert manifest.out_count == 50
    assert manifest.excluded == 0


def test_convert_excludes_requests(tmp_path):
    records = synth_records(30, seed=21)
    for i in range(10):
        records.insert(2 * i, request_record(i))
    path = tmp_path / "mix.warc"
    write_warc(records, path, mode="plain")
    manifest = convert([path], "carc", tmp_path / "out")
    assert manifest.out_count == 30 and manifest.excluded == 10
    assert manifest.in_count == manifest.out_count + manifest.excluded


def test_convert_sorted_carc_footer_invariant(tmp_path):
    path = tmp_path / "in.warc"
    write_warc(synth_records(200, seed=22), path, mode="plain")
    manifest = convert([path], "carc", tmp_path / "out", sort="timestamp", rows_per_group=16)
    footer = read_footer(manifest.output)
    assert footer.sort_key == "timestamp"
    ts_i = footer.schema.index_of("timestamp")
    prev = None
    for g in footer.row_groups:
        if prev is not None:
            assert g.chunks[ts_i].min >= prev
        prev = g.chunks[ts_i].max


@pytest.mark.parametrize("target", ["carc", "rarc"])
def test_convert_fidelity(corpus, target):
    from archfmt.carc import read_carc_rows
    from archfmt.rarc import read_rarc_rows

    paths = corpus["paths"]
    source = []
    for f in paths.warc_files:
        for record, _ in scan_warc(f):
            if record.record_type != "response":
                continue
            c = to_canonical(record)
            source.append((c.digest, c.url, c.timestamp_ms, c.content_length))
    rows = (
        read_carc_rows(paths.carc)[0] if target == "carc" else read_rarc_rows(paths.rarc)[0]
    )
    converted = []
    for row in rows:
        digest = row[COL["digest"]]
        assert payload_digest(row[COL["payload"]]) == digest
        converted.append(
            (digest, row[COL["url"]], row[COL["timestamp"]], row[COL["content_length"]])
        )
    assert sorted(converted) == sorted(source)


def test_convert_determinism(tmp_path):
    path = tmp_path / "in.warc"
    write_warc(synth_records(80, seed=23), path, mode="plain")
    m1 = convert([path], "rarc", tmp_path / "o1", seed=5)
    m2 = convert([path], "rarc", tmp_path / "o2", seed=5)
    with open(m1.output, "rb") as a, open(m2.output, "rb") as b:
        assert a.read() == b.read()
    c1 = convert([path], "carc", tmp_path / "c1", sort="urlkey")
    c2 = convert([path], "carc", tmp_path / "c2", sort="urlkey")
    with open(c1.output, "rb") as a, open(c2.output, "rb") as b:
        assert a.read() == b.read()


def test_manifest_file_contents(tmp_path):
    path = tmp_path / "in.warc"
    write_warc(synth_records(10, seed=24), path, mode="plain")
    manifest = convert([path], "carc", tmp_path / "out")
    text = (tmp_path / "out" / "manifest.carc.txt").read_text()
    pairs = dict(
        line.split("\t", 1) for line in text.splitlines() if "\t" in line and not line.startswith("input")
    )
    assert pairs["in_count"] == "10"
    assert pairs["out_count"] == "10"
    assert pairs["excluded"] == "0"
    assert pairs["sort"] == "none"
    assert pairs["codec"] == "gzip"
    assert pairs["output"] == manifest.output


def test_convert_submodule_is_not_shadowed():
    import types

    import archfmt.convert as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.convert)


def test_write_failure_is_io_failure_without_partial_output(tmp_path, monkeypatch):
    import errno

    import archfmt.rarc
    from archfmt.errors import IoFailure

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "in.warc"
    write_warc(synth_records(5), path, mode="plain")
    monkeypatch.setattr(archfmt.rarc, "encode_block", full_disk)
    with pytest.raises(IoFailure) as exc:
        convert([path], "rarc", tmp_path / "out")
    assert "data.rarc" in str(exc.value)
    assert not (tmp_path / "out" / "data.rarc").exists()
