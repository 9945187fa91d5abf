import calendar
import dataclasses
import os
import random

import pytest

from archfmt.carc import read_footer
from archfmt.cdx import canonicalize_url
from archfmt.convert import (
    CANONICAL_SCHEMA,
    COL,
    MAX_MS,
    MIN_MS,
    convert,
    epoch_ms,
    parse_warc_date,
    to_canonical,
    utc_fields,
)
from archfmt.errors import BadDate, IoFailure
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
    for bad in ["2018-05-20", "2018-05-20T00:00:00", "yesterday", "2018-13-01T00:00:00Z",
                "２０１８-05-21T08:00:00Z"]:
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

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "in.warc"
    write_warc(synth_records(5), path, mode="plain")
    monkeypatch.setattr(archfmt.rarc, "encode_block", full_disk)
    with pytest.raises(IoFailure) as exc:
        convert([path], "rarc", tmp_path / "out")
    assert "data.rarc" in str(exc.value)
    assert not (tmp_path / "out" / "data.rarc").exists()


def _response(status=b"200", date="2018-05-21T08:00:00Z"):
    block = b"HTTP/1.1 " + status + b" OK\r\nContent-Type: text/html\r\n\r\n<p>x</p>"
    return make_record(
        "<urn:uuid:00000000-0000-4000-b000-000000000001>", "response", "http://digits.example/",
        date, "application/http; msgtype=response", block,
    )


@pytest.mark.parametrize(
    "token, status",
    [(b"200", 200), (b"000", 0), (b"\xb200", -1), (b"12345678901234567890", -1), (b"2000", -1),
     (b"20", -1), (b"+20", -1)],
)
def test_status_is_three_ascii_digits_on_every_path(tmp_path, token, status):
    from archfmt.cdx import build_cdx, parse_cdx
    from archfmt.query import DatasetPaths, QuerySpec, run_query

    record = _response(status=token)
    assert to_canonical(record).status == status
    path = tmp_path / "s.warc"
    write_warc([record], path)
    assert build_cdx([path], tmp_path / "s.cdx") == 1
    [entry] = parse_cdx(tmp_path / "s.cdx")
    assert entry.status == status
    assert entry.to_line().split(" ")[4] == (token.decode() if status >= 0 else "-")
    paths = DatasetPaths(warc_files=(str(path),), cdx=str(tmp_path / "s.cdx"))
    for target in ("carc", "rarc"):
        paths = dataclasses.replace(paths, **{target: convert([path], target, tmp_path / target).output})
    spec = QuerySpec("meta", projection=("status",))
    for backend in ("warc", "warc_cdx", "carc", "rarc"):
        assert run_query(spec, backend, paths).rows == [(status,)], backend


@pytest.mark.parametrize("date", ["2018-05-21T08:00:00.²Z", "2018-05-21T08:00:00\nZ",
                                  "0999-12-31T23:59:59Z", "0000-01-01T00:00:00Z"])
def test_warc_date_needs_ascii_digits_on_every_path(tmp_path, date):
    """A WARC-Date that is not ASCII digits, or not of the years 1000-9999, is
    BadDate on every path."""
    from archfmt.cdx import build_cdx

    record = _response(date=date)
    with pytest.raises(BadDate):
        parse_warc_date(date)
    with pytest.raises(BadDate):
        to_canonical(record)
    path = tmp_path / "d.warc"
    write_warc([record], path)
    with pytest.raises(BadDate):
        build_cdx([path], tmp_path / "d.cdx")
    with pytest.raises(BadDate):
        convert([path], "carc", tmp_path / "carc")
    assert not (tmp_path / "carc" / "data.carc").exists()


# --- the one time codec ------------------------------------------------------

def _valid_fields(rng):
    y, mo = rng.randint(1000, 9999), rng.randint(1, 12)
    return (y, mo, rng.randint(1, calendar.monthrange(y, mo)[1]), rng.randint(0, 23),
            rng.randint(0, 59), rng.randint(0, 59), rng.randint(0, 999))


def test_epoch_ms_and_utc_fields_are_inverse():
    rng = random.Random(1000)
    edges = [(1000, 1, 1, 0, 0, 0, 0), (9999, 12, 31, 23, 59, 59, 999), (1970, 1, 1, 0, 0, 0, 0),
             (1969, 12, 31, 23, 59, 59, 999), (2000, 2, 29, 12, 0, 0, 1), (1600, 2, 29, 0, 0, 0, 0),
             (2024, 2, 29, 23, 59, 59, 999), (1000, 2, 28, 0, 0, 0, 0)]
    for fields in edges + [_valid_fields(rng) for _ in range(3000)]:
        ms = epoch_ms(*fields)
        assert utc_fields(ms) == fields
        assert ms == calendar.timegm(fields[:6]) * 1000 + fields[6]
    assert (epoch_ms(1000, 1, 1), epoch_ms(9999, 12, 31, 23, 59, 59, 999)) == (MIN_MS, MAX_MS)
    for _ in range(3000):
        ms = rng.randint(MIN_MS, MAX_MS)
        assert epoch_ms(*utc_fields(ms)) == ms


@pytest.mark.parametrize("fields", [
    (999, 12, 31, 23, 59, 59, 999), (10000, 1, 1, 0, 0, 0, 0), (2018, 0, 1, 0, 0, 0, 0),
    (2018, 13, 1, 0, 0, 0, 0), (2018, 1, 0, 0, 0, 0, 0), (2018, 1, 32, 0, 0, 0, 0),
    (1900, 2, 29, 0, 0, 0, 0), (2023, 2, 29, 0, 0, 0, 0), (2018, 4, 31, 0, 0, 0, 0),
    (2018, 1, 1, 24, 0, 0, 0), (2018, 1, 1, 0, 60, 0, 0), (2018, 1, 1, 0, 0, 60, 0),
    (2018, 1, 1, 0, 0, 0, 1000), (2018, 1, 1, -1, 0, 0, 0), (2018, 1, 1, 0, 0, 0, -1),
])
def test_epoch_ms_rejects_invalid_fields(fields):
    with pytest.raises(BadDate):
        epoch_ms(*fields)


def test_utc_fields_rejects_instants_outside_the_range():
    for ms in (MIN_MS - 1, MAX_MS + 1, -2**63, 2**63):
        with pytest.raises(BadDate):
            utc_fields(ms)


def _spill_small_runs(monkeypatch) -> list:
    """Make convert's external sort spill a run every few rows; returns the
    list the paths of the runs it writes are appended to."""
    import archfmt.convert as convert_mod

    runs, write_rarc = [], convert_mod.rarc.write_rarc
    monkeypatch.setattr(convert_mod, "_SPILL_BYTES", 2000)  # 4-7 synth_records rows a run
    monkeypatch.setattr(convert_mod.rarc, "write_rarc",
                        lambda rows, schema, path, **kw: runs.append(path) or write_rarc(rows, schema, path, **kw))
    return runs


@pytest.mark.parametrize("sort, as_text", [("timestamp", False), ("urlkey", False), ("timestamp", True)])
def test_external_sort_spill_matches_in_memory_sort(tmp_path, monkeypatch, sort, as_text):
    import hashlib

    path = tmp_path / "many.warc"
    records = [  # three URLs at three instants: many equal keys, which must keep their input order
        make_record(r.record_id, "response", f"http://tie{i % 3}.example/", f"2018-05-21T08:00:0{i % 3}Z",
                    "application/http; msgtype=response", r.block)
        for i, r in enumerate(synth_records(60, seed=11))
    ]
    write_warc(records, path)

    def digest(out):
        m = convert([path], "carc", out, sort=sort, rows_per_group=16, timestamp_as_text=as_text)
        return hashlib.sha256(open(m.output, "rb").read()).hexdigest(), sorted(os.listdir(out))

    in_memory, files = digest(tmp_path / "memory")
    runs = _spill_small_runs(monkeypatch)
    spilled, spill_files = digest(tmp_path / "spill")
    assert len(runs) >= 5
    assert spilled == in_memory
    assert spill_files == files == ["data.carc", "manifest.carc.txt"]  # no run file left behind


def test_external_sort_removes_its_runs_when_the_input_fails(tmp_path, monkeypatch):
    path = tmp_path / "bad-last.warc"
    write_warc(synth_records(40, seed=12) + [_response(date="0999-01-01T00:00:00Z")], path)
    runs = _spill_small_runs(monkeypatch)
    with pytest.raises(BadDate):
        convert([path], "carc", tmp_path / "out", sort="timestamp")
    assert len(runs) >= 3
    assert os.listdir(tmp_path / "out") == []


def test_external_sort_merges_one_decoded_row_of_each_run(tmp_path, monkeypatch):
    import archfmt.convert as convert_mod

    path = tmp_path / "many.warc"
    write_warc(synth_records(60, seed=13), path)
    runs = _spill_small_runs(monkeypatch)
    block_sizes, blocks = [], convert_mod.rarc._blocks

    def counted(*args):
        for rows in blocks(*args):
            block_sizes.append(len(rows))
            yield rows

    monkeypatch.setattr(convert_mod.rarc, "_blocks", counted)
    convert([path], "carc", tmp_path / "out", sort="urlkey")
    assert len(runs) >= 5
    assert len(block_sizes) > len(runs)  # every spilled row, read one block a row
    assert set(block_sizes) == {1}


def test_external_sort_keeps_the_error_of_a_failed_spill(tmp_path, monkeypatch):
    import errno

    import archfmt.convert as convert_mod

    path = tmp_path / "many.warc"
    write_warc(synth_records(40, seed=14), path)

    def full_disk(*args, **kw):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(convert_mod, "_SPILL_BYTES", 2000)
    monkeypatch.setattr(convert_mod.rarc, "write_rarc", full_disk)
    with pytest.raises(IoFailure, match="No space left"):
        convert([path], "carc", tmp_path / "out", sort="timestamp")
    assert os.listdir(tmp_path / "out") == []
