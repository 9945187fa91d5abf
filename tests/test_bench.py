import csv
import os
import re
from pathlib import Path

import pytest

from archfmt import bench, cdx
from archfmt.bench import (
    CSV_HEADER,
    SuiteConfig,
    SyntheticSpec,
    emit_report,
    generate_corpus,
    run_suite,
    selectivity_ranges,
)
from archfmt.convert import convert
from archfmt.errors import BadCsv, Unachievable
from archfmt.iostats import IoTracker
from archfmt.query import DatasetPaths
from archfmt.warc import scan_warc
from conftest import written_at_one_and_two_threads


def test_zero_records_one_valid_empty_file(tmp_path):
    files = generate_corpus(SyntheticSpec(record_count=0), tmp_path)
    assert len(files) == 1
    assert list(scan_warc(files[0])) == []


def test_generator_determinism(tmp_path):
    spec = SyntheticSpec(record_count=200, payload_mean_bytes=800, seed=42)
    a = generate_corpus(spec, tmp_path / "a")
    b = generate_corpus(spec, tmp_path / "b")
    assert [os.path.basename(f) for f in a] == [os.path.basename(f) for f in b]
    for fa, fb in zip(a, b):
        with open(fa, "rb") as x, open(fb, "rb") as y:
            assert x.read() == y.read()


def test_generated_files_are_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    """Each record is gzipped alone, with mtime 0, so the files hold the same
    bytes at any thread count, and the file split falls between the same
    members."""
    monkeypatch.setattr(bench, "_FILE_BYTES", 60_000)
    spec = SyntheticSpec(record_count=300, payload_mean_bytes=1200, seed=42)
    files = {}

    def write(n):
        files[n] = generate_corpus(spec, tmp_path / str(n))
        return files[n]

    digests, submitted = written_at_one_and_two_threads(write)
    assert digests[1] == digests[2] and submitted > 0
    assert len(files[2]) > 3 and all(os.path.getsize(f) <= 60_000 for f in files[2])
    assert sum(1 for f in files[2] for _ in scan_warc(f)) == 300


def test_html_fraction_exact(tmp_path):
    spec = SyntheticSpec(record_count=250, payload_mean_bytes=600, html_fraction=0.8, seed=1)
    files = generate_corpus(spec, tmp_path)
    html = 0
    for f in files:
        for record, _ in scan_warc(f):
            if b"Content-Type: text/html" in record.block.split(b"\r\n\r\n", 1)[0]:
                html += 1
    assert html == 200


def test_instrumentation_conservation(tmp_path):
    spec = SyntheticSpec(record_count=50, payload_mean_bytes=500, seed=3)
    [f] = generate_corpus(spec, tmp_path)
    tracker = IoTracker()
    n = sum(1 for _ in scan_warc(f, tracker=tracker))
    m = tracker.measurement(records_out=n)
    assert m.bytes_read == os.path.getsize(f)
    assert m.seek_count == 1 and m.open_count == 1


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    spec = SyntheticSpec(record_count=300, payload_mean_bytes=1200, seed=42)
    files = generate_corpus(spec, root / "warc")
    cdx_path = root / "i.cdx"
    cdx.build_cdx(files, cdx_path)
    carc_m = convert(files, "carc", root / "carc", sort="timestamp", rows_per_group=32)
    rarc_m = convert(files, "rarc", root / "rarc", rows_per_block=32)
    paths = DatasetPaths(
        warc_files=tuple(files), cdx=str(cdx_path), carc=carc_m.output, rarc=rarc_m.output
    )
    return root, spec, paths


def test_selectivity_full_range(bench_dataset):
    _, spec, paths = bench_dataset
    [full] = selectivity_ranges(paths.cdx, [1.0])
    entries = list(cdx.parse_cdx(paths.cdx))
    ts = [cdx.parse_timestamp14(e.timestamp14) for e in entries]
    assert full[0] <= min(ts) and full[1] >= max(ts)


def test_selectivity_half_is_middle(bench_dataset):
    _, spec, paths = bench_dataset
    [rng] = selectivity_ranges(paths.cdx, [0.5])
    entries = list(cdx.parse_cdx(paths.cdx))
    ts = sorted(cdx.parse_timestamp14(e.timestamp14) for e in entries)
    matched = sum(1 for t in ts if rng[0] <= t <= rng[1])
    assert abs(matched / len(ts) - 0.5) <= 0.05
    # the quantile window is centered: roughly a quarter below, a quarter above
    assert ts[len(ts) // 8] < rng[0] < ts[len(ts) // 2]


def test_selectivity_unachievable(bench_dataset):
    _, _, paths = bench_dataset
    with pytest.raises(Unachievable):
        selectivity_ranges(paths.cdx, [1e-9])


def test_suite_single_cell(bench_dataset, tmp_path):
    root, _, paths = bench_dataset
    config = SuiteConfig(
        paths=paths,
        out_csv=str(tmp_path / "one.csv"),
        backends=("carc",),
        tasks=("t1",),
        selectivities=(1.0,),
        repeats=1,
    )
    out = run_suite(config)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["task"] == "t1" and rows[0]["backend"] == "carc"


def test_suite_t4_sweep_shapes(bench_dataset, tmp_path):
    root, _, paths = bench_dataset
    config = SuiteConfig(
        paths=paths,
        out_csv=str(tmp_path / "sweep.csv"),
        backends=("warc", "warc_cdx"),
        tasks=("t4",),
        selectivities=(0.01, 0.1, 0.5, 1.0),
        repeats=2,
    )
    out = run_suite(config)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    warc_bytes = sorted(
        int(r["bytes_read"]) for r in rows if r["backend"] == "warc" and r["repeat"] == "0"
    )
    cdx_bytes = [
        int(r["bytes_read"])
        for r in rows
        if r["backend"] == "warc_cdx" and r["repeat"] == "0"
    ]
    assert len(set(warc_bytes)) == 1
    assert cdx_bytes == sorted(cdx_bytes) and cdx_bytes[0] < cdx_bytes[-1]
    # at s = 1 every record is fetched, in file order, so each file is one read after the CDX pass
    [full] = [r for r in rows if r["backend"] == "warc_cdx" and r["selectivity"] == "1" and r["repeat"] == "0"]
    assert int(full["seek_count"]) == 1 + len(paths.warc_files)
    # determinism across repeats for everything but wall time
    for key in ("bytes_read", "seek_count", "records_out"):
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["task"], r["backend"], r["selectivity"]), set()).add(r[key])
        assert all(len(v) == 1 for v in by_cell.values())


def test_suite_parses_the_cdx_once(bench_dataset, tmp_path, monkeypatch):
    from archfmt import bench

    _, _, paths = bench_dataset
    calls = []
    real = bench.cdx.parse_cdx
    monkeypatch.setattr(bench.cdx, "parse_cdx", lambda *a, **k: calls.append(a) or real(*a, **k))
    config = SuiteConfig(paths=paths, out_csv=str(tmp_path / "once.csv"), backends=("carc",),
                         tasks=("t1", "t2", "t3", "t4", "t5", "single_url"), selectivities=(0.1, 1.0), repeats=1)
    run_suite(config)
    assert calls == [(paths.cdx,)]


def test_modeled_crossover_at_full_selectivity(bench_dataset, tmp_path):
    """An indexed point-read plan costs more than one sequential scan at s=1."""
    from archfmt.bench import modeled_ms
    from archfmt.query import QuerySpec, run_query

    _, spec, paths = bench_dataset
    [rng] = selectivity_ranges(paths.cdx, [1.0])
    q = QuerySpec(kind="records", time_range=rng)
    cdx_m = run_query(q, "warc_cdx", paths, keep_rows=False).measurement
    warc_m = run_query(q, "warc", paths, keep_rows=False).measurement
    assert modeled_ms(cdx_m) > modeled_ms(warc_m)


def test_report_outputs(bench_dataset, tmp_path):
    root, _, paths = bench_dataset
    config = SuiteConfig(
        paths=paths,
        out_csv=str(tmp_path / "r.csv"),
        backends=("warc", "carc"),
        tasks=("t2",),
        selectivities=(0.1, 1.0),
        repeats=1,
    )
    out = run_suite(config)
    files = emit_report(out, tmp_path / "report")
    svgs = [f for f in files if f.endswith(".svg")]
    assert len(svgs) == 1
    svg = Path(svgs[0]).read_text()
    assert svg.count("<polyline") == 2
    assert "legend" in svg or "warc" in svg
    sizes = [f for f in files if f.endswith("sizes.tsv")]
    assert len(sizes) == 1
    table = Path(sizes[0]).read_text()
    # reference full-scale ratio, normalized to the warc baseline (0.914/0.985)
    assert "carc" in table and "0.928" in table
    assert any(f.endswith("summary.txt") for f in files)


def test_report_empty_csv(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(BadCsv):
        emit_report(empty, tmp_path / "rep")


@pytest.mark.parametrize("field, value", [
    ("wall_ms", "abc"),
    ("wall_ms", "nan"),
    ("modeled_ms", "inf"),
    ("selectivity", "0"),
    ("selectivity", "-0.5"),
    ("dataset_bytes", "1.5"),
    ("dataset_bytes", "-1"),
    (None, None),  # a row of two fields
])
def test_report_malformed_row_is_bad_csv_at_its_line(tmp_path, field, value):
    good = ["t2", "warc", "0.1", "0", "5.0", "100", "1", "1", "3", "12.0", "1000"]
    bad = ["t2", "warc"] if field is None else [value if name == field else v for name, v in zip(CSV_HEADER, good)]
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(r) for r in (CSV_HEADER, good, good, bad, good)) + "\n", encoding="utf-8")
    with pytest.raises(BadCsv, match=re.escape(f"{path}:4: ")):
        emit_report(path, tmp_path / "rep")
    path.write_text("\n".join(",".join(r) for r in (CSV_HEADER, good)) + "\n", encoding="utf-8")
    assert len(emit_report(path, tmp_path / "rep")) == 3
