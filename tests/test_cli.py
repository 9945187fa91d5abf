import csv
import json
import os
import re
import shutil
from pathlib import Path

import pytest

from archfmt import query
from archfmt.bench import SyntheticSpec, generate_corpus
from archfmt.cli import _COMMANDS, _build_parser, main
from archfmt.convert import convert
from archfmt.query import DatasetPaths
from test_carc import HOSTILE_FOOTERS, HOSTILE_IDS, OLD_IDS, OLD_VERSIONS, SCHEMA, make_rows, write_hostile_footer
from test_query import forged_index


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_smoke(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "gen", "--records", "20", "--seed", "42", "--payload-mean", "500",
        "--out", str(tmp_path / "w"),
    )
    assert code == 0
    files = out.strip().splitlines()
    assert len(files) == 1 and files[0].endswith(".warc.gz")


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen", "--records", "40", "--seed", "42", "--payload-mean", "600",
                 "--out", str(root / "w")]) == 0
    warc = str(next((root / "w").glob("*.warc.gz")))
    assert main(["index", warc, "--out", str(root / "i.cdx")]) == 0
    assert main(["convert", warc, "--target", "carc", "--out-dir", str(root / "c")]) == 0
    assert main(["convert", warc, "--target", "rarc", "--out-dir", str(root / "r")]) == 0
    return {
        "root": root,
        "warc": warc,
        "cdx": str(root / "i.cdx"),
        "carc": str(root / "c" / "data.carc"),
        "rarc": str(root / "r" / "data.rarc"),
    }


def test_query_count_carc(cli_dataset, capsys):
    capsys.readouterr()
    code, out, _ = run(
        capsys, "query", "count", "--backend", "carc", "--data", cli_dataset["carc"]
    )
    assert code == 0
    assert out.strip() == "40"


def test_query_count_all_backends_agree(cli_dataset, capsys):
    capsys.readouterr()
    outs = set()
    for argv in (
        ["query", "count", "--backend", "warc", "--warc", cli_dataset["warc"]],
        ["query", "count", "--backend", "warc_cdx", "--warc", cli_dataset["warc"],
         "--cdx", cli_dataset["cdx"]],
        ["query", "count", "--backend", "carc", "--data", cli_dataset["carc"]],
        ["query", "count", "--backend", "rarc", "--data", cli_dataset["rarc"]],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.add(out.strip())
    assert outs == {"40"}


def test_query_missing_cdx_flag(cli_dataset, capsys):
    capsys.readouterr()
    code, out, err = run(
        capsys, "query", "meta", "--backend", "warc_cdx", "--warc", cli_dataset["warc"]
    )
    assert code == 1
    assert "--cdx" in err
    assert out == ""


def test_query_names_every_missing_input_flag(capsys):
    code, out, err = run(capsys, "query", "count", "--backend", "warc_cdx")
    assert (code, out) == (1, "")
    assert "--cdx" in err and "--warc" in err


@pytest.mark.parametrize("argv, keys", [
    (["gen", "--records", "1", "--out", "o"], {"record_count", "out"}),
    (["convert", "w.warc", "--target", "carc", "--out-dir", "o"], {"warc_files", "target", "out_dir"}),
    (["bench", "--warc", "w.warc", "--out", "b.csv"], {"warc_files", "out_csv"}),
])
def test_an_omitted_option_is_not_passed_on(argv, keys):
    """So the library's default applies, written only in the library."""
    assert set(vars(_build_parser().parse_args(argv))) == {"command"} | keys


def test_cli_defaults_write_what_the_library_defaults_write(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--records", "12", "--out", str(tmp_path / "cli"))
    [warc] = out.split()
    [want] = generate_corpus(SyntheticSpec(record_count=12), tmp_path / "lib")
    assert code == 0 and Path(warc).read_bytes() == Path(want).read_bytes()
    for target in ("carc", "rarc"):
        assert main(["convert", warc, "--target", target, "--out-dir", str(tmp_path / f"cli-{target}")]) == 0
        want = convert([warc], target, tmp_path / f"lib-{target}").output
        assert (tmp_path / f"cli-{target}" / f"data.{target}").read_bytes() == Path(want).read_bytes()


@pytest.mark.parametrize("argv", [[]] + [[command] for command in _COMMANDS])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: archfmt")


def test_bench_lists_parse_to_tuples():
    args = _build_parser().parse_args(["bench", "--warc", "w.warc", "--out", "b.csv", "--tasks", "t1,t2",
                                       "--backends", "carc", "--selectivities", "0.5,1"])
    assert (args.tasks, args.backends, args.selectivities) == (("t1", "t2"), ("carc",), (0.5, 1.0))


@pytest.mark.parametrize("option, value", [("--selectivities", "0.5,x"), ("--selectivities", ""), ("--repeats", "x")])
def test_malformed_bench_option_is_usage_error(tmp_path, capsys, option, value):
    capsys.readouterr()
    code, _, err = run(capsys, "bench", "--warc", str(tmp_path / "w.warc"), "--out", str(tmp_path / "b.csv"),
                       option, value)
    assert code == 1 and err.startswith("usage error:") and option in err


def test_unknown_flag_is_usage_error(capsys):
    capsys.readouterr()
    code, _, err = run(capsys, "gen", "--records", "1", "--out", "x", "--bogus")
    assert code == 1
    assert "--bogus" in err


def test_query_time_range_flags(cli_dataset, capsys):
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "query", "count", "--backend", "carc", "--data", cli_dataset["carc"],
        "--from", "2018-05-20T00:00:00Z", "--to", "2018-05-23T23:59:59Z",
    )
    assert code == 0
    assert out.strip() == "40"  # generator window is inside the range
    code, out, _ = run(
        capsys,
        "query", "count", "--backend", "carc", "--data", cli_dataset["carc"],
        "--from", "19700101000000", "--to", "19700102000000",
    )
    assert code == 0 and out.strip() == "0"


def test_query_meta_stdout_is_tabular(cli_dataset, capsys):
    capsys.readouterr()
    code, out, _ = run(
        capsys, "query", "meta", "--backend", "rarc", "--data", cli_dataset["rarc"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 40
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_bench_and_report_end_to_end(cli_dataset, tmp_path, capsys):
    capsys.readouterr()
    out_csv = str(tmp_path / "b.csv")
    code, out, _ = run(
        capsys,
        "bench", "--warc", cli_dataset["warc"], "--cdx", cli_dataset["cdx"],
        "--carc", cli_dataset["carc"], "--rarc", cli_dataset["rarc"],
        "--out", out_csv, "--tasks", "t1,t2", "--selectivities", "0.5,1.0",
        "--repeats", "1",
    )
    assert code == 0 and out.strip() == out_csv
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    # t1 runs once per backend; t2 once per backend per selectivity
    assert len(rows) == 4 + 4 * 2
    paths = DatasetPaths((cli_dataset["warc"],), cli_dataset["cdx"], cli_dataset["carc"], cli_dataset["rarc"])
    assert paths.files("warc_cdx") == [cli_dataset["cdx"], cli_dataset["cdx"] + ".idx", cli_dataset["warc"]]
    for r in rows:
        assert int(r["dataset_bytes"]) == sum(os.path.getsize(f) for f in paths.files(r["backend"]))
    code, out, _ = run(capsys, "report", "--csv", out_csv, "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    assert any(p.endswith(".svg") for p in out.strip().splitlines())


def test_data_error_exit_code(tmp_path, capsys):
    capsys.readouterr()
    bad = tmp_path / "bad.carc"
    bad.write_bytes(b"not a carc file at all")
    code, _, err = run(capsys, "query", "count", "--backend", "carc", "--data", str(bad))
    assert code == 2 and err != ""


def test_io_error_exit_code(capsys):
    capsys.readouterr()
    code, _, _ = run(
        capsys, "query", "count", "--backend", "carc", "--data", "/nonexistent/x.carc"
    )
    assert code == 3


def test_query_unknown_projection_is_data_error(cli_dataset, capsys):
    capsys.readouterr()
    code, out, err = run(
        capsys, "query", "meta", "--backend", "carc", "--data", cli_dataset["carc"],
        "--projection", "urlkey,bogus",
    )
    assert code == 2
    assert err.startswith("error:") and "bogus" in err
    assert out == ""


@pytest.mark.parametrize("field, value", HOSTILE_FOOTERS, ids=HOSTILE_IDS)
def test_query_meta_on_hostile_footer_is_data_error(cli_dataset, tmp_path, capsys, field, value):
    capsys.readouterr()
    path = tmp_path / "h.carc"
    shutil.copyfile(cli_dataset["carc"], path)
    write_hostile_footer(path, field, value)
    code, out, err = run(capsys, "query", "meta", "--backend", "carc", "--data", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}@") and "cannot decode footer" in err


def test_inspect_carc_prints_footer_and_page_index(cli_dataset, capsys):
    from archfmt.carc import read_footer

    capsys.readouterr()
    code, out, err = run(capsys, "inspect", cli_dataset["carc"])
    assert code == 0 and err == ""
    shown = json.loads(out)
    footer = read_footer(cli_dataset["carc"])
    assert (shown["format"], shown["version"], shown["total_rows"]) == ("CARC", 4, 40)
    data = Path(cli_dataset["carc"]).read_bytes()
    assert shown["footer_len"] == int.from_bytes(data[-12:-4], "little")  # the trailer's
    assert shown["page_count"] == sum(len(c.pages) for g in footer.row_groups for c in g.chunks)
    assert shown["schema"] == footer.schema.to_text().splitlines()
    for g, group in zip(footer.row_groups, shown["row_groups"], strict=True):
        assert group["row_count"] == g.row_count
        for c, col, chunk in zip(g.chunks, footer.schema.columns, group["chunks"], strict=True):
            assert (chunk["column"], chunk["offset"], chunk["compressed_len"]) == (col.name, c.chunk_offset, c.chunk_compressed_len)
            assert [(p["row_count"], p["compressed_len"], p["uncompressed_len"]) for p in chunk["pages"]] == [
                p[:3] for p in c.pages
            ]
    urlkey = shown["row_groups"][0]["chunks"][0]
    assert urlkey["column"] == "urlkey" and urlkey["min"] == footer.row_groups[0].chunks[0].min.decode()


def test_inspect_rarc_prints_block_layout(tmp_path, capsys):
    from archfmt.rarc import encode_rows, write_rarc

    path = tmp_path / "b.rarc"
    rows = make_rows(50, seed=3)
    write_rarc(rows, SCHEMA, path, rows_per_block=16)
    capsys.readouterr()
    code, out, err = run(capsys, "inspect", str(path))
    assert code == 0 and err == ""
    shown = json.loads(out)
    assert (shown["format"], shown["codec"], shown["schema"]) == ("RARC", "gzip", SCHEMA.to_text().splitlines())
    blocks = shown["blocks"]
    assert [b["rows"] for b in blocks] == [16, 16, 16, 2]
    assert blocks[0]["offset"] == shown["header_len"]
    ends = [b["offset"] + 20 + b["stored_len"] + 16 for b in blocks]  # head, stored bytes, sync marker
    assert [b["offset"] for b in blocks[1:]] + [path.stat().st_size] == ends
    assert [b["raw_len"] for b in blocks] == [len(encode_rows(rows[i : i + 16], SCHEMA)) for i in range(0, 50, 16)]


@pytest.mark.parametrize("fmt", ["carc", "rarc", *OLD_IDS, "other"])
def test_inspect_bad_input_is_data_error(cli_dataset, tmp_path, capsys, fmt):
    path = tmp_path / "bad.bin"
    old = {f"v{version}": data for version, data in OLD_VERSIONS}
    if fmt in old:
        path.write_bytes(old[fmt])
    elif fmt == "other":
        path.write_bytes(b"WARC/1.1\r\n")
    else:
        data = Path(cli_dataset[fmt]).read_bytes()
        path.write_bytes(data[: len(data) * 2 // 3])  # truncated
    capsys.readouterr()
    code, out, err = run(capsys, "inspect", str(path))
    assert code == 2 and out == ""
    assert re.match(rf"error: {re.escape(str(path))}@\d+: ", err), err
    assert fmt not in old or f"CARC version {fmt[1:]};" in err


@pytest.mark.parametrize("version, data", OLD_VERSIONS, ids=OLD_IDS)
def test_query_on_older_version_carc_is_data_error(tmp_path, capsys, version, data):
    path = tmp_path / "old.carc"
    path.write_bytes(data)
    capsys.readouterr()
    code, out, err = run(capsys, "query", "count", "--backend", "carc", "--data", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}@") and f"CARC version {version};" in err


@pytest.mark.parametrize("text, where", [
    (b"http://a.example/\nhttp://b.example/caf\xe9\n", "@38: URL file is not UTF-8"),  # 18 + 20 bytes before the \xe9
    (b"http://a.example/\n\n  a.example/b  \r\n", ":3: 'a.example/b'"),
], ids=["not_utf8", "not_absolute"])
def test_bad_url_file_is_located_data_error(cli_dataset, tmp_path, capsys, text, where):
    urls = tmp_path / "urls.txt"
    urls.write_bytes(text)
    capsys.readouterr()
    code, out, err = run(capsys, "query", "meta", "--backend", "carc", "--data", cli_dataset["carc"],
                         "--url-file", str(urls))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {urls}{where}"), err


def test_unexpected_error_exits_2(cli_dataset, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(query, "run_query", fail)
    capsys.readouterr()
    code, out, err = run(capsys, "query", "count", "--backend", "carc", "--data", cli_dataset["carc"])
    assert code == 2
    assert err == "error: ValueError: boom\n" and out == ""


def test_query_count_on_footer_with_bytes_timestamp_stat_is_data_error(cli_dataset, tmp_path, capsys):
    from archfmt.convert import COL

    capsys.readouterr()
    path = tmp_path / "t.carc"
    shutil.copyfile(cli_dataset["carc"], path)
    write_hostile_footer(path, "page_max", b"\x00" * 8, column=COL["timestamp"])
    code, out, err = run(
        capsys, "query", "count", "--backend", "carc", "--data", str(path),
        "--from", "20180101000000", "--to", "20190101000000",
    )
    assert code == 2
    assert err.startswith(f"error: {path}@") and out == ""


def test_index_of_non_ascii_warc_date_is_data_error(tmp_path, capsys):
    from archfmt.warc import make_record, write_warc

    record = make_record(
        "<urn:uuid:00000000-0000-4000-a000-000000000002>", "response", "http://d.example/",
        "2018-05-21T08:00:00.²Z", "application/http; msgtype=response",
        b"HTTP/1.1 200 OK\r\n\r\nhi",
    )
    warc = tmp_path / "d.warc"
    write_warc([record], warc)
    for argv in (["index", str(warc), "--out", str(tmp_path / "d.cdx")],
                 ["query", "count", "--backend", "warc", "--warc", str(warc)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "ValueError" not in err, argv


def test_query_sub_second_bounds(tmp_path, capsys):
    from archfmt.warc import make_record, write_warc

    records = [
        make_record(
            f"<urn:uuid:00000000-0000-4000-a000-00000000001{i}>", "response", f"http://s{i}.example/",
            date, "application/http; msgtype=response", b"HTTP/1.1 200 OK\r\n\r\nhi",
        )
        for i, date in enumerate(["2018-05-21T08:00:00Z", "2018-05-21T08:00:00.500Z",
                                  "2018-05-21T08:00:00.999Z"])
    ]
    warc = tmp_path / "s.warc"
    write_warc(records, warc)
    assert main(["index", str(warc), "--out", str(tmp_path / "s.cdx")]) == 0
    base = ["query", "count", "--backend", "warc_cdx", "--warc", str(warc), "--cdx", str(tmp_path / "s.cdx")]
    for bounds, want in [
        (("20180521080000", "20180521080000"), "3"),  # a whole second
        (("20180521080000500", "20180521080000998"), "1"),
        (("2018-05-21T08:00:00.001Z", "2018-05-21T08:00:00.500Z"), "1"),
    ]:
        capsys.readouterr()
        code, out, _ = run(capsys, *base, "--from", bounds[0], "--to", bounds[1])
        assert (code, out.strip()) == (0, want), bounds


def _one_record_warc(tmp_path, date, target_uri="http://old.example/"):
    from archfmt.warc import make_record, write_warc

    record = make_record(
        "<urn:uuid:00000000-0000-4000-a000-000000000020>", "response", target_uri,
        date, "application/http; msgtype=response", b"HTTP/1.1 200 OK\r\n\r\nhi",
    )
    warc = tmp_path / "one.warc"
    write_warc([record], warc)
    return str(warc)


def _fails_on_every_command(tmp_path, capsys, warc, *details):
    """index, convert to carc and rarc, and a warc query each exit 2 with details."""
    for argv in (["index", warc, "--out", str(tmp_path / "d.cdx")],
                 ["convert", warc, "--target", "carc", "--out-dir", str(tmp_path / "c")],
                 ["convert", warc, "--target", "rarc", "--out-dir", str(tmp_path / "r")],
                 ["query", "count", "--backend", "warc", "--warc", warc]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and all(d in err for d in details), argv


def test_year_0999_fails_the_same_way_on_every_command(tmp_path, capsys):
    warc = _one_record_warc(tmp_path, "0999-12-31T23:59:59Z")
    _fails_on_every_command(tmp_path, capsys, warc, "one.warc@0: '0999-12-31T23:59:59Z': ", "1000-9999")


def test_relative_target_uri_fails_the_same_way_on_every_command(tmp_path, capsys):
    warc = _one_record_warc(tmp_path, "2018-05-21T08:00:00Z", target_uri="/relative")
    _fails_on_every_command(tmp_path, capsys, warc, "one.warc@0: '/relative'")


@pytest.mark.parametrize("bound", ["0999-12-31T23:59:59Z", "09991231235959", "09991231235959999",
                                   "10000-01-01T00:00:00Z"])
def test_query_bound_outside_the_years_is_data_error(tmp_path, capsys, bound):
    warc = _one_record_warc(tmp_path, "2018-05-21T08:00:00Z")
    for flag in ("--from", "--to"):
        code, out, err = run(capsys, "query", "count", "--backend", "warc", "--warc", warc, flag, bound)
        assert (code, out) == (2, "") and err.startswith("error: "), (flag, bound)


def test_open_query_bounds_cover_the_whole_range(tmp_path, capsys):
    """An omitted --from or --to is the first or last instant of the years 1000-9999."""
    for date, bound in (("1969-12-31T23:59:59Z", ("--to", "1970-01-01T00:00:00Z")),
                        ("1000-01-01T00:00:00Z", ("--to", "10000101000000")),
                        ("9999-12-31T23:59:59.999Z", ("--from", "99991231235959999"))):
        warc = _one_record_warc(tmp_path, date)
        code, out, _ = run(capsys, "query", "count", "--backend", "warc", "--warc", warc, *bound)
        assert (code, out.strip()) == (0, "1"), date


@pytest.mark.parametrize("target", ["carc", "rarc"])
def test_time_bound_on_a_text_timestamp_container_is_data_error(tmp_path, capsys, target):
    warc = _one_record_warc(tmp_path, "2018-05-21T08:00:00Z")
    code, _, _ = run(capsys, "convert", warc, "--target", target, "--out-dir", str(tmp_path / target),
                     "--timestamp-as-text")
    assert code == 0
    data = str(tmp_path / target / f"data.{target}")
    code, out, err = run(capsys, "query", "count", "--backend", target, "--data", data,
                         "--from", "20180520000000")
    assert (code, out) == (2, "") and err.startswith("error: column timestamp: "), err


def test_warc_cdx_record_not_of_its_cdx_line_is_data_error(tmp_path, capsys):
    paths = forged_index(tmp_path)
    code, out, err = run(capsys, "query", "records", "--backend", "warc_cdx",
                         "--warc", *paths.warc_files, "--cdx", paths.cdx)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "f.warc@0: not the record of the CDX line example,a)/ " in err
