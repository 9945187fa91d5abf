import csv
import shutil

import pytest

from archfmt import query
from archfmt.cli import main
from test_carc import HOSTILE_FOOTERS, HOSTILE_IDS, write_hostile_footer


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
    assert err.startswith(f"error: {path}@")


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
    write_hostile_footer(path, "max", b"\x00" * 8, column=COL["timestamp"])
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


def _one_record_warc(tmp_path, date):
    from archfmt.warc import make_record, write_warc

    record = make_record(
        "<urn:uuid:00000000-0000-4000-a000-000000000020>", "response", "http://old.example/",
        date, "application/http; msgtype=response", b"HTTP/1.1 200 OK\r\n\r\nhi",
    )
    warc = tmp_path / "one.warc"
    write_warc([record], warc)
    return str(warc)


def test_year_0999_fails_the_same_way_on_every_command(tmp_path, capsys):
    warc = _one_record_warc(tmp_path, "0999-12-31T23:59:59Z")
    for argv in (["index", warc, "--out", str(tmp_path / "d.cdx")],
                 ["convert", warc, "--target", "carc", "--out-dir", str(tmp_path / "c")],
                 ["convert", warc, "--target", "rarc", "--out-dir", str(tmp_path / "r")],
                 ["query", "count", "--backend", "warc", "--warc", warc]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: '0999-12-31T23:59:59Z': ") and "1000-9999" in err, argv


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
