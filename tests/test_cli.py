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
