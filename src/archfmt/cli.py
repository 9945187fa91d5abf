"""Command-line entry point: gen, index, convert, query, inspect, bench, report.

Exit codes: 0 success, 1 usage error, 2 data error (or any other failure),
3 I/O error.
Machine-readable output goes to stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, carc, cdx, query, rarc
from .convert import MAX_MS, MIN_MS, SORT_KEYS, canonicalize_url, convert as _convert, parse_warc_date
from .errors import ArchfmtError, BadMagic, IoFailure, LocatedError, NotAbsoluteUrl
from .query import DatasetPaths, QuerySpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))  # a ValueError is argparse's usage error


def _build_parser() -> _Parser:
    parser = _Parser(prog="archfmt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # gen, convert and bench pass on only the options given, under the library's
    # parameter names, so an omitted option takes the library's default.
    omit = argparse.SUPPRESS

    p = sub.add_parser("gen", help="generate a deterministic synthetic WARC corpus", argument_default=omit)
    p.add_argument("--records", dest="record_count", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--domains", dest="domain_count", type=int)
    p.add_argument("--payload-mean", dest="payload_mean_bytes", type=int)
    p.add_argument("--html-fraction", type=float)
    p.add_argument("--redundancy", dest="template_redundancy", type=float)

    p = sub.add_parser("index", help="build a sorted CDX index from WARC files")
    p.add_argument("warcs", nargs="+")
    p.add_argument("--out", required=True, help="CDX output path")

    p = sub.add_parser("convert", help="convert WARC files to CARC or RARC", argument_default=omit)
    p.add_argument("warc_files", metavar="warcs", nargs="+")
    p.add_argument("--target", choices=("carc", "rarc"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sort", choices=SORT_KEYS)
    p.add_argument("--codec", choices=carc.CODEC_ID)
    p.add_argument("--rows-per-group", type=int)
    p.add_argument("--rows-per-block", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--timestamp-as-text", action="store_true",
                   help="store the timestamp column as raw text (disables pushdown)")

    p = sub.add_parser("query", help="run a count/meta/records query on one backend")
    p.add_argument("kind", choices=query.KINDS)
    p.add_argument("--backend", choices=query.BACKENDS, required=True)
    p.add_argument("--warc", nargs="*", default=[], help="WARC files (warc/warc_cdx backends)")
    p.add_argument("--cdx")
    p.add_argument("--data", help="CARC or RARC file (carc/rarc backends)")
    p.add_argument("--from", dest="time_from", help="ISO-8601Z or 14/17-digit timestamp, inclusive")
    p.add_argument("--to", dest="time_to", help="ISO-8601Z or 14/17-digit timestamp, inclusive")
    p.add_argument("--url-file", help="one URL per line, canonicalized on load")
    p.add_argument("--projection", default=",".join(query.DEFAULT_META_PROJECTION),
                   help="comma-separated metadata columns (meta queries)")

    p = sub.add_parser("inspect", help="print a CARC footer or an RARC block layout as JSON")
    p.add_argument("file")

    p = sub.add_parser("bench", help="run the task suite and write a CSV", argument_default=omit)
    p.add_argument("--warc", dest="warc_files", nargs="+", required=True)
    p.add_argument("--cdx")
    p.add_argument("--carc")
    p.add_argument("--rarc")
    p.add_argument("--out", dest="out_csv", required=True, help="CSV output path")
    p.add_argument("--tasks", type=_names, help="comma-separated")
    p.add_argument("--backends", type=_names, help="comma-separated")
    p.add_argument("--selectivities", type=_numbers, help="comma-separated")
    p.add_argument("--repeats", type=int)
    p.add_argument("--extractor", choices=("text", "links"))
    p.add_argument("--seed", type=int)

    p = sub.add_parser("report", help="render SVG charts and tables from a bench CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out-dir", required=True)
    return parser


def _parse_instant(s: str, end: bool) -> int:
    """Epoch ms of a bound; an end given to the second includes that whole second."""
    if s.isdigit():
        ms, to_second = cdx.parse_timestamp14(s), len(s) == 14
    else:
        ms, to_second = parse_warc_date(s), "." not in s
    return ms + 999 if end and to_second else ms


_QUERY_FLAGS = {"warc_files": "--warc", "cdx": "--cdx", "carc": "--data", "rarc": "--data"}


def _query_paths(args) -> DatasetPaths:
    paths = DatasetPaths(tuple(args.warc), args.cdx, args.data, args.data)
    missing = [_QUERY_FLAGS[name] for name in paths.INPUTS[args.backend] if not getattr(paths, name)]
    if missing:
        raise UsageError(f"backend {args.backend} requires {' and '.join(missing)}")
    return paths


def _query_spec(args) -> QuerySpec:
    projection = tuple(args.projection.split(","))
    if args.time_from or args.time_to:
        if args.url_file:
            raise UsageError("--from/--to and --url-file are mutually exclusive")
        lo = _parse_instant(args.time_from, end=False) if args.time_from else MIN_MS
        hi = _parse_instant(args.time_to, end=True) if args.time_to else MAX_MS
        return QuerySpec(args.kind, time_range=(lo, hi), projection=projection)
    if args.url_file:
        return QuerySpec(args.kind, urlkeys=_url_keys(args.url_file), projection=projection)
    return QuerySpec(args.kind, projection=projection)


def _url_keys(path: str) -> tuple[str, ...]:
    """The urlkeys of a file of one URL per line.  Bytes that are not UTF-8
    are named at file@offset, a URL that is not absolute at file:line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LocatedError(path, exc.start, f"URL file is not UTF-8: {exc.reason}") from None
    keys = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                keys.append(canonicalize_url(line.strip()))
            except NotAbsoluteUrl as exc:
                raise NotAbsoluteUrl(f"{path}:{line_no}: {exc}") from None
    return tuple(keys)


def _cmd_gen(args) -> int:
    opts = vars(args)
    out = opts.pop("out")
    for path in bench.generate_corpus(bench.SyntheticSpec(**opts), out):
        print(path)
    return 0


def _cmd_index(args) -> int:
    print(cdx.build_cdx(args.warcs, args.out))
    return 0


def _cmd_convert(args) -> int:
    print(_convert(**vars(args)).path)
    return 0


def _cmd_query(args) -> int:
    spec = _query_spec(args)
    result = query.run_query(spec, args.backend, _query_paths(args))
    if args.kind == "count":
        print(result.rows[0])
    else:
        for row in result.rows:
            print("\t".join("" if v is None else str(v) for v in row))
    return 0


def _cmd_inspect(args) -> int:
    with open(args.file, "rb") as fh:
        magic = fh.read(4)
    describe = {carc.MAGIC: carc.describe, rarc.MAGIC: rarc.describe}.get(magic)
    if describe is None:
        raise BadMagic(f"{args.file}@0: neither a CARC nor an RARC file")
    print(json.dumps(describe(args.file), indent=1))
    return 0


def _cmd_bench(args) -> int:
    opts = vars(args)
    paths = DatasetPaths(tuple(opts.pop("warc_files")), *(opts.pop(name, None) for name in ("cdx", "carc", "rarc")))
    print(bench.run_suite(bench.SuiteConfig(paths, **opts)))
    return 0


def _cmd_report(args) -> int:
    for path in bench.emit_report(args.csv, args.out_dir):
        print(path)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "index": _cmd_index,
    "convert": _cmd_convert,
    "query": _cmd_query,
    "inspect": _cmd_inspect,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[vars(args).pop("command")](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IoFailure, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        detail = exc if isinstance(exc, ArchfmtError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
