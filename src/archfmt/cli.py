"""Command-line entry point: gen, index, convert, query, bench, report.

Exit codes: 0 success, 1 usage error, 2 data error (or any other failure),
3 I/O error.
Machine-readable output goes to stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, cdx, query
from .convert import MAX_MS, MIN_MS, canonicalize_url, convert as _convert, parse_warc_date
from .errors import ArchfmtError, IoFailure
from .query import DatasetPaths, QuerySpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="archfmt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic synthetic WARC corpus")
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--domains", type=int, default=50)
    p.add_argument("--payload-mean", type=int, default=4096)
    p.add_argument("--html-fraction", type=float, default=0.9)
    p.add_argument("--redundancy", type=float, default=0.7)

    p = sub.add_parser("index", help="build a sorted CDX index from WARC files")
    p.add_argument("warcs", nargs="+")
    p.add_argument("--out", required=True, help="CDX output path")

    p = sub.add_parser("convert", help="convert WARC files to CARC or RARC")
    p.add_argument("warcs", nargs="+")
    p.add_argument("--target", choices=("carc", "rarc"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sort", choices=("none", "timestamp", "urlkey"), default="none")
    p.add_argument("--codec", choices=("none", "gzip"), default="gzip")
    p.add_argument("--rows-per-group", type=int, default=4096)
    p.add_argument("--rows-per-block", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("bench", help="run the task suite and write a CSV")
    p.add_argument("--warc", nargs="+", required=True)
    p.add_argument("--cdx")
    p.add_argument("--carc")
    p.add_argument("--rarc")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--tasks", default="t1,t2,t3,t4,t5,t6,single_url")
    p.add_argument("--backends", default=",".join(query.BACKENDS))
    p.add_argument("--selectivities", default="0.001,0.01,0.1,0.5,1.0")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seek-ms", type=float, default=10.0)
    p.add_argument("--mb-per-s", type=float, default=100.0)
    p.add_argument("--extractor", choices=("text", "links"), default="links")
    p.add_argument("--seed", type=int, default=0)

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


def _query_paths(args) -> DatasetPaths:
    if args.backend in ("warc", "warc_cdx") and not args.warc:
        raise UsageError(f"backend {args.backend} requires --warc")
    if args.backend == "warc_cdx" and not args.cdx:
        raise UsageError("backend warc_cdx requires --cdx")
    if args.backend in ("carc", "rarc") and not args.data:
        raise UsageError(f"backend {args.backend} requires --data")
    return DatasetPaths(
        warc_files=tuple(args.warc),
        cdx=args.cdx,
        carc=args.data if args.backend == "carc" else None,
        rarc=args.data if args.backend == "rarc" else None,
    )


def _query_spec(args) -> QuerySpec:
    projection = tuple(args.projection.split(","))
    if args.time_from or args.time_to:
        if args.url_file:
            raise UsageError("--from/--to and --url-file are mutually exclusive")
        lo = _parse_instant(args.time_from, end=False) if args.time_from else MIN_MS
        hi = _parse_instant(args.time_to, end=True) if args.time_to else MAX_MS
        return QuerySpec(args.kind, time_range=(lo, hi), projection=projection)
    if args.url_file:
        with open(args.url_file, encoding="utf-8") as fh:
            keys = tuple(canonicalize_url(line.strip()) for line in fh if line.strip())
        return QuerySpec(args.kind, urlkeys=keys, projection=projection)
    return QuerySpec(args.kind, projection=projection)


def _cmd_gen(args) -> int:
    spec = bench.SyntheticSpec(
        record_count=args.records,
        domain_count=args.domains,
        payload_mean_bytes=args.payload_mean,
        html_fraction=args.html_fraction,
        template_redundancy=args.redundancy,
        seed=args.seed,
    )
    for path in bench.generate_corpus(spec, args.out):
        print(path)
    return 0


def _cmd_index(args) -> int:
    print(cdx.build_cdx(args.warcs, args.out))
    return 0


def _cmd_convert(args) -> int:
    manifest = _convert(
        args.warcs,
        target=args.target,
        out_dir=args.out_dir,
        sort=args.sort,
        rows_per_group=args.rows_per_group,
        rows_per_block=args.rows_per_block,
        codec=args.codec,
        seed=args.seed,
        timestamp_as_text=args.timestamp_as_text,
    )
    print(manifest.path)
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


def _cmd_bench(args) -> int:
    paths = DatasetPaths(
        warc_files=tuple(args.warc), cdx=args.cdx, carc=args.carc, rarc=args.rarc
    )
    config = bench.SuiteConfig(
        paths=paths,
        out_csv=args.out,
        backends=tuple(args.backends.split(",")),
        tasks=tuple(args.tasks.split(",")),
        selectivities=tuple(float(s) for s in args.selectivities.split(",")),
        repeats=args.repeats,
        seek_ms=args.seek_ms,
        mb_per_s=args.mb_per_s,
        extractor=args.extractor,
        seed=args.seed,
    )
    print(bench.run_suite(config))
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
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
