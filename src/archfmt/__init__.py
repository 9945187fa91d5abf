"""archfmt: WARC/CDX tooling plus columnar (CARC) and row-binary (RARC)
containers, with a uniform query layer and a benchmark harness."""

from .carc import CarcSchema, Column, ScanPredicate, plan_row_groups, read_carc, write_carc
from .cdx import build_cdx, parse_cdx, parse_timestamp14, timestamp14_of
from .convert import CANONICAL_SCHEMA, CanonicalRecord, canonicalize_url, to_canonical
from .iostats import IoTracker, Measurement
from .query import DatasetPaths, QuerySpec, extract_links, extract_text, run_query, scan_extract
from .rarc import read_rarc, resync, write_rarc
from .warc import RecordLocation, WarcRecord, read_record_at, scan_warc, write_warc

__all__ = [
    "CANONICAL_SCHEMA", "CanonicalRecord", "CarcSchema", "Column", "DatasetPaths",
    "IoTracker", "Measurement", "QuerySpec", "RecordLocation", "ScanPredicate",
    "WarcRecord", "build_cdx", "canonicalize_url", "extract_links",
    "extract_text", "parse_cdx", "parse_timestamp14",
    "plan_row_groups", "read_carc", "read_rarc", "read_record_at", "resync",
    "run_query", "scan_extract", "scan_warc", "timestamp14_of", "to_canonical",
    "write_carc", "write_rarc", "write_warc",
]
