"""Smoke test of the benchmark: each workload once at toy scale.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON = ("setup_s", "modeled_s", "peak_rss_mb", "failed_ops_ratio")
NAMED = {
    "scan": (
        "scan_rec_s.warc", "scan_rec_s.carc", "scan_rec_s.rarc",
        "extract_links_docs_s", "extract_text_docs_s", "carc_bytes_ratio", "rarc_bytes_ratio",
    ),
    "lookup": (
        "query_ms_p50.warc_cdx", "query_ms_p90.warc_cdx", "query_ms_p50.carc", "query_ms_p90.carc",
    ),
    "ingest": ("ingest_rec_s", "carc_bytes_ratio", "rarc_bytes_ratio"),
}


def _run(workload: str, trace: int) -> tuple[dict[str, tuple[float, str]], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            printed[parts[0]] = (float(parts[1]), parts[2])
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_end_to_end_run(workload):
    printed, result = _run(workload, trace=0)
    for name in COMMON + NAMED[workload]:
        assert name in printed, f"{name} not printed"
    assert printed["failed_ops_ratio"][0] == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_run(workload):
    printed, result = _run(workload, trace=1)
    assert printed["failed_ops_ratio"][0] == 0
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["bench.gen_s"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    """Outside a checkout the benchmark prints no result and exits non-zero."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
