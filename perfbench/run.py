"""archfmt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan|lookup|ingest --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout: the package is imported from ``src/``.
Set-up (corpus generation and the artifacts the workload reads) runs here,
several times from scratch, and ``setup_s`` is the median.  The measured
phase then runs in a child process (measure.py) so its peak RSS is its own.
Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_norm_s": "s",
    "op_norm_ms_gmean": "ms",
    "peak_rss_mb": "MB",
    "modeled_s": "s",
    "carc_bytes_ratio": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "lookup", "ingest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def _say(line: str) -> None:
    print(line, flush=True)


def _setup(args, wl, work_dir: Path, tracer) -> tuple[dict, list[float], list[float]]:
    """Run set-up repeatedly from scratch; every repeat must build the same corpus.

    Returns the plan, the wall time of each repeat, and each repeat's time
    normalized by the reference samples taken just before and after it."""
    times, normalized, records = [], [], []
    repeats = 1 if args.trace else wl.SCALES[args.scale][args.workload]["setups"]
    before = wl.reference_block(0.1)
    for _ in range(repeats):
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        plan = wl.setup(args.workload, args.seed, args.scale, work_dir, tracer)
        times.append(time.perf_counter() - t0)
        after = wl.reference_block(wl.REFERENCE_SHARE * times[-1])
        normalized.append(times[-1] * wl.REFERENCE_NOMINAL_S / statistics.median(before + after))
        before = after
        records.append(wl.determinism_record(plan))
    if any(r != records[0] for r in records):
        raise BenchError(f"set-up is not deterministic for seed {args.seed}: {records}")
    plan["determinism"] = records[0]
    return plan, times, normalized


def _measure(plan_path: Path, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(plan_path)],
            stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measured phase did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"measured phase exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    t_start = time.perf_counter()
    if not (SRC / "archfmt" / "__init__.py").is_file():
        raise BenchError(f"archfmt sources not found under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import measure
    import tracer as tracing
    import workloads as wl

    base = ROOT / ".perfbench_work"
    work_dir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    base.mkdir(exist_ok=True)
    need = wl.disk_bytes_needed(args.workload, args.scale)
    free = shutil.disk_usage(base).free
    if free < need:
        raise BenchError(f"only {free >> 20} MiB free under {base}, the {args.workload} workload needs {need >> 20} MiB")

    _say(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
         f"scale={args.scale} nproc={os.cpu_count()} python={platform.python_version()}")
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            plan, setup_times, setup_norm = _setup(args, wl, work_dir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        _say("determinism: " + json.dumps(plan["determinism"], sort_keys=True))
        _say("setup repeats, wall s: " + " ".join(f"{t:.3f}" for t in setup_times)
             + "; normalized s: " + " ".join(f"{t:.3f}" for t in setup_norm))

        plan.update(seconds=args.seconds, trace=bool(args.trace), src=str(SRC), trace_dir=str(base))
        plan_path = work_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        child = _measure(plan_path, DEADLINE_S - (time.perf_counter() - t_start))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = child["metrics"]
    if args.trace:
        summary = tracer.summary()
        metrics["bench.gen_s"] = summary.get("bench.generate_corpus", {}).get("total_s", 0.0)
        metrics["bench.selectivity_s"] = summary.get("bench.selectivity", {}).get("total_s", 0.0)
        units = measure.LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(setup_norm)
        units = END_TO_END_UNITS

    attempted, failed = child["attempted"], child["failed"]
    named = [(k, metrics[k], units[k], "") for k in units] + [tuple(n) for n in child["named"]]
    named.append(("failed_ops_ratio", failed / attempted if attempted else 1.0, "ratio", f"{failed}/{attempted} ops"))
    _say(f"rounds: {child['rounds']}")
    for name, value, unit, note in named:
        _say(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    for err in child["errors"]:
        _say("FAILED: " + err.rstrip())
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
