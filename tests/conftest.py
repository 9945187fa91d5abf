import hashlib
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from archfmt import carc, cdx, query
from archfmt.bench import SyntheticSpec, generate_corpus
from archfmt.convert import convert
from archfmt.warc import make_record


def synth_records(n, seed=0, html=True):
    """Small handmade records, distinct from the bench generator."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        if html:
            body = f"<html><body><p>page {i} {'x' * rng.randint(10, 200)}</p></body></html>".encode()
            mime = "text/html"
        else:
            body = bytes(rng.randrange(256) for _ in range(rng.randint(20, 300)))
            mime = "application/octet-stream"
        http = (
            f"HTTP/1.1 200 OK\r\nContent-Type: {mime}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        records.append(
            make_record(
                record_id=f"<urn:uuid:00000000-0000-4000-8000-{i:012d}>",
                record_type="response",
                target_uri=f"http://site{i % 5}.example/p/{i}",
                warc_date=f"2018-05-2{rng.randint(0, 2)}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z",
                content_type="application/http; msgtype=response",
                block=http,
            )
        )
    return records


def request_record(i):
    body = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
    return make_record(
        record_id=f"<urn:uuid:00000000-0000-4000-9000-{i:012d}>",
        record_type="request",
        target_uri=f"http://site{i % 5}.example/p/{i}",
        warc_date="2018-05-21T12:00:00Z",
        content_type="application/http; msgtype=request",
        block=body,
    )


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Seed-42 generator corpus with CDX, CARC (time-sorted) and RARC artifacts."""
    root = tmp_path_factory.mktemp("corpus42")
    spec = SyntheticSpec(record_count=500, payload_mean_bytes=1500, domain_count=10, seed=42)
    warc_files = generate_corpus(spec, root / "warc")
    cdx_path = root / "index.cdx"
    cdx.build_cdx(warc_files, cdx_path)
    carc_manifest = convert(warc_files, "carc", root / "carc", sort="timestamp", rows_per_group=64)
    rarc_manifest = convert(warc_files, "rarc", root / "rarc", seed=7, rows_per_block=50)
    return {
        "spec": spec,
        "root": root,
        "paths": query.DatasetPaths(
            warc_files=tuple(warc_files),
            cdx=str(cdx_path),
            carc=carc_manifest.output,
            rarc=rarc_manifest.output,
        ),
    }


class CountingPool:
    """A stand-in for carc._POOL that counts the units submitted to it."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


@contextmanager
def at_threads(n, gate=0):
    """carc.ordered_map on n threads, 1 (no pool) or 2 (the caller and the
    pool), its 128 KiB gate at gate (at 0 the small units of test files
    take the pool), and the pool counted: yields the CountingPool."""
    pool = CountingPool(carc._POOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(carc, "_PARALLEL", n == 2)
        mp.setattr(carc, "_INLINE_BYTES", gate)
        mp.setattr(carc, "_POOL", pool)
        yield pool


def written_at_one_and_two_threads(write):
    """The SHA-256 of each file write(n) writes and returns, at n = 1 and 2
    threads (see at_threads: at gate 0 every unit takes the pool), and the
    number of units the 2-thread pass sent to the pool."""
    digests = {}
    for n in (1, 2):
        with at_threads(n) as pool:
            digests[n] = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in write(n)]
    return digests, pool.submitted


@pytest.fixture(params=[1, 2], ids=["1thread", "2threads"])
def threads(request):
    """Run a test on 1 and 2 threads, the small units of test files taking
    the pool at 2 (see at_threads)."""
    with at_threads(request.param):
        yield request.param


@pytest.fixture(scope="session", autouse=True)
def carc_footers_read_as_written():
    """Every CARC file a test writes reads back the footer its writer built:
    the writer and the footer reader derive the same chunks from the pages."""
    write_footer = carc._write_footer

    def checked(out, footer):
        write_footer(out, footer)
        out.flush()
        assert carc.read_footer(out.name) == footer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(carc, "_write_footer", checked)
        yield


# The tests of the full-scale acceptance dataset, cheapest first.  Minutes
# each at 200k records on a 2-vCPU VM: 7 none, 3 one, 1 two, 6 two, 5 eight.
_DATASET_ORDER = (
    "test_criterion_7_size_ordering",
    "test_criterion_3_type1_projection_effect",
    "test_criterion_1_format_fidelity",
    "test_criterion_6_type3_scan_advantage",
    "test_criterion_5_selectivity_crossover",
)


def pytest_collection_modifyitems(items):
    """Mark the tests of the full-scale acceptance dataset full_scale, and
    run them last, cheapest first.  At the default 200k records that dataset
    takes about 12 min to build and its five tests about 12 min to run, so
    every other test of the session reports before it, and each of its tests
    before a dearer one.  ``pytest -m "not full_scale"`` runs all the others."""

    for item in items:
        if "dataset" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.full_scale)

    def cost(item):
        if not item.get_closest_marker("full_scale"):
            return 0, 0
        name = item.originalname
        return 1, _DATASET_ORDER.index(name) if name in _DATASET_ORDER else len(_DATASET_ORDER)

    items.sort(key=cost)
