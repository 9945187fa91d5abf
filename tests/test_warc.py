import os
import random
import re

import pytest

from archfmt.errors import ArchfmtError, BadOffset, GzipCorrupt, LengthMismatch, MalformedHeader
from archfmt.warc import make_record, read_record_at, scan_warc, write_warc

from conftest import synth_records


def test_empty_file_scans_to_nothing(tmp_path):
    path = tmp_path / "empty.warc"
    path.write_bytes(b"")
    assert list(scan_warc(path)) == []


def test_three_record_plain_roundtrip_locations(tmp_path):
    records = synth_records(3)
    path = tmp_path / "three.warc"
    write_warc(records, path, mode="plain")
    scanned = list(scan_warc(path))
    assert len(scanned) == 3
    offsets = [loc.offset for _, loc in scanned]
    assert offsets == sorted(offsets) and len(set(offsets)) == 3
    last = scanned[-1][1]
    assert last.offset + last.stored_length == os.path.getsize(path)


def test_member_gzip_crc_flip_reports_member_offset(tmp_path):
    records = synth_records(2)
    path = tmp_path / "two.warc.gz"
    locs = write_warc(records, path, mode="member_gzip")
    data = bytearray(path.read_bytes())
    # CRC32 of a gzip member sits 8 bytes before its end.
    crc_pos = locs[1].offset + locs[1].stored_length - 8
    data[crc_pos] ^= 0xFF
    bad = tmp_path / "bad.warc.gz"
    bad.write_bytes(bytes(data))
    it = scan_warc(bad)
    record, loc = next(it)
    assert record.record_id == records[0].record_id
    with pytest.raises(GzipCorrupt) as exc:
        next(it)
    assert exc.value.offset == locs[1].offset


@pytest.mark.parametrize("mode", ["plain", "member_gzip"])
def test_read_record_at_matches_scan(tmp_path, mode):
    records = synth_records(3)
    path = tmp_path / f"f.{mode}.warc"
    write_warc(records, path, mode=mode)
    scanned = list(scan_warc(path))
    record2, loc2 = scanned[1]
    assert read_record_at(path, loc2).record_id == record2.record_id


def test_read_record_at_offset_zero_single_record(tmp_path):
    [record] = synth_records(1)
    path = tmp_path / "one.warc"
    [loc] = write_warc([record], path, mode="plain")
    assert loc.offset == 0
    assert read_record_at(path, loc).record_id == record.record_id


def test_read_record_at_mid_header_is_bad_offset(tmp_path):
    records = synth_records(1)
    path = tmp_path / "one.warc"
    [loc] = write_warc(records, path, mode="plain")
    shifted = type(loc)(file=loc.file, offset=1, stored_length=loc.stored_length - 1)
    with pytest.raises(BadOffset):
        read_record_at(path, shifted)


@pytest.mark.parametrize("offset, length", [(0, 10**15), (0, 2**63), (-5, 10), (0, -1), (10**15, 1), (2**63, 1)])
def test_read_record_at_outside_the_file_is_bad_offset(tmp_path, offset, length):
    path = tmp_path / "one.warc"
    [loc] = write_warc(synth_records(1), path, mode="plain")
    with pytest.raises(BadOffset, match=re.escape(f"{path}@{offset}: ")):
        read_record_at(path, type(loc)(file=loc.file, offset=offset, stored_length=length))


def test_write_empty_list(tmp_path):
    path = tmp_path / "none.warc"
    assert write_warc([], path, mode="plain") == []
    assert path.read_bytes() == b""


def test_plain_file_starts_with_version_line(tmp_path):
    path = tmp_path / "one.warc"
    write_warc(synth_records(1), path, mode="plain")
    assert path.read_bytes().startswith(b"WARC/1.1\r\n")


def test_hundred_records_member_gzip_roundtrip(tmp_path):
    records = synth_records(100, seed=3)
    path = tmp_path / "hundred.warc.gz"
    write_warc(records, path, mode="member_gzip")
    scanned = [r.record_id for r, _ in scan_warc(path)]
    assert scanned == [r.record_id for r in records]


@pytest.mark.parametrize("mode", ["plain", "member_gzip"])
def test_roundtrip_field_by_field_and_location_soundness(tmp_path, mode):
    rng = random.Random(11)
    for trial in range(8):
        n = rng.randint(0, 12)
        records = synth_records(n, seed=rng.randrange(10**6), html=bool(trial % 2))
        path = tmp_path / f"rt{mode}{trial}.warc"
        locs = write_warc(records, path, mode=mode)
        scanned = list(scan_warc(path))
        assert [loc for _, loc in scanned] == locs
        assert sum(loc.stored_length for loc in locs) == os.path.getsize(path)
        for original, (readback, loc) in zip(records, scanned):
            assert readback == original
            again = read_record_at(path, loc)
            assert again == original
        # Non-overlap: each record starts exactly where the previous ended.
        pos = 0
        for loc in locs:
            assert loc.offset == pos
            pos += loc.stored_length


def test_missing_version_line_is_malformed(tmp_path):
    path = tmp_path / "junk.warc"
    path.write_bytes(b"HTTP/1.1 200 OK\r\n\r\n")
    with pytest.raises(MalformedHeader):
        list(scan_warc(path))


def test_truncated_block_is_length_mismatch(tmp_path):
    records = synth_records(1)
    path = tmp_path / "trunc.warc"
    write_warc(records, path, mode="plain")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 30])
    with pytest.raises(LengthMismatch):
        list(scan_warc(path))


def test_warc10_version_accepted(tmp_path):
    records = synth_records(1)
    path = tmp_path / "v10.warc"
    write_warc(records, path, mode="plain")
    path.write_bytes(path.read_bytes().replace(b"WARC/1.1\r\n", b"WARC/1.0\r\n", 1))
    [(record, _)] = list(scan_warc(path))
    assert record.record_id == records[0].record_id


def test_member_scan_with_tiny_read_chunks(tmp_path, monkeypatch):
    # Regression: a member boundary that leaves a single buffered byte must
    # refill before the gzip magic check, not report a corrupt member.
    import archfmt.warc as warc_mod

    records = synth_records(5)
    path = tmp_path / "tiny.warc.gz"
    write_warc(records, path, mode="member_gzip")
    for chunk_size in (1, 2, 3, 7):
        monkeypatch.setattr(warc_mod, "_READ_CHUNK", chunk_size)
        got = [record.record_id for record, _ in scan_warc(path)]
        assert got == [record.record_id for record in records]


@pytest.mark.parametrize(
    "head, error",
    [
        (b"WARC/1.1\r\nWARC-Type response\r\n\r\n", MalformedHeader),
        (
            b"WARC/1.1\r\nWARC-Type: resource\r\nWARC-Record-ID: <urn:x>\r\n"
            b"WARC-Date: 2018-05-21T08:00:00Z\r\nContent-Length: 1099511627776\r\n\r\n",
            LengthMismatch,
        ),
    ],
    ids=["colon-less-line", "length-past-eof"],
)
def test_malformed_plain_record_costs_one_window(tmp_path, head, error):
    import archfmt.warc as warc_mod
    from archfmt.iostats import IoTracker

    path = tmp_path / "bad.warc"
    write_warc(synth_records(40), path, mode="plain")
    filler = path.read_bytes()
    path.write_bytes(head + filler * ((4 << 20) // len(filler) + 1))
    tracker = IoTracker()
    with pytest.raises(error):
        list(scan_warc(path, tracker))
    assert tracker.bytes_read <= 2 * warc_mod._READ_CHUNK


@pytest.mark.parametrize("mode", ["plain", "member_gzip"])
def test_mutation_fuzz_raises_only_typed_errors(tmp_path, mode):
    path = tmp_path / f"f.{mode}.warc"
    locs = write_warc(synth_records(12, seed=5), path, mode=mode)
    data = path.read_bytes()
    bad = tmp_path / "bad.warc"
    rng = random.Random(2024)
    for _ in range(400):
        mutated = bytearray(data)
        at = rng.randrange(len(data))
        mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
        bad.write_bytes(bytes(mutated))
        loc = rng.choice(locs)
        for read in (lambda: list(scan_warc(bad)), lambda: read_record_at(bad, loc)):
            try:
                read()
            except ArchfmtError:
                pass
