import random
import sys
import threading

from archfmt.iostats import IoTracker


def test_two_threads_pread_one_handle(tmp_path):
    """Each pread gets its own bytes, and the counters lose no update."""
    path = tmp_path / "data.bin"
    data = random.Random(5).randbytes(1 << 16)
    path.write_bytes(data)
    tracker = IoTracker()
    reads = [[], []]
    failures = []

    def reader(i, fh):
        rng = random.Random(i)
        for _ in range(2000):
            offset, n = rng.randrange(len(data)), rng.randrange(1, 512)
            got = fh.pread(offset, n)
            reads[i].append(len(got))
            if got != data[offset : offset + n]:
                failures.append((i, offset, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracker.open(path) as fh:
            threads = [threading.Thread(target=reader, args=(i, fh)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert tracker.seek_count == 4000 and len(reads[0]) == len(reads[1]) == 2000
    assert tracker.bytes_read == sum(reads[0]) + sum(reads[1])
    assert tracker.open_count == 1


def test_pread_leaves_the_sequential_position_alone(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(100)))
    tracker = IoTracker()
    with tracker.open(path, sequential=True) as fh:
        assert fh.read(10) == bytes(range(10))
        assert fh.pread(90, 20) == bytes(range(90, 100))  # short only at the end of the file
        assert fh.read(5) == bytes(range(10, 15))
    assert (tracker.seek_count, tracker.bytes_read) == (2, 25)
