"""Instrumented file access.

All readers in the toolkit go through :class:`IoTracker` so that benchmark
cells can report bytes read, seek counts, and open counts independently of
the host's page cache.  Conventions:

* ``open_count`` — one per file opened.
* ``seek_count`` — one per seek or positioned read and one per sequential
  scan start (establishing the cursor costs one seek).
* ``bytes_read`` — bytes actually delivered from the file, compressed as
  stored on disk, including the gaps a coalesced read reads through.

The paper's cost model prices these counters: ``SEEK_MS`` a seek plus the
bytes at ``MB_PER_S`` (``bench.modeled_ms``).  Its break-even, ``MERGE_GAP``,
is the bytes one seek's time transfers: a reader that reads through a gap no
larger than it, rather than seeking over it, never costs more under the
model.  :func:`coalesce` plans reads by that rule, and ``RUN_BYTES`` caps
one read: a CARC run, a CDX fetch or summary block.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

SEEK_MS = 10.0  # the cost model: ms a seek or positioned read,
MB_PER_S = 100.0  # and MiB/s of transfer
MERGE_GAP = int(SEEK_MS * MB_PER_S * (1 << 20) / 1000)  # 1 MiB: the bytes one seek's time transfers
RUN_BYTES = 8 << 20  # most bytes one coalesced read takes, unless one span alone is larger


def coalesce(spans: Iterable[tuple[int, int]], gap: float, cap: float) -> list[tuple[int, int]]:
    """The reads, as [start, end) ranges in file order, that cover the
    disjoint [start, end) spans: taken by start, a span joins the read
    before it when the hole between them is at most gap bytes and the read
    stays within cap bytes.  A span larger than cap is a read of its own."""
    runs: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if runs and start - runs[-1][1] <= gap and end - runs[-1][0] <= cap:
            runs[-1] = runs[-1][0], end
        else:
            runs.append((start, end))
    return runs


@dataclass
class Measurement:
    """I/O and result accounting for one operation or benchmark cell."""

    wall_ms: float = 0.0
    bytes_read: int = 0
    seek_count: int = 0
    open_count: int = 0
    records_out: int = 0


class TrackedFile:
    """Thin wrapper over a binary file handle that feeds an IoTracker."""

    def __init__(self, fh, tracker: "IoTracker"):
        self._fh = fh
        self._tracker = tracker

    def read(self, n: int = -1) -> bytes:
        data = self._fh.read(n)
        self._tracker.count(nbytes=len(data))
        return data

    def seek(self, offset: int) -> None:
        self._tracker.count(seeks=1)
        self._fh.seek(offset)

    def pread(self, offset: int, n: int) -> bytes:
        """One positioned read of n bytes, fewer only at the end of the file:
        counted as a seek plus a read.  It leaves the position read and seek
        use alone, so threads may share the handle for pread."""
        data = os.pread(self._fh.fileno(), n, offset)
        self._tracker.count(seeks=1, nbytes=len(data))
        return data

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class IoTracker:
    bytes_read: int = 0
    seek_count: int = 0
    open_count: int = 0
    _t0: float = field(default_factory=time.perf_counter)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def open(self, path, sequential: bool = False) -> TrackedFile:
        fh = open(path, "rb")
        # a scan start positions the cursor once
        self.count(seeks=int(sequential), opens=1)
        return TrackedFile(fh, self)

    def count(self, seeks: int = 0, nbytes: int = 0, opens: int = 0) -> None:
        """Add to the counters; exact when threads share the tracker."""
        with self._lock:
            self.seek_count += seeks
            self.bytes_read += nbytes
            self.open_count += opens

    def measurement(self, records_out: int = 0) -> Measurement:
        return Measurement(
            wall_ms=(time.perf_counter() - self._t0) * 1000.0,
            bytes_read=self.bytes_read,
            seek_count=self.seek_count,
            open_count=self.open_count,
            records_out=records_out,
        )
