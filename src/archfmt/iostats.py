"""Instrumented file access.

All readers in the toolkit go through :class:`IoTracker` so that benchmark
cells can report bytes read, seek counts, and open counts independently of
the host's page cache.  Conventions:

* ``open_count`` — one per file opened.
* ``seek_count`` — one per seek or positioned read and one per sequential
  scan start (establishing the cursor costs one seek).
* ``bytes_read`` — bytes actually delivered from the file, compressed as
  stored on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


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
        self._tracker.bytes_read += len(data)
        return data

    def seek(self, offset: int) -> None:
        self._tracker.seek_count += 1
        self._fh.seek(offset)

    def pread(self, offset: int, n: int) -> bytes:
        """One positioned read: a seek plus a read of exactly n bytes."""
        self.seek(offset)
        return self.read(n)

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

    def open(self, path, sequential: bool = False) -> TrackedFile:
        fh = open(path, "rb")
        self.open_count += 1
        if sequential:
            # scan start: the cursor is positioned once
            self.seek_count += 1
        return TrackedFile(fh, self)

    def measurement(self, records_out: int = 0) -> Measurement:
        return Measurement(
            wall_ms=(time.perf_counter() - self._t0) * 1000.0,
            bytes_read=self.bytes_read,
            seek_count=self.seek_count,
            open_count=self.open_count,
            records_out=records_out,
        )
