"""Span tracing of archfmt's public functions, from outside the package.

A :class:`Tracer` replaces selected module attributes of ``archfmt`` with
wrappers that record one span per call.  For a generator function the
wrapper records one span per ``next()``, so a span covers only the work
the layer does to produce that item, not the consumer's work between
items.  Each span keeps its name, start, end, parent span and the id of
the benchmark request it belongs to.  Spans stay in memory (flat arrays)
until :meth:`Tracer.write` dumps them; self time is derived from them.

No file under ``src/`` is touched: the wrappers are installed by
attribute assignment and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager


def _observe_plan(tracer, args, kwargs, result):
    """Count row groups and rows planned versus present at the CARC planner."""
    footer = args[0] if args else kwargs["footer"]
    tracer.counts["carc.groups_total"] += len(footer.row_groups)
    tracer.counts["carc.groups_planned"] += len(result)
    tracer.counts["carc.rows_planned"] += sum(footer.row_groups[g].row_count for g in result)


def _convert_label(args, kwargs):
    target = args[1] if len(args) > 1 else kwargs.get("target")
    return f"convert.convert:{target}"


# (module, function, span label or label function, result observer)
TRACED = (
    ("warc", "scan_warc", None, None),
    ("warc", "decode_stored", None, None),
    ("cdx", "parse_cdx", None, None),
    ("cdx", "iter_fetch_records", None, None),
    ("cdx", "build_cdx", None, None),
    ("httpmsg", "split_http_block", None, None),
    ("httpmsg", "payload_digest", None, None),
    ("convert", "to_canonical", None, None),
    ("convert", "convert", _convert_label, None),
    ("carc", "write_carc", None, None),
    ("carc", "read_carc", None, None),
    ("carc", "plan_row_groups", None, _observe_plan),
    ("rarc", "write_rarc", None, None),
    ("rarc", "read_rarc", None, None),
    ("rarc", "resync", None, None),
    ("query", "run_query", None, None),
    ("query", "scan_extract", None, None),
    ("query", "extract_text", None, None),
    ("query", "extract_links", None, None),
    ("bench", "generate_corpus", None, None),
    ("bench", "selectivity_ranges", None, None),
)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.request_id = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _open(self, lid: int) -> int:
        idx = len(self.label)
        self.label.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        idx = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, label, observe):
        tracer = self
        fixed = None if callable(label) else tracer._label_id(label)

        if inspect.isgeneratorfunction(fn):
            yields = label + ".yield"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(fixed)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        tracer.counts[yields] += 1
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            lid = fixed if fixed is not None else tracer._label_id(label(args, kwargs))
            idx = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return call_wrapper

    def install(self) -> None:
        """Replace each traced function in every archfmt module that refers to it."""
        modules = [m for name, m in sys.modules.items() if name == "archfmt" or name.startswith("archfmt.")]
        for mod_name, fn_name, label, observe in TRACED:
            original = getattr(sys.modules[f"archfmt.{mod_name}"], fn_name)
            wrapper = self._wrap(original, label or f"{mod_name}.{fn_name}", observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: span count, total (inclusive) seconds and self seconds."""
        n = len(self.label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            label: {"spans": 0, "total_s": 0.0, "self_s": 0.0} for label in self.labels
        }
        for i in range(n):
            agg = out[self.labels[self.label[i]]]
            dur = self.end[i] - self.start[i]
            agg["spans"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
        return out

    def write(self, path) -> int:
        """Write every span as a TSV row (times in µs from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.label)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{self.labels[self.label[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
        return len(self.label)
