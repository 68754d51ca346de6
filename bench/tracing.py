"""Spans recorded around calls into plenocal, from the benchmark's side only.

``calibration.py`` and ``cli.py`` bind the functions they call at import, so
a traced operation rebinds wrappers in the calling module's namespace (for
example ``plenocal.calibration.project_pixels``) and restores the originals
afterwards.  No file of the program is changed.  Spans are kept in memory and
aggregated, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
MIB = float(1 << 20)
SAMPLE_INTERVAL_S = 0.02       # RSS polling period during traced operations
ROOT_SPAN = "bench.op"         # its self time is what no layer span covers


def current_rss() -> int:
    """Resident set size of this process in bytes (0 where unreadable)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "rss0", "attrs")

    def __init__(self, name, start, parent, op, rss0):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.rss0 = parent, op, rss0
        self.attrs: dict = {}

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.attrs}


class RssSampler:
    """Polls the resident set size from a daemon thread while a traced
    operation runs, so that peaks inside a single call become visible."""

    def __init__(self):
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), current_rss()))

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def peak_between(self, start: float, end: float) -> int:
        return max((rss for t, rss in self.samples if start <= t <= end), default=0)


class Tracer:
    """In-memory span recorder.  ``op`` labels every span opened while it is
    set; spans of one operation share it."""

    def __init__(self, rss_names=()):
        self.spans: list[Span] = []
        self.op = None
        self.rss_names = frozenset(rss_names)
        self.sampler = RssSampler()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rss0 = current_rss() if name in self.rss_names else 0
        s = Span(name, time.perf_counter(), parent, self.op, rss0)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, record=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's (args, kwargs); ``record`` stores counts taken from the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as s:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(s.attrs, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def patched(self, table):
        """Rebind every ``(owner, attribute, span name, record)`` of ``table``
        to its traced wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, record in table:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(saved[-1][2], name, record))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self, op, table):
        """One traced operation: patched names, RSS sampling, a root span."""
        self.op = op
        self.sampler.start()
        try:
            with self.patched(table), self.span(ROOT_SPAN):
                yield
        finally:
            self.sampler.stop()
            self.op = None

    def spans_as_dicts(self) -> list[dict]:
        return [s.to_dict(i) for i, s in enumerate(self.spans)]

    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name over the spans of ``ops``: inclusive seconds, self
        seconds (duration minus the time its child spans cover), call count,
        the sums of recorded counts, and the largest RSS growth in MiB."""
        ops = set(ops)
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and s.op in ops:
                child[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if s.op not in ops:
                continue
            t = out[s.name]
            dur = s.end - s.start
            t["s"] += dur
            t["self_s"] += dur - child[i]
            t["calls"] += 1
            for key, val in s.attrs.items():
                t[key] += val
            if s.name in self.rss_names:
                growth = (self.sampler.peak_between(s.start, s.end) - s.rss0) / MIB
                t["rss_growth_mb"] = max(t["rss_growth_mb"], growth)
        return out
