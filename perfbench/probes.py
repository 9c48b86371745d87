"""Measurement from outside the package: spans, counters, log counts, peak RSS.

Nothing here edits faacflow. ``Recorder`` replaces public functions on the
module where their caller looks them up (``faacflow.cli.derive_dataset``,
``faacflow.evaluation.fit_pipeline``, ...) with timing wrappers and puts the
originals back on ``restore``. Generators (``parse_flows``,
``generate_synthetic``) are wrapped per ``next`` call, because their work
happens inside whichever function consumes them.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One timed call. ``busy`` is end - start, except for generator spans,
    where it is the summed time spent inside ``next`` between start and end."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    busy: float = 0.0


Observer = Callable[[tuple, dict, Any, Counter], None]


class Recorder:
    """In-memory spans and counters for one run of a workload."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    def timed(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(args, kwargs, result, self.counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name: str, fn: Callable, count_key: str | None = None) -> Callable:
        recorder = self
        active = [False]  # a generator that calls itself (parse_flows on a path) is timed once

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if active[0]:
                return inner

            def stream():
                span = None
                n = 0
                try:
                    while True:
                        t0 = time.perf_counter()
                        if span is None:
                            parent = recorder._stack[-1] if recorder._stack else None
                            span = Span(len(recorder.spans), name, t0, t0, parent, recorder.run)
                            recorder.spans.append(span)
                        active[0] = True
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            active[0] = False
                            span.end = time.perf_counter()
                            span.busy += span.end - t0
                        n += 1
                        yield item
                finally:
                    inner.close()
                    if count_key:
                        recorder.counts[count_key] += n

            return stream()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, *names: str) -> float:
        return sum(s.busy for s in self.spans if s.name in names)

    def self_times(self) -> dict[int, float]:
        """Span id -> busy time minus the busy time of its direct children."""
        own = {s.sid: s.busy for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.busy
        return own

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        own = self.self_times()
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + own[s.sid]
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "busy": s.busy, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]


def fit_latencies(rec: Recorder) -> list[float]:
    """fit_pipeline + score_fold seconds per model that was scored.

    Each score_fold span is paired with the latest earlier fit_pipeline
    span; the evaluation drivers always score a model right after fitting
    it, so a fit with no score (the final model export) is left out.
    """
    out = []
    last_fit: Span | None = None
    for s in rec.spans:
        if s.name == "learning.fit_pipeline":
            last_fit = s
        elif s.name == "evaluation.score_fold" and last_fit is not None:
            out.append(last_fit.busy + s.busy)
            last_fit = None
    return out


class LogCounter(logging.Handler):
    """Counts WARNING records per logger, attached from outside the package."""

    LOGGERS = ("faacflow.ingest", "faacflow.learning", "faacflow.hyperopt")

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1

    def __enter__(self) -> "LogCounter":
        for name in self.LOGGERS:
            lg = logging.getLogger(name)
            lg.addHandler(self)
            # keep the warnings off the benchmark's stdout/stderr
            lg.propagate = False
        return self

    def __exit__(self, *exc) -> None:
        for name in self.LOGGERS:
            lg = logging.getLogger(name)
            lg.removeHandler(self)
            lg.propagate = True


class PeakRss:
    """Peak resident set size over a with-block, sampled from /proc/self/statm.

    The process-wide maximum (ru_maxrss) cannot be reset without writing to
    /proc, and it would include input generation done before the timed
    section, so a sampling thread takes the maximum over the block instead.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = -1
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        rss = int(os.pread(self._fd, 128, 0).split()[1]) * self._page
        if rss > self.peak_bytes:
            self.peak_bytes = rss

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        assert self._thread is not None
        self._thread.join()
        self._sample()
        os.close(self._fd)

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)
