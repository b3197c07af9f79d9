"""Spans around the library's public functions, recorded from outside.

A Tracer wraps a callable so that each call records one span: name, start,
end, the span that was open when it began (its parent), and an optional
info value computed from the call. Spans stay in memory until the run ends.
`patched` installs wrappers where the calling module looks a name up and
puts the original object back on exit, even when the body raises.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

_clock = time.perf_counter

# span layout: [name, start, end, parent index or -1, info]
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, info=None, when=None):
        """Return fn wrapped so that each call records a span called name.

        info(result, args) gives the span's info on return; when a call
        raises, the exception itself is the info. when(args), if given,
        decides per call whether a span is recorded at all.
        """
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            span = [name, _clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[INFO] = err
                raise
            finally:
                span[END] = _clock()
                open_.pop()
            if info is not None:
                span[INFO] = info(result, args)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s", "info"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                shown = "" if info is None else repr(info)
                out.writerow([i, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}", shown])


@contextmanager
def patched(replacements):
    """Temporarily set owner.attr = value for each (owner, attr, value).

    owner is a module or a class; the attribute is read from its own
    namespace so that properties and plain functions are restored as the
    same objects.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanStats:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the time its child spans
    cover; the program is single-threaded, so children never overlap.
    """

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
            self.by_name.setdefault(span[NAME], []).append(i)
        self._child = child

    def parent_name(self, i) -> str | None:
        parent = self.spans[i][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name, where=None) -> float:
        """Summed duration of the spans called name (those where(i) accepts)."""
        return sum(
            self.spans[i][END] - self.spans[i][START]
            for i in self.by_name.get(name, ())
            if where is None or where(i)
        )

    def self_time(self, name) -> float:
        return sum(
            self.spans[i][END] - self.spans[i][START] - self._child[i]
            for i in self.by_name.get(name, ())
        )

    def infos(self, name) -> list:
        return [self.spans[i][INFO] for i in self.by_name.get(name, ())]
