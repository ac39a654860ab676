"""Spans around calls into immom's modules, installed from outside the package.

A ``Tracer`` replaces module attributes with timing wrappers.  Each call
records a span: process id, span id, the id of the span that was open when
it started (its cause), name, layer, start, end and a few attributes.  The
clock is ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which forked
processes share, so spans from pool workers line up with their parent's.

Pool workers are forked while the caller's span is open, so their spans name
it as their cause.  ``multiprocessing.Pool`` terminates its workers without
running ``atexit`` handlers, so a worker appends its finished spans to a
spool file each time its outermost span ends; the task result is sent only
after that, so every span is on disk by the time the pool call returns.
"""

from __future__ import annotations

import json
import os
import time
from functools import wraps
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.root_pid = self.pid = os.getpid()
        self.finished = []  # spans of this process not yet merged or spooled
        self.stack = []  # (pid, id) of the spans open in this process
        self.fork_depth = 0
        self.next_id = 0
        self.absent = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.finished = []
        self.fork_depth = len(self.stack)

    def traced(self, fn, name, layer, pre=None, post=None):
        """``fn`` wrapped so every call records a span.

        ``pre()`` runs before the call; ``post(args, kwargs, result, state)``
        after it, with ``pre``'s return value, and gives the span's attributes.
        """
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = (tracer.pid, tracer.next_id)
            tracer.next_id += 1
            cause = tracer.stack[-1] if tracer.stack else None
            state = pre() if pre else None
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            attrs = post(args, kwargs, result, state) if post else {}
            tracer.finished.append([sid, cause, name, layer, t0, t1, attrs])
            if tracer.pid != tracer.root_pid and len(tracer.stack) == tracer.fork_depth:
                tracer._spool()
            return result

        return wrapper

    def patch(self, owner, attr, name, layer, pre=None, post=None):
        """Replace ``owner.attr`` by its traced form; a missing name marks
        the layer absent instead of failing the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append((layer, f"{owner.__name__}.{attr}"))
            return
        setattr(owner, attr, self.traced(fn, name, layer, pre, post))

    def _spool(self):
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.finished:
                fh.write(json.dumps(span) + "\n")
        self.finished = []

    def spans(self):
        """Every span of this process and of the workers it forked."""
        out = [list(s) for s in self.finished]
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh)
        return [Span(*s) for s in out]


class Span:
    __slots__ = ("sid", "cause", "name", "layer", "t0", "t1", "attrs")

    def __init__(self, sid, cause, name, layer, t0, t1, attrs):
        self.sid = tuple(sid)
        self.cause = tuple(cause) if cause else None
        self.name, self.layer, self.t0, self.t1, self.attrs = name, layer, t0, t1, attrs

    @property
    def seconds(self):
        return self.t1 - self.t0


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_seconds(spans):
    """Per layer: span durations minus the part of each span's interval its
    direct children (in any process) cover."""
    children = {}
    for s in spans:
        children.setdefault(s.cause, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        own = s.seconds - _covered(children.get(s.sid, []), s.t0, s.t1)
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out
