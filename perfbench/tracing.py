"""Spans recorded around calls into vidcorr, from outside the program.

A wrapper replaces a module attribute (the name a calling module looks
up at call time, such as ``vidcorr.harness.forward_batch``), records a
span around each call and restores the original attribute on exit. No
program file changes; with tracing off nothing is wrapped at all.

A span is ``[name, start, end, parent, op]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
the root) and ``op`` the id of the step, evaluate call or video the span
belongs to. Spans stay in memory until the run ends.
"""

import functools
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._next_op = 0

    def open(self, name, new_op=False):
        parent = self._stack[-1] if self._stack else -1
        if new_op or parent < 0:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent][OP]
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        top = self._stack.pop()
        assert top == index, "spans must close in the order they opened"

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount


def self_times(spans):
    """Per span: its duration minus the part of it that its children
    cover (child intervals clipped to the parent and merged)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        intervals = sorted((max(spans[c][START], start), min(spans[c][END], end))
                           for c in children[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def window_lengths(size, radius):
    """Per grid coordinate, how many coordinates lie within radius."""
    pos = np.arange(size)
    return np.minimum(pos + radius, size - 1) - np.maximum(pos - radius, 0) + 1


def candidate_counts(h, w, radius, frames, top_k):
    """(candidates, kept) for one propagated frame: candidates is the sum
    over target cells of in-window context cells across all context
    frames; kept caps each cell at top_k."""
    per_cell = frames * np.outer(window_lengths(h, radius), window_lengths(w, radius))
    return int(per_cell.sum()), int(np.minimum(per_cell, top_k).sum())


def matmul_flops(sa, sb):
    """2*m*k*n per product of operand shapes sa @ sb, times the
    broadcast batch size."""
    sa, sb = tuple(sa), tuple(sb)
    if len(sa) == 1:
        sa = (1,) + sa
    if len(sb) == 1:
        sb = sb + (1,)
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    return 2 * int(np.prod(batch, dtype=np.int64)) * sa[-2] * sa[-1] * sb[-1]


def _wrap(tracer, original, name, count, new_op):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.open(name, new_op)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result
    traced.__wrapped_by_perfbench__ = True
    return traced


@contextmanager
def installed(tracer, points):
    """Wrap every (module, attribute, span name, counter, new_op) point
    for the duration of the block; originals come back even on error."""
    saved = []
    try:
        for module, attr, name, count, new_op in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, count, new_op))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def wrapped_attributes(points):
    """Names of points whose module attribute is still a wrapper."""
    return [f"{module.__name__}.{attr}" for module, attr, *_ in points
            if getattr(getattr(module, attr), "__wrapped_by_perfbench__", False)]
