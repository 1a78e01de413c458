"""Span recorder and the benchmark's own arithmetic.

Stdlib only, so that the CLI launcher can load it before the program and
the tests can exercise it without numpy.

A span is ``[name, start, end, parent, job, attrs]``: ``parent`` is the
index of the enclosing span in the same recorder (or -1), ``job`` the id
the runner set when the span opened, and ``attrs`` a small dict of counts
read from the call's arguments or result. Times come from
``time.monotonic``, which on Linux is one clock for every process, so a
parent process can line up spans that its children wrote.
"""
from __future__ import annotations

import functools
import math
import time

NAME, START, END, PARENT, JOB, ATTRS = range(6)


class Recorder:
    """Keeps spans in memory; ``install`` wraps callables to open them."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped so each call records a span named ``name``.

        ``name`` may be a callable of the call's arguments, and ``attrs`` a
        callable ``(args, kwargs, result, exc) -> dict``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, time.monotonic(),
                    None, self._stack[-1] if self._stack else -1, self.job, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[END] = time.monotonic()
                self._stack.pop()
                if attrs is not None:
                    span[ATTRS] = attrs(args, kwargs, result, exc)

        return wrapper

    def install(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` (a module or class attribute) by its wrapper."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for start, end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail_percentile(values, beyond=10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Nearest-rank: the p-th percentile is the ceil(p*N/100)-th smallest
    value. Returns ``(p, value)``, or None when even the median leaves
    fewer than ``beyond`` samples above it.
    """
    values = sorted(values)
    count = len(values)
    for p in range(99, 49, -1):
        rank = math.ceil(p * count / 100)
        if rank >= 1 and count - rank >= beyond:
            return p, values[rank - 1]
    return None


def timing(values):
    """Median, sample count and tail percentile of one timing."""
    out = {"median": median(values), "count": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["p%d" % tail[0]] = tail[1]
    return out


KS_99 = 1.628  # asymptotic 99% quantile of the Kolmogorov statistic


def ks_ratio(batches):
    """Mean over batches of worst per-coordinate KS distance / 99% threshold.

    ``batches`` holds ``(worst_ks, rows)`` pairs; the threshold is
    KS_99 / sqrt(rows), with no extra slack.
    """
    if not batches:
        raise ValueError("ks_ratio of no batches")
    return sum(ks * math.sqrt(rows) / KS_99 for ks, rows in batches) / len(batches)


def fail_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted
