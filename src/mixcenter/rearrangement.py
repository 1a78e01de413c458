"""Rearrangement engine: permute quantile columns toward constant row sums.

Couplings that the theory only proves to exist are realized here
approximately: each marginal is discretized into m equiprobable atoms at
mid-quantile levels, stacked as columns, and the columns are repeatedly
re-sorted antitonically against the sum of the others. Each column stays a
permutation of its discretization, so marginals are preserved exactly at
the discretized level while the row-sum spread shrinks toward the
discretization floor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._halves import two_halves
from .errors import DomainError


def discretize(model, m: int) -> np.ndarray:
    """m equiprobable atoms of ``model`` at mid-quantile levels (j-1/2)/m."""
    if m < 2:
        raise DomainError("need m >= 2")
    levels = (np.arange(1, m + 1) - 0.5) / m
    q = model.quantile(levels)
    return np.asarray(q, dtype=float)


def default_spread_tol(matrix: np.ndarray):
    """Attainable discretization floor: twice the summed column ranges over m.

    ``matrix`` is one (m, n) matrix or a (cells, m, n) stack; a stack gets
    one floor per cell.
    """
    m = matrix.shape[-2]
    ranges = matrix.max(axis=-2) - matrix.min(axis=-2)
    out = 2.0 * ranges.sum(axis=-1) / m
    return float(out) if out.ndim == 0 else out


@dataclass
class FlattenResult:
    matrix: np.ndarray
    spread: float
    sweep_spreads: list
    converged: bool


def shuffle_columns(matrix: np.ndarray, rng) -> None:
    """Shuffle each column independently, in place, with the draws of one
    ``rng.permutation(m)`` per column in column order."""
    rng.permuted(matrix, axis=0, out=matrix)


def _stable_argsort_rows(key):
    """``np.argsort(key, axis=1, kind="stable")`` of a 2-d array, faster.

    The default (unstable) argsort orders each row, then every run of tied
    keys is put back in index order: codes ``run * m + index`` are distinct
    and sort as (run, index) pairs, and the run part is subtracted again.
    The codes are int32 when ``m * m < 2**31``, so they sort faster.
    """
    rows, m = key.shape
    dtype = np.int32 if m * m < 2**31 else np.intp
    order = np.argsort(key, axis=1)
    ranked = key.reshape(-1).take(order + np.arange(0, rows * m, m)[:, None])
    run = np.zeros(key.shape, dtype=dtype)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=run[:, 1:])
    run *= m
    code = np.add(run, order, dtype=dtype)
    code.sort(axis=1)
    code -= run
    return code


def ra_flatten(matrix, max_sweeps: int = 100, rng=None) -> FlattenResult:
    """Iteratively re-sort each column antitonically to the rest of the row.

    Stops when the row-sum spread (max - min) drops to the discretization
    floor ``default_spread_tol`` of the matrix or stops improving.
    Ties in the rest-sums are broken by original row index (stable sort)
    for cross-platform determinism. The matrix with the best spread seen
    is returned, so reported sweep spreads are non-increasing. An optional
    ``rng`` applies independent initial shuffles per column; the identity
    start can be a poor local optimum. This is the one-cell case of
    ``ra_flatten_stack``.
    """
    cur = np.array(matrix, dtype=float, copy=True)
    if cur.ndim != 2:
        raise DomainError("matrix must be two-dimensional")
    if rng is not None:
        shuffle_columns(cur, rng)
    return ra_flatten_stack(cur[None], max_sweeps)[0]


def ra_flatten_stack(stack, max_sweeps: int = 100) -> list:
    """``ra_flatten`` on every cell of a (cells, m, n) stack, in lock step.

    Each cell keeps its own stopping rule (floor reached, or two sweeps
    without improvement), its own best-so-far matrix and its own sweep
    count, so the result for a cell does not depend on the other cells.
    Each cell's floor is its ``default_spread_tol``. The stack is flattened
    as given (no shuffles) and not modified; returns one ``FlattenResult``
    per cell, its halves flattened through ``two_halves``."""
    stack = np.ascontiguousarray(stack, dtype=float)
    if stack.ndim != 3:
        raise DomainError("stack must be three-dimensional")
    first, second = two_halves(_flatten_cells, stack, max_sweeps)
    return first + second


def _flatten_cells(stack, max_sweeps):
    """The lock-step kernel of ``ra_flatten_stack`` on a contiguous stack.

    The sweeps work column by column, so the state is held column-major:
    one contiguous (live cells, m) array per column, and each new column is
    written through flat row offsets.
    """
    cells, m, n = stack.shape
    tol = default_spread_tol(stack)

    sums = stack.sum(axis=2)
    best_spread = sums.max(axis=1) - sums.min(axis=1)
    sweep_spreads = [[float(s)] for s in best_spread]
    stall = np.zeros(cells, dtype=int)
    # the best matrices seen, column-major: best[j] is column j of every cell
    best = np.ascontiguousarray(stack.transpose(2, 0, 1))
    # live cells, compacted: positions ``live`` of the stack, state in cols/sums
    live = np.nonzero(best_spread > tol)[0]
    cols = [best[j, live] for j in range(n)]
    sums = sums[live]
    # every column stays a permutation of its start, so its descending
    # values are sorted once here
    desc = [np.ascontiguousarray(np.sort(col, axis=1)[:, ::-1]) for col in cols]
    index = np.int32 if live.size * m < 2**31 else np.intp
    offsets = np.arange(0, live.size * m, m, dtype=index)[:, None]
    for _ in range(max_sweeps):
        if live.size == 0:
            break
        for j in range(n):
            col = cols[j]
            flat = _stable_argsort_rows(sums - col) + offsets
            newcol = np.empty_like(col)
            newcol.reshape(-1)[flat.reshape(-1)] = desc[j].reshape(-1)
            sums += newcol - col
            cols[j] = newcol
        spread = sums.max(axis=1) - sums.min(axis=1)
        better = spread < best_spread[live] - 1e-15
        if better.any():
            where = live[better]
            for j in range(n):
                best[j, where] = cols[j][better]
        best_spread[live[better]] = spread[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
        for k in live:
            sweep_spreads[k].append(float(best_spread[k]))
        keep = (stall[live] < 2) & (best_spread[live] > tol[live])
        if not keep.all():
            live, sums = live[keep], sums[keep]
            cols = [col[keep] for col in cols]
            desc = [d[keep] for d in desc]
            offsets = offsets[: live.size]
    best = np.ascontiguousarray(best.transpose(1, 2, 0))
    return [
        FlattenResult(best[k], float(best_spread[k]), sweep_spreads[k],
                      bool(best_spread[k] <= tol[k]))
        for k in range(cells)
    ]
