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

    def row_sums(self):
        return self.matrix.sum(axis=1)


def shuffle_columns(matrix: np.ndarray, rng) -> None:
    """Apply an independent ``rng.permutation`` to each column, in place."""
    m, n = matrix.shape
    for j in range(n):
        matrix[:, j] = matrix[rng.permutation(m), j]


def _stable_argsort_rows(key):
    """``np.argsort(key, axis=1, kind="stable")`` of a 2-d array, faster.

    The default (unstable) argsort orders each row, then every run of tied
    keys is put back in index order: codes ``run * m + index`` are distinct
    and sort as (run, index) pairs, and the run part is subtracted again.
    """
    m = key.shape[1]
    order = np.argsort(key, axis=1)
    ranked = np.take_along_axis(key, order, axis=1)
    run = np.zeros(key.shape, dtype=np.intp)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=run[:, 1:])
    run *= m
    code = run + order
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
    if cur.shape[1] == 1:
        return FlattenResult(cur, 0.0, [0.0], True)
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
    per cell.
    """
    cur = np.array(stack, dtype=float, copy=True)
    if cur.ndim != 3:
        raise DomainError("stack must be three-dimensional")
    cells, m, n = cur.shape
    tol = default_spread_tol(cur)

    sums = cur.sum(axis=2)
    best = cur.copy()
    best_spread = sums.max(axis=1) - sums.min(axis=1)
    sweep_spreads = [[float(s)] for s in best_spread]
    stall = np.zeros(cells, dtype=int)
    # live cells, compacted: positions ``live`` of the stack, state in cur/sums
    live = np.nonzero(best_spread > tol)[0]
    cur, sums = cur[live], sums[live]
    # every column stays a permutation of its start, so its descending
    # values are sorted once here
    desc = np.sort(cur, axis=1)[:, ::-1]
    rows = np.arange(live.size)[:, None]
    for _ in range(max_sweeps):
        if live.size == 0:
            break
        for j in range(n):
            col = cur[:, :, j]
            order = _stable_argsort_rows(sums - col)
            newcol = np.empty_like(col)
            newcol[rows, order] = desc[:, :, j]
            sums += newcol - col
            cur[:, :, j] = newcol
        spread = sums.max(axis=1) - sums.min(axis=1)
        better = spread < best_spread[live] - 1e-15
        best[live[better]] = cur[better]
        best_spread[live[better]] = spread[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
        for k in live:
            sweep_spreads[k].append(float(best_spread[k]))
        keep = (stall[live] < 2) & (best_spread[live] > tol[live])
        if not keep.all():
            live, cur, sums, desc = live[keep], cur[keep], sums[keep], desc[keep]
            rows = rows[: live.size]
    return [
        FlattenResult(best[k], float(best_spread[k]), sweep_spreads[k],
                      bool(best_spread[k] <= tol[k]))
        for k in range(cells)
    ]
