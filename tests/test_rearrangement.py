import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mixcenter.distributions import AtomUniform, Cauchy, Uniform, point_mass
from mixcenter import rearrangement
from mixcenter.errors import DomainError
from mixcenter.rearrangement import (
    default_spread_tol,
    discretize,
    ra_flatten,
    ra_flatten_stack,
    shuffle_columns,
)


class TestDiscretize:
    def test_uniform_midquantiles(self):
        assert_allclose(discretize(Uniform(0, 1), 4), [0.125, 0.375, 0.625, 0.875])

    def test_point_mass(self):
        assert_allclose(discretize(point_mass(2.0), 5), [2.0] * 5)

    def test_atom_uniform(self):
        got = discretize(AtomUniform(0.0, 1.0, 0.5), 4)
        assert_allclose(got, [0.0, 0.0, 0.25, 0.75])

    def test_guard(self):
        with pytest.raises(DomainError):
            discretize(Uniform(0, 1), 1)


def _uniform_matrix(m, n=3):
    col = (np.arange(1, m + 1) - 0.5) / m
    return np.column_stack([col] * n)


class TestFlatten:
    def test_three_uniform_columns_spread(self):
        res = ra_flatten(_uniform_matrix(256), rng=np.random.default_rng(0))
        assert res.spread <= 0.05

    def test_column_multisets_preserved(self):
        mat = _uniform_matrix(128)
        res = ra_flatten(mat, rng=np.random.default_rng(1))
        for j in range(3):
            assert_allclose(np.sort(res.matrix[:, j]), mat[:, j])

    def test_sweep_spreads_non_increasing(self):
        res = ra_flatten(_uniform_matrix(256), rng=np.random.default_rng(2))
        diffs = np.diff(res.sweep_spreads)
        assert np.all(diffs <= 1e-15)

    def test_spread_shrinks_with_m(self):
        spreads = {}
        for m in (64, 256, 1024):
            res = ra_flatten(_uniform_matrix(m), rng=np.random.default_rng(0))
            spreads[m] = res.spread
        assert spreads[1024] < spreads[256] < spreads[64]

    def test_two_columns_countermonotonic(self):
        col = discretize(Cauchy(), 64)
        res = ra_flatten(np.column_stack([col, col]), rng=np.random.default_rng(3))
        order = np.argsort(res.matrix[:, 0])
        assert_allclose(res.matrix[order, 1], np.sort(col)[::-1])
        # countermonotonic identical columns give exactly constant sums
        assert res.spread <= 1e-12

    def test_single_column_unchanged(self):
        mat = np.arange(8.0).reshape(-1, 1)
        res = ra_flatten(mat)
        assert_allclose(res.matrix, mat)
        assert res.spread == 0.0

    def test_default_tol_matches_formula(self):
        mat = _uniform_matrix(128)
        expected = 2.0 * 3 * (mat[:, 0].max() - mat[:, 0].min()) / 128
        assert default_spread_tol(mat) == pytest.approx(expected)


def _ra_reference(cur, max_sweeps):
    """One matrix, column by column, in Python: the reference for the
    stacked rearrangement (same stopping rule and best-so-far)."""
    cur = cur.copy()
    m, n = cur.shape
    tol = default_spread_tol(cur)
    sums = cur.sum(axis=1)
    best, best_spread = cur.copy(), float(sums.max() - sums.min())
    spreads, stall = [best_spread], 0
    for _ in range(max_sweeps):
        if best_spread <= tol:
            break
        for j in range(n):
            order = np.argsort(sums - cur[:, j], kind="stable")
            newcol = np.empty(m)
            newcol[order] = np.sort(cur[:, j])[::-1]
            sums += newcol - cur[:, j]
            cur[:, j] = newcol
        spread = float(sums.max() - sums.min())
        if spread < best_spread - 1e-15:
            best, best_spread, stall = cur.copy(), spread, 0
        else:
            stall += 1
        spreads.append(best_spread)
        if stall >= 2:
            break
    return best, best_spread, spreads, best_spread <= tol


class TestFlattenStack:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 12), m=st.sampled_from([8, 33, 128]),
           cells=st.integers(1, 5), atom=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_per_cell_calls(self, n, m, cells, atom, seed):
        rng = np.random.default_rng(seed)
        stack = np.empty((cells, m, n))
        singles = []
        for k in range(cells):
            col = discretize(AtomUniform(-1.0 - k, 1.0 + rng.random(), atom), m)
            stack[k] = col[:, None]
            cell_rng = np.random.default_rng([seed, k])
            singles.append(ra_flatten(stack[k], max_sweeps=64, rng=cell_rng))
            shuffle_columns(stack[k], np.random.default_rng([seed, k]))
        before = stack.copy()
        got = ra_flatten_stack(stack, max_sweeps=64)
        assert np.array_equal(stack, before)
        for k, (res, ref) in enumerate(zip(got, singles)):
            assert res.matrix.tobytes() == ref.matrix.tobytes()
            assert res.spread == ref.spread
            assert res.sweep_spreads == ref.sweep_spreads
            assert res.converged is ref.converged
            matrix, spread, spreads, converged = _ra_reference(before[k], 64)
            assert res.matrix.tobytes() == matrix.tobytes()
            assert (res.spread, res.sweep_spreads, res.converged) == (spread, spreads, converged)

    def test_cells_at_their_floor_take_no_sweep(self):
        # antithetic columns: every row sums to the same value up to rounding
        col = _uniform_matrix(64, n=1)[:, 0]
        stack = np.stack([scale * np.column_stack([col, 1.0 - col]) for scale in (1.0, 2.0, 5.0)])
        got = ra_flatten_stack(stack)
        assert all(r.sweep_spreads == [r.spread] and r.converged for r in got)
        assert all(np.array_equal(r.matrix, cell) for r, cell in zip(got, stack))

    def test_rejects_matrices(self):
        with pytest.raises(DomainError):
            ra_flatten_stack(_uniform_matrix(8))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 6), m=st.integers(1, 700), levels=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_argsort_equals_stable_argsort(self, rows, m, levels, seed):
        # few levels give long tie runs; signed zeros compare equal
        rng = np.random.default_rng(seed)
        key = (rng.integers(0, levels, (rows, m)) - levels // 2) * 0.25
        key[rng.random((rows, m)) < 0.1] *= -1.0
        want = np.argsort(key, axis=1, kind="stable")
        assert np.array_equal(rearrangement._stable_argsort_rows(key), want)


class TestRowSampler:
    def test_coordinate_multiset_over_all_rows(self):
        res = ra_flatten(_uniform_matrix(32), rng=np.random.default_rng(6))
        for j in range(3):
            assert_allclose(np.sort(res.matrix[:, j]), _uniform_matrix(32)[:, j])
