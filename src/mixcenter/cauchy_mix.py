"""Constant-sum samplers with standard Cauchy marginals.

For a target per-variable center c with 0 < c <= log(n-1)/pi, the law is
decomposed as a continuum mixture of slice laws indexed by t > 0. Each
slice is an atom at c-t, an atom at c+(n-1)t and a uniform piece on
[c-t, cut(t)], weighted so that the slice mean is exactly c; the mixing
measure over t reassembles the Cauchy density. Every slice admits an
n-tuple coupling with constant sum n*c:

* the two atoms combine cyclically (one coordinate at the high atom, the
  rest at the low atom) with an exactly constant sum;
* the atom-plus-uniform remainder is realized by a rearrangement coupling
  of its mid-quantile discretization, with the tiny discretization
  residual of each row folded back into one in-range uniform coordinate so
  emitted sums are exact.

c = 0 is handled by a separate exact construction (the law is a scale
mixture of centered uniforms, and centered uniforms combine into constant
sums by antithetic pairs plus an explicit three-block map); c < 0 by
reflection of the mixer for -c.

The slice machinery is driven by the clip level h(t): the unique level
below the density value at c+t for which the level-clipped density over
the window [c-t, c+(n-1)t] has centered first moment zero. The slice law is
evaluated in one place, ``ConstructiveMixer.weights_at``: at the solved level
for the coupling cells, at the tabulated level for draws. The coupling cells
live in one table, filled on first use; a draw reads its rows by one gather.

A draw makes its RNG calls over the whole batch, then does the per-row work
in chunks of ``_DRAW_CHUNK_ROWS`` rows, so its temporaries stay a few MB
whatever the batch size. The chunks give the same bytes as one pass. Each
row's knot interval is found once, from a bucket table over the mixing cdf,
and serves as the checked guess of its cell and of its level's cubic piece.

The Cauchy mixers need numpy only; scipy is imported by the quadrature
paths of generic densities (``DensityKernel``, ``generic_admissibility``).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (GENERIC_GRID_HALFWIDTH, AtomUniform, GenericDensity, _brent_roots,
                            _doubling_brackets, cauchy_inverse_density)
from .errors import ConstructionError, DomainError
# ra_flatten is not called here, but perfbench/layers.py traces it under
# this module's name
from .rearrangement import discretize, ra_flatten, ra_flatten_stack, shuffle_columns  # noqa: F401
from .seeding import DEFAULT_SEED, substream

PI = math.pi
_EPS = np.finfo(float).eps
# largest |imbalance| that verify and the tests accept at a solved clip
# level; the Brent solve ends far inside it (see clip_level)
ROOT_TOL = 1e-12
# first knot of the log-spaced t grid
T_MIN = 1e-6
# entries (cells * m * n) of one block of coupling cells built together:
# large enough to amortize the per-sweep numpy calls, small enough that the
# block's temporaries stay a few MB
_CELL_BLOCK_ENTRIES = 1 << 18
# rows of one chunk of a draw's per-row work
_DRAW_CHUNK_ROWS = 1 << 16
# (-1)^k / (2k+3)! for k = 9 down to 0: (phi - sin phi) / phi^3 as a
# polynomial in phi^2, which the c = 0 radius solve uses below phi = 1, where
# phi - sin phi cancels (cut at phi = 1/2, radii just above it were off by up
# to 4.3 eps)
_KEPLER_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9, -1, -1))


def _as_arrays(t, y):
    """(both scalar, t, y): the arguments broadcast to 1-d float arrays."""
    scalar = np.ndim(t) == 0 and np.ndim(y) == 0
    t, y = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                               np.atleast_1d(np.asarray(y, dtype=float)))
    return scalar, t, y


def _atan_diff(u, el):
    """arctan(u) - arctan(el), computed without cancellation."""
    u = np.asarray(u, dtype=float)
    el = np.asarray(el, dtype=float)
    denom = 1.0 + u * el
    base = np.arctan((u - el) / denom)
    corr = np.where(denom > 0, 0.0, np.where(u >= el, PI, -PI))
    out = base + corr
    return float(out) if out.ndim == 0 else out


def _kepler_low(target):
    """tan(phi/2) at the root of phi - sin(phi) = target, for target < pi/2.

    Six Newton passes from cbrt(6*target), the root of the cubic term (on a
    dense grid of targets the iterates reach rounding level by the fourth);
    the derivative 1 - cos(phi) = 2 sin^2(phi/2) does not cancel. The start's
    mantissa is cut to 20 bits: the last bit of np.cbrt depends on numpy's
    SIMD dispatch, and the last iterate keeps an ulp-level trace of its start.
    """
    mant, expo = np.frexp(np.cbrt(6.0 * target))
    phi = np.ldexp(np.round(np.ldexp(mant, 20)), expo - 20)
    for _ in range(6):
        step = phi - np.sin(phi)
        small = phi < 1.0
        x = phi[small]
        z = x * x
        step[small] = np.polyval(_KEPLER_SERIES, z) * z * x
        step -= target
        half = np.sin(0.5 * phi)
        # the floor keeps the root phi = 0 of target = 0 from a 0/0
        phi -= step / np.maximum(2.0 * half * half, 1e-300)
    half = 0.5 * phi
    return np.sin(half) / np.cos(half)


def _kepler_high(target):
    """cot(psi/2) at the root of psi + sin(psi) = target, for target <= pi/2;
    +inf at target = 0.

    Five Newton passes from target/2, which is below the root as
    psi + sin psi <= 2*psi (the iterates reach rounding level by the
    fourth); the derivative 2 cos^2(psi/2) is at least 1.
    """
    psi = 0.5 * target
    for _ in range(5):
        half = np.cos(0.5 * psi)
        psi -= (psi + np.sin(psi) - target) / (2.0 * half * half)
    half = 0.5 * psi
    with np.errstate(divide="ignore"):
        return np.cos(half) / np.sin(half)


class CauchyKernel:
    """Closed-form standard Cauchy ingredients for the slice machinery."""

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 1.0 / (PI * (1.0 + x * x))
        return float(out) if out.ndim == 0 else out

    def peak(self):
        return 1.0 / PI

    def inverse_pdf(self, y):
        """Positive x with pdf(x) = y; +inf for y <= 0."""
        return cauchy_inverse_density(y)

    def centered_moment(self, el, u, c):
        """Integral of (x - c) * pdf(x) over [el, u], cancellation-safe."""
        el = np.asarray(el, dtype=float)
        u = np.asarray(u, dtype=float)
        t1 = np.log1p((u - el) * (u + el) / (1.0 + el * el)) / (2.0 * PI)
        t2 = -(c / PI) * _atan_diff(u, el)
        out = t1 + t2
        return float(out) if out.ndim == 0 else out

    def cdf_diff(self, el, u):
        """F(u) - F(el)."""
        out = _atan_diff(u, el) / PI
        return float(out) if np.ndim(out) == 0 else out

    def center_limit(self, n):
        return math.log(n - 1) / PI

    def radius_cdf(self, a):
        """cdf of the radius law when the density is viewed as a scale
        mixture of centered uniforms: 2F(a) - 1 - 2a*pdf(a)."""
        a = np.asarray(a, dtype=float)
        out = (2.0 / PI) * (np.arctan(a) - a / (1.0 + a * a))
        return float(out) if out.ndim == 0 else out

    def radius_quantile(self, u):
        """Vectorized inverse of radius_cdf, solved in Kepler form.

        With phi = 2*arctan(a), radius_cdf(a) = (phi - sin phi)/pi: Kepler's
        equation at eccentricity 1. Below u = 1/2 the solve is in phi, from
        u = 1/2 on in psi = pi - phi, where 1 - u is exact; u = 1 gives +inf.
        Each takes a fixed number of Newton passes and no stop test, so a
        radius depends on its own u only, not on the batch it is solved in.
        The work runs in ``_DRAW_CHUNK_ROWS`` chunks.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        flat = u.ravel()
        out = np.empty(flat.size)
        for rows in _chunks(flat.size):
            x, a = flat[rows], out[rows]
            low = x < 0.5
            a[low] = _kepler_low(PI * x[low])
            high = ~low
            a[high] = _kepler_high(PI * (1.0 - x[high]))
        return out.reshape(u.shape)


class DensityKernel:
    """Quadrature-backed ingredients for a generic admissible density."""

    def __init__(self, density: GenericDensity, center_limit_value: float):
        self.density = density
        self._limit = float(center_limit_value)

    def pdf(self, x):
        return self.density.pdf(x)

    def peak(self):
        return float(self.density.pdf(0.0))

    def inverse_pdf(self, y):
        return self.density.inverse_pdf(y)

    def centered_moment(self, el, u, c):
        from scipy.integrate import quad

        el, u = np.broadcast_arrays(np.asarray(el, dtype=float), np.asarray(u, dtype=float))
        out = np.array([quad(lambda x: (x - c) * self.density.pdf(x), lo, hi, limit=400)[0]
                        for lo, hi in zip(el.ravel().tolist(), u.ravel().tolist())])
        return float(out[0]) if el.ndim == 0 else out.reshape(el.shape)

    def cdf_diff(self, el, u):
        return self.density.cdf(u) - self.density.cdf(el)

    def center_limit(self, n):
        return self._limit

    def radius_cdf(self, a):
        return 2.0 * self.density.cdf(a) - 1.0 - 2.0 * a * self.density.pdf(a)

    def radius_quantile(self, u):
        """Inverse of radius_cdf by ``_brent_roots`` on [0, 2^k], with k the
        first power whose radius_cdf reaches u (capped past 1e14)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        level = u.ravel()
        hi = _doubling_brackets(lambda a, i: self.radius_cdf(a) < level[i], level.size, 1e14)
        lo = np.zeros_like(hi)
        root = _brent_roots(lambda a, uu: self.radius_cdf(a) - uu, lo, hi,
                            self.radius_cdf(lo) - level, self.radius_cdf(hi) - level, 1e-13,
                            args=(level,), what="radius")
        return root.reshape(u.shape)


@dataclass(frozen=True)
class MixerConfig:
    """Build parameters for a constant-sum Cauchy sampler.

    ``c`` is the per-variable center; admissible range |c| <= log(n-1)/pi.
    ``t_grid`` knots tabulate the slice machinery on a log-spaced grid,
    ``tail_eps`` bounds the truncated mixing-measure mass, ``ra_grid_m``
    is the discretization size of the per-slice rearrangement couplings,
    and ``seed`` drives their deterministic initial shuffles. Raises
    DomainError unless n, t_grid and ra_grid_m are at least 2,
    0 < tail_eps < 1 and seed >= 0.
    """

    n: int
    c: float
    t_grid: int = 2048
    tail_eps: float = 1e-4
    ra_grid_m: int = 512
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("n", "t_grid", "ra_grid_m"):
            if getattr(self, name) < 2:
                raise DomainError(f"need {name} >= 2, got {getattr(self, name)}")
        if not 0.0 < self.tail_eps < 1.0:
            raise DomainError(f"need 0 < tail_eps < 1, got {self.tail_eps}")
        if self.seed < 0:
            raise DomainError(f"need seed >= 0, got {self.seed}")


@dataclass
class SampleBatch:
    """Rows of a constant-sum sample: values plus per-row provenance."""

    values: np.ndarray          # (count, n)
    t: np.ndarray               # mixing parameter per row
    branch: np.ndarray          # 1 = exact atom construction, 2 = coupling row
    row_bound: np.ndarray       # guaranteed |row sum - n*c| bound per row
    target_sum: float

    def row_sums(self):
        return self.values.sum(axis=1)

    def __len__(self):
        return self.values.shape[0]


def _exact_row_bound(n, size):
    """Sum bound of an exact row: rounding of n coordinates of size <= ``size``."""
    return 64.0 * _EPS * n * np.maximum(1.0, size)


def _uniform_block_rows(n, count, rng):
    """count x n matrix, coordinates U(0,1), every row summing to n/2.

    Even n: antithetic pairs (v, 1-v). Odd n: one explicit three-block
    (v, shift of v by 1/2 mod 1, and the slope -2 completion) plus pairs.
    """
    rows = np.empty((count, n))
    k = 0
    if n % 2 == 1:
        v = rng.random(count)
        rows[:, 0] = v
        rows[:, 1] = np.where(v < 0.5, v + 0.5, v - 0.5)
        rows[:, 2] = np.where(v < 0.5, 1.0 - 2.0 * v, 2.0 - 2.0 * v)
        k = 3
    while k < n:
        v = rng.random(count)
        rows[:, k] = v
        rows[:, k + 1] = 1.0 - v
        k += 2
    return rows


def _chunks(count):
    """Slices of [0, count) of ``_DRAW_CHUNK_ROWS`` rows (the last may be short)."""
    step = _DRAW_CHUNK_ROWS
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _permute_rows(values, rng):
    """Shuffle the coordinates of each row of ``values`` in place.

    ``rng.permuted(..., axis=1)`` draws row by row, so permuting a chunk of
    rows at a time, in row order, takes the draws of one call over all rows.
    Each chunk gathers its coordinates through flat row offsets.
    """
    n = values.shape[1]
    offsets = np.arange(0, min(len(values), _DRAW_CHUNK_ROWS) * n, n)[:, None]
    for rows in _chunks(len(values)):
        size = rows.stop - rows.start
        perm = np.broadcast_to(np.arange(n), (size, n)).copy()
        rng.permuted(perm, axis=1, out=perm)
        perm += offsets[:size]
        block = values[rows]
        block[...] = block.reshape(-1)[perm]


class SymmetricMixer:
    """Exact center-0 sampler for a symmetric unimodal kernel.

    Draw a radius from the centered-uniform scale mixture of the density,
    then an exact constant-sum tuple of U(-a, a) coordinates. Marginals
    are exact (no discretization or truncation) and row sums vanish to
    machine precision.
    """

    def __init__(self, config: MixerConfig, kernel=None):
        if config.c != 0.0:
            raise DomainError("symmetric construction only covers c = 0")
        self.config = config
        self.kernel = kernel or CauchyKernel()
        self.n = config.n
        self.c = 0.0
        self.mass_deficit = 0.0

    def sample(self, count, rng) -> SampleBatch:
        n = self.n
        radius = self.kernel.radius_quantile(rng.random(count))
        # (2 * rows - 1) * radius, formed in place
        values = _uniform_block_rows(n, count, rng)
        values *= 2.0
        values -= 1.0
        values *= radius[:, None]
        _permute_rows(values, rng)
        branch = np.ones(count, dtype=np.int8)
        return SampleBatch(
            values=values,
            t=radius,
            branch=branch,
            row_bound=self.row_bound_for(radius, branch),
            target_sum=0.0,
        )

    def row_bound_for(self, t, branch):
        """Per-row sum bound at radius ``t``: n coordinates in [-t, t]."""
        return _exact_row_bound(self.n, np.asarray(t, dtype=float))


@dataclass
class _CellCoupling:
    """Rearrangement coupling of one slice's atom-plus-uniform part."""

    t_hat: float
    lo: float
    cut: float
    atom_weight: float
    raw_matrix: np.ndarray        # columns are exact permutations of the discretization
    corrected_matrix: np.ndarray  # per-row residual folded into one uniform coordinate
    bound: float                  # n * width / m, the recorded per-row bound
    ra_spread: float


def _raise_at(t, bad, message, value=None):
    """Raise ConstructionError at the first t where ``bad`` holds; the
    message formats that element of ``value`` when one is given."""
    if bad.any():
        i = int(np.argmax(bad))
        text = message if value is None else message.format(float(value[i]))
        raise ConstructionError(f"{text} at t={float(t[i])}")


class _Intervals:
    """The interval of a sorted grid that holds each x:
    ``clip(searchsorted(grid, x, "right") - 1, 0, len(grid) - 2)``, so the
    end intervals extend outward.

    Given a guess of each interval, the guess is checked against the
    interval's two ends and searched for only where it fails.
    """

    def __init__(self, grid):
        self.grid = grid
        # ends of each interval, the outer ends of the end intervals open
        self.lo = np.concatenate([[-np.inf], grid[1:-1]])
        self.hi = np.concatenate([grid[1:-1], [np.inf]])

    def __call__(self, x, guess=None):
        """The intervals of ``x``; a ``guess`` array is corrected in place
        and returned."""
        if guess is None:
            return np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, self.grid.size - 2)
        miss = np.flatnonzero(~((self.lo[guess] <= x) & (x < self.hi[guess])))
        if miss.size:
            guess[miss] = self(x[miss])
        return guess


class _CdfInverse:
    """``np.interp(u, cdf, knots)`` for u in [0, 1], by np.interp's own
    arithmetic, and the interval of ``knots`` each result lies in.

    With j + 1 = #(cdf <= u), np.interp returns ``slope[j]*(u - cdf[j]) +
    knots[j]`` with ``slope = diff(knots) / diff(cdf)``, ``knots[j]`` where
    u == cdf[j], and the end knots where j < 0 or j >= K - 1. The tables are
    indexed by j + 1 and padded with a zero slope at both ends, so the end
    knots come out of the same arithmetic. j + 1 is read from a table over
    B equal buckets of u, B a power of two (so ``u*B`` is exact): a bucket
    that holds no knot gives it outright, one that holds one knot through
    one comparison, and rows in a bucket that holds more search the cdf.
    """

    def __init__(self, cdf, knots):
        self.cdf = cdf
        self.knots = knots
        # a flat piece of the cdf holds no u; on a piece of subnormal width
        # the slope is infinite, and only its left end takes the knot itself
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slope = np.diff(knots) / np.diff(cdf)
        self.slope_at = np.concatenate([[0.0], slope, [0.0]])
        self.cdf_at = np.concatenate([[0.0], cdf])
        self.knot_at = np.concatenate([knots[:1], knots])
        # about two buckets per knot; bucket B holds u = 1 alone
        self.buckets = 2 << (cdf.size - 1).bit_length()
        edges = np.arange(self.buckets + 1) / self.buckets
        first = np.searchsorted(cdf, edges, side="right")
        inside = np.append(np.searchsorted(cdf, edges[1:], side="left"), cdf.size) - first
        self.first = np.where(inside < 2, first, -1).astype(np.int32)   # -1: search
        self.edge = np.full(self.buckets + 1, np.inf)
        one = np.flatnonzero(inside == 1)
        self.edge[one] = cdf[first[one]]

    def invert(self, u):
        """Overwrite ``u`` with its t, one ``_DRAW_CHUNK_ROWS`` chunk at a
        time; returns each row's knot interval clipped to the cells, int32."""
        cells = np.empty(u.size, dtype=np.int32)
        for rows in _chunks(u.size):
            x = u[rows]
            bucket = (x * self.buckets).astype(np.intp)
            j1 = self.first[bucket]
            j1 += x >= self.edge[bucket]
            search = np.flatnonzero(j1 < 0)
            if search.size:
                j1[search] = np.searchsorted(self.cdf, x[search], side="right")
            knot = self.knot_at[j1]
            cdf = self.cdf_at[j1]
            t = x - cdf
            with np.errstate(invalid="ignore"):     # inf * 0, replaced below
                t *= self.slope_at[j1]
            t += knot
            np.copyto(t, knot, where=x == cdf)
            u[rows] = t
            j1 -= 1
            np.clip(j1, 0, self.knots.size - 2, out=cells[rows])
        return cells


class _Pchip:
    """Monotone piecewise cubic through (x, y), x strictly increasing.

    The PCHIP of Fritsch & Butland (1984) with the arithmetic of
    ``scipy.interpolate.PchipInterpolator``: weighted harmonic-mean slopes
    at interior knots (zero at a local extremum or a flat piece), one-sided
    three-point slopes at both ends, and each piece evaluated as a power
    sum in ``x - x[i]``. Outside [x[0], x[-1]] the end pieces extend.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        if y.size == 2:
            d[:] = m[0]
        else:
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = self._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self._pieces = _Intervals(x)
        # power-sum coefficients of s^3, s^2, s and 1 on each piece
        self.coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        """Three-point end slope, zeroed against the end secant's sign and
        capped at 3*m0 where the secants change sign (Moler's pchiptx)."""
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, x, piece=None):
        """The cubic at ``x``; ``piece``, a guess of each x's piece, is
        checked and corrected in place."""
        x = np.asarray(x, dtype=float)
        i = self._pieces(x, piece)
        s = x - self.x[i]
        c3, c2, c1, c0 = (np.take(c, i) for c in self.coef)
        # summed from 0.0 upward in powers of s, as scipy's evaluation does
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)


def _fold_residuals(raw, lo, cut, target, t_hat):
    """Fold each row's residual from ``target`` into one coordinate.

    ``raw`` is a (cells, m, n) stack whose cell k is supported on
    [lo[k], cut[k]]. In every row the whole residual goes to the coordinate
    with the most room on both sides after the shift (the first such one);
    raises if some row has no coordinate that stays inside the support.
    """
    dev = raw.sum(axis=2) - target
    shifted = raw - dev[:, :, None]
    margin = np.minimum(shifted - lo[:, None, None], cut[:, None, None] - shifted)
    j = margin.argmax(axis=2)[:, :, None]
    stuck = np.take_along_axis(margin, j, axis=2)[:, :, 0] < 0.0
    if stuck.any():
        k, r = np.unravel_index(np.argmax(stuck), stuck.shape)
        raise ConstructionError(
            f"coupling residual {dev[k, r]} cannot be folded into any coordinate "
            f"at t={t_hat[k]}"
        )
    corrected = raw.copy()
    np.put_along_axis(corrected, j, np.take_along_axis(shifted, j, axis=2), axis=2)
    return corrected


def _cell_blocks(law, ids):
    """Build the cells ``ids`` a block at a time; yields each block's ids
    and its cells, the fields of ``_CellCoupling`` stacked over the block.

    The atom-plus-uniform part of each slice is discretized, every
    column gets its own shuffle from the cell's ``coupling`` substream,
    the block's matrices are rearranged together, and each row's
    residual is folded into the coordinate with the most room. A cell
    does not depend on which other cells share its block.
    """
    n, c, m, seed = law.n, law.c, law.config.ra_grid_m, law.config.seed
    per_block = max(1, _CELL_BLOCK_ENTRIES // (m * n))
    for start in range(0, len(ids), per_block):
        block = np.asarray(ids[start:start + per_block], dtype=int)
        upper = np.minimum(block + 1, len(law.knots) - 1)
        t_hat = np.sqrt(law.knots[block] * law.knots[upper])
        w = law.weights_at(t_hat, law.clip_level(t_hat))
        w_lo, w_hi, cut, w_unif, lo = w["w_lo"], w["w_hi"], w["cut"], w["w_unif"], w["lo"]
        _raise_at(t_hat, w_lo <= 0.0, "low-atom weight {} <= 0", w_lo)
        _raise_at(t_hat, (w_hi < 0.0) | (w_unif < -1e-15), "negative slice weight")
        _raise_at(t_hat, cut < c + t_hat - 1e-9 * np.maximum(1.0, t_hat),
                  "uniform cut {} below c+t", cut)
        _raise_at(t_hat, (w_unif > 0.0) & (w_lo < (n - 1) * w_hi - 1e-12),
                  "atom imbalance w_lo < (n-1)w_hi")
        width = cut - lo
        denom = w_lo - (n - 1) * w_hi + w_unif
        _raise_at(t_hat, (denom <= 0.0) | (w_unif <= 0.0),
                  "degenerate atom-plus-uniform slice")
        atom_weight = np.minimum(np.maximum((w_lo - (n - 1) * w_hi) / denom, 0.0), 1.0)
        _raise_at(t_hat, atom_weight > 1.0 - 2.0 / n + 1e-9,
                  "atom weight {} violates the mean inequality margin", atom_weight)
        # mean-inequality precondition: n * t >= width (cut <= c+(n-1)t)
        _raise_at(t_hat, n * t_hat < width - 1e-9 * np.maximum(1.0, width),
                  "slice width {} exceeds n*t", width)
        stack = np.empty((block.size, m, n))
        for k, idx in enumerate(block):
            model = AtomUniform(lo[k], cut[k], atom_weight[k])
            stack[k] = discretize(model, m)[:, None]
            shuffle_columns(stack[k], substream(seed, "coupling", str(idx)))
        flats = ra_flatten_stack(stack, max_sweeps=64)
        raw = np.stack([f.matrix for f in flats])
        yield block, {
            "t_hat": t_hat, "lo": lo, "cut": cut, "atom_weight": atom_weight,
            "raw_matrix": raw, "corrected_matrix": _fold_residuals(raw, lo, cut, n * c, t_hat),
            "bound": n * width / m, "ra_spread": np.array([f.spread for f in flats]),
        }


class _CellTable:
    """The coupling cells of one slice law, in one table filled on first use.

    Cell k couples the slice at the geometric midpoint ``t_hat`` of knots k
    and k+1. The table holds every built cell's corrected rows, its
    ``t_hat`` and its row bound; it is allocated empty and written in place,
    so only the pages of built cells become resident. A draw finds its rows'
    cells, builds the missing ones once, then reads its rows by gathers.
    """

    def __init__(self, law):
        cells = len(law.knots) - 1
        self.rows = np.empty((cells, law.config.ra_grid_m, law.n))
        self.t_hat = np.empty(cells)
        self.bound = np.empty(cells)
        self.built = np.zeros(cells, dtype=bool)

    def build(self, law, wanted):
        """Build the cells flagged in the mask ``wanted`` that are missing."""
        for block, built in _cell_blocks(law, np.flatnonzero(wanted & ~self.built)):
            self.rows[block] = built["corrected_matrix"]
            self.t_hat[block], self.bound[block] = built["t_hat"], built["bound"]
            self.built[block] = True


class ConstructiveMixer:
    """Sampler for 0 < c <= log(n-1)/pi via the slice decomposition."""

    def __init__(self, config: MixerConfig, kernel=None):
        kernel = kernel or CauchyKernel()
        n, c = config.n, config.c
        if n < 3:
            raise DomainError("the constructive route needs n >= 3 (n = 2 only admits c = 0)")
        limit = kernel.center_limit(n)
        if not 0.0 < c <= limit + 1e-12:
            raise DomainError(
                f"center {c} outside the admissible interval (0, {limit:.10g}] for n={n}"
            )
        self.config = config
        self.kernel = kernel
        self.n = n
        self.c = min(c, limit)
        self._build()
        self._coupling = _CellTable(self)

    # ----- slice machinery (scalars or arrays of t) -------------------

    def _clip_window(self, t, y):
        """Window [el, u] of the level-``y`` clipped density over
        [c-t, c+(n-1)t], and the mask where it is non-empty. The kernel's
        inverse density is evaluated only at levels strictly inside
        (0, peak)."""
        n, c, kern = self.n, self.c, self.kernel
        el, u = c - t, c + (n - 1) * t
        clipped = y > 0.0
        live = ~clipped | (y < kern.peak())
        inner = clipped & live
        if inner.any():
            r = np.atleast_1d(kern.inverse_pdf(y[inner]))
            el[inner] = np.maximum(el[inner], -r)
            u[inner] = np.minimum(u[inner], r)
            live[inner] = el[inner] < u[inner]
        return el, u, live

    def imbalance(self, t, y):
        """Centered first moment of the density clipped at level ``y`` over
        the window [c-t, c+(n-1)t]. The clip level h(t) is its root in y.
        ``t`` and ``y`` broadcast; two scalars give a float."""
        c = self.c
        scalar, t, y = _as_arrays(t, y)
        el, u, live = self._clip_window(t, y)
        out = np.zeros(t.shape)
        if live.any():
            el, u = el[live], u[live]
            lin = 0.5 * (u - el) * (u + el - 2.0 * c)
            out[live] = self.kernel.centered_moment(el, u, c) - y[live] * lin
        return float(out[0]) if scalar else out

    def clip_level(self, t):
        """Solve for the clip level h(t) (root of the imbalance in y).

        Works on a scalar or an array of t. Each element runs its own Brent
        iteration on [0, pdf(c+t)] (``_brent_roots`` with ``xtol=1e-300``),
        which stops within 4 eps * y of a sign change. The slope of the
        imbalance there, times y, is the clipped window's centered moment
        (at most 0.16 for n up to 100), so the residual is rounding, far
        below ``ROOT_TOL``.
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ymax = self.kernel.pdf(self.c + t)
        a0 = self.imbalance(t, np.zeros_like(t))
        _raise_at(t, a0 < -1e-10, "imbalance at zero level is {:.3e} < 0 (center outside "
                  "the admissible interval or numeric defect)", a0)
        y = np.zeros_like(t)
        pos = np.nonzero(a0 > 0.0)[0]
        a_max = self.imbalance(t[pos], ymax[pos])
        y[pos] = ymax[pos]
        below = a_max < 0.0
        solve = pos[below]
        if solve.size:
            y[solve] = _brent_roots(lambda yy, tt: self.imbalance(tt, yy), np.zeros(solve.size),
                                    ymax[solve], a0[solve], a_max[below], 1e-300,
                                    args=(t[solve],), what="clip level")
        return float(y[0]) if scalar else y

    def edge_density_balance(self, t):
        """(n-1)^2 f(c+(n-1)t) - f(c-t); its sign changes at most once and
        controls the monotonicity of the zero-level imbalance."""
        n, c, kern = self.n, self.c, self.kernel
        t = np.asarray(t, dtype=float)
        out = (n - 1) ** 2 * kern.pdf(c + (n - 1) * t) - kern.pdf(c - t)
        return float(out) if out.ndim == 0 else out

    def truncated_mass(self, t, level=None, y=np.inf):
        """Mass below ``y`` of the reassembly truncated at t; with the default
        y = +inf, the mixing-measure mass on (0, t]. Closed form
        F(top)-F(c-t) - h*(top-(c-t)) with top = min(y, cut), and 0 where
        top <= c-t."""
        if level is None:
            level = self.clip_level(t)
        scalar, t, level = _as_arrays(t, level)
        lo, cut = self._slice_cut(t, level)
        top = np.minimum(cut, y)
        out = np.atleast_1d(self.kernel.cdf_diff(lo, top)) - level * (top - lo)
        out = np.where(top > lo, out, 0.0)
        return float(out[0]) if scalar else out

    # ----- tabulation ---------------------------------------------------

    def _build(self):
        cfg = self.config
        # grow T until the truncated mixing mass is within tail_eps of 1
        t_max = 16.0 * max(1.0, self.n)
        for _ in range(60):
            if 1.0 - self.truncated_mass(t_max) <= cfg.tail_eps:
                break
            t_max *= 2.0
        else:
            raise ConstructionError("could not reach the requested mixing-measure mass")
        knots = np.geomspace(T_MIN, t_max, cfg.t_grid)
        levels = self.clip_level(knots)
        # the high-atom positive part switches where pdf(c+(n-1)t) crosses the
        # level; pin a knot at each detected crossing so the kink is resolved
        kern, n, c = self.kernel, self.n, self.c
        kink_arg = kern.pdf(c + (n - 1) * knots) - levels
        i = np.nonzero(~(kink_arg[:-1] * kink_arg[1:] >= 0.0))[0]
        # at tiny t both quantities agree to second order and the sign is
        # numerical noise; only resolve crossings that are clearly real
        noise_floor = 1e-10 * np.maximum(np.maximum(levels[i], levels[i + 1]), 1e-30)
        i = i[~(np.minimum(np.abs(kink_arg[i]), np.abs(kink_arg[i + 1])) < noise_floor)]
        inserts = _brent_roots(lambda t: kern.pdf(c + (n - 1) * t) - self.clip_level(t),
                               knots[i], knots[i + 1], kink_arg[i], kink_arg[i + 1], 1e-14,
                               what="kink root")
        # each bracket holds one root, so each insert lies between its own
        # two knots; one too close to either is not inserted
        far = np.minimum(inserts - knots[i], knots[i + 1] - inserts) > 1e-12 * inserts
        knots = np.insert(knots, i[far] + 1, inserts[far])
        levels = np.insert(levels, i[far] + 1, self.clip_level(inserts[far]))
        self.knots = knots
        self.levels = levels
        self._level_interp = _Pchip(np.log(self.knots), self.levels)

        w = self.weights_at(self.knots, self.levels)
        self.rates = w["rate"]
        # the cumulative mixing mass has a closed form (the truncated
        # reassembly mass), so the cdf is tabulated exactly at the knots;
        # the trapezoid of the rates is kept as an independent cross-check,
        # taken in log t, where the log-spaced knots are evenly spaced
        cdf = self.truncated_mass(self.knots, self.levels)
        self.raw_mass = float(cdf[-1])
        self.mass_deficit = 1.0 - self.raw_mass
        if not -1e-9 <= self.mass_deficit <= cfg.tail_eps + 1e-6:
            raise ConstructionError(
                f"mixing measure mass {self.raw_mass} deviates from 1 beyond calibration"
            )
        flux = self.rates * self.knots
        increments = 0.5 * (flux[1:] + flux[:-1]) * np.diff(np.log(self.knots))
        trap_mass = cdf[0] + float(np.sum(increments))
        if abs(trap_mass - self.raw_mass) > cfg.tail_eps + 1e-3:
            raise ConstructionError(
                f"rate trapezoid mass {trap_mass} disagrees with the closed form "
                f"{self.raw_mass} beyond calibration: t_grid={cfg.t_grid} is too coarse, "
                f"a finer grid is needed"
            )
        self.mixing_cdf = cdf / self.raw_mass
        self._t_of_u = _CdfInverse(self.mixing_cdf, self.knots)
        self._cells = _Intervals(self.knots)

    def level_at(self, t, piece=None):
        """Tabulated clip level (monotone cubic through the solved knots);
        ``piece``, a guess of each t's knot interval, is checked before use."""
        t_arr = np.clip(np.asarray(t, dtype=float), self.knots[0], self.knots[-1])
        out = np.clip(self._level_interp(np.log(t_arr), piece), 0.0, None)
        return float(out) if out.ndim == 0 else out

    def _slice_cut(self, t, level):
        """(lo, cut): the slice's left end c - t and its uniform part's end."""
        return self.c - t, np.minimum(self.c + (self.n - 1) * t, self.kernel.inverse_pdf(level))

    def weights_at(self, t, level=None):
        """The one evaluation of the slice law, vectorized over t: at the
        tabulated clip level by default (draws, row bounds, verify), at the
        solved level ``clip_level(t)`` for the coupling cells. The uniform
        weight is -h'(t) * (cut - lo), h' by the implicit-function formula."""
        n, c, kern = self.n, self.c, self.kernel
        t = np.asarray(t, dtype=float)
        level = self.level_at(t) if level is None else np.asarray(level, dtype=float)
        lo, cut = self._slice_cut(t, level)
        hi = c + (n - 1) * t
        w_lo = kern.pdf(lo) - level
        w_hi = (n - 1) * np.maximum(kern.pdf(hi) - level, 0.0)
        d_y = -0.5 * (cut - lo) * (cut + lo - 2.0 * c)
        d_t = t * ((n - 1) ** 2 * np.maximum(kern.pdf(hi) - level, 0.0) - np.maximum(w_lo, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(d_y != 0.0, -d_t / d_y, 0.0)
        w_unif = np.maximum(-slope * (cut - lo), 0.0)
        rate = w_lo + w_hi + w_unif
        return {"w_lo": w_lo, "w_hi": w_hi, "cut": cut, "w_unif": w_unif, "rate": rate,
                "lo": lo, "hi": hi}

    # ----- sampling -----------------------------------------------------

    def cell_coupling(self, idx) -> _CellCoupling:
        """The coupling cell between knots ``idx`` and ``idx + 1``, built
        afresh with its raw matrix; its bytes are those of the table's cell."""
        ((_, built),) = _cell_blocks(self, np.array([idx]))
        return _CellCoupling(**{k: v[0] if v.ndim == 3 else float(v[0])
                                for k, v in built.items()})

    def _sample_at(self, ts, rng, cells) -> SampleBatch:
        """Rows at the drawn mixing parameters ``ts``, a float array that
        becomes the batch's ``t``: coupling rows snap theirs in place.
        ``cells``, an int32 guess of each row's cell, becomes its cell."""
        n, c, table = self.n, self.c, self._coupling
        count = len(ts)
        coin = rng.random(count)
        hot = rng.integers(0, n, size=count)
        row_idx = rng.integers(0, self.config.ra_grid_m, size=count)

        # each row's cell and branch; the cells of coupling rows are wanted
        branch = np.empty(count, dtype=np.int8)
        wanted = np.zeros(table.built.size, dtype=bool)
        for rows in _chunks(count):
            t = ts[rows]
            # a row's cell is its level's cubic piece, up to rounding of the log
            cell = self._cells(t, cells[rows])
            w = self.weights_at(t, self.level_at(t, cell.copy()))
            with np.errstate(divide="ignore", invalid="ignore"):
                p_cyclic = np.clip(n * w["w_hi"] / np.maximum(w["rate"], 1e-300), 0.0, 1.0)
            is_cyclic = coin[rows] < p_cyclic
            branch[rows] = np.where(is_cyclic, 1, 2)
            wanted[cell[~is_cyclic]] = True
        del coin
        table.build(self, wanted)

        values = np.empty((count, n))
        bound = np.empty(count)
        for rows in _chunks(count):
            is_cyclic = branch[rows] == 1
            # cyclic branch: exact at the drawn t
            idx1 = np.flatnonzero(is_cyclic) + rows.start
            if idx1.size:
                t1 = ts[idx1]
                values[idx1] = (c - t1)[:, None]
                values[idx1, hot[idx1]] = c + (n - 1) * t1
                bound[idx1] = self._cyclic_bound(t1)
            # coupling branch: snap to the cell representative
            idx2 = np.flatnonzero(~is_cyclic) + rows.start
            if idx2.size:
                cell = cells[idx2]
                coupled = table.rows[cell, row_idx[idx2]]
                _permute_rows(coupled, rng)
                values[idx2] = coupled
                ts[idx2], bound[idx2] = table.t_hat[cell], table.bound[cell]

        return SampleBatch(
            values=values,
            t=ts,
            branch=branch,
            row_bound=bound,
            target_sum=n * c,
        )

    def sample(self, count, rng) -> SampleBatch:
        """``count`` rows with standard-Cauchy coordinates summing to n*c."""
        ts = rng.random(count)
        return self._sample_at(ts, rng, self._t_of_u.invert(ts))

    def _cyclic_bound(self, t):
        """Sum bound of a cyclic row at ``t``: its coordinates are <= |c| + (n-1)t."""
        return _exact_row_bound(self.n, abs(self.c) + (self.n - 1) * t)

    def row_bound_for(self, t, branch):
        """Recompute the per-row sum bound from the recorded (t, branch)."""
        t = np.asarray(t, dtype=float)
        branch = np.asarray(branch)
        lo, cut = self._slice_cut(t, self.level_at(t))
        coupling = self.n * (cut - lo) / self.config.ra_grid_m
        return np.where(branch == 1, self._cyclic_bound(t), coupling)


class ReflectedMixer:
    """Sampler for c < 0: negation of the mixer for -c, row by row."""

    def __init__(self, base):
        self.base = base
        self.config = base.config
        self.n = base.n
        self.c = -base.c
        self.mass_deficit = base.mass_deficit

    def sample(self, count, rng) -> SampleBatch:
        batch = self.base.sample(count, rng)
        np.negative(batch.values, out=batch.values)
        return SampleBatch(
            values=batch.values,
            t=batch.t,
            branch=batch.branch,
            row_bound=batch.row_bound,
            target_sum=-batch.target_sum,
        )

    def row_bound_for(self, t, branch):
        return self.base.row_bound_for(t, branch)


def build_mixer(config: MixerConfig, kernel=None):
    """Dispatch on the sign of c; rejects centers outside the exact interval."""
    kernel = kernel or CauchyKernel()
    n, c = config.n, config.c
    limit = kernel.center_limit(n)
    if abs(c) > limit + 1e-12:
        raise DomainError(
            f"center {c} outside the admissible interval [-{limit:.10g}, {limit:.10g}] for n={n}"
        )
    if c == 0.0:
        return SymmetricMixer(config, kernel)
    if c > 0.0:
        return ConstructiveMixer(config, kernel)
    return ReflectedMixer(build_mixer(dataclasses.replace(config, c=-c), kernel))


class ConvexCombinationSampler:
    """Coordinatewise convex combination of two constant-sum samplers.

    For standard Cauchy marginals the combination alpha*X + (1-alpha)*Y of
    independent mixes is again standard Cauchy in every coordinate (strict
    stability), and the center interpolates linearly. This realizes every
    center between the two input centers.
    """

    def __init__(self, mixer_a, mixer_b, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1]")
        if mixer_a.n != mixer_b.n:
            raise DomainError("mixers must share n")
        self.mixer_a = mixer_a
        self.mixer_b = mixer_b
        self.alpha = float(alpha)
        self.n = mixer_a.n
        self.c = alpha * mixer_a.c + (1.0 - alpha) * mixer_b.c

    def sample(self, count, rng) -> SampleBatch:
        a = self.mixer_a.sample(count, rng)
        b = self.mixer_b.sample(count, rng)
        al = self.alpha
        # al * a + (1 - al) * b, formed in the two fresh batches
        values = a.values
        values *= al
        b.values *= 1.0 - al
        values += b.values
        return SampleBatch(
            values=values,
            t=np.full(count, np.nan),
            branch=np.full(count, 3, dtype=np.int8),
            row_bound=al * a.row_bound + (1.0 - al) * b.row_bound,
            target_sum=al * a.target_sum + (1.0 - al) * b.target_sum,
        )


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    q_max: float
    witness: float | None = None


def generic_admissibility(density: GenericDensity, n: int) -> AdmissibilityResult:
    """Check whether a symmetric unimodal density supports the slice pipeline.

    Requires sqrt(1/g) convex (verified by second differences on 801 points
    of [-GENERIC_GRID_HALFWIDTH, GENERIC_GRID_HALFWIDTH], tolerance 1e-9)
    and returns the largest admissible per-variable center, the liminf of
    integral_t^{(n-1)t} x g(x) dx along a geometric t-sequence.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    xs = np.linspace(-GENERIC_GRID_HALFWIDTH, GENERIC_GRID_HALFWIDTH, 801)
    g = np.maximum(density.pdf(xs), 1e-300)
    s = np.sqrt(1.0 / g)
    second = s[:-2] - 2.0 * s[1:-1] + s[2:]
    bad = np.nonzero(second < -1e-9)[0]
    if bad.size:
        return AdmissibilityResult(ok=False, q_max=0.0, witness=float(xs[bad[0] + 1]))
    from scipy.integrate import quad

    vals = []
    for k in range(0, 36):
        t = 2.0 ** k
        v, _ = quad(lambda x: x * density.pdf(x), t, (n - 1) * t, limit=200)
        vals.append(v)
    q_max = max(0.0, float(min(vals[-10:])))
    return AdmissibilityResult(ok=True, q_max=q_max, witness=None)


def build_mixer_for_density(density: GenericDensity, n: int, c: float,
                            t_grid: int = 256, tail_eps: float = 1e-3,
                            ra_grid_m: int = 128, seed: int = 0):
    """Run the slice pipeline with a generic admissible density as kernel."""
    adm = generic_admissibility(density, n)
    if not adm.ok:
        raise DomainError(
            f"density fails the sqrt(1/g) convexity requirement near x={adm.witness}"
        )
    if abs(c) > adm.q_max + 1e-9:
        raise DomainError(f"center {c} outside the admissible bound {adm.q_max:.6g}")
    kernel = DensityKernel(density, adm.q_max)
    cfg = MixerConfig(n=n, c=c, t_grid=t_grid, tail_eps=tail_eps,
                      ra_grid_m=ra_grid_m, seed=seed)
    return build_mixer(cfg, kernel)
