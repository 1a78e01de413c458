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

For 0 <= c <= c_sym(n), ``build_mixer`` uses ``ExplicitMixer`` instead of
the slices: cyclic rows carry the part of the law that is not symmetric
about c, and block rows carry the rest, with no cells and no
rearrangement. The symmetric rest is a scale mixture of uniforms about c,
and centered uniforms combine into constant sums by antithetic pairs plus
an explicit three-block map. At c = 0 there are no cyclic rows. c < 0 is
the reflection of the mixer for -c.

The slice machinery is driven by the clip level h(t): the unique level
below the density value at c+t for which the level-clipped density over
the window [c-t, c+(n-1)t] has centered first moment zero. The slice law is
evaluated in one place, ``ConstructiveMixer.weights_at``: at the solved level
for the coupling cells, at the tabulated level for draws. The coupling cells
live in one table, filled on first use; a draw reads its rows by one gather.

A draw makes its RNG calls over the whole batch, then does the per-row work
in chunks of ``_DRAW_CHUNK_ROWS`` rows, so its temporaries stay a few MB
whatever the batch size. The chunks give the same bytes as one pass.

The module needs numpy only and writes no law down itself. A mixer runs on
any slice kernel: the closed-form standard ``distributions.Cauchy`` by
default, or a ``distributions.GenericDensity``, whose quadratures are its own.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import AtomUniform, Cauchy, _brent_roots
from .errors import ConstructionError, DomainError
# ra_flatten is not called here, but perfbench/layers.py traces it under
# this module's name
from .rearrangement import discretize, ra_flatten, ra_flatten_stack, shuffle_columns  # noqa: F401
from .seeding import DEFAULT_SEED, substream

CauchyKernel = Cauchy   # the name perfbench/layers.py traces radius_quantile under

_EPS = np.finfo(float).eps
# largest |imbalance| that verify and the tests accept at a solved clip
# level; the Brent solve ends far inside it (see clip_level)
ROOT_TOL = 1e-12
# the log-spaced t grid: first knot, knot count, mixing mass left beyond it
T_MIN = 1e-6
T_GRID = 2048
TAIL_EPS = 1e-4
# atoms of each coupling cell's discretization
RA_GRID_M = 512
# entries (cells * m * n) of one block of coupling cells built together:
# large enough to amortize the per-sweep numpy calls, small enough that the
# block's temporaries stay a few MB
_CELL_BLOCK_ENTRIES = 1 << 18
# rows of one chunk of a draw's per-row work
_DRAW_CHUNK_ROWS = 1 << 16
# the explicit mixer's log grid: points per unit of log x (rounded so that
# each ratio-(n-1) period holds a whole number), and its ends
_EXPLICIT_STEP = 1.0 / 512
_EXPLICIT_LO = 1e-8
_EXPLICIT_HI = 1e9
# Taylor terms of the odd part D in the t-law series' closure, and the
# argument below which the closure takes over (its next term is below
# (1e-2)^10 relative)
_SKEW_TERMS = 5
_SKEW_CLOSE = 1e-2


def _as_arrays(t, y):
    """(both scalar, t, y): the arguments broadcast to 1-d float arrays."""
    scalar = np.ndim(t) == 0 and np.ndim(y) == 0
    t, y = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                               np.atleast_1d(np.asarray(y, dtype=float)))
    return scalar, t, y


@dataclass(frozen=True)
class MixerConfig:
    """Build parameters for a constant-sum Cauchy sampler.

    ``c`` is the per-variable center; admissible range |c| <=
    ``kernel.center_limit(n)``, log(n-1)/pi for the default standard Cauchy.
    The slice grid (``T_GRID``, ``TAIL_EPS``) and the coupling cells'
    discretization size (``RA_GRID_M``) are fixed; ``seed`` drives the cells'
    deterministic initial shuffles. Raises DomainError unless c is finite
    and 0 or normal (a subnormal c rounds the cyclic fraction), n >= 2 and
    seed >= 0.
    """

    n: int
    c: float
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise DomainError(f"need a finite c, got {self.c}")
        if 0.0 < abs(self.c) < sys.float_info.min:
            raise DomainError(f"need c = 0 or |c| >= {sys.float_info.min!r}, got {self.c!r}")
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        if self.seed < 0:
            raise DomainError(f"need seed >= 0, got {self.seed}")


@dataclass
class SampleBatch:
    """Rows of a constant-sum sample: values plus per-row provenance."""

    values: np.ndarray          # (count, n)
    t: np.ndarray               # mixing parameter per row
    # 1 = cyclic row, 2 = coupling row, 3 = convex combination of two
    # batches (t is nan), 4 = explicit row symmetric about c (t is its
    # radius R; every row at c = 0)
    branch: np.ndarray
    row_bound: np.ndarray       # guaranteed |row sum - n*c| bound per row
    target_sum: float

    def row_sums(self):
        return self.values.sum(axis=1)


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


def _interval(grid, x):
    """The interval of the sorted ``grid`` that holds each x, the end
    intervals extended outward."""
    return np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)


class _CdfInverse:
    """``np.interp(u, cdf, knots)`` for u in [0, 1], by np.interp's own
    arithmetic.

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
        """Overwrite ``u`` with its t, one ``_DRAW_CHUNK_ROWS`` chunk at a time."""
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

    def __call__(self, x):
        """The cubic at ``x``."""
        x = np.asarray(x, dtype=float)
        i = _interval(self.x, x)
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
    n, c, m, seed = law.n, law.c, law.ra_grid_m, law.config.seed
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
        self.rows = np.empty((cells, law.ra_grid_m, law.n))
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

    stream = 1

    def __init__(self, config: MixerConfig, kernel=None):
        kernel = kernel or Cauchy()
        n, c = config.n, config.c
        if n < 3:
            raise DomainError("the constructive route needs n >= 3 (n = 2 only admits c = 0)")
        limit = kernel.center_limit(n)
        if not 0.0 < c <= limit:
            raise DomainError(
                f"center {c} outside the admissible interval (0, {limit}] for n={n}"
            )
        self.config = config
        self.kernel = kernel
        self.n = n
        self.c = c
        # read once, so a mixer's cells all share one m
        self.ra_grid_m = RA_GRID_M
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
        # grow T until the truncated mixing mass is within TAIL_EPS of 1
        t_max = 16.0 * max(1.0, self.n)
        for _ in range(60):
            if 1.0 - self.truncated_mass(t_max) <= TAIL_EPS:
                break
            t_max *= 2.0
        else:
            raise ConstructionError("could not reach the requested mixing-measure mass")
        knots = np.geomspace(T_MIN, t_max, T_GRID)
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
        if not -1e-9 <= self.mass_deficit <= TAIL_EPS + 1e-6:
            raise ConstructionError(
                f"mixing measure mass {self.raw_mass} deviates from 1 beyond calibration"
            )
        flux = self.rates * self.knots
        increments = 0.5 * (flux[1:] + flux[:-1]) * np.diff(np.log(self.knots))
        trap_mass = cdf[0] + float(np.sum(increments))
        if abs(trap_mass - self.raw_mass) > TAIL_EPS + 1e-3:
            raise ConstructionError(f"rate trapezoid mass {trap_mass} disagrees with the "
                                    f"closed form {self.raw_mass} beyond calibration")
        self.mixing_cdf = cdf / self.raw_mass
        self._t_of_u = _CdfInverse(self.mixing_cdf, self.knots)

    def level_at(self, t):
        """Tabulated clip level (monotone cubic through the solved knots)."""
        t_arr = np.clip(np.asarray(t, dtype=float), self.knots[0], self.knots[-1])
        out = np.clip(self._level_interp(np.log(t_arr)), 0.0, None)
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

    def _sample_at(self, ts, rng) -> SampleBatch:
        """Rows at the drawn mixing parameters ``ts``, a float array that
        becomes the batch's ``t``: coupling rows snap theirs in place."""
        n, c, table = self.n, self.c, self._coupling
        count = len(ts)
        coin = rng.random(count)
        hot = rng.integers(0, n, size=count)
        row_idx = rng.integers(0, self.ra_grid_m, size=count)

        # each row's cell and branch; the cells of coupling rows are wanted
        cells = np.empty(count, dtype=np.int32)
        branch = np.empty(count, dtype=np.int8)
        wanted = np.zeros(table.built.size, dtype=bool)
        for rows in _chunks(count):
            t = ts[rows]
            cell = _interval(self.knots, t)
            cells[rows] = cell
            w = self.weights_at(t)
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
                rng.permuted(coupled, axis=1, out=coupled)
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
        self._t_of_u.invert(ts)
        return self._sample_at(ts, rng)

    def _cyclic_bound(self, t):
        """Sum bound of a cyclic row at ``t``: its coordinates are <= |c| + (n-1)t."""
        return _exact_row_bound(self.n, abs(self.c) + (self.n - 1) * t)

    def row_bound_for(self, t, branch):
        """Recompute the per-row sum bound from the recorded (t, branch)
        arrays, one ``_DRAW_CHUNK_ROWS`` chunk at a time, so the level's
        temporaries stay a few MB; the chunks give the same bytes as one pass."""
        t = np.asarray(t, dtype=float)
        branch = np.asarray(branch)
        out = np.empty(t.size)
        for rows in _chunks(t.size):
            t_rows = t[rows]
            lo, cut = self._slice_cut(t_rows, self.level_at(t_rows))
            coupling = self.n * (cut - lo) / self.ra_grid_m
            out[rows] = np.where(branch[rows] == 1, self._cyclic_bound(t_rows), coupling)
        return out


class _SkewSeries:
    """The t-law of the explicit mixer's cyclic rows, divided by c.

    With q = n - 1 and D the kernel's odd part about c, its density and cdf
    are the series mu(x) = n/(n-1) sum_k q^-2k D(x/q^k) and M(y) = n/(n-1)
    sum_k q^-k int_0^{y/q^k} D. Once an argument x/q^k is below
    ``_SKEW_CLOSE`` the rest of each series is closed in one step: every
    Taylor term of D sums as a geometric series over the remaining k.
    """

    def __init__(self, kernel, n, c):
        self.kernel, self.c, self.q = kernel, c, float(n - 1)
        self.gain = n / (n - 1)
        # the closure's coefficient of x^(2j+1) in mu: d_j times sum_k q^-k(2j+3)
        self._closed = [self.gain * d / (1.0 - self.q ** -(2 * j + 3))
                        for j, d in enumerate(kernel.skew_taylor(c, _SKEW_TERMS))]

    def closure(self, x):
        """(mu, mu', M) / c at small x: the series from x on, in closed form."""
        xx = x * x
        mu = slope = cdf = 0.0
        power = np.ones_like(x)     # x^(2j)
        for j, coef in enumerate(self._closed):
            slope = slope + (2 * j + 1) * coef * power
            mu = mu + coef * power * x
            cdf = cdf + coef * power * xx / (2 * j + 2)
            power = power * xx
        return mu, slope, cdf

    def density_on(self, x):
        """(mu, mu') / c on a geometric grid, ``x[j] = q * x[j - 1]``: the
        first row closed, each later row its own term plus the row before,
        scaled as the series' next term (the series with shared sums).
        Rational operations only."""
        mu, slope = np.empty_like(x), np.empty_like(x)
        mu[0], slope[0], _ = self.closure(x[0])
        odd, odd_slope = self.kernel.skew(self.c, x[1:])
        q, g = self.q, self.gain
        for j in range(1, len(x)):
            mu[j] = g * odd[j - 1] + mu[j - 1] / (q * q)
            slope[j] = g * odd_slope[j - 1] + slope[j - 1] / (q * q * q)
        return mu, slope

    def cdf_on(self, x):
        """M / c on a geometric grid, by the same shared sums."""
        cdf = np.empty_like(x)
        cdf[0] = self.closure(x[0])[2]
        mass = self.kernel.skew_mass(self.c, x[1:])
        for j in range(1, len(x)):
            cdf[j] = self.gain * mass[j - 1] + cdf[j - 1] / self.q
        return cdf

    def at(self, y):
        """(mu, M) / c at any y >= 0 (1-d), by the truncated series."""
        y = np.minimum(np.atleast_1d(np.asarray(y, dtype=float)), 1e300)
        mu, cdf = np.zeros(y.shape), np.zeros(y.shape)
        live, arg = np.arange(y.size), y.copy()
        w_mu = w_cdf = self.gain
        while live.size:
            x = arg[live]
            small = x < _SKEW_CLOSE
            idx = live[small]
            closed_mu, _, closed_cdf = self.closure(x[small])
            mu[idx] += w_mu / self.gain * closed_mu
            cdf[idx] += w_cdf / self.gain * closed_cdf
            live, x = live[~small], x[~small]
            mu[live] += w_mu * self.kernel.skew(self.c, x)[0]
            cdf[live] += w_cdf * self.kernel.skew_mass(self.c, x)
            arg[live] = x / self.q
            w_mu /= self.q * self.q
            w_cdf /= self.q
        return mu, cdf


def _geometric_grid(q, first, periods):
    """(periods + 1, p) grid: ``first`` spans one ratio-q period, and each
    row is q times the row before. Python's libm sets ``first`` and every
    later point is a product, so the grid is the same under every numpy
    SIMD dispatch."""
    x = np.empty((periods + 1, len(first)))
    x[0] = first
    for j in range(1, periods + 1):
        x[j] = x[j - 1] * q
    return x


class _LogInverse:
    """Inverse of a cdf V tabulated on a geometric grid of x (ratio q every
    row of the grid), with nothing truncated:

    * between the knots, log x is linear in v (``_CdfInverse``);
    * below the first knot, a power law through it with the log slope of
      the first period; its u-error is at most the first cdf value;
    * above the last knot, the law's self-similarity: 1 - V(q x) = (1 -
      V(x)) / q up to O(1/x), so the tail is mapped into the last row of
      the grid, inverted there and scaled back.
    """

    def __init__(self, x, cdf, q):
        """``x`` and ``cdf`` are (periods, p) grids, ``x[j] = q * x[j - 1]``;
        the cdf is clipped to [0, 1] and made non-decreasing, which moves
        only values at rounding level."""
        self.q = q
        per = x.shape[1]
        x, cdf = x.ravel(), np.maximum.accumulate(np.clip(cdf.ravel(), 0.0, 1.0))
        self._inner = _CdfInverse(cdf, np.log(x))
        self.x0, self.v0, self.v_end = x[0], cdf[0], cdf[-1]
        # the power law's exponent, read over one period, where rounding at
        # the first knots cannot flatten it
        self.power = math.log(cdf[per] / cdf[0]) / math.log(q) if cdf[0] > 0.0 else 1.0

    def __call__(self, v):
        """x for each v in [0, 1): a new array."""
        x = v.copy()
        self._inner.invert(x)
        np.exp(x, out=x)
        low = np.flatnonzero(v < self.v0)
        if low.size:
            x[low] = self.x0 * (v[low] / self.v0) ** (1.0 / self.power)
        high = np.flatnonzero(v > self.v_end)
        if high.size:
            tail = 1.0 - v[high]
            # the fewest periods that carry the tail mass into the table
            k = np.ceil(np.log((1.0 - self.v_end) / tail) / math.log(self.q))
            k += tail * self.q ** k < 1.0 - self.v_end
            inner = 1.0 - tail * self.q ** k
            self._inner.invert(inner)
            x[high] = np.exp(inner) * self.q ** k
        return x


def _grid_steps(q):
    """(first row, periods) of the explicit grid for ratio q."""
    per = max(2, round(math.log(q) / _EXPLICIT_STEP))
    first = [_EXPLICIT_LO * math.exp(i * math.log(q) / per) for i in range(per)]
    periods = math.ceil(math.log(_EXPLICIT_HI / _EXPLICIT_LO) / math.log(q))
    return np.array(first), periods


class ExplicitMixer:
    """Exact sampler for 0 <= c <= c_sym(n): cyclic rows plus block rows
    symmetric about c, with no cells and no rearrangement.

    A cyclic row at t is (c - t, ..., c - t, c + (n-1)t), permuted; it sums
    to n*c exactly. Giving t the law of ``_SkewSeries``, of total mass the
    cyclic fraction P = n/(n-2) (2F(c) - 1), the cyclic rows carry exactly the part
    of the density that is not symmetric about c. What remains, rho(x) =
    f(c + x) - mu(x/(n-1)) / (n(n-1)) at c + x and at c - x, is symmetric
    about c; where it is also >= 0 and non-increasing (the admissibility
    check), Khinchine's theorem makes it a scale mixture of uniforms about
    c, with radius cdf G(s) = (2 int_0^s rho - 2s rho(s)) / (1 - P). Its rows
    are ``c + R (2B - 1)``, B the exact c = 0 block rows, which sum to n*c.
    Every coordinate is exactly standard Cauchy up to the tables' u-error.

    The check decides rho >= 0 and rho' <= 0 on a log grid from 1e-8 to past
    1e9 in the rational forms of f, f', D and D' alone, so the decision does
    not depend on numpy's SIMD dispatch. Past the grid x^3 rho' tends to a
    periodic function of log x, period log(n-1), and at every n tried
    the first violation as c grows is in the grid's last periods. This is a
    grid check, not a proof. The kernel supplies the odd part's closed forms
    (``Cauchy.skew``, ``skew_mass``, ``skew_taylor`` and ``slope``).

    Draws read two inverse tables built here, for t and for R; ``u_error``
    holds each one's worst u-error, measured against the closed forms at
    the midpoints of the knots and one period past their ends.

    At c = 0 the odd part is empty: P = 0, every row is a block row, no grid
    or table is built, and R is the kernel's own ``radius_quantile`` (any
    symmetric unimodal kernel with ``radius_cdf`` and ``center_limit``).
    """

    stream = 2

    def __init__(self, config: MixerConfig, kernel=None, grid=None):
        kernel = kernel or Cauchy()
        n, c = config.n, config.c
        limit = kernel.center_limit(n)   # refuses a kernel the mixers cannot serve
        if not 0.0 <= c <= limit:
            raise DomainError(f"the explicit route needs 0 <= c <= {limit:.10g}, "
                              f"got n={n}, c={c}")
        self.config, self.kernel, self.n, self.c = config, kernel, n, c
        self.mass_deficit = 0.0
        self.cyclic_fraction, self.u_error = 0.0, {}
        # a cyclic row's coordinates, before the scale t and the shift c
        self._pattern = np.full(n, -1.0)
        self._pattern[-1] = n - 1.0
        if c == 0.0:
            return
        self._grid = grid or _ExplicitGrid(kernel, n, c)
        if not self._grid.admissible:
            raise DomainError(f"center {c} is outside the explicit range at n={n}: the "
                              f"symmetric remainder is not unimodal near x={self._grid.worst:.6g}")
        self.cyclic_fraction = n / (n - 2) * kernel.cdf_diff(-c, c)
        self._t_of_v, self._r_of_w, self.u_error = self._grid.tables(self.cyclic_fraction)

    def t_cdf(self, t):
        """The cyclic rows' t-law cdf, M(t) / P, at any t >= 0."""
        return self.c * self._grid.series.at(t)[1] / self.cyclic_fraction

    def radius_cdf(self, s):
        """The symmetric rows' radius cdf G at any s >= 0."""
        if self.c == 0.0:
            return self.kernel.radius_cdf(s)
        s = np.asarray(s, dtype=float)
        mu, cdf = self._grid.series.at(s / (self.n - 1))
        return self._grid.radius_mass(s, mu, cdf) / (1.0 - self.cyclic_fraction)

    def sample(self, count, rng) -> SampleBatch:
        """``count`` rows: one uniform per row picks the branch (u < P) and,
        rescaled, the row's t or R; then its block row and its shuffle."""
        n, c, p = self.n, self.c, self.cyclic_fraction
        scale = rng.random(count)
        values = _uniform_block_rows(n, count, rng)
        branch = np.empty(count, dtype=np.int8)
        bound = np.empty(count)
        for rows in _chunks(count):
            u = scale[rows]
            cyclic = u < p
            branch[rows] = np.where(cyclic, 1, 4)
            if p == 0.0:    # c = 0: the radius in the kernel's closed form
                u[:] = self.kernel.radius_quantile(u)
            else:
                idx = np.flatnonzero(cyclic)
                u[idx] = self._t_of_v(u[idx] / p)
                idx = np.flatnonzero(~cyclic)
                u[idx] = self._r_of_w((u[idx] - p) / (1.0 - p))
            # 2B - 1 on symmetric rows, the cyclic pattern on cyclic ones
            v = values[rows]
            v *= 2.0
            v -= 1.0
            v[cyclic] = self._pattern
            v *= u[:, None]
            v += c
            bound[rows] = self.row_bound_for(u, branch[rows])
        rng.permuted(values, axis=1, out=values)   # unshuffled, column pairs differ in law
        return SampleBatch(values=values, t=scale, branch=branch, row_bound=bound,
                           target_sum=n * c)

    def row_bound_for(self, t, branch):
        """Per-row sum bound from the recorded (t, branch): a cyclic row's
        coordinates are <= c + (n-1)t, a symmetric row's <= c + R."""
        t = np.asarray(t, dtype=float)
        return _exact_row_bound(self.n, self.c + t * np.where(np.asarray(branch) == 1,
                                                                self.n - 1.0, 1.0))


# the name perfbench/layers.py traces the explicit mixer's sample and
# row_bound_for under
SymmetricMixer = ExplicitMixer


class _ExplicitGrid:
    """The explicit mixer's log grid at (n, c): the admissibility check at
    construction, then on demand the two inverse tables. ``build_mixer``
    hands a grid that passed to the mixer, so the check runs once."""

    def __init__(self, kernel, n, c):
        self.kernel, self.n, self.c = kernel, n, c
        self.series = _SkewSeries(kernel, n, c)
        q = self.series.q
        self.first, self.periods = _grid_steps(q)
        x = _geometric_grid(q, self.first, self.periods)
        mu, slope = self.series.density_on(x)
        # rho and rho' at s = x[1:], whose mu terms are read at s/q = x[:-1]
        s = x[1:]
        rho = kernel.pdf(c + s) - c * mu[:-1] / (n * q)
        drho = kernel.slope(c + s) - c * slope[:-1] / (n * q * q)
        bad = (rho < 0.0) | (drho > 0.0)
        # the single-arctan masses need c < 1
        self.admissible = c < 1.0 and not bad.any()
        self.worst = float(s.ravel()[np.argmax(bad.ravel())]) if bad.any() else math.nan

    def radius_mass(self, s, mu, cdf):
        """(1 - P) G(s) from (mu, M)/c at s/q: 2(F(c + s) - F(c)) - 2s f(c + s)
        - (2c/n)(M(s/q) - (s/q) mu(s/q))."""
        kern, c, n = self.kernel, self.c, self.n
        y = s / self.series.q
        return (2.0 * kern.cdf_diff(c, c + s) - 2.0 * s * kern.pdf(c + s)
                - (2.0 * c / n) * (cdf - y * mu))

    def _cdfs(self, x, p):
        """(t cdf on x, radius cdf on x[1:]) for a grid x."""
        mu, cdf = self.series.density_on(x)[0], self.series.cdf_on(x)
        return (self.c * cdf / p,
                self.radius_mass(x[1:], mu[:-1], cdf[:-1]) / (1.0 - p))

    def tables(self, p):
        """(t of v, R of w, u_error): the inverse tables for cyclic fraction
        p, and each one's worst u-error against the closed forms. The grid
        runs one period past the tables, and the error is read at the
        geometric midpoints of the knots: inside, against the knots' mean
        v; in that period, against the tail's self-similar map; below the
        first knot it is at most the first cdf value."""
        q, per = self.series.q, len(self.first)
        x = _geometric_grid(q, self.first, self.periods + 1)
        mid = _geometric_grid(q, self.first * math.exp(0.5 * math.log(q) / per),
                              self.periods + 1)
        (t_cdf, r_cdf), (t_mid, r_mid) = self._cdfs(x, p), self._cdfs(mid, p)
        inverses, errors = [], {}
        for name, knots, cdf, at_mid in (("t", x, t_cdf, t_mid), ("radius", x[1:], r_cdf, r_mid)):
            inverses.append(_LogInverse(knots[:-1], cdf[:-1], q))
            v, want = cdf.ravel(), at_mid.ravel()
            size = v.size - per
            inner = 0.5 * (v[:size - 1] + v[1:size])
            tail = 1.0 - (1.0 - inner[size - per:]) / q
            errors[name] = max(float(np.max(np.abs(inner - want[:size - 1]))),
                               float(np.max(np.abs(tail - want[size:size + per - 1]))),
                               float(v[0]))
        return inverses[0], inverses[1], errors


class ReflectedMixer:
    """Sampler for c < 0: negation of the mixer for -c, row by row."""

    def __init__(self, base):
        self.base = base
        self.config = base.config
        self.kernel = base.kernel
        self.n = base.n
        self.c = -base.c
        self.mass_deficit = base.mass_deficit
        self.stream = base.stream

    def sample(self, count, rng) -> SampleBatch:
        batch = self.base.sample(count, rng)
        np.negative(batch.values, out=batch.values)
        batch.target_sum = -batch.target_sum
        return batch

    def row_bound_for(self, t, branch):
        return self.base.row_bound_for(t, branch)


def build_mixer(config: MixerConfig, kernel=None):
    """The mixer for (n, c): ``ExplicitMixer`` at c = 0 (block rows alone)
    and at 0 < c where the kernel has the odd part's closed forms and the
    admissibility check passes (c <= c_sym(n)), ``ConstructiveMixer`` at
    other c > 0, and the reflection of the mixer for -c at c < 0. Rejects
    centers outside the kernel's interval, ``|c| <= kernel.center_limit(n)``
    (``Cauchy()`` by default)."""
    kernel = kernel or Cauchy()
    n, c = config.n, config.c
    limit = kernel.center_limit(n)
    if abs(c) > limit:
        raise DomainError(
            f"center {c} outside the admissible interval [-{limit}, {limit}] for n={n}"
        )
    if c == 0.0:
        return ExplicitMixer(config, kernel)
    if c < 0.0:
        return ReflectedMixer(build_mixer(dataclasses.replace(config, c=-c), kernel))
    if hasattr(kernel, "skew"):
        grid = _ExplicitGrid(kernel, n, c)
        if grid.admissible:
            return ExplicitMixer(config, kernel, grid)
    return ConstructiveMixer(config, kernel)


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
