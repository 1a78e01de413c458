import functools
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from mixcenter import cauchy_mix
from mixcenter.anchors import LOG2_PI, cauchy_like_density, power_three_halves_density
from mixcenter.cauchy_mix import (
    ROOT_TOL,
    T_MIN,
    ConstructiveMixer,
    ConvexCombinationSampler,
    ExplicitMixer,
    MixerConfig,
    ReflectedMixer,
    build_mixer,
)
from mixcenter.distributions import Cauchy, GenericDensity, generic_admissibility
from mixcenter.errors import DomainError
from mixcenter.seeding import substream
from mixcenter.verify import KS_99, ks_distance, ks_two_sample, run_invariant_suite

PI = math.pi



@pytest.fixture(scope="module")
def mixer():
    with mock.patch.object(cauchy_mix, "T_GRID", 512):
        return ConstructiveMixer(MixerConfig(n=3, c=0.15, seed=7))


class TestImbalance:
    def test_at_density_cap_matches_shifted_moment(self, mixer):
        # at the cap level the clipped window shrinks to [c-t, c+t]
        c = mixer.c
        for t in (0.3, 2.0, 7.0):
            cap = mixer.kernel.pdf(c + t)
            direct = mixer.imbalance(t, cap)
            ref, _ = quad(lambda x: x / (PI * (1 + (c + x) ** 2)), -t, t)
            assert_allclose(direct, ref, atol=1e-12)
            assert direct < 0

    def test_very_negative_level_grows(self, mixer):
        assert mixer.imbalance(1.0, -1e6) > 1e5

    def test_far_window_limit(self, mixer):
        assert_allclose(mixer.imbalance(1e8, 0.0), LOG2_PI - 0.15, atol=1e-6)

    def test_zero_level_nonnegative_on_grid(self, mixer):
        for t in np.geomspace(1e-6, 1e4, 60):
            assert mixer.imbalance(t, 0.0) >= -1e-10


class TestClipLevel:
    def test_defining_equation(self, mixer):
        for t in (1e-5, 0.02, 0.9, 31.0, 4000.0):
            level = mixer.clip_level(t)
            assert abs(mixer.imbalance(t, level)) <= ROOT_TOL

    def test_small_t_close_to_cap(self, mixer):
        t = 1e-6
        level = mixer.clip_level(t)
        cap = mixer.kernel.pdf(mixer.c + t)
        assert level < cap
        assert cap - level <= 1e-5

    def test_endpoint_center_level_vanishes(self, slice_grid):
        slice_grid(512)
        mx = ConstructiveMixer(MixerConfig(n=3, c=LOG2_PI, seed=7))
        assert mx.clip_level(1e4) <= 1e-10

    def test_monotone_on_knots(self, mixer):
        assert np.all(np.diff(mixer.levels) <= 1e-12)

    def test_tabulated_level_matches_solve_off_knots(self, mixer):
        # interpolation error between knots stays far below every consumer's
        # tolerance (weights, branch probabilities)
        mids = np.sqrt(mixer.knots[:-1] * mixer.knots[1:])[::37]
        for t in mids:
            solved = mixer.clip_level(float(t))
            interp = float(mixer.level_at(t))
            assert abs(interp - solved) <= 1e-3 * max(solved, 1e-12) + 1e-14

    def test_analytic_slope_matches_finite_difference(self, mixer):
        # the uniform weight is -h'(t) * (cut - lo) with the implicit-function
        # slope; check it against a central difference of the solved level
        for t in (0.05, 1.0, 20.0):
            h = 1e-5 * t
            fd = (mixer.clip_level(t + h) - mixer.clip_level(t - h)) / (2 * h)
            w = _solved_weights(mixer, t)
            assert_allclose(w["w_unif"], -fd * (w["cut"] - w["lo"]), rtol=5e-4, atol=1e-14)


class TestRootResidual:
    """The Brent solve alone leaves every clip level within ``ROOT_TOL`` of
    a root, from n = 3 to 100 and c from 0+ to the endpoint. Builds refuse
    c below about 1e-29 (the rate trapezoid check), so f starts at 1e-20."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 100), f=st.floats(1e-20, 1.0))
    @example(n=100, f=1.0)
    @example(n=100, f=1e-9 * PI / math.log(99))
    @example(n=3, f=1e-9 * PI / math.log(2))
    def test_residual_within_root_tol(self, n, f):
        with mock.patch.object(cauchy_mix, "T_GRID", 256):
            mx = ConstructiveMixer(MixerConfig(n, f * math.log(n - 1) / PI))
        mids = np.sqrt(mx.knots[:-1] * mx.knots[1:])
        assert np.max(np.abs(mx.imbalance(mx.knots, mx.levels))) <= ROOT_TOL
        assert np.max(np.abs(mx.imbalance(mids, mx.clip_level(mids)))) <= ROOT_TOL


def _solved_weights(mixer, t):
    """Slice weights at the solved clip level, as the coupling cells use."""
    return mixer.weights_at(t, mixer.clip_level(t))


def _slice_cdf_below(mixer, t, y):
    """Slice-law mass below y at the solved level, vectorized over t."""
    w = _solved_weights(mixer, t)
    unif = np.clip((y - w["lo"]) / np.maximum(w["cut"] - w["lo"], 1e-300), 0.0, 1.0)
    mass = w["w_lo"] * (w["lo"] < y) + w["w_hi"] * (w["hi"] < y) + w["w_unif"] * unif
    return mass / w["rate"]


def _scalar_window(mixer, t, y):
    """Clipped window [el, u] at one (t, y) in Python scalars, or None
    where it is empty."""
    n, c, kern = mixer.n, mixer.c, mixer.kernel
    lo, hi = c - t, c + (n - 1) * t
    if y <= 0.0:
        return lo, hi
    if y >= kern.peak():
        return None
    r = kern.inverse_pdf(y)
    el, u = max(lo, -r), min(hi, r)
    return (el, u) if el < u else None


def _scalar_imbalance(mixer, t, y):
    """Imbalance at one (t, y): the reference for the array form."""
    window = _scalar_window(mixer, t, y)
    if window is None:
        return 0.0
    el, u = window
    c = mixer.c
    lin = 0.5 * (u - el) * (u + el - 2.0 * c)
    return mixer.kernel.centered_moment(el, u, c) - y * lin


def _scalar_level(mixer, t):
    """Clip level at one t by scipy's brentq plus the Newton polish: the
    reference the array solver must match bit for bit."""
    t = float(t)
    ymax = float(mixer.kernel.pdf(mixer.c + t))
    if _scalar_imbalance(mixer, t, 0.0) <= 0.0:
        return 0.0
    if _scalar_imbalance(mixer, t, ymax) >= 0.0:
        return ymax
    y = brentq(lambda yy: _scalar_imbalance(mixer, t, yy), 0.0, ymax,
               xtol=1e-300, rtol=8.9e-16)
    for _ in range(6):
        resid = _scalar_imbalance(mixer, t, y)
        if abs(resid) <= ROOT_TOL:
            break
        window = _scalar_window(mixer, t, y)
        if window is None:
            break
        el, u = window
        d = -0.5 * (u - el) * (u + el - 2.0 * mixer.c)
        if d == 0.0:
            break
        y = min(max(y - resid / d, 0.0), ymax)
    return y


class TestArrayClipLevel:
    @pytest.mark.parametrize(
        "n,c",
        [(3, 0.15), (10, math.log(9) / PI), (5, 0.3), (4, 1e-9), (3, LOG2_PI)],
        ids=["n3", "n10-endpoint", "n5", "n4-tiny", "n3-endpoint"],
    )
    def test_matches_scalar_brentq_bit_for_bit(self, n, c, slice_grid):
        slice_grid(512)
        mx = ConstructiveMixer(MixerConfig(n=n, c=c, seed=1))
        want = np.array([_scalar_level(mx, t) for t in mx.knots])
        assert mx.levels.tobytes() == want.tobytes()
        assert mx.clip_level(mx.knots).tobytes() == want.tobytes()
        mids = np.sqrt(mx.knots[:-1] * mx.knots[1:])[::3]
        want = np.array([_scalar_level(mx, t) for t in mids])
        assert mx.clip_level(mids).tobytes() == want.tobytes()
        assert mx.clip_level(float(mids[5])) == want[5]

    def test_imbalance_array_matches_scalar(self, mixer):
        ts = np.geomspace(1e-5, 1e5, 40)
        ys = np.concatenate([[0.0, -1.0, 1.0], mixer.kernel.pdf(mixer.c + ts[3:]) * 0.5])
        want = [_scalar_imbalance(mixer, t, y) for t, y in zip(ts, ys)]
        assert mixer.imbalance(ts, ys).tobytes() == np.array(want).tobytes()

    def test_nonconvergence_raises(self, mixer):
        from mixcenter.errors import ConstructionError

        with pytest.raises(ConstructionError, match="did not converge"):
            cauchy_mix._brent_roots(lambda y, t: mixer.imbalance(t, y), np.array([0.0]),
                                    np.array([0.1]), np.array([1.0]), np.array([-1.0]),
                                    1e-300, args=(np.array([1.0]),), maxiter=2)

    def test_unbracketed_root_raises(self):
        from mixcenter.errors import ConstructionError

        with pytest.raises(ConstructionError, match="not bracketed"):
            cauchy_mix._brent_roots(lambda x: x * x + 1.0, np.array([0.0]), np.array([2.0]),
                                    np.array([1.0]), np.array([5.0]), 1e-12)

    def test_zero_at_both_ends_returns_lower_end(self):
        # scipy's brentq returns the lower end once f(lo) == 0, whatever f(hi)
        zero = lambda x: 0.0 * x  # noqa: E731
        want = brentq(lambda x: 0.0, 0.0, 1.0)
        got = cauchy_mix._brent_roots(zero, np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                                      np.array([0.0, 0.0]), np.array([0.0, 0.0]), 1e-12)
        assert want == 0.0 and got.tolist() == [want, want]
        # a zero lower end beside an open bracket: each solved on its own
        got = cauchy_mix._brent_roots(lambda x, s: x - s, np.array([0.0, 0.0]),
                                      np.array([1.0, 1.0]), np.array([0.0, -0.25]),
                                      np.array([1.0, 0.75]), 1e-14, args=(np.array([0.0, 0.25]),))
        assert got.tolist() == [0.0, brentq(lambda x: x - 0.25, 0.0, 1.0, xtol=1e-14,
                                            rtol=8.9e-16)]


def _scalar_inverse_pdf(g, y):
    """Inverse density at one level by scipy's brentq, on the doubling bracket."""
    hi = 1.0
    while g.pdf(hi) > y:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    return brentq(lambda x: g.pdf(x) - y, 0.0, hi, xtol=1e-14, rtol=8.9e-16)


def _scalar_quantile(g, t):
    """Quantile at one level by scipy's brentq, on the symmetric doubling bracket."""
    if t == 0.5:
        return 0.0
    hi = 1.0
    while g.cdf(hi) < max(t, 1.0 - t):
        hi *= 2.0
        if hi > 1e14:
            break
    lo, hi = (0.0, hi) if t > 0.5 else (-hi, 0.0)
    return brentq(lambda x: g.cdf(x) - t, lo, hi, xtol=1e-12, rtol=8.9e-16)


def _scalar_radius(kern, u):
    """Radius quantile at one level by scipy's brentq, on the doubling bracket."""
    hi = 1.0
    while kern.radius_cdf(hi) < u and hi < 1e14:
        hi *= 2.0
    return brentq(lambda a: kern.radius_cdf(a) - u, 0.0, hi, xtol=1e-13, rtol=8.9e-16)


class TestGenericSolvesMatchBrentq:
    """The generic density's array solves against scalar scipy ``brentq``,
    element by element, bit for bit."""

    def test_inverse_pdf(self):
        g = cauchy_like_density()
        ys = np.concatenate([np.random.default_rng(31).uniform(0.0, 1.0 / PI, 150),
                             [1.0 / PI, 1e-9, 1e-25, 0.0, -1.0]]).reshape(5, 31)
        want = np.array([_scalar_inverse_pdf(g, y) for y in ys.ravel()]).reshape(ys.shape)
        assert np.isinf(want).sum() == 3     # 1e-25 is past the 1e12 cap
        assert g.inverse_pdf(ys).tobytes() == want.tobytes()
        assert g.inverse_pdf(float(ys[0, 3])) == want[0, 3]

    def test_quantile(self):
        g = cauchy_like_density()
        ts = np.concatenate([np.random.default_rng(32).random(100), [0.5, 1e-4, 1 - 1e-4]])
        want = np.array([_scalar_quantile(g, t) for t in ts])
        assert g.quantile(ts).tobytes() == want.tobytes()
        assert g.quantile(float(ts[7])) == want[7]

    def test_radius_quantile(self):
        kern = cauchy_like_density()
        us = np.random.default_rng(34).random(300)
        want = np.array([_scalar_radius(kern, u) for u in us])
        assert kern.radius_quantile(us).tobytes() == want.tobytes()

    def test_kernel_shapes(self):
        kern = cauchy_like_density()
        a = np.array([[0.5, 2.0], [3.0, 40.0]])
        for fn, arg in ((kern.radius_cdf, a), (kern.inverse_pdf, a / 200)):
            out = fn(arg)
            assert out.shape == (2, 2)
            assert isinstance(fn(float(arg[1, 0])), float)
            assert fn(float(arg[1, 0])) == out[1, 0]
        assert kern.cdf_diff(-a, a).shape == (2, 2)
        assert isinstance(kern.cdf_diff(-1.0, 2.0), float)
        assert kern.centered_moment(-a, a, 0.1).shape == (2, 2)
        assert isinstance(kern.centered_moment(-1.0, 2.0, 0.1), float)
        assert kern.radius_quantile(0.3).shape == (1,)


class TestSliceKernelProtocol:
    """Each slice-kernel method over both statements of the standard Cauchy
    law, in closed form and by quadrature, so each kernel checks the other."""

    @pytest.mark.parametrize("name", ["closed-form", "quadrature"])
    def test_kernel_protocol(self, name):
        kern, other = Cauchy(), cauchy_like_density()
        if name == "quadrature":
            kern, other = other, kern
        el = np.array([-40.0, -2.5, -0.3, 0.1, 1.5])
        u = np.array([-3.0, 0.5, 0.7, 8.0, 1e3])
        assert_allclose(kern.cdf_diff(el, u), kern.cdf(u) - kern.cdf(el), rtol=0, atol=1e-14)
        assert_allclose(kern.centered_moment(el, u, 0.15), other.centered_moment(el, u, 0.15),
                        rtol=0, atol=1e-11)
        levels = np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6])
        assert_allclose(kern.radius_cdf(kern.radius_quantile(levels)), levels, rtol=0, atol=1e-12)
        ys = np.array([1e-6, 0.01, 0.1, 0.3])
        assert_allclose(kern.pdf(kern.inverse_pdf(ys)), ys, rtol=1e-12, atol=0)
        assert kern.peak() == kern.pdf(0.0)
        assert abs(kern.center_limit(3) - LOG2_PI) <= 1e-12

    @pytest.mark.parametrize("c", [-0.1, 0.0, 0.1])
    def test_scaled_cauchy_refused(self, c):
        # the slice methods are those of scale 1
        with pytest.raises(DomainError, match="standard law, got scale 2.0"):
            build_mixer(MixerConfig(n=3, c=c, seed=7), Cauchy(2.0))

    def test_symmetric_mixer_refuses_scaled_cauchy(self):
        # the c = 0 mixer built directly, without build_mixer's check
        with pytest.raises(DomainError, match="standard law, got scale 2.0"):
            ExplicitMixer(MixerConfig(n=3, c=0.0, seed=7), Cauchy(2.0))


class TestCenterEndpoint:
    """log(n-1)/pi itself is admitted, and no center past it: one ulp out is
    refused, not clamped onto the endpoint."""

    @pytest.mark.parametrize("build,n,c", [
        (build_mixer, 3, math.nextafter(LOG2_PI, 1.0)),
        (ConstructiveMixer, 3, math.nextafter(LOG2_PI, 1.0)),
        (build_mixer, 3, 0.2206356001531516),
        (ConstructiveMixer, 3, 0.2206356001531516),
        (build_mixer, 2, 1e-13),
    ], ids=["n3-one-ulp", "n3-one-ulp-constructive", "n3-5e-13", "n3-5e-13-constructive",
            "n2"])
    def test_past_the_endpoint_refused(self, build, n, c):
        limit = Cauchy().center_limit(n)
        with pytest.raises(DomainError) as info:
            build(MixerConfig(n, c))
        message = str(info.value)
        assert message.startswith(f"center {c!r} outside the admissible interval ")
        assert f"{limit!r}] for n={n}" in message

    def test_reflection_past_the_endpoint_refused(self):
        with pytest.raises(DomainError, match="outside the admissible interval"):
            build_mixer(MixerConfig(3, -math.nextafter(LOG2_PI, 1.0)))

    def test_exact_endpoint_builds(self, slice_grid):
        slice_grid(512)
        for c in (LOG2_PI, -LOG2_PI):
            assert build_mixer(MixerConfig(3, c)).c == c


class TestPchipOracle:
    """The numpy PCHIP of the level table against scipy's PchipInterpolator."""

    @pytest.mark.parametrize(
        "n,c",
        [(3, 0.15), (10, math.log(9) / PI), (5, 0.3), (4, 1e-9), (3, LOG2_PI)],
        ids=["n3", "n10-endpoint", "n5", "n4-tiny", "n3-endpoint"],
    )
    def test_level_table_matches_scipy(self, n, c, slice_grid):
        slice_grid(512)
        mx = ConstructiveMixer(MixerConfig(n=n, c=c, seed=1))
        x = np.log(mx.knots)
        ref = PchipInterpolator(x, mx.levels)
        inner = np.random.default_rng(n).uniform(x[0], x[-1], 5000)
        pts = np.concatenate([x, inner])
        assert mx._level_interp(pts).tobytes() == ref(pts).tobytes()
        # both end knots included, through the clip of level_at
        assert mx.level_at(mx.knots).tobytes() == np.clip(ref(x), 0.0, None).tobytes()
        assert mx.level_at(float(mx.knots[-1])) == max(float(ref(x[-1])), 0.0)

    @pytest.mark.parametrize(
        "x,y,slopes",
        [
            # a flat piece zeroes the slopes at both of its knots
            ([0, 1, 2, 3, 4], [0, 1, 1, 2, 3], {0: 1.5, 1: 0.0, 2: 0.0}),
            # secants change sign at every interior knot, uneven spacing
            ([0, 0.5, 2, 2.5, 4, 7], [0, 2, 1, 3, 2, 2.5], {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}),
            # the three-point end slope 6.5 is capped at 3*m0
            ([0, 1, 2, 3], [0, 1, -9, -8], {0: 3.0}),
            # the three-point end slope -3.5 has the wrong sign and is zeroed
            ([0, 1, 2, 3], [0, 1, 11, 12], {0: 0.0}),
            # two points: the secant line
            ([0, 1], [2, 5], {0: 3.0}),
        ],
        ids=["flat", "sign-change", "end-cap", "end-zero", "two-points"],
    )
    def test_small_data_matches_scipy(self, x, y, slopes):
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        ours, ref = cauchy_mix._Pchip(x, y), PchipInterpolator(x, y)
        for k, d in slopes.items():
            assert ours.coef[2][k] == d
        pts = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 301)])
        assert ours(pts).tobytes() == ref(pts).tobytes()
        assert ours(float(x[-1])) == ref(x[-1])


class TestKinkRoot:
    @pytest.mark.parametrize(
        "n,c",
        [(3, 0.15), (10, math.log(9) / PI), (3, LOG2_PI), (50, math.log(49) / PI)],
        ids=["n3", "n10-endpoint", "n3-endpoint", "n50-endpoint"],
    )
    def test_inserted_knots_match_scipy_brentq(self, n, c, slice_grid):
        slice_grid(512)
        mx = ConstructiveMixer(MixerConfig(n=n, c=c, seed=1))
        c, kern = mx.c, mx.kernel
        grid = np.geomspace(T_MIN, mx.knots[-1], 512)
        levels = mx.clip_level(grid)
        arg = kern.pdf(c + (n - 1) * grid) - levels
        want = []
        for i in np.nonzero(arg[:-1] * arg[1:] < 0.0)[0]:
            noise_floor = 1e-10 * max(levels[i], levels[i + 1], 1e-30)
            if min(abs(arg[i]), abs(arg[i + 1])) < noise_floor:
                continue
            t = brentq(lambda tt: float(kern.pdf(c + (n - 1) * tt)) - mx.clip_level(tt),
                       grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)
            if min(t - grid[i], grid[i + 1] - t) > 1e-12 * t:
                want.append(t)
        assert want
        assert np.setdiff1d(mx.knots, grid).tobytes() == np.array(want).tobytes()


def _fold_rows(raw, lo, cut, target):
    """Row-by-row residual fold: the reference for the stacked fold."""
    corrected = raw.copy()
    sums = corrected.sum(axis=1)
    for r in range(corrected.shape[0]):
        shifted = corrected[r] - (sums[r] - target)
        margin = np.minimum(shifted - lo, cut - shifted)
        j = int(np.argmax(margin))
        assert margin[j] >= 0.0
        corrected[r, j] = shifted[j]
    return corrected


@st.composite
def _centers(draw):
    n = draw(st.integers(3, 12))
    frac = draw(st.floats(1e-6, 1.0))
    return n, frac * math.log(n - 1) / PI


class TestBatchedCells:
    @settings(max_examples=6, deadline=None)
    @given(nc=_centers(), entries=st.sampled_from([1, 700, 1 << 18]))
    def test_batched_cells_equal_single_builds(self, nc, entries):
        n, c = nc
        with mock.patch.multiple(cauchy_mix, T_GRID=512, RA_GRID_M=32):
            mixer = ConstructiveMixer(MixerConfig(n=n, c=c, seed=3))
        table = mixer._coupling
        with mock.patch.object(cauchy_mix, "_CELL_BLOCK_ENTRIES", entries):
            mixer.sample(400, substream(3, "cells"))
            ids = np.flatnonzero(table.built)
            blocks = list(cauchy_mix._cell_blocks(mixer, ids))
        assert ids.size
        target = n * mixer.c
        for block, cells in blocks:
            for k, idx in enumerate(block):
                ref = mixer.cell_coupling(idx)
                for name in ("t_hat", "lo", "cut", "atom_weight", "bound", "ra_spread"):
                    assert cells[name][k] == getattr(ref, name)
                assert cells["raw_matrix"][k].tobytes() == ref.raw_matrix.tobytes()
                assert cells["corrected_matrix"][k].tobytes() == ref.corrected_matrix.tobytes()
                # the draw's table holds the same cell
                assert table.rows[idx].tobytes() == ref.corrected_matrix.tobytes()
                assert (table.t_hat[idx], table.bound[idx]) == (ref.t_hat, ref.bound)
                folded = _fold_rows(ref.raw_matrix, ref.lo, ref.cut, target)
                assert ref.corrected_matrix.tobytes() == folded.tobytes()

    @pytest.mark.parametrize("n,c", [(3, 0.15), (10, math.log(9) / PI)],
                             ids=["n3", "n10-endpoint"])
    def test_coupling_rows_are_rows_of_fresh_cells(self, n, c, slice_grid):
        slice_grid(512)
        mixer = ConstructiveMixer(MixerConfig(n=n, c=c, seed=7))
        batch = mixer.sample(20_000, substream(7, "gather"))
        coupling = batch.branch == 2
        t_hat = np.sqrt(mixer.knots[:-1] * mixer.knots[1:])
        drawn = np.unique(batch.t[coupling])
        assert drawn.size > 100
        for t in drawn:
            (idx,) = np.flatnonzero(t_hat == t)
            cell = mixer.cell_coupling(idx)
            allowed = {row.tobytes() for row in np.sort(cell.corrected_matrix, axis=1)}
            rows = np.sort(batch.values[coupling & (batch.t == t)], axis=1)
            assert all(row.tobytes() in allowed for row in rows)


class TestSliceWeights:
    def test_rate_is_total(self, mixer):
        w = _solved_weights(mixer, 0.7)
        assert_allclose(w["rate"], w["w_lo"] + w["w_hi"] + w["w_unif"], rtol=1e-15)

    def test_high_atom_positive_part(self, mixer):
        # beyond the kink the high atom weight is clipped to zero
        kinked = [
            t for t in np.geomspace(1e-4, 1e3, 40)
            if mixer.kernel.pdf(mixer.c + 2 * t) <= mixer.level_at(t)
        ]
        assert kinked
        for t in kinked:
            assert _solved_weights(mixer, t)["w_hi"] == 0.0

    def test_slice_mean_is_center(self, mixer):
        w = _solved_weights(mixer, np.geomspace(1e-5, 5e3, 25))
        num = w["w_lo"] * w["lo"] + w["w_hi"] * w["hi"] + w["w_unif"] * 0.5 * (w["lo"] + w["cut"])
        assert np.all(np.abs(num / w["rate"] - mixer.c) <= 1e-8)

    def test_atom_weight_identity(self, mixer):
        # the coupling atom weight from the weight bundle must match the
        # mean constraint 1 - 2t/width
        for t in (0.01, 0.4, 3.0, 100.0):
            w = _solved_weights(mixer, t)
            if w["w_unif"] <= 0:
                continue
            alpha = (w["w_lo"] - 2 * w["w_hi"]) / (w["w_lo"] - 2 * w["w_hi"] + w["w_unif"])
            width = w["cut"] - (mixer.c - t)
            assert_allclose(alpha, 1.0 - 2.0 * t / width, atol=1e-9)

    def test_mean_inequality_precondition(self, mixer):
        # n*t >= width is the admissibility margin of the coupling slice
        ts = np.geomspace(1e-4, 1e3, 30)
        w = _solved_weights(mixer, ts)
        assert np.all(3 * ts >= (w["cut"] - w["lo"]) - 1e-9)

    def test_slice_cdf_below(self, mixer):
        ts = np.array([0.2, 1.5, 40.0])
        # the slice law is supported on [c-t, c+(n-1)t]
        assert_allclose(_slice_cdf_below(mixer, ts, 1e9), np.ones(3), rtol=1e-12)
        assert_allclose(_slice_cdf_below(mixer, ts, -1e9), np.zeros(3), atol=1e-15)
        ys = mixer.c + np.linspace(-50.0, 100.0, 601)
        masses = np.array([_slice_cdf_below(mixer, ts, y) for y in ys])
        assert np.all(np.diff(masses, axis=0) >= -1e-15)

    def test_coupling_row_bound_from_weights(self, mixer):
        # row_bound_for evaluates the slice ends alone; its coupling-row
        # bound is the one the weight bundle gives, bit for bit
        first, last = mixer.knots[0], mixer.knots[-1]
        inside = np.exp(np.random.default_rng(3).uniform(np.log(first), np.log(last), 500))
        ends = [first, last, np.nextafter(first, 0.0), np.nextafter(last, np.inf)]
        t = np.concatenate([inside, mixer.knots, ends])
        w = mixer.weights_at(t)
        want = mixer.n * (w["cut"] - w["lo"]) / mixer.ra_grid_m
        got = mixer.row_bound_for(t, np.full(t.size, 2))
        assert got.tobytes() == want.tobytes()
        # across chunk boundaries: two chunks and one row of both branches,
        # against the one-pass expression
        rng = np.random.default_rng(4)
        size = 2 * cauchy_mix._DRAW_CHUNK_ROWS + 1
        t = np.exp(rng.uniform(np.log(first), np.log(last), size))
        branch = rng.integers(1, 3, size).astype(np.int8)
        w = mixer.weights_at(t)
        want = np.where(branch == 1, mixer._cyclic_bound(t),
                        mixer.n * (w["cut"] - w["lo"]) / mixer.ra_grid_m)
        assert mixer.row_bound_for(t, branch).tobytes() == want.tobytes()


class TestMixingMeasure:
    def test_total_mass(self, mixer):
        assert abs(mixer.raw_mass - 1.0) <= cauchy_mix.TAIL_EPS + 1e-3

    def test_cdf_starts_near_zero(self, mixer):
        assert mixer.mixing_cdf[0] <= 1e-5

    def test_cdf_nondecreasing(self, mixer):
        assert np.all(np.diff(mixer.mixing_cdf) >= 0)

    def test_trapezoid_tracks_exact_mass(self, mixer):
        # cumulative rate integral against the closed-form truncated mass
        idx = len(mixer.knots) // 2
        from numpy import trapezoid
        approx = trapezoid(mixer.rates[: idx + 1], mixer.knots[: idx + 1])
        approx += mixer.truncated_mass(mixer.knots[0], mixer.levels[0])
        exact = mixer.truncated_mass(mixer.knots[idx], mixer.levels[idx])
        assert abs(approx - exact) <= 1e-3

    def test_coarse_grid_builds_and_verifies(self, slice_grid):
        # the build's trapezoid cross-check is taken in log t, where 256
        # log-spaced knots are accurate to about 1e-5 (in t: 1.3e-3, beyond
        # its TAIL_EPS + 1e-3 tolerance)
        slice_grid(256)
        mx = ConstructiveMixer(MixerConfig(n=3, c=0.15))
        assert all(r.passed for r in run_invariant_suite(mx))


class TestSampling:
    def test_config_rejects_outside_interval(self):
        with pytest.raises(DomainError):
            build_mixer(MixerConfig(n=3, c=0.3))
        with pytest.raises(DomainError):
            build_mixer(MixerConfig(n=3, c=-0.3))

    def test_n2_only_zero(self):
        assert isinstance(build_mixer(MixerConfig(n=2, c=0.0)), ExplicitMixer)
        with pytest.raises(DomainError):
            build_mixer(MixerConfig(n=2, c=0.05))

    def test_cyclic_rows_exact(self, mixer):
        rng = substream(1, "test", "cyclic")
        batch = mixer.sample(4000, rng)
        target = batch.target_sum
        cyc = batch.branch == 1
        assert cyc.any()
        devs = np.abs(batch.values[cyc].sum(axis=1) - target)
        assert np.all(devs <= batch.row_bound[cyc])

    def test_all_rows_within_bounds(self, mixer):
        rng = substream(2, "test", "bounds")
        batch = mixer.sample(6000, rng)
        devs = np.abs(batch.row_sums() - batch.target_sum)
        assert np.all(devs <= batch.row_bound)

    def test_mean_row_sum_exact(self, mixer):
        rng = substream(3, "test", "mean")
        batch = mixer.sample(6000, rng)
        assert abs(batch.row_sums().mean() - 0.45) <= 1e-9

    def test_marginals_ks(self, mixer):
        rng = substream(4, "test", "ks")
        batch = mixer.sample(30_000, rng)
        cdf = Cauchy().cdf
        for j in range(3):
            assert ks_distance(batch.values[:, j], cdf) <= 0.02

    def test_exchangeability(self, mixer):
        rng = substream(5, "test", "exch")
        batch = mixer.sample(30_000, rng)
        lim = 1.628 * math.sqrt(2.0 / 30_000)
        for i in range(3):
            for j in range(i + 1, 3):
                assert ks_two_sample(batch.values[:, i], batch.values[:, j]) <= lim

    def test_coupling_rows_are_shuffled(self):
        # coupling rows of one cell and one row index hold the same values;
        # shuffled, their coordinates come in more than one order
        mx = _fresh_mixer("constructive")
        batch = mx.sample(20_000, substream(8, "shuffled"))
        rows = batch.values[batch.branch == 2]
        keys = np.round(np.sort(rows, axis=1), 12)
        _, group, size = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        orders = {}
        for g, order in zip(group.ravel(), map(tuple, np.argsort(rows, axis=1))):
            if size[g] >= 4:
                orders.setdefault(g, set()).add(order)
        assert len(orders) > 50
        assert np.mean([len(o) > 1 for o in orders.values()]) > 0.9

    def test_exchangeability_at_full_scale(self):
        # per-coordinate empirical cdfs pairwise within 0.01 across 1e5 rows
        mx = build_mixer(MixerConfig(n=3, c=0.15, seed=7))
        batch = mx.sample(100_000, substream(7, "exch"))
        for i in range(3):
            for j in range(i + 1, 3):
                assert ks_two_sample(batch.values[:, i], batch.values[:, j]) <= 0.01

    @pytest.mark.parametrize("n", [3, 4])
    def test_c0_rows_exchangeable_in_pairs(self, n):
        # the c = 0 columns are antithetic pairs and a three-block map, whose
        # marginals agree even unshuffled; a pair's sum or difference does
        # not: unshuffled, x0 + x1 is 0 on every n = 4 row. Halves of the
        # batch are independent, so each two-sample KS gets the 99% limit
        batch = build_mixer(MixerConfig(n=n, c=0.0)).sample(100_000, substream(23, "pairs"))
        first, second = batch.values[:50_000], batch.values[50_000:]
        lim = KS_99 * math.sqrt(2.0 / 50_000)
        for sign in (1.0, -1.0):
            ks = ks_two_sample(first[:, 0] + sign * first[:, 1],
                               second[:, 0] + sign * second[:, 2])
            assert ks <= lim, (sign, ks)

    def test_slice_sampler_sums(self, mixer):
        rng = substream(6, "test", "slice")
        for t in (0.02, 1.1, 55.0):
            row = mixer._sample_at(np.array([t]), rng).values[0]
            assert abs(row.sum() - 0.45) <= max(1e-9, 3 * (mixer.c + 3 * t) * 1e-12)

    def test_reflection_row_by_row(self):
        pos = build_mixer(MixerConfig(n=3, c=0.15, seed=7))
        neg = build_mixer(MixerConfig(n=3, c=-0.15, seed=7))
        assert isinstance(neg, ReflectedMixer)
        a = pos.sample(500, substream(9, "refl"))
        b = neg.sample(500, substream(9, "refl"))
        assert_allclose(b.values, -a.values, rtol=0, atol=0)
        assert b.target_sum == -a.target_sum

    def test_determinism(self):
        cfg = MixerConfig(n=3, c=0.1, seed=7)
        a = build_mixer(cfg).sample(300, substream(11, "det"))
        b = build_mixer(cfg).sample(300, substream(11, "det"))
        assert_allclose(a.values, b.values, rtol=0, atol=0)
        assert_allclose(a.t, b.t, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "n,c",
        [(3, 1e-6), (4, 0.2), (6, 0.5), (12, math.log(11) / PI), (5, 1e-4)],
        ids=["n3-tiny", "n4-mid", "n6-mid", "n12-endpoint", "n5-small"],
    )
    def test_parameter_sweep(self, n, c, slice_grid):
        from mixcenter.verify import run_invariant_suite

        slice_grid(512)
        mx = build_mixer(MixerConfig(n=n, c=c, seed=1))
        assert all(r.passed for r in run_invariant_suite(mx))
        batch = mx.sample(3000, substream(1, "sweep", f"{n}-{c}"))
        devs = np.abs(batch.row_sums() - batch.target_sum)
        assert np.all(devs <= batch.row_bound)


class TestSymmetricMixer:
    def test_rows_machine_exact(self):
        mx = build_mixer(MixerConfig(n=3, c=0.0, seed=1))
        batch = mx.sample(20_000, substream(1, "sym"))
        assert np.all(np.abs(batch.row_sums()) <= batch.row_bound)
        assert abs(batch.row_sums().mean()) <= 1e-12

    def test_marginals_exact_cauchy(self):
        mx = build_mixer(MixerConfig(n=4, c=0.0, seed=2))
        batch = mx.sample(30_000, substream(2, "sym"))
        cdf = Cauchy().cdf
        for j in range(4):
            assert ks_distance(batch.values[:, j], cdf) <= 0.015

    def test_radius_quantile_round_trip(self):
        kern = Cauchy()
        u = np.linspace(1e-6, 1 - 1e-6, 999)
        a = kern.radius_quantile(u)
        assert_allclose(kern.radius_cdf(a), u, atol=1e-12)

    def test_n2_antithetic(self):
        mx = build_mixer(MixerConfig(n=2, c=0.0, seed=3))
        batch = mx.sample(1000, substream(3, "sym"))
        assert np.all(batch.values[:, 0] == -batch.values[:, 1])


def _mp_radius(u):
    """The root a of radius_cdf(a) = u by mpmath, solved in phi = 2*arctan(a)
    from the asymptotes of phi - sin(phi), with the digits raised by those
    phi - sin(phi) cancels at tiny u."""
    u = mpmath.mpf(float(u))
    with mpmath.workdps(40 + max(0, int(-mpmath.log10(u)))):
        start = mpmath.cbrt(6 * mpmath.pi * u) if u < 0.5 else mpmath.pi * (1 + u) / 2
        phi = mpmath.findroot(lambda p: p - mpmath.sin(p) - mpmath.pi * u, start)
        return mpmath.tan(phi / 2)


_UNIT = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 2.0**-1074, 1e-300]),
    st.floats(0.0, 1e-12),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
)


class TestRadiusQuantile:
    """The c = 0 radius in Kepler form: within 4 eps of mpmath, and each
    element's radius independent of the batch it is solved in."""

    @pytest.mark.parametrize("region", ["uniform", "log-uniform", "near-one", "near-half",
                                        "series-edge"])
    def test_matches_mpmath(self, region):
        rng = np.random.default_rng(6)
        u = {
            "uniform": lambda: rng.random(150),
            "log-uniform": lambda: np.append(10.0 ** rng.uniform(-300, 0, 150), [1e-20, 1e-12]),
            "near-one": lambda: np.append(1.0 - np.ldexp(1.0, -np.arange(1, 54)),
                                          1.0 - 10.0 ** rng.uniform(-15, 0, 50)),
            "near-half": lambda: np.append(0.5 + rng.uniform(-1e-6, 1e-6, 20),
                                           [0.5, np.nextafter(0.5, 0.0)]),
            # phi just above 1/2, where phi - sin(phi) taken directly is off
            # by more than 4 eps at these pinned u
            "series-edge": lambda: np.append(rng.uniform(0.006, 0.05, 150),
                                             [0.007777819036534349, 0.007996609405539434,
                                              0.007671802967952217]),
        }[region]()
        got = Cauchy().radius_quantile(u)
        rel = [abs((mpmath.mpf(float(a)) - want) / want)
               for a, want in zip(got, map(_mp_radius, u))]
        assert max(rel) <= 4 * np.finfo(float).eps

    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(_UNIT, min_size=1, max_size=64))
    def test_each_element_is_its_own_solve(self, u):
        kern = Cauchy()
        got = kern.radius_quantile(u)
        each = np.array([kern.radius_quantile([x])[0] for x in u])
        assert got.tobytes() == each.tobytes()

    def test_seeded_batch_independent_of_order(self):
        kern = Cauchy()
        u = np.random.default_rng(1).random(200_000)
        order = np.random.default_rng(2).permutation(u.size)
        assert kern.radius_quantile(u[order]).tobytes() == kern.radius_quantile(u)[order].tobytes()

    def test_seeded_batch_independent_of_split(self):
        kern = Cauchy()
        u = np.random.default_rng(1).random(200_000)
        cuts = np.sort(np.random.default_rng(3).integers(0, u.size, 20))
        pieces = [kern.radius_quantile(part) for part in np.split(u, cuts)]
        assert np.concatenate(pieces).tobytes() == kern.radius_quantile(u).tobytes()

    def test_monotone_across_branches(self):
        u = np.sort(np.concatenate([np.random.default_rng(7).random(100_000),
                                    0.5 + np.arange(-50, 50) * 2.0**-53]))
        assert np.all(np.diff(Cauchy().radius_quantile(u)) >= 0.0)

    @pytest.mark.parametrize("u,check", [
        (0.0, lambda a: a == 0.0 and not np.signbit(a)),
        (1.0, lambda a: a == math.inf),
        (math.nan, np.isnan),
    ], ids=["zero", "one", "nan"])
    def test_special_values(self, u, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Cauchy().radius_quantile([0.3, u, 0.7])
        assert check(got[1])

    def test_memory(self):
        # a draw solves its radii one chunk at a time, so beyond the batch it
        # returns it holds about one row-length float array (near 1.0003 of
        # one here); one solve over all rows would hold about six
        rows = 1_000_000
        mixer = build_mixer(MixerConfig(n=2, c=0.0))
        mixer.sample(10, substream(4, "radius-memory"))   # first-call allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch = mixer.sample(rows, substream(4, "radius-memory"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(batch, name).nbytes for name in BATCH_FIELDS)
        assert peak - start - returned <= 1.05 * rows * 8

    def test_shape_and_empty(self):
        kern = Cauchy()
        u = np.random.default_rng(2).random((3, 4))
        got = kern.radius_quantile(u)
        assert got.shape == (3, 4)
        assert got.tobytes() == kern.radius_quantile(u.ravel()).tobytes()
        assert kern.radius_quantile(np.empty(0)).shape == (0,)
        assert kern.radius_quantile(0.3).shape == (1,)


@pytest.mark.parametrize("kind", ["symmetric", "constructive", "explicit", "reflected",
                                  "convex"])
def test_zero_row_draws(kind, slice_grid):
    slice_grid(512)
    zero = build_mixer(MixerConfig(n=4, c=0.0, seed=1))
    pos = ConstructiveMixer(MixerConfig(n=4, c=0.2, seed=7))
    mixer = {
        "symmetric": zero,
        "constructive": pos,
        "explicit": build_mixer(MixerConfig(n=4, c=0.2)),
        "reflected": build_mixer(MixerConfig(n=4, c=-0.2, seed=7)),
        "convex": ConvexCombinationSampler(zero, pos, 0.5),
    }[kind]
    batch = mixer.sample(0, substream(1, "empty"))
    assert batch.values.shape == (0, 4)
    assert batch.t.shape == batch.branch.shape == batch.row_bound.shape == (0,)


BATCH_FIELDS = ("values", "t", "branch", "row_bound")


def _fresh_mixer(kind):
    """A newly built mixer of ``kind``, its cell table empty; build_mixer
    draws (3, 0.2) explicitly, so the slice mixer there is built directly."""
    def build(n, c):
        return build_mixer(MixerConfig(n=n, c=c, seed=5))

    def constructive():
        with mock.patch.multiple(cauchy_mix, T_GRID=256, RA_GRID_M=32):
            return ConstructiveMixer(MixerConfig(n=3, c=0.2, seed=5))

    if kind == "convex":
        return ConvexCombinationSampler(build(3, 0.0), build(3, -0.2), 0.4)
    if kind == "constructive":
        return constructive()
    if kind == "reflected":
        return ReflectedMixer(constructive())
    return build(*{"symmetric-n3": (3, 0.0), "symmetric-n4": (4, 0.0),
                   "explicit": (3, 0.2)}[kind])


LOOKUP_CENTERS = [(3, 0.15), (10, math.log(9) / PI), (5, 0.3), (3, 0.01)]
LOOKUP_GRIDS = [512, 2048]


@functools.lru_cache(maxsize=None)
def _lookup_mixer(n, c, t_grid):
    with mock.patch.object(cauchy_mix, "T_GRID", t_grid):
        return ConstructiveMixer(MixerConfig(n=n, c=c, seed=7))


class TestCdfLookup:
    """A row's t from one bucket lookup equals ``np.interp`` on the knots,
    bit for bit."""

    @staticmethod
    def _check(mixer, u):
        u = np.asarray(u, dtype=float)
        t = u.copy()
        mixer._t_of_u.invert(t)
        assert t.tobytes() == np.interp(u, mixer.mixing_cdf, mixer.knots).tobytes()

    @pytest.mark.parametrize("t_grid", LOOKUP_GRIDS)
    @pytest.mark.parametrize("n,c", LOOKUP_CENTERS)
    def test_every_cdf_value_and_its_neighbours(self, n, c, t_grid):
        mixer = _lookup_mixer(n, c, t_grid)
        cdf = mixer.mixing_cdf
        # on each cdf value t is a knot; just below the next one it may round
        # onto that knot, which lies in the next cell
        u = np.concatenate([[0.0, 1.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            0.5 * (cdf[1:] + cdf[:-1])])
        self._check(mixer, u[(u >= 0.0) & (u <= 1.0)])
        t = np.nextafter(cdf, 0.0)
        mixer._t_of_u.invert(t)
        assert np.any(np.isin(t, mixer.knots[1:])), "no t rounds onto a knot"

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from([(n, c, g) for n, c in LOOKUP_CENTERS for g in LOOKUP_GRIDS]),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
           crowded=st.lists(st.tuples(st.integers(0, 2**16), st.floats(0.0, 1.0, exclude_max=True)),
                            max_size=50))
    def test_matches_interp_and_searchsorted(self, case, u, crowded):
        mixer = _lookup_mixer(*case)
        lookup = mixer._t_of_u
        # buckets that hold several knots send their rows to the search
        many = np.flatnonzero(lookup.first < 0)
        assert many.size
        extra = [(many[b % many.size] + f) / lookup.buckets for b, f in crowded]
        self._check(mixer, np.array(u + extra))


    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.01, 0.3, 1.0]),
                          min_size=1, max_size=40),
           u=st.lists(st.floats(0.0, 1.0), max_size=30))
    def test_flat_and_subnormal_cdf_pieces(self, steps, u):
        # repeated cdf values hold no u; a subnormal step has an infinite
        # slope, where np.interp returns the knot on the cdf value itself
        cdf = np.cumsum([0.0] + steps)
        cdf = np.minimum(cdf / cdf[-1], 1.0) if cdf[-1] > 0.0 else np.append(cdf[:-1], 1.0)
        knots = np.geomspace(1e-6, 1e3, cdf.size)
        lookup = cauchy_mix._CdfInverse(cdf, knots)
        u = np.concatenate([u, [0.0, 1.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        u = u[(u >= 0.0) & (u <= 1.0)]
        t = u.copy()
        lookup.invert(t)
        assert t.tobytes() == np.interp(u, cdf, knots).tobytes()


def _cell_law_p(mixer, t):
    """p-value of the recorded t per knot interval against the increments
    of the mixing cdf: a chi-square, adjacent intervals pooled until each
    expects at least 5 rows. The first interval also holds the rows drawn
    below the first knot."""
    from scipy.stats import chi2

    expected = np.diff(mixer.mixing_cdf) * t.size
    expected[0] += mixer.mixing_cdf[0] * t.size
    cells = np.clip(np.searchsorted(mixer.knots, t, side="right") - 1, 0, expected.size - 1)
    counts = np.bincount(cells, minlength=expected.size)
    pooled_e, pooled_k = [], []
    e_run = k_run = 0
    for e, k in zip(expected, counts):
        e_run, k_run = e_run + e, k_run + k
        if e_run >= 5.0:
            pooled_e.append(e_run)
            pooled_k.append(k_run)
            e_run = k_run = 0
    pooled_e[-1] += e_run
    pooled_k[-1] += k_run
    e, k = np.array(pooled_e), np.array(pooled_k)
    return float(chi2.sf(np.sum((k - e) ** 2 / e), e.size - 1))


class _SkewedFirstDraw:
    """A generator whose first ``random`` draw is raised to the power 1.05,
    as a sampler that distorts the mixing parameter's uniforms would draw."""

    def __init__(self, rng):
        self._rng = rng
        self._skew = True

    def random(self, size):
        u = self._rng.random(size)
        if self._skew:
            self._skew = False
            u **= 1.05
        return u

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("n,c", LOOKUP_CENTERS[:2], ids=["n3", "n10-endpoint"])
def test_cell_law(n, c, slice_grid):
    # a coupling row's t_hat stays in its knot interval, so the rows per
    # interval follow the mixing cdf exactly, snap or no snap
    slice_grid(512)
    mixer = ConstructiveMixer(MixerConfig(n=n, c=c, seed=7))
    for s in range(3):
        batch = mixer.sample(100_000, substream(7, "cell-law", str(s)))
        assert _cell_law_p(mixer, batch.t) >= 0.01
    skewed = mixer.sample(100_000, _SkewedFirstDraw(substream(7, "cell-law", "0")))
    assert _cell_law_p(mixer, skewed.t) < 1e-6


class TestDrawChunks:
    @settings(max_examples=24, deadline=None)
    @given(kind=st.sampled_from(["symmetric-n3", "symmetric-n4", "constructive", "reflected",
                                 "explicit", "convex"]),
           count=st.integers(0, 300), chunk=st.sampled_from([1, 7, "above"]))
    def test_chunk_size_changes_no_byte(self, kind, count, chunk):
        # a cold draw, then a warm one: the same stream again on the filled table
        def draws(chunk_rows):
            mixer = _fresh_mixer(kind)
            with mock.patch.object(cauchy_mix, "_DRAW_CHUNK_ROWS", chunk_rows):
                return [mixer.sample(count, substream(5, "chunks")) for _ in range(2)]

        want = draws(cauchy_mix._DRAW_CHUNK_ROWS)
        got = draws(count + 1 if chunk == "above" else chunk)
        for batch in (*want[1:], *got):
            for name in BATCH_FIELDS:
                assert getattr(batch, name).tobytes() == getattr(want[0], name).tobytes(), name

    @pytest.mark.parametrize("kind,ratio", [("constructive", 2.45), ("symmetric", 1.40),
                                            ("explicit", 1.7)])
    def test_warm_draw_memory(self, kind, ratio, slice_grid):
        # the peak a warm draw allocates above its start, against the bytes
        # it returns; full-batch temporaries put it near 5.5 (c = 0.15) and
        # 2.9 (c = 0) at 200,001 rows, chunked ones near 2.4 and 1.35; the
        # explicit draw's chunked tables near 1.6
        rows = 200_001
        slice_grid(512)
        config = MixerConfig(n=4 if kind == "symmetric" else 3,
                             c=0.0 if kind == "symmetric" else 0.15, seed=7)
        mixer = ConstructiveMixer(config) if kind == "constructive" else build_mixer(config)
        mixer.sample(rows, substream(17, "memory"))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch = mixer.sample(rows, substream(17, "memory"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(batch, name).nbytes for name in BATCH_FIELDS)
        assert peak - start < ratio * returned


@pytest.mark.parametrize("c,direct", [(0.15, True), (0.15, False), (-0.15, False),
                                      (0.0, False)])
def test_drawn_row_bounds_equal_row_bound_for(c, direct, slice_grid):
    # verify recomputes the bound of cyclic (branch 1) and symmetric (branch
    # 4, every row at c = 0) rows from their recorded t; coupling rows keep
    # their cell's bound
    slice_grid(512)
    config = MixerConfig(n=3, c=c, seed=7)
    mixer = ConstructiveMixer(config) if direct else build_mixer(config)
    batch = mixer.sample(4000, substream(12, "row-bound"))
    rows = batch.branch != 2
    assert rows.sum() > 100
    recomputed = mixer.row_bound_for(batch.t, batch.branch)
    assert batch.row_bound[rows].tobytes() == recomputed[rows].tobytes()


def test_row_bound_for_memory(mixer):
    # the peak row_bound_for allocates above its start, against the bytes it
    # returns; one pass over 1e6 rows put it near 10.0, one chunk at a time
    # near 1.85
    rng = np.random.default_rng(5)
    t = np.exp(rng.uniform(np.log(mixer.knots[0]), np.log(mixer.knots[-1]), 1_000_000))
    branch = rng.integers(1, 3, t.size).astype(np.int8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bound = mixer.row_bound_for(t, branch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * bound.nbytes


class TestConvexCombination:
    def test_alpha_one_is_first_mixer(self):
        a = build_mixer(MixerConfig(n=3, c=0.1, seed=7))
        b = build_mixer(MixerConfig(n=3, c=0.0, seed=7))
        combo = ConvexCombinationSampler(a, b, 1.0)
        rng1 = substream(13, "cc")
        rng2 = substream(13, "cc")
        got = combo.sample(200, rng1)
        want = a.sample(200, rng2)
        b.sample(200, rng2)  # combo consumed the second mixer's draws too
        assert_allclose(got.values, want.values, rtol=0, atol=0)

    def test_midpoint_of_opposite_endpoints(self, slice_grid):
        slice_grid(512)
        hi = build_mixer(MixerConfig(n=3, c=LOG2_PI, seed=7))
        lo = build_mixer(MixerConfig(n=3, c=-LOG2_PI, seed=7))
        combo = ConvexCombinationSampler(hi, lo, 0.5)
        batch = combo.sample(2000, substream(14, "cc"))
        assert abs(batch.target_sum) <= 1e-15
        assert np.abs(batch.row_sums()).max() <= 1e-9

    def test_interpolated_center(self):
        a = build_mixer(MixerConfig(n=3, c=0.0, seed=7))
        b = build_mixer(MixerConfig(n=3, c=0.2, seed=7))
        combo = ConvexCombinationSampler(a, b, 0.25)
        batch = combo.sample(2000, substream(15, "cc"))
        assert_allclose(batch.target_sum, 3 * 0.15, rtol=1e-12)
        assert abs(batch.row_sums().mean() - 0.45) <= 1e-9

    def test_marginals_stay_cauchy(self):
        hi = build_mixer(MixerConfig(n=3, c=0.2, seed=7))
        lo = build_mixer(MixerConfig(n=3, c=-0.2, seed=7))
        combo = ConvexCombinationSampler(hi, lo, 0.5)
        batch = combo.sample(30_000, substream(16, "cc"))
        for j in range(3):
            assert ks_distance(batch.values[:, j], Cauchy().cdf) <= 0.02


@pytest.fixture(scope="module")
def generic_mixer():
    with mock.patch.multiple(cauchy_mix, T_GRID=256, TAIL_EPS=5e-3, RA_GRID_M=64):
        return build_mixer(MixerConfig(n=3, c=0.15, seed=0), cauchy_like_density())


class TestGenericDensityRoute:
    def test_admissibility_cauchy(self):
        adm = generic_admissibility(cauchy_like_density(), 3)
        assert adm.ok
        assert_allclose(adm.q_max, LOG2_PI, atol=1e-6)

    def test_admissibility_power_three_halves_fails(self):
        adm = generic_admissibility(power_three_halves_density(), 3)
        assert not adm.ok
        assert adm.witness == -49.875

    def test_convex_recipe_with_finite_mean(self):
        # 1/(1+x^2)^2 has sqrt(1/g) convex but a finite mean, so only the
        # zero center remains admissible
        g = GenericDensity(lambda x: 1.0 / (1 + x * x) ** 2)
        adm = generic_admissibility(g, 3)
        assert adm.ok
        assert adm.q_max <= 1e-6

    @pytest.mark.parametrize("n,ulps", [(3, 1), (10, 1), (100, 0)])
    def test_center_limit_meets_the_cauchy_interval(self, n, ulps):
        # the admissibility integrals of x*pdf(x) over [2^k, (n-1)2^k] end
        # within one ulp of log(n-1)/pi, and on it at n = 100
        want = math.log(n - 1) / PI
        assert abs(cauchy_like_density().center_limit(n) - want) <= ulps * np.spacing(want)

    def test_center_limit_reads_the_construction_grid(self, monkeypatch):
        # the convexity check reads the values the shape check took, so a
        # pdf that refuses arrays leaves both limits as they were
        g = cauchy_like_density()
        pdf = g.pdf

        def scalar_pdf(x):
            if np.ndim(x):
                raise AssertionError("pdf evaluated on an array")
            return pdf(x)

        monkeypatch.setattr(g, "pdf", scalar_pdf)
        assert g.center_limit(3) == 0.22063560015265157
        assert g.center_limit(10) == 0.6993983051321198

    def test_center_limit_rejects_a_non_convex_shape(self):
        with pytest.raises(DomainError, match="convexity requirement near x=-49.875"):
            build_mixer(MixerConfig(n=3, c=0.1), power_three_halves_density())

    def test_generic_kernel_matches_closed_form(self, generic_mixer, slice_grid):
        slice_grid(64, 5e-2)
        exact = ConstructiveMixer(MixerConfig(n=3, c=0.15))
        for t in (0.01, 1.0, 50.0):
            assert_allclose(generic_mixer.clip_level(t), exact.clip_level(t), atol=1e-7)

    def test_generic_rows_sum_to_target(self, generic_mixer):
        batch = generic_mixer.sample(200, substream(21, "generic"))
        devs = np.abs(batch.row_sums() - batch.target_sum)
        assert np.all(devs <= batch.row_bound + 1e-12)

    def test_center_zero_generic_mixer_passes_its_suite(self):
        # radius_mass reads 1 - radius_cdf(1e12), which needs the cdf's far tail
        rows = run_invariant_suite(build_mixer(MixerConfig(n=3, c=0.0), cauchy_like_density()))
        assert all(r.passed for r in rows), [(r.name, r.measured) for r in rows]

    def test_center_outside_generic_bound(self):
        with pytest.raises(DomainError):
            build_mixer(MixerConfig(n=3, c=0.5), cauchy_like_density())
