import ast
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import mixcenter
from mixcenter.anchors import CAUCHY_WINDOW_02_09, EX01_WEIGHTS, cauchy_like_density, ex01_mixture
from mixcenter.distributions import (
    AtomUniform,
    Cauchy,
    CountableMixture,
    FiniteDiscrete,
    GenericDensity,
    Pareto,
    PowerTwoGeometric,
    Reflected,
    Uniform,
    avg_quantile,
    cauchy_quantile,
    model_from_spec,
    quad_avg_quantile,
    reflect,
)
from mixcenter.errors import DomainError, QuadratureError

PI = math.pi


# frozen oracle values
TAN_04PI = 3.0776835371752527          # tan(0.4*pi), high-precision evaluation


class TestCauchyQuantile:
    def test_symmetry_center(self):
        assert cauchy_quantile(0.5) == 0.0

    def test_tan_quarter(self):
        assert_allclose(cauchy_quantile(0.75), 1.0, rtol=1e-15)

    def test_high_level(self):
        assert_allclose(cauchy_quantile(0.9), TAN_04PI, rtol=1e-15)

    def test_strictly_increasing(self):
        ts = np.linspace(0.01, 0.99, 197)
        assert np.all(np.diff(cauchy_quantile(ts)) > 0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            cauchy_quantile(t)

    def test_tails_against_mpmath(self):
        # log-uniform levels toward both ends; tan(pi*(t - 1/2)) alone lost
        # about 1e-16/(pi*min(t, 1 - t)) relative there (1.7e-9 at t = 1e-8)
        lows = np.geomspace(1e-15, 0.3, 300)
        ts = np.concatenate([lows, 1.0 - lows])
        got = cauchy_quantile(ts)
        with mpmath.workdps(40):
            want = [mpmath.tan(mpmath.pi * (mpmath.mpf(float(t)) - 0.5)) for t in ts]
        rel = [float(abs((g - w) / w)) for g, w in zip(got.tolist(), want)]
        assert max(rel) <= 4 * np.finfo(float).eps
        assert [cauchy_quantile(float(t)) for t in ts[::37]] == got[::37].tolist()


class TestCauchyInverseDensity:
    def test_mode(self):
        assert Cauchy().inverse_pdf(1.0 / PI) == 0.0

    def test_unit(self):
        assert_allclose(Cauchy().inverse_pdf(1.0 / (2 * PI)), 1.0, rtol=1e-14)

    def test_two(self):
        assert_allclose(Cauchy().inverse_pdf(1.0 / (5 * PI)), 2.0, rtol=1e-14)

    def test_zero_level_sentinel(self):
        assert Cauchy().inverse_pdf(0.0) == math.inf
        assert Cauchy().inverse_pdf(-1.0) == math.inf

    def test_above_mode_rejected(self):
        with pytest.raises(DomainError):
            Cauchy().inverse_pdf(0.5)

    def test_round_trip(self):
        f = Cauchy().pdf
        for y in (1e-6, 1e-3, 0.05, 0.3):
            assert abs(f(Cauchy().inverse_pdf(y)) - y) <= 1e-12

    def test_array_matches_scalars(self):
        ys = np.array([[-1.0, 0.0, 1e-300], [1e-6, 0.05, 1.0 / PI]])
        out = Cauchy().inverse_pdf(ys)
        assert out.shape == ys.shape
        assert isinstance(Cauchy().inverse_pdf(0.05), float)
        assert out.tolist() == [[Cauchy().inverse_pdf(float(y)) for y in row] for row in ys]
        assert out[0, :2].tolist() == [math.inf, math.inf] and out[1, 2] == 0.0
        with pytest.raises(DomainError):
            Cauchy().inverse_pdf(np.array([0.1, 0.5]))


class TestCauchyModel:
    def test_density_normalized(self):
        val, _ = quad(Cauchy().pdf, -np.inf, np.inf)
        assert abs(val - 1.0) <= 1e-10

    def test_quantile_cdf_round_trip(self):
        c = Cauchy()
        xs = np.linspace(-100, 100, 401)
        assert_allclose(c.quantile(c.cdf(xs)), xs, atol=1e-9)

    def test_mean_status(self):
        assert Cauchy().mean_status == "undefined"

    def test_scale_wrapper(self):
        c = Cauchy(scale=4.0)
        assert_allclose(c.quantile(0.75), 4.0, rtol=1e-14)
        assert_allclose(c.cdf(4.0), 0.75, rtol=1e-14)

    def test_survival_integral_matches_quadrature(self):
        c = Cauchy()
        for a, b in [(-3.0, 2.0), (0.5, 11.0), (-20.0, -1.0)]:
            ref, _ = quad(lambda x: 1 - c.cdf(x), a, b)
            assert_allclose(c.survival_integral(a, b), ref, atol=1e-9)


class TestAvgQuantile:
    def test_cauchy_symmetric_window(self):
        assert abs(avg_quantile(Cauchy(), 0.25, 0.75)) <= 1e-12

    def test_cauchy_symmetric_windows_sweep(self):
        for a in (0.01, 0.1, 0.3, 0.45):
            assert abs(avg_quantile(Cauchy(), a, 1 - a)) <= 1e-10

    def test_cauchy_asymmetric_window_oracle(self):
        # cross-checked against (1/0.7)(1/pi) log(sin(0.2 pi)/sin(0.1 pi))
        closed = math.log(math.sin(0.2 * PI) / math.sin(0.1 * PI)) / (PI * 0.7)
        for got in (avg_quantile(Cauchy(), 0.2, 0.9),
                    quad_avg_quantile(Cauchy(), 0.2, 0.9)):
            assert_allclose(got, CAUCHY_WINDOW_02_09, atol=1e-10)
            assert_allclose(got, closed, atol=1e-10)

    def test_uniform_midpoint(self):
        assert_allclose(avg_quantile(Uniform(0, 1), 0.2, 0.8), 0.5, rtol=1e-15)

    def test_rightward_shift_monotone(self):
        for model in (Cauchy(), Uniform(0, 1), AtomUniform(0, 1, 0.3)):
            base = avg_quantile(model, 0.2, 0.6)
            shifted = avg_quantile(model, 0.25, 0.65)
            assert shifted >= base - 1e-12

    def test_finite_discrete_exact(self):
        m = FiniteDiscrete([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])
        # quantile is 0 on (0,.25], 1 on (.25,.75], 3 on (.75,1)
        got = avg_quantile(m, 0.2, 0.8)
        expected = (0.05 * 0 + 0.5 * 1 + 0.05 * 3) / 0.6
        assert got == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            avg_quantile(Cauchy(), 0.5, 0.5)


class TestCauchyWindowClosedForm:
    """Cauchy closed form against quadrature of the tan quantile.

    The windows reach where the symmetric checks above do not: a scaled
    law, the tails, and widths down to 1e-9, where the plain log
    difference of the closed form cancels. Tail windows stop at 1e-6 from
    the ends: nearer, tan(pi*(t - 1/2)) itself loses about 1e-16/(pi*t)
    relative, so quadrature of it is no longer a 1e-10 oracle.
    """

    WINDOWS = [
        (0.2, 0.9),
        (1e-6, 1.0 - 2e-6),
        (5e-7, 0.3),
        (0.7, 1.0 - 5e-7),
        (1e-6, 0.5),
        (0.5, 1.0 - 1e-6),
        (0.3, 0.3 + 1e-9),
        (0.7 - 1e-9, 0.7),
        (1e-6, 1e-6 + 1e-9),
        (1.0 - 1e-6 - 1e-9, 1.0 - 1e-6),
        (0.999, 0.999 + 1e-7),
    ]

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("lo,hi", WINDOWS)
    def test_matches_quadrature(self, lo, hi, scale):
        model = Cauchy(scale=scale)
        assert_allclose(avg_quantile(model, lo, hi),
                        quad_avg_quantile(model, lo, hi), rtol=1e-10)

    @pytest.mark.parametrize("lo,hi", WINDOWS)
    def test_reflected_matches_quadrature(self, lo, hi):
        base = Cauchy(scale=2.5)
        # reflect() hands back the law itself (it is symmetric); Reflected
        # forces the mirrored call into the closed form
        for model in (reflect(base), Reflected(base)):
            assert_allclose(avg_quantile(model, lo, hi),
                            quad_avg_quantile(model, lo, hi), rtol=1e-10)

    @pytest.mark.parametrize("lo,hi", [
        (1e-7, 1e-7 + 1e-9),
        (1.0 - 1e-7 - 1e-9, 1.0 - 1e-7),
        (1e-12, 0.5),
        (0.5, 1.0 - 1e-12),
        (1e-9, 1.0 - 1e-9),
        (0.5, 0.5 + 1e-9),
        (0.4999999, 0.49999999),
        (1e-300, 1e-300 * (1.0 + 1e-9)),
    ])
    def test_deep_tails_match_high_precision(self, lo, hi):
        # beyond the reach of the quadrature oracle: 50-digit evaluation of
        # log(sin(pi*lo)/sin(pi*hi)) / (pi*(hi - lo)) at the same floats
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            lo_m, hi_m = mp.mpf(lo), mp.mpf(hi)
            ref = float(mp.log(mp.sin(mp.pi * lo_m) / mp.sin(mp.pi * hi_m))
                        / (mp.pi * (hi_m - lo_m)))
        assert_allclose(avg_quantile(Cauchy(), lo, hi), ref, rtol=1e-13)


class TestParetoAtomUniformClosedForms:
    """Pareto window averages and Pareto / atom-uniform survival integrals
    against 50-digit mpmath at the same floats, with quadrature (split at
    the kinks) as a second, independent check.

    Windows reach 1e-9 in width and 1e-9 from either end; intervals
    straddle each kink (xm, atom_x, right_y) and narrow to 1e-9.
    """

    SHAPES = [0.5, 1.0, 1.5, 3.0]
    XM = 2.0
    WINDOWS = [
        (0.2, 0.9),
        (1e-9, 1.0 - 1e-9),
        (1e-9, 2e-9),
        (1.0 - 2e-9, 1.0 - 1e-9),
        (1e-9, 0.5),
        (0.5, 1.0 - 1e-9),
        (0.3, 0.3 + 1e-9),
        (0.5, 0.5 + 1e-9),
        (0.7 - 1e-9, 0.7),
        (0.999, 1.0 - 1e-9),
        (0.25, 0.75),
    ]
    PARETO_INTERVALS = [
        (0.5, 1.5),                 # below xm only
        (1.0, 3.0),                 # across xm
        (2.0 - 1e-9, 2.0 + 1e-9),   # across xm, narrow
        (2.0, 2.0 + 1e-9),
        (5.0, 5.0 + 1e-9),
        (2.5, 40.0),
        (-10.0, 1e3),
        (3.0, 1e6),
    ]
    ATOM_UNIFORMS = [AtomUniform(-1.0, 2.5, 0.3), AtomUniform(0.0, 1.0, 0.2)]
    ATOM_INTERVALS = [
        (-3.0, 5.0),                # across both kinks
        (-2.0, 0.7),                # across atom_x
        (0.5, 3.0),                 # across right_y
        (-1.0 - 1e-9, -1.0 + 1e-9), # the kinks, narrow
        (2.5 - 1e-9, 2.5 + 1e-9),
        (1.0 - 1e-9, 1.0 + 1e-9),
        (0.3, 0.3 + 1e-9),          # inside the uniform part, narrow
        (0.9, 0.9 + 1e-9),
        (2.4, 2.4 + 1e-9),
        (2.0 - 1e-9, 2.0),          # ending at the uniform's right end
        (-1.0, 2.5),
    ]
    # windows inside the linear part and across the atom's level, narrow
    ATOM_WINDOWS = WINDOWS + [
        (0.9, 0.9 + 1e-10),
        (0.2 - 1e-9, 0.2 + 1e-9),
        (0.3 - 1e-9, 0.3 + 1e-9),
        (0.1, 0.2),
    ]

    @staticmethod
    def mp_survival(mp, model, a, b, kinks):
        """50-digit integral of 1 - F over [a, b], split at the kinks inside."""
        with mp.workdps(50):
            pts = [mp.mpf(a)] + [mp.mpf(k) for k in kinks if a < k < b] + [mp.mpf(b)]
            return float(mp.quad(lambda x: 1 - model(x), pts))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lo,hi", WINDOWS)
    def test_pareto_window_matches_high_precision(self, lo, hi, shape):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            lo_m, hi_m, p = mp.mpf(lo), mp.mpf(hi), 1 - 1 / mp.mpf(shape)
            if p == 0:
                integral = mp.log((1 - lo_m) / (1 - hi_m))
            else:
                integral = ((1 - lo_m) ** p - (1 - hi_m) ** p) / p
            ref = float(self.XM * integral / (hi_m - lo_m))
        assert_allclose(avg_quantile(Pareto(shape, self.XM), lo, hi), ref, rtol=1e-13)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lo,hi", [(0.2, 0.9), (1e-6, 0.5), (0.3, 0.3 + 1e-9), (0.5, 0.99)])
    def test_pareto_window_matches_quadrature(self, lo, hi, shape):
        model = Pareto(shape, self.XM)
        assert_allclose(avg_quantile(model, lo, hi), quad_avg_quantile(model, lo, hi),
                        rtol=1e-10)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("a,b", PARETO_INTERVALS)
    def test_pareto_survival_matches_high_precision(self, a, b, shape):
        mp = pytest.importorskip("mpmath")
        xm = self.XM
        cdf = lambda x: 0 if x < xm else 1 - (xm / x) ** shape  # noqa: E731
        ref = self.mp_survival(mp, cdf, a, b, [xm])
        assert_allclose(Pareto(shape, xm).survival_integral(a, b), ref, rtol=1e-13)

    @pytest.mark.parametrize("model", ATOM_UNIFORMS, ids=["wide", "unit"])
    @pytest.mark.parametrize("lo,hi", ATOM_WINDOWS)
    def test_atom_uniform_window_matches_high_precision(self, lo, hi, model):
        # the quantile is atom_x up to the atom's weight, then linear; the
        # closed form is accurate to a few ulps of the law's scale, since a
        # window mean near 0 is a difference of the two ends' sizes
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x, y, w = (mp.mpf(v) for v in (model.atom_x, model.right_y, model.atom_weight))
            lo_m, hi_m = mp.mpf(lo), mp.mpf(hi)
            pts = [lo_m] + ([w] if lo_m < w < hi_m else []) + [hi_m]
            q = lambda t: x if t <= w else x + (y - x) * (t - w) / (1 - w)  # noqa: E731
            ref = float(mp.quad(q, pts) / (hi_m - lo_m))
        scale = max(abs(model.atom_x), abs(model.right_y))
        assert abs(avg_quantile(model, lo, hi) - ref) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("model", ATOM_UNIFORMS + [Uniform(-1.0, 2.0)],
                             ids=["wide", "unit", "uniform"])
    @pytest.mark.parametrize("a,b", ATOM_INTERVALS)
    def test_atom_uniform_survival_matches_high_precision(self, a, b, model):
        mp = pytest.importorskip("mpmath")
        x, y, w = (mp.mpf(v) for v in (model.atom_x, model.right_y, model.atom_weight))

        def cdf(t):
            if t < x:
                return 0
            return w + (1 - w) * min((t - x) / (y - x), 1)

        ref = self.mp_survival(mp, cdf, a, b, [x, y])
        assert_allclose(model.survival_integral(a, b), ref, rtol=1e-13)

    @pytest.mark.parametrize("model", [Pareto(s, 2.0) for s in SHAPES] + ATOM_UNIFORMS,
                             ids=[f"pareto{s}" for s in SHAPES] + ["au-wide", "au-unit"])
    def test_survival_matches_quadrature(self, model):
        kinks = [model.xm] if isinstance(model, Pareto) else [model.atom_x, model.right_y]
        for a, b in [(-3.0, 5.0), (0.5, 1.5), (1.0, 3.0), (2.4, 2.4 + 1e-9), (-2.0, 0.7)]:
            want = quad(lambda t: 1.0 - model.cdf(t), a, b, epsabs=0.0, epsrel=1e-12,
                        limit=200, points=[k for k in kinks if a < k < b] or None)[0]
            assert_allclose(model.survival_integral(a, b), want, rtol=1e-10)


class TestGeneralizedInverse:
    MODELS = [
        Cauchy(),
        Uniform(-2, 5),
        FiniteDiscrete([(-1.0, 0.3), (0.5, 0.2), (2.0, 0.5)]),
        AtomUniform(0.0, 1.0, 0.5),
        Pareto(0.5),
        PowerTwoGeometric("positive"),
        PowerTwoGeometric("negative"),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__ + getattr(m, "sign", ""))
    def test_cdf_nondecreasing(self, model):
        xs = np.linspace(-40, 40, 301)
        cdf = np.array([float(model.cdf(x)) for x in xs])
        assert np.all(np.diff(cdf) >= -1e-15)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__ + getattr(m, "sign", ""))
    def test_quantile_is_generalized_inverse(self, model):
        eps = 1e-9
        for x in np.linspace(-30, 30, 41):
            t = float(model.cdf(x))
            if t + eps >= 1.0 or t + eps <= 0.0:
                continue
            assert float(model.quantile(t + eps)) >= x - 1e-9


class TestFiniteDiscrete:
    def test_prob_sum_enforced(self):
        with pytest.raises(DomainError):
            FiniteDiscrete([(0, 0.5), (1, 0.5001)])

    def test_values_strictly_increasing(self):
        with pytest.raises(DomainError):
            FiniteDiscrete([(1, 0.5), (1, 0.5)])

    def test_sampling_bernoulli(self):
        m = FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)])
        rng = np.random.default_rng(11)
        draws = m.quantile(rng.random(10_000))
        assert abs(draws.mean() - 0.5) <= 0.02

    def test_reflected_exact(self):
        m = FiniteDiscrete([(0.0, 0.25), (1.0, 0.75)])
        r = m.reflected()
        assert list(r.values) == [-1.0, 0.0]
        assert list(r.probs) == [0.75, 0.25]


def _loop_avg_quantile(law, lo, hi):
    """The quantile step function's mean over [lo, hi], visiting every atom:
    the reference for ``FiniteDiscrete._avg_quantile``."""
    cum = np.cumsum(law.probs)
    cum[-1] = law.total_mass
    edges = np.concatenate([[0.0], cum]) / law.total_mass
    acc = 0.0
    for i, v in enumerate(law.values):
        a = max(lo, float(edges[i]))
        b = min(hi, float(edges[i + 1]))
        if b > a:
            acc += v * (b - a)
    return acc / (hi - lo)


def _loop_survival_integral(law, a, b):
    """The survival step function's integral over [a, b], scanning every
    atom and reading ``cdf``: the reference for ``FiniteDiscrete.survival_integral``."""
    grid = [a] + [v for v in law.values if a < v < b] + [b]
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        total += (hi - lo) * (law.total_mass - float(law.cdf(lo)))
    return total


@st.composite
def finite_laws(draw):
    """A FiniteDiscrete law with 1 to 12 atoms and total mass at most 1."""
    values = draw(st.lists(st.one_of(st.integers(-20, 20).map(float),
                                     st.floats(-50.0, 50.0, allow_subnormal=False)),
                           min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(values), max_size=len(values)))
    mass = draw(st.sampled_from([1.0, 0.75, 1.0 - 2.0 ** -20]))
    probs = [w / sum(weights) * mass for w in weights]
    return FiniteDiscrete(zip(values, probs), total_mass=math.fsum(probs))


class TestFiniteDiscreteStepIntegrals:
    """The window-limited integrals equal the every-atom loops bit for bit,
    on windows that may start or end on an atom or a cumulative edge."""

    @settings(max_examples=300, deadline=None)
    @given(law=finite_laws(), data=st.data())
    def test_avg_quantile_matches_loop(self, law, data):
        edges = (np.cumsum(law.probs) / law.total_mass)[:-1].tolist()
        level = st.floats(1e-12, 1.0 - 1e-12)
        if edges:
            level = st.one_of(level, st.sampled_from(edges))
        lo, hi = sorted(data.draw(st.tuples(level, level), label="window"))
        if lo == hi:
            return
        got, want = law._avg_quantile(lo, hi), _loop_avg_quantile(law, lo, hi)
        assert float(got).hex() == float(want).hex()

    @settings(max_examples=300, deadline=None)
    @given(law=finite_laws(), data=st.data())
    def test_survival_integral_matches_loop(self, law, data):
        point = st.one_of(st.floats(-60.0, 60.0, allow_subnormal=False),
                          st.sampled_from(law.values.tolist()))
        a, b = data.draw(st.tuples(point, point), label="interval")
        got, want = law.survival_integral(a, b), _loop_survival_integral(law, a, b)
        assert float(got).hex() == float(want).hex()


class TestPowerTwoGeometric:
    def test_positive_pmf(self):
        nu = PowerTwoGeometric("positive", 10)
        pmf = dict(nu.pmf_fractions())
        assert pmf[1] == Fraction(1, 2)
        assert pmf[4] == Fraction(1, 8)

    def test_truncated_mass_exact(self):
        for K in (1, 5, 20, 40):
            nu = PowerTwoGeometric("positive", K)
            total = sum(p for _, p in nu.pmf_fractions())
            assert total == 1 - Fraction(1, 2 ** (K + 1))
            gamma = PowerTwoGeometric("negative", K)
            total_g = sum(p for _, p in gamma.pmf_fractions())
            assert total_g == 1 - Fraction(1, 2 ** (K + 1))

    def test_sampling_atom_one(self):
        nu = PowerTwoGeometric("positive")
        rng = np.random.default_rng(5)
        draws = nu.quantile(rng.random(10_000))
        assert abs((draws == 1.0).mean() - 0.5) <= 0.02

    def test_quantiles(self):
        nu = PowerTwoGeometric("positive")
        assert nu.quantile(0.3) == 1.0
        assert nu.quantile(0.6) == 2.0
        assert nu.quantile(0.8) == 4.0
        gamma = PowerTwoGeometric("negative")
        # F(-2)=1, F(-4)=1/2, F(-8)=1/4; quantile is the generalized inverse
        assert gamma.quantile(0.6) == -2.0
        assert gamma.quantile(0.5) == -4.0
        assert gamma.quantile(0.4) == -4.0
        assert gamma.quantile(0.3) == -4.0
        assert gamma.quantile(0.2) == -8.0

    def test_mean_statuses(self):
        assert PowerTwoGeometric("positive").mean_status == "+inf"
        assert PowerTwoGeometric("negative").mean_status == "-inf"

    def test_mixture_mean_status_follows_component_signs(self):
        pos, neg = PowerTwoGeometric("positive"), PowerTwoGeometric("negative")
        assert CountableMixture([(1, pos)]).mean_status == "+inf"
        assert CountableMixture([(Fraction(1, 2), neg), (Fraction(1, 2), neg)]).mean_status == "-inf"
        # a component of weight 0 adds no tail
        assert CountableMixture([(1, pos), (0, neg)]).mean_status == "+inf"
        assert ex01_mixture().mean_status == "undefined"

    WINDOWS = [(-3.5, 7.25), (0.3, 0.9), (1.0, 2.0), (-100.0, -2.0), (-9.0, -3.0),
               (-5.0, 1000.5), (-1e6, 1e6), (2.0 ** 40 - 1, 2.0 ** 41 + 3)]

    @staticmethod
    def brute_survival(components, a, b, kmax=200):
        """Sum of p * (clip(v, a, b) - a) over the atoms, in Fractions.

        The atoms beyond index kmax lie above b (positive law, full length
        b - a each) or below a (negative law, nothing).
        """
        a, b = Fraction(a), Fraction(b)
        total = Fraction(0)
        for w, law in components:
            for v, p in law.pmf_fractions(kmax):
                total += w * p * (min(max(v, a), b) - a)
            if law.sign == "positive":
                total += w * Fraction(1, 2 ** (kmax + 1)) * (b - a)
        return total

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_survival_integral_exact(self, sign):
        law = PowerTwoGeometric(sign, 3)
        for a, b in self.WINDOWS:
            want = self.brute_survival([(1, law)], a, b)
            assert_allclose(law.survival_integral(a, b), float(want),
                            rtol=1e-13, atol=1e-300)

    def test_mixture_survival_integral_exact(self):
        mix = ex01_mixture()
        parts = [(w, PowerTwoGeometric(sign)) for w, sign in EX01_WEIGHTS]
        for a, b in self.WINDOWS:
            want = self.brute_survival(parts, a, b)
            assert_allclose(mix.survival_integral(a, b), float(want), rtol=1e-13)

    # the atoms of (2 nu + gamma)/3, the points between them, and beyond both ends
    CDF_POINTS = [1.0, 2.0, 4.0, 2.0 ** 40, -2.0, -4.0, -2.0 ** 40, 0.0, 1.5, 3.0, -1.0,
                  -3.0, 2.0 ** 40 + 1, -2.0 ** 40 - 1, -2.5 * 2.0 ** 50, 2.5 * 2.0 ** 50]

    def test_mixture_cdf_exact(self):
        # P(X <= x) against the exact Fraction sum over the atoms; the atoms
        # beyond index kmax lie far above x (nu, nothing) or far below it
        # (gamma, all of that tail)
        kmax = 200
        parts = [(w, PowerTwoGeometric(sign)) for w, sign in EX01_WEIGHTS]
        for x in self.CDF_POINTS:
            want = Fraction(0)
            for w, law in parts:
                want += w * sum(p for v, p in law.pmf_fractions(kmax) if v <= x)
                if law.sign == "negative":
                    want += w * Fraction(1, 2 ** (kmax + 1))
            assert_allclose(ex01_mixture().cdf(x), float(want), rtol=1e-15, atol=1e-17)
        assert_allclose(ex01_mixture().cdf(self.CDF_POINTS),
                        [ex01_mixture().cdf(x) for x in self.CDF_POINTS], rtol=0, atol=0)

    def test_survival_integral_needs_finite_ends(self):
        for b in (math.inf, math.nan, 1e308):
            with pytest.raises(DomainError):
                PowerTwoGeometric("positive").survival_integral(0.0, b)


class TestAtomUniform:
    def test_mean_consistent_with_cdf(self):
        m = AtomUniform(0.0, 1.0, 0.5)
        # mean = lower endpoint + integral of the survival function
        surv, _ = quad(lambda x: 1.0 - m.cdf(x), 0.0, 1.0, limit=200)
        assert_allclose(m.mean, 0.0 + surv, atol=1e-12)
        assert_allclose(m.mean, 0.5 * 0 + 0.5 * 0.5, atol=1e-15)

    def test_quantiles(self):
        m = AtomUniform(0.0, 1.0, 0.5)
        assert m.quantile(0.3) == 0.0
        assert_allclose(m.quantile(5 / 8), 0.25, rtol=1e-14)
        assert_allclose(m.quantile(7 / 8), 0.75, rtol=1e-14)


class TestGenericDensity:
    def test_normalization(self):
        g = cauchy_like_density()
        assert_allclose(g.pdf(0.0), 1.0 / PI, rtol=1e-9)

    def test_symmetry_enforced(self):
        with pytest.raises(DomainError, match="not symmetric about 0"):
            GenericDensity(lambda x: math.exp(-abs(x - 0.3)))

    @pytest.mark.parametrize("pdf", [
        lambda x: 1.0 / (1.0 + (abs(x) - 2.0) ** 2),          # bimodal, modes at +-2
        lambda x: 1.0 / (1.0 + max(abs(x) - 1.0, 0.0) ** 2),  # flat on [-1, 1]
    ], ids=["bimodal", "flat-top"])
    def test_unimodality_enforced(self, pdf):
        with pytest.raises(DomainError, match="not strictly decreasing right of 0"):
            GenericDensity(pdf)

    def test_normalization_must_be_finite_and_positive(self):
        # NaN beyond |x| = 60 makes the normalization NaN, which every later
        # check would let through
        with pytest.raises(DomainError, match="density normalization is nan"):
            GenericDensity(lambda x: math.nan if abs(x) > 60.0 else 1.0 / (1.0 + x * x))

    def test_normalization_must_converge(self):
        # positive on the whole shape-check grid (3.0e-4 at x = 50) but
        # negative beyond |x| = 100, so its integral diverges, though quad's
        # error estimate there is small (2.1e-10)
        with pytest.raises(QuadratureError, match="divergent"):
            GenericDensity(lambda x: 1.0 / (1.0 + x * x) - 1e-4)

    def test_quantile_round_trip(self):
        g = cauchy_like_density()
        for t in (0.1, 0.4, 0.5, 0.8, 0.95):
            assert abs(g.cdf(g.quantile(t)) - t) <= 1e-10

    def test_inverse_pdf(self):
        g = cauchy_like_density()
        x = g.inverse_pdf(1.0 / (2 * PI))
        assert_allclose(x, 1.0, rtol=1e-9)

    def test_cdf_keeps_the_tail_mass(self):
        # the bulk near 0 must count however far out x is
        g = cauchy_like_density()
        xs = np.geomspace(1e-3, 1e12, 121)
        for x in np.concatenate([xs, -xs, [0.0, 1.0, -1.0]]):
            assert abs(g.cdf(x) - (0.5 + math.atan(x) / PI)) <= 1e-14, x

    def test_quantile_in_the_far_tails(self):
        g = cauchy_like_density()
        tail = np.geomspace(1e-12, 0.5, 25)
        for t in np.concatenate([tail, 1.0 - tail]):
            assert abs(g.cdf(g.quantile(t)) - t) <= 1e-13, t

    def test_avg_quantile_by_substitution(self):
        # the integral of x*pdf(x) between Q(0.2) and Q(0.9), over 0.7
        g = cauchy_like_density()
        assert abs(avg_quantile(g, 0.2, 0.9) - CAUCHY_WINDOW_02_09) <= 1e-10

    def test_avg_quantile_solves_one_quantile_call(self, monkeypatch):
        # both window ends in one call, and no quantile inside a quadrature
        g = cauchy_like_density()
        calls = []
        quantile = g.quantile
        monkeypatch.setattr(g, "quantile", lambda t: calls.append(t) or quantile(t))
        avg_quantile(g, 0.2, 0.9)
        assert len(calls) == 1

    def test_survival_integral_reads_one_cdf(self, monkeypatch):
        # the boundary term's F(b), and no cdf inside a quadrature
        g = cauchy_like_density()
        calls = []
        cdf = g.cdf
        monkeypatch.setattr(g, "cdf", lambda x: calls.append(x) or cdf(x))
        g.survival_integral(-3.0, 5.0)
        assert calls == [5.0]

    @pytest.mark.parametrize("a,b", [(-1e4, 2e4), (-3.0, 5.0), (2.0, 7.0), (-0.5, 0.25)])
    def test_survival_integral_matches_cauchy(self, a, b):
        # by parts: (b - a)*(1 - F(b)) plus the integral of (x - a)*pdf(x);
        # 1 - F(b) keeps the rounding of F(b) near 1, so the error grows
        # with b - a (6.1e-17 times b - a on the widest interval here)
        got = cauchy_like_density().survival_integral(a, b)
        assert abs(got - Cauchy().survival_integral(a, b)) <= 2e-16 * max(b - a, 1.0)

    def test_survival_integral_far_left(self):
        # x - a reaches 1e6 on the interval, so quad's default relative
        # tolerance of 1.5e-8 left 3.8e-6 here
        got = cauchy_like_density().survival_integral(-1e6, 1e3)
        assert abs(got - Cauchy().survival_integral(-1e6, 1e3)) <= 1e-9


def test_quadrature_call_sites():
    """``quad`` runs in three places: a generic density's normalization and
    ``_integral``, and the ``quad_avg_quantile`` oracle; ``cauchy_mix``
    imports nothing from scipy."""
    found, scipy_in_mixer = set(), []

    def visit(node, path, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "quad":
                found.add((path.name, owner))
        if path.name == "cauchy_mix.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else \
                [alias.name for alias in node.names]
            scipy_in_mixer.extend(m for m in modules if m.split(".")[0] == "scipy")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(Path(mixcenter.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    assert found == {("distributions.py", "GenericDensity.__init__"),
                     ("distributions.py", "GenericDensity._integral"),
                     ("distributions.py", "quad_avg_quantile")}
    assert scipy_in_mixer == []


def test_cauchy_mix_holds_no_cauchy_closed_form():
    """The standard Cauchy law is written in ``distributions`` alone:
    ``cauchy_mix`` defines no class with a ``pdf`` and names none of
    arctan, tan, pi or PI."""
    tree = ast.parse((Path(mixcenter.__file__).parent / "cauchy_mix.py").read_text())
    with_pdf = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "pdf" for f in node.body)]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update([node.name, node.asname])
    assert with_pdf == []
    assert names & {"arctan", "tan", "pi", "PI"} == set()


def test_models_define_no_sampler_or_spec_writer():
    """A draw is ``quantile(rng.random(size))`` and ``model_from_spec`` is the
    one spec reader: no class in ``distributions`` defines ``sample`` or
    ``to_spec``."""
    tree = ast.parse((Path(mixcenter.__file__).parent / "distributions.py").read_text())
    defined = [(node.name, f.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for f in node.body
               if isinstance(f, ast.FunctionDef) and f.name in ("sample", "to_spec")]
    assert defined == []


class TestReflection:
    def test_avg_quantile_identity(self):
        m = AtomUniform(0.0, 1.0, 0.3)
        r = reflect(m)
        got = avg_quantile(r, 0.2, 0.7)
        expected = -avg_quantile(m, 0.3, 0.8)
        assert_allclose(got, expected, atol=1e-14)

    def test_mean_status_flip(self):
        assert reflect(Pareto(0.5)).mean_status == "-inf"


class TestReflectedCdf:
    """P(-X <= x) = 1 - P(X < -x), at the base law's atoms and between them."""

    # AtomUniform(0, 1, 0.2) reflected: an atom of 0.2 at 0 over a uniform
    # 0.8 on [-1, 0]
    ATOM_UNIFORM = [(-2.0, 0.0), (-1.0, 0.0), (-0.5, 0.4), (-1e-300, 0.8), (0.0, 1.0),
                    (1e-300, 1.0), (0.5, 1.0)]

    def test_atom_uniform(self):
        law = Reflected(AtomUniform(0.0, 1.0, 0.2))
        for x, want in self.ATOM_UNIFORM:
            assert_allclose(law.cdf(x), want, rtol=0, atol=1e-15)
        xs, want = zip(*self.ATOM_UNIFORM)
        assert_allclose(law.cdf(np.array(xs)), want, rtol=0, atol=1e-15)
        assert reflect(AtomUniform(0.0, 1.0, 0.2)).cdf(0.0) == 1.0

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_power_two_matches_exact_sum(self, sign):
        # P(X >= -x) as an exact Fraction sum; the atoms beyond index kmax
        # lie far above -x (positive law, all of that tail) or far below
        kmax = 200
        law = PowerTwoGeometric(sign)
        for x in [1.0, 2.0, 4.0, 2.0 ** 40, -1.0, -2.0, -4.0, -2.0 ** 40, 0.0, 1.5, -1.5,
                  3.0, -3.0, 0.5, -0.5]:
            want = sum(p for v, p in law.pmf_fractions(kmax) if v >= -x)
            if sign == "positive":
                want += Fraction(1, 2 ** (kmax + 1))
            assert_allclose(Reflected(law).cdf(x), float(want), rtol=0, atol=1e-15)
        assert reflect(PowerTwoGeometric("positive")).cdf(-1.0) == 1.0


class TestReflectedSurvivalIntegral:
    """The integral of P(-X > x) = P(X < -x) over [a, b], for the laws
    without an exact ``reflected``, against 50-digit mpmath quadrature of
    P(X < -x) (continuous parts) or an exact sum over the atoms."""

    INTERVALS = [(-3.0, 5.0), (-5.0, -0.5), (0.5, 4.0), (-1e3, 10.0),
                 (-2.0 - 1e-9, -2.0 + 1e-9), (-0.3, 0.3 + 1e-9)]

    @staticmethod
    def pareto_below(shape, xm):
        return lambda u: 0 if u <= xm else 1 - (xm / u) ** shape

    @staticmethod
    def atom_uniform_below(x, y, w):
        return lambda u: 0 if u <= x else w + (1 - w) * min((u - x) / (y - x), 1)

    CONTINUOUS = {
        "pareto1.5": (Pareto(1.5, 2.0), (1.5, 2.0), [-2.0]),
        "pareto0.5": (Pareto(0.5, 1.0), (0.5, 1.0), [-1.0]),
        "atom_uniform": (AtomUniform(-1.0, 2.5, 0.3), (-1.0, 2.5, 0.3), [1.0, -2.5]),
    }

    @pytest.mark.parametrize("name", CONTINUOUS)
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_continuous_matches_high_precision(self, name, a, b):
        mp = pytest.importorskip("mpmath")
        model, params, kinks = self.CONTINUOUS[name]
        with mp.workdps(50):
            below = (self.pareto_below if name.startswith("pareto")
                     else self.atom_uniform_below)(*(mp.mpf(v) for v in params))
            pts = [mp.mpf(a)] + [mp.mpf(k) for k in sorted(kinks) if a < k < b] + [mp.mpf(b)]
            want = float(mp.quad(lambda x: below(-x), pts))
        got = Reflected(model).survival_integral(a, b)
        assert_allclose(got, want, rtol=1e-12, atol=1e-15 * (b - a))

    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_generic_density_matches_high_precision(self, a, b):
        # the Cauchy-shaped density: P(X < -x) = 1/2 - atan(x)/pi
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = float(mp.quad(lambda x: mp.mpf(1) / 2 - mp.atan(x) / mp.pi,
                                 [mp.mpf(a), mp.mpf(b)]))
        got = Reflected(cauchy_like_density()).survival_integral(a, b)
        assert_allclose(got, want, rtol=1e-15)

    @staticmethod
    def exact_below(components, a, b, kmax=200):
        """Sum of p * (clip(-v, a, b) - a) over the atoms, in Fractions.

        The atoms beyond index kmax lie far above -a (positive law,
        nothing) or far below -b (negative law, full length b - a each).
        """
        a, b = Fraction(a), Fraction(b)
        total = Fraction(0)
        for w, law in components:
            for v, p in law.pmf_fractions(kmax):
                total += w * p * (min(max(-v, a), b) - a)
            if law.sign == "negative":
                total += w * Fraction(1, 2 ** (kmax + 1)) * (b - a)
        return total

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    @pytest.mark.parametrize("a,b", INTERVALS + [(-2.0 ** 40 - 3, 1.0 - 2.0 ** 39)])
    def test_power_two_matches_exact_sum(self, sign, a, b):
        law = PowerTwoGeometric(sign, 3)
        want = self.exact_below([(1, law)], a, b)
        assert_allclose(Reflected(law).survival_integral(a, b), float(want),
                        rtol=1e-13, atol=1e-15 * (b - a))

    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_mixture_matches_exact_sum(self, a, b):
        parts = [(w, PowerTwoGeometric(sign)) for w, sign in EX01_WEIGHTS]
        want = self.exact_below(parts, a, b)
        assert_allclose(Reflected(ex01_mixture()).survival_integral(a, b), float(want),
                        rtol=1e-13, atol=1e-15 * (b - a))


class TestSerialization:
    SPECS = [
        {"kind": "cauchy"},
        {"kind": "cauchy", "scale": 2.5},
        {"kind": "uniform", "a": 0.0, "b": 1.0},
        {"kind": "finite", "atoms": [[0.0, 0.3], [1.0, 0.7]]},
        {"kind": "point", "value": 2.0},
        {"kind": "ex01_nu", "truncation_K": 12},
        {"kind": "ex01_gamma", "truncation_K": 12},
        {"kind": "atom_uniform", "atom_x": 0.0, "right_y": 1.0, "atom_weight": 0.4},
        {"kind": "pareto", "shape": 0.5},
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["kind"])
    def test_build(self, spec):
        model = model_from_spec(spec)
        assert float(model.cdf(10.0 ** 9)) == pytest.approx(1.0, abs=1e-4)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            model_from_spec({"kind": "zeta"})


class TestSamplingGoodnessOfFit:
    def test_cauchy_ks_at_1e5(self):
        # threshold is the asymptotic 99% KS quantile at 1e5 samples
        c = Cauchy()
        rng = np.random.default_rng(1)
        draws = c.quantile(rng.random(100_000))
        s = np.sort(draws)
        i = np.arange(1, s.size + 1)
        F = c.cdf(s)
        ks = max(np.abs(i / s.size - F).max(), np.abs((i - 1) / s.size - F).max())
        assert ks <= 0.006

    def test_countable_mixture_sampling(self):
        mix = ex01_mixture()
        rng = np.random.default_rng(3)
        draws = mix.quantile(rng.random(20_000))
        assert abs((draws == 1.0).mean() - 1.0 / 3) <= 0.02
