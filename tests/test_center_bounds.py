import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from mixcenter import center_bounds, distributions
from mixcenter.anchors import (
    CAUCHY_WINDOW_02_09,
    INTERVAL_N3,
    LOG2_PI,
    cauchy_like_density,
    ex01_mixture,
)
from mixcenter.cauchy_mix import ConvexCombinationSampler, ExplicitMixer, MixerConfig
from mixcenter.center_bounds import (
    JmBoundsInput,
    cauchy_avg_quantile_upper,
    cauchy_center_interval,
    cm_bounds,
    dual_bound,
    infinite_mean_classifier,
    jm_center_bounds,
    mean_inequality_holds,
)
from mixcenter.distributions import (
    AtomUniform,
    Cauchy,
    CountableMixture,
    FiniteDiscrete,
    Pareto,
    PowerTwoGeometric,
    Reflected,
    Uniform,
    avg_quantile,
    point_mass,
    quad_avg_quantile,
    reflect,
)
from mixcenter.errors import DomainError

PI = math.pi
LOG9_PI = math.log(9) / PI            # 0.6993983051321196, evaluated directly
TRIPLE_UPPER = 3 * CAUCHY_WINDOW_02_09


class TestCauchyCenterInterval:
    def test_n2_degenerate(self):
        iv = cauchy_center_interval(2)
        assert iv.lo == 0.0 and iv.hi == 0.0

    def test_n3(self):
        iv = cauchy_center_interval(3)
        assert_allclose(iv.hi, INTERVAL_N3, atol=1e-12)
        assert iv.lo == -iv.hi
        assert iv.kind == "exact_formula"

    def test_n10(self):
        assert_allclose(cauchy_center_interval(10).hi, LOG9_PI, rtol=1e-15)

    def test_contains(self):
        assert 0.1 in cauchy_center_interval(3)
        assert 0.3 not in cauchy_center_interval(3)

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_center_interval(1)


class TestClosedForm:
    def test_value_at_3_01(self):
        assert_allclose(cauchy_avg_quantile_upper(3, 0.1), CAUCHY_WINDOW_02_09, atol=1e-12)

    def test_n2_identically_zero(self):
        for a in (1e-6, 0.1, 0.3, 0.49):
            assert cauchy_avg_quantile_upper(2, a) == 0.0

    def test_alpha_to_zero_limit(self):
        assert_allclose(cauchy_avg_quantile_upper(3, 1e-9), LOG2_PI, atol=1e-7)

    def test_continuous_near_one_over_n(self):
        # the 0/0 form at a = 1/n needs no separate branch
        n = 3
        near = 1.0 / n - 5e-10
        ref = 1.0 / n - 2e-9
        a = cauchy_avg_quantile_upper(n, near)
        b = cauchy_avg_quantile_upper(n, ref)
        assert abs(a - b) < 1e-8
        assert_allclose(a, 1.0 / math.tan(PI / n), atol=1e-7)

    def test_matches_quadrature_small_grid(self):
        for n in (3, 5, 8):
            for frac in (0.05, 0.3, 0.7, 0.95):
                alpha = frac / n
                closed = cauchy_avg_quantile_upper(n, alpha)
                quadr = quad_avg_quantile(Cauchy(), (n - 1) * alpha, 1 - alpha)
                assert abs(closed - quadr) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 1000), log_frac=st.floats(-690.0, 0.0, exclude_max=True))
    # near a = 1/n at large n, where a log difference of sin(pi*lo) taken
    # apart from the rounded width 1 - n*a loses about 1e-13
    @example(n=935, log_frac=math.log(935 * 0.00106881684469127))
    def test_matches_mpmath(self, n, log_frac):
        # a log-uniform in (0, 1/n) against 50-digit mpmath, an oracle
        # independent of the closed form; error scaled by max(1, |value|)
        mp = pytest.importorskip("mpmath")
        alpha = math.exp(log_frac) / n
        assume(0.0 < alpha < 1.0 / n)
        got = cauchy_avg_quantile_upper(n, alpha)
        if n == 2:
            assert got == 0.0
            return
        with mp.workdps(50):
            a = mp.mpf(alpha)
            ref = mp.log(mp.sin(mp.pi * (n - 1) * a) / mp.sin(mp.pi * a)) / (mp.pi * (1 - n * a))
            err = abs(got - ref) / max(1, abs(ref))
        assert err <= 1e-13


class TestJmBounds:
    def test_symmetric_pair(self):
        lo, hi = jm_center_bounds(JmBoundsInput((Cauchy(), Cauchy()), (0.1, 0.1)))
        assert_allclose(lo, -hi, atol=1e-12)

    @given(law=st.sampled_from([Cauchy(), Cauchy(2.0), Uniform(-1.0, 1.0),
                                FiniteDiscrete([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])]),
           beta=st.floats(1e-6, 0.5, exclude_max=True))
    @example(law=Cauchy(), beta=0.05)
    def test_symmetric_pair_bounds_meet(self, law, beta):
        # X and -X sum to 0 and both have the law, so the outer set holds
        # 0; the lower and upper windows are the same, and so are the bounds
        lo, hi = jm_center_bounds(JmBoundsInput((law, law), (beta, beta)))
        assert lo == hi

    def test_cauchy_triple_upper(self):
        lo, hi = jm_center_bounds(JmBoundsInput((Cauchy(),) * 3, (0.1,) * 3))
        assert_allclose(hi, TRIPLE_UPPER, atol=1e-9)
        assert_allclose(lo, -TRIPLE_UPPER, atol=1e-9)

    def test_point_masses(self):
        lo, hi = jm_center_bounds(
            JmBoundsInput((point_mass(0.0),) * 3, (0.1,) * 3)
        )
        assert lo == 0.0 and hi == 0.0

    def test_ordering(self):
        lo, hi = jm_center_bounds(
            JmBoundsInput((Cauchy(), Uniform(0, 1), point_mass(1.0)), (0.05, 0.1, 0.2))
        )
        assert lo <= hi

    def test_beta_sum_guard(self):
        with pytest.raises(DomainError):
            JmBoundsInput((Cauchy(), Cauchy()), (0.6, 0.5))


class TestCmBounds:
    def test_cauchy_n3_hits_exact_endpoint(self):
        res = cm_bounds(Cauchy(), 3)
        assert abs(res.b_star - LOG2_PI) <= 1e-4
        assert abs(res.a_star + res.b_star) <= 1e-10

    def test_bounds_are_plain_floats(self):
        # a grid winner and a refined point alike, so reprs never spell numpy
        res = cm_bounds(Cauchy(), 3)
        for value in (res.a_star, res.b_star, res.alpha_at_a, res.alpha_at_b):
            assert type(value) is float

    def test_uniform_collapses_to_mean(self):
        res = cm_bounds(Uniform(0, 1), 4)
        assert_allclose(res.a_star, 0.5, atol=1e-5)
        assert_allclose(res.b_star, 0.5, atol=1e-5)

    def test_power_mixture_bracket(self):
        res = cm_bounds(ex01_mixture(), 3)
        assert res.a_star >= -1e-6
        assert res.b_star <= 2.0 / 3 + 1e-6
        # the two known centers of this law must sit inside the bracket
        assert res.a_star <= 0.0 + 1e-6 and 1.0 / 3 <= res.b_star + 1e-6

    def test_infinite_mean_sentinel(self):
        res = cm_bounds(Pareto(0.5), 3)
        assert res.a_star == math.inf
        assert math.isfinite(res.b_star)

    def test_one_sided_mixture_sentinel(self):
        pos = cm_bounds(CountableMixture([(1, PowerTwoGeometric("positive"))]), 3)
        neg = cm_bounds(CountableMixture([(1, PowerTwoGeometric("negative"))]), 3)
        assert pos.a_star == math.inf and math.isfinite(pos.b_star)
        assert neg.b_star == -math.inf and math.isfinite(neg.a_star)

    def test_bracket_consistency_n3_to_10(self):
        for n in range(3, 11):
            res = cm_bounds(Cauchy(), n)
            exact = math.log(n - 1) / PI
            assert abs(res.b_star - exact) <= 1e-4, f"n={n}"

    @pytest.mark.parametrize("n", [3, 10])
    def test_cauchy_closed_form_matches_quadrature_path(self, monkeypatch, n):
        closed = cm_bounds(Cauchy(), n)
        monkeypatch.setattr(center_bounds, "avg_quantile", quad_avg_quantile)
        quadr = cm_bounds(Cauchy(), n)
        assert abs(closed.a_star - quadr.a_star) <= 1e-10
        assert abs(closed.b_star - quadr.b_star) <= 1e-10

    def test_reflection_swaps_and_negates(self):
        model = AtomUniform(0.0, 1.0, 0.2)
        res = cm_bounds(model, 3)
        res_r = cm_bounds(reflect(model), 3)
        assert_allclose(res_r.a_star, -res.b_star, atol=1e-10)
        assert_allclose(res_r.b_star, -res.a_star, atol=1e-10)


class TestMeanInequality:
    def test_boundary(self):
        assert mean_inequality_holds(1.0 / 3, 0.0, 1.0, 0.5, 3)

    def test_above_boundary(self):
        assert not mean_inequality_holds(0.4, 0.0, 1.0, 0.5, 3)

    def test_zero_atom(self):
        assert mean_inequality_holds(0.0, 0.0, 1.0, 0.5, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_inequality_holds(0.2, 0.0, 1.0, 0.0, 3)  # q <= x

    def test_alpha_limit_identity(self):
        # (1/a) * (c - (1 - n a) R_[(n-1)a, 1-a]) -> y + (n-1)x as a -> 0,
        # computed from the exact window averages of bounded-support laws
        n = 3
        saw_failing_case = False
        for model, x, y in [
            (Uniform(0.0, 1.0), 0.0, 1.0),
            (AtomUniform(0.0, 1.0, 0.25), 0.0, 1.0),
            (AtomUniform(0.0, 1.0, 0.4), 0.0, 1.0),  # atom too heavy to mix
        ]:
            c = model.mean
            a = 1e-7
            r = avg_quantile(model, (n - 1) * a, 1 - a)
            limit = (c - (1 - n * a) * r) / a
            assert abs(limit - (y + (n - 1) * x)) <= 1e-5
            # the mean inequality agrees with the sign of (nc - limit)
            holds_via_limit = y + (n - 1) * x <= n * c + 1e-9
            if isinstance(model, AtomUniform):
                direct = mean_inequality_holds(
                    model.atom_weight, x, y, 0.5 * (x + y), n
                )
                assert direct == holds_via_limit
                saw_failing_case = saw_failing_case or not direct
        assert saw_failing_case


class TestDualBound:
    def test_inside_interval_at_least_one(self):
        res = dual_bound(Cauchy(), 3, 0.15)
        assert res.value >= 1.0 - 1e-6

    def test_center_zero(self):
        assert dual_bound(Cauchy(), 3, 0.0).value >= 1.0 - 1e-9

    def test_point_mass_pair_excluded(self):
        res = dual_bound(point_mass(0.0), 2, 0.5)
        assert res.value < 1.0

    def test_grid_resolution_reported(self):
        res = dual_bound(Cauchy(), 3, 0.1)
        assert res.grid_resolution > 0
        assert res.grid_size == 256

    def test_power_two_mixture_centers_not_excluded(self):
        # (2 nu + gamma)/3 has the 3-centers 0 and 1/3 (the zero/one
        # couplings), so the bound there cannot drop below 1
        mix = ex01_mixture()
        for c in (0.0, 1.0 / 3):
            assert dual_bound(mix, 3, c).value >= 1.0 - 1e-9
        assert dual_bound(mix, 3, 5.0).value < 1.0

    def test_duality_consistency_n10(self):
        hi = math.log(9) / PI - 1e-6
        for c in np.linspace(-hi, hi, 21):
            assert dual_bound(Cauchy(), 10, float(c)).value >= 1 - 1e-6

    @pytest.mark.parametrize("c", [0.4, 0.4 - 5e-8])
    def test_atom_uniform_center_not_excluded(self, c):
        # 0.4 is the mean of AtomUniform(0, 1, 0.2), and its atom passes the
        # mean inequality at n = 3 (0.2 <= 1 - 1/(3*0.5) = 1/3), so 0.4 is a
        # 3-center; a quadrature of 1 - F missed the survival integral at the
        # atom's kink by about 5e-8 and pushed the bound below 1 here
        model = AtomUniform(0.0, 1.0, 0.2)
        assert mean_inequality_holds(model.atom_weight, 0.0, 1.0, 0.5, 3)
        assert dual_bound(model, 3, c).value >= 1.0


class TestNoQuadrature:
    """Every built-in model certifies by closed forms alone."""

    MODELS = {
        "cauchy": Cauchy(),
        "uniform": Uniform(-1.0, 2.0),
        "finite": FiniteDiscrete([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)]),
        "pareto0.5": Pareto(0.5),
        "pareto1": Pareto(1.0),
        "pareto1.5": Pareto(1.5),
        "atom_uniform": AtomUniform(0.0, 1.0, 0.2),
        "nu": PowerTwoGeometric("positive"),
        "gamma": PowerTwoGeometric("negative"),
        "mixture": ex01_mixture(),
    }

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_bounds_never_call_quad(self, monkeypatch, model):
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad was called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        n = 3
        res = cm_bounds(model, n)
        a, b = res.a_star, res.b_star
        a = a if math.isfinite(a) else b - 1.0
        b = b if math.isfinite(b) else a + 1.0
        for c in (a + 0.75 * (b - a), b + 0.5 * max(b - a, 1.0)):
            assert math.isfinite(dual_bound(model, n, c).value)
        lower, upper = jm_center_bounds(JmBoundsInput((model,) * n, (0.1 / n,) * n))
        assert lower <= upper


class TestReflectedDualBound:
    """The dual bound of the law of -X, which reads ``Reflected``'s
    survival integral for every model without its own ``reflected``."""

    @pytest.mark.parametrize("model", TestNoQuadrature.MODELS.values(),
                             ids=TestNoQuadrature.MODELS.keys())
    @pytest.mark.parametrize("c", [-0.5, 0.5])
    def test_finite_for_every_builtin_model(self, model, c):
        assert math.isfinite(dual_bound(reflect(model), 3, c).value)

    def test_symmetric_generic_density_matches_itself(self):
        # -X has the law of X, so the reflected bound is the bound itself
        g = cauchy_like_density()
        assert isinstance(reflect(g), Reflected)
        assert_allclose(dual_bound(reflect(g), 3, 0.5).value, dual_bound(g, 3, 0.5).value,
                        rtol=1e-7)


class TestGenericDensityBounds:
    """The Cauchy-shaped generic density certifies as ``Cauchy`` does,
    through its own window average and survival integral, and never through
    the quantile-quadrature oracle."""

    @pytest.mark.parametrize("n", [3, 10])
    def test_cm_bounds_match_cauchy(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("quad_avg_quantile was called")

        monkeypatch.setattr(distributions, "quad_avg_quantile", refuse)
        got, want = cm_bounds(cauchy_like_density(), n), cm_bounds(Cauchy(), n)
        assert abs(got.a_star - want.a_star) <= 1e-9
        assert abs(got.b_star - want.b_star) <= 1e-9

    # one center inside the n = 3 interval (log 2/pi = 0.2206) and one outside
    @pytest.mark.parametrize("c", [0.15, 0.5])
    def test_dual_bound_matches_cauchy(self, c):
        got = dual_bound(cauchy_like_density(), 3, c).value
        assert abs(got - dual_bound(Cauchy(), 3, c).value) <= 1e-12


class TestInfiniteMeanClassifier:
    def test_pareto_excluded(self):
        verdict = infinite_mean_classifier([Pareto(0.5), point_mass(0), point_mass(0)])
        assert verdict == "excluded"

    def test_cauchy_inconclusive(self):
        assert infinite_mean_classifier([Cauchy()] * 3) == "inconclusive"

    def test_uniform_inconclusive(self):
        assert infinite_mean_classifier([Uniform(0, 1)] * 3) == "inconclusive"

    def test_mixed_signs_inconclusive(self):
        # +inf and -inf tails can cancel into a joint mix
        marg = [PowerTwoGeometric("positive")] * 2 + [PowerTwoGeometric("negative")]
        assert infinite_mean_classifier(marg) == "inconclusive"

    def test_negative_side_excluded(self):
        marg = [PowerTwoGeometric("negative"), point_mass(0.0)]
        assert infinite_mean_classifier(marg) == "excluded"

    def test_one_sided_mixture_excluded(self):
        mix = CountableMixture([(1, PowerTwoGeometric("positive"))])
        assert infinite_mean_classifier([mix, point_mass(0.0), point_mass(0.0)]) == "excluded"
        assert infinite_mean_classifier([ex01_mixture()] * 3) == "inconclusive"


def _convex(n_b, alpha):
    return ConvexCombinationSampler(ExplicitMixer(MixerConfig(3, 0.0)),
                                    ExplicitMixer(MixerConfig(n_b, 0.0)), alpha)


@pytest.mark.parametrize("call, message", [
    (lambda: cauchy_avg_quantile_upper(1, 0.1), "need n >= 2"),
    (lambda: cauchy_avg_quantile_upper(3, 0.0), r"need 0 < alpha < 1/n"),
    (lambda: cauchy_avg_quantile_upper(3, 1 / 3), r"need 0 < alpha < 1/n"),
    (lambda: JmBoundsInput((Cauchy(),), (0.1,)), "need at least two marginals"),
    (lambda: JmBoundsInput((Cauchy(), Cauchy()), (0.1,)), "need one beta per marginal"),
    (lambda: JmBoundsInput((Cauchy(), Cauchy()), (0.1, 0.0)), r"each beta must lie in \(0, 1\)"),
    (lambda: cm_bounds(Cauchy(), 1), "need n >= 2"),
    (lambda: mean_inequality_holds(0.2, 1.0, 1.0, 1.0, 3), "need x < y"),
    (lambda: mean_inequality_holds(1.5, 0.0, 1.0, 0.5, 3), r"alpha must lie in \[0, 1\]"),
    (lambda: mean_inequality_holds(0.2, 0.0, 1.0, 0.5, 1), "need n >= 2"),
    (lambda: _convex(3, 1.5), r"alpha must lie in \[0, 1\]"),
    (lambda: _convex(4, 0.5), "mixers must share n"),
], ids=["avg-upper-n", "avg-upper-alpha-0", "avg-upper-alpha-1/n", "jm-one-marginal",
        "jm-beta-count", "jm-beta-range", "cm-n", "mean-ineq-x-y", "mean-ineq-alpha",
        "mean-ineq-n", "convex-alpha", "convex-n"])
def test_domain_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()
