"""The paper's anchored numbers, each written once, and their replay.

The constants and fixtures are the values and laws the paper's results pin
down; the tests import them instead of restating them. Each group function
``group(seed)`` reruns one family of anchored results and returns its
checks as ``{"name", "passed", "measured", "expected"}`` dicts, with
``measured`` and ``expected`` the ``str`` of the values compared.
``replay(seed)`` runs ``GROUPS`` in order; ``mixcenter repro`` prints and
writes what it returns.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import center_bounds, discrete_mix
from .cauchy_mix import ConvexCombinationSampler, MixerConfig, build_mixer
from .distributions import (
    Cauchy,
    CountableMixture,
    GenericDensity,
    Pareto,
    PowerTwoGeometric,
    generic_admissibility,
    point_mass,
    quad_avg_quantile,
)
from .errors import DomainError
from .seeding import substream
from .verify import run_invariant_suite

LOG2_PI = math.log(2) / math.pi           # right end of the n = 3 Cauchy center interval
INTERVAL_N3 = 0.2206356001526516          # the same end, frozen as a decimal
CAUCHY_WINDOW_02_09 = 0.2923746290202891  # Cauchy quantile averaged over [0.2, 0.9], by quadrature

# (2 nu + gamma) / 3, the symmetrized marginal of the zero/one couplings
EX01_WEIGHTS = ((Fraction(2, 3), "positive"), (Fraction(1, 3), "negative"))


def cauchy_like_density():
    """The Cauchy density written unnormalized, as 1 / (2 (1 + x^2))."""
    return GenericDensity(lambda x: 0.5 / (1.0 + x * x))


def power_three_halves_density():
    """Density proportional to 1 / (1 + |x|^1.5), which fails admissibility at n = 3."""
    return GenericDensity(lambda x: 1.0 / (1.0 + abs(x) ** 1.5))


def ex01_mixture():
    """(2 nu + gamma) / 3 as a model, with nu and gamma at their default truncation."""
    return CountableMixture([(w, PowerTwoGeometric(sign)) for w, sign in EX01_WEIGHTS])


def ex01_symmetrized_marginal(K):
    """The exact pmf ``{value: Fraction}`` of (2 nu + gamma) / 3 at truncation K."""
    return dict(ex01_mixture().pmf_fractions(K))


def _check(name, ok, measured, expected):
    return {"name": name, "passed": bool(ok), "measured": str(measured),
            "expected": str(expected)}


def interval(seed):
    """The exact Cauchy center interval |c| <= log(n-1)/pi."""
    ivs = {n: center_bounds.cauchy_center_interval(n) for n in range(2, 13)}
    exact = all(iv.hi == math.log(n - 1) / math.pi and iv.lo == -iv.hi
                for n, iv in ivs.items())
    return [
        _check("interval_n2_degenerate", ivs[2].lo == 0.0 == ivs[2].hi,
               (ivs[2].lo, ivs[2].hi), (0, 0)),
        _check("interval_n3", abs(ivs[3].hi - INTERVAL_N3) < 1e-12, ivs[3].hi, INTERVAL_N3),
        _check("interval_formula_n2_12", exact, "log(n-1)/pi", "log(n-1)/pi"),
    ]


def closed_form(seed):
    """The closed-form Cauchy window average: its alpha -> 0 limit and quadrature."""
    lim = center_bounds.cauchy_avg_quantile_upper(3, 1e-9)
    cf = center_bounds.cauchy_avg_quantile_upper(3, 0.1)
    qd = quad_avg_quantile(Cauchy(), 0.2, 0.9)
    return [
        _check("closed_form_alpha_to_zero", abs(lim - LOG2_PI) < 1e-6, lim, LOG2_PI),
        _check("closed_form_vs_quadrature_3_0.1",
               abs(cf - qd) < 1e-8 and abs(cf - CAUCHY_WINDOW_02_09) < 1e-9,
               cf, CAUCHY_WINDOW_02_09),
    ]


def zero_one(seed):
    """The equal-marginal couplings with centers 0 and 1."""
    mix_x, mix_y = discrete_mix.zero_one_couplings(20)
    sums = (sorted(set(mix_x.row_sums())), sorted(set(mix_y.row_sums())))
    x0, y0 = mix_x.marginal(0), mix_y.marginal(0)
    half = Fraction(1, 2)
    px1, py1 = x0[1], y0[1] + mix_y.residual / 2
    atoms_ok = all(x0[2 ** k] == y0[2 ** k] == Fraction(1, 2 ** (k + 1)) for k in range(1, 21))
    sym = discrete_mix.exchangeable_permute(mix_x)
    expected = ex01_symmetrized_marginal(20)
    return [
        _check("ex01_sums_zero_one", sums == ([0], [1]), sums, ([0], [1])),
        _check("ex01_atom_one_mass", px1 == half and py1 == half, (px1, py1), (half, half)),
        _check("ex01_power_atoms_agree", atoms_ok, "2^-(k+1)", "2^-(k+1)"),
        _check("ex01_symmetrized_mixture", all(sym.marginal(i) == expected for i in range(3)),
               "(2nu+gamma)/3", "(2nu+gamma)/3"),
    ]


def window_bounds(seed):
    """Joint- and complete-mix window-average bounds."""
    lo, hi = center_bounds.jm_center_bounds(
        center_bounds.JmBoundsInput((Cauchy(), Cauchy()), (0.1, 0.1)))
    _, hi3 = center_bounds.jm_center_bounds(
        center_bounds.JmBoundsInput((Cauchy(),) * 3, (0.1, 0.1, 0.1)))
    triple = 3 * quad_avg_quantile(Cauchy(), 0.2, 0.9)
    cm = center_bounds.cm_bounds(Cauchy(), 3)
    cmx = center_bounds.cm_bounds(ex01_mixture(), 3)
    return [
        _check("jm_bounds_symmetric_pair", abs(lo + hi) < 1e-12, (lo, hi), "lo == -hi"),
        _check("jm_bounds_triple_upper", abs(hi3 - triple) < 1e-10, hi3, triple),
        _check("cm_bounds_cauchy_n3",
               abs(cm.b_star - LOG2_PI) < 1e-4 and abs(cm.a_star + cm.b_star) < 1e-10,
               (cm.a_star, cm.b_star), "+-log(2)/pi"),
        _check("cm_bounds_power_mixture", cmx.a_star >= -1e-6 and cmx.b_star <= 2.0 / 3 + 1e-6,
               (cmx.a_star, cmx.b_star), "[0, 2/3]"),
    ]


def exclusions(seed):
    """Certificates that a value is not a center: the mean inequality, infinite
    means and the dual bound."""
    boundary = (center_bounds.mean_inequality_holds(1.0 / 3, 0, 1, 0.5, 3)
                and not center_bounds.mean_inequality_holds(0.4, 0, 1, 0.5, 3))
    verdicts = (
        center_bounds.infinite_mean_classifier([Pareto(0.5), point_mass(0), point_mass(0)]),
        center_bounds.infinite_mean_classifier([Cauchy()] * 3),
    )
    dual_in = center_bounds.dual_bound(Cauchy(), 3, 0.15).value
    dual_pt = center_bounds.dual_bound(point_mass(0.0), 2, 0.5).value
    return [
        _check("mean_inequality_boundary", boundary, "boundary alpha 1/3", "True/False"),
        _check("infinite_mean_classifier", verdicts == ("excluded", "inconclusive"),
               verdicts, ("excluded", "inconclusive")),
        _check("dual_bound_inside_vs_point", dual_in >= 1 - 1e-6 and dual_pt < 1,
               (dual_in, dual_pt), (">=1-1e-6", "<1")),
    ]


def mixer(seed):
    """The constructive Cauchy mixer at n = 3, c = 0.15, and its domain."""
    cfg = MixerConfig(n=3, c=0.15, seed=seed)
    mx = build_mixer(cfg)
    t_probe = 2.0
    at_cap = mx.imbalance(t_probe, mx.kernel.pdf(cfg.c + t_probe))
    far = mx.imbalance(1e8, 0.0)
    suite_ok = all(r.passed for r in run_invariant_suite(mx))
    try:
        build_mixer(MixerConfig(n=3, c=0.3))
        outside = "accepted"
    except DomainError:
        outside = "DomainError"
    return [
        _check("imbalance_at_density_cap", at_cap < 0, at_cap, "< 0"),
        _check("imbalance_far_window", abs(far - (LOG2_PI - 0.15)) < 1e-6, far, LOG2_PI - 0.15),
        _check("mixer_invariant_suite", suite_ok, suite_ok, True),
        _check("center_outside_interval_rejected", outside == "DomainError", outside,
               "DomainError"),
    ]


def convex_combination(seed):
    """Mixers at the two interval ends, combined half and half, center 0."""
    mix_hi = build_mixer(MixerConfig(n=3, c=LOG2_PI, t_grid=1024, seed=seed))
    mix_lo = build_mixer(MixerConfig(n=3, c=-LOG2_PI, t_grid=1024, seed=seed))
    combo = ConvexCombinationSampler(mix_hi, mix_lo, 0.5)
    batch = combo.sample(2000, substream(seed, "repro", "combo"))
    dev = abs(float(batch.row_sums().mean()))
    return [_check("convex_combination_center_zero", dev < 1e-9, dev, "0 within 1e-9")]


def generic_density(seed):
    """Generic-density admissibility: the Cauchy shape passes, the 1.5 power fails."""
    adm = generic_admissibility(cauchy_like_density(), 3)
    power_ok = generic_admissibility(power_three_halves_density(), 3).ok
    return [
        _check("generic_density_cauchy_admissible",
               adm.ok and abs(adm.q_max - LOG2_PI) < 1e-6, (adm.ok, adm.q_max), (True, LOG2_PI)),
        _check("generic_density_power_rejected", not power_ok, power_ok, False),
    ]


def symmetric(seed):
    """The exact symmetric construction at c = 0: every row sums to 0 within its bound."""
    batch = build_mixer(MixerConfig(n=3, c=0.0, seed=seed)).sample(
        2000, substream(seed, "repro", "symmetric"))
    sdev = float(np.abs(batch.row_sums()).max())
    return [_check("symmetric_center_zero_rows", sdev <= float(batch.row_bound.max()),
                   sdev, "machine precision")]


GROUPS = (interval, closed_form, zero_one, window_bounds, exclusions, mixer,
          convex_combination, generic_density, symmetric)


def replay(seed):
    """Every group's checks, in ``GROUPS`` order."""
    return [check for group in GROUPS for check in group(seed)]
