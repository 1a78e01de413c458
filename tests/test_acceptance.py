"""Acceptance suite: ten end-to-end criteria at pinned tolerances.

Each test prints one [PASS]/[FAIL] line with the measured quantities and
its wall-clock. Criteria 1, 3, 6, 7 and 10 run the matching group of
``mixcenter.anchors``, whose frozen values were computed with the
independent oracles in this repository (quadrature, exhaustive
enumeration).
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mixcenter import anchors
from mixcenter.cauchy_mix import MixerConfig, build_mixer
from mixcenter.center_bounds import cauchy_avg_quantile_upper, cm_bounds, dual_bound
from mixcenter.discrete_mix import feasible_center
from mixcenter.distributions import Cauchy, FiniteDiscrete, Uniform, quad_avg_quantile
from mixcenter.rearrangement import discretize, ra_flatten
from mixcenter.seeding import substream
from mixcenter.verify import ks_distance

PI = math.pi


def report(name, ok, runtime, limit, detail):
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"({runtime:.2f}s, limit {limit:.0f}s)")
    print(line)
    assert ok, line
    assert runtime < limit, f"{name} exceeded its runtime budget: {runtime:.2f}s"


def run_group(group, seed=0):
    """Checks of one anchors group, their wall-clock, and what each measured."""
    t0 = time.perf_counter()
    checks = group(seed)
    runtime = time.perf_counter() - t0
    measured = "; ".join(f"{c['name']} = {c['measured']}{'' if c['passed'] else ' [FAIL]'}"
                         for c in checks)
    return all(c["passed"] for c in checks), runtime, f"anchors.{group.__name__}: {measured}"


def test_criterion_01_exact_interval():
    ok, runtime, detail = run_group(anchors.interval)
    report("criterion 1: exact interval", ok and runtime < 1e-3, runtime, 1, detail)


def test_criterion_02_bound_convergence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 10):
        res = cm_bounds(Cauchy(), n)
        worst = max(worst, abs(res.b_star - math.log(n - 1) / PI))
    runtime = time.perf_counter() - t0
    report("criterion 2: bound convergence", worst <= 1e-4 and runtime < 5,
           runtime, 5, f"max |b* - log(n-1)/pi| = {worst:.2e} over n in {{3,5,10}}")


def test_criterion_03_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 22):
        for i in range(1, 21):
            alpha = i / 21.0 / n
            closed = cauchy_avg_quantile_upper(n, alpha)
            quadr = quad_avg_quantile(Cauchy(), (n - 1) * alpha, 1.0 - alpha)
            worst = max(worst, abs(closed - quadr))
    anchor_ok, _, detail = run_group(anchors.closed_form)
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-8 and anchor_ok
    report("criterion 3: closed form vs quadrature", ok and runtime < 10,
           runtime, 10, f"max gap {worst:.2e} on the 20x20 grid, {detail}")


def test_criterion_04_duality_consistency():
    t0 = time.perf_counter()
    worst = 2.0
    for n in (3, 5):
        hi = math.log(n - 1) / PI - 1e-6
        for c in np.linspace(-hi, hi, 21):
            worst = min(worst, dual_bound(Cauchy(), n, float(c)).value)
    runtime = time.perf_counter() - t0
    report("criterion 4: duality consistency", worst >= 1 - 1e-6 and runtime < 30,
           runtime, 30, f"min dual bound inside the interval = {worst:.9f}")


@pytest.mark.parametrize("c", [0.0, 0.1, 0.15, anchors.LOG2_PI],
                         ids=["c0", "c0.1", "c0.15", "cmax"])
def test_criterion_05_mixer_end_to_end(c):
    t0 = time.perf_counter()
    n, count = 3, 100_000
    mixer = build_mixer(MixerConfig(n=n, c=c, seed=7))
    batch = mixer.sample(count, substream(7, "acceptance", f"c={c}"))
    cdf = Cauchy().cdf
    worst_ks = max(ks_distance(batch.values[:, j], cdf) for j in range(n))
    sums = batch.row_sums()
    mean_err = abs(sums.mean() - n * c)
    dev = np.abs(sums - n * c)
    within = bool(np.all(dev <= batch.row_bound))
    cyc = batch.branch == 1
    cyc_exact = bool(np.all(dev[cyc] <= batch.row_bound[cyc])) if cyc.any() else True
    runtime = time.perf_counter() - t0
    ok = worst_ks <= 0.02 and mean_err <= 1e-3 and within and cyc_exact
    report(f"criterion 5: mixer end-to-end (c={c:.4f})", ok and runtime < 120,
           runtime, 120,
           f"max KS {worst_ks:.4f}, |mean - 3c| {mean_err:.2e}, "
           f"rows within bounds {within}")


def test_criterion_06_invariant_suite():
    ok, runtime, detail = run_group(anchors.mixer, seed=7)
    report("criterion 6: invariant suite", ok and runtime < 30, runtime, 30, detail)


def test_criterion_07_zero_one_couplings():
    ok, runtime, detail = run_group(anchors.zero_one)
    report("criterion 7: zero/one couplings", ok and runtime < 1, runtime, 1, detail)


def _brute_force_pair(m1, m2, center, tol=1e-9):
    p = {float(v): Fraction(pr) for v, pr in zip(m1.values, m1.probs)}
    q = {float(v): Fraction(pr) for v, pr in zip(m2.values, m2.probs)}
    neighbors = {a: {b for b in q if abs(a + b - center) <= tol} for a in p}
    for r in range(1, len(p) + 1):
        for subset in itertools.combinations(p, r):
            mass = sum(p[a] for a in subset)
            reach = set().union(*(neighbors[a] for a in subset))
            if mass > sum(q[b] for b in reach):
                return False
    return True


def _dyadic_partition(rng, k, total=16):
    cuts = sorted(rng.choice(np.arange(1, total), size=k - 1, replace=False))
    return [p / total for p in np.diff([0, *cuts, total])]


def test_criterion_08_lp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    agreements = 0
    for _ in range(50):
        k1, k2 = rng.integers(2, 5, size=2)
        v1 = sorted(rng.choice(np.arange(-4, 5), size=k1, replace=False))
        v2 = sorted(rng.choice(np.arange(-4, 5), size=k2, replace=False))
        m1 = FiniteDiscrete([(float(v), w) for v, w in zip(v1, _dyadic_partition(rng, k1))])
        m2 = FiniteDiscrete([(float(v), w) for v, w in zip(v2, _dyadic_partition(rng, k2))])
        center = float(rng.choice(v1)) + float(rng.choice(v2))
        got = feasible_center([m1, m2], center).feasible
        want = _brute_force_pair(m1, m2, center)
        assert got == want, f"disagreement at {center} for {v1}/{v2}"
        agreements += 1

    bern = FiniteDiscrete([(0.0, 0.7), (1.0, 0.3)])
    bern_ok = all(
        not feasible_center([bern, bern], float(c)).feasible for c in (0, 1, 2)
    )
    third = FiniteDiscrete([(0.0, 1 / 3), (1.0, 2 / 3)])
    forced = feasible_center([third] * 3, 2.0)
    forced_ok = forced.feasible
    forced.coupling.validate(marginals=[third] * 3, center=2.0)
    runtime = time.perf_counter() - t0
    ok = agreements == 50 and bern_ok and forced_ok
    report("criterion 8: LP oracle", ok and runtime < 30, runtime, 30,
           f"{agreements}/50 brute-force agreements, Bernoulli pair excluded "
           f"{bern_ok}, forced center certified {forced_ok}")


def test_criterion_09_ra_behavior():
    t0 = time.perf_counter()
    spreads = {}
    for m in (64, 256, 1024):
        col = discretize(Uniform(0, 1), m)
        res = ra_flatten(np.column_stack([col] * 3), rng=np.random.default_rng(0))
        spreads[m] = res.spread
    runtime = time.perf_counter() - t0
    ok = spreads[256] <= 0.05 and spreads[1024] < spreads[256] < spreads[64]
    report("criterion 9: RA behavior", ok and runtime < 10, runtime, 10,
           f"spreads {spreads[64]:.4f} > {spreads[256]:.4f} > {spreads[1024]:.4f}")


def test_criterion_10_generic_density_checks():
    ok, runtime, detail = run_group(anchors.generic_density)
    report("criterion 10: generic density checks", ok and runtime < 1, runtime, 1, detail)
