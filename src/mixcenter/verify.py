"""Statistical and numerical verification harness.

Goodness of fit uses the one-sample Kolmogorov-Smirnov statistic (no
binning choices, distribution-free thresholds, robust under heavy tails);
statistical thresholds are quoted at the 99% asymptotic level for the
declared sample size. The invariant suites walk every structural property
of a built mixer or a coupling and return a list of check rows
(``InvariantResult``), the rows ``mixcenter verify`` writes under
``checks``; a failure is a row with ``passed=False``, never an exception.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cauchy_mix
from ._halves import two_halves
from .cauchy_mix import ROOT_TOL, ConstructiveMixer, ExplicitMixer, ReflectedMixer, SymmetricMixer
from .discrete_mix import Coupling
from .distributions import AtomUniform
from .rearrangement import discretize

KS_99 = 1.628  # asymptotic 99% quantile of the Kolmogorov statistic
Z_99 = 2.5758  # two-sided 99% quantile of the standard normal
# largest u-error of an explicit mixer's inverse tables
U_ERROR_TOL = 1e-6


def ks_distance(samples, cdf) -> float:
    """One-sample KS statistic sup |empirical - cdf| over the sample.

    Samples already in non-decreasing order (as ``mixcenter verify`` passes
    its columns) are not sorted again; anything else, NaN included, is.
    """
    s = np.asarray(samples, dtype=float)
    if not np.all(s[1:] >= s[:-1]):
        s = np.sort(s)
    if s.size == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, s.size + 1)
    upper = np.abs(i / s.size - f).max()
    lower = np.abs((i - 1) / s.size - f).max()
    return float(max(upper, lower))


def ks_threshold(count: int) -> float:
    """Asymptotic 99% KS critical value for ``count`` samples."""
    return KS_99 / math.sqrt(count)


def ks_two_sample(a, b) -> float:
    """Two-sample KS statistic sup |F_a - F_b| over the pooled sample.

    A stable merge of the two sorted samples counts how many values of each
    lie at or below every pooled value; the cdfs are compared at the last
    value of each run of ties. ``max_pairwise_ks`` compares many samples,
    each sorted once.
    """
    a = np.sort(np.asarray(a, dtype=float), kind="stable")
    b = np.sort(np.asarray(b, dtype=float), kind="stable")
    return _ks_sorted(a, b)


def max_pairwise_ks(rows) -> float:
    """The largest ``ks_two_sample`` over all pairs of rows of ``rows``, a
    2-d float array whose rows are each sorted ascending (0.0 for fewer
    than two rows), its pairs compared through ``two_halves``."""
    k = len(rows)
    pairs = [(rows[i], rows[j]) for i in range(k) for j in range(i + 1, k)]
    return max(two_halves(_max_ks, pairs))


def _max_ks(pairs) -> float:
    return max([0.0, *(_ks_sorted(a, b) for a, b in pairs)])


def _ks_sorted(a, b) -> float:
    """``ks_two_sample`` of two sorted 1-d float arrays, which it does not
    copy or re-sort: the stable argsort of the pooled pair merges its two
    runs in linear time. Each temporary is dropped once used, so two calls
    at once hold about three pooled-size arrays each."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    del pooled
    # the last value of each run of ties in the merge
    last = np.empty(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    del merged
    from_a = np.cumsum(order < a.size)
    del order
    ends = np.flatnonzero(last)
    del last
    from_a = from_a[ends]
    # values of b at or below each run end: its pooled count less from_a
    ends += 1
    ends -= from_a
    gap = from_a / a.size
    del from_a
    gap -= ends / b.size
    return float(np.abs(gap, out=gap).max())


@dataclass
class SumStats:
    mean_dev: float
    max_abs_dev: float
    per_branch: dict = field(default_factory=dict)


def sum_stats(values, target: float, branch=None) -> SumStats:
    """Row-sum deviations from the target, optionally split by branch."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one row")
    devs = values.sum(axis=1) - target
    per_branch = {}
    if branch is not None:
        branch = np.asarray(branch)
        for lab in np.unique(branch):
            sel = devs[branch == lab]
            per_branch[int(lab)] = {
                "count": int(sel.size),
                "mean_dev": float(sel.mean()),
                "max_abs_dev": float(np.abs(sel).max()),
            }
    return SumStats(
        mean_dev=float(devs.mean()),
        max_abs_dev=float(np.abs(devs).max()),
        per_branch=per_branch,
    )


@dataclass
class InvariantResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "measured": float(self.measured), "threshold": float(self.threshold)}


MIXER_INVARIANTS = (
    "clip_level_monotone",
    "clip_level_bounds",
    "root_residual",
    "zero_level_nonnegative",
    "edge_balance_single_sign_change",
    "mixing_mass",
    "slice_mean",
    "slice_weight_inequality",
    "measure_reconstruction",
    "coupling_cells_valid",
)

SYMMETRIC_MIXER_INVARIANTS = (
    "radius_mass",
    "block_rows_exact",
)

EXPLICIT_MIXER_INVARIANTS = (
    "inverse_u_error",
    "explicit_rows_exact",
)

# the rows of ``discrete_mix.Coupling.invariants``, in order
COUPLING_INVARIANTS = (
    "weights_nonnegative",
    "weights_total",
    "sums_constant",
    "marginals_match",
)


def _sign_changes(values, tol=1e-14):
    signs = [1 if v > tol else (-1 if v < -tol else 0) for v in values]
    signs = [s for s in signs if s != 0]
    changes = sum(1 for a, b2 in zip(signs[:-1], signs[1:]) if a != b2)
    wrong_direction = any(
        a < 0 < b2 for a, b2 in zip(signs[:-1], signs[1:])
    )
    return changes, wrong_direction


def _constructive_suite(mixer: ConstructiveMixer) -> list:
    res = []
    knots, levels = mixer.knots, mixer.levels

    inc = float(np.max(np.diff(levels))) if len(levels) > 1 else 0.0
    res.append(InvariantResult("clip_level_monotone", inc <= 1e-12, inc, 1e-12))

    caps = mixer.kernel.pdf(mixer.c + knots)
    over = float(np.max(levels - caps))
    under = float(np.min(levels))
    worst = max(over, -under)
    res.append(InvariantResult("clip_level_bounds", over <= 1e-15 and under >= 0.0,
                               worst, 1e-15))

    resid = float(np.max(np.abs(mixer.imbalance(knots, levels))))
    res.append(InvariantResult("root_residual", resid <= ROOT_TOL, resid, ROOT_TOL))

    a0 = float(np.min(mixer.imbalance(knots, 0.0)))
    res.append(InvariantResult("zero_level_nonnegative", a0 >= -1e-10, a0, -1e-10))

    changes, wrong = _sign_changes(mixer.edge_density_balance(knots))
    res.append(InvariantResult(
        "edge_balance_single_sign_change",
        changes <= 1 and not wrong,
        float(changes),
        1.0,
    ))

    mass_err = abs(mixer.raw_mass - 1.0)
    mass_tol = cauchy_mix.TAIL_EPS + 1e-6
    res.append(InvariantResult("mixing_mass", mass_err <= mass_tol, mass_err, mass_tol))

    w = mixer.weights_at(knots, levels)
    num = (
        w["w_lo"] * w["lo"]
        + w["w_hi"] * w["hi"]
        + w["w_unif"] * 0.5 * (w["lo"] + w["cut"])
    )
    mean_err = float(np.max(np.abs(num / w["rate"] - mixer.c)))
    res.append(InvariantResult("slice_mean", mean_err <= 1e-8, mean_err, 1e-8))

    active = w["w_unif"] > 0.0
    gap = float(np.min((w["w_lo"] - (mixer.n - 1) * w["w_hi"])[active])) if active.any() else 0.0
    width_ok = float(np.max((w["cut"] - w["lo"]) - mixer.n * knots))
    ok = gap >= -1e-12 and width_ok <= 1e-9
    res.append(InvariantResult("slice_weight_inequality", ok, min(gap, -width_ok), -1e-12))

    # reconstruction of the truncated reassembly at spot points; the
    # integrand is kinked in t where y crosses the slice atoms, so the
    # quadrature grid is refined and pinned at those crossings
    worst_rec = 0.0
    qs = [0.3, 0.5, 0.7, 0.9, 0.97]
    offsets = [-0.4, 0.25, 1.0, -1.3, 0.6]
    for quant, off in zip(qs, offsets):
        idx = int(np.searchsorted(mixer.mixing_cdf, quant))
        idx = min(max(idx, 1), len(knots) - 1)
        t_spot = knots[idx]
        y = mixer.c + off * t_spot
        grid = np.geomspace(knots[0], t_spot, 16384)
        for kink in (mixer.c - y, (y - mixer.c) / (mixer.n - 1)):
            if knots[0] < kink < t_spot:
                grid = np.sort(np.append(grid, kink))
        w_g = mixer.weights_at(grid)
        unif = np.clip(
            (y - w_g["lo"]) / np.maximum(w_g["cut"] - w_g["lo"], 1e-300), 0.0, 1.0
        )
        # the slice-law mass below y, times the rate (unnormalized)
        integrand = (
            w_g["w_lo"] * (w_g["lo"] < y)
            + w_g["w_hi"] * (w_g["hi"] < y)
            + w_g["w_unif"] * unif
        )
        lhs = float(np.trapezoid(integrand, grid))
        # mass below the first knot
        lhs += mixer.truncated_mass(knots[0], mixer.level_at(knots[0]), y)
        rhs = mixer.truncated_mass(t_spot, mixer.level_at(t_spot), y)
        worst_rec = max(worst_rec, abs(lhs - rhs))
    res.append(InvariantResult("measure_reconstruction", worst_rec <= 1e-4,
                               worst_rec, 1e-4))

    # rearrangement cells: raw columns stay exact permutations of the slice
    # discretization, and folded rows hit the target within the cell bound
    col_dev = 0.0
    sum_excess = -np.inf
    target = mixer.n * mixer.c
    for idx in (0, len(knots) // 2, len(knots) - 2):
        cell = mixer.cell_coupling(int(idx))
        column = np.sort(discretize(AtomUniform(cell.lo, cell.cut, cell.atom_weight),
                                    mixer.config.ra_grid_m))
        for j in range(mixer.n):
            col_dev = max(col_dev, float(np.max(np.abs(
                np.sort(cell.raw_matrix[:, j]) - column
            ))))
        devs = np.abs(cell.corrected_matrix.sum(axis=1) - target)
        sum_excess = max(sum_excess, float(np.max(devs) - cell.bound))
    res.append(InvariantResult(
        "coupling_cells_valid",
        col_dev == 0.0 and sum_excess <= 0.0,
        max(col_dev, sum_excess),
        0.0,
    ))
    return res


def _symmetric_suite(mixer: SymmetricMixer) -> list:
    res = []
    tail = 1.0 - float(mixer.kernel.radius_cdf(1e12))
    res.append(InvariantResult("radius_mass", abs(tail) <= 1e-9, tail, 1e-9))
    rng = np.random.default_rng(np.random.SeedSequence(mixer.config.seed))
    batch = mixer.sample(4096, rng)
    dev = float(np.abs(batch.row_sums()).max())
    bound = float(batch.row_bound.max())
    res.append(InvariantResult("block_rows_exact", dev <= bound, dev, bound))
    return res


def _explicit_suite(mixer: ExplicitMixer) -> list:
    worst = max(mixer.u_error.values())
    res = [InvariantResult("inverse_u_error", worst <= U_ERROR_TOL, worst, U_ERROR_TOL)]
    rng = np.random.default_rng(np.random.SeedSequence(mixer.config.seed))
    batch = mixer.sample(4096, rng)
    excess = float(np.max(np.abs(batch.row_sums() - batch.target_sum) - batch.row_bound))
    res.append(InvariantResult("explicit_rows_exact", excess <= 0.0, excess, 0.0))
    return res


def explicit_row_checks(mixer, t, branch) -> list:
    """The construction of an explicit mixer's rows, from their recorded
    (t, branch): the cyclic rows' t against the t-law M/P and the symmetric
    rows' radius against G, each by KS, and the share of cyclic rows against
    the cyclic fraction P by its binomial 99% limit (normal approximation),
    each with the columns' 0.01 slack, so that an honest file passes. Empty
    for any other mixer; a ``ReflectedMixer`` checks its base, whose rows
    carry the same (t, branch)."""
    base = mixer.base if isinstance(mixer, ReflectedMixer) else mixer
    if not isinstance(base, ExplicitMixer):
        return []
    t, branch = np.asarray(t, dtype=float), np.asarray(branch)
    res = []
    for name, code, cdf in (("cyclic_t_law_ks", 1, base.t_cdf),
                            ("radius_law_ks", 4, base.radius_cdf)):
        rows = np.sort(t[branch == code])
        d = ks_distance(rows, cdf) if rows.size else 0.0
        lim = 0.01 + ks_threshold(max(rows.size, 1))
        res.append(InvariantResult(name, d <= lim, d, lim))
    # the branch indicator's KS distance, |k/count - P|, under the same
    # slack, with the binomial 99% limit in place of the KS quantile
    p = base.cyclic_fraction
    dev = abs(np.count_nonzero(branch == 1) / t.size - p)
    lim = 0.01 + Z_99 * math.sqrt(p * (1.0 - p) / t.size)
    res.append(InvariantResult("cyclic_branch_count", dev <= lim, dev, lim))
    return res


def run_invariant_suite(target, marginals=None, center=None) -> list:
    """Every structural invariant applicable to the target, as a list of
    ``InvariantResult`` rows in the order of its manifest.

    Accepts a built mixer (constructive, explicit, symmetric, or reflected,
    which checks its base) or a Coupling. Failures are rows with
    ``passed=False``; the function never raises on a failed check.
    """
    if isinstance(target, ReflectedMixer):
        return run_invariant_suite(target.base)
    if isinstance(target, ConstructiveMixer):
        return _constructive_suite(target)
    if isinstance(target, SymmetricMixer):
        return _symmetric_suite(target)
    if isinstance(target, ExplicitMixer):
        return _explicit_suite(target)
    if isinstance(target, Coupling):
        return [InvariantResult(*row)
                for row in target.invariants(marginals=marginals, center=center)]
    raise TypeError(f"no invariant suite for {type(target).__name__}")
