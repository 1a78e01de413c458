"""Necessary conditions and exact intervals for centers of mixes.

A center is the constant value of the coordinate sum of a joint mix. For
marginals with finite means the center is forced (sum of the means); for
heavy-tailed marginals the admissible centers form a compact set, bounded
by window averages of the quantile functions. For the standard Cauchy the
per-variable center set is known exactly: [-log(n-1)/pi, +log(n-1)/pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import avg_quantile, cauchy_window_mean
from .errors import DomainError

PI = math.pi
# log-spaced alpha grid of ``cm_bounds``: its size and its smallest alpha
CM_GRID_SIZE = 64
CM_ALPHA_MIN = 1e-6
# t grid of ``dual_bound``, log-spaced toward the candidate center
DUAL_GRID_SIZE = 256
# boundary slack of ``mean_inequality_holds``
MEAN_INEQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class CenterInterval:
    """Closed interval [lo, hi] of admissible per-variable centers."""

    lo: float
    hi: float
    kind: str  # "exact_formula" | "numeric_necessary_bound"
    n: int

    def __contains__(self, c):
        return self.lo <= c <= self.hi


def cauchy_center_interval(n: int) -> CenterInterval:
    """Exact per-variable center interval of the standard Cauchy law.

    The sum of n standard Cauchy variables can be made constant exactly
    when the constant C satisfies |C| <= n*log(n-1)/pi; per variable that
    is log(n-1)/pi.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    hi = math.log(n - 1) / PI
    return CenterInterval(lo=-hi, hi=hi, kind="exact_formula", n=n)


def cauchy_avg_quantile_upper(n: int, alpha: float) -> float:
    """Closed form for the Cauchy average quantile over [(n-1)a, 1-a].

    Equals log(sin(pi*(n-1)*a) / sin(pi*a)) / (pi*(1 - n*a)), by
    ``cauchy_window_mean`` with tail a (1 - a is never rounded), width
    1 - n*a, d = a - (n-1)a, and sin(pi*(n-1)a) past 1/2 taken at a + width,
    the rounded width's own window. No series branch at a -> 1/n (limit
    cot(pi/n)); exactly 0 at n = 2. This upper window's infimum over a in
    (0, 1/n) bounds admissible centers from above; its a->0 limit is
    log(n-1)/pi.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if not 0.0 < alpha < 1.0 / n:
        raise DomainError("need 0 < alpha < 1/n")
    lo, w = (n - 1) * alpha, 1.0 - n * alpha
    return cauchy_window_mean(math.sin(PI * min(lo, alpha + w)), math.sin(PI * alpha), w,
                              alpha - lo)


@dataclass(frozen=True)
class JmBoundsInput:
    """Marginals plus the window levels beta_i (sum must stay below 1)."""

    marginals: tuple
    betas: tuple

    def __post_init__(self):
        if len(self.marginals) < 2:
            raise DomainError("need at least two marginals")
        if len(self.marginals) != len(self.betas):
            raise DomainError("need one beta per marginal")
        if any(not 0.0 < b < 1.0 for b in self.betas):
            raise DomainError("each beta must lie in (0, 1)")
        if sum(self.betas) >= 1.0:
            raise DomainError("sum of betas must stay below 1")


def jm_center_bounds(inp: JmBoundsInput) -> tuple:
    """Necessary window bounds for the center of a joint mix.

    lower = sum_i R[b_i, 1-b+b_i](mu_i), upper = sum_i R[b-b_i, 1-b_i](mu_i),
    where b is the total of the betas. Any center C satisfies
    lower <= C <= upper.
    """
    beta = sum(inp.betas)
    # 1 - (beta - b_i), not 1 - beta + b_i: a pair at equal betas then gets
    # the same float window on both sides, so its bounds cannot cross
    lower = sum(
        avg_quantile(m, b_i, 1.0 - (beta - b_i))
        for m, b_i in zip(inp.marginals, inp.betas)
    )
    upper = sum(
        avg_quantile(m, beta - b_i, 1.0 - b_i)
        for m, b_i in zip(inp.marginals, inp.betas)
    )
    return lower, upper


def _grid_minimize(f, grid, xatol):
    """(x, value, i): the better of the grid point i where ``f`` is least and a
    bounded ``minimize_scalar`` (``xatol``) between that point's neighbours,
    with x and value as floats."""
    from scipy.optimize import minimize_scalar

    vals = np.array([f(x) for x in grid])
    i = int(np.argmin(vals))
    best_x, best_v = float(grid[i]), float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        if res.fun < best_v:
            best_x, best_v = float(res.x), float(res.fun)
    return best_x, best_v, i


@dataclass(frozen=True)
class CmBounds:
    """Numeric necessary bounds a* <= c <= b* for per-variable centers."""

    a_star: float
    b_star: float
    alpha_at_a: float
    alpha_at_b: float
    grid_size: int


def cm_bounds(model, n: int) -> CmBounds:
    """Necessary center bounds for an n-fold complete mix of ``model``.

    a* is the supremum over a in (0, 1/n) of the average quantile on
    [a, 1-(n-1)a]; b* the infimum of the average on [(n-1)a, 1-a]. Both
    are computed on a log-spaced alpha grid (``CM_GRID_SIZE`` points from
    ``CM_ALPHA_MIN``) with golden-section refinement around the best grid
    point, so the returned values bracket the true optimum to grid accuracy.
    Models declaring an infinite mean short to the corresponding +-inf
    sentinel (the diverging side).
    """
    if n < 2:
        raise DomainError("need n >= 2")
    hi_alpha = 1.0 / n - min(1e-6, 0.1 / n)
    alphas = np.geomspace(CM_ALPHA_MIN, hi_alpha, CM_GRID_SIZE)

    def upper_window(a):
        return avg_quantile(model, (n - 1) * a, 1.0 - a)

    def lower_window(a):
        return avg_quantile(model, a, 1.0 - (n - 1) * a)

    status = getattr(model, "mean_status", "finite")

    def refine(objective, sign):
        best_a, best_v, _ = _grid_minimize(lambda a: sign * objective(a), alphas, 1e-10)
        return sign * best_v, best_a

    if status == "+inf":
        a_star, alpha_a = math.inf, 0.0
    else:
        a_star, alpha_a = refine(lower_window, -1.0)
    if status == "-inf":
        b_star, alpha_b = -math.inf, 0.0
    else:
        b_star, alpha_b = refine(upper_window, +1.0)
    return CmBounds(a_star, b_star, alpha_a, alpha_b, CM_GRID_SIZE)


def mean_inequality_holds(alpha: float, x: float, y: float, q: float, n: int) -> bool:
    """Check alpha <= 1 - (y - x) / (n * (q - x)) with boundary slack
    ``MEAN_INEQUALITY_TOL``.

    This is the necessary (and for monotone densities sufficient) atom-mass
    condition for an atom at x plus a law on [x, y] with mean q to admit an
    n-fold complete mix.
    """
    if not x < y:
        raise DomainError("need x < y")
    if not x < q <= y:
        raise DomainError("need x < q <= y")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    if n < 2:
        raise DomainError("need n >= 2")
    return alpha <= 1.0 - (y - x) / (n * (q - x)) + MEAN_INEQUALITY_TOL


@dataclass(frozen=True)
class DualBoundResult:
    """Grid infimum of the piecewise-linear dual bound.

    ``value`` is an upper estimate of the true infimum (the bound itself is
    an upper bound on the maximal probability of hitting the candidate
    center, so the conclusion "value < 1 excludes the center" is safe);
    ``grid_resolution`` is the local t-spacing at the minimizer.
    """

    value: float
    t_at_min: float
    grid_resolution: float
    grid_size: int


def dual_bound(model, n: int, c: float) -> DualBoundResult:
    """Upper bound on the probability that an n-mix of ``model`` sums to n*c.

    Evaluates inf over t < c of  integral_t^{nc-(n-1)t} (1-F) dx / (c - t)
    on ``DUAL_GRID_SIZE`` points log-spaced toward c, with local refinement
    of the best bracket. A value below 1 certifies that c is not an n-center.
    That conclusion holds to rounding for the models with closed-form
    survival integrals (every built-in model), and only to ``quad``'s
    tolerance for ``GenericDensity``, whose integral is a quadrature.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    iqr = float(model.quantile(0.75)) - float(model.quantile(0.25))
    # degenerate laws have iqr 0; fall back to the scale set by c itself
    span = 50.0 * max(iqr, abs(c) * 0.5, 1e-6)
    gaps = np.geomspace(span, span * 1e-9, DUAL_GRID_SIZE)
    ts = c - gaps

    def ratio(t):
        upper = n * c - (n - 1) * t
        return model.survival_integral(t, upper) / (c - t)

    best_t, best_v, i = _grid_minimize(ratio, ts, 1e-12)
    local_gap = float(gaps[max(i - 1, 0)] - gaps[min(i + 1, len(ts) - 1)]) / 2.0
    return DualBoundResult(float(best_v), float(best_t), abs(local_gap), DUAL_GRID_SIZE)


def infinite_mean_classifier(marginals) -> str:
    """Decide whether an infinite mean already rules out a joint mix.

    Returns "excluded" when every marginal has a well-defined mean on one
    side (all in {finite, +inf} or all in {finite, -inf}) and at least one
    is infinite; "inconclusive" otherwise. Undefined means (both tails
    heavy, e.g. Cauchy) never exclude, and mixed +inf / -inf tuples can be
    jointly mixable.
    """
    statuses = [getattr(m, "mean_status", "finite") for m in marginals]
    if all(s in ("finite", "+inf") for s in statuses) and "+inf" in statuses:
        return "excluded"
    if all(s in ("finite", "-inf") for s in statuses) and "-inf" in statuses:
        return "excluded"
    return "inconclusive"
