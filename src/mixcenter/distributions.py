"""One-dimensional distribution models.

Every model exposes ``cdf``, ``quantile``, ``survival_integral`` (the
integral of 1 - F over an interval, needed by the dual center bound),
``_avg_quantile`` (its window average, read through ``avg_quantile``) and a
declared ``mean_status`` in {"finite", "+inf", "-inf", "undefined"}.
Quantiles are generalized inverses, so everything here also works for step
cdfs, and a law is its quantile: a draw of ``size`` values is
``model.quantile(rng.random(size))``, by inverse transform. ``pdf`` and the
slice methods exist only on the two slice kernels, ``Cauchy`` and
``GenericDensity``. ``model_from_spec`` reads a model from its JSON form.

Mean status is declared by each model rather than inferred numerically:
detecting tail-integral divergence from samples or quadrature is
unreliable, and the center-bound logic only needs the declaration.

Every built-in model has closed-form window averages and survival
integrals. Quadrature runs only in ``GenericDensity``, whose cdf, survival
integral, window average, centered moment and admissibility integrals
(``generic_admissibility``) integrate the density times a weight through one
routine, ``GenericDensity._integral``, with no quadrature inside another's
integrand, and in ``quad_avg_quantile`` (the oracle the window averages are
checked against); scipy is imported only there. The standard ``Cauchy`` and
a ``GenericDensity`` are the slice kernels of the ``cauchy_mix`` mixers. Root
finding is numpy everywhere: ``_brent_roots`` is the package's one root finder.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstructionError, DomainError, QuadratureError

PI = math.pi
# relative tolerance of ``_brent_roots``: the default of scipy's Brent solver, 4 ulp
_BRENT_RTOL = 8.9e-16


def _quantile_levels(t):
    """``t`` as a float array; raises unless every level lies in (0, 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    return t


def cauchy_quantile(t):
    """Quantile of the standard Cauchy law, tan(pi*(t - 1/2)); beyond
    |t - 1/2| = 1/4, -1/tan(pi*t) or 1/tan(pi*(1 - t)) (1 - t exact), so
    that the argument of tan is not rounded next to its pole."""
    t = _quantile_levels(t)
    tail = np.minimum(t, 1.0 - t)
    out = np.where(tail < 0.25, np.copysign(1.0 / np.tan(PI * tail), t - 0.5),
                   np.tan(PI * (t - 0.5)))
    return float(out) if out.ndim == 0 else out


def _atan_diff(u, el):
    """arctan(u) - arctan(el), computed without cancellation."""
    u = np.asarray(u, dtype=float)
    el = np.asarray(el, dtype=float)
    denom = 1.0 + u * el
    base = np.arctan((u - el) / denom)
    corr = np.where(denom > 0, 0.0, np.where(u >= el, PI, -PI))
    out = base + corr
    return float(out) if out.ndim == 0 else out


def _atan_ratio(z):
    """arctan(z) / z for z >= 0: 1 - z^2/3 below 1e-8, where that is exact
    to rounding, so z = 0 and subnormal z need no division."""
    z = np.asarray(z, dtype=float)
    small = z < 1e-8
    return np.where(small, 1.0 - z * z / 3.0, np.arctan(z) / np.where(small, 1.0, z))


# (-1)^k / (2k+3)! for k = 9 down to 0: (phi - sin phi) / phi^3 as a
# polynomial in phi^2, which the c = 0 radius solve uses below phi = 1, where
# phi - sin phi cancels (cut at phi = 1/2, radii just above it were off by up
# to 4.3 eps)
_KEPLER_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9, -1, -1))


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


def _sin_pi(t: float) -> float:
    """sin(pi*t) for t in (0, 1), to full relative accuracy near both ends.

    Reflecting t >= 1/2 to 1 - t (exact there) keeps the argument of sin
    away from pi, where rounding pi*t would cost digits.
    """
    return math.sin(PI * min(t, 1.0 - t))


def cauchy_window_mean(sin_lo, sin_hi, w, d, scale=1.0):
    """Mean of the Cauchy quantile over the window [lo, hi] (closed form).

    The caller passes sin(pi*lo), sin(pi*hi), the width w = hi - lo and
    d = 1 - lo - hi, each formed without cancellation (from differences that
    are exact or do not cancel), so no caller need round 1 - hi. The
    antiderivative of tan(pi*(t - 1/2)) is -log(sin(pi*t))/pi, so the mean
    is log(sin(pi*lo)/sin(pi*hi)) / (pi*w) times the scale. The ratio is
    1 - 2*sin(pi*d/2)*sin(pi*w/2)/sin(pi*hi); its log1p keeps full relative
    accuracy as w -> 0, where the plain log difference cancels and the
    rounding of w cancels between sin(pi*w/2) and w.
    """
    x = -2.0 * math.sin(0.5 * PI * d) * math.sin(0.5 * PI * w) / sin_hi
    if abs(x) < 0.5:
        log_ratio = math.log1p(x)
    else:
        # the ratio is far from 1, so the logs do not cancel; log1p would
        # lose a tiny ratio (x near -1) to rounding
        log_ratio = math.log(sin_lo) - math.log(sin_hi)
    return scale * log_ratio / (PI * w)


class Cauchy:
    """Cauchy law with scale ``sigma`` (sigma = 1 is the standard law).

    The standard law is the ``cauchy_mix`` mixers' default slice kernel: the
    methods from ``peak`` on are its closed forms, for scale 1 only, and
    ``center_limit``, which every mixer build reads first, refuses others.
    """

    mean_status = "undefined"

    def __init__(self, scale: float = 1.0):
        if not 0.0 < scale < math.inf:
            raise DomainError(f"need a finite positive scale, got {scale}")
        self.scale = float(scale)

    def pdf(self, x):
        s = self.scale
        x = np.asarray(x, dtype=float)
        out = s / (PI * (s * s + x * x))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        out = 0.5 + np.arctan(np.asarray(x, dtype=float) / self.scale) / PI
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        q = cauchy_quantile(t)
        return q * self.scale if self.scale != 1.0 else q

    def survival_integral(self, a, b):
        """Integral of 1 - F over [a, b] (closed form)."""
        s = self.scale

        def anti(x):
            # antiderivative of 1 - F = 1/2 - arctan(x/s)/pi
            u = x / s
            return x / 2.0 - s * (u * math.atan(u) - 0.5 * math.log1p(u * u)) / PI

        return anti(b) - anti(a)

    def _avg_quantile(self, lo, hi):
        """Mean of the quantile over [lo, hi] by ``cauchy_window_mean``."""
        d = (1.0 - hi) - lo if hi >= 0.5 else (0.5 - lo) + (0.5 - hi)
        return cauchy_window_mean(_sin_pi(lo), _sin_pi(hi), hi - lo, d, self.scale)

    def peak(self):
        return 1.0 / PI

    def inverse_pdf(self, y):
        """Positive x with pdf(x) = y, elementwise, for y in (0, 1/pi]; +inf
        for y <= 0, DomainError above 1/pi. A scalar gives a float."""
        y = np.asarray(y, dtype=float)
        if np.any(y > 1.0 / PI + 1e-15):
            raise DomainError(f"density level {np.max(y)} exceeds the mode value 1/pi")
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(y <= 0.0, np.inf, np.sqrt(np.maximum(1.0 / (PI * y) - 1.0, 0.0)))
        return float(out) if out.ndim == 0 else out

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
        """log(n-1)/pi, the largest center of n standard Cauchy variables."""
        if self.scale != 1.0:
            raise DomainError(f"the slice kernel is the standard law, got scale {self.scale}")
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
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty(u.shape)
        low = u < 0.5
        out[low] = _kepler_low(PI * u[low])
        high = ~low
        out[high] = _kepler_high(PI * (1.0 - u[high]))
        return out

    # The odd part of the density about a center c > 0, D(x) = pdf(c - x) -
    # pdf(c + x) for x >= 0, which the explicit mixer's cyclic rows carry.
    # Each form is divided by c, so that a center near 0 (down to 1e-300)
    # keeps every value normal.

    def slope(self, x):
        """The density's derivative, -2x / (pi (1 + x^2)^2) (rational)."""
        x = np.asarray(x, dtype=float)
        return -2.0 * x / (PI * (1.0 + x * x) ** 2)

    def skew(self, c, x):
        """(D(x)/c, D'(x)/c), rational: D(x) = 4cx / (pi ab) with a = 1 +
        (c - x)^2 and b = 1 + (c + x)^2, and D'(x) = 4c ((1 + c^2)^2 -
        2(1 - c^2)x^2 - 3x^4) / (pi (ab)^2)."""
        x = np.asarray(x, dtype=float)
        ab = (1.0 + (c - x) ** 2) * (1.0 + (c + x) ** 2)
        xx = x * x
        top = (1.0 + c * c) ** 2 - 2.0 * (1.0 - c * c) * xx - 3.0 * xx * xx
        return (4.0 / PI) * x / ab, (4.0 / PI) * top / (ab * ab)

    def skew_mass(self, c, a):
        """int_0^a D, divided by c, for 0 < c < 1: arctan(2ca^2 / ((1 + c^2)^2
        + (1 - c^2)a^2)) / pi, one arctan with no cancellation (arctan(z)/z
        is its series below z = 1e-8)."""
        a = np.asarray(a, dtype=float)
        aa = a * a
        ratio = 2.0 * aa / ((1.0 + c * c) ** 2 + (1.0 - c * c) * aa)
        return ratio * _atan_ratio(c * ratio) / PI

    def skew_taylor(self, c, terms):
        """d_0 .. d_{terms-1} with D(x)/c = sum_j d_j x^(2j+1) for |x| <
        sqrt(1 + c^2): d_j = (2/pi) Im((c - i)^-(2j+2)) / c."""
        return [(2.0 / PI) * (complex(c, -1.0) ** -(2 * j + 2)).imag / c
                for j in range(terms)]

    def reflected(self):
        return self


class Pareto:
    """Pareto law, survival (xm/x)^shape for x >= xm.

    Mean is infinite when shape <= 1, which is what the infinite-mean
    exclusion rule keys on.
    """

    def __init__(self, shape: float, xm: float = 1.0):
        if not (0.0 < shape < math.inf and 0.0 < xm < math.inf):
            raise DomainError(f"need a finite positive shape and xm, got {shape} and {xm}")
        self.shape, self.xm = float(shape), float(xm)

    @property
    def mean_status(self):
        return "+inf" if self.shape <= 1.0 else "finite"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.xm, 0.0, 1.0 - (self.xm / np.maximum(x, self.xm)) ** self.shape)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        t = _quantile_levels(t)
        out = self.xm * (1.0 - t) ** (-1.0 / self.shape)
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        """Mean of the quantile xm*(1 - t)^(-1/shape) over [lo, hi] (closed form).

        With p = 1 - 1/shape, r = 1 - lo and w = hi - lo the integral is
        xm*r^p*g, g = -expm1(p*L)/p (g = -L at shape 1), where L is the log of
        (1 - hi)/r: log1p(-w/r) while w/r < 1/2, so a narrow window keeps full
        relative accuracy, and past that the log of the ratio itself, whose
        1 - hi is then exact (hi >= 1/2) and far from r.
        """
        p, r, w = 1.0 - 1.0 / self.shape, 1.0 - lo, hi - lo
        x = w / r
        log_ratio = math.log1p(-x) if x < 0.5 else math.log((1.0 - hi) / r)
        g = -log_ratio if p == 0.0 else -math.expm1(p * log_ratio) / p
        return self.xm * r ** p * g / w

    def survival_integral(self, a, b):
        """Integral of 1 - F over [a, b] (closed form).

        1 - F is 1 below xm, which contributes the length of [a, b] below xm,
        and (xm/x)^shape above it. From u = max(a, xm) to b that integrates to
        u*(xm/u)^shape*expm1(q*L)/q with q = 1 - shape and L = log1p((b - u)/u)
        (u*(xm/u)*L at shape 1), a sum of positive terms at every width.
        """
        total = max(min(b, self.xm) - a, 0.0)
        u = max(a, self.xm)
        if b > u:
            q = 1.0 - self.shape
            log_ratio = math.log1p((b - u) / u)
            tail = log_ratio if q == 0.0 else math.expm1(q * log_ratio) / q
            total += u * (self.xm / u) ** self.shape * tail
        return total


class FiniteDiscrete:
    """Law with finitely many atoms, values strictly increasing.

    ``atoms`` is a sequence of (value, prob) pairs; probabilities must sum
    to ``total_mass`` (default 1) within 1e-12. A total mass below 1 is the
    truncated view of a countable law; the deficit is carried explicitly.
    """

    mean_status = "finite"

    def __init__(self, atoms, total_mass: float = 1.0):
        atoms = sorted((float(v), float(p)) for v, p in atoms)
        values = np.array([v for v, _ in atoms])
        probs = np.array([p for _, p in atoms])
        if len(values) == 0:
            raise DomainError("need at least one atom")
        if np.any(np.diff(values) <= 0):
            raise DomainError("atom values must be strictly increasing")
        # NaN fails p > 0; an infinite probability fails the sum below
        bad = [(v, p) for v, p in atoms if not (math.isfinite(v) and p > 0)]
        if bad:
            raise DomainError(f"need a finite value and a positive probability, got {bad[0]}")
        if abs(math.fsum(probs) - total_mass) > 1e-12:
            raise DomainError(
                f"probabilities sum to {math.fsum(probs)!r}, expected {total_mass!r}"
            )
        self.values = values
        self.probs = probs
        self.total_mass = float(total_mass)
        self._cum = np.cumsum(probs)
        self._cum[-1] = total_mass
        # plain-float copies for the step integrals, which visit few atoms
        self._values = values.tolist()
        self._cum_list = self._cum.tolist()
        self._edges = [0.0] + (self._cum / self.total_mass).tolist()

    @property
    def mean(self):
        return float(np.dot(self.values, self.probs) / self.total_mass)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        t = _quantile_levels(t)
        idx = np.searchsorted(self._cum, t * self.total_mass, side="left")
        out = self.values[np.minimum(idx, len(self.values) - 1)]
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        """Exact integral of the quantile step function over [lo, hi],
        divided by its width: the sum over the atoms whose level interval
        meets the window of value times overlap, in atom order."""
        edges, values = self._edges, self._values
        acc = 0.0
        for i in range(bisect.bisect_right(edges, lo, 1) - 1, bisect.bisect_left(edges, hi)):
            a = max(lo, edges[i])
            b = min(hi, edges[i + 1])
            if b > a:
                acc += values[i] * (b - a)
        return acc / (hi - lo)

    def survival_integral(self, a, b):
        """Integral of the right-continuous survival step function over
        [a, b]: one term per piece between a, the atoms inside (a, b) and b,
        each its width times the mass above its left end."""
        values, cum, mass = self._values, self._cum_list, self.total_mass
        first = bisect.bisect_right(values, a)
        last = max(first, bisect.bisect_left(values, b))
        grid = [a, *values[first:last], b]
        levels = [cum[first - 1] if first else 0.0, *cum[first:last]]
        total = 0.0
        for lo, hi, level in zip(grid, grid[1:], levels):
            total += (hi - lo) * (mass - level)
        return total

    def reflected(self):
        return FiniteDiscrete(
            zip(-self.values[::-1], self.probs[::-1]), total_mass=self.total_mass
        )


def point_mass(c: float) -> FiniteDiscrete:
    return FiniteDiscrete([(c, 1.0)])


class PowerTwoGeometric:
    """Countable laws supported on powers of two with geometric weights.

    ``sign="positive"``: P(1) = 1/2 and P(2^k) = 2^-(k+1) for k >= 1.
    ``sign="negative"``: P(-2^(k+1)) = 2^-(k+1) for k >= 0.

    ``truncation`` bounds the geometric index for the truncated finite
    views used by exact couplings; quantiles and cdf values are those of
    the full (untruncated) law.
    """

    def __init__(self, sign: str = "positive", truncation: int = 40):
        if sign not in ("positive", "negative"):
            raise DomainError("sign must be 'positive' or 'negative'")
        if truncation < 1:
            raise DomainError("truncation must be >= 1")
        self.sign = sign
        self.truncation = int(truncation)
        self._views = {}

    @property
    def mean_status(self):
        return "+inf" if self.sign == "positive" else "-inf"

    def pmf_fractions(self, kmax=None):
        """Exact pmf as [(value:int, prob:Fraction)] up to geometric index kmax."""
        kmax = self.truncation if kmax is None else kmax
        if self.sign == "positive":
            out = [(1, Fraction(1, 2))]
            out += [(2 ** k, Fraction(1, 2 ** (k + 1))) for k in range(1, kmax + 1)]
        else:
            out = [(-(2 ** (k + 1)), Fraction(1, 2 ** (k + 1))) for k in range(kmax + 1)]
        return out

    def truncated(self, kmax=None) -> FiniteDiscrete:
        """Finite view with mass deficit 2^-(kmax+1), built once per kmax."""
        return _power_two_view(self, self.truncation if kmax is None else kmax)

    def cdf(self, x):
        return self.truncated(max(self.truncation, 60)).cdf(x)

    def quantile(self, t):
        t = _quantile_levels(t)
        if self.sign == "positive":
            # F(1) = 1/2, F(2^k) = 1 - 2^-(k+1)
            k = np.ceil(-np.log2(np.maximum(1.0 - t, 1e-300))) - 1.0
            out = np.where(t <= 0.5, 1.0, 2.0 ** np.maximum(k, 1.0))
        else:
            # support -2, -4, ...; P(X <= -2^(k+1)) = sum_{j>=k} 2^-(j+1) = 2^-k,
            # so the generalized inverse picks the largest k with 2^-k >= t
            k = np.floor(-np.log2(np.maximum(t, 1e-300)))
            out = -(2.0 ** (np.maximum(k, 0.0) + 1.0))
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        kmax = max(self.truncation, int(math.ceil(-math.log2(min(1 - hi, lo)))) + 4)
        return self.truncated(kmax)._avg_quantile(lo, hi)

    def survival_integral(self, a, b):
        return _power_two_survival_integral(self, a, b, float(self.sign == "positive"))


def _power_two_view(model, kmax):
    """The finite view of ``model.pmf_fractions(kmax)``, cached in
    ``model._views``; its total mass is the exact sum of those atoms, so the
    deficit is the mass of the dropped tail."""
    if kmax not in model._views:
        pmf = model.pmf_fractions(kmax)
        model._views[kmax] = FiniteDiscrete([(float(v), float(p)) for v, p in pmf],
                                            total_mass=float(sum(p for _, p in pmf)))
    return model._views[kmax]


def _power_two_survival_integral(model, a, b, positive_weight):
    """Integral of 1 - F over [a, b] for a law on signed powers of two.

    The truncated view keeps every atom up to 2^kmax > max(|a|, |b|), so
    the atoms it drops lie outside [a, b]: the negative ones below a count
    in F, and the positive ones above b (total ``positive_weight *
    2^-(kmax+1)``) are survival on the whole interval. The result is exact
    up to float rounding.
    """
    if not (abs(a) < 2.0 ** 1000 and abs(b) < 2.0 ** 1000):
        raise DomainError("survival integral needs finite endpoints below 2^1000")
    kmax = math.frexp(max(abs(a), abs(b), 1.0))[1]
    view = model.truncated(kmax)
    return view.survival_integral(a, b) + positive_weight * 2.0 ** -(kmax + 1) * (b - a)


class CountableMixture:
    """Finite mixture of countable power-of-two laws (exact atom merging).

    The mean is +inf when every weighted component is positive, -inf when
    every one is negative, and undefined when both signs carry weight.
    """

    def __init__(self, components):
        # components: [(weight Fraction-able, PowerTwoGeometric)]
        self.components = [(Fraction(w), comp) for w, comp in components]
        if sum(w for w, _ in self.components) != 1:
            raise DomainError("mixture weights must sum to 1 exactly")
        self._views = {}
        # the weight of the components on positive powers of two
        positive = sum(w for w, comp in self.components if comp.sign == "positive")
        self._positive = float(positive)
        self.mean_status = {1: "+inf", 0: "-inf"}.get(positive, "undefined")

    def pmf_fractions(self, kmax):
        """Exact pmf as [(value:int, prob:Fraction)], in increasing value: each
        component's atoms up to geometric index kmax, weighted and merged."""
        merged = {}
        for w, comp in self.components:
            for v, p in comp.pmf_fractions(kmax):
                merged[v] = merged.get(v, Fraction(0)) + w * p
        return sorted(merged.items())

    def truncated(self, kmax) -> FiniteDiscrete:
        """Finite view of the merged atoms up to index kmax, built once per kmax."""
        return _power_two_view(self, kmax)

    def _avg_quantile(self, lo, hi):
        kmax = int(math.ceil(-math.log2(min(1 - hi, lo)))) + 6
        return self.truncated(kmax)._avg_quantile(lo, hi)

    def survival_integral(self, a, b):
        return _power_two_survival_integral(self, a, b, self._positive)

    def cdf(self, x):
        return self.truncated(60).cdf(x)

    def quantile(self, t):
        return self.truncated(60).quantile(t)


class AtomUniform:
    """Mixture of a point mass at ``atom_x`` and a uniform on [atom_x, right_y].

    ``atom_weight`` is the mass of the atom. This is the shape of the
    uniform-plus-atom slice laws used by the constructive Cauchy mixer;
    ``Uniform`` is the law with atom weight 0.
    """

    mean_status = "finite"

    def __init__(self, atom_x: float, right_y: float, atom_weight: float):
        if not -math.inf < atom_x < right_y < math.inf:
            raise DomainError(f"need finite ends, left below right, got {atom_x} and {right_y}")
        if not 0.0 <= atom_weight <= 1.0:
            raise DomainError("atom_weight must lie in [0, 1]")
        self.atom_x = float(atom_x)
        self.right_y = float(right_y)
        self.atom_weight = float(atom_weight)

    @property
    def mean(self):
        a = self.atom_weight
        return a * self.atom_x + (1.0 - a) * 0.5 * (self.atom_x + self.right_y)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        a, lo, hi = self.atom_weight, self.atom_x, self.right_y
        unif = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        out = np.where(x < lo, 0.0, a + (1.0 - a) * unif)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        t = _quantile_levels(t)
        a, lo, hi = self.atom_weight, self.atom_x, self.right_y
        with np.errstate(invalid="ignore", divide="ignore"):
            u = (t - a) / (1.0 - a) if a < 1.0 else np.zeros_like(t)
        out = np.where(t <= a, lo, lo + (hi - lo) * np.clip(u, 0.0, 1.0))
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        """Mean of the quantile over [lo, hi] (closed form).

        The quantile is atom_x up to the level a = atom_weight and linear
        from atom_x to right_y above it. Over [t0, hi], t0 = max(lo, a), the
        linear part averages atom_x plus (right_y - atom_x)*((t0 - a) + (hi -
        a))/(2*(1 - a)), a product of positive differences, so narrow windows
        keep full accuracy. A window that starts on the atom takes the linear
        part's share (hi - a)/(hi - lo) of that rise.
        """
        a, x, y = self.atom_weight, self.atom_x, self.right_y
        if hi <= a:
            return x
        t0 = max(lo, a)
        rise = (y - x) * ((t0 - a) + (hi - a)) / (2.0 * (1.0 - a))
        if lo >= a:
            return x + rise
        return x + (hi - a) * rise / (hi - lo)

    def survival_integral(self, a, b):
        """Integral of 1 - F over [a, b] (closed form).

        1 - F is 1 below the atom, which contributes the length of [a, b]
        there, and (1 - atom_weight)*(right_y - t)/(right_y - atom_x) at t on
        the uniform part. Over [left, right] that integrates to a product of
        positive differences, (right - left)*((right_y - left) + (right_y -
        right)) over 2*(right_y - atom_x), so narrow intervals keep full
        relative accuracy.
        """
        x, y = self.atom_x, self.right_y
        total = max(min(b, x) - a, 0.0)
        left, right = max(a, x), min(b, y)
        if right > left:
            total += ((1.0 - self.atom_weight) * (right - left)
                      * ((y - left) + (y - right)) / (2.0 * (y - x)))
        return total


class Uniform(AtomUniform):
    """Uniform law on [a, b]: the atom-plus-uniform law without an atom."""

    def __init__(self, a: float, b: float):
        super().__init__(a, b, 0.0)

    @property
    def a(self):
        return self.atom_x

    @property
    def b(self):
        return self.right_y

    def reflected(self):
        return Uniform(-self.b, -self.a)


def _brent_roots(f, lo, hi, f_lo, f_hi, xtol, args=(), maxiter=100, what="root"):
    """Roots of ``f(x, *args)`` on the brackets [lo, hi], one Brent state per element.

    A lock-step port of scipy's scalar Brent solver (Brent 1973): each
    element takes the steps that solver takes on its bracket with the same
    ``xtol`` and ``maxiter`` (and ``rtol=_BRENT_RTOL``), given the end values
    ``f_lo`` and ``f_hi``. ``args`` are arrays with one entry per element;
    ``f`` is evaluated only at the elements still open. Like that solver, a
    bracket with ``f_lo == 0`` returns ``lo``. Raises ConstructionError when
    some bracket's end values have the same nonzero sign, or when some
    element is open after ``maxiter`` iterations.
    """
    same = (f_lo != 0) & (f_hi != 0) & (np.signbit(f_lo) == np.signbit(f_hi))
    if same.any():
        i = int(np.argmax(same))
        raise ConstructionError(
            f"{what} is not bracketed: f = {f_lo[i]} and {f_hi[i]} on [{lo[i]}, {hi[i]}]"
        )
    root = lo.copy()
    idx = np.flatnonzero(f_lo != 0)
    args = tuple(a[idx] for a in args)
    xpre, xcur = lo[idx], hi[idx]
    fpre, fcur = f_lo[idx], f_hi[idx]
    xblk, fblk = xpre.copy(), np.zeros_like(xpre)
    spre, scur = np.zeros_like(xpre), np.zeros_like(xpre)
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        # keep the better end in xcur: (pre, cur, blk) <- (cur, blk, cur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            root[idx[done]] = xcur[done]
            keep = ~done
            idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[keep] for a in (idx, xpre, xcur, xblk, fpre, fcur, fblk,
                                  spre, scur, delta, sbis))
            args = tuple(a[keep] for a in args)
        if idx.size == 0:
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interp = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrap = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interp, extrap)
            short = 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            good = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & short
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, *args)
    i = idx[0]
    raise ConstructionError(
        f"{what} did not converge in {maxiter} iterations on [{lo[i]}, {hi[i]}]"
    )


def _doubling_brackets(below, size, cap):
    """Upper bracket ends 2^k, one per element: the smallest k >= 0 with
    ``below(2^k, idx)`` false, or the first power of two past ``cap``, where
    ``below`` is not evaluated. ``idx`` are the indices of the open elements."""
    hi = np.ones(size)
    idx = np.arange(size)
    while idx.size:
        idx = idx[below(hi[idx], idx)]
        hi[idx] *= 2.0
        idx = idx[hi[idx] <= cap]
    return hi


# the grid of a generic density's shape and convexity checks: step 1/8,
# exact in binary, so the grid is symmetric and holds 0
GENERIC_GRID_HALFWIDTH = 50.0
GENERIC_GRID = np.linspace(-GENERIC_GRID_HALFWIDTH, GENERIC_GRID_HALFWIDTH, 801)
# relative tolerance of every quadrature in ``GenericDensity._integral``
_QUAD_EPSREL = 1e-12


class GenericDensity:
    """Law given by a symmetric, strictly unimodal density on the real line.

    ``pdf`` need not be normalized; the normalizing constant is computed
    once by quadrature and must be finite and positive, and a quadrature that
    reports trouble (a divergent integral, say) is refused. At construction
    ``pdf`` is evaluated on ``GENERIC_GRID``, once: the shape checks ask
    those values for symmetry about 0 and a strict decrease right of 0, and
    ``generic_admissibility`` reads them for convexity. ``pdf``, ``cdf``,
    ``inverse_pdf`` and ``quantile`` take a scalar (giving a float) or an
    array (keeping its shape). The cdf, the survival integral (by parts),
    the window average (by the substitution t = F(x)), the centered moment
    and the admissibility integrals are each quadratures of the density
    times a weight, through ``_integral``.

    The density is also a slice kernel of ``cauchy_mix``: ``build_mixer(config,
    density)`` runs the mixers on it, with ``center_limit(n)`` the largest
    center ``generic_admissibility`` admits.
    """

    mean_status = "undefined"

    def __init__(self, pdf):
        from scipy.integrate import quad

        self._raw_pdf = pdf
        # quad returns a message only where it did not meet its tolerance
        z, err, _, *msg = quad(pdf, 0.0, np.inf, limit=400, full_output=1)
        self._norm = 2.0 * z
        if not 0.0 < self._norm < math.inf:
            raise DomainError(f"density normalization is {self._norm}, need finite and positive")
        if msg:
            raise QuadratureError(f"density normalization: {' '.join(msg[0].split())}",
                                  achieved=err)
        g = self._grid_pdf = self._each(pdf, GENERIC_GRID)   # unnormalized
        if np.max(np.abs(g - g[::-1])) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise DomainError("density is not symmetric about 0 on the sample grid")
        if np.any(np.diff(g[GENERIC_GRID.size // 2:]) >= 0.0):   # x = 0, 1/8, ..., 50
            raise DomainError("density is not strictly decreasing right of 0")
        self._cdf_cache = {}

    @staticmethod
    def _each(fn, x):
        """The scalar function ``fn`` at every element of ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return fn(float(x))
        return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    def pdf(self, x):
        return self._each(self._raw_pdf, x) / self._norm

    def peak(self):
        return float(self.pdf(0.0))

    def inverse_pdf(self, y):
        """Positive x with pdf(x) = y, for y in (0, pdf(0)]; +inf for y <= 0
        and where pdf stays above y up to 1e12."""
        y = np.asarray(y, dtype=float)
        if np.any(y > self.pdf(0.0) * (1 + 1e-12)):
            raise DomainError("density level exceeds the mode value")
        level = y.ravel()
        hi = _doubling_brackets(lambda x, i: self.pdf(x) > level[i], level.size, 1e12)
        pos = np.flatnonzero((level > 0.0) & (hi <= 1e12))
        lo, hi, level = np.zeros(pos.size), hi[pos], level[pos]
        out = np.full(y.size, math.inf)
        out[pos] = _brent_roots(lambda x, yy: self.pdf(x) - yy, lo, hi, self.pdf(lo) - level,
                                self.pdf(hi) - level, 1e-14, args=(level,),
                                what="inverse density")
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def _integral(self, weight, a, b):
        """Integral of ``weight(x) * pdf(x)`` over [a, b] by adaptive quadrature.

        [a, b] is cut at -1 and 1, and each piece beyond |x| = 1 is
        integrated in u = 1/x (the integrand times 1/u^2 over [1/q, 1/p] for
        the piece [p, q]): one quad over a long range samples too coarsely
        near 0 to see the bulk, and in u a heavy tail is a bounded integrand
        on a short interval. An infinite end is u = 0. Each piece is taken
        to ``_QUAD_EPSREL`` relative (or quad's default absolute) error.
        """
        from scipy.integrate import quad

        def in_u(u):
            x = 1.0 / u
            return weight(x) * self.pdf(x) / (u * u)

        total = 0.0
        if a < -1.0:
            total += quad(in_u, 1.0 / min(b, -1.0), 1.0 / a, limit=400, epsrel=_QUAD_EPSREL)[0]
        lo, hi = max(a, -1.0), min(b, 1.0)
        if hi > lo:
            total += quad(lambda x: weight(x) * self.pdf(x), lo, hi, limit=400,
                          epsrel=_QUAD_EPSREL)[0]
        if b > 1.0:
            total += quad(in_u, 1.0 / b, 1.0 / max(a, 1.0), limit=400, epsrel=_QUAD_EPSREL)[0]
        return total

    def _cdf_at(self, x):
        if x not in self._cdf_cache:
            mass = self._integral(lambda _: 1.0, 0.0, abs(x))
            self._cdf_cache[x] = 0.5 + math.copysign(mass, x)
        return self._cdf_cache[x]

    def cdf(self, x):
        return self._each(self._cdf_at, x)

    def quantile(self, t):
        """Root of cdf(x) = t, bracketed by [0, 2^k] or [-2^k, 0] with k the
        first power whose cdf passes max(t, 1 - t) (capped past 1e14)."""
        t = _quantile_levels(t)
        level = t.ravel()
        far = np.maximum(level, 1.0 - level)   # symmetric bracket
        hi = _doubling_brackets(lambda x, i: self.cdf(x) < far[i], level.size, 1e14)
        # t = 1/2 ends at its root 0: cdf(0) is exactly 1/2
        lo, hi = np.where(level > 0.5, 0.0, -hi), np.where(level > 0.5, hi, 0.0)
        out = _brent_roots(lambda x, tt: self.cdf(x) - tt, lo, hi, self.cdf(lo) - level,
                           self.cdf(hi) - level, 1e-12, args=(level,), what="quantile")
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def survival_integral(self, a, b):
        """Integral of 1 - F over [a, b], by parts: (b - a)*(1 - F(b)) plus
        the integral of (x - a)*pdf(x) over [a, b]."""
        return (b - a) * (1.0 - self.cdf(b)) + self._integral(lambda x: x - a, a, b)

    def _avg_quantile(self, lo, hi):
        """Mean of the quantile over [lo, hi]: with t = F(x), the integral of
        Q over [lo, hi] is that of x*pdf(x) between Q(lo) and Q(hi)."""
        q_lo, q_hi = self.quantile(np.array([lo, hi])).tolist()
        return self._integral(lambda x: x, q_lo, q_hi) / (hi - lo)

    def cdf_diff(self, el, u):
        """F(u) - F(el)."""
        return self.cdf(u) - self.cdf(el)

    def centered_moment(self, el, u, c):
        """Integral of (x - c) * pdf(x) over [el, u], elementwise."""
        el, u = np.broadcast_arrays(np.asarray(el, dtype=float), np.asarray(u, dtype=float))
        out = np.array([self._integral(lambda x: x - c, lo, hi)
                        for lo, hi in zip(el.ravel().tolist(), u.ravel().tolist())])
        return float(out[0]) if el.ndim == 0 else out.reshape(el.shape)

    def center_limit(self, n):
        """The largest admissible center for n variables, ``q_max`` of
        ``generic_admissibility``; DomainError where sqrt(1/g) is not convex."""
        adm = generic_admissibility(self, n)
        if not adm.ok:
            raise DomainError(
                f"density fails the sqrt(1/g) convexity requirement near x={adm.witness}"
            )
        return adm.q_max

    def radius_cdf(self, a):
        """cdf of the radius law when the density is viewed as a scale
        mixture of centered uniforms: 2F(a) - 1 - 2a*pdf(a)."""
        return 2.0 * self.cdf(a) - 1.0 - 2.0 * a * self.pdf(a)

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
class AdmissibilityResult:
    ok: bool
    q_max: float
    witness: float | None = None


def generic_admissibility(density: GenericDensity, n: int) -> AdmissibilityResult:
    """Check whether a symmetric unimodal density supports the slice pipeline.

    Requires sqrt(1/g) convex (verified by second differences, tolerance
    1e-9, of the density's values on ``GENERIC_GRID``, taken once at its
    construction) and returns the largest admissible per-variable center,
    the liminf of integral_t^{(n-1)t} x g(x) dx along a geometric t-sequence.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    g = np.maximum(density._grid_pdf / density._norm, 1e-300)
    s = np.sqrt(1.0 / g)
    second = s[:-2] - 2.0 * s[1:-1] + s[2:]
    bad = np.nonzero(second < -1e-9)[0]
    if bad.size:
        return AdmissibilityResult(ok=False, q_max=0.0, witness=float(GENERIC_GRID[bad[0] + 1]))
    vals = [density._integral(lambda x: x, 2.0 ** k, (n - 1) * 2.0 ** k) for k in range(36)]
    return AdmissibilityResult(ok=True, q_max=max(0.0, float(min(vals[-10:]))))


def _check_window(lo: float, hi: float) -> None:
    if not 0.0 < lo < hi < 1.0:
        raise DomainError("need 0 < lo < hi < 1")


def avg_quantile(model, lo: float, hi: float) -> float:
    """Mean of the quantile function of ``model`` over [lo, hi].

    Every model owns its window average, ``_avg_quantile``: plateau
    summation for discrete models (after truncation for countable ones), the
    closed forms of the Cauchy, Pareto (power law in 1 - t, in log1p/expm1
    form) and atom-plus-uniform laws (the atom's level, then a linear
    quantile; the uniform law has no atom), quantile reflection for
    ``Reflected``, and for ``GenericDensity`` one quadrature of x*pdf(x)
    between two quantiles. ``quad_avg_quantile`` is the independent oracle
    these are checked against.
    """
    _check_window(lo, hi)
    return float(model._avg_quantile(lo, hi))


def quad_avg_quantile(model, lo: float, hi: float) -> float:
    """Mean of ``model.quantile`` over [lo, hi] by adaptive quadrature.

    Ignores any closed form the model has. The integral is taken to 1e-11
    relative or max(1e-13, 1e-11*(hi - lo)) absolute, with the window split
    near the (0, 1) endpoints where heavy-tailed quantiles blow up; raises
    ``QuadratureError`` when the error estimate exceeds 1e-7 (relative
    above 1).
    """
    from scipy.integrate import quad

    _check_window(lo, hi)
    pts = [p for p in (0.01, 0.5, 0.99) if lo < p < hi]
    val, err = quad(
        model.quantile,
        lo,
        hi,
        points=pts or None,
        limit=400,
        epsabs=max(1e-13, 1e-11 * (hi - lo)),
        epsrel=1e-11,
    )
    if err > 1e-7 * max(1.0, abs(val)):
        raise QuadratureError(
            f"quantile quadrature achieved only {err:.3g} on [{lo}, {hi}]",
            achieved=err,
        )
    return val / (hi - lo)


class Reflected:
    """Law of -X for X ~ base. Exact delegation via quantile reflection."""

    def __init__(self, base):
        self.base = base

    @property
    def mean_status(self):
        return {"+inf": "-inf", "-inf": "+inf"}.get(
            self.base.mean_status, self.base.mean_status
        )

    def cdf(self, x):
        # valid at continuity points; quantile-side identities are exact
        return 1.0 - self.base.cdf(-np.asarray(x, dtype=float))

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        out = -self.base.quantile(1.0 - t)
        return float(out) if np.ndim(out) == 0 else out

    def _avg_quantile(self, lo, hi):
        return -avg_quantile(self.base, 1.0 - hi, 1.0 - lo)

    def survival_integral(self, a, b):
        """Integral of P(-X > x) = 1 - P(X >= -x) over [a, b]: the length
        of [a, b] less the base law's survival integral over [-b, -a] (the
        atoms where P(X >= u) and P(X > u) differ have measure zero)."""
        return (b - a) - self.base.survival_integral(-b, -a)


def reflect(model):
    """Law of -X, using an exact representation when one exists."""
    custom = getattr(model, "reflected", None)
    if custom is not None:
        return custom()
    return Reflected(model)


_KIND_BUILDERS = {
    "cauchy": lambda s: Cauchy(scale=float(s.get("scale", 1.0))),
    "uniform": lambda s: Uniform(float(s["a"]), float(s["b"])),
    "pareto": lambda s: Pareto(float(s["shape"]), float(s.get("xm", 1.0))),
    "finite": lambda s: FiniteDiscrete([(float(v), float(p)) for v, p in s["atoms"]]),
    "point": lambda s: point_mass(float(s["value"])),
    "ex01_nu": lambda s: PowerTwoGeometric("positive", int(s.get("truncation_K", 40))),
    "ex01_gamma": lambda s: PowerTwoGeometric("negative", int(s.get("truncation_K", 40))),
    "atom_uniform": lambda s: AtomUniform(
        float(s["atom_x"]), float(s["right_y"]), float(s["atom_weight"])
    ),
}


def model_from_spec(spec: dict):
    """Build a distribution model from its JSON object form."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise DomainError("distribution spec must be an object with a 'kind' field")
    try:
        builder = _KIND_BUILDERS[kind]
    except KeyError:
        raise DomainError(f"unknown distribution kind {kind!r}")
    return builder(spec)
