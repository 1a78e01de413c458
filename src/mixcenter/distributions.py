"""One-dimensional distribution models.

Every model exposes ``cdf``, ``quantile``, ``sample`` and a declared
``mean_status`` in {"finite", "+inf", "-inf", "undefined"}. Continuous
models additionally expose ``pdf`` and ``survival_integral`` (the integral
of 1 - F over an interval, needed by the dual center bound). Quantiles are
generalized inverses, so everything here also works for step cdfs.

Mean status is declared by each model rather than inferred numerically:
detecting tail-integral divergence from samples or quadrature is
unreliable, and the center-bound logic only needs the declaration.

Every built-in model has closed-form window averages and survival
integrals. Quadrature runs only in ``GenericDensity``, whose cdf, survival
integral and window average integrate the density times a weight through one
routine, ``GenericDensity._integral``, with no quadrature inside another's
integrand, and in ``quad_avg_quantile`` (the oracle the window averages are
checked against); scipy is imported only there. Root finding is numpy
everywhere: ``_brent_roots`` is the package's one root finder.
"""
from __future__ import annotations

import bisect
import math
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


def cauchy_inverse_density(y):
    """Positive x with standard-Cauchy density f(x) = y, elementwise.

    Defined for y in (0, 1/pi]; y <= 0 gives +inf (the density never
    reaches 0), y > 1/pi is outside the range of f and raises. A scalar
    gives a float.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y > 1.0 / PI + 1e-15):
        raise DomainError(f"density level {np.max(y)} exceeds the mode value 1/pi")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(y <= 0.0, np.inf, np.sqrt(np.maximum(1.0 / (PI * y) - 1.0, 0.0)))
    return float(out) if out.ndim == 0 else out


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
    """Cauchy law with scale ``sigma`` (sigma = 1 is the standard law)."""

    mean_status = "undefined"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise DomainError("scale must be positive")
        self.scale = float(scale)

    def pdf(self, x):
        s = self.scale
        return s / (PI * (s * s + np.asarray(x, dtype=float) ** 2))

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

    def sample(self, rng, size):
        return self.quantile(rng.random(size))

    def reflected(self):
        return self

    def to_spec(self):
        return {"kind": "cauchy", "scale": self.scale}


class Pareto:
    """Pareto law, survival (xm/x)^shape for x >= xm.

    Mean is infinite when shape <= 1, which is what the infinite-mean
    exclusion rule keys on.
    """

    def __init__(self, shape: float, xm: float = 1.0):
        if shape <= 0 or xm <= 0:
            raise DomainError("shape and xm must be positive")
        self.shape, self.xm = float(shape), float(xm)

    @property
    def mean_status(self):
        return "+inf" if self.shape <= 1.0 else "finite"

    @property
    def mean(self):
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.xm / (self.shape - 1.0)

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

    def sample(self, rng, size):
        return self.quantile(rng.random(size))

    def to_spec(self):
        return {"kind": "pareto", "shape": self.shape, "xm": self.xm}


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
        if np.any(probs <= 0):
            raise DomainError("atom probabilities must be positive")
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

    def sample(self, rng, size):
        u = rng.random(size) * self.total_mass
        idx = np.searchsorted(self._cum, u, side="right")
        return self.values[np.minimum(idx, len(self.values) - 1)]

    def reflected(self):
        return FiniteDiscrete(
            zip(-self.values[::-1], self.probs[::-1]), total_mass=self.total_mass
        )

    def to_spec(self):
        return {
            "kind": "finite",
            "atoms": [[float(v), float(p)] for v, p in zip(self.values, self.probs)],
        }


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

    def sample(self, rng, size):
        z = rng.geometric(0.5, size) - 1  # P(z=k) = 2^-(k+1), k >= 0
        if self.sign == "positive":
            return np.exp2(z).astype(float)
        return -np.exp2(z + 1).astype(float)

    def to_spec(self):
        kind = "ex01_nu" if self.sign == "positive" else "ex01_gamma"
        return {"kind": kind, "truncation_K": self.truncation}


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

    def sample(self, rng, size):
        ws = np.array([float(w) for w, _ in self.components])
        which = rng.choice(len(ws), size=size, p=ws)
        out = np.empty(size, dtype=float)
        for i, (_, comp) in enumerate(self.components):
            mask = which == i
            out[mask] = comp.sample(rng, int(mask.sum()))
        return out


class AtomUniform:
    """Mixture of a point mass at ``atom_x`` and a uniform on [atom_x, right_y].

    ``atom_weight`` is the mass of the atom. This is the shape of the
    uniform-plus-atom slice laws used by the constructive Cauchy mixer;
    ``Uniform`` is the law with atom weight 0.
    """

    mean_status = "finite"

    def __init__(self, atom_x: float, right_y: float, atom_weight: float):
        if not right_y > atom_x:
            raise DomainError("need right_y > atom_x")
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

    def sample(self, rng, size):
        u = rng.random(size)
        unif = self.atom_x + (self.right_y - self.atom_x) * rng.random(size)
        return np.where(u < self.atom_weight, self.atom_x, unif)

    def to_spec(self):
        return {
            "kind": "atom_uniform",
            "atom_x": self.atom_x,
            "right_y": self.right_y,
            "atom_weight": self.atom_weight,
        }


class Uniform(AtomUniform):
    """Uniform law on [a, b]: the atom-plus-uniform law without an atom."""

    def __init__(self, a: float, b: float):
        if not b > a:
            raise DomainError("need a < b")
        super().__init__(a, b, 0.0)

    @property
    def a(self):
        return self.atom_x

    @property
    def b(self):
        return self.right_y

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def sample(self, rng, size):
        return self.a + (self.b - self.a) * rng.random(size)

    def reflected(self):
        return Uniform(-self.b, -self.a)

    def to_spec(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


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


# half-width of the sample grids that check a generic density's shape
GENERIC_GRID_HALFWIDTH = 50.0


class GenericDensity:
    """Law given by a symmetric, strictly unimodal density on the real line.

    ``pdf`` need not be normalized; the normalizing constant is computed
    once by quadrature. ``dpdf`` is the derivative of the *unnormalized*
    density, read only by the shape check: symmetry about 0 and strict
    unimodality are verified on a sample grid at construction. ``pdf``,
    ``cdf``, ``inverse_pdf`` and ``quantile`` take a scalar (giving a float)
    or an array (keeping its shape). The cdf, the survival integral (by
    parts) and the window average (by the substitution t = F(x)) are each
    quadratures of the density times a weight, through ``_integral``.
    """

    mean_status = "undefined"

    def __init__(self, pdf, dpdf):
        from scipy.integrate import quad

        self._raw_pdf = pdf
        self._raw_dpdf = dpdf
        z, err = quad(pdf, 0.0, np.inf, limit=400)
        if err > 1e-6 * max(z, 1.0):
            raise QuadratureError("density normalization did not converge", achieved=err)
        self._norm = 2.0 * z
        self._check_shape()
        self._cdf_cache = {}

    def _check_shape(self):
        xs = np.linspace(0.0, GENERIC_GRID_HALFWIDTH, 201)[1:]
        g, g_neg = self._each(self._raw_pdf, xs), self._each(self._raw_pdf, -xs)
        if np.max(np.abs(g - g_neg)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise DomainError("density is not symmetric about 0 on the sample grid")
        if np.any(self._each(self._raw_dpdf, xs) >= 0.0):
            raise DomainError("density is not strictly decreasing right of 0")
        if np.any(self._each(self._raw_dpdf, -xs) <= 0.0):
            raise DomainError("density is not strictly increasing left of 0")

    @staticmethod
    def _each(fn, x):
        """The scalar function ``fn`` at every element of ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return fn(float(x))
        return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    def pdf(self, x):
        return self._each(self._raw_pdf, x) / self._norm

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
        on a short interval. An infinite end is u = 0.
        """
        from scipy.integrate import quad

        def in_u(u):
            x = 1.0 / u
            return weight(x) * self.pdf(x) / (u * u)

        total = 0.0
        if a < -1.0:
            total += quad(in_u, 1.0 / min(b, -1.0), 1.0 / a, limit=400)[0]
        lo, hi = max(a, -1.0), min(b, 1.0)
        if hi > lo:
            total += quad(lambda x: weight(x) * self.pdf(x), lo, hi, limit=400)[0]
        if b > 1.0:
            total += quad(in_u, 1.0 / b, 1.0 / max(a, 1.0), limit=400)[0]
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

    def sample(self, rng, size):
        return self.quantile(rng.random(size))


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

    def sample(self, rng, size):
        return -self.base.sample(rng, size)


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
