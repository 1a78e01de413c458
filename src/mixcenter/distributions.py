"""One-dimensional distribution models.

Every model exposes ``cdf``, ``quantile``, ``sample`` and a declared
``mean_status`` in {"finite", "+inf", "-inf", "undefined"}. Continuous
models additionally expose ``pdf`` and ``survival_integral`` (the integral
of 1 - F over an interval, needed by the dual center bound). Quantiles are
generalized inverses, so everything here also works for step cdfs.

Mean status is declared by each model rather than inferred numerically:
detecting tail-integral divergence from samples or quadrature is
unreliable, and the center-bound logic only needs the declaration.

scipy is imported only where quadrature or root finding runs (survival
integrals of Pareto and atom-plus-uniform laws, ``GenericDensity``,
``quad_avg_quantile``), so the closed-form models load with numpy alone.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, QuadratureError

PI = math.pi


def cauchy_quantile(t):
    """Quantile of the standard Cauchy law, tan(pi*(t - 1/2))."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    out = np.tan(PI * (t - 0.5))
    return float(out) if out.ndim == 0 else out


def cauchy_inverse_density(y):
    """Positive x with standard-Cauchy density f(x) = y.

    Defined for y in (0, 1/pi]; y <= 0 returns +inf (the density never
    reaches 0), y > 1/pi is outside the range of f and raises.
    """
    if y > 1.0 / PI + 1e-15:
        raise DomainError(f"density level {y} exceeds the mode value 1/pi")
    if y <= 0.0:
        return math.inf
    return math.sqrt(max(1.0 / (PI * y) - 1.0, 0.0))


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

    kind = "cauchy"
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


class Uniform:
    """Uniform law on [a, b]."""

    kind = "uniform"
    mean_status = "finite"

    def __init__(self, a: float, b: float):
        if not b > a:
            raise DomainError("need a < b")
        self.a, self.b = float(a), float(b)

    @property
    def mean(self):
        return 0.5 * (self.a + self.b)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        out = self.a + (self.b - self.a) * t
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        return self.a + (self.b - self.a) * 0.5 * (lo + hi)

    def survival_integral(self, a, b):
        # survival is 1 below a, linear on [a, b], 0 above b
        total = 0.0
        if a < self.a:
            total += min(b, self.a) - a
        left, right = max(a, self.a), min(b, self.b)
        if right > left:
            ua = (left - self.a) / (self.b - self.a)
            ub = (right - self.a) / (self.b - self.a)
            total += (right - left) - (self.b - self.a) * (ub * ub - ua * ua) / 2.0
        return total

    def sample(self, rng, size):
        return self.a + (self.b - self.a) * rng.random(size)

    def reflected(self):
        return Uniform(-self.b, -self.a)

    def to_spec(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


class Pareto:
    """Pareto law, survival (xm/x)^shape for x >= xm.

    Mean is infinite when shape <= 1, which is what the infinite-mean
    exclusion rule keys on.
    """

    kind = "pareto"

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
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        out = self.xm * (1.0 - t) ** (-1.0 / self.shape)
        return float(out) if out.ndim == 0 else out

    def survival_integral(self, a, b):
        from scipy.integrate import quad

        val, _ = quad(lambda x: 1.0 - self.cdf(x), a, b, limit=200)
        return val

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

    kind = "finite"
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

    @property
    def mean(self):
        return float(np.dot(self.values, self.probs) / self.total_mass)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        idx = np.searchsorted(self._cum, t * self.total_mass, side="left")
        out = self.values[np.minimum(idx, len(self.values) - 1)]
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        # exact integral of the quantile step function over [lo, hi]
        edges = np.concatenate([[0.0], self._cum]) / self.total_mass
        acc = 0.0
        for i, v in enumerate(self.values):
            a = max(lo, float(edges[i]))
            b = min(hi, float(edges[i + 1]))
            if b > a:
                acc += v * (b - a)
        return acc / (hi - lo)

    def survival_integral(self, a, b):
        # survival is a right-continuous step function; integrate exactly
        grid = [a] + [v for v in self.values if a < v < b] + [b]
        total = 0.0
        for lo, hi in zip(grid[:-1], grid[1:]):
            total += (hi - lo) * (self.total_mass - float(self.cdf(lo)))
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

    kind_by_sign = {"positive": "ex01_nu", "negative": "ex01_gamma"}

    def __init__(self, sign: str = "positive", truncation: int = 40):
        if sign not in ("positive", "negative"):
            raise DomainError("sign must be 'positive' or 'negative'")
        if truncation < 1:
            raise DomainError("truncation must be >= 1")
        self.sign = sign
        self.truncation = int(truncation)

    @property
    def kind(self):
        return self.kind_by_sign[self.sign]

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
        """Finite view with mass deficit 2^-(kmax+1)."""
        kmax = self.truncation if kmax is None else kmax
        atoms = [(float(v), float(p)) for v, p in self.pmf_fractions(kmax)]
        return FiniteDiscrete(atoms, total_mass=1.0 - 2.0 ** -(kmax + 1))

    def cdf(self, x):
        return self.truncated(max(self.truncation, 60)).cdf(x)

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
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
        return {"kind": self.kind, "truncation_K": self.truncation}


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
    """Finite mixture of countable power-of-two laws (exact atom merging)."""

    kind = "power_mixture"
    mean_status = "undefined"

    def __init__(self, components):
        # components: [(weight Fraction-able, PowerTwoGeometric)]
        self.components = [(Fraction(w), comp) for w, comp in components]
        if sum(w for w, _ in self.components) != 1:
            raise DomainError("mixture weights must sum to 1 exactly")

    def truncated(self, kmax) -> FiniteDiscrete:
        merged = {}
        deficit = Fraction(0)
        for w, comp in self.components:
            for v, p in comp.pmf_fractions(kmax):
                merged[v] = merged.get(v, Fraction(0)) + w * p
            deficit += w * Fraction(1, 2 ** (kmax + 1))
        atoms = [(float(v), float(p)) for v, p in sorted(merged.items())]
        return FiniteDiscrete(atoms, total_mass=float(1 - deficit))

    def _avg_quantile(self, lo, hi):
        kmax = int(math.ceil(-math.log2(min(1 - hi, lo)))) + 6
        return self.truncated(kmax)._avg_quantile(lo, hi)

    def survival_integral(self, a, b):
        positive = sum(w for w, comp in self.components if comp.sign == "positive")
        return _power_two_survival_integral(self, a, b, float(positive))

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
    uniform-plus-atom slice laws used by the constructive Cauchy mixer.
    """

    kind = "atom_uniform"
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
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        a, lo, hi = self.atom_weight, self.atom_x, self.right_y
        with np.errstate(invalid="ignore", divide="ignore"):
            u = (t - a) / (1.0 - a) if a < 1.0 else np.zeros_like(t)
        out = np.where(t <= a, lo, lo + (hi - lo) * np.clip(u, 0.0, 1.0))
        return float(out) if out.ndim == 0 else out

    def _avg_quantile(self, lo, hi):
        a = self.atom_weight
        x, y = self.atom_x, self.right_y
        acc = 0.0
        if lo < a:
            acc += x * (min(hi, a) - lo)
        if hi > a:
            t0, t1 = max(lo, a), hi
            u0 = (t0 - a) / (1.0 - a)
            u1 = (t1 - a) / (1.0 - a)
            acc += (t1 - t0) * x + (y - x) * (1.0 - a) * (u1 * u1 - u0 * u0) / 2.0
        return acc / (hi - lo)

    def survival_integral(self, a_, b_):
        from scipy.integrate import quad

        val, _ = quad(lambda x: 1.0 - self.cdf(x), a_, b_, limit=200)
        return val

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


# half-width of the sample grids that check a generic density's shape
GENERIC_GRID_HALFWIDTH = 50.0


class GenericDensity:
    """Law given by a symmetric, strictly unimodal density on the real line.

    ``pdf`` need not be normalized; the normalizing constant is computed
    once by quadrature. ``dpdf`` is the derivative of the *unnormalized*
    density. Symmetry about 0 and strict unimodality are verified on a
    sample grid at construction.
    """

    kind = "generic"
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
        g = np.array([self._raw_pdf(x) for x in xs])
        g_neg = np.array([self._raw_pdf(-x) for x in xs])
        if np.max(np.abs(g - g_neg)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise DomainError("density is not symmetric about 0 on the sample grid")
        dg = np.array([self._raw_dpdf(x) for x in xs])
        if np.any(dg >= 0.0):
            raise DomainError("density is not strictly decreasing right of 0")
        dg_neg = np.array([self._raw_dpdf(-x) for x in xs])
        if np.any(dg_neg <= 0.0):
            raise DomainError("density is not strictly increasing left of 0")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self._raw_pdf(float(x)) / self._norm
        return np.array([self._raw_pdf(v) for v in x]) / self._norm

    def dpdf(self, x):
        return self._raw_dpdf(float(x)) / self._norm

    def inverse_pdf(self, y):
        """Positive x with pdf(x) = y, for y in (0, pdf(0)]."""
        from scipy.optimize import brentq

        peak = self.pdf(0.0)
        if y > peak * (1 + 1e-12):
            raise DomainError("density level exceeds the mode value")
        if y <= 0.0:
            return math.inf
        hi = 1.0
        while self.pdf(hi) > y:
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        return brentq(lambda x: self.pdf(x) - y, 0.0, hi, xtol=1e-14, rtol=8.9e-16)

    def cdf(self, x):
        from scipy.integrate import quad

        xs = float(x)
        key = xs
        if key not in self._cdf_cache:
            val, _ = quad(self.pdf, 0.0, abs(xs), limit=400)
            self._cdf_cache[key] = 0.5 + math.copysign(val, xs)
        return self._cdf_cache[key]

    def quantile(self, t):
        from scipy.optimize import brentq

        tf = float(t)
        if not 0.0 < tf < 1.0:
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        if tf == 0.5:
            return 0.0
        hi = 1.0
        while self.cdf(hi) < max(tf, 1.0 - tf):  # symmetric bracket
            hi *= 2.0
            if hi > 1e14:
                break
        lo_x, hi_x = (0.0, hi) if tf > 0.5 else (-hi, 0.0)
        return brentq(lambda x: self.cdf(x) - tf, lo_x, hi_x, xtol=1e-12, rtol=8.9e-16)

    def survival_integral(self, a, b):
        from scipy.integrate import quad

        val, _ = quad(lambda x: 1.0 - self.cdf(x), a, b, limit=400)
        return val

    def sample(self, rng, size):
        return np.array([self.quantile(u) for u in rng.random(size)])


def _check_window(lo: float, hi: float) -> None:
    if not 0.0 < lo < hi < 1.0:
        raise DomainError("need 0 < lo < hi < 1")


def avg_quantile(model, lo: float, hi: float) -> float:
    """Mean of the quantile function of ``model`` over [lo, hi].

    Models with a ``_avg_quantile`` method use it: plateau summation for
    discrete models (after truncation for countable ones), the closed forms
    of the uniform and Cauchy laws, and quantile reflection for
    ``Reflected``. All other models go to ``quad_avg_quantile``, which is
    also the independent oracle that the closed forms are checked against.
    """
    _check_window(lo, hi)
    exact = getattr(model, "_avg_quantile", None)
    if exact is not None:
        return float(exact(lo, hi))
    return quad_avg_quantile(model, lo, hi)


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

    kind = "reflected"

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
