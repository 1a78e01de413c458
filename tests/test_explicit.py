"""The explicit mixer: cyclic rows plus block rows symmetric about c.

Its closed forms are checked against independent oracles: the symmetric
remainder rho and its slope in mpmath at 50 digits, straight from the
series of the density's odd part; the t-law M and the radius law G against
quadrature of mu and rho; each inverse table's u-error at mpmath-checked
points.
"""
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mixcenter import cauchy_mix
from mixcenter.cauchy_mix import (
    ConstructiveMixer,
    ExplicitMixer,
    MixerConfig,
    ReflectedMixer,
    build_mixer,
)
from mixcenter.distributions import Cauchy
from mixcenter.errors import ConstructionError, DomainError
from mixcenter.seeding import substream
from mixcenter.verify import explicit_row_checks, ks_distance, ks_threshold

PI = math.pi


def endpoint(n):
    return math.log(n - 1) / PI


@functools.lru_cache(maxsize=None)
def c_sym(n):
    """The largest c the admissibility check accepts, by bisection."""
    lo, hi = 0.0, endpoint(n)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if cauchy_mix._ExplicitGrid(Cauchy(), n, mid).admissible:
            lo = mid
        else:
            hi = mid
    return lo


# c_sym(n) as the check reads it on its grid, pinned; rho in mpmath puts the
# edge between 0.999 and 1.001 of it
C_SYM = {3: 0.22059183540787, 4: 0.34444035391659, 10: 0.52808671442266, 100: 0.60756758193302}


def _mp_rho(n, c, x):
    """rho(x) = f(c + x) - mu(x/q) / (n q) at 50 digits, mu summed from its
    definition down to arguments below 1e-40, where its terms are below
    1e-80 of the first."""
    with mpmath.workdps(50):
        c, x, q = mpmath.mpf(c), mpmath.mpf(x), mpmath.mpf(n - 1)

        def f(y):
            return 1 / (mpmath.pi * (1 + y * y))

        y, mu, weight = x / q, mpmath.mpf(0), mpmath.mpf(1)
        while y > 1e-40:
            mu += weight * (f(c - y) - f(c + y))
            y, weight = y / q, weight / (q * q)
        return f(c + x) - n / (n - 1) * mu / (n * q)


def _mp_slope(n, c, x):
    """rho'(x) = f'(c + x) - mu'(x/q) / (n q^2) at 50 digits, mu' the series
    of D'(y) = -f'(c - y) - f'(c + y)."""
    with mpmath.workdps(50):
        c, x, q = mpmath.mpf(c), mpmath.mpf(x), mpmath.mpf(n - 1)

        def slope(y):
            return -2 * y / (mpmath.pi * (1 + y * y) ** 2)

        y, mu, weight = x / q, mpmath.mpf(0), mpmath.mpf(1)
        while y > 1e-40:
            mu += weight * (-slope(c - y) - slope(c + y))
            y, weight = y / q, weight / (q * q * q)
        return slope(c + x) - n / (n - 1) * mu / (n * q * q)


def _mp_cdfs(n, c, x):
    """(M(x)/P, G(x)) at 50 digits: M from int_0^a D = 2F(c) - F(c - a) -
    F(c + a) summed as its series, G = (2 int_0^x rho - 2x rho(x)) / (1 - P)."""
    with mpmath.workdps(50):
        c, x, q = mpmath.mpf(c), mpmath.mpf(x), mpmath.mpf(n - 1)

        def big_f(y):
            return mpmath.mpf(1) / 2 + mpmath.atan(y) / mpmath.pi

        def m_law(y):
            total, weight = mpmath.mpf(0), mpmath.mpf(1)
            while y > 1e-30:
                total += weight * (2 * big_f(c) - big_f(c - y) - big_f(c + y))
                y, weight = y / q, weight / q
            return n / (n - 1) * total

        p = n / mpmath.mpf(n - 2) * (2 * big_f(c) - 1)
        rho_int = big_f(c + x) - big_f(c) - m_law(x / q) / n
        g = (2 * rho_int - 2 * x * _mp_rho(n, c, x)) / (1 - p)
        return m_law(x) / p, g


class TestAdmissibility:
    @pytest.mark.parametrize("n", [4, 10])
    def test_refuses_just_past_c_sym_and_accepts_just_below(self, n):
        cs = c_sym(n)
        assert isinstance(build_mixer(MixerConfig(n=n, c=0.999 * cs, t_grid=256)), ExplicitMixer)
        past = build_mixer(MixerConfig(n=n, c=1.001 * cs, t_grid=256))
        assert isinstance(past, ConstructiveMixer)
        with pytest.raises(DomainError, match="outside the explicit range"):
            ExplicitMixer(MixerConfig(n=n, c=1.001 * cs))

    @pytest.mark.parametrize("n", sorted(C_SYM))
    def test_c_sym_pinned_against_mpmath(self, n):
        cs = c_sym(n)
        assert cs == pytest.approx(C_SYM[n], rel=1e-11)
        # just past the edge (at n = 3 that is the interval's end) the check
        # names an x where rho' > 0 at 50 digits
        past = min(1.001 * cs, endpoint(n))
        grid = cauchy_mix._ExplicitGrid(Cauchy(), n, past)
        assert not grid.admissible
        assert _mp_slope(n, past, grid.worst) > 0
        # just below it, rho > 0 and rho' < 0 over a period around that x
        for s in grid.worst * (n - 1) ** np.linspace(-0.5, 0.5, 7):
            assert _mp_rho(n, 0.999 * cs, s) > 0
            assert _mp_slope(n, 0.999 * cs, s) < 0

    def test_check_reads_rational_forms_only(self, monkeypatch):
        # the decision must not move with numpy's arctan, log or exp
        def refuse(*args, **kwargs):
            raise AssertionError("the check called a transcendental function")

        for name in ("arctan", "log", "exp"):
            monkeypatch.setattr(np, name, refuse)
        assert cauchy_mix._ExplicitGrid(Cauchy(), 3, 0.15).admissible
        assert not cauchy_mix._ExplicitGrid(Cauchy(), 10, endpoint(10)).admissible

    def test_generic_kernel_keeps_the_slice_mixer(self):
        from mixcenter.anchors import cauchy_like_density
        mixer = build_mixer(MixerConfig(n=3, c=0.15, t_grid=64, tail_eps=5e-2),
                            cauchy_like_density())
        assert isinstance(mixer, ConstructiveMixer)


@functools.lru_cache(maxsize=None)
def _mixer(n, c):
    return ExplicitMixer(MixerConfig(n=n, c=c))


CONFIGS = [(3, 0.15), (4, 0.9 * endpoint(4)), (10, 0.5 * endpoint(10))]


def _mu_direct(n, c, x):
    """mu(x) by 80 terms of its series, D as a difference of densities."""
    f = Cauchy().pdf
    q = n - 1.0
    y = x / q ** np.arange(80)
    return n / (n - 1) * float(np.sum(q ** (-2.0 * np.arange(80)) * (f(c - y) - f(c + y))))


class TestClosedForms:
    @pytest.mark.parametrize("n,c", CONFIGS)
    def test_cyclic_fraction_is_the_mass_of_mu(self, n, c):
        # quadrature of mu over decades of [0, 1e8], plus its tail, where
        # x^2 mu is n c / ((n - 1) log(n - 1)) to 2%
        edges = [0.0] + [10.0 ** k for k in range(-2, 9)]
        mass = sum(quad(lambda x: _mu_direct(n, c, x), a, b, limit=200, epsabs=1e-13)[0]
                   for a, b in zip(edges[:-1], edges[1:]))
        mass += n * c / ((n - 1) * math.log(n - 1)) / edges[-1]
        assert _mixer(n, c).cyclic_fraction == pytest.approx(mass, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("n,c", CONFIGS)
    def test_t_law_and_radius_law_match_quadrature(self, n, c):
        mixer = _mixer(n, c)
        p = mixer.cyclic_fraction
        f = Cauchy().pdf

        def rho(x):
            return f(c + x) - _mu_direct(n, c, x / (n - 1)) / (n * (n - 1))

        for x in (0.01, 0.3, 1.0, 5.0, 40.0, 1e3):
            m = quad(lambda s: _mu_direct(n, c, s), 0.0, x, limit=200, epsabs=1e-14)[0]
            assert mixer.t_cdf(x)[0] == pytest.approx(m / p, rel=0, abs=1e-9)
            r = quad(rho, 0.0, x, limit=200, epsabs=1e-14)[0]
            g = (2.0 * r - 2.0 * x * rho(x)) / (1.0 - p)
            assert mixer.radius_cdf(np.array([x]))[0] == pytest.approx(g, rel=0, abs=1e-9)

    @pytest.mark.parametrize("n,c", [(3, 0.15), (10, 0.5 * endpoint(10))])
    def test_table_u_error_below_its_recorded_bound(self, n, c):
        # points inside each table, below its first knot and past its last
        mixer = _mixer(n, c)
        v = np.array([1e-17, 1e-12, 1e-6, 0.003, 0.1, 0.37, 0.5, 0.81, 0.99,
                      1 - 1e-6, 1 - 1e-9, 1 - 1e-11, 1 - 1e-14])
        for table, name, which in ((mixer._t_of_v, "t", 0), (mixer._r_of_w, "radius", 1)):
            x = table(v)
            assert np.all(np.diff(x) > 0)
            for vi, xi in zip(v, x):
                exact = _mp_cdfs(n, c, xi)[which]
                assert abs(float(exact) - vi) <= mixer.u_error[name], (name, vi)
            assert mixer.u_error[name] < 1e-6

    @pytest.mark.parametrize("n", [3, 10])
    def test_laws_at_a_tiny_center_are_their_limits(self, n):
        # the forms divided by c keep c = 1e-300 normal: the t-law is its
        # c -> 0 limit, D/c = 4x / (pi (1 + x^2)^2) summed as its series,
        # and G is the c = 0 radius law
        mixer = _mixer(n, 1e-300)
        q = n - 1.0
        for x in (0.02, 1.0, 30.0, 4e4):
            a = x / q ** np.arange(120)
            m = n / (n - 1) * np.sum(q ** -np.arange(120.0) * (2 / PI) * a * a / (1 + a * a))
            assert mixer.t_cdf(x)[0] == pytest.approx(m / (n / (n - 2) * 2 / PI), rel=1e-12)
            assert mixer.radius_cdf(np.array([x]))[0] == pytest.approx(
                Cauchy().radius_cdf(x), rel=1e-12)


class TestRows:
    @pytest.mark.parametrize("n,c", [*CONFIGS, (5, 0.3)])
    def test_row_sums_within_their_bound(self, n, c):
        batch = build_mixer(MixerConfig(n=n, c=c)).sample(20_000, substream(3, "explicit", str(n)))
        dev = np.abs(batch.row_sums() - n * c)
        assert np.all(dev <= batch.row_bound)
        assert np.all(dev <= cauchy_mix._exact_row_bound(
            n, c + batch.t * np.where(batch.branch == 1, n - 1, 1)))
        assert set(np.unique(batch.branch)) == {1, 4}

    def test_cyclic_rows_hold_their_pattern(self):
        batch = _mixer(4, 0.3).sample(2000, substream(4, "pattern"))
        cyc = batch.values[batch.branch == 1]
        t = batch.t[batch.branch == 1]
        high = np.sort(cyc, axis=1)
        assert np.all(high[:, :3] == (0.3 - t)[:, None])
        assert np.all(high[:, 3] == 0.3 + 3 * t)

    @pytest.mark.parametrize("n,c", CONFIGS)
    def test_reflection_row_by_row(self, n, c):
        pos = build_mixer(MixerConfig(n=n, c=c))
        neg = build_mixer(MixerConfig(n=n, c=-c))
        assert isinstance(neg, ReflectedMixer) and isinstance(neg.base, ExplicitMixer)
        a = pos.sample(3000, substream(9, "reflect"))
        b = neg.sample(3000, substream(9, "reflect"))
        assert b.values.tobytes() == (-a.values).tobytes()
        assert b.row_bound.tobytes() == a.row_bound.tobytes()
        assert b.target_sum == -a.target_sum

    def test_chunks_change_no_byte(self, monkeypatch):
        want = _mixer(3, 0.15).sample(1000, substream(2, "chunks"))
        monkeypatch.setattr(cauchy_mix, "_DRAW_CHUNK_ROWS", 7)
        got = _mixer(3, 0.15).sample(1000, substream(2, "chunks"))
        for name in ("values", "t", "branch", "row_bound"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_construction_checks_pass(self):
        mixer = _mixer(3, 0.15)
        batch = mixer.sample(50_000, substream(5, "construction"))
        rows = explicit_row_checks(mixer, batch.t, batch.branch)
        assert [r.name for r in rows] == ["cyclic_t_law_ks", "radius_law_ks",
                                          "cyclic_branch_count"]
        assert all(r.passed for r in rows), rows


class TestCenterNearZero:
    @pytest.mark.parametrize("c", [1e-40, 1e-300])
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_builds_and_draws_exact_rows(self, n, c):
        mixer = build_mixer(MixerConfig(n=n, c=c))
        assert isinstance(mixer, ExplicitMixer)
        batch = mixer.sample(10_000, substream(6, "tiny", str(n)))
        assert np.all(np.abs(batch.row_sums() - n * c) <= batch.row_bound)
        lim = 0.01 + ks_threshold(10_000)
        for j in range(n):
            assert ks_distance(batch.values[:, j], Cauchy().cdf) <= lim
        assert all(r.passed for r in explicit_row_checks(mixer, batch.t, batch.branch))

    def test_slice_mixer_keeps_its_limit(self):
        # built directly, the slice mixer still cannot resolve such a center
        with pytest.raises(ConstructionError, match="too coarse"):
            ConstructiveMixer(MixerConfig(n=3, c=1e-40))
