import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcenter import discrete_mix
from mixcenter.anchors import ex01_symmetrized_marginal
from mixcenter.discrete_mix import (
    Coupling,
    enumerate_centers,
    exchangeable_permute,
    feasible_center,
    zero_one_couplings,
)
from mixcenter.distributions import FiniteDiscrete, point_mass
from mixcenter.errors import DomainError, SizeError


def two_point_third():
    # (delta_0 + 2 delta_1) / 3
    return FiniteDiscrete([(0.0, 1.0 / 3), (1.0, 2.0 / 3)])


def brute_force_pair_feasible(m1, m2, center, tol=1e-9):
    """Independent oracle for n = 2: Gale/Hall condition on the bipartite
    graph of support pairs summing to the center (exact rationals)."""
    p = {float(v): Fraction(pr) for v, pr in zip(m1.values, m1.probs)}
    q = {float(v): Fraction(pr) for v, pr in zip(m2.values, m2.probs)}
    neighbors = {
        a: {b for b in q if abs(a + b - center) <= tol} for a in p
    }
    if any(not nb for nb in neighbors.values()):
        return False
    for r in range(1, len(p) + 1):
        for subset in itertools.combinations(p, r):
            mass = sum(p[a] for a in subset)
            reach = set().union(*(neighbors[a] for a in subset))
            if mass > sum(q[b] for b in reach):
                return False
    return True


class TestFeasibleCenter:
    def test_two_point_family_triple(self):
        m = two_point_third()
        res = feasible_center([m, m, m], 2.0)
        assert res.feasible
        res.coupling.validate(marginals=[m, m, m], center=2.0)

    def test_two_point_family_other_candidates(self):
        m = two_point_third()
        for c in (0.0, 1.0, 3.0):
            assert not feasible_center([m, m, m], c).feasible

    def test_bernoulli_pair_always_infeasible(self):
        bern = FiniteDiscrete([(0.0, 0.7), (1.0, 0.3)])
        for c in (0.0, 1.0, 2.0):
            res = feasible_center([bern, bern], c)
            assert res.verdict == "infeasible"

    def test_degenerate_triple(self):
        pm = point_mass(0.5)
        assert feasible_center([pm] * 3, 1.5).feasible
        assert not feasible_center([pm] * 3, 1.0).feasible

    def test_farkas_certificate(self):
        bern = FiniteDiscrete([(0.0, 0.7), (1.0, 0.3)])
        res = feasible_center([bern, bern], 1.0)
        assert res.dual is not None
        # y separates: y.b > 0 while y^T column <= 0 on every slice tuple
        y = dict(zip([(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)], res.dual))
        assert sum(y[(i, v)] * p for i, m in enumerate([bern, bern])
                   for v, p in zip(m.values, m.probs)) > 0
        for tup in [(0.0, 1.0), (1.0, 0.0)]:
            assert sum(y[(i, v)] for i, v in enumerate(tup)) <= 1e-12

    def test_exact_mode_matches_float(self):
        m = two_point_third()
        for c in (0.0, 1.0, 2.0, 3.0):
            assert feasible_center([m, m, m], c, exact=True).feasible == \
                feasible_center([m, m, m], c).feasible

    def test_exact_mode_weights_are_fractions(self):
        m = two_point_third()
        res = feasible_center([m, m, m], 2.0, exact=True)
        assert all(isinstance(w, Fraction) for w in res.coupling.weights)
        assert sum(res.coupling.weights) == 1

    def test_borderline_verdict(self):
        delta = 2e-9
        a = FiniteDiscrete([(0.0, 0.5 + delta), (1.0, 0.5 - delta)])
        b = FiniteDiscrete([(0.0, 0.5 - delta), (1.0, 0.5 + delta)])
        res = feasible_center([a, b], 0.99999999999, tol=1e-13)
        assert res.verdict == "infeasible"
        res2 = feasible_center([a, a], 1.0, tol=1e-9)
        assert res2.verdict == "borderline"

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(25):
            k = int(rng.integers(2, 5))
            vals = sorted(rng.choice(np.arange(-3, 4), size=k, replace=False))
            # dyadic probabilities sum to one exactly in floats
            weights = _dyadic_partition(rng, k)
            m1 = FiniteDiscrete([(float(v), w) for v, w in zip(vals, weights)])
            k2 = int(rng.integers(2, 5))
            vals2 = sorted(rng.choice(np.arange(-3, 4), size=k2, replace=False))
            m2 = FiniteDiscrete(
                [(float(v), w) for v, w in zip(vals2, _dyadic_partition(rng, k2))]
            )
            center = float(rng.choice(vals)) + float(rng.choice(vals2))
            got = feasible_center([m1, m2], center).feasible
            want = brute_force_pair_feasible(m1, m2, center)
            assert got == want
            agree += 1
        assert agree == 25

    def test_float_vs_exact_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            marginals = []
            for _ in range(3):
                k = int(rng.integers(2, 4))
                vals = sorted(rng.choice(np.arange(-2, 3), size=k, replace=False))
                marginals.append(
                    FiniteDiscrete(
                        [(float(v), w) for v, w in zip(vals, _dyadic_partition(rng, k))]
                    )
                )
            center = float(sum(rng.choice(m.values) for m in marginals))
            assert (
                feasible_center(marginals, center).feasible
                == feasible_center(marginals, center, exact=True).feasible
            )

    def test_uniform_k25_triple_feasible(self):
        # 469 slice columns; the float path used to stop at an iteration guard
        k = 25
        m = FiniteDiscrete([(float(v), 1.0 / k) for v in range(k)])
        res = feasible_center([m, m, m], 36.0)
        assert res.verdict == "feasible"
        res.coupling.validate(marginals=[m, m, m], center=36.0)

    def test_uniform_k15_triple_exact(self, monkeypatch):
        # 169 slice columns at the forced center 21, 168 at 22
        k = 15
        m = FiniteDiscrete([(float(v), 1.0 / k) for v in range(k)])
        checked = []
        check_farkas = discrete_mix._check_farkas

        def spy(y, cells, b, tol):
            check_farkas(y, cells, b, tol)
            checked.append((y, cells, b, tol))

        monkeypatch.setattr(discrete_mix, "_check_farkas", spy)
        res = feasible_center([m, m, m], 21.0, exact=True)
        assert res.verdict == feasible_center([m, m, m], 21.0).verdict == "feasible"
        assert all(isinstance(w, Fraction) for w in res.coupling.weights)
        assert sum(res.coupling.weights) == 1
        res.coupling.validate(marginals=[m, m, m], center=21.0)
        checked.clear()
        res = feasible_center([m, m, m], 22.0, exact=True)
        assert res.verdict == "infeasible"
        # the rational dual passed _check_farkas at tolerance 0; check it
        # again here, column by column
        [(y, cells, b, tol)] = checked
        assert tol == 0 and all(isinstance(v, Fraction) for v in (*y, *b))
        assert all(sum(y[r] for r in row) <= 0 for row in cells)
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
        assert feasible_center([m, m, m], 22.0).verdict == "infeasible"

    def test_bogus_dual_rejected(self, monkeypatch):
        bern = FiniteDiscrete([(0.0, 0.7), (1.0, 0.3)])
        honest = feasible_center([bern, bern], 1.0)
        assert honest.verdict == "infeasible"
        for bogus in ([1.0, 1.0, 1.0, 1.0],       # y.A = 2 on every column
                      [0.0, 0.0, 0.0, 0.0]):      # y.b = 0
            monkeypatch.setattr(discrete_mix, "_phase1_float",
                                lambda cells, b, y=bogus: (honest.residual,
                                                           np.zeros(len(cells)), np.array(y)))
            with pytest.raises(DomainError, match="certificate"):
                feasible_center([bern, bern], 1.0)

    def test_infeasible_duals_are_certificates(self):
        m = two_point_third()
        for c in (0.0, 1.0, 3.0, 0.5):   # 0.5: empty slice, no columns
            for exact in (False, True):
                res = feasible_center([m, m, m], c, exact=exact)
                assert res.verdict == "infeasible" and res.dual is not None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_float_exact_brute_force_agree(self, data):
        n = data.draw(st.integers(2, 3), label="n")
        marginals = []
        for _ in range(n):
            vals = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4,
                                      unique=True), label="values")
            weights = data.draw(st.lists(st.integers(1, 8), min_size=len(vals),
                                         max_size=len(vals)), label="weights")
            # dyadic probabilities: exact in floats and in the rational mode
            total = 2 ** max(1, (sum(weights) - 1).bit_length())
            weights[-1] += total - sum(weights)
            marginals.append(FiniteDiscrete([(float(v), w / total)
                                             for v, w in zip(vals, weights)]))
        center = float(sum(data.draw(st.sampled_from(list(m.values)), label="atom")
                           for m in marginals))
        fast = feasible_center(marginals, center)
        ref = feasible_center(marginals, center, exact=True)
        assert fast.verdict == ref.verdict
        if n == 2:
            assert fast.feasible == brute_force_pair_feasible(*marginals, center)
        if fast.feasible:
            fast.coupling.validate(marginals=marginals, center=center)

    def test_size_guard(self):
        big = FiniteDiscrete([(float(v), 1.0 / 200) for v in range(200)])
        with pytest.raises(SizeError):
            feasible_center([big, big, big], 300.0, tol=1e9)

    def test_size_guard_memory(self):
        # the guard fires before the 200^3 grid is built: its sums alone
        # would take 64 MB
        big = FiniteDiscrete([(float(v), 1.0 / 200) for v in range(200)])
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="variable guard"):
                feasible_center([big, big, big], 300.0, tol=1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 ** 3 * 8 / 2

    def test_uniform_k21_triple_exact(self, monkeypatch):
        # 331 slice columns at the forced center 30, 330 at 31; both
        # certificates are checked again here in rationals
        k = 21
        m = FiniteDiscrete([(float(v), 1.0 / k) for v in range(k)])
        res = feasible_center([m, m, m], 30.0, exact=True)
        assert res.verdict == "feasible" and res.candidates == 331
        weights, support = res.coupling.weights, res.coupling.support
        assert all(isinstance(w, Fraction) and w > 0 for w in weights)
        assert sum(weights) == 1
        assert all(sum(Fraction(v) for v in row) == 30 for row in support)
        for i in range(3):
            assert res.coupling.marginal(i) == {float(v): Fraction(1, k) for v in range(k)}
        checked = []
        check_farkas = discrete_mix._check_farkas

        def spy(y, cells, b, tol):
            check_farkas(y, cells, b, tol)
            checked.append((y, cells, b, tol))

        monkeypatch.setattr(discrete_mix, "_check_farkas", spy)
        res = feasible_center([m, m, m], 31.0, exact=True)
        assert res.verdict == "infeasible" and res.candidates == 330
        [(y, cells, b, tol)] = checked
        assert tol == 0 and all(isinstance(v, Fraction) for v in (*y, *b))
        assert all(sum(y[r] for r in row) <= 0 for row in cells)
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def _slice_tuples(marginals, center, tol):
    """The sum slice enumerated one tuple at a time, prefix by prefix: the
    reference for the sumset of ``discrete_mix._slice_cells``."""
    values = [list(m.values) for m in marginals]
    tuples = [((), 0.0)]
    start = 0
    for i, vals in enumerate(values):
        rest_min = sum(min(v) for v in values[i + 1:])
        rest_max = sum(max(v) for v in values[i + 1:])
        nxt = []
        for prefix, acc in tuples:
            for r, v in enumerate(vals, start):
                s = acc + v
                if s + rest_min <= center + tol and s + rest_max >= center - tol:
                    nxt.append((prefix + (r,), s))
        tuples = nxt
        start += len(vals)
    cells = [prefix for prefix, acc in tuples if abs(acc - center) <= tol]
    return np.array(cells, dtype=np.intp).reshape(len(cells), len(values))


class TestSliceSumset:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_tuple_enumeration(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        marginals = []
        for _ in range(n):
            vals = data.draw(st.lists(st.one_of(st.integers(-5, 5).map(float),
                                                st.floats(-5.0, 5.0, allow_subnormal=False)),
                                      min_size=1, max_size=6, unique=True), label="values")
            marginals.append(FiniteDiscrete([(v, 1.0 / len(vals)) for v in vals],
                                            total_mass=len(vals) * (1.0 / len(vals))))
        center = sum(data.draw(st.sampled_from(list(m.values)), label="atom")
                     for m in marginals)
        center += data.draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.25]), label="offset")
        tol = data.draw(st.sampled_from([0.0, 1e-9, 0.3]), label="tol")
        got = discrete_mix._slice_cells(marginals, center, tol)
        want = _slice_tuples(marginals, center, tol)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()

    def test_guard_counts_every_survivor(self, monkeypatch):
        # 10^3 tuples survive at tol 1e9, more than a guard of 999
        m = FiniteDiscrete([(float(v), 0.1) for v in range(10)])
        monkeypatch.setattr(discrete_mix, "VARIABLE_GUARD", 1000)
        assert len(discrete_mix._slice_cells([m, m, m], 13.5, 1e9)) == 1000
        monkeypatch.setattr(discrete_mix, "VARIABLE_GUARD", 999)
        with pytest.raises(SizeError):
            discrete_mix._slice_cells([m, m, m], 13.5, 1e9)


def _dense_phase1_exact(A_rows, b):
    """The phase-1 simplex on a Fraction tableau with Bland's rule and a
    dense pivot: every tableau entry is rewritten at every pivot. The
    reference for the integer tableau of ``discrete_mix._phase1_exact``."""
    m = len(A_rows)
    k = len(A_rows[0]) if m else 0
    zero, one = Fraction(0), Fraction(1)
    T = [[Fraction(v) for v in row] + [zero] * m + [bi] for row, bi in zip(A_rows, b)]
    for i in range(m):
        T[i][k + i] = one
    obj = [-sum(T[i][j] for i in range(m)) for j in range(k + m + 1)]
    for j in range(m):
        obj[k + j] = zero
    basis = list(range(k, k + m))
    for _ in range(50000):
        enter = -1
        for j in range(k + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        best, leave = None, -1
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b2 for a, b2 in zip(T[i], T[leave])]
        f = obj[enter]
        if f != 0:
            obj = [a - f * b2 for a, b2 in zip(obj, T[leave])]
        basis[leave] = enter
    objective = -obj[-1]
    x = [zero] * k
    for i, var in enumerate(basis):
        if var < k:
            x[var] = T[i][-1]
    y = [-(obj[k + j] - one) for j in range(m)]
    return objective, x, y


class TestExactSimplexIntegerTableau:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_fraction_tableau(self, data):
        # n integer-weight marginals on {0, ..., k-1}, the projections of a
        # coupling drawn on the slice v1 + ... + vn = C: C is a center (the
        # coupling) and C + 1 is not (the means sum to C). The weights
        # have any integer total, so the probabilities are not dyadic.
        n = data.draw(st.integers(3, 4), label="n")
        k = data.draw(st.integers(2, 8 if n == 3 else 5), label="k")
        center = data.draw(st.integers(k - 1, (n - 1) * (k - 1)), label="C")
        slice_ = [(*head, center - sum(head))
                  for head in itertools.product(range(k), repeat=n - 1)
                  if 0 <= center - sum(head) < k]
        rows = data.draw(st.lists(st.tuples(st.sampled_from(slice_), st.integers(1, 9)),
                                  min_size=1, max_size=10), label="rows")
        total = sum(w for _, w in rows)
        marginals = []
        for i in range(n):
            mass = {}
            for tup, w in rows:
                mass[tup[i]] = mass.get(tup[i], 0) + w
            marginals.append(FiniteDiscrete([(float(v), w / total) for v, w in mass.items()]))
        calls = []
        integer_tableau = discrete_mix._phase1_exact

        def spy(cells, b):
            out = integer_tableau(cells, b)
            # the oracle's dense rows: A_rows[r][j] counts r in cells[j]
            A_rows = [[list(row).count(r) for row in cells] for r in range(len(b))]
            calls.append(((A_rows, b), out))
            return out

        discrete_mix._phase1_exact = spy
        try:
            verdicts = [feasible_center(marginals, float(c), exact=True).verdict
                        for c in (center, center + 1)]
        finally:
            discrete_mix._phase1_exact = integer_tableau
        assert verdicts == ["feasible", "infeasible"]
        assert calls
        for args, (objective, x, y) in calls:
            assert all(isinstance(v, Fraction) for v in (objective, *x, *y))
            assert (objective, x, y) == _dense_phase1_exact(*args)


class _OuterSpy:
    """Stands in for numpy in ``discrete_mix`` and records the dtype of
    the tableau column that each pivot's ``np.outer`` receives."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def outer(self, a, b):
        self.dtypes.append(a.dtype)
        return np.outer(a, b)


def _dense_args(cells, b):
    return [[list(row).count(r) for row in cells] for r in range(len(b))], b


class TestExactSimplexPythonInts:
    """The integer tableau past int64: Python ints from the start, or from
    the pivot where the overflow check first fails, with the Fraction
    tableau as the oracle."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_large_denominators_start_in_python_ints(self, data):
        # three marginals on {0, 1, 2} whose probabilities have unrelated
        # denominators near 1e11, so the scaled right-hand side is past int64
        b = []
        for _ in range(3):
            weights = data.draw(st.lists(st.integers(1, 10 ** 11), min_size=3, max_size=3),
                                label="weights")
            b += [Fraction(w, sum(weights)) for w in weights]
        D = math.lcm(*(bi.denominator for bi in b))
        assume(sum(int(bi * D) for bi in b) >= discrete_mix._INT64_LIMIT)
        m = FiniteDiscrete([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        center = data.draw(st.integers(1, 5), label="center")
        cells = discrete_mix._slice_cells([m, m, m], float(center), 0.0)
        spy = _OuterSpy()
        discrete_mix.np = spy
        try:
            got = discrete_mix._phase1_exact(cells, b)
        finally:
            discrete_mix.np = np
        assert spy.dtypes and all(dt == object for dt in spy.dtypes)
        assert got == _dense_phase1_exact(*_dense_args(cells, b))

    @pytest.mark.parametrize("center", [12.0, 13.0])
    def test_switch_mid_solve(self, monkeypatch, center):
        # uniform on {0, ..., 8}, three times: a limit of 2^10 lets the first
        # pivots run in int64 and stops them once the entries grow
        marginals = [FiniteDiscrete([(float(v), 1.0 / 9) for v in range(9)])] * 3
        cells = discrete_mix._slice_cells(marginals, center, 0.0)
        b = [Fraction(float(p)).limit_denominator(10 ** 12) for m in marginals for p in m.probs]
        spy = _OuterSpy()
        monkeypatch.setattr(discrete_mix, "_INT64_LIMIT", 2 ** 10)
        monkeypatch.setattr(discrete_mix, "np", spy)
        got = discrete_mix._phase1_exact(cells, b)
        assert spy.dtypes[0] == np.int64 and spy.dtypes[-1] == object
        assert got == _dense_phase1_exact(*_dense_args(cells, b))


def _dyadic_partition(rng, k, total=16):
    cuts = sorted(rng.choice(np.arange(1, total), size=k - 1, replace=False))
    parts = np.diff([0, *cuts, total])
    return [p / total for p in parts]


class TestExactProbs:
    def test_uniform_like_marginal_decides(self):
        # the nearest fractions with denominator up to 1e12 do not sum to 1
        # here; the fractions with denominator up to 1e6 are w/100003
        weights = (33331, 33337, 33335)
        m = FiniteDiscrete([(float(v), w / 100003) for v, w in enumerate(weights)])
        res = feasible_center([m, m, m], 3.0, exact=True)
        assert res.verdict == "infeasible"
        assert feasible_center([m, m, m], 3.0).verdict == "infeasible"
        assert discrete_mix._exact_probs([w / 100003 for w in weights]) == \
            [Fraction(w, 100003) for w in weights]

    @settings(max_examples=200, deadline=None)
    @given(total=st.integers(2, 10 ** 5), data=st.data())
    def test_reconstructs_w_over_W(self, total, data):
        cuts = data.draw(st.lists(st.integers(1, total - 1), max_size=5, unique=True))
        edges = [0, *sorted(cuts), total]
        weights = [hi - lo for lo, hi in zip(edges, edges[1:])]
        got = discrete_mix._exact_probs([w / total for w in weights])
        assert got == [Fraction(w, total) for w in weights]

    def test_unreconstructible_raises(self):
        with pytest.raises(DomainError, match="reconstruct"):
            discrete_mix._exact_probs([0.3, 0.3, 0.3])


class TestEnumerateCenters:
    def test_two_point_family(self):
        m = two_point_third()
        cs = enumerate_centers([m, m, m])
        assert cs.centers == [2.0]
        assert 2.0 in cs.certificates

    def test_degenerate(self):
        cs = enumerate_centers([point_mass(1.0)] * 3)
        assert cs.centers == [3.0]

    def test_two_sided_uniform_pair(self):
        u = FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)])
        cs = enumerate_centers([u, u])
        assert cs.centers == [0.0]

    def test_centers_within_jm_bounds(self):
        m = two_point_third()
        cs = enumerate_centers([m, m, m])
        # all returned centers were pre-filtered by the window bounds
        assert cs.candidates_examined <= 4


class TestZeroOneCouplings:
    def test_row_sums_exact(self):
        mix_x, mix_y = zero_one_couplings(20)
        assert set(mix_x.row_sums()) == {0}
        assert set(mix_y.row_sums()) == {1}

    def test_residual_mass(self):
        mix_x, mix_y = zero_one_couplings(20)
        assert mix_x.residual == Fraction(1, 2 ** 21)
        assert sum(mix_x.weights) == 1 - Fraction(1, 2 ** 21)
        assert sum(mix_y.weights) == 1 - Fraction(1, 2 ** 21)

    def test_atom_one_identities(self):
        mix_x, mix_y = zero_one_couplings(20)
        assert mix_x.marginal(0)[1] == Fraction(1, 2)
        # the truncated second coupling holds all but the residual's half
        assert mix_y.marginal(0)[1] + mix_y.residual / 2 == Fraction(1, 2)

    def test_power_atoms_agree_exactly(self):
        mix_x, mix_y = zero_one_couplings(20)
        for k in range(1, 21):
            expected = Fraction(1, 2 ** (k + 1))
            assert mix_x.marginal(0)[2 ** k] == expected
            assert mix_y.marginal(0)[2 ** k] == expected
            assert mix_x.marginal(1)[2 ** k] == expected
            assert mix_y.marginal(1)[2 ** k] == expected

    def test_third_marginals_identical(self):
        mix_x, mix_y = zero_one_couplings(12)
        assert mix_x.marginal(2) == mix_y.marginal(2)

    def test_symmetrized_mixture_marginal(self):
        mix_x, _ = zero_one_couplings(20)
        sym = exchangeable_permute(mix_x)
        expected = ex01_symmetrized_marginal(20)
        for i in range(3):
            assert sym.marginal(i) == expected


class TestExchangeablePermute:
    def test_symmetrization_idempotent(self):
        mix_x, _ = zero_one_couplings(6)
        once = exchangeable_permute(mix_x)
        twice = exchangeable_permute(once)
        assert once.support == twice.support
        assert once.weights == twice.weights

    def test_row_sums_unchanged(self):
        mix_x, _ = zero_one_couplings(6)
        sym = exchangeable_permute(mix_x)
        assert set(sym.row_sums()) == {0}

    def test_factorial_guard(self):
        coupling = Coupling(9, [tuple(range(9))], [1.0])
        with pytest.raises(SizeError):
            exchangeable_permute(coupling)


class TestCouplingValidate:
    def test_negative_weight_rejected(self):
        c = Coupling(2, [(0.0, 0.0)], [-0.1])
        with pytest.raises(DomainError):
            c.validate()

    def test_mass_mismatch_rejected(self):
        c = Coupling(2, [(0.0, 0.0), (1.0, 1.0)], [0.5, 0.4])
        with pytest.raises(DomainError):
            c.validate()

    def test_marginal_mismatch_rejected(self):
        c = Coupling(2, [(0.0, 1.0), (1.0, 0.0)], [0.5, 0.5])
        wrong = FiniteDiscrete([(0.0, 0.3), (1.0, 0.7)])
        with pytest.raises(DomainError):
            c.validate(marginals=[wrong, wrong])

    def test_unequal_row_sums_rejected_without_center(self):
        # rows sum to 0 and 2: checked against the first row, off by 2
        c = Coupling(2, [(0.0, 0.0), (1.0, 1.0)], [0.5, 0.5])
        with pytest.raises(DomainError, match="sums_constant fails: measured 2.0"):
            c.validate()
