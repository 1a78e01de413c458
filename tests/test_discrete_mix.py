import contextlib
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
from mixcenter.distributions import Cauchy, FiniteDiscrete, point_mass
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

    def test_uniform_k31_triple_exact(self):
        # 721 slice tuples at the forced center 45, 720 at 46
        m = FiniteDiscrete([(float(v), 1.0 / 31) for v in range(31)])
        assert feasible_center([m, m, m], 45.0, exact=True).verdict == "feasible"
        assert feasible_center([m, m, m], 46.0, exact=True).verdict == "infeasible"

    def test_uniform_k115_triple_float_infeasible(self):
        # 9918 slice tuples beside the forced center 171
        m = FiniteDiscrete([(float(v), 1.0 / 115) for v in range(115)])
        res = feasible_center([m, m, m], 172.0)
        assert res.verdict == "infeasible" and res.candidates == 9918

    def test_exact_mode_decides_below_solver_tolerance(self):
        # P(Y = 1) falls 1e-11 short of P(X = 0), so X + Y = 1 has no
        # coupling; the float LP cannot see the gap, exact mode must
        fair = FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)])
        tilted = FiniteDiscrete([(0.0, 0.5 + 1e-11), (1.0, 0.5 - 1e-11)])
        exact = feasible_center([fair, tilted], 1.0, exact=True)
        assert exact.verdict == "infeasible"
        assert exact.residual == pytest.approx(2e-11, rel=1e-6)
        assert exact.dual == [1.0, -1.0, 1.0, -1.0]
        floats = feasible_center([fair, tilted], 1.0)
        assert floats.verdict == "feasible" and floats.residual == 0.0


@contextlib.contextmanager
def _spy(name):
    """Record the arguments and result of every call to a ``discrete_mix``
    function while the block runs."""
    real = getattr(discrete_mix, name)
    calls = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    setattr(discrete_mix, name, spy)
    try:
        yield calls
    finally:
        setattr(discrete_mix, name, real)


def _slice_tuples(marginals, center, tol):
    """The sum slice by brute force: every support tuple, in lexicographic
    order, kept when ``abs(math.fsum(row) - center) <= tol``, the test of
    ``Coupling.invariants``. Returned as constraint-row indices, ``cells[j,
    i]`` the row of coordinate i of tuple j, the rows running over the
    atoms of every marginal in turn."""
    offsets = np.cumsum([0] + [len(m.values) for m in marginals[:-1]])
    cells = [offsets + idx for idx in itertools.product(*(range(len(m.values))
                                                          for m in marginals))
             if abs(math.fsum(m.values[a] for m, a in zip(marginals, idx)) - center) <= tol]
    return np.array(cells, dtype=np.intp).reshape(len(cells), len(marginals))


def _full_slice_lp(marginals, center, tol, exact):
    """The phase-1 LP over every ordered slice tuple, one row per atom of
    each marginal: the oracle for the orbit LP of ``feasible_center``.
    Returns the slice, the right-hand side and ``(objective, x, y)``."""
    cells = _slice_tuples(marginals, center, tol)
    if exact:
        b = [f for m in marginals for f in discrete_mix._exact_probs(list(m.probs))]
        return cells, b, discrete_mix._phase1_exact(cells, b)
    b = [float(p) for m in marginals for p in m.probs]
    return cells, b, discrete_mix._phase1_float(cells, np.array(b))


def _class_rows(marginals):
    """The orbit LP row of each slice row: marginals equal bit for bit share
    their rows, classes numbered in order of first appearance."""
    start, rows, count = {}, [], 0
    for m in marginals:
        key = (m.values.tobytes(), m.probs.tobytes())
        if key not in start:
            start[key], count = count, count + len(m.values)
        rows += [start[key] + a for a in range(len(m.values))]
    return rows


def _assert_exchangeable(coupling, layout):
    """Within each class of ``layout``: every permutation of a support row
    is a support row of the same weight, and the marginals are equal
    (summed as exact rationals, so float summation order cannot show)."""
    weight = dict(zip(coupling.support, coupling.weights))
    assert len(weight) == len(coupling.support)
    for label in set(layout):
        pos = [i for i, lab in enumerate(layout) if lab == label]
        for row, w in weight.items():
            for perm in itertools.permutations(pos):
                image = list(row)
                for src, dst in zip(pos, perm):
                    image[dst] = row[src]
                assert weight.get(tuple(image)) == w
        marginals = []
        for i in pos:
            mass = {}
            for row, w in weight.items():
                mass[row[i]] = mass.get(row[i], 0) + Fraction(w)
            marginals.append(mass)
        assert all(mg == marginals[0] for mg in marginals)


# class layouts of the coordinates: equal labels mean equal marginals
LAYOUTS = [(0, 0), (0, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 2),
           (0, 1, 1, 0), (0, 0, 0, 0), (0, 1, 2, 3),
           (0, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 2, 2),
           (0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0), (0, 1, 2, 0, 1, 2)]


class TestOrbitLP:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_full_slice_lp(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS), label="layout")
        # atoms on a grid of 1 or of 0.1, whose float sums depend on the order
        # of their terms
        step = data.draw(st.sampled_from([1.0, 0.1]), label="step")
        atoms = {}
        for label in sorted(set(layout)):
            vals = data.draw(st.lists(st.integers(-2, 3), min_size=1,
                                      max_size=4 if len(layout) <= 4 else 3,
                                      unique=True), label="values")
            weights = data.draw(st.lists(st.integers(1, 6), min_size=len(vals),
                                         max_size=len(vals)), label="weights")
            atoms[label] = [(v * step, w / sum(weights)) for v, w in zip(vals, weights)]
        # equal by value but distinct objects, as the CLI builds them, or one
        # object per class
        shared = data.draw(st.booleans(), label="shared")
        laws = {label: FiniteDiscrete(a) for label, a in atoms.items()}
        marginals = [laws[lab] if shared else FiniteDiscrete(atoms[lab]) for lab in layout]
        center = math.fsum(data.draw(st.sampled_from(list(m.values)), label="atom")
                           for m in marginals)
        tol = data.draw(st.sampled_from([0.0, 1e-9]), label="tol")
        for exact in (False, True):
            solver = "_phase1_exact" if exact else "_phase1_float"
            with _spy(solver) as solves, _spy("_check_farkas") as checks:
                res = feasible_center(marginals, center, tol=tol, exact=exact)
            cells, b, (objective, _, _) = _full_slice_lp(marginals, center, tol, exact)
            assert res.candidates == len(cells)
            [((orbit_cells, _), (orbit_objective, _, _))] = solves
            assert len(orbit_cells) <= len(cells)
            if exact:
                assert isinstance(orbit_objective, Fraction)
                assert orbit_objective == objective
                verdict = "feasible" if objective == 0 else "infeasible"
            else:
                assert abs(orbit_objective - objective) <= 1e-12
                verdict = ("feasible" if objective <= tol else
                           "borderline" if objective <= 10 * tol else "infeasible")
            assert res.verdict == verdict
            if res.feasible:
                _assert_exchangeable(res.coupling, layout)
            elif res.verdict == "infeasible":
                # the class dual, lifted to every row, separates on the brute-force
                # slice; exact duals are lifted as the checked rationals
                [((y, _, _, checked_tol), _)] = checks
                rows = _class_rows(marginals)
                assert res.dual == [float(y[q]) for q in rows]
                assert checked_tol == (0 if exact else tol)
                lifted = [y[q] for q in rows] if exact else res.dual
                discrete_mix._check_farkas(lifted, cells, b, checked_tol)

    def test_distinct_marginals_solve_the_slice_lp(self):
        # singleton classes: the orbit LP is the slice LP, column for column
        marginals = [FiniteDiscrete([(0.0, 0.25), (1.0, 0.75)]),
                     FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)]),
                     FiniteDiscrete([(0.0, 0.75), (1.0, 0.25)])]
        with _spy("_phase1_float") as solves:
            feasible_center(marginals, 1.0)
        [((orbit_cells, orbit_b), _)] = solves
        assert (orbit_cells == _slice_tuples(marginals, 1.0, 1e-9)).all()
        assert orbit_b.tolist() == [0.25, 0.75, 0.5, 0.5, 0.75, 0.25]

    def test_equal_marginals_share_rows(self):
        # three copies of one law: one row per atom, one column per orbit (the 13
        # partitions of 12 into three atoms)
        m = FiniteDiscrete([(float(v), 1.0 / 9) for v in range(9)])
        with _spy("_phase1_float") as solves:
            res = feasible_center([m, FiniteDiscrete(zip(m.values, m.probs)), m], 12.0)
        [((orbit_cells, orbit_b), _)] = solves
        assert res.candidates == 61 and len(orbit_cells) == 13
        assert orbit_b.tolist() == [3 * (1.0 / 9)] * 9

    def test_float_matrix_counts_repeated_rows(self, monkeypatch):
        # orbits hitting one class row twice: HiGHS gets one entry of 2, not
        # two entries of 1 (the singleton columns of the artificials follow)
        import scipy.optimize
        real, seen = scipy.optimize.linprog, []

        def spy(*args, **kwargs):
            seen.append(kwargs["A_eq"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        objective, _, _ = discrete_mix._phase1_float(np.array([[0, 0, 1], [1, 0, 1]]),
                                                     np.array([1.0, 1.0]))
        [A] = seen
        assert A.indptr.tolist() == [0, 2, 4, 5, 6]
        assert A.indices.tolist() == [0, 1, 0, 1, 0, 1]
        assert A.data.tolist() == [2.0, 1.0, 1.0, 2.0, 1.0, 1.0]
        assert abs(objective) <= 1e-12  # x = (1/3, 1/3)

    def test_slice_closed_under_permutations(self):
        # at tol 0 the running sums of (0.1, 0.2, 0.3) in its six orders are
        # 0.6 or 0.6000000000000001, but its fsum is 0.6 in every order, so the
        # orbit is wholly in the slice
        m = FiniteDiscrete([(0.1, 1 / 3), (0.2, 1 / 3), (0.3, 1 / 3)])
        cells, _, (objective, _, _) = _full_slice_lp([m, m, m], 0.6, 0.0, False)
        assert len(cells) == 6 and objective <= 1e-12
        res = feasible_center([m, m, m], 0.6, tol=0.0)
        assert res.verdict == "feasible" and res.candidates == 6
        assert sorted(res.coupling.support) == sorted(itertools.permutations((0.1, 0.2, 0.3)))

    def test_point_masses_sum_exactly(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right and 0.6 by fsum
        # (the exact sum rounded); the slice, the coupling check and the
        # forced center agree on 0.6
        pts = [point_mass(v) for v in (0.1, 0.2, 0.3)]
        assert 0.1 + 0.2 + 0.3 != 0.6
        res = feasible_center(pts, 0.6, tol=0.0)
        assert res.verdict == "feasible" and res.candidates == 1
        assert res.coupling.support == [(0.1, 0.2, 0.3)]
        assert feasible_center(pts, 0.1 + 0.2 + 0.3, tol=0.0).verdict == "infeasible"
        assert enumerate_centers(pts, tol=0.0).centers == [0.6]

    def test_uniform_k20_n6_decides(self):
        # 1,762,004 slice tuples, past the variable guard, on 4,370 orbits
        m = FiniteDiscrete([(float(v), 1.0 / 20) for v in range(20)])
        res = feasible_center([m] * 6, 57.0)
        assert res.verdict == "feasible" and res.candidates == 1_762_004
        res.coupling.validate(marginals=[m] * 6, center=57.0)

    def test_float_dual_at_tol_zero(self):
        # the dual is (-1/3, 1) per copy: on the tuples with a single one,
        # y.A is 0 for the exact dual, and the float dual summed in floats
        # gives 1.1e-16, 5.6e-17 or 0, depending on where the one comes
        m = FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)])
        res = feasible_center([m] * 4, 1.0, tol=0.0)
        assert res.verdict == "infeasible"
        discrete_mix._check_farkas(res.dual, _slice_tuples([m] * 4, 1.0, 0.0),
                                   [0.5] * 8, 0.0)

    def test_orbit_sizes_past_int64_factorials(self):
        # 21 coordinates: the orbit of ten ones among 21 holds C(21, 10)
        # tuples, counted in Python ints
        m = FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)])
        res = feasible_center([m] * 21, 10.0)
        assert res.verdict == "infeasible" and res.candidates == math.comb(21, 10)


class TestSliceSumset:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_tuple_enumeration(self, data):
        # the orbit representatives are the brute-force slice tuples sorted
        # within each class, deduplicated, in lexicographic order
        layout = data.draw(st.sampled_from(LAYOUTS[:9]), label="layout")
        laws = {}
        for label in sorted(set(layout)):
            vals = data.draw(st.lists(st.one_of(st.integers(-5, 5).map(float),
                                                st.floats(-5.0, 5.0, allow_subnormal=False)),
                                      min_size=1, max_size=6, unique=True), label="values")
            laws[label] = FiniteDiscrete([(v, 1.0 / len(vals)) for v in vals],
                                         total_mass=len(vals) * (1.0 / len(vals)))
        marginals = [laws[lab] for lab in layout]
        center = sum(data.draw(st.sampled_from(list(m.values)), label="atom")
                     for m in marginals)
        center += data.draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.25]), label="offset")
        tol = data.draw(st.sampled_from([0.0, 1e-9, 0.3]), label="tol")
        _, reps, sizes = discrete_mix._slice_orbits(marginals, center, tol)
        offsets = np.cumsum([0] + [len(m.values) for m in marginals[:-1]])
        # laws drawn equal for two labels share a class
        groups = {}
        for i, m in enumerate(marginals):
            groups.setdefault((m.values.tobytes(), m.probs.tobytes()), []).append(i)
        orbits = {}
        for row in (_slice_tuples(marginals, center, tol) - offsets).tolist():
            for pos in groups.values():
                for i, v in zip(pos, sorted(row[i] for i in pos)):
                    row[i] = v
            orbits[tuple(row)] = orbits.get(tuple(row), 0) + 1
        assert reps.dtype == np.intp and reps.shape == (len(orbits), len(layout))
        assert reps.tolist() == [list(rep) for rep in sorted(orbits)]
        assert sizes.tolist() == [orbits[rep] for rep in sorted(orbits)]

    def test_guard_counts_every_survivor(self, monkeypatch):
        # the C(12, 3) = 220 sorted triples of ten atoms survive at tol 1e9,
        # more than a guard of 219
        m = FiniteDiscrete([(float(v), 0.1) for v in range(10)])
        monkeypatch.setattr(discrete_mix, "VARIABLE_GUARD", 220)
        _, reps, sizes = discrete_mix._slice_orbits([m, m, m], 13.5, 1e9)
        assert len(reps) == 220 and sizes.sum() == 1000
        monkeypatch.setattr(discrete_mix, "VARIABLE_GUARD", 219)
        with pytest.raises(SizeError):
            discrete_mix._slice_orbits([m, m, m], 13.5, 1e9)


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
        cells = _slice_tuples([m, m, m], float(center), 0.0)
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
        cells = _slice_tuples(marginals, center, 0.0)
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

    def test_one_candidate(self):
        # the forced center, the sum of the means, is the one LP
        m = two_point_third()
        with _spy("feasible_center") as calls:
            cs = enumerate_centers([m, m, m])
        assert cs.candidates_examined == 1 and len(calls) == 1
        assert calls[0][0][1] == 2.0

    def test_forced_center_off_the_sumset(self):
        # the means sum to 1.5, which no pair of atoms does: an empty slice
        m = FiniteDiscrete([(0.0, 0.25), (1.0, 0.75)])
        cs = enumerate_centers([m, m])
        assert cs.centers == [] and cs.certificates == {} and cs.candidates_examined == 0

    @pytest.mark.parametrize("k", [15, 75])
    def test_forced_center_is_the_atom_sum(self, k):
        # uniform {0, ..., k - 1} three times: the float means fsum to
        # 20.999999999999996 at k = 15, and the exact sum over the float
        # probabilities rounds to 111.00000000000001 at k = 75, so 1/k must
        # be read as the rational 1/k
        m = FiniteDiscrete([(float(v), 1.0 / k) for v in range(k)])
        center = 3 * (k - 1) / 2
        naive = (math.fsum(m.mean for _ in range(3)) if k == 15 else
                 float(3 * sum(Fraction(v) * Fraction(p)
                               for v, p in zip(m.values.tolist(), m.probs.tolist()))))
        assert naive != center
        cs = enumerate_centers([m, m, m])
        assert cs.centers == [center] and list(cs.certificates) == [center]

    def test_forced_center_of_unreconstructible_probabilities(self):
        # no rationals with denominator up to 1e12 sum to 1 here, so the
        # float means are summed; the antithetic pair sums to 1
        p = 0.123456789012345
        with pytest.raises(DomainError, match="reconstruct"):
            discrete_mix._exact_probs([p, 1 - p])
        m1 = FiniteDiscrete([(0.0, p), (1.0, 1 - p)])
        m2 = FiniteDiscrete([(0.0, 1 - p), (1.0, p)])
        assert enumerate_centers([m1, m2]).centers == [1.0]

    def test_needs_finite_marginals(self):
        with pytest.raises(DomainError, match="FiniteDiscrete"):
            enumerate_centers([Cauchy()] * 3)

    def test_forced_center_infeasible(self):
        # the means sum to 2, but (0, 2) is the only pair of atoms that does
        m1 = FiniteDiscrete([(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)])
        m2 = FiniteDiscrete([(0.0, 0.5), (2.0, 0.5)])
        cs = enumerate_centers([m1, m2])
        assert cs.centers == [] and cs.candidates_examined == 1


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

    def test_matches_permutation_average(self):
        # the average over all 3! orders, merged, as exact rationals
        mix_x, mix_y = zero_one_couplings(6)
        for coupling in (mix_x, mix_y):
            merged = {}
            for row, w in zip(coupling.support, coupling.weights):
                for order in itertools.permutations(row):
                    merged[order] = merged.get(order, 0) + w / 6
            sym = exchangeable_permute(coupling)
            assert sym.support == sorted(merged)
            assert sym.weights == [merged[row] for row in sym.support]

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
