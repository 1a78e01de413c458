"""Exact discrete constructions and a transportation feasibility oracle.

Feasibility of a prescribed sum value C for finitely supported marginals
is a transportation problem restricted to the slice of support tuples
whose coordinates add to C: their ``math.fsum`` lies within tol of C, the
test a coupling's rows must pass. It is decided by a phase-1 LP built on
the orbits of the slice under permutations of coordinates with equal
marginals: one column per orbit, one row per atom of each class. The LP is
solved by HiGHS's dual simplex on a sparse constraint matrix in floats, or
in exact mode by a fraction-free (integer, Bareiss) Bland simplex with the
same pivots and rationals as a Fraction tableau. On equal uniform marginals
(2-core Xeon), exact mode decides k=31, n=3 (721 slice tuples, 128 orbits)
in about 0.01 s and k=61 in about 0.2 s; floats decide k=115, n=3 in about
0.02 s and k=20, n=6 (1.76e6 tuples) in about 0.06 s.
Feasible instances return the coupling found, lifted to the slice and
validated against the marginals; infeasible ones a separating dual vector
(Farkas certificate), checked on every orbit column.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import FiniteDiscrete
from .errors import DomainError, SizeError

VARIABLE_GUARD = 1_000_000
# caps the size of an exact solve; it promises no speed (see _phase1_exact)
EXACT_VARIABLE_GUARD = 10_000
# largest |total weight - total_mass| a valid coupling may show
WEIGHT_TOL = 1e-12


@dataclass
class Coupling:
    """Finite joint law as support tuples plus weights.

    ``total_mass`` below 1 encodes a truncated view of a countable law;
    the deficit is then carried in ``residual``. Weights may be floats or
    Fractions (exact constructions keep Fractions).
    """

    n: int
    support: list
    weights: list
    total_mass: object = 1
    residual: object = 0

    def row_sums(self):
        return [math.fsum(row) if not _is_exact(row) else sum(row) for row in self.support]

    def marginal(self, i) -> dict:
        out = {}
        for row, wgt in zip(self.support, self.weights):
            out[row[i]] = out.get(row[i], 0 * wgt) + wgt
        return out

    def invariants(self, marginals=None, center=None, tol=1e-9, marginal_tol=1e-10):
        """The four coupling invariants as ``(name, passed, measured,
        threshold)`` rows, in ``verify.COUPLING_INVARIANTS`` order.

        Weight totals are summed exactly for Fractions and with ``fsum`` for
        floats. Row sums are checked against ``center``, or without one
        against the first row; marginals only when ``marginals`` are given.
        """
        wmin = min(self.weights)
        out = [("weights_nonnegative", wmin >= 0, float(wmin), 0.0)]
        total = sum(self.weights) if _is_exact(self.weights) else math.fsum(self.weights)
        err = abs(float(total - self.total_mass))
        out.append(("weights_total", err <= WEIGHT_TOL, err, WEIGHT_TOL))
        sums = self.row_sums()
        if center is None:
            center = sums[0]
        dev = max(abs(float(s - center)) for s in sums)
        out.append(("sums_constant", dev <= tol, dev, tol))
        worst = 0.0
        for i, m in enumerate(marginals or ()):
            proj = self.marginal(i)
            declared = dict(zip(m.values, m.probs))
            for v in set(proj) | set(declared):
                worst = max(worst, abs(float(proj.get(v, 0)) - float(declared.get(v, 0))))
        out.append(("marginals_match", worst <= marginal_tol, worst, marginal_tol))
        return out

    def validate(self, marginals=None, center=None, tol=1e-9, marginal_tol=1e-10):
        """Raise DomainError naming the first violated coupling invariant."""
        for name, passed, measured, threshold in self.invariants(
                marginals, center, tol, marginal_tol):
            if not passed:
                raise DomainError(f"coupling invariant {name} fails: measured "
                                  f"{measured!r}, threshold {threshold!r}")

    def to_json_dict(self):
        return {
            "n": self.n,
            "support": [[float(v) for v in row] for row in self.support],
            "weights": [float(w) for w in self.weights],
            "total_mass": float(self.total_mass),
            "residual": float(self.residual),
        }


def _is_exact(seq):
    return any(isinstance(v, Fraction) for v in seq)


def exchangeable_permute(coupling: Coupling) -> Coupling:
    """Exchangeable version of a coupling: the average over all n!
    coordinate permutations, which spreads each row's weight evenly over
    its distinct orderings, so all marginals become the average marginal.
    Row sums are invariant. Guarded at n <= 8."""
    n = coupling.n
    if n > 8:
        raise SizeError("exact symmetrization is guarded at n <= 8")
    merged = {}
    for row, wgt in zip(coupling.support, coupling.weights):
        orders = list(_members(sorted(row), [range(n)]))
        for key in orders:
            merged[key] = merged.get(key, 0 * wgt) + wgt / len(orders)
    support = sorted(merged)
    return Coupling(n, support, [merged[k] for k in support],
                    coupling.total_mass, coupling.residual)


# ----------------------------------------------------------------------
# phase-1 feasibility LP: HiGHS for floats; for --exact, a fraction-free
# (integer, Bareiss) Bland simplex with the same pivots and rationals as a
# Fraction tableau

# HiGHS rejects feasibility tolerances below 1e-10 (it warns and falls back
# to 1e-7, which would blur the borderline band at tol=1e-9)
HIGHS_TOL = 1e-10
# the exact tableau stays int64 while max|T| times the largest entry of the
# entering column is below this, so that no product of a pivot overflows
_INT64_LIMIT = 2 ** 62


def _phase1_float(cells, b: np.ndarray):
    """Minimize the total artificial mass for Ax = b, x >= 0 with HiGHS.

    Solves min sum(a) subject to [A | I] [x; a] = b, x, a >= 0, and
    returns (objective, x, y) with y the equality duals: a Farkas
    certificate when the objective is > 0. ``A[r, j]`` counts the entries
    of ``cells[j]`` equal to r (see ``feasible_center``).
    """
    from scipy import sparse
    from scipy.optimize import linprog

    (k, n), m = cells.shape, len(b)
    A_eq = sparse.csc_array((
        np.ones(k * n + m),
        np.concatenate([cells.ravel(), np.arange(m)]),
        np.concatenate([np.arange(0, k * n, n), k * n + np.arange(m + 1)]),
    ), shape=(m, k + m))
    # an orbit can hit one row up to n times: merge its entries into one
    # holding the count, in place (a no-op when no column repeats a row)
    A_eq.sum_duplicates()
    cost = np.concatenate([np.zeros(k), np.ones(m)])
    res = linprog(cost, A_eq=A_eq, b_eq=b, bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": HIGHS_TOL,
                           "dual_feasibility_tolerance": HIGHS_TOL})
    if res.status != 0:
        raise DomainError(f"phase-1 LP failed (HiGHS status {res.status}): {res.message}")
    return res.fun, res.x[:k], res.eqlin.marginals


def _phase1_exact(cells, b):
    """Phase-1 simplex in exact arithmetic with Bland's rule.

    Same formulation, ``cells`` and return as ``_phase1_float``, with
    ``b`` rationals and the results Fractions. It is a
    fraction-free (integer, Bareiss) Bland simplex with the same pivots and
    rationals as a Fraction tableau: with ``D`` the common denominator of
    ``b`` and ``d`` the last pivot (1 at the start), every entry is ``d``
    times the Fraction tableau's, and ``d*D`` times in the right-hand side
    column. The tableau, objective row last, is one integer array, and a
    pivot rewrites every row at once as ``(T*piv - outer(T[:, enter],
    prow)) // d``, a division that is exact by Sylvester's identity
    (Bareiss 1968), then puts the pivot row back as it was. Entries are
    int64 while ``max|T| * max|T[:, enter]|`` stays below
    ``_INT64_LIMIT``, checked before each pivot, so no product can
    overflow; past it the array holds Python ints for the rest of the
    solve. Every pivot is positive, so ``d > 0`` and every sign Bland's
    rule reads is the Fraction tableau's; the ratio test compares the
    Fraction ratios by cross-multiplication over the entering column as
    Python ints. The pivot count is Bland's, so time grows steeply with
    size: on a 2-core Xeon, the full slice of uniform k=15, n=3 (169
    columns, 45 rows) takes about 0.03 s and of k=31 (721 columns, 93 rows)
    about 4 s, while the orbit LP of k=31 (128 columns, 31 rows) takes
    about 0.01 s and of k=61 (481 columns, 61 rows) about 0.3 s.
    ``EXACT_VARIABLE_GUARD`` caps the size but does not promise speed at it.
    """
    m, k = len(b), len(cells)
    D = math.lcm(*(bi.denominator for bi in b))
    scaled = [int(bi * D) for bi in b]
    # the objective row starts at -sum(scaled), the largest entry in magnitude
    T = np.zeros((m + 1, k + m + 1), dtype=np.int64 if sum(scaled) < _INT64_LIMIT else object)
    np.add.at(T, (cells.ravel(), np.repeat(np.arange(k), cells.shape[1])), 1)
    T[np.arange(m), k + np.arange(m)] = 1
    T[:m, -1] = scaled
    T[m] = -T[:m].sum(axis=0)
    T[m, k:k + m] = 0  # artificials start basic with zero reduced cost
    basis = list(range(k, k + m))
    d = 1
    for _ in range(50000):
        negative = np.flatnonzero(T[m, :k + m] < 0)
        if not len(negative):
            break
        enter = int(negative[0])
        col, last = T[:m, enter].tolist(), T[:m, -1].tolist()
        leave = -1
        for i, f in enumerate(col):
            if f > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = last[i] * col[leave], last[leave] * f
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise DomainError("phase-1 problem is unbounded; inputs are inconsistent")
        if T.dtype != object and \
                int(abs(T).max()) * int(abs(T[:, enter]).max()) >= _INT64_LIMIT:
            T = T.astype(object)
        prow = T[leave]
        piv = prow[enter]
        T = (T * piv - np.outer(T[:, enter], prow)) // d
        T[leave] = prow
        d = int(piv)
        basis[leave] = enter
    else:
        raise DomainError("simplex iteration guard exceeded")
    T = T.tolist()
    obj = T[m]
    scale = d * D
    objective = Fraction(-obj[-1], scale)
    x = [Fraction(0)] * k
    for i, var in enumerate(basis):
        if var < k:
            x[var] = Fraction(T[i][-1], scale)
    y = [1 - Fraction(obj[k + j], d) for j in range(m)]
    return objective, x, y


@dataclass
class FeasibilityResult:
    verdict: str                      # "feasible" | "infeasible" | "borderline"
    center: float
    coupling: Coupling | None = None
    dual: list | None = None          # Farkas certificate when infeasible
    residual: float = 0.0             # phase-1 objective (unmatched mass)
    candidates: int = 0               # admissible support tuples

    @property
    def feasible(self):
        return self.verdict == "feasible"


def _slice_orbits(marginals, center, tol):
    """The sum slice, one tuple per orbit of the permutations within each
    class of coordinates whose marginals agree bit for bit.

    A tuple is in the slice when ``abs(math.fsum(row) - center) <= tol``,
    the test of ``Coupling.invariants``; ``fsum`` is the exact sum rounded
    once, so whole orbits are in or out. The sumset grows one marginal at a
    time, in chunks of about ``VARIABLE_GUARD // 8`` sums: a prefix takes
    every atom of the next marginal not below its last atom of the same
    class, in C order, so each orbit comes out once, sorted within classes,
    in lexicographic order. It survives while the remaining marginals can
    still bring its float sum within tol of center, up to a slack bounding
    the rounding; ``fsum`` decides the complete tuples within the slack of
    an end of the tol window. ``SizeError`` is raised as soon as the
    survivors of one marginal pass ``VARIABLE_GUARD``.

    Returns ``(classes, reps, sizes)``: the class of each coordinate (in
    order of first appearance), the orbits as atom indices (``reps[j, i]``
    is the atom of coordinate i) and the slice tuples in each orbit.
    """
    keys = {}
    classes = [keys.setdefault((m.values.tobytes(), m.probs.tobytes()), len(keys))
               for m in marginals]
    values = [m.values for m in marginals]
    n = len(values)
    # each float sum below rounds at most n + 1 times, by at most eps/2 of
    # the largest magnitude it reaches; twice that bound
    slack = 2 * n * np.finfo(float).eps * (sum(abs(v).max() for v in values) + abs(center) + tol)
    acc = np.zeros(1)
    # per class with a member still to come, each prefix's last atom of it
    last = {}
    steps = []
    for i, vals in enumerate(values):
        rest_min = sum(v.min() for v in values[i + 1:])
        rest_max = sum(v.max() for v in values[i + 1:])
        floor = last.get(classes[i])
        per_chunk = max(1, VARIABLE_GUARD // 8 // len(vals))
        flat, sums, count = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], 0
        for lo in range(0, len(acc), per_chunk):
            s = acc[lo:lo + per_chunk, None] + vals
            ok = (s + rest_min <= center + tol + slack) & (s + rest_max >= center - tol - slack)
            if floor is not None:
                ok &= np.arange(len(vals)) >= floor[lo:lo + per_chunk, None]
            keep = np.flatnonzero(ok)
            count += len(keep)
            if count > VARIABLE_GUARD:
                raise SizeError(f"slice enumeration exceeds the {VARIABLE_GUARD} variable guard")
            flat.append(keep + lo * len(vals))
            sums.append(s.ravel()[keep])
        steps.append(np.concatenate(flat))
        acc = np.concatenate(sums)
        later = classes[i + 1:]
        if last or classes[i] in later:
            prefix, atom = np.divmod(steps[-1], len(vals))
            last = {c: a[prefix] for c, a in last.items() if c in later}
            if classes[i] in later:
                last[classes[i]] = atom
    # walk the survivors back to their atoms, last marginal first
    reps = np.empty((len(acc), n), dtype=np.intp)
    idx = np.arange(len(acc))
    for i in reversed(range(n)):
        idx, reps[:, i] = np.divmod(steps[i][idx], len(values[i]))
    keep = abs(acc - center) <= tol - slack
    edge = np.flatnonzero(~keep)
    points = np.stack([v[reps[edge, i]] for i, v in enumerate(values)], axis=1)
    keep[edge] = [abs(math.fsum(row) - center) <= tol for row in points.tolist()]
    reps = reps[keep]
    # the multinomial coefficients as running products of (j + 1) / run over
    # each class's sorted atoms, exact in int64 while n! fits
    sizes = np.ones(len(reps), dtype=np.int64 if n <= 20 else object)
    for c in range(len(keys)):
        pos = [i for i, ci in enumerate(classes) if ci == c]
        run = np.ones(len(reps), dtype=sizes.dtype)
        for j in range(1, len(pos)):
            run = np.where(reps[:, pos[j]] == reps[:, pos[j - 1]], run + 1, 1)
            sizes = sizes * (j + 1) // run
    return classes, reps, sizes


def _arrangements(items):
    """The distinct orderings of the sorted tuple ``items``, in
    lexicographic order."""
    if len(items) <= 1:
        yield items
        return
    for j, v in enumerate(items):
        if j == 0 or v != items[j - 1]:
            for rest in _arrangements(items[:j] + items[j + 1:]):
                yield (v,) + rest


def _members(rep, groups):
    """The distinct tuples that permuting ``rep`` within each group of
    coordinates gives; ``rep`` is sorted within each group."""
    where = np.argsort([i for pos in groups for i in pos]).tolist()
    for parts in itertools.product(*(_arrangements(tuple(rep[i] for i in pos))
                                     for pos in groups)):
        flat = sum(parts, ())
        yield tuple(flat[j] for j in where)


def _exact_probs(probs):
    """The rationals one marginal's float probabilities stand for.

    The bounds 10, 100, ..., 10**11 on the denominator are tried in turn:
    the first whose nearest fractions sum to 1 and each round back to their
    own float is taken. The last try is the nearest fractions with
    denominator at most 10**12, which need only sum to 1. Trying the small
    bounds first matters: for w/W with W above about 1e4, the nearest
    fraction with denominator up to 10**12 is seldom w/W. Raises
    DomainError if no try succeeds.
    """
    for k in range(1, 12):
        fracs = [Fraction(p).limit_denominator(10 ** k) for p in probs]
        if sum(fracs) == 1 and all(float(f) == p for f, p in zip(fracs, probs)):
            return fracs
    fracs = [Fraction(p).limit_denominator(10 ** 12) for p in probs]
    share = sum(fracs)
    if share != 1:
        raise DomainError(
            "exact mode needs probabilities that reconstruct to "
            f"rationals summing to 1 (marginal total {share})"
        )
    return fracs


def _finite(marginals):
    """The marginals as a list; DomainError unless each is FiniteDiscrete."""
    marginals = list(marginals)
    if any(not isinstance(m, FiniteDiscrete) for m in marginals):
        raise DomainError("the feasibility oracle needs FiniteDiscrete marginals")
    return marginals


def feasible_center(marginals, center: float, tol: float = 1e-9,
                    exact: bool = False) -> FeasibilityResult:
    """Decide whether the marginals admit a joint law with sum == center.

    Solves the transportation feasibility problem on the orbits of the sum
    slice (see ``_slice_orbits``): one column per orbit, one row per atom of
    each class, right-hand side the class size times the atom's
    probability. Feasible instances return a certificate coupling (marginal
    residuals <= tol), each orbit's mass spread evenly over its distinct
    tuples; infeasible ones the phase-1 dual, each row taking its class
    row's entry, once it is checked as a Farkas certificate on every orbit
    column (DomainError if not), which is the check on every slice tuple.
    A phase-1 residual inside (tol, 10 tol] yields the "borderline"
    verdict. ``candidates`` counts slice tuples, not orbits.
    """
    marginals = _finite(marginals)
    n = len(marginals)
    if n < 2:
        raise DomainError("need at least two marginals")
    classes, cells, sizes = _slice_orbits(marginals, center, tol)
    candidates = int(sizes.sum())
    lens = [len(m.values) for m in marginals]
    if not len(cells):
        # no column to match: y = 1 on every row is a Farkas certificate
        return FeasibilityResult(
            verdict="infeasible", center=center, dual=[1.0] * sum(lens),
            residual=sum(float(p) for m in marginals for p in m.probs) / n, candidates=0,
        )
    if exact and candidates > EXACT_VARIABLE_GUARD:
        raise SizeError(f"exact mode is guarded at {EXACT_VARIABLE_GUARD} variables")
    groups = [[i for i, c in enumerate(classes) if c == label]
              for label in range(max(classes) + 1)]
    probs = [marginals[pos[0]].probs.tolist() for pos in groups]
    if exact:
        probs = [_exact_probs(p) for p in probs]
    b = [len(pos) * p for pos, class_probs in zip(groups, probs) for p in class_probs]
    class_offsets = np.cumsum([0] + [len(p) for p in probs[:-1]])[classes]
    cells += class_offsets  # atoms to class rows, in place
    objective, x, y = _phase1_exact(cells, b) if exact else _phase1_float(cells, np.array(b))
    resid = float(objective)
    feasible = objective == 0 if exact else resid <= tol
    borderline = not exact and tol < resid <= 10 * tol
    if feasible:
        # each distinct tuple of an orbit takes an equal share of its mass
        rows = []
        for j, size in enumerate(sizes.tolist()):
            w = x[j] / size
            if (w > 0) if exact else (w > 1e-14):
                rows += [(member, w) for member in
                         _members((cells[j] - class_offsets).tolist(), groups)]
        rows.sort(key=lambda row: row[0])
        support = [tuple(m.values[a] for m, a in zip(marginals, member)) for member, _ in rows]
        weights = [w for _, w in rows]
        total = sum(weights) if exact else math.fsum(weights)
        coupling = Coupling(n, support, weights, total_mass=1 if exact else 1.0)
        if not exact:
            # clean float residue so the invariant checker sees mass 1
            coupling.weights = [w / total for w in weights]
        coupling.validate(marginals=marginals, center=center, tol=tol,
                          marginal_tol=max(1e-10, 10 * tol))
        return FeasibilityResult(
            verdict="feasible", center=center, coupling=coupling,
            residual=resid, candidates=candidates,
        )
    if not borderline:
        _check_farkas(y, cells, b, 0 if exact else tol)
    verdict = "borderline" if borderline else "infeasible"
    # lift to the slice rows: each takes its class row's entry
    dual = [float(y[c + a]) for c, n_atoms in zip(class_offsets.tolist(), lens)
            for a in range(n_atoms)]
    return FeasibilityResult(
        verdict=verdict, center=center, dual=dual, residual=resid, candidates=candidates,
    )


def _check_farkas(y, cells, b, tol):
    """Raise DomainError unless the dual y certifies infeasibility.

    A Farkas certificate has y.A <= tol on every slice column (the sum of
    y over the rows a tuple hits) and y.b > tol. Exact duals are checked
    in rationals, float duals in floats, where y.A may exceed tol by the
    rounding of its n terms, n eps max|y|: y.A is 0 on the solver's basic
    columns, and its float value lands on either side of 0.
    """
    y = np.asarray(y)
    worst = y[cells].sum(axis=1).max()
    gain = sum(yi * bi for yi, bi in zip(y, b))
    rounding = 0 if y.dtype == object else cells.shape[1] * np.finfo(float).eps * abs(y).max()
    if not worst <= tol + rounding:
        raise DomainError(f"solver dual is not a certificate: y.A reaches {float(worst)!r}")
    if not gain > tol:
        raise DomainError(f"solver dual is not a certificate: y.b = {float(gain)!r}")


@dataclass
class CenterSet:
    """All certified centers of a finite-marginal tuple."""

    centers: list
    candidates_examined: int
    certificates: dict = field(default_factory=dict)


def enumerate_centers(marginals, tol: float = 1e-9) -> CenterSet:
    """Certified centers of finitely supported marginals.

    With finite means, every joint mix sums to the sum of the means, so
    that forced center is the one candidate, decided by one
    ``feasible_center`` call. The center is summed exactly over the
    rationals exact mode reads the probabilities as, then rounded once, so
    w/W weights give the atom sum itself (summing the float means, or even
    the float probabilities exactly, can miss it by an ulp: uniform
    {0, ..., 74} three times gives 111.00000000000001); where the
    probabilities do not reconstruct, it is ``math.fsum`` of the float means.
    ``candidates_examined`` is 1, or 0 when no support tuple sums to the
    forced center.
    """
    marginals = _finite(marginals)
    try:
        center = float(sum(Fraction(v) * f for m in marginals
                           for v, f in zip(m.values.tolist(), _exact_probs(m.probs.tolist()))))
    except DomainError:
        center = math.fsum(m.mean for m in marginals)
    res = feasible_center(marginals, center, tol=tol)
    certs = {center: res.coupling} if res.feasible else {}
    return CenterSet(centers=list(certs), candidates_examined=int(res.candidates > 0),
                     certificates=certs)


# ----------------------------------------------------------------------
# explicit couplings with two distinct centers

def zero_one_couplings(truncation: int = 20):
    """Two exact couplings with equal marginals and different constant sums.

    Over a truncated geometric index Z <= truncation (residual mass
    2^-(truncation+1), reported on the couplings), the first coupling has
    rows (2^Z, 2^Z, -2^(Z+1)) summing to 0; the second uses an independent
    fair bit to split the doubled value across the first two coordinates,
    rows (B*2^(Z+1) + (1-B), (1-B)*2^(Z+1) + B, -2^(Z+1)) summing to 1.
    Third marginals agree exactly, and the first/second marginals agree
    atom-by-atom on {2, 4, ..., 2^truncation}; mass 1/2 sits on the atom 1
    for the untruncated laws (the truncated second coupling holds
    1/2 - 2^-(truncation+2) of it, the rest rides the residual).
    """
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    K = truncation
    residual = Fraction(1, 2 ** (K + 1))
    support_x, weights_x = [], []
    for k in range(K + 1):
        support_x.append((2 ** k, 2 ** k, -(2 ** (k + 1))))
        weights_x.append(Fraction(1, 2 ** (k + 1)))
    mix_x = Coupling(3, support_x, weights_x,
                     total_mass=1 - residual, residual=residual)
    support_y, weights_y = [], []
    for k in range(K + 1):
        for bit in (0, 1):
            support_y.append((
                bit * 2 ** (k + 1) + (1 - bit),
                (1 - bit) * 2 ** (k + 1) + bit,
                -(2 ** (k + 1)),
            ))
            weights_y.append(Fraction(1, 2 ** (k + 2)))
    mix_y = Coupling(3, support_y, weights_y,
                     total_mass=1 - residual, residual=residual)
    return mix_x, mix_y

