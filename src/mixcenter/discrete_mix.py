"""Exact discrete constructions and a transportation feasibility oracle.

Feasibility of a prescribed sum value C for finitely supported marginals
is a transportation problem restricted to the slice of support tuples
whose coordinates add to C. It is decided by a phase-1 LP on the orbits
of the slice under permutations of coordinates with equal marginals: one
column per orbit, one row per atom of each class of equal marginals. The
LP is solved by HiGHS's dual simplex on a sparse constraint matrix in
floats, or in exact mode by a fraction-free (integer, Bareiss) Bland
simplex with the same pivots and rationals as a Fraction tableau. On three
equal uniform marginals (2-core Xeon), exact mode decides k=31 (721 slice
tuples, 128 orbits) in about 0.02 s and k=61 (2791 tuples, 481 orbits) in
about 0.35 s; floats decide k=115 (9919 tuples) in about 0.05 s. Solver
output is lifted back to the slice and checked before it is reported:
feasible instances return the coupling found, validated against the
marginals; infeasible ones a separating dual vector (Farkas certificate),
verified against every slice tuple.
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
    coordinate permutations, with duplicate rows merged, so all marginals
    become the average marginal. Row sums are invariant. Guarded at n <= 8."""
    n = coupling.n
    if n > 8:
        raise SizeError("exact symmetrization is guarded at n <= 8")
    perms = list(itertools.permutations(range(n)))
    fac = Fraction(1, len(perms)) if _is_exact(coupling.weights) else 1.0 / len(perms)
    merged = {}
    for row, wgt in zip(coupling.support, coupling.weights):
        for order in perms:
            key = tuple(row[j] for j in order)
            merged[key] = merged.get(key, 0 * wgt) + wgt * fac
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
    of ``cells[j]`` equal to r (see ``_slice_cells`` and ``_orbits``).
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


def _slice_cells(marginals, center, tol):
    """The support tuples whose coordinate sums land within tol of center,
    as constraint-row indices: ``cells[j, i]`` is the row of coordinate i
    of tuple j, and the rows run over the atoms of every marginal in turn.

    The sumset grows one marginal at a time: each surviving prefix sum
    ``acc`` takes every atom ``v`` of the next marginal, and ``acc + v``
    survives while the remaining marginals can still bring it within tol
    of center. Survivors are kept in C order (prefix, then atom), so the
    tuples come out in lexicographic order. Prefixes are expanded in
    chunks of about ``VARIABLE_GUARD // 8`` sums, and ``SizeError`` is
    raised as soon as the survivors of one marginal pass the guard.
    """
    values = [m.values for m in marginals]
    acc = np.zeros(1)
    # per marginal, the flat (prefix, atom) index of each survivor
    steps = []
    for i, vals in enumerate(values):
        rest_min = sum(v.min() for v in values[i + 1:])
        rest_max = sum(v.max() for v in values[i + 1:])
        per_chunk = max(1, VARIABLE_GUARD // 8 // len(vals))
        flat, sums, count = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], 0
        for lo in range(0, len(acc), per_chunk):
            s = (acc[lo:lo + per_chunk, None] + vals).ravel()
            keep = np.flatnonzero((s + rest_min <= center + tol)
                                  & (s + rest_max >= center - tol))
            count += len(keep)
            if count > VARIABLE_GUARD:
                raise SizeError(
                    f"slice enumeration exceeds the {VARIABLE_GUARD} variable guard"
                )
            flat.append(keep + lo * len(vals))
            sums.append(s[keep])
        steps.append(np.concatenate(flat))
        acc = np.concatenate(sums)
    # walk the survivors at the center back to their atoms, last marginal first
    idx = np.flatnonzero(abs(acc - center) <= tol)
    cells = np.empty((len(idx), len(values)), dtype=np.intp)
    start = sum(len(vals) for vals in values)
    for i in reversed(range(len(values))):
        start -= len(values[i])
        prefix, atom = np.divmod(steps[i][idx], len(values[i]))
        cells[:, i] = atom + start
        idx = prefix
    return cells


def _orbits(marginals, cells, b):
    """The slice LP on the orbits of coordinates with equal marginals.

    Coordinates whose marginals agree bit for bit (``values`` and
    ``probs``) form a class. Permuting a class maps the slice LP to itself,
    so averaging any optimum over those permutations gives an optimum that
    is constant on orbits. An orbit is represented by a slice tuple with
    its atoms sorted within each class. The orbit LP has one row per atom of
    each class, classes in order of first appearance, and right-hand side
    the class size times the atom's entry of ``b``; a column counts how
    often its orbit hits each row.

    Returns ``(orbit_cells, orbit_b, inverse, counts, row_of)``: the orbits
    in lexicographic order as class rows, the orbit LP's right-hand side,
    the orbit of each slice tuple, the slice tuples per orbit, and the class
    row of each slice row. With every class a singleton, the slice LP
    itself is returned as it is, with ``inverse`` and ``counts`` None, and
    so is a slice that is not closed under the class permutations (a float
    sum within tol of the center in one order of its terms but not in
    another).
    """
    n, k = len(marginals), len(cells)
    keys = {}
    classes = [keys.setdefault((m.values.tobytes(), m.probs.tobytes()), len(keys))
               for m in marginals]
    identity = (cells, b, None, None, np.arange(len(b)))
    if len(keys) == n:
        return identity
    lens = [len(m.values) for m in marginals]
    offsets = np.cumsum([0] + lens[:-1])
    rep = cells - offsets
    # each tuple's orbit size: the product over classes of |C|! / prod(m!)
    # over its atom multiplicities m, as the running product of (j + 1) / run
    size = np.ones(k)
    for c in range(len(keys)):
        pos = [i for i, ci in enumerate(classes) if ci == c]
        block = np.sort(rep[:, pos], axis=1)
        rep[:, pos] = block
        run = np.ones(k)
        for j in range(1, len(pos)):
            run = np.where(block[:, j] == block[:, j - 1], run + 1, 1)
            size *= (j + 1) / run
    order = np.lexsort(rep.T[::-1])
    rep = rep[order]
    new = np.ones(k, dtype=bool)
    new[1:] = (rep[1:] != rep[:-1]).any(axis=1)
    inverse = np.empty(k, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    counts = np.diff(np.append(np.flatnonzero(new), k))
    if not np.array_equal(np.rint(size), counts[inverse]):
        return identity
    members = [classes.count(c) for c in range(len(keys))]
    heads = [classes.index(c) for c in range(len(keys))]
    class_offsets = np.cumsum([0] + [lens[i] for i in heads[:-1]])
    row_of = np.concatenate([class_offsets[c] + np.arange(len_i)
                             for c, len_i in zip(classes, lens)])
    orbit_b = [size_c * p for size_c, i in zip(members, heads)
               for p in b[offsets[i]:offsets[i] + lens[i]]]
    return class_offsets[classes] + rep[new], orbit_b, inverse, counts, row_of


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

    Builds variables only on support tuples whose coordinate sum matches
    ``center`` within ``tol`` and solves the transportation feasibility
    problem, on the orbits of coordinates with equal marginals (see
    ``_orbits``). The solution is lifted back to the slice before it is
    checked. Feasible instances return a certificate coupling (marginal
    residuals <= tol), exchangeable within each class of equal marginals;
    infeasible ones the phase-1 dual, after checking that it is a Farkas
    certificate on every slice tuple (DomainError if the solver's dual is
    not). A phase-1 residual inside (tol, 10 tol] yields the "borderline"
    verdict. ``candidates`` counts slice tuples, not orbits.
    """
    marginals = _finite(marginals)
    n = len(marginals)
    if n < 2:
        raise DomainError("need at least two marginals")
    cells = _slice_cells(marginals, center, tol)
    atoms = np.concatenate([m.values for m in marginals])
    b = [float(p) for m in marginals for p in m.probs]
    if not len(cells):
        # no column to match: y = 1 on every row is a Farkas certificate
        return FeasibilityResult(
            verdict="infeasible", center=center, dual=[1.0] * len(b),
            residual=float(sum(b)) / n, candidates=0,
        )
    if exact:
        if len(cells) > EXACT_VARIABLE_GUARD:
            raise SizeError(
                f"exact mode is guarded at {EXACT_VARIABLE_GUARD} variables"
            )
        b = [f for m in marginals for f in _exact_probs([float(p) for p in m.probs])]
    orbit_cells, orbit_b, inverse, counts, row_of = _orbits(marginals, cells, b)
    if exact:
        objective, x, y = _phase1_exact(orbit_cells, orbit_b)
        resid = float(objective)
        feasible = objective == 0
        borderline = False
    else:
        objective, x, y = _phase1_float(orbit_cells, np.array(orbit_b))
        resid = float(objective)
        feasible = resid <= tol
        borderline = tol < resid <= 10 * tol
    # lift to the slice: each row takes its class row's dual
    y = [y[q] for q in row_of.tolist()]
    if feasible:
        if inverse is not None:
            # each slice tuple takes an equal share of its orbit's mass
            x = [x[o] / share for o, share in zip(inverse.tolist(), counts[inverse].tolist())]
        support, weights = [], []
        for row, w in zip(cells, x):
            if (w > 0) if exact else (w > 1e-14):
                support.append(tuple(atoms[row]))
                weights.append(w)
        total = sum(weights) if exact else math.fsum(weights)
        coupling = Coupling(n, support, weights, total_mass=1 if exact else 1.0)
        if not exact:
            # clean float residue so the invariant checker sees mass 1
            coupling.weights = [w / total for w in weights]
        coupling.validate(marginals=marginals, center=center, tol=tol,
                          marginal_tol=max(1e-10, 10 * tol))
        return FeasibilityResult(
            verdict="feasible", center=center, coupling=coupling,
            residual=resid, candidates=len(cells),
        )
    if not borderline:
        _check_farkas(y, cells, b, 0 if exact else tol)
    verdict = "borderline" if borderline else "infeasible"
    return FeasibilityResult(
        verdict=verdict, center=center,
        dual=[float(v) for v in y], residual=resid, candidates=len(cells),
    )


def _check_farkas(y, cells, b, tol):
    """Raise DomainError unless the dual y certifies infeasibility.

    A Farkas certificate has y.A <= tol on every slice column (the sum of
    y over the rows a tuple hits) and y.b > tol. Exact duals are checked
    in rationals, float duals in floats.
    """
    y = np.asarray(y)
    worst = y[cells].sum(axis=1).max()
    gain = sum(yi * bi for yi, bi in zip(y, b))
    if not worst <= tol:
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

