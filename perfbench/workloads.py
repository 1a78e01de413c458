"""The three workloads: each a closed loop with one client.

A workload has a fixed list of jobs, its round. ``setup`` prepares the
inputs from the seed; ``run_round`` runs every job of the round once,
one at a time, times each job and checks its outputs outside the timed
region. Rounds repeat until the run's time is used, so every run holds
whole rounds and its medians are taken over the same mix of jobs.
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time

import numpy as np

from spans import END, JOB, PARENT, START, median

HERE = os.path.dirname(os.path.abspath(__file__))

ENDPOINT_10 = math.log(9) / math.pi


def cauchy_ks(column):
    """One-sample KS distance of ``column`` to the standard Cauchy law."""
    s = np.sort(column)
    f = 0.5 + np.arctan(s) / math.pi
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / s.size - f), np.max(f - (i - 1) / s.size)))


def worst_ks(values):
    return max(cauchy_ks(values[:, j]) for j in range(values.shape[1]))


class Job:
    """One timed job: its kind, wall time and how its operations ended."""

    def __init__(self, kind, label):
        self.kind, self.label = kind, label
        self.seconds = 0.0
        self.ops = 0
        self.failures = []   # (operation, reason) for every failed operation
        self.wrong = 0       # failures where the program returned a wrong output

    def fail(self, op, reason, wrong=True):
        self.failures.append((op, reason))
        self.wrong += int(wrong)


# ----------------------------------------------------------------------
# cli-cold

# (5, 0.3) is left out: at about 14 s a job it would push a run of this
# workload past a minute
CLI_PAIRS = [(3, 0.15), (10, ENDPOINT_10), (3, -0.15), (4, 0.0)]
CLI_ROWS = 100_000


class CliCold:
    """``mixcenter sample`` then ``mixcenter verify``, each a child process.

    Why: every constructive job builds its mixer and about 950 coupling
    cells from scratch and pays the imports, and ``verify`` reads the CSV
    and rebuilds the mixer. This is the workload for cell, CSV and import
    work.
    """

    name = "cli-cold"

    def __init__(self, seed, trace, workdir):
        self.seed, self.trace, self.workdir = seed, trace, workdir
        self.span_lists = []
        self.import_s = []
        self.csv_bytes = 0
        self.covered = {"sample": 0.0, "verify": 0.0}
        self.traced_wall = {"sample": 0.0, "verify": 0.0}
        self.max_child_rss_kb = 0
        self.ks_batches = []

    def setup(self):
        rng = random.Random(self.seed)
        self.jobs = [(n, c, rng.randrange(2 ** 31)) for n, c in CLI_PAIRS]

    def _child(self, job_index, argv, stdout):
        """Run one launcher child; returns (exit code, wall seconds, stdout)."""
        spans_path = os.path.join(self.workdir, "spans.json")
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), str(int(self.trace)),
               spans_path] + argv
        with open(os.path.join(self.workdir, "stderr.txt"), "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=err)
            out = proc.stdout.read() if stdout == subprocess.PIPE else None
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t_spawn
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.stdout is not None:
                proc.stdout.close()
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        if self.trace:
            with open(spans_path) as fh:
                traced = json.load(fh)
            os.remove(spans_path)
            for span in traced["spans"]:
                span[JOB] = job_index
            self.span_lists.append(traced["spans"])
            imported = traced["t_main"] - t_spawn
            self.import_s.append(imported)
            top = sum(s[END] - s[START] for s in traced["spans"] if s[PARENT] == -1)
            self.covered[argv[0]] += imported + top
            self.traced_wall[argv[0]] += wall
        return proc.returncode, wall, out

    def run_round(self, round_index):
        jobs = []
        for n, c, job_seed in self.jobs:
            job = Job("cli", f"n={n} c={c:.6g}")
            csv = os.path.join(self.workdir, "rows.csv")
            code, job.sample_s, _ = self._child(
                round_index,
                ["sample", "--n", str(n), "--c", repr(c), "--count", str(CLI_ROWS),
                 "--seed", str(job_seed), "--out", csv],
                subprocess.DEVNULL)
            code_v, job.verify_s, out = self._child(
                round_index, ["verify", csv], subprocess.PIPE)
            job.seconds = job.sample_s + job.verify_s
            job.ops = 2
            self._check_sample(job, code, csv, n, c, job_seed)
            self._check_verify(job, code_v, out)
            for path in (csv, csv + ".meta.json"):
                if os.path.exists(path):
                    os.remove(path)
            jobs.append(job)
        return jobs

    def _check_sample(self, job, code, csv, n, c, job_seed):
        if code != 0:
            job.fail("sample", f"exit code {code}", wrong=False)
            return
        self.csv_bytes += os.path.getsize(csv)
        with open(csv) as fh:
            header = fh.readline().strip().split(",")
            text = fh.read()
        rows = text.count("\n")
        width = len(header)
        try:
            values = np.array(text.replace("\r", "").replace("\n", ",").split(",")[:-1],
                              dtype=float)
        except ValueError as exc:
            job.fail("sample", f"unreadable CSV: {exc}")
            return
        if rows != CLI_ROWS or values.size != rows * width:
            job.fail("sample", f"{rows} rows, expected {CLI_ROWS}")
            return
        values = values.reshape(rows, width)[:, :n]
        self.ks_batches.append((worst_ks(values), rows))
        with open(csv + ".meta.json") as fh:
            meta = json.load(fh)
        if (meta.get("n"), meta.get("c"), meta.get("seed")) != (n, c, job_seed):
            job.fail("sample", f"sidecar n, c, seed = {meta.get('n')}, {meta.get('c')}, "
                               f"{meta.get('seed')}")

    @staticmethod
    def _check_verify(job, code, out):
        try:
            passed = json.loads(out)["all_pass"]
        except (ValueError, KeyError, TypeError):
            job.fail("verify", f"exit code {code}, no verify report", wrong=False)
            return
        if code != 0 or passed is not True:
            job.fail("verify", f"exit code {code}, all_pass {passed}")

    def peak_rss_kb(self):
        return self.max_child_rss_kb

    def layer_extra(self, rounds):
        extra = {"cli.csv_bytes": self.csv_bytes / rounds}
        if self.trace:
            extra["cli.import_s"] = median(self.import_s)
            for kind in ("sample", "verify"):
                extra[f"cli.{kind}.coverage"] = self.covered[kind] / self.traced_wall[kind]
        return extra

    def detail(self, jobs):
        """Timings (lists of seconds) and metrics of this workload alone."""
        timings = {"sample_s": [j.sample_s for j in jobs], "verify_s": [j.verify_s for j in jobs]}
        metrics = {}
        if self.trace:
            for kind in self.covered:
                metrics[f"{kind}_unattributed_s"] = (
                    self.traced_wall[kind] - self.covered[kind], "s")
        return timings, metrics


# ----------------------------------------------------------------------
# library-warm

WARM_MIXERS = [(3, 0.15), (4, 0.0)]
WARM_ROWS = 1_000_000
# draws per mixer in a round: the first draw after the warm-up still builds
# more tail cells than later ones, so a round holds both kinds
WARM_DRAWS = 2


class InProcess:
    """A workload that calls the library from the runner's own process."""

    def __init__(self, seed, trace, workdir):
        self.seed = seed
        self.span_lists = []
        self.ks_batches = []

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layer_extra(self, rounds):
        return {}


class LibraryWarm(InProcess):
    """Repeated ``mixer.sample(1e6)`` on mixers whose cells are filled.

    Why: this is steady-state library use. Cache hits dominate, so the warm
    draw path (``weights_at``, ``interp``, the row permutation, the ``c=0``
    radius Newton loop) sets the time. It predicts "no change" for a cell
    or CSV optimisation, whose cold cost shows here only in ``setup_s``.
    """

    name = "library-warm"

    def setup(self):
        from mixcenter import cauchy_mix, seeding

        self.substream = seeding.substream
        self.mixers = []
        for n, c in WARM_MIXERS:
            config = cauchy_mix.MixerConfig(n=n, c=c, seed=self.seed)
            mixer = cauchy_mix.build_mixer(config)
            mixer.sample(WARM_ROWS, self.substream(self.seed, "perfbench", "warm", str(n)))
            self.mixers.append((n, c, mixer))

    def run_round(self, round_index):
        jobs = []
        for draw in range(WARM_DRAWS):
            for n, c, mixer in self.mixers:
                jobs.append(self._draw(round_index, draw, n, c, mixer))
        return jobs

    def _draw(self, round_index, draw, n, c, mixer):
        job = Job("draw", f"n={n} c={c:.6g}")
        rng = self.substream(self.seed, "perfbench", "draw", str(round_index), str(draw), str(n))
        start = time.monotonic()
        batch = mixer.sample(WARM_ROWS, rng)
        job.seconds = time.monotonic() - start
        job.ops = 1
        self._check(job, batch, n, c)
        return job

    def _check(self, job, batch, n, c):
        values = batch.values
        if values.shape != (WARM_ROWS, n):
            job.fail("sample", f"shape {values.shape}")
            return
        if not (np.isfinite(values).all() and np.isfinite(batch.row_bound).all()):
            job.fail("sample", "non-finite values")
            return
        excess = np.abs(values.sum(axis=1) - n * c) - batch.row_bound
        if np.any(excess > 0.0):
            job.fail("sample", f"{int(np.sum(excess > 0.0))} rows beyond row_bound")
            return
        self.ks_batches.append((worst_ks(values), WARM_ROWS))

    def detail(self, jobs):
        draw = sum(j.seconds for j in jobs)
        return {}, {"draw_rows_per_s": (WARM_ROWS * len(jobs) / draw, "rows/s")}


# ----------------------------------------------------------------------
# certify

LP_UNIFORM_K = [9, 15, 21, 23, 25]   # 23 and 25 hit the float simplex guard today
LP_RANDOM_K = [10, 20, 30]
LP_EXACT = [("uniform", 9), ("random", 6)]
TOL = 1e-9


class Certify(InProcess):
    """Bounds jobs over six models and ``feasible_center`` LP jobs.

    Why: this is the only workload that reaches ``center_bounds``, the
    quadrature in ``distributions.avg_quantile`` and the simplex in
    ``discrete_mix``, and it bypasses ``cauchy_mix`` completely.
    """

    name = "certify"

    def setup(self):
        from fractions import Fraction

        from mixcenter import center_bounds, discrete_mix, distributions as d

        self.cb, self.dm, self.FiniteDiscrete = center_bounds, discrete_mix, d.FiniteDiscrete
        mixture = d.CountableMixture([(Fraction(2, 3), d.PowerTwoGeometric("positive", 40)),
                                      (Fraction(1, 3), d.PowerTwoGeometric("negative", 40))])
        self.models = [("cauchy", d.Cauchy(), n) for n in (3, 5, 10)] + [
            ("pareto1.5", d.Pareto(1.5), 3),
            ("power_mixture", mixture, 3),
            ("atom_uniform", d.AtomUniform(0.0, 1.0, 0.2), 3),
        ]
        rng = np.random.default_rng(self.seed)
        self.lps = [self._uniform(k, False) for k in LP_UNIFORM_K]
        self.lps += [self._random(k, rng, False) for k in LP_RANDOM_K]
        self.lps += [self._uniform(k, True) if kind == "uniform" else self._random(k, rng, True)
                     for kind, k in LP_EXACT]

    def _uniform(self, k, exact):
        weights = [1] * k
        return (f"uniform k={k}" + " exact" * exact, weights, 3 * (k - 1) // 2, True, exact)

    @staticmethod
    def _random(k, rng, exact):
        # integer weights keep the probabilities rational for exact mode; the
        # sum is set off the forced center 3*mean, so the answer is infeasible
        while True:
            weights = [int(w) for w in rng.integers(1, 10, size=k)]
            forced = 3 * sum(i * w for i, w in enumerate(weights)) / sum(weights)
            if abs(forced - round(forced)) > 1e-6:
                return (f"random k={k}" + " exact" * exact, weights, round(forced), False, exact)

    def run_round(self, round_index):
        jobs = [self._bounds_job(*model) for model in self.models]
        jobs += [self._lp_job(*lp) for lp in self.lps]
        return jobs

    def _call(self, job, op, fn, *args, **kwargs):
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed public call is counted, not fatal
            result = None
            job.fail(op, f"{type(exc).__name__}: {exc}", wrong=False)
        job.seconds += time.monotonic() - start
        job.ops += 1
        return result

    def _bounds_job(self, label, model, n):
        job = Job("bounds", f"{label} n={n}")
        cb = self.cb
        res = self._call(job, "cm_bounds", cb.cm_bounds, model, n)
        a, b = (res.a_star, res.b_star) if res is not None else (-1.0, 1.0)
        a, b = (a if math.isfinite(a) else b - 1.0), (b if math.isfinite(b) else a + 1.0)
        inside = a + 0.75 * (b - a)
        outside = b + 0.5 * max(abs(b - a), 1.0)
        dual_in = self._call(job, "dual_bound", cb.dual_bound, model, n, inside)
        self._call(job, "dual_bound", cb.dual_bound, model, n, outside)
        betas = (0.1 / n,) * n
        jm = self._call(job, "jm_center_bounds", cb.jm_center_bounds,
                        cb.JmBoundsInput((model,) * n, betas))
        if res is not None and label == "cauchy":
            exact = math.log(n - 1) / math.pi
            if abs(res.b_star - exact) > 1e-4 or abs(res.a_star + exact) > 1e-4:
                job.fail("cm_bounds", f"[{res.a_star}, {res.b_star}] vs +-{exact}")
            if dual_in is not None and dual_in.value < 1.0 - 1e-6:
                job.fail("dual_bound", f"{dual_in.value} < 1 at {inside}, inside the interval")
        if res is not None and label == "power_mixture":
            # the law has the centers 0 and 1/3; the bracket must hold both
            if res.a_star > 1e-6 or res.b_star < 1.0 / 3 - 1e-6:
                job.fail("cm_bounds", f"[{res.a_star}, {res.b_star}] misses 0 or 1/3")
        if res is not None and label == "atom_uniform":
            if not res.a_star - 1e-6 <= model.mean <= res.b_star + 1e-6:
                job.fail("cm_bounds", f"[{res.a_star}, {res.b_star}] misses the mean")
        if jm is not None and not jm[0] <= jm[1]:
            job.fail("jm_center_bounds", f"lower {jm[0]} > upper {jm[1]}")
        return job

    def _lp_job(self, label, weights, center, feasible, exact):
        job = Job("lp", label)
        total = sum(weights)
        marginal = self.FiniteDiscrete([(float(i), w / total) for i, w in enumerate(weights)])
        res = self._call(job, "feasible_center", self.dm.feasible_center,
                         [marginal] * 3, float(center), exact=exact)
        if res is None:
            return job
        if res.feasible != feasible:
            job.fail("feasible_center", f"verdict {res.verdict}, expected "
                                        f"{'feasible' if feasible else 'infeasible'}")
        elif feasible:
            problem = check_coupling(res.coupling, weights, center)
            if problem:
                job.fail("feasible_center", problem)
        else:
            problem = check_farkas(res.dual, weights, center)
            if problem:
                job.fail("feasible_center", problem)
        return job

    def detail(self, jobs):
        return {"bounds_s": [j.seconds for j in jobs if j.kind == "bounds"],
                "lp_s": [j.seconds for j in jobs if j.kind == "lp"]}, {}


def check_coupling(coupling, weights, center, n=3):
    """Marginals and row sums of a returned coupling, by our own arithmetic."""
    total = sum(weights)
    for row, w in zip(coupling.support, coupling.weights):
        if w < -1e-12:
            return f"negative weight {w}"
        if abs(sum(float(v) for v in row) - center) > TOL:
            return f"row {row} does not sum to {center}"
    for i in range(n):
        mass = [0.0] * len(weights)
        for row, w in zip(coupling.support, coupling.weights):
            mass[int(row[i])] += float(w)
        worst = max(abs(m - w / total) for m, w in zip(mass, weights))
        if worst > 1e-8:
            return f"marginal {i} off by {worst:.3g}"
    return None


def check_farkas(dual, weights, center, n=3):
    """y.b > tol while sum_i y over every slice tuple's rows stays <= tol."""
    k = len(weights)
    if dual is None or len(dual) != n * k:
        return f"no Farkas vector of length {n * k}"
    total = sum(weights)
    y = [dual[i * k:(i + 1) * k] for i in range(n)]
    gain = sum(y[i][v] * weights[v] / total for i in range(n) for v in range(k))
    if not gain > TOL:
        return f"y.b = {gain:.3g} is not positive"
    for v1 in range(k):
        for v2 in range(k):
            v3 = center - v1 - v2
            if 0 <= v3 < k and y[0][v1] + y[1][v2] + y[2][v3] > TOL:
                return f"slice tuple ({v1}, {v2}, {v3}) has a positive y sum"
    return None


WORKLOADS = {cls.name: cls for cls in (CliCold, LibraryWarm, Certify)}
