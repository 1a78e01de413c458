"""Command-line surface.

Subcommands: bounds, interval, dual, feasible, centers, sample, verify,
ex01, repro. JSON results carry a versioned "schema" field; sample output
is CSV (17 significant digits, so doubles round-trip) plus a metadata
sidecar. All randomness flows from one master seed through named
substreams, so every run is reproducible from its flags.

Exit codes: 0 success, 1 domain or verification failures, 2 I/O or
argument parse errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .cauchy_mix import (
    ConvexCombinationSampler,
    MixerConfig,
    build_mixer,
    generic_admissibility,
)
from .distributions import (
    Cauchy,
    CountableMixture,
    GenericDensity,
    Pareto,
    PowerTwoGeometric,
    model_from_spec,
    point_mass,
    quad_avg_quantile,
)
from .errors import ConstructionError, DomainError, QuadratureError, SizeError
from .rearrangement import discretize, ra_flatten, sample_rows
from .seeding import DEFAULT_SEED, substream
from .verify import (
    ks_distance,
    ks_threshold,
    ks_two_sample,
    run_invariant_suite,
    sum_stats,
)

SCHEMA_VERSION = 1

SCHEMAS = {
    "mixcenter.interval/1": {
        "type": "object",
        "required": ["schema", "n", "lo", "hi", "method", "grid_resolution"],
        "properties": {
            "schema": {"type": "string"},
            "n": {"type": "integer"},
            "lo": {"type": "number"},
            "hi": {"type": "number"},
            "method": {"type": "string"},
            "grid_resolution": {"type": "number"},
        },
    },
    "mixcenter.bounds/1": {
        "type": "object",
        "required": ["schema", "mode", "lo", "hi", "method", "grid_resolution"],
        "properties": {
            "schema": {"type": "string"},
            "mode": {"enum": ["cm", "jm"]},
            "lo": {"type": ["number", "string"]},
            "hi": {"type": ["number", "string"]},
            "method": {"type": "string"},
            "grid_resolution": {"type": "number"},
        },
    },
    "mixcenter.dual/1": {
        "type": "object",
        "required": ["schema", "n", "c", "value", "method", "grid_resolution",
                     "excludes_center"],
        "properties": {
            "schema": {"type": "string"},
            "n": {"type": "integer"},
            "c": {"type": "number"},
            "value": {"type": "number"},
            "method": {"type": "string"},
            "grid_resolution": {"type": "number"},
            "excludes_center": {"type": "boolean"},
        },
    },
    "mixcenter.feasible/1": {
        "type": "object",
        "required": ["schema", "verdict", "center", "residual", "candidates"],
        "properties": {
            "schema": {"type": "string"},
            "verdict": {"enum": ["feasible", "infeasible", "borderline"]},
            "center": {"type": "number"},
            "residual": {"type": "number"},
            "candidates": {"type": "integer"},
            "coupling": {"type": "object"},
            "dual": {"type": ["array", "null"]},
        },
    },
    "mixcenter.centers/1": {
        "type": "object",
        "required": ["schema", "centers", "candidates_examined"],
        "properties": {
            "schema": {"type": "string"},
            "centers": {"type": "array", "items": {"type": "number"}},
            "candidates_examined": {"type": "integer"},
            "couplings": {"type": "object"},
        },
    },
    "mixcenter.sample_meta/1": {
        "type": "object",
        "required": ["schema", "n", "c", "tail_eps", "ra_grid_m", "seed",
                     "mass_deficit"],
        "properties": {
            "schema": {"type": "string"},
            "n": {"type": "integer"},
            "c": {"type": "number"},
            "tail_eps": {"type": "number"},
            "ra_grid_m": {"type": "integer"},
            "seed": {"type": "integer"},
            "mass_deficit": {"type": "number"},
            "count": {"type": "integer"},
            "t_grid": {"type": "integer"},
            "engine": {"type": "string"},
        },
    },
    "mixcenter.verify/1": {
        "type": "object",
        "required": ["schema", "all_pass", "checks"],
        "properties": {
            "schema": {"type": "string"},
            "all_pass": {"type": "boolean"},
            "checks": {"type": "array"},
            "sum_stats": {
                "type": "object",
                "required": ["mean_dev", "max_abs_dev", "per_branch"],
                "properties": {
                    "mean_dev": {"type": "number"},
                    "max_abs_dev": {"type": "number"},
                    "per_branch": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["count", "mean_dev", "max_abs_dev"],
                        },
                    },
                },
            },
        },
    },
    "mixcenter.ex01/1": {
        "type": "object",
        "required": ["schema", "truncation", "residual", "mix_x", "mix_y"],
        "properties": {
            "schema": {"type": "string"},
            "truncation": {"type": "integer"},
            "residual": {"type": "number"},
            "mix_x": {"type": "object"},
            "mix_y": {"type": "object"},
        },
    },
    "mixcenter.repro/1": {
        "type": "object",
        "required": ["schema", "all_pass", "checks"],
        "properties": {
            "schema": {"type": "string"},
            "all_pass": {"type": "boolean"},
            "checks": {"type": "array"},
        },
    },
}


def _emit(payload: dict, out_path=None):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _out_path(path):
    if path is None:
        return None
    base = os.environ.get("MIXCENTER_OUT_DIR", "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_marginals(path):
    with open(path) as fh:
        spec = json.load(fh)
    if isinstance(spec, dict):
        return [model_from_spec(spec)]
    return [model_from_spec(entry) for entry in spec]


def _inf_to_json(x):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# ----------------------------------------------------------------------
# subcommands

def _cmd_interval(args):
    from . import center_bounds

    iv = center_bounds.cauchy_center_interval(args.n)
    _emit(
        {
            "schema": f"mixcenter.interval/{SCHEMA_VERSION}",
            "n": iv.n,
            "lo": iv.lo,
            "hi": iv.hi,
            "method": iv.kind,
            "grid_resolution": 0.0,
        },
        _out_path(args.out),
    )
    return 0


def _cmd_bounds(args):
    from . import center_bounds

    marginals = _load_marginals(args.marginals)
    if len(marginals) == 1:
        if args.n is None:
            raise DomainError("single-marginal bounds need --n")
        res = center_bounds.cm_bounds(marginals[0], args.n)
        payload = {
            "schema": f"mixcenter.bounds/{SCHEMA_VERSION}",
            "mode": "cm",
            "n": args.n,
            "lo": _inf_to_json(res.a_star),
            "hi": _inf_to_json(res.b_star),
            "method": "window_average_grid",
            "grid_resolution": 1.0 / res.grid_size,
        }
    else:
        if args.betas:
            betas = tuple(float(b) for b in args.betas.split(","))
        else:
            betas = (args.beta,) * len(marginals)
        lo, hi = center_bounds.jm_center_bounds(
            center_bounds.JmBoundsInput(tuple(marginals), betas)
        )
        payload = {
            "schema": f"mixcenter.bounds/{SCHEMA_VERSION}",
            "mode": "jm",
            "n": len(marginals),
            "lo": lo,
            "hi": hi,
            "method": "window_average",
            "grid_resolution": 0.0,
        }
    _emit(payload, _out_path(args.out))
    return 0


def _cmd_dual(args):
    from . import center_bounds

    model = _load_marginals(args.marginal)[0] if args.marginal else Cauchy()
    res = center_bounds.dual_bound(model, args.n, args.c)
    _emit(
        {
            "schema": f"mixcenter.dual/{SCHEMA_VERSION}",
            "n": args.n,
            "c": args.c,
            "value": res.value,
            "method": "piecewise_linear_dual_grid",
            "grid_resolution": res.grid_resolution,
            "excludes_center": bool(res.value < 1.0 - 1e-9),
        },
        _out_path(args.out),
    )
    return 0


def _cmd_feasible(args):
    from . import discrete_mix

    marginals = _load_marginals(args.marginals)
    res = discrete_mix.feasible_center(
        marginals, args.center, tol=args.tol, exact=args.exact
    )
    payload = {
        "schema": f"mixcenter.feasible/{SCHEMA_VERSION}",
        "verdict": res.verdict,
        "center": res.center,
        "residual": float(res.residual),
        "candidates": res.candidates,
    }
    if res.coupling is not None:
        payload["coupling"] = res.coupling.to_json_dict()
    if res.dual is not None:
        payload["dual"] = res.dual
    _emit(payload, _out_path(args.out))
    return 0


def _cmd_centers(args):
    from . import discrete_mix

    marginals = _load_marginals(args.marginals)
    cs = discrete_mix.enumerate_centers(marginals, tol=args.tol)
    _emit(
        {
            "schema": f"mixcenter.centers/{SCHEMA_VERSION}",
            "centers": cs.centers,
            "candidates_examined": cs.candidates_examined,
            "couplings": {
                repr(c): coup.to_json_dict() for c, coup in cs.certificates.items()
            },
        },
        _out_path(args.out),
    )
    return 0


# rows formatted per write: bounds the temporary Python objects of tolist()
_CSV_CHUNK_ROWS = 8192


def _write_csv(path, values, ts, branch):
    """Write ``x1..xn, t, branch, row_sum`` rows: doubles as ``%.17g``,
    ``branch`` as an integer, CRLF line ends (the csv module's dialect)."""
    n = values.shape[1]
    header = [f"x{j + 1}" for j in range(n)] + ["t", "branch", "row_sum"]
    row = ",".join(["%.17g"] * (n + 1) + ["%d", "%.17g"]) + "\r\n"
    sums = values.sum(axis=1)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, values.shape[0], _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            chunk = np.column_stack([values[rows], ts[rows], branch[rows], sums[rows]])
            fh.write("".join([row % tuple(r) for r in chunk.tolist()]))


def _read_csv(path):
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = sum(1 for name in header if name.startswith("x"))
    values = data[:, :n]
    ts = data[:, header.index("t")]
    branch = data[:, header.index("branch")].astype(int)
    sums = data[:, header.index("row_sum")]
    return values, ts, branch, sums


def _cmd_sample(args):
    if args.count < 1:
        raise DomainError("need --count >= 1")
    out = _out_path(args.out)
    if args.engine == "ra":
        if args.c != 0.0:
            raise DomainError("the ra engine flattens toward the discretized "
                              "mean and only supports c = 0")
        column = discretize(Cauchy(), args.ra_grid_m)
        mat = np.column_stack([column] * args.n)
        flat = ra_flatten(mat, rng=substream(args.seed, "ra", "init"))
        values = sample_rows(flat.matrix, args.count, substream(args.seed, "ra", "rows"))
        ts = np.full(args.count, float("nan"))
        branch = np.full(args.count, 2, dtype=np.int8)
        deficit = 0.0
    else:
        cfg = MixerConfig(
            n=args.n,
            c=args.c,
            t_grid=args.t_grid,
            tail_eps=args.tail_eps,
            ra_grid_m=args.ra_grid_m,
            seed=args.seed,
        )
        mixer = build_mixer(cfg)
        batch = mixer.sample(args.count, substream(args.seed, "sample", "rows"))
        values, ts, branch = batch.values, batch.t, batch.branch
        deficit = mixer.mass_deficit
    _write_csv(out, values, ts, branch)
    meta = {
        "schema": f"mixcenter.sample_meta/{SCHEMA_VERSION}",
        "n": args.n,
        "c": args.c,
        "tail_eps": args.tail_eps,
        "ra_grid_m": args.ra_grid_m,
        "seed": args.seed,
        "mass_deficit": deficit,
        "count": args.count,
        "t_grid": args.t_grid,
        "engine": args.engine,
    }
    with open(out + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def _cmd_verify(args):
    path = _out_path(args.csv)
    values, ts, branch, sums = _read_csv(path)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    n, c = int(meta["n"]), float(meta["c"])
    count = values.shape[0]
    target = n * c
    checks = []
    cauchy = Cauchy()

    # each column is sorted once, for its own KS test and every pair it is in
    cols = np.sort(values, axis=0)
    ks_lim = 0.01 + ks_threshold(count)
    for j in range(n):
        d = ks_distance(cols[:, j], cauchy.cdf)
        checks.append(("ks_coordinate_%d" % (j + 1), d <= ks_lim, d, ks_lim))

    stats = sum_stats(values, target, branch)
    # the mixer engine guarantees exact means; the ra engine only flattens
    # to the discretization floor, so its threshold is statistical
    if meta.get("engine", "mix") == "ra":
        mean_lim = max(1e-3, 3.0 * float(np.std(sums)) / math.sqrt(count))
    else:
        mean_lim = 1e-3
    checks.append(("sum_mean_dev", abs(stats.mean_dev) <= mean_lim,
                   abs(stats.mean_dev), mean_lim))

    if meta.get("engine", "mix") == "mix":
        cfg = MixerConfig(
            n=n, c=c, t_grid=int(meta.get("t_grid", 2048)),
            tail_eps=float(meta["tail_eps"]), ra_grid_m=int(meta["ra_grid_m"]),
            seed=int(meta["seed"]),
        )
        mixer = build_mixer(cfg)
        bounds = mixer.row_bound_for(ts, branch)
        excess = float(np.max(np.abs(sums - target) - bounds))
        checks.append(("row_sum_bounds", excess <= 1e-15, excess, 1e-15))
        suite = run_invariant_suite(mixer)
        for r in suite.invariants:
            checks.append((r.name, r.passed, r.measured, r.threshold))
        mass_err = abs(float(meta["mass_deficit"]) - mixer.mass_deficit)
        checks.append(("metadata_mass_deficit", mass_err <= 1e-12, mass_err, 1e-12))

    worst_pair = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst_pair = max(worst_pair, ks_two_sample(cols[:, i], cols[:, j]))
    # 0.01 is the calibration at 1e5 rows; below that the 99% two-sample
    # critical value dominates. Rearrangement rows are strongly dependent
    # within a row, which inflates the statistic's variance.
    factor = 2.0 if meta.get("engine", "mix") == "ra" else 1.0
    pair_lim = max(0.01, factor * 1.628 * math.sqrt(2.0 / count))
    checks.append(("exchangeability_pairwise_ks", worst_pair <= pair_lim,
                   worst_pair, pair_lim))

    all_pass = all(ok for _, ok, _, _ in checks)
    payload = {
        "schema": f"mixcenter.verify/{SCHEMA_VERSION}",
        "all_pass": all_pass,
        "checks": [
            {"name": name, "passed": bool(ok), "measured": float(meas),
             "threshold": float(thr)}
            for name, ok, meas, thr in checks
        ],
        "config": meta,
        "sum_stats": {
            "mean_dev": stats.mean_dev,
            "max_abs_dev": stats.max_abs_dev,
            "per_branch": {str(lab): entry for lab, entry in stats.per_branch.items()},
        },
    }
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "passed", "measured", "threshold"])
        for name, ok, meas, thr in checks:
            writer.writerow([name, int(ok), f"{meas:.17g}", f"{thr:.17g}"])
    else:
        _emit(payload, _out_path(args.out))
    return 0 if all_pass else 1


def _cmd_ex01(args):
    from . import discrete_mix

    mix_x, mix_y = discrete_mix.zero_one_couplings(args.K)
    payload = {
        "schema": f"mixcenter.ex01/{SCHEMA_VERSION}",
        "truncation": args.K,
        "residual": float(mix_x.residual),
        "mix_x": mix_x.to_json_dict(),
        "mix_y": mix_y.to_json_dict(),
    }
    if args.out_x or args.out_y:
        if args.out_x:
            _emit(payload["mix_x"], _out_path(args.out_x))
        if args.out_y:
            _emit(payload["mix_y"], _out_path(args.out_y))
    else:
        _emit(payload, _out_path(args.out))
    return 0


# ----------------------------------------------------------------------
# repro: replay the paper-anchored numbers against stored expectations

def _repro_checks(seed):
    from . import center_bounds, discrete_mix

    out = []

    def check(name, ok, measured, expected):
        out.append({"name": name, "passed": bool(ok), "measured": str(measured),
                    "expected": str(expected)})

    iv2 = center_bounds.cauchy_center_interval(2)
    check("interval_n2_degenerate", iv2.lo == 0.0 == iv2.hi, (iv2.lo, iv2.hi), (0, 0))
    iv3 = center_bounds.cauchy_center_interval(3)
    check("interval_n3", abs(iv3.hi - 0.2206356001526516) < 1e-12,
          iv3.hi, 0.2206356001526516)
    all_n = all(
        center_bounds.cauchy_center_interval(n).hi == math.log(n - 1) / math.pi
        for n in range(2, 13)
    )
    check("interval_formula_n2_12", all_n, "log(n-1)/pi", "log(n-1)/pi")

    lim = center_bounds.cauchy_avg_quantile_upper(3, 1e-9)
    check("closed_form_alpha_to_zero", abs(lim - math.log(2) / math.pi) < 1e-6,
          lim, math.log(2) / math.pi)

    cf = center_bounds.cauchy_avg_quantile_upper(3, 0.1)
    qd = quad_avg_quantile(Cauchy(), 0.2, 0.9)
    check("closed_form_vs_quadrature_3_0.1",
          abs(cf - qd) < 1e-8 and abs(cf - 0.2923746290202891) < 1e-9,
          cf, 0.2923746290202891)

    mix_x, mix_y = discrete_mix.zero_one_couplings(20)
    sums_ok = set(mix_x.row_sums()) == {0} and set(mix_y.row_sums()) == {1}
    check("ex01_sums_zero_one", sums_ok,
          (sorted(set(mix_x.row_sums())), sorted(set(mix_y.row_sums()))), ([0], [1]))
    half = Fraction(1, 2)
    px1 = mix_x.marginal(0)[1]
    py1 = mix_y.marginal(0)[1] + mix_y.residual / 2
    check("ex01_atom_one_mass", px1 == half and py1 == half, (px1, py1), (half, half))
    atoms_ok = all(
        mix_x.marginal(0)[2 ** k] == mix_y.marginal(0)[2 ** k] == Fraction(1, 2 ** (k + 1))
        for k in range(1, 21)
    )
    check("ex01_power_atoms_agree", atoms_ok, "2^-(k+1)", "2^-(k+1)")
    sym = discrete_mix.exchangeable_permute(mix_x)
    nu = PowerTwoGeometric("positive", 20)
    gamma = PowerTwoGeometric("negative", 20)
    expected = {}
    for v, p in nu.pmf_fractions():
        expected[v] = expected.get(v, Fraction(0)) + Fraction(2, 3) * p
    for v, p in gamma.pmf_fractions():
        expected[v] = expected.get(v, Fraction(0)) + Fraction(1, 3) * p
    check("ex01_symmetrized_mixture", sym.marginal(0) == expected,
          "(2nu+gamma)/3", "(2nu+gamma)/3")

    lo, hi = center_bounds.jm_center_bounds(
        center_bounds.JmBoundsInput((Cauchy(), Cauchy()), (0.1, 0.1))
    )
    check("jm_bounds_symmetric_pair", abs(lo + hi) < 1e-12, (lo, hi), "lo == -hi")
    lo3, hi3 = center_bounds.jm_center_bounds(
        center_bounds.JmBoundsInput((Cauchy(),) * 3, (0.1, 0.1, 0.1))
    )
    check("jm_bounds_triple_upper", abs(hi3 - 3 * qd) < 1e-10, hi3, 3 * qd)

    cm = center_bounds.cm_bounds(Cauchy(), 3)
    check("cm_bounds_cauchy_n3",
          abs(cm.b_star - math.log(2) / math.pi) < 1e-4
          and abs(cm.a_star + cm.b_star) < 1e-10,
          (cm.a_star, cm.b_star), "+-log(2)/pi")

    mixture = CountableMixture(
        [(Fraction(2, 3), PowerTwoGeometric("positive", 40)),
         (Fraction(1, 3), PowerTwoGeometric("negative", 40))]
    )
    cmx = center_bounds.cm_bounds(mixture, 3)
    check("cm_bounds_power_mixture", cmx.a_star >= -1e-6 and cmx.b_star <= 2.0 / 3 + 1e-6,
          (cmx.a_star, cmx.b_star), "[0, 2/3]")

    check("mean_inequality_boundary",
          center_bounds.mean_inequality_holds(1.0 / 3, 0, 1, 0.5, 3)
          and not center_bounds.mean_inequality_holds(0.4, 0, 1, 0.5, 3),
          "boundary alpha 1/3", "True/False")

    verdicts = (
        center_bounds.infinite_mean_classifier([Pareto(0.5), point_mass(0), point_mass(0)]),
        center_bounds.infinite_mean_classifier([Cauchy()] * 3),
    )
    check("infinite_mean_classifier", verdicts == ("excluded", "inconclusive"),
          verdicts, ("excluded", "inconclusive"))

    dual_in = center_bounds.dual_bound(Cauchy(), 3, 0.15)
    dual_pt = center_bounds.dual_bound(point_mass(0.0), 2, 0.5)
    check("dual_bound_inside_vs_point", dual_in.value >= 1 - 1e-6 and dual_pt.value < 1,
          (dual_in.value, dual_pt.value), (">=1-1e-6", "<1"))

    cfg = MixerConfig(n=3, c=0.15, seed=seed)
    mixer = build_mixer(cfg)
    t_probe = 2.0
    cap = mixer.kernel.pdf(cfg.c + t_probe)
    check("imbalance_at_density_cap", mixer.imbalance(t_probe, cap) < 0,
          mixer.imbalance(t_probe, cap), "< 0")
    far = mixer.imbalance(1e8, 0.0)
    check("imbalance_far_window", abs(far - (math.log(2) / math.pi - 0.15)) < 1e-6,
          far, math.log(2) / math.pi - 0.15)
    rep = run_invariant_suite(mixer)
    check("mixer_invariant_suite", rep.all_pass, rep.all_pass, True)

    try:
        build_mixer(MixerConfig(n=3, c=0.3))
        check("center_outside_interval_rejected", False, "accepted", "DomainError")
    except DomainError:
        check("center_outside_interval_rejected", True, "DomainError", "DomainError")

    cmax = math.log(2) / math.pi
    mix_hi = build_mixer(MixerConfig(n=3, c=cmax, t_grid=1024, seed=seed))
    mix_lo = build_mixer(MixerConfig(n=3, c=-cmax, t_grid=1024, seed=seed))
    combo = ConvexCombinationSampler(mix_hi, mix_lo, 0.5)
    batch = combo.sample(2000, substream(seed, "repro", "combo"))
    dev = abs(float(batch.row_sums().mean()))
    check("convex_combination_center_zero", dev < 1e-9, dev, "0 within 1e-9")

    cauchy_unnorm = GenericDensity(
        lambda x: 0.5 / (1.0 + x * x),
        lambda x: -x / (1.0 + x * x) ** 2,
    )
    adm = generic_admissibility(cauchy_unnorm, 3)
    check("generic_density_cauchy_admissible",
          adm.ok and abs(adm.q_max - math.log(2) / math.pi) < 1e-6,
          (adm.ok, adm.q_max), (True, math.log(2) / math.pi))
    power = GenericDensity(
        lambda x: 1.0 / (1.0 + abs(x) ** 1.5),
        lambda x: -1.5 * math.copysign(abs(x) ** 0.5, x) / (1.0 + abs(x) ** 1.5) ** 2,
    )
    adm2 = generic_admissibility(power, 3)
    check("generic_density_power_rejected", not adm2.ok, adm2.ok, False)

    sym_mixer = build_mixer(MixerConfig(n=3, c=0.0, seed=seed))
    sbatch = sym_mixer.sample(2000, substream(seed, "repro", "symmetric"))
    sdev = float(np.abs(sbatch.row_sums()).max())
    check("symmetric_center_zero_rows", sdev <= float(sbatch.row_bound.max()),
          sdev, "machine precision")
    return out


def _cmd_repro(args):
    checks = _repro_checks(args.seed)
    all_pass = all(c["passed"] for c in checks)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"measured={c['measured']} expected={c['expected']}")
    payload = {
        "schema": f"mixcenter.repro/{SCHEMA_VERSION}",
        "all_pass": all_pass,
        "checks": checks,
        "seed": args.seed,
    }
    if args.out:
        _emit(payload, _out_path(args.out))
    return 0 if all_pass else 1


# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mixcenter",
        description="Centers of completely/jointly mixable distributions: "
                    "bounds, feasibility, and constant-sum Cauchy samplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interval", help="exact Cauchy center interval")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("bounds", help="window-average center bounds")
    p.add_argument("--marginals", required=True, help="JSON distribution spec file")
    p.add_argument("--n", type=int, help="n for single-marginal complete-mix bounds")
    p.add_argument("--betas", help="comma-separated beta levels for joint bounds")
    p.add_argument("--beta", type=float, default=0.01,
                   help="common beta when --betas is omitted")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("dual", help="piecewise-linear dual bound at a center")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--marginal", help="JSON distribution spec file (default Cauchy)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("feasible", help="joint-mix feasibility at a prescribed sum")
    p.add_argument("--marginals", required=True)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--exact", action="store_true", help="exact-rational simplex")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("centers", help="enumerate certified centers")
    p.add_argument("--marginals", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_centers)

    p = sub.add_parser("sample", help="emit constant-sum Cauchy rows as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--ra-grid-m", type=int, default=512)
    p.add_argument("--tail-eps", type=float, default=1e-4)
    p.add_argument("--t-grid", type=int, default=2048)
    p.add_argument("--engine", choices=["mix", "ra"], default="mix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="verify a sample CSV against its metadata")
    p.add_argument("csv")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ex01", help="exact couplings with centers 0 and 1")
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--out-x")
    p.add_argument("--out-y")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ex01)

    p = sub.add_parser("repro", help="replay paper-anchored numbers")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ConstructionError, SizeError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"i/o or parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
