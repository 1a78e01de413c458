"""Where the traced run wraps the program, and the per-layer metrics.

Each public function is wrapped in the namespace where its caller looks
it up (``mixcenter.cli.build_mixer`` for the CLI, ``mixcenter.cauchy_mix.
ra_flatten`` for the mixer's cells, ``mixcenter.center_bounds.avg_quantile``
for the bounds), and each public method on its class. ``mixcenter.seeding``
is too small to measure and is not wrapped.
"""
from __future__ import annotations

from spans import NAME, PARENT, JOB, ATTRS, self_times

# Per-layer metrics, in the order the traced run prints them, with units.
METRICS = {
    "cli.import_s": "s",
    "cli.sample.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.csv_bytes": "count",
    "cli.sample.coverage": "1",
    "cli.verify.coverage": "1",
    "cauchy_mix.build.calls": "count",
    "cauchy_mix.build_s": "s",
    "cauchy_mix.clip_level.calls": "count",
    "cauchy_mix.clip_level_s": "s",
    "cauchy_mix.cell.calls": "count",
    "cauchy_mix.cell.built": "count",
    "cauchy_mix.cell.hit_ratio": "1",
    "cauchy_mix.cell_self_s": "s",
    "cauchy_mix.sample_self_s": "s",
    "cauchy_mix.radius_quantile_s": "s",
    "cauchy_mix.row_bound_for_s": "s",
    "rearrangement.discretize_s": "s",
    "rearrangement.ra_flatten.calls": "count",
    "rearrangement.ra_flatten_s": "s",
    "rearrangement.ra_sweeps": "count",
    "rearrangement.ra_converged_ratio": "1",
    "verify.invariant_suite_s": "s",
    "verify.ks_s": "s",
    "verify.sum_stats_s": "s",
    "center_bounds.cm_bounds.calls": "count",
    "center_bounds.cm_bounds_s": "s",
    "center_bounds.dual_bound_s": "s",
    "center_bounds.jm_bounds_s": "s",
    "distributions.avg_quantile.calls": "count",
    "distributions.avg_quantile_s": "s",
    "discrete_mix.feasible_center.calls": "count",
    "discrete_mix.float_s": "s",
    "discrete_mix.exact_s": "s",
    "discrete_mix.lp_vars": "count",
    "discrete_mix.guard_failures": "count",
}

# span name -> metric that sums the self time of those spans
SELF_TIME = {
    "cli.sample": "cli.sample.self_s",
    "cli.verify": "cli.verify.self_s",
    "cauchy_mix.build": "cauchy_mix.build_s",
    "cauchy_mix.clip_level": "cauchy_mix.clip_level_s",
    "cauchy_mix.cell": "cauchy_mix.cell_self_s",
    "cauchy_mix.sample": "cauchy_mix.sample_self_s",
    "cauchy_mix.radius_quantile": "cauchy_mix.radius_quantile_s",
    "cauchy_mix.row_bound_for": "cauchy_mix.row_bound_for_s",
    "rearrangement.discretize": "rearrangement.discretize_s",
    "rearrangement.ra_flatten": "rearrangement.ra_flatten_s",
    "verify.invariant_suite": "verify.invariant_suite_s",
    "verify.ks": "verify.ks_s",
    "verify.sum_stats": "verify.sum_stats_s",
    "center_bounds.cm_bounds": "center_bounds.cm_bounds_s",
    "center_bounds.dual_bound": "center_bounds.dual_bound_s",
    "center_bounds.jm_bounds": "center_bounds.jm_bounds_s",
    "distributions.avg_quantile": "distributions.avg_quantile_s",
    "discrete_mix.float": "discrete_mix.float_s",
    "discrete_mix.exact": "discrete_mix.exact_s",
}

# span name -> metric that counts those spans
CALLS = {
    "cauchy_mix.build": "cauchy_mix.build.calls",
    "cauchy_mix.clip_level": "cauchy_mix.clip_level.calls",
    "cauchy_mix.cell": "cauchy_mix.cell.calls",
    "rearrangement.ra_flatten": "rearrangement.ra_flatten.calls",
    "center_bounds.cm_bounds": "center_bounds.cm_bounds.calls",
    "distributions.avg_quantile": "distributions.avg_quantile.calls",
    "discrete_mix.float": "discrete_mix.feasible_center.calls",
    "discrete_mix.exact": "discrete_mix.feasible_center.calls",
}

# span attribute -> metric that sums it
ATTR_SUMS = {
    "sweeps": "rearrangement.ra_sweeps",
    "converged": "ra_converged",
    "candidates": "discrete_mix.lp_vars",
    "guard": "discrete_mix.guard_failures",
}


def _flatten_attrs(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"sweeps": len(result.sweep_spreads) - 1, "converged": int(result.converged)}


def _lp_attrs(args, kwargs, result, exc):
    if result is not None:
        return {"candidates": result.candidates}
    return {"guard": int("iteration guard" in str(exc))}


def _lp_name(args, kwargs):
    return "discrete_mix.exact" if kwargs.get("exact") else "discrete_mix.float"


def install(rec, cli=False):
    """Wrap the program's public calls; ``cli`` adds the CLI's namespace."""
    from mixcenter import cauchy_mix, center_bounds, discrete_mix

    mixers = (cauchy_mix.ConstructiveMixer, cauchy_mix.SymmetricMixer,
              cauchy_mix.ReflectedMixer)
    for cls in mixers:
        rec.install(cls, "sample", "cauchy_mix.sample")
        rec.install(cls, "row_bound_for", "cauchy_mix.row_bound_for")
    rec.install(cauchy_mix.ConstructiveMixer, "clip_level", "cauchy_mix.clip_level")
    rec.install(cauchy_mix.ConstructiveMixer, "cell_coupling", "cauchy_mix.cell")
    rec.install(cauchy_mix.CauchyKernel, "radius_quantile", "cauchy_mix.radius_quantile")
    rec.install(cauchy_mix, "discretize", "rearrangement.discretize")
    rec.install(cauchy_mix, "ra_flatten", "rearrangement.ra_flatten", _flatten_attrs)
    if cli:
        from mixcenter import cli as cli_mod

        rec.install(cli_mod, "build_mixer", "cauchy_mix.build")
        rec.install(cli_mod, "run_invariant_suite", "verify.invariant_suite")
        rec.install(cli_mod, "ks_distance", "verify.ks")
        rec.install(cli_mod, "ks_two_sample", "verify.ks")
        rec.install(cli_mod, "sum_stats", "verify.sum_stats")
        return
    rec.install(cauchy_mix, "build_mixer", "cauchy_mix.build")
    rec.install(center_bounds, "cm_bounds", "center_bounds.cm_bounds")
    rec.install(center_bounds, "dual_bound", "center_bounds.dual_bound")
    rec.install(center_bounds, "jm_center_bounds", "center_bounds.jm_bounds")
    rec.install(center_bounds, "avg_quantile", "distributions.avg_quantile")
    rec.install(discrete_mix, "feasible_center", _lp_name, _lp_attrs)


def per_layer(span_lists, rounds, extra=None):
    """Per-layer metrics from one run's spans: set-up plus one mean round.

    ``span_lists`` holds one span list per recorder (one per CLI child, or
    the runner's own). Spans opened with job None belong to set-up and
    count in full; the rest are divided by ``rounds``. ``extra`` supplies
    the metrics the runner measures itself, already per round.
    """
    totals = {name: 0.0 for name in METRICS}
    totals["ra_converged"] = 0.0
    for spans in span_lists:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            share = 1.0 if span[JOB] is None else 1.0 / rounds
            name = span[NAME]
            if name in SELF_TIME:
                totals[SELF_TIME[name]] += own * share
            if name in CALLS:
                totals[CALLS[name]] += share
            if name == "rearrangement.ra_flatten" and span[PARENT] >= 0 \
                    and spans[span[PARENT]][NAME] == "cauchy_mix.cell":
                totals["cauchy_mix.cell.built"] += share
            for key, value in span[ATTRS].items():
                totals[ATTR_SUMS[key]] += value * share
    calls = totals["cauchy_mix.cell.calls"]
    totals["cauchy_mix.cell.hit_ratio"] = 1.0 - totals["cauchy_mix.cell.built"] / calls if calls else 0.0
    calls = totals["rearrangement.ra_flatten.calls"]
    converged = totals.pop("ra_converged")
    totals["rearrangement.ra_converged_ratio"] = converged / calls if calls else 0.0
    totals.update(extra or {})
    return {name: {"value": totals[name], "unit": unit} for name, unit in METRICS.items()}
