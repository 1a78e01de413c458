"""Command-line surface.

Subcommands: bounds, interval, dual, feasible, centers, sample, verify,
ex01, repro. Every JSON command returns its payload, and ``main`` writes it
to stdout or ``--out`` through one writer, which stamps the versioned
"schema" field ``mixcenter.<command>/<version>``. Sample output is CSV (17
significant digits, so doubles round-trip) plus a metadata sidecar, which
``sample`` writes itself. ``repro`` replays the checks of
``mixcenter.anchors``. All randomness flows from one master seed through
named substreams, so every run is reproducible from its flags.

Exit codes: 0 success, 1 domain or verification failures, 2 I/O or
argument parse errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import typing
import warnings

import numpy as np

from . import cauchy_mix, center_bounds, discrete_mix
from .anchors import replay
from .cauchy_mix import MixerConfig, build_mixer
from .distributions import Cauchy, model_from_spec
from .errors import ConstructionError, DomainError, QuadratureError, SizeError
from .seeding import DEFAULT_SEED, substream
from .verify import (
    KS_99,
    InvariantResult,
    explicit_row_checks,
    ks_distance,
    ks_threshold,
    ks_two_sample,  # noqa: F401  (the traced benchmark run wraps it here by name)
    max_pairwise_ks,
    run_invariant_suite,
    sum_stats,
)

SCHEMA_VERSION = 1
_SIDECAR_SCHEMA = f"mixcenter.sample_meta/{SCHEMA_VERSION}"

# the sample run's configuration, field by field: ``sample``'s build flags,
# the sidecar's config entries and ``verify``'s reading of them
_CONFIG_TYPES = {f.name: typing.get_type_hints(MixerConfig)[f.name]
                 for f in dataclasses.fields(MixerConfig)}
_JSON_TYPES = {int: "integer", float: "number"}


def _build_facts():
    """The slice grid's fixed knots and tail and the coupling cells' size,
    which ``sample`` records and ``verify`` requires."""
    return {"t_grid": cauchy_mix.T_GRID, "tail_eps": cauchy_mix.TAIL_EPS,
            "ra_grid_m": cauchy_mix.RA_GRID_M}


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
        "required": ["schema", *_CONFIG_TYPES, *_build_facts(), "mass_deficit", "count", "engine"],
        "properties": {
            "schema": {"type": "string"},
            **{name: {"type": _JSON_TYPES[tp]} for name, tp in _CONFIG_TYPES.items()},
            **{name: {"type": _JSON_TYPES[type(v)]} for name, v in _build_facts().items()},
            "mass_deficit": {"type": "number"},
            "count": {"type": "integer"},
            "engine": {"enum": ["mix"]},
            # the draw's stream: written from 2 on, absent means 1
            "stream": {"type": "integer"},
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
    iv = center_bounds.cauchy_center_interval(args.n)
    return {
        "n": iv.n,
        "lo": iv.lo,
        "hi": iv.hi,
        "method": iv.kind,
        "grid_resolution": 0.0,
    }, 0


def _cmd_bounds(args):
    marginals = _load_marginals(args.marginals)
    if len(marginals) == 1:
        if args.n is None:
            raise DomainError("single-marginal bounds need --n")
        res = center_bounds.cm_bounds(marginals[0], args.n)
        payload = {
            "mode": "cm",
            "n": args.n,
            "lo": _inf_to_json(res.a_star),
            "hi": _inf_to_json(res.b_star),
            "method": "window_average_grid",
            "grid_resolution": 1.0 / res.grid_size,
        }
    else:
        betas = tuple(float(b) for b in args.betas.split(","))
        if len(betas) == 1:
            betas *= len(marginals)
        lo, hi = center_bounds.jm_center_bounds(
            center_bounds.JmBoundsInput(tuple(marginals), betas)
        )
        payload = {
            "mode": "jm",
            "n": len(marginals),
            "lo": lo,
            "hi": hi,
            "method": "window_average",
            "grid_resolution": 0.0,
        }
    return payload, 0


def _cmd_dual(args):
    model = _load_marginals(args.marginal)[0] if args.marginal else Cauchy()
    res = center_bounds.dual_bound(model, args.n, args.c)
    return {
        "n": args.n,
        "c": args.c,
        "value": res.value,
        "method": "piecewise_linear_dual_grid",
        "grid_resolution": res.grid_resolution,
        "excludes_center": bool(res.value < 1.0 - 1e-9),
    }, 0


def _cmd_feasible(args):
    marginals = _load_marginals(args.marginals)
    res = discrete_mix.feasible_center(
        marginals, args.center, tol=args.tol, exact=args.exact
    )
    payload = {
        "verdict": res.verdict,
        "center": res.center,
        "residual": float(res.residual),
        "candidates": res.candidates,
    }
    if res.coupling is not None:
        payload["coupling"] = res.coupling.to_json_dict()
    if res.dual is not None:
        payload["dual"] = res.dual
    return payload, 0


def _cmd_centers(args):
    marginals = _load_marginals(args.marginals)
    cs = discrete_mix.enumerate_centers(marginals, tol=args.tol)
    return {
        "centers": cs.centers,
        "candidates_examined": cs.candidates_examined,
        "couplings": {
            repr(c): coup.to_json_dict() for c, coup in cs.certificates.items()
        },
    }, 0


# rows formatted per write: bounds the temporary Python objects of tolist()
_CSV_CHUNK_ROWS = 8192


def _write_csv(path, values, ts, branch):
    """Write ``x1..xn, t, branch, row_sum`` rows: doubles as ``%.17g``,
    ``branch`` as an integer, CRLF line ends (the csv module's dialect).

    ``%`` formatting holds the GIL, so the rows are formatted in two halves
    in two processes: where ``os.fork`` exists, a forked child formats the
    second half into an unnamed temporary file in the output's directory
    while this process writes the header and the first half, and the
    child's file is appended once it has exited 0. The bytes do not depend
    on the split. The child is reaped before this returns or raises, and
    killed first if this process fails. ``two_halves`` leaves no thread
    behind, so the fork is safe after a mixer build or a pair KS.
    """
    n = values.shape[1]
    header = [f"x{j + 1}" for j in range(n)] + ["t", "branch", "row_sum"]
    row = ",".join(["%.17g"] * (n + 1) + ["%d", "%.17g"]) + "\r\n"
    columns = (values, ts, branch, values.sum(axis=1))
    count = len(values)
    head, rest = slice(0, count // 2), slice(count // 2, count)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if not hasattr(os, "fork"):
            _write_rows(fh, row, columns, slice(0, count))
            return
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as tail:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with native threads (such
                # as BLAS pools) forks; the child calls no BLAS
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _write_rows(tail, row, columns, rest)
                    tail.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                _write_rows(fh, row, columns, head)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise OSError(f"the process formatting rows {rest.start + 1}-{count} "
                              f"of {path} exited with status {status}")
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


def _write_rows(fh, row, columns, rows):
    """The ``rows`` slice of ``columns`` through the ``row`` format, chunk
    by chunk."""
    for start in range(rows.start, rows.stop, _CSV_CHUNK_ROWS):
        chunk = slice(start, min(start + _CSV_CHUNK_ROWS, rows.stop))
        block = np.column_stack([col[chunk] for col in columns])
        # one format of the whole chunk: the same bytes as one row at a time
        fh.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())


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
    cfg = MixerConfig(**{name: getattr(args, name) for name in _CONFIG_TYPES})
    mixer = build_mixer(cfg)
    batch = mixer.sample(args.count, substream(cfg.seed, "sample", "rows"))
    _write_csv(out, batch.values, batch.t, batch.branch)
    meta = {
        "schema": _SIDECAR_SCHEMA,
        **dataclasses.asdict(cfg), **_build_facts(),
        "mass_deficit": mixer.mass_deficit,
        "count": args.count,
        "engine": "mix",
    }
    # stream 1 is written as no key, so its sidecars keep their bytes
    if mixer.stream > 1:
        meta["stream"] = mixer.stream
    _emit(meta, out + ".meta.json")
    return None, 0


def _sidecar_value(meta, name, tp):
    """``meta[name]`` as ``tp``: an int field needs a JSON integer and a float
    field a JSON number (a bool is neither); a wrong type exits 2 naming it."""
    value = meta[name]
    if isinstance(value, bool) or not isinstance(value, int if tp is int else (int, float)):
        raise ValueError(f"sidecar {name!r} = {value!r} is not a JSON {_JSON_TYPES[tp]}")
    return tp(value)


def _cmd_verify(args):
    path = _out_path(args.csv)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    # the sidecar is outside input: it must describe a mixer sample of this
    # CSV, and a key that ``sample`` writes but the sidecar lacks exits 2
    if meta.get("schema") != _SIDECAR_SCHEMA:
        raise ValueError(f"sidecar 'schema' = {meta.get('schema')!r} is not {_SIDECAR_SCHEMA!r}")
    if meta["engine"] != "mix":
        raise DomainError(f"sidecar engine {meta['engine']!r} is not supported; "
                          "only mixer samples can be verified")
    cfg = MixerConfig(**{name: _sidecar_value(meta, name, tp)
                         for name, tp in _CONFIG_TYPES.items()})
    for name, value in _build_facts().items():
        if _sidecar_value(meta, name, type(value)) != value:
            raise DomainError(f"sidecar {name} = {meta[name]!r}, not this version's {value!r}")
    values, ts, branch, recorded = _read_csv(path)
    n, c = cfg.n, cfg.c
    count = values.shape[0]
    if n != values.shape[1]:
        raise DomainError(f"sidecar n = {n}, but the CSV has {values.shape[1]} x columns")
    if _sidecar_value(meta, "count", int) != count:
        raise DomainError(f"sidecar count = {meta['count']}, but the CSV has {count} rows")
    # the bounds certify the rows' own sums, so the recorded row_sum column
    # must be those sums bit for bit (NaN included)
    sums = values.sum(axis=1)
    if sums.tobytes() != recorded.tobytes():
        i = int(np.flatnonzero(sums.view(np.uint64) != recorded.view(np.uint64))[0])
        raise DomainError(f"CSV line {i + 2}: row_sum {float(recorded[i])!r} is not "
                          f"the sum of its x columns, {float(sums[i])!r}")
    target = n * c
    checks = []
    # the columns are tested against the law of the mixer they are rebuilt on,
    # which must draw by the sidecar's stream
    mixer = build_mixer(cfg)
    stream = _sidecar_value(meta, "stream", int) if "stream" in meta else 1
    if stream != mixer.stream:
        raise DomainError(f"sidecar stream {stream}, but this version draws n={n}, c={c} "
                          f"by stream {mixer.stream}")

    # each column is sorted once, as a contiguous row, for its own KS test
    # and every pair it is in
    cols = values.T.copy()
    cols.sort(axis=1)
    ks_lim = 0.01 + ks_threshold(count)
    for j in range(n):
        d = ks_distance(cols[j], mixer.kernel.cdf)
        checks.append(InvariantResult("ks_coordinate_%d" % (j + 1), d <= ks_lim, d, ks_lim))

    stats = sum_stats(values, target, branch)
    checks.append(InvariantResult("sum_mean_dev", abs(stats.mean_dev) <= 1e-3,
                                  abs(stats.mean_dev), 1e-3))

    bounds = mixer.row_bound_for(ts, branch)
    excess = float(np.max(np.abs(sums - target) - bounds))
    checks.append(InvariantResult("row_sum_bounds", excess <= 1e-15, excess, 1e-15))
    checks += explicit_row_checks(mixer, ts, branch)
    # the rest needs only the sorted columns: letting the CSV's table go
    # here makes room for the temporaries of the two pair-KS threads
    del values, ts, branch, recorded, sums, bounds
    checks += run_invariant_suite(mixer)
    mass_err = abs(_sidecar_value(meta, "mass_deficit", float) - mixer.mass_deficit)
    checks.append(InvariantResult("metadata_mass_deficit", mass_err <= 1e-12, mass_err, 1e-12))

    worst_pair = max_pairwise_ks(cols)
    # 0.01 is the calibration at 1e5 rows; below that the 99% two-sample
    # critical value dominates
    pair_lim = max(0.01, KS_99 * math.sqrt(2.0 / count))
    checks.append(InvariantResult("exchangeability_pairwise_ks", worst_pair <= pair_lim,
                                  worst_pair, pair_lim))

    all_pass = all(r.passed for r in checks)
    return {
        "all_pass": all_pass,
        "checks": [r.to_dict() for r in checks],
        "config": meta,
        "sum_stats": dataclasses.asdict(stats),
    }, 0 if all_pass else 1


def _cmd_ex01(args):
    mix_x, mix_y = discrete_mix.zero_one_couplings(args.K)
    return {
        "truncation": args.K,
        "residual": float(mix_x.residual),
        "mix_x": mix_x.to_json_dict(),
        "mix_y": mix_y.to_json_dict(),
    }, 0


# ----------------------------------------------------------------------
# repro: replay the paper-anchored numbers against stored expectations

def _cmd_repro(args):
    checks = replay(args.seed)
    all_pass = all(c["passed"] for c in checks)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"measured={c['measured']} expected={c['expected']}")
    # the check lines are the stdout report, so the JSON is written only to --out
    payload = {"all_pass": all_pass, "checks": checks, "seed": args.seed}
    return payload if args.out else None, 0 if all_pass else 1


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

    # no abbreviations, so that --beta is an error and not --betas
    p = sub.add_parser("bounds", help="window-average center bounds", allow_abbrev=False)
    p.add_argument("--marginals", required=True, help="JSON distribution spec file")
    p.add_argument("--n", type=int, help="n for single-marginal complete-mix bounds")
    p.add_argument("--betas", default="0.01",
                   help="joint-bound beta levels, comma-separated: one per marginal, "
                        "or one common level")
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
    p.add_argument("--exact", action="store_true",
                   help="decide in exact rationals: a fraction-free Bland simplex "
                        "instead of the float LP, its certificate checked exactly")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("centers", help="enumerate certified centers")
    p.add_argument("--marginals", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_centers)

    p = sub.add_parser("sample", help="emit constant-sum Cauchy rows as CSV")
    for f in dataclasses.fields(MixerConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=_CONFIG_TYPES[f.name],
                       required=f.default is dataclasses.MISSING, default=f.default)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="verify a sample CSV against its metadata")
    p.add_argument("csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ex01", help="exact couplings with centers 0 and 1")
    p.add_argument("--K", type=int, default=20)
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
        payload, code = args.func(args)
        if payload is not None:
            _emit({"schema": f"mixcenter.{args.command}/{SCHEMA_VERSION}", **payload},
                  _out_path(args.out))
        return code
    except (DomainError, ConstructionError, SizeError, QuadratureError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"i/o or parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
