import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixcenter
from mixcenter import anchors, cli
from mixcenter.cauchy_mix import ExplicitMixer, MixerConfig, build_mixer
from mixcenter.distributions import Cauchy
from mixcenter.cli import SCHEMAS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS[payload["schema"]])
    return code, payload


@pytest.fixture
def cauchy_spec(tmp_path):
    path = tmp_path / "cauchy.json"
    path.write_text(json.dumps({"kind": "cauchy"}))
    return str(path)


@pytest.fixture
def triple_spec(tmp_path):
    third = {"kind": "finite", "atoms": [[0.0, 1 / 3], [1.0, 2 / 3]]}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps([third, third, third]))
    return str(path)


class TestInterval:
    def test_n3(self, capsys):
        code, payload = run_json(capsys, "interval", "--n", "3")
        assert code == 0
        assert payload["hi"] == pytest.approx(anchors.LOG2_PI, abs=1e-12)
        assert payload["lo"] == -payload["hi"]
        assert payload["method"] == "exact_formula"

    def test_bad_n(self, capsys):
        code, _ = run_cli(capsys, "interval", "--n", "1")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "iv.json"
        code, _ = run_cli(capsys, "interval", "--n", "5", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["hi"] == pytest.approx(math.log(4) / math.pi)


class TestBounds:
    def test_cm_single(self, capsys, cauchy_spec):
        code, payload = run_json(capsys, "bounds", "--marginals", cauchy_spec, "--n", "3")
        assert code == 0
        assert payload["mode"] == "cm"
        assert payload["hi"] == pytest.approx(anchors.LOG2_PI, abs=1e-4)

    def test_jm_list(self, capsys, triple_spec):
        code, payload = run_json(
            capsys, "bounds", "--marginals", triple_spec, "--betas", "0.05"
        )
        assert code == 0
        assert payload["mode"] == "jm"
        assert payload["lo"] <= 2.0 <= payload["hi"]
        # one level is the common level of every marginal
        _, each = run_json(capsys, "bounds", "--marginals", triple_spec,
                           "--betas", "0.05,0.05,0.05")
        assert each == payload
        # --betas alone takes levels: --beta is not an abbreviation of it
        code, _ = run_cli(capsys, "bounds", "--marginals", triple_spec, "--beta", "0.05")
        assert code == 2

    @pytest.mark.parametrize("spec, key, value", [
        ({"kind": "ex01_nu"}, "lo", "inf"),
        ({"kind": "pareto", "shape": 0.5}, "lo", "inf"),
        ({"kind": "ex01_gamma"}, "hi", "-inf"),
    ], ids=["ex01_nu", "pareto-0.5", "ex01_gamma"])
    def test_infinite_mean_side_is_a_string(self, capsys, tmp_path, spec, key, value):
        # JSON has no infinity: the diverging side is written as a string
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        code, payload = run_json(capsys, "bounds", "--marginals", str(path), "--n", "3")
        assert code == 0 and payload["schema"] == "mixcenter.bounds/1"
        assert payload[key] == value
        other = payload["hi" if key == "lo" else "lo"]
        assert isinstance(other, float) and math.isfinite(other)

    def test_missing_n_for_single(self, capsys, cauchy_spec):
        code, _ = run_cli(capsys, "bounds", "--marginals", cauchy_spec)
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "bounds", "--marginals", str(tmp_path / "nope.json"),
                          "--n", "3")
        assert code == 2


class TestDual:
    def test_inside_interval(self, capsys):
        code, payload = run_json(capsys, "dual", "--n", "3", "--c", "0.15")
        assert code == 0
        assert payload["value"] >= 1 - 1e-6
        assert payload["excludes_center"] is False

    def test_point_mass_excluded(self, capsys, tmp_path):
        path = tmp_path / "pm.json"
        path.write_text(json.dumps({"kind": "point", "value": 0.0}))
        code, payload = run_json(capsys, "dual", "--n", "2", "--c", "0.5",
                                 "--marginal", str(path))
        assert code == 0
        assert payload["excludes_center"] is True

    def test_atom_uniform_center_not_excluded(self, capsys, tmp_path):
        # 0.4 is a 3-center of this law (its mean; the atom passes the mean
        # inequality), so the dual bound must not exclude it
        path = tmp_path / "au.json"
        path.write_text(json.dumps({"kind": "atom_uniform", "atom_x": 0.0,
                                    "right_y": 1.0, "atom_weight": 0.2}))
        code, payload = run_json(capsys, "dual", "--n", "3", "--c", "0.4",
                                 "--marginal", str(path))
        assert code == 0
        assert payload["excludes_center"] is False

    def test_power_two_marginal(self, capsys, tmp_path):
        path = tmp_path / "nu.json"
        path.write_text(json.dumps({"kind": "ex01_nu", "truncation_K": 12}))
        code, payload = run_json(capsys, "dual", "--n", "3", "--c", "2.0",
                                 "--marginal", str(path))
        assert code == 0
        assert payload["value"] == pytest.approx(1.0)


class TestFeasibleCenters:
    def test_feasible(self, capsys, triple_spec):
        code, payload = run_json(
            capsys, "feasible", "--marginals", triple_spec, "--center", "2.0"
        )
        assert code == 0
        assert payload["verdict"] == "feasible"
        assert "coupling" in payload
        sums = {sum(row) for row in payload["coupling"]["support"]}
        assert sums == {2.0}

    def test_infeasible_with_dual(self, capsys, triple_spec):
        code, payload = run_json(
            capsys, "feasible", "--marginals", triple_spec, "--center", "1.0"
        )
        assert code == 0
        assert payload["verdict"] == "infeasible"
        assert payload["dual"] is not None

    def test_centers(self, capsys, triple_spec):
        code, payload = run_json(capsys, "centers", "--marginals", triple_spec)
        assert code == 0
        assert payload["centers"] == [2.0]


# specs read by TestNonFiniteInputs, NaN and Infinity as json writes them
NON_FINITE_SPECS = {
    "uniform5": [{"kind": "finite", "atoms": [[v, 0.2] for v in range(5)]}] * 3,
    "nan-prob": {"kind": "finite", "atoms": [[0.0, math.nan]]},
    "nan-value": {"kind": "finite", "atoms": [[math.nan, 1.0]]},
    "nan-point": {"kind": "point", "value": math.nan},
    "nan-cauchy": {"kind": "cauchy", "scale": math.nan},
    "inf-cauchy": {"kind": "cauchy", "scale": math.inf},
    "nan-pareto": {"kind": "pareto", "shape": math.nan},
    "inf-uniform": {"kind": "uniform", "a": 0.0, "b": math.inf},
    "inf-atom-uniform": {"kind": "atom_uniform", "atom_x": -math.inf, "right_y": 1.0,
                         "atom_weight": 0.5},
}


class TestNonFiniteInputs:
    """A NaN or infinite number from outside exits 1 with "error: need ...",
    not a traceback, a verdict or a JSON encoder error."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "3", "--c", "nan", "--count", "10", "--out", "{out}"],
        ["sample", "--n", "3", "--c=-inf", "--count", "10", "--out", "{out}"],
        ["verify", "{nan-sidecar}"],
        ["dual", "--n", "3", "--c", "nan"],
        ["dual", "--n", "3", "--c", "inf"],
        ["feasible", "--marginals", "{uniform5}", "--center", "6", "--tol", "-1"],
        ["feasible", "--marginals", "{uniform5}", "--center", "6", "--tol", "nan"],
        ["feasible", "--marginals", "{uniform5}", "--center", "6", "--tol", "inf"],
        ["feasible", "--marginals", "{uniform5}", "--center", "inf"],
        ["feasible", "--marginals", "{uniform5}", "--center", "nan"],
        ["centers", "--marginals", "{uniform5}", "--tol", "-1"],
        *[["bounds", "--marginals", "{%s}" % key, "--n", "3"]
          for key in NON_FINITE_SPECS if key != "uniform5"],
    ], ids=lambda argv: " ".join(argv))
    def test_refused(self, capsys, tmp_path, argv):
        paths = {"out": str(tmp_path / "rows.csv")}
        for key, spec in NON_FINITE_SPECS.items():
            paths[key] = str(tmp_path / f"{key}.json")
            Path(paths[key]).write_text(json.dumps(spec))
        if "{nan-sidecar}" in argv:
            assert main(["sample", "--n", "3", "--c", "0.15", "--count", "10",
                         "--out", paths["out"]]) == 0
            sidecar = Path(paths["out"] + ".meta.json")
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "c": math.nan}))
            paths["nan-sidecar"] = paths["out"]
        code = main([arg.format_map(paths) if arg.startswith("{") else arg for arg in argv])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: need ") and "Traceback" not in err, err


class TestSampleVerify:
    def test_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(
            capsys, "sample", "--n", "3", "--c", "0.15", "--count", "8000",
            "--seed", "7", "--out", out,
        )
        assert code == 0
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        jsonschema.validate(meta, SCHEMAS["mixcenter.sample_meta/1"])
        assert meta["n"] == 3 and meta["seed"] == 7
        code, payload = run_json(capsys, "verify", out)
        assert code == 0
        assert payload["all_pass"] is True
        # per-branch row-sum deviations, recomputed from the CSV
        values, _, branch, _ = cli._read_csv(out)
        devs = values.sum(axis=1) - 3 * 0.15
        stats = payload["sum_stats"]
        assert stats["max_abs_dev"] == float(np.abs(devs).max())
        # cyclic rows and the explicit mixer's rows symmetric about c
        assert set(stats["per_branch"]) == {"1", "4"}
        for label, entry in stats["per_branch"].items():
            sel = devs[branch == int(label)]
            assert entry["count"] == sel.size
            assert entry["max_abs_dev"] == float(np.abs(sel).max())
            assert entry["mean_dev"] == float(sel.mean())
        assert sum(e["count"] for e in stats["per_branch"].values()) == 8000

    def test_sidecar_records_every_mixer_config_field(self, capsys, tmp_path):
        # verify rebuilds the mixer from the sidecar, so it must hold the
        # whole config the sampling mixer was built from
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "10",
                          "--out", out)
        assert code == 0
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert {f.name for f in dataclasses.fields(MixerConfig)} <= set(meta)
        # and verify requires every key sample writes, but the stream, which
        # a c = 0 sample writes as 2 and a file without it reads as 1
        assert meta.pop("stream") == 2
        assert set(meta) == set(SCHEMAS["mixcenter.sample_meta/1"]["required"])

    def test_csv_round_trips_doubles(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        run_cli(capsys, "sample", "--n", "3", "--c", "0.1", "--count", "50",
                "--seed", "1", "--out", out)
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header[:3] == ["x1", "x2", "x3"]
        assert header[3:] == ["t", "branch", "row_sum"]
        for row in rows:
            vals = [float(v) for v in row[:3]]
            assert float(row[5]) == sum(vals)  # 17 digits round-trip exactly

    def test_determinism(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            run_cli(capsys, "sample", "--n", "3", "--c", "0.1", "--count", "200",
                    "--seed", "5", "--out", out)
        assert Path(a).read_text() == Path(b).read_text()

    def test_c_zero_engine(self, capsys, tmp_path):
        out = str(tmp_path / "zero.csv")
        code, _ = run_cli(capsys, "sample", "--n", "2", "--c", "0", "--count",
                          "4000", "--seed", "2", "--out", out)
        assert code == 0
        code, payload = run_json(capsys, "verify", out)
        assert code == 0 and payload["all_pass"]
        # every c = 0 row is symmetric (branch 4), and its recorded radius is
        # tested against the kernel's radius law; there are no cyclic rows
        assert set(cli._read_csv(out)[2]) == {4}
        rows = {r["name"]: r for r in payload["checks"]}
        assert rows["radius_law_ks"]["passed"] and rows["radius_law_ks"]["measured"] > 0.0
        assert rows["cyclic_t_law_ks"]["measured"] == rows["cyclic_branch_count"]["measured"] == 0.0
        assert rows["inverse_u_error"]["measured"] == 0.0

    @pytest.mark.parametrize("c", ["1e-320", "-1e-320", "5e-324"])
    def test_subnormal_center_rejected(self, capsys, tmp_path, c):
        # a subnormal c would round the cyclic fraction, and with it the t-law
        code = main(["sample", "--n", "3", f"--c={c}", "--count", "50",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need c = 0 or |c| >= ")
        assert not (tmp_path / "x.csv").exists()

    def test_smallest_normal_center_verifies(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", repr(sys.float_info.min),
                          "--count", "2000", "--out", out)
        assert code == 0
        code, payload = run_json(capsys, "verify", out)
        assert code == 0 and payload["all_pass"]

    def test_allocation_failure_is_an_error(self, capsys, tmp_path, slice_grid):
        # 2**40 atoms per cell: the cell table (160 PiB at n = 10) is beyond
        # any address space, so numpy refuses it before touching memory
        slice_grid(512)
        code = main(["sample", "--n", "10", "--c", "0.69", "--count", "10",
                     "--ra-grid-m", str(2 ** 40), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_engine_flag_rejected(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "10",
                          "--engine", "ra", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ("--n", "1"),
        ("--ra-grid-m", "0"),
        ("--seed", "-1"),
    ], ids=lambda flags: "".join(flags).lstrip("-"))
    def test_config_outside_domain_rejected(self, capsys, tmp_path, flags):
        # argparse keeps the last value of a repeated flag
        code = main(["sample", "--n", "3", "--c", "0.15", "--count", "10",
                     "--out", str(tmp_path / "x.csv"), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [("--t-grid", "512"), ("--tail-eps", "1e-3")],
                             ids=["t-grid", "tail-eps"])
    def test_fixed_grid_flags_rejected(self, capsys, tmp_path, flags):
        # the slice grid's knot count and tail are constants, not settings
        code = main(["sample", "--n", "10", "--c", repr(math.log(9) / math.pi), "--count", "10",
                     "--out", str(tmp_path / "x.csv"), *flags])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_center_outside_interval(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.3", "--count",
                          "10", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_zero_count_rejected(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count",
                          "0", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("edit,message", [
        ({"engine": "ra"}, "sidecar engine 'ra'"),
        ({"n": 4}, "sidecar n = 4, but the CSV has 3 x columns"),
        ({"count": 999}, "sidecar count = 999, but the CSV has 500 rows"),
        ({"t_grid": 512}, "sidecar t_grid = 512, not this version's 2048"),
        ({"tail_eps": 1e-3}, "sidecar tail_eps = 0.001, not this version's 0.0001"),
    ], ids=["engine", "n", "count", "t_grid", "tail_eps"])
    def test_verify_rejects_sidecar_not_matching_mixer_csv(self, capsys, tmp_path,
                                                         edit, message):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "500",
                          "--seed", "3", "--out", str(out))
        assert code == 0
        sidecar = tmp_path / "rows.csv.meta.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("n,c,stream", [(3, 0.15, 2), (4, 0.0, 2),
                                            (10, math.log(9) / math.pi, None)],
                             ids=["explicit", "center-zero", "constructive"])
    def test_verify_reads_the_sidecar_stream(self, capsys, tmp_path, slice_grid, n, c, stream):
        # explicit files, c = 0 ones included, carry stream 2; files of
        # stream 1 carry no key, so a (3, 0.15) or c = 0 sidecar without one
        # names rows this version does not draw
        slice_grid(512)
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", str(n), "--c", repr(c), "--count", "500",
                          "--seed", "3", "--out", str(out))
        assert code == 0
        sidecar = tmp_path / "rows.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert meta.get("stream") == stream
        meta["stream"] = 1 if stream else 2
        sidecar.write_text(json.dumps(meta))
        assert main(["verify", str(out)]) == 1
        drawn = stream or 1
        assert (f"sidecar stream {meta['stream']}, but this version draws n={n}, c={c} "
                f"by stream {drawn}") in capsys.readouterr().err

    def test_verify_checks_the_explicit_construction(self, capsys, tmp_path, monkeypatch):
        # an explicit file's t-law, radius law and cyclic count pass; a t-law
        # read at twice its t fails that check alone
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.15", "--count", "20000",
                          "--seed", "3", "--out", out)
        assert code == 0
        construction = {"cyclic_t_law_ks", "radius_law_ks", "cyclic_branch_count"}
        code, payload = run_json(capsys, "verify", out)
        assert code == 0
        assert construction <= {r["name"] for r in payload["checks"] if r["passed"]}
        t_cdf = ExplicitMixer.t_cdf
        monkeypatch.setattr(ExplicitMixer, "t_cdf", lambda self, t: t_cdf(self, 2.0 * t))
        code, payload = run_json(capsys, "verify", out)
        assert code == 1
        assert {r["name"] for r in payload["checks"] if not r["passed"]} == {"cyclic_t_law_ks"}

    @pytest.mark.parametrize("key", ["t_grid", "count", "engine"])
    def test_verify_requires_every_sidecar_key(self, capsys, tmp_path, key):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "500",
                          "--seed", "3", "--out", str(out))
        assert code == 0
        sidecar = tmp_path / "rows.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(key) in captured.err

    @pytest.mark.parametrize("key,value", [
        ("t_grid", 2048.9),
        ("tail_eps", "0.0001"),
        ("seed", 3.5),
        ("c", "0.15"),
        ("ra_grid_m", "512"),
        ("count", "2000"),
        ("count", 2000.7),
        ("mass_deficit", repr),
        ("stream", 2.0),
    ], ids=["t_grid", "tail_eps", "seed", "c", "ra_grid_m", "count-string", "count-fraction",
            "mass_deficit-string", "stream"])
    def test_verify_rejects_sidecar_value_of_wrong_type(self, capsys, tmp_path,
                                                        key, value):
        # each value would read back as the sample's own (2048, 1e-4, 3, 0.15,
        # 512, 2000 rows, and its mass deficit as the string of its repr) if
        # it were truncated or parsed, so the rows would verify
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.15", "--count", "2000",
                          "--seed", "3", "--out", str(out))
        assert code == 0
        sidecar = tmp_path / "rows.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value(meta[key]) if callable(value) else value
        sidecar.write_text(json.dumps(meta))
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(key) in captured.err

    @pytest.mark.parametrize("schema", [None, "mixcenter.sample_meta/9", "mixcenter.verify/1",
                                        1], ids=["missing", "future", "other", "integer"])
    def test_verify_requires_sidecar_schema(self, capsys, tmp_path, schema):
        # a sidecar of another version or command is not read under this
        # version's keys
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "500",
                          "--seed", "3", "--out", str(out))
        assert code == 0
        sidecar = tmp_path / "rows.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()
        if schema is None:
            del meta["schema"]
        else:
            meta["schema"] = schema
        sidecar.write_text(json.dumps(meta))
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sidecar 'schema'" in captured.err

    def test_verify_checks_row_sum_column_against_x_columns(self, capsys, tmp_path):
        # row_sum_bounds certifies the sums of the x columns, so a row whose
        # x1 moved while its recorded row_sum did not must fail verify
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.15", "--count", "8000",
                          "--seed", "7", "--out", str(out))
        assert code == 0
        lines = out.read_bytes().split(b"\r\n")
        fields = lines[6].split(b",")  # data row 5, counted from 0
        fields[0] = b"%.17g" % (float(fields[0]) + 1e-3)
        lines[6] = b",".join(fields)
        out.write_bytes(b"\r\n".join(lines))
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CSV line 7: row_sum" in captured.err
        assert "is not the sum of its x columns" in captured.err

    def test_verify_tests_columns_against_the_mixers_law(self, capsys, tmp_path, monkeypatch):
        # the KS rows read the rebuilt mixer's kernel: one whose cdf is
        # shifted by 1 fails every column of an honest c = 0 sample
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "4000",
                          "--seed", "2", "--out", out)
        assert code == 0

        class Shifted:
            """The mixer's own kernel with its cdf moved right by 1."""

            def __init__(self, kernel):
                self.kernel = kernel

            def __getattr__(self, name):
                return getattr(self.kernel, name)

            def cdf(self, x):
                return Cauchy().cdf(np.asarray(x) - 1.0)

        def build_shifted(cfg):
            mixer = build_mixer(cfg)
            mixer.kernel = Shifted(mixer.kernel)
            return mixer

        monkeypatch.setattr(cli, "build_mixer", build_shifted)
        code, payload = run_json(capsys, "verify", out)
        ks = {r["name"]: r["passed"] for r in payload["checks"]
              if r["name"].startswith("ks_coordinate_")}
        assert code == 1
        assert ks == {"ks_coordinate_1": False, "ks_coordinate_2": False,
                      "ks_coordinate_3": False}
        assert all(r["passed"] for r in payload["checks"] if r["name"] not in ks)

    @pytest.mark.parametrize("n,c", [(3, 0.15), (10, math.log(9) / math.pi)],
                             ids=["explicit", "constructive"])
    @pytest.mark.parametrize("count", [2000, 60_000])
    def test_verify_thresholds_pinned(self, capsys, tmp_path, slice_grid, count, n, c):
        # every gate of verify, on either side of the pairwise KS floor of
        # 0.01, for both mixers at c > 0. Gates only tighten: one that
        # tightens updates this pin
        slice_grid(512)
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", str(n), "--c", repr(c), "--count", str(count),
                          "--out", out)
        assert code == 0
        _, payload = run_json(capsys, "verify", out)
        want = {f"ks_coordinate_{j + 1}": 0.01 + 1.628 / math.sqrt(count) for j in range(n)}
        want.update({
            "exchangeability_pairwise_ks": max(0.01, 1.628 * math.sqrt(2 / count)),
            "sum_mean_dev": 1e-3,
            "row_sum_bounds": 1e-15,
            "metadata_mass_deficit": 1e-12,
        })
        if n == 3:
            values, ts, branch, _ = cli._read_csv(out)
            p = 6 * math.atan(c) / math.pi
            want.update({
                "cyclic_t_law_ks": 0.01 + 1.628 / math.sqrt(np.count_nonzero(branch == 1)),
                "radius_law_ks": 0.01 + 1.628 / math.sqrt(np.count_nonzero(branch == 4)),
                "cyclic_branch_count": 0.01 + 2.5758 * math.sqrt(p * (1 - p) / count),
                "inverse_u_error": 1e-6,
                "radius_mass": 1e-9,
                "explicit_rows_exact": 0.0,
            })
        else:
            want.update({
                "clip_level_monotone": 1e-12,
                "clip_level_bounds": 1e-15,
                "root_residual": 1e-12,
                "zero_level_nonnegative": -1e-10,
                "edge_balance_single_sign_change": 1.0,
                "mixing_mass": 1e-4 + 1e-6,
                "slice_mean": 1e-8,
                "slice_weight_inequality": -1e-12,
                "measure_reconstruction": 1e-4,
                "coupling_cells_valid": 0.0,
            })
        got = {check["name"]: check["threshold"] for check in payload["checks"]}
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _reference_csv(path, values, ts, branch):
    """The csv-module writer whose bytes ``_write_csv`` must reproduce."""
    n = values.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(n)] + ["t", "branch", "row_sum"])
        sums = values.sum(axis=1)
        for i in range(values.shape[0]):
            row = [f"{v:.17g}" for v in values[i]]
            row += [f"{ts[i]:.17g}", str(int(branch[i])), f"{sums[i]:.17g}"]
            writer.writerow(row)


def _per_row_csv(path, values, ts, branch):
    """``_write_csv`` as one ``%`` format per row."""
    n = values.shape[1]
    row = ",".join(["%.17g"] * (n + 1) + ["%d", "%.17g"]) + "\r\n"
    chunk = np.column_stack([values, ts, branch, values.sum(axis=1)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(n)] + ["t", "branch", "row_sum"]) + "\r\n")
        fh.write("".join([row % tuple(r) for r in chunk.tolist()]))


_CSV_DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e300, -1e300, 1.7976931348623157e308]),
)


class TestCsvIo:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_chunk_format_equals_per_row_format(self, tmp_path_factory, n, data):
        count = data.draw(st.sampled_from([1, 2, 7, cli._CSV_CHUNK_ROWS + 3]))
        cells = data.draw(st.lists(_CSV_DOUBLES, min_size=(n + 1) * 4, max_size=(n + 1) * 4))
        # a few drawn rows tiled over the count, so chunks of 8192 rows are cheap
        block = np.array(cells).reshape(4, n + 1)
        tiled = np.resize(block, (count, n + 1))
        values, ts = tiled[:, :n], tiled[:, n].copy()
        branch = np.resize(np.array(data.draw(st.lists(st.integers(1, 3), min_size=4,
                                                         max_size=4)), dtype=np.int8), count)
        path = tmp_path_factory.mktemp("csv")
        ours, ref = path / "ours.csv", path / "ref.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            cli._write_csv(str(ours), values, ts, branch)
            _per_row_csv(str(ref), values, ts, branch)
        assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("count", [1, cli._CSV_CHUNK_ROWS + 37])
    def test_bytes_match_csv_module_and_read_back_exactly(self, tmp_path, count):
        rng = np.random.default_rng(count)
        scale = 10.0 ** rng.integers(-300, 300, size=(count, 4))
        values = rng.standard_cauchy((count, 4)) * scale
        values[0] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
        ts = rng.random(count)
        ts[::3] = np.nan
        branch = rng.integers(1, 4, size=count).astype(np.int8)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        cli._write_csv(str(ours), values, ts, branch)
        _reference_csv(str(ref), values, ts, branch)
        assert ours.read_bytes() == ref.read_bytes()
        got_values, got_ts, got_branch, got_sums = cli._read_csv(str(ours))
        assert got_values.tobytes() == values.tobytes()
        assert got_ts.tobytes() == ts.tobytes()
        assert np.array_equal(got_branch, branch)
        assert got_sums.tobytes() == values.sum(axis=1).tobytes()

    # where os.fork exists, _write_csv formats the second half of the rows
    # in a forked child and appends it to the first
    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("count", [2, 3, 2 * cli._CSV_CHUNK_ROWS + 1,
                                       3 * cli._CSV_CHUNK_ROWS])
    def test_halves_equal_one_pass(self, tmp_path, monkeypatch, fork, count):
        # the split falls inside the first chunk (2, 3 rows), on a chunk edge
        # (2 chunks + 1) and inside a chunk (3 chunks)
        if fork and not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        rng = np.random.default_rng(count)
        values = rng.standard_cauchy((count, 3))
        ts = rng.random(count)
        branch = rng.integers(1, 4, size=count).astype(np.int8)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        cli._write_csv(str(ours), values, ts, branch)
        _per_row_csv(str(ref), values, ts, branch)
        assert ours.read_bytes() == ref.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["ours.csv", "ref.csv"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("in_child", [True, False], ids=["child-half", "parent-half"])
    def test_failure_in_a_half_raises_and_leaves_no_child(self, tmp_path, monkeypatch,
                                                          in_child):
        parent = os.getpid()
        write_rows = cli._write_rows

        def failing(fh, row, columns, rows):
            if (os.getpid() != parent) == in_child:
                raise OSError("half failed")
            return write_rows(fh, row, columns, rows)

        monkeypatch.setattr(cli, "_write_rows", failing)
        count = 2 * cli._CSV_CHUNK_ROWS + 1
        message = "rows 8193-16385 .* exited with status 1" if in_child else "half failed"
        with pytest.raises(OSError, match=message):
            cli._write_csv(str(tmp_path / "rows.csv"), np.ones((count, 3)), np.zeros(count),
                           np.ones(count, dtype=np.int8))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestEx01:
    def test_sums(self, capsys):
        code, payload = run_json(capsys, "ex01", "--K", "8")
        assert code == 0
        x_sums = {sum(row) for row in payload["mix_x"]["support"]}
        y_sums = {sum(row) for row in payload["mix_y"]["support"]}
        assert x_sums == {0.0} and y_sums == {1.0}
        assert payload["residual"] == pytest.approx(2.0 ** -9)


class TestCliPlumbing:
    def test_unknown_flag(self, capsys):
        assert main(["interval", "--n", "3", "--bogus"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run_cli(capsys, "bounds", "--marginals", str(bad), "--n", "3")
        assert code == 2

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXCENTER_OUT_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "sample", "--n", "2", "--c", "0", "--count",
                          "100", "--seed", "1", "--out", "env.csv")
        assert code == 0
        assert (tmp_path / "env.csv").exists()

    def test_repro_all_pass(self, capsys, tmp_path):
        out_file = tmp_path / "repro.json"
        code, out = run_cli(capsys, "repro", "--out", str(out_file))
        assert code == 0
        assert "[FAIL]" not in out
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, SCHEMAS["mixcenter.repro/1"])
        assert payload["all_pass"] is True

    def test_repro_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        # a frozen anchor off by more than its tolerance must fail the replay
        monkeypatch.setattr(anchors, "CAUCHY_WINDOW_02_09", anchors.CAUCHY_WINDOW_02_09 + 1e-8)
        out_file = tmp_path / "repro.json"
        code, out = run_cli(capsys, "repro", "--out", str(out_file))
        assert code == 1
        assert "[FAIL] closed_form_vs_quadrature_3_0.1" in out
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, SCHEMAS["mixcenter.repro/1"])
        assert payload["all_pass"] is False


class TestScipyFree:
    """``sample`` and ``verify`` of Cauchy mixers load numpy only."""

    def test_sample_verify_without_scipy(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from mixcenter import cli

            out = sys.argv[1]
            for n, c in ((3, 0.15), (3, -0.15), (4, 0.0)):
                csv = f"{out}/rows_{n}_{c}.csv"
                argv = ["sample", "--n", str(n), "--c", repr(c), "--count", "3000",
                        "--seed", "7", "--out", csv]
                assert cli.main(argv) == 0, argv
                assert cli.main(["verify", csv, "--out", csv + ".json"]) == 0, csv
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert "scipy" not in sys.modules, loaded[:5]

            import mixcenter
            import mixcenter.anchors
            import mixcenter.center_bounds
            import mixcenter.discrete_mix
            for name in mixcenter.__all__:
                getattr(mixcenter, name)
            assert mixcenter.center_bounds.cm_bounds is mixcenter.cm_bounds
            assert mixcenter.discrete_mix.Coupling is mixcenter.Coupling
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert "scipy" not in sys.modules, loaded[:5]
        """)
        src = os.path.dirname(os.path.dirname(mixcenter.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "rows_3_0.15.csv.json").read_text())
        assert report["all_pass"] is True

    def test_exports(self):
        assert mixcenter.__all__ == sorted(mixcenter.__all__)
        for name in ("center_bounds", "discrete_mix", "cm_bounds", "feasible_center",
                     "Coupling", "cauchy_mix", "verify"):
            assert name in mixcenter.__all__
            assert name in dir(mixcenter)
        with pytest.raises(AttributeError):
            mixcenter.no_such_name

    def test_no_module_level_scipy_import(self):
        """scipy is imported only inside the functions that call it."""

        def executed_at_import(nodes):
            for node in nodes:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node
                    yield from executed_at_import(ast.iter_child_nodes(node))

        found = []
        for path in sorted(Path(mixcenter.__file__).parent.glob("*.py")):
            for node in executed_at_import(ast.parse(path.read_text()).body):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                if any(module.split(".")[0] == "scipy" for module in modules):
                    found.append(f"{path.name}:{node.lineno}")
        assert not found, f"module-level scipy imports: {found}"


def test_only_the_writer_dumps_json():
    """``cli._emit`` is the package's one JSON writer: no other function
    names ``json.dump`` or ``json.dumps``, or imports either from json."""
    found = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names = [f"json.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name in ("json.dump", "json.dumps") for name in names):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(Path(mixcenter.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "<module>")
    assert found == {("cli.py", "_emit")}
