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
from mixcenter.cauchy_mix import MixerConfig
from mixcenter.cli import SCHEMAS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    schema = SCHEMAS.get(payload.get("schema"))
    if schema is not None:
        jsonschema.validate(payload, schema)
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


class TestSampleVerify:
    def test_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(
            capsys, "sample", "--n", "3", "--c", "0.15", "--count", "8000",
            "--seed", "7", "--t-grid", "512", "--out", out,
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
        assert set(stats["per_branch"]) == {"1", "2"}
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
        # and verify requires every key sample writes
        assert set(meta) == set(SCHEMAS["mixcenter.sample_meta/1"]["required"])

    def test_csv_round_trips_doubles(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        run_cli(capsys, "sample", "--n", "3", "--c", "0.1", "--count", "50",
                "--seed", "1", "--t-grid", "512", "--out", out)
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
                    "--seed", "5", "--t-grid", "512", "--out", out)
        assert Path(a).read_text() == Path(b).read_text()

    def test_c_zero_engine(self, capsys, tmp_path):
        out = str(tmp_path / "zero.csv")
        code, _ = run_cli(capsys, "sample", "--n", "2", "--c", "0", "--count",
                          "4000", "--seed", "2", "--out", out)
        assert code == 0
        code, payload = run_json(capsys, "verify", out)
        assert code == 0 and payload["all_pass"]

    def test_engine_flag_rejected(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "10",
                          "--engine", "ra", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ("--n", "1"),
        ("--t-grid", "1"),
        ("--t-grid", "0"),
        ("--ra-grid-m", "0"),
        ("--tail-eps", "0"),
        ("--tail-eps", "2"),
        ("--seed", "-1"),
    ], ids=lambda flags: "".join(flags).lstrip("-"))
    def test_config_outside_domain_rejected(self, capsys, tmp_path, flags):
        # argparse keeps the last value of a repeated flag
        code = main(["sample", "--n", "3", "--c", "0.15", "--count", "10",
                     "--out", str(tmp_path / "x.csv"), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need ")
        assert not (tmp_path / "x.csv").exists()

    def test_coarse_t_grid_names_itself(self, capsys, tmp_path):
        # 16 knots pass the domain check but miss the trapezoid calibration
        code = main(["sample", "--n", "3", "--c", "0.15", "--count", "10",
                     "--t-grid", "16", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate trapezoid mass ")
        assert "t_grid=16 is too coarse, a finer grid is needed" in err
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
    ], ids=["engine", "n", "count"])
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

    def test_verify_checks_row_sum_column_against_x_columns(self, capsys, tmp_path):
        # row_sum_bounds certifies the sums of the x columns, so a row whose
        # x1 moved while its recorded row_sum did not must fail verify
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.15", "--count", "8000",
                          "--seed", "7", "--t-grid", "512", "--out", str(out))
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

    def test_verify_csv_format(self, capsys, tmp_path):
        out = str(tmp_path / "rows.csv")
        run_cli(capsys, "sample", "--n", "3", "--c", "0", "--count", "2000",
                "--seed", "9", "--out", out)
        code, text = run_cli(capsys, "verify", out, "--format", "csv")
        assert code == 0
        header = text.splitlines()[0]
        assert header == "name,passed,measured,threshold"

    @pytest.mark.parametrize("count", [2000, 60_000])
    def test_verify_thresholds_pinned(self, capsys, tmp_path, count):
        # every gate of verify, on either side of the pairwise KS floor of
        # 0.01. Gates only tighten: one that tightens updates this pin
        out = str(tmp_path / "rows.csv")
        code, _ = run_cli(capsys, "sample", "--n", "3", "--c", "0.15", "--count", str(count),
                          "--t-grid", "512", "--out", out)
        assert code == 0
        _, payload = run_json(capsys, "verify", out)
        want = {f"ks_coordinate_{j}": 0.01 + 1.628 / math.sqrt(count) for j in (1, 2, 3)}
        want.update({
            "exchangeability_pairwise_ks": max(0.01, 1.628 * math.sqrt(2 / count)),
            "sum_mean_dev": 1e-3,
            "row_sum_bounds": 1e-15,
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
            "metadata_mass_deficit": 1e-12,
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


class TestEx01:
    def test_sums(self, capsys):
        code, payload = run_json(capsys, "ex01", "--K", "8")
        assert code == 0
        x_sums = {sum(row) for row in payload["mix_x"]["support"]}
        y_sums = {sum(row) for row in payload["mix_y"]["support"]}
        assert x_sums == {0.0} and y_sums == {1.0}
        assert payload["residual"] == pytest.approx(2.0 ** -9)

    def test_split_outputs(self, capsys, tmp_path):
        fx, fy = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        code, _ = run_cli(capsys, "ex01", "--K", "4", "--out-x", fx, "--out-y", fy)
        assert code == 0
        mix_x = json.loads(Path(fx).read_text())
        assert {sum(r) for r in mix_x["support"]} == {0.0}


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
                        "--t-grid", "512", "--seed", "7", "--out", csv]
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
