import dataclasses
import hashlib
import json
import shutil
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner

from digital_pde import catalog, cli, experiments
from digital_pde.cli import main
from digital_pde.problem_io import problem_from_json
from digital_pde.solver import solve_ivp

import reference_output as ref
from isolated import ROOT, run_isolated
from test_solver import NOT_NUMBER_IDS, NOT_NUMBERS

# The command line as a user runs it, in its own process
CLI = ["-m", "digital_pde.cli"]

with open(f"{ROOT}/bench/digests.json") as f:
    DIGESTS = json.load(f)


# Each number field of a problem file, as the fields of a file holding v there
NUMBER_FIELDS = {
    "coefficients.entries": lambda v: {"coefficients": {"entries": [[1, 1, v]]}},
    "coefficients.uniform_offdiag":
        lambda v: {"coefficients": {"uniform_offdiag": v, "diag": 0.4}},
    "coefficients.diag": lambda v: {"coefficients": {"uniform_offdiag": 0.1, "diag": v}},
    "coefficients.diag_map": lambda v: {"coefficients": {
        "uniform_offdiag": 0.1, "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"5": v})}},
    "initial": lambda v: {"initial": [1.0, v] + [0.0] * 14},
    "initial.value": lambda v: {"initial": {"point": 1, "value": v}},
    "initial.rest": lambda v: {"initial": {"point": 1, "value": 1.0, "rest": v}},
    "boundary.values": lambda v: {"boundary": {"points": [1], "values": [v]}},
    "tol": lambda v: {"tol": v},
}
# Every value of NOT_NUMBERS that JSON can hold, in every number field; a
# NaN in the initial list is read as a number, then refused as not finite.
NOT_NUMBER_FIELDS = [
    pytest.param(make(value), "error: " + ("initial: values must be finite"
                                           if field == "initial" and value != value
                                           else f"{field}: {text}") + "\n",
                 id=f"{field}-{kind}")
    for field, make in NUMBER_FIELDS.items()
    for (value, text), kind in zip(NOT_NUMBERS, NOT_NUMBER_IDS) if kind != "complex"]


@pytest.fixture()
def runner():
    return CliRunner()


def klein_problem(tmp_path, **overrides):
    d = {
        "space": "klein_bottle_16",
        "coefficients": {"uniform_offdiag": 0.1, "diag": 0.4},
        "initial": {"point": 1, "value": 16.0},
        "boundary": None,
    }
    d.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(d))
    return str(path)


class TestCatalogCommands:
    def test_list_all_verified(self, runner):
        result = runner.invoke(main, ["catalog", "list"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert all(r["status"] == "verified" for r in rows)
        names = {r["name"] for r in rows}
        assert {"klein_bottle_16", "projective_plane_11", "moebius_12",
                "s4_min", "sphere2_8"} <= names

    def test_export(self, runner):
        result = runner.invoke(main, ["catalog", "export", "sphere2_8"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert len(d["points"]) == 8

    def test_export_unknown_is_input_error(self, runner):
        result = runner.invoke(main, ["catalog", "export", "nope"])
        assert result.exit_code == 2


class TestBrokenCatalogData:
    """A missing or broken stored catalog file exits 2 with one error line
    naming it, for every command that loads it."""

    @pytest.mark.parametrize("args", [
        ["verify", "klein_bottle_16", "--n", "2"],
        ["solve", "{problem}"],
        ["catalog", "export", "klein_bottle_16"],
        ["catalog", "list"],
    ], ids=["verify", "solve", "export", "list"])
    @pytest.mark.parametrize("broken", ["missing", "edge-to-no-point"])
    def test_exit_2_naming_the_file(self, runner, tmp_path, monkeypatch, args, broken):
        data = tmp_path / "data"
        data.mkdir()
        if broken == "edge-to-no-point":
            d = json.loads(runner.invoke(main, ["catalog", "export", "klein_bottle_16"]).output)
            d["edges"].append([1, 99])
            (data / "klein_bottle_16.json").write_text(json.dumps(d))
        monkeypatch.setenv("DIGITAL_PDE_DATA", str(data))
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, [a.format(problem=problem) for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: catalog data ")
        assert str(data / "klein_bottle_16.json") in lines[0]

    def test_list_reports_a_relabelled_point_failed(self, runner, tmp_path, monkeypatch):
        # moebius_12 with point 12 renamed 13 and the same edges: the stored
        # rim size of point 12 names a point the space lacks
        data = tmp_path / "data"
        shutil.copytree(catalog.data_dir(), data)
        d = json.loads((data / "moebius_12.json").read_text())
        d["points"] = [13 if p == 12 else p for p in d["points"]]
        d["edges"] = [[13 if p == 12 else p for p in e] for e in d["edges"]]
        (data / "moebius_12.json").write_text(json.dumps(d))
        monkeypatch.setenv("DIGITAL_PDE_DATA", str(data))
        result = runner.invoke(main, ["catalog", "list"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        status = {row["name"]: row["status"] for row in json.loads(result.stdout)}
        assert status["moebius_12"].startswith("FAILED: moebius_12: point 12 ")


class TestVerifyCommand:
    def test_sphere_pass(self, runner):
        result = runner.invoke(main, ["verify", "s2_min", "--n", "2",
                                      "--as", "sphere"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "2-sphere"

    def test_manifold_fail_exit_1(self, runner):
        result = runner.invoke(main, ["verify", "moebius_12", "--n", "2"])
        assert result.exit_code == 1
        d = json.loads(result.output)
        assert d["witness"] is not None

    def test_file_source(self, runner, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"name": "c4", "points": [1, 2, 3, 4],
             "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
        result = runner.invoke(main, ["verify", str(path), "--n", "1",
                                      "--as", "sphere"])
        assert result.exit_code == 0

    def test_missing_source(self, runner):
        result = runner.invoke(main, ["verify", "no_such_thing", "--n", "2"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("source, message", [
        ("nosuch", "error: 'nosuch' is neither a catalog name nor a file"),
        (".", "error: invalid graph JSON in ."),
    ], ids=["unknown-source", "directory"])
    def test_source_not_a_graph_file_exit_2(self, runner, source, message):
        result = runner.invoke(main, ["verify", source, "--n", "2"])
        assert result.exit_code == 2
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("text, message", [
        ('{"points": [1, 1], "edges": []}', "duplicate point identifiers"),
        ('{"points": [1, 2], "edges": [[1, 2, 3]]}', "edges: expected a pair of integers"),
        ("[1, 2]", "graph JSON: expected an object"),
        ("{not json", "invalid graph JSON in"),
        ('{"name": [1], "points": [1, 2], "edges": [[1, 2]]}', "name: expected a string"),
    ], ids=["repeated-point", "triple-edge", "list-document", "bad-json", "list-name"])
    def test_bad_graph_file_exit_2(self, runner, tmp_path, text, message):
        path = tmp_path / "g.json"
        path.write_text(text)
        result = runner.invoke(main, ["verify", str(path), "--n", "2"])
        assert result.exit_code == 2
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("dim, kind", [("0", "manifold"), ("-1", "sphere"),
                                           ("-2", "surface")])
    def test_bad_dimension_exit_2(self, runner, dim, kind):
        result = runner.invoke(main, ["verify", "s2_min", "--n", dim, "--as", kind])
        assert result.exit_code == 2
        assert "error:" in result.output
        assert "dimension must be" in result.output


class TestInvariantsCommand:
    # On both surfaces the +-1 pivots leave one column of +-2 entries, so
    # their Z/2 can come only from the least-entry pivots.
    @pytest.mark.parametrize("source, chi, betti, torsion", [
        ("patch-30x30", 1, [1, 0, 0], [[], [], []]),
        ("patch-100x100", 1, [1, 0, 0], [[], [], []]),
        ("klein_bottle_16", 0, [1, 1, 0], [[], [2], []]),
        ("projective_plane_11", 1, [1, 0, 0], [[], [2], []]),
    ], ids=["patch-30x30", "patch-100x100", "klein_bottle_16", "projective_plane_11"])
    def test_in_a_real_process(self, tmp_path, source, chi, betti, torsion):
        if source.startswith("patch-"):
            side = int(source.rpartition("x")[2])
            source = tmp_path / "patch.json"
            source.write_text(catalog.digital_plane_patch(side, side).space.to_json())
        done = run_isolated([*CLI, "invariants", str(source)], timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"chi": chi, "betti": betti, "torsion": torsion}

    def test_k8_is_a_simplex(self, runner, tmp_path):
        pts = list(range(1, 9))
        k8 = {"points": pts, "edges": [[i, j] for i in pts for j in pts if i < j]}
        path = tmp_path / "k8.json"
        path.write_text(json.dumps(k8))
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "chi": 1, "betti": [1, 0, 0, 0, 0, 0, 0, 0], "torsion": [[]] * 8}

    def test_edge_to_no_point_exit_2_unquoted(self, runner, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"points": [1, 2], "edges": [[1, 2], [1, 99]]}))
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"error: invalid graph JSON in {path}: "
                                 "edge (1,99) endpoint not a point\n")


class TestTransformCommand:
    def test_r_transform(self, runner):
        result = runner.invoke(main, ["transform", "s2_min", "r-transform",
                                      "--edge", "1,3"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["new_point"] == 7
        assert len(d["graph"]["points"]) == 7

    def test_r_transform_non_edge(self, runner):
        result = runner.invoke(main, ["transform", "s2_min", "r-transform",
                                      "--edge", "1,2"])
        # in the minimal 2-sphere the non-adjacent pairs are (1,2),(3,4),(5,6)
        assert result.exit_code == 2

    def test_r_transform_missing_edge_option(self, runner):
        result = runner.invoke(main, ["transform", "s2_min", "r-transform"])
        assert result.exit_code == 2

    def test_reduce_empty_graph_exit_2(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"points": [], "edges": []}))
        result = runner.invoke(main, ["transform", str(path), "reduce"])
        assert result.exit_code == 2
        assert "error: cannot reduce the empty graph" in result.output

    def test_reduce(self, runner):
        result = runner.invoke(main, ["transform", "moebius_12", "reduce"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert len(d["graph"]["points"]) + len(d["deleted_points"]) == 12


class TestSolveCommand:
    def test_solve_with_outputs(self, runner, tmp_path):
        problem = klein_problem(tmp_path)
        out = tmp_path / "run.csv"
        plot = tmp_path / "run.svg"
        result = runner.invoke(main, [
            "solve", problem, "--out", str(out), "--plot", str(plot),
            "--points", "1,3"])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["converged"]
        assert abs(summary["S"] - 16.0) < 1e-9
        assert out.read_text().startswith("t,f_1")
        svg = plot.read_text()
        assert svg.startswith("<svg") and "point 1" in svg

    def test_solve_deterministic_outputs(self, runner, tmp_path):
        problem = klein_problem(tmp_path, steps=30, tol=0.0)
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            plot = tmp_path / f"run{i}.svg"
            result = runner.invoke(main, ["solve", problem,
                                          "--out", str(out), "--plot", str(plot)])
            assert result.exit_code == 0
            outs.append((out.read_bytes(), plot.read_bytes()))
        assert outs[0] == outs[1]

    def test_outputs_of_a_400_point_run_are_the_reference_bytes(self, runner, tmp_path):
        # a CSV row of 402 values and an SVG of 400 series, every point plotted
        space = catalog.digital_plane_patch(20, 20).space
        diag_map = {str(p): 1.0 - 0.1 * space.degree(p) for p in space.points}
        problem = klein_problem(tmp_path, space=space.to_json_dict(),
                                initial={"point": 190, "value": 400.0}, tol=0,
                                coefficients={"uniform_offdiag": 0.1, "diag_map": diag_map})
        out, plot = tmp_path / "run.csv", tmp_path / "run.svg"
        result = runner.invoke(main, ["solve", problem, "--steps", "50",
                                      "--out", str(out), "--plot", str(plot)])
        assert result.exit_code == 0
        with open(problem) as f:
            trajectory = solve_ivp(dataclasses.replace(problem_from_json(f.read()), steps=50))
        series = {f"point {p}": trajectory.values[:, space.index[p]] for p in space.points}
        assert out.read_bytes() == ref.trajectory_csv(trajectory, space).encode()
        assert plot.read_bytes() == ref.line_chart(series, y_label="f", x_label="t").encode()

    def test_plot_of_a_run_at_equilibrium(self, tmp_path):
        # 1.0: values 1.0 and 0.9999999999999999, a y range two ulps wide;
        # 1e300: a constant whose "+ 1.0" is lost to rounding
        for value in (1.0, 1e300):
            problem = klein_problem(tmp_path, initial=[value] * 16, steps=5, tol=0.0)
            plot = tmp_path / f"{value}.svg"
            done = run_isolated([*CLI, "solve", problem, "--plot", str(plot)], timeout=60)
            assert done.returncode == 0 and done.stderr == ""
            assert plot.read_text().startswith("<svg")
            ET.parse(plot)

    @pytest.mark.parametrize("fields, message", [
        ({"initial": [1.5e308] * 16}, "error: norm inf exceeded blow-up guard at step 0\n"),
        # each 1-norm is a finite 1e308, but the y range [-1e308, 1e308] is not
        ({"initial": [1e308] + [0.0] * 15, "coefficients": {"uniform_offdiag": 0, "diag": -1},
          "steps": 1, "tol": 0}, "error: --plot: y range [-1e+308, 1e+308]: "),
    ], ids=["norm-overflows", "chart-range-overflows"])
    def test_run_that_overflows_exit_1(self, tmp_path, fields, message):
        out, plot = tmp_path / "run.csv", tmp_path / "run.svg"
        done = run_isolated([*CLI, "solve", klein_problem(tmp_path, **fields),
                             "--out", str(out), "--plot", str(plot)], timeout=60)
        assert done.returncode == 1
        assert done.stdout == "" and done.stderr.startswith(message)
        assert len(done.stderr.splitlines()) == 1
        assert not out.exists() and not plot.exists()

    def test_solve_bad_problem_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": "nope"}))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 2

    def test_entries_off_the_balls_exit_2(self, runner, tmp_path):
        problem = klein_problem(
            tmp_path, coefficients={"entries": [[1, 1, 1.0], [2, 9, 0.5]]})
        result = runner.invoke(main, ["solve", problem])
        assert result.exit_code == 2
        assert "error: coefficients.entries: coefficient (2,9)" in result.output

    @pytest.mark.parametrize("override, message", [
        ({"coefficients": {"uniform_offdiag": 0.1,
                           "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"99": 0.4})}},
         "error: coefficients.diag_map: point 99 is not in the space\n"),
        ({"boundary": {"points": [1.0], "values": [1.0]}},
         "error: boundary.points: point 1.0 is not in the space\n"),
        ({"tol": True}, "error: tol: expected a number, got True"),
        *NOT_NUMBER_FIELDS,
    ], ids=["diag-map-key", "float-point", "true-number",
            *[param.id for param in NOT_NUMBER_FIELDS]])
    def test_malformed_labels_and_numbers_exit_2(self, runner, tmp_path, override, message):
        result = runner.invoke(main, ["solve", klein_problem(tmp_path, **override)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("override, field", [
        ({"coefficients": {"uniform_offdiag": 10**400, "diag": 0.4}},
         "coefficients.uniform_offdiag"),
        ({"initial": {"point": 1, "value": 10**400}}, "initial.value"),
        ({"initial": [10**400] + [0.0] * 15}, "initial"),
    ], ids=["uniform-offdiag", "initial-value", "initial-list"])
    def test_integer_too_large_for_a_float_exit_2(self, runner, tmp_path, override, field):
        # It printed OverflowError's traceback and exited 1.
        result = runner.invoke(main, ["solve", klein_problem(tmp_path, **override)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"error: {field}: expected a finite number, got {10**400}"]

    def test_divergence_exit_1(self, runner, tmp_path):
        problem = klein_problem(
            tmp_path, coefficients={"uniform_offdiag": 0.5, "diag": 2.0})
        result = runner.invoke(main, ["solve", problem])
        assert result.exit_code == 1
        assert "error: norm" in result.output
        assert "exceeded blow-up guard at step 9" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("args, message", [
        (["solve", "{problem}", "--points", "1_0"], "error: --points: bad point label '1_0'"),
        (["solve", "{problem}", "--points", "1_0, 01"],
         "error: --points: bad point label '1_0'"),
        (["solve", "{problem}", "--points", "1, 3"], "error: --points: bad point label ' 3'"),
        (["transform", "s2_min", "r-transform", "--edge", "0_1,2"],
         "error: --edge: bad point label '0_1'"),
        (["transform", "s2_min", "r-transform", "--edge", " 1,0_2"],
         "error: --edge: bad point label ' 1'"),
    ], ids=["points-underscore", "points-leading-zero", "points-space", "edge-underscore",
            "edge-space"])
    def test_label_not_written_as_str_exit_2(self, runner, tmp_path, args, message):
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, [a.format(problem=problem) for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [message]

    def test_solve_bad_points_exit_2(self, runner, tmp_path):
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, ["solve", problem, "--points", "1,99"])
        assert result.exit_code == 2

    def test_steps_override(self, runner, tmp_path):
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, ["solve", problem,
                                      "--steps", "3", "--tol", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["steps"] == 3

    @pytest.mark.parametrize("option,value", [("--steps", "-5"), ("--tol", "nan")])
    def test_bad_override_exit_2(self, runner, tmp_path, option, value):
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, ["solve", problem, option, value])
        assert result.exit_code == 2
        assert option in result.output


class TestExperimentCommand:
    @pytest.mark.parametrize("exp_id", DIGESTS)
    def test_outputs_match_the_recorded_digests(self, tmp_path, exp_id):
        done = run_isolated([*CLI, "experiment", exp_id, "--out-dir", str(tmp_path)],
                            timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"]
        for kind, digest in DIGESTS[exp_id].items():
            path = tmp_path / f"{exp_id}.{kind}"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path

    def test_unknown_experiment(self, runner):
        result = runner.invoke(main, ["experiment", "nope"])
        assert result.exit_code == 2


class TestOutputPaths:
    @pytest.mark.parametrize("args, path", [
        (["solve", "{path}"], "adir"),
        (["solve", "{problem}", "--out", "{path}"], "nodir/x.csv"),
        (["solve", "{problem}", "--plot", "{path}"], "nodir/x.svg"),
        (["solve", "{problem}", "--out", "{path}"], "adir"),
        (["experiment", "klein_ivp", "--out-dir", "{path}"], "afile"),
        (["experiment", "klein_ivp", "--out-dir", "{path}"], "afile/sub"),
    ], ids=["problem-is-directory", "out-in-missing-directory", "plot-in-missing-directory",
            "out-is-directory", "out-dir-is-file", "out-dir-under-file"])
    def test_unusable_path_exit_2(self, runner, tmp_path, args, path):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        path = str(tmp_path / path)
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, [a.format(problem=problem, path=path) for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines()
                  if line.lower().startswith("error:")]
        assert len(errors) == 1 and path in errors[0]

    @pytest.mark.parametrize("args, path", [
        (["solve", "{problem}", "--out", "{path}"], "nodir/x.csv"),
        (["solve", "{problem}", "--plot", "{path}"], "nodir/x.svg"),
        (["solve", "{problem}", "--out", "{path}"], "adir"),
        (["experiment", "klein_ivp", "--out-dir", "{path}"], "adir"),
    ], ids=["out-in-missing-directory", "plot-in-missing-directory", "out-is-directory",
            "experiment-csv-is-directory"])
    def test_checked_before_the_run(self, runner, tmp_path, monkeypatch, args, path):
        (tmp_path / "adir" / "klein_ivp.csv").mkdir(parents=True)
        path = str(tmp_path / path)
        problem = klein_problem(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output paths were checked")

        for module, name in [(cli, "solve_ivp"), (cli, "solve_bvp"), (experiments, "run")]:
            monkeypatch.setattr(module, name, refuse)
        result = runner.invoke(main, [a.format(problem=problem, path=path) for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {path}" in result.output

    @pytest.mark.parametrize("args", [
        ["solve", "{problem}", "--out", "{dir}/klein_ivp.csv", "--plot", "{dir}/nodir/x.svg"],
        ["experiment", "klein_ivp", "--out-dir", "{dir}"],
    ], ids=["solve", "experiment"])
    def test_bad_plot_leaves_no_csv(self, runner, tmp_path, args):
        (tmp_path / "klein_ivp.svg").mkdir()
        problem = klein_problem(tmp_path)
        result = runner.invoke(main, [a.format(problem=problem, dir=tmp_path) for a in args])
        assert result.exit_code == 2
        assert "error: cannot write" in result.output
        assert not (tmp_path / "klein_ivp.csv").exists()


class TestPropertiesCommand:
    def test_clean_run(self, runner):
        result = runner.invoke(main, ["properties", "--seed", "1",
                                      "--cases", "10"])
        assert result.exit_code == 0
        assert json.loads(result.output)["failures"] == []

    def test_negative_cases_exit_2(self, runner):
        result = runner.invoke(main, ["properties", "--cases", "-3"])
        assert result.exit_code == 2
        assert "--cases" in result.output
