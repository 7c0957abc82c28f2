import json

import pytest
from click.testing import CliRunner

from digital_pde.cli import main


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


class TestInvariantsCommand:
    def test_klein(self, runner):
        result = runner.invoke(main, ["invariants", "klein_bottle_16"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["chi"] == 0
        assert d["betti"] == [1, 1, 0]
        assert d["torsion"][1] == [2]

    def test_clique_above_max_dim_is_input_error(self, runner, tmp_path):
        pts = list(range(1, 9))
        k8 = {"points": pts, "edges": [[i, j] for i in pts for j in pts if i < j]}
        path = tmp_path / "k8.json"
        path.write_text(json.dumps(k8))
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 2
        assert "max_dim" in result.output


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

    def test_solve_bad_problem_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": "nope"}))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 2

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


class TestExperimentCommand:
    def test_klein_experiment(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "klein_ivp",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["ok"]
        assert (tmp_path / "klein_ivp.csv").exists()
        assert (tmp_path / "klein_ivp.svg").exists()

    def test_unknown_experiment(self, runner):
        result = runner.invoke(main, ["experiment", "nope"])
        assert result.exit_code == 2


class TestPropertiesCommand:
    def test_clean_run(self, runner):
        result = runner.invoke(main, ["properties", "--seed", "1",
                                      "--cases", "10"])
        assert result.exit_code == 0
        assert json.loads(result.output)["failures"] == []
