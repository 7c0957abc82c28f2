"""Command-line surface.

Exit code contract: 0 success, 1 verification/expectation failure,
2 input error.  Output files (trajectory CSV, SVG plots) are byte
deterministic for identical inputs.
"""

from __future__ import annotations

import json
import os
import random
import sys

import click
import numpy as np

from . import catalog, experiments
from .graph_core import DigitalSpace
from .invariants import homology
from .problem_io import ProblemFormatError, problem_from_json, trajectory_csv
from .solver import Problem, bind, solve_bvp, solve_ivp
from .svgplot import line_chart
from .topology import homotopy_reduce, is_n_manifold, is_n_sphere, is_n_surface, r_transform

EXIT_FAILURE = 1
EXIT_INPUT = 2


def _load_graph(source: str) -> DigitalSpace:
    """A graph source is a catalog name or a path to a graph JSON file."""
    try:
        return catalog.space(source)
    except KeyError:
        pass
    if not os.path.exists(source):
        raise click.ClickException(
            f"'{source}' is neither a catalog name nor a file")
    try:
        with open(source) as f:
            return DigitalSpace.from_json_dict(json.load(f))
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise click.ClickException(f"invalid graph JSON in {source}: {exc}")


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


@click.group()
def main():
    """Digital manifolds and explicit diffusion equations on them."""


@main.group("catalog")
def catalog_group():
    """Inspect the bundled digital spaces."""


@catalog_group.command("list")
def catalog_list():
    """List entries with point/edge counts and verification status."""
    rows = []
    for name in catalog.names():
        e = catalog.entry(name)
        try:
            catalog.verify_entry(e)
            status = "verified"
        except catalog.CatalogVerificationError as exc:
            status = f"FAILED: {exc}"
        rows.append({
            "name": name,
            "points": len(e.space.points),
            "edges": len(e.space.edges),
            "dimension": e.dimension,
            "kind": e.kind,
            "status": status,
        })
    click.echo(json.dumps(rows, indent=2))
    if any(r["status"] != "verified" for r in rows):
        sys.exit(EXIT_FAILURE)


@catalog_group.command("export")
@click.argument("name")
def catalog_export(name):
    """Emit a catalog space as graph JSON."""
    try:
        g = catalog.space(name)
    except KeyError:
        _fail_input(f"unknown catalog entry: {name}")
    click.echo(g.to_json())


@main.command("verify")
@click.argument("source")
@click.option("--n", "dim", type=int, required=True, help="claimed dimension")
@click.option("--as", "kind", type=click.Choice(["sphere", "manifold", "surface"]),
              default="manifold", show_default=True)
def verify(source, dim, kind):
    """Check a graph against a digital sphere/manifold/surface definition."""
    g = _load_graph(source)
    check = {"sphere": is_n_sphere, "manifold": is_n_manifold,
             "surface": is_n_surface}[kind]
    report = check(g, dim)
    click.echo(json.dumps(report.to_json_dict(), indent=2))
    sys.exit(0 if report.ok else EXIT_FAILURE)


@main.command("invariants")
@click.argument("source")
def invariants_cmd(source):
    """Euler characteristic and integral homology of the clique complex."""
    g = _load_graph(source)
    try:
        profile = homology(g)
    except ValueError as exc:
        _fail_input(str(exc))
    click.echo(json.dumps(profile.to_json_dict(), indent=2))


@main.command("transform")
@click.argument("source")
@click.argument("mode", type=click.Choice(["r-transform", "reduce"]))
@click.option("--edge", default=None, help="edge 'u,v' for r-transform")
def transform(source, mode, edge):
    """Apply an R-transformation or reduce by deleting simple points."""
    g = _load_graph(source)
    if mode == "r-transform":
        if not edge:
            _fail_input("r-transform requires --edge u,v")
        try:
            u, v = (int(x) for x in edge.split(","))
        except ValueError:
            _fail_input(f"bad edge spec: {edge}")
        if not g.has_edge(u, v):
            _fail_input(f"({u},{v}) is not an edge")
        new_id = max(g.points) + 1
        result = r_transform(g, u, v, new_id)
        click.echo(json.dumps({
            "graph": result.to_json_dict(),
            "new_point": new_id,
            "removed_edge": [u, v],
        }, indent=2))
    else:
        result, trace = homotopy_reduce(g)
        click.echo(json.dumps({
            "graph": result.to_json_dict(),
            "deleted_points": trace.deleted_points,
        }, indent=2))


def _write_outputs(trajectory, space, out, plot, points):
    if out:
        with open(out, "w", newline="") as f:
            f.write(trajectory_csv(trajectory, space))
    if plot:
        if points:
            labels = points
        else:
            labels = list(space.points)
        series = {}
        for p in labels:
            i = space.points.index(p)
            series[f"point {p}"] = [s.values[i] for s in trajectory.states]
        with open(plot, "w", newline="") as f:
            f.write(line_chart(series, y_label="f", x_label="t"))


def _parse_points(space, text):
    if not text:
        return None
    try:
        pts = [int(x) for x in text.split(",")]
    except ValueError:
        _fail_input(f"bad --points spec: {text}")
    unknown = [p for p in pts if p not in space]
    if unknown:
        _fail_input(f"--points not in space: {unknown}")
    return pts


@main.command("solve")
@click.argument("problem_file", type=click.Path(exists=True))
@click.option("--out", default=None, help="trajectory CSV path")
@click.option("--plot", default=None, help="SVG plot path")
@click.option("--points", default=None, help="comma-separated points to plot")
@click.option("--steps", type=int, default=None, help="override step cap")
@click.option("--tol", type=float, default=None, help="override convergence tolerance")
def solve(problem_file, out, plot, points, steps, tol):
    """Solve a problem JSON file and emit CSV/SVG outputs."""
    with open(problem_file) as f:
        text = f.read()
    try:
        problem = problem_from_json(text)
    except ProblemFormatError as exc:
        _fail_input(str(exc))
    if steps is not None:
        problem.steps = steps
    if tol is not None:
        problem.tol = tol
    pts = _parse_points(problem.space, points)
    trajectory = solve_bvp(problem) if problem.has_boundary else solve_ivp(problem)
    _write_outputs(trajectory, problem.space, out, plot, pts)
    click.echo(json.dumps({
        "steps": trajectory.terminal.t,
        "S": trajectory.sums[-1],
        "norm1": trajectory.norms[-1],
        "converged": trajectory.converged(problem.tol),
    }, indent=2))


@main.command("experiment")
@click.argument("exp_id", type=click.Choice(experiments.EXPERIMENT_IDS))
@click.option("--out-dir", default=".", show_default=True,
              help="directory for CSV and SVG outputs")
def experiment_cmd(exp_id, out_dir):
    """Run a bundled experiment, write CSV+SVG, check the expected limit."""
    os.makedirs(out_dir, exist_ok=True)
    result = experiments.run(exp_id)
    space = result.spec.problem.space
    out = os.path.join(out_dir, f"{exp_id}.csv")
    plot = os.path.join(out_dir, f"{exp_id}.svg")
    _write_outputs(result.trajectory, space, out, plot, result.spec.plot_points)
    click.echo(json.dumps({
        "experiment": exp_id,
        "ok": result.ok,
        "steps": result.trajectory.terminal.t,
        "S": result.trajectory.sums[-1],
        "failures": result.failures,
        "csv": out,
        "svg": plot,
    }, indent=2))
    sys.exit(0 if result.ok else EXIT_FAILURE)


@main.command("properties")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cases", type=int, default=50, show_default=True)
def properties(seed, cases):
    """Randomized conservation/monotonicity spot checks on catalog spaces."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    names = ["torus_16", "klein_bottle_16", "projective_plane_11",
             "moebius_12", "sphere2_8"]
    failures = []
    for case in range(cases):
        name = rng.choice(names)
        space = catalog.space(name)
        c = _random_diffusion(space, np_rng)
        f0 = np_rng.normal(size=len(space.points)) * 10
        trajectory = solve_ivp(Problem(space, c, f0, steps=50))
        drift = max(abs(s - trajectory.sums[0]) for s in trajectory.sums)
        if drift > 1e-9 * max(1.0, abs(trajectory.sums[0])):
            failures.append(f"case {case}: conservation drift {drift:.3g} on {name}")
        for a, b in zip(trajectory.norms, trajectory.norms[1:]):
            if b > a + 1e-12:
                failures.append(f"case {case}: norm grew on {name}")
                break
    click.echo(json.dumps({"cases": cases, "failures": failures}, indent=2))
    sys.exit(0 if not failures else EXIT_FAILURE)


def _random_diffusion(space, np_rng):
    """Random nonnegative column-stochastic coefficients on the ball support."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for j, k in enumerate(space.points):
        targets = [index[p] for p in space.neighbors(k)] + [j]
        weights = np_rng.random(len(targets))
        weights /= weights.sum()
        for i, w in zip(targets, weights):
            mat[i, j] = w
    return bind(space, mat)


if __name__ == "__main__":
    main()
