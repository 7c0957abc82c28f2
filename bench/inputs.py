"""Seeded inputs for the benchmark workloads.

Every input is built from a catalog space through public functions of
``digital_pde`` only, and carries the answer the library must give on
it.  R-transforms replace an edge by a new point and are
homeomorphisms on digital manifolds, so a grown space keeps the
verdict and the integral homology of the catalog space it came from;
those expectations are written out here rather than read back from
the catalog, so the checks do not trust the code they measure.

The same seed always gives the same inputs: each generated piece draws
from its own ``random.Random`` keyed by the seed and a label.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from digital_pde import catalog, solver, topology
from digital_pde.graph_core import DigitalSpace


@dataclass
class Expected:
    """What the library must answer on one input."""

    ok: bool = True  # the sphere / manifold verdict
    witness: Optional[str] = None  # substring of the failure reason, if not ok
    betti: Optional[List[int]] = None
    torsion: Optional[List[List[int]]] = None


@dataclass
class SpaceInput:
    label: str
    space: DigitalSpace
    dim: Optional[int]  # dimension of the verdict to check; None: homology only
    expected: Expected


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _top_degree(space: DigitalSpace, u, v) -> int:
    """The highest degree an R-transform on (u, v) leaves at the points
    it changes: the common neighbors gain the new point as a neighbor."""
    common = space.neighbors(u) & space.neighbors(v)
    return max([len(common) + 2] + [space.degree(c) + 1 for c in common])


def grow(space: DigitalSpace, k: int, rng: random.Random) -> DigitalSpace:
    """Apply ``k`` R-transforms, each on an edge drawn uniformly from the
    edges that leave the lowest top degree (sorted, so the draw depends
    only on ``rng``).

    A check's cost grows fast with the size of the largest rim, so on
    uniformly drawn edges it varied by up to 40 % from seed to seed;
    keeping the degrees level makes it hardly depend on the seed.
    """
    for _ in range(k):
        edges = sorted(space.edges)
        top = [_top_degree(space, u, v) for u, v in edges]
        lowest = min(top)
        u, v = rng.choice([e for e, t in zip(edges, top) if t == lowest])
        space = topology.r_transform(space, u, v, max(space.points) + 1)
    return space


def grown(seed: int, name: str, k: int, dim: int, expected: Expected) -> SpaceInput:
    space = grow(catalog.space(name), k, _rng(seed, name))
    return SpaceInput(f"{name}+{k}", space, dim, expected)


# Catalog spaces verified by the recognize workload, in pass order.
# s3_min and s4_min are left out: their checks take 0.3 s and 6-8 s, far
# longer than the stretches of full speed the host gives (see README).
CATALOG_NAMES = ["s0_min", "s1_min", "s2_min", "torus_16", "klein_bottle_16",
                 "projective_plane_11", "moebius_12", "sphere2_8"]


def recognize_inputs(seed: int) -> List[SpaceInput]:
    """Sphere checks: two grown spheres and one negative case."""
    return [
        grown(seed, "s2_min", 3, 2, Expected()),
        grown(seed, "sphere2_8", 1, 2, Expected()),
        SpaceInput("projective_plane_11", catalog.space("projective_plane_11"), 2,
                   Expected(False, witness="non-contractible")),
    ]


SURFACE_TRANSFORMS = 20
SURFACES = [
    ("klein_bottle_16", Expected(betti=[1, 1, 0], torsion=[[], [2], []])),
    ("projective_plane_11", Expected(betti=[1, 0, 0], torsion=[[], [2], []])),
    ("torus_16", Expected(betti=[1, 2, 1], torsion=[[], [], []])),
]


def surface_inputs(seed: int) -> List[SpaceInput]:
    """Closed surfaces grown by R-transforms, plus a contractible patch."""
    items = [grown(seed, name, SURFACE_TRANSFORMS, 2, expected)
             for name, expected in SURFACES]
    items.append(SpaceInput("plane_patch_7x7", catalog.digital_plane_patch(7, 7).space,
                            None, Expected(betti=[1, 0, 0], torsion=[[], [], []])))
    return items


EDGE_WEIGHT = 0.1


@dataclass
class PatchInput:
    """A plane patch with seeded initial values and the ops run on it.

    The coefficients are 0.1 per edge and 1 - 0.1 * degree on the
    diagonal, so every column of C sums to one (a diffusion matrix).
    ``ops`` names the timed operations, in round order; a patch without
    a ``coefficients`` op gets its coefficients built once, untimed
    (``coeffs``).
    """

    label: str
    space: DigitalSpace
    diag: dict
    initial: np.ndarray
    ops: Tuple[str, ...]
    steps: int = 0  # steps of each solve; 0: no solve
    clamps: dict = field(default_factory=dict)  # empty: no boundary value problem
    coeffs: Optional[solver.CoefficientMatrix] = None


def _patch(seed: int, side: int, ops: Tuple[str, ...], steps: int = 0) -> PatchInput:
    space = catalog.digital_plane_patch(side, side).space
    label = f"patch_{side}x{side}"
    rng = _rng(seed, label)
    initial = np.array([rng.uniform(0.0, 10.0) for _ in space.points])
    clamps = {}
    if "bvp" in ops:
        for p in rng.sample(list(space.points), 2):
            clamps[p] = rng.uniform(0.0, 5.0)
    diag = {p: 1.0 - EDGE_WEIGHT * space.degree(p) for p in space.points}
    patch = PatchInput(label, space, diag, initial, ops, steps, clamps)
    if "coefficients" not in ops:
        patch.coeffs = solver.uniform_coefficients(space, EDGE_WEIGHT, diag)
    return patch


def diffusion_inputs(seed: int) -> List[PatchInput]:
    """n = 400: bind, IVP and BVP of 1000 steps; n = 1600: IVP of 30
    steps, on coefficients built in set-up; n = 144: bind and the
    stationary solve.

    Each op takes at most 40 ms at full speed.  ``bind`` at n = 1600
    (0.5 s) and ``stationary_solution`` at n = 400 (2-3 s) take far
    longer than the stretches of full speed the host gives, so they
    are not timed.
    """
    return [_patch(seed, 20, ("coefficients", "ivp", "bvp"), steps=1000),
            _patch(seed, 40, ("ivp",), steps=30),
            _patch(seed, 12, ("coefficients", "stationary"))]


def experiment_order(seed: int, ids: List[str]) -> List[str]:
    """The bundled experiments are fixed; the seed only orders a round."""
    order = list(ids)
    _rng(seed, "experiments").shuffle(order)
    return order
