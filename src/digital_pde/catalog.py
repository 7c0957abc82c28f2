"""Named digital spaces: generated where the construction is forced,
loaded from versioned adjacency data where it is not.

Every entry carries its expected classification and homology, and
``verify_entry`` replays the full oracle (rim checks, Euler
characteristic, integral homology) against those expectations.  The
stored Klein bottle, projective plane and Moebius strip were found by
constrained search against that same oracle; the oracle, not any
picture, is the ground truth for them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .graph_core import DigitalSpace
from .invariants import HomologyProfile, homology
from .topology import (
    _sphere_verdict,
    is_n_manifold,
    is_n_sphere,
    minimal_sphere,
)

DATA_ENV_VAR = "DIGITAL_PDE_DATA"
_DEFAULT_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_dir() -> str:
    return os.environ.get(DATA_ENV_VAR, _DEFAULT_DATA_DIR)


class CatalogVerificationError(RuntimeError):
    """A catalog entry failed its own stored expectations."""


@dataclass
class CatalogEntry:
    name: str
    space: DigitalSpace
    dimension: int
    kind: str  # "sphere" | "manifold" | "manifold-with-boundary"
    expected_homology: HomologyProfile
    rim_sizes: Optional[Dict[int, int]] = None  # per-point expected rim size
    provenance: str = "generated"
    boundary_points: Optional[List[int]] = None
    interior_points: Optional[List[int]] = None


def _load_stored(name: str) -> DigitalSpace:
    path = os.path.join(data_dir(), f"{name}.json")
    with open(path) as f:
        return DigitalSpace.from_json_dict(json.load(f))


def minimal_sphere_entry(n: int) -> CatalogEntry:
    space = minimal_sphere(n)
    betti = [1] + [0] * (n - 1) + [1] if n > 0 else [2]
    chi = 2 if n % 2 == 0 else 0
    profile = HomologyProfile(chi, betti, [[] for _ in betti])
    return CatalogEntry(
        name=f"s{n}_min", space=space, dimension=n, kind="sphere",
        expected_homology=profile,
        rim_sizes={p: 2 * n for p in space.points},
        provenance="generated: join of (n+1) copies of the 0-sphere",
    )


def torus_16() -> CatalogEntry:
    """4x4 triangulated grid over Z4 x Z4 with one diagonal per cell."""
    idx = {(i, j): 4 * i + j + 1 for i in range(4) for j in range(4)}
    edges = set()
    for (i, j), p in idx.items():
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            q = idx[((i + di) % 4, (j + dj) % 4)]
            edges.add((min(p, q), max(p, q)))
    space = DigitalSpace(sorted(idx.values()), edges, name="torus_16")
    return CatalogEntry(
        name="torus_16", space=space, dimension=2, kind="manifold",
        expected_homology=HomologyProfile(0, [1, 2, 1], [[], [], []]),
        rim_sizes={p: 6 for p in space.points},
        provenance="generated: diagonal 4x4 grid with both wrap directions plain",
    )


def klein_bottle_16() -> CatalogEntry:
    space = _load_stored("klein_bottle_16")
    return CatalogEntry(
        name="klein_bottle_16", space=space, dimension=2, kind="manifold",
        expected_homology=HomologyProfile(0, [1, 1, 0], [[], [2], []]),
        rim_sizes={p: 6 for p in space.points},
        provenance=("stored: diagonal 4x4 grid with one wrap direction "
                    "orientation-reversed; seam edges fixed by search against "
                    "the invariant oracle, lexicographically smallest edge set"),
    )


def projective_plane_11() -> CatalogEntry:
    space = _load_stored("projective_plane_11")
    return CatalogEntry(
        name="projective_plane_11", space=space, dimension=2, kind="manifold",
        expected_homology=HomologyProfile(1, [1, 0, 0], [[], [2], []]),
        rim_sizes={p: space.degree(p) for p in space.points},
        provenance=("stored: flag triangulation found by subdividing the "
                    "6-point projective plane and flipping edges until every "
                    "rim is an induced cycle"),
    )


def moebius_12() -> CatalogEntry:
    space = _load_stored("moebius_12")
    return CatalogEntry(
        name="moebius_12", space=space, dimension=2, kind="manifold-with-boundary",
        expected_homology=HomologyProfile(0, [1, 1, 0], [[], [], []]),
        rim_sizes={p: space.degree(p) for p in space.points},
        provenance=("stored: boundary 8-cycle on points 1-8, interior 4-cycle "
                    "on 9-12, incidences fixed by search against the oracle"),
        boundary_points=list(range(1, 9)),
        interior_points=list(range(9, 13)),
    )


def sphere2_8() -> CatalogEntry:
    """Two poles joined to a 6-cycle: the 8-point 2-sphere of the
    directed-network experiment (poles 1 and 8, equator 2..7)."""
    equator = list(range(2, 8))
    edges = [(equator[i], equator[(i + 1) % 6]) for i in range(6)]
    edges += [(1, q) for q in equator] + [(8, q) for q in equator]
    space = DigitalSpace([1, 2, 3, 4, 5, 6, 7, 8], edges, name="sphere2_8")
    return CatalogEntry(
        name="sphere2_8", space=space, dimension=2, kind="sphere",
        expected_homology=HomologyProfile(2, [1, 0, 1], [[], [], []]),
        rim_sizes={1: 6, 8: 6, **{q: 4 for q in equator}},
        provenance="generated: suspension of a 6-cycle (0-sphere join 1-sphere)",
    )


def digital_plane_patch(w: int, h: int) -> CatalogEntry:
    """w x h triangulated grid without wraparound; interior rims are
    6-point 1-spheres, so the patch is a correct piece of a digital plane."""
    if w < 3 or h < 3:
        raise ValueError("patch needs w, h >= 3")
    idx = {(i, j): h * i + j + 1 for i in range(w) for j in range(h)}
    edges = set()
    for (i, j), p in idx.items():
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            a, b = i + di, j + dj
            if 0 <= a < w and 0 <= b < h:
                q = idx[(a, b)]
                edges.add((min(p, q), max(p, q)))
    space = DigitalSpace(sorted(idx.values()), edges, name=f"plane_patch_{w}x{h}")
    interior = [idx[(i, j)] for i in range(1, w - 1) for j in range(1, h - 1)]
    return CatalogEntry(
        name=f"plane_patch_{w}x{h}", space=space, dimension=2,
        kind="manifold-with-boundary",
        expected_homology=HomologyProfile(1, [1, 0, 0], [[], [], []]),
        rim_sizes={p: 6 for p in interior},
        provenance="generated: diagonal grid, no wraparound",
        interior_points=interior,
    )


def orthogonal_grid(w: int, h: int) -> DigitalSpace:
    """Plain 4-neighbor grid; NOT a digital plane (rims are isolated
    points).  Kept as the negative control."""
    idx = {(i, j): h * i + j + 1 for i in range(w) for j in range(h)}
    edges = []
    for (i, j), p in idx.items():
        if i + 1 < w:
            edges.append((p, idx[(i + 1, j)]))
        if j + 1 < h:
            edges.append((p, idx[(i, j + 1)]))
    return DigitalSpace(sorted(idx.values()), edges, name=f"orthogonal_grid_{w}x{h}")


_BUILDERS: Dict[str, Callable[[], CatalogEntry]] = {
    "s0_min": lambda: minimal_sphere_entry(0),
    "s1_min": lambda: minimal_sphere_entry(1),
    "s2_min": lambda: minimal_sphere_entry(2),
    "s3_min": lambda: minimal_sphere_entry(3),
    "s4_min": lambda: minimal_sphere_entry(4),
    "torus_16": torus_16,
    "klein_bottle_16": klein_bottle_16,
    "projective_plane_11": projective_plane_11,
    "moebius_12": moebius_12,
    "sphere2_8": sphere2_8,
}


def names() -> List[str]:
    return list(_BUILDERS)


def entry(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry: {name}")
    return _BUILDERS[name]()


def space(name: str) -> DigitalSpace:
    return entry(name).space


def verify_entry(e: CatalogEntry) -> None:
    """Replay the full oracle against an entry's stored expectations.

    Raises CatalogVerificationError on any mismatch; a catalog that
    ships unverifiable data is a build error, not a warning.
    """
    g = e.space
    if e.rim_sizes:
        for p, size in e.rim_sizes.items():
            actual = g.degree(p)
            if actual != size:
                raise CatalogVerificationError(
                    f"{e.name}: rim of {p} has {actual} points, expected {size}")
    if e.kind in ("sphere", "manifold"):
        if e.kind == "sphere":
            report = is_n_sphere(g, e.dimension)
        else:
            report = is_n_manifold(g, e.dimension)
        if not report.ok:
            raise CatalogVerificationError(
                f"{e.name}: failed {e.dimension}-manifold check at point "
                f"{report.witness_point}: {report.witness_reason}")
    elif e.kind == "manifold-with-boundary":
        for p in e.interior_points or []:
            if not _sphere_verdict(g.rim(p), e.dimension - 1):
                raise CatalogVerificationError(
                    f"{e.name}: interior point {p} rim is not a "
                    f"{e.dimension - 1}-sphere")
    h = homology(g)
    exp = e.expected_homology
    if h.euler_characteristic != exp.euler_characteristic:
        raise CatalogVerificationError(
            f"{e.name}: chi {h.euler_characteristic} != {exp.euler_characteristic}")
    if h.betti[:len(exp.betti)] != exp.betti or any(h.betti[len(exp.betti):]):
        raise CatalogVerificationError(f"{e.name}: betti {h.betti} != {exp.betti}")
    for k, tor in enumerate(exp.torsion):
        actual = h.torsion[k] if k < len(h.torsion) else []
        if actual != tor:
            raise CatalogVerificationError(
                f"{e.name}: torsion {h.torsion} != {exp.torsion}")


def verify_all() -> Dict[str, CatalogEntry]:
    out = {}
    for name in names():
        e = entry(name)
        verify_entry(e)
        out[name] = e
    return out
