"""Digital n-manifolds and explicit parabolic equations on them.

Build and verify graph-based models of continuous surfaces (spheres,
torus, Klein bottle, projective plane, Moebius strip), compute their
Euler characteristic and integral homology, and solve explicit
diffusion/heat dynamics on them, including directed networks.
"""

__version__ = "0.1.0"

from .graph_core import DigitalSpace, join
from .invariants import HomologyProfile, euler_characteristic, homology, smith_normal_form
from .solver import Problem, Trajectory, bind, bind_entries, solve_bvp, solve_ivp
from .topology import (
    ManifoldReport,
    ReductionTrace,
    homotopy_reduce,
    is_contractible,
    is_n_manifold,
    is_n_sphere,
    is_n_surface,
    is_simple_edge,
    is_simple_point,
    minimal_sphere,
    r_transform,
)

__all__ = [
    "DigitalSpace", "join",
    "HomologyProfile", "euler_characteristic", "homology", "smith_normal_form",
    "Problem", "Trajectory", "bind", "bind_entries", "solve_bvp", "solve_ivp",
    "ManifoldReport", "ReductionTrace", "homotopy_reduce", "is_contractible",
    "is_n_manifold", "is_n_sphere", "is_n_surface", "is_simple_edge",
    "is_simple_point", "minimal_sphere", "r_transform",
]
