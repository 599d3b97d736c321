"""Exact-arithmetic epsilon-optimality certificates for reverse convex programs."""

from .model import (
    INF,
    AffineForm,
    HPolyhedron,
    Inapplicable,
    InputError,
    PolyhedralConvexFunction,
    ReverseProblem,
)
from .lp import LinearProgram, lp_max_component, lp_solve
from .polytope import VPolytope, project, vertex_enumerate
from .subdiff import (
    SubdiffQuery,
    scale_subdiff,
    subdiff_epigraph,
    subdiff_member,
    subdiff_vrep,
)
from .certificates import (
    CertificateVerdict,
    essential_check,
    falsify,
    membership_lp,
    slater_check,
    union_member,
    verify,
)
from .oracle import GridSpec, boundary_projection, brute_eps_argmin
from .pareto import ParetoSample, bridge_check, eff_set, reee_check, vdom
from .problemfile import load_problem, parse_problem, problem_to_doc

__version__ = "0.1.0"
