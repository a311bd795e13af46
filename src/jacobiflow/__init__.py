"""Curves of Lagrangian planes for linear-quadratic and singular problems.

The package computes canonical frames on the Lagrangian Grassmannian, flows
them under linear Hamiltonian systems, counts Maslov-type intersection
indices, builds the jump curves of degenerate problems, and continues the
curve through isolated singular instants of the control weight (see the
:mod:`jacobiflow.singular` subpackage).
"""

from . import engine, errors, flows, grassmann, maslov, series, singular, symplectic
from .engine import (
    JacobiTrace,
    JumpEvent,
    LegendreSequence,
    PiecewiseAnalytic,
    bang_bang_sequence,
    goh_subspace,
    infinite_order_curve,
    iterative_l_derivative,
    legendre_sequence,
    singular_jacobi_curve,
)
from .errors import ConfigError, JacobiflowError, MathError
from .flows import HamiltonianCoefficients, flow_plane, fundamental_matrix
from .grassmann import (
    ChartPoint,
    GrassmannCurve,
    LagrangianFrame,
    canonicalize,
    extend_by_isotropic,
    from_chart,
    horizontal_plane,
    intersection_dimension,
    plane_distance,
    random_lagrangian,
    to_chart,
    transversality_margin,
    vertical_plane,
)
from .maslov import (
    maslov_index,
    maslov_partial_sums,
    simple_arc_index,
    vertical_intersection_count,
)
from .symplectic import (
    apply_j,
    check_structure,
    darboux_complete,
    gram,
    skew_complement,
    symplectic_form,
)

__version__ = "0.1.0"

__all__ = [
    "ChartPoint",
    "ConfigError",
    "GrassmannCurve",
    "HamiltonianCoefficients",
    "JacobiTrace",
    "JacobiflowError",
    "JumpEvent",
    "LagrangianFrame",
    "LegendreSequence",
    "MathError",
    "PiecewiseAnalytic",
    "apply_j",
    "bang_bang_sequence",
    "canonicalize",
    "check_structure",
    "darboux_complete",
    "engine",
    "errors",
    "extend_by_isotropic",
    "flow_plane",
    "flows",
    "from_chart",
    "fundamental_matrix",
    "goh_subspace",
    "gram",
    "grassmann",
    "horizontal_plane",
    "infinite_order_curve",
    "intersection_dimension",
    "iterative_l_derivative",
    "legendre_sequence",
    "maslov",
    "maslov_index",
    "maslov_partial_sums",
    "plane_distance",
    "random_lagrangian",
    "series",
    "simple_arc_index",
    "singular",
    "singular_jacobi_curve",
    "skew_complement",
    "symplectic",
    "symplectic_form",
    "to_chart",
    "transversality_margin",
    "vertical_plane",
    "vertical_intersection_count",
]
