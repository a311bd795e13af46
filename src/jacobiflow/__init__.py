"""Curves of Lagrangian planes for linear-quadratic and singular problems.

The package computes canonical frames on the Lagrangian Grassmannian, flows
them under linear Hamiltonian systems, counts Maslov-type intersection
indices, builds the jump curves of degenerate problems, and continues the
curve through isolated singular instants of the control weight (see the
:mod:`jacobiflow.singular` subpackage).

Input from outside is checked once, where it enters: at ``cli.parse_scenario``,
``cli.run`` and ``cli.main``, and in the public functions of ``__all__`` here
and in :mod:`jacobiflow.singular`.  The CLI hands what it checked to private
cores, which trust it and say so.
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
    legendre_sequence,
    singular_jacobi_curve,
)
from .errors import ConfigError, JacobiflowError, MathError
from .flows import flow_plane
from .grassmann import (
    GrassmannCurve,
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    intersection_dimension,
    plane_distance,
    to_chart,
    transversality_margin,
    vertical_plane,
)
from .maslov import maslov_index, maslov_partial_sums
from .symplectic import apply_j, gram, symplectic_form

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GrassmannCurve",
    "JacobiTrace",
    "JacobiflowError",
    "JumpEvent",
    "LegendreSequence",
    "MathError",
    "PiecewiseAnalytic",
    "apply_j",
    "bang_bang_sequence",
    "canonicalize",
    "engine",
    "errors",
    "extend_by_isotropic",
    "flow_plane",
    "flows",
    "goh_subspace",
    "gram",
    "grassmann",
    "horizontal_plane",
    "infinite_order_curve",
    "intersection_dimension",
    "legendre_sequence",
    "maslov",
    "maslov_index",
    "maslov_partial_sums",
    "plane_distance",
    "series",
    "singular",
    "singular_jacobi_curve",
    "symplectic",
    "symplectic_form",
    "to_chart",
    "transversality_margin",
    "vertical_plane",
]
