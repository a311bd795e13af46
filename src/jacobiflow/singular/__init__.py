"""Local analysis at an isolated vanishing instant of the control weight.

Normal-form frame construction, oscillation classification, the jump
operator with its epsilon-family oracle, and the first-jet continuation
through the singular instant.
"""

from .classify import (
    NON_OSCILLATING,
    OSCILLATING,
    THRESHOLD,
    SingularityReport,
    classify_coefficients,
    classify_frame,
    kneser_classify,
)
from .firstjet import (
    CaseSystem,
    JetCase,
    blowup_equilibrium,
    blowup_series,
    case_system,
    first_jet_case,
    first_jet_continuation,
    series_start,
)
from .frame import (
    NormalFormCoefficients,
    NormalFormFrame,
    build_normal_frame,
    f2_negativity_adjust,
)
from .jump import epsilon_family_oracle, jump_operator

__all__ = [
    "NON_OSCILLATING",
    "OSCILLATING",
    "THRESHOLD",
    "CaseSystem",
    "JetCase",
    "NormalFormCoefficients",
    "NormalFormFrame",
    "SingularityReport",
    "blowup_equilibrium",
    "blowup_series",
    "build_normal_frame",
    "case_system",
    "classify_coefficients",
    "classify_frame",
    "epsilon_family_oracle",
    "f2_negativity_adjust",
    "first_jet_case",
    "first_jet_continuation",
    "jump_operator",
    "kneser_classify",
    "series_start",
]
