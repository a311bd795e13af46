"""Exception hierarchy for jacobiflow.

All library errors derive from :class:`JacobiflowError` so callers can catch
everything with one clause.  Configuration problems (bad user input) derive
from :class:`ConfigError`, genuine mathematical obstructions from
:class:`MathError`.  The CLI maps these onto exit codes 2 and 3.
"""

from __future__ import annotations


class JacobiflowError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(JacobiflowError):
    """Invalid configuration, scenario file or argument combination."""


class MathError(JacobiflowError):
    """A mathematically meaningful failure (degeneracy, divergence, ...)."""


class PreconditionError(MathError):
    """An operation's mathematical precondition does not hold."""


class ChartError(MathError):
    """A plane is not transversal to the chart plane, so no chart matrix exists."""


class ArcError(MathError):
    """A curve segment is not a simple arc for the requested chart."""


class RefinementError(MathError):
    """Two consecutive samples of a curve are too far apart to count on.

    Raised by Maslov counting when two consecutive samples have a principal
    angle of pi/2, so that no single shortest path joins them (see
    :mod:`jacobiflow.maslov`): the curve must be sampled more finely.
    """


class PoleError(MathError):
    """Integration stalled approaching a pole of the coefficients."""


class DegreeError(ConfigError):
    """A polynomial degree exceeds the supported truncation order."""


class SingularityError(MathError):
    """A singularity classification could not be carried out."""


class DegenerateError(MathError):
    """Required nondegeneracy quantity vanishes (to tolerance)."""


class NondegeneracyError(MathError):
    """A rank or span condition required by a construction fails."""


class RankDriftError(MathError):
    """A rank that must be constant along an interval drifts."""


class AdjustError(MathError):
    """A frame adjustment search failed within its degree budget."""


class OscillatingError(MathError):
    """The requested object does not exist because solutions oscillate."""


class ResonanceError(MathError):
    """Closed-form model formulas degenerate (resonant exponents)."""


class NoRightLimitError(MathError):
    """The curve has no right limit at the singularity."""


class UndecidedError(MathError):
    """A truncated computation cannot decide the question at this order."""


class SeriesResonanceError(MathError):
    """A series recursion hit a non-invertible step (resonant eigenvalue)."""


class RadiusError(MathError):
    """No acceptable series evaluation point inside the convergence radius."""
