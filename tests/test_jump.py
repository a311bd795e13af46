import numpy as np
import pytest

from jacobiflow.errors import (
    NoRightLimitError,
    PreconditionError,
    UndecidedError,
)
from jacobiflow.grassmann import canonicalize, plane_distance
from jacobiflow.singular.classify import SingularityReport
from jacobiflow.singular.jump import jump_operator


def _report(verdict, sigma=1.0):
    return SingularityReport(
        m=2, b_m=-1.0, sigma_xxdot=sigma, delta=None,
        verdict=verdict, case="span2", k=1,
    )


def test_jump_inserts_singular_direction():
    plane = canonicalize(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.3]]))
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    event = jump_operator(plane, x0, _report("NonOscillating"), time=0.25)
    assert event.time == 0.25
    assert plane_distance(event.pre_plane, plane) < 1e-14
    assert np.array_equal(event.inserted, x0)
    # x0 spans inside the post plane
    resid = x0 - event.post_plane @ np.linalg.lstsq(event.post_plane, x0, rcond=None)[0]
    assert np.linalg.norm(resid) < 1e-12


def test_jump_verdict_gating():
    plane = np.array([[1.0], [0.0]])
    x0 = np.array([1.0, 0.0])
    with pytest.raises(UndecidedError):
        jump_operator(plane, x0, _report("Threshold"))
    with pytest.raises(NoRightLimitError):
        jump_operator(plane, x0, _report("Oscillating"))
    with pytest.raises(PreconditionError):
        jump_operator(plane, x0, _report("NonOscillating", sigma=0.0))


if __name__ == "__main__":
    pytest.main([__file__])
