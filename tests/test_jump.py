import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_lagrangian
from jacobiflow import cli
from jacobiflow.errors import (
    NoRightLimitError,
    PreconditionError,
    UndecidedError,
)
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import canonicalize, plane_distance
from jacobiflow.series import meval
from jacobiflow.singular.classify import SingularityReport
from jacobiflow.singular.frame import build_normal_frame
from jacobiflow.singular.jump import epsilon_family_oracle, jump_operator
from jacobiflow.symplectic import symplectic_inverse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _report(verdict, sigma=1.0):
    return SingularityReport(
        m=2, b_m=-1.0, sigma_xxdot=sigma, delta=None,
        verdict=verdict, case="span2", k=1,
    )


def test_jump_inserts_singular_direction():
    plane = canonicalize(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.3]]))
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    event = jump_operator(plane, x0, _report("NonOscillating"))
    assert event.time == 0.0
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


def _family_problem(scenario: Path) -> tuple:
    """``(system, starts, tau_eval, eps_list, rtol)`` that the trace of a
    ``degen_m3`` scenario hands to the epsilon family."""
    handed = []

    def recorded(system, starts, tau_eval, eps_list, rtol):
        handed.append((system, starts, tau_eval, list(eps_list), rtol))
        return epsilon_family_oracle(system, starts, tau_eval, eps_list, rtol=rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "epsilon_family_oracle", recorded)
        cli.run(cli.parse_scenario(scenario), "trace")
    return handed[0]


def _member_by_member(system, starts, tau_eval, eps_list, rtol) -> list:
    """The family as one march of one plane per member, member i from
    ``starts[i]``, or from ``starts`` when it is a single frame."""
    starts = np.broadcast_to(starts, (len(eps_list),) + np.shape(starts)[-2:])
    return [flow_plane(system, start, [eps, tau_eval], rtol=rtol).planes[-1]
            for start, eps in zip(starts, eps_list)]


def _pole_scenarios(directory: Path) -> list[Path]:
    """The corpus ``degen_m3`` scenario and the seed-0 ``pole`` variants of the benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", PERFBENCH / "scenarios.py")
    scenarios = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(scenarios)
    ops = scenarios.write_scenarios("pole", 0, scenarios.blocks_for("pole", 30.0), directory)
    return sorted({directory / f"{op.scenario}.json" for op in ops})


def test_the_joint_family_is_the_member_by_member_family(tmp_path):
    # one stack of planes marched from the deepest eps, each member tested on
    # its own plane, lands within 1e-12 of one march per member, on the
    # corpus family (eps = 1e-3 ... 1e-6) and the benchmark's variants
    scenarios = _pole_scenarios(tmp_path)
    assert [path.stem for path in scenarios][:2] == ["degen_m3", "degen_m3_v00"]
    for path in scenarios:
        problem = _family_problem(path)
        joint = epsilon_family_oracle(*problem[:4], rtol=problem[4])
        alone = _member_by_member(*problem)
        assert len(joint) == len(problem[3]) > 1
        assert max(plane_distance(a, b) for a, b in zip(joint, alone)) < 1e-12


def test_the_trace_family_is_the_normal_form_family_moved_by_the_frame():
    # the trace marches the data's own order-0 system in the coordinates
    # M(0)^-1 from M(0)^-1 M(eps) L0; the normal-form family marches the block
    # system from L0.  M(0)^-1 M(t) conjugates one system into the other, so
    # M(0)^-1 M(tau_eval) maps the second family onto the first, up to the
    # transport error
    system, starts, tau_eval, eps_list, rtol = _corpus_family()
    config = cli.parse_scenario(PERFBENCH / "corpus" / "degen_m3.json")
    frame = build_normal_frame(config.data["piecewise"], nterms=config.tolerances["nterms"])
    m0_inv = symplectic_inverse(meval(frame.frame, 0.0))
    l0 = canonicalize(m0_inv @ config.initial_plane)
    moved = m0_inv @ meval(frame.frame, np.array(eps_list)) @ l0
    assert plane_distance(starts, moved).max() < 1e-15
    data = epsilon_family_oracle(system, starts, tau_eval, eps_list, rtol=rtol)
    normal = epsilon_family_oracle(frame.coeffs.system, l0, tau_eval, eps_list, rtol=rtol)
    assert plane_distance(data, m0_inv @ meval(frame.frame, tau_eval) @ normal).max() < 1e-12


def test_the_family_needs_one_start_or_one_per_member():
    # the corpus family hands in four starts, one per member
    system, starts, tau_eval, _, rtol = _corpus_family()
    with pytest.raises(PreconditionError, match="one per member"):
        epsilon_family_oracle(system, starts, tau_eval, [1e-3, 1e-4], rtol=rtol)


@functools.lru_cache(maxsize=None)
def _corpus_family() -> tuple:
    return _family_problem(PERFBENCH / "corpus" / "degen_m3.json")


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.sampled_from([1e-3, 4e-4, 1e-4, 3e-5, 1e-5]),
                                           min_size=1, max_size=5))
def test_the_joint_family_keeps_the_order_of_an_unsorted_eps_list(seed, eps_list):
    # random start planes and eps lists in any order, with repeats: member i
    # is the plane marched from eps_list[i]
    system, _, tau_eval, _, rtol = _corpus_family()
    l0 = random_lagrangian(np.random.default_rng(seed), 2)
    joint = epsilon_family_oracle(system, l0, tau_eval, eps_list, rtol=rtol)
    alone = _member_by_member(system, l0, tau_eval, eps_list, rtol)
    assert len(joint) == len(eps_list)
    assert max(plane_distance(a, b) for a, b in zip(joint, alone)) < 1e-12


if __name__ == "__main__":
    pytest.main([__file__])
