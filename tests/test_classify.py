import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from jacobiflow.errors import PreconditionError, SingularityError
from jacobiflow.flows import _transport
from jacobiflow.grassmann import random_lagrangian
from jacobiflow.series import meval, srecip
from jacobiflow.singular.classify import (
    NON_OSCILLATING,
    OSCILLATING,
    SingularityReport,
    classify_coefficients,
    kneser_classify,
)
from jacobiflow.singular.frame import NormalFormCoefficients


def _coeffs(m, c11, b_m=-1.0, k=1, **kw):
    b = np.zeros(m + 1)
    b[m] = b_m
    return NormalFormCoefficients(k=k, m=m, b=b, b11=np.zeros(1), c11=[c11], **kw)


# ---------------------------------------------------------------------------
# spectral classifier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("c", [-3.0, 0.0, 3.0])
def test_low_order_never_oscillates(m, c):
    assert kneser_classify([[-1.0]], [[c]], m) == "NonOscillating"


@pytest.mark.parametrize(
    "c, expected",
    [
        (0.5, "Oscillating"),        # eigenvalue -0.5 < -1/4
        (0.26, "Oscillating"),
        (-1.0, "NonOscillating"),    # eigenvalue 1
        (0.24, "NonOscillating"),
        (0.25, "Threshold"),         # exactly on the critical line
        (1e-9, "Threshold"),         # product indistinguishable from zero
    ],
)
def test_order_two_scalar_verdicts(c, expected):
    assert kneser_classify([[-1.0]], [[c]], 2) == expected


def test_order_two_complex_pair():
    # symmetric B, diagonal C with complex spectrum of C B
    b = np.array([[-1.0, 1.0], [1.0, 1.0]])
    c = np.diag([1.0, -1.0])
    eigs = np.linalg.eigvals(c @ b)
    assert np.max(np.abs(eigs.imag)) > 0.5  # really a complex pair
    assert kneser_classify(b, c, 2) == "Oscillating"  # real part -1
    b2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert kneser_classify(b2, c, 2) == "NonOscillating"  # real part +1


@pytest.mark.parametrize(
    "cval, expected",
    [(-1.0, "NonOscillating"), (0.5, "Oscillating"), (1e-9, "Threshold")],
)
def test_higher_order_sign_test(cval, expected):
    assert kneser_classify([[-2.0]], [[cval]], 3) == expected


def test_higher_order_only_range_of_b_matters():
    b = np.diag([-2.0, 0.0])
    assert kneser_classify(b, np.diag([-1.0, 5.0]), 3) == "NonOscillating"
    assert kneser_classify(b, np.diag([1.0, -5.0]), 3) == "Oscillating"
    with pytest.raises(PreconditionError):
        kneser_classify(np.zeros((1, 1)), [[1.0]], 3)


@settings(max_examples=40, deadline=None)
@given(
    b_m=st.floats(min_value=-4.0, max_value=-0.2),
    c=st.floats(min_value=-3.0, max_value=3.0),
)
def test_order_two_matches_quarter_rule(b_m, c):
    product = c / b_m
    if abs(product + 0.25) < 1e-3 or abs(product) < 1e-3:
        return
    expected = "Oscillating" if product < -0.25 else "NonOscillating"
    assert kneser_classify([[1.0 / b_m]], [[c]], 2) == expected


# ---------------------------------------------------------------------------
# crossing-count oracle: an independent cross-check of the spectral verdict.
# It integrates random Lagrangian frames of the block system towards the
# singular instant and counts sign changes of the vertical-block
# determinant, so saturating versus growing counts discriminate the verdicts
# without using the spectrum.
# ---------------------------------------------------------------------------


def oscillation_count_oracle(
    bnf,
    cnf,
    m: int,
    interval: tuple[float, float],
    n_solutions: int = 8,
    seed: int = 0,
    samples_per_decade: int = 400,
    rtol: float = 1e-10,
) -> list[int]:
    """Count vertical crossings of random solutions of the block system.

    ``bnf``/``cnf`` are coefficient stacks of the analytic numerator of ``B``
    and of ``C`` (constants are accepted); the frames are integrated from
    ``interval[0]`` up to ``interval[1]`` and the sign changes of the
    determinant of the vertical block are counted per solution.
    """
    tau_min, tau_max = float(interval[0]), float(interval[1])
    if not 0.0 < tau_min < tau_max:
        raise PreconditionError("need 0 < tau_min < tau_max")
    bnf = np.asarray(bnf, dtype=float)
    cnf = np.asarray(cnf, dtype=float)
    if bnf.ndim == 2:
        bnf = bnf[None, :, :]
    if cnf.ndim == 2:
        cnf = cnf[None, :, :]
    k = bnf.shape[1]

    def sys(t: float) -> np.ndarray:
        out = np.zeros((2 * k, 2 * k))
        out[:k, k:] = meval(bnf, t) / t**m
        out[k:, :k] = meval(cnf, t)
        return out

    # samples_per_decade per decade, and at least 8 per doubling of t
    ts, t = [tau_min], tau_min
    while t < tau_max:
        t_next = min(t * 2.0, tau_max)
        n_samp = max(8, int(samples_per_decade * np.log10(t_next / t)) + 2)
        ts.extend(np.geomspace(t, t_next, n_samp)[1:])
        t = t_next
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(n_solutions):
        # the march renormalises with positive-diagonal QRs, which keep the
        # sign of the vertical determinant; only signs are read, so the steps
        # are not capped by the dense sample times
        frames = _transport(sys, random_lagrangian(rng, k), ts, rtol, node_steps=np.inf)
        signs = np.sign(np.linalg.det(frames[:, k:, :]))
        signs = signs[signs != 0]
        counts.append(int(np.count_nonzero(signs[1:] != signs[:-1])))
    return counts


def oscillation_verdict(
    bnf,
    cnf,
    m: int,
    tau_max: float = 1.0,
    n_solutions: int = 4,
    seed: int = 0,
) -> str:
    """Saturation-versus-growth protocol on top of the crossing counts."""
    stages = [1e-2, 1e-3, 1e-4]
    totals = []
    for tau_min in stages:
        counts = oscillation_count_oracle(
            bnf, cnf, m, (tau_min, tau_max), n_solutions=n_solutions, seed=seed
        )
        totals.append(sum(counts))
    if totals[2] > totals[1] > totals[0]:
        return OSCILLATING
    if totals[2] == totals[1]:
        return NON_OSCILLATING
    # one extra crossing picked up while the transient settles: refine once
    extra = oscillation_count_oracle(
        bnf, cnf, m, (1e-5, tau_max), n_solutions=n_solutions, seed=seed
    )
    return OSCILLATING if sum(extra) > totals[2] else NON_OSCILLATING


def test_oracle_validates_interval():
    with pytest.raises(PreconditionError):
        oscillation_count_oracle([[-1.0]], [[1.0]], 2, (0.0, 1.0))
    with pytest.raises(PreconditionError):
        oscillation_count_oracle([[-1.0]], [[1.0]], 2, (0.5, 0.5))


def test_oracle_counts_grow_for_oscillating_data():
    counts = [
        sum(
            oscillation_count_oracle(
                [[-1.0]], [[2.5]], 2, (tau, 1.0), n_solutions=2, seed=3
            )
        )
        for tau in (1e-2, 1e-3, 1e-4)
    ]
    assert counts[0] < counts[1] < counts[2]
    # weaker oscillation still trends upward, if not per decade
    weak = [
        sum(
            oscillation_count_oracle(
                [[-1.0]], [[1.2]], 2, (tau, 1.0), n_solutions=2, seed=3
            )
        )
        for tau in (1e-2, 1e-3, 1e-4, 1e-5)
    ]
    assert weak[-1] > weak[0]
    assert all(a <= b for a, b in zip(weak, weak[1:]))


def test_oracle_counts_saturate_for_nonoscillating_data():
    counts = [
        sum(
            oscillation_count_oracle(
                [[-1.0]], [[-0.3]], 2, (tau, 1.0), n_solutions=2, seed=3
            )
        )
        for tau in (1e-2, 1e-3, 1e-4)
    ]
    assert counts[1] == counts[2]


def _oracle_stacks(coeffs, nterms=6):
    """Stacks of ``t**m B(t)`` and ``C(t)``, the input of the oscillation oracle."""
    k, m = coeffs.k, coeffs.m
    b_an = [[coeffs.b11, coeffs.b12], [coeffs.b12, coeffs.b22]]
    c_an = [coeffs.c11, coeffs.c22]
    bnf = np.zeros((nterms + m, k, k))
    cnf = np.zeros((nterms, k, k))
    for i in range(k):
        cnf[: c_an[i].size, i, i] = c_an[i][:nterms]
        for j in range(k):
            bnf[m : m + b_an[i][j].size, i, j] = b_an[i][j][:nterms]
    bnf = bnf[:nterms]
    bnf[:, 0, 0] += srecip(coeffs.b[m:], nterms)
    return bnf, cnf


def _restart_oracle(bnf, cnf, m, tau_min, n_solutions, seed, rtol=1e-10, per_decade=400):
    """Reference: the oracle before it became one march per solution.

    Each doubling of t is its own dense solve; the frame is QR'd at its end
    and the sign of det R is folded into a running parity.
    """
    k = bnf.shape[1]

    def rhs(t, y):
        mat = np.zeros((2 * k, 2 * k))
        mat[:k, k:] = np.polynomial.polynomial.polyval(t, bnf) / t**m
        mat[k:, :k] = np.polynomial.polynomial.polyval(t, cnf)
        return (mat @ y.reshape(2 * k, k)).ravel()

    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(n_solutions):
        frame, count, parity, prev, t = random_lagrangian(rng, k), 0, 1.0, 0.0, tau_min
        while t < 1.0:
            t_next = min(2.0 * t, 1.0)
            ts = np.geomspace(t, t_next, max(8, int(per_decade * np.log10(t_next / t)) + 2))
            sol = solve_ivp(rhs, (t, t_next), frame.ravel(), method="DOP853", rtol=rtol,
                            atol=1e-13, dense_output=True)
            for y in sol.sol(ts).T:
                sign = np.sign(np.linalg.det(y.reshape(2 * k, k)[k:]) * parity)
                count += bool(sign and prev and sign != prev)
                prev = sign or prev
            frame, r = np.linalg.qr(sol.sol(t_next).reshape(2 * k, k))
            parity *= np.sign(np.linalg.det(r))
            t = t_next
        counts.append(count)
    return counts


# (3, -2.0, 1e-3) restarts the march at growth events, where the QR must
# keep the determinant's sign
@pytest.mark.parametrize("m, c11, tau_min", [(2, 2.5, 1e-3), (2, 1.2, 1e-4), (2, -0.3, 1e-3),
                                             (3, 2.0, 1e-2), (3, -2.0, 1e-3)])
def test_oracle_counts_match_the_restarting_reference(m, c11, tau_min):
    coeffs = _coeffs(m, c11, b_m=-1.5 if m == 3 else -1.0)
    bnf, cnf = _oracle_stacks(coeffs)
    counts = oscillation_count_oracle(bnf, cnf, m, (tau_min, 1.0), n_solutions=3, seed=5)
    assert counts == _restart_oracle(bnf, cnf, m, tau_min, 3, 5)


@pytest.mark.parametrize(
    "m, c11, expected",
    [
        (2, 1.2, "Oscillating"),
        (2, -0.3, "NonOscillating"),
        (1, 0.8, "NonOscillating"),
        (3, 2.0, "Oscillating"),
        (3, -2.0, "NonOscillating"),
    ],
)
def test_verdict_protocol_agrees_with_spectrum(m, c11, expected):
    bnf, cnf = _oracle_stacks(_coeffs(m, c11, b_m=-1.5 if m == 3 else -1.0))
    assert oscillation_verdict(bnf, cnf, m, n_solutions=2) == expected
    if m >= 2:
        assert kneser_classify(bnf[0], cnf[0], m) == expected


def test_verdict_protocol_two_block():
    coeffs = NormalFormCoefficients(
        k=2, m=2, b=[0.0, 0.0, -1.0], b11=np.zeros(1), c11=[2.0],
        b22=[-1.0], c22=[-0.5],
    )
    bnf, cnf = _oracle_stacks(coeffs)
    assert kneser_classify(bnf[0], cnf[0], 2) == "Oscillating"
    assert oscillation_verdict(bnf, cnf, 2, n_solutions=2) == "Oscillating"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_validation_and_dict():
    rep = SingularityReport(
        m=2, b_m=-1.0, sigma_xxdot=1.0, delta=3.0,
        verdict="NonOscillating", case="span3", k=2,
    )
    d = rep.to_dict()
    assert d["delta"] == 3.0 and d["verdict"] == "NonOscillating"
    assert set(d) == {"m", "b_m", "sigma_xxdot", "delta", "verdict", "case", "k"}
    with pytest.raises(SingularityError):
        SingularityReport(m=0, b_m=-1.0, sigma_xxdot=1.0, delta=None,
                          verdict="NonOscillating", case="", k=1)
    with pytest.raises(SingularityError):
        SingularityReport(m=2, b_m=0.0, sigma_xxdot=1.0, delta=None,
                          verdict="NonOscillating", case="", k=1)


def test_classify_coefficients_discriminant():
    # product 2: delta = sqrt(1 + 8) = 3, no oscillation
    rep = classify_coefficients(_coeffs(2, -2.0))
    assert rep.verdict == "NonOscillating"
    assert rep.delta == pytest.approx(3.0)
    assert rep.sigma_xxdot == pytest.approx(2.0)
    # product -1/2: complex exponents, oscillating, no real delta
    rep = classify_coefficients(_coeffs(2, 0.5))
    assert rep.verdict == "Oscillating"
    assert rep.delta is None
    # order one: no discriminant is reported
    rep = classify_coefficients(_coeffs(1, 0.7), case="span2")
    assert rep.verdict == "NonOscillating"
    assert rep.delta is None and rep.case == "span2"


def test_classify_coefficients_rejects_regular_order():
    with pytest.raises(SingularityError):
        classify_coefficients(_coeffs(0, 1.0))


if __name__ == "__main__":
    pytest.main([__file__])
