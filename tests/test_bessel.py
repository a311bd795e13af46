"""Modified Bessel functions I_a and K_a as the closed-form models take them.

The order-(2 + beta) model oracle in ``test_models.py`` builds its columns
from :func:`scipy.special.iv` and :func:`scipy.special.kv`.  These checks pin
what it relies on: the unscaled functions of the standard normalisation
(against the ascending series of I_a and the integral representation of K_a,
neither of which uses ``scipy.special``), and the ladder and Wronskian
identities that make the model's columns solve the block system with
Wronskian ``-beta / (2 c11)``.
"""

import math

import pytest
from scipy.integrate import quad
from scipy.special import iv, kv


def _i_series(a, x):
    """I_a(x) = sum_k (x/2)^(2k+a) / (k! Gamma(k+a+1)); every term is positive."""
    return math.fsum(
        math.exp((2 * k + a) * math.log(0.5 * x) - math.lgamma(k + 1) - math.lgamma(k + a + 1))
        for k in range(400)
    )


def _k_integral(a, x):
    """K_a(x) = int_0^inf exp(-x cosh t) cosh(a t) dt; the integrand is positive."""
    def log_f(t):  # log of the integrand, up to a factor in [1/2, 1]
        return -x * math.cosh(t) + a * t

    peak = math.asinh(a / x)
    end = peak + 1.0
    while log_f(end) > log_f(peak) - 60.0:
        end += 1.0
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(a * t), 0.0, end,
                  points=[peak] if peak > 0.0 else None, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0])
@pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 12.0, 40.0])
def test_values_match_scipy(a, x):
    assert iv(a, x) == pytest.approx(_i_series(a, x), rel=1e-12)
    assert kv(a, x) == pytest.approx(_k_integral(a, x), rel=1e-10)


@pytest.mark.parametrize("a", [1.0 - 1e-9, 1.0 + 1e-9, 2.0 + 1e-10, 3.0 - 1e-8])
def test_near_integer_orders(a):
    # K_a at integer order is a limit of the reflection formula; these orders
    # sit right next to it
    x = 0.7
    assert iv(a, x) == pytest.approx(_i_series(a, x), rel=1e-12)
    assert kv(a, x) == pytest.approx(_k_integral(a, x), rel=1e-11)


@pytest.mark.parametrize("x", [0.3, 1.0, 5.0])
def test_half_order_closed_forms(x):
    assert iv(0.5, x) == pytest.approx(math.sqrt(2.0 / (math.pi * x)) * math.sinh(x), rel=1e-13)
    assert kv(0.5, x) == pytest.approx(math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-13)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.3])
@pytest.mark.parametrize("x", [0.4, 2.0, 25.0])
def test_wronskian(a, x):
    # I_a K_a' - K_a I_a' = -1/x, through the ladder identities below
    w = iv(a, x) * kv(a + 1.0, x) + iv(a + 1.0, x) * kv(a, x)
    assert w == pytest.approx(1.0 / x, rel=1e-11)


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5])
def test_derivatives_match_finite_differences(a):
    # I_a' = (a/x) I_a + I_{a+1} and K_a' = (a/x) K_a - K_{a+1}
    x, h = 2.0, 1e-6
    di = (iv(a, x + h) - iv(a, x - h)) / (2.0 * h)
    dk = (kv(a, x + h) - kv(a, x - h)) / (2.0 * h)
    assert (a / x) * iv(a, x) + iv(a + 1.0, x) == pytest.approx(di, rel=1e-8)
    assert (a / x) * kv(a, x) - kv(a + 1.0, x) == pytest.approx(dk, rel=1e-8)


def test_large_argument_branch():
    # well past the switch to the asymptotic expansion
    for a in (0.5, 2.0):
        assert iv(a, 120.0) == pytest.approx(_i_series(a, 120.0), rel=1e-12)
        assert kv(a, 120.0) == pytest.approx(_k_integral(a, 120.0), rel=1e-12)


if __name__ == "__main__":
    pytest.main([__file__])
