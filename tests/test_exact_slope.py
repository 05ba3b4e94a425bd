"""Property tests of the closed-form slope pieces against independent estimates.

The exact residual, the buffer helper K - E[state] and the qfunc
derivative are checked over the parameter corners that break things:
q down to 1e-6, K up to 1e6, kappa from 2 to 100, b = 0, and loads
within 1e-9 of rho = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from greenlink import (
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    full_buffer_log_slope,
    full_buffer_prob,
    stationarity_residual,
    stationary_distribution,
)
from greenlink.queueing import _RHO_UNIT_TOL, _full_and_log_slope

SIGMA2 = 1e-3
P_MAX = 10.0 ** 3.5 / 1000.0  # the CLI's 35 dBm cap
EPS = float(np.finfo(float).eps)

q_values = st.one_of(
    st.just(1.0),
    st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0 ** e),
)
buffer_sizes = st.one_of(st.sampled_from([1, 10, 1000, 10**6]),
                         st.integers(min_value=1, max_value=10**6))
kappas = st.sampled_from([2.0, 10.0, 100.0])
b_ratios = st.sampled_from([0.0, 1.0, 100.0, 1e4])
near_unit_load = st.floats(min_value=-1e-9, max_value=1e-9)


def make_model(kappa):
    if kappa is None:
        return ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=SIGMA2)
    return QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                         channel_gain_hh=1.0, noise_sigma2=SIGMA2)


def f_at_load(q, rho):
    # inverts rho = q (1 - f) / ((1 - q) f)
    return q / (q + rho * (1.0 - q))


@settings(max_examples=300, deadline=None)
@given(model_kappa=st.one_of(st.none(), kappas), q=q_values, K=buffer_sizes,
       ratio=b_ratios, log_p=st.floats(min_value=math.log(SIGMA2 * 1e-3),
                                       max_value=math.log(P_MAX * 1e3)),
       unit_load=st.booleans(), t=near_unit_load)
def test_residual_sign_matches_log_eta_difference(model_kappa, q, K, ratio, log_p,
                                                  unit_load, t):
    model = make_model(model_kappa)
    system = SystemParams(rate_R=4000.0, fixed_power_b=ratio * SIGMA2,
                          noise_sigma2=SIGMA2, p_min=0.01, p_max=P_MAX)
    queue = QueueParams(q, K)
    p = math.exp(log_p)
    if unit_load and model_kappa is None and q < 1.0:
        # the exp model inverts in closed form: put the load within 1e-9 of 1
        p = -model.power_scale / math.log(f_at_load(q, 1.0 + t))
    delta = 1e-4
    lo, hi = p * (1.0 - delta), p * (1.0 + delta)
    at_lo = efficiency(system, queue, model, lo)
    at_hi = efficiency(system, queue, model, hi)
    assume(at_lo.eta > 0.0 and at_hi.eta > 0.0)
    diff = math.log(at_hi.eta) - math.log(at_lo.eta)
    residuals = [stationarity_residual(system, queue, model, x) for x in (lo, p, hi)]
    # Same sign across the interval, so no stationary point sits inside it,
    # and a difference far above the roundoff of ln(eta), which 1 - phi
    # magnifies by 1/(1 - phi) when phi is close to 1.
    assume(all(r > 0.0 for r in residuals) or all(r < 0.0 for r in residuals))
    roundoff = 16.0 * EPS / min(1.0 - at_lo.phi, 1.0 - at_hi.phi)
    assume(abs(diff) > 1e-9 + roundoff)
    assert (residuals[1] > 0.0) == (diff > 0.0)
    assert -1.0 <= residuals[1] <= 1.0


@settings(max_examples=200, deadline=None)
@given(q=st.floats(min_value=1e-6, max_value=0.999), K=buffer_sizes,
       load=st.one_of(near_unit_load.map(lambda t: 1.0 + t),
                      st.floats(min_value=-1e-6, max_value=1e-6).map(lambda t: 1.0 + t),
                      st.floats(min_value=-30.0, max_value=30.0).map(math.exp)))
def test_buffer_log_slope_matches_stationary_mean(q, K, load):
    f = f_at_load(q, load)
    assume(0.0 < f < 1.0)
    queue = QueueParams(q, K)
    dist = stationary_distribution(queue, f)
    mean = float(np.dot(np.arange(K + 1), dist.probs))
    exact = full_buffer_log_slope(queue, f)
    assert 0.0 <= exact <= K
    assert abs(exact - (K - mean)) <= 1e-6 + 1e-9 * K


def test_buffer_log_slope_limits():
    assert full_buffer_log_slope(QueueParams(0.5, 7), 0.5) == 3.5  # rho = 1
    assert full_buffer_log_slope(QueueParams(0.5, 7), 1.0) == 7.0  # rho = 0
    assert full_buffer_log_slope(QueueParams(0.5, 7), 0.0) == 0.0  # rho = inf
    assert full_buffer_log_slope(QueueParams(1.0, 7), 0.3) == 0.0  # q = 1


# Loads just inside and just outside the band around rho = 1 where the
# closed forms switch to the uniform law.
band_edges = st.sampled_from([1.0 + side * m * _RHO_UNIT_TOL
                              for side in (-1.0, 1.0) for m in (0.999, 1.001)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=0.999)),
       K=st.sampled_from([1, 10, 1000, 10**6]),
       load=st.one_of(st.sampled_from([0.0, math.inf]), band_edges,
                      st.floats(min_value=-30.0, max_value=30.0).map(math.exp)))
def test_full_and_log_slope_from_one_read_of_rho(q, K, load):
    # q = 1 puts rho at inf whatever f is; take f from the load's inverse at q = 1/2.
    f = f_at_load(q if q < 1.0 else 0.5, load)
    queue = QueueParams(q, K)
    full, slope = _full_and_log_slope(queue, f)
    assert full == full_buffer_prob(queue, f)
    assert slope == full_buffer_log_slope(queue, f)
    mean = float(np.dot(np.arange(K + 1), stationary_distribution(queue, f).probs))
    assert 0.0 <= slope <= K
    assert abs(slope - (K - mean)) <= 1e-6 + 1e-9 * K


@settings(max_examples=200, deadline=None)
@given(kappa=kappas, hh=st.sampled_from([0.05, 1.0, 30.0]),
       arg=st.floats(min_value=-5.0, max_value=5.0))
def test_qfunc_derivative_matches_central_difference(kappa, hh, arg):
    model = QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                          channel_gain_hh=hh, noise_sigma2=SIGMA2)
    # the power at which the Q-function argument equals arg: the sigmoid's active region
    p = SIGMA2 * math.expm1(4.0 - arg / kappa) / hh
    h = 1e-4 * p / kappa  # moves arg by about 1e-4: above roundoff near f = 1
    central = (model.success_probability(p + h)
               - model.success_probability(p - h)) / (2.0 * h)
    assert model.success_derivative(p) == pytest.approx(central, rel=1e-5)
