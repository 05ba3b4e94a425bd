"""Property tests of the closed-form slope pieces against independent estimates.

The exact residual, the buffer helper K - E[state] and the qfunc
derivative are checked over the parameter corners that break things:
q down to 1e-6, K up to 1e6, kappa from 2 to 100, b = 0, and loads
within 1e-9 of rho = 1. The queue readers are held bit for bit to the
regime ladder on rho they replaced, and Pr(full) / q to its q -> 0 limit.
The optimizer's slope reader is held bit for bit to the ratio-form slope
composed from the models' public f and the elasticity F = p f'/f written
out per family, and reads the queue law once a power; the public slope is
held within 1e-9 to a 60-digit mpmath residual from the birth-death law,
down to a noise power of 1e-312 W, where f' itself overflows.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from greenlink import (
    ExpUnknownChannel,
    gaussian_q,
    QKnownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    full_buffer_prob,
    load_rho,
    packet_loss,
    stationarity_residual,
    stationary_distribution,
)
from greenlink import queueing
from greenlink.efficiency import _slope_reader
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
    mean = float(np.dot(np.arange(K + 1), stationary_distribution(queue, f)))
    exact = _full_and_log_slope(queue, f)[2]
    assert 0.0 <= exact <= K
    assert abs(exact - (K - mean)) <= 1e-6 + 1e-9 * K


def test_buffer_log_slope_limits():
    assert _full_and_log_slope(QueueParams(0.5, 7), 0.5)[2] == 3.5  # rho = 1
    assert _full_and_log_slope(QueueParams(0.5, 7), 1.0)[2] == 7.0  # rho = 0
    assert _full_and_log_slope(QueueParams(0.5, 7), 0.0)[2] == 0.0  # rho = inf
    assert _full_and_log_slope(QueueParams(1.0, 7), 0.3)[2] == 0.0  # q = 1


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
    full, _, slope = _full_and_log_slope(queue, f)
    assert full == full_buffer_prob(queue, f)
    mean = float(np.dot(np.arange(K + 1), stationary_distribution(queue, f)))
    assert 0.0 <= slope <= K
    assert abs(slope - (K - mean)) <= 1e-6 + 1e-9 * K


# The queue law as it stood before rho and Pr(full) were read by one helper:
# load_rho, then a regime ladder on rho, then the log slope from 1/expm1.
def ladder_load_rho(queue, f):
    if not 0.0 <= f <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    q = queue.arrival_prob_q
    den = (1.0 - q) * f
    if den == 0.0:
        return math.inf
    return q * (1.0 - f) / den


def ladder_full_given_rho(rho, K):
    if math.isinf(rho):
        return 1.0
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return 1.0 / (K + 1)
    if rho < 1.0:
        return rho**K * (1.0 - rho) / (1.0 - rho ** (K + 1))
    r = 1.0 / rho
    return (1.0 - r) / (1.0 - r ** (K + 1))


def ladder_inv_expm1(z):
    return math.exp(-z) / -math.expm1(-z)


def ladder_full_and_log_slope(queue, f):
    rho = ladder_load_rho(queue, f)
    K = queue.buffer_size_K
    full = ladder_full_given_rho(rho, K)
    if math.isinf(rho):
        return full, 0.0
    if rho == 0.0:
        return full, float(K)
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return full, 0.5 * K
    y = abs(math.log(rho))
    mean = ladder_inv_expm1(y) - (K + 1) * ladder_inv_expm1((K + 1) * y)
    return full, mean if rho > 1.0 else K - mean


# f = 5e-320 at q < 1 leaves (1 - q) f nonzero, and q (1 - f) / ((1 - q) f) overflows.
edge_fs = st.sampled_from([0.0, 5e-324, 5e-320, 1.0 - 2.0 ** -53, 1.0])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(q=st.one_of(st.sampled_from([1.0, 0.5]), st.floats(min_value=1e-6, max_value=0.999)),
       K=st.sampled_from([1, 2, 10, 1000, 10**6]),
       load=st.one_of(st.sampled_from([0.0, math.inf]), band_edges,
                      st.floats(min_value=-30.0, max_value=30.0).map(math.exp)),
       edge_f=st.one_of(st.none(), edge_fs))
@example(q=0.5, K=1, load=1.0, edge_f=5e-320)
@example(q=0.5, K=10**6, load=1.0, edge_f=1.0 - 2.0 ** -53)
def test_queue_readers_match_the_ladder_bit_for_bit(q, K, load, edge_f):
    f = f_at_load(q if q < 1.0 else 0.5, load) if edge_f is None else edge_f
    queue = QueueParams(q, K)
    if (q, edge_f) == (0.5, 5e-320):  # the overflow input reaches the overflow
        assert (1.0 - q) * f != 0.0 and ladder_load_rho(queue, f) == math.inf
    rho = ladder_load_rho(queue, f)
    full = ladder_full_given_rho(rho, K)
    assert load_rho(queue, f) == rho
    assert full_buffer_prob(queue, f) == full
    assert packet_loss(queue, f) == (1.0 - f) * full
    full, _, slope = _full_and_log_slope(queue, f)
    assert (full, slope) == ladder_full_and_log_slope(queue, f)


@pytest.mark.parametrize("f", [1e-20, 0.3, 0.999])
def test_full_over_q_keeps_its_limit_as_q_goes_subnormal(f):
    # With K = 1, Pr(full) = rho / (1 + rho), so Pr(full) / q -> (1 - f) / f as q -> 0.
    for q in (1e-300, 1e-310, 5e-324):
        assert _full_and_log_slope(QueueParams(q, 1), f)[1] == pytest.approx((1.0 - f) / f,
                                                                             rel=1e-15)
    # With normal q it is Pr(full) / q, in every load regime.
    for q, K, load in [(0.3, 2, 0.01), (0.3, 10, 1.0), (0.3, 1000, 1e-9), (0.3, 7, 3.0),
                       (1.0, 5, 1.0)]:
        g = f_at_load(q if q < 1.0 else 0.5, load)
        queue = QueueParams(q, K)
        assert _full_and_log_slope(queue, g)[1] == pytest.approx(full_buffer_prob(queue, g) / q,
                                                                 rel=1e-13)


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


# -- The slope reader against the slope composed from its parts ---------------
# A power reads f through success_probability, then F = p f'/f (the qfunc
# model reading its argument again), then the queue law, and takes the
# slope's one form, (u + F - 1) / (u + F + 1).

WALK_REACH = P_MAX * 1e3 * 2.0 ** 60  # the walk stops at the first power past this
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def composed_argument(model, p):
    ratio = model.rate_R / model.rate_R0
    if ratio == math.inf:
        return math.inf
    snr = model.channel_gain_hh * p / model.noise_sigma2
    if snr == math.inf:
        log_snr = (math.log(model.channel_gain_hh) + math.log(p)
                   - math.log(model.noise_sigma2))
        return model.spread_kappa * (ratio - (log_snr + math.log1p(math.exp(-log_snr))))
    return model.spread_kappa * (ratio - math.log1p(snr))


def composed_elasticity(model, p):
    if isinstance(model, ExpUnknownChannel):
        return model.power_scale / p
    f = model.success_probability(p)
    if f == 0.0:
        return math.inf
    if isinstance(model, QKnownChannel):
        arg = composed_argument(model, p)
        density = model.spread_kappa * INV_SQRT_2PI * math.exp(-0.5 * arg * arg)
        hh, sigma2 = model.channel_gain_hh, model.noise_sigma2
        snr = hh * p / sigma2
        if snr < math.inf:
            return density / f * snr / (1.0 + snr)
        return density / f / (1.0 + sigma2 / hh / p)
    return p * model.success_derivative(p) / f


def composed_residual(system, queue, model, p):
    f = model.success_probability(p)
    full, full_q, log_slope = _full_and_log_slope(queue, f)
    delivered = 1.0 - (1.0 - f) * full
    if delivered <= 0.0:
        return 1.0
    F = composed_elasticity(model, p)
    b_over_a = system.fixed_power_b / system.amp_coeff_a
    u = b_over_a / p * full_q * (f + log_slope) * F * f / delivered / delivered
    if not u < math.inf:
        u = b_over_a * full_q * (f + log_slope) * (F / p * f) / delivered / delivered
    return (u + F - 1.0) / (u + F + 1.0) if u + F < math.inf else 1.0


class HillModel:
    """f = p / (p + s): only the two public methods, so the slope reads through them."""

    def __init__(self, s):
        self.s = s

    def success_probability(self, p):
        return p / (p + self.s)

    def success_derivative(self, p):
        return self.s / (p + self.s) / (p + self.s)


def same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def reader_model(kind, sigma2, kappa, hh, rate_R0):
    if kind == "exp":
        return ExpUnknownChannel(rate_R=4000.0, rate_R0=rate_R0, noise_sigma2=sigma2)
    if kind == "qfunc":
        return QKnownChannel(rate_R=4000.0, rate_R0=rate_R0, spread_kappa=kappa,
                             channel_gain_hh=hh, noise_sigma2=sigma2)
    return HillModel(sigma2)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["exp", "qfunc", "stub"]),
       sigma2=st.sampled_from([SIGMA2, 1e-200, 1e306]),  # f' near 5e194, hh p overflows
       kappa=st.floats(min_value=0.5, max_value=100.0),
       hh=st.sampled_from([0.05, 1.0, 30.0, 1e300]),
       # R/R0 = 4, beyond 2**(R/R0)'s float range (the exp model's c is inf), and inf
       rate_R0=st.sampled_from([1000.0, 3.6, 1e-320]),
       q=st.one_of(st.sampled_from([1.0, 0.5, 1e-300, 5e-324]),
                   st.floats(min_value=math.log(5e-324), max_value=0.0).map(math.exp)),
       K=st.sampled_from([1, 2, 10, 1000, 10**6]),
       ratio=st.sampled_from([0.0, 1.0, 1e4]),
       a=st.sampled_from([1.0, 2.5]),
       powers=st.lists(st.one_of(
           st.sampled_from([SIGMA2 * 1e-3, P_MAX * 1e3, WALK_REACH, 2.0 * WALK_REACH]),
           st.floats(min_value=math.log(5e-324),
                     max_value=math.log(2.0 * WALK_REACH)).map(math.exp)), max_size=3),
       offsets=st.lists(st.floats(min_value=-10.0, max_value=5.0), max_size=3))
@example(kind="qfunc", sigma2=SIGMA2, kappa=2.0, hh=1e300, rate_R0=1e-320, q=0.5, K=10,
         ratio=1.0, a=1.0, powers=[1e10], offsets=[])  # R/R0 and hh p / sigma2 both inf
@example(kind="exp", sigma2=1e-200, kappa=2.0, hh=1.0, rate_R0=1000.0, q=5e-324, K=10**6,
         ratio=0.0, a=2.5, powers=[], offsets=[0.0])  # f' = F f / p near 5e194; q subnormal
def test_slope_reader_matches_the_composed_slope_bit_for_bit(kind, sigma2, kappa, hh, rate_R0,
                                                             q, K, ratio, a, powers, offsets):
    model = reader_model(kind, sigma2, kappa, hh, rate_R0)
    system = SystemParams(rate_R=4000.0, fixed_power_b=ratio * SIGMA2, noise_sigma2=SIGMA2,
                          p_min=0.01, p_max=P_MAX, amp_coeff_a=a)
    queue = QueueParams(q, K)
    slope = _slope_reader(system, queue, model)  # one reader for every power, as in a search
    # offsets are ln(p / sigma2): where f climbs, at any noise power
    for p in powers + [sigma2 * math.exp(t) for t in offsets]:
        want = composed_residual(system, queue, model, p)
        assert same(slope(p), want)
        assert same(stationarity_residual(system, queue, model, p), want)
        if kind == "stub":
            continue
        f, F = model._reader(p)
        assert f == model.success_probability(p)
        assert same(F, composed_elasticity(model, p))
        assert same(model.success_derivative(p), F * f / p if f else 0.0)
        if kind == "qfunc":
            assert f == gaussian_q(composed_argument(model, p))


@pytest.mark.parametrize("kind", ["exp", "qfunc"])
@pytest.mark.parametrize("q, K", [(0.5, 2), (1e-3, 10), (1.0, 1)])
def test_slope_takes_its_limit_where_a_p_and_b_h_underflow(kind, q, K):
    # the slope reads a and b only through b / a. With b = 0 and a p below
    # the smallest subnormal its ratio was 0/0; the limit is the slope of
    # the same link at a = 1, where nothing underflows
    sigma2 = 1e-300
    model = reader_model(kind, sigma2, 2.0, 1.0, 1000.0)
    tiny, unit = (_slope_reader(SystemParams(rate_R=4000.0, fixed_power_b=0.0,
                                             noise_sigma2=sigma2, p_min=1e-300, p_max=1.0,
                                             amp_coeff_a=a), QueueParams(q, K), model)
                  for a in (1e-300, 1.0))
    for p in [sigma2 * 10.0 ** (k / 4.0) for k in range(-4, 13)]:
        assert 1e-300 * p == 0.0
        assert tiny(p) == pytest.approx(unit(p), abs=4 * EPS)


@pytest.mark.parametrize("p", [1e-310, 1e-315])
def test_slope_holds_where_b_over_p_overflows(p):
    # Far below the noise power the qfunc f, f' and u stay put while F falls
    # with p, so the slope keeps its value; at these powers b/a/p is above
    # the float range and u is taken with f'/f = F/p as one factor.
    sigma2 = 1.0
    model = reader_model("qfunc", sigma2, 2.0, 1.0, 1000.0)
    system = SystemParams(rate_R=4000.0, fixed_power_b=sigma2, noise_sigma2=sigma2,
                          p_min=0.01, p_max=P_MAX)
    slope = _slope_reader(system, QueueParams(0.5, 10), model)
    assert system.fixed_power_b / p == math.inf
    assert slope(p) == pytest.approx(slope(1e-300), rel=1e-10)


def test_each_slope_reads_the_queue_law_once(monkeypatch):
    reads = []
    read = queueing._load_and_full
    monkeypatch.setattr(queueing, "_load_and_full",
                        lambda queue, f: reads.append(f) or read(queue, f))
    system = SystemParams(rate_R=4000.0, fixed_power_b=SIGMA2, noise_sigma2=SIGMA2,
                          p_min=0.01, p_max=P_MAX)
    powers = [SIGMA2 * math.exp(t) for t in (-1.0, 3.0, 5.0)]
    for model in (make_model(None), make_model(10.0)):
        for q in (1.0, 0.5, 5e-324):  # Pr(full) / q by both of its regimes
            slope = _slope_reader(system, QueueParams(q, 10), model)
            reads.clear()
            for p in powers:
                slope(p)
            assert len(reads) == len(powers)


def test_slope_reader_keeps_the_power_checks():
    system = SystemParams(rate_R=4000.0, fixed_power_b=SIGMA2, noise_sigma2=SIGMA2,
                          p_min=0.01, p_max=P_MAX)
    for model in (make_model(None), make_model(10.0)):
        slope = _slope_reader(system, QueueParams(0.5, 10), model)
        for p in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match=r"^transmit power must be positive$"):
                slope(p)
        with pytest.raises(ValueError, match=r"^transmit power must be finite, got inf$"):
            slope(math.inf)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=st.sampled_from([None, 2.0, 10.0]),
       q=st.one_of(st.sampled_from([1.0, 0.5, 1e-6, 1e-300, 5e-324]),
                   st.floats(min_value=math.log(5e-324), max_value=0.0).map(math.exp)),
       K=st.sampled_from([1, 10, 1000]),
       ratio=b_ratios,
       sigma2=st.sampled_from([SIGMA2, 1e-310, 1e-312]),
       offsets=st.lists(st.floats(min_value=-3.0, max_value=6.0), min_size=2, max_size=8))
def test_slope_matches_the_mpmath_residual(kappa, q, K, ratio, sigma2, offsets):
    model = reader_model("exp" if kappa is None else "qfunc", sigma2, kappa, 1.0, 1000.0)
    success = (oracles.mp_exp_success(4.0, sigma2) if kappa is None
               else oracles.mp_qfunc_success(kappa, 4.0, 1.0, sigma2))
    system = SystemParams(rate_R=4000.0, fixed_power_b=ratio * sigma2, noise_sigma2=sigma2,
                          p_min=0.01, p_max=P_MAX)
    queue = QueueParams(q, K)
    for p in [sigma2 * math.exp(t) for t in offsets]:
        # Below f = 1e-6, 1 - Phi is taken by a subtraction that keeps few
        # bits (ROADMAP item 4), which does not test the slope's formula.
        if model.success_probability(p) < 1e-6:
            continue
        want = oracles.mp_stationarity_residual(success, p, q, K, system.fixed_power_b, 1.0)
        assert stationarity_residual(system, queue, model, p) == pytest.approx(
            want, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("p, want", [(1e-300, 0.88400913), (0.01, 0.88374463)])
def test_mpmath_residual_far_below_the_noise(p, want):
    # qfunc kappa 2, sigma2 = b = 1 W, q 0.5, K 10. The oracle takes f' in
    # closed form: at p = 1e-300, f changes by less than 60 digits across any
    # step in ln p, and a difference there made the residual read -1.0. (The
    # library's 0.868 at 1e-300 is off by 1 - Phi's cancellation, ROADMAP
    # item 4, so it is not compared here.)
    success = oracles.mp_qfunc_success(2.0, 4.0, 1.0, 1.0)
    got = oracles.mp_stationarity_residual(success, p, 0.5, 10, 1.0, 1.0)
    assert got == pytest.approx(want, rel=0.0, abs=5e-9)
