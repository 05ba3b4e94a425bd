import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenlink import (
    EfficiencyPoint,
    ExpUnknownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    power_gain_db,
    stationarity_residual,
)


def make_system(b=0.1, sigma2=1e-3, p_min=1e-4, p_max=10.0, eps=1.0, a=1.0,
                R=4000.0):
    return SystemParams(rate_R=R, fixed_power_b=b, noise_sigma2=sigma2,
                        p_min=p_min, p_max=p_max, amp_coeff_a=a,
                        loss_bound_epsilon=eps)


def exp_model(R=4000.0, R0=1000.0, sigma2=1e-3):
    return ExpUnknownChannel(rate_R=R, rate_R0=R0, noise_sigma2=sigma2)


class TestSystemParams:
    def test_defaults(self):
        s = make_system()
        assert s.amp_coeff_a == 1.0
        assert s.loss_bound_epsilon == 1.0

    @pytest.mark.parametrize("kw", [
        dict(R=0.0),
        dict(b=-0.1),
        dict(sigma2=0.0),
        dict(a=0.0),
        dict(eps=0.0),
        dict(eps=1.5),
        dict(p_min=0.0),
        dict(p_min=2.0, p_max=1.0),
        dict(p_min=1.0, p_max=1.0),
        dict(R=math.nan),
        dict(b=math.nan),
        dict(sigma2=math.nan),
        dict(a=math.nan),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            make_system(**kw)

    def test_zero_fixed_power_allowed(self):
        make_system(b=0.0)

    @pytest.mark.parametrize("kw, name", [
        (dict(R=math.inf), "rate_R"),
        (dict(b=math.inf), "fixed_power_b"),
        (dict(sigma2=math.inf), "noise_sigma2"),
        (dict(sigma2=math.inf, b=math.inf), "noise_sigma2"),
        (dict(p_max=math.inf), "p_max"),
        (dict(a=math.inf), "amp_coeff_a"),
    ])
    def test_infinite_rejected_by_name(self, kw, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            make_system(**kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(b=-math.inf), "fixed power draw cannot be negative"),
        (dict(R=-math.inf), "rate must be positive"),
        (dict(p_min=math.inf), "power limits must satisfy 0 < p_min < p_max"),
        (dict(p_min=math.inf, p_max=math.inf), "power limits must satisfy 0 < p_min < p_max"),
    ])
    def test_out_of_range_infinity_keeps_its_message(self, kw, message):
        with pytest.raises(ValueError) as err:
            make_system(**kw)
        assert str(err.value) == message


class TestEfficiency:
    def test_no_fixed_power_collapse_value(self):
        # with b = 0 the queue factors cancel: eta = R f / (a p)
        # config with f(2) = 0.5 exactly
        sigma2 = 2.0 * math.log(2.0)
        model = ExpUnknownChannel(rate_R=1000.0, rate_R0=1000.0,
                                  noise_sigma2=sigma2)
        assert model.success_probability(2.0) == pytest.approx(0.5, rel=1e-14)
        sysp = make_system(b=0.0, sigma2=sigma2, R=4000.0)
        for q, K in [(0.2, 3), (0.5, 10), (0.9, 25), (1.0, 1)]:
            pt = efficiency(sysp, QueueParams(q, K), model, 2.0)
            assert pt.eta == pytest.approx(1000.0, rel=1e-12)

    def test_no_fixed_power_collapse_everywhere(self):
        model = exp_model()
        sysp = make_system(b=0.0)
        ref = [efficiency(sysp, QueueParams(0.5, 10), model, p).eta
               for p in (0.005, 0.02, 0.1, 1.0)]
        for q, K in [(0.1, 2), (0.7, 5), (1.0, 40)]:
            got = [efficiency(sysp, QueueParams(q, K), model, p).eta
                   for p in (0.005, 0.02, 0.1, 1.0)]
            assert got == pytest.approx(ref, rel=1e-12)

    def test_saturated_arrivals_reduction(self):
        # q = 1: eta = R f / (b + p); f(1) = exp(-0.15) = 0.8607
        model = exp_model(sigma2=0.01)
        sysp = make_system(b=1.0, sigma2=0.01, p_max=100.0)
        pt = efficiency(sysp, QueueParams(1.0, 10), model, 1.0)
        f = math.exp(-0.15)
        assert pt.f == pytest.approx(f, rel=1e-14)
        assert pt.eta == pytest.approx(4000.0 * f / 2.0, rel=1e-12)
        assert pt.eta == pytest.approx(1721.4, abs=0.05)

    def test_vanishes_at_extremes(self):
        model = exp_model()
        sysp = make_system()
        qp = QueueParams(0.5, 10)
        assert efficiency(sysp, qp, model, 1e-9).eta == 0.0
        tiny = efficiency(sysp, qp, model, 1e5).eta
        peak = efficiency(sysp, qp, model, 0.025).eta
        assert tiny < 1e-3 * peak

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            efficiency(make_system(), QueueParams(0.5, 10), exp_model(), 0.0)
        with pytest.raises(ValueError):
            efficiency(make_system(), QueueParams(0.5, 10), exp_model(), -1.0)
        with pytest.raises(ValueError):
            efficiency(make_system(), QueueParams(0.5, 10), exp_model(), math.nan)

    @pytest.mark.parametrize("q", [1e-6, 0.5, 1.0])
    def test_underflowed_success_has_zero_goodput(self, q):
        # With f in (0, 1e-300] the loss fraction rounds to 1, so nothing is
        # delivered: eta is 0 and the slope reads +1 (raise the power).
        class Tiny:
            def success_probability(self, p):
                return 1e-305

            def success_derivative(self, p):
                return 1.0

        for K in (1, 10, 10**6):
            point = efficiency(make_system(), QueueParams(q, K), Tiny(), 0.5)
            assert (point.eta, point.phi) == (0.0, 1.0)
            assert stationarity_residual(make_system(), QueueParams(q, K), Tiny(), 0.5) == 1.0

    def test_feasibility_flag(self):
        model = exp_model()
        sysp = make_system(eps=0.01, p_min=0.01, p_max=1.0)
        qp = QueueParams(0.9, 10)
        lossy = efficiency(sysp, qp, model, 0.011)
        assert lossy.phi > 0.01 and not lossy.feasible
        clean = efficiency(sysp, qp, model, 0.5)
        assert clean.phi <= 0.01 and clean.feasible
        below_floor = efficiency(sysp, qp, model, 0.005)
        assert not below_floor.feasible

    @given(st.floats(min_value=1e-6, max_value=1e4),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(min_value=1, max_value=40))
    @settings(deadline=None)
    def test_point_invariants(self, p, q, K):
        pt = efficiency(make_system(), QueueParams(q, K), exp_model(), p)
        assert isinstance(pt, EfficiencyPoint)
        assert pt.eta >= 0.0
        assert 0.0 <= pt.phi <= 1.0
        assert 0.0 <= pt.f <= 1.0
        assert pt.power_p == p

    def test_more_traffic_never_hurts(self):
        # fixed p, increasing q: the idle power gets amortized better
        model = exp_model()
        sysp = make_system(b=0.1)
        for p in (0.004, 0.02, 0.1, 1.0):
            etas = [efficiency(sysp, QueueParams(q, 10), model, p).eta
                    for q in np.linspace(0.05, 1.0, 25)]
            assert all(b2 >= a2 * (1 - 1e-12) for a2, b2 in zip(etas, etas[1:]))

    def test_huge_buffer_reductions(self):
        # K = 1e4 behaves like the unbounded queue on both sides of balance
        model = exp_model()
        b, q = 0.1, 0.5
        sysp = make_system(b=b)
        K = 10_000
        c = model.power_scale

        p_over = c / math.log(1.0 / 0.2)   # f = 0.2 < q, overloaded
        pt = efficiency(sysp, QueueParams(q, K), model, p_over)
        assert pt.eta == pytest.approx(
            4000.0 * 0.2 / (b + p_over), rel=1e-4)

        p_under = c / math.log(1.0 / 0.9)  # f = 0.9 > q, drains
        pt = efficiency(sysp, QueueParams(q, K), model, p_under)
        assert pt.eta == pytest.approx(
            4000.0 / (b / q + p_under / 0.9), rel=1e-4)


class TestStationarityResidual:
    def test_sign_change_once(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        qp = QueueParams(0.5, 10)
        grid = np.exp(np.linspace(math.log(1e-3), math.log(5.0), 400))
        signs = [stationarity_residual(sysp, qp, model, float(p)) > 0
                 for p in grid]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1
        assert signs[0] and not signs[-1]

    def test_zero_at_analytic_point(self):
        # b = 0, q = 1: stationary exactly where f/p peaks, at p = c
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0,
                                  noise_sigma2=1.0)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=0.0, noise_sigma2=1.0,
                            p_min=0.1, p_max=1000.0)
        qp = QueueParams(1.0, 10)
        assert abs(stationarity_residual(sysp, qp, model, 15.0)) <= 1e-9
        assert stationarity_residual(sysp, qp, model, 14.0) > 0
        assert stationarity_residual(sysp, qp, model, 16.0) < 0

    def test_bounded_by_one(self):
        model = exp_model()
        sysp = make_system(b=0.01)
        qp = QueueParams(0.7, 8)
        for p in (1e-3, 0.01, 0.05, 0.5, 5.0):
            assert abs(stationarity_residual(sysp, qp, model, p)) <= 1.0

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            stationarity_residual(make_system(), QueueParams(0.5, 5),
                                  exp_model(), 0.0)
        with pytest.raises(ValueError):
            stationarity_residual(make_system(), QueueParams(0.5, 5),
                                  exp_model(), math.nan)


class TestPowerGain:
    def test_equal_inputs(self):
        assert power_gain_db(0.3, 0.3) == 0.0

    def test_decade(self):
        assert power_gain_db(1.0, 0.1) == pytest.approx(10.0, abs=1e-12)

    def test_analytic_endpoints(self):
        c, b = 15.0, 10.0
        p_q1 = (c + math.sqrt(c * c + 4 * c * b)) / 2.0
        assert p_q1 == pytest.approx(21.861, abs=5e-4)
        assert power_gain_db(p_q1, c) == pytest.approx(1.636, abs=5e-4)

    def test_negative_when_inverted(self):
        assert power_gain_db(0.1, 1.0) == pytest.approx(-10.0, abs=1e-12)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                      (math.nan, 1.0), (1.0, math.nan)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            power_gain_db(*args)
