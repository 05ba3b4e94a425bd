import itertools
import math

import numpy as np
import pytest

import oracles
from greenlink import (
    Binding,
    ExpUnknownChannel,
    NoInteriorMaximumError,
    QKnownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    is_unimodal_grid,
    limit_optimizer,
    maximize_constrained,
    maximize_unconstrained,
    qos_threshold,
    stationarity_residual,
)


def make_system(b=0.1, sigma2=1e-3, p_min=1e-4, p_max=10.0, eps=1.0, a=1.0):
    return SystemParams(rate_R=4000.0, fixed_power_b=b, noise_sigma2=sigma2,
                        p_min=p_min, p_max=p_max, amp_coeff_a=a,
                        loss_bound_epsilon=eps)


def exp_model(sigma2=1e-3):
    return ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=sigma2)


class TestMaximizeUnconstrained:
    def test_analytic_no_fixed_power(self):
        # q = 1, b = 0, c = 3: argmax of f/p is exactly c
        model = ExpUnknownChannel(rate_R=1000.0, rate_R0=500.0, noise_sigma2=1.0)
        assert model.power_scale == pytest.approx(3.0)
        sysp = SystemParams(rate_R=1000.0, fixed_power_b=0.0, noise_sigma2=1.0,
                            p_min=0.01, p_max=1000.0)
        res = maximize_unconstrained(sysp, QueueParams(1.0, 10), model)
        assert res.p_star == pytest.approx(3.0, rel=1e-6)

    def test_analytic_with_fixed_power(self):
        # q = 1, b = 10, c = 15: argmax of f/(p+b) solves p^2 = c(p+b)
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1.0)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=10.0, noise_sigma2=1.0,
                            p_min=0.01, p_max=1000.0)
        res = maximize_unconstrained(sysp, QueueParams(1.0, 10), model)
        exact = (15.0 + math.sqrt(825.0)) / 2.0
        assert res.p_star == pytest.approx(exact, rel=1e-6)
        assert res.p_star == pytest.approx(21.861, abs=5e-4)

    def test_residual_vanishes_at_optimum(self):
        model = exp_model()
        for q, b in [(0.2, 0.05), (0.5, 0.1), (0.9, 0.5), (1.0, 0.1)]:
            sysp = make_system(b=b)
            qp = QueueParams(q, 10)
            res = maximize_unconstrained(sysp, qp, model)
            assert abs(stationarity_residual(sysp, qp, model, res.p_star)) <= 1e-6

    def test_matches_dense_grid(self):
        model = exp_model()
        c = model.power_scale
        for q, K, b in [(0.3, 5, 0.02), (0.5, 10, 0.1), (0.8, 20, 1.0)]:
            sysp = make_system(b=b)
            res = maximize_unconstrained(sysp, QueueParams(q, K), model)
            ref = oracles.grid_argmax_exp(q, K, 4000.0, b, 1.0, c, 1e-4, 10.0)
            assert res.p_star == pytest.approx(ref, rel=1e-4)

    def test_local_optimality(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        qp = QueueParams(0.6, 10)
        res = maximize_unconstrained(sysp, qp, model)
        d = 1e-3 * res.p_star
        assert efficiency(sysp, qp, model, res.p_star - d).eta <= res.eta_star
        assert efficiency(sysp, qp, model, res.p_star + d).eta <= res.eta_star

    def test_eta_beats_bracket_endpoints(self):
        model = exp_model()
        sysp = make_system(b=0.3)
        qp = QueueParams(0.4, 6)
        res = maximize_unconstrained(sysp, qp, model)
        lo, hi = res.bracket
        assert res.eta_star >= efficiency(sysp, qp, model, lo).eta
        assert res.eta_star >= efficiency(sysp, qp, model, hi).eta

    def test_reported_eta_consistent(self):
        model = exp_model()
        sysp = make_system()
        qp = QueueParams(0.5, 10)
        res = maximize_unconstrained(sysp, qp, model)
        assert res.eta_star == efficiency(sysp, qp, model, res.p_star).eta

    def test_non_sigmoidal_model_raises(self):
        class SqrtModel:
            # f/p = 1/sqrt(p) climbs without bound as p -> 0, so bracket
            # expansion can never trap an interior peak
            def success_probability(self, p):
                return min(1.0, math.sqrt(p))

            def success_derivative(self, p):
                return 0.0 if p > 1.0 else 0.5 / math.sqrt(p)

        sysp = make_system(b=0.0)
        with pytest.raises(NoInteriorMaximumError):
            maximize_unconstrained(sysp, QueueParams(1.0, 5), SqrtModel())

    def test_continuity_in_q(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        for q in np.linspace(0.1, 0.999, 12):
            a = maximize_unconstrained(sysp, QueueParams(float(q), 10), model)
            b2 = maximize_unconstrained(
                sysp, QueueParams(float(q) + 1e-4, 10), model)
            assert abs(a.p_star - b2.p_star) <= 1e-2 * a.p_star


def cli_default_system(b_over_sigma2):
    # the CLI defaults: sigma2 = 1 mW, p in [0.01 W, 35 dBm], a = 1
    return SystemParams(rate_R=4000.0, fixed_power_b=b_over_sigma2 * 1e-3,
                        noise_sigma2=1e-3, p_min=0.01, p_max=10.0 ** 3.5 / 1000.0)


def q_model(kappa):
    return QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                         channel_gain_hh=1.0, noise_sigma2=1e-3)


class TestOptimumDiagnostics:
    def test_fast_path_counts(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        qp = QueueParams(0.5, 10)
        res = maximize_unconstrained(sysp, qp, model)
        assert res.scan_evaluations == 0
        assert res.bracket == (sysp.noise_sigma2 * 1e-3, sysp.p_max * 1e3)
        assert 2 < res.iterations <= 20
        assert res.certificate == stationarity_residual(sysp, qp, model, res.p_star)

    def test_certificate_at_light_traffic_corners(self):
        # The old finite-difference residual read exactly 1.0 at these corners.
        worst = 0.0
        for q, kappa, K, ratio in itertools.product(
                [1e-6, 1e-5, 1e-4], [10.0, 100.0, 1e4], [1, 10, 1000, 10**6],
                [0.0, 1.0, 100.0, 1e4]):
            res = maximize_unconstrained(cli_default_system(ratio),
                                         QueueParams(q, K), q_model(kappa))
            worst = max(worst, abs(res.certificate))
        assert worst <= 1e-9

    def test_unbounded_low_power_takes_scan_path(self):
        # Known fault, kept on purpose: qfunc with b = 0 has eta -> inf as
        # p -> 0 because f(0) = Q(kappa R/R0) > 0, so eta is not
        # quasi-concave; the scan finds the interior local peak.
        sysp = cli_default_system(0.0)
        qp = QueueParams(0.5, 10)
        model = q_model(2.0)
        lo = sysp.noise_sigma2 * 1e-3
        assert stationarity_residual(sysp, qp, model, lo) < 0.0
        res = maximize_unconstrained(sysp, qp, model)
        assert res.scan_evaluations > 0
        # p* of the earlier golden-section optimizer at these settings
        assert res.p_star == pytest.approx(0.06923794372713665, rel=1e-9)
        assert abs(res.certificate) <= 1e-9

    def test_no_signal_on_first_grid_widens_both_ways(self):
        # R/R0 = 40 puts c = (2^40 - 1) sigma2 near 1.1e9 W, so f(p) = exp(-c/p)
        # underflows to 0 on the whole first grid; with b = 0, p* = c.
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=100.0, noise_sigma2=1e-3)
        sysp = make_system(b=0.0)
        assert model.success_probability(sysp.p_max * 1e3) == 0.0
        res = maximize_unconstrained(sysp, QueueParams(0.5, 10), model)
        assert res.scan_evaluations > 65
        assert res.p_star == pytest.approx((2.0 ** 40 - 1.0) * 1e-3, rel=1e-12)

    def test_no_sign_change_after_scan_returns_bracket_middle(self):
        # The slope reads -1 everywhere (f' is stubbed to 0) while eta peaks
        # near p = 1, so the scan brackets the peak but the slope never
        # changes sign across it: the answer is the bracket's middle grid point.
        class FlatSlope:
            def success_probability(self, p):
                return p * p / (1.0 + p * p)

            def success_derivative(self, p):
                return 0.0

        sysp = make_system(b=0.0, p_max=3.0)
        res = maximize_unconstrained(sysp, QueueParams(1.0, 10), FlatSlope())
        assert (res.iterations, res.scan_evaluations, res.certificate) == (5, 65, -1.0)
        assert res.bracket[0] < 1.0 < res.bracket[1]
        assert res.bracket == pytest.approx((0.838, 1.657), abs=1e-3)
        assert res.p_star == math.sqrt(res.bracket[0] * res.bracket[1])


class TestQosThreshold:
    def test_vacuous_constraint(self):
        # the threshold degenerates to the lower search bound, below p_min
        sysp = make_system(eps=1.0)
        p0 = qos_threshold(sysp, QueueParams(0.5, 10), exp_model())
        assert 0.0 < p0 <= sysp.p_min

    def test_infeasible_when_cap_too_low(self):
        sysp = make_system(eps=1e-6, p_min=1e-5, p_max=2e-5)
        p0 = qos_threshold(sysp, QueueParams(0.9, 2), exp_model())
        assert p0 == math.inf

    def test_matches_grid_oracle(self):
        model = exp_model()
        c = model.power_scale
        sysp = make_system(eps=0.01)
        p0 = qos_threshold(sysp, QueueParams(0.5, 10), model)
        ref = oracles.grid_qos_threshold_exp(0.5, 10, c, 0.01,
                                             sysp.p_min, sysp.p_max)
        assert p0 == pytest.approx(ref, rel=1e-6)

    def test_threshold_separates(self):
        from greenlink import packet_loss
        model = exp_model()
        sysp = make_system(eps=0.05)
        qp = QueueParams(0.8, 10)
        p0 = qos_threshold(sysp, qp, model)
        assert packet_loss(qp, model.success_probability(p0)) <= 0.05
        assert packet_loss(
            qp, model.success_probability(p0 * (1 - 1e-5))) > 0.05

    def test_bound_met_without_slack(self):
        from greenlink import packet_loss
        for model in (exp_model(), q_model(10.0)):
            for q, K, eps in itertools.product([0.3, 0.6, 0.9], [1, 10, 1000],
                                               [0.1, 0.01, 1e-3]):
                qp = QueueParams(q, K)
                p0 = qos_threshold(make_system(eps=eps), qp, model)
                assert packet_loss(qp, model.success_probability(p0)) <= eps
                assert packet_loss(
                    qp, model.success_probability(p0 * (1 - 1e-8))) > eps

    def test_monotone_in_q(self):
        model = exp_model()
        sysp = make_system(eps=0.01)
        prev = 0.0
        for q in np.linspace(0.05, 1.0, 20):
            p0 = qos_threshold(sysp, QueueParams(float(q), 10), model)
            assert p0 >= prev - 1e-9 * max(p0, 1.0)
            prev = p0


class TestMaximizeConstrained:
    def test_interior(self):
        model = exp_model()
        sysp = make_system(eps=1.0)
        res = maximize_constrained(sysp, QueueParams(0.5, 10), model)
        assert res.binding is Binding.INTERIOR
        assert res.p_star_constrained == res.p_star
        assert res.p0 <= sysp.p_min

    def test_qos_binding(self):
        model = exp_model()
        sysp = make_system(eps=0.001)
        qp = QueueParams(0.9, 10)
        res = maximize_constrained(sysp, qp, model)
        assert res.binding is Binding.QOS_BOUND
        assert res.p_star_constrained == res.p0 > res.p_star
        # quasi-concavity: pushing right of p* costs efficiency
        assert efficiency(sysp, qp, model, res.p_star_constrained).eta < res.eta_star

    def test_power_cap_binding(self):
        model = exp_model()
        sysp = make_system(b=1.0, p_max=0.01)
        res = maximize_constrained(sysp, QueueParams(0.5, 10), model)
        assert res.binding is Binding.POWER_CAP
        assert res.p_star_constrained == 0.01
        assert res.p_star > 0.01

    def test_power_floor_binding(self):
        # p* below p_min: the floor clips from below, reported as a cap bind
        model = exp_model()
        sysp = make_system(b=0.0, p_min=0.5, p_max=10.0)
        res = maximize_constrained(sysp, QueueParams(0.5, 10), model)
        assert res.p_star < 0.5
        assert res.p_star_constrained == 0.5
        assert res.binding is Binding.POWER_CAP

    def test_infeasible(self):
        model = exp_model()
        sysp = make_system(eps=1e-9, p_min=1e-5, p_max=2e-5)
        res = maximize_constrained(sysp, QueueParams(0.9, 3), model)
        assert res.binding is Binding.INFEASIBLE
        assert res.p0 == math.inf
        assert res.p_star_constrained is None

    def test_feasibility_guarantee(self):
        from greenlink import packet_loss
        model = exp_model()
        for q, eps, pmax in [(0.3, 0.05, 5.0), (0.7, 0.01, 5.0),
                             (0.95, 0.001, 5.0), (0.5, 1.0, 0.02)]:
            sysp = make_system(eps=eps, p_max=pmax)
            qp = QueueParams(q, 10)
            res = maximize_constrained(sysp, qp, model)
            if res.binding is not Binding.INFEASIBLE:
                p = res.p_star_constrained
                assert sysp.p_min <= p <= sysp.p_max
                assert packet_loss(qp, model.success_probability(p)) <= eps + 1e-12

    def test_matches_grid_projection(self):
        model = exp_model()
        c = model.power_scale
        cases = [(0.5, 10, 0.1, 1.0, 1e-3, 3.16),
                 (0.9, 10, 0.1, 0.01, 1e-3, 3.16),
                 (0.5, 10, 0.1, 1.0, 1e-3, 0.02),
                 (0.2, 4, 0.01, 0.05, 1e-3, 3.16)]
        for q, K, b, eps, pmin, pmax in cases:
            sysp = make_system(b=b, eps=eps, p_min=pmin, p_max=pmax)
            res = maximize_constrained(sysp, QueueParams(q, K), model)
            ref = oracles.grid_constrained_argmax_exp(
                q, K, 4000.0, b, 1.0, c, eps, pmin, pmax)
            assert res.p_star_constrained == pytest.approx(ref, rel=1e-4)


class TestLimitOptimizer:
    def test_light_traffic_analytic(self):
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1.0)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=10.0, noise_sigma2=1.0,
                            p_min=0.01, p_max=1000.0)
        p = limit_optimizer(sysp, model, "q_to_0")
        assert p == pytest.approx(15.0, rel=1e-6)

    def test_saturated_reduces_when_no_fixed_power(self):
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1.0)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=0.0, noise_sigma2=1.0,
                            p_min=0.01, p_max=1000.0)
        assert limit_optimizer(sysp, model, "q_to_1") == pytest.approx(
            15.0, rel=1e-6)

    def test_saturated_analytic(self):
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1.0)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=10.0, noise_sigma2=1.0,
                            p_min=0.01, p_max=1000.0)
        exact = (15.0 + math.sqrt(825.0)) / 2.0
        assert limit_optimizer(sysp, model, "q_to_1") == pytest.approx(
            exact, rel=1e-6)

    def test_agrees_with_tiny_q(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        lim = limit_optimizer(sysp, model, "q_to_0")
        res = maximize_unconstrained(sysp, QueueParams(1e-4, 10), model)
        assert res.p_star == pytest.approx(lim, rel=1e-3)

    def test_light_traffic_scan_path(self):
        # qfunc with b = 0 is the scan-path case of
        # TestOptimumDiagnostics.test_unbounded_low_power_takes_scan_path, and
        # the q -> 0 limit with no fixed draw has the same maximizer.
        p = limit_optimizer(cli_default_system(0.0), q_model(2.0), "q_to_0")
        assert p == pytest.approx(0.06923794372713665, rel=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            limit_optimizer(make_system(), exp_model(), "q_to_half")


class TestGainTrend:
    def test_power_never_exceeds_saturated(self):
        model = exp_model()
        sysp = make_system(b=0.1)
        sat = maximize_unconstrained(sysp, QueueParams(1.0, 10), model).p_star
        for q in np.linspace(0.05, 1.0, 15):
            p = maximize_unconstrained(sysp, QueueParams(float(q), 10), model).p_star
            assert p <= sat * (1 + 1e-9)


class TestUnimodalGrid:
    def test_accepts_unimodal(self):
        x = np.linspace(-3, 3, 500)
        assert is_unimodal_grid(-x * x)

    def test_accepts_plateau(self):
        y = np.concatenate([np.linspace(0, 1, 50), np.full(20, 1.0),
                            np.linspace(1, 0.2, 50)])
        assert is_unimodal_grid(y)

    def test_rejects_bimodal(self):
        x = np.linspace(0, 4 * np.pi, 600)
        assert not is_unimodal_grid(np.sin(x) + 2.0, rel_tol=1e-12)

    def test_accepts_monotone(self):
        assert is_unimodal_grid(np.linspace(0, 1, 100))
        assert is_unimodal_grid(np.linspace(1, 0, 100))

    def test_efficiency_curves_unimodal(self):
        model = exp_model()
        qp = QueueParams(0.5, 10)
        sysp = make_system(b=0.1)
        grid = np.exp(np.linspace(math.log(1e-5), math.log(100.0), 1500))
        vals = np.array([efficiency(sysp, qp, model, float(p)).eta
                         for p in grid])
        assert is_unimodal_grid(vals)
