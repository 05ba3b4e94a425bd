import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles
from greenlink import (
    Binding,
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    limit_optimizer,
    maximize_constrained,
    maximize_unconstrained,
    qos_threshold,
    stationarity_residual,
)
from greenlink.efficiency import _slope_reader
from greenlink.optimize import _root_log


def make_system(b=0.1, sigma2=1e-3, p_min=1e-4, p_max=10.0, eps=1.0, a=1.0):
    return SystemParams(rate_R=4000.0, fixed_power_b=b, noise_sigma2=sigma2,
                        p_min=p_min, p_max=p_max, amp_coeff_a=a,
                        loss_bound_epsilon=eps)


def exp_model(sigma2=1e-3):
    return ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=sigma2)


class SqrtModel:
    # f/p = 1/sqrt(p) climbs without bound as p -> 0, so the slope of eta
    # is negative everywhere and never falls from + to -
    def success_probability(self, p):
        return min(1.0, math.sqrt(p))

    def success_derivative(self, p):
        return 0.0 if p > 1.0 else 0.5 / math.sqrt(p)


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

    @pytest.mark.parametrize("sigma2", [1e-200, 1e-300])
    def test_analytic_at_tiny_noise(self, sigma2):
        # q = 1, b = 0: p* = c = 15 sigma2, where p * p underflows to 0
        model = exp_model(sigma2)
        sysp = make_system(b=0.0, sigma2=sigma2)
        res = maximize_unconstrained(sysp, QueueParams(1.0, 10), model)
        assert res.p_star == pytest.approx(model.power_scale, rel=1e-12)

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

    def test_qfunc_matches_dense_grid(self):
        for q, K, b, kappa in [(0.3, 5, 0.02, 2.0), (0.5, 10, 0.1, 10.0),
                               (0.8, 1000, 1.0, 100.0)]:
            sysp = make_system(b=b)
            res = maximize_unconstrained(sysp, QueueParams(q, K), q_model(kappa))
            ref = oracles.grid_argmax_qfunc(q, K, 4000.0, b, 1.0, kappa, 4.0, 1e3,
                                            1e-4, 10.0)
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
        sysp = make_system(b=0.0)
        res = maximize_unconstrained(sysp, QueueParams(1.0, 5), SqrtModel())
        assert math.isnan(res.p_star) and math.isnan(res.eta_star)

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
        # qfunc with b = 0 has eta -> inf as p -> 0 because
        # f(0) = Q(kappa R/R0) > 0, so the slope is negative at the search
        # floor and the walk, not the fast path, brackets the first peak.
        sysp = cli_default_system(0.0)
        qp = QueueParams(0.5, 10)
        model = q_model(2.0)
        lo = sysp.noise_sigma2 * 1e-3
        assert stationarity_residual(sysp, qp, model, lo) < 0.0
        res = maximize_unconstrained(sysp, qp, model)
        a, b = res.bracket
        assert (a, b) == (lo * 2.0 ** 16, lo * 2.0 ** 17)  # doublings are exact
        assert stationarity_residual(sysp, qp, model, a) > 0.0
        assert stationarity_residual(sysp, qp, model, b) < 0.0
        # 2 search-range ends, 17 walk steps, then Brent
        assert 2 + 17 < res.iterations <= 2 + 17 + 10
        # p* of the earlier golden-section optimizer at these settings
        assert res.p_star == pytest.approx(0.06923794372713665, rel=1e-9)
        assert abs(res.certificate) <= 1e-9

    def test_no_signal_on_first_grid_widens_both_ways(self):
        # R/R0 = 40 puts c = (2^40 - 1) sigma2 near 1.1e9 W, so f(p) = exp(-c/p)
        # underflows to 0 across the whole search range and the slope reads +1
        # at both ends; the walk climbs past the search ceiling to p* = c (b = 0).
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=100.0, noise_sigma2=1e-3)
        sysp = make_system(b=0.0)
        assert model.success_probability(sysp.p_max * 1e3) == 0.0
        res = maximize_unconstrained(sysp, QueueParams(0.5, 10), model)
        a, b = res.bracket
        assert sysp.p_max * 1e3 < a and b == 2.0 * a
        assert res.iterations > 2 + math.log2(a / (sysp.noise_sigma2 * 1e-3))
        assert res.p_star == pytest.approx((2.0 ** 40 - 1.0) * 1e-3, rel=1e-12)

    def test_no_sign_change_raises(self):
        # The slope reads -1 everywhere (f' is stubbed to 0) while eta peaks
        # near p = 1: only the slope's sign counts, so there is no peak.
        class FlatSlope:
            def success_probability(self, p):
                return p * p / (1.0 + p * p)

            def success_derivative(self, p):
                return 0.0

        sysp = make_system(b=0.0, p_max=3.0)
        qp = QueueParams(1.0, 10)
        res = maximize_unconstrained(sysp, qp, FlatSlope())
        assert math.isnan(res.p_star) and math.isnan(res.eta_star)
        res = maximize_constrained(sysp, qp, FlatSlope())
        assert math.isnan(res.p_star) and math.isnan(res.eta_star)
        # the walk gives up 2^60 above the search ceiling
        assert res.bracket[1] >= sysp.p_max * 1e3 * 2.0 ** 60
        # with no peak the better end of [p_min, p_max] is kept: here p_max
        assert (res.p_star_constrained, res.binding) == (sysp.p_max, Binding.POWER_CAP)


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

    def test_peak_on_the_floor_is_interior(self):
        # p_min exactly at the peak: the peak is feasible, so it binds as
        # INTERIOR, not as the floor's POWER_CAP
        model = exp_model()
        sysp = cli_default_system(100.0)
        peak = maximize_unconstrained(sysp, QueueParams(0.5, 10), model).p_star
        assert peak == 0.02580391118457557
        on_floor = dataclasses.replace(sysp, p_min=peak)
        res = maximize_constrained(on_floor, QueueParams(0.5, 10), model)
        assert (res.p_star_constrained, res.binding) == (peak, Binding.INTERIOR)

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

    def test_no_interior_peak_takes_floor(self):
        # SqrtModel has no interior peak (maximize_unconstrained reads nan), but
        # eta falls across the whole feasible interval, so p_min is its best.
        sysp = make_system(b=0.0)
        res = maximize_constrained(sysp, QueueParams(1.0, 5), SqrtModel())
        assert math.isnan(res.p_star) and math.isnan(res.eta_star)
        assert res.p_star_constrained == sysp.p_min
        assert res.binding is Binding.POWER_CAP


# The CLI defaults: R/R0 = 4, hh = 1, sigma2 = 1 mW, p_max = 35 dBm.
P_MAX = 10.0 ** 3.5 / 1000.0
GRID_N = 200_000


def qfunc_b0_case(q, K, kappa, eps, p_min):
    sysp = SystemParams(rate_R=4000.0, fixed_power_b=0.0, noise_sigma2=1e-3,
                        p_min=p_min, p_max=P_MAX, loss_bound_epsilon=eps)
    res = maximize_constrained(sysp, QueueParams(q, K), q_model(kappa))
    ref = oracles.grid_constrained_argmax_qfunc(
        q, K, 4000.0, 0.0, 1.0, kappa, 4.0, 1e3, eps, p_min, P_MAX, n=GRID_N)
    return sysp, res, ref


def grid_step(p_min):
    return math.log(P_MAX / p_min) / (GRID_N - 1)


class TestQfuncNoFixedPower:
    """qfunc with b = 0: f(0) > 0, so eta -> inf as p -> 0 and is not quasi-concave.

    eta = R f / (a p) at any load, so the answer on [max(p0, p_min), p_max]
    is either its floor or the first interior peak of f/p.
    """

    def test_no_peak_takes_floor(self):
        # kappa = 0.5: the slope of f/p never turns positive; eta falls
        # across the whole interval.
        _, res, ref = qfunc_b0_case(0.5, 10, 0.5, 1.0, 0.01)
        assert math.isnan(res.p_star)
        assert res.p_star_constrained == 0.01
        assert res.binding is Binding.POWER_CAP
        assert ref == pytest.approx(0.01, rel=grid_step(0.01))
        res = maximize_unconstrained(cli_default_system(0.0), QueueParams(0.5, 10),
                                     q_model(0.5))
        assert math.isnan(res.p_star) and math.isnan(res.eta_star)

    def test_interior_peak_beats_floor(self):
        _, res, ref = qfunc_b0_case(0.5, 10, 1.0, 1.0, 0.01)
        assert res.binding is Binding.INTERIOR
        assert res.p_star_constrained == res.p_star == pytest.approx(0.03785, rel=1e-3)
        assert abs(math.log(res.p_star / ref)) <= grid_step(0.01)

    def test_floor_beats_interior_peak(self):
        # kappa = 0.7 has a peak at 0.0114 W, but with p_min = 1e-4 eta at
        # the floor is higher still.
        sysp, res, ref = qfunc_b0_case(0.5, 10, 0.7, 1.0, 1e-4)
        assert res.p_star == pytest.approx(0.0114, rel=1e-2)
        assert (res.p_star_constrained, res.binding) == (1e-4, Binding.POWER_CAP)
        assert ref == pytest.approx(1e-4, rel=grid_step(1e-4))
        model = q_model(0.7)
        assert (efficiency(sysp, QueueParams(0.5, 10), model, 1e-4).eta
                > res.eta_star)

    def test_peak_matches_mpmath_root(self):
        for kappa in (1.0, 2.0):
            res = maximize_unconstrained(cli_default_system(0.0), QueueParams(0.5, 10),
                                         q_model(kappa))
            root = oracles.mp_peak_f_over_p_qfunc(kappa, 4.0, 1e3, res.p_star)
            assert res.p_star == pytest.approx(root, rel=1e-14)

    @given(
        q=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e),
        K=st.floats(0.0, 6.0).map(lambda e: int(round(10.0 ** e))),
        # kappa near 1 is where the floor and the first peak trade places
        kappa=st.one_of(st.floats(0.5, 1.5), st.floats(0.0, 4.0).map(lambda e: 10.0 ** e)),
        p_min=st.sampled_from([1e-4, 1e-3, 0.01]),
        eps_draw=st.one_of(st.none(), st.floats(-12.0, 0.0),
                           st.tuples(st.floats(-1e-6, 1e-6))),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_grid(self, q, K, kappa, p_min, eps_draw):
        # eps_draw: None for no loss bound, a float for log10(epsilon), or a
        # 1-tuple (u,) for epsilon = Phi(p_max) (1 + u), the infeasibility edge.
        phi_max = float(oracles.loss_grid_qfunc(np.array([P_MAX]), q, K, kappa, 4.0, 1e3)[0])
        if eps_draw is None:
            eps = 1.0
        elif isinstance(eps_draw, float):
            eps = 10.0 ** eps_draw
        else:
            eps = min(1.0, phi_max * (1.0 + eps_draw[0])) if phi_max > 0.0 else 1.0
        sysp, res, ref = qfunc_b0_case(q, K, kappa, eps, p_min)
        edge = abs(eps - phi_max) <= 1e-7 * eps  # Phi's roundoff can tip either way
        if ref is None or res.binding is Binding.INFEASIBLE:
            assert edge or (ref is None and res.binding is Binding.INFEASIBLE)
            return
        step = grid_step(p_min)
        p_cc = res.p_star_constrained
        qp = QueueParams(q, K)
        best = float(oracles.eta_grid_qfunc(np.array([ref]), q, K, 4000.0, 0.0, 1.0,
                                            kappa, 4.0, 1e3)[0])
        eta = efficiency(sysp, qp, q_model(kappa), p_cc).eta
        assert eta >= best * (1.0 - 1e-8)
        # One grid step, unless the floor and the first peak tie in eta.
        assert abs(math.log(p_cc / ref)) <= 1.001 * step or eta <= best * (1.0 + 1e-6)
        # The binding names the power returned, and the grid agrees on where it is.
        p0_ref = oracles.grid_qos_threshold_qfunc(q, K, kappa, 4.0, 1e3, eps, p_min, P_MAX)
        if res.binding is Binding.INTERIOR:
            assert p_cc == res.p_star and max(res.p0, p_min) <= p_cc <= P_MAX
        elif res.binding is Binding.QOS_BOUND:
            assert p_cc == res.p0 >= p_min
            assert abs(math.log(p0_ref / p_cc)) <= 1.001 * step
        else:
            assert p_cc in (p_min, P_MAX)
            if p_cc == p_min:
                assert p0_ref <= p_min * math.exp(1.001 * step)


class TestQfuncMatchesGrid:
    """maximize_unconstrained and qos_threshold on the qfunc model against dense grids."""

    @given(
        q=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e),
        K=st.floats(0.0, 6.0).map(lambda e: int(round(10.0 ** e))),
        kappa=st.floats(0.0, 4.0).map(lambda e: 10.0 ** e),
        b_over_sigma2=st.one_of(st.sampled_from([0.0, 1e4]),
                                st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)),
        log_eps=st.floats(-12.0, 0.0),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_grid(self, q, K, kappa, b_over_sigma2, log_eps):
        b, eps = b_over_sigma2 * 1e-3, 10.0 ** log_eps
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=b, noise_sigma2=1e-3, p_min=0.01,
                            p_max=P_MAX, loss_bound_epsilon=eps)
        qp, model = QueueParams(q, K), q_model(kappa)
        lo, hi = 1e-6, P_MAX * 1e3  # the optimizer's search range
        step = math.log(hi / lo) / (GRID_N - 1)

        res = maximize_unconstrained(sysp, qp, model)
        ref = oracles.grid_argmax_qfunc(q, K, 4000.0, b, 1.0, kappa, 4.0, 1e3, lo, hi, n=GRID_N)
        best = float(oracles.eta_grid_qfunc(np.array([ref]), q, K, 4000.0, b, 1.0,
                                            kappa, 4.0, 1e3)[0])
        if ref > lo * math.exp(2.0 * step):
            # An interior grid peak: the optimizer's first peak is it, to one
            # grid step unless the two tie in eta.
            eta = efficiency(sysp, qp, model, res.p_star).eta
            assert eta >= best * (1.0 - 1e-8)
            assert abs(math.log(res.p_star / ref)) <= 1.001 * step or eta <= best * (1.0 + 1e-6)
        elif not math.isnan(res.p_star):
            # eta is largest at the search floor (f(0) > 0); a peak found
            # above it must still be a local maximum on the grid.
            near = res.p_star * np.exp(np.array([-1.0, 0.0, 1.0]) * step)
            etas = oracles.eta_grid_qfunc(near, q, K, 4000.0, b, 1.0, kappa, 4.0, 1e3)
            assert etas[1] >= max(etas[0], etas[2]) * (1.0 - 1e-8)

        # Phi's roundoff can tip the answer either way at the infeasibility edge.
        phi_max = float(oracles.loss_grid_qfunc(np.array([P_MAX]), q, K, kappa, 4.0, 1e3)[0])
        edge = abs(eps - phi_max) <= 1e-7 * eps
        p0 = qos_threshold(sysp, qp, model)
        p0_ref = oracles.grid_qos_threshold_qfunc(q, K, kappa, 4.0, 1e3, eps, lo, P_MAX, n=GRID_N)
        if math.isinf(p0) or math.isinf(p0_ref):
            assert edge or p0 == p0_ref
        else:
            assert abs(math.log(p0_ref / p0)) <= 1.001 * math.log(P_MAX / lo) / (GRID_N - 1)


class TestSubnormalArrivals:
    """q -> 0: both terms of the slope scale with q, and below about 1e-308 they
    underflow unless q is divided out first. p* and p** hold their q = 1e-300 values."""

    @given(
        q=st.floats(math.log10(5e-324), -300.0).map(lambda e: max(5e-324, 10.0 ** e)),
        K=st.sampled_from([1, 2, 10, 1000, 10**6]),
        b_over_sigma2=st.sampled_from([0.0, 1.0, 1e4]),
        model=st.sampled_from([exp_model(), q_model(10.0)]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_optimum_holds_down_to_the_smallest_q(self, q, K, b_over_sigma2, model):
        sysp = cli_default_system(b_over_sigma2)
        got = maximize_constrained(sysp, QueueParams(q, K), model)
        ref = maximize_constrained(sysp, QueueParams(1e-300, K), model)
        assert got.p_star == pytest.approx(ref.p_star, rel=1e-12)
        assert got.p_star_constrained == pytest.approx(ref.p_star_constrained, rel=1e-12)
        assert got.binding is ref.binding


def p_star_over_noise(kappa, b_over_sigma2, sigma2):
    # q = 0.5, K = 10 and the CLI's power range; b scales with the noise power
    model = (ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=sigma2)
             if kappa is None else
             QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                           channel_gain_hh=1.0, noise_sigma2=sigma2))
    sysp = SystemParams(rate_R=4000.0, fixed_power_b=b_over_sigma2 * sigma2,
                        noise_sigma2=sigma2, p_min=0.01, p_max=10.0 ** 3.5 / 1000.0)
    return maximize_unconstrained(sysp, QueueParams(0.5, 10), model).p_star / sigma2


class TestSubnormalNoise:
    """sigma2 below the smallest normal float: p, b and a p are subnormal near
    the peak, and the slope's ratio form holds none of them bare, so p*/sigma2
    holds its sigma2 = 1e-3 value."""

    @pytest.mark.parametrize("sigma2", [1e-310, 3e-310, 1e-309])
    @pytest.mark.parametrize("kappa, b_over_sigma2", [
        (None, 100.0), (None, 1e4),
        *[(kappa, ratio) for kappa in (2.0, 10.0) for ratio in (1.0, 100.0, 1e4)],
    ])
    def test_optimum_scales_with_the_noise(self, kappa, b_over_sigma2, sigma2):
        assert p_star_over_noise(kappa, b_over_sigma2, sigma2) == pytest.approx(
            p_star_over_noise(kappa, b_over_sigma2, 1e-3), rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="the peak, about 1.6e-309 W, lies where the exp "
                                           "model's f' = f c / p**2 overflows to inf, so the "
                                           "slope reads +1 there and p*/sigma2 reads 19.76 "
                                           "against 15.92")
    def test_exp_optimum_where_f_prime_overflows(self):
        assert p_star_over_noise(None, 1.0, 1e-310) == pytest.approx(
            p_star_over_noise(None, 1.0, 1e-3), rel=1e-12)


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
        # qfunc with b = 0 is the walk case of
        # TestOptimumDiagnostics.test_unbounded_low_power_takes_scan_path, and
        # the q -> 0 limit with no fixed draw returns the same first peak.
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
        assert oracles.is_unimodal_grid(-x * x)

    def test_accepts_plateau(self):
        y = np.concatenate([np.linspace(0, 1, 50), np.full(20, 1.0),
                            np.linspace(1, 0.2, 50)])
        assert oracles.is_unimodal_grid(y)

    def test_rejects_bimodal(self):
        x = np.linspace(0, 4 * np.pi, 600)
        assert not oracles.is_unimodal_grid(np.sin(x) + 2.0, rel_tol=1e-12)

    def test_accepts_monotone(self):
        assert oracles.is_unimodal_grid(np.linspace(0, 1, 100))
        assert oracles.is_unimodal_grid(np.linspace(1, 0, 100))

    def test_efficiency_curves_unimodal(self):
        model = exp_model()
        qp = QueueParams(0.5, 10)
        sysp = make_system(b=0.1)
        grid = np.exp(np.linspace(math.log(1e-5), math.log(100.0), 1500))
        vals = np.array([efficiency(sysp, qp, model, float(p)).eta
                         for p in grid])
        assert oracles.is_unimodal_grid(vals)


class TestQfuncTwoPeaks:
    """The qfunc model's eta can peak twice. On this link, found by comparing
    the optimizer with a dense grid over the feasible interval, the search
    settles on the lower peak near p0, 0.77% below a feasible power above it."""

    system = SystemParams(rate_R=2000.0, fixed_power_b=0.017929717222942627,
                          noise_sigma2=1e-3, p_min=3.3945537965003417e-06,
                          p_max=9.896711345799469, loss_bound_epsilon=9.289741688526196e-05)
    queue = QueueParams(0.002920938512645282, 1_000_000)
    model = QKnownChannel(rate_R=2000.0, rate_R0=1000.0, spread_kappa=1.5,
                          channel_gain_hh=1.0, noise_sigma2=1e-3)

    def test_higher_peak_is_feasible(self):
        point = efficiency(self.system, self.queue, self.model, 6.638e-3)
        assert point.feasible
        assert point.eta == pytest.approx(325.145, abs=1e-3)

    @pytest.mark.xfail(strict=True, reason="maximize_constrained returns the lower of "
                                           "eta's two peaks here (eta* = 322.65 bit/J)")
    def test_constrained_optimum_finds_the_higher_peak(self):
        best = maximize_constrained(self.system, self.queue, self.model)
        better = efficiency(self.system, self.queue, self.model, 6.638e-3).eta
        assert efficiency(self.system, self.queue, self.model,
                          best.p_star_constrained).eta >= better


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: where the qfunc model's eta "
                                           "peaks twice, maximize_constrained can return "
                                           "the lower peak")
    @given(
        K=st.floats(2.0, 6.0).map(lambda e: int(round(10.0 ** e))),
        kappa=st.floats(math.log10(0.7), math.log10(3.0)).map(lambda e: 10.0 ** e),
        rate_ratio=st.floats(1.0, 4.0),
        # q from f(0) to 10 f(0): Phi's cliff, where f = q, then lies at low power
        q_over_f0=st.floats(0.0, 1.0).map(lambda e: 10.0 ** e),
        b_over_sigma2=st.one_of(st.just(0.0), st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)),
        log_eps=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
        p_min_over_sigma2=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
    )
    @settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.generate])
    def test_constrained_optimum_matches_grid(self, K, kappa, rate_ratio, q_over_f0,
                                              b_over_sigma2, log_eps, p_min_over_sigma2):
        # b/sigma2 up to 1e4, kappa down to 0.7 and p_min below sigma2 = 1 mW
        R, b = 1000.0 * rate_ratio, b_over_sigma2 * 1e-3
        q = min(1.0, max(1e-8, 0.5 * math.erfc(kappa * rate_ratio / math.sqrt(2.0)) * q_over_f0))
        system = SystemParams(rate_R=R, fixed_power_b=b, noise_sigma2=1e-3,
                              p_min=p_min_over_sigma2 * 1e-3, p_max=P_MAX,
                              loss_bound_epsilon=10.0 ** log_eps)
        model = QKnownChannel(rate_R=R, rate_R0=1000.0, spread_kappa=kappa,
                              channel_gain_hh=1.0, noise_sigma2=1e-3)
        res = maximize_constrained(system, QueueParams(q, K), model)
        ref = oracles.grid_constrained_argmax_qfunc(
            q, K, R, b, 1.0, kappa, rate_ratio, 1e3, system.loss_bound_epsilon, system.p_min,
            P_MAX, n=50_000)
        if ref is None or res.binding is Binding.INFEASIBLE:
            return  # feasibility is TestQfuncMatchesGrid's
        best = float(oracles.eta_grid_qfunc(np.array([ref]), q, K, R, b, 1.0, kappa,
                                            rate_ratio, 1e3)[0])
        eta = efficiency(system, QueueParams(q, K), model, res.p_star_constrained).eta
        assert eta >= best * (1.0 - 1e-6)


class TestExpSlopeSignChanges:
    """The exp model's fast path takes eta's slope to fall from + to - at most
    once, so that Brent's one sign change is the peak. Over ROADMAP item 3's
    exp domain it does, on 1500 powers from 1e-5 sigma2 to 1e6 W."""

    powers = np.exp(np.linspace(math.log(1e-8), math.log(1e6), 1500)).tolist()

    @given(
        rate_ratio=st.floats(-2.0, math.log10(20.0)).map(lambda e: 10.0 ** e),
        q=st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e),
        K=st.floats(0.0, 6.0).map(lambda e: int(round(10.0 ** e))),
        b_over_sigma2=st.one_of(st.just(0.0), st.floats(-4.0, 6.0).map(lambda e: 10.0 ** e)),
        a=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_slope_changes_sign_at_most_once(self, rate_ratio, q, K, b_over_sigma2, a):
        R = 1000.0 * rate_ratio
        system = SystemParams(rate_R=R, fixed_power_b=b_over_sigma2 * 1e-3, noise_sigma2=1e-3,
                              p_min=1e-8, p_max=1e6, amp_coeff_a=a)
        model = ExpUnknownChannel(rate_R=R, rate_R0=1000.0, noise_sigma2=1e-3)
        slope = _slope_reader(system, QueueParams(q, K), model)
        signs = [s for s in (math.copysign(1.0, r) for r in map(slope, self.powers) if r)]
        changes = sum(x != y for x, y in zip(signs, signs[1:]))
        assert changes == 0 or (changes == 1 and signs[0] > 0)


def reference_root_log(fun, lo, hi, f_lo, f_hi, tol):
    """Brent's zero-finder in ln(p) as written with abs() and min(), kept to pin _root_log."""
    eps = sys.float_info.epsilon
    a, b, fa, fb = math.log(lo), math.log(hi), f_lo, f_hi
    c, fc = a, fa
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_tol = 2.0 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= step_tol or fb == 0.0:
            return math.exp(b), fb, math.exp(c), fc, evaluations
        if abs(e) < step_tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(step_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_tol else math.copysign(step_tol, m)
        fb = fun(math.exp(b))
        evaluations += 1


def bracketed_function(shape, root, scale, height, sign):
    """A function of p with one sign change at ln p = root; several shapes
    hold |f| flat (plateaus) or equal on both sides of the root (ties)."""
    def g(x):
        t = scale * (x - root)
        if shape == "tanh":
            return math.tanh(t)
        if shape == "plateau":  # flat at +-height beyond |t| = height
            return max(-height, min(height, t))
        if shape == "steps":  # +-height/2, +-3 height/2, ...: ties across the root
            return height * (math.floor(t) + 0.5)
        if shape == "sign":  # |f| = height everywhere
            return math.copysign(height, t)
        if shape == "dead band":  # exactly zero near the root
            return 0.0 if abs(t) < height else t
        if shape == "nan band":  # nan near the root
            return math.nan if 0.0 < t < height else t
        return t * t * t + height * t  # cubic
    return lambda p: sign * g(math.log(p))


class TestRootLog:
    @given(shape=st.sampled_from(["tanh", "plateau", "steps", "sign", "dead band",
                                  "nan band", "cubic"]),
           log_lo=st.floats(min_value=-30.0, max_value=10.0),
           width=st.floats(min_value=1e-6, max_value=80.0),
           where=st.floats(min_value=0.01, max_value=0.99),
           scale=st.sampled_from([1e-3, 0.3, 1.0, 7.0, 1e4]),
           height=st.sampled_from([1e-300, 0.25, 1.0, 3.0]),
           sign=st.sampled_from([1.0, -1.0]),
           tol=st.sampled_from([1e-14, 1e-9, 1e-3]))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_matches_the_abs_and_min_form(self, shape, log_lo, width, where, scale, height,
                                          sign, tol):
        # Same iterates, so the same five returned values: bit for bit.
        fun = bracketed_function(shape, log_lo + where * width, scale, height, sign)
        lo, hi = math.exp(log_lo), math.exp(log_lo + width)
        f_lo, f_hi = fun(lo), fun(hi)
        if not f_lo * f_hi < 0.0 or lo >= hi:
            return
        seen = {"new": [], "reference": []}

        def recorded(name):
            def read(p):
                seen[name].append(p)
                assert len(seen[name]) < 10_000
                return fun(p)
            return read

        got = _root_log(recorded("new"), lo, hi, f_lo, f_hi, tol)
        want = reference_root_log(recorded("reference"), lo, hi, f_lo, f_hi, tol)
        assert seen["new"] == seen["reference"]
        assert len(got) == len(want) == 5
        for x, y in zip(got, want):
            assert x == y or (math.isnan(x) and math.isnan(y))
