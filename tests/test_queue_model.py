import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from greenlink import (
    QueueParams,
    full_buffer_prob,
    load_rho,
    packet_loss,
    stationary_distribution,
    transition_matrix,
)

probs = st.floats(min_value=0.01, max_value=0.99)
buffer_sizes = st.integers(min_value=1, max_value=60)


class TestQueueParams:
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            QueueParams(arrival_prob_q=0.0, buffer_size_K=5)

    def test_q_one_allowed(self):
        QueueParams(arrival_prob_q=1.0, buffer_size_K=5)

    @pytest.mark.parametrize("bad_k", [0, -1])
    def test_buffer_size_at_least_one(self, bad_k):
        with pytest.raises(ValueError):
            QueueParams(arrival_prob_q=0.5, buffer_size_K=bad_k)

    def test_numpy_integer_buffer_accepted(self):
        QueueParams(arrival_prob_q=0.5, buffer_size_K=np.int64(4))

    @pytest.mark.parametrize("bad_q", [-0.1, 1.1])
    def test_q_out_of_range(self, bad_q):
        with pytest.raises(ValueError):
            QueueParams(arrival_prob_q=bad_q, buffer_size_K=5)


class TestLoadRho:
    def test_balanced(self):
        assert load_rho(QueueParams(0.5, 5), 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_quarter(self):
        assert load_rho(QueueParams(0.5, 5), 0.8) == pytest.approx(0.25, rel=1e-14)

    def test_saturated_arrivals(self):
        assert load_rho(QueueParams(1.0, 5), 0.7) == math.inf

    def test_dead_channel(self):
        assert load_rho(QueueParams(0.5, 5), 0.0) == math.inf

    def test_subnormal_channel(self):
        # (1 - q) f underflows to zero: the load is as infinite as at f = 0
        assert load_rho(QueueParams(0.5, 5), 5e-324) == math.inf
        assert packet_loss(QueueParams(0.5, 1), 5e-324) == 1.0

    @pytest.mark.parametrize("bad_f", [-0.2, 1.2])
    def test_f_domain(self, bad_f):
        with pytest.raises(ValueError):
            load_rho(QueueParams(0.5, 5), bad_f)


class TestTransitionMatrix:
    @pytest.mark.parametrize("bad_f", [-0.2, 1.2, math.nan])
    def test_f_domain(self, bad_f):
        with pytest.raises(ValueError, match="success probability"):
            transition_matrix(QueueParams(0.5, 5), bad_f)

    def test_two_state_example(self):
        P = transition_matrix(QueueParams(0.5, 1), 0.5)
        assert P == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]))

    def test_perfect_channel_absorbs_at_zero(self):
        P = transition_matrix(QueueParams(0.5, 3), 1.0)
        # no up-moves anywhere
        assert np.triu(P, k=1) == pytest.approx(np.zeros_like(P))

    @given(probs, probs, buffer_sizes)
    @settings(deadline=None)
    def test_rows_stochastic(self, q, f, K):
        P = transition_matrix(QueueParams(q, K), f)
        assert P.shape == (K + 1, K + 1)
        assert P.sum(axis=1) == pytest.approx(np.ones(K + 1), abs=1e-12)
        assert (P >= 0.0).all()

    @pytest.mark.parametrize("K", [1, 2, 7])
    @pytest.mark.parametrize("q, f", [(0.3, 0.6), (0.5, 0.0), (0.5, 1.0), (1.0, 0.4)])
    def test_matches_per_entry_loop(self, q, f, K):
        ref = np.zeros((K + 1, K + 1))
        for i in range(K + 1):
            for j in range(K + 1):
                if j == i + 1:
                    ref[i, j] = q * (1.0 - f)
                elif j == i - 1:
                    ref[i, j] = (1.0 - q) * f
                elif j == i == 0:
                    ref[i, j] = 1.0 - q + q * f
                elif j == i == K:
                    ref[i, j] = (1.0 - q) * (1.0 - f) + q
                elif j == i:
                    ref[i, j] = (1.0 - q) * (1.0 - f) + q * f
        assert transition_matrix(QueueParams(q, K), f).tobytes() == ref.tobytes()

    def test_structure_rules(self):
        q, f, K = 0.3, 0.6, 4
        P = transition_matrix(QueueParams(q, K), f)
        assert P[0, 0] == pytest.approx(1 - q + q * f)
        assert P[K, K] == pytest.approx((1 - q) * (1 - f) + q)
        for s in range(1, K):
            assert P[s, s + 1] == pytest.approx(q * (1 - f))
            assert P[s, s - 1] == pytest.approx((1 - q) * f)
            assert P[s, s] == pytest.approx((1 - q) * (1 - f) + q * f)


class TestStationaryDistribution:
    def test_uniform_at_balance(self):
        d = stationary_distribution(QueueParams(0.5, 10), 0.5)
        assert d.probs == pytest.approx(np.full(11, 1 / 11), rel=1e-12)

    def test_geometric_example(self):
        d = stationary_distribution(QueueParams(0.5, 2), 0.8)
        assert d.probs == pytest.approx([0.761905, 0.190476, 0.047619], abs=5e-7)
        assert d.probs == pytest.approx(
            np.array([1.0, 0.25, 0.0625]) / 1.3125, rel=1e-12)
        assert d.load_rho == pytest.approx(0.25, rel=1e-14)

    def test_point_mass_when_saturated(self):
        d = stationary_distribution(QueueParams(1.0, 5), 0.7)
        assert d.probs[-1] == 1.0
        assert d.probs[:-1] == pytest.approx(np.zeros(5))

    def test_dead_channel_point_mass(self):
        d = stationary_distribution(QueueParams(0.5, 5), 0.0)
        assert d.probs[-1] == 1.0

    @given(probs, probs, buffer_sizes)
    @settings(deadline=None)
    def test_normalized_and_geometric(self, q, f, K):
        d = stationary_distribution(QueueParams(q, K), f)
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert ((d.probs >= 0.0) & (d.probs <= 1.0)).all()
        rho = d.load_rho
        for s in range(K):
            if d.probs[s] > 1e-300:
                assert d.probs[s + 1] / d.probs[s] == pytest.approx(rho, rel=1e-9)

    def test_fixed_point_residual_grid(self):
        # closed form against the transition matrix across the whole grid
        worst = 0.0
        for q in np.arange(0.1, 0.95, 0.1):
            for f in np.arange(0.1, 0.95, 0.1):
                for K in (1, 2, 5, 10, 50):
                    qp = QueueParams(float(q), K)
                    pi = stationary_distribution(qp, float(f)).probs
                    P = transition_matrix(qp, float(f))
                    worst = max(worst, np.abs(pi @ P - pi).max())
        assert worst <= 1e-10

    def test_matches_power_iteration_spot(self):
        qp = QueueParams(0.7, 12)
        pi = stationary_distribution(qp, 0.4).probs
        ref = oracles.power_iteration_stationary(transition_matrix(qp, 0.4))
        assert pi == pytest.approx(ref, abs=1e-11)

    def test_branch_continuity_at_balance(self):
        # the three rho branches must agree across the switch point
        K = 10
        lo = stationary_distribution(QueueParams(0.5, K), 0.5 + 5e-9).probs
        hi = stationary_distribution(QueueParams(0.5, K), 0.5 - 5e-9).probs
        mid = stationary_distribution(QueueParams(0.5, K), 0.5).probs
        assert lo == pytest.approx(mid, abs=1e-7)
        assert hi == pytest.approx(mid, abs=1e-7)

    def test_large_buffer_no_overflow(self):
        # rho > 1 with K large enough that rho**K overflows if summed naively
        d = stationary_distribution(QueueParams(0.9, 5000), 0.2)
        assert np.isfinite(d.probs).all()
        assert abs(d.probs.sum() - 1.0) <= 1e-12


class TestFullBufferProb:
    def test_uniform_case(self):
        assert full_buffer_prob(QueueParams(0.5, 10), 0.5) == pytest.approx(
            1 / 11, rel=1e-12)

    def test_geometric_case(self):
        assert full_buffer_prob(QueueParams(0.5, 2), 0.8) == pytest.approx(
            0.047619, abs=5e-7)

    def test_saturated_limit(self):
        assert full_buffer_prob(QueueParams(1.0, 10), 0.6) == 1.0

    @given(probs, probs, buffer_sizes)
    @settings(deadline=None)
    def test_matches_last_stationary_entry(self, q, f, K):
        qp = QueueParams(q, K)
        direct = full_buffer_prob(qp, f)
        assert abs(direct - stationary_distribution(qp, f).probs[-1]) <= 1e-12

    @pytest.mark.parametrize("q,f", [(0.7, 0.4), (0.9, 0.2), (0.6, 0.35)])
    def test_large_K_limit_above_balance(self, q, f):
        rho = load_rho(QueueParams(q, 1), f)
        assert rho > 1
        assert full_buffer_prob(QueueParams(q, 10_000), f) == pytest.approx(
            (rho - 1) / rho, abs=1e-6)

    @pytest.mark.parametrize("q,f", [(0.3, 0.8), (0.5, 0.6)])
    def test_large_K_limit_below_balance(self, q, f):
        assert full_buffer_prob(QueueParams(q, 10_000), f) <= 1e-6

    def test_monotone_decreasing_in_f(self):
        qp = QueueParams(0.6, 8)
        grid = np.linspace(0.02, 0.99, 300)
        vals = [packet_loss(qp, float(f)) for f in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monotone_nondecreasing_in_q(self):
        grid = np.linspace(0.05, 0.999, 300)
        vals = [packet_loss(QueueParams(float(q), 8), 0.5) for q in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPacketLoss:
    def test_perfect_channel(self):
        assert packet_loss(QueueParams(0.5, 10), 1.0) == 0.0

    def test_geometric_case(self):
        assert packet_loss(QueueParams(0.5, 2), 0.8) == pytest.approx(
            0.0095238, abs=1e-7)

    def test_saturated_equals_failure_prob(self):
        for f in (0.2, 0.5, 0.9):
            assert packet_loss(QueueParams(1.0, 7), f) == pytest.approx(1 - f)

    @given(probs, probs, buffer_sizes)
    @settings(deadline=None)
    def test_in_unit_interval(self, q, f, K):
        v = packet_loss(QueueParams(q, K), f)
        assert 0.0 <= v <= 1.0
