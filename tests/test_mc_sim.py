import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from greenlink import (
    QueueParams,
    SimConfig,
    convergence_study,
    packet_loss,
    simulate,
    stationary_distribution,
)
from greenlink.simulate import _LOCKSTEP_MIN_RUNS


def config(q=0.5, f=0.5, K=10, total=1000, runs=100, seed=1234, **kw):
    return SimConfig(queue=QueueParams(q, K), success_prob_f=f,
                     total_packets=total, num_runs=runs, seed=seed, **kw)


class TestValidation:
    def test_bad_packet_count(self):
        with pytest.raises(ValueError):
            config(total=0)

    def test_bad_run_count(self):
        with pytest.raises(ValueError):
            config(runs=0)

    def test_bad_initial_state(self):
        with pytest.raises(ValueError):
            config(initial_queue_state=11)
        with pytest.raises(ValueError):
            config(initial_queue_state=-1)

    def test_bad_success_prob(self):
        with pytest.raises(ValueError):
            config(f=1.2)

    @pytest.mark.parametrize("kw", [dict(total=100.0), dict(runs=20.0),
                                    dict(warmup_slots=5.0), dict(initial_queue_state=1.0)])
    def test_counts_must_be_integers(self, kw):
        with pytest.raises(ValueError):
            config(**kw)


class TestDegenerateChannels:
    def test_perfect_channel_never_loses(self):
        rep = simulate(config(f=1.0, total=2000, runs=20))
        assert rep.mean_loss_fraction == 0.0
        assert (rep.per_run_losses == 0.0).all()

    def test_dead_channel_loses_all_but_buffer(self):
        # with f = 0 the buffer absorbs at full: exactly K of the N arrivals
        # are admitted from an empty start, every later one is dropped
        K, N = 5, 2000
        rep = simulate(config(q=0.4, f=0.0, K=K, total=N, runs=8))
        assert (rep.per_run_losses == (N - K) / N).all()


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = simulate(config(seed=777))
        b = simulate(config(seed=777))
        assert (a.per_run_losses == b.per_run_losses).all()
        assert a.mean_loss_fraction == b.mean_loss_fraction
        assert a.std_error == b.std_error

    def test_different_seed_differs(self):
        a = simulate(config(seed=777))
        b = simulate(config(seed=778))
        assert (a.per_run_losses != b.per_run_losses).any()

    def test_runs_are_distinct_streams(self):
        rep = simulate(config(total=300, runs=50, seed=9))
        assert len(set(rep.per_run_losses.tolist())) > 10

    def test_mean_is_plain_average_of_runs(self):
        rep = simulate(config(runs=64, seed=5))
        assert rep.mean_loss_fraction == pytest.approx(
            float(np.mean(rep.per_run_losses)), abs=1e-15)


class TestTransientBehavior:
    def test_empty_start_matches_exact_recursion(self):
        # the finite-run loss expectation is computable exactly; the
        # simulator must agree within Monte Carlo error (4 SE)
        rep = simulate(config(total=1000, runs=4000, seed=20260822))
        exact = oracles.exact_mean_loss(0.5, 0.5, 10, 1000)
        assert exact == pytest.approx(0.0434090, abs=5e-7)
        assert abs(rep.mean_loss_fraction - exact) <= 4.0 * rep.std_error

    def test_empty_start_biases_low(self):
        # a cold-started queue underestimates the stationary loss; at 1000
        # packets the shortfall sits near -4.5%, not within a few SE of 0
        rep = simulate(config(total=1000, runs=4000, seed=3))
        phi = packet_loss(QueueParams(0.5, 10), 0.5)
        assert rep.theoretical_phi == phi
        assert rep.relative_gap < 0.0
        assert rep.mean_loss_fraction < phi - 3.0 * rep.std_error

    def test_full_start_biases_high(self):
        rep = simulate(config(total=1000, runs=4000, seed=4,
                              initial_queue_state=10))
        assert rep.mean_loss_fraction > rep.theoretical_phi

    def test_initial_state_forgotten_at_scale(self):
        cold = simulate(config(total=200_000, runs=20, seed=11))
        hot = simulate(config(total=200_000, runs=20, seed=12,
                              initial_queue_state=10))
        phi = cold.theoretical_phi
        assert abs(cold.mean_loss_fraction - phi) <= 3.0 * cold.std_error
        assert abs(hot.mean_loss_fraction - phi) <= 3.0 * hot.std_error


class TestStationaryConsistency:
    @pytest.mark.parametrize("q,f,K", [
        (0.3, 0.6, 5),
        (0.5, 0.5, 10),
        (0.8, 0.6, 8),
    ])
    def test_within_three_se_of_phi(self, q, f, K):
        rep = simulate(config(q=q, f=f, K=K, total=100_000, runs=100,
                              seed=42, warmup_slots=5000))
        phi = packet_loss(QueueParams(q, K), f)
        assert rep.std_error > 0.0
        assert abs(rep.mean_loss_fraction - phi) <= 3.0 * rep.std_error

    def test_occupancy_histogram(self):
        q, f, K = 0.5, 0.6, 5
        rep = simulate(config(q=q, f=f, K=K, total=20_000, runs=300,
                              seed=77, warmup_slots=2000,
                              track_occupancy=True))
        occ = rep.per_run_occupancy
        assert occ is not None and occ.shape == (300, K + 1)
        fractions = occ / occ.sum(axis=1, keepdims=True)
        mean = fractions.mean(axis=0)
        se = fractions.std(axis=0, ddof=1) / np.sqrt(fractions.shape[0])
        expected = stationary_distribution(QueueParams(q, K), f).probs
        assert (np.abs(mean - expected) <= 3.0 * se + 1e-12).all()


class TestConvergenceStudy:
    def test_gap_shrinks_with_packet_count(self):
        rows = convergence_study(config(total=1000, runs=400, seed=8),
                                 [300, 3_000, 30_000])
        gaps = [abs(r.relative_gap) for r in rows]
        assert [r.packet_count for r in rows] == [300, 3_000, 30_000]
        assert gaps[2] < gaps[0]
        assert gaps[1] < 1.5 * gaps[0]

    def test_rows_match_direct_simulation(self):
        base = config(total=999, runs=50, seed=21)
        rows = convergence_study(base, [250])
        direct = simulate(dataclasses.replace(base, total_packets=250))
        assert rows[0].mean_loss == direct.mean_loss_fraction
        assert rows[0].std_error == direct.std_error

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(config(), [])


def replay(cfg, i):
    """Run i of a campaign, simulated alone."""
    return simulate(dataclasses.replace(cfg, num_runs=1, seed=cfg.seed + i))


def reference_run(cfg, i):
    """Run i stepped one slot at a time, as the simulator's first per-slot
    loop did: (loss fraction, occupancy fractions or None, slots)."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed + i))
    q, f = cfg.queue.arrival_prob_q, cfg.success_prob_f
    K = cfg.queue.buffer_size_K
    x = cfg.initial_queue_state

    def step(a, s):
        # returns (arrival, lost) and moves x
        nonlocal x
        arrival = a < q
        success = (x > 0 or arrival) and s < f
        lost = arrival and x == K and not success
        x = min(x + arrival - success, K)
        return arrival, lost

    warm = cfg.warmup_slots
    au, su = rng.random(warm), rng.random(warm)
    for a, s in zip(au.tolist(), su.tolist()):
        step(a, s)
    losses, left, slots, occ = 0, cfg.total_packets, warm, [0] * (K + 1)
    while left:
        n = min(2**22, int(left / q * 1.15) + 64)  # the stream's chunk sizes
        au, su = rng.random(n), rng.random(n)
        for a, s in zip(au.tolist(), su.tolist()):
            occ[x] += 1
            slots += 1
            arrival, lost = step(a, s)
            losses += lost
            left -= arrival
            if not left:
                break
    fractions = np.array(occ) / sum(occ) if cfg.track_occupancy else None
    return losses / cfg.total_packets, fractions, slots


@st.composite
def campaigns(draw):
    q = draw(st.one_of(st.just(1.0), st.floats(1e-3, 0.05), st.floats(0.05, 1.0)))
    K = draw(st.sampled_from([1, 2, 10, 100_000]))
    # a few packets at small q leave some runs short of arrivals after
    # their first chunk, so they finish on the scalar kernel
    total = draw(st.integers(1, 3) if q < 0.05 else st.integers(1, 200))
    return SimConfig(
        queue=QueueParams(q, K),
        success_prob_f=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        total_packets=total,
        num_runs=draw(st.one_of(st.integers(1, _LOCKSTEP_MIN_RUNS - 1),
                                st.integers(_LOCKSTEP_MIN_RUNS, 2 * _LOCKSTEP_MIN_RUNS + 3))),
        seed=draw(st.integers(0, 2**32)),
        initial_queue_state=draw(st.sampled_from([0, K])),
        warmup_slots=draw(st.sampled_from([0, 37])),
        track_occupancy=draw(st.booleans()),
    )


class TestRunEquivalence:
    """Whatever kernel steps a campaign, each run is the run simulated alone."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(campaigns())
    def test_each_run_matches_its_replay(self, cfg):
        rep = simulate(cfg)
        for i in range(cfg.num_runs):
            alone = replay(cfg, i)
            assert alone.per_run_losses[0] == rep.per_run_losses[i]
            if cfg.track_occupancy:
                assert np.array_equal(alone.per_run_occupancy[0], rep.per_run_occupancy[i])
            if i in (0, cfg.num_runs - 1):  # the slot loop is slow; two runs suffice
                loss, occ, slots = reference_run(cfg, i)
                assert (alone.per_run_losses[0], alone.slots) == (loss, slots)
                if cfg.track_occupancy:
                    assert np.array_equal(alone.per_run_occupancy[0], occ)

    @pytest.mark.parametrize("kw,digests", [
        (dict(q=0.5, f=0.5, K=10, total=1000, runs=1000, seed=20261017),
         ["88464c826945f88488d39c1f0143d4469e1b6b0b32ed2eedbc539829154eff60"]),
        (dict(q=0.3, f=0.6, K=5, total=300, runs=1000, seed=5, warmup_slots=50,
              track_occupancy=True),
         ["383ca156f7f56ddb3fb67ad329ab024cabd572cd5ad2e2a62038c082ecaa7aca",
          "4b4e0298ea4e6d7ef79ae0fc94a05e5f42f728552475d565a9c571dbda45b6a9"]),
    ])
    def test_golden_per_run_losses(self, kw, digests):
        # SHA-256 of the per-run losses (and occupancy) written by the
        # one-run-at-a-time simulator these campaigns were first pinned with
        rep = simulate(config(**kw))
        arrays = [rep.per_run_losses, rep.per_run_occupancy][:len(digests)]
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == digests

    def test_oracles_stay_independent(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name.split(".")[0] == "greenlink" for name in imported)


class TestReportCounters:
    def test_saturated_arrivals_step_one_slot_per_packet(self):
        cfg = config(q=1.0, total=300, runs=50, warmup_slots=40)
        assert simulate(cfg).slots == 50 * (40 + 300)

    @pytest.mark.parametrize("kw", [
        dict(runs=40, warmup_slots=25, track_occupancy=True),
        dict(q=0.01, total=2, runs=60),  # stragglers
        dict(runs=3),
    ])
    def test_slots_add_up_over_replays(self, kw):
        cfg = config(**{"total": 150, "seed": 31, **kw})
        assert simulate(cfg).slots == sum(replay(cfg, i).slots for i in range(cfg.num_runs))

    def test_backend_named(self):
        many = simulate(config(total=100, runs=2 * _LOCKSTEP_MIN_RUNS)).backend
        one = simulate(config(total=100, runs=1)).backend
        assert (many, one) in {("lockstep", "python"), ("numba", "numba")}
