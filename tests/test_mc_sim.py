import ast
import collections
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
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
from greenlink.simulate import (_GROUP, _bits, _chunk_slots, _cut, _cut_at, _group_entries,
                                _group_maps, _seek)

SIM = sys.modules["greenlink.simulate"]  # the package's simulate attribute is the function


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

    def test_negative_warmup(self):
        with pytest.raises(ValueError, match=r"^warm-up slot count cannot be negative$"):
            config(warmup_slots=-1)

    def test_bad_success_prob(self):
        with pytest.raises(ValueError, match=r"^success probability must lie in \[0, 1\]$"):
            config(f=1.2)

    def test_buffer_too_deep_for_int64_states(self):
        # states step as int64, which wraps silently past 2**63 - 1
        with pytest.raises(ValueError, match=r"^buffer size K must not exceed 2\*\*62 in the "
                                             rf"simulator, got {2**62 + 1}$"):
            config(K=2**62 + 1)

    @pytest.mark.parametrize("q, total", [(5e-324, 1), (5e-324, 1000), (1e-300, 1),
                                          (1e-12, 10**4), (2.0**-44, 2**10), (0.5, 2**60)])
    def test_run_too_long_to_finish(self, q, total):
        # 100 runs of about total / q slots each: inf, or beyond the 2**40-slot
        # campaign budget. Only the config is built; no campaign starts.
        with pytest.raises(ValueError, match=rf"^campaign too long: num_runs = 100 runs, each "
                                             rf"of warmup_slots = 0 slots then total_packets = "
                                             rf"{total} arrivals at q = {q!r}, last about "):
            config(q=q, total=total)

    @pytest.mark.parametrize("kw", [dict(runs=2**40 + 1, total=1, q=1.0),
                                    dict(runs=1, total=2**40 + 1, q=1.0),
                                    dict(runs=1, total=1, q=1.0, warmup_slots=10**400),
                                    dict(runs=1, total=10**400, q=0.5),
                                    dict(runs=1, total=1000, q=1e-12)])
    def test_campaign_over_the_slot_budget(self, kw):
        # the 1e15-slot campaign last, and counts no float can hold
        with pytest.raises(ValueError, match=r"^campaign too long: .* which must not exceed "
                                             r"2\*\*40$"):
            config(**kw)

    def test_run_length_at_the_bound(self):
        # 2**9 runs of 2**10 / 2**-20 slots after 2**30 warm-up slots each are
        # 2**40 slots, still accepted; one warm-up slot more is not
        at = dict(q=2.0**-20, total=2**10, runs=2**9, warmup_slots=2**30)
        assert config(**at).num_runs == 2**9
        with pytest.raises(ValueError, match="^campaign too long: "):
            config(**{**at, "warmup_slots": 2**30 + 1})

    @pytest.mark.parametrize("kw", [dict(total=100.0), dict(runs=20.0),
                                    dict(warmup_slots=5.0), dict(initial_queue_state=1.0)])
    def test_counts_must_be_integers(self, kw):
        with pytest.raises(ValueError):
            config(**kw)

    @pytest.mark.parametrize("seed, runs", [(-1, 1), (-5, 10), (2**128, 1), (2**128 - 1, 2),
                                            (2**128 - 9, 10), (np.int64(-1), 1)])
    def test_seed_outside_key_range(self, seed, runs):
        # run i draws from the stream keyed seed + i, and Philox keys are 128-bit
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*128 - num_runs\], "
                                             rf"got {seed}$"):
            config(seed=seed, runs=runs)

    def test_top_keys_simulate(self):
        cfg = config(total=40, runs=2, seed=2**128 - 2)
        rep = simulate(cfg)
        for i in range(2):
            assert (rep.per_run_losses[i], replay(cfg, i).slots) == reference_run(cfg, i)[::2]


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

    def test_default_seed_is_zero(self):
        # a SimConfig given no seed keys its runs 0, 1, ...: SHA-256 of its per-run losses
        rep = simulate(SimConfig(QueueParams(0.5, 10), 0.5, 1000, 20))
        assert (hashlib.sha256(rep.per_run_losses.tobytes()).hexdigest(), rep.slots) == (
            "33c71eb7c6d3fa788bc7986c2b1ffd6fab88dbdaa2846ef1c4e60a0691bc4177", 39915)
        assert np.array_equal(rep.per_run_losses,
                              simulate(config(total=1000, runs=20, seed=0)).per_run_losses)

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
        expected = stationary_distribution(QueueParams(q, K), f)
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


def check_against_slot_loop(cfg):
    """Simulate cfg, which tracks occupancy, and hold each run to reference_run."""
    rep = simulate(cfg)
    slots = 0
    for i in range(cfg.num_runs):
        loss, occ, used = reference_run(cfg, i)
        assert rep.per_run_losses[i] == loss
        assert np.array_equal(rep.per_run_occupancy[i], occ)
        slots += used
    assert rep.slots == slots
    return rep


@st.composite
def campaigns(draw):
    q = draw(st.one_of(st.just(1.0), st.floats(1e-3, 0.05), st.floats(0.05, 1.0)))
    K = draw(st.sampled_from([1, 2, 10, 1000, 100_000]))
    # a few packets at small q leave some runs short of arrivals after
    # their first chunk, so they step later chunks in later rounds
    total = draw(st.integers(1, 3) if q < 0.05 else st.integers(1, 200))
    return SimConfig(
        queue=QueueParams(q, K),
        success_prob_f=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        total_packets=total,
        num_runs=draw(st.one_of(st.integers(1, 7), st.integers(8, 19))),
        seed=draw(st.integers(0, 2**32)),
        initial_queue_state=draw(st.sampled_from([0, K])),
        # 3000 warm-up slots often hold more moves than a run's first chunk
        warmup_slots=draw(st.sampled_from([0, 37, 3000])),
        track_occupancy=draw(st.booleans()),
    )


class TestRunEquivalence:
    """However a campaign is cut into blocks, each run is the run simulated alone."""

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

    @pytest.mark.parametrize("kw,slots,digests", [
        # two warmed runs of about 2e5 slots, longer than the 65536-slot
        # windows the per-move loop worked in, that carry the warm-up's
        # state into the first chunk
        (dict(q=0.1, f=0.0825, K=1000, total=20_000, runs=2, seed=7, warmup_slots=30_000),
         460051,
         ["b3c5f352829eb4c912ff1303ddf15cc224d2a1d59687534bbd17edfc65b90221",
          "08df47f8d192d7518605fcc4449cc6dbcf5386ad3ba35826f711ffb35748fcc9"]),
        # two of the three runs need a second chunk
        (dict(q=0.01, f=0.3, K=2, total=3, runs=3, seed=6, warmup_slots=37),
         1597,
         ["9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
          "72a61e249c61acc399db7620900fa9f328fae92bc35aa8b44e827ee4c87b8e98"]),
    ])
    def test_golden_per_run_path(self, kw, slots, digests):
        # SHA-256 of the per-run losses and occupancy of campaigns of a few
        # runs, as a per-move loop over each run wrote them
        rep = simulate(config(**kw, track_occupancy=True))
        arrays = [rep.per_run_losses, rep.per_run_occupancy]
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == digests
        assert rep.slots == slots

    @pytest.mark.parametrize("kw", [
        dict(q=0.5, f=0.5, K=2, total=3000, warmup_slots=500),  # both barriers, often
        # held at the top of a buffer deeper than an int16 holds
        dict(q=0.9, f=0.3, K=100_000, total=30_000, initial_queue_state=100_000),
        # held at the top on either side of K + _GROUP = 2**15, where a
        # group's summed steps from a full buffer would overflow an int16
        dict(q=0.9, f=0.3, K=2**15 - _GROUP - 1, total=3000, initial_queue_state=2**15 - _GROUP - 1),
        dict(q=0.9, f=0.3, K=2**15 - _GROUP, total=3000, initial_queue_state=2**15 - _GROUP),
    ])
    def test_few_runs_match_the_slot_loop(self, kw):
        cfg = config(**{"runs": 2, "seed": 77, "track_occupancy": True, **kw})
        assert 0 < check_against_slot_loop(cfg).per_run_losses.min()

    def test_warm_up_pieces_change_nothing(self, monkeypatch):
        # with 64-cell blocks each run steps alone and its 1000-slot warm-up
        # in 16 pieces, each reading its own words of the run's stream
        cfg = config(q=0.3, f=0.4, K=5, total=200, runs=3, seed=17, warmup_slots=1000,
                     track_occupancy=True)
        whole = simulate(cfg)
        monkeypatch.setattr(SIM, "_BLOCK_CELLS", 64)
        pieces = simulate(cfg)
        assert np.array_equal(pieces.per_run_losses, whole.per_run_losses)
        assert np.array_equal(pieces.per_run_occupancy, whole.per_run_occupancy)
        assert pieces.slots == whole.slots

    @pytest.mark.parametrize("K", [2**31 + 5, 2**62])
    def test_deep_buffer_held_full(self, K):
        # q > f holds a full start within a few hundred packets of the top for
        # all 3000 arrivals, so the losses are those of a buffer of 1000. No
        # occupancy and no reference_run: both allocate K + 1 counts.
        def losses(K):
            return simulate(config(q=0.9, f=0.3, K=K, total=3000, runs=3, seed=77,
                                   initial_queue_state=K)).per_run_losses
        shallow = losses(1000)
        assert np.array_equal(losses(K), shallow)
        assert 0 < shallow.min()

    def test_oracles_stay_independent(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name.split(".")[0] == "greenlink" for name in imported)


class TestGroupScan:
    """The states entering the groups come from a log-depth scan of the
    groups' clamp maps x -> min(max(x + A, L), H); a fold one group at a
    time must give the same states."""

    @pytest.mark.parametrize("groups", [1, 2, 3, 5, 64, 1000])
    @pytest.mark.parametrize("runs", [1, 7])
    @pytest.mark.parametrize("K", [1, 10, 40_000, 2**62])
    def test_scan_matches_sequential_fold(self, groups, runs, K):
        rng = np.random.default_rng([groups, runs, K])
        # the maps of random moves, each run drifting up or down at its own rate
        up = rng.uniform(0.0, 1.0, size=runs)
        moves = rng.uniform(size=(_GROUP, groups, runs))
        steps = (moves < up).astype(np.int8) - (moves > 0.5 + up / 2).astype(np.int8)
        shift, low, high = _group_maps(steps, K)
        start = rng.integers(0, K + 1, size=runs)
        x, expected = start.tolist(), []
        for g in range(groups):
            expected.append(x)
            x = [min(max(v + int(a), int(lo)), int(hi))
                 for v, a, lo, hi in zip(x, shift[g], low[g], high[g])]
        # the scan overwrites the maps, so the fold reads them first
        assert _group_entries(shift, low, high, start).tolist() == expected


WORD_CUT_PROBS = [0.0, 1.0, 5e-324, 2.0**-60, 1.0 - 2.0**-53, 0.5, 0.1, 1e-3]
for _k in (1, 3, 2**52 - 1, 2**52 + 1, 3 * 2**51, 2**53 - 1):
    _p = _k * 2.0**-53
    WORD_CUT_PROBS += [_p, math.nextafter(_p, 0.0), math.nextafter(_p, 1.0)]


def words_around_cut(p):
    """Raw words at and one step either side of the 53-bit boundary for p,
    each with the lowest and highest 11 discarded bits, plus both extremes."""
    top = math.ceil(p * 2**53)
    tops = {min(max(t, 0), 2**53 - 1) for t in (top - 1, top, top + 1)}
    words = [(t << 11) | low for t in tops for low in (0, 1, 2047)]
    return np.array(words + [0, 2**64 - 1], dtype=np.uint64)


def uniform_below(words, p):
    """Generator.random() < p on these raw words: random() keeps the top 53 bits."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p


class TestRawWordDraws:
    """The simulator compares raw Philox words with integer cuts and points
    one bit generator at each run's words in turn; both must give
    Generator.random()'s bits."""

    @pytest.mark.parametrize("key", [0, 7, 2**64 - 1, 2**128 - 1])
    def test_random_keeps_the_top_53_bits(self, key):
        words = np.random.Philox(key=key).random_raw(4099)
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(4099)
        assert np.array_equal(uniforms, (words >> np.uint64(11)) * 2.0**-53)

    @pytest.mark.parametrize("p", WORD_CUT_PROBS)
    def test_cut_matches_random_below_p(self, p):
        compare, bound = _cut(p)
        words = words_around_cut(p)
        assert np.array_equal(compare(words, bound), uniform_below(words, p))
        stream = np.random.Philox(key=12345).random_raw(4099)
        uniforms = np.random.Generator(np.random.Philox(key=12345)).random(4099)
        assert np.array_equal(compare(stream, bound), uniforms < p)

    def test_cut_at_the_ends(self):
        words = np.array([0, 2047, 2048, 2**64 - 1], dtype=np.uint64)
        for p, expected in ((0.0, [False] * 4), (1.0, [True] * 4),
                            (5e-324, [True, True, False, False])):
            compare, bound = _cut(p)
            assert compare(words, bound).tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_cut_matches_random_below_p_drawn(self, p, extra):
        compare, bound = _cut(p)
        words = np.concatenate([words_around_cut(p), np.array(extra, dtype=np.uint64)])
        assert np.array_equal(compare(words, bound), uniform_below(words, p))

    @pytest.mark.parametrize("key", [0, 2**64 - 1, 2**64, 2**128 - 1])
    def test_rekeyed_stream_matches_fresh_philox(self, key):
        bitgen = np.random.Philox(key=99)
        # leave a half-used buffer and a pending 32-bit half behind
        np.random.Generator(bitgen).integers(0, 2**32, size=3, dtype=np.uint32)
        _seek(bitgen, key, 0)
        (arrive, arrive_bound), (succeed, succeed_bound) = _cut(0.3), _cut(0.6)
        reference = np.random.Generator(np.random.Philox(key=key))
        for n in (7, 13):  # two chunks, neither a multiple of Philox's 4-word block
            arrival = arrive(bitgen.random_raw(n), arrive_bound)
            success = succeed(bitgen.random_raw(n), succeed_bound)
            assert np.array_equal(arrival, reference.random(n) < 0.3)
            assert np.array_equal(success, reference.random(n) < 0.6)
        _seek(bitgen, key, 0)
        assert np.array_equal(bitgen.random_raw(11), np.random.Philox(key=key).random_raw(11))

    @pytest.mark.parametrize("word", [*range(9), 4099])
    @pytest.mark.parametrize("key", [0, 2**64 + 5])
    def test_seek_lands_where_a_straight_draw_would(self, key, word):
        bitgen = np.random.Philox(key=99)
        bitgen.random_raw(3)  # leave a half-used buffer behind
        _seek(bitgen, key, word)
        straight = np.random.Philox(key=key).random_raw(word + 9)
        assert np.array_equal(bitgen.random_raw(9), straight[word:])

    @pytest.mark.parametrize("used", range(4))
    def test_seek_carries_past_2_64_blocks(self, used):
        # the stream as it stands after 2**64 - 1 blocks, drawn on from there
        stream = np.random.Philox(key=3)
        state = stream.state
        state["state"]["counter"] = (2**64 - 1, 0, 0, 0)
        stream.state = state
        straight = stream.random_raw(4 + used + 9)
        for word, at in ((4 * (2**64 - 1), 0), (4 * 2**64, 4)):
            bitgen = np.random.Philox(key=0)
            _seek(bitgen, 3, word + used)
            assert np.array_equal(bitgen.random_raw(9), straight[at + used:][:9])

    @pytest.mark.parametrize("p", [0.3, 1.0])  # np.less, and np.less_equal at p = 1
    @pytest.mark.parametrize("piece", range(1, 6))
    def test_pieces_match_one_draw(self, piece, p, monkeypatch):
        # draws of at most piece words, starting on every word of two 4-word
        # Philox blocks, compare into one array as one whole draw would, and
        # leave the generator where that draw does
        monkeypatch.setattr(SIM, "_PIECE", piece)
        cut = _cut(p)
        compare, bound = cut
        key = 2**64 + 9
        for start in range(8):
            for n in (1, piece, piece + 1, 2 * piece + 3, 17):
                bitgen = np.random.Philox()
                _seek(bitgen, key, start)
                words = np.random.Philox(key=key).random_raw(start + n + 5)[start:]
                bits = _bits(bitgen, cut, np.empty(n, dtype=bool))
                assert np.array_equal(bits, compare(words[:n], bound))
                assert np.array_equal(bitgen.random_raw(5), words[n:])

    def test_straggler_campaign_matches_replays(self):
        cfg = config(q=0.01, f=0.002, K=1, total=3, runs=24, seed=606,
                     warmup_slots=25, track_occupancy=True)
        rep = simulate(cfg)
        first_chunk = cfg.warmup_slots + _chunk_slots(cfg.total_packets, 0.01)
        alone = [replay(cfg, i) for i in range(cfg.num_runs)]
        stragglers = [i for i, run in enumerate(alone) if run.slots > first_chunk]
        assert 0 < len(stragglers) < cfg.num_runs
        for i, run in enumerate(alone):
            assert run.per_run_losses[0] == rep.per_run_losses[i]
            assert np.array_equal(run.per_run_occupancy[0], rep.per_run_occupancy[i])
        assert rep.slots == sum(run.slots for run in alone)
        for i in stragglers[:2]:
            loss, occ, slots = reference_run(cfg, i)
            assert (rep.per_run_losses[i], alone[i].slots) == (loss, slots)
            assert np.array_equal(rep.per_run_occupancy[i], occ)


class WordSpy:
    """A bit generator that draws through bitgen and records the stream words
    [start, end) of each draw, counted from the word the last _seek named."""

    def __init__(self, bitgen):
        self.bitgen, self.at, self.spans = bitgen, None, []

    def random_raw(self, size):
        self.spans.append((self.at, self.at + size))
        self.at += size
        return self.bitgen.random_raw(size)


def merged(spans):
    """spans, each [start, end), joined where one ends on the next's start."""
    out = []
    for start, end in spans:
        if out and out[-1][1] == start:
            start = out.pop()[0]
        out.append((start, end))
    return out


def spy_on_draws(monkeypatch, cfg):
    """The set of (where, later) that the draws of one simulate(cfg) call
    give from now on. where is "warm-up" for a warm-up piece, later being whether
    it follows its run's first piece; for a chunk, where is "straggler" if it
    lacks its run's last needed arrival, else "first piece" or "later
    piece", with " first slot" or " last slot" added when that arrival lies
    on that slot of its piece, and later is whether the chunk follows its
    run's first. Warm-up piece k is checked to keep all its n slots and read
    exactly its arrival words [kC, kC + n) and success words [warm + kC,
    warm + kC + n), C being _BLOCK_CELLS. Each chunk is checked to start on
    the word after its run's last chunk (or warm-up), to be sized from the
    arrivals its run still needs, and to draw exactly its arrival words up
    to the end of the piece holding that arrival (all n for a straggler) and
    its success words for the slots it keeps."""
    seen, draw, seek = set(), SIM._draw, SIM._seek
    q, warm, total = cfg.queue.arrival_prob_q, cfg.warmup_slots, cfg.total_packets
    runs = {}  # key -> (its next chunk's word, arrivals still to come)

    def spy_seek(bitgen, key, word):
        if isinstance(bitgen, WordSpy):
            bitgen.at, bitgen = word, bitgen.bitgen
        seek(bitgen, key, word)

    def spy(bitgen, cuts, key, word, success_word, n, left, track, scratch):
        words = WordSpy(bitgen)
        out = draw(words, cuts, key, word, success_word, n, left, track, scratch)
        (_, _, slots), count = out
        if word < warm:  # a warm-up piece
            cells = SIM._BLOCK_CELLS
            assert word % cells == 0 and n == min(cells, warm - word)
            assert (success_word, left, slots) == (warm + word, n + 1, n)
            assert merged(words.spans) == merged([(word, word + n),
                                                  (warm + word, warm + word + n)])
            seen.add(("warm-up", word > 0))
            return out
        assert (word, left) == runs.get(key, (2 * warm, total))
        assert (n, success_word) == (_chunk_slots(left, q), word + n)
        runs[key] = (word + 2 * n, max(left - count, 0))  # the next chunk's word
        piece = SIM._PIECE
        end = n if count < left else min(-(-slots // piece) * piece, n)
        assert merged(words.spans) == merged([(word, word + end),
                                              (word + n, word + n + slots)])
        where = "straggler"
        if count >= left:
            at = (slots - 1) % piece  # the last needed arrival's place in its piece
            where = ("first piece" if slots <= piece else "later piece") + (
                " first slot" if at == 0 else " last slot" if at == piece - 1 else "")
        seen.add((where, left < total))
        return out

    monkeypatch.setattr(SIM, "_seek", spy_seek)
    monkeypatch.setattr(SIM, "_draw", spy)
    return seen


class TestChunkDraws:
    """A draw seeks to its first word, draws its arrival words _PIECE at a
    time up to the piece that holds its run's last needed arrival, seeks to
    its success words unless the arrival words drawn end there, and draws
    only the success words its slots read. Chunks and warm-up pieces draw
    alike; wherever that arrival falls, every slot reads the words a
    straight draw of the whole stream puts there."""

    @pytest.mark.parametrize("counter", [(0, 0, 0, 0), (2**64 - 3, 0, 0, 0)])
    @pytest.mark.parametrize("used", range(4))  # words already taken from the 4-word buffer
    def test_skip_lands_where_a_straight_draw_would(self, counter, used):
        # a draw of used words from word, then a seek past words more, as a
        # chunk seeks past its unread arrival words; the second counter
        # carries past 2**64 blocks on the way
        key = 2**64 + 5
        state = np.random.Philox(key=key).state
        state["state"]["counter"] = counter
        stream = np.random.Philox()
        stream.state = state
        straight = stream.random_raw(used + 100_012)
        word = 4 * counter[0]
        for words in [*range(10), 3999, 4001, 100_003]:
            skipping = np.random.Philox()
            _seek(skipping, key, word)
            skipping.random_raw(used)
            _seek(skipping, key, word + used + words)
            assert np.array_equal(skipping.random_raw(9), straight[used + words:][:9]), words

    @pytest.mark.parametrize("size, spread", [(1, 1.0), (50, 0.3), (5000, 0.02), (5000, 1.0)])
    def test_cut_at_finds_the_left_th_arrival(self, size, spread):
        # arrivals spread evenly, or bunched at the start so that the first
        # tail holds too few of them and the search widens
        rng = np.random.default_rng([size, int(spread * 100)])
        for bunched in (False, True):
            arrival = rng.random(size) < spread
            arrival[0] = True
            if bunched:
                arrival = np.sort(arrival)[::-1]
            at = arrival.nonzero()[0]
            for left in {1, min(2, at.size), at.size // 2 + 1, max(at.size - 1, 1), at.size}:
                assert _cut_at(arrival, left, at.size) == at[left - 1] + 1

    # first: pieces of 64 words (None), or of half the run's first chunk
    @pytest.mark.parametrize("kw,first,paths", [
        # the last arrival in a later piece, the words past that piece unread
        (dict(q=0.9, f=0.3, K=10, total=27_000), None, {("later piece", False)}),
        (dict(q=0.9, f=0.0, K=10, total=27_000), None, {("later piece", False)}),
        (dict(q=0.9, f=1.0, K=10, total=27_000), None, {("later piece", False)}),
        (dict(q=1.0, f=0.5, K=10, total=30_000, warmup_slots=3000), None,
         {("later piece", False)}),
        (dict(q=0.9, f=0.25, K=200, total=27_000, warmup_slots=3000), None,
         {("later piece", False)}),
        # in the second of two pieces, which ends on the chunk's last word
        (dict(q=0.5, f=0.45, K=10, total=5000, warmup_slots=200), "half",
         {("later piece", False)}),
        # stragglers, whose first chunks hold no last arrival, and whose later
        # chunks are one piece each
        (dict(q=0.01, f=0.002, K=1, total=3, runs=24, seed=606, warmup_slots=25), "half",
         {("straggler", False), ("first piece", True)}),
        # a short run, its last arrival in its first piece
        (dict(q=0.5, f=0.5, K=10, total=20, warmup_slots=50), None, {("first piece", False)}),
    ])
    def test_each_path_matches_the_slot_loop(self, kw, first, paths, monkeypatch):
        cfg = config(**{"runs": 2, "seed": 91, "track_occupancy": True, **kw})
        half = _chunk_slots(cfg.total_packets, cfg.queue.arrival_prob_q) // 2
        monkeypatch.setattr(SIM, "_PIECE", 64 if first is None else half)
        seen = spy_on_draws(monkeypatch, cfg)
        check_against_slot_loop(cfg)
        assert paths <= seen

    # At q = 1 the left-th arrival is on slot left; at q = 0.3 the pieces end
    # on the first chunk's last needed arrival, or on the slot before it.
    @pytest.mark.parametrize("q, total, piece, where", [
        (1.0, 1, 64, "first piece first slot"),
        (1.0, 64, 64, "first piece last slot"),
        (1.0, 65, 64, "later piece first slot"),
        (1.0, 192, 64, "later piece last slot"),
        (0.3, 500, "through the arrival", "first piece last slot"),
        (0.3, 500, "before the arrival", "later piece first slot"),
    ], ids=["q1-first-first", "q1-first-last", "q1-later-first", "q1-later-last",
            "q0.3-first-last", "q0.3-later-first"])
    def test_last_arrival_on_a_piece_edge(self, q, total, piece, where, monkeypatch):
        cfg = config(q=q, f=0.4, K=5, total=total, runs=1, seed=3, track_occupancy=True)
        if isinstance(piece, str):
            slots = reference_run(cfg, 0)[2]
            assert slots < _chunk_slots(total, q)  # the first chunk holds the arrival
            piece = slots if piece == "through the arrival" else slots - 1
        monkeypatch.setattr(SIM, "_PIECE", piece)
        seen = spy_on_draws(monkeypatch, cfg)
        check_against_slot_loop(cfg)
        assert seen == {(where, False)}

    def test_warm_up_pieces_read_their_words(self, monkeypatch):
        # 64-cell blocks cut each run's 1000-slot warm-up into 16 pieces, and
        # 24-word pieces of raw words cut each of those into three draws
        cfg = config(q=0.3, f=0.4, K=5, total=200, runs=3, seed=17, warmup_slots=1000,
                     track_occupancy=True)
        monkeypatch.setattr(SIM, "_BLOCK_CELLS", 64)
        monkeypatch.setattr(SIM, "_PIECE", 24)
        seen = spy_on_draws(monkeypatch, cfg)
        check_against_slot_loop(cfg)
        assert {("warm-up", False), ("warm-up", True), ("later piece", False)} <= seen


# 40 runs from a full buffer of one, 14 of them stragglers that need 1, 2
# and 4 later chunks, and over rounds 1 to 4 there are 14, 5, 1 and 1 of them.
STRAGGLER_ROUNDS = dict(q=0.002, f=0.001, K=1, total=2, runs=40, seed=1,
                        initial_queue_state=1, warmup_slots=30, track_occupancy=True)


def stepped_chunks(monkeypatch):
    """The number of chunks each _step call steps from now on."""
    counts, step = [], SIM._step

    def spy(chunks, *args):
        counts.append(len(chunks))
        return step(chunks, *args)

    monkeypatch.setattr(SIM, "_step", spy)
    return counts


class TestStragglerRounds:
    """A block steps every run's first chunk in round 0, then in each later
    round the next chunk of every straggler at once, their states gathered
    from the block's and scattered back: each run is still the run
    simulated alone."""

    def test_rounds_match_each_run_alone(self, monkeypatch):
        cfg = config(**STRAGGLER_ROUNDS)
        later, draw = collections.Counter(), SIM._draw

        def spy(bitgen, cuts, key, word, *args):
            if word > 2 * cfg.warmup_slots:  # a chunk after its run's first
                later[key - cfg.seed] += 1
            return draw(bitgen, cuts, key, word, *args)

        with monkeypatch.context() as patch:
            patch.setattr(SIM, "_draw", spy)
            rep = simulate(cfg)
        assert sorted(later.values()) == [1] * 9 + [2] * 4 + [4]
        alone = [replay(cfg, i) for i in range(cfg.num_runs)]
        for i, run in enumerate(alone):
            assert run.per_run_losses[0] == rep.per_run_losses[i]
            assert np.array_equal(run.per_run_occupancy[0], rep.per_run_occupancy[i])
            loss, occ, slots = reference_run(cfg, i)
            assert (rep.per_run_losses[i], run.slots) == (loss, slots)
            assert np.array_equal(rep.per_run_occupancy[i], occ)
        assert rep.slots == sum(run.slots for run in alone)
        assert len(set(rep.per_run_losses)) == 3  # runs lose 0, 1 or 2 packets

    @pytest.mark.parametrize("kw, counts", [
        # CI's straggler campaign: the warm-ups, the first chunks, then 5
        # stragglers' second chunks and one straggler's third
        (dict(q=0.01, f=0.002, K=1, total=3, runs=24, seed=606, warmup_slots=25),
         [24, 24, 5, 1]),
        (STRAGGLER_ROUNDS, [40, 40, 14, 5, 1, 1]),
    ], ids=["ci-straggler", "rounds"])
    def test_each_round_steps_its_stragglers_at_once(self, kw, counts, monkeypatch):
        steps = stepped_chunks(monkeypatch)
        simulate(config(**kw))
        assert steps == counts


class TestWorkerThreads:
    """Blocks of long runs step on up to one worker thread per CPU, each on
    its own Philox; a run's result does not depend on how many there are."""

    @staticmethod
    def pools(monkeypatch):
        """The worker counts of the pools simulate builds from now on."""
        built, pool = [], SIM.ThreadPoolExecutor

        def spy(workers):
            built.append(workers)
            return pool(workers)

        monkeypatch.setattr(SIM, "ThreadPoolExecutor", spy)
        return built

    @pytest.mark.parametrize("kw", [
        # 50 warmed runs of 28064 slots fill two blocks
        dict(q=0.5, f=0.45, K=10, total=10_000, runs=50, warmup_slots=5000),
        # occupancy tracked over 40 runs of 36564 slots, two blocks
        dict(q=0.1, f=0.0825, K=100, total=3000, runs=40, warmup_slots=2000,
             track_occupancy=True),
        # stragglers, runs long by their warm-up, over two blocks
        dict(q=0.01, f=0.002, K=1, total=3, runs=60, seed=606, warmup_slots=20_000,
             track_occupancy=True),
        # three runs, one block of cells, split into one block per worker
        dict(q=0.3, f=0.4, K=5, total=5000, runs=3, track_occupancy=True),
    ])
    def test_runs_do_not_depend_on_the_worker_count(self, kw, monkeypatch):
        cfg = config(**{"seed": 41, **kw})
        run_slots = cfg.warmup_slots + _chunk_slots(cfg.total_packets, cfg.queue.arrival_prob_q)
        assert run_slots >= SIM._THREAD_SLOTS
        cell_blocks = -(-cfg.num_runs * run_slots // SIM._BLOCK_CELLS)
        built = self.pools(monkeypatch)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(SIM, "_cpus", lambda: cpus)
            reports.append(simulate(cfg))
        # the pool takes one worker per block up to one per CPU
        assert built == [min(cfg.num_runs, max(cell_blocks, cpus), cpus) for cpus in (2, 3)]
        one = reports[0]
        for rep in reports[1:]:
            assert np.array_equal(rep.per_run_losses, one.per_run_losses)
            if cfg.track_occupancy:
                assert np.array_equal(rep.per_run_occupancy, one.per_run_occupancy)
            assert rep.slots == one.slots

    def test_short_runs_stay_on_the_calling_thread(self, monkeypatch):
        # the CLI's default run length: 1000 runs of 2364 slots, three blocks
        monkeypatch.setattr(SIM, "_cpus", lambda: 4)
        built = self.pools(monkeypatch)
        blocks, block = [], SIM._block

        def spy(*args):
            blocks.append(threading.current_thread())
            return block(*args)

        monkeypatch.setattr(SIM, "_block", spy)
        simulate(config(q=0.5, f=0.5, K=10, total=1000, runs=1000))
        assert built == []
        assert blocks == [threading.main_thread()] * 3

    def test_failed_block_cancels_the_rest(self, monkeypatch):
        # eight blocks of one long run on two workers: the second raises, and
        # each later block holds its worker long enough for the failure to
        # reach simulate, which cancels the blocks no worker has taken
        monkeypatch.setattr(SIM, "_cpus", lambda: 2)
        monkeypatch.setattr(SIM, "_BLOCK_CELLS", 1)
        cfg = config(q=0.5, f=0.45, total=10_000, runs=8, seed=3)
        started, block = [], SIM._block

        def failing(bitgen, cuts, cfg, first_key, losses, occ):
            b = first_key - cfg.seed
            started.append(b)
            if b == 1:
                raise RuntimeError("block 1 failed")
            if b > 1:
                time.sleep(0.5)
            return block(bitgen, cuts, cfg, first_key, losses, occ)

        monkeypatch.setattr(SIM, "_block", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^block 1 failed$"):
            simulate(cfg)
        assert {0, 1} <= set(started) <= {0, 1, 2, 3}
        assert threading.active_count() == threads


# Campaigns whose chunks and warm-ups need scratches of very different sizes.
SCRATCH_CAMPAIGNS = {
    # mc-long's shape: two warmed runs with occupancy, one block each on workers
    "long": dict(q=0.1, f=0.0825, K=1000, total=20_000, runs=2, seed=7, warmup_slots=30_000,
                 track_occupancy=True),
    # the same, with chunks three times as long
    "longer": dict(q=0.1, f=0.0825, K=1000, total=60_000, runs=2, seed=9, warmup_slots=50_000,
                   track_occupancy=True),
    # mc-short's shape: 250 cold runs of the CLI's default length, one block
    # on the calling thread, no occupancy
    "short": dict(q=0.5, f=0.5, K=10, total=1000, runs=250, seed=11),
    # stragglers step their later chunks over rounds of their own
    "straggler": dict(q=0.01, f=0.002, K=1, total=3, runs=24, seed=606, warmup_slots=25,
                      track_occupancy=True),
    # warm-ups of three pieces, the first two of 2**20 slots
    "pieces": dict(q=0.5, f=0.45, K=10, total=100, runs=2, seed=3, warmup_slots=2_200_000),
}


def digests(rep):
    """SHA-256 of a report's per-run losses and occupancy (None untracked), and its slots."""
    occ = rep.per_run_occupancy
    return (hashlib.sha256(rep.per_run_losses.tobytes()).hexdigest(),
            None if occ is None else hashlib.sha256(occ.tobytes()).hexdigest(), rep.slots)


def forked_digests(cfg):
    return digests(simulate(cfg))


@pytest.fixture(scope="module")
def fresh_digests():
    """digests of each SCRATCH_CAMPAIGNS campaign, each simulated in a fresh interpreter."""
    script = (
        "import hashlib, json, sys\n"
        "from greenlink import QueueParams, SimConfig, simulate\n"
        "kw = json.loads(sys.argv[1])\n"
        "queue = QueueParams(kw.pop('q'), kw.pop('K'))\n"
        "rep = simulate(SimConfig(queue, kw.pop('f'), kw.pop('total'), kw.pop('runs'), **kw))\n"
        "occ = rep.per_run_occupancy\n"
        "print(json.dumps([hashlib.sha256(rep.per_run_losses.tobytes()).hexdigest(),\n"
        "                  None if occ is None else hashlib.sha256(occ.tobytes()).hexdigest(),\n"
        "                  rep.slots]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    fresh = {}
    for name, kw in SCRATCH_CAMPAIGNS.items():
        done = subprocess.run([sys.executable, "-c", script, json.dumps(kw)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fresh[name] = tuple(json.loads(done.stdout))
    return fresh


class TestKeptScratch:
    """A block's working arrays come from a scratch that outlives it: every
    campaign is the one a fresh interpreter simulates, whatever campaigns,
    failed ones included, left their scratches behind."""

    def test_campaigns_that_grow_shrink_and_grow_again(self, fresh_digests, monkeypatch):
        monkeypatch.setattr(SIM, "_cpus", lambda: 2)
        order = ["short", "long", "short", "straggler", "longer", "pieces", "long", "short",
                 "longer"]
        for name in order:
            assert digests(simulate(config(**SCRATCH_CAMPAIGNS[name]))) == fresh_digests[name], name
        assert SIM._SCRATCHES  # kept for the next campaign

    def test_scratch_over_the_bound_is_not_kept(self, fresh_digests, monkeypatch):
        monkeypatch.setattr(SIM, "_cpus", lambda: 2)
        monkeypatch.setattr(SIM, "_SCRATCHES", [])
        simulate(config(**SCRATCH_CAMPAIGNS["short"]))
        kept = list(SIM._SCRATCHES)
        assert len(kept) == 1  # one block, on the calling thread
        assert max(s.drawn.nbytes + s.kept.nbytes for s in kept) <= SIM._KEEP_BYTES
        simulate(config(**SCRATCH_CAMPAIGNS["long"]))
        assert len(SIM._SCRATCHES) <= 2  # at most one per block that stepped at once
        monkeypatch.setattr(SIM, "_KEEP_BYTES", 2**16)
        assert digests(simulate(config(**SCRATCH_CAMPAIGNS["long"]))) == fresh_digests["long"]
        assert all(s.drawn.nbytes + s.kept.nbytes <= 2**16 for s in SIM._SCRATCHES)

    @pytest.mark.parametrize("drawn, kept, is_kept", [
        (48, 48, True),  # the two buffers hold _KEEP_BYTES between them
        (60, 40, False),  # each under _KEEP_BYTES, their sum over it
        (40, 60, False),
    ])
    def test_keep_rule_counts_both_buffers(self, monkeypatch, drawn, kept, is_kept):
        monkeypatch.setattr(SIM, "_KEEP_BYTES", 96)
        monkeypatch.setattr(SIM, "_SCRATCHES", [])
        with SIM._scratch() as scratch:
            scratch.drawn = np.empty(drawn, dtype=bool)
            scratch.kept = np.empty(kept, dtype=np.int8)
        assert SIM._SCRATCHES == ([scratch] if is_kept else [])

    def test_campaign_after_failed_blocks(self, fresh_digests, monkeypatch):
        # test_failed_block_cancels_the_rest's failing block, then a block that
        # fails holding its scratch, after its first runs kept their steps
        monkeypatch.setattr(SIM, "_cpus", lambda: 2)
        with monkeypatch.context() as patch:
            patch.setattr(SIM, "_BLOCK_CELLS", 1)
            block = SIM._block

            def failing(bitgen, cuts, cfg, first_key, losses, occ):
                b = first_key - cfg.seed
                if b == 1:
                    raise RuntimeError("block 1 failed")
                if b > 1:
                    time.sleep(0.5)
                return block(bitgen, cuts, cfg, first_key, losses, occ)

            patch.setattr(SIM, "_block", failing)
            with pytest.raises(RuntimeError, match="^block 1 failed$"):
                simulate(config(q=0.5, f=0.45, total=10_000, runs=8, seed=3))
        with monkeypatch.context() as patch:
            draw, calls = SIM._draw, itertools.count(1)

            def failing_draw(*args):
                if next(calls) == 100:
                    raise RuntimeError("chunk failed")
                return draw(*args)

            patch.setattr(SIM, "_draw", failing_draw)
            with pytest.raises(RuntimeError, match="^chunk failed$"):
                simulate(config(**SCRATCH_CAMPAIGNS["short"]))
        for name in ("short", "long"):
            assert digests(simulate(config(**SCRATCH_CAMPAIGNS[name]))) == fresh_digests[name], name

    def test_callers_on_several_threads_share_the_stack(self, fresh_digests, monkeypatch):
        # four callers at once, each cutting its campaign over six workers,
        # with the interpreter switching threads as often as it can: a
        # scratch two blocks held at once would mix their runs
        monkeypatch.setattr(SIM, "_cpus", lambda: 6)
        names = ["long", "short", "straggler", "longer"]
        got = {}

        def call(name):
            got[name] = digests(simulate(config(**SCRATCH_CAMPAIGNS[name])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(name,)) for name in names]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == {name: fresh_digests[name] for name in names}

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_forked_child_gets_the_threaded_result(self, fresh_digests, monkeypatch):
        # the child inherits the scratches this campaign leaves behind
        monkeypatch.setattr(SIM, "_cpus", lambda: 2)
        cfg = config(**SCRATCH_CAMPAIGNS["long"])
        here = digests(simulate(cfg))
        assert here == fresh_digests["long"]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(forked_digests, (cfg,)).get(timeout=120) == here


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

    def test_installed_numba_changes_nothing(self, tmp_path):
        # The simulator has one code path: a numba package on the path, even
        # one whose njit cannot compile anything, leaves the per-run results
        # as they are.
        stub = tmp_path / "numba"
        stub.mkdir()
        (stub / "__init__.py").write_text(
            "STUB = True\n"
            "def njit(*args, **kwargs):\n"
            "    raise RuntimeError('numba must not be used')\n")
        script = (
            "import json, numba\n"
            "from greenlink import QueueParams, SimConfig, simulate\n"
            "assert numba.STUB\n"
            "reports = [simulate(SimConfig(QueueParams(0.5, 10), 0.5, 100, runs, seed=1234))\n"
            "           for runs in (16, 1)]\n"
            "print(json.dumps([[v.hex() for v in r.per_run_losses.tolist()]\n"
            "                  for r in reports]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        many_losses, one_losses = json.loads(done.stdout)
        for runs, losses in ((16, many_losses), (1, one_losses)):
            expected = simulate(config(total=100, runs=runs)).per_run_losses
            assert [float.fromhex(v) for v in losses] == expected.tolist()
