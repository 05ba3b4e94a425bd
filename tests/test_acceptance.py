"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single CRITERION line (visible with pytest -s) and
the verbose test name doubles as the pass/fail report. Criterion 2 is
expected to fail and is marked strict-xfail: the measured quantity is a
cold-start transient, and its exact expectation sits outside the target
band; the companion tests in test_mc_sim.py pin the simulator to the
exact finite-run recursion instead.
"""

import math
import time

import numpy as np
import pytest

import oracles
from greenlink import (
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SimConfig,
    SystemParams,
    efficiency,
    maximize_constrained,
    maximize_unconstrained,
    packet_loss,
    power_gain_db,
    qos_threshold,
    simulate,
    stationarity_residual,
    stationary_distribution,
)

SIGMA2 = 1e-3


def exp_model():
    return ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=SIGMA2)


def q_model():
    return QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=2.0,
                         channel_gain_hh=1.0, noise_sigma2=SIGMA2)


def system(ratio, eps=1.0, pmin=0.01, pmax=3.1622776601683795):
    return SystemParams(rate_R=4000.0, fixed_power_b=ratio * SIGMA2,
                        noise_sigma2=SIGMA2, p_min=pmin, p_max=pmax,
                        loss_bound_epsilon=eps)


def test_criterion_1_stationary_oracle():
    t0 = time.monotonic()
    worst_residual = 0.0
    worst_gap = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        for f in (0.1, 0.3, 0.5, 0.7, 0.9):
            for K in (1, 2, 5, 10, 50):
                P = oracles.transition_matrix(q, f, K)
                closed = stationary_distribution(QueueParams(q, K), f)
                worst_residual = max(
                    worst_residual, float(np.abs(closed @ P - closed).max()))
                iterated = oracles.power_iteration_stationary(P)
                worst_gap = max(
                    worst_gap, float(np.abs(closed - iterated).max()))
    elapsed = time.monotonic() - t0
    ok = worst_residual <= 1e-10 and worst_gap <= 1e-10 and elapsed < 5.0
    print(f"CRITERION 1: {'PASS' if ok else 'FAIL'} - 125 configs, "
          f"fixed-point residual {worst_residual:.2e}, entrywise gap "
          f"{worst_gap:.2e} (tol 1e-10), {elapsed:.1f}s (budget 5s)")
    assert worst_residual <= 1e-10
    assert worst_gap <= 1e-10
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="cold-start transient: the exact expectation of this protocol is "
           "4.5% below the stationary loss, outside the +/-4% band; see "
           "test_mc_sim.py::TestTransientBehavior for the exact-recursion "
           "evidence that the simulator itself is correct",
)
def test_criterion_2_convergence_reproduction():
    t0 = time.monotonic()
    rep = simulate(SimConfig(queue=QueueParams(0.5, 10), success_prob_f=0.5,
                             total_packets=1000, num_runs=100_000,
                             seed=20260822))
    elapsed = time.monotonic() - t0
    phi = 0.5 / 11.0
    gap = rep.mean_loss_fraction / phi - 1.0
    exact_gap = oracles.exact_mean_loss(0.5, 0.5, 10, 1000) / phi - 1.0
    ok = abs(gap) <= 0.04
    print(f"CRITERION 2: {'PASS' if ok else 'FAIL'} - mean loss "
          f"{rep.mean_loss_fraction:.6f} vs stationary {phi:.6f}, relative "
          f"gap {gap:+.2%} outside the +/-4% band; exact expectation of the "
          f"protocol gives {exact_gap:+.2%}, so the band cannot be met from "
          f"a cold start at 1000 packets ({elapsed:.1f}s, budget 120s)")
    assert elapsed < 120.0
    # simulator sanity within the same run: agrees with the exact recursion
    assert abs(gap - exact_gap) <= 4.0 * rep.std_error / phi
    assert abs(gap) <= 0.04


def test_criterion_3_unimodality_and_residual():
    grid = np.exp(np.linspace(math.log(1e-4), math.log(316.0), 2000))
    checked = 0
    for model in (exp_model(), q_model()):
        for q in (0.1, 0.3, 0.5, 0.8, 1.0):
            for ratio in (1.0, 10.0, 100.0):
                sysp = system(ratio)
                qp = QueueParams(q, 10)
                vals = np.array(
                    [efficiency(sysp, qp, model, float(p)).eta for p in grid])
                assert oracles.is_unimodal_grid(vals), (
                    f"eta not unimodal for q={q}, ratio={ratio}, "
                    f"model={type(model).__name__}")
                checked += 1
    worst = 0.0
    model = exp_model()
    for q in (0.1, 0.3, 0.5, 0.8, 1.0):
        for ratio in (1.0, 10.0, 100.0):
            sysp = system(ratio)
            qp = QueueParams(q, 10)
            opt = maximize_unconstrained(sysp, qp, model)
            worst = max(worst, abs(
                stationarity_residual(sysp, qp, model, opt.p_star)))
    ok = worst <= 1e-6
    print(f"CRITERION 3: {'PASS' if ok else 'FAIL'} - {checked} curves "
          f"unimodal on 2000-point grids; worst optimality residual "
          f"{worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_4_analytic_optima():
    # b = 0: argmax at c for any q, K
    model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1.0)
    c = 15.0
    sys0 = SystemParams(rate_R=4000.0, fixed_power_b=0.0, noise_sigma2=1.0,
                        p_min=0.01, p_max=1000.0)
    r0 = maximize_unconstrained(sys0, QueueParams(1.0, 10), model)
    err0 = abs(r0.p_star / c - 1.0)

    b = 10.0
    sysb = SystemParams(rate_R=4000.0, fixed_power_b=b, noise_sigma2=1.0,
                        p_min=0.01, p_max=1000.0)
    rb = maximize_unconstrained(sysb, QueueParams(1.0, 10), model)
    exact = (c + math.sqrt(c * c + 4.0 * c * b)) / 2.0
    errb = abs(rb.p_star / exact - 1.0)

    ok = err0 <= 1e-6 and errb <= 1e-6
    print(f"CRITERION 4: {'PASS' if ok else 'FAIL'} - p* vs analytic: "
          f"no-idle-draw case rel err {err0:.2e}, idle-draw case rel err "
          f"{errb:.2e} (tol 1e-6)")
    assert err0 <= 1e-6
    assert errb <= 1e-6


def test_criterion_5_figure_trends():
    t0 = time.monotonic()
    model = exp_model()
    qs = [round(0.1 * i, 1) for i in range(1, 11)]

    # (a) optimal power grows with the arrival rate
    sysp = system(100.0)
    p_stars = [maximize_unconstrained(sysp, QueueParams(q, 10), model).p_star
               for q in qs]
    mono_a = all(b2 >= a2 * (1 - 1e-9) for a2, b2 in zip(p_stars, p_stars[1:]))

    # (b) the feasibility threshold grows with q; curves stay unimodal
    #     when restricted to the feasible band
    sys_eps = system(100.0, eps=0.01)
    p0s = [qos_threshold(sys_eps, QueueParams(q, 10), model) for q in qs]
    mono_b = all(b2 >= a2 * (1 - 1e-9) for a2, b2 in zip(p0s, p0s[1:]))
    unimodal_b = True
    for q, p0 in zip(qs, p0s):
        lo = max(p0, sys_eps.p_min)
        grid = np.exp(np.linspace(math.log(lo), math.log(sys_eps.p_max), 400))
        vals = np.array(
            [efficiency(sys_eps, QueueParams(q, 10), model, float(p)).eta
             for p in grid])
        unimodal_b = unimodal_b and oracles.is_unimodal_grid(vals)

    # (c) buffer-aware saving shrinks as the source approaches full load
    p_sat = p_stars[-1]
    gains = [power_gain_db(p_sat, p) for p in p_stars]
    mono_c = all(g2 <= g1 + 1e-9 for g1, g2 in zip(gains, gains[1:]))
    zero_at_one = gains[-1] == 0.0

    elapsed = time.monotonic() - t0
    ok = mono_a and mono_b and unimodal_b and mono_c and zero_at_one
    print(f"CRITERION 5: {'PASS' if ok else 'FAIL'} - p*(q) nondecreasing: "
          f"{mono_a}; p0(q) nondecreasing: {mono_b}; constrained curves "
          f"unimodal: {unimodal_b}; gain nonincreasing: {mono_c}; gain(1)=0: "
          f"{zero_at_one} ({elapsed:.1f}s, budget 30s)")
    assert mono_a and mono_b and unimodal_b and mono_c and zero_at_one
    assert elapsed < 30.0


def test_criterion_6_propositions():
    model = exp_model()

    # Prop 1: eta nondecreasing in q at fixed p, 20 x 20 grid; in the
    # deep-overload corner the curve is flat in q to within roundoff, so
    # monotonicity is asserted with a 1e-9 relative float slack
    sysp = system(100.0)
    ok1 = True
    for p in np.exp(np.linspace(math.log(1e-3), math.log(3.0), 20)):
        etas = [efficiency(sysp, QueueParams(float(q), 10), model, float(p)).eta
                for q in np.linspace(0.05, 1.0, 20)]
        ok1 = ok1 and all(
            b2 >= a2 * (1 - 1e-9) for a2, b2 in zip(etas, etas[1:]))

    # Prop 2: every power above the threshold satisfies the loss bound
    ok2 = True
    for q, eps in [(0.3, 0.05), (0.6, 0.01), (0.9, 0.001)]:
        sys_eps = system(100.0, eps=eps)
        qp = QueueParams(q, 10)
        p0 = qos_threshold(sys_eps, qp, model)
        for p in np.exp(np.linspace(math.log(p0), math.log(sys_eps.p_max), 50)):
            phi = packet_loss(qp, model.success_probability(float(p)))
            ok2 = ok2 and phi <= eps + 1e-12

    # Prop 3: the threshold is monotone in q
    sys_eps = system(100.0, eps=0.01)
    p0s = [qos_threshold(sys_eps, QueueParams(float(q), 10), model)
           for q in np.linspace(0.05, 1.0, 25)]
    ok3 = all(b2 >= a2 - 1e-9 * max(a2, 1.0)
              for a2, b2 in zip(p0s, p0s[1:]))

    # Prop 4: the clamp formula equals a dense-grid constrained argmax
    c = model.power_scale
    worst4 = 0.0
    configs = [
        (q, K, ratio, eps, 1e-3, pmax)
        for q in (0.2, 0.5, 0.8, 0.95)
        for K, ratio in [(5, 10.0), (10, 100.0)]
        for eps, pmax in [(1.0, 3.16), (0.01, 3.16), (1.0, 0.02)]
    ][:20]
    assert len(configs) == 20
    for q, K, ratio, eps, pmin, pmax in configs:
        sys_c = SystemParams(rate_R=4000.0, fixed_power_b=ratio * SIGMA2,
                             noise_sigma2=SIGMA2, p_min=pmin, p_max=pmax,
                             loss_bound_epsilon=eps)
        res = maximize_constrained(sys_c, QueueParams(q, K), model)
        ref = oracles.grid_constrained_argmax_exp(
            q, K, 4000.0, ratio * SIGMA2, 1.0, c, eps, pmin, pmax)
        assert ref is not None and res.p_star_constrained is not None
        worst4 = max(worst4, abs(res.p_star_constrained / ref - 1.0))
    ok4 = worst4 <= 1e-4

    ok = ok1 and ok2 and ok3 and ok4
    print(f"CRITERION 6: {'PASS' if ok else 'FAIL'} - monotone in q: {ok1}; "
          f"threshold sufficiency: {ok2}; threshold monotone: {ok3}; "
          f"projection vs grid argmax worst rel err {worst4:.2e} (tol 1e-4)")
    assert ok1 and ok2 and ok3 and ok4


def test_criterion_7_infinite_buffer_limits():
    model = exp_model()
    c = model.power_scale
    K = 10_000
    b = 0.1
    sysp = SystemParams(rate_R=4000.0, fixed_power_b=b, noise_sigma2=SIGMA2,
                        p_min=1e-4, p_max=10.0)

    # overloaded side: f < q, the buffer saturates
    q, f = 0.7, 0.4
    p = c / math.log(1.0 / f)
    qp = QueueParams(q, K)
    rho = q * (1 - f) / ((1 - q) * f)
    from greenlink import full_buffer_prob
    pik_err = abs(full_buffer_prob(qp, f) / ((rho - 1) / rho) - 1.0)
    phi_err = abs(packet_loss(qp, f) / ((q - f) / q) - 1.0)
    eta_over = efficiency(sysp, qp, model, p).eta
    eta_over_err = abs(eta_over / (4000.0 * f / (b + p)) - 1.0)

    # draining side: f > q, the buffer empties
    q2, f2 = 0.3, 0.8
    p2 = c / math.log(1.0 / f2)
    qp2 = QueueParams(q2, K)
    pik_small = full_buffer_prob(qp2, f2)
    eta_under = efficiency(sysp, qp2, model, p2).eta
    eta_under_err = abs(eta_under / (4000.0 / (b / q2 + p2 / f2)) - 1.0)

    worst = max(pik_err, phi_err, eta_over_err, eta_under_err)
    ok = worst <= 1e-4 and pik_small <= 1e-6
    print(f"CRITERION 7: {'PASS' if ok else 'FAIL'} - K=1e4 vs unbounded "
          f"forms: full-buffer rel err {pik_err:.2e}, loss rel err "
          f"{phi_err:.2e}, eta rel errs {eta_over_err:.2e}/"
          f"{eta_under_err:.2e} (tol 1e-4); draining-side full-buffer prob "
          f"{pik_small:.1e} (tol 1e-6)")
    assert worst <= 1e-4
    assert pik_small <= 1e-6


def test_criterion_8_snr_share_trends():
    # Underdetermined percentages: with the documented assumption set
    # (idle draw = full-load amplifier draw, noise set by SNR against the
    # cap), only the qualitative orderings are asserted.
    pmax = 3.1622776601683795  # 35 dBm
    b = pmax                   # idle power = 50% of full-load consumption

    def p_share(snr_db, q):
        sigma2 = pmax / 10 ** (snr_db / 10.0)
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0,
                                  noise_sigma2=sigma2)
        sysp = SystemParams(rate_R=4000.0, fixed_power_b=b,
                            noise_sigma2=sigma2, p_min=pmax * 1e-4,
                            p_max=pmax)
        res = maximize_constrained(sysp, QueueParams(q, 10), model)
        return 100.0 * res.p_star_constrained / pmax

    s30_half = p_share(30.0, 0.5)
    s30_low = p_share(30.0, 0.04)
    s20_half = p_share(20.0, 0.5)
    s20_low = p_share(20.0, 0.04)

    ok = (s20_half > s30_half and s20_low > s30_low and s30_low < s30_half)
    print(f"CRITERION 8: {'PASS' if ok else 'FAIL'} - p*/p_max shares: "
          f"30dB q=0.5 -> {s30_half:.2f}%, 30dB q=0.04 -> {s30_low:.2f}%, "
          f"20dB q=0.5 -> {s20_half:.2f}%, 20dB q=0.04 -> {s20_low:.2f}%; "
          f"lower SNR needs a larger share and light traffic a smaller one")
    assert s20_half > s30_half
    assert s20_low > s30_low
    assert s30_low < s30_half
