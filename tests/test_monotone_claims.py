"""The paper's monotone claims as derandomized property tests over the corner domain.

The links span R/R0 from 0.05 to 8, b/sigma2 of 0 or 1e-3 to 1e5, an
amplifier coefficient a from e^-2 to e^2, loss bounds epsilon from 1e-9
to 1, buffers K from 1 to 1e5, powers from e^-3 to e^8 sigma2, arrival
probabilities from 1e-4 to 1, and both success models. Over that domain:

- the QoS threshold p0 does not fall as q rises, nor rise as K rises;
- eta does not fall as K rises at a fixed power;
- on exp links, p* does not fall as q rises, and the buffer-aware saving
  gain_db against the full-load design is never negative.

Each comparison allows 1e-9 relative slack: p0 is found to a bracket of
1e-9 in ln(p), and p* to one of 1e-14. p* is not monotone in K, and the
qfunc p*(q) and Proposition 1 (eta nondecreasing in q) fail at corners of
this domain (ROADMAP items 3 and 4), so none of them is claimed here.
"""

import math

from hypothesis import given, settings, strategies as st

from greenlink import (
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SystemParams,
    efficiency,
    maximize_constrained,
    maximize_unconstrained,
    power_gain_db,
    qos_threshold,
)

SIGMA2 = 1e-3
RATE = 4000.0
SLACK = 1e-9


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


arrival_probs = st.one_of(st.just(1.0), log_uniform(1e-4, 1.0))
buffer_sizes = st.one_of(st.sampled_from([1, 100_000]),
                         st.floats(0.0, math.log(1e5)).map(lambda t: round(math.exp(t))))


@st.composite
def links(draw, models=st.sampled_from(["exp", "qfunc"])):
    """(system, model) of one link of the domain."""
    rate_R0 = RATE / draw(log_uniform(0.05, 8.0))
    if draw(models) == "exp":
        model = ExpUnknownChannel(rate_R=RATE, rate_R0=rate_R0, noise_sigma2=SIGMA2)
    else:
        model = QKnownChannel(rate_R=RATE, rate_R0=rate_R0,
                              spread_kappa=draw(st.sampled_from([2.0, 10.0, 100.0])),
                              channel_gain_hh=1.0, noise_sigma2=SIGMA2)
    b_ratio = draw(st.one_of(st.just(0.0), log_uniform(1e-3, 1e5)))
    system = SystemParams(rate_R=RATE, fixed_power_b=b_ratio * SIGMA2, noise_sigma2=SIGMA2,
                          p_min=0.01, p_max=10.0 ** 3.5 / 1000.0,
                          amp_coeff_a=draw(log_uniform(math.exp(-2.0), math.exp(2.0))),
                          loss_bound_epsilon=draw(log_uniform(1e-9, 1.0)))
    return system, model


def rising(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


def not_below(low, high):
    """high >= low, to SLACK relative; inf (infeasible) is above every power."""
    return high >= low * (1.0 - SLACK)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(link=links(), qs=rising(arrival_probs), K=buffer_sizes)
def test_qos_threshold_does_not_fall_as_q_rises(link, qs, K):
    system, model = link
    low, high = (qos_threshold(system, QueueParams(q, K), model) for q in qs)
    assert not_below(low, high)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(link=links(), q=arrival_probs, Ks=rising(buffer_sizes),
       p_ratio=log_uniform(math.exp(-3.0), math.exp(8.0)))
def test_eta_does_not_fall_as_K_rises(link, q, Ks, p_ratio):
    system, model = link
    low, high = (efficiency(system, QueueParams(q, K), model, p_ratio * SIGMA2).eta
                 for K in Ks)
    assert not_below(low, high)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(link=links(), q=arrival_probs, Ks=rising(buffer_sizes))
def test_qos_threshold_does_not_rise_as_K_rises(link, q, Ks):
    system, model = link
    small, large = (qos_threshold(system, QueueParams(q, K), model) for K in Ks)
    assert not_below(large, small)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(link=links(models=st.just("exp")), qs=rising(arrival_probs), K=buffer_sizes)
def test_exp_optimum_rises_with_q_and_saves_against_full_load(link, qs, K):
    system, model = link
    low, high = (maximize_unconstrained(system, QueueParams(q, K), model).p_star for q in qs)
    assert not_below(low, high)
    p_full = maximize_constrained(system, QueueParams(1.0, K), model).p_star_constrained
    p_here = maximize_constrained(system, QueueParams(qs[0], K), model).p_star_constrained
    if p_full is not None and p_here is not None:  # both meet the loss bound
        assert power_gain_db(p_full, p_here) >= 10.0 * math.log10(1.0 - SLACK)
