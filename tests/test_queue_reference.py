"""The closed-form queue law against its 60-digit reference.

oracles.mp_stationary_ends and oracles.mp_loss evaluate the birth-death
law at 60 digits from the same float q and f, with no load regimes, so
each test here measures the library's rounding and nothing else.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from greenlink import QueueParams, full_buffer_prob, packet_loss, stationary_distribution

EPS = 2.0**-52
SLACK = 4 * 5e-324  # a few subnormal ulps, for results that underflow into subnormals
TINY = 2.2250738585072014e-308  # the smallest normal float

corner_q = st.sampled_from([5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1 - 1e-9, 1.0])
corner_f = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.5, 1 - 1e-9, 1 - 2**-53, 1.0])
buffers = st.sampled_from([1, 2, 10, 1000, 10**6])


def _load(q, f):
    """rho in floats, inf where the down-step is 0; only sizes the bound."""
    return q * (1.0 - f) / ((1.0 - q) * f) if (1.0 - q) * f else math.inf


def _bound(q, f, K):
    """Relative error allowed at (q, f, K) outside the unit-load band.

    The first term carries rho's own rounding (a few ulps) through the law:
    d ln Pr(full) / d ln rho = K - E[state] lies in [0, K], and the ends'
    log-slopes are as small. The second is the rounding of
    1 - rho**(K+1) ~ (K+1)(1 - rho) that today's subtraction divides by
    near unit load (item 4 of ROADMAP.md removes it with a log-domain law).
    """
    return 4 * (K + 1) * EPS + EPS / ((K + 1) * abs(_load(q, f) - 1.0))


def _close(got, ref, rel):
    return abs(got - ref) <= rel * ref + SLACK


@st.composite
def laws(draw):
    """(q, f, K): corners, free floats, and loads from 1e-9 to 1 off unit load."""
    K = draw(buffers)
    q = draw(st.one_of(corner_q, st.floats(5e-324, 1.0)))
    if draw(st.booleans()):
        f = draw(st.one_of(corner_f, st.floats(0.0, 1.0)))
    else:  # rho = 1 + delta
        delta = draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-8.9, 0.0))
        f = min(1.0, q / (q + (1.0 - q) * (1.0 + delta)))
    return q, f, K


@settings(max_examples=250, deadline=None, derandomize=True)
@given(laws())
@example((0.5, 0.8, 2))
@example((1.0, 0.4, 10))
@example((0.5, 0.0, 10**6))
@example((0.5, 1.0, 10**6))
@example((0.3, 0.1, 10**6))
def test_law_within_its_bound_of_the_reference(law):
    q, f, K = law
    # A load product below the smallest normal float has lost bits before the
    # law is read, which no bound on the law can cover.
    products = (q * (1.0 - f), (1.0 - q) * f)
    if any(0.0 < x < TINY for x in products) or abs(_load(q, f) - 1.0) < 1e-9:
        return
    queue, rel = QueueParams(q, K), _bound(q, f, K)
    empty, full = oracles.mp_stationary_ends(q, f, K)
    assert _close(full_buffer_prob(queue, f), full, rel)
    assert _close(packet_loss(queue, f), oracles.mp_loss(q, f, K), rel)
    probs = stationary_distribution(queue, f)
    assert _close(probs[-1], full, rel)
    assert _close(probs[0], empty, rel)


def _near_unit(delta):
    """(q, f) at q = 1/2 with rho = (1 - f)/f within an ulp or so of 1 + delta."""
    return 0.5, 1.0 / (2.0 + delta)


# Item 4's gate: 1e-12 relative, 1e-8 at K = 1e6. Inside the band
# |rho - 1| < 1e-9 the law is taken as uniform, off by about K |rho - 1| / 2;
# just outside it 1 - rho**(K+1) cancels. Each case below misses the gate today.
_ITEM_4 = pytest.mark.xfail(strict=True, reason="unit-load cancellation (ROADMAP item 4)")


@_ITEM_4
@pytest.mark.parametrize("delta, K", [(9e-10, 10), (9e-10, 1000), (9e-10, 10**6),
                                      (-9e-10, 1000), (1.1e-9, 10), (-1.2e-9, 1000)])
def test_unit_load_meets_item_4_gate(delta, K):
    q, f = _near_unit(delta)
    rel = 1e-8 if K == 10**6 else 1e-12
    empty, full = oracles.mp_stationary_ends(q, f, K)
    queue = QueueParams(q, K)
    assert _close(full_buffer_prob(queue, f), full, rel)
    probs = stationary_distribution(queue, f)
    assert _close(probs[-1], full, rel)
    assert _close(probs[0], empty, rel)
