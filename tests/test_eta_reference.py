"""efficiency() against oracles.mp_eta, the paper's bits per joule at 60
digits, over the corner domain of test_monotone_claims (ROADMAP items 9
and 14): both success models, q from 1e-4 to 1, K from 1 to 1e5 and
powers from e^-3 to e^8 sigma2.

Where f(p) >= TINY_F = 1e-6 the library's eta lies within REL = 1e-9
relative of the exact value: its 1 - Phi loses up to about 1.1e-16 / f
relative, 1.1e-10 at most there. Below TINY_F that loss grows without
bound, and where 1 - Phi rounds to 0 the library reads eta = 0 for an
exact value as small as 1e-236; that part is a strict xfail (item 4).
Near unit load, |rho - 1| below about 1e-9, the library's queue law is
off by more than REL too; test_queue_reference pins that as item 4's.
"""

import pytest
from hypothesis import Phase, given, settings

import oracles
from greenlink import ExpUnknownChannel, QueueParams, efficiency
from test_monotone_claims import arrival_probs, buffer_sizes, link_powers

REL = 1e-9


def eta_and_exact(link_power, q, K):
    """(efficiency()'s eta, mp_eta's) at one point of the domain."""
    system, model, p = link_power
    ratio = model.rate_R / model.rate_R0
    if isinstance(model, ExpUnknownChannel):
        success = oracles.mp_exp_success(ratio, model.noise_sigma2)
    else:
        success = oracles.mp_qfunc_success(model.spread_kappa, ratio, model.channel_gain_hh,
                                           model.noise_sigma2)
    exact = oracles.mp_eta(success, p, q, K, system.rate_R, system.fixed_power_b,
                           system.amp_coeff_a)
    return efficiency(system, QueueParams(q, K), model, p).eta, exact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(link_power=link_powers(tiny=False), q=arrival_probs, K=buffer_sizes)
def test_eta_matches_reference(link_power, q, K):
    eta, exact = eta_and_exact(link_power, q, K)
    assert abs(eta - exact) <= REL * exact


# Unmarked, 114 of the 200 cases missed REL: the first at f = 1.39e-8, q = 1,
# K = 19, 3.1e-9 off; 68 read eta = 0 where the exact value lay from 1.1e-236
# to 1.3e-11.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: at f < TINY_F the float 1 - Phi loses its digits, "
                          "and where it rounds to 0 eta reads 0 for a tiny positive exact value")
@settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
@given(link_power=link_powers(tiny=True), q=arrival_probs, K=buffer_sizes)
def test_eta_matches_reference_at_tiny_f(link_power, q, K):
    eta, exact = eta_and_exact(link_power, q, K)
    assert abs(eta - exact) <= REL * exact
