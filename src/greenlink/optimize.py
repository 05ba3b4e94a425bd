"""Transmit-power selection for the buffered-transmitter efficiency metric.

The search takes eta(p) as quasi-concave, so that its maximizer is the
one sign change, from + to -, of the exact slope d ln(eta)/d ln(p)
(`stationarity_residual`), found by a Brent zero-finder in ln(p). That
held on every exp-model link tested; the qfunc model's slope can change
sign two or three times, and the search may then settle on a lower
peak. When the slope does not fall from + to - across the search range,
a walk doubles p from the search floor to the first pair (p, 2p) across
which it does, and Brent runs inside that pair. Each search builds one
slope reader (`efficiency._slope_reader`) and reads every power through
it; the floor alone goes through the public `stationarity_residual`,
which gives the same bits.
Phi is strictly decreasing in p, so the QoS bound Phi <= epsilon is a
minimum power p0, the zero of Phi - epsilon, and the constrained
optimum is the best power on [max(p0, p_min), p_max]
(`maximize_constrained`). The light- and heavy-traffic limits
(`limit_optimizer`) are the same search on a saturated queue, q = 1,
with the fixed draw dropped for q -> 0.
"""

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Literal, Optional, Tuple

from .efficiency import SystemParams, _slope_reader, efficiency, stationarity_residual
from .queueing import QueueParams, packet_loss
from .success import QKnownChannel, SuccessModel

__all__ = [
    "Binding",
    "Optimum",
    "maximize_unconstrained",
    "qos_threshold",
    "maximize_constrained",
    "limit_optimizer",
]

_WALK_REACH = 2.0 ** 60  # the walk gives up this factor above the search ceiling
_LOG_BRACKET_TOL = 1e-9  # QoS threshold: bracket width in ln(p)
_LOG_ROOT_TOL = 1e-14  # optima: bracket width in ln(p)
_EPS = sys.float_info.epsilon


class Binding(Enum):
    """Which constraint, if any, pins the constrained optimum."""

    INTERIOR = "interior"
    QOS_BOUND = "qos_bound"
    POWER_CAP = "power_cap"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Optimum:
    """Result of a power search; constrained fields are None until filled in.

    p_star is the first interior peak of eta: the maximizer when eta is
    quasi-concave, as on every exp-model link tested, but a qfunc link can
    peak twice. p_star, eta_star and certificate are nan when eta has no
    interior peak. bracket is the pair the zero-finder started from,
    or the last pair walked when there is no peak; iterations counts
    slope evaluations, the walk's included; and certificate is the
    normalized slope at p_star (near 0 at an interior optimum).
    p0 is the smallest power meeting the loss bound, math.inf when no
    power up to p_max does; in that case p_star_constrained stays None
    and binding is INFEASIBLE.
    """

    p_star: float
    eta_star: float
    bracket: Tuple[float, float]
    iterations: int
    certificate: float = math.nan
    p0: Optional[float] = None
    p_star_constrained: Optional[float] = None
    binding: Optional[Binding] = None


def _root_log(
    fun: Callable[[float], float], lo: float, hi: float,
    f_lo: float, f_hi: float, tol: float,
) -> Tuple[float, float, float, float, int]:
    """Brent's zero-finder (Brent 1973, ch. 4) for fun(p) over ln(p) in [ln lo, ln hi].

    f_lo = fun(lo) and f_hi = fun(hi) must differ in sign. Returns the final
    bracket, about tol wide in ln(p), as (p, fun(p), p_other, fun(p_other),
    evaluations), the end with the smaller |fun| first.
    """
    # |fa|, |fb| and |fc| ride along with fa, fb and fc, each taken once per
    # new value; x if x >= 0.0 else -x is abs(x) for every comparison below.
    exp, copysign = math.exp, math.copysign
    two_eps, half_tol = 2.0 * _EPS, 0.5 * tol
    a, b, fa, fb = math.log(lo), math.log(hi), f_lo, f_hi
    fa_abs, fb_abs = abs(fa), abs(fb)
    c, fc, fc_abs = a, fa, fa_abs
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, fc_abs = a, fa, fa_abs
            d = e = b - a
        if fc_abs < fb_abs:
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            fa_abs, fb_abs, fc_abs = fb_abs, fc_abs, fb_abs
        step_tol = two_eps * (b if b >= 0.0 else -b) + half_tol
        m = 0.5 * (c - b)
        if (m if m >= 0.0 else -m) <= step_tol or fb == 0.0:
            return exp(b), fb, exp(c), fc, evaluations
        if (e if e >= 0.0 else -e) < step_tol or fa_abs <= fb_abs:
            d = e = m  # bisection
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            u = 3.0 * m * q - step_tol * (q if q >= 0.0 else -q)
            v = e * q
            v = v if v >= 0.0 else -v
            if 2.0 * p < (v if v < u else u):  # min(u, v)
                e, d = d, p / q
            else:
                d = e = m
        a, fa, fa_abs = b, fb, fb_abs
        b += d if (d if d >= 0.0 else -d) > step_tol else copysign(step_tol, m)
        fb = fun(exp(b))
        fb_abs = fb if fb >= 0.0 else -fb
        evaluations += 1


def _search_limits(system: SystemParams, model: SuccessModel) -> Tuple[float, float]:
    # Generous starting bracket: well below the noise floor, well above the cap.
    # The qfunc model reads p only through hh p / sigma2, so a channel gain
    # above 1 moves its peak down by hh, and the floor with it. A gain below 1
    # keeps the floor (the walk climbs from it): qos_threshold returns the
    # floor when every power meets the bound, and that must stay low.
    floor = system.noise_sigma2 * 1e-3
    if isinstance(model, QKnownChannel) and model.channel_gain_hh > 1.0:
        floor /= model.channel_gain_hh
    return floor, system.p_max * 1e3


def maximize_unconstrained(
    system: SystemParams, queue: QueueParams, model: SuccessModel
) -> Optimum:
    """Maximizer of eta over p > 0, ignoring p_min/p_max/epsilon.

    p_star is the first sign change of the slope from + to -: the global
    maximizer when eta is quasi-concave. When the slope falls from + to -
    across the search range, Brent runs over that range. Otherwise the
    walk doubles p from the search floor until the first pair (p, 2p)
    with slope(p) > 0 > slope(2p), and Brent runs inside that pair;
    bracket is then no longer the search range. With no such pair below
    _WALK_REACH times the search ceiling, eta has no interior peak:
    p_star and eta_star are nan and bracket is the last pair walked.
    """
    slope = _slope_reader(system, queue, model)
    lo, hi = _search_limits(system, model)
    # The floor goes through the public stationarity_residual: perfbench's
    # traced run fails on a layer no span reaches until ROADMAP item 1 lands.
    r_lo, r_hi = stationarity_residual(system, queue, model, lo), slope(hi)
    calls = 2
    if not r_lo > 0.0 > r_hi:
        ceiling = hi * _WALK_REACH
        hi, r_hi = lo, r_lo
        while not r_lo > 0.0 > r_hi:
            if hi >= ceiling:
                return Optimum(math.nan, math.nan, (lo, hi), calls)
            lo, r_lo = hi, r_hi
            hi = 2.0 * lo
            r_hi = slope(hi)
            calls += 1
    p, r, _, _, n = _root_log(slope, lo, hi, r_lo, r_hi, _LOG_ROOT_TOL)
    eta = efficiency(system, queue, model, p).eta
    return Optimum(p, eta, (lo, hi), calls + n, certificate=r)


def qos_threshold(
    system: SystemParams, queue: QueueParams, model: SuccessModel
) -> float:
    """Smallest power whose loss fraction meets epsilon, to 1e-9 relative.

    Phi(p) is strictly decreasing, so Phi - epsilon has one zero; the
    end of the final bracket that meets the bound is returned. Returns
    math.inf when even p_max misses the bound (infeasible).
    """
    eps = system.loss_bound_epsilon

    def excess(p: float) -> float:
        return packet_loss(queue, model.success_probability(p)) - eps

    lo, _ = _search_limits(system, model)
    e_lo = excess(lo)
    if e_lo <= 0.0:
        return lo
    e_hi = excess(system.p_max)
    if e_hi > 0.0:
        return math.inf
    p, e, p_other, _, _ = _root_log(excess, lo, system.p_max, e_lo, e_hi, _LOG_BRACKET_TOL)
    return p if e <= 0.0 else p_other


def maximize_constrained(
    system: SystemParams, queue: QueueParams, model: SuccessModel
) -> Optimum:
    """Maximize eta subject to Phi <= epsilon and p in [p_min, p_max].

    The answer is the best power on the feasible interval
    [max(p0, p_min), p_max]. For a quasi-concave eta that is the first
    peak projected onto the interval. When the walk found the peak, eta
    need not be quasi-concave (the qfunc model with b = 0 has f(0) > 0,
    so eta -> inf as p -> 0): eta at the interval's floor is compared
    with eta at the projected peak, and the better one kept. With no
    interior peak (p_star and eta_star nan) the better of the interval's
    two ends is kept, the floor when eta falls across it.
    """
    return _constrain(system, queue, model, qos_threshold(system, queue, model))


def _constrain(
    system: SystemParams, queue: QueueParams, model: SuccessModel, p0: float
) -> Optimum:
    """maximize_constrained given p0 = qos_threshold(system, queue, model), which
    does not depend on the fixed draw b: a caller that varies only b finds it once."""
    peak = maximize_unconstrained(system, queue, model)
    if math.isinf(p0):
        return Optimum(peak.p_star, peak.eta_star, peak.bracket, peak.iterations,
                       peak.certificate, p0, None, Binding.INFEASIBLE)
    floor = max(p0, system.p_min)
    # The configured floor, not the QoS bound, may be the active one.
    floor_binding = Binding.QOS_BOUND if p0 >= system.p_min else Binding.POWER_CAP
    p_cc, binding = floor, floor_binding
    if not peak.p_star <= system.p_max:  # above the cap, or no peak (nan)
        p_cc, binding = system.p_max, Binding.POWER_CAP
    elif peak.p_star >= floor:
        p_cc, binding = peak.p_star, Binding.INTERIOR
    # the fast path keeps the search range as its bracket; only a walk moves it
    if p_cc != floor and peak.bracket != _search_limits(system, model):
        eta_cc = (peak.eta_star if binding is Binding.INTERIOR
                  else efficiency(system, queue, model, p_cc).eta)
        if efficiency(system, queue, model, floor).eta > eta_cc:
            p_cc, binding = floor, floor_binding
    return Optimum(peak.p_star, peak.eta_star, peak.bracket, peak.iterations,
                   peak.certificate, p0, p_cc, binding)


def limit_optimizer(
    system: SystemParams,
    model: SuccessModel,
    which: Literal["q_to_0", "q_to_1"],
) -> float:
    """Maximizer of the low- or high-traffic limit of eta, in watts.

    Both limits are maximize_unconstrained on a saturated queue (q = 1),
    where Pr(full) = 1 and eta = R f(p) / (b + a p). q -> 1 is that queue
    as configured. q -> 0 is the same queue with b = 0: at vanishing load
    the fixed draw dominates the bill and only the energy per delivered
    packet, a p / f(p), is left to choose, so the maximizer is f(p)/p's.
    For the qfunc model f(0) > 0, so f(p)/p grows without bound as p -> 0
    and the q -> 0 answer is its first interior peak, nan when it has none.
    """
    if which == "q_to_0":
        system = replace(system, fixed_power_b=0.0)
    elif which != "q_to_1":
        raise ValueError("which must be 'q_to_0' or 'q_to_1'")
    return maximize_unconstrained(system, QueueParams(1.0, 1), model).p_star
