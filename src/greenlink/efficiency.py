"""Cross-layer energy efficiency of the buffered transmitter.

The metric divides goodput by total drawn power:

    eta(p) = q (1 - Phi) R / (b + a p q (1 - Phi) / f)

where Phi is the stationary buffer-loss fraction at success probability
f = f(p). The denominator charges the amplifier only for slots that
actually transmit (a busy slot occurs with probability q(1-Phi)/f in
steady state), plus a fixed circuit draw b that is burned every slot.
The fixed draw is what pulls the optimum away from pure per-packet
energy: at low traffic, idling dominates the bill.

efficiency() composes three private rules, one per level of
dependence: _success gives f, which depends on neither q nor b; _loss
gives phi and feasibility, which do not depend on b; _eta gives eta from
p, f and phi. The sweep command calls each at its own level, f once per
power, phi once per power and distinct queue, eta once per curve and
power, so each quantity has one rule. The rules look
model.success_probability and packet_loss up at each call, so a wrapper
installed on either is used.

The exact slope has one rule and one form too: _slope_reader(system,
queue, model) binds b/a and the model's link reader p -> (f, F) once,
F = p f'/f, and returns p -> (u + F - 1)/(u + F + 1), so a power search
builds it once, and each power reads f and F in one call and the queue
law in one read. stationarity_residual is that reader built for one call.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .queueing import QueueParams, _full_and_log_slope, packet_loss
from .success import SuccessModel, _link_reader

__all__ = [
    "SystemParams",
    "EfficiencyPoint",
    "efficiency",
    "stationarity_residual",
    "power_gain_db",
]

@dataclass(frozen=True)
class SystemParams:
    """Link-level constants: rate, power budget, and QoS bound.

    All powers are in watts. amp_coeff_a scales radiated power into
    drawn amplifier power; loss_bound_epsilon = 1 disables the QoS
    constraint since a loss fraction never exceeds 1.
    """

    rate_R: float
    fixed_power_b: float
    noise_sigma2: float
    p_min: float
    p_max: float
    amp_coeff_a: float = 1.0
    loss_bound_epsilon: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate_R > 0.0:
            raise ValueError("rate must be positive")
        if not self.fixed_power_b >= 0.0:
            raise ValueError("fixed power draw cannot be negative")
        if not self.noise_sigma2 > 0.0:
            raise ValueError("noise power must be positive")
        if not 0.0 < self.p_min < self.p_max:
            raise ValueError("power limits must satisfy 0 < p_min < p_max")
        if not self.amp_coeff_a > 0.0:
            raise ValueError("amplifier coefficient must be positive")
        if not 0.0 < self.loss_bound_epsilon <= 1.0:
            raise ValueError("loss bound must lie in (0, 1]")
        # NaN and -inf fail the checks above, and p_min < p_max bounds p_min.
        # The noise comes before the fixed draw, which the CLI may scale from it.
        for name in ("rate_R", "noise_sigma2", "fixed_power_b", "p_max", "amp_coeff_a"):
            value = getattr(self, name)
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EfficiencyPoint:
    """Efficiency and its ingredients at one transmit power."""

    power_p: float
    eta: float  # bits per joule
    phi: float  # buffer-loss fraction
    f: float  # packet success probability
    feasible: bool  # phi <= epsilon and p within [p_min, p_max]


def _success(model: SuccessModel, p: float) -> float:
    """f(p) at a transmit power p > 0 (watts)."""
    if not p > 0.0:
        raise ValueError("transmit power must be positive")
    return model.success_probability(p)


def _loss(system: SystemParams, queue: QueueParams, p: float, f: float) -> Tuple[float, bool]:
    """(phi, feasible) at power p with success probability f; b is not read."""
    phi = packet_loss(queue, f)
    return phi, phi <= system.loss_bound_epsilon and system.p_min <= p <= system.p_max


def _eta(system: SystemParams, queue: QueueParams, p: float, f: float, phi: float) -> float:
    """eta in bits per joule at power p, success probability f and loss fraction phi."""
    delivered = queue.arrival_prob_q * (1.0 - phi)  # packets out per slot
    if delivered <= 0.0:
        # No goodput. phi is exactly 1 when f is 0 or has underflowed
        # (f <= 1e-300 at any q above ~1e-283), and 1 - phi can round to
        # zero while f is still normal; eta's numerator is then zero
        # whatever the power bill, and f is never divided by.
        return 0.0
    bill = system.fixed_power_b + system.amp_coeff_a * p * delivered / f
    if bill == 0.0:  # b = 0 and a p delivered / f underflowed (q -> 0): eta = R f / (a p)
        a_p = system.amp_coeff_a * p  # divided out one factor at a time where it underflows
        return system.rate_R * f / a_p if a_p else system.rate_R * f / system.amp_coeff_a / p
    return system.rate_R * delivered / bill


def efficiency(
    system: SystemParams, queue: QueueParams, model: SuccessModel, p: float
) -> EfficiencyPoint:
    """Evaluate eta(p) in bits per joule at transmit power p (watts)."""
    f = _success(model, p)
    phi, feasible = _loss(system, queue, p, f)
    return EfficiencyPoint(p, _eta(system, queue, p, f, phi), phi, f, feasible)


def stationarity_residual(
    system: SystemParams, queue: QueueParams, model: SuccessModel, p: float
) -> float:
    """Normalized exact slope d ln(eta) / d ln(p) at p, in [-1, 1].

    With F = p f'/f, X = a p q (1 - Phi)/f and the buffer term
    H = -p Phi'/(1 - Phi) >= 0, the slope is (b H + X (F - 1)) / (b + X).
    Returned is its numerator over b H + X (F + 1), in the form

        (u + F - 1) / (u + F + 1),
        u = b H / X = (b/a)/p (Pr(full)/q) (f + K - E[state]) F f / (1 - Phi)**2,

    which has the slope's sign (positive below the maximizer, negative
    above it), is smooth, and has a magnitude that certifies an optimum
    even where one term of the slope is tiny. Neither u nor F holds f' or
    a bare factor of q, and b/a is divided by p first, so a subnormal q or
    noise power leaves them in range. It is +1 where u + F is inf, and where
    eta is identically zero (1 - Phi rounds to 0 once f underflows).
    """
    return _slope_reader(system, queue, model)(p)


def _slope_reader(
    system: SystemParams, queue: QueueParams, model: SuccessModel
) -> Callable[[float], float]:
    """p -> stationarity_residual(system, queue, model, p), built once per search.

    b/a and the model's link reader p -> (f, F) are bound once, and each
    power reads f and F in one call and the queue law in one read.
    """
    read = _link_reader(model)
    b_over_a = system.fixed_power_b / system.amp_coeff_a

    def slope(p: float) -> float:
        if not 0.0 < p < math.inf:
            _success(model, p)  # the p > 0 rule, then the model's own for p = inf
        f, F = read(p)
        full, full_q, log_slope = _full_and_log_slope(queue, f)
        delivered = 1.0 - (1.0 - f) * full  # 1 - Phi
        if delivered <= 0.0:  # no goodput, the same rule as in efficiency
            return 1.0
        u = b_over_a / p * full_q * (f + log_slope) * F * f / delivered / delivered
        if not u < math.inf:  # b/a/p overflowed: divide p into F, as f'/f, instead
            u = b_over_a * full_q * (f + log_slope) * (F / p * f) / delivered / delivered
        return (u + F - 1.0) / (u + F + 1.0) if u + F < math.inf else 1.0

    return slope


def power_gain_db(p_star_q1: float, p_star: float) -> float:
    """Power saving, in dB, of the buffer-aware optimum versus the full-load one.

    Positive when the full-load design p_star_q1 over-provisions relative
    to the optimum p_star at the actual traffic level.
    """
    if not (p_star_q1 > 0.0 and p_star > 0.0):
        raise ValueError("both powers must be positive")
    return 10.0 * math.log10(p_star_q1 / p_star)
