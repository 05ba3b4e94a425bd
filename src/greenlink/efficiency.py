"""Cross-layer energy efficiency of the buffered transmitter.

The metric divides goodput by total drawn power:

    eta(p) = q (1 - Phi) R / (b + a p q (1 - Phi) / f)

where Phi is the stationary buffer-loss fraction at success probability
f = f(p). The denominator charges the amplifier only for slots that
actually transmit (a busy slot occurs with probability q(1-Phi)/f in
steady state), plus a fixed circuit draw b that is burned every slot.
The fixed draw is what pulls the optimum away from pure per-packet
energy: at low traffic, idling dominates the bill.
"""

import math
from dataclasses import dataclass

from .queueing import QueueParams, full_buffer_log_slope, full_buffer_prob, packet_loss
from .success import SuccessModel

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


def efficiency(
    system: SystemParams, queue: QueueParams, model: SuccessModel, p: float
) -> EfficiencyPoint:
    """Evaluate eta(p) in bits per joule at transmit power p (watts)."""
    if not p > 0.0:
        raise ValueError("transmit power must be positive")
    f = model.success_probability(p)
    phi = packet_loss(queue, f)
    delivered = queue.arrival_prob_q * (1.0 - phi)  # packets out per slot
    if delivered <= 0.0:
        # No goodput. phi is exactly 1 when f is 0 or has underflowed
        # (f <= 1e-300 at any q above ~1e-283), and 1 - phi can round to
        # zero while f is still normal; eta's numerator is then zero
        # whatever the power bill, and f is never divided by.
        eta = 0.0
    else:
        eta = system.rate_R * delivered / (
            system.fixed_power_b + system.amp_coeff_a * p * delivered / f
        )
    feasible = phi <= system.loss_bound_epsilon and system.p_min <= p <= system.p_max
    return EfficiencyPoint(power_p=p, eta=eta, phi=phi, f=f, feasible=feasible)


def stationarity_residual(
    system: SystemParams, queue: QueueParams, model: SuccessModel, p: float
) -> float:
    """Normalized exact slope d ln(eta) / d ln(p) at p, in [-1, 1].

    With F = p f'/f, X = a p g/f (g = q(1 - Phi)) and the buffer term

        H = Pr(full) (f + K - E[state]) F / (1 - Phi) = -p Phi' / (1 - Phi) >= 0,

    the slope is (b H + X (F - 1)) / (b + X). Returned is
    (b H + X (F - 1)) / (b H + X (F + 1)): same sign (positive below the
    maximizer, negative above it), smooth, and with a magnitude that
    certifies an optimum even where one term is tiny (q -> 0). Where eta
    is identically zero (1 - Phi rounds to 0, as it does once f
    underflows, at low power) it is +1.
    """
    if not p > 0.0:
        raise ValueError("transmit power must be positive")
    f = model.success_probability(p)
    full = full_buffer_prob(queue, f)
    delivered = 1.0 - (1.0 - f) * full  # 1 - Phi
    if delivered <= 0.0:  # no goodput, the same rule as in efficiency
        return 1.0
    F = p * model.success_derivative(p) / f
    H = full * (f + full_buffer_log_slope(queue, f)) * F / delivered
    bH = system.fixed_power_b * H
    X = system.amp_coeff_a * p * queue.arrival_prob_q * delivered / f
    return (bH + X * (F - 1.0)) / (bH + X * (F + 1.0))


def power_gain_db(p_star_q1: float, p_star: float) -> float:
    """Power saving, in dB, of the buffer-aware optimum versus the full-load one.

    Positive when the full-load design p_star_q1 over-provisions relative
    to the optimum p_star at the actual traffic level.
    """
    if not (p_star_q1 > 0.0 and p_star > 0.0):
        raise ValueError("both powers must be positive")
    return 10.0 * math.log10(p_star_q1 / p_star)
