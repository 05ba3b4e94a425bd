"""Finite-buffer slotted queue at the transmitter.

The buffer holds at most K packets. In each slot a new packet arrives
with probability q; whenever a packet is in service (including one that
just arrived to an empty buffer) it departs with probability f, the
packet success probability of the PHY layer. Arrival and success draws
are independent. The queue length is a birth-death chain on {0, ..., K}
whose stationary law is geometric in the load ratio rho.
"""

from dataclasses import dataclass
from math import exp, expm1, inf, log

import numpy as np

__all__ = ["QueueParams", "load_rho", "stationary_distribution", "full_buffer_prob",
           "packet_loss"]

# Treat the chain as balanced when rho is within this distance of 1; the
# geometric formulas lose significance there and the uniform law is exact
# in the limit.
_RHO_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class QueueParams:
    """Arrival probability per slot and buffer capacity in packets."""

    arrival_prob_q: float
    buffer_size_K: int

    def __post_init__(self) -> None:
        if not 0.0 < self.arrival_prob_q <= 1.0:
            # q = 0 means no traffic at all; every stationary quantity
            # degenerates, so reject it outright.
            raise ValueError("arrival probability must lie in (0, 1]")
        if not (isinstance(self.buffer_size_K, (int, np.integer)) and self.buffer_size_K >= 1):
            raise ValueError("buffer size must be an integer >= 1")


def _check_f(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")


def load_rho(queue: QueueParams, f: float) -> float:
    """Load ratio rho = q(1-f) / ((1-q)f); inf when (1-q)f is 0 in floating point."""
    return _load_and_full(queue, f)[0]


def _load_and_full(queue: QueueParams, f: float) -> tuple[float, float]:
    """(rho, Pr(full)) from one read of the queue law.

    Pr(full) = rho**K (1 - rho) / (1 - rho**(K+1)). Above unit load it is
    taken over 1/rho so rho**K cannot overflow (rho = inf gives 1), and
    within _RHO_UNIT_TOL of rho = 1, where both forms cancel, the uniform
    law's 1/(K+1) is used. rho is inf when (1-q)f is 0: f = 0, q = 1, or a
    product that underflows.
    """
    if not 0.0 <= f <= 1.0:  # _check_f, inline: every read of the law passes here
        raise ValueError("success probability must lie in [0, 1]")
    q = queue.arrival_prob_q
    den = (1.0 - q) * f
    rho = q * (1.0 - f) / den if den != 0.0 else inf
    K = queue.buffer_size_K
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return rho, 1.0 / (K + 1)
    if rho < 1.0:
        return rho, rho**K * (1.0 - rho) / (1.0 - rho ** (K + 1))
    r = 1.0 / rho
    return rho, (1.0 - r) / (1.0 - r ** (K + 1))


def stationary_distribution(queue: QueueParams, f: float) -> np.ndarray:
    """Closed-form stationary law: array of K+1 probabilities, entry s
    proportional to rho**s, s being the number of buffered packets.

    The weights are t**j with t = min(rho, 1/rho) <= 1, j counted from the
    empty end below unit load and from the full end above it, so no weight
    overflows; their sum normalizes them. rho = inf (f = 0, or q = 1 with
    f < 1) gives t = 0, all mass on the full state, and rho = 0 (f = 1) all
    mass on the empty state. Within _RHO_UNIT_TOL of rho = 1 the law is
    uniform, as in full_buffer_prob.
    """
    rho = load_rho(queue, f)
    K = queue.buffer_size_K
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return np.full(K + 1, 1.0 / (K + 1))
    below = rho < 1.0
    j = np.arange(K + 1.0)
    weights = (rho if below else 1.0 / rho) ** (j if below else K - j)
    return weights / weights.sum()


def full_buffer_prob(queue: QueueParams, f: float) -> float:
    """Stationary probability that the buffer holds K packets."""
    return _load_and_full(queue, f)[1]


def _full_and_log_slope(queue: QueueParams, f: float) -> tuple[float, float, float]:
    """(Pr(full), Pr(full) / q, d ln Pr(full) / d ln rho) from one read of the law.

    Below unit load Pr(full) / q is (rho / q) rho**(K-1) (1 - rho) / (1 - rho**(K+1)),
    where rho / q = (1 - f) / ((1 - q) f) does not shrink with q, so a
    subnormal q, whose product q (1 - f) has lost its bits, is divided out.
    At or above unit load Pr(full) >= 1/(K+1) is divided by q as it stands.

    A geometric law on {0..K} with ratio exp(-y), y > 0, has mean
    1/expm1(y) - (K+1)/expm1((K+1) y). Below unit load the state has
    ratio rho (y = -ln rho), giving E; above it K - state has ratio
    1/rho (y = ln rho), giving K - E. Balanced load gives K/2, rho = inf
    gives 0 and rho = 0 gives K.
    """
    rho, full = _load_and_full(queue, f)
    q, K = queue.arrival_prob_q, queue.buffer_size_K
    if rho > 1.0 - _RHO_UNIT_TOL:
        full_q = full / q
    else:
        rho_over_q = (1.0 - f) / ((1.0 - q) * f)
        full_q = rho_over_q * rho ** (K - 1) * (1.0 - rho) / (1.0 - rho ** (K + 1))
    if rho == 0.0:
        return full, full_q, float(K)
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return full, full_q, 0.5 * K
    y = abs(log(rho))
    z = (K + 1) * y
    # 1/expm1(t) as exp(-t) / -expm1(-t): a large t underflows to 0, not overflows
    mean = exp(-y) / -expm1(-y) - (K + 1) * (exp(-z) / -expm1(-z))
    return full, full_q, mean if rho > 1.0 else K - mean


def packet_loss(queue: QueueParams, f: float) -> float:
    """Fraction of arriving packets dropped: Phi = (1 - f) * Pr(buffer full).

    A drop needs a full buffer and a failed head-of-line transmission in
    the same slot, so f = 1 gives zero loss at any load.
    """
    return (1.0 - f) * _load_and_full(queue, f)[1]
