"""Finite-buffer slotted queue at the transmitter.

The buffer holds at most K packets. In each slot a new packet arrives
with probability q; whenever a packet is in service (including one that
just arrived to an empty buffer) it departs with probability f, the
packet success probability of the PHY layer. Arrival and success draws
are independent. The queue length is a birth-death chain on {0, ..., K}
whose stationary law is geometric in the load ratio rho.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueueParams",
    "StationaryDistribution",
    "load_rho",
    "transition_matrix",
    "stationary_distribution",
    "full_buffer_prob",
    "full_buffer_log_slope",
    "packet_loss",
    "infinite_K_loss",
]

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


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary queue-length probabilities and the load they derive from."""

    probs: np.ndarray  # length K+1, indexed by number of buffered packets
    load_rho: float


def _check_f(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")


def load_rho(queue: QueueParams, f: float) -> float:
    """Load ratio rho = q(1-f) / ((1-q)f); inf when (1-q)f is 0 in floating point."""
    _check_f(f)
    q = queue.arrival_prob_q
    den = (1.0 - q) * f
    if den == 0.0:  # f = 0, q = 1, or a product that underflows
        return math.inf
    return q * (1.0 - f) / den


def transition_matrix(queue: QueueParams, f: float) -> np.ndarray:
    """One-slot transition matrix P with P[i, j] = Pr(next state j | current state i).

    Rows sum to one; the stationary row vector satisfies pi @ P = pi.
    A packet arriving to an empty buffer goes straight into service, so
    state 0 can only stay (no arrival, or arrival that departs in-slot)
    or step up (arrival that fails).
    """
    _check_f(f)
    q = queue.arrival_prob_q
    K = queue.buffer_size_K
    up = q * (1.0 - f)  # arrival admitted, head packet not delivered
    down = (1.0 - q) * f  # no arrival, head packet delivered
    stay = (1.0 - q) * (1.0 - f) + q * f

    P = np.zeros((K + 1, K + 1))
    P[0, 0] = 1.0 - q + q * f
    for i in range(K):
        P[i, i + 1] = up
    for i in range(1, K + 1):
        P[i, i - 1] = down
    for i in range(1, K):
        P[i, i] = stay
    P[K, K] = (1.0 - q) * (1.0 - f) + q  # arrivals to a full buffer do not raise the state
    return P


def stationary_distribution(queue: QueueParams, f: float) -> StationaryDistribution:
    """Closed-form stationary law: probs[s] proportional to rho**s.

    The three load regimes use different but algebraically equivalent
    normalizations so that neither rho**K overflow (rho > 1) nor
    cancellation near rho = 1 corrupts the result. f = 0 (or q = 1 with
    f < 1) pins the chain at the full state.
    """
    rho = load_rho(queue, f)
    K = queue.buffer_size_K
    if math.isinf(rho):
        probs = np.zeros(K + 1)
        probs[K] = 1.0
    elif abs(rho - 1.0) < _RHO_UNIT_TOL:
        probs = np.full(K + 1, 1.0 / (K + 1))
    elif rho < 1.0:
        weights = rho ** np.arange(K + 1)
        probs = weights / weights.sum()
    else:
        # Divide the geometric weights by rho**K: same law, no overflow.
        r = 1.0 / rho
        weights = r ** np.arange(K, -1, -1.0)
        probs = weights / weights.sum()
    return StationaryDistribution(probs=probs, load_rho=rho)


def full_buffer_prob(queue: QueueParams, f: float) -> float:
    """Stationary probability that the buffer holds K packets."""
    rho = load_rho(queue, f)
    K = queue.buffer_size_K
    if math.isinf(rho):
        return 1.0
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return 1.0 / (K + 1)
    if rho < 1.0:
        return rho**K * (1.0 - rho) / (1.0 - rho ** (K + 1))
    r = 1.0 / rho
    return (1.0 - r) / (1.0 - r ** (K + 1))


def full_buffer_log_slope(queue: QueueParams, f: float) -> float:
    """d ln Pr(full) / d ln rho, which equals K - E[state] under the stationary law.

    A geometric law on {0..K} with ratio exp(-y), y > 0, has mean
    1/expm1(y) - (K+1)/expm1((K+1) y). Below unit load the state has
    ratio rho (y = -ln rho), giving E; above it K - state has ratio
    1/rho (y = ln rho), giving K - E. Balanced load gives K/2, rho = inf
    gives 0 and rho = 0 gives K.
    """
    rho = load_rho(queue, f)
    K = queue.buffer_size_K
    if math.isinf(rho):
        return 0.0
    if rho == 0.0:
        return float(K)
    if abs(rho - 1.0) < _RHO_UNIT_TOL:
        return 0.5 * K
    y = abs(math.log(rho))
    mean = _inv_expm1(y) - (K + 1) * _inv_expm1((K + 1) * y)
    return mean if rho > 1.0 else K - mean


def _inv_expm1(z: float) -> float:
    # 1 / expm1(z) for z > 0, written so that large z underflows to 0
    # instead of overflowing.
    return math.exp(-z) / -math.expm1(-z)


def packet_loss(queue: QueueParams, f: float) -> float:
    """Fraction of arriving packets dropped: Phi = (1 - f) * Pr(buffer full).

    A drop needs a full buffer and a failed head-of-line transmission in
    the same slot, so f = 1 gives zero loss at any load.
    """
    return (1.0 - f) * full_buffer_prob(queue, f)


def infinite_K_loss(q: float, f: float) -> float:
    """Loss fraction ascribed to the unbounded-buffer regime.

    Returns 0 when f >= q (the queue drains) and (1 - f) / q otherwise.
    The overloaded branch can exceed 1 when q < 1 - f; the value is
    returned as-is with a RuntimeWarning rather than clamped, so callers
    see that the expression left its probability range.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("arrival probability must lie in (0, 1]")
    if not 0.0 < f <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    if f >= q:
        return 0.0
    phi = (1.0 - f) / q
    if phi > 1.0:
        warnings.warn(
            f"unbounded-buffer loss expression (1-f)/q = {phi:.6g} exceeds 1 "
            "for q < 1-f; returning it unclamped",
            RuntimeWarning,
            stacklevel=2,
        )
    return phi
