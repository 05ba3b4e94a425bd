"""Transmit-power selection for the buffered-transmitter efficiency metric.

For sigmoidal success models eta(p) is quasi-concave, so its maximizer
is the one sign change of the exact slope d ln(eta)/d ln(p)
(`stationarity_residual`), found by a Brent zero-finder in ln(p); a
coarse eta scan brackets it first when the slope does not fall from +
to - across the search range. Phi is strictly decreasing in p, so the
QoS bound Phi <= epsilon is a minimum power p0, the zero of
Phi - epsilon; the constrained optimum is the projection of the
unconstrained one onto [max(p0, p_min), p_max]. The light- and
heavy-traffic limits (`limit_optimizer`) are the same search on a
saturated queue, q = 1, with the fixed draw dropped for q -> 0.

Known fault: the qfunc model has f(0) = Q(kappa R/R0) > 0, so with b = 0
eta grows without bound as p -> 0 and is not quasi-concave; the scan
then returns the interior local peak inside the search range (about
0.0692 W for kappa = 2 at the CLI defaults), not the supremum.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Literal, Optional, Sequence, Tuple

import numpy as np

from .efficiency import SystemParams, efficiency, stationarity_residual
from .queueing import QueueParams, packet_loss
from .success import SuccessModel

__all__ = [
    "Binding",
    "Optimum",
    "NoInteriorMaximumError",
    "maximize_unconstrained",
    "qos_threshold",
    "maximize_constrained",
    "limit_optimizer",
    "is_unimodal_grid",
]

_BRACKET_POINTS = 65
_MAX_EXPANSIONS = 60
_LOG_BRACKET_TOL = 1e-9  # QoS threshold: bracket width in ln(p)
_LOG_ROOT_TOL = 1e-14  # optima: bracket width in ln(p)
_EPS = float(np.finfo(float).eps)


class NoInteriorMaximumError(RuntimeError):
    """Raised when no interior maximum can be bracketed (non-sigmoidal objective)."""


class Binding(Enum):
    """Which constraint, if any, pins the constrained optimum."""

    INTERIOR = "interior"
    QOS_BOUND = "qos_bound"
    POWER_CAP = "power_cap"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Optimum:
    """Result of a power search; constrained fields are None until filled in.

    iterations counts slope evaluations, scan_evaluations the eta
    evaluations of the fallback scan, and certificate is the normalized
    slope at p_star (near 0 at an interior optimum).
    p0 is the smallest power meeting the loss bound, math.inf when no
    power up to p_max does; in that case p_star_constrained stays None
    and binding is INFEASIBLE.
    """

    p_star: float
    eta_star: float
    bracket: Tuple[float, float]
    iterations: int
    scan_evaluations: int = 0
    certificate: float = math.nan
    p0: Optional[float] = None
    p_star_constrained: Optional[float] = None
    binding: Optional[Binding] = None


def _bracket_maximum(
    fun: Callable[[float], float], lo: float, hi: float
) -> Tuple[float, float, int]:
    """Find (a, b) containing the maximizer of a unimodal fun, expanding as needed.

    Samples a log-spaced grid; an argmax on the boundary pushes that
    boundary outward by a factor of two, up to _MAX_EXPANSIONS times.
    The third value counts the evaluations of fun.
    """
    for rounds in range(1, _MAX_EXPANSIONS + 1):
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), _BRACKET_POINTS))
        values = [fun(p) for p in grid]
        best = int(np.argmax(values))
        if values[best] <= 0.0:
            # No signal anywhere on the grid yet; widen both ways.
            lo /= 2.0
            hi *= 2.0
        elif best == 0:
            lo /= 2.0
        elif best == _BRACKET_POINTS - 1:
            hi *= 2.0
        elif (values[best] - max(values[0], values[-1])
              <= 1e-12 * abs(values[best])):
            # Indistinguishable from a monotone plateau: roundoff noise can
            # put the argmax anywhere on it, so keep widening instead of
            # trusting a few-ulp interior "peak".
            lo /= 2.0
            hi *= 2.0
        else:
            return float(grid[best - 1]), float(grid[best + 1]), rounds * _BRACKET_POINTS
    raise NoInteriorMaximumError(
        "no interior maximum found: objective keeps climbing toward a bracket edge"
    )


def _root_log(
    fun: Callable[[float], float], lo: float, hi: float,
    f_lo: float, f_hi: float, tol: float,
) -> Tuple[float, float, float, float, int]:
    """Brent's zero-finder (Brent 1973, ch. 4) for fun(p) over ln(p) in [ln lo, ln hi].

    f_lo = fun(lo) and f_hi = fun(hi) must differ in sign. Returns the final
    bracket, about tol wide in ln(p), as (p, fun(p), p_other, fun(p_other),
    evaluations), the end with the smaller |fun| first.
    """
    a, b, fa, fb = math.log(lo), math.log(hi), f_lo, f_hi
    c, fc = a, fa
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_tol = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= step_tol or fb == 0.0:
            return math.exp(b), fb, math.exp(c), fc, evaluations
        if abs(e) < step_tol or abs(fa) <= abs(fb):
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
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(step_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_tol else math.copysign(step_tol, m)
        fb = fun(math.exp(b))
        evaluations += 1


def _search_limits(system: SystemParams) -> Tuple[float, float]:
    # Generous starting bracket: well below the noise floor, well above the cap.
    return system.noise_sigma2 * 1e-3, system.p_max * 1e3


def maximize_unconstrained(
    system: SystemParams, queue: QueueParams, model: SuccessModel
) -> Optimum:
    """Global maximizer of eta over p > 0, ignoring p_min/p_max/epsilon.

    p_star is the sign change of the slope. When the slope does not fall
    from + to - across the search range, _bracket_maximum's eta scan
    supplies the bracket; if even that bracket shows no sign change, its
    middle grid point, the scan's argmax, is the answer.
    """

    def slope(p: float) -> float:
        return stationarity_residual(system, queue, model, p)

    def objective(p: float) -> float:
        return efficiency(system, queue, model, p).eta

    lo, hi = _search_limits(system)
    r_lo, r_hi = slope(lo), slope(hi)
    calls, scanned = 2, 0
    if not r_lo > 0.0 > r_hi:
        lo, hi, scanned = _bracket_maximum(objective, lo, hi)
        r_lo, r_hi = slope(lo), slope(hi)
        calls += 2
    if r_lo > 0.0 > r_hi:
        p, r, _, _, n = _root_log(slope, lo, hi, r_lo, r_hi, _LOG_ROOT_TOL)
        calls += n
    else:
        p = math.sqrt(lo * hi)
        r = slope(p)
        calls += 1
    return Optimum(
        p_star=p,
        eta_star=objective(p),
        bracket=(lo, hi),
        iterations=calls,
        scan_evaluations=scanned,
        certificate=r,
    )


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

    lo, _ = _search_limits(system)
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

    Quasi-concavity makes the answer a projection: push the unconstrained
    maximizer up to p0 or p_min if a floor binds, then clip at p_max.
    """
    unconstrained = maximize_unconstrained(system, queue, model)
    p0 = qos_threshold(system, queue, model)
    if math.isinf(p0):
        return replace(unconstrained, p0=p0, binding=Binding.INFEASIBLE)
    floor = max(unconstrained.p_star, p0, system.p_min)
    if floor > system.p_max:
        p_cc = system.p_max
        binding = Binding.POWER_CAP
    elif unconstrained.p_star >= p0 and unconstrained.p_star >= system.p_min:
        p_cc = unconstrained.p_star
        binding = Binding.INTERIOR
    elif p0 >= system.p_min:
        p_cc = p0
        binding = Binding.QOS_BOUND
    else:
        p_cc = system.p_min  # the configured floor, not the QoS bound, is active
        binding = Binding.POWER_CAP
    return replace(unconstrained, p0=p0, p_star_constrained=p_cc, binding=binding)


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
    """
    if which == "q_to_0":
        system = replace(system, fixed_power_b=0.0)
    elif which != "q_to_1":
        raise ValueError("which must be 'q_to_0' or 'q_to_1'")
    return maximize_unconstrained(system, QueueParams(1.0, 1), model).p_star


def is_unimodal_grid(values: Sequence[float], rel_tol: float = 1e-9) -> bool:
    """Check that sampled values rise to a single (possibly flat) peak, then fall.

    Comparisons allow slack rel_tol * max(values), and all points within
    that slack of the maximum must be contiguous.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 3:
        return True
    vmax = float(vals.max())
    slack = rel_tol * abs(vmax)
    peak = int(vals.argmax())
    rising = vals[: peak + 1]
    falling = vals[peak:]
    if np.any(np.diff(rising) < -slack) or np.any(np.diff(falling) > slack):
        return False
    near_peak = np.flatnonzero(vals >= vmax - slack)
    return bool(near_peak.size == near_peak[-1] - near_peak[0] + 1)
