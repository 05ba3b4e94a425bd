"""Reference computations the tests check the library against.

No oracle imports greenlink. Each reaches its number by a different
route than the code under test: the one-slot transition matrix is built
from the slot's four arrival and success outcomes, the stationary law
comes from iterating that matrix instead of the geometric closed form,
optima come from dense grid scans instead of a zero-finder on the slope,
the qfunc model's peak of f/p comes from an mpmath root at 50 digits,
the exact slope comes from mpmath derivatives of the birth-death law at
60 digits instead of its closed form, Pr(full), the loss fraction and
both ends of the stationary law come from the geometric law at 60 digits
with no load regimes, and the expected loss of a finite simulation run
comes from an exact layered recursion instead of random sampling.  Grid
scans do reuse the geometric formula for the full-buffer probability;
that formula is itself pinned against the fixed point of this module's
matrix, so the chain of evidence stays acyclic.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import erfc

_RHO_UNIT_TOL = 1e-9


def transition_matrix(q: float, f: float, K: int) -> np.ndarray:
    """One-slot transition matrix of the buffer, P[i, j] = Pr(next j | now i).

    Each of a slot's four outcomes -- arrival with probability q or not,
    head packet served with probability f or not -- adds its probability
    to the entry it leads to. The head packet, one that arrives to an
    empty buffer included, leaves when served, and an arrival is admitted
    unless the buffer is full after that: a full buffer keeps an arrival
    that meets a success in place of the packet sent, and loses one that
    meets a failure.
    """
    P = np.zeros((K + 1, K + 1))
    for i in range(K + 1):
        for arrival, p_arrival in ((1, q), (0, 1.0 - q)):
            for served, p_served in ((1, f), (0, 1.0 - f)):
                held = i + arrival
                if held > 0 and served:
                    held -= 1
                P[i, min(held, K)] += p_arrival * p_served
    return P


def power_iteration_stationary(P: np.ndarray, tol: float = 1e-15,
                               max_iter: int = 2_000_000) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by repeated multiplication."""
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ P
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() <= tol:
            return nxt
        pi = nxt
    raise AssertionError("power iteration did not converge")


def full_buffer_prob_grid(f: np.ndarray, q: float, K: int) -> np.ndarray:
    """Vectorized probability of a full buffer over an array of success probs."""
    f = np.asarray(f, dtype=float)
    if q == 1.0:
        return np.ones_like(f)
    with np.errstate(divide="ignore", over="ignore"):
        rho = q * (1.0 - f) / ((1.0 - q) * f)
    pik = np.empty_like(f)
    near = np.abs(rho - 1.0) < _RHO_UNIT_TOL
    below = (rho < 1.0) & ~near
    above = ~(below | near)
    pik[near] = 1.0 / (K + 1)
    rl = rho[below]
    pik[below] = rl ** K * (1.0 - rl) / (1.0 - rl ** (K + 1))
    rh = 1.0 / rho[above]  # rho = inf maps to r = 0, a point mass at K
    pik[above] = (1.0 - rh) / (1.0 - rh ** (K + 1))
    return pik


def _exp_success(c: float):
    """f and 1 - f over a power array for the exponential success curve."""
    def success(p):
        f = np.exp(-c / np.maximum(p, 1e-300))
        return f, 1.0 - f
    return success


def _qfunc_success(kappa: float, rate_ratio: float, gain_over_noise: float):
    """f and 1 - f over a power array for the Q-function success curve.

    f = Q(kappa (R/R0 - ln(1 + hh p / sigma2))), with Q from scipy's
    erfc. 1 - f is taken by subtraction, as in the library, so both lose
    the same bits where f is near 1.
    """
    def success(p):
        arg = kappa * (rate_ratio - np.log1p(gain_over_noise * p))
        f = 0.5 * erfc(arg / math.sqrt(2.0))
        return f, 1.0 - f
    return success


def _loss(success, p: np.ndarray, q: float, K: int) -> np.ndarray:
    f, fail = success(np.asarray(p, dtype=float))
    return fail * full_buffer_prob_grid(f, q, K)


def _eta(success, p: np.ndarray, q: float, K: int, R: float, b: float,
         a: float) -> np.ndarray:
    """Efficiency over a power grid.

    Written with numerator and denominator both multiplied by f, so the
    f -> 0 corner needs no special casing: the denominator vanishes only
    where the numerator already does.
    """
    p = np.asarray(p, dtype=float)
    f, fail = success(p)
    phi = fail * full_buffer_prob_grid(f, q, K)
    good = q * (1.0 - phi)
    num = R * good * f
    den = b * f + a * p * good
    return num / np.maximum(den, 1e-300)


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _grid_argmax(success, q, K, R, b, a, lo, hi, n):
    """Two-stage dense log-grid argmax of eta, no search heuristics."""
    grid = _log_grid(lo, hi, n)
    i = int(np.argmax(_eta(success, grid, q, K, R, b, a)))
    j0, j1 = max(i - 1, 0), min(i + 1, n - 1)
    fine = _log_grid(grid[j0], grid[j1], n)
    return float(fine[np.argmax(_eta(success, fine, q, K, R, b, a))])


def _grid_qos_threshold(success, q, K, eps, lo, hi, n):
    """Smallest grid power whose loss is within eps, refined once."""
    grid = _log_grid(lo, hi, n)
    ok = _loss(success, grid, q, K) <= eps
    if not ok.any():
        return math.inf
    i = int(np.argmax(ok))
    if i == 0:
        return float(grid[0])
    fine = _log_grid(grid[i - 1], grid[i], n)
    okf = _loss(success, fine, q, K) <= eps
    return float(fine[np.argmax(okf)])


def _grid_constrained_argmax(success, q, K, R, b, a, eps, p_min, p_max, n):
    """Best feasible power on a dense grid over [p_min, p_max], or None."""
    grid = _log_grid(p_min, p_max, n)
    phi = _loss(success, grid, q, K)
    eta = _eta(success, grid, q, K, R, b, a)
    feas = phi <= eps
    if not feas.any():
        return None
    idx = np.flatnonzero(feas)
    return float(grid[idx[np.argmax(eta[idx])]])


def grid_argmax_exp(q: float, K: int, R: float, b: float, a: float, c: float,
                    lo: float, hi: float, n: int = 400_000) -> float:
    return _grid_argmax(_exp_success(c), q, K, R, b, a, lo, hi, n)


def grid_qos_threshold_exp(q: float, K: int, c: float, eps: float,
                           lo: float, hi: float, n: int = 200_000) -> float:
    return _grid_qos_threshold(_exp_success(c), q, K, eps, lo, hi, n)


def grid_constrained_argmax_exp(q: float, K: int, R: float, b: float, a: float,
                                c: float, eps: float, p_min: float,
                                p_max: float, n: int = 200_000):
    return _grid_constrained_argmax(_exp_success(c), q, K, R, b, a, eps,
                                    p_min, p_max, n)


# The qfunc oracles take the model as (kappa, R/R0, hh/sigma2).

def loss_grid_qfunc(p, q, K, kappa, rate_ratio, gain_over_noise):
    """Packet loss over a power grid for the Q-function success curve."""
    return _loss(_qfunc_success(kappa, rate_ratio, gain_over_noise), p, q, K)


def eta_grid_qfunc(p, q, K, R, b, a, kappa, rate_ratio, gain_over_noise):
    """Efficiency over a power grid for the Q-function success curve."""
    return _eta(_qfunc_success(kappa, rate_ratio, gain_over_noise), p, q, K, R, b, a)


def grid_argmax_qfunc(q, K, R, b, a, kappa, rate_ratio, gain_over_noise,
                      lo, hi, n=400_000):
    return _grid_argmax(_qfunc_success(kappa, rate_ratio, gain_over_noise),
                        q, K, R, b, a, lo, hi, n)


def grid_qos_threshold_qfunc(q, K, kappa, rate_ratio, gain_over_noise, eps,
                             lo, hi, n=200_000):
    return _grid_qos_threshold(_qfunc_success(kappa, rate_ratio, gain_over_noise),
                               q, K, eps, lo, hi, n)


def grid_constrained_argmax_qfunc(q, K, R, b, a, kappa, rate_ratio,
                                  gain_over_noise, eps, p_min, p_max, n=200_000):
    return _grid_constrained_argmax(
        _qfunc_success(kappa, rate_ratio, gain_over_noise),
        q, K, R, b, a, eps, p_min, p_max, n)


def mp_peak_f_over_p_qfunc(kappa: float, rate_ratio: float,
                           gain_over_noise: float, guess: float) -> float:
    """Root of d ln(f/p)/d ln p = p f'/f - 1 for the Q-function model.

    With b = 0, eta = R f / (a p) at any load, so this is the peak of
    eta. Solved by mpmath at 50 digits from guess (watts), in ln p.
    """
    with mpmath.workdps(50):
        def log_slope(lnp):
            snr = gain_over_noise * mpmath.exp(lnp)
            arg = kappa * (rate_ratio - mpmath.log1p(snr))
            f = mpmath.erfc(arg / mpmath.sqrt(2)) / 2
            return kappa * mpmath.npdf(arg) * snr / (1 + snr) / f - 1
        return float(mpmath.exp(mpmath.findroot(log_slope, mpmath.log(guess))))


def mp_exp_success(rate_ratio: float, sigma2: float):
    """p -> (f, 1 - f, f') in mpmath for f = exp(-c/p), c = (2**(R/R0) - 1) sigma2,
    f' = df/dp = f c / p**2 in closed form."""
    def success(p):
        x = (mpmath.mpf(2) ** rate_ratio - 1) * sigma2 / p  # c / p
        f = mpmath.exp(-x)
        return f, -mpmath.expm1(-x), f * x / p
    return success


def mp_qfunc_success(kappa: float, rate_ratio: float, hh: float, sigma2: float):
    """p -> (f, 1 - f, f') in mpmath for f = Q(kappa (R/R0 - ln(1 + hh p / sigma2))),
    f' = df/dp = kappa phi(arg) hh / (sigma2 + hh p) in closed form, phi the normal pdf."""
    def success(p):
        arg = kappa * (rate_ratio - mpmath.log1p(hh * p / mpmath.mpf(sigma2)))
        return (mpmath.erfc(arg / mpmath.sqrt(2)) / 2, mpmath.erfc(-arg / mpmath.sqrt(2)) / 2,
                kappa * mpmath.npdf(arg) * hh / (sigma2 + hh * p))
    return success


def mp_stationarity_residual(success, p: float, q: float, K: int, b: float,
                             a: float) -> float:
    """The normalized slope (b H + X (F - 1)) / (b H + X (F + 1)) at 60 digits.

    success is p -> (f, 1 - f, f') in mpmath, f' in closed form. Pr(full)
    is the birth-death law's rho**K (1 - rho) / (1 - rho**(K+1)),
    rho = q (1 - f) / ((1 - q) f), and Phi = (1 - f) Pr(full). F = p f'/f
    and H = -p (dPhi/df) f' / (1 - Phi), where dPhi/df = -Pr(full) +
    (1 - f) (dPr(full)/drho) (drho/df), drho/df = -q / ((1 - q) f**2) and
    dPr(full)/drho is taken by mpmath.diff in ln rho; X = a p q (1 - Phi) / f.
    Nothing is differentiated in p: far below the noise power f changes by
    less than 60 digits across any step in ln p, and ln eta at q <= 1e-300
    does too.
    """
    with mpmath.workdps(60):
        q_mp, b_mp, a_mp, p_mp = (mpmath.mpf(v) for v in (q, b, a, p))
        f, fail, df = success(p_mp)

        def full(rho):
            if rho == 1:
                return mpmath.mpf(1) / (K + 1)
            return rho ** K * (1 - rho) / (1 - rho ** (K + 1))

        if q_mp == 1:  # Pr(full) = 1
            loss, dloss = fail, mpmath.mpf(-1)
        else:
            rho = q_mp * fail / ((1 - q_mp) * f)
            dfull = mpmath.diff(lambda s: full(mpmath.exp(s)), mpmath.log(rho)) / rho
            loss = fail * full(rho)
            dloss = -full(rho) - fail * dfull * q_mp / ((1 - q_mp) * f ** 2)
        delivered = 1 - loss
        F = p_mp * df / f
        H = -p_mp * dloss * df / delivered
        X = a_mp * p_mp * q_mp * delivered / f
        return float((b_mp * H + X * (F - 1)) / (b_mp * H + X * (F + 1)))


def _mp_law_ends(q: float, f: float, K: int):
    """(Pr(empty), Pr(full)) of the birth-death law as mpmath numbers.

    The chain on {0..K} steps up with probability q (1 - f) and down with
    (1 - q) f, so its stationary law is proportional to rho**s with
    rho = q (1 - f) / ((1 - q) f), taken from the float inputs as given.
    Pr(empty) = (1 - rho) / (1 - rho**(K+1)) and Pr(full) = rho**K Pr(empty);
    rho = 1 gives the uniform 1/(K+1), and a zero down-step (f = 0 or
    q = 1) puts all the mass on the full state.
    """
    q_mp, f_mp = mpmath.mpf(q), mpmath.mpf(f)
    down = (1 - q_mp) * f_mp
    if down == 0:
        return mpmath.mpf(0), mpmath.mpf(1)
    rho = q_mp * (1 - f_mp) / down
    if rho == 1:
        return mpmath.mpf(1) / (K + 1), mpmath.mpf(1) / (K + 1)
    empty = (1 - rho) / (1 - rho ** (K + 1))
    return empty, rho ** K * empty


def mp_stationary_ends(q: float, f: float, K: int) -> tuple[float, float]:
    """(Pr(empty), Pr(full)) of the stationary law, at 60 digits."""
    with mpmath.workdps(60):
        return tuple(float(end) for end in _mp_law_ends(q, f, K))


def mp_full_buffer_prob(q: float, f: float, K: int) -> float:
    """Stationary Pr(full), at 60 digits."""
    return mp_stationary_ends(q, f, K)[1]


def mp_loss(q: float, f: float, K: int) -> float:
    """Loss fraction Phi = (1 - f) Pr(full), at 60 digits."""
    with mpmath.workdps(60):
        return float((1 - mpmath.mpf(f)) * _mp_law_ends(q, f, K)[1])


def is_unimodal_grid(values, rel_tol: float = 1e-9) -> bool:
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


def exact_mean_loss(q: float, f: float, K: int, n_packets: int,
                    initial_state: int = 0, max_slots: int | None = None) -> float:
    """Exact expected loss fraction of a finite run, by dynamic programming.

    Tracks the joint law of (queue state, arrivals seen so far) slot by
    slot, absorbing probability mass once a path has seen n_packets
    arrivals.  E[losses] accumulates from the loss event: a full buffer,
    an arrival, and a failed transmission in the same slot.  The slot
    horizon defaults to enough slots for all but ~1e-12 of the mass to
    finish; the remaining truncation error is far below 1e-6.
    """
    if max_slots is None:
        mean_slots = n_packets / q
        max_slots = int(mean_slots + 12.0 * math.sqrt(mean_slots * (1.0 - q) / q) + 200)
    # dist[s, j] = P(state == s, j arrivals counted so far, still running)
    dist = np.zeros((K + 1, n_packets))
    dist[initial_state, 0] = 1.0
    done_mass = 0.0
    exp_losses = 0.0
    for _ in range(max_slots):
        new = np.zeros_like(dist)
        for s in range(K + 1):
            row = dist[s]
            if not row.any():
                continue
            # no arrival branch, prob (1-q): state serves if busy
            if s > 0:
                new[s - 1, :] += row * (1.0 - q) * f
                new[s, :] += row * (1.0 - q) * (1.0 - f)
            else:
                new[0, :] += row * (1.0 - q)
            # arrival branch, prob q: arrival joins, head may depart same slot
            if s < K:
                served = row * q * f
                kept = row * q * (1.0 - f)
                # the arriving packet is the head itself when s == 0
                new[s, 1:] += served[:-1]
                new[s + 1, 1:] += kept[:-1]
                done_mass += served[-1] + kept[-1]
            else:
                served = row * q * f       # head leaves, arrival takes its place
                lost = row * q * (1.0 - f)  # buffer stays full, arrival dropped
                new[K, 1:] += served[:-1]
                done_mass += served[-1]
                exp_losses += lost.sum() / n_packets
                new[K, 1:] += lost[:-1]
                done_mass += lost[-1]
        dist = new
        if dist.sum() < 1e-12:
            break
    return exp_losses
