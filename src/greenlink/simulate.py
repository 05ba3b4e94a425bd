"""Slot-by-slot Monte Carlo simulation of the finite transmit buffer.

Cross-checks the closed-form loss fraction: each run feeds a fixed
number of packet arrivals through the queue and reports the fraction
lost. Runs use independent counter-based RNG streams keyed by
seed + run index, so any subset of runs reproduces bit-for-bit.

Every slot draws an arrival bit (probability q) and a success bit
(probability f). The occupancy x follows the slot map
x -> min(max(x + d, 0), K) with d = arrival - success, and an arrival
that meets x = K with a failed draw is lost. A run's uniforms are drawn
in one fixed order -- the warm-up's arrival then success uniforms, then
for each chunk its arrival then success uniforms, chunks sized from the
arrivals still to come -- so its result does not depend on which kernel
steps it. ``SimReport.backend`` names the kernel that ran:

* ``"lockstep"``: a block of runs steps together over its warm-up and
  first chunk with whole-array numpy passes on compact per-cell arrays
  (int8 steps, bool loss flags, states only when occupancy is tracked),
  using that the composition of slot maps is again a clamp map (see
  ``_lockstep``). A run that needs more than its first chunk (a
  straggler) finishes on the scalar kernel.
* ``"python"``: the scalar kernel, a loop over Python lists of the slots
  where one run's occupancy can move, converted from its bits in bounded
  windows. It steps blocks with too few runs for the lockstep passes to
  pay off, such as a few long runs.
* ``"numba"``: the same scalar kernel compiled on arrays, used for every
  run when numba is installed.
"""

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .queueing import QueueParams, packet_loss

try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None

__all__ = ["SimConfig", "SimReport", "ConvergenceRow", "simulate", "convergence_study"]

_NO_ARRIVAL_CAP = 2**62  # sentinel arrival budget that a warm-up chunk can never exhaust
_MAX_CHUNK_SLOTS = 2**22
_WINDOW_SLOTS = 2**16  # slots of bits converted to Python lists at a time
# Measured crossover: blocks of fewer runs step faster one run at a time on
# the scalar kernel. A block holds at most _BLOCK_CELLS run x slot cells
# (1-5 bytes each), so campaigns of a few long runs fall below it.
_LOCKSTEP_MIN_RUNS = 8
_BLOCK_CELLS = 2**20


def _advance_py(gaps, ups, tail, K, x, occ):
    """Step one run's occupancy x over a window of slots, move by move.

    Only a slot with exactly one of its two bits set can move x: an
    arrival whose transmission fails (up) adds a packet, or is lost when
    the buffer already holds K; a success without an arrival (down) sends
    one buffered packet, if there is one. An arrival whose transmission
    succeeds leaves x as it is (a packet arriving to an empty buffer is
    served in the same slot). gaps[i] is the number of slots whose start
    state is x before the i-th move, tail the number after the last one;
    occ counts slot-start states when its length is K + 1 (length 0
    disables tracking). Returns (x, losses).
    """
    losses = 0
    track = len(occ) > 0
    for gap, up in zip(gaps, ups):
        if track:
            occ[x] += gap
        if up:
            if x == K:
                losses += 1
            else:
                x += 1
        elif x > 0:
            x -= 1
    if track:
        occ[x] += tail
    return x, losses


if njit is not None:
    _advance = njit(cache=True, nogil=True)(_advance_py)
    _SCALAR_BACKEND = "numba"

    def _as_list(values):
        return values

    def _counter(n):
        return np.zeros(n, dtype=np.int64)

else:
    _advance = _advance_py
    _SCALAR_BACKEND = "python"
    _as_list = np.ndarray.tolist

    def _counter(n):
        return [0] * n


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: queue, PHY success probability, and run plan."""

    queue: QueueParams
    success_prob_f: float
    total_packets: int
    num_runs: int
    seed: int = 0
    initial_queue_state: int = 0
    warmup_slots: int = 0
    track_occupancy: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_prob_f <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        counts = (self.total_packets, self.num_runs, self.seed,
                  self.initial_queue_state, self.warmup_slots)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise ValueError("packet, run, seed, state and warm-up counts must be integers")
        if self.total_packets < 1:
            raise ValueError("need at least one packet per run")
        if self.num_runs < 1:
            raise ValueError("need at least one run")
        if not 0 <= self.initial_queue_state <= self.queue.buffer_size_K:
            raise ValueError("initial queue state must lie in [0, K]")
        if self.warmup_slots < 0:
            raise ValueError("warm-up slot count cannot be negative")


@dataclass(frozen=True)
class SimReport:
    """Aggregate of a campaign; occupancy fields are None unless tracked."""

    mean_loss_fraction: float
    std_error: float
    theoretical_phi: float
    relative_gap: float  # (mean - phi) / phi, signed; 0 when phi = 0
    per_run_losses: np.ndarray
    per_run_occupancy: Optional[np.ndarray] = None  # num_runs x (K+1) slot fractions
    slots: int = 0  # slots stepped over all runs, warm-up included
    backend: str = ""  # "lockstep", "python" or "numba"; see the module docstring


class ConvergenceRow(NamedTuple):
    packet_count: int
    mean_loss: float
    std_error: float
    relative_gap: float


def _run_stream(seed: int, run_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed + run_index))


def _chunk_slots(arrivals_left: int, q: float) -> int:
    # Size chunks so one usually suffices: ~1/q slots per arrival.
    return min(_MAX_CHUNK_SLOTS, int(arrivals_left / q * 1.15) + 64)


def _draw(rng: np.random.Generator, n: int, q: float, f: float):
    """Arrival and success bits of the next n slots: n arrival uniforms, then n success uniforms."""
    arrival = rng.random(n) < q
    return arrival, rng.random(n) < f


def _step_bits(arrival, success, K, x, arrivals_left, occ):
    """Step one run on the scalar kernel over drawn bits, window by window,
    up to the slot of its arrivals_left-th arrival or the end of the bits.
    Returns (x, arrivals_left, losses, slots)."""
    losses = slots = 0
    for lo in range(0, arrival.size, _WINDOW_SLOTS):
        a = arrival[lo:lo + _WINDOW_SLOTS]
        s = success[lo:lo + _WINDOW_SLOTS]
        came = np.count_nonzero(a)
        if came >= arrivals_left:
            cut = int(a.nonzero()[0][arrivals_left - 1]) + 1
            a, s, came = a[:cut], s[:cut], arrivals_left
        moves = (a != s).nonzero()[0]
        gaps = np.diff(moves, prepend=-1)
        tail = a.size - 1 - int(moves[-1]) if moves.size else a.size
        x, lost = _advance(_as_list(gaps), _as_list(a[moves]), tail, K, x, occ)
        losses += lost
        slots += a.size
        arrivals_left -= came
        if arrivals_left == 0:
            break
    return x, arrivals_left, losses, slots


def _finish_run(rng, q, f, K, x, arrivals_left, occ):
    """Draw chunks and step them on the scalar kernel until arrivals_left
    more packets have arrived. Returns (losses, slots)."""
    losses = slots = 0
    while arrivals_left > 0:
        arrival, success = _draw(rng, _chunk_slots(arrivals_left, q), q, f)
        x, arrivals_left, lost, used = _step_bits(arrival, success, K, x, arrivals_left, occ)
        losses += lost
        slots += used
    return losses, slots


def _lockstep(streams, config: SimConfig, occ_counts):
    """Step a block of runs together over their warm-up and first chunk.

    The slots are cut into groups of about sqrt(slots / 2). Within a group
    the composed slot maps are again a clamp map, x -> min(max(x + A, L), H),
    with A the group's summed steps and L, H the states it leaves from an
    empty and from a full buffer. So three whole-array passes stand in for
    a Python step per slot: every group's (A, L, H) together, one slot of
    every group at a time; then the state entering each group, one group
    at a time; then every slot's state and loss flag, again one slot of
    every group at a time from those entry states.

    Returns per-run losses, end states and arrivals still to come (nonzero
    for stragglers, whose end state is then their state after the whole
    first chunk), and the slots stepped. Adds the first chunk's slot-start
    states to the block's rows of occ_counts when tracking.
    """
    q = config.queue.arrival_prob_q
    f = config.success_prob_f
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    warm = config.warmup_slots
    chunk = _chunk_slots(total, q)
    runs = len(streams)

    # d = arrival - success, slot-major, up to each run's last arrival. The
    # zero cells after it are maps that leave x alone and lose nothing, and
    # the zero rows past the chunk round the slot count up to whole groups.
    steps = np.zeros((warm + chunk + math.isqrt((warm + chunk) // 2) + 1, runs), dtype=np.int8)
    used = np.empty(runs, dtype=np.int64)  # first-chunk slots up to the last arrival
    left = np.zeros(runs, dtype=np.int64)
    for r, rng in enumerate(streams):
        if warm:
            a, s = _draw(rng, warm, q, f)
            np.subtract(a, s, dtype=np.int8, out=steps[:warm, r])
        a, s = _draw(rng, chunk, q, f)
        arrivals = a.nonzero()[0]
        if arrivals.size >= total:
            n = arrivals[total - 1] + 1
        else:
            n = chunk
            left[r] = total - arrivals.size
        used[r] = n
        np.subtract(a[:n], s[:n], dtype=np.int8, out=steps[warm:warm + n, r])
    slots = warm + int(used.max())
    group = max(1, math.isqrt(slots // 2))
    groups = -(-slots // group)
    steps = steps[:groups * group].reshape(groups, group, runs)

    dtype = np.int16 if K + group < 2**15 else np.int32  # holds x + A before the clamp
    empty, full = dtype(0), dtype(K)
    shift = steps.sum(axis=1, dtype=dtype)  # A of every group
    bounds = np.empty((2, groups, runs), dtype=dtype)  # L and H of every group
    bounds[0], bounds[1] = empty, full
    for j in range(group):
        np.add(bounds, steps[:, j], out=bounds)
        np.maximum(bounds, empty, out=bounds)
        np.minimum(bounds, full, out=bounds)
    entry = np.empty((groups, runs), dtype=dtype)
    x = np.full(runs, config.initial_queue_state, dtype=dtype)
    for g in range(groups):
        entry[g] = x
        np.add(x, shift[g], out=x)
        np.maximum(x, bounds[0, g], out=x)
        np.minimum(x, bounds[1, g], out=x)
    # Each slot's step, once added, is overwritten by its loss flag
    # x + d > K (an arrival met a full buffer).
    lost = steps.view(bool)
    states = np.empty(steps.shape, dtype=dtype) if occ_counts is not None else None
    for j in range(group):
        if states is not None:
            states[:, j] = entry
        np.add(entry, steps[:, j], out=entry)
        np.greater(entry, full, out=lost[:, j])
        np.maximum(entry, empty, out=entry)
        np.minimum(entry, full, out=entry)

    losses = np.count_nonzero(lost.reshape(-1, runs)[warm:], axis=0)
    if states is not None:
        states = states.reshape(-1, runs)[warm:]
        for r, n in enumerate(used):
            occ_counts[r] += np.bincount(states[:n, r], minlength=K + 1)
    return losses, x, left, runs * warm + int(used.sum())


def simulate(config: SimConfig) -> SimReport:
    """Run the campaign and compare the loss fraction against the closed form."""
    q = config.queue.arrival_prob_q
    f = config.success_prob_f
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    runs = config.num_runs
    no_occ = _counter(0)

    losses = np.zeros(runs, dtype=np.int64)
    occ_counts = np.zeros((runs, K + 1), dtype=np.int64) if config.track_occupancy else None
    blocks = -(-runs * (config.warmup_slots + _chunk_slots(total, q)) // _BLOCK_CELLS)
    per_block = -(-runs // blocks)
    lockstep = _SCALAR_BACKEND == "python" and per_block >= _LOCKSTEP_MIN_RUNS
    slots = 0
    for lo in range(0, runs, per_block):
        streams = [_run_stream(config.seed, i) for i in range(lo, min(lo + per_block, runs))]
        occ_block = occ_counts[lo:lo + per_block] if occ_counts is not None else None
        if lockstep:
            lost, x, left, used = _lockstep(streams, config, occ_block)
            losses[lo:lo + per_block] = lost
            slots += used
            resume = [(r, int(x[r]), int(left[r])) for r in np.flatnonzero(left)]
        else:
            resume = []
            for r, rng in enumerate(streams):
                state = config.initial_queue_state
                if config.warmup_slots:
                    arrival, success = _draw(rng, config.warmup_slots, q, f)
                    state, _, _, used = _step_bits(arrival, success, K, state,
                                                   _NO_ARRIVAL_CAP, no_occ)
                    slots += used
                resume.append((r, state, total))
        for r, state, left in resume:
            occ = _counter(K + 1) if occ_block is not None else no_occ
            lost, used = _finish_run(streams[r], q, f, K, state, left, occ)
            losses[lo + r] += lost
            slots += used
            if occ_block is not None:
                occ_block[r] += occ
    per_run = losses / total
    occ_fracs = None
    if occ_counts is not None:
        occ_fracs = occ_counts / occ_counts.sum(axis=1, keepdims=True)

    phi = packet_loss(config.queue, f)
    mean = float(np.mean(per_run))  # pairwise summation: order-stable aggregation
    if runs > 1:
        std_error = float(np.std(per_run, ddof=1) / math.sqrt(runs))
    else:
        std_error = 0.0
    gap = (mean - phi) / phi if phi > 0.0 else 0.0
    return SimReport(
        mean_loss_fraction=mean,
        std_error=std_error,
        theoretical_phi=phi,
        relative_gap=gap,
        per_run_losses=per_run,
        per_run_occupancy=occ_fracs,
        slots=slots,
        backend="lockstep" if lockstep else _SCALAR_BACKEND,
    )


def convergence_study(
    config: SimConfig, packet_counts: Sequence[int]
) -> List[ConvergenceRow]:
    """Re-run the campaign at several per-run packet counts.

    Shows the finite-horizon bias and spread of the loss estimate
    shrinking toward the stationary value as runs get longer.
    """
    if not packet_counts:
        raise ValueError("packet_counts must be nonempty")
    rows = []
    for count in packet_counts:
        report = simulate(replace(config, total_packets=int(count)))
        rows.append(
            ConvergenceRow(
                packet_count=int(count),
                mean_loss=report.mean_loss_fraction,
                std_error=report.std_error,
                relative_gap=report.relative_gap,
            )
        )
    return rows
