"""Slot-by-slot Monte Carlo simulation of the finite transmit buffer.

Cross-checks the closed-form loss fraction: each run feeds a fixed
number of packet arrivals through the queue and reports the fraction
lost. Runs use independent counter-based RNG streams keyed by
seed + run index, so any subset of runs reproduces bit-for-bit. A
campaign holds one ``np.random.Philox`` and re-keys it to the start of
each run's stream, the state ``np.random.Philox(key=seed + i)`` starts in.

Every slot draws an arrival bit (probability q) and a success bit
(probability f), each by comparing one raw 64-bit word with an integer
cut (see ``_cut``); the bit is the one ``Generator.random() < p`` gives
on the same word. The occupancy x follows the slot map
x -> min(max(x + d, 0), K) with d = arrival - success, and an arrival
that meets x = K with a failed draw is lost. A run's words are drawn
in one fixed order -- the warm-up's arrival then success words, then
for each chunk its arrival then success words, chunks sized from the
arrivals still to come -- so its result does not depend on which kernel
steps it. Both kernels compose the slot maps of a group of steps into
one clamp map (see ``_group_maps``), so whole-array numpy passes over
the groups stand in for a Python step per slot. ``SimReport.backend``
names the kernel that ran:

* ``"lockstep"``: a block of runs steps together over its warm-up and
  first chunk on compact per-cell arrays (int8 steps, bool loss flags,
  states only when occupancy is tracked). A run that needs more than its
  first chunk (a straggler) finishes per run.
* ``"per-run"``: each run steps alone over only the slots that can move
  its occupancy (see ``_step_bits``). It serves blocks with too few runs
  for lockstep, such as a few long runs.
"""

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .queueing import QueueParams, packet_loss

__all__ = ["SimConfig", "SimReport", "ConvergenceRow", "simulate", "convergence_study"]

_NO_ARRIVAL_CAP = 2**62  # sentinel arrival budget that a warm-up chunk can never exhaust
_MAX_CHUNK_SLOTS = 2**22
# Blocks of fewer runs step one run at a time on the per-run kernel, which
# wins on long runs. A block holds at most _BLOCK_CELLS run x slot cells
# (1-5 bytes each), so campaigns of a few long runs fall below it.
_LOCKSTEP_MIN_RUNS = 8
_BLOCK_CELLS = 2**20
_WORD_MASK = 2**64 - 1
_ZERO_WORDS = (0, 0, 0, 0)


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
        # Run i draws from the Philox stream keyed seed + i, a 128-bit key.
        if not 0 <= int(self.seed) <= 2**128 - int(self.num_runs):
            raise ValueError(f"seed must lie in [0, 2**128 - num_runs], got {self.seed}")
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
    backend: str = ""  # "lockstep" or "per-run"; see the module docstring


class ConvergenceRow(NamedTuple):
    packet_count: int
    mean_loss: float
    std_error: float
    relative_gap: float


def _rekey(bitgen: np.random.Philox, key: int) -> None:
    """Point bitgen at the start of stream key, as np.random.Philox(key=key) would."""
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": _ZERO_WORDS, "key": (key & _WORD_MASK, key >> 64)},
                    "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _cut(p: float):
    """(compare, bound) with compare(w, bound) equal to Generator.random() < p
    on raw words w: random() is (w >> 11) * 2**-53, below p exactly when
    w < ceil(p * 2**53) << 11. That cut is 2**64 only at p = 1, and a uint64
    cannot hold it, so there every word passes w <= 2**64 - 1 instead."""
    cut = math.ceil(p * 2**53) << 11
    if cut > _WORD_MASK:
        return np.less_equal, np.uint64(_WORD_MASK)
    return np.less, np.uint64(cut)


def _chunk_slots(arrivals_left: int, q: float) -> int:
    # Size chunks so one usually suffices: ~1/q slots per arrival.
    return min(_MAX_CHUNK_SLOTS, int(arrivals_left / q * 1.15) + 64)


def _draw(bitgen: np.random.Philox, n: int, cuts):
    """Arrival and success bits of the next n slots: n arrival words, then
    n success words, each compared with its cut from _cut."""
    (arrive, arrive_bound), (succeed, succeed_bound) = cuts
    arrival = arrive(bitgen.random_raw(n), arrive_bound)
    return arrival, succeed(bitgen.random_raw(n), succeed_bound)


def _group_maps(rows, K, dtype):
    """(A, L, H) of every group, rows[j] holding step j of every group: its
    slot maps compose to x -> min(max(x + A, L), H), A being its summed
    steps and L, H the states it leaves from an empty and a full buffer."""
    empty, full = dtype(0), dtype(K)
    bounds = np.empty((2,) + rows.shape[1:], dtype=dtype)
    bounds[0], bounds[1] = empty, full
    for row in rows:
        np.add(bounds, row, out=bounds)
        np.maximum(bounds, empty, out=bounds)
        np.minimum(bounds, full, out=bounds)
    return rows.sum(axis=0, dtype=dtype), bounds[0], bounds[1]


def _replay(rows, x, K, states):
    """Step x, the states entering the groups, through rows, overwriting
    each row's steps, once added, with its loss flags x + d > K (an arrival
    met a full buffer). states, unless None, gains each row's start states."""
    empty, full = x.dtype.type(0), x.dtype.type(K)
    for j, row in enumerate(rows):
        if states is not None:
            states[j] = x
        np.add(x, row, out=x)
        np.greater(x, full, out=row.view(bool))
        np.maximum(x, empty, out=x)
        np.minimum(x, full, out=x)


def _step_bits(arrival, success, K, x, arrivals_left, occ):
    """Step one run's occupancy x over drawn bits, up to the slot of its
    arrivals_left-th arrival or the end of the bits.

    Only a slot with exactly one of its two bits set can move x: an
    arrival whose transmission fails (up) adds a packet, or is lost when
    the buffer already holds K; a success without an arrival (down) sends
    one buffered packet, if there is one. An arrival whose transmission
    succeeds leaves x as it is (a packet arriving to an empty buffer is
    served in the same slot). So only the m moves d = +-1 are stepped, in
    groups of about sqrt(m / 16) moves (at most 128) laid out time-major:
    row j holds move j of every group. The groups' maps are chained in plain
    Python. occ, None or K + 1 int64 counts, gains the slot-start states,
    each weighted by the slots it lasts. Returns (x, arrivals_left, losses, slots)."""
    came = np.count_nonzero(arrival)
    if came >= arrivals_left:
        n = int(arrival.nonzero()[0][arrivals_left - 1]) + 1
        arrival, success, came = arrival[:n], success[:n], arrivals_left
    moves = (arrival != success).nonzero()[0]
    m = moves.size
    group = max(1, min(128, math.isqrt(m // 16)))
    groups = -(-m // group)
    steps = np.zeros(groups * group, dtype=np.int8)  # zero padding: moves that leave x alone
    np.subtract(arrival[moves], success[moves], dtype=np.int8, out=steps[:m])
    rows = np.ascontiguousarray(steps.reshape(groups, group).T)
    dtype = np.int16 if K + group < 2**15 else np.int32  # holds x + A before the clamp
    entry = []
    for shift, low, high in zip(*(a.tolist() for a in _group_maps(rows, K, dtype))):
        entry.append(x)
        x = min(max(x + shift, low), high)
    states = np.empty(rows.shape, dtype=dtype) if occ is not None else None
    _replay(rows, np.array(entry, dtype=dtype), K, states)
    if occ is not None:
        gaps = np.diff(moves, prepend=-1)
        occ += np.bincount(states.T.ravel()[:m], weights=gaps, minlength=K + 1).astype(np.int64)
        occ[x] += arrival.size - 1 - int(moves[-1]) if m else arrival.size
    return x, arrivals_left - came, np.count_nonzero(rows), arrival.size


def _finish_run(bitgen, cuts, q, K, x, arrivals_left, occ):
    """Draw chunks and step them on the per-run kernel until arrivals_left
    more packets have arrived. Returns (losses, slots)."""
    losses = slots = 0
    while arrivals_left > 0:
        arrival, success = _draw(bitgen, _chunk_slots(arrivals_left, q), cuts)
        x, arrivals_left, lost, used = _step_bits(arrival, success, K, x, arrivals_left, occ)
        losses += lost
        slots += used
    return losses, slots


def _lockstep(bitgen, cuts, first_key: int, runs: int, config: SimConfig, occ_counts):
    """Step a block of runs together over their warm-up and first chunk.

    Each run's slots are cut into groups of about sqrt(slots / 2). Every
    group's clamp map comes from one pass over the slots, the state
    entering each group from one numpy call per group over all runs, and
    every slot's state and loss flag from a second pass over the slots.

    Run r draws from stream first_key + r. Returns per-run losses, the
    stragglers as (r, bitgen.state, state, arrivals still to come) after
    their whole first chunk, and the slots stepped. Adds the first chunk's
    slot-start states to the block's rows of occ_counts when tracking.
    """
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    warm = config.warmup_slots
    chunk = _chunk_slots(total, config.queue.arrival_prob_q)

    # d = arrival - success, slot-major, up to each run's last arrival. The
    # zero cells after it are maps that leave x alone and lose nothing, and
    # the zero rows past the chunk round the slot count up to whole groups.
    steps = np.zeros((warm + chunk + math.isqrt((warm + chunk) // 2) + 1, runs), dtype=np.int8)
    used = np.empty(runs, dtype=np.int64)  # first-chunk slots up to the last arrival
    stragglers = {}  # r: (bitgen.state, arrivals still to come) after the first chunk
    for r in range(runs):
        _rekey(bitgen, first_key + r)
        if warm:
            a, s = _draw(bitgen, warm, cuts)
            np.subtract(a, s, dtype=np.int8, out=steps[:warm, r])
        a, s = _draw(bitgen, chunk, cuts)
        arrivals = a.nonzero()[0]
        if arrivals.size >= total:
            n = arrivals[total - 1] + 1
        else:
            n = chunk
            stragglers[r] = (bitgen.state, total - arrivals.size)
        used[r] = n
        np.subtract(a[:n], s[:n], dtype=np.int8, out=steps[warm:warm + n, r])
    slots = warm + int(used.max())
    group = max(1, math.isqrt(slots // 2))
    groups = -(-slots // group)
    steps = steps[:groups * group].reshape(groups, group, runs)

    dtype = np.int16 if K + group < 2**15 else np.int32  # holds x + A before the clamp
    rows = steps.swapaxes(0, 1)  # rows[j]: slot j of every group
    shift, low, high = _group_maps(rows, K, dtype)
    entry = np.empty((groups, runs), dtype=dtype)
    x = np.full(runs, config.initial_queue_state, dtype=dtype)
    for g in range(groups):
        entry[g] = x
        np.add(x, shift[g], out=x)
        np.maximum(x, low[g], out=x)
        np.minimum(x, high[g], out=x)
    states = np.empty(steps.shape, dtype=dtype) if occ_counts is not None else None
    _replay(rows, entry, K, None if states is None else states.swapaxes(0, 1))
    losses = np.count_nonzero(steps.view(bool).reshape(-1, runs)[warm:], axis=0)
    if states is not None:
        states = states.reshape(-1, runs)[warm:]
        for r, n in enumerate(used):
            occ_counts[r] += np.bincount(states[:n, r], minlength=K + 1)
    resume = [(r, stream, int(x[r]), left) for r, (stream, left) in stragglers.items()]
    return losses, resume, runs * warm + int(used.sum())


def simulate(config: SimConfig) -> SimReport:
    """Run the campaign and compare the loss fraction against the closed form."""
    q = config.queue.arrival_prob_q
    f = config.success_prob_f
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    runs = config.num_runs
    seed = int(config.seed)
    bitgen = np.random.Philox(key=0)  # re-keyed to each run's stream
    cuts = (_cut(q), _cut(f))

    losses = np.zeros(runs, dtype=np.int64)
    occ_counts = np.zeros((runs, K + 1), dtype=np.int64) if config.track_occupancy else None
    blocks = -(-runs * (config.warmup_slots + _chunk_slots(total, q)) // _BLOCK_CELLS)
    per_block = -(-runs // blocks)
    lockstep = per_block >= _LOCKSTEP_MIN_RUNS
    slots = 0
    for lo in range(0, runs, per_block):
        hi = min(lo + per_block, runs)
        occ_block = occ_counts[lo:hi] if occ_counts is not None else None
        if lockstep:
            lost, resume, used = _lockstep(bitgen, cuts, seed + lo, hi - lo, config, occ_block)
            losses[lo:hi] = lost
            slots += used
        else:
            resume = []
            for r in range(hi - lo):
                _rekey(bitgen, seed + lo + r)
                state = config.initial_queue_state
                if config.warmup_slots:
                    state, _, _, used = _step_bits(*_draw(bitgen, config.warmup_slots, cuts),
                                                   K, state, _NO_ARRIVAL_CAP, None)
                    slots += used
                resume.append((r, bitgen.state, state, total))
        for r, stream, state, left in resume:
            bitgen.state = stream
            occ = occ_block[r] if occ_block is not None else None
            lost, used = _finish_run(bitgen, cuts, q, K, state, left, occ)
            losses[lo + r] += lost
            slots += used
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
        backend="lockstep" if lockstep else "per-run",
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
