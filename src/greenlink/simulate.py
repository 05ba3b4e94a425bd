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
that meets x = K with a failed draw is lost. A run's words lie in one
fixed order in its stream -- the warm-up's arrival then success words,
then for each chunk its arrival then success words, chunks sized from
the arrivals still to come -- so its result does not depend on the block
of runs it steps in. Words after the run's last needed arrival are
skipped by moving the Philox counter, never drawn (see ``_chunk``); every
word a slot reads keeps its stream position.

Only a run's moves, the slots where its two bits differ, can change x.
A block of runs steps a chunk of moves per run at once (see ``_step``):
the slot maps of every _GROUP moves compose into one clamp map (see
``_group_maps``), a log-depth scan of those maps gives the state entering
each group (see ``_group_entries``), and whole-array numpy passes over
the groups stand in for a Python step per slot. A block's warm-ups step
first, as a block of their own whose losses are dropped, then its first
chunks; a run that needs more (a straggler) steps each later chunk alone.
"""

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .queueing import QueueParams, packet_loss

__all__ = ["SimConfig", "SimReport", "ConvergenceRow", "simulate", "convergence_study"]

_MAX_CHUNK_SLOTS = 2**22
_SLACK_SLOTS = 4096  # slots the first arrival draw adds to its bound (see _first_slots)
_MAX_RUN_SLOTS = 2**53  # the most slots a run may be expected to last, total_packets / q
_BLOCK_CELLS = 2**20  # run x slot cells drawn per block of runs
_GROUP = 32  # moves per clamp map
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
        # A run lasts about total_packets / q slots: beyond 2**53 (inf at a
        # vanishing q) it can neither be sized in chunks nor end.
        q = self.queue.arrival_prob_q
        if not self.total_packets <= _MAX_RUN_SLOTS * q:
            raise ValueError(f"arrival probability q = {q!r} is too small for total_packets = "
                             f"{self.total_packets}: a run lasts about total_packets / q "
                             "slots, which must not exceed 2**53")
        # Run i draws from the Philox stream keyed seed + i, a 128-bit key.
        if not 0 <= int(self.seed) <= 2**128 - int(self.num_runs):
            raise ValueError(f"seed must lie in [0, 2**128 - num_runs], got {self.seed}")
        if not 0 <= self.initial_queue_state <= self.queue.buffer_size_K:
            raise ValueError("initial queue state must lie in [0, K]")
        if self.warmup_slots < 0:
            raise ValueError("warm-up slot count cannot be negative")


@dataclass(frozen=True)
class SimReport:
    """Aggregate of a campaign: per-run loss fractions, their mean against
    the closed form and the slots stepped. Occupancy is None unless tracked."""

    mean_loss_fraction: float
    std_error: float
    theoretical_phi: float
    relative_gap: float  # (mean - phi) / phi, signed; 0 when phi = 0
    per_run_losses: np.ndarray
    per_run_occupancy: Optional[np.ndarray] = None  # num_runs x (K+1) slot fractions
    slots: int = 0  # slots stepped over all runs, warm-up included


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


def _moves(arrival, success):
    """Steps d = +-1 of the slots that can move x, and those slots.

    Only a slot with exactly one of its two bits set can move x: an
    arrival whose transmission fails (up) adds a packet, or is lost when
    the buffer already holds K; a success without an arrival (down) sends
    one buffered packet, if there is one. An arrival whose transmission
    succeeds leaves x as it is (a packet arriving to an empty buffer is
    served in the same slot)."""
    moves = (arrival != success).nonzero()[0]
    steps = arrival[moves].view(np.int8) * np.int8(2)  # up where the arrival bit is set
    steps -= 1
    return steps, moves


def _first_slots(left: int, q: float, n: int) -> int:
    # The left-th arrival comes after a negative-binomial wait of mean left / q
    # slots and standard deviation sqrt(left (1 - q)) / q: a first draw of 4
    # deviations past the mean, plus a slack that keeps short runs on one
    # whole-chunk draw, misses it less than about 3e-5 of the time.
    return min(n, int((left + 4 * math.sqrt(left * (1 - q))) / q) + _SLACK_SLOTS)


def _skip(bitgen: np.random.Philox, words: int) -> None:
    """Move bitgen past its next words raw words, as drawing them would.
    Philox.advance(k) moves the counter k 4-word blocks on and empties the
    buffer, so only the words still buffered and the last partial block are
    drawn and dropped."""
    held = 4 - bitgen.state["buffer_pos"]
    if words > held:
        words -= held
        bitgen.advance(words // 4)
        words %= 4
    bitgen.random_raw(words)


def _cut_at(arrival, left: int, count: int) -> int:
    """Slots up to and including the left-th of the count >= left arrivals.
    The count - left arrivals after it lie near the end, so the search looks
    at a tail of about twice their expected span, and widens it if it falls
    short."""
    after = count - left
    tail = 2 * (after + 1) * arrival.size // count + 64
    while True:
        start = max(arrival.size - tail, 0)
        late = arrival[start:].nonzero()[0]
        if late.size > after:
            return start + int(late[late.size - after - 1]) + 1
        tail *= 4


def _chunk(bitgen, cuts, q, left, track):
    """Draw the next chunk for left more arrivals and keep its moves up to
    the slot of the left-th arrival, or to the end of the chunk. Returns
    ((steps, move slots or None, slots), arrivals still to come).

    A chunk of n slots owns the stream's next n arrival words, then its n
    success words. Its arrival words are drawn in a first piece of
    _first_slots words, and the rest only if that piece holds fewer than
    left arrivals. A run that ends in the chunk skips its unread arrival
    words by moving the counter (see _skip) and draws the success words of
    its slots alone; a run that does not draws all n, so its next chunk
    starts on the same word whatever was drawn. Every word a slot reads
    keeps its stream position."""
    (arrive, arrive_bound), (succeed, succeed_bound) = cuts
    n = _chunk_slots(left, q)
    arrival = arrive(bitgen.random_raw(_first_slots(left, q, n)), arrive_bound)
    count = np.count_nonzero(arrival)
    if count < left and arrival.size < n:
        rest = arrive(bitgen.random_raw(n - arrival.size), arrive_bound)
        arrival = np.concatenate([arrival, rest])
        count += np.count_nonzero(rest)
    if count >= left:
        if arrival.size < n:
            _skip(bitgen, n - arrival.size)
        arrival = arrival[:_cut_at(arrival, left, count)]
    success = succeed(bitgen.random_raw(arrival.size), succeed_bound)
    steps, moves = _moves(arrival, success)
    return (steps, moves if track else None, arrival.size), max(left - count, 0)


def _group_entries(shift, low, high, x):
    """States entering each group from states x entering the first, given
    the groups' clamp maps (see _group_maps). A log-depth inclusive scan
    turns map g into the composition of maps 0..g: (A1, L1, H1) then
    (A2, L2, H2) is (A1 + A2, f2(L1), f2(H1)), f2 being the second map."""
    shift, low, high = (a.astype(np.int64) for a in (shift, low, high))
    span = 1
    while span < shift.shape[0]:
        after, floor, ceiling = shift[span:], low[span:], high[span:]
        low_span = np.minimum(np.maximum(low[:-span] + after, floor), ceiling)
        high_span = np.minimum(np.maximum(high[:-span] + after, floor), ceiling)
        shift[span:] = shift[:-span] + after
        low[span:], high[span:] = low_span, high_span
        span *= 2
    entry = np.empty(shift.shape, dtype=np.int64)
    entry[0] = x
    entry[1:] = np.minimum(np.maximum(x + shift[:-1], low[:-1]), high[:-1])
    return entry


def _step(chunks, x, K, occ):
    """Step a block of runs over their chunks' moves from states x, updated in place.

    chunks[r] holds run r's (steps, move slots or None, slots). The steps
    fill the columns of one zero-padded (moves, runs) array, whose zero
    cells leave x alone and lose nothing, cut into groups of _GROUP moves.
    Every group's clamp map comes from one pass over the moves, the states
    entering the groups from a scan of the maps, and every move's state and
    loss flag from a second pass. occ, None or runs x (K + 1) int64 counts,
    gains the chunks' slot-start states. Returns each run's losses."""
    size = max(steps.size for steps, _, _ in chunks)
    groups = max(1, -(-size // _GROUP))
    cells = np.zeros((groups * _GROUP, len(chunks)), dtype=np.int8)
    for r, (steps, _, _) in enumerate(chunks):
        cells[:steps.size, r] = steps
    dtype = np.int16 if K + _GROUP < 2**15 else np.int32  # holds K + a group's summed steps
    rows = cells.reshape(groups, _GROUP, -1).swapaxes(0, 1)  # rows[j]: move j of every group
    entry = _group_entries(*_group_maps(rows, K, dtype), x).astype(dtype)
    states = np.empty(rows.shape, dtype=dtype) if occ is not None else None
    _replay(rows, entry, K, states)
    x[:] = entry[-1]  # entry now holds the states leaving each group
    if occ is not None:
        # A move's state lasts from the slot after the previous move through
        # its own, and the state after the last move to the chunk's end.
        states = states.swapaxes(0, 1).reshape(cells.shape)
        for r, (_, moves, n) in enumerate(chunks):
            at, gaps = states[:moves.size, r], np.diff(moves, prepend=-1)
            occ[r] += np.bincount(at, weights=gaps, minlength=K + 1).astype(np.int64)
            occ[r, x[r]] += n - 1 - int(moves[-1]) if moves.size else n
    return np.count_nonzero(cells.view(bool), axis=0)


def _block(bitgen, cuts, config: SimConfig, first_key: int, losses, occ) -> int:
    """Step the runs keyed first_key, first_key + 1, ..., one per entry of
    losses, which gains their losses; occ, None or their rows of occupancy
    counts, gains their slot-start states. Their warm-ups step first, as a
    block whose losses and states do not count. Returns the slots stepped."""
    q = config.queue.arrival_prob_q
    K = int(config.queue.buffer_size_K)
    warm = config.warmup_slots
    warmups, chunks, stragglers = [], [], []
    for r in range(losses.size):
        _rekey(bitgen, first_key + r)
        if warm:
            warmups.append((_moves(*_draw(bitgen, warm, cuts))[0], None, warm))
        chunk, left = _chunk(bitgen, cuts, q, config.total_packets, occ is not None)
        chunks.append(chunk)
        if left:
            stragglers.append((r, bitgen.state, left))
    slots = sum(n for _, _, n in warmups + chunks)
    x = np.full(losses.size, config.initial_queue_state, dtype=np.int64)
    if warmups:
        _step(warmups, x, K, None)
    losses[:] = _step(chunks, x, K, occ)
    # a straggler, a run that needs more than its first chunk, steps each
    # later chunk as a block of one
    for r, stream, left in stragglers:
        bitgen.state = stream
        run = slice(r, r + 1)
        while left:
            chunk, left = _chunk(bitgen, cuts, q, left, occ is not None)
            losses[run] += _step([chunk], x[run], K, None if occ is None else occ[run])
            slots += chunk[2]
    return slots


def simulate(config: SimConfig) -> SimReport:
    """Run the campaign and compare the loss fraction against the closed form."""
    q = config.queue.arrival_prob_q
    f = config.success_prob_f
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    runs = config.num_runs
    bitgen = np.random.Philox(key=0)  # re-keyed to each run's stream
    cuts = (_cut(q), _cut(f))

    losses = np.zeros(runs, dtype=np.int64)
    occ_counts = np.zeros((runs, K + 1), dtype=np.int64) if config.track_occupancy else None
    blocks = -(-runs * (config.warmup_slots + _chunk_slots(total, q)) // _BLOCK_CELLS)
    per_block = -(-runs // blocks)
    slots = 0
    for lo in range(0, runs, per_block):
        block = slice(lo, lo + per_block)
        occ = occ_counts[block] if occ_counts is not None else None
        slots += _block(bitgen, cuts, config, int(config.seed) + lo, losses[block], occ)
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
