"""Slot-by-slot Monte Carlo simulation of the finite transmit buffer.

Cross-checks the closed-form loss fraction: each run feeds a fixed
number of packet arrivals through the queue and reports the fraction
lost. Runs use independent counter-based RNG streams keyed by
seed + run index, so any subset of runs reproduces bit-for-bit. A
campaign holds one ``np.random.Philox`` and points it at a word of a
run's stream as that stream, ``np.random.Philox(key=seed + i)``, would
stand after drawing the words before it (see ``_seek``).

Every slot draws an arrival bit (probability q) and a success bit
(probability f), each by comparing one raw 64-bit word with an integer
cut (see ``_cut``); the bit is the one ``Generator.random() < p`` gives
on the same word. The occupancy x follows the slot map
x -> min(max(x + d, 0), K) with d = arrival - success, and an arrival
that meets x = K with a failed draw is lost. A run's words lie in one
fixed order in its stream -- the warm-up's arrival then success words,
then for each chunk its arrival then success words, chunks sized from
the arrivals still to come -- so its result does not depend on the block
of runs it steps in. Each draw starts on a word named by its run's key
and position, where a seek puts the generator unless it already stands
there, so words after the run's last needed arrival are never drawn (see
``_chunk``) and nothing reads the generator's state back.

Only a run's moves, the slots where its two bits differ, can change x.
A block of runs steps a chunk of moves per run at once (see ``_step``):
the slot maps of every _GROUP moves compose into one clamp map (see
``_group_maps``), a log-depth scan of those maps gives the state entering
each group (see ``_group_entries``), and whole-array numpy passes over
the groups stand in for a Python step per slot. A block's warm-ups step
first, as a block of their own whose losses are dropped, in pieces of at
most _BLOCK_CELLS slots (see ``_warm_up``), then its first chunks; a run
that needs more (a straggler) steps each later chunk alone.
"""

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .queueing import QueueParams, _check_f, packet_loss

__all__ = ["SimConfig", "SimReport", "ConvergenceRow", "simulate", "convergence_study"]

_MAX_CHUNK_SLOTS = 2**22
_SLACK_SLOTS = 4096  # slots the first arrival draw adds to its bound (see _first_slots)
_SLOT_BUDGET = 2**40  # the most slots a campaign may be expected to last
_BLOCK_CELLS = 2**20  # run x slot cells drawn per block of runs
_GROUP = 32  # moves per clamp map
_WORD_MASK = 2**64 - 1
_ZERO_WORDS = (0, 0, 0, 0)


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: queue, PHY success probability, and run plan.
    K may be up to 2**62: states step as int64, which wraps silently."""

    queue: QueueParams
    success_prob_f: float
    total_packets: int
    num_runs: int
    seed: int = 0
    initial_queue_state: int = 0
    warmup_slots: int = 0
    track_occupancy: bool = False

    def __post_init__(self) -> None:
        _check_f(self.success_prob_f)
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
        K = self.queue.buffer_size_K
        if K > 2**62:
            raise ValueError(f"buffer size K must not exceed 2**62 in the simulator, got {K}")
        if not 0 <= self.initial_queue_state <= K:
            raise ValueError("initial queue state must lie in [0, K]")
        if self.warmup_slots < 0:
            raise ValueError("warm-up slot count cannot be negative")
        # A run lasts about total_packets / q slots after its warm-up (inf at a
        # vanishing q); within the budget the chunk sizing also stays exact.
        q, total, runs, warm = (self.queue.arrival_prob_q, int(self.total_packets),
                                int(self.num_runs), int(self.warmup_slots))
        if not (max(total, runs, warm) <= _SLOT_BUDGET
                and runs * (total / q + warm) <= _SLOT_BUDGET):
            raise ValueError(f"campaign too long: num_runs = {runs} runs, each of warmup_slots "
                             f"= {warm} slots then total_packets = {total} arrivals at q = "
                             f"{q!r}, last about num_runs * (total_packets / q + warmup_slots) "
                             "slots, which must not exceed 2**40")


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


def _seek(bitgen: np.random.Philox, key: int, word: int) -> None:
    """Point bitgen at word `word` of stream key, where np.random.Philox(key=key)
    stands once it has drawn that many raw words: its counter at word // 4
    4-word blocks, then word % 4 words drawn and dropped. No run reaches
    2**128 blocks, so the counter's top two words stay 0."""
    block = word // 4
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": (block & _WORD_MASK, block >> 64, 0, 0),
                              "key": (key & _WORD_MASK, key >> 64)},
                    "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if word % 4:
        bitgen.random_raw(word % 4)


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


def _group_maps(rows, K):
    """(A, L, H) of every group, rows[j] holding step j of every group: its
    slot maps compose to x -> min(max(x + A, L), H), A being its summed
    steps and L, H the int64 states it leaves from an empty and a full buffer."""
    bounds = np.empty((2,) + rows.shape[1:], dtype=np.int64)
    bounds[0], bounds[1] = 0, K
    for row in rows:
        np.add(bounds, row, out=bounds)
        np.maximum(bounds, 0, out=bounds)
        np.minimum(bounds, K, out=bounds)
    return rows.sum(axis=0, dtype=np.int64), bounds[0], bounds[1]


def _replay(rows, x, K, states):
    """Step x, the states entering the groups, through rows, overwriting
    each row's steps, once added, with its loss flags x + d > K (an arrival
    met a full buffer). states, unless None, gains each row's start states."""
    for j, row in enumerate(rows):
        if states is not None:
            states[j] = x
        np.add(x, row, out=x)
        np.greater(x, K, out=row.view(bool))
        np.maximum(x, 0, out=x)
        np.minimum(x, K, out=x)


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


def _chunk(bitgen, cuts, q, key, word, left, track):
    """Draw the chunk of stream key that starts at word `word`, for left more
    arrivals, and keep its moves up to the slot of the left-th arrival, or to
    the end of the chunk. Returns ((steps, move slots or None, slots), the
    next chunk's word, arrivals still to come).

    A chunk of n slots owns the stream's n arrival words from word, then its
    n success words. Its arrival words are drawn in a first piece of
    _first_slots words, and the rest only if that piece holds fewer than
    left arrivals. Its success words are drawn from word + n, which a chunk
    that leaves arrival words unread seeks to, and only for the slots it
    keeps; its next chunk starts on word + 2n whatever was drawn. Every word
    a slot reads keeps its stream position."""
    (arrive, arrive_bound), (succeed, succeed_bound) = cuts
    n = _chunk_slots(left, q)
    _seek(bitgen, key, word)
    arrival = arrive(bitgen.random_raw(_first_slots(left, q, n)), arrive_bound)
    count = np.count_nonzero(arrival)
    if count < left and arrival.size < n:
        rest = arrive(bitgen.random_raw(n - arrival.size), arrive_bound)
        arrival = np.concatenate([arrival, rest])
        count += np.count_nonzero(rest)
    if arrival.size < n:  # arrival words left unread; else the generator stands there
        _seek(bitgen, key, word + n)
    if count >= left:
        arrival = arrival[:_cut_at(arrival, left, count)]
    success = succeed(bitgen.random_raw(arrival.size), succeed_bound)
    steps, moves = _moves(arrival, success)
    return (steps, moves if track else None, arrival.size), word + 2 * n, max(left - count, 0)


def _group_entries(shift, low, high, x):
    """States entering each group from states x entering the first, given
    the groups' clamp maps (see _group_maps). A log-depth inclusive scan
    turns map g into the composition of maps 0..g: (A1, L1, H1) then
    (A2, L2, H2) is (A1 + A2, f2(L1), f2(H1)), f2 being the second map.
    The scan works in place: it overwrites the maps it is given."""
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
    loss flag from a second pass. States, like x, are int64 throughout (K
    is at most 2**62, see SimConfig). occ, None or runs x (K + 1) int64
    counts, gains the chunks' slot-start states. Returns each run's losses."""
    size = max(steps.size for steps, _, _ in chunks)
    groups = max(1, -(-size // _GROUP))
    cells = np.zeros((groups * _GROUP, len(chunks)), dtype=np.int8)
    for r, (steps, _, _) in enumerate(chunks):
        cells[:steps.size, r] = steps
    rows = cells.reshape(groups, _GROUP, -1).swapaxes(0, 1)  # rows[j]: move j of every group
    entry = _group_entries(*_group_maps(rows, K), x)
    states = np.empty(rows.shape, dtype=np.int64) if occ is not None else None
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


def _warm_up(bitgen, cuts, warm: int, keys, x, K) -> None:
    """Step the runs keyed keys from states x, updated in place, over their
    warm-ups of warm slots, whose losses do not count. Piece k of at most
    _BLOCK_CELLS slots reads a run's arrival words [kC, kC + n) and success
    words [warm + kC, warm + kC + n), C being _BLOCK_CELLS, so no draw holds
    more than C words however long the warm-up."""
    (arrive, arrive_bound), (succeed, succeed_bound) = cuts
    for start in range(0, warm, _BLOCK_CELLS):
        n = min(_BLOCK_CELLS, warm - start)
        pieces = []
        for key in keys:
            _seek(bitgen, key, start)
            arrival = arrive(bitgen.random_raw(n), arrive_bound)
            _seek(bitgen, key, warm + start)
            pieces.append((_moves(arrival, succeed(bitgen.random_raw(n), succeed_bound))[0],
                           None, n))
        _step(pieces, x, K, None)


def _block(bitgen, cuts, config: SimConfig, first_key: int, losses, occ) -> int:
    """Step the runs keyed first_key, first_key + 1, ..., one per entry of
    losses, which gains their losses; occ, None or their rows of occupancy
    counts, gains their slot-start states. Their warm-ups step first, as a
    block whose losses and states do not count; a run's first chunk starts
    on the word after its warm-up's, and a straggler carries the word its
    next chunk starts on. Returns the slots stepped."""
    q = config.queue.arrival_prob_q
    K = int(config.queue.buffer_size_K)
    warm = config.warmup_slots
    keys = range(first_key, first_key + losses.size)
    x = np.full(losses.size, config.initial_queue_state, dtype=np.int64)
    _warm_up(bitgen, cuts, warm, keys, x, K)
    chunks, stragglers = [], []
    for r, key in enumerate(keys):
        chunk, word, left = _chunk(bitgen, cuts, q, key, 2 * warm, config.total_packets,
                                   occ is not None)
        chunks.append(chunk)
        if left:
            stragglers.append((r, key, word, left))
    slots = warm * losses.size + sum(n for _, _, n in chunks)
    losses[:] = _step(chunks, x, K, occ)
    # a straggler, a run that needs more than its first chunk, steps each
    # later chunk as a block of one
    for r, key, word, left in stragglers:
        run = slice(r, r + 1)
        while left:
            chunk, word, left = _chunk(bitgen, cuts, q, key, word, left, occ is not None)
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
    std_error = float(np.std(per_run, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
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
