"""Slot-by-slot Monte Carlo simulation of the finite transmit buffer.

Cross-checks the closed-form loss fraction: each run feeds a fixed
number of packet arrivals through the queue and reports the fraction
lost. Runs use independent counter-based RNG streams keyed by
seed + run index, so any subset of runs reproduces bit-for-bit. Each
block of runs holds one ``np.random.Philox`` and points it at a word of
a run's stream as that stream, ``np.random.Philox(key=seed + i)``, would
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
there, and nothing reads the generator's state back. One draw reads
every stretch, warm-up piece or chunk (see ``_draw``): its arrival words
_PIECE (2**16) at a time, stopping after the piece that holds the run's
last needed arrival, so at most one piece of words past it is drawn,
then its success words only for the slots up to it.

Only a run's moves, the slots where its two bits differ, can change x.
A block of runs steps a chunk of moves per run at once (see ``_step``):
the slot maps of every _GROUP moves compose into one clamp map (see
``_group_maps``), a log-depth scan of those maps gives the state entering
each group (see ``_group_entries``), and whole-array numpy passes over
the groups stand in for a Python step per slot. A block's warm-ups step
first, as a block of their own whose losses are dropped, in pieces of at
most _BLOCK_CELLS slots, then its first chunks; runs that need more
(stragglers) step their later chunks together, one round at a time (see
``_block``).

Blocks share nothing but the campaign's config: each seeks its own
Philox and writes only its runs' losses and occupancy rows, so they can
step at once. When a run lasts at least _THREAD_SLOTS slots (its warm-up
and first chunk), a block's time goes to Philox draws, compares and
whole-array passes that release the GIL, and the blocks step on worker
threads, one per CPU the process may run on, and never more than the
blocks; such a campaign is cut into at least one block per worker that
it has runs for. Shorter runs spend their time in Python between small
numpy calls, and their blocks step on the calling thread.

A block takes its working arrays from a scratch (see ``_Scratch``) and
hands it back when it ends, so the blocks after it, in this call or a
later one and on any thread, step in memory the process already holds
rather than memory the allocator must map and fault in afresh. A scratch
holds a run's arrival and success bits, one byte per slot of the chunk
being drawn (at most _MAX_CHUNK_SLOTS), then, over the same bytes, the
cells, states and gaps of the block's step; and each run's steps, one
byte per move, until the block steps them. The stack of scratches holds
at most one per block that ever stepped at once, one per worker thread,
and none of more than _KEEP_BYTES (16 MiB): a larger one is let go when
its block ends. No thread is kept; each call's workers end with it.
Besides its scratch, a block holds at most 8 * _PIECE bytes (512 KiB) of
raw words at once (see ``_bits``), and each chunk's move slots, 8 bytes
per move, kept until the block steps only when occupancy is tracked.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .queueing import QueueParams, _check_f, packet_loss

__all__ = ["SimConfig", "SimReport", "ConvergenceRow", "simulate", "convergence_study"]

_MAX_CHUNK_SLOTS = 2**22
_SLOT_BUDGET = 2**40  # the most slots a campaign may be expected to last
_BLOCK_CELLS = 2**20  # run x slot cells drawn per block of runs
_THREAD_SLOTS = 2**14  # slots a run lasts, at least, for its blocks to go to worker threads
_PIECE = 2**16  # most raw words a draw holds at once (see _bits)
_KEEP_BYTES = 2**24  # most bytes a scratch keeps between blocks (see _scratch)
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


def _bits(bitgen: np.random.Philox, cut, out):
    """Fill the bool array out with compare(w, bound) of bitgen's next out.size
    raw words w, cut being (compare, bound) (see _cut), and return it. The
    words are drawn in pieces of at most _PIECE, each compared into its
    slice of out, so a draw holds at most 8 * _PIECE bytes of words."""
    compare, bound = cut
    for start in range(0, out.size, _PIECE):
        piece = out[start:start + _PIECE]
        compare(bitgen.random_raw(piece.size), bound, out=piece)
    return out


def _grown(size: int, dtype):
    """A buffer of a one-byte dtype for size items and an eighth more, so
    that a slightly longer chunk than the last does not replace it again."""
    return np.empty(size + size // 8, dtype=dtype)


class _Scratch:
    """The working arrays of a block of runs, over two byte buffers that
    outlive the block (see _scratch). The drawn bytes hold a run's arrival
    and success bits while they are drawn and turned into moves, then the
    cells, states and gaps _step builds from every run's moves; what a call
    to bits or grid returns, the next call overwrites. The kept bytes hold
    each run's steps from its draw until _step has read them. A buffer too
    short for a call is replaced by a longer one; arrays taken from the
    old one keep it alive."""

    def __init__(self) -> None:
        self.drawn = np.empty(0, dtype=bool)
        self.kept = np.empty(0, dtype=np.int8)
        self.kept_end = 0

    def bits(self, n: int):
        """Arrival and success bits for n slots, bool, over the drawn bytes."""
        if self.drawn.size < 2 * n:
            self.drawn = _grown(2 * n, bool)
        return self.drawn[:n], self.drawn[n:2 * n]

    def grid(self, cells: int, states: int, gaps: int):
        """cells int8, states int64 and gaps float64 over the drawn bytes."""
        at = -(-cells // 8) * 8  # the states' first byte, on an 8-byte boundary
        end = at + 8 * (states + gaps)
        if self.drawn.size < end:
            self.drawn = _grown(end, bool)
        drawn = self.drawn
        return (drawn[:cells].view(np.int8), drawn[at:at + 8 * states].view(np.int64),
                drawn[at + 8 * states:end].view(np.float64))

    def keep(self, n: int):
        """n int8 steps over the kept bytes, after those kept since the last spend."""
        start = self.kept_end
        self.kept_end += n
        if self.kept.size < self.kept_end:
            # at least twice as long, so that the buffers a block outgrows
            # while its earlier steps live add up to less than the last
            self.kept = _grown(max(self.kept_end, 2 * self.kept.size), np.int8)
        return self.kept[start:self.kept_end]

    def spend(self) -> None:
        """Free the kept bytes for the next chunks' steps."""
        self.kept_end = 0


_SCRATCHES: List[_Scratch] = []  # the scratches no block holds (see _scratch)


@contextmanager
def _scratch():
    """A scratch for one block: the last one a block handed back, or a new
    one when blocks stepping now hold them all, so there are never more
    than the blocks that ever stepped at once. It goes back on the stack
    when the block ends, even by an error, unless its two buffers hold more
    than _KEEP_BYTES. A list's pop and append each run whole under the GIL,
    so threads share the stack without a lock."""
    try:
        scratch = _SCRATCHES.pop()
    except IndexError:  # every scratch is held by a block stepping now
        scratch = _Scratch()
    try:
        yield scratch
    finally:
        scratch.spend()
        if scratch.drawn.nbytes + scratch.kept.nbytes <= _KEEP_BYTES:
            _SCRATCHES.append(scratch)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


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


def _moves(arrival, success, scratch):
    """Steps d = +-1 of the slots that can move x, kept in scratch, and
    those slots. success is overwritten.

    Only a slot with exactly one of its two bits set can move x: an
    arrival whose transmission fails (up) adds a packet, or is lost when
    the buffer already holds K; a success without an arrival (down) sends
    one buffered packet, if there is one. An arrival whose transmission
    succeeds leaves x as it is (a packet arriving to an empty buffer is
    served in the same slot)."""
    moves = np.not_equal(arrival, success, out=success).nonzero()[0]
    steps = scratch.keep(moves.size)
    arrival.take(moves, out=steps.view(bool), mode="clip")  # up where the arrival bit is set
    steps *= 2
    steps -= 1
    return steps, moves


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


def _draw(bitgen, cuts, key, word, success_word, n, left, track, scratch):
    """Draw n slots of stream key, their arrival words from word and their
    success words from success_word, and keep their moves up to the slot of
    the left-th arrival, or to the n-th slot. Returns ((steps, move slots or
    None, slots), arrivals drawn).

    The arrival words are drawn _PIECE at a time, stopping after the piece
    that holds the left-th arrival, in which _cut_at finds it. The success
    words are drawn only for the slots kept, after a seek unless the arrival
    words drawn end on success_word. Every word a slot reads keeps its
    stream position. The bits are drawn into scratch's drawn bytes, and the
    steps kept in it (see _moves)."""
    arrive, succeed = cuts
    arrival, success = scratch.bits(n)
    _seek(bitgen, key, word)
    count = drawn = 0
    while count < left and drawn < n:
        piece = _bits(bitgen, arrive, arrival[drawn:drawn + _PIECE])
        before, count = count, count + int(np.count_nonzero(piece))
        drawn += piece.size
    if word + drawn != success_word:
        _seek(bitgen, key, success_word)
    slots = n
    if count >= left:  # the left-th arrival lies in the last piece drawn
        slots = drawn - piece.size + _cut_at(piece, left - before, count - before)
    steps, moves = _moves(arrival[:slots], _bits(bitgen, succeed, success[:slots]), scratch)
    return (steps, moves if track else None, slots), count


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


def _step(chunks, x, K, occ, scratch):
    """Step a block of runs over their chunks' moves from states x, updated in place.

    chunks[r] holds run r's (steps, move slots or None, slots). The steps
    fill the columns of one zero-padded (moves, runs) array, whose zero
    cells leave x alone and lose nothing, cut into groups of _GROUP moves.
    Every group's clamp map comes from one pass over the moves, the states
    entering the groups from a scan of the maps, and every move's state and
    loss flag from a second pass. States, like x, are int64 throughout (K
    is at most 2**62, see SimConfig). occ, None or one int64 row of K + 1
    occupancy counts per chunk (a list of row views, so no round copies
    them), gains the chunks' slot-start states. The cells, states and gaps
    lie in scratch's drawn bytes, and the chunks' steps, kept in scratch,
    are spent once it returns. Returns each run's losses."""
    size = max(steps.size for steps, _, _ in chunks)
    groups = max(1, -(-size // _GROUP))
    shape = (groups * _GROUP, len(chunks))
    track = occ is not None
    count = shape[0] * shape[1]
    cells, states, gaps = scratch.grid(count, count if track else 0, size if track else 0)
    cells = cells.reshape(shape)
    cells.fill(0)
    for r, (steps, _, _) in enumerate(chunks):
        cells[:steps.size, r] = steps
    rows = cells.reshape(groups, _GROUP, -1).swapaxes(0, 1)  # rows[j]: move j of every group
    entry = _group_entries(*_group_maps(rows, K), x)
    # states[m, r] is move m's start state, written through rows' view of it
    states = states.reshape(shape) if track else None
    _replay(rows, entry, K, None if states is None else
            states.reshape(groups, _GROUP, -1).swapaxes(0, 1))
    x[:] = entry[-1]  # entry now holds the states leaving each group
    if track:
        # A move's state lasts from the slot after the previous move through
        # its own, and the state after the last move to the chunk's end.
        for r, (_, moves, n) in enumerate(chunks):
            gap = gaps[:moves.size]  # float64, as bincount takes its weights
            np.subtract(moves[1:], moves[:-1], out=gap[1:])
            gap[:1] = moves[:1] + 1
            occ[r] += np.bincount(states[:moves.size, r], weights=gap,
                                  minlength=K + 1).astype(np.int64)
            occ[r][x[r]] += n - 1 - int(moves[-1]) if moves.size else n
    scratch.spend()
    return np.count_nonzero(cells.view(bool), axis=0)


def _block(bitgen, cuts, config: SimConfig, first_key: int, losses, occ) -> int:
    """Step the runs keyed first_key, first_key + 1, ..., one per entry of
    losses, which gains their losses; occ, None or their rows of occupancy
    counts, gains their slot-start states. bitgen is the block's own, a seek
    puts it at every word it draws, and nothing else is written, so blocks on
    other threads cannot change the result. Its working arrays come from one
    scratch (see _scratch). Returns the slots stepped.

    The warm-ups step first, as a block whose losses and states do not
    count, in pieces of at most C = _BLOCK_CELLS slots: piece k of n slots
    reads a run's arrival words [kC, kC + n) and success words [warm + kC,
    warm + kC + n), so no piece holds more than 2C bits however long the
    warm-up. Round 0 then steps every run's first chunk, from the word after
    its warm-up's, and stragglers step their later chunks together, one
    round at a time; a chunk of n slots reads n arrival words, then n
    success words, from where its run's last chunk ended."""
    q = config.queue.arrival_prob_q
    K = int(config.queue.buffer_size_K)
    warm = config.warmup_slots
    track = occ is not None
    runs = losses.size
    keys = range(first_key, first_key + runs)
    x = np.full(runs, config.initial_queue_state, dtype=np.int64)
    with _scratch() as scratch:
        for start in range(0, warm, _BLOCK_CELLS):
            n = min(_BLOCK_CELLS, warm - start)
            _step([_draw(bitgen, cuts, key, start, warm + start, n, n + 1, False, scratch)[0]
                   for key in keys], x, K, None, scratch)
        rows, words, left = list(range(runs)), [2 * warm] * runs, [config.total_packets] * runs
        slots = warm * runs
        while rows:
            chunks = []
            for r in rows:
                n = _chunk_slots(left[r], q)
                chunk, count = _draw(bitgen, cuts, keys[r], words[r], words[r] + n, n, left[r],
                                     track, scratch)
                chunks.append(chunk)
                words[r] += 2 * n
                left[r] = max(left[r] - count, 0)
                slots += chunk[2]
            at = x[rows]
            losses[rows] += _step(chunks, at, K, [occ[r] for r in rows] if track else None,
                                  scratch)
            x[rows] = at
            rows = [r for r in rows if left[r]]
    return slots


def simulate(config: SimConfig) -> SimReport:
    """Run the campaign and compare the loss fraction against the closed form.

    Runs of at least _THREAD_SLOTS slots step their blocks on worker threads,
    up to one per CPU the process may run on; every result is the one the
    calling thread alone gives. An error in a block is raised here, once the
    blocks already stepping end, and the blocks not yet started never run."""
    q = config.queue.arrival_prob_q
    f = config.success_prob_f
    K = int(config.queue.buffer_size_K)
    total = config.total_packets
    runs = config.num_runs
    cuts = (_cut(q), _cut(f))

    losses = np.zeros(runs, dtype=np.int64)
    occ_counts = np.zeros((runs, K + 1), dtype=np.int64) if config.track_occupancy else None
    run_slots = config.warmup_slots + _chunk_slots(total, q)
    # A block of long runs spends its time in numpy calls that release the
    # GIL; short runs spend theirs in Python between small calls, where
    # threads would only contend for it.
    cpus = _cpus() if run_slots >= _THREAD_SLOTS else 1
    blocks = min(runs, max(-(-runs * run_slots // _BLOCK_CELLS), cpus))
    edges = [runs * b // blocks for b in range(blocks + 1)]

    def step_block(b: int) -> int:
        lo, hi = edges[b], edges[b + 1]
        occ = occ_counts[lo:hi] if occ_counts is not None else None
        bitgen = np.random.Philox(key=0)  # re-keyed to each run's stream
        return _block(bitgen, cuts, config, int(config.seed) + lo, losses[lo:hi], occ)

    workers = min(blocks, cpus)
    if workers == 1:
        slots = sum(map(step_block, range(blocks)))
    else:
        with ThreadPoolExecutor(workers) as pool:
            slots = sum(pool.map(step_block, range(blocks)))
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
