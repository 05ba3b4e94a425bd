"""Every command at the parameter corners: it answers, or it says why not.

Argv for every command is drawn from cli._FIELDS, each setting at corner
values, and run through cli.main in-process. Every call must return 0, 1
(bad settings) or 2 (a loss bound out of reach), never raise, and say
what went wrong on stderr when it does not return 0.

A simulate campaign is expected to last num_runs * (total_packets / q +
warmup_slots) slots, the reckoning of SimConfig's 2**40-slot budget. q
reaches from 1 down to 5e-324 and warm-ups up to 1e6 slots, so a campaign
within the budget can still take hours: each simulate argv is drawn
under a cap of _SLOT_CAP slots, summed over the campaigns it may run
(one, or one per count of a convergence study), and one over the budget
must exit 1 at once, before a slot runs (item 6 of ROADMAP.md). K reaches
past the int32 range up to the int64 one, and convergence studies mix
counts that round to no int or no valid count.
"""

import contextlib
import io

from hypothesis import assume, example, given, settings, strategies as st

from greenlink import cli

COMMANDS = ("eval", "optimize", "sweep", "gain", "simulate")
_Q = ["5e-324", "1e-300", "1e-12", "1e-6", "0.5", str(1 - 1e-9), "1"]
_K = ["1", "2", "10", "1000", "1000000"]
_WIDE = st.integers(-300, 300).map(lambda e: f"1e{e}")  # 1e-300 to 1e300
_VALUES = {  # corner values by field; every other float field draws _WIDE
    "q": st.sampled_from(_Q),
    "K": st.sampled_from(_K),
    "model": st.sampled_from(["exp", "qfunc"]),
    "sweep_axis": st.sampled_from(["q", "b_over_sigma2", "p"]),
    "b_w": st.one_of(st.just("0"), _WIDE),
    "b_over_sigma2": st.one_of(st.just("0"), _WIDE),
    "epsilon": st.one_of(st.sampled_from(["1", "0.5", "1e-15"]), _WIDE),
    "p_points": st.sampled_from(["1", "2", "7"]),
    "seed": st.sampled_from(["0", "12345"]),
    "sweep_values": st.lists(st.one_of(st.sampled_from(_Q + ["0"]), _WIDE),
                             min_size=1, max_size=3).map(",".join),
}


_BIG_K = ["2147483648", "3000000000", str(2**62), str(2**63 - 1)]
_SIMULATE = {  # simulate's own corners; _SLOT_CAP bounds the campaigns drawn from them
    "q": st.sampled_from(_Q[:4] + ["1e-3", "0.01", "0.05"] + _Q[4:]),
    "K": st.sampled_from(_K + _BIG_K),
    "sim_f": st.one_of(st.sampled_from(["0", "0.5", "1"]), _WIDE),
    "total_packets": st.sampled_from(["1", "300"]),
    "num_runs": st.sampled_from(["1", "5"]),
    "warmup_slots": st.sampled_from(["-1", "0", "37", "2000", "100000", "1000000"]),
    "initial_state": st.sampled_from(["0", "1", "10"] + _BIG_K),
    "packet_counts": st.lists(st.sampled_from(["1", "300", "0", "-5", "2.5", "inf", "-inf",
                                               "nan", "1e400"]),
                              min_size=1, max_size=3).map(",".join),
}

# eval and simulate need a power, sweep and gain axis values; simulate's
# run plan is always drawn, as its defaults run 1000 runs of 1000 packets,
# and so are its q and warm-up, which set how long a campaign lasts
_ALWAYS = {"p_w", "sweep_values", "total_packets", "num_runs"}
_ALWAYS_SIMULATE = _ALWAYS | {"q", "warmup_slots"}
_SLOT_BUDGET = 2**40  # SimConfig's: a campaign expected to last longer is rejected
_SLOT_CAP = 10**7  # the most slots one simulate argv may step


def campaign_slots(argv):
    """The slots each campaign of a simulate argv is expected to last,
    num_runs * (packets / q + warmup_slots) as SimConfig reckons its budget:
    first the campaign of --total-packets, which SimConfig checks even in a
    convergence study, then one per count of the study."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    q = float(flags.get("--q", "0.5"))
    runs, warm = int(flags.get("--num-runs", "1000")), int(flags.get("--warmup-slots", "0"))
    counts = flags["--packet-counts"].split(",") if "--packet-counts" in flags else []
    packets = [flags.get("--total-packets", "1000"), *counts]
    return [runs * (float(n) / q + warm) for n in packets]


@st.composite
def argvs(draw):
    """A command and about a third of its other flags, each at a corner value."""
    command = draw(st.sampled_from(COMMANDS))
    values, always = ({**_VALUES, **_SIMULATE}, _ALWAYS_SIMULATE) if command == "simulate" \
        else (_VALUES, _ALWAYS)
    argv = [command]
    for row in cli._FIELDS:
        if command not in row.commands or row.field == "out":
            continue
        if row.field not in always and draw(st.integers(0, 2)):
            continue
        flag = "--" + row.flag.replace("_", "-") + ("-w" if row.power else "")
        argv += [flag, draw(values.get(row.field, _WIDE))]
    if command == "simulate":
        # a campaign over the budget is rejected before it steps a slot
        assume(sum(max(slots, 0) for slots in campaign_slots(argv)
                   if slots <= _SLOT_BUDGET) <= _SLOT_CAP)
    return argv


# Each of these raised ZeroDivisionError in efficiency._eta: b = 0 with a p
# underflowing to 0.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(argvs())
@example(["optimize", "--a", "1e-300", "--b-w", "0", "--q", "1e-300", "--sigma2-w", "1e-30",
          "--pmin-w", "1e-31", "--pmax-w", "1e-28"])
@example(["eval", "--a", "1e-300", "--b-w", "0", "--q", "1e-300", "--sigma2-w", "1e-40",
          "--p-w", "1e-30", "--pmin-w", "1e-31"])
@example(["gain", "--a", "1e-300", "--b-w", "0", "--q", "1e-300", "--sigma2-w", "1e-30",
          "--pmin-w", "1e-31", "--pmax-w", "1e-28", "--values", "1e-300"])
@example(["sweep", "--a", "1e-300", "--b-w", "0", "--q", "1e-300", "--sigma2-w", "1e-30",
          "--pmin-w", "1e-31", "--pmax-w", "1e-28", "--values", "1e-300"])
# A K past 2**31 raised OverflowError in the simulator's int32 states, and a
# packet count of inf raised OverflowError as it was rounded to an int.
@example(["simulate", "--f", "0.5", "--K", "3000000000", "--num-runs", "1",
          "--total-packets", "10"])
@example(["simulate", "--f", "0.5", "--K", str(2**63 - 1)])
@example(["simulate", "--f", "0.5", "--packet-counts", "inf"])
# about 1e15 slots: months at 20-36 M slots per second
@example(["simulate", "--q", "1e-12", "--f", "0.5", "--total-packets", "1000",
          "--num-runs", "1"])
def test_every_command_answers_at_the_corners(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().strip()
    if argv[0] == "simulate" and not campaign_slots(argv)[0] <= _SLOT_BUDGET:
        assert code == 1
