"""Every command at the parameter corners: it answers, or it says why not.

Argv for every command is drawn from cli._FIELDS, each setting at corner
values, and run through cli.main in-process. Every call must return 0, 1
(bad settings) or 2 (a loss bound out of reach), never raise, and say
what went wrong on stderr when it does not return 0.

A simulate campaign lasts about total_packets / q slots a run, so its
draw is bounded: at most 300 packets, 5 runs and 2000 warm-up slots, and
q no smaller than 0.05 but at 5e-324 and 1e-300, which a config rejects
before a slot runs. A smaller q that runs waits on a slot budget (item 6
of ROADMAP.md). K reaches past the int32 range up to the int64 one, and
convergence studies mix counts that round to no int or no valid count.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

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
_SIMULATE = {  # simulate's own corners, for campaigns that end in milliseconds
    "q": st.sampled_from(["5e-324", "1e-300", "0.05", "0.5", str(1 - 1e-9), "1"]),
    "K": st.sampled_from(_K + _BIG_K),
    "sim_f": st.one_of(st.sampled_from(["0", "0.5", "1"]), _WIDE),
    "total_packets": st.sampled_from(["1", "300"]),
    "num_runs": st.sampled_from(["1", "5"]),
    "warmup_slots": st.sampled_from(["-1", "0", "37", "2000"]),
    "initial_state": st.sampled_from(["0", "1", "10"] + _BIG_K),
    "packet_counts": st.lists(st.sampled_from(["1", "300", "0", "-5", "2.5", "inf", "-inf",
                                               "nan", "1e400"]),
                              min_size=1, max_size=3).map(",".join),
}

# eval and simulate need a power, sweep and gain axis values; simulate's
# run plan is always drawn, as its defaults run 1000 runs of 1000 packets
_ALWAYS = {"p_w", "sweep_values", "total_packets", "num_runs"}


@st.composite
def argvs(draw):
    """A command and about a third of its other flags, each at a corner value."""
    command = draw(st.sampled_from(COMMANDS))
    values = {**_VALUES, **_SIMULATE} if command == "simulate" else _VALUES
    argv = [command]
    for row in cli._FIELDS:
        if command not in row.commands or row.field == "out":
            continue
        if row.field not in _ALWAYS and draw(st.integers(0, 2)):
            continue
        flag = "--" + row.flag.replace("_", "-") + ("-w" if row.power else "")
        argv += [flag, draw(values.get(row.field, _WIDE))]
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
def test_every_command_answers_at_the_corners(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().strip()
