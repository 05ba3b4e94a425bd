"""Tracer self-test on a hand-counted case.

One exp-model efficiency call evaluates f once and packet_loss once, so
a correct trace holds exactly three spans: efficiency at the root, the
other two as its children in the same invocation. After uninstall the
library must hold its original functions again.

Run alone with `python3 perfbench/selftest.py`; run.py also calls it
before every traced run.
"""

import sys
from pathlib import Path


def run() -> None:
    """Raise RuntimeError if the tracer miscounts, misparents or fails to unwrap."""
    import greenlink
    from greenlink import ExpUnknownChannel, QueueParams, SystemParams

    from tracer import Tracer

    original = greenlink.efficiency
    model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=1e-3)
    system = SystemParams(rate_R=4000.0, fixed_power_b=0.1, noise_sigma2=1e-3,
                          p_min=0.01, p_max=3.0)
    queue = QueueParams(arrival_prob_q=0.5, buffer_size_K=10)

    tracer = Tracer()
    tracer.install()
    try:
        greenlink.efficiency(system, queue, model, 0.05)
    finally:
        tracer.uninstall()

    spans = tracer.spans()
    got = [tracer.names[i] for i in spans["name"]]
    problems = []
    if got != ["efficiency.efficiency", "success.f.exp", "queueing.packet_loss"]:
        problems.append(f"spans {got}")
    elif spans["parent"].tolist() != [-1, 0, 0] or spans["invocation"].tolist() != [0, 0, 0]:
        problems.append(f"parents {spans['parent'].tolist()} "
                        f"invocations {spans['invocation'].tolist()}")
    elif spans["self_ns"][0] != spans["dur_ns"][0] - spans["dur_ns"][1:].sum():
        problems.append("self time is not duration minus children")
    if greenlink.efficiency is not original or hasattr(
            ExpUnknownChannel.success_probability, "__perfbench_traced__"):
        problems.append("uninstall did not restore the originals")
    if problems:
        raise RuntimeError("tracer self-test failed: " + "; ".join(problems))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    run()
    print("tracer self-test passed")
