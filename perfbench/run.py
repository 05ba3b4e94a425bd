#!/usr/bin/env python3
"""greenlink benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.
One process, one thread, closed loop: each top-level call starts when
the previous one returns. The untraced run (--trace 0) times the
workload's tasks round-robin for --seconds (always at least one full
pass), checks every output and prints the end-to-end metrics. The traced
run (--trace 1) runs a fixed slice of the workload once untraced and once
under the span tracer and prints the per-layer metrics. The last line of
stdout is one JSON object; the exit code is 0 only when every check
passed. See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
TRACE_TASKS = {"gain-map": 32}  # tasks in the traced slice; other workloads trace a full pass
RUN_SETUP_RUNS = 2000  # runs in the total_packets=1 campaign that prices per-run set-up


def import_program() -> None:
    """Import greenlink from ./src of this checkout, or exit non-zero."""
    if not (SRC / "greenlink" / "__init__.py").is_file():
        raise SystemExit(f"error: no greenlink package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import greenlink
    import greenlink.cli  # noqa: F401

    if Path(greenlink.__file__).resolve().parent != SRC / "greenlink":
        raise SystemExit(f"error: imported greenlink from {greenlink.__file__}, not {SRC}")


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def _child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))


class Clock:
    """Times calls between machine-speed readings (see speed.py)."""

    def __init__(self) -> None:
        self.last = speed.reading()
        self.readings = [self.last]

    def measure(self, fn, *args, **kwargs):
        """(result, seconds at reference speed, raw seconds) of fn(*args, **kwargs)."""
        before = self.last
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.last = speed.reading()
        self.readings.append(self.last)
        return result, speed.at_reference(raw, before, self.last), raw


# Timed inside the fresh interpreter, then scaled by its reference imports.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import greenlink, greenlink.cli, workloads
workloads.build({workload!r}, {seed})
seconds = time.perf_counter() - t0
import speed
print(seconds, speed.import_reading())
"""


def setup_seconds(workload: str, seed: int) -> List[Tuple[float, float]]:
    """(reference-speed, raw) seconds that fresh interpreters take to import
    greenlink and greenlink.cli and build the workload's inputs."""
    code = SETUP_PROBE.format(workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              check=True, capture_output=True, text=True)
        seconds, reference = map(float, done.stdout.split())
        samples.append((seconds * speed.REF_IMPORT_S / reference, seconds))
    return samples


def import_ms() -> Dict[str, float]:
    """Median cumulative import time of greenlink, scipy.special and numpy, from -X importtime."""
    wanted = {"greenlink": [], "scipy.special": [], "numpy": []}
    line = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import greenlink, greenlink.cli"],
                              cwd=ROOT, env=_child_env(), check=True, capture_output=True, text=True)
        for match in map(line.match, done.stderr.splitlines()):
            if match and match.group(2) in wanted:
                wanted[match.group(2)].append(int(match.group(1)) / 1000.0)
    return {f"import.{name}_ms": statistics.median(v) for name, v in wanted.items()}


@dataclass
class Calls:
    """What one stretch of calls did: per-call seconds (at reference speed and
    raw) and each task's first outcome: (exit code, SHA-256 of the CSV) for a
    CLI task, whose CSV is left in the runner's workdir, or the SimReport."""

    seconds: Dict[int, List[float]] = field(default_factory=dict)
    raw: List[float] = field(default_factory=list)
    outcomes: Dict[int, object] = field(default_factory=dict)
    failed: Dict[int, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.raw)


class Runner:
    """Calls into greenlink through module attributes, so tracer wrappers are seen."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cli = sys.modules["greenlink.cli"]
        self.package = sys.modules["greenlink"]

    def call(self, task, out: Optional[Path]):
        """One top-level call: the CLI exit code, or the SimReport."""
        if task.kind == "cli":
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(task.argv + ["--out", str(out)])
        return self.package.simulate(task.config)

    def _guarded(self, task, out: Path):
        try:
            return self.call(task, out)
        except Exception as exc:  # a raising call is a failed call; keep measuring
            return exc

    def run(self, tasks, clock: Clock, seconds: float = 0.0) -> Calls:
        """Round-robin over tasks until `seconds` have passed and every task ran once."""
        calls = Calls()
        deadline = time.perf_counter() + seconds
        n = 0
        while n < len(tasks) or time.perf_counter() < deadline:
            i = n % len(tasks)
            n += 1
            task = tasks[i]
            out = self.workdir / f"task{i}.csv"
            outcome, elapsed, raw = clock.measure(self._guarded, task, out)
            if task.kind == "cli" and not isinstance(outcome, Exception):
                outcome = (outcome, hashlib.sha256(out.read_bytes()).hexdigest()
                           if out.exists() else None)
            calls.seconds.setdefault(i, []).append(elapsed)
            calls.raw.append(raw)
            problem = self.problem(task, outcome, calls.outcomes.get(i))
            if problem:
                calls.failed[i] = calls.failed.get(i, 0) + 1
                if len(calls.errors) < 5:
                    calls.errors.append(f"task {i} {task.argv or task.config}: {problem}")
            elif i not in calls.outcomes:
                calls.outcomes[i] = outcome
        return calls

    @staticmethod
    def problem(task, outcome, first) -> Optional[str]:
        """Why `outcome` fails, by itself or against the task's first outcome."""
        if isinstance(outcome, Exception):
            return f"raised {outcome!r}"
        if task.kind == "cli":
            if outcome[0] not in (0, 2):
                return f"exit code {outcome[0]}"
            if first is not None and first != outcome:
                return f"exit code and CSV {outcome} differ from the first call's {first}"
        elif first is not None and not (first.per_run_losses == outcome.per_run_losses).all():
            return "per-run losses differ from the first call"
        return None


def _check(workload: str, seed: int, tasks, calls: Calls, runner: Runner):
    import checks

    found = checks.run(workload, seed, tasks, calls.outcomes, runner.call, runner.workdir)
    failed = sum(len(calls.seconds[i]) if i in found.bad_tasks else calls.failed.get(i, 0)
                 for i in calls.seconds)
    attempted = calls.attempted + found.extra_attempted
    failed += found.extra_failed
    messages = calls.errors + [f"task {i}: {m}" for i, m in sorted(found.bad_tasks.items())][:5] \
        + found.messages[:5]
    if found.wrapped_cells:
        print(f"  KNOWN DEFECT (not counted as failed): {found.wrapped_cells} {checks.WRAPPED_DEFECT}")
    return attempted, failed, messages


def _q(values: List[float], n: int, k: int) -> float:
    return statistics.quantiles(values, n=n, method="inclusive")[k]


def timed_run(workload: str, seed: int, seconds: float, tasks, runner: Runner):
    setup = setup_seconds(workload, seed)
    clock = Clock()
    runner.call(tasks[0], runner.workdir / "warmup.csv")  # untimed: first-call costs
    calls = runner.run(tasks, clock, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = _check(workload, seed, tasks, calls, runner)

    # One pass of the workload, each task priced at the median time of the
    # calls of its shape: robust to bursts, and the mix of tasks stays that
    # of one pass wherever the last pass ended.
    by_shape: Dict[object, List[float]] = {}
    for i, ds in calls.seconds.items():
        by_shape.setdefault(tasks[i].shape, []).extend(ds)
    priced = [statistics.median(by_shape[task.shape]) for task in tasks]
    all_ms = [d * 1e3 for ds in calls.seconds.values() for d in ds]
    raw_ms = [d * 1e3 for d in calls.raw]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "throughput": sum(task.work for task in tasks) / sum(priced),
        "cmd_ms.p50": statistics.median(priced) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    item = "rows_per_s" if tasks[0].kind == "cli" else "packets_per_s"
    pace = speed.REF_KERNEL_S / statistics.median(clock.readings)
    print(f"  machine speed  {pace:.3f} x reference (median of {len(clock.readings)} readings); "
          "times below are at reference speed, raw in brackets")
    print(f"  setup_s        {metrics['setup_s']:.4f} s [{statistics.median(r for _, r in setup):.4f}]"
          f"  (median of {len(setup)} fresh interpreters)")
    print(f"  {item:<14} {metrics['throughput']:.6g} 1/s  (reported as throughput)")
    print(f"  cmd_ms.p50     {metrics['cmd_ms.p50']:.4f} ms  (median over the {len(tasks)} tasks "
          f"of a pass, each at its median; {len(all_ms)} calls)")
    if len(all_ms) >= 100:  # p90 needs at least ten samples beyond it
        print(f"  all calls      p50 {statistics.median(all_ms):.4f} ms [{statistics.median(raw_ms):.4f}],"
              f" p90 {_q(all_ms, 10, 8):.4f} ms [{_q(raw_ms, 10, 8):.4f}]")
    print(f"  failed_frac    {failed / attempted:.6g}  ({failed} of {attempted})")
    print(f"  peak_rss_mb    {peak_rss_mb:.2f} MB")
    return metrics, attempted, failed, messages


def _calibration_tasks():
    """Fixed small calls that time the layers a workload never reaches."""
    from greenlink import QueueParams, SimConfig
    from workloads import Task

    gain = ["gain", "--values", "0.5"]
    return [
        Task("cli", 1, {}, argv=gain + ["--model", "exp"]),
        Task("cli", 1, {}, argv=gain + ["--model", "qfunc", "--kappa", "10"]),
        Task("sim", 20 * 1000, {}, config=SimConfig(QueueParams(0.5, 10), 0.5, 1000, 20)),
    ] * 3


def _layer_metrics(tracer, tasks) -> Dict[str, float]:
    """Per-layer numbers from one tracer; `tasks` are the top-level calls it saw, in order."""
    import numpy as np

    spans = tracer.spans()
    dur, own = spans["dur_ns"] / 1e3, spans["self_ns"] / 1e3  # microseconds

    def calls(name):
        return int(tracer.select(name).sum())

    def mean(values, name):
        mask = tracer.select(name)
        return float(values[mask].mean()) if mask.any() else None

    optima = calls("optimize.maximize_constrained")
    in_opt = tracer.under("optimize.maximize_constrained")
    rows = sum(t.work for t in tasks if t.kind == "cli")
    sims = [t.config for t in tasks if t.kind == "sim"]
    packets = sum(c.num_runs * c.total_packets for c in sims)
    slots = sum(c.num_runs * (c.total_packets / c.queue.arrival_prob_q + c.warmup_slots) for c in sims)
    sim_ns = float(dur[tracer.select("simulate.simulate")].sum()) * 1e3
    mc = tracer.select("optimize.maximize_constrained")
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_us_per_row":
            float(own[tracer.select("cli.main")].sum()) / rows if rows else None,
        "optimize.maximize_constrained.calls": optima,
        "optimize.maximize_constrained.us.p50": float(np.median(dur[mc])) if optima else None,
        "optimize.maximize_constrained.self_us": mean(own, "optimize.maximize_constrained"),
        "optimize.maximize_unconstrained.us": mean(dur, "optimize.maximize_unconstrained"),
        "optimize.qos_threshold.us": mean(dur, "optimize.qos_threshold"),
        "optimize.efficiency_calls_per_optimum":
            int((tracer.select("efficiency.efficiency") & in_opt).sum()) / optima if optima else 0,
        "optimize.residual_calls_per_optimum":
            int((tracer.select("efficiency.stationarity_residual") & in_opt).sum()) / optima
            if optima else 0,
        "optimize.packet_loss_calls_per_optimum":
            int((tracer.select("queueing.packet_loss") & in_opt).sum()) / optima if optima else 0,
        "efficiency.efficiency.calls": calls("efficiency.efficiency"),
        "efficiency.efficiency.self_us": mean(own, "efficiency.efficiency"),
        "efficiency.stationarity_residual.calls": calls("efficiency.stationarity_residual"),
        "efficiency.stationarity_residual.self_us": mean(own, "efficiency.stationarity_residual"),
        "queueing.packet_loss.calls": calls("queueing.packet_loss"),
        "queueing.packet_loss.us": mean(dur, "queueing.packet_loss"),
        "success.f.exp.calls": calls("success.f.exp"),
        "success.f.qfunc.calls": calls("success.f.qfunc"),
        "success.f.exp.us": mean(dur, "success.f.exp"),
        "success.f.qfunc.us": mean(dur, "success.f.qfunc"),
        "success.df.calls": calls("success.df.exp") + calls("success.df.qfunc"),
        "simulate.simulate.calls": calls("simulate.simulate"),
        "simulate.runs": sum(c.num_runs for c in sims),
        "simulate.ns_per_packet": sim_ns / packets if packets else None,
        "simulate.ns_per_slot": sim_ns / slots if slots else None,
    }


def traced_run(workload: str, seed: int, tasks, runner: Runner):
    import selftest
    from tracer import Tracer

    selftest.run()
    work = tasks[: TRACE_TASKS.get(workload)]
    layer_extra = import_ms()
    from greenlink import QueueParams, SimConfig

    setup_config = SimConfig(QueueParams(0.5, 10), 0.5, total_packets=1, num_runs=RUN_SETUP_RUNS,
                             seed=seed)
    per_run = []
    for _ in range(3):
        t0 = time.perf_counter()
        runner.package.simulate(setup_config)
        per_run.append((time.perf_counter() - t0) / RUN_SETUP_RUNS * 1e6)
    layer_extra["simulate.run_setup_us"] = statistics.median(per_run)

    clock = Clock()
    runner.call(work[0], runner.workdir / "warmup.csv")
    plain = runner.run(work, clock)
    tracer = Tracer()
    tracer.install()
    try:
        calls = runner.run(work, clock)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = (sum(d for ds in c.seconds.values() for d in ds) for c in (plain, calls))
    layer_extra["trace.overhead_frac"] = statistics.median(
        calls.seconds[i][0] / plain.seconds[i][0] for i in plain.seconds) - 1.0
    attempted, failed, messages = _check(workload, seed, work, calls, runner)
    for i, outcome in plain.outcomes.items():
        if i in calls.outcomes and Runner.problem(work[i], calls.outcomes[i], outcome):
            failed += 1
            messages.append(f"task {i}: traced outcome differs from the untraced one")

    calibration = Tracer()
    calibration_tasks = _calibration_tasks()
    calibration.install()
    try:
        calibrated = runner.run(calibration_tasks, clock)
    finally:
        calibration.uninstall()
    if calibrated.failed:
        raise RuntimeError(f"calibration calls failed: {calibrated.errors}")

    measured = _layer_metrics(tracer, work)
    fallback = _layer_metrics(calibration, calibration_tasks)
    metrics, source = {}, {}
    for name, value in measured.items():
        if value is None:
            value, source[name] = fallback[name], "calibration"
        metrics[name] = value
    metrics.update(layer_extra)
    save = ROOT / ".bench_out" / f"trace-{workload}.npz"
    tracer.save(save)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g}" + (f"  ({source[name]})" if name in source else ""))
    print(f"  spans: {len(tracer.parent)} written to {save.relative_to(ROOT)}; "
          f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s at reference speed")
    return metrics, attempted, failed, messages


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    tasks = workloads.build(args.workload, args.seed)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        runner = Runner(workdir)
        if args.trace:
            metrics, attempted, failed, messages = traced_run(args.workload, args.seed, tasks, runner)
        else:
            metrics, attempted, failed, messages = timed_run(
                args.workload, args.seed, args.seconds, tasks, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in messages:
        print("CHECK FAILED: " + message)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
