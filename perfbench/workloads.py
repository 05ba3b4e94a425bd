"""Seeded workload generator.

build(name, seed) returns the list of tasks one pass of a workload runs.
The program under test receives only what a task carries: an argv list
for greenlink.cli.main, or a SimConfig for greenlink.simulate. The
``spec`` dict restates the task's parameters for the correctness checks,
so they never have to parse the program's own settings.

The same (name, seed) always gives the same tasks.
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

DEFAULT_SEED = 1

# Success models the CLI offers; kappa is the qfunc model's sharpness.
MODELS = [("exp", None), ("qfunc", 2.0), ("qfunc", 10.0), ("qfunc", 100.0)]
K_VALUES = [1, 10, 1000, 1000000]
EPSILONS = [1.0, 0.01]
B_OVER_SIGMA2 = [0.0, 1.0, 100.0, 1e4]
GAIN_DEFAULT_Q = [round(0.05 * i, 2) for i in range(1, 21)]  # the CLI's own default grid
GAIN_Q_CORNERS = [1e-6, 1e-5, 1e-4]
GAIN_B_AXIS = [0.0] + [float(f"{10.0 ** (-2.0 + k / 3.0):.4g}") for k in range(19)]

SWEEP_P_POINTS = 200  # power-grid points per axis value on the q and b axes
SWEEP_AXIS_VALUES = 5
SWEEP_P_AXIS_POINTS = 1000

MC_SHORT_POINTS = [(0.5, 0.5, 10), (0.3, 0.6, 5), (0.9, 0.5, 10)]  # (q, f, K)
MC_SHORT_RUNS = 250
MC_SHORT_PACKETS = 1000

MC_LONG_TASKS = 4
MC_LONG_RUNS = 2
MC_LONG_PACKETS = 100_000
MC_LONG_Q = 0.1
MC_LONG_K = 1000
MC_LONG_WARMUP = 150_000  # over 2x the slots an empty buffer needs to fill at these loads


@dataclass
class Task:
    """One top-level call: cli.main(argv + ['--out', path]) or simulate(config)."""

    kind: str  # "cli" or "sim"
    work: int  # CSV rows written (cli) or packets simulated (sim)
    spec: Dict[str, Any]
    argv: List[str] = field(default_factory=list)
    config: Optional[Any] = None

    @property
    def shape(self):
        """Calls of equal shape do the same work: their inputs differ at most in the RNG seed."""
        return tuple(self.argv) if self.kind == "cli" else replace(self.config, seed=0)


def _fmt(x: float) -> str:
    return repr(float(x))


def _model_flags(model: str, kappa: Optional[float]) -> List[str]:
    flags = ["--model", model]
    if kappa is not None:
        flags += ["--kappa", _fmt(kappa)]
    return flags


def gain_map(rng: np.random.Generator) -> List[Task]:
    """CLI gain over the full model x K x epsilon x b/sigma2 grid.

    A seeded quarter of the grid adds a q -> 0 corner to the default q
    values and another quarter sweeps b/sigma2 at a seeded q instead.
    """
    combos = list(itertools.product(MODELS, K_VALUES, EPSILONS, B_OVER_SIGMA2))
    order = rng.permutation(len(combos))
    quarter = len(combos) // 4
    tasks = []
    for rank, index in enumerate(order):
        (model, kappa), K, eps, b = combos[index]
        argv = ["gain", *_model_flags(model, kappa), "--K", str(K), "--epsilon", _fmt(eps)]
        spec = {"model": model, "kappa": kappa, "K": K, "epsilon": eps}
        if rank < quarter:
            corner = GAIN_Q_CORNERS[int(rng.integers(len(GAIN_Q_CORNERS)))]
            values = [corner] + GAIN_DEFAULT_Q
            argv += ["--b-over-sigma2", _fmt(b), "--values", ",".join(map(_fmt, values))]
            spec.update(axis="q", values=values, b_over_sigma2=b)
        elif rank < 2 * quarter:
            q = GAIN_DEFAULT_Q[int(rng.integers(len(GAIN_DEFAULT_Q)))]
            argv += ["--q", _fmt(q), "--axis", "b_over_sigma2",
                     "--values", ",".join(map(_fmt, GAIN_B_AXIS))]
            spec.update(axis="b_over_sigma2", values=GAIN_B_AXIS, q=q)
        else:
            argv += ["--b-over-sigma2", _fmt(b)]
            spec.update(axis="q", values=GAIN_DEFAULT_Q, b_over_sigma2=b)
        tasks.append(Task("cli", len(spec["values"]), spec, argv=argv))
    return tasks


def curve_sweep(rng: np.random.Generator) -> List[Task]:
    """CLI sweep over the q, b_over_sigma2 and p axes, ~1000 rows per call.

    Every (axis, model, K) cell appears once; the seed draws the axis
    values, the operating point and the loss bound.
    """
    tasks = []
    for axis, (model, kappa), K in itertools.product(["q", "b_over_sigma2", "p"], MODELS, K_VALUES):
        eps = EPSILONS[int(rng.integers(len(EPSILONS)))]
        argv = ["sweep", *_model_flags(model, kappa), "--K", str(K), "--epsilon", _fmt(eps),
                "--axis", axis]
        spec = {"axis": axis, "model": model, "kappa": kappa, "K": K, "epsilon": eps}
        if axis == "q":
            # Both q corners every time: near-empty traffic and saturation.
            mid = np.round(np.sort(rng.uniform(0.02, 0.98, SWEEP_AXIS_VALUES - 2)), 4)
            values = [float(rng.choice([1e-4, 1e-3]))] + [float(v) for v in mid] + [1.0]
            spec["b_over_sigma2"] = 100.0
        else:
            q = float(np.round(rng.uniform(0.05, 0.95), 4))
            argv += ["--q", _fmt(q)]
            spec["q"] = q
        if axis == "b_over_sigma2":
            logs = np.sort(rng.uniform(-2.0, 4.0, SWEEP_AXIS_VALUES - 1))
            values = [0.0] + [float(f"{10.0 ** v:.4g}") for v in logs]
        if axis == "p":
            lo_dbm = float(np.round(rng.uniform(-20.0, 0.0), 2))
            hi_dbm = float(np.round(rng.uniform(20.0, 35.0), 2))
            argv += ["--p-points", str(SWEEP_P_AXIS_POINTS),
                     "--p-lo-dbm", _fmt(lo_dbm), "--p-hi-dbm", _fmt(hi_dbm)]
            spec.update(p_points=SWEEP_P_AXIS_POINTS, p_lo_dbm=lo_dbm, p_hi_dbm=hi_dbm,
                        b_over_sigma2=100.0)
            rows = SWEEP_P_AXIS_POINTS
        else:
            argv += ["--values", ",".join(map(_fmt, values)), "--p-points", str(SWEEP_P_POINTS)]
            spec.update(values=values, p_points=SWEEP_P_POINTS)
            rows = len(values) * SWEEP_P_POINTS
        tasks.append(Task("cli", rows, spec, argv=argv))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def mc_short(rng: np.random.Generator) -> List[Task]:
    """Cold-start campaigns of 250 runs x 1000 packets: the CLI's default runs,
    in campaigns a quarter of its default 1000 runs so that a run holds enough
    calls to time steadily."""
    from greenlink import QueueParams, SimConfig

    base = int(rng.integers(0, 2**31))
    tasks = []
    for i in rng.permutation(len(MC_SHORT_POINTS)):
        q, f, K = MC_SHORT_POINTS[i]
        config = SimConfig(queue=QueueParams(q, K), success_prob_f=f,
                           total_packets=MC_SHORT_PACKETS, num_runs=MC_SHORT_RUNS,
                           seed=base + int(i) * MC_SHORT_RUNS)
        spec = {"q": q, "f": f, "K": K, "warm": False}
        tasks.append(Task("sim", MC_SHORT_RUNS * MC_SHORT_PACKETS, spec, config=config))
    return tasks


def mc_long(rng: np.random.Generator) -> List[Task]:
    """Few long warmed-up runs at low load with occupancy tracking.

    f is drawn so that the load ratio rho = q(1-f)/((1-q)f) sits in about
    [1.2, 1.28]: the buffer fills during warm-up and losses are frequent
    enough to compare against the closed form.
    """
    from greenlink import QueueParams, SimConfig

    f = float(np.round(rng.uniform(0.08, 0.085), 5))
    base = int(rng.integers(0, 2**31))
    tasks = []
    for i in range(MC_LONG_TASKS):
        config = SimConfig(queue=QueueParams(MC_LONG_Q, MC_LONG_K), success_prob_f=f,
                           total_packets=MC_LONG_PACKETS, num_runs=MC_LONG_RUNS,
                           seed=base + i * MC_LONG_RUNS, warmup_slots=MC_LONG_WARMUP,
                           track_occupancy=True)
        spec = {"q": MC_LONG_Q, "f": f, "K": MC_LONG_K, "warm": True}
        tasks.append(Task("sim", MC_LONG_RUNS * MC_LONG_PACKETS, spec, config=config))
    return tasks


WORKLOADS = {
    "gain-map": gain_map,
    "curve-sweep": curve_sweep,
    "mc-short": mc_short,
    "mc-long": mc_long,
}


def build(name: str, seed: int) -> List[Task]:
    """The tasks of one pass of workload `name` for this seed."""
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]))
