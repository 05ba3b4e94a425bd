"""Correctness checks, run after the timed region.

The closed forms here are the benchmark's own numpy code; nothing is
taken from greenlink. They restate the CLI's documented defaults
(R = 4000, R0 = 1000, a = 1, noise 0 dBm, cap 35 dBm, floor 0.01 W).

- gain-map: every row is feasible (phi(p**) <= epsilon, p** inside the
  power limits), gain_db = 10 log10(p_star_q1 / p_star), an infeasible
  row really misses the bound at the cap, and the exit code is 2 exactly
  when a row is infeasible. For a seeded sample of rows both optima are
  compared against a dense log-grid scan.
- curve-sweep: every row recomputed to RTOL; the CSVs of the default
  seed must match the SHA-256 pins in golden.json byte for byte, after
  the one normalization below.
- mc-*: per-run losses are whole packet counts over total_packets; a
  seeded subset of runs replayed alone (num_runs=1, seed=seed+i) must
  give bit-identical losses; warmed-up campaigns must sit within
  SE_LIMIT standard errors of the stationary loss fraction.

Known defect, reported but not failed: with numpy >= 2 the CLI writes a
numpy scalar as ``np.float64(0.25)`` instead of ``0.25`` (its float
formatter uses repr, and the qfunc model's erfc returns numpy scalars).
The value inside is the right shortest round-trip float, so the checks
read it as that number, count the wrapped cells, and hash the CSVs with
the wrapper stripped. A fix in the CLI then leaves the pins valid.
"""

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import workloads

R, R0, A, HH = 4000.0, 1000.0, 1.0, 1.0
SIGMA2 = 1e-3
PMAX = 10.0 ** 0.5
PMIN = 0.01
F_FLOOR = 1e-300  # below this f counts as zero: phi = 1, eta = 0

RTOL = 1e-8  # for values recomputed by a different formula
DENSE_POINTS = 4001  # log-grid points over [PMIN, PMAX], ~0.14% apart
DENSE_SAMPLES = 16
ETA_RTOL = 1e-9  # an optimum may sit this far below the best grid point
MC_REPLAYS = {"mc-short": 6, "mc-long": 1}
SE_LIMIT = 8.0

GOLDEN = Path(__file__).resolve().parent / "golden.json"

_erfc = np.frompyfunc(math.erfc, 1, 1)
_WRAPPED = re.compile(r"np\.float64\(([^()]*)\)")
WRAPPED_DEFECT = "CSV cells written as np.float64(...) instead of a plain float"


def dbm_to_w(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def success(model, kappa, p):
    p = np.asarray(p, dtype=float)
    if model == "exp":
        return np.exp(-(2.0 ** (R / R0) - 1.0) * SIGMA2 / p)
    arg = kappa * (R / R0 - np.log1p(HH * p / SIGMA2))
    return 0.5 * np.asarray(_erfc(arg / math.sqrt(2.0)), dtype=float)


def loss(q, K, f):
    """Stationary loss (1 - f) P(full) of the birth-death buffer, via expm1."""
    q, f = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(f, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = q * (1.0 - f) / ((1.0 - q) * f)
        x = np.log(rho)
        y = -np.abs(x)
        ratio = np.expm1(y) / np.expm1((K + 1) * y)  # (1 - r) / (1 - r**(K+1)), r <= 1
        full = np.where(x < 0, np.exp(K * x) * ratio, ratio)
        full = np.where(x == 0, 1.0 / (K + 1), full)
        full = np.where(np.isinf(rho) | np.isnan(rho), 1.0, full)  # f = 0 or q = 1
    return (1.0 - f) * full


def efficiency(q, K, f, p, b):
    """(eta, phi) at power p with success probability f."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(f <= F_FLOOR, 1.0, loss(q, K, f))
        delivered = q * (1.0 - phi)
        eta = R * delivered / (b + A * p * delivered / f)
    return np.where((f <= F_FLOOR) | (delivered <= 0.0), 0.0, eta), phi


@dataclass
class Findings:
    bad_tasks: Dict[int, str] = field(default_factory=dict)
    extra_attempted: int = 0
    extra_failed: int = 0
    messages: List[str] = field(default_factory=list)
    wrapped_cells: int = 0  # see WRAPPED_DEFECT

    def task(self, index: int, message: str) -> None:
        self.bad_tasks.setdefault(index, message)

    def extra(self, ok: bool, message: str) -> None:
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1
            self.messages.append(message)


def _close(got, want) -> bool:
    return bool(np.all(np.isclose(got, want, rtol=RTOL, atol=1e-300)))


def _read_csv(path: Path, found: Findings):
    """Header and rows, with np.float64(x) cells unwrapped to x and counted."""
    text = path.read_text()
    text, wrapped = _WRAPPED.subn(r"\1", text)
    found.wrapped_cells += wrapped
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def _spec_point(spec, value):
    """(q, b in watts) of one axis value of a gain task."""
    if spec["axis"] == "q":
        return value, spec["b_over_sigma2"] * SIGMA2
    return spec["q"], value * SIGMA2


def check_sweep(task, path: Path, found: Findings):
    spec = task.spec
    header, rows = _read_csv(path, found)
    if header != ["axis_value", "p", "eta", "phi", "f", "feasible"] or len(rows) != task.work:
        return f"header {header} with {len(rows)} rows"
    data = np.array([[float(v) for v in row[:5]] for row in rows])
    feasible = np.array([int(row[5]) for row in rows])
    axis_value, p = data[:, 0], data[:, 1]
    if spec["axis"] == "p":
        grid = np.geomspace(dbm_to_w(spec["p_lo_dbm"]), dbm_to_w(spec["p_hi_dbm"]), spec["p_points"])
        want_axis = grid
        q, b = spec["q"], spec["b_over_sigma2"] * SIGMA2
    else:
        grid = np.tile(np.geomspace(PMIN / 100.0, PMAX, spec["p_points"]), len(spec["values"]))
        want_axis = np.repeat(spec["values"], spec["p_points"])
        if spec["axis"] == "q":
            q, b = want_axis, spec["b_over_sigma2"] * SIGMA2
        else:
            q, b = spec["q"], want_axis * SIGMA2
    if not (np.allclose(axis_value, want_axis, rtol=1e-12, atol=0)
            and np.allclose(p, grid, rtol=1e-12, atol=0)):
        return "axis values or power grid differ from the request"
    f = success(spec["model"], spec["kappa"], p)
    eta, phi = efficiency(q, spec["K"], f, p, b)
    for column, want, label in [(4, f, "f"), (3, phi, "phi"), (2, eta, "eta")]:
        if not _close(data[:, column], want):
            worst = int(np.argmax(np.abs(data[:, column] - want) / np.maximum(np.abs(want), 1e-300)))
            return f"{label} row {worst}: {float(data[worst, column])!r} vs {float(want[worst])!r}"
    eps = spec["epsilon"]
    want_feasible = (phi <= eps) & (PMIN <= p) & (p <= PMAX)
    tie = np.abs(phi - eps) <= RTOL * eps
    if np.any((feasible != want_feasible) & ~tie):
        return "feasible column differs"
    return None


def _dense_optimum(spec, q, b):
    """Best feasible grid power and its eta, or None when no grid point is feasible."""
    grid = np.geomspace(PMIN, PMAX, DENSE_POINTS)
    eta, phi = efficiency(q, spec["K"], success(spec["model"], spec["kappa"], grid), grid, b)
    eta = np.where(phi <= spec["epsilon"], eta, -np.inf)
    best = int(np.argmax(eta))
    return (grid[best], eta[best]) if np.isfinite(eta[best]) else None


def _optimum_problem(spec, q, b, p, dense: bool):
    """Why p is not a feasible constrained optimum at (q, b), or None; with
    `dense`, also compare it with the best point of a dense log grid."""
    f = success(spec["model"], spec["kappa"], p)
    eta, phi = efficiency(q, spec["K"], f, p, b)
    if not PMIN * (1 - 1e-12) <= p <= PMAX * (1 + 1e-12):
        return f"p = {p!r} outside [{PMIN}, {PMAX}]"
    if phi > spec["epsilon"] * (1 + RTOL):
        return f"phi({p!r}) = {float(phi)!r} > epsilon"
    best = _dense_optimum(spec, q, b) if dense else None
    if best is None:
        return None  # not sampled, or feasible only between grid points
    p_grid, eta_grid = best
    step = math.log(PMAX / PMIN) / (DENSE_POINTS - 1)
    if eta < eta_grid * (1 - ETA_RTOL):
        return f"eta({p!r}) = {float(eta)!r} below grid best {eta_grid!r} at {p_grid!r}"
    if abs(math.log(p / p_grid)) > 2 * step:
        return f"p = {p!r} but the grid peaks at {p_grid!r}"
    return None


def check_gain(task, rc, path: Path, dense: bool, found: Findings):
    spec = task.spec
    header, rows = _read_csv(path, found)
    if header != ["axis_value", "p_star_q1", "p_star", "gain_db"] or len(rows) != task.work:
        return f"header {header} with {len(rows)} rows"
    eps = spec["epsilon"]
    infeasible = False
    for value, row in zip(spec["values"], rows):
        if float(row[0]) != value:
            return f"axis value {row[0]} != {value!r}"
        q, b = _spec_point(spec, value)
        if row[1] == "infeasible":
            infeasible = True
            if row[2:] != ["infeasible", ""]:
                return f"malformed infeasible row {row}"
            reachable = [loss(qq, spec["K"], success(spec["model"], spec["kappa"], PMAX))
                         <= eps * (1 - RTOL) for qq in (q, 1.0)]
            if all(reachable):
                return f"row {value!r} marked infeasible but the cap meets epsilon"
            continue
        p_ref, p_here, gain = (float(v) for v in row[1:])
        if not math.isclose(gain, 10.0 * math.log10(p_ref / p_here), rel_tol=1e-12, abs_tol=1e-12):
            return f"gain_db {gain!r} != 10 log10({p_ref!r} / {p_here!r})"
        for qq, p in ((q, p_here), (1.0, p_ref)):
            problem = _optimum_problem(spec, qq, b, p, dense)
            if problem:
                return f"axis value {value!r}, q = {qq!r}: {problem}"
    if rc != (2 if infeasible else 0):
        return f"exit code {rc} with infeasible rows: {infeasible}"
    return None


def check_report(task, report):
    config = task.config
    losses = report.per_run_losses
    if losses.shape != (config.num_runs,) or np.any((losses < 0) | (losses > 1)):
        return f"per-run losses shape {losses.shape} or range"
    counts = losses * config.total_packets
    if np.any(np.abs(counts - np.round(counts)) > 1e-6):
        return "a per-run loss is not a whole number of packets"
    if config.track_occupancy:
        occ = report.per_run_occupancy
        if occ is None or occ.shape != (config.num_runs, config.queue.buffer_size_K + 1) \
                or not np.allclose(occ.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            return "occupancy fractions malformed"
    return None


def sha256(path: Path) -> str:
    """SHA-256 of a CSV with np.float64(x) unwrapped (see the module docstring)."""
    return hashlib.sha256(_WRAPPED.sub(r"\1", path.read_text()).encode()).hexdigest()


def golden_hashes(call, workdir: Path) -> List[str]:
    """SHA-256 of each curve-sweep CSV of the default seed, in task order."""
    hashes = []
    for i, task in enumerate(workloads.build("curve-sweep", workloads.DEFAULT_SEED)):
        path = workdir / f"golden{i}.csv"
        call(task, path)
        hashes.append(sha256(path))
    return hashes


def _check_sims(workload, tasks, outcomes, executed, call, rng, found: Findings) -> None:
    for i in executed:
        problem = check_report(tasks[i], outcomes[i])
        if problem:
            found.task(i, problem)
    runs = tasks[0].config.num_runs  # every task of a workload has the same run count
    for pick in rng.choice(len(executed) * runs, MC_REPLAYS[workload], replace=False):
        i, run_index = executed[pick // runs], int(pick % runs)
        config = tasks[i].config
        alone = call(replace(tasks[i], config=replace(config, num_runs=1, seed=config.seed + run_index)),
                     None).per_run_losses[0]
        want = outcomes[i].per_run_losses[run_index]
        found.extra(alone == want, f"run {run_index} of task {i} replayed alone: "
                                   f"{float(alone)!r} != {float(want)!r}")
    spec = tasks[0].spec
    if spec["warm"]:  # one (q, f, K) for the whole workload, so the runs pool
        pooled = np.concatenate([outcomes[i].per_run_losses for i in executed])
        se = float(np.std(pooled, ddof=1)) / math.sqrt(len(pooled))
        phi = float(loss(spec["q"], spec["K"], spec["f"]))
        mean = float(pooled.mean())
        found.extra(abs(mean - phi) <= SE_LIMIT * se,
                    f"warm mean loss {mean!r} is more than {SE_LIMIT} standard errors "
                    f"({se!r}) from the stationary {phi!r}")


def run(workload: str, seed: int, tasks, outcomes: Dict[int, object],
        call: Callable, workdir: Path) -> Findings:
    """Check every executed task's outcome: (exit code, CSV digest) of a CLI
    task, with the CSV at workdir/task<i>.csv, or a SimReport.
    `call(task, out_path)` makes one more call."""
    found = Findings()
    rng = np.random.default_rng([seed, 7])
    executed = sorted(outcomes)
    if not executed:
        return found  # every call failed, and each is counted already
    if workload == "gain-map":
        dense = set(rng.choice(executed, size=min(DENSE_SAMPLES, len(executed)), replace=False))
        for i in executed:
            problem = check_gain(tasks[i], outcomes[i][0], workdir / f"task{i}.csv", i in dense, found)
            if problem:
                found.task(i, problem)
    elif workload == "curve-sweep":
        for i in executed:
            rc = outcomes[i][0]
            problem = f"exit code {rc}" if rc != 0 else check_sweep(tasks[i], workdir / f"task{i}.csv", found)
            if problem:
                found.task(i, problem)
        pins = json.loads(GOLDEN.read_text())
        if pins["seed"] != workloads.DEFAULT_SEED:
            raise RuntimeError("golden.json was made for another default seed")
        for i, (got, want) in enumerate(zip(golden_hashes(call, workdir), pins["curve-sweep"])):
            found.extra(got == want, f"default-seed sweep {i}: sha256 {got} != pinned {want}")
    else:
        _check_sims(workload, tasks, outcomes, executed, call, rng, found)
    return found
