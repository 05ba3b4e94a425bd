"""Golden-file tests for the CLI's frozen CSV interfaces.

Each case runs one small CLI call and compares the SHA-256 of the CSV it
writes, and its exit code, against a pin, so any change to a byte of
eval, optimize, simulate, gain or sweep output fails here. The cases
cover both success models, with the qfunc corners kappa = 2 at b = 0 and
kappa = 10 at epsilon = 0.01, K = 1000. Re-pin only for a deliberate
change of output, by running this file as a script:

    PYTHONPATH=src python3 tests/test_golden_csv.py

The CLI writes its records without the csv module; three tests hold them
to the bytes csv.writer writes: on seeded rows of corner cells, on sweep
CSVs at corner axis values and powers, and on sweeps whose curves share f
and phi, at the qfunc model's f = 0 corner and at q = 1.
"""

import contextlib
import csv
import hashlib
import io
import math
import random
import tempfile
from pathlib import Path

import pytest

import oracles
from greenlink import (
    Binding,
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SystemParams,
    dbm_to_watts,
    efficiency,
)
from greenlink.cli import _csv_line, main

QFUNC2_B0 = ["--model", "qfunc", "--kappa", "2", "--b-w", "0"]
QFUNC_QOS = ["--model", "qfunc", "--kappa", "10", "--epsilon", "0.01", "--K", "1000"]

CASES = {
    "eval-exp": ["eval", "--p-w", "0.05", "--q", "0.3", "--K", "5"],
    "eval-qfunc2-b0": ["eval", *QFUNC2_B0, "--p-w", "0.05"],
    "eval-qfunc-qos": ["eval", *QFUNC_QOS, "--p-dbm", "12"],
    "optimize-exp": ["optimize"],
    "optimize-qfunc2-b0": ["optimize", *QFUNC2_B0, "--q", "0.7"],
    "optimize-qfunc-qos": ["optimize", *QFUNC_QOS, "--q", "0.9"],
    "simulate-f": ["simulate", "--f", "0.5", "--total-packets", "300",
                   "--num-runs", "40", "--seed", "5"],
    "simulate-qfunc-p": ["simulate", *QFUNC_QOS, "--p-w", "0.05", "--total-packets", "300",
                         "--num-runs", "40", "--seed", "5"],
    "simulate-counts": ["simulate", "--f", "0.6", "--num-runs", "40", "--seed", "3",
                        "--packet-counts", "100,200"],
    "gain-q-exp": ["gain", "--values", "0.1,0.5,1", "--K", "5"],
    "gain-q-qfunc-qos": ["gain", *QFUNC_QOS, "--values", "1e-5,0.3,1"],
    "gain-b-exp": ["gain", "--axis", "b_over_sigma2", "--values", "0,1,100", "--q", "0.4"],
    "gain-b-qfunc2": ["gain", "--model", "qfunc", "--kappa", "2", "--axis", "b_over_sigma2",
                      "--values", "0,10", "--q", "0.4"],
    # b-axis rows share the row's and the full-load reference's p0; in the
    # second case the reference misses the loss bound (exit 2).
    "gain-b-qfunc-qos": ["gain", *QFUNC_QOS, "--axis", "b_over_sigma2", "--values", "0,1,100",
                         "--q", "0.4"],
    "gain-b-infeasible": ["gain", "--axis", "b_over_sigma2", "--values", "0,1,100", "--q", "0.4",
                          "--epsilon", "1e-3", "--K", "1000"],
    # base q = 1: each row is its own full-load reference, solved once
    "gain-b-q1": ["gain", "--axis", "b_over_sigma2", "--values", "0,1,100", "--q", "1",
                  "--epsilon", "0.01"],
    "sweep-q-exp": ["sweep", "--axis", "q", "--values", "0.2,0.9", "--p-points", "12"],
    "sweep-q-qfunc-qos": ["sweep", *QFUNC_QOS, "--axis", "q", "--values", "1e-5,1",
                          "--p-points", "12"],
    "sweep-b-exp": ["sweep", "--axis", "b_over_sigma2", "--values", "0,1,1e4",
                    "--p-points", "12", "--q", "0.6"],
    "sweep-b-qfunc2": ["sweep", "--model", "qfunc", "--kappa", "2", "--axis", "b_over_sigma2",
                       "--values", "0,10", "--p-points", "12"],
    "sweep-p-exp": ["sweep", "--axis", "p", "--p-points", "15", "--p-lo-w", "1e-4"],
    "sweep-p-qfunc2-b0": ["sweep", *QFUNC2_B0, "--axis", "p", "--values", "0.001,0.01,0.1,3"],
    "sweep-p-qfunc-qos": ["sweep", *QFUNC_QOS, "--axis", "p", "--p-points", "15"],
}

# name -> (exit code, SHA-256 of the CSV)
PINS = {
    'eval-exp': (0, '9d78c9aac6a3b7fb517adeba11728c77fdf7eb0ae348abbd8e63103070ea303d'),
    'eval-qfunc2-b0': (0, '755139e3dd7e20e24284e2677a1252f462d0b80a9f525d9712b481c844d206a8'),
    'eval-qfunc-qos': (0, 'df948d129fe6680ae74af37465087936422277d0ea03e0865ffbaaa38129f9d3'),
    'optimize-exp': (0, 'cae85d2ec18743b155867955d69d0e2435efe793915c269c2e8c7759235cb093'),
    'optimize-qfunc2-b0': (0, '52051a7c365f023217eadf72f05a70863fa9c6c21eaa00fddcf4361121822f3c'),
    'optimize-qfunc-qos': (0, '8a0d18caf9f32ecc6f05e9354d6bf432d72a2ec3af0b02287fb23045ae0d7cda'),
    'simulate-f': (0, '139a878252c08f94e30c8209ad7dfef2d70d68585cd5681c123274be8e61b7af'),
    'simulate-qfunc-p': (0, '09705e15357101b2b377e720e89a60e78865b6763eed4c141ddd168611c5b9f0'),
    'simulate-counts': (0, '6453deeb76e3e2fcfa6c31cfd0aee7fde12b59b37b91f050e7499beb4cc80e5e'),
    'gain-q-exp': (0, '02ade259400308d8bc9bc7689e59affbf403050be7e9423d23adede40d983ec4'),
    'gain-q-qfunc-qos': (0, 'cf821968b59685ec29525fa60401921faf46e093049897dacc1d4630dcaab4ae'),
    'gain-b-exp': (0, '51067eb976e695ddc18b18140a49e9ca01a2a80228e27e775f5a75c22a126327'),
    'gain-b-qfunc2': (0, 'e155db460e4a6a769852713d66003db62f2a9dc5501b768485392424c090a1ba'),
    'gain-b-qfunc-qos': (0, '24cebc15db37b07af651a53b4cacc091f967f364796bf2b54bf8029dfd9c6cd3'),
    'gain-b-infeasible': (2, '9d6627a0514802530411ddf0cf36fc9f24570d0d8d49b74c931657b86c8c9f2a'),
    'gain-b-q1': (0, '44c350cb63d331f39623eeef781e5ee357d16a4a57fa413555578d155787a438'),
    'sweep-q-exp': (0, 'c88457f1255c22df54dc8102d5ed77760232ecbe4f4f7976cdb114929e4a5789'),
    'sweep-q-qfunc-qos': (0, 'caa9f950e72b42faf8f15f5a2c0e8d61081f4b61c543878798d48b6107cee14f'),
    'sweep-b-exp': (0, '886050b85eeea395fa3067bb2edf46ce68aee7adfb33f03739e8912afe0de988'),
    'sweep-b-qfunc2': (0, '753a35ab6d18a299100a427f25dfb9cca8abe08a4a04c19bced353fc33987e13'),
    'sweep-p-exp': (0, 'd8bb1cef11fc11ec45e975308b7ce9342fd51abf39c2327fda9673d9a45b8fad'),
    'sweep-p-qfunc2-b0': (0, '70e8dc992dbe41c7c825e9b3260d0c196cae9f3105553a257214f6ef451af340'),
    'sweep-p-qfunc-qos': (0, '8014d5a57b518d14bea845fa5c4db678dd2b25af548ebf81bf0923f9ce0a7c94'),
}


def run_case(argv, out: Path):
    code = main(argv + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_pin(name, tmp_path):
    assert run_case(CASES[name], tmp_path / "out.csv") == PINS[name]


def test_every_case_pinned():
    assert set(PINS) == set(CASES)


# The qfunc kappa = 2, b = 0 optimum of the earlier pins of optimize-qfunc2-b0
# and gain-b-qfunc2 (its b = 0 row), found by an eta scan and Brent.
OLD_QFUNC2_B0_P_STAR = 0.06923794372293109


def test_repinned_optimum_nearer_mpmath_root(tmp_path):
    # With b = 0, eta = R f / (a p), so p* is the root of d ln(f/p)/d ln p.
    out = tmp_path / "out.csv"

    def first_row(name):
        assert main(CASES[name] + ["--out", str(out)]) == 0
        return next(csv.DictReader(out.read_text().splitlines()))

    row = first_row("optimize-qfunc2-b0")
    found = [float(row["p_star"]), float(row["p_star_constrained"])]
    row = first_row("gain-b-qfunc2")  # the b = 0 row
    found += [float(row["p_star_q1"]), float(row["p_star"])]
    root = oracles.mp_peak_f_over_p_qfunc(2.0, 4.0, 1e3, OLD_QFUNC2_B0_P_STAR)
    for p in found:
        assert abs(p - root) <= abs(OLD_QFUNC2_B0_P_STAR - root)


def stdlib_csv(rows) -> bytes:
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


# Cells the CLI can write, and the float corners of repr: nan, +-inf, -0.0, a
# subnormal, the switch to exponent form at 1e16 and 1e-5, and large ints.
CORNER_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e-5,
                9999999999999998.0, 0.0001, 2**63, -(2**70), 10**30, 0, 1, "infeasible", "",
                *(b.value for b in Binding)]


def test_line_writer_matches_stdlib_csv():
    rng = random.Random(20)
    rows = []
    for _ in range(500):
        cells = []
        for _ in range(rng.randint(4, 10)):
            kind = rng.random()
            if kind < 0.5:
                cells.append(rng.choice(CORNER_CELLS))
            elif kind < 0.8:
                cells.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 308.0))
            else:
                cells.append(rng.randint(-(2**80), 2**80))
        rows.append(cells)
    assert "".join(map(_csv_line, rows)).encode() == stdlib_csv(rows)


def check_sweep_against_stdlib(out, axis, values, kappa=None, q=0.5):
    """Run a sweep and compare its CSV with csv.writer over efficiency() per row."""
    flags = [] if kappa is None else ["--model", "qfunc", "--kappa", repr(kappa)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", *flags, "--q", repr(q), "--axis", axis,
                     "--values", ",".join(map(repr, values)),
                     "--p-points", "4", "--p-lo-w", "1e-5", "--p-hi-w", "1e16",
                     "--out", str(out)]) == 0
    sigma2 = dbm_to_watts(0.0)
    if kappa is None:
        model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=sigma2)
    else:
        model = QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                              channel_gain_hh=1.0, noise_sigma2=sigma2)
    rows = [["axis_value", "p", "eta", "phi", "f", "feasible"]]
    # The p axis's values, or the grid's powers read back: a float's repr round-trips.
    powers = values if axis == "p" else [
        float(row[1]) for row in list(csv.reader(out.read_text().splitlines()))[1:5]]
    for value in [None] if axis == "p" else values:
        ratio = value if axis == "b_over_sigma2" else 100.0
        system = SystemParams(rate_R=4000.0, fixed_power_b=ratio * sigma2, noise_sigma2=sigma2,
                              p_min=0.01, p_max=dbm_to_watts(35.0))
        queue = QueueParams(arrival_prob_q=value if axis == "q" else q, buffer_size_K=10)
        for p in powers:
            point = efficiency(system, queue, model, p)
            rows.append([p if value is None else value, p, point.eta, point.phi, point.f,
                         int(point.feasible)])
    assert out.read_bytes() == stdlib_csv(rows)
    return rows[1:]


@pytest.mark.parametrize("axis, values", [
    ("q", [5e-324, 1e-5, 1.0]),
    ("b_over_sigma2", [-0.0, 5e-324, 1e-5, 1e16]),
    ("p", [5e-324, 1e-5, 0.1, 1e16]),
])
def test_sweep_lines_match_stdlib_csv(tmp_path, axis, values):
    check_sweep_against_stdlib(tmp_path / "sweep.csv", axis, values)


# kappa = 100 puts f's underflow to 0, and eta's no-goodput branch, at the
# grid's lowest power 1e-5 W (on the p axis also where 1 - phi rounds to 0
# while f is normal); q = 1 gives an infinite load on the b axis.
@pytest.mark.parametrize("kappa, q, axis, values", [
    (None, 1.0, "b_over_sigma2", [0.0, 1e-5, 1.0, 1e16]),
    (100.0, 0.5, "q", [1e-5, 0.5, 1.0]),
    (100.0, 1.0, "b_over_sigma2", [0.0, 1.0, 1e4]),
    (100.0, 0.5, "p", [1e-5, 0.0377, 0.04, 0.0536, 2.0]),
])
def test_shared_column_sweep_lines_match_stdlib_csv(tmp_path, kappa, q, axis, values):
    rows = check_sweep_against_stdlib(tmp_path / "sweep.csv", axis, values, kappa, q)
    if kappa is not None:  # the no-goodput branch was reached
        assert any(row[2] == 0.0 and row[4] == 0.0 for row in rows)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code, digest = run_case(argv, Path(tmp) / f"{name}.csv")
            print(f"    {name!r}: ({code}, {digest!r}),")
