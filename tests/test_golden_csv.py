"""Golden-file tests for the CLI's frozen CSV interfaces.

Each case runs one small CLI call and compares its exit code, the
SHA-256 of the CSV it writes and of what it prints to stdout, and its
stderr, with the --out path masked in both streams, against a pin, so
any change to a byte of eval, optimize, simulate, gain or sweep output,
or of a figure they print, fails here. The cases cover each command at
its defaults, both success models, with the qfunc corners kappa = 2 at
b = 0 and kappa = 10 at epsilon = 0.01, K = 1000, and the long, threaded,
straggler and deep-buffer simulations and far-corner optima that CI runs
from the installed entry point. Re-pin only for a deliberate change of
output, by running this file as a script:

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

LONG_SIM = ["simulate", "--q", "0.1", "--K", "1000", "--f", "0.0825",
            "--warmup-slots", "150000"]

CASES = {
    # each command at its defaults, given the one setting it needs
    "eval-defaults": ["eval", "--p-w", "0.05"],
    "simulate-defaults": ["simulate", "--f", "0.5"],
    "gain-defaults": ["gain"],
    "sweep-defaults": ["sweep", "--values", "0.5"],
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
    # CI's console-script runs: the optimum where f' overflows at a subnormal
    # noise power, p* = 1.59178e-311 W, and on qfunc links of large channel
    # gain, p* = 8.94487e-08 W and 3449.18 W
    "optimize-f-overflow": ["optimize", "--sigma2-w", "1e-312", "--b-over-sigma2", "1"],
    "optimize-qfunc-hh": ["optimize", "--model", "qfunc", "--kappa", "2", "--hh", "1e6"],
    "optimize-qfunc-hh-sigma2": ["optimize", "--model", "qfunc", "--kappa", "2",
                                 "--hh", "1e300", "--sigma2-w", "1e300"],
    # a long warmed campaign (mean loss = 0.176105, 2300727 slots), threaded
    # over 4 runs (0.173517, 4604432 slots), and three campaigns in one
    # process whose two long ones print that threaded figure, gap = -0.85%
    "simulate-long": [*LONG_SIM, "--total-packets", "100000", "--num-runs", "2"],
    "simulate-threaded": [*LONG_SIM, "--total-packets", "100000", "--num-runs", "4"],
    "simulate-campaigns": [*LONG_SIM, "--num-runs", "4", "--packet-counts", "100000,1000,100000"],
    # stragglers (mean loss = 0.722222, 7523 slots) and a deep full buffer (0.661889)
    "simulate-straggler": ["simulate", "--q", "0.01", "--f", "0.002", "--K", "1",
                           "--total-packets", "3", "--num-runs", "24", "--seed", "606",
                           "--warmup-slots", "25"],
    "simulate-deep-buffer": ["simulate", "--f", "0.3", "--q", "0.9", "--K", "3000000000",
                             "--initial-state", "3000000000", "--total-packets", "3000",
                             "--num-runs", "3", "--seed", "77"],
}

# name -> (exit code, SHA-256 of the CSV, SHA-256 of stdout, stderr)
PINS = {
    'eval-defaults': (0, 'bdba3e2c65ee4fd173c5a1fc798bb75c20847ed794e84f695eaa57729b9e3a6f', 'cfe23af2afb30a1aee38392ab371c4bf176cf516b1526dd4bbead8275348adaa', ''),
    'simulate-defaults': (0, 'dd68934508076c67f4065ceb121dde23b1b44c54a48f5a242af6689a5c32e8f2', '852cae5a63f91502c8081a01c2447a879665d1a6a5d07f7be3d75395dc2440fe', ''),
    'gain-defaults': (0, '7333cddae65a0696b9b3888dc89c994679cbe00865f8418599be0d247543d834', '609ee671e68941ca062e7dcfc567e2b502402633b9e23242998979d87fd4100f', ''),
    'sweep-defaults': (0, '7bf82c59d692972fa594a29b61172bb12d11ac249e75b5ace4b845c40c42cbf4', '3c6b7ad344b5544952e8c70ce15270eaa351ef0b37420f6f59cabfd99061da09', ''),
    'eval-exp': (0, '9d78c9aac6a3b7fb517adeba11728c77fdf7eb0ae348abbd8e63103070ea303d', 'c0618da323a3ced821f53cbf0bd0987ccd5b477b2efd18c095f17c0f8925a299', ''),
    'eval-qfunc2-b0': (0, '755139e3dd7e20e24284e2677a1252f462d0b80a9f525d9712b481c844d206a8', '7b9687961147dc3b097c5cbc70e9a0fe4cb1f5cdb7b813284cbd7b5ee0ebadbf', ''),
    'eval-qfunc-qos': (0, 'df948d129fe6680ae74af37465087936422277d0ea03e0865ffbaaa38129f9d3', 'e2aa41f5dc667b3934937b17fbe4fcf8db67df787cc98d6d6e38ef36e3561922', ''),
    'optimize-exp': (0, 'cae85d2ec18743b155867955d69d0e2435efe793915c269c2e8c7759235cb093', '68ee14db343dbd72b607dc5be60de6a23848f72bc0cc5ce7d1737f39094e5cb7', ''),
    'optimize-qfunc2-b0': (0, '52051a7c365f023217eadf72f05a70863fa9c6c21eaa00fddcf4361121822f3c', 'f63a4583bdf23f330e27ed92ed721b37dda4e2ad6e359bb528ec647c1333825b', ''),
    'optimize-qfunc-qos': (0, '8a0d18caf9f32ecc6f05e9354d6bf432d72a2ec3af0b02287fb23045ae0d7cda', 'f47a763b79231e47961762c9f031b2e4c87ce4b9a836abbb697a454fca9f6fd3', ''),
    'simulate-f': (0, '139a878252c08f94e30c8209ad7dfef2d70d68585cd5681c123274be8e61b7af', 'd18c537ed5c886a1b2328753d4e94a55af745f91682d609488d718f2d5e5d33d', ''),
    'simulate-qfunc-p': (0, '09705e15357101b2b377e720e89a60e78865b6763eed4c141ddd168611c5b9f0', '9852a9c1a41557cb6beb3dcaf2aea6a022c5c5672df48c585d56132e6cac3e77', ''),
    'simulate-counts': (0, '6453deeb76e3e2fcfa6c31cfd0aee7fde12b59b37b91f050e7499beb4cc80e5e', '20deaf89cc5169d2a0bddc27dcd46afe37fa82ea0d2c68086eed8f0b95bdd575', ''),
    'gain-q-exp': (0, '02ade259400308d8bc9bc7689e59affbf403050be7e9423d23adede40d983ec4', '2e1efd21194e670751b840a209530b293f39e444b08790015099904d36153219', ''),
    'gain-q-qfunc-qos': (0, 'cf821968b59685ec29525fa60401921faf46e093049897dacc1d4630dcaab4ae', '1f95132e9fdce5ef15fc91388794ad3bdc97cfb09eb5d992a44cc28cf45b6db7', ''),
    'gain-b-exp': (0, '51067eb976e695ddc18b18140a49e9ca01a2a80228e27e775f5a75c22a126327', '50aa165a133f3e3d6608c0e638a8f757a784358f0282d5c2d2d8a631f551e1b5', ''),
    'gain-b-qfunc2': (0, 'e155db460e4a6a769852713d66003db62f2a9dc5501b768485392424c090a1ba', 'c548c9b979f0d27f8a4db9f9aa002ed17042ebeba1a7255f063422180a18fddc', ''),
    'gain-b-qfunc-qos': (0, '24cebc15db37b07af651a53b4cacc091f967f364796bf2b54bf8029dfd9c6cd3', 'dabff5445fcdf31ef5437c73d1c0160eb0953ab1e40c424a1e354f9d02c1a580', ''),
    'gain-b-infeasible': (2, '9d6627a0514802530411ddf0cf36fc9f24570d0d8d49b74c931657b86c8c9f2a', '8977877ca6cd76111a7f00f72ae17392cf3773be2cfc64f28acf9ce7c110a508', 'some grid points cannot meet the loss bound\n'),
    'gain-b-q1': (0, '44c350cb63d331f39623eeef781e5ee357d16a4a57fa413555578d155787a438', '775a9c4206013b390a298d0e96264cc5bf7a1a09947cd96534237beb97ba49a4', ''),
    'sweep-q-exp': (0, 'c88457f1255c22df54dc8102d5ed77760232ecbe4f4f7976cdb114929e4a5789', 'c07c6ff914d778d938504076bbacd0f295b7526cae1ca740d24574c363c934c3', ''),
    'sweep-q-qfunc-qos': (0, 'caa9f950e72b42faf8f15f5a2c0e8d61081f4b61c543878798d48b6107cee14f', 'c07c6ff914d778d938504076bbacd0f295b7526cae1ca740d24574c363c934c3', ''),
    'sweep-b-exp': (0, '886050b85eeea395fa3067bb2edf46ce68aee7adfb33f03739e8912afe0de988', '89d33abd28c565eccf60ef8b35003ff1cc15862c3d758eb47369f559af76acac', ''),
    'sweep-b-qfunc2': (0, '753a35ab6d18a299100a427f25dfb9cca8abe08a4a04c19bced353fc33987e13', 'af75cc9dfccb3f7dd3fe6e039f1b9876aa41758211ee34b778a49f58dfb1d35e', ''),
    'sweep-p-exp': (0, 'd8bb1cef11fc11ec45e975308b7ce9342fd51abf39c2327fda9673d9a45b8fad', '28766d68ba91ac63d408f27391a3acd99c2f57e31326524828210d9b0dae7d0d', ''),
    'sweep-p-qfunc2-b0': (0, '70e8dc992dbe41c7c825e9b3260d0c196cae9f3105553a257214f6ef451af340', '3eb01ac89f63395f3d36fbb257e598ea36ac07f683bdf04fc0be409518896ced', ''),
    'sweep-p-qfunc-qos': (0, '8014d5a57b518d14bea845fa5c4db678dd2b25af548ebf81bf0923f9ce0a7c94', '28766d68ba91ac63d408f27391a3acd99c2f57e31326524828210d9b0dae7d0d', ''),
    'optimize-f-overflow': (0, '0bd342e95c551ba5f948c535cc844a62d21007ebc9f11432ed53afccd07de61a', '87057b013e3aba1bd465bb69612d3bb52eea7d5da47ac20c362d1b672fae6f9b', ''),
    'optimize-qfunc-hh': (0, 'ecd4ea6bb5d1b6dfa582bac67eb7560091588f5572720690011460e01a09f4cb', '3d1ec627e418c7a52087c76a2d619c4a64e94ed5ed4a70df61d92d8cc3d92461', ''),
    'optimize-qfunc-hh-sigma2': (0, 'e3caaa7a9bdfedbe74f99da1de94adafb9696d144860a8d074b091fdc60a9e47', 'f82de811c8fc3cac63c2f2cb5687c20f8cae1d220524adbddc9b850a4053ea5d', ''),
    'simulate-long': (0, 'ba4ac1f856cf951d15f1013cd213e6b8cb6153558e454aa97c384e51905fe9d3', '8c9e85fd7f510fda611f8e8d744e271683c4be342fd66b3f14f6210f846a1e62', ''),
    'simulate-threaded': (0, '603ab5527c2d428fa40c2e99d9cd96dd901983f3229d14a071ae3c3aa8928f2e', '21df72ba61758fc6b9810ea860b6860f1db854fb1000272f8956e2dcd443bce1', ''),
    'simulate-campaigns': (0, '326550a4ed4483b2b2d4ff007bb2a1fee60920e3f1cb9e876021a188ee798859', '3da36f47e71b681ab552384a4957dc71860388cdebb1f19a440d19d67ed04f11', ''),
    'simulate-straggler': (0, '6116b8ebbb7e80f42ab0ef72a0caa1d4a06bc5b1b1ec4185956eb3521692cbd5', '89db87c39b16dcb13be8d4237414694f19d559a3b86bb44a7806b28c499532ef', ''),
    'simulate-deep-buffer': (0, '91be9513d1fc29ca280ea4c0637901c4612ca912f0e9d522ed6d164de7ec9b75', 'e72c416706506579af7b87b431aace13d431ac5ba58cd20165822d05d8547ec5', ''),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, out: Path):
    """(exit code, SHA-256 of the CSV or None if none is written, SHA-256 of
    stdout, stderr) of one CLI call, with the out path read as <out>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    printed, errors = (text.getvalue().replace(str(out), "<out>") for text in (stdout, stderr))
    return (code, sha256(out.read_bytes()) if out.exists() else None,
            sha256(printed.encode()), errors)


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
            print(f"    {name!r}: {run_case(argv, Path(tmp) / f'{name}.csv')!r},")
