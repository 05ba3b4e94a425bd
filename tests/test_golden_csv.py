"""Golden-file tests for the CLI's frozen CSV interfaces.

Each case runs one small CLI call and compares the SHA-256 of the CSV it
writes, and its exit code, against a pin, so any change to a byte of
eval, optimize, simulate, gain or sweep output fails here. The cases
cover both success models, with the qfunc corners kappa = 2 at b = 0 and
kappa = 10 at epsilon = 0.01, K = 1000. Re-pin only for a deliberate
change of output, by running this file as a script:

    PYTHONPATH=src python3 tests/test_golden_csv.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from greenlink.cli import main

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
    'optimize-qfunc2-b0': (0, 'b1a020e91db80d59b8ab25d70c113011274ae4e437b76bf57b37060aaff94fe7'),
    'optimize-qfunc-qos': (0, '8a0d18caf9f32ecc6f05e9354d6bf432d72a2ec3af0b02287fb23045ae0d7cda'),
    'simulate-f': (0, '139a878252c08f94e30c8209ad7dfef2d70d68585cd5681c123274be8e61b7af'),
    'simulate-qfunc-p': (0, '09705e15357101b2b377e720e89a60e78865b6763eed4c141ddd168611c5b9f0'),
    'simulate-counts': (0, '6453deeb76e3e2fcfa6c31cfd0aee7fde12b59b37b91f050e7499beb4cc80e5e'),
    'gain-q-exp': (0, '02ade259400308d8bc9bc7689e59affbf403050be7e9423d23adede40d983ec4'),
    'gain-q-qfunc-qos': (0, 'cf821968b59685ec29525fa60401921faf46e093049897dacc1d4630dcaab4ae'),
    'gain-b-exp': (0, '484d9a89857d01281069dd7d2d5927f6b8e0e4a1aeeddea24b49038e56d35879'),
    'gain-b-qfunc2': (0, 'cfc82a1b02a87a0513f564286f6eb4a8adf3c5ca710a828c495f0c0e03299276'),
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code, digest = run_case(argv, Path(tmp) / f"{name}.csv")
            print(f"    {name!r}: ({code}, {digest!r}),")
