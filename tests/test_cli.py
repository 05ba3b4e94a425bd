import csv
import math
import subprocess
import sys

import pytest

from greenlink import QKnownChannel, dbm_to_watts
from greenlink.cli import main


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEval:
    def test_reduction_at_saturated_no_idle(self, tmp_path):
        # q = 1, b = 0: the eta column must equal R f / p exactly
        out = tmp_path / "eval.csv"
        code = main(["eval", "--q", "1", "--b-w", "0", "--sigma2-w", "0.01",
                     "--p-w", "1.0", "--out", str(out)])
        assert code == 0
        header, row = read_rows(out)
        assert header == ["p", "eta", "phi", "f", "feasible"]
        p, eta, phi, f, feasible = (float(row[0]), float(row[1]), float(row[2]),
                                    float(row[3]), int(row[4]))
        assert p == 1.0
        assert f == pytest.approx(math.exp(-0.15), rel=1e-14)
        assert eta == pytest.approx(4000.0 * f / p, rel=1e-12)
        assert phi == pytest.approx(1.0 - f, rel=1e-12)
        assert feasible == 1

    def test_dbm_and_watt_flags_agree(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--p-dbm", "30", "--out", str(a)]) == 0
        assert main(["eval", "--p-w", "1.0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_power_is_usage_error(self, capsys):
        assert main(["eval"]) == 1
        assert "power" in capsys.readouterr().err

    def test_stdout_summary(self, capsys):
        assert main(["eval", "--p-w", "0.02"]) == 0
        text = capsys.readouterr().out
        assert "eta" in text and "feasible" in text


class TestOptimize:
    def test_interior_default_config(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--out", str(out)]) == 0
        header, row = read_rows(out)
        assert header == ["q", "K", "b", "sigma2", "epsilon", "p_star", "p0",
                          "p_star_constrained", "eta_star", "binding"]
        assert float(row[0]) == 0.5
        assert int(row[1]) == 10
        assert float(row[2]) == pytest.approx(0.1, rel=1e-12)  # 100 x sigma2
        assert float(row[3]) == pytest.approx(1e-3, rel=1e-12)
        assert row[9] == "interior"
        assert float(row[5]) == float(row[7])  # p* == p** when interior
        text = capsys.readouterr().out
        assert "% of the power cap" in text
        assert "p_max" in text  # the percent base is stated explicitly

    def test_infeasible_exit_code(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--epsilon", "1e-6", "--pmin-w", "1e-5",
                     "--pmax-w", "2e-5", "--out", str(out)])
        assert code == 2
        _, row = read_rows(out)
        assert row[6] == "infeasible"
        assert row[7] == "infeasible"
        assert row[9] == "infeasible"
        assert "unreachable" in capsys.readouterr().err

    def test_qos_binding_reported(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--q", "0.9", "--epsilon", "0.001",
                     "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert row[9] == "qos_bound"
        assert float(row[7]) == float(row[6])  # clamps to p0
        assert float(row[7]) > float(row[5])


class TestSweep:
    def test_q_sweep_shape_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--axis", "q", "--values", "0.2,0.5,0.9",
                "--p-points", "40"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_rows(a)
        assert rows[0] == ["axis_value", "p", "eta", "phi", "f", "feasible"]
        assert len(rows) == 1 + 3 * 40
        assert {r[0] for r in rows[1:]} == {"0.2", "0.5", "0.9"}
        assert all(float(r[2]) >= 0.0 for r in rows[1:])

    def test_power_axis(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["sweep", "--axis", "p", "--p-points", "25",
                     "--p-lo-w", "1e-3", "--p-hi-w", "1.0",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 26
        powers = [float(r[1]) for r in rows[1:]]
        assert powers[0] == pytest.approx(1e-3)
        assert powers[-1] == pytest.approx(1.0)
        assert powers == sorted(powers)

    def test_qfunc_cells_are_plain_numbers(self, tmp_path):
        # the qfunc model returns numpy scalars; every cell must still be
        # the shortest round-trip form of the model's own value
        out = tmp_path / "qfunc.csv"
        assert main(["sweep", "--model", "qfunc", "--kappa", "10", "--axis", "q",
                     "--values", "0.3", "--p-points", "30", "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 30
        for row in rows:
            assert all(repr(float(cell)) == cell for cell in row[:5])
        model = QKnownChannel(rate_R=4000, rate_R0=1000, spread_kappa=10.0,
                              channel_gain_hh=1.0, noise_sigma2=1e-3)
        for row in rows:
            assert float(row[4]) == float(model.success_probability(float(row[1])))

    def test_q_axis_needs_values(self, capsys):
        assert main(["sweep", "--axis", "q"]) == 1
        assert "values" in capsys.readouterr().err

    def test_rejects_unknown_axis(self):
        assert main(["sweep", "--axis", "nonsense"]) == 1


class TestGain:
    def test_default_grid_trend(self, tmp_path):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["axis_value", "p_star_q1", "p_star", "gain_db"]
        assert len(rows) == 21
        gains = [float(r[3]) for r in rows[1:]]
        assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gains, gains[1:]))
        assert gains[-1] == 0.0  # q = 1 saves nothing over itself
        assert gains[0] > 1.0

    def test_infeasible_grid_point(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        code = main(["gain", "--values", "0.5", "--epsilon", "1e-6",
                     "--pmin-w", "1e-5", "--pmax-w", "2e-5",
                     "--out", str(out)])
        assert code == 2
        rows = read_rows(out)
        assert rows[1][1] == "infeasible"


class TestSimulate:
    def test_fixed_f_run(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--f", "0.5", "--total-packets", "500",
                     "--num-runs", "200", "--seed", "7",
                     "--out", str(out)]) == 0
        header, row = read_rows(out)
        assert header == ["total_packets", "mean_loss", "std_error",
                          "theoretical_phi", "relative_gap"]
        assert int(row[0]) == 500
        assert 0.0 < float(row[1]) < 1.0
        assert float(row[3]) == pytest.approx(1 / 22, rel=1e-12)

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--f", "0.6", "--total-packets", "400",
                "--num-runs", "100", "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_f_derived_from_power(self, capsys):
        assert main(["simulate", "--p-w", "0.05", "--total-packets", "200",
                     "--num-runs", "20"]) == 0
        text = capsys.readouterr().out
        f = math.exp(-0.015 / 0.05)
        assert f"{f:.6g}" in text

    def test_convergence_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["simulate", "--f", "0.5", "--num-runs", "100",
                     "--seed", "3", "--packet-counts", "200,400",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["packet_count", "mean_loss", "std_error",
                           "relative_gap"]
        assert [int(r[0]) for r in rows[1:]] == [200, 400]

    def test_needs_f_or_power(self, capsys):
        assert main(["simulate"]) == 1
        assert "simulate needs" in capsys.readouterr().err


class TestConfigFile:
    def test_config_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[system]\nepsilon = 0.5\nb_over_sigma2 = 50\nsigma2 = 0\n"
            "[queue]\nq = 0.3\nk = 8\n")
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", str(cfg), "--q", "0.7",
                     "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert float(row[0]) == 0.7          # flag beats config
        assert int(row[1]) == 8              # config beats default
        assert float(row[4]) == 0.5
        assert float(row[3]) == pytest.approx(1e-3, rel=1e-12)  # 0 dBm
        assert float(row[2]) == pytest.approx(0.05, rel=1e-12)  # 50 x sigma2

    def test_explicit_b_beats_ratio(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[system]\nb_w = 0.2\nb_over_sigma2 = 50\n")
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert float(row[2]) == pytest.approx(0.2, rel=1e-12)

    def test_watt_suffix_and_dbm_agree(self, tmp_path):
        c1, c2 = tmp_path / "a.ini", tmp_path / "b.ini"
        c1.write_text("[system]\nsigma2 = 0\n")
        c2.write_text("[system]\nsigma2_w = 0.001\n")
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize", "--config", str(c1), "--out", str(o1)]) == 0
        assert main(["optimize", "--config", str(c2), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_missing_file(self, capsys):
        assert main(["optimize", "--config", "/nonexistent/x.ini"]) == 1
        assert "config" in capsys.readouterr().err

    def test_malformed_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[queue]\nq = banana\n")
        assert main(["optimize", "--config", str(cfg)]) == 1


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["optimize", "--frequency", "2.4"]) == 1

    def test_qfunc_needs_kappa(self, capsys):
        assert main(["eval", "--model", "qfunc", "--p-w", "0.1"]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_qfunc_with_kappa_works(self, tmp_path):
        out = tmp_path / "ev.csv"
        assert main(["eval", "--model", "qfunc", "--kappa", "2",
                     "--p-w", "0.1", "--out", str(out)]) == 0

    def test_domain_error_maps_to_one(self, capsys):
        assert main(["eval", "--q", "1.5", "--p-w", "0.1"]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "opt.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "greenlink", "optimize", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "binding" in proc.stdout
    assert out.exists()
