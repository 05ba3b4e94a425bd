import csv
import math
import subprocess
import sys

import pytest

from greenlink import (
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SystemParams,
    dbm_to_watts,
    efficiency,
)
from greenlink import cli
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
        # every cell is the shortest round-trip form of the model's own value
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

    @pytest.mark.parametrize("kappa", [None, 10.0])
    @pytest.mark.parametrize("axis, values", [
        ("q", [0.2, 1.0]),
        ("b_over_sigma2", [0.0, 1000.0]),
        ("p", [0.005, 0.05, 2.0]),
    ])
    def test_rows_match_per_row_rebuild(self, tmp_path, axis, values, kappa):
        # Each row must be what efficiency() gives on objects built afresh
        # for that row from the CLI defaults, written as repr.
        flags = [] if kappa is None else ["--model", "qfunc", "--kappa", repr(kappa)]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--axis", axis, "--p-points", "9",
                     "--values", ",".join(map(repr, values)), "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        per_value = 1 if axis == "p" else 9
        assert len(rows) == len(values) * per_value
        sigma2 = dbm_to_watts(0.0)
        for i, row in enumerate(rows):
            value, p = values[i // per_value], float(row[1])
            ratio = value if axis == "b_over_sigma2" else 100.0
            system = SystemParams(rate_R=4000.0, fixed_power_b=ratio * sigma2,
                                  noise_sigma2=sigma2, p_min=0.01,
                                  p_max=dbm_to_watts(35.0))
            queue = QueueParams(arrival_prob_q=value if axis == "q" else 0.5,
                                buffer_size_K=10)
            if kappa is None:
                model = ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0,
                                          noise_sigma2=sigma2)
            else:
                model = QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=kappa,
                                      channel_gain_hh=1.0, noise_sigma2=sigma2)
            point = efficiency(system, queue, model, p)
            assert row == [repr(value), repr(p), repr(point.eta), repr(point.phi),
                           repr(point.f), str(int(point.feasible))]
        if axis == "p":
            assert [float(row[1]) for row in rows] == values

    @pytest.mark.parametrize("argv, message", [
        (["--axis", "q", "--values", "0.5,1.5"],
         "error: arrival probability must lie in (0, 1]"),
        (["--axis", "b_over_sigma2", "--values", "10,-1"],
         "error: fixed power draw cannot be negative"),
        (["--model", "qfunc", "--axis", "p"],
         "error: the qfunc model needs an explicit --kappa (no default)"),
        (["--axis", "b_over_sigma2", "--values", "10,nan"],
         "error: fixed power draw cannot be negative"),
        (["--p-lo-w", "1", "--p-hi-w", "0.5"],
         "error: power grid needs 0 < p_lo < p_hi"),
    ])
    def test_errors_write_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--p-points", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


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

    def test_q_axis_reference_shared(self, tmp_path):
        out, single = tmp_path / "gain.csv", tmp_path / "one.csv"
        args = ["gain", "--model", "qfunc", "--kappa", "10", "--epsilon", "0.01"]
        assert main(args + ["--values", "1e-5,0.3,1", "--out", str(out)]) == 0
        assert main(args + ["--values", "0.3", "--out", str(single)]) == 0
        rows = read_rows(out)[1:]
        assert {row[1] for row in rows} == {read_rows(single)[1][1]}
        assert rows[-1][1] == rows[-1][2]  # the q = 1 row is its own reference


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

    def test_unknown_model(self, tmp_path, capsys):
        # The flag's choices stop this on the command line; the INI key has none.
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\ntype = foo\n")
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown model 'foo' (choose exp or qfunc)\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--b-over-sigma2", "nan"], "fixed power draw cannot be negative"),
        (["optimize", "--b-w", "nan"], "fixed power draw cannot be negative"),
        (["optimize", "--a", "nan"], "amplifier coefficient must be positive"),
        (["gain", "--axis", "b_over_sigma2", "--values", "nan"],
         "fixed power draw cannot be negative"),
        (["eval", "--p-w", "nan"], "transmit power must be positive"),
        (["simulate", "--p-w", "nan", "--num-runs", "2", "--total-packets", "10"],
         "transmit power must be nonnegative"),
    ])
    def test_nan_rejected_writes_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--pmax-w", "inf"], "p_max must be finite, got inf"),
        (["optimize", "--sigma2-w", "inf"], "noise_sigma2 must be finite, got inf"),
        (["optimize", "--b-w", "inf"], "fixed_power_b must be finite, got inf"),
        (["optimize", "--b-over-sigma2", "inf"], "fixed_power_b must be finite, got inf"),
        (["optimize", "--a", "inf"], "amp_coeff_a must be finite, got inf"),
        (["optimize", "--R", "inf"], "rate_R must be finite, got inf"),
        (["optimize", "--R0", "inf"], "rate_R0 must be finite, got inf"),
        (["optimize", "--model", "qfunc", "--kappa", "10", "--hh", "inf"],
         "channel_gain_hh must be finite, got inf"),
        (["optimize", "--model", "qfunc", "--kappa", "inf"],
         "spread_kappa must be finite, got inf"),
        (["gain", "--axis", "b_over_sigma2", "--values", "inf"],
         "fixed_power_b must be finite, got inf"),
        (["eval", "--R0", "inf", "--p-w", "0.1"], "rate_R0 must be finite, got inf"),
        (["simulate", "--R0", "inf", "--p-w", "0.1", "--num-runs", "2",
          "--total-packets", "10"], "rate_R0 must be finite, got inf"),
    ])
    def test_infinite_rejected_writes_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--p-w", "inf"], "transmit power must be finite, got inf"),
        (["simulate", "--p-w", "inf", "--num-runs", "2", "--total-packets", "10"],
         "transmit power must be finite, got inf"),
        (["eval", "--p-w", "0"], "transmit power must be positive"),
        (["eval", "--p-w", "-1"], "transmit power must be positive"),
    ])
    def test_power_rejected_by_name_writes_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # a bare "-inf" or "-nan" is the flag's value, as "--R=-inf" is
        (["optimize", "--R", "-inf"], "rate must be positive"),
        (["optimize", "--R", "-nan"], "rate must be positive"),
        (["optimize", "--a", "-INF"], "amplifier coefficient must be positive"),
        (["eval", "--p-w", "-inf"], "transmit power must be positive"),
        (["simulate", "--f", "-nan", "--num-runs", "2"], "success probability must lie in [0, 1]"),
        (["sweep", "--axis", "q", "--values", "-inf,0.5"],
         "arrival probability must lie in (0, 1]"),
    ])
    def test_bare_negative_inf_and_nan_reach_the_checks(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed, runs", [(-1, 2), (2**128 - 1, 2), (2**128, 1)])
    def test_seed_out_of_key_range_writes_no_csv(self, tmp_path, capsys, seed, runs):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--f", "0.5", "--num-runs", str(runs),
                     "--total-packets", "10", "--seed", str(seed), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: seed must lie in [0, 2**128 - num_runs], got {seed}\n")
        assert not out.exists()


class TestParserReuse:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_leak_between_calls(self, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["optimize", "--K", "5", "--q", "0.3", "--out", str(first)]) == 0
        assert main(["optimize", "--frequency", "2.4"]) == 1  # usage error
        assert main(["sweep", "--axis", "q"]) == 1  # handler error
        assert main(["eval", "--K", "3", "--p-w", "0.1"]) == 0
        assert main(["optimize", "--out", str(second)]) == 0
        assert read_rows(first)[1][:2] == ["0.3", "5"]
        assert read_rows(second)[1][:2] == ["0.5", "10"]  # the defaults again


def test_module_entry_point(tmp_path):
    out = tmp_path / "opt.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "greenlink", "optimize", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "binding" in proc.stdout
    assert out.exists()
