import csv
import importlib
import math
import os
import runpy
import stat
import subprocess
import sys

import pytest

import oracles
from greenlink import (
    ExpUnknownChannel,
    QKnownChannel,
    QueueParams,
    SimConfig,
    SystemParams,
    dbm_to_watts,
    efficiency,
    simulate,
)
from greenlink import cli, optimize, queueing
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

    def test_no_idle_draw_at_the_smallest_arrival_probability(self, tmp_path):
        # b = 0: eta = R f / (a p) at any q, also where a p q (1 - phi) / f underflows
        out = tmp_path / "eval.csv"
        assert main(["eval", "--q", "5e-324", "--b-w", "0", "--p-w", "0.02",
                     "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert float(row[1]) == pytest.approx(4000.0 * float(row[3]) / 0.02, rel=1e-15)

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

    @pytest.mark.parametrize("argv, eta_star, eta_cc", [
        # the exp peak where f' overflows: eta* reads inf there, while p** sits on p_min
        (["--sigma2-w", "1e-312", "--b-over-sigma2", "1"], "inf", "400000"),
        (["--model", "qfunc", "--kappa", "2", "--hh", "1e6"], "20000", "19047.6"),
        ([], None, None),  # interior: p** is p*, and eta** is eta*
    ])
    def test_each_peak_prints_its_own_eta(self, tmp_path, capsys, argv, eta_star, eta_cc):
        out = tmp_path / "opt.csv"
        assert main(["optimize", *argv, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" =")[0].strip() for line in lines] == [
            "p*", "eta*", "p0", "p**", "eta**", "binding"]
        _, row = read_rows(out)
        assert lines[1] == f"eta* = {float(row[8]):.6g} bit/J"
        if eta_star is None:
            assert lines[4].split("= ")[1] == lines[1].split("= ")[1]
        else:
            assert (lines[1], lines[4]) == (f"eta* = {eta_star} bit/J", f"eta** = {eta_cc} bit/J")

    def test_qos_binding_reported(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--q", "0.9", "--epsilon", "0.001",
                     "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert row[9] == "qos_bound"
        assert float(row[7]) == float(row[6])  # clamps to p0
        assert float(row[7]) > float(row[5])

    @pytest.mark.parametrize("b_over_sigma2", ["0", "100"])
    def test_smallest_arrival_probability(self, tmp_path, b_over_sigma2):
        # q = 5e-324 underflows both terms of the slope unless q is divided out.
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--q", "5e-324", "--K", "1", "--b-over-sigma2",
                     b_over_sigma2, "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert row[9] == "interior"
        assert float(row[7]) > 0.0 and float(row[8]) > 0.0

    @pytest.mark.parametrize("kappa, p_min, p_star, binding", [
        ("0.5", 0.01, "nan", "power_cap"),  # eta has no interior peak
        ("1", 0.01, 0.03785, "interior"),
        ("0.7", 1e-4, 0.01144, "power_cap"),  # eta at p_min beats the peak
    ])
    def test_qfunc_no_fixed_power_matches_grid(self, tmp_path, kappa, p_min, p_star,
                                               binding):
        # b = 0: f(0) > 0 makes eta -> inf as p -> 0; p** is the best power
        # on [p_min, p_max], found by a dense grid.
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--model", "qfunc", "--kappa", kappa, "--b-w", "0",
                     "--pmin-w", repr(p_min), "--out", str(out)]) == 0
        _, row = read_rows(out)
        p_max = dbm_to_watts(35.0)
        n = 200_000
        ref = oracles.grid_constrained_argmax_qfunc(
            0.5, 10, 4000.0, 0.0, 1.0, float(kappa), 4.0, 1e3, 1.0, p_min, p_max, n)
        assert abs(math.log(float(row[7]) / ref)) <= math.log(p_max / p_min) / (n - 1)
        assert row[9] == binding
        if binding == "power_cap":
            assert float(row[7]) == p_min
        if p_star == "nan":
            assert row[5] == row[8] == "nan"
        else:
            assert float(row[5]) == pytest.approx(p_star, rel=1e-3)


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

    def test_rejects_unknown_axis(self, capsys):
        assert main(["sweep", "--axis", "nonsense", "--values", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown sweep axis 'nonsense' (choose q, b_over_sigma2, or p)\n")

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
        (["--p-hi-w", "inf"], "error: power grid end p_hi must be finite, got inf"),
        (["--p-lo-w", "inf"], "error: power grid end p_lo must be finite, got inf"),
        # The limits that set the grid's default ends are named as themselves.
        (["--pmin-dbm", "9999"], "error: power limits must satisfy 0 < p_min < p_max"),
        (["--pmax-dbm", "9999"], "error: p_max must be finite, got inf"),
        # a grid from p_lo to itself is no grid
        (["--p-lo-w", "1", "--p-hi-w", "1"], "error: power grid needs 0 < p_lo < p_hi"),
    ])
    def test_errors_write_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--p-points", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    # Which error wins: the first curve's system and queue are checked before
    # the model, the model before the powers, and a later curve's queue when
    # that curve is reached.
    @pytest.mark.parametrize("argv, message", [
        (["--axis", "q", "--values", "0,0.5", "--model", "qfunc", "--kappa", "-1"],
         "error: arrival probability must lie in (0, 1]"),
        (["--axis", "b_over_sigma2", "--values", "-1,2", "--model", "qfunc", "--kappa", "-1"],
         "error: fixed power draw cannot be negative"),
        (["--axis", "q", "--values", "0.5,0"], "error: arrival probability must lie in (0, 1]"),
        (["--axis", "p", "--values", "0.1,-1"], "error: transmit power must be positive"),
        (["--axis", "p", "--values", "nan"], "error: transmit power must be positive"),
        (["--axis", "p", "--values", "0.1,inf"], "error: transmit power must be finite, got inf"),
    ])
    def test_error_precedence(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("axis, queues", [("q", 3), ("b_over_sigma2", 1)])
    def test_f_once_per_power_phi_once_per_queue(self, monkeypatch, tmp_path, axis, queues):
        # f depends on neither q nor b, and phi not on b: one model per sweep,
        # one f per power, one phi per power and distinct queue.
        counts = {"models": 0, "f": 0, "phi": 0}
        init, success = ExpUnknownChannel.__post_init__, ExpUnknownChannel.success_probability
        loss = queueing.packet_loss

        def built(self):
            counts["models"] += 1
            init(self)

        def f_counted(self, p):
            counts["f"] += 1
            return success(self, p)

        def phi_counted(*args):
            counts["phi"] += 1
            return loss(*args)

        monkeypatch.setattr(ExpUnknownChannel, "__post_init__", built)
        monkeypatch.setattr(ExpUnknownChannel, "success_probability", f_counted)
        # The package's name efficiency is the function; the module is looked up.
        for module in (importlib.import_module("greenlink.efficiency"), queueing):
            monkeypatch.setattr(module, "packet_loss", phi_counted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", axis, "--values", "0.2,0.5,1", "--p-points", "7",
                     "--out", str(out)]) == 0
        assert len(read_rows(out)) == 1 + 3 * 7
        assert counts == {"models": 1, "f": 7, "phi": 7 * queues}

    def test_one_point_grid_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "p", "--p-points", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: power grid needs at least 2 points\n"
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

    def test_b_axis_finds_p0_twice(self, monkeypatch, tmp_path):
        # p0 does not depend on b: one threshold for the rows' queue and one for
        # the full-load reference, however many rows there are. The first row
        # solves its reference first.
        calls = []
        original = optimize.qos_threshold

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (optimize, cli):  # every binding gain may call it through
            monkeypatch.setattr(module, "qos_threshold", counted, raising=False)
        values = ",".join(str(10.0 ** (k / 4.0)) for k in range(20))
        assert main(["gain", "--axis", "b_over_sigma2", "--values", values, "--epsilon", "0.01",
                     "--out", str(tmp_path / "gain.csv")]) == 0
        assert len(read_rows(tmp_path / "gain.csv")) == 21
        assert [queue.arrival_prob_q for _, queue, _ in calls] == [1.0, 0.5]

    def test_b_axis_at_full_load_solves_each_row_once(self, monkeypatch, tmp_path):
        # With base q = 1 each row is its own reference: one search per row and
        # one p0 for them all.
        calls = {"maximize_unconstrained": [], "qos_threshold": []}
        for name, seen in calls.items():
            def counted(*args, seen=seen, original=getattr(optimize, name)):
                seen.append(args[1].arrival_prob_q)  # (system, queue, model)
                return original(*args)

            monkeypatch.setattr(optimize, name, counted)
        assert main(["gain", "--axis", "b_over_sigma2", "--values", "0,1,100", "--q", "1",
                     "--epsilon", "0.01", "--out", str(tmp_path / "gain.csv")]) == 0
        assert len(read_rows(tmp_path / "gain.csv")) == 4
        assert calls == {"maximize_unconstrained": [1.0] * 3, "qos_threshold": [1.0]}

    def test_full_load_row_reuses_the_reference(self, monkeypatch, tmp_path):
        # The default grid ends at q = 1, whose optimum is the reference itself.
        queues = []
        original = cli.maximize_constrained

        def counted(system, queue, model):
            queues.append(queue.arrival_prob_q)
            return original(system, queue, model)

        monkeypatch.setattr(cli, "maximize_constrained", counted)
        out = tmp_path / "gain.csv"
        assert main(["gain", "--out", str(out)]) == 0
        assert queues == [1.0] + [round(0.05 * i, 2) for i in range(1, 20)]
        rows = read_rows(out)
        assert len(rows) == 21 and rows[-1][0] == "1.0" and rows[-1][1] == rows[-1][2]

    def test_q_axis_builds_the_link_once(self, monkeypatch, tmp_path):
        built = {ExpUnknownChannel: 0, SystemParams: 0}
        for cls in built:
            original = cls.__post_init__

            def counted(self, cls=cls, original=original):
                built[cls] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        assert main(["gain", "--out", str(tmp_path / "gain.csv")]) == 0
        assert len(read_rows(tmp_path / "gain.csv")) == 21
        assert built == {ExpUnknownChannel: 1, SystemParams: 1}


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

    def test_prints_slots_simulated(self, capsys):
        assert main(["simulate", "--f", "0.5", "--total-packets", "300", "--num-runs", "20",
                     "--seed", "5", "--warmup-slots", "40"]) == 0
        config = SimConfig(queue=QueueParams(0.5, 10), success_prob_f=0.5, total_packets=300,
                           num_runs=20, seed=5, warmup_slots=40)
        line = capsys.readouterr().out.splitlines()[-1]
        assert line == f"slots simulated   = {simulate(config).slots}"

    def test_smallest_arrival_probability_rejected(self, monkeypatch, capsys):
        # total_packets / q overflows: the config names q, and no campaign starts
        def never(config):
            raise AssertionError("a campaign started")

        monkeypatch.setattr(cli, "simulate", never)
        assert main(["simulate", "--q", "5e-324", "--K", "1", "--f", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: campaign too long: num_runs = 1000 runs, each of "
                                "warmup_slots = 0 slots then total_packets = 1000 arrivals at "
                                "q = 5e-324, last about num_runs * (total_packets / q + "
                                "warmup_slots) slots, which must not exceed 2**40\n")

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

    def test_negative_warmup_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--f", "0.5", "--warmup-slots", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: warm-up slot count cannot be negative\n"
        assert not out.exists()

    def test_needs_f_or_power(self, capsys):
        assert main(["simulate"]) == 1
        assert "simulate needs" in capsys.readouterr().err

    def test_checks_the_optimum_on_the_same_link_flags(self, tmp_path, capsys):
        # simulate takes optimize's link flags, so one $LINK runs both: its f
        # at p** is the one efficiency() gives there
        link = ["--model", "qfunc", "--kappa", "10", "--epsilon", "0.01", "--K", "1000",
                "--b-over-sigma2", "100", "--pmax-w", "3"]
        out = tmp_path / "o.csv"
        assert main(["optimize", *link, "--out", str(out)]) == 0
        p_cc = float(read_rows(out)[1][7])
        capsys.readouterr()
        assert main(["simulate", *link, "--p-w", repr(p_cc), "--num-runs", "40",
                     "--total-packets", "300", "--seed", "5"]) == 0
        sigma2 = dbm_to_watts(0.0)
        system = SystemParams(rate_R=4000.0, fixed_power_b=100 * sigma2, noise_sigma2=sigma2,
                              p_min=0.01, p_max=3.0, loss_bound_epsilon=0.01)
        model = QKnownChannel(rate_R=4000.0, rate_R0=1000.0, spread_kappa=10.0,
                              channel_gain_hh=1.0, noise_sigma2=sigma2)
        f = efficiency(system, QueueParams(0.5, 1000), model, p_cc).f
        assert capsys.readouterr().out.splitlines()[0] == f"f (success prob)  = {f:.6g}"


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
        # _model names it, whether the INI key or the flag gave it
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\ntype = foo\n")
        out = tmp_path / "opt.csv"
        for argv in (["optimize", "--config", str(cfg)],
                     ["eval", "--model", "foo", "--p-w", "0.05"]):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: unknown model 'foo' (choose exp or qfunc)\n"
            assert not out.exists()


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["optimize", "--frequency", "2.4"]) == 1

    @pytest.mark.parametrize("argv", [["eval", "--p-w", "0.05"], ["optimize"],
                                      ["sweep", "--values", "0.5"], ["gain"]])
    def test_seed_only_on_simulate(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--seed", "9", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 9\n"
        assert not out.exists()

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
         "transmit power must be positive"),
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
        # simulate derives f by eval's rule, so it refuses the powers eval does
        (["simulate", "--p-w", "0"], "transmit power must be positive"),
        (["simulate", "--p-dbm", "-inf"], "transmit power must be positive"),
        (["simulate", "--model", "qfunc", "--kappa", "2", "--p-w", "0"],
         "transmit power must be positive"),
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

    # The error each power setting gives when it reads inf watts.
    _INFINITE_POWER = {
        "b": ("optimize", "fixed_power_b must be finite, got inf"),
        "sigma2": ("optimize", "noise_sigma2 must be finite, got inf"),
        "pmax": ("optimize", "p_max must be finite, got inf"),
        "pmin": ("optimize", "power limits must satisfy 0 < p_min < p_max"),
        "p_lo": ("sweep", "power grid end p_lo must be finite, got inf"),
        "p_hi": ("sweep", "power grid end p_hi must be finite, got inf"),
        "p": ("eval", "transmit power must be finite, got inf"),
    }

    @pytest.mark.parametrize("row", [row for row in cli._FIELDS if row.power],
                             ids=lambda row: row.flag)
    def test_dbm_beyond_float_range_reads_inf(self, tmp_path, capsys, row):
        command, message = self._INFINITE_POWER[row.flag]
        out = tmp_path / "out.csv"
        flag = "--" + row.flag.replace("_", "-") + "-dbm"
        assert main([command, flag, "9999", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_dbm_beyond_float_range_reads_inf(self, tmp_path, capsys):
        ini, out = tmp_path / "big.ini", tmp_path / "out.csv"
        ini.write_text("[system]\npmax = 9999\n")
        assert main(["optimize", "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: p_max must be finite, got inf\n"
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


class TestModelCorners:
    @pytest.mark.parametrize("argv", [
        ["eval", "--p-w", "1"],
        ["optimize"],
        ["gain", "--values", "0.5,1"],
        ["simulate", "--p-w", "1", "--num-runs", "2", "--total-packets", "10"],
    ], ids=lambda argv: argv[0])
    def test_exp_rate_ratio_beyond_float_range(self, argv):
        # R/R0 = 2000: 2**(R/R0) leaves float range and f is 0 at any power
        assert main([*argv, "--R", "2e6"]) == 0

    @pytest.mark.parametrize("argv", [
        ["gain", "--model", "exp", "--K", "2", "--a", "1e-300", "--sigma2-w", "1e-300",
         "--pmin-w", "1e-300", "--pmax-w", "3.16", "--axis", "b_over_sigma2",
         "--values", "1,1e4"],
        ["optimize", "--b-over-sigma2", "1", "--R", "2e6", "--R0", "1e300", "--a", "1e-300",
         "--sigma2-w", "1e-300", "--pmax-w", "0.02"],
    ], ids=lambda argv: argv[0])
    def test_slope_where_a_p_and_b_h_underflow(self, argv, capsys):
        # a p below the smallest subnormal, with b H 0 too, made the slope 0/0
        assert main(argv) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, check", [
        (["eval", "--sigma2-w", "1e-40", "--p-w", "1e-30"], lambda row: row["eta"] == "inf"),
        # c = 15 sigma2 = 1.5e-29 W, where f/p peaks: the optimum as q -> 0 at b = 0
        (["optimize", "--sigma2-w", "1e-30", "--pmax-w", "1e-28"],
         lambda row: (float(row["p_star"]) == pytest.approx(1.5e-29, rel=1e-12)
                      and row["eta_star"] == "inf")),
        (["gain", "--sigma2-w", "1e-30", "--pmax-w", "1e-28", "--values", "1e-300"],
         lambda row: row["gain_db"] == "0.0"),
        (["sweep", "--sigma2-w", "1e-30", "--pmax-w", "1e-28", "--values", "1e-300"],
         lambda row: not math.isnan(float(row["eta"]))),
    ], ids=["eval", "optimize", "gain", "sweep"])
    def test_no_fixed_power_where_a_p_underflows(self, argv, check, tmp_path):
        # b = 0 with a p below the smallest subnormal: eta = R f / (a p) divided by 0
        out = tmp_path / "out.csv"
        assert main([*argv, "--a", "1e-300", "--b-w", "0", "--q", "1e-300",
                     "--pmin-w", "1e-31", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(check(row) for row in rows)

    def test_exp_and_qfunc_agree_where_f_is_zero(self, tmp_path):
        exp_out, q_out = tmp_path / "exp.csv", tmp_path / "qfunc.csv"
        assert main(["optimize", "--R", "2e6", "--out", str(exp_out)]) == 0
        assert main(["optimize", "--model", "qfunc", "--kappa", "2", "--R", "2e6",
                     "--out", str(q_out)]) == 0
        assert exp_out.read_bytes() == q_out.read_bytes()
        _, row = read_rows(exp_out)
        assert (row[5], row[8], row[9]) == ("nan", "nan", "power_cap")

    def test_qfunc_snr_overflow_gives_zero_success(self, capsys):
        # hh p / sigma2 = 1e600 overflows; the true f is Q(618), which is 0
        assert main(["eval", "--model", "qfunc", "--kappa", "1", "--R", "2e6",
                     "--hh", "1e300", "--sigma2-w", "1e-300", "--p-w", "1"]) == 0
        assert "f        = 0\n" in capsys.readouterr().out

    def test_exp_optimum_at_tiny_noise(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--sigma2-w", "1e-200", "--out", str(out)]) == 0
        _, row = read_rows(out)
        assert float(row[5]) == pytest.approx(15e-200, rel=1e-3)

    def test_optimum_at_subnormal_noise(self, tmp_path):
        # b = 100 sigma2 and p* scale with sigma2, which is subnormal here
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--out", str(out)]) == 0
        default = float(read_rows(out)[1][5])
        assert main(["optimize", "--sigma2-w", "1e-310", "--out", str(out)]) == 0
        assert float(read_rows(out)[1][5]) == pytest.approx(1e-307 * default, rel=1e-12, abs=0.0)


class TestQfuncTwoPeaks:
    """The CLI form of test_optimizer.py's TestQfuncTwoPeaks link, whose eta peaks
    twice: optimize settles on the lower peak near p0, while the feasible power
    HIGHER_PEAK_W reads 0.77% more."""

    LINK = ["--model", "qfunc", "--kappa", "1.5", "--R", "2000", "--R0", "1000", "--hh", "1",
            "--sigma2-w", "0.001", "--b-w", "0.017929717222942627",
            "--pmin-w", "3.3945537965003417e-06", "--pmax-w", "9.896711345799469",
            "--epsilon", "9.289741688526196e-05", "--q", "0.002920938512645282",
            "--K", "1000000"]
    HIGHER_PEAK_W = 6.638e-3

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the qfunc model's eta can have two "
                                           "peaks, and optimize returns the lower one here "
                                           "(eta* = 322.65 bit/J)")
    def test_optimize_finds_the_higher_peak(self, tmp_path):
        out = tmp_path / "out.csv"

        def column(argv, index):
            assert main([*argv, *self.LINK, "--out", str(out)]) == 0
            return float(read_rows(out)[1][index])

        p_cc = column(["optimize"], 7)
        at_optimum = column(["eval", "--p-w", repr(p_cc)], 1)
        assert at_optimum >= column(["eval", "--p-w", repr(self.HIGHER_PEAK_W)], 1)


class TestCsvOut:
    """A CSV is written over its file in place and trimmed at the new end."""

    def test_rewrite_over_a_longer_file_equals_a_fresh_write(self, tmp_path):
        out, fresh = tmp_path / "gain.csv", tmp_path / "fresh.csv"
        assert main(["gain", "--values", "0.5,0.6,0.7", "--out", str(out)]) == 0
        out.chmod(0o640)
        before = out.stat()
        assert main(["gain", "--values", "0.5", "--out", str(out)]) == 0
        assert main(["gain", "--values", "0.5", "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()  # no tail of the longer file
        assert len(read_rows(out)) == 2
        after = out.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this platform")
    @pytest.mark.parametrize("argv", [
        ["eval", "--p-w", "0.05"],
        ["optimize"],
        ["sweep", "--axis", "q", "--values", "0.5", "--p-points", "3"],
        ["sweep", "--axis", "p"],
        ["gain", "--values", "0.5"],
        ["simulate", "--f", "0.5", "--total-packets", "10", "--num-runs", "2"],
    ])
    def test_out_to_a_device(self, argv, capsys):
        # /dev/null takes the bytes but has no end to trim: ftruncate fails there
        assert main([*argv, "--out", "/dev/null"]) == 0
        assert capsys.readouterr().err == ""


def test_module_entry_point(tmp_path):
    out = tmp_path / "opt.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "greenlink", "optimize", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "binding" in proc.stdout
    assert out.exists()


def test_module_entry_point_in_process(monkeypatch, capsys):
    # python -m greenlink, run in this process so a line trace sees __main__.py
    monkeypatch.setattr(sys, "argv", ["greenlink", "eval", "--p-w", "0.05"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("greenlink", run_name="__main__")
    assert exit_info.value.code == 0
    assert "eta " in capsys.readouterr().out
