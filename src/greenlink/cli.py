"""Command-line experiment runner.

Five subcommands: eval (one efficiency point), optimize (constrained
power search), sweep (efficiency curves over a parameter grid),
simulate (Monte Carlo queue validation), gain (buffer-aware power
saving versus the full-load design).

Settings come from built-in defaults, then an INI config file, then
flags, in increasing precedence. Powers cross the boundary in dBm
(config keys take a _w suffix to mean watts); everything internal and
every CSV value is in watts.
"""

import argparse
import configparser
import csv
import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from .efficiency import SystemParams, efficiency
from .optimize import NoInteriorMaximumError, maximize_constrained
from .queueing import QueueParams
from .simulate import SimConfig, convergence_study, simulate
from .success import ExpUnknownChannel, QKnownChannel, SuccessModel
from .units import dbm_to_watts, watts_to_dbm

__all__ = ["main", "console_main", "CliError"]


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on usage errors; route them through
    # CliError so bad flags and bad config values share exit code 1.
    def error(self, message):
        raise CliError(message)


@dataclass
class Settings:
    """Fully resolved run settings, powers in watts."""

    q: float = 0.5
    K: int = 10
    R: float = 4000.0
    R0: float = 1000.0
    a: float = 1.0
    epsilon: float = 1.0
    sigma2_w: float = dbm_to_watts(0.0)  # 1 mW noise floor
    b_w: Optional[float] = None  # resolved from b_over_sigma2 when unset
    b_over_sigma2: float = 100.0
    pmax_w: float = dbm_to_watts(35.0)
    # 0.01 W is both 10 dBm and 10 dB above the default noise floor, so
    # either reading of a "10 dB" minimum lands on the same default.
    pmin_w: float = 0.01
    model: str = "exp"
    kappa: Optional[float] = None
    hh: float = 1.0
    seed: int = 12345
    p_w: Optional[float] = None  # eval / simulate operating point
    sweep_axis: str = "q"
    sweep_values: Optional[List[float]] = None
    p_points: int = 200
    p_lo_w: Optional[float] = None
    p_hi_w: Optional[float] = None
    sim_f: Optional[float] = None
    total_packets: int = 1000
    num_runs: int = 1000
    warmup_slots: int = 0
    initial_state: int = 0
    packet_counts: Optional[List[int]] = None
    out: Optional[str] = None


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"cannot parse number list {text!r}") from exc


def _parse_int_list(text: str) -> List[int]:
    return [int(round(v)) for v in _parse_float_list(text)]


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise CliError(f"cannot read config file {path!r}")
    return parser


def _config_power(section, key: str) -> Optional[float]:
    """Power from an INI section: '<key>_w' in watts, else '<key>' in dBm."""
    if section.get(f"{key}_w") is not None:
        return float(section[f"{key}_w"])
    if section.get(key) is not None:
        return dbm_to_watts(float(section[key]))
    return None


def _apply_config(settings: Settings, path: str) -> None:
    cfg = _read_config(path)
    try:
        if cfg.has_section("system"):
            sec = cfg["system"]
            if "r" in sec:
                settings.R = sec.getfloat("r")
            if "a" in sec:
                settings.a = sec.getfloat("a")
            if "epsilon" in sec:
                settings.epsilon = sec.getfloat("epsilon")
            sigma2 = _config_power(sec, "sigma2")
            if sigma2 is not None:
                settings.sigma2_w = sigma2
            b = _config_power(sec, "b")
            if b is not None:
                settings.b_w = b
            if "b_over_sigma2" in sec:
                settings.b_over_sigma2 = sec.getfloat("b_over_sigma2")
                if b is None:
                    settings.b_w = None  # the ratio takes effect again
            pmax = _config_power(sec, "pmax")
            if pmax is not None:
                settings.pmax_w = pmax
            pmin = _config_power(sec, "pmin")
            if pmin is not None:
                settings.pmin_w = pmin
        if cfg.has_section("queue"):
            sec = cfg["queue"]
            if "q" in sec:
                settings.q = sec.getfloat("q")
            if "k" in sec:
                settings.K = sec.getint("k")
        if cfg.has_section("model"):
            sec = cfg["model"]
            if "type" in sec:
                settings.model = sec.get("type")
            if "r0" in sec:
                settings.R0 = sec.getfloat("r0")
            if "kappa" in sec:
                settings.kappa = sec.getfloat("kappa")
            if "hh" in sec:
                settings.hh = sec.getfloat("hh")
        if cfg.has_section("sweep"):
            sec = cfg["sweep"]
            if "axis" in sec:
                settings.sweep_axis = sec.get("axis")
            if "values" in sec:
                settings.sweep_values = _parse_float_list(sec.get("values"))
            if "p_points" in sec:
                settings.p_points = sec.getint("p_points")
            p_lo = _config_power(sec, "p_lo")
            if p_lo is not None:
                settings.p_lo_w = p_lo
            p_hi = _config_power(sec, "p_hi")
            if p_hi is not None:
                settings.p_hi_w = p_hi
        if cfg.has_section("sim"):
            sec = cfg["sim"]
            if "f" in sec:
                settings.sim_f = sec.getfloat("f")
            p = _config_power(sec, "p")
            if p is not None:
                settings.p_w = p
            if "total_packets" in sec:
                settings.total_packets = sec.getint("total_packets")
            if "num_runs" in sec:
                settings.num_runs = sec.getint("num_runs")
            if "seed" in sec:
                settings.seed = sec.getint("seed")
            if "warmup_slots" in sec:
                settings.warmup_slots = sec.getint("warmup_slots")
            if "initial_state" in sec:
                settings.initial_state = sec.getint("initial_state")
            if "packet_counts" in sec:
                settings.packet_counts = _parse_int_list(sec.get("packet_counts"))
    except ValueError as exc:
        raise CliError(f"bad value in config file {path!r}: {exc}") from exc


def _flag_power(dbm: Optional[float], watts: Optional[float]) -> Optional[float]:
    if watts is not None:
        return watts
    if dbm is not None:
        return dbm_to_watts(dbm)
    return None


def _apply_flags(settings: Settings, args: argparse.Namespace) -> None:
    simple = {
        "q": "q",
        "K": "K",
        "R": "R",
        "R0": "R0",
        "a": "a",
        "epsilon": "epsilon",
        "model": "model",
        "kappa": "kappa",
        "hh": "hh",
        "seed": "seed",
        "out": "out",
        "axis": "sweep_axis",
        "p_points": "p_points",
        "f": "sim_f",
        "total_packets": "total_packets",
        "num_runs": "num_runs",
        "warmup_slots": "warmup_slots",
        "initial_state": "initial_state",
    }
    for arg_name, field in simple.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(settings, field, value)
    for arg_dbm, arg_w, field in [
        ("sigma2_dbm", "sigma2_w", "sigma2_w"),
        ("pmax_dbm", "pmax_w", "pmax_w"),
        ("pmin_dbm", "pmin_w", "pmin_w"),
        ("p_dbm", "p_w", "p_w"),
        ("p_lo_dbm", "p_lo_w", "p_lo_w"),
        ("p_hi_dbm", "p_hi_w", "p_hi_w"),
    ]:
        value = _flag_power(getattr(args, arg_dbm, None), getattr(args, arg_w, None))
        if value is not None:
            setattr(settings, field, value)
    b = _flag_power(getattr(args, "b_dbm", None), getattr(args, "b_w", None))
    if b is not None:
        settings.b_w = b
    elif getattr(args, "b_over_sigma2", None) is not None:
        settings.b_over_sigma2 = args.b_over_sigma2
        settings.b_w = None
    if getattr(args, "values", None) is not None:
        settings.sweep_values = _parse_float_list(args.values)
    if getattr(args, "packet_counts", None) is not None:
        settings.packet_counts = _parse_int_list(args.packet_counts)


def _resolve(args: argparse.Namespace) -> Settings:
    settings = Settings()
    if getattr(args, "config", None):
        _apply_config(settings, args.config)
    _apply_flags(settings, args)
    if settings.b_w is None:
        settings.b_w = settings.b_over_sigma2 * settings.sigma2_w
    if settings.p_lo_w is None:
        settings.p_lo_w = settings.pmin_w / 100.0
    if settings.p_hi_w is None:
        settings.p_hi_w = settings.pmax_w
    return settings


def _system(settings: Settings) -> SystemParams:
    return SystemParams(
        rate_R=settings.R,
        fixed_power_b=settings.b_w,
        noise_sigma2=settings.sigma2_w,
        p_min=settings.pmin_w,
        p_max=settings.pmax_w,
        amp_coeff_a=settings.a,
        loss_bound_epsilon=settings.epsilon,
    )


def _queue(settings: Settings) -> QueueParams:
    return QueueParams(arrival_prob_q=settings.q, buffer_size_K=settings.K)


def _model(settings: Settings) -> SuccessModel:
    if settings.model == "exp":
        return ExpUnknownChannel(
            rate_R=settings.R, rate_R0=settings.R0, noise_sigma2=settings.sigma2_w
        )
    if settings.model == "qfunc":
        if settings.kappa is None:
            raise CliError("the qfunc model needs an explicit --kappa (no default)")
        return QKnownChannel(
            rate_R=settings.R,
            rate_R0=settings.R0,
            spread_kappa=settings.kappa,
            channel_gain_hh=settings.hh,
            noise_sigma2=settings.sigma2_w,
        )
    raise CliError(f"unknown model {settings.model!r} (choose exp or qfunc)")


def _emit_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    # Cells are plain floats, ints and strings; csv writes a float as its
    # repr, the shortest form that round-trips.
    if path is None:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _log_grid(lo: float, hi: float, n: int) -> List[float]:
    if not 0.0 < lo < hi:
        raise CliError("power grid needs 0 < p_lo < p_hi")
    if n < 2:
        raise CliError("power grid needs at least 2 points")
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + step * i) for i in range(n)]


def _on_axis(settings: Settings, axis: str, value: float) -> Settings:
    """Settings with the q axis, or otherwise the b/sigma2 axis, set to value."""
    if axis == "q":
        return replace(settings, q=value)
    return replace(settings, b_over_sigma2=value, b_w=value * settings.sigma2_w)


def _cmd_eval(args) -> int:
    settings = _resolve(args)
    if settings.p_w is None:
        raise CliError("eval needs a transmit power (--p-dbm or --p-w)")
    point = efficiency(_system(settings), _queue(settings), _model(settings), settings.p_w)
    print(f"p        = {point.power_p:.6g} W ({watts_to_dbm(point.power_p):.2f} dBm)")
    print(f"f        = {point.f:.6g}")
    print(f"phi      = {point.phi:.6g}")
    print(f"eta      = {point.eta:.6g} bit/J")
    print(f"feasible = {'yes' if point.feasible else 'no'}")
    _emit_csv(
        settings.out,
        ["p", "eta", "phi", "f", "feasible"],
        [[point.power_p, point.eta, point.phi, point.f, int(point.feasible)]],
    )
    return 0


def _optimum_row(settings: Settings):
    system = _system(settings)
    result = maximize_constrained(system, _queue(settings), _model(settings))
    p0 = "infeasible" if math.isinf(result.p0) else result.p0
    p_cc = "infeasible" if result.p_star_constrained is None else result.p_star_constrained
    row = [
        settings.q,
        settings.K,
        settings.b_w,
        settings.sigma2_w,
        settings.epsilon,
        result.p_star,
        p0,
        p_cc,
        result.eta_star,
        result.binding.value,
    ]
    return result, row


def _cmd_optimize(args) -> int:
    settings = _resolve(args)
    result, row = _optimum_row(settings)
    _emit_csv(
        settings.out,
        ["q", "K", "b", "sigma2", "epsilon", "p_star", "p0", "p_star_constrained",
         "eta_star", "binding"],
        [row],
    )
    print(f"p*   = {result.p_star:.6g} W ({watts_to_dbm(result.p_star):.2f} dBm)")
    if math.isinf(result.p0):
        print(f"loss bound {settings.epsilon:.6g} unreachable below the "
              f"{settings.pmax_w:.6g} W cap", file=sys.stderr)
        return 2
    print(f"p0   = {result.p0:.6g} W ({watts_to_dbm(result.p0):.2f} dBm)")
    p_cc = result.p_star_constrained
    share = 100.0 * p_cc / settings.pmax_w
    print(f"p**  = {p_cc:.6g} W ({watts_to_dbm(p_cc):.2f} dBm)"
          f" = {share:.3g}% of the power cap"
          f" (assumption: percent figures are relative to p_max = "
          f"{settings.pmax_w:.6g} W)")
    print(f"eta* = {result.eta_star:.6g} bit/J")
    print(f"binding = {result.binding.value}")
    return 0


def _cmd_sweep(args) -> int:
    settings = _resolve(args)
    powers = _log_grid(settings.p_lo_w, settings.p_hi_w, settings.p_points)
    axis = settings.sweep_axis
    if axis == "p":
        powers = settings.sweep_values or powers
        curves = [(None, settings)]  # one curve; each row's axis value is its p
    elif axis in ("q", "b_over_sigma2"):
        if not settings.sweep_values:
            raise CliError(f"sweep over {axis} needs --values")
        curves = [(v, _on_axis(settings, axis, v)) for v in settings.sweep_values]
    else:
        raise CliError(f"unknown sweep axis {axis!r} (choose q, b_over_sigma2, or p)")

    rows = []
    for value, local in curves:
        system, queue, model = _system(local), _queue(local), _model(local)
        for p in powers:
            point = efficiency(system, queue, model, p)
            rows.append([p if value is None else value, p, point.eta, point.phi, point.f,
                         int(point.feasible)])
    _emit_csv(settings.out, ["axis_value", "p", "eta", "phi", "f", "feasible"], rows)
    print(f"swept {axis}: {len(rows)} points"
          + (f" -> {settings.out}" if settings.out else ""))
    return 0


def _cmd_gain(args) -> int:
    settings = _resolve(args)
    axis = settings.sweep_axis
    values = settings.sweep_values
    if values is None:
        if axis != "q":
            raise CliError(f"gain over {axis} needs --values")
        values = [round(0.05 * i, 2) for i in range(1, 21)]
    rows = []
    infeasible = False
    # On the q axis every row shares the full-load reference settings.
    shared_ref = _optimum_row(replace(settings, q=1.0))[0] if axis == "q" else None
    for value in values:
        local = _on_axis(settings, axis, value)
        result, _ = _optimum_row(local)
        ref = shared_ref if axis == "q" else _optimum_row(replace(local, q=1.0))[0]
        if result.p_star_constrained is None or ref.p_star_constrained is None:
            infeasible = True
            rows.append([value, "infeasible", "infeasible", ""])
            continue
        p_ref = ref.p_star_constrained
        p_here = result.p_star_constrained
        rows.append([value, p_ref, p_here, 10.0 * math.log10(p_ref / p_here)])
    _emit_csv(settings.out, ["axis_value", "p_star_q1", "p_star", "gain_db"], rows)
    for row in rows:
        gain = f"{row[3]:.4g} dB" if isinstance(row[3], float) else "infeasible"
        print(f"{axis} = {row[0]:<6g} saving = {gain}")
    if infeasible:
        print("some grid points cannot meet the loss bound", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args) -> int:
    settings = _resolve(args)
    if settings.sim_f is not None:
        f = settings.sim_f
    elif settings.p_w is not None:
        f = _model(settings).success_probability(settings.p_w)
    else:
        raise CliError("simulate needs --f, or a power (--p-dbm/--p-w) to derive it")
    config = SimConfig(
        queue=_queue(settings),
        success_prob_f=f,
        total_packets=settings.total_packets,
        num_runs=settings.num_runs,
        seed=settings.seed,
        initial_queue_state=settings.initial_state,
        warmup_slots=settings.warmup_slots,
    )
    if settings.packet_counts:
        study = convergence_study(config, settings.packet_counts)
        _emit_csv(
            settings.out,
            ["packet_count", "mean_loss", "std_error", "relative_gap"],
            [list(row) for row in study],
        )
        for row in study:
            print(f"packets = {row.packet_count:<8d} mean loss = {row.mean_loss:.6g} "
                  f"gap = {100 * row.relative_gap:+.2f}%")
    else:
        report = simulate(config)
        _emit_csv(
            settings.out,
            ["total_packets", "mean_loss", "std_error", "theoretical_phi",
             "relative_gap"],
            [[settings.total_packets, report.mean_loss_fraction, report.std_error,
              report.theoretical_phi, report.relative_gap]],
        )
        print(f"f (success prob)  = {f:.6g}")
        print(f"mean loss         = {report.mean_loss_fraction:.6g}")
        print(f"std error         = {report.std_error:.3g}")
        print(f"closed-form loss  = {report.theoretical_phi:.6g}")
        print(f"relative gap      = {100 * report.relative_gap:+.3f}%")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("shared settings")
    g.add_argument("--config", help="INI config file")
    g.add_argument("--q", type=float, help="arrival probability per slot")
    g.add_argument("--K", type=int, help="buffer capacity in packets")
    g.add_argument("--R", type=float, help="transmission rate, bit/s")
    g.add_argument("--R0", type=float, help="bandwidth-normalizing rate, bit/s")
    g.add_argument("--a", type=float, help="amplifier power coefficient")
    g.add_argument("--epsilon", type=float, help="loss-fraction bound in (0, 1]")
    g.add_argument("--b-dbm", type=float, help="fixed circuit draw, dBm")
    g.add_argument("--b-w", type=float, help="fixed circuit draw, watts")
    g.add_argument("--b-over-sigma2", type=float,
                   help="fixed draw as a multiple of the noise power")
    g.add_argument("--sigma2-dbm", type=float, help="noise power, dBm")
    g.add_argument("--sigma2-w", type=float, help="noise power, watts")
    g.add_argument("--pmax-dbm", type=float, help="transmit power cap, dBm")
    g.add_argument("--pmax-w", type=float, help="transmit power cap, watts")
    g.add_argument("--pmin-dbm", type=float, help="transmit power floor, dBm")
    g.add_argument("--pmin-w", type=float, help="transmit power floor, watts")
    g.add_argument("--model", choices=["exp", "qfunc"], help="success-probability model")
    g.add_argument("--kappa", type=float, help="qfunc model sharpness")
    g.add_argument("--hh", type=float, help="qfunc model channel gain |h|^2")
    g.add_argument("--seed", type=int, help="base RNG seed")
    g.add_argument("--out", help="write results to this CSV file")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="greenlink",
                     description="energy-efficient power control for a buffered link")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate efficiency at one power")
    _add_common(p_eval)
    p_eval.add_argument("--p-dbm", type=float, help="transmit power, dBm")
    p_eval.add_argument("--p-w", type=float, help="transmit power, watts")
    p_eval.set_defaults(handler=_cmd_eval)

    p_opt = sub.add_parser("optimize", help="constrained efficiency maximization")
    _add_common(p_opt)
    p_opt.set_defaults(handler=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="efficiency curves over a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=["q", "b_over_sigma2", "p"],
                         help="sweep axis (default q)")
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--p-points", type=int, help="points in the power grid")
    p_sweep.add_argument("--p-lo-dbm", type=float, help="power grid start, dBm")
    p_sweep.add_argument("--p-lo-w", type=float, help="power grid start, watts")
    p_sweep.add_argument("--p-hi-dbm", type=float, help="power grid end, dBm")
    p_sweep.add_argument("--p-hi-w", type=float, help="power grid end, watts")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the loss fraction")
    _add_common(p_sim)
    p_sim.add_argument("--f", type=float, help="success probability (overrides model)")
    p_sim.add_argument("--p-dbm", type=float, help="derive f from the model at this power, dBm")
    p_sim.add_argument("--p-w", type=float, help="derive f from the model at this power, watts")
    p_sim.add_argument("--total-packets", type=int, help="arrivals per run")
    p_sim.add_argument("--num-runs", type=int, help="independent runs")
    p_sim.add_argument("--warmup-slots", type=int, help="uncounted slots before measuring")
    p_sim.add_argument("--initial-state", type=int, help="buffered packets at slot 0")
    p_sim.add_argument("--packet-counts",
                       help="comma-separated packet counts for a convergence study")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_gain = sub.add_parser("gain", help="power saving versus the full-load design")
    _add_common(p_gain)
    p_gain.add_argument("--axis", choices=["q", "b_over_sigma2"],
                        help="gain axis (default q)")
    p_gain.add_argument("--values", help="comma-separated axis values")
    p_gain.set_defaults(handler=_cmd_gain)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NoInteriorMaximumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
