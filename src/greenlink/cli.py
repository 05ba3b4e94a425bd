"""Command-line experiment runner.

Five subcommands: eval (one efficiency point), optimize (constrained
power search), sweep (efficiency curves over a parameter grid),
simulate (Monte Carlo queue validation), gain (buffer-aware power
saving versus the full-load design).

Settings come from built-in defaults, then an INI config file, then
flags, in increasing precedence. One table, _FIELDS, gives each
setting's flag, INI key, parser and default; the Settings class is
built from it, and main resolves the settings once for the subcommand.
Powers cross the boundary in dBm (--<name>-w flags and <key>_w config
keys mean watts); everything internal and every CSV value is in watts.
"""

import argparse
import configparser
import functools
import math
import re
import sys
from dataclasses import make_dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .efficiency import SystemParams, _eta, _loss, _success, efficiency, power_gain_db
from .optimize import _constrain, maximize_constrained, qos_threshold
from .queueing import QueueParams
from .simulate import SimConfig, convergence_study, simulate
from .success import ExpUnknownChannel, QKnownChannel, SuccessModel
from .units import dbm_to_watts, watts_to_dbm

__all__ = ["main", "console_main", "CliError"]


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token of "-" and a digit, inf or nan is a value, as in "-1e1",
        # "-1,2" or "-inf"; argparse's own pattern takes only plain negative
        # decimals. The setting's own check then rejects it by name.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse normally exits 2 on usage errors; route them through
    # CliError so bad flags and bad config values share exit code 1.
    def error(self, message):
        raise CliError(message)


def _parse_list(text: str, number: Callable[[float], Any] = float) -> List[Any]:
    """Comma-separated numbers, each read as a float and passed to number."""
    try:
        return [number(float(tok)) for tok in text.split(",") if tok.strip()]
    except (OverflowError, ValueError) as exc:  # round(inf) overflows; round(nan) is invalid
        raise CliError(f"cannot parse number list {text!r}") from exc


class _Field(NamedTuple):
    """One setting: its flag, its Settings field, its INI key, how to read it, its default."""

    flag: str  # --flag, or --flag-dbm and --flag-w for a power; "_" becomes "-"
    field: str  # Settings attribute
    section: Optional[str]  # INI section; None for a flag-only setting
    key: Optional[str]  # INI key; a power also takes key_w in watts
    parse: Callable[[str], Any]
    default: Any  # in watts for a power; None for unset
    power: bool
    commands: Tuple[str, ...]  # the subcommands that take the flag
    help: str
    choices: Optional[Tuple[str, ...]] = None  # checked on the flag only


_ALL = ("eval", "optimize", "sweep", "simulate", "gain")
_FIELDS = [
    _Field("R", "R", "system", "r", float, 4000.0, False, _ALL, "transmission rate, bit/s"),
    _Field("a", "a", "system", "a", float, 1.0, False, _ALL, "amplifier power coefficient"),
    _Field("epsilon", "epsilon", "system", "epsilon", float, 1.0, False, _ALL,
           "loss-fraction bound in (0, 1]"),
    _Field("b", "b_w", "system", "b", float, None, True, _ALL, "fixed circuit draw"),
    _Field("b_over_sigma2", "b_over_sigma2", "system", "b_over_sigma2", float, 100.0, False,
           _ALL, "fixed draw as a multiple of the noise power"),
    _Field("sigma2", "sigma2_w", "system", "sigma2", float, dbm_to_watts(0.0), True, _ALL,
           "noise power"),  # 1 mW noise floor
    _Field("pmax", "pmax_w", "system", "pmax", float, dbm_to_watts(35.0), True, _ALL,
           "transmit power cap"),
    # 0.01 W is both 10 dBm and 10 dB above the default noise floor, so
    # either reading of a "10 dB" minimum lands on the same default.
    _Field("pmin", "pmin_w", "system", "pmin", float, 0.01, True, _ALL, "transmit power floor"),
    _Field("q", "q", "queue", "q", float, 0.5, False, _ALL, "arrival probability per slot"),
    _Field("K", "K", "queue", "k", int, 10, False, _ALL, "buffer capacity in packets"),
    _Field("model", "model", "model", "type", str, "exp", False, _ALL,
           "success-probability model", ("exp", "qfunc")),
    _Field("R0", "R0", "model", "r0", float, 1000.0, False, _ALL,
           "bandwidth-normalizing rate, bit/s"),
    _Field("kappa", "kappa", "model", "kappa", float, None, False, _ALL, "qfunc model sharpness"),
    _Field("hh", "hh", "model", "hh", float, 1.0, False, _ALL, "qfunc model channel gain |h|^2"),
    _Field("axis", "sweep_axis", "sweep", "axis", str, "q", False, ("sweep", "gain"),
           "sweep or gain axis: q (default), b_over_sigma2, or p (sweep only)",
           ("q", "b_over_sigma2", "p")),
    _Field("values", "sweep_values", "sweep", "values", _parse_list, None, False,
           ("sweep", "gain"), "comma-separated axis values"),
    _Field("p_points", "p_points", "sweep", "p_points", int, 200, False, ("sweep",),
           "points in the power grid"),
    _Field("p_lo", "p_lo_w", "sweep", "p_lo", float, None, True, ("sweep",), "power grid start"),
    _Field("p_hi", "p_hi_w", "sweep", "p_hi", float, None, True, ("sweep",), "power grid end"),
    _Field("seed", "seed", "sim", "seed", int, 12345, False, _ALL, "base RNG seed"),
    _Field("f", "sim_f", "sim", "f", float, None, False, ("simulate",),
           "success probability (overrides model)"),
    _Field("p", "p_w", "sim", "p", float, None, True, ("eval", "simulate"),
           "transmit power; simulate derives f from it"),
    _Field("total_packets", "total_packets", "sim", "total_packets", int, 1000, False,
           ("simulate",), "arrivals per run"),
    _Field("num_runs", "num_runs", "sim", "num_runs", int, 1000, False, ("simulate",),
           "independent runs"),
    _Field("warmup_slots", "warmup_slots", "sim", "warmup_slots", int, 0, False, ("simulate",),
           "uncounted slots before measuring"),
    _Field("initial_state", "initial_state", "sim", "initial_state", int, 0, False,
           ("simulate",), "buffered packets at slot 0"),
    _Field("packet_counts", "packet_counts", "sim", "packet_counts",
           functools.partial(_parse_list, number=round), None, False, ("simulate",),
           "comma-separated packet counts for a convergence study"),
    _Field("out", "out", None, None, str, None, False, _ALL, "write results to this CSV file"),
]

Settings = make_dataclass("Settings", [(row.field, Any, row.default) for row in _FIELDS],
                          namespace={"__doc__": "Fully resolved run settings, powers in watts."})


def _apply(settings: Settings, lookup: Callable[[_Field, bool], Any]) -> None:
    """Apply one layer: lookup(row, watts) gives the layer's value for the row
    (for a power, its watts form when watts is true, else its dBm form), or None."""
    given = {}
    for row in _FIELDS:
        # <key>_w in watts wins over <key> in dBm, which is then not read.
        value = lookup(row, True) if row.power else None
        if value is None:
            value = lookup(row, False)
            if row.power and value is not None:
                value = dbm_to_watts(value)
        if value is not None:
            given[row.field] = value
    # An explicit b wins over b_over_sigma2; a ratio given alone makes b follow it again.
    if "b_over_sigma2" in given and "b_w" not in given:
        given["b_w"] = None
    for field, value in given.items():
        setattr(settings, field, value)


def _resolve(args: argparse.Namespace) -> Settings:
    settings = Settings()
    if args.config:
        cfg = configparser.ConfigParser()

        def from_config(row: _Field, watts: bool):
            if row.section is None or not cfg.has_section(row.section):
                return None
            raw = cfg[row.section].get(row.key + ("_w" if watts else ""))
            return None if raw is None else row.parse(raw)

        try:
            if not cfg.read(args.config):
                raise CliError(f"cannot read config file {args.config!r}")
            _apply(settings, from_config)
        except (ValueError, configparser.Error) as exc:
            raise CliError(f"bad config file {args.config!r}: {exc}") from exc
    _apply(settings, lambda row, watts: getattr(
        args, row.flag + ("_w" if watts else "_dbm" if row.power else ""), None))
    if settings.b_w is None:  # resolved from b_over_sigma2 when unset
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


def _csv_line(cells: Sequence[Any]) -> str:
    """One CSV record: each cell's str, joined by "," and ended by "\r\n".

    Cells are plain floats, ints and strings that hold no comma, quote or
    line break; for those this is what csv.writer writes, a float as its
    repr, the shortest form that round-trips.
    """
    return ",".join(map(str, cells)) + "\r\n"


def _emit_csv(path: Optional[str], header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header and then lines, each already a _csv_line record."""
    if path is None:
        return
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)


def _log_grid(lo: float, hi: float, n: int) -> List[float]:
    for name, end in (("p_lo", lo), ("p_hi", hi)):
        if end == math.inf:
            raise CliError(f"power grid end {name} must be finite, got {end!r}")
    if not 0.0 < lo < hi:
        raise CliError("power grid needs 0 < p_lo < p_hi")
    if n < 2:
        raise CliError("power grid needs at least 2 points")
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + step * i) for i in range(n)]


def _axis_values(settings: Settings, command: str, defaults: Dict[str, Optional[List[float]]],
                 choices: str) -> List[float]:
    """The values to run along settings.sweep_axis, which must be a key of defaults:
    the given list, or when none is given the axis's default (None: no default)."""
    axis = settings.sweep_axis
    if axis not in defaults:
        raise CliError(f"unknown {command} axis {axis!r} (choose {choices})")
    values = defaults[axis] if settings.sweep_values is None else settings.sweep_values
    if not values:  # unset with no default, or an empty list from either layer
        raise CliError(f"{command} over {axis} needs --values")
    return values


def _cmd_eval(settings: Settings) -> int:
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
        [_csv_line([point.power_p, point.eta, point.phi, point.f, int(point.feasible)])],
    )
    return 0


def _cmd_optimize(settings: Settings) -> int:
    result = maximize_constrained(_system(settings), _queue(settings), _model(settings))
    row = [
        settings.q,
        settings.K,
        settings.b_w,
        settings.sigma2_w,
        settings.epsilon,
        result.p_star,
        "infeasible" if math.isinf(result.p0) else result.p0,
        "infeasible" if result.p_star_constrained is None else result.p_star_constrained,
        result.eta_star,
        result.binding.value,
    ]
    _emit_csv(
        settings.out,
        ["q", "K", "b", "sigma2", "epsilon", "p_star", "p0", "p_star_constrained",
         "eta_star", "binding"],
        [_csv_line(row)],
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


def _cmd_sweep(settings: Settings) -> int:
    # The link settings are checked before the power grid, so a bad --pmin or
    # --pmax is named as itself, not as the grid end it sets. A b-axis curve
    # replaces b and checks its own, so the base b is not checked there.
    axis = settings.sweep_axis
    system = _system(replace(settings, b_w=0.0) if axis == "b_over_sigma2" else settings)
    powers = _log_grid(settings.p_lo_w, settings.p_hi_w, settings.p_points)
    values = _axis_values(settings, "sweep", {"q": None, "b_over_sigma2": None, "p": powers},
                          "q, b_over_sigma2, or p")
    if axis == "p":
        powers, values = values, [None]  # one curve; each row's axis value is its p

    def link(value):  # a curve's system, then its queue, each checked as it is built
        if axis == "b_over_sigma2":
            return replace(system, fixed_power_b=value * settings.sigma2_w), _queue(settings)
        return system, QueueParams(value, settings.K) if axis == "q" else _queue(settings)

    # f depends on the power alone, phi and feasibility also on the queue, eta
    # on the whole link: each, with its repr, is computed once at its level.
    link(values[0])  # the first curve's link is checked before the model, the model before f
    model = _model(settings)
    fs = [_success(model, p) for p in powers]
    at_power = list(zip(powers, fs, map(repr, powers), map(repr, fs)))
    by_queue = {}  # queue -> per power (p, f, phi, p cell, the row's cells after eta)
    lines = []
    for value in values:
        local, queue = link(value)
        known = by_queue.get(queue)
        if known is None:
            known = by_queue[queue] = []
            for p, f, p_cell, f_cell in at_power:
                phi, feasible = _loss(local, queue, p, f)
                known.append((p, f, phi, p_cell, f"{phi!r},{f_cell},{feasible:d}\r\n"))
        cell = None if value is None else repr(value)
        lines += [f"{cell or p_cell},{p_cell},{_eta(local, queue, p, f, phi)!r},{tail}"
                  for p, f, phi, p_cell, tail in known]
    _emit_csv(settings.out, ["axis_value", "p", "eta", "phi", "f", "feasible"], lines)
    print(f"swept {axis}: {len(lines)} points"
          + (f" -> {settings.out}" if settings.out else ""))
    return 0


def _cmd_gain(settings: Settings) -> int:
    axis = settings.sweep_axis
    values = _axis_values(
        settings, "gain",
        {"q": [round(0.05 * i, 2) for i in range(1, 21)], "b_over_sigma2": None},
        "q or b_over_sigma2")
    # The link is built once: a q-axis row changes only the queue, a b-axis row only
    # the fixed draw b, on which p0 does not depend, so both p0 are found once.
    if axis == "q":
        system, ref_queue, model = _system(settings), QueueParams(1.0, settings.K), _model(settings)
        ref = maximize_constrained(system, ref_queue, model)  # shared by every row
    else:  # checked as the first row's link: each row replaces the base b
        system = _system(replace(settings, b_w=values[0] * settings.sigma2_w))
        queue, ref_queue, model = _queue(settings), QueueParams(1.0, settings.K), _model(settings)
        p0_here = qos_threshold(system, queue, model)
        p0_ref = qos_threshold(system, ref_queue, model)
    rows = []
    for value in values:
        if axis == "q":  # a full-load row is its own reference
            here = ref if value == 1.0 else maximize_constrained(
                system, QueueParams(value, settings.K), model)
        else:
            local = replace(system, fixed_power_b=value * settings.sigma2_w)
            here = _constrain(local, queue, model, p0_here)
            ref = _constrain(local, ref_queue, model, p0_ref)
        p_here, p_ref = here.p_star_constrained, ref.p_star_constrained
        if p_here is None or p_ref is None:
            rows.append([value, "infeasible", "infeasible", ""])
        else:
            rows.append([value, p_ref, p_here, power_gain_db(p_ref, p_here)])
    _emit_csv(settings.out, ["axis_value", "p_star_q1", "p_star", "gain_db"],
              map(_csv_line, rows))
    for row in rows:
        gain = f"{row[3]:.4g} dB" if isinstance(row[3], float) else "infeasible"
        print(f"{axis} = {row[0]:<6g} saving = {gain}")
    if any(row[3] == "" for row in rows):
        print("some grid points cannot meet the loss bound", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(settings: Settings) -> int:
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
            map(_csv_line, study),
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
            [_csv_line([settings.total_packets, report.mean_loss_fraction, report.std_error,
                        report.theoretical_phi, report.relative_gap])],
        )
        print(f"f (success prob)  = {f:.6g}")
        print(f"mean loss         = {report.mean_loss_fraction:.6g}")
        print(f"std error         = {report.std_error:.3g}")
        print(f"closed-form loss  = {report.theoretical_phi:.6g}")
        print(f"relative gap      = {100 * report.relative_gap:+.3f}%")
        print(f"slots simulated   = {report.slots}")  # warm-up included
    return 0


_COMMANDS = {
    "eval": (_cmd_eval, "evaluate efficiency at one power"),
    "optimize": (_cmd_optimize, "constrained efficiency maximization"),
    "sweep": (_cmd_sweep, "efficiency curves over a parameter grid"),
    "simulate": (_cmd_simulate, "Monte Carlo check of the loss fraction"),
    "gain": (_cmd_gain, "power saving versus the full-load design"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="greenlink",
                     description="energy-efficient power control for a buffered link")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="INI config file")
        for row in _FIELDS:
            if command not in row.commands:
                continue
            option = "--" + row.flag.replace("_", "-")
            if row.power:
                p.add_argument(option + "-dbm", type=float, help=f"{row.help}, dBm")
                p.add_argument(option + "-w", type=float, help=f"{row.help}, watts")
            else:
                p.add_argument(option, type=row.parse, choices=row.choices, help=row.help)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(_resolve(args))
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
