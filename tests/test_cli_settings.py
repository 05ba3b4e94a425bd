"""Pins of the CLI's settings resolution and of its flag surface, and
checks that the README's INI schema and example match the settings table.

Each case is one subcommand with an optional INI file and a list of
flags. It records the resolved Settings as the fields that differ from
the defaults, or "exit 1" when the flags or the file are rejected. The
matrix covers every INI key in every section, both forms of every power
(dBm and _w watts, alone and together), b against b_over_sigma2 within
and across the INI and flag layers, a flag beating the INI value for
every setting, and malformed int, float and list values. Re-pin only for
a deliberate change of resolution, by running this file as a script:

    PYTHONPATH=src python3 tests/test_cli_settings.py
"""

import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from greenlink import cli

ALL = ("eval", "optimize", "sweep", "simulate", "gain")

# (section, key, flag, subcommands that take the flag, INI value, flag value, bad value)
PLAIN = [
    ("system", "r", "--R", ALL, "2000", "3000", "fast"),
    ("system", "a", "--a", ALL, "2", "3", "x"),
    ("system", "epsilon", "--epsilon", ALL, "0.5", "0.25", "x"),
    ("system", "b_over_sigma2", "--b-over-sigma2", ALL, "50", "20", "x"),
    ("queue", "q", "--q", ALL, "0.3", "0.7", "banana"),
    ("queue", "k", "--K", ALL, "8", "12", "1.5"),
    ("model", "type", "--model", ALL, "qfunc", "exp", None),
    ("model", "r0", "--R0", ALL, "500", "2000", "x"),
    ("model", "kappa", "--kappa", ALL, "2", "10", "x"),
    ("model", "hh", "--hh", ALL, "0.5", "2", "x"),
    ("sweep", "axis", "--axis", ("sweep", "gain"), "b_over_sigma2", "q", None),
    ("sweep", "values", "--values", ("sweep", "gain"), "0.1,0.2", "0.3,0.4,1", "0.1,x"),
    ("sweep", "p_points", "--p-points", ("sweep",), "50", "20", "2.5"),
    ("sim", "f", "--f", ("simulate",), "0.5", "0.25", "x"),
    ("sim", "total_packets", "--total-packets", ("simulate",), "500", "300", "5e2"),
    ("sim", "num_runs", "--num-runs", ("simulate",), "20", "30", "x"),
    ("sim", "seed", "--seed", ALL, "7", "9", "1.0"),
    ("sim", "warmup_slots", "--warmup-slots", ("simulate",), "100", "50", "x"),
    ("sim", "initial_state", "--initial-state", ("simulate",), "3", "2", "x"),
    ("sim", "packet_counts", "--packet-counts", ("simulate",), "100,200", "300,400.6", "100,x"),
]

# (section, key, flag stem, subcommands, a dBm value, a watts value); the INI
# keys are key and key_w, the flags stem-dbm and stem-w.
POWERS = [
    ("system", "sigma2", "--sigma2", ALL, "3", "0.002"),
    ("system", "b", "--b", ALL, "17", "0.2"),
    ("system", "pmax", "--pmax", ALL, "30", "2"),
    ("system", "pmin", "--pmin", ALL, "5", "0.005"),
    ("sweep", "p_lo", "--p-lo", ("sweep",), "-13", "0.0002"),
    ("sweep", "p_hi", "--p-hi", ("sweep",), "25", "0.5"),
    ("sim", "p", "--p", ("eval", "simulate"), "12", "0.05"),
]

# The fixed draw alone, as a ratio alone, and both, in each layer.
B_INI = [
    (),
    (("system", "b", "17"),),
    (("system", "b_w", "0.2"),),
    (("system", "b_over_sigma2", "50"),),
    (("system", "b", "17"), ("system", "b_over_sigma2", "50")),
    (("system", "b_w", "0.2"), ("system", "b_over_sigma2", "50")),
    (("system", "b_over_sigma2", "50"), ("system", "sigma2_w", "0.002")),
]
B_FLAGS = [
    (),
    ("--b-dbm", "23"),
    ("--b-w", "0.3"),
    ("--b-over-sigma2", "20"),
    ("--b-w", "0.3", "--b-over-sigma2", "20"),
    ("--b-dbm", "23", "--b-over-sigma2", "20"),
]


def cases():
    """Yield (subcommand, INI entries or None, flags); an INI entry is (section, key, value)."""
    for cmd in ALL:
        yield cmd, None, ()
        yield cmd, (), ()
        yield cmd, None, ("--out", "x.csv")
        for section, key, flag, cmds, ini, value, bad in PLAIN:
            yield cmd, ((section, key, ini),), ()
            if bad is not None:
                yield cmd, ((section, key, bad),), ()
            if cmd in cmds:
                yield cmd, None, (flag, value)
                yield cmd, ((section, key, ini),), (flag, value)
        for section, key, stem, cmds, dbm, watts in POWERS:
            yield cmd, ((section, key, dbm),), ()
            yield cmd, ((section, f"{key}_w", watts),), ()
            yield cmd, ((section, key, dbm), (section, f"{key}_w", watts)), ()
            yield cmd, ((section, key, "x"), (section, f"{key}_w", watts)), ()
            yield cmd, ((section, key, dbm), (section, f"{key}_w", "x")), ()
            if cmd in cmds:
                yield cmd, None, (f"{stem}-dbm", dbm)
                yield cmd, None, (f"{stem}-w", watts)
                yield cmd, None, (f"{stem}-dbm", dbm, f"{stem}-w", watts)
                yield cmd, None, (f"{stem}-dbm", "x")
                yield cmd, None, (f"{stem}-w", "x")
                # a flag beats the INI value whichever unit either one uses
                for ini_key, ini_value in [(key, "7"), (f"{key}_w", "0.7")]:
                    for flag_form in [(f"{stem}-dbm", dbm), (f"{stem}-w", watts)]:
                        yield cmd, ((section, ini_key, ini_value),), flag_form
    for cmd in ("optimize", "sweep"):
        for ini in B_INI:
            for flags in B_FLAGS:
                yield cmd, ini, flags
    for section, key, flag, cmds, ini, value, bad in PLAIN:
        if bad is not None:
            yield cmds[0], None, (flag, bad)
    yield "eval", None, ("--model", "foo")
    yield "sweep", None, ("--axis", "nonsense")
    yield "gain", None, ("--axis", "p")
    yield "gain", (("sweep", "axis", "p"),), ()
    yield "sweep", (("sweep", "values", ""),), ()
    yield "gain", None, ("--values", "")
    yield "optimize", (("queue", "K", "7"),), ()
    yield "optimize", (("Queue", "q", "0.2"),), ()
    yield "optimize", (("queue", "frequency", "2.4"), ("radio", "q", "0.2")), ()
    yield "optimize", (("DEFAULT", "q", "0.2"),), ()
    yield "optimize", (("DEFAULT", "epsilon", "0.1"), ("system", "a", "2")), ()
    yield "optimize", (("DEFAULT", "q", "0.2"), ("queue", "k", "4")), ()


def case_id(cmd, ini, flags) -> str:
    text = "none" if ini is None else ", ".join(f"{s}.{k}={v}" for s, k, v in ini) or "empty"
    return f"{cmd} | ini: {text} | flags: {' '.join(flags)}"


def resolve(cmd, ini, flags, path: Path):
    """The fields that differ from the defaults, or 'exit 1'; the INI file goes to path."""
    argv = [cmd, *flags]
    if ini is not None:
        sections = {}
        for section, key, value in ini:
            sections.setdefault(section, []).append(f"{key} = {value}")
        path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                                for s, lines in sections.items()))
        argv += ["--config", str(path)]
    try:
        settings = asdict(cli._resolve(cli._build_parser().parse_args(argv)))
    except cli.CliError:
        return "exit 1"
    defaults = asdict(cli._resolve(cli._build_parser().parse_args([cmd])))
    return {name: value for name, value in settings.items() if value != defaults[name]}


def resolve_all(tmp: Path):
    return {case_id(*case): resolve(*case, tmp / f"case{i}.ini")
            for i, case in enumerate(cases())}


def test_resolution_matches_pins(tmp_path):
    resolved = resolve_all(tmp_path)
    wrong = {name: got for name, got in resolved.items() if PINS.get(name) != got}
    assert not wrong, "\n".join(f"{name}: pinned {PINS.get(name)!r}, got {got!r}"
                                for name, got in wrong.items())
    assert set(resolved) == set(PINS)


SHARED_OPTIONS = [
    "-h", "--help", "--config", "--q", "--K", "--R", "--R0", "--a", "--epsilon",
    "--b-dbm", "--b-w", "--b-over-sigma2", "--sigma2-dbm", "--sigma2-w",
    "--pmax-dbm", "--pmax-w", "--pmin-dbm", "--pmin-w", "--model", "--kappa", "--hh",
    "--seed", "--out",
]
OWN_OPTIONS = {
    "eval": ["--p-dbm", "--p-w"],
    "optimize": [],
    "sweep": ["--axis", "--values", "--p-points", "--p-lo-dbm", "--p-lo-w",
              "--p-hi-dbm", "--p-hi-w"],
    "simulate": ["--f", "--p-dbm", "--p-w", "--total-packets", "--num-runs",
                 "--warmup-slots", "--initial-state", "--packet-counts"],
    "gain": ["--axis", "--values"],
}


@pytest.mark.parametrize("cmd", ALL)
def test_option_strings(cmd):
    parser = cli._build_parser()._subparsers._group_actions[0].choices[cmd]
    assert sorted(parser._option_string_actions) == sorted(SHARED_OPTIONS + OWN_OPTIONS[cmd])


@pytest.mark.parametrize("cmd", ALL)
def test_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_power_flag_only_where_taken():
    assert cli.main(["optimize", "--p-w", "1"]) == 1


@pytest.mark.parametrize("axis", ["p", "nonsense"])
@pytest.mark.parametrize("from_config", [False, True])
def test_gain_rejects_axis(tmp_path, capsys, axis, from_config):
    out = tmp_path / "gain.csv"
    if from_config:
        cfg = tmp_path / "gain.ini"
        cfg.write_text(f"[sweep]\naxis = {axis}\nvalues = 1,100\n")
        argv = ["gain", "--config", str(cfg)]
    else:
        argv = ["gain", "--axis", axis, "--values", "1,100"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "axis" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["q", "b_over_sigma2"])
@pytest.mark.parametrize("from_config", [False, True])
def test_gain_rejects_empty_values(tmp_path, capsys, axis, from_config):
    out = tmp_path / "gain.csv"
    if from_config:
        cfg = tmp_path / "gain.ini"
        cfg.write_text(f"[sweep]\naxis = {axis}\nvalues =\n")
        argv = ["gain", "--config", str(cfg)]
    else:
        argv = ["gain", "--axis", axis, "--values", ""]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "needs --values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["q", "b_over_sigma2", "p"])
@pytest.mark.parametrize("from_config", [False, True])
def test_sweep_rejects_empty_values(tmp_path, capsys, axis, from_config):
    # On the p axis an empty list is not the default power grid.
    out = tmp_path / "sweep.csv"
    if from_config:
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[sweep]\naxis = {axis}\nvalues =\n")
        argv = ["sweep", "--config", str(cfg)]
    else:
        argv = ["sweep", "--axis", axis, "--values", ""]
    assert cli.main(argv + ["--p-points", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: sweep over {axis} needs --values\n"
    assert not out.exists()


def test_negative_list_value_reaches_validation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--axis", "b_over_sigma2", "--values", "-1,2",
                     "--p-points", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: fixed power draw cannot be negative\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan", "100,inf"])
@pytest.mark.parametrize("from_config", [False, True])
def test_packet_counts_with_no_integer_value(tmp_path, capsys, value, from_config):
    # a count that parses as a float but rounds to no int names the list
    if from_config:
        cfg = tmp_path / "sim.ini"
        cfg.write_text(f"[sim]\npacket_counts = {value}\n")
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["simulate", "--packet-counts", value]
    assert cli.main(argv + ["--f", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: cannot parse number list {value!r}\n"


@pytest.mark.parametrize("command", ["sweep", "gain"])
@pytest.mark.parametrize("axis, bad_base", [("q", ["--q", "5"]),
                                            ("b_over_sigma2", ["--b-w", "-1"])])
def test_axis_ignores_the_base_value_it_replaces(tmp_path, command, axis, bad_base):
    # Every row replaces the base q or b on its axis, so a base no row reads
    # is not checked; the CSV is the one a valid base gives.
    argv = [command, "--axis", axis, "--values", "0.25,0.5"]
    argv += ["--p-points", "5"] if command == "sweep" else []
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    assert cli.main(argv + ["--out", str(good)]) == 0
    assert cli.main(argv + bad_base + ["--out", str(bad)]) == 0
    assert bad.read_bytes() == good.read_bytes()


def test_negative_exponent_value(tmp_path):
    out = tmp_path / "eval.csv"
    assert cli.main(["eval", "--p-dbm", "-1e1", "--out", str(out)]) == 0
    p = float(out.read_text().splitlines()[1].split(",")[0])
    assert p == pytest.approx(1e-4, rel=1e-12)


@pytest.mark.parametrize("text", [
    "q = 0.5\n",  # no section header
    "[queue]\nq = 1\nq = 2\n",  # duplicate key
    "[queue]\nq = 5%\n",  # bad interpolation
])
def test_malformed_config_file(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert cli.main(["optimize", "--config", str(cfg)]) == 1
    assert "config file" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def schema_rows():
    """The README's INI schema rows, one per cli._FIELDS row with an INI key."""
    def cell(names):
        return ", ".join(f"`{name}`" for name in names)

    for row in cli._FIELDS:
        if row.section is None:
            continue
        option = "--" + row.flag.replace("_", "-")
        keys = [row.key, row.key + "_w"] if row.power else [row.key]
        flags = [option + "-dbm", option + "-w"] if row.power else [option]
        text = row.help.replace("|", "\\|")
        yield f"| `[{row.section}]` | {cell(keys)} | {cell(flags)} | {text} |"


def test_readme_ini_schema_matches_table():
    table = "\n".join(schema_rows())
    assert table in README.read_text(), "README's INI schema should read:\n" + table


def test_readme_ini_example_runs(tmp_path):
    cfg = tmp_path / "readme.ini"
    cfg.write_text(README.read_text().split("```ini\n")[1].split("```")[0])
    out = tmp_path / "opt.csv"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert (row[0], row[1], row[4]) == ("0.8", "10", "0.01")  # q, K, epsilon


# case id -> the fields that differ from the defaults, or 'exit 1'
PINS = {
    'eval | ini: none | flags: ': {},
    'eval | ini: empty | flags: ': {},
    'eval | ini: none | flags: --out x.csv': {'out': 'x.csv'},
    'eval | ini: system.r=2000 | flags: ': {'R': 2000.0},
    'eval | ini: system.r=fast | flags: ': 'exit 1',
    'eval | ini: none | flags: --R 3000': {'R': 3000.0},
    'eval | ini: system.r=2000 | flags: --R 3000': {'R': 3000.0},
    'eval | ini: system.a=2 | flags: ': {'a': 2.0},
    'eval | ini: system.a=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --a 3': {'a': 3.0},
    'eval | ini: system.a=2 | flags: --a 3': {'a': 3.0},
    'eval | ini: system.epsilon=0.5 | flags: ': {'epsilon': 0.5},
    'eval | ini: system.epsilon=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --epsilon 0.25': {'epsilon': 0.25},
    'eval | ini: system.epsilon=0.5 | flags: --epsilon 0.25': {'epsilon': 0.25},
    'eval | ini: system.b_over_sigma2=50 | flags: ': {'b_w': 0.05, 'b_over_sigma2': 50.0},
    'eval | ini: system.b_over_sigma2=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'eval | ini: system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'eval | ini: queue.q=0.3 | flags: ': {'q': 0.3},
    'eval | ini: queue.q=banana | flags: ': 'exit 1',
    'eval | ini: none | flags: --q 0.7': {'q': 0.7},
    'eval | ini: queue.q=0.3 | flags: --q 0.7': {'q': 0.7},
    'eval | ini: queue.k=8 | flags: ': {'K': 8},
    'eval | ini: queue.k=1.5 | flags: ': 'exit 1',
    'eval | ini: none | flags: --K 12': {'K': 12},
    'eval | ini: queue.k=8 | flags: --K 12': {'K': 12},
    'eval | ini: model.type=qfunc | flags: ': {'model': 'qfunc'},
    'eval | ini: none | flags: --model exp': {},
    'eval | ini: model.type=qfunc | flags: --model exp': {},
    'eval | ini: model.r0=500 | flags: ': {'R0': 500.0},
    'eval | ini: model.r0=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --R0 2000': {'R0': 2000.0},
    'eval | ini: model.r0=500 | flags: --R0 2000': {'R0': 2000.0},
    'eval | ini: model.kappa=2 | flags: ': {'kappa': 2.0},
    'eval | ini: model.kappa=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --kappa 10': {'kappa': 10.0},
    'eval | ini: model.kappa=2 | flags: --kappa 10': {'kappa': 10.0},
    'eval | ini: model.hh=0.5 | flags: ': {'hh': 0.5},
    'eval | ini: model.hh=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --hh 2': {'hh': 2.0},
    'eval | ini: model.hh=0.5 | flags: --hh 2': {'hh': 2.0},
    'eval | ini: sweep.axis=b_over_sigma2 | flags: ': {'sweep_axis': 'b_over_sigma2'},
    'eval | ini: sweep.values=0.1,0.2 | flags: ': {'sweep_values': [0.1, 0.2]},
    'eval | ini: sweep.values=0.1,x | flags: ': 'exit 1',
    'eval | ini: sweep.p_points=50 | flags: ': {'p_points': 50},
    'eval | ini: sweep.p_points=2.5 | flags: ': 'exit 1',
    'eval | ini: sim.f=0.5 | flags: ': {'sim_f': 0.5},
    'eval | ini: sim.f=x | flags: ': 'exit 1',
    'eval | ini: sim.total_packets=500 | flags: ': {'total_packets': 500},
    'eval | ini: sim.total_packets=5e2 | flags: ': 'exit 1',
    'eval | ini: sim.num_runs=20 | flags: ': {'num_runs': 20},
    'eval | ini: sim.num_runs=x | flags: ': 'exit 1',
    'eval | ini: sim.seed=7 | flags: ': {'seed': 7},
    'eval | ini: sim.seed=1.0 | flags: ': 'exit 1',
    'eval | ini: none | flags: --seed 9': {'seed': 9},
    'eval | ini: sim.seed=7 | flags: --seed 9': {'seed': 9},
    'eval | ini: sim.warmup_slots=100 | flags: ': {'warmup_slots': 100},
    'eval | ini: sim.warmup_slots=x | flags: ': 'exit 1',
    'eval | ini: sim.initial_state=3 | flags: ': {'initial_state': 3},
    'eval | ini: sim.initial_state=x | flags: ': 'exit 1',
    'eval | ini: sim.packet_counts=100,200 | flags: ': {'packet_counts': [100, 200]},
    'eval | ini: sim.packet_counts=100,x | flags: ': 'exit 1',
    'eval | ini: system.sigma2=3 | flags: ': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'eval | ini: system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: system.sigma2=3, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: system.sigma2=x, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: system.sigma2=3, system.sigma2_w=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'eval | ini: none | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: none | flags: --sigma2-dbm 3 --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: none | flags: --sigma2-dbm x': 'exit 1',
    'eval | ini: none | flags: --sigma2-w x': 'exit 1',
    'eval | ini: system.sigma2=7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'eval | ini: system.sigma2=7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: system.sigma2_w=0.7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'eval | ini: system.sigma2_w=0.7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'eval | ini: system.b=17 | flags: ': {'b_w': 0.05011872336272722},
    'eval | ini: system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'eval | ini: system.b=17, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'eval | ini: system.b=x, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'eval | ini: system.b=17, system.b_w=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'eval | ini: none | flags: --b-w 0.2': {'b_w': 0.2},
    'eval | ini: none | flags: --b-dbm 17 --b-w 0.2': {'b_w': 0.2},
    'eval | ini: none | flags: --b-dbm x': 'exit 1',
    'eval | ini: none | flags: --b-w x': 'exit 1',
    'eval | ini: system.b=7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'eval | ini: system.b=7 | flags: --b-w 0.2': {'b_w': 0.2},
    'eval | ini: system.b_w=0.7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'eval | ini: system.b_w=0.7 | flags: --b-w 0.2': {'b_w': 0.2},
    'eval | ini: system.pmax=30 | flags: ': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'eval | ini: system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: system.pmax=30, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: system.pmax=x, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: system.pmax=30, system.pmax_w=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'eval | ini: none | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: none | flags: --pmax-dbm 30 --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: none | flags: --pmax-dbm x': 'exit 1',
    'eval | ini: none | flags: --pmax-w x': 'exit 1',
    'eval | ini: system.pmax=7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'eval | ini: system.pmax=7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: system.pmax_w=0.7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'eval | ini: system.pmax_w=0.7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'eval | ini: system.pmin=5 | flags: ': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'eval | ini: system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: system.pmin=5, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: system.pmin=x, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: system.pmin=5, system.pmin_w=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'eval | ini: none | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: none | flags: --pmin-dbm 5 --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: none | flags: --pmin-dbm x': 'exit 1',
    'eval | ini: none | flags: --pmin-w x': 'exit 1',
    'eval | ini: system.pmin=7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'eval | ini: system.pmin=7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: system.pmin_w=0.7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'eval | ini: system.pmin_w=0.7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'eval | ini: sweep.p_lo=-13 | flags: ': {'p_lo_w': 5.011872336272725e-05},
    'eval | ini: sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'eval | ini: sweep.p_lo=-13, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'eval | ini: sweep.p_lo=x, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'eval | ini: sweep.p_lo=-13, sweep.p_lo_w=x | flags: ': 'exit 1',
    'eval | ini: sweep.p_hi=25 | flags: ': {'p_hi_w': 0.31622776601683794},
    'eval | ini: sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'eval | ini: sweep.p_hi=25, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'eval | ini: sweep.p_hi=x, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'eval | ini: sweep.p_hi=25, sweep.p_hi_w=x | flags: ': 'exit 1',
    'eval | ini: sim.p=12 | flags: ': {'p_w': 0.015848931924611134},
    'eval | ini: sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'eval | ini: sim.p=12, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'eval | ini: sim.p=x, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'eval | ini: sim.p=12, sim.p_w=x | flags: ': 'exit 1',
    'eval | ini: none | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'eval | ini: none | flags: --p-w 0.05': {'p_w': 0.05},
    'eval | ini: none | flags: --p-dbm 12 --p-w 0.05': {'p_w': 0.05},
    'eval | ini: none | flags: --p-dbm x': 'exit 1',
    'eval | ini: none | flags: --p-w x': 'exit 1',
    'eval | ini: sim.p=7 | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'eval | ini: sim.p=7 | flags: --p-w 0.05': {'p_w': 0.05},
    'eval | ini: sim.p_w=0.7 | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'eval | ini: sim.p_w=0.7 | flags: --p-w 0.05': {'p_w': 0.05},
    'optimize | ini: none | flags: ': {},
    'optimize | ini: empty | flags: ': {},
    'optimize | ini: none | flags: --out x.csv': {'out': 'x.csv'},
    'optimize | ini: system.r=2000 | flags: ': {'R': 2000.0},
    'optimize | ini: system.r=fast | flags: ': 'exit 1',
    'optimize | ini: none | flags: --R 3000': {'R': 3000.0},
    'optimize | ini: system.r=2000 | flags: --R 3000': {'R': 3000.0},
    'optimize | ini: system.a=2 | flags: ': {'a': 2.0},
    'optimize | ini: system.a=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --a 3': {'a': 3.0},
    'optimize | ini: system.a=2 | flags: --a 3': {'a': 3.0},
    'optimize | ini: system.epsilon=0.5 | flags: ': {'epsilon': 0.5},
    'optimize | ini: system.epsilon=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --epsilon 0.25': {'epsilon': 0.25},
    'optimize | ini: system.epsilon=0.5 | flags: --epsilon 0.25': {'epsilon': 0.25},
    'optimize | ini: system.b_over_sigma2=50 | flags: ': {'b_w': 0.05, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: queue.q=0.3 | flags: ': {'q': 0.3},
    'optimize | ini: queue.q=banana | flags: ': 'exit 1',
    'optimize | ini: none | flags: --q 0.7': {'q': 0.7},
    'optimize | ini: queue.q=0.3 | flags: --q 0.7': {'q': 0.7},
    'optimize | ini: queue.k=8 | flags: ': {'K': 8},
    'optimize | ini: queue.k=1.5 | flags: ': 'exit 1',
    'optimize | ini: none | flags: --K 12': {'K': 12},
    'optimize | ini: queue.k=8 | flags: --K 12': {'K': 12},
    'optimize | ini: model.type=qfunc | flags: ': {'model': 'qfunc'},
    'optimize | ini: none | flags: --model exp': {},
    'optimize | ini: model.type=qfunc | flags: --model exp': {},
    'optimize | ini: model.r0=500 | flags: ': {'R0': 500.0},
    'optimize | ini: model.r0=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --R0 2000': {'R0': 2000.0},
    'optimize | ini: model.r0=500 | flags: --R0 2000': {'R0': 2000.0},
    'optimize | ini: model.kappa=2 | flags: ': {'kappa': 2.0},
    'optimize | ini: model.kappa=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --kappa 10': {'kappa': 10.0},
    'optimize | ini: model.kappa=2 | flags: --kappa 10': {'kappa': 10.0},
    'optimize | ini: model.hh=0.5 | flags: ': {'hh': 0.5},
    'optimize | ini: model.hh=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --hh 2': {'hh': 2.0},
    'optimize | ini: model.hh=0.5 | flags: --hh 2': {'hh': 2.0},
    'optimize | ini: sweep.axis=b_over_sigma2 | flags: ': {'sweep_axis': 'b_over_sigma2'},
    'optimize | ini: sweep.values=0.1,0.2 | flags: ': {'sweep_values': [0.1, 0.2]},
    'optimize | ini: sweep.values=0.1,x | flags: ': 'exit 1',
    'optimize | ini: sweep.p_points=50 | flags: ': {'p_points': 50},
    'optimize | ini: sweep.p_points=2.5 | flags: ': 'exit 1',
    'optimize | ini: sim.f=0.5 | flags: ': {'sim_f': 0.5},
    'optimize | ini: sim.f=x | flags: ': 'exit 1',
    'optimize | ini: sim.total_packets=500 | flags: ': {'total_packets': 500},
    'optimize | ini: sim.total_packets=5e2 | flags: ': 'exit 1',
    'optimize | ini: sim.num_runs=20 | flags: ': {'num_runs': 20},
    'optimize | ini: sim.num_runs=x | flags: ': 'exit 1',
    'optimize | ini: sim.seed=7 | flags: ': {'seed': 7},
    'optimize | ini: sim.seed=1.0 | flags: ': 'exit 1',
    'optimize | ini: none | flags: --seed 9': {'seed': 9},
    'optimize | ini: sim.seed=7 | flags: --seed 9': {'seed': 9},
    'optimize | ini: sim.warmup_slots=100 | flags: ': {'warmup_slots': 100},
    'optimize | ini: sim.warmup_slots=x | flags: ': 'exit 1',
    'optimize | ini: sim.initial_state=3 | flags: ': {'initial_state': 3},
    'optimize | ini: sim.initial_state=x | flags: ': 'exit 1',
    'optimize | ini: sim.packet_counts=100,200 | flags: ': {'packet_counts': [100, 200]},
    'optimize | ini: sim.packet_counts=100,x | flags: ': 'exit 1',
    'optimize | ini: system.sigma2=3 | flags: ': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'optimize | ini: system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: system.sigma2=3, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: system.sigma2=x, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: system.sigma2=3, system.sigma2_w=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'optimize | ini: none | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: none | flags: --sigma2-dbm 3 --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: none | flags: --sigma2-dbm x': 'exit 1',
    'optimize | ini: none | flags: --sigma2-w x': 'exit 1',
    'optimize | ini: system.sigma2=7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'optimize | ini: system.sigma2=7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: system.sigma2_w=0.7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'optimize | ini: system.sigma2_w=0.7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'optimize | ini: system.b=17 | flags: ': {'b_w': 0.05011872336272722},
    'optimize | ini: system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'optimize | ini: system.b=17, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'optimize | ini: system.b=x, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'optimize | ini: system.b=17, system.b_w=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'optimize | ini: none | flags: --b-w 0.2': {'b_w': 0.2},
    'optimize | ini: none | flags: --b-dbm 17 --b-w 0.2': {'b_w': 0.2},
    'optimize | ini: none | flags: --b-dbm x': 'exit 1',
    'optimize | ini: none | flags: --b-w x': 'exit 1',
    'optimize | ini: system.b=7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'optimize | ini: system.b=7 | flags: --b-w 0.2': {'b_w': 0.2},
    'optimize | ini: system.b_w=0.7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'optimize | ini: system.b_w=0.7 | flags: --b-w 0.2': {'b_w': 0.2},
    'optimize | ini: system.pmax=30 | flags: ': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'optimize | ini: system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: system.pmax=30, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: system.pmax=x, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: system.pmax=30, system.pmax_w=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'optimize | ini: none | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: none | flags: --pmax-dbm 30 --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: none | flags: --pmax-dbm x': 'exit 1',
    'optimize | ini: none | flags: --pmax-w x': 'exit 1',
    'optimize | ini: system.pmax=7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'optimize | ini: system.pmax=7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: system.pmax_w=0.7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'optimize | ini: system.pmax_w=0.7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'optimize | ini: system.pmin=5 | flags: ': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'optimize | ini: system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: system.pmin=5, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: system.pmin=x, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: system.pmin=5, system.pmin_w=x | flags: ': 'exit 1',
    'optimize | ini: none | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'optimize | ini: none | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: none | flags: --pmin-dbm 5 --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: none | flags: --pmin-dbm x': 'exit 1',
    'optimize | ini: none | flags: --pmin-w x': 'exit 1',
    'optimize | ini: system.pmin=7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'optimize | ini: system.pmin=7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: system.pmin_w=0.7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'optimize | ini: system.pmin_w=0.7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'optimize | ini: sweep.p_lo=-13 | flags: ': {'p_lo_w': 5.011872336272725e-05},
    'optimize | ini: sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'optimize | ini: sweep.p_lo=-13, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'optimize | ini: sweep.p_lo=x, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'optimize | ini: sweep.p_lo=-13, sweep.p_lo_w=x | flags: ': 'exit 1',
    'optimize | ini: sweep.p_hi=25 | flags: ': {'p_hi_w': 0.31622776601683794},
    'optimize | ini: sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'optimize | ini: sweep.p_hi=25, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'optimize | ini: sweep.p_hi=x, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'optimize | ini: sweep.p_hi=25, sweep.p_hi_w=x | flags: ': 'exit 1',
    'optimize | ini: sim.p=12 | flags: ': {'p_w': 0.015848931924611134},
    'optimize | ini: sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'optimize | ini: sim.p=12, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'optimize | ini: sim.p=x, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'optimize | ini: sim.p=12, sim.p_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: ': {},
    'sweep | ini: empty | flags: ': {},
    'sweep | ini: none | flags: --out x.csv': {'out': 'x.csv'},
    'sweep | ini: system.r=2000 | flags: ': {'R': 2000.0},
    'sweep | ini: system.r=fast | flags: ': 'exit 1',
    'sweep | ini: none | flags: --R 3000': {'R': 3000.0},
    'sweep | ini: system.r=2000 | flags: --R 3000': {'R': 3000.0},
    'sweep | ini: system.a=2 | flags: ': {'a': 2.0},
    'sweep | ini: system.a=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --a 3': {'a': 3.0},
    'sweep | ini: system.a=2 | flags: --a 3': {'a': 3.0},
    'sweep | ini: system.epsilon=0.5 | flags: ': {'epsilon': 0.5},
    'sweep | ini: system.epsilon=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --epsilon 0.25': {'epsilon': 0.25},
    'sweep | ini: system.epsilon=0.5 | flags: --epsilon 0.25': {'epsilon': 0.25},
    'sweep | ini: system.b_over_sigma2=50 | flags: ': {'b_w': 0.05, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: queue.q=0.3 | flags: ': {'q': 0.3},
    'sweep | ini: queue.q=banana | flags: ': 'exit 1',
    'sweep | ini: none | flags: --q 0.7': {'q': 0.7},
    'sweep | ini: queue.q=0.3 | flags: --q 0.7': {'q': 0.7},
    'sweep | ini: queue.k=8 | flags: ': {'K': 8},
    'sweep | ini: queue.k=1.5 | flags: ': 'exit 1',
    'sweep | ini: none | flags: --K 12': {'K': 12},
    'sweep | ini: queue.k=8 | flags: --K 12': {'K': 12},
    'sweep | ini: model.type=qfunc | flags: ': {'model': 'qfunc'},
    'sweep | ini: none | flags: --model exp': {},
    'sweep | ini: model.type=qfunc | flags: --model exp': {},
    'sweep | ini: model.r0=500 | flags: ': {'R0': 500.0},
    'sweep | ini: model.r0=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --R0 2000': {'R0': 2000.0},
    'sweep | ini: model.r0=500 | flags: --R0 2000': {'R0': 2000.0},
    'sweep | ini: model.kappa=2 | flags: ': {'kappa': 2.0},
    'sweep | ini: model.kappa=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --kappa 10': {'kappa': 10.0},
    'sweep | ini: model.kappa=2 | flags: --kappa 10': {'kappa': 10.0},
    'sweep | ini: model.hh=0.5 | flags: ': {'hh': 0.5},
    'sweep | ini: model.hh=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --hh 2': {'hh': 2.0},
    'sweep | ini: model.hh=0.5 | flags: --hh 2': {'hh': 2.0},
    'sweep | ini: sweep.axis=b_over_sigma2 | flags: ': {'sweep_axis': 'b_over_sigma2'},
    'sweep | ini: none | flags: --axis q': {},
    'sweep | ini: sweep.axis=b_over_sigma2 | flags: --axis q': {},
    'sweep | ini: sweep.values=0.1,0.2 | flags: ': {'sweep_values': [0.1, 0.2]},
    'sweep | ini: sweep.values=0.1,x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --values 0.3,0.4,1': {'sweep_values': [0.3, 0.4, 1.0]},
    'sweep | ini: sweep.values=0.1,0.2 | flags: --values 0.3,0.4,1': {'sweep_values': [0.3, 0.4, 1.0]},
    'sweep | ini: sweep.p_points=50 | flags: ': {'p_points': 50},
    'sweep | ini: sweep.p_points=2.5 | flags: ': 'exit 1',
    'sweep | ini: none | flags: --p-points 20': {'p_points': 20},
    'sweep | ini: sweep.p_points=50 | flags: --p-points 20': {'p_points': 20},
    'sweep | ini: sim.f=0.5 | flags: ': {'sim_f': 0.5},
    'sweep | ini: sim.f=x | flags: ': 'exit 1',
    'sweep | ini: sim.total_packets=500 | flags: ': {'total_packets': 500},
    'sweep | ini: sim.total_packets=5e2 | flags: ': 'exit 1',
    'sweep | ini: sim.num_runs=20 | flags: ': {'num_runs': 20},
    'sweep | ini: sim.num_runs=x | flags: ': 'exit 1',
    'sweep | ini: sim.seed=7 | flags: ': {'seed': 7},
    'sweep | ini: sim.seed=1.0 | flags: ': 'exit 1',
    'sweep | ini: none | flags: --seed 9': {'seed': 9},
    'sweep | ini: sim.seed=7 | flags: --seed 9': {'seed': 9},
    'sweep | ini: sim.warmup_slots=100 | flags: ': {'warmup_slots': 100},
    'sweep | ini: sim.warmup_slots=x | flags: ': 'exit 1',
    'sweep | ini: sim.initial_state=3 | flags: ': {'initial_state': 3},
    'sweep | ini: sim.initial_state=x | flags: ': 'exit 1',
    'sweep | ini: sim.packet_counts=100,200 | flags: ': {'packet_counts': [100, 200]},
    'sweep | ini: sim.packet_counts=100,x | flags: ': 'exit 1',
    'sweep | ini: system.sigma2=3 | flags: ': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'sweep | ini: system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: system.sigma2=3, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: system.sigma2=x, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: system.sigma2=3, system.sigma2_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'sweep | ini: none | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: none | flags: --sigma2-dbm 3 --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: none | flags: --sigma2-dbm x': 'exit 1',
    'sweep | ini: none | flags: --sigma2-w x': 'exit 1',
    'sweep | ini: system.sigma2=7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'sweep | ini: system.sigma2=7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: system.sigma2_w=0.7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'sweep | ini: system.sigma2_w=0.7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'sweep | ini: system.b=17 | flags: ': {'b_w': 0.05011872336272722},
    'sweep | ini: system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'sweep | ini: system.b=17, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'sweep | ini: system.b=x, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'sweep | ini: system.b=17, system.b_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'sweep | ini: none | flags: --b-w 0.2': {'b_w': 0.2},
    'sweep | ini: none | flags: --b-dbm 17 --b-w 0.2': {'b_w': 0.2},
    'sweep | ini: none | flags: --b-dbm x': 'exit 1',
    'sweep | ini: none | flags: --b-w x': 'exit 1',
    'sweep | ini: system.b=7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'sweep | ini: system.b=7 | flags: --b-w 0.2': {'b_w': 0.2},
    'sweep | ini: system.b_w=0.7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'sweep | ini: system.b_w=0.7 | flags: --b-w 0.2': {'b_w': 0.2},
    'sweep | ini: system.pmax=30 | flags: ': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'sweep | ini: system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: system.pmax=30, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: system.pmax=x, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: system.pmax=30, system.pmax_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'sweep | ini: none | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: none | flags: --pmax-dbm 30 --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: none | flags: --pmax-dbm x': 'exit 1',
    'sweep | ini: none | flags: --pmax-w x': 'exit 1',
    'sweep | ini: system.pmax=7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'sweep | ini: system.pmax=7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: system.pmax_w=0.7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'sweep | ini: system.pmax_w=0.7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'sweep | ini: system.pmin=5 | flags: ': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'sweep | ini: system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: system.pmin=5, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: system.pmin=x, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: system.pmin=5, system.pmin_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'sweep | ini: none | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: none | flags: --pmin-dbm 5 --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: none | flags: --pmin-dbm x': 'exit 1',
    'sweep | ini: none | flags: --pmin-w x': 'exit 1',
    'sweep | ini: system.pmin=7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'sweep | ini: system.pmin=7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: system.pmin_w=0.7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'sweep | ini: system.pmin_w=0.7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'sweep | ini: sweep.p_lo=-13 | flags: ': {'p_lo_w': 5.011872336272725e-05},
    'sweep | ini: sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'sweep | ini: sweep.p_lo=-13, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'sweep | ini: sweep.p_lo=x, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'sweep | ini: sweep.p_lo=-13, sweep.p_lo_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --p-lo-dbm -13': {'p_lo_w': 5.011872336272725e-05},
    'sweep | ini: none | flags: --p-lo-w 0.0002': {'p_lo_w': 0.0002},
    'sweep | ini: none | flags: --p-lo-dbm -13 --p-lo-w 0.0002': {'p_lo_w': 0.0002},
    'sweep | ini: none | flags: --p-lo-dbm x': 'exit 1',
    'sweep | ini: none | flags: --p-lo-w x': 'exit 1',
    'sweep | ini: sweep.p_lo=7 | flags: --p-lo-dbm -13': {'p_lo_w': 5.011872336272725e-05},
    'sweep | ini: sweep.p_lo=7 | flags: --p-lo-w 0.0002': {'p_lo_w': 0.0002},
    'sweep | ini: sweep.p_lo_w=0.7 | flags: --p-lo-dbm -13': {'p_lo_w': 5.011872336272725e-05},
    'sweep | ini: sweep.p_lo_w=0.7 | flags: --p-lo-w 0.0002': {'p_lo_w': 0.0002},
    'sweep | ini: sweep.p_hi=25 | flags: ': {'p_hi_w': 0.31622776601683794},
    'sweep | ini: sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'sweep | ini: sweep.p_hi=25, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'sweep | ini: sweep.p_hi=x, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'sweep | ini: sweep.p_hi=25, sweep.p_hi_w=x | flags: ': 'exit 1',
    'sweep | ini: none | flags: --p-hi-dbm 25': {'p_hi_w': 0.31622776601683794},
    'sweep | ini: none | flags: --p-hi-w 0.5': {'p_hi_w': 0.5},
    'sweep | ini: none | flags: --p-hi-dbm 25 --p-hi-w 0.5': {'p_hi_w': 0.5},
    'sweep | ini: none | flags: --p-hi-dbm x': 'exit 1',
    'sweep | ini: none | flags: --p-hi-w x': 'exit 1',
    'sweep | ini: sweep.p_hi=7 | flags: --p-hi-dbm 25': {'p_hi_w': 0.31622776601683794},
    'sweep | ini: sweep.p_hi=7 | flags: --p-hi-w 0.5': {'p_hi_w': 0.5},
    'sweep | ini: sweep.p_hi_w=0.7 | flags: --p-hi-dbm 25': {'p_hi_w': 0.31622776601683794},
    'sweep | ini: sweep.p_hi_w=0.7 | flags: --p-hi-w 0.5': {'p_hi_w': 0.5},
    'sweep | ini: sim.p=12 | flags: ': {'p_w': 0.015848931924611134},
    'sweep | ini: sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'sweep | ini: sim.p=12, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'sweep | ini: sim.p=x, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'sweep | ini: sim.p=12, sim.p_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: ': {},
    'simulate | ini: empty | flags: ': {},
    'simulate | ini: none | flags: --out x.csv': {'out': 'x.csv'},
    'simulate | ini: system.r=2000 | flags: ': {'R': 2000.0},
    'simulate | ini: system.r=fast | flags: ': 'exit 1',
    'simulate | ini: none | flags: --R 3000': {'R': 3000.0},
    'simulate | ini: system.r=2000 | flags: --R 3000': {'R': 3000.0},
    'simulate | ini: system.a=2 | flags: ': {'a': 2.0},
    'simulate | ini: system.a=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --a 3': {'a': 3.0},
    'simulate | ini: system.a=2 | flags: --a 3': {'a': 3.0},
    'simulate | ini: system.epsilon=0.5 | flags: ': {'epsilon': 0.5},
    'simulate | ini: system.epsilon=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --epsilon 0.25': {'epsilon': 0.25},
    'simulate | ini: system.epsilon=0.5 | flags: --epsilon 0.25': {'epsilon': 0.25},
    'simulate | ini: system.b_over_sigma2=50 | flags: ': {'b_w': 0.05, 'b_over_sigma2': 50.0},
    'simulate | ini: system.b_over_sigma2=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'simulate | ini: system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'simulate | ini: queue.q=0.3 | flags: ': {'q': 0.3},
    'simulate | ini: queue.q=banana | flags: ': 'exit 1',
    'simulate | ini: none | flags: --q 0.7': {'q': 0.7},
    'simulate | ini: queue.q=0.3 | flags: --q 0.7': {'q': 0.7},
    'simulate | ini: queue.k=8 | flags: ': {'K': 8},
    'simulate | ini: queue.k=1.5 | flags: ': 'exit 1',
    'simulate | ini: none | flags: --K 12': {'K': 12},
    'simulate | ini: queue.k=8 | flags: --K 12': {'K': 12},
    'simulate | ini: model.type=qfunc | flags: ': {'model': 'qfunc'},
    'simulate | ini: none | flags: --model exp': {},
    'simulate | ini: model.type=qfunc | flags: --model exp': {},
    'simulate | ini: model.r0=500 | flags: ': {'R0': 500.0},
    'simulate | ini: model.r0=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --R0 2000': {'R0': 2000.0},
    'simulate | ini: model.r0=500 | flags: --R0 2000': {'R0': 2000.0},
    'simulate | ini: model.kappa=2 | flags: ': {'kappa': 2.0},
    'simulate | ini: model.kappa=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --kappa 10': {'kappa': 10.0},
    'simulate | ini: model.kappa=2 | flags: --kappa 10': {'kappa': 10.0},
    'simulate | ini: model.hh=0.5 | flags: ': {'hh': 0.5},
    'simulate | ini: model.hh=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --hh 2': {'hh': 2.0},
    'simulate | ini: model.hh=0.5 | flags: --hh 2': {'hh': 2.0},
    'simulate | ini: sweep.axis=b_over_sigma2 | flags: ': {'sweep_axis': 'b_over_sigma2'},
    'simulate | ini: sweep.values=0.1,0.2 | flags: ': {'sweep_values': [0.1, 0.2]},
    'simulate | ini: sweep.values=0.1,x | flags: ': 'exit 1',
    'simulate | ini: sweep.p_points=50 | flags: ': {'p_points': 50},
    'simulate | ini: sweep.p_points=2.5 | flags: ': 'exit 1',
    'simulate | ini: sim.f=0.5 | flags: ': {'sim_f': 0.5},
    'simulate | ini: sim.f=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --f 0.25': {'sim_f': 0.25},
    'simulate | ini: sim.f=0.5 | flags: --f 0.25': {'sim_f': 0.25},
    'simulate | ini: sim.total_packets=500 | flags: ': {'total_packets': 500},
    'simulate | ini: sim.total_packets=5e2 | flags: ': 'exit 1',
    'simulate | ini: none | flags: --total-packets 300': {'total_packets': 300},
    'simulate | ini: sim.total_packets=500 | flags: --total-packets 300': {'total_packets': 300},
    'simulate | ini: sim.num_runs=20 | flags: ': {'num_runs': 20},
    'simulate | ini: sim.num_runs=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --num-runs 30': {'num_runs': 30},
    'simulate | ini: sim.num_runs=20 | flags: --num-runs 30': {'num_runs': 30},
    'simulate | ini: sim.seed=7 | flags: ': {'seed': 7},
    'simulate | ini: sim.seed=1.0 | flags: ': 'exit 1',
    'simulate | ini: none | flags: --seed 9': {'seed': 9},
    'simulate | ini: sim.seed=7 | flags: --seed 9': {'seed': 9},
    'simulate | ini: sim.warmup_slots=100 | flags: ': {'warmup_slots': 100},
    'simulate | ini: sim.warmup_slots=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --warmup-slots 50': {'warmup_slots': 50},
    'simulate | ini: sim.warmup_slots=100 | flags: --warmup-slots 50': {'warmup_slots': 50},
    'simulate | ini: sim.initial_state=3 | flags: ': {'initial_state': 3},
    'simulate | ini: sim.initial_state=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --initial-state 2': {'initial_state': 2},
    'simulate | ini: sim.initial_state=3 | flags: --initial-state 2': {'initial_state': 2},
    'simulate | ini: sim.packet_counts=100,200 | flags: ': {'packet_counts': [100, 200]},
    'simulate | ini: sim.packet_counts=100,x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --packet-counts 300,400.6': {'packet_counts': [300, 401]},
    'simulate | ini: sim.packet_counts=100,200 | flags: --packet-counts 300,400.6': {'packet_counts': [300, 401]},
    'simulate | ini: system.sigma2=3 | flags: ': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'simulate | ini: system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: system.sigma2=3, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: system.sigma2=x, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: system.sigma2=3, system.sigma2_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'simulate | ini: none | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: none | flags: --sigma2-dbm 3 --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: none | flags: --sigma2-dbm x': 'exit 1',
    'simulate | ini: none | flags: --sigma2-w x': 'exit 1',
    'simulate | ini: system.sigma2=7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'simulate | ini: system.sigma2=7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: system.sigma2_w=0.7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'simulate | ini: system.sigma2_w=0.7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'simulate | ini: system.b=17 | flags: ': {'b_w': 0.05011872336272722},
    'simulate | ini: system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'simulate | ini: system.b=17, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'simulate | ini: system.b=x, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'simulate | ini: system.b=17, system.b_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'simulate | ini: none | flags: --b-w 0.2': {'b_w': 0.2},
    'simulate | ini: none | flags: --b-dbm 17 --b-w 0.2': {'b_w': 0.2},
    'simulate | ini: none | flags: --b-dbm x': 'exit 1',
    'simulate | ini: none | flags: --b-w x': 'exit 1',
    'simulate | ini: system.b=7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'simulate | ini: system.b=7 | flags: --b-w 0.2': {'b_w': 0.2},
    'simulate | ini: system.b_w=0.7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'simulate | ini: system.b_w=0.7 | flags: --b-w 0.2': {'b_w': 0.2},
    'simulate | ini: system.pmax=30 | flags: ': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'simulate | ini: system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: system.pmax=30, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: system.pmax=x, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: system.pmax=30, system.pmax_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'simulate | ini: none | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: none | flags: --pmax-dbm 30 --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: none | flags: --pmax-dbm x': 'exit 1',
    'simulate | ini: none | flags: --pmax-w x': 'exit 1',
    'simulate | ini: system.pmax=7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'simulate | ini: system.pmax=7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: system.pmax_w=0.7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'simulate | ini: system.pmax_w=0.7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'simulate | ini: system.pmin=5 | flags: ': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'simulate | ini: system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: system.pmin=5, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: system.pmin=x, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: system.pmin=5, system.pmin_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'simulate | ini: none | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: none | flags: --pmin-dbm 5 --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: none | flags: --pmin-dbm x': 'exit 1',
    'simulate | ini: none | flags: --pmin-w x': 'exit 1',
    'simulate | ini: system.pmin=7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'simulate | ini: system.pmin=7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: system.pmin_w=0.7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'simulate | ini: system.pmin_w=0.7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'simulate | ini: sweep.p_lo=-13 | flags: ': {'p_lo_w': 5.011872336272725e-05},
    'simulate | ini: sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'simulate | ini: sweep.p_lo=-13, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'simulate | ini: sweep.p_lo=x, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'simulate | ini: sweep.p_lo=-13, sweep.p_lo_w=x | flags: ': 'exit 1',
    'simulate | ini: sweep.p_hi=25 | flags: ': {'p_hi_w': 0.31622776601683794},
    'simulate | ini: sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'simulate | ini: sweep.p_hi=25, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'simulate | ini: sweep.p_hi=x, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'simulate | ini: sweep.p_hi=25, sweep.p_hi_w=x | flags: ': 'exit 1',
    'simulate | ini: sim.p=12 | flags: ': {'p_w': 0.015848931924611134},
    'simulate | ini: sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'simulate | ini: sim.p=12, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'simulate | ini: sim.p=x, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'simulate | ini: sim.p=12, sim.p_w=x | flags: ': 'exit 1',
    'simulate | ini: none | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'simulate | ini: none | flags: --p-w 0.05': {'p_w': 0.05},
    'simulate | ini: none | flags: --p-dbm 12 --p-w 0.05': {'p_w': 0.05},
    'simulate | ini: none | flags: --p-dbm x': 'exit 1',
    'simulate | ini: none | flags: --p-w x': 'exit 1',
    'simulate | ini: sim.p=7 | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'simulate | ini: sim.p=7 | flags: --p-w 0.05': {'p_w': 0.05},
    'simulate | ini: sim.p_w=0.7 | flags: --p-dbm 12': {'p_w': 0.015848931924611134},
    'simulate | ini: sim.p_w=0.7 | flags: --p-w 0.05': {'p_w': 0.05},
    'gain | ini: none | flags: ': {},
    'gain | ini: empty | flags: ': {},
    'gain | ini: none | flags: --out x.csv': {'out': 'x.csv'},
    'gain | ini: system.r=2000 | flags: ': {'R': 2000.0},
    'gain | ini: system.r=fast | flags: ': 'exit 1',
    'gain | ini: none | flags: --R 3000': {'R': 3000.0},
    'gain | ini: system.r=2000 | flags: --R 3000': {'R': 3000.0},
    'gain | ini: system.a=2 | flags: ': {'a': 2.0},
    'gain | ini: system.a=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --a 3': {'a': 3.0},
    'gain | ini: system.a=2 | flags: --a 3': {'a': 3.0},
    'gain | ini: system.epsilon=0.5 | flags: ': {'epsilon': 0.5},
    'gain | ini: system.epsilon=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --epsilon 0.25': {'epsilon': 0.25},
    'gain | ini: system.epsilon=0.5 | flags: --epsilon 0.25': {'epsilon': 0.25},
    'gain | ini: system.b_over_sigma2=50 | flags: ': {'b_w': 0.05, 'b_over_sigma2': 50.0},
    'gain | ini: system.b_over_sigma2=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'gain | ini: system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'gain | ini: queue.q=0.3 | flags: ': {'q': 0.3},
    'gain | ini: queue.q=banana | flags: ': 'exit 1',
    'gain | ini: none | flags: --q 0.7': {'q': 0.7},
    'gain | ini: queue.q=0.3 | flags: --q 0.7': {'q': 0.7},
    'gain | ini: queue.k=8 | flags: ': {'K': 8},
    'gain | ini: queue.k=1.5 | flags: ': 'exit 1',
    'gain | ini: none | flags: --K 12': {'K': 12},
    'gain | ini: queue.k=8 | flags: --K 12': {'K': 12},
    'gain | ini: model.type=qfunc | flags: ': {'model': 'qfunc'},
    'gain | ini: none | flags: --model exp': {},
    'gain | ini: model.type=qfunc | flags: --model exp': {},
    'gain | ini: model.r0=500 | flags: ': {'R0': 500.0},
    'gain | ini: model.r0=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --R0 2000': {'R0': 2000.0},
    'gain | ini: model.r0=500 | flags: --R0 2000': {'R0': 2000.0},
    'gain | ini: model.kappa=2 | flags: ': {'kappa': 2.0},
    'gain | ini: model.kappa=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --kappa 10': {'kappa': 10.0},
    'gain | ini: model.kappa=2 | flags: --kappa 10': {'kappa': 10.0},
    'gain | ini: model.hh=0.5 | flags: ': {'hh': 0.5},
    'gain | ini: model.hh=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --hh 2': {'hh': 2.0},
    'gain | ini: model.hh=0.5 | flags: --hh 2': {'hh': 2.0},
    'gain | ini: sweep.axis=b_over_sigma2 | flags: ': {'sweep_axis': 'b_over_sigma2'},
    'gain | ini: none | flags: --axis q': {},
    'gain | ini: sweep.axis=b_over_sigma2 | flags: --axis q': {},
    'gain | ini: sweep.values=0.1,0.2 | flags: ': {'sweep_values': [0.1, 0.2]},
    'gain | ini: sweep.values=0.1,x | flags: ': 'exit 1',
    'gain | ini: none | flags: --values 0.3,0.4,1': {'sweep_values': [0.3, 0.4, 1.0]},
    'gain | ini: sweep.values=0.1,0.2 | flags: --values 0.3,0.4,1': {'sweep_values': [0.3, 0.4, 1.0]},
    'gain | ini: sweep.p_points=50 | flags: ': {'p_points': 50},
    'gain | ini: sweep.p_points=2.5 | flags: ': 'exit 1',
    'gain | ini: sim.f=0.5 | flags: ': {'sim_f': 0.5},
    'gain | ini: sim.f=x | flags: ': 'exit 1',
    'gain | ini: sim.total_packets=500 | flags: ': {'total_packets': 500},
    'gain | ini: sim.total_packets=5e2 | flags: ': 'exit 1',
    'gain | ini: sim.num_runs=20 | flags: ': {'num_runs': 20},
    'gain | ini: sim.num_runs=x | flags: ': 'exit 1',
    'gain | ini: sim.seed=7 | flags: ': {'seed': 7},
    'gain | ini: sim.seed=1.0 | flags: ': 'exit 1',
    'gain | ini: none | flags: --seed 9': {'seed': 9},
    'gain | ini: sim.seed=7 | flags: --seed 9': {'seed': 9},
    'gain | ini: sim.warmup_slots=100 | flags: ': {'warmup_slots': 100},
    'gain | ini: sim.warmup_slots=x | flags: ': 'exit 1',
    'gain | ini: sim.initial_state=3 | flags: ': {'initial_state': 3},
    'gain | ini: sim.initial_state=x | flags: ': 'exit 1',
    'gain | ini: sim.packet_counts=100,200 | flags: ': {'packet_counts': [100, 200]},
    'gain | ini: sim.packet_counts=100,x | flags: ': 'exit 1',
    'gain | ini: system.sigma2=3 | flags: ': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'gain | ini: system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: system.sigma2=3, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: system.sigma2=x, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: system.sigma2=3, system.sigma2_w=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'gain | ini: none | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: none | flags: --sigma2-dbm 3 --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: none | flags: --sigma2-dbm x': 'exit 1',
    'gain | ini: none | flags: --sigma2-w x': 'exit 1',
    'gain | ini: system.sigma2=7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'gain | ini: system.sigma2=7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: system.sigma2_w=0.7 | flags: --sigma2-dbm 3': {'sigma2_w': 0.001995262314968879, 'b_w': 0.1995262314968879},
    'gain | ini: system.sigma2_w=0.7 | flags: --sigma2-w 0.002': {'sigma2_w': 0.002, 'b_w': 0.2},
    'gain | ini: system.b=17 | flags: ': {'b_w': 0.05011872336272722},
    'gain | ini: system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'gain | ini: system.b=17, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'gain | ini: system.b=x, system.b_w=0.2 | flags: ': {'b_w': 0.2},
    'gain | ini: system.b=17, system.b_w=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'gain | ini: none | flags: --b-w 0.2': {'b_w': 0.2},
    'gain | ini: none | flags: --b-dbm 17 --b-w 0.2': {'b_w': 0.2},
    'gain | ini: none | flags: --b-dbm x': 'exit 1',
    'gain | ini: none | flags: --b-w x': 'exit 1',
    'gain | ini: system.b=7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'gain | ini: system.b=7 | flags: --b-w 0.2': {'b_w': 0.2},
    'gain | ini: system.b_w=0.7 | flags: --b-dbm 17': {'b_w': 0.05011872336272722},
    'gain | ini: system.b_w=0.7 | flags: --b-w 0.2': {'b_w': 0.2},
    'gain | ini: system.pmax=30 | flags: ': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'gain | ini: system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: system.pmax=30, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: system.pmax=x, system.pmax_w=2 | flags: ': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: system.pmax=30, system.pmax_w=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'gain | ini: none | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: none | flags: --pmax-dbm 30 --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: none | flags: --pmax-dbm x': 'exit 1',
    'gain | ini: none | flags: --pmax-w x': 'exit 1',
    'gain | ini: system.pmax=7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'gain | ini: system.pmax=7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: system.pmax_w=0.7 | flags: --pmax-dbm 30': {'pmax_w': 1.0, 'p_hi_w': 1.0},
    'gain | ini: system.pmax_w=0.7 | flags: --pmax-w 2': {'pmax_w': 2.0, 'p_hi_w': 2.0},
    'gain | ini: system.pmin=5 | flags: ': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'gain | ini: system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: system.pmin=5, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: system.pmin=x, system.pmin_w=0.005 | flags: ': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: system.pmin=5, system.pmin_w=x | flags: ': 'exit 1',
    'gain | ini: none | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'gain | ini: none | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: none | flags: --pmin-dbm 5 --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: none | flags: --pmin-dbm x': 'exit 1',
    'gain | ini: none | flags: --pmin-w x': 'exit 1',
    'gain | ini: system.pmin=7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'gain | ini: system.pmin=7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: system.pmin_w=0.7 | flags: --pmin-dbm 5': {'pmin_w': 0.0031622776601683794, 'p_lo_w': 3.1622776601683795e-05},
    'gain | ini: system.pmin_w=0.7 | flags: --pmin-w 0.005': {'pmin_w': 0.005, 'p_lo_w': 5e-05},
    'gain | ini: sweep.p_lo=-13 | flags: ': {'p_lo_w': 5.011872336272725e-05},
    'gain | ini: sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'gain | ini: sweep.p_lo=-13, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'gain | ini: sweep.p_lo=x, sweep.p_lo_w=0.0002 | flags: ': {'p_lo_w': 0.0002},
    'gain | ini: sweep.p_lo=-13, sweep.p_lo_w=x | flags: ': 'exit 1',
    'gain | ini: sweep.p_hi=25 | flags: ': {'p_hi_w': 0.31622776601683794},
    'gain | ini: sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'gain | ini: sweep.p_hi=25, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'gain | ini: sweep.p_hi=x, sweep.p_hi_w=0.5 | flags: ': {'p_hi_w': 0.5},
    'gain | ini: sweep.p_hi=25, sweep.p_hi_w=x | flags: ': 'exit 1',
    'gain | ini: sim.p=12 | flags: ': {'p_w': 0.015848931924611134},
    'gain | ini: sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'gain | ini: sim.p=12, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'gain | ini: sim.p=x, sim.p_w=0.05 | flags: ': {'p_w': 0.05},
    'gain | ini: sim.p=12, sim.p_w=x | flags: ': 'exit 1',
    'optimize | ini: empty | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'optimize | ini: empty | flags: --b-w 0.3': {'b_w': 0.3},
    'optimize | ini: empty | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: empty | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: empty | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17 | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'optimize | ini: system.b=17 | flags: --b-w 0.3': {'b_w': 0.3},
    'optimize | ini: system.b=17 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2 | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'optimize | ini: system.b_w=0.2 | flags: --b-w 0.3': {'b_w': 0.3},
    'optimize | ini: system.b_w=0.2 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: ': {'b_w': 0.05011872336272722, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: ': {'b_w': 0.2, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-dbm 23': {'sigma2_w': 0.002, 'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-w 0.3': {'sigma2_w': 0.002, 'b_w': 0.3, 'b_over_sigma2': 50.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.04, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-w 0.3 --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.3, 'b_over_sigma2': 20.0},
    'optimize | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-dbm 23 --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: empty | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'sweep | ini: empty | flags: --b-w 0.3': {'b_w': 0.3},
    'sweep | ini: empty | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: empty | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: empty | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17 | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'sweep | ini: system.b=17 | flags: --b-w 0.3': {'b_w': 0.3},
    'sweep | ini: system.b=17 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2 | flags: --b-dbm 23': {'b_w': 0.19952623149688797},
    'sweep | ini: system.b_w=0.2 | flags: --b-w 0.3': {'b_w': 0.3},
    'sweep | ini: system.b_w=0.2 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: ': {'b_w': 0.05011872336272722, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b=17, system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: ': {'b_w': 0.2, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-dbm 23': {'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-w 0.3': {'b_w': 0.3, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-over-sigma2 20': {'b_w': 0.02, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-w 0.3 --b-over-sigma2 20': {'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_w=0.2, system.b_over_sigma2=50 | flags: --b-dbm 23 --b-over-sigma2 20': {'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: ': {'sigma2_w': 0.002, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-dbm 23': {'sigma2_w': 0.002, 'b_w': 0.19952623149688797, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-w 0.3': {'sigma2_w': 0.002, 'b_w': 0.3, 'b_over_sigma2': 50.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.04, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-w 0.3 --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.3, 'b_over_sigma2': 20.0},
    'sweep | ini: system.b_over_sigma2=50, system.sigma2_w=0.002 | flags: --b-dbm 23 --b-over-sigma2 20': {'sigma2_w': 0.002, 'b_w': 0.19952623149688797, 'b_over_sigma2': 20.0},
    'eval | ini: none | flags: --R fast': 'exit 1',
    'eval | ini: none | flags: --a x': 'exit 1',
    'eval | ini: none | flags: --epsilon x': 'exit 1',
    'eval | ini: none | flags: --b-over-sigma2 x': 'exit 1',
    'eval | ini: none | flags: --q banana': 'exit 1',
    'eval | ini: none | flags: --K 1.5': 'exit 1',
    'eval | ini: none | flags: --R0 x': 'exit 1',
    'eval | ini: none | flags: --kappa x': 'exit 1',
    'eval | ini: none | flags: --hh x': 'exit 1',
    'sweep | ini: none | flags: --values 0.1,x': 'exit 1',
    'sweep | ini: none | flags: --p-points 2.5': 'exit 1',
    'simulate | ini: none | flags: --f x': 'exit 1',
    'simulate | ini: none | flags: --total-packets 5e2': 'exit 1',
    'simulate | ini: none | flags: --num-runs x': 'exit 1',
    'eval | ini: none | flags: --seed 1.0': 'exit 1',
    'simulate | ini: none | flags: --warmup-slots x': 'exit 1',
    'simulate | ini: none | flags: --initial-state x': 'exit 1',
    'simulate | ini: none | flags: --packet-counts 100,x': 'exit 1',
    'eval | ini: none | flags: --model foo': 'exit 1',
    'sweep | ini: none | flags: --axis nonsense': 'exit 1',
    'gain | ini: none | flags: --axis p': {'sweep_axis': 'p'},
    'gain | ini: sweep.axis=p | flags: ': {'sweep_axis': 'p'},
    'sweep | ini: sweep.values= | flags: ': {'sweep_values': []},
    'gain | ini: none | flags: --values ': {'sweep_values': []},
    'optimize | ini: queue.K=7 | flags: ': {'K': 7},
    'optimize | ini: Queue.q=0.2 | flags: ': {},
    'optimize | ini: queue.frequency=2.4, radio.q=0.2 | flags: ': {},
    'optimize | ini: DEFAULT.q=0.2 | flags: ': {},
    'optimize | ini: DEFAULT.epsilon=0.1, system.a=2 | flags: ': {'a': 2.0, 'epsilon': 0.1},
    'optimize | ini: DEFAULT.q=0.2, queue.k=4 | flags: ': {'q': 0.2, 'K': 4},
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, outcome in resolve_all(Path(tmp)).items():
            print(f"    {name!r}: {outcome!r},")
