import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import catamp
from catamp import cli
from catamp.cli import (ConfigError, cmd_amplify, cmd_fig2, cmd_fig3, cmd_fig4,
                        cmd_purify, main, parse_config, render_csv, render_json)


def _args(*argv):
    """The namespace ``catamp <argv>`` runs with."""
    return cli._build_parser().parse_args(list(argv))


def test_flag_validation():
    args = _args("fig2")
    assert (args.cutoff, args.eta, args.format, args.out) == (30, 1.0, "csv", None)
    for argv in (["fig2", "--cutoff", "4"], ["fig2", "--cutoff", "x"],
                 ["fig2", "--format", "xml"]):
        with pytest.raises(ConfigError):
            _args(*argv)
    # the stage's own check refuses an efficiency outside [0, 1]
    for argv in (["fig2"], ["fig4"], ["purify"], ["amplify", "--alpha-target", "1.0"]):
        assert main(argv + ["--eta", "1.5"]) == 1


def test_fig2_rows_cross_check_formula(monkeypatch):
    monkeypatch.setattr(cli, "ALPHA_GRID", [2 ** -0.5, 1.0, 1.5])
    table = cmd_fig2(_args("fig2"))
    assert table.columns[:4] == ["alpha", "p_odd_odd", "p_even_even", "p_even_odd"]
    for row in table.rows:
        for formula, sim in zip(row[1:4], row[4:7]):
            assert abs(formula - sim) < 1e-5
        assert all(0.0 <= v <= 1.0 for v in row[1:])
    assert abs(table.rows[0][1] - 0.21995) < 1e-5
    assert table.meta["cutoff"] == 30 and table.meta["eta"] == 1.0


def test_fig3_quoted_rows(monkeypatch):
    monkeypatch.setattr(cli, "ALPHA_GRID", [0.01, 0.5, 1.0])
    table = cmd_fig3(_args("fig3"))
    rows = {round(r[0], 3): r for r in table.rows}
    assert rows[0.01][1] < 0.002 and rows[0.01][2] > 0.99999
    assert abs(rows[0.5][1] - 0.083) < 0.002 and abs(rows[0.5][2] - 0.99999) < 1e-5
    assert abs(rows[1.0][1] - 0.313) < 0.002 and abs(rows[1.0][2] - 0.997) < 1e-3


def test_fig4_small_grid(monkeypatch):
    monkeypatch.setattr(cli, "FIG4_GRID", [0.8])
    table = cmd_fig4(_args("fig4", "--max-n", "2"))
    (alpha, n_star, f_star), = table.rows
    assert alpha == 0.8
    assert n_star in (1, 2)
    assert f_star > 0.999


def test_fig4_search_ends_at_the_first_degenerate_depth(capsys):
    # each target's schedules fall below the probability floor from n = 18
    # to 23 on; deeper searches print the default table's rows
    assert main(["fig4", "--max-n", "20"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    golden = Path(__file__).with_name("golden") / "fig4.csv"
    assert rows == [ln for ln in golden.read_text().splitlines() if not ln.startswith("#")]


def test_purify_table_shape_and_ranges():
    table = cmd_purify(_args("purify"))
    assert table.columns == ["p", "f_initial", "f_after", "probability"]
    assert [r[0] for r in table.rows] == [0.4, 0.25, 0.05]
    for _, f0, f1, prob in table.rows:
        assert 0.0 <= f0 <= 1.0 and 0.0 <= f1 <= 1.0 and 0.0 <= prob <= 1.0
        assert f1 > f0
    assert abs(table.rows[0][1] - 0.60) < 0.01


def test_amplify_zero_iterations_echo():
    table = cmd_amplify(_args("amplify", "--alpha-target", "0.5", "--iterations", "0",
                              "--source", "squeezed-photon"))
    assert len(table.rows) == 1
    stage, alpha, phi, fid, prob, purity, leak = table.rows[0]
    assert stage == 0 and prob == 1.0
    assert abs(alpha - 0.5) < 1e-12 and abs(phi - math.pi) < 1e-12
    assert abs(fid - 0.99999) < 1e-4
    assert "r" not in table.meta  # the optimal r is not echoed
    table = cmd_amplify(_args("amplify", "--alpha-target", "0.5", "--r", "0.1"))
    assert table.meta["r"] == 0.1 and "# r = 0.1\n" in render_csv(table)


def test_amplify_matches_formula_for_ideal_source():
    from catamp import success_probability
    table = cmd_amplify(_args("amplify", "--alpha-target", "1.0", "--iterations", "1",
                              "--source", "ideal-cat"))
    a = 2 ** -0.5
    want = success_probability(a, a, math.pi, math.pi)
    assert abs(table.rows[1][4] - want) < 1e-5
    assert table.rows[1][3] >= 1 - 1e-6


def test_render_csv_format():
    table = cmd_purify(_args("purify"))
    text = render_csv(table)
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    metas = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# cutoff = ") for ln in metas)
    assert any(ln.startswith("# eta = ") for ln in metas)
    header = lines[len(metas)]
    assert header == "p,f_initial,f_after,probability"
    first = lines[len(metas) + 1].split(",")
    assert first[0] == "0.4"
    assert "." in first[1]  # decimal-point numbers, 12 significant digits


def test_render_json_roundtrip(monkeypatch):
    monkeypatch.setattr(cli, "ALPHA_GRID", [0.5])
    table = cmd_fig2(_args("fig2", "--format", "json"))
    doc = json.loads(render_json(table))
    assert doc["columns"][:2] == ["alpha", "p_odd_odd"]
    assert doc["meta"]["cutoff"] == 30
    assert doc["rows"] == table.rows


def test_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["purify", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_bytes()) > 0


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    # a comment starts at a '#' that begins the line or follows whitespace
    cfg.write_text("# schedule\nalpha_target = 1.0\niterations = 2  # stages\n"
                   "source = squeezed-photon\ncutoff = 24\t# tab\n  # indented\n"
                   "out = res#1.csv\n")
    amplify = _args("amplify").parser
    values = parse_config(str(cfg), amplify)
    assert values == {"alpha_target": 1.0, "iterations": 2,
                      "source": "squeezed-photon", "cutoff": 24, "out": "res#1.csv"}
    bad = tmp_path / "bad.cfg"
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(bad), amplify)  # not written yet
    bad.write_text("alpha_target = 1.0\ntypo_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad), amplify)
    bad.write_text("alpha_target 1.0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{bad}:1: expected 'key = value'")):
        parse_config(str(bad), amplify)
    # a value outside its flag's choices or range is refused where it stands
    for line in ("format = xml", "source = bogus", "cutoff = 2", "cutoff = 100000"):
        bad.write_text(f"alpha_target = 1.0\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{bad}:2: ")):
            parse_config(str(bad), amplify)


@pytest.mark.parametrize("key, value", [
    ("format", "xml"), ("source", "bogus"), ("cutoff", "2"), ("cutoff", "100000"),
    ("iterations", "2.5"), ("eta", "x"),
])
def test_config_values_get_their_flags_messages(tmp_path, capsys, key, value):
    # a config value is read by its flag, so after path:line: it gets the
    # message that `catamp amplify --flag=value` prints after error:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha_target = 1.0\n{key} = {value}\n")
    assert main(["amplify", "--config", str(cfg)]) == 1
    from_config = capsys.readouterr().err
    assert main(["amplify", f"--{key}={value}"]) == 1
    message = capsys.readouterr().err.removeprefix("error: ")
    assert message.startswith(f"argument --{key}: ")
    assert from_config == f"error: {cfg}:2: {message}"


def test_config_keeps_values_that_begin_with_a_dash(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = -0.1\nout = -report.csv\n")
    values = parse_config(str(cfg), _args("amplify").parser)
    assert values == {"r": -0.1, "out": "-report.csv"}


def test_readme_config_example_parses(tmp_path):
    # its source line carries a trailing comment after spaces
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```\n(# schedule\.cfg\n.*?)```", readme.read_text(), re.S).group(1)
    cfg = tmp_path / "schedule.cfg"
    cfg.write_text(block)
    values = parse_config(str(cfg), _args("amplify").parser)
    assert values["source"] == "squeezed-photon" and values["iterations"] == 4


def test_config_key_given_twice_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_target = 1.0\niterations = 2\n# again\niterations = 3\n")
    message = f"{cfg}:4: key 'iterations' already given on line 2"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(str(cfg), _args("amplify").parser)
    assert main(["amplify", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_keys_are_the_running_subcommands_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 4\n")
    assert main(["fig2", "--config", str(cfg)]) == 1
    assert f"{cfg}:1: " in capsys.readouterr().err


def test_fig4_takes_max_n_from_config_and_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FIG4_GRID", [2.0])
    cfg, out = tmp_path / "fig4.cfg", tmp_path / "fig4.json"
    cfg.write_text("max_n = 2\nformat = json\n")
    assert main(["fig4", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["max_n"] == 2 and doc["rows"][0][1] <= 2
    assert main(["fig4", "--config", str(cfg), "--out", str(out), "--max-n", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["max_n"] == 3 and doc["rows"][0][1] == 3


@pytest.mark.parametrize("argv, cutoff", [
    (["fig2"], "40"),
    (["fig4"], "40"),
    (["purify"], "12"),  # purify's rows at cutoff 40 equal those at 30
    (["amplify", "--alpha-target", "2.0", "--iterations", "3"], "40"),
])
def test_every_simulation_flag_moves_its_table(argv, cutoff, monkeypatch):
    monkeypatch.setattr(cli, "ALPHA_GRID", [0.5, 1.5, 2.5])
    monkeypatch.setattr(cli, "FIG4_GRID", [1.5, 2.5])

    def data_rows(*flags):
        args = _args(*argv, *flags)
        return [ln for ln in render_csv(args.run(args)).splitlines() if not ln.startswith("#")]

    default = data_rows()
    for flags in (["--eta", "0.6"], ["--cutoff", cutoff]):
        assert data_rows(*flags) != default, flags


def test_fig3_refuses_the_flags_it_would_not_read(capsys):
    assert main(["fig3", "--eta", "0.3"]) == 1
    assert main(["fig3", "--cutoff", "12"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_runs_amplify_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "report.json"
    cfg.write_text("alpha_target = 1.0\niterations = 1\nsource = ideal-cat\n"
                   "format = json\n")
    assert main(["amplify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["iterations"] == 1
    assert len(doc["rows"]) == 2
    fidelities = [row[3] for row in doc["rows"]]
    assert all(0.0 <= f <= 1.0 for f in fidelities)


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_target = 1.0\niterations = 0\ncutoff = 30\nformat = csv\n")
    assert main(["amplify", "--config", str(cfg), "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["meta"]["cutoff"] == 30


def test_exit_codes(tmp_path, capsys):
    assert main(["amplify"]) == 1  # alpha_target missing
    assert main(["fig2", "--cutoff", "2"]) == 1
    assert main(["nonsense"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["purify", "--config", str(bad)]) == 1
    # a negative iteration range and squeezing for an ideal cat are bad input
    assert main(["fig4", "--max-n", "-1"]) == 1
    # from target 1.7 on, the winning schedule's input leaks past cutoff 8
    assert main(["fig4", "--cutoff", "8"]) == 1
    assert main(["amplify", "--alpha-target", "1.0", "--source", "ideal-cat",
                 "--r", "0.3"]) == 1
    # sqrt(2)^3000 overflows: the schedule is refused, not a traceback
    capsys.readouterr()
    assert main(["amplify", "--alpha-target", "2", "--iterations", "3000"]) == 1
    assert capsys.readouterr().err.startswith("error: stage-0 amplitude")
    # so is a target whose square underflows to 0 in the squeezing optimizer
    assert main(["amplify", "--alpha-target", "1e-300"]) == 1
    assert capsys.readouterr().err.startswith("error: cat amplitude")
    # eta = 0 kills every click: numerical degeneracy is exit code 2
    assert main(["amplify", "--alpha-target", "1.0", "--iterations", "1",
                 "--eta", "0.0"]) == 2
    assert main(["fig4", "--eta", "0.0"]) == 2
    capsys.readouterr()
    # so is a schedule deep enough that alpha_i ~ 1e-9 starves the herald
    assert main(["amplify", "--alpha-target", "2.0", "--iterations", "60"]) == 2
    assert capsys.readouterr().err.startswith("degenerate:")


def test_main_lets_program_errors_propagate(monkeypatch):
    # bad input raises ValueError (ConfigError is one) and exits 1; any
    # other exception is a bug and keeps its traceback
    def broken(args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "cmd_fig3", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["fig3"])


def test_importing_the_package_loads_no_scipy():
    src = Path(catamp.__file__).resolve().parents[1]
    code = "import sys, catamp; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cutoff_beyond_the_memory_budget_is_refused_before_allocation(tmp_path, capsys):
    top = cli.MAX_CUTOFF
    assert _args("fig2", "--cutoff", str(top)).cutoff == top
    with pytest.raises(ConfigError):
        _args("fig2", "--cutoff", str(top + 1))
    assert 16 * top ** 4 <= 256 * 2 ** 20 < 16 * (top + 1) ** 4
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("cutoff = 100000\n")
    for argv in (["fig2", "--cutoff", "100000"], ["fig2", "--config", str(cfg)]):
        tracemalloc.start()
        try:
            assert main(argv) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 100000-state pair array would take 1.6e21 bytes
        assert "cutoff" in capsys.readouterr().err


def test_unwritable_output_path_is_config_error():
    assert main(["purify", "--out", "/nonexistent-dir/t.csv"]) == 1
