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
from catamp.cli import (ConfigError, RunConfig, cmd_amplify, cmd_fig2,
                        cmd_fig3, cmd_fig4, cmd_purify, main, parse_config,
                        render_csv, render_json)


def test_run_config_validation():
    RunConfig()
    with pytest.raises(ConfigError):
        RunConfig(cutoff=4)
    with pytest.raises(ConfigError):
        RunConfig(eta=1.5)
    with pytest.raises(ConfigError):
        RunConfig(format="xml")


def test_fig2_rows_cross_check_formula(monkeypatch):
    cfg = RunConfig()
    monkeypatch.setattr(cli, "ALPHA_GRID", [2 ** -0.5, 1.0, 1.5])
    table = cmd_fig2(cfg)
    assert table.columns[:4] == ["alpha", "p_odd_odd", "p_even_even", "p_even_odd"]
    for row in table.rows:
        for formula, sim in zip(row[1:4], row[4:7]):
            assert abs(formula - sim) < 1e-5
        assert all(0.0 <= v <= 1.0 for v in row[1:])
    assert abs(table.rows[0][1] - 0.21995) < 1e-5
    assert table.meta["cutoff"] == 30 and table.meta["eta"] == 1.0


def test_fig3_quoted_rows(monkeypatch):
    monkeypatch.setattr(cli, "ALPHA_GRID", [0.01, 0.5, 1.0])
    table = cmd_fig3(RunConfig())
    rows = {round(r[0], 3): r for r in table.rows}
    assert rows[0.01][1] < 0.002 and rows[0.01][2] > 0.99999
    assert abs(rows[0.5][1] - 0.083) < 0.002 and abs(rows[0.5][2] - 0.99999) < 1e-5
    assert abs(rows[1.0][1] - 0.313) < 0.002 and abs(rows[1.0][2] - 0.997) < 1e-3


def test_fig4_small_grid(monkeypatch):
    monkeypatch.setattr(cli, "FIG4_GRID", [0.8])
    table = cmd_fig4(RunConfig(), max_n=2)
    (alpha, n_star, f_star), = table.rows
    assert alpha == 0.8
    assert n_star in (1, 2)
    assert f_star > 0.999


def test_purify_table_shape_and_ranges():
    table = cmd_purify(RunConfig())
    assert table.columns == ["p", "f_initial", "f_after", "probability"]
    assert [r[0] for r in table.rows] == [0.4, 0.25, 0.05]
    for _, f0, f1, prob in table.rows:
        assert 0.0 <= f0 <= 1.0 and 0.0 <= f1 <= 1.0 and 0.0 <= prob <= 1.0
        assert f1 > f0
    assert abs(table.rows[0][1] - 0.60) < 0.01


def test_amplify_zero_iterations_echo():
    table = cmd_amplify(RunConfig(), {"alpha_target": 0.5, "iterations": 0,
                                      "source": "squeezed-photon"})
    assert len(table.rows) == 1
    stage, alpha, phi, fid, prob, purity, leak = table.rows[0]
    assert stage == 0 and prob == 1.0
    assert abs(alpha - 0.5) < 1e-12 and abs(phi - math.pi) < 1e-12
    assert abs(fid - 0.99999) < 1e-4


def test_amplify_matches_formula_for_ideal_source():
    from catamp import success_probability
    table = cmd_amplify(RunConfig(), {"alpha_target": 1.0, "iterations": 1,
                                      "source": "ideal-cat"})
    a = 2 ** -0.5
    want = success_probability(a, a, math.pi, math.pi)
    assert abs(table.rows[1][4] - want) < 1e-5
    assert table.rows[1][3] >= 1 - 1e-6


def test_render_csv_format():
    table = cmd_purify(RunConfig())
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
    table = cmd_fig3(RunConfig(format="json"))
    doc = json.loads(render_json(table))
    assert doc["columns"] == ["alpha", "r_star", "f_max"]
    assert doc["meta"]["cutoff"] == 30


def test_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["purify", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_bytes()) > 0


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# schedule\nalpha_target = 1.0\niterations = 2\n"
                   "source = squeezed-photon\ncutoff = 24\n")
    values = parse_config(str(cfg))
    assert values == {"alpha_target": 1.0, "iterations": 2,
                      "source": "squeezed-photon", "cutoff": 24}
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha_target = 1.0\ntypo_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))
    # a value outside its flag's choices is refused where it stands
    for line in ("format = xml", "source = bogus"):
        bad.write_text(f"alpha_target = 1.0\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{bad}:2: ")):
            parse_config(str(bad))


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
    # eta = 0 kills every click: numerical degeneracy is exit code 2
    assert main(["amplify", "--alpha-target", "1.0", "--iterations", "1",
                 "--eta", "0.0"]) == 2
    capsys.readouterr()
    # so is a schedule deep enough that alpha_i ~ 1e-9 starves the herald
    assert main(["amplify", "--alpha-target", "2.0", "--iterations", "60"]) == 2
    assert capsys.readouterr().err.startswith("degenerate:")


def test_importing_the_package_loads_no_scipy():
    src = Path(catamp.__file__).resolve().parents[1]
    code = "import sys, catamp; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cutoff_beyond_the_memory_budget_is_refused_before_allocation(capsys):
    RunConfig(cutoff=RunConfig.MAX_CUTOFF)
    with pytest.raises(ConfigError):
        RunConfig(cutoff=RunConfig.MAX_CUTOFF + 1)
    assert 16 * RunConfig.MAX_CUTOFF ** 4 <= 256 * 2 ** 20 < 16 * (RunConfig.MAX_CUTOFF + 1) ** 4
    tracemalloc.start()
    try:
        assert main(["fig2", "--cutoff", "100000"]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 100000-state pair array would take 1.6e21 bytes
    assert "cutoff" in capsys.readouterr().err


def test_unwritable_output_path_is_config_error():
    assert main(["purify", "--out", "/nonexistent-dir/t.csv"]) == 1
