"""The public API and the README stay in step."""

import argparse
import ast
import re
from pathlib import Path

import catamp
from catamp import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in catamp.__all__ if not hasattr(catamp, name)]
    assert not missing


def test_every_exported_name_is_used_outside_tests():
    # a use is a name read in code, not its definition, an import, a
    # docstring or a string such as a benchmark span's target; the code is
    # the package's modules, __init__ aside, and the benchmark's
    sources = [p for p in (ROOT / "src" / "catamp").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").rglob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(catamp.__all__) - used)
    assert not unused


def test_readme_python_quickstart_runs():
    text = README.read_text()
    section = text.split("## Python quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    exec(compile(block.group(1), "README quickstart", "exec"), {})


def test_readme_lists_the_parsers_subcommands_and_shared_flags():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    # a shared flag is one that every subcommand takes
    flag_sets = [{opt for act in p._actions for opt in act.option_strings}
                 for p in subparsers.choices.values()]
    shared = set.intersection(*flag_sets) - {"-h", "--help"}
    text = README.read_text().split("## Command line", 1)[1]
    listed, flags = text.split("Shared flags:", 1)
    listed = listed.split("Subcommands:", 1)[1]
    flags = flags.split("\n\n", 1)[0]
    assert set(re.findall(r"`([^`]+)`", listed)) == set(subparsers.choices)
    assert {item.split()[0] for item in re.findall(r"`([^`]+)`", flags)} == shared


def test_readme_lists_each_config_key():
    # the config paragraph's key lists for amplify and fig4 are the
    # option dests of those subcommands' parsers, help and config aside
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    text = README.read_text().split("Every subcommand takes `--config`", 1)[1]
    listed = dict(re.findall(r"for `(\w+)`: ([^;)]*)", text.split("\n\n", 1)[0]))
    assert sorted(listed) == ["amplify", "fig4"]
    for name, keys in listed.items():
        dests = {act.dest for act in subparsers.choices[name]._actions
                 if act.option_strings} - {"help", "config"}
        assert set(re.findall(r"`([^`]+)`", keys)) == dests, name
