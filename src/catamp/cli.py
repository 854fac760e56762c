"""Command-line front end emitting the protocol's standard data tables.

Subcommands reproduce the headline sweeps as machine-readable CSV or
JSON (success probabilities, squeezing optima, best iteration counts,
purification) and run ad-hoc amplification schedules from a config file.
Everything is deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .detection import DegenerateProbabilityError
from .fock import DEFAULT_CUTOFF
from .protocol import (MAX_ALPHA, SOURCE_KINDS, Schedule, SourceModel, StageParams,
                       amplify_once, best_schedule, optimal_squeezing, run_schedule,
                       success_probability)
from .states import cat_state

# a full-rank complex mixed input makes a c^2 x c^2 complex128 array
# of branch pairs (16 cutoff^4 bytes; real inputs need 8 cutoff^4);
# 64 is the largest cutoff at which the complex array fits in 256 MiB.
# While U1 mixes them, its padded layout adds rows: 4544 instead of
# 4096 at c = 64.
MAX_CUTOFF = 64


class ConfigError(ValueError):
    """Invalid flags, config keys, or parameter values (exit code 1)."""


@dataclass
class Table:
    meta: dict
    columns: list
    rows: list


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _unit(value: float) -> float:
    """Clamp round-off excursions so emitted rates stay in [0, 1]."""
    return min(max(float(value), 0.0), 1.0)


def render_csv(table: Table) -> str:
    text = "".join(f"# {k} = {_fmt(v)}\n" for k, v in table.meta.items())
    text += ",".join(table.columns) + "\n"
    # appending to the text's only reference lets CPython grow it in place,
    # so a long table is never held twice, once as lines and once joined
    for row in table.rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    return text


def render_json(table: Table) -> str:
    doc = {"meta": table.meta, "columns": table.columns, "rows": table.rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(table: Table, args: argparse.Namespace) -> None:
    text = render_csv(table) if args.format == "csv" else render_json(table)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc


def _grid(start: float, stop: float, step: float) -> list:
    n = int(round((stop - start) / step))
    return [round(start + k * step, 10) for k in range(n + 1)]


ALPHA_GRID = _grid(0.05, MAX_ALPHA, 0.05)  # fig2 and fig3
FIG4_GRID = _grid(0.5, MAX_ALPHA, 0.1)
PURIFY_P = [0.4, 0.25, 0.05]
PURIFY_ALPHA = 0.5


def cmd_fig2(args: argparse.Namespace) -> Table:
    """Success probabilities along alpha: closed form and simulation.

    At unit efficiency the simulated columns track the closed form to
    3e-5 over the whole grid at the default cutoff.
    """
    phases = (("odd_odd", math.pi, math.pi), ("even_even", 0.0, 0.0),
              ("even_odd", 0.0, math.pi))
    rows = []
    for a in ALPHA_GRID:
        row = [a]
        row += [_unit(success_probability(a, a, pa, pb)) for _, pa, pb in phases]
        for _, pa, pb in phases:
            stage = StageParams(a, a, pa, pb, args.eta)
            res = amplify_once(cat_state(a, pa, cutoff=args.cutoff),
                               cat_state(a, pb, cutoff=args.cutoff), stage)
            row.append(_unit(res.probability))
        rows.append(row)
    cols = (["alpha"] + [f"p_{n}" for n, _, _ in phases]
            + [f"sim_{n}" for n, _, _ in phases])
    return Table({"command": "fig2", "cutoff": args.cutoff, "eta": args.eta}, cols, rows)


def cmd_fig3(args: argparse.Namespace) -> Table:
    """Best squeezing and maximized odd-cat fidelity along alpha: closed
    forms, so the table takes no cutoff and no efficiency."""
    rows = []
    for a in ALPHA_GRID:
        r_star, f_max = optimal_squeezing(a)
        rows.append([a, r_star, _unit(f_max)])
    return Table({"command": "fig3"}, ["alpha", "r_star", "f_max"], rows)


def cmd_fig4(args: argparse.Namespace) -> Table:
    """Best iteration count and final fidelity along the target amplitude."""
    source = SourceModel("squeezed-photon")
    rows = []
    for a in FIG4_GRID:
        n_star, f_star = best_schedule(a, max_n=args.max_n, source=source,
                                       cutoff=args.cutoff, eta=args.eta)
        rows.append([a, n_star, _unit(f_star)])
    return Table({"command": "fig4", "cutoff": args.cutoff, "eta": args.eta,
                  "max_n": args.max_n},
                 ["alpha_target", "n_star", "f_star"], rows)


def cmd_purify(args: argparse.Namespace) -> Table:
    """Fidelity before and after one iteration for imperfect photon sources.

    ``f_after`` is exact branch-pairwise propagation. The paper's table
    values (0.89 / 0.941 / 0.990 at p = 0.4 / 0.25 / 0.05) are the
    idealisation that treats the squeezed-photon x squeezed-vacuum
    branches as orthogonal to the target; at p = 0.4 that gives 0.8904,
    exact propagation 0.9062.
    """
    r_star, _ = optimal_squeezing(PURIFY_ALPHA)
    # one stage whose inputs have amplitude PURIFY_ALPHA
    sched = Schedule(PURIFY_ALPHA * math.sqrt(2.0), 1, args.eta)
    rows = []
    for p in PURIFY_P:
        source = SourceModel("mixed-photon", r=r_star, p=p)
        before, after = run_schedule(sched, source, cutoff=args.cutoff)
        rows.append([p, _unit(before.fidelity), _unit(after.fidelity),
                     _unit(after.probability)])
    return Table({"command": "purify", "cutoff": args.cutoff, "eta": args.eta,
                  "alpha_i": PURIFY_ALPHA, "r": r_star},
                 ["p", "f_initial", "f_after", "probability"], rows)


def cmd_amplify(args: argparse.Namespace) -> Table:
    """Run an ad-hoc amplification schedule; one row per stage."""
    if args.alpha_target is None:
        raise ConfigError("amplify needs alpha_target (config key or flag)")
    source = SourceModel(args.source, r=args.r, p=args.p)
    sched = Schedule(args.alpha_target, args.iterations, args.eta)
    results = run_schedule(sched, source, cutoff=args.cutoff)
    rows = []
    for k, res in enumerate(results):
        rows.append([k, res.nominal_target.alpha, res.nominal_target.phi,
                     _unit(res.fidelity), _unit(res.probability), _unit(res.purity),
                     res.leakage_warning])
    meta = {"command": "amplify", "cutoff": args.cutoff, "eta": args.eta,
            "alpha_target": args.alpha_target, "iterations": args.iterations,
            "source": source.kind, "alpha_i": sched.alpha_i}
    if source.r is not None:
        meta["r"] = source.r
    if source.kind == "mixed-photon":
        meta["p"] = source.p
    return Table(meta, ["stage", "target_alpha", "target_phi", "fidelity",
                        "probability", "purity", "leakage"], rows)


# ---------------------------------------------------------------------------
# Config file and argument handling.
# ---------------------------------------------------------------------------

def parse_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Flat key = value file; unknown keys are errors, not warnings.

    The keys are the subcommand ``parser``'s flags, ``--config`` aside,
    spelled with ``_``; ``parser`` reads each value as ``--flag=value``.
    """
    options = {act.dest: act.option_strings[0] for act in parser._actions
               if act.option_strings and act.dest not in ("help", "config")}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in options:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = getattr(parser.parse_args([f"{options[key]}={val}"]), key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; invalid usage is exit 1 here
    def error(self, message):
        raise ConfigError(message)


def _cutoff(text: str) -> int:
    """``--cutoff``'s type: an integer Fock cutoff in [8, MAX_CUTOFF]."""
    if not (text.strip().isdecimal() and 8 <= int(text) <= MAX_CUTOFF):
        raise argparse.ArgumentTypeError(
            f"cutoff must be an integer in [8, {MAX_CUTOFF}], got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="catamp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, run, simulated, text in (
            ("fig2", cmd_fig2, True, "success probabilities vs alpha (formula and simulation)"),
            ("fig3", cmd_fig3, False, "optimal squeezing and max fidelity vs alpha"),
            ("fig4", cmd_fig4, True, "best iteration count and fidelity vs target amplitude"),
            ("amplify", cmd_amplify, True, "run one schedule from a config file"),
            ("purify", cmd_purify, True, "purification table for imperfect photon sources")):
        p = subs[name] = sub.add_parser(name, help=text)
        p.set_defaults(run=run, parser=p)
        if simulated:
            p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF,
                           help="Fock cutoff per mode (default %(default)s)")
            p.add_argument("--eta", type=float, default=1.0,
                           help="detector quantum efficiency (default %(default)s)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default %(default)s)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="flat key = value file of this subcommand's flags")
    subs["fig4"].add_argument("--max-n", type=int, default=6,
                              help="largest iteration count tried (default %(default)s)")
    pa = subs["amplify"]
    pa.add_argument("--alpha-target", type=float)
    pa.add_argument("--iterations", type=int, default=0, help="stages (default %(default)s)")
    pa.add_argument("--source", choices=SOURCE_KINDS, default="squeezed-photon",
                    help="stage-0 source (default %(default)s)")
    pa.add_argument("--r", type=float, help="source squeezing (default: optimal)")
    pa.add_argument("--p", type=float, default=0.0,
                    help="mixed-photon production inefficiency (default %(default)s)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config file's values replace the defaults; given flags override both
            args.parser.set_defaults(**parse_config(args.config, args.parser))
            args = parser.parse_args(argv)
        _emit(args.run(args), args)
    except ValueError as exc:  # ConfigError and the model's own checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateProbabilityError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
