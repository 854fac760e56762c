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
from dataclasses import dataclass, fields

from .detection import DegenerateProbabilityError
from .fock import DEFAULT_CUTOFF, fidelity_mixed
from .protocol import (MAX_ALPHA, SOURCE_KINDS, Schedule, SourceModel, StageParams,
                       amplify_once, best_schedule, optimal_squeezing, prepare_source,
                       run_schedule, success_probability)
from .states import cat_state


class ConfigError(ValueError):
    """Invalid flags, config keys, or parameter values (exit code 1)."""


@dataclass
class RunConfig:
    cutoff: int = DEFAULT_CUTOFF
    eta: float = 1.0
    format: str = "csv"
    out: str | None = None

    # a full-rank complex mixed input makes a c^2 x c^2 complex128 array
    # of branch pairs (16 cutoff^4 bytes; real inputs need 8 cutoff^4);
    # 64 is the largest cutoff at which the complex array fits in 256 MiB.
    # While U1 mixes them, its padded layout adds rows: 4544 instead of
    # 4096 at c = 64.
    MAX_CUTOFF = 64

    def __post_init__(self):
        if not 8 <= self.cutoff <= self.MAX_CUTOFF:
            raise ConfigError(f"cutoff must lie in [8, {self.MAX_CUTOFF}], got {self.cutoff}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


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


def _emit(table: Table, cfg: RunConfig) -> None:
    text = render_csv(table) if cfg.format == "csv" else render_json(table)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc


def _grid(start: float, stop: float, step: float) -> list:
    n = int(round((stop - start) / step))
    return [round(start + k * step, 10) for k in range(n + 1)]


ALPHA_GRID = _grid(0.05, MAX_ALPHA, 0.05)  # fig2 and fig3
FIG4_GRID = _grid(0.5, MAX_ALPHA, 0.1)
PURIFY_P = [0.4, 0.25, 0.05]
PURIFY_ALPHA = 0.5


def cmd_fig2(cfg: RunConfig) -> Table:
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
            stage = StageParams(a, a, pa, pb, cfg.eta)
            res = amplify_once(cat_state(a, pa, cutoff=cfg.cutoff),
                               cat_state(a, pb, cutoff=cfg.cutoff), stage)
            row.append(_unit(res.probability))
        rows.append(row)
    cols = (["alpha"] + [f"p_{n}" for n, _, _ in phases]
            + [f"sim_{n}" for n, _, _ in phases])
    return Table({"command": "fig2", "cutoff": cfg.cutoff, "eta": cfg.eta}, cols, rows)


def cmd_fig3(cfg: RunConfig) -> Table:
    """Best squeezing and maximized odd-cat fidelity along alpha."""
    rows = []
    for a in ALPHA_GRID:
        r_star, f_max = optimal_squeezing(a)
        rows.append([a, r_star, _unit(f_max)])
    return Table({"command": "fig3", "cutoff": cfg.cutoff, "eta": cfg.eta},
                 ["alpha", "r_star", "f_max"], rows)


def cmd_fig4(cfg: RunConfig, max_n: int = 6) -> Table:
    """Best iteration count and final fidelity along the target amplitude."""
    source = SourceModel("squeezed-photon")
    rows = []
    for a in FIG4_GRID:
        n_star, f_star = best_schedule(a, max_n=max_n, source=source, cutoff=cfg.cutoff,
                                       eta=cfg.eta)
        rows.append([a, n_star, _unit(f_star)])
    return Table({"command": "fig4", "cutoff": cfg.cutoff, "eta": cfg.eta,
                  "max_n": max_n},
                 ["alpha_target", "n_star", "f_star"], rows)


def cmd_purify(cfg: RunConfig) -> Table:
    """Fidelity before and after one iteration for imperfect photon sources.

    ``f_after`` is exact branch-pairwise propagation. The paper's table
    values (0.89 / 0.941 / 0.990 at p = 0.4 / 0.25 / 0.05) are the
    idealisation that treats the squeezed-photon x squeezed-vacuum
    branches as orthogonal to the target; at p = 0.4 that gives 0.8904,
    exact propagation 0.9062.
    """
    r_star, _ = optimal_squeezing(PURIFY_ALPHA)
    stage = StageParams(PURIFY_ALPHA, PURIFY_ALPHA, math.pi, math.pi, cfg.eta)
    rows = []
    for p in PURIFY_P:
        rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=p), PURIFY_ALPHA,
                             cutoff=cfg.cutoff)
        f_init = fidelity_mixed(rho, cat_state(PURIFY_ALPHA, math.pi, cutoff=cfg.cutoff))
        res = amplify_once(rho, rho, stage)
        rows.append([p, _unit(f_init), _unit(res.fidelity), _unit(res.probability)])
    return Table({"command": "purify", "cutoff": cfg.cutoff, "eta": cfg.eta,
                  "alpha_i": PURIFY_ALPHA, "r": r_star},
                 ["p", "f_initial", "f_after", "probability"], rows)


def cmd_amplify(cfg: RunConfig, params: dict) -> Table:
    """Run an ad-hoc amplification schedule; one row per stage."""
    alpha_target = params.get("alpha_target")
    if alpha_target is None:
        raise ConfigError("amplify needs alpha_target (config key or flag)")
    n = params.get("iterations", 0)
    kind = params.get("source", "squeezed-photon")
    source = SourceModel(kind, r=params.get("r"), p=params.get("p", 0.0))
    sched = Schedule(alpha_target, n, cfg.eta)
    results = run_schedule(sched, source, cutoff=cfg.cutoff)
    rows = []
    for k, res in enumerate(results):
        rows.append([k, res.nominal_target.alpha, res.nominal_target.phi,
                     _unit(res.fidelity), _unit(res.probability), _unit(res.purity),
                     res.leakage_warning])
    meta = {"command": "amplify", "cutoff": cfg.cutoff, "eta": cfg.eta,
            "alpha_target": alpha_target, "iterations": n, "source": kind,
            "alpha_i": sched.alpha_i}
    if source.r is not None:
        meta["r"] = source.r
    if source.kind == "mixed-photon":
        meta["p"] = source.p
    return Table(meta, ["stage", "target_alpha", "target_phi", "fidelity",
                        "probability", "purity", "leakage"], rows)


# ---------------------------------------------------------------------------
# Config file and argument handling.
# ---------------------------------------------------------------------------

def parse_config(path: str) -> dict:
    """Flat key = value file; unknown keys are errors, not warnings.

    The keys are the ``amplify`` subcommand's flags, ``--config`` aside,
    spelled with ``_``; each value is cast and checked as its flag is.
    """
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {act.dest: act for act in subparsers.choices["amplify"]._actions
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
        flag = flags.get(key)
        if flag is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = (flag.type or str)(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        if flag.choices is not None and values[key] not in flag.choices:
            raise ConfigError(f"{path}:{lineno}: {key} must be one of "
                              f"{tuple(flag.choices)}, got {val!r}")
    return values


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; invalid usage is exit 1 here
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cutoff", type=int,
                        help=f"Fock cutoff per mode (default {DEFAULT_CUTOFF})")
    common.add_argument("--eta", type=float, help="detector quantum efficiency (default 1.0)")
    common.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--config", help="flat key=value config file")

    parser = _Parser(prog="catamp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig2", parents=[common],
                   help="success probabilities vs alpha (formula and simulation)")
    sub.add_parser("fig3", parents=[common],
                   help="optimal squeezing and max fidelity vs alpha")
    p4 = sub.add_parser("fig4", parents=[common],
                        help="best iteration count and fidelity vs target amplitude")
    p4.add_argument("--max-n", type=int, default=6, help="largest iteration count tried")
    pa = sub.add_parser("amplify", parents=[common],
                        help="run one schedule from a config file")
    pa.add_argument("--alpha-target", type=float)
    pa.add_argument("--iterations", type=int)
    pa.add_argument("--source", choices=SOURCE_KINDS)
    pa.add_argument("--r", type=float)
    pa.add_argument("--p", type=float)
    sub.add_parser("purify", parents=[common],
                   help="purification table for imperfect photon sources")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the config file's values, each overridden by a flag that is given
        opts = parse_config(args.config) if args.config else {}
        opts.update((k, v) for k, v in vars(args).items() if v is not None)
        cfg = RunConfig(**{f.name: opts[f.name] for f in fields(RunConfig) if f.name in opts})
        commands = {"fig2": cmd_fig2, "fig3": cmd_fig3, "purify": cmd_purify,
                    "fig4": lambda cfg: cmd_fig4(cfg, max_n=opts["max_n"]),
                    "amplify": lambda cfg: cmd_amplify(cfg, opts)}
        _emit(commands[args.command](cfg), cfg)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateProbabilityError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
