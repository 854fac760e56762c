"""The benchmark's workloads: seeded op streams, the ops, and their gates.

Each workload turns a seed into a stream of op specs and runs one op per
spec through catamp's public API, always looked up on the module at call
time so that a traced run sees its wrappers. ``check`` is the correctness
gate: it compares an op's output with a closed form or a recorded value,
never with a second run of the simulator.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import catamp
import catamp.cli

CUTOFF = 30
PI = math.pi
SOURCE_KINDS = ("ideal-cat", "squeezed-photon", "mixed-photon")

# At cutoff 30 the conditioning circuit fits the basis for amplitudes up to
# 1.75; beyond that simulated probabilities carry truncation error.
FITS = 1.75
# |P_sim - success_probability| where the circuit fits (measured <= 7e-6).
P_TOL = 5e-5
# |F0_sim - closed form| for a stage-0 source that fits (measured <= 3e-8).
F0_TOL = 1e-5
# |F_final - recorded|: 50x the documented truncation fix dF*(2.5) ~ 2e-5.
F_RECORDED_TOL = 1e-3
# |alpha^2 sech^2(r) - 3 tanh(r)| at the reported optimum.
STATIONARY_TOL = 1e-9
# identities that hold to round-off (ideal-cat fidelity, mixed = (1-p) F)
IDENTITY_TOL = 1e-9

# The largest |dP| of the fig2 range sits at alpha = beta = 2.5; every
# workload reports it, so these four ops are the accuracy probe.
ANCHORS = ((2.5, 2.5, PI, PI), (2.5, 2.5, 0.0, 0.0), (2.5, 2.5, 0.0, PI),
           (2.5, 2.5, PI, 0.0))

RECORDED_PATH = Path(__file__).with_name("recorded.json")


def stage_probability(alpha, beta, phi_a, phi_b, eta=1.0) -> float:
    """Success probability of one simulated stage on pure cat inputs."""
    stage = catamp.StageParams.plan(alpha, beta, phi_a, phi_b, eta=eta)
    return catamp.amplify_once(catamp.cat_state(alpha, phi_a, cutoff=CUTOFF),
                               catamp.cat_state(beta, phi_b, cutoff=CUTOFF),
                               stage).probability


def anchor_prob_error() -> float:
    return max(abs(stage_probability(*a) - catamp.success_probability(*a)) for a in ANCHORS)


class Workload:
    """A seeded op stream with its op, gate and result table."""

    name = ""
    columns: tuple = ()
    pass_ops: int | None = None  # ops per pass, for streams made of passes

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: list = []

    def specs(self):
        """Yield (spec, boundary) forever; a run may stop only after a
        boundary. Each call restarts the same seeded stream."""
        raise NotImplementedError

    def warmup(self, spec) -> None:
        """Build what the first op needs at this cutoff (U1, herald, ...)."""
        self.execute(spec)

    def execute(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> str | None:
        """Record the op's table row; return an error message if the gate fails."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Gates over the whole run; each message counts as one failed op."""
        return []

    def prob_abs_err_max(self) -> float:
        """Largest |P_sim - success_probability| at unit efficiency; outside
        pure-sweep it comes from the four anchor ops, run after the timing."""
        return anchor_prob_error()

    def render(self) -> str:
        table = catamp.cli.Table({"workload": self.name, "seed": self.seed, "cutoff": CUTOFF},
                                 list(self.columns), self.rows)
        return catamp.cli.render_csv(table)


class PureSweep(Workload):
    """amplify_once on pure cat inputs over 96 (alpha, beta) pairs, cycled.

    The pairs have more distinct splitting ratios than the U1 cache holds
    (64), so cycling them rebuilds U1 on every op.
    """

    name = "pure-sweep"
    columns = ("alpha", "beta", "phi_a", "phi_b", "eta", "probability", "fidelity")
    pool_size = 96

    def __init__(self, seed: int):
        super().__init__(seed)
        self.max_err = 0.0
        rng = random.Random(seed)
        pool = [(a, b, pa, pb, 1.0) for a, b, pa, pb in ANCHORS]
        ratios = {1.0}
        phases = ((PI, PI), (0.0, 0.0), (0.0, PI), (PI, 0.0), None)
        while len(pool) < self.pool_size:
            a, b = round(rng.uniform(0.2, 2.5), 3), round(rng.uniform(0.2, 2.5), 3)
            ratio = round(b / a, 9)
            if ratio in ratios:
                continue
            ratios.add(ratio)
            ph = rng.choice(phases) or (round(rng.uniform(0.0, 2 * PI), 4),
                                        round(rng.uniform(0.0, 2 * PI), 4))
            eta = 1.0 if rng.random() < 0.75 else round(rng.uniform(0.3, 0.95), 3)
            pool.append((a, b, ph[0], ph[1], eta))
        self.pool = pool

    def specs(self):
        while True:
            for spec in self.pool:
                yield spec, True

    def execute(self, spec):
        a, b, pa, pb, eta = spec
        stage = catamp.StageParams.plan(a, b, pa, pb, eta=eta)
        return catamp.amplify_once(catamp.cat_state(a, pa, cutoff=CUTOFF),
                                   catamp.cat_state(b, pb, cutoff=CUTOFF), stage)

    def check(self, spec, out):
        a, b, pa, pb, eta = spec
        p, f = out.probability, out.fidelity
        self.rows.append([a, b, pa, pb, eta, p, f])
        if not (0.0 < p <= 1.0 + 1e-9 and 0.0 <= f <= 1.0 + 1e-9):
            return f"{spec}: probability {p} or fidelity {f} out of range"
        closed = catamp.success_probability(a, b, pa, pb)
        if eta == 1.0:
            self.max_err = max(self.max_err, abs(p - closed))
        if max(a, b) > FITS:
            return None
        if eta == 1.0 and abs(p - closed) > P_TOL:
            return f"{spec}: |P - closed form| = {abs(p - closed):.2e} > {P_TOL}"
        if p > closed + P_TOL:
            return f"{spec}: P = {p} above the unit-efficiency closed form {closed}"
        return None

    def prob_abs_err_max(self) -> float:
        return self.max_err


class DeepSchedule(Workload):
    """run_schedule(plan_schedule(target, n), source) for n = 0..6.

    A pass is every n for each (source, target) below, in a seeded order;
    runs stop only at pass ends, so every run times the same ops and the
    seed moves their order and the mixed source's p. Input rank grows to 16
    (2.5, n = 2) and to 8-11 at n >= 4 on 2.5. The small targets fill the
    middle of the cost range, so p50 and p90 fall among ops of similar cost.
    A pass is 56 ops and 14-16 s on one core: a 30 s run times two or three.
    """

    name = "deep-schedule"
    columns = ("source", "p", "target", "n", "fidelity", "probability")
    squeezed_targets = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.5)
    mixed_targets = (0.5,)
    mixed_p = (0.05, 0.15, 0.25)
    max_n = 6
    pass_ops = (max_n + 1) * (len(squeezed_targets) + len(mixed_targets))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.recorded = json.loads(RECORDED_PATH.read_text())
        self.seen: dict[str, dict[int, float]] = {}

    @staticmethod
    def key(kind, p, target) -> str:
        return f"{kind}|p={p}|{target}"

    def specs(self):
        rng = random.Random(self.seed)
        rounds = ([("squeezed-photon", t) for t in self.squeezed_targets]
                  + [("mixed-photon", t) for t in self.mixed_targets])
        while True:
            ops = []
            for kind, t in rounds:
                p = rng.choice(self.mixed_p) if kind == "mixed-photon" else 0.0
                ops += [(kind, p, t, n) for n in range(self.max_n + 1)]
            rng.shuffle(ops)
            for i, spec in enumerate(ops):
                yield spec, i == len(ops) - 1

    def warmup(self, spec):
        kind, p, t, _ = spec
        catamp.run_schedule(catamp.plan_schedule(t, 1), catamp.SourceModel(kind, p=p),
                            cutoff=CUTOFF)

    def execute(self, spec):
        kind, p, t, n = spec
        return catamp.run_schedule(catamp.plan_schedule(t, n), catamp.SourceModel(kind, p=p),
                                   cutoff=CUTOFF)

    def check(self, spec, out):
        kind, p, t, n = spec
        final = out[-1].fidelity
        self.rows.append([kind, p, t, n, final, out[-1].probability])
        if len(out) != n + 1:
            return f"{spec}: {len(out)} results for {n} stages"
        key = self.key(kind, p, t)
        self.seen.setdefault(key, {})[n] = final
        alpha_i = t / math.sqrt(2.0) ** n
        if alpha_i <= FITS:
            r = catamp.optimal_squeezing(alpha_i)[0]
            # the squeezed vacuum is even and the odd cat odd, so only the
            # (1 - p) photon part overlaps the target
            closed = (1.0 - p) * catamp.squeezed_photon_cat_fidelity(r, alpha_i)
            if abs(out[0].fidelity - closed) > F0_TOL:
                return f"{spec}: stage-0 |F - closed form| = {abs(out[0].fidelity - closed):.2e}"
        want = self.recorded[key][n]
        if abs(final - want) > F_RECORDED_TOL:
            return f"{spec}: final fidelity {final:.6f}, recorded {want:.6f}"
        return None

    def finish(self):
        errors = []
        for key, fids in self.seen.items():
            if len(fids) <= self.max_n:
                continue
            rec = self.recorded[key]
            n_run = max(fids, key=fids.get)
            if rec[n_run] < max(rec) - F_RECORDED_TOL:
                errors.append(f"{key}: argmax n = {n_run}, recorded "
                              f"{max(range(len(rec)), key=rec.__getitem__)}")
        return errors


class AnalyticSweep(Workload):
    """One alpha grid point per op: the closed forms, the squeezing
    optimizer and every source kind's prepared state and fidelity."""

    name = "analytic-sweep"
    columns = ("alpha", "p", "r_star", "f_star", "f_ideal", "f_squeezed", "f_mixed",
               "probability", "homodyne_error")

    def specs(self):
        rng = random.Random(self.seed)
        while True:
            yield (round(rng.uniform(0.05, 2.5), 4), round(rng.uniform(0.02, 0.5), 3)), True

    def execute(self, spec):
        alpha, p = spec
        r, f_star = catamp.optimal_squeezing(alpha)
        target = catamp.cat_state(alpha, PI, cutoff=CUTOFF)
        fids = []
        for kind in SOURCE_KINDS:
            source = catamp.SourceModel(kind, p=p if kind == "mixed-photon" else 0.0)
            state = catamp.prepare_source(source, alpha, cutoff=CUTOFF)
            if isinstance(state, catamp.MultiModeState):
                state = catamp.projector(state)
            fids.append(catamp.fidelity_mixed(state, target))
        return (r, f_star, *fids, catamp.success_probability(alpha, alpha, PI, PI),
                catamp.homodyne_error(alpha))

    def check(self, spec, out):
        alpha, p = spec
        r, f_star, f_ideal, f_sq, f_mixed, prob, herr = out
        self.rows.append([alpha, p, *out])
        residual = alpha * alpha / math.cosh(r) ** 2 - 3.0 * math.tanh(r)
        if abs(residual) > STATIONARY_TOL:
            return f"{spec}: stationarity residual {residual:.2e}"
        if not (0.0 < f_star <= 1.0 and 0.0 <= prob <= 1.0 and 0.0 < herr <= 0.5):
            return f"{spec}: closed form out of range ({f_star}, {prob}, {herr})"
        if abs(f_ideal - 1.0) > IDENTITY_TOL:
            return f"{spec}: ideal-cat fidelity {f_ideal}"
        if abs(f_mixed - (1.0 - p) * f_sq) > IDENTITY_TOL:
            return f"{spec}: mixed fidelity {f_mixed} != (1 - p) x {f_sq}"
        if alpha <= FITS and abs(f_sq - f_star) > F0_TOL:
            return f"{spec}: squeezed-photon |F - closed form| = {abs(f_sq - f_star):.2e}"
        return None


WORKLOADS = {w.name: w for w in (PureSweep, DeepSchedule, AnalyticSweep)}
