"""The conditional amplification iteration, schedules, and analytics.

One iteration interferes two small cat-like inputs on a tunable beam
splitter, mixes the dump port with an auxiliary coherent field on a
50:50 beam splitter, and keeps the bright port only when both threshold
detectors click. The output approximates a cat of amplitude
sqrt(alpha^2 + beta^2) whose relative phase is the sum of the input
phases, so iterating grows the amplitude by sqrt(2) per step.

Closed-form companions (success probability, squeezed-photon fidelity
and its optimal squeezing, homodyne discrimination error) are evaluated
independently of the simulator and serve as its oracles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import herald_root
from .fock import DEFAULT_CUTOFF, DensityOperator, MultiModeState, fidelity_mixed, projector
from .optics import _mix_pairs
from .states import CatSpec, cat_state, squeezed_photon, squeezed_vacuum

SOURCE_KINDS = ("ideal-cat", "squeezed-photon", "mixed-photon")
# The largest amplitude validated at the default cutoff: optimizers and CLI grids stop here.
MAX_ALPHA = 2.5
# Below this success probability a stage's conditional state is numerically meaningless.
PROBABILITY_FLOOR = 1e-12
# Truncation leakage above this is surfaced as a warning on results.
LEAKAGE_WARN = 1e-6


class DegenerateProbabilityError(RuntimeError):
    """Conditioning probability fell below ``PROBABILITY_FLOOR``."""


@dataclass(frozen=True)
class StageParams:
    """Settings of one amplification stage: the nominal input amplitudes
    and phases, and the detector efficiency.

    The inputs fix the rest of the circuit. With A = sqrt(alpha^2 +
    beta^2), U1 mixes them at reflectivity beta/A and transmittivity
    alpha/A, and the auxiliary coherent amplitude that feeds the fixed
    50:50 conditioning beam splitter is gamma = 2 alpha beta / A.
    """

    alpha_in: float
    beta_in: float
    phi_a: float
    phi_b: float
    eta: float = 1.0

    def __post_init__(self):
        a, b = self.alpha_in, self.beta_in
        if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
            raise ValueError(f"input amplitudes must be finite and >= 0, got ({a}, {b})")
        if a == 0.0 and b == 0.0:
            raise ValueError("cannot plan a stage for two zero-amplitude inputs")
        if not (math.isfinite(math.hypot(a, b)) and math.isfinite(self.gamma)):
            raise ValueError(f"input amplitudes ({a}, {b}) overflow the stage's derived values")
        if not (math.isfinite(self.phi_a) and math.isfinite(self.phi_b)):
            raise ValueError(f"input phases must be finite, got ({self.phi_a}, {self.phi_b})")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.eta}")

    @property
    def mixing_angle(self) -> float:
        """U1's angle atan2(beta, alpha): exactly pi/4 for equal inputs."""
        return math.atan2(self.beta_in, self.alpha_in)

    @property
    def gamma(self) -> float:
        return 2.0 * self.alpha_in * self.beta_in / math.hypot(self.alpha_in, self.beta_in)

    @property
    def nominal_target(self) -> CatSpec:
        return CatSpec(math.hypot(self.alpha_in, self.beta_in),
                       (self.phi_a + self.phi_b) % (2.0 * math.pi))


@dataclass(frozen=True)
class IterationResult:
    """Conditional output of one stage, judged against its nominal target."""

    output: DensityOperator
    probability: float
    nominal_target: CatSpec
    fidelity: float
    purity: float
    leakage_warning: float


@dataclass(frozen=True)
class SourceModel:
    """What feeds stage 0.

    kind "ideal-cat" prepares the exact odd cat; "squeezed-photon" the
    squeezed single photon (r = None means optimize r for the stage-0
    amplitude); "mixed-photon" the p-weighted mixture of squeezed photon
    and squeezed vacuum produced by an imperfect photon source.
    """

    kind: str
    r: float | None = None
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}, expected one of {SOURCE_KINDS}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"production inefficiency p must lie in [0, 1), got {self.p}")
        if self.kind != "mixed-photon" and self.p != 0.0:
            raise ValueError(f"p applies to mixed-photon sources only, got p={self.p} for {self.kind}")
        if self.kind == "ideal-cat" and self.r is not None:
            raise ValueError(f"r applies to squeezed sources only, got r={self.r} for ideal-cat")


@dataclass(frozen=True)
class Schedule:
    """Recursive amplification plan: n stages from alpha_i = target/sqrt(2)^n.

    Stage k (0-based) amplifies two equal inputs of nominal amplitude
    alpha_i * sqrt(2)^k; each stage's target is the next stage's input.
    Odd inputs make the first output even, and even inputs stay even.
    """

    alpha_target: float
    n_iterations: int
    eta: float = 1.0

    def __post_init__(self):
        if not self.alpha_target > 0.0:
            raise ValueError("target amplitude must be positive")
        if not isinstance(self.n_iterations, numbers.Integral) or self.n_iterations < 0:
            raise ValueError(
                f"iteration count must be a non-negative integer, got {self.n_iterations!r}")
        try:
            alpha_i = self.alpha_i
        except OverflowError:  # sqrt(2)^n passes the largest float from n = 2048 on
            alpha_i = 0.0
        if not 0.0 < alpha_i < math.inf:
            raise ValueError(f"stage-0 amplitude is 0 or inf at n = {self.n_iterations}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.eta}")

    @property
    def alpha_i(self) -> float:
        return self.alpha_target / math.sqrt(2.0) ** self.n_iterations

    @property
    def stages(self) -> tuple[StageParams, ...]:
        stages, phase = [], math.pi
        for k in range(self.n_iterations):
            amp = self.alpha_i * math.sqrt(2.0) ** k
            stages.append(StageParams(amp, amp, phase, phase, self.eta))
            phase = stages[-1].nominal_target.phi
        return tuple(stages)


# perfbench/ calls the planning aliases (ROADMAP item 5 deletes them after item 4)
StageParams.plan = StageParams
plan_schedule = Schedule


def _input_branches(state, label: str):
    """An input's pure branches as the columns sqrt(w_i) v_i, and the
    weight its decomposition discarded."""
    if isinstance(state, MultiModeState):
        return state.amplitudes[:, None], 0.0
    if isinstance(state, DensityOperator):
        weights, vecs, discarded = state.eigenbranches()
        return vecs * np.sqrt(weights), discarded
    raise TypeError(f"{label} input must be a MultiModeState or DensityOperator")


def amplify_once(input_a, input_b, params: StageParams) -> IterationResult:
    """Run one conditional amplification stage.

    Applies U1 to (a, b) and keeps the bright port heralded by both
    detectors clicking, ``Tr_dump[(1 x Pi) U1 (a x b) U1^dag]`` with Pi
    the ``herald_operator`` of the auxiliary |gamma> and detectors,
    applied through its cached square root ``herald_root``. Reports the
    unit-trace output with its success probability, fidelity against the
    nominal target cat, and purity. Mixed inputs are propagated
    branch-pairwise, which is exact for product inputs.

    The stage runs in its inputs' stored dtype: in float64 when both are
    real (cat phases 0 or pi, squeezed states, and the outputs of such
    stages), in complex128 when either is complex.
    """
    a, disc_a = _input_branches(input_a, "first")
    # a schedule feeds one state to both ports: decompose it once, and
    # pass it to both as one array
    b, disc_b = (a, disc_a) if input_b is input_a else _input_branches(input_b, "second")
    cutoff = a.shape[0]
    if b.shape[0] != cutoff:
        raise ValueError(f"cutoff mismatch between inputs: {cutoff} vs {b.shape[0]}")

    root = herald_root(params.eta, params.gamma, cutoff)
    # one column sqrt(w_i w_j) a_i (x) b_j per branch pair, after U1
    pairs = _mix_pairs(params.mixing_angle, a, b)
    # Pi^{1/2} on the dump axis (bright index slowest): rho = Y Y^dag is
    # Hermitian PSD by construction
    y = (root @ pairs).reshape(cutoff, -1)
    rho = y @ y.conj().T
    probability = float(np.trace(rho).real)
    if probability < PROBABILITY_FLOOR:
        raise DegenerateProbabilityError(
            f"conditioning probability {probability:.3e} below floor {PROBABILITY_FLOOR:.0e}")

    output = DensityOperator(0.5 * (rho + rho.conj().T) / probability)
    return _judged(output, probability, params.nominal_target,
                   max(input_a.leakage, input_b.leakage, disc_a, disc_b))


# One pass of the benchmark's deep-schedule workload judges its stages
# against 116 distinct targets, and pure-sweep's pool has 94: all fit.
@lru_cache(maxsize=128)
def _target_cat(alpha: float, phi: float, cutoff: int) -> MultiModeState:
    """The cat a stage is judged against, built once per (alpha, phi,
    cutoff); its amplitudes are read-only, so sharing it is safe."""
    return cat_state(alpha, phi, cutoff=cutoff)


def _judged(output: DensityOperator, probability: float, target: CatSpec,
            leak: float) -> IterationResult:
    """``output`` with its fidelity against the ``target`` cat, its purity
    and ``leak`` as a warning when it passes ``LEAKAGE_WARN``, else 0.0.
    The target is the shared ``cat_state(target.alpha, target.phi,
    cutoff)`` that ``_target_cat`` builds once, so a schedule rerun or a
    sweep that revisits a target does not build its cat again."""
    target_cat = _target_cat(target.alpha, target.phi, output.cutoff)
    return IterationResult(
        output=output,
        probability=probability,
        nominal_target=target,
        fidelity=fidelity_mixed(output, target_cat),
        purity=output.purity(),
        leakage_warning=leak if leak > LEAKAGE_WARN else 0.0,
    )


def prepare_source(source: SourceModel, alpha_i: float, cutoff: int = DEFAULT_CUTOFF):
    """Materialize a source model at stage-0 amplitude ``alpha_i``.

    A mixed-photon source is the imperfect photon source's
    (1-p)|S1><S1| + p|S0><S0|, with S1 the squeezed photon and S0 the
    squeezed vacuum at the same r. Its leakage is the same mixture of the
    two states' deficits.
    """
    if source.kind == "ideal-cat":
        return cat_state(alpha_i, math.pi, cutoff=cutoff)
    r = source.r if source.r is not None else optimal_squeezing(alpha_i)[0]
    s1 = squeezed_photon(r, cutoff=cutoff)
    if source.kind == "squeezed-photon":
        return s1
    s0 = squeezed_vacuum(r, cutoff=cutoff)
    p = source.p
    # projectors kept: faster ops would raise analytic-sweep's op-count-bound RSS (ROADMAP item 4)
    return DensityOperator((1.0 - p) * projector(s1).matrix + p * projector(s0).matrix,
                           leakage=(1.0 - p) * s1.leakage + p * s0.leakage)


def run_schedule(sched: Schedule, source: SourceModel,
                 cutoff: int = DEFAULT_CUTOFF) -> list[IterationResult]:
    """Run every stage of a schedule from a source model.

    Entry 0 describes the prepared stage-0 input itself (probability 1,
    fidelity against the odd cat of amplitude alpha_i); entry k >= 1 the
    output of stage k. Stage 1 takes the prepared input as it is, a pure
    state or a mixture, and each later stage two copies of the previous
    unit-trace output.
    """
    state = prepare_source(source, sched.alpha_i, cutoff=cutoff)
    rho0 = projector(state) if isinstance(state, MultiModeState) else state
    results = [_judged(rho0, 1.0, CatSpec(sched.alpha_i, math.pi), rho0.leakage)]
    for stage in sched.stages:
        res = amplify_once(state, state, stage)
        results.append(res)
        state = res.output
    return results


def best_schedule(alpha_target: float, max_n: int = 6,
                  cutoff: int = DEFAULT_CUTOFF, eta: float = 1.0) -> tuple[int, float]:
    """Pick the iteration count that maximizes the final fidelity.

    For each n in [0, max_n] the stage-0 amplitude is alpha_target /
    sqrt(2)^n, and the source is a squeezed photon squeezed for it; every
    stage has detector efficiency ``eta``. The search ends at the first n
    whose schedule is degenerate (a stage's success probability falls
    below the floor), and raises ``DegenerateProbabilityError`` when that
    n is 1. Returns (n_star, best final fidelity), or raises ValueError
    when any entry of that schedule carries a nonzero
    ``leakage_warning``: the cutoff is then too small to trust it.
    """
    if not 0.0 < alpha_target <= MAX_ALPHA:
        raise ValueError(f"target amplitude must lie in (0, {MAX_ALPHA}], the validated regime")
    if not isinstance(max_n, numbers.Integral) or max_n < 0:
        raise ValueError(
            f"largest iteration count must be a non-negative integer, got {max_n!r}")
    source = SourceModel("squeezed-photon")
    best = None
    for n in range(max_n + 1):
        try:
            results = run_schedule(Schedule(alpha_target, n, eta), source, cutoff=cutoff)
        except DegenerateProbabilityError:
            if n == 1:  # a single stage already fails to herald
                raise
            break  # deeper schedules start from still weaker inputs
        if best is None or results[-1].fidelity > best[-1].fidelity:
            n_star, best = n, results
    leak = max(r.leakage_warning for r in best)
    if leak:
        raise ValueError(f"best schedule for target {alpha_target}, n = {n_star}, warns of "
                         f"leakage {leak:.3g} at cutoff {cutoff}; raise the cutoff")
    return n_star, best[-1].fidelity


# ---------------------------------------------------------------------------
# Closed-form analytics (evaluated independently of the simulator).
# ---------------------------------------------------------------------------

def _one_plus_cos_exp(phi: float, x: float) -> float:
    """1 + cos(phi) e^{-x} without cancellation as x -> 0 at phi = pi."""
    c = math.cos(phi)
    return (1.0 + c) + c * math.expm1(-x)


def success_probability(alpha: float, beta: float, phi_a: float, phi_b: float) -> float:
    """Single-iteration success probability of the double-click herald.

    P = (1 - e^{-2 a^2 b^2 / (a^2+b^2)})^2 (1 + cos(phi_a+phi_b) e^{-2(a^2+b^2)})
        / (2 (1 + cos(phi_a) e^{-2 a^2}) (1 + cos(phi_b) e^{-2 b^2}))
    """
    if not (math.isfinite(alpha) and math.isfinite(beta) and alpha >= 0.0 and beta >= 0.0):
        raise ValueError(f"amplitudes must be finite and >= 0, got ({alpha}, {beta})")
    if not (math.isfinite(phi_a) and math.isfinite(phi_b)):
        raise ValueError(f"phases must be finite, got ({phi_a}, {phi_b})")
    asq, bsq = alpha * alpha, beta * beta
    if asq + bsq == 0.0:
        raise ValueError("two zero-amplitude inputs have no success probability")
    na = _one_plus_cos_exp(phi_a, 2.0 * asq)
    nb = _one_plus_cos_exp(phi_b, 2.0 * bsq)
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("null cat input: normalization denominator vanishes")
    num = (math.expm1(-2.0 * asq * bsq / (asq + bsq)) ** 2
           * _one_plus_cos_exp(phi_a + phi_b, 2.0 * (asq + bsq)))
    return num / (2.0 * na * nb)


def squeezed_photon_cat_fidelity(r: float, alpha: float) -> float:
    """Closed-form overlap of the squeezed photon with the odd cat:
    F = 2 a^2 exp[a^2 (tanh r - 1)] / (cosh^3 r (1 - e^{-2 a^2}))."""
    asq = alpha * alpha
    if not (math.isfinite(alpha) and alpha > 0.0 and asq > 0.0):
        raise ValueError(f"cat amplitude must be finite, positive and square to > 0, got {alpha}")
    if not math.isfinite(r):
        raise ValueError(f"squeezing must be finite, got {r}")
    return (2.0 * asq * math.exp(asq * (math.tanh(r) - 1.0))
            / (math.cosh(r) ** 3 * -math.expm1(-2.0 * asq)))


def optimal_squeezing(alpha: float) -> tuple[float, float]:
    """Maximize the squeezed-photon/odd-cat fidelity over r, in closed form.

    F(r) is proportional to exp(alpha^2 tanh r) / cosh^3 r, stationary
    where alpha^2 sech^2 r = 3 tanh r. With t = tanh r that is the
    quadratic alpha^2 t^2 + 3 t - alpha^2 = 0, whose positive root, in
    the cancellation-free form t = 2 alpha^2 / (3 + sqrt(9 + 4 alpha^4)),
    is the only stationary point and the global maximum. Returns
    (r_star, f_star).
    """
    if not 0.0 < alpha <= MAX_ALPHA:
        raise ValueError(f"amplitude must lie in (0, {MAX_ALPHA}], the validated regime")
    asq = alpha * alpha
    r = math.atanh(2.0 * asq / (3.0 + math.sqrt(9.0 + 4.0 * asq * asq)))
    return r, squeezed_photon_cat_fidelity(r, alpha)


def homodyne_error(alpha: float) -> float:
    """Error rate for telling |alpha> from |-alpha> by quadrature
    measurement: overlap tail of two unit-variance-convention Gaussians,
    (1/2) erfc(sqrt(2) alpha)."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"amplitude must be finite and non-negative, got {alpha}")
    return 0.5 * math.erfc(math.sqrt(2.0) * alpha)
