"""The conditional amplification iteration, schedules, and analytics.

One iteration interferes two small cat-like inputs on a tunable beam
splitter, mixes the dump port with an auxiliary coherent field on a
50:50 beam splitter, and keeps the bright port only when both threshold
detectors click. The output approximates a cat of amplitude
sqrt(alpha^2 + beta^2) whose relative phase is the sum of the input
phases, so iterating grows the amplitude by sqrt(2) per step.

Closed-form companions (success probability, squeezed-photon fidelity,
homodyne discrimination error) are evaluated independently of the
simulator and serve as its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erfc

from .detection import (PROBABILITY_FLOOR, DegenerateProbabilityError,
                        DetectorModel, herald_operator)
from .fock import (DEFAULT_CUTOFF, LEAKAGE_WARN, DensityOperator,
                   MultiModeState, fidelity_mixed, projector)
from .optics import BeamSplitterParams, beam_splitter_unitary
from .states import CatSpec, cat_state, squeezed_photon, squeezed_vacuum

SOURCE_KINDS = ("ideal-cat", "squeezed-photon", "mixed-photon")


@dataclass(frozen=True)
class StageParams:
    """Settings of one amplification stage.

    ``bs1`` mixes the two inputs; the auxiliary coherent amplitude
    ``gamma`` feeds the fixed 50:50 conditioning beam splitter. The
    planner derives bs1 and gamma from the nominal input amplitudes.
    """

    alpha_in: float
    beta_in: float
    phi_a: float
    phi_b: float
    bs1: BeamSplitterParams
    gamma: float
    eta: float = 1.0

    @classmethod
    def plan(cls, alpha: float, beta: float, phi_a: float, phi_b: float,
             eta: float = 1.0) -> "StageParams":
        """Derive bs1 = (beta, alpha)/A and gamma = 2 alpha beta / A with
        A = sqrt(alpha^2 + beta^2)."""
        big = math.hypot(alpha, beta)
        if big == 0.0:
            raise ValueError("cannot plan a stage for two zero-amplitude inputs")
        bs1 = BeamSplitterParams(reflectivity=beta / big, transmittivity=alpha / big)
        return cls(alpha_in=alpha, beta_in=beta, phi_a=phi_a, phi_b=phi_b,
                   bs1=bs1, gamma=2.0 * alpha * beta / big, eta=eta)

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
    leakage_warning: float | None = None


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


@dataclass(frozen=True)
class Schedule:
    """Recursive amplification plan: n stages from alpha_i = target/sqrt(2)^n."""

    alpha_target: float
    n_iterations: int
    alpha_i: float
    stages: tuple[StageParams, ...]

    def __post_init__(self):
        if self.n_iterations < 0:
            raise ValueError("iteration count must be non-negative")
        if len(self.stages) != self.n_iterations:
            raise ValueError("stage list length must equal the iteration count")


def plan_schedule(alpha_target: float, n_iterations: int, eta: float = 1.0) -> Schedule:
    """Plan n stages of pairwise amplification toward ``alpha_target``.

    Stage k (0-based) amplifies two equal inputs of nominal amplitude
    alpha_i * sqrt(2)^k; each stage's target is the next stage's input.
    Odd inputs make the first output even, and even inputs stay even.
    """
    if alpha_target <= 0.0:
        raise ValueError("target amplitude must be positive")
    alpha_i = alpha_target / math.sqrt(2.0) ** n_iterations
    stages = []
    phase = math.pi
    for k in range(n_iterations):
        amp = alpha_i * math.sqrt(2.0) ** k
        stages.append(StageParams.plan(amp, amp, phase, phase, eta=eta))
        phase = (2.0 * phase) % (2.0 * math.pi)
    return Schedule(alpha_target=alpha_target, n_iterations=n_iterations,
                    alpha_i=alpha_i, stages=tuple(stages))


def _input_branches(state, label: str):
    """Decompose an input into weighted pure branches.

    Returns (weights, column vectors, discarded weight, leakage).
    """
    if isinstance(state, MultiModeState):
        if state.mode_count != 1:
            raise ValueError(f"{label} input must be single-mode")
        if not state.is_normalized:
            raise ValueError(f"{label} input must have unit norm")
        return np.array([1.0]), state.amplitudes[:, None], 0.0, state.leakage
    if isinstance(state, DensityOperator):
        if abs(state.trace_value - 1.0) > 1e-8:
            raise ValueError(f"{label} input must have unit trace")
        w, v, discarded = state.eigenbranches()
        return w, v, discarded, 0.0
    raise TypeError(f"{label} input must be a MultiModeState or DensityOperator")


def amplify_once(input_a, input_b, params: StageParams) -> IterationResult:
    """Run one conditional amplification stage.

    Applies bs1 to (a, b) and keeps the bright port heralded by both
    detectors clicking, ``Tr_dump[(1 x Pi) U1 (a x b) U1^dag]`` with Pi
    the ``herald_operator`` of the auxiliary |gamma> and detectors.
    Reports the unit-trace output with its success probability, fidelity
    against the nominal target cat, and purity. Mixed inputs are
    propagated branch-pairwise, which is exact for product inputs.
    """
    wa, va, disc_a, leak_a = _input_branches(input_a, "first")
    wb, vb, disc_b, leak_b = _input_branches(input_b, "second")
    cutoff = va.shape[0]
    if vb.shape[0] != cutoff:
        raise ValueError(f"cutoff mismatch between inputs: {cutoff} vs {vb.shape[0]}")

    u1 = beam_splitter_unitary(params.bs1, cutoff)
    _, root = herald_operator(DetectorModel(eta=params.eta, cutoff=cutoff), params.gamma)
    # one column sqrt(w_i w_j) a_i (x) b_j per branch pair, bright index slowest
    pairs = ((va * np.sqrt(wa))[:, None, :, None]
             * (vb * np.sqrt(wb))[None, :, None, :]).reshape(cutoff * cutoff, -1)
    # Pi^{1/2} on the dump axis: rho = Y Y^dag is Hermitian PSD by construction
    y = (root @ (u1 @ pairs).reshape(cutoff, cutoff, -1)).reshape(cutoff, -1)
    rho = y @ y.conj().T
    probability = float(np.trace(rho).real)
    if probability < PROBABILITY_FLOOR:
        raise DegenerateProbabilityError(
            f"conditioning probability {probability:.3e} below floor {PROBABILITY_FLOOR:.0e}")

    output = DensityOperator(0.5 * (rho + rho.conj().T) / probability)
    target = params.nominal_target
    fidelity = fidelity_mixed(output, cat_state(target, cutoff=cutoff))
    leak = max(leak_a, leak_b, disc_a, disc_b)
    return IterationResult(
        output=output,
        probability=probability,
        nominal_target=target,
        fidelity=fidelity,
        purity=output.purity(),
        leakage_warning=leak if leak > LEAKAGE_WARN else None,
    )


def prepare_source(source: SourceModel, alpha_i: float, cutoff: int = DEFAULT_CUTOFF):
    """Materialize a source model at stage-0 amplitude ``alpha_i``."""
    if source.kind == "ideal-cat":
        return cat_state(alpha_i, math.pi, cutoff=cutoff)
    r = source.r if source.r is not None else optimal_squeezing(alpha_i)[0]
    if source.kind == "squeezed-photon":
        return squeezed_photon(r, cutoff=cutoff)
    return mixed_inputs(replace(source, r=r), cutoff=cutoff)


def mixed_inputs(source: SourceModel, cutoff: int = DEFAULT_CUTOFF) -> DensityOperator:
    """Imperfect-photon-source input: (1-p)|S1><S1| + p|S0><S0| with
    S1 the squeezed photon and S0 the squeezed vacuum at the same r."""
    if source.kind != "mixed-photon":
        raise ValueError("mixed_inputs expects a mixed-photon source")
    if source.r is None:
        raise ValueError("mixed_inputs needs an explicit squeezing parameter r")
    s1 = projector(squeezed_photon(source.r, cutoff=cutoff)).matrix
    s0 = projector(squeezed_vacuum(source.r, cutoff=cutoff)).matrix
    return DensityOperator((1.0 - source.p) * s1 + source.p * s0)


def run_schedule(sched: Schedule, source: SourceModel,
                 cutoff: int = DEFAULT_CUTOFF) -> list[IterationResult]:
    """Run every stage of a schedule from a source model.

    Entry 0 describes the prepared stage-0 input itself (probability 1,
    fidelity against the odd cat of amplitude alpha_i); entry k >= 1 the
    output of stage k. Each stage feeds two copies of the previous
    unit-trace output.
    """
    state = prepare_source(source, sched.alpha_i, cutoff=cutoff)
    if isinstance(state, MultiModeState):
        rho0, leak0 = projector(state), state.leakage
    else:
        rho0, leak0 = state, 0.0
    target0 = CatSpec(sched.alpha_i, math.pi)
    results = [IterationResult(
        output=rho0,
        probability=1.0,
        nominal_target=target0,
        fidelity=fidelity_mixed(rho0, cat_state(target0, cutoff=cutoff)),
        purity=rho0.purity(),
        leakage_warning=leak0 if leak0 > LEAKAGE_WARN else None,
    )]
    current = rho0
    for stage in sched.stages:
        res = amplify_once(current, current, stage)
        results.append(res)
        current = res.output
    return results


def best_schedule(alpha_target: float, max_n: int = 6,
                  source: SourceModel = SourceModel("squeezed-photon"),
                  cutoff: int = DEFAULT_CUTOFF) -> tuple[int, float]:
    """Pick the iteration count that maximizes the final fidelity.

    For each n in [0, max_n] the stage-0 amplitude is alpha_target /
    sqrt(2)^n and the source squeezing is re-optimized for it (when the
    source does not pin r). Returns (n_star, best final fidelity).
    """
    if not 0.0 < alpha_target <= 2.5:
        raise ValueError("target amplitude must lie in (0, 2.5], the validated regime")
    best = (-1, -1.0)
    for n in range(max_n + 1):
        sched = plan_schedule(alpha_target, n)
        fid = run_schedule(sched, source, cutoff=cutoff)[-1].fidelity
        if fid > best[1]:
            best = (n, fid)
    return best


# ---------------------------------------------------------------------------
# Closed-form analytics (evaluated independently of the simulator).
# ---------------------------------------------------------------------------

def success_probability(alpha: float, beta: float, phi_a: float, phi_b: float) -> float:
    """Single-iteration success probability of the double-click herald.

    P = (1 - e^{-2 a^2 b^2 / (a^2+b^2)})^2 (1 + cos(phi_a+phi_b) e^{-2(a^2+b^2)})
        / (2 (1 + cos(phi_a) e^{-2 a^2}) (1 + cos(phi_b) e^{-2 b^2}))
    """
    asq, bsq = alpha * alpha, beta * beta
    na = 1.0 + math.cos(phi_a) * math.exp(-2.0 * asq)
    nb = 1.0 + math.cos(phi_b) * math.exp(-2.0 * bsq)
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("null cat input: normalization denominator vanishes")
    num = ((1.0 - math.exp(-2.0 * asq * bsq / (asq + bsq))) ** 2
           * (1.0 + math.cos(phi_a + phi_b) * math.exp(-2.0 * (asq + bsq))))
    return num / (2.0 * na * nb)


def squeezed_photon_cat_fidelity(r: float, alpha: float) -> float:
    """Closed-form overlap of the squeezed photon with the odd cat:
    F = 2 a^2 exp[a^2 (tanh r - 1)] / (cosh^3 r (1 - e^{-2 a^2}))."""
    if alpha <= 0.0:
        raise ValueError("cat amplitude must be positive")
    return (2.0 * alpha * alpha * math.exp(alpha * alpha * (math.tanh(r) - 1.0))
            / (math.cosh(r) ** 3 * (1.0 - math.exp(-2.0 * alpha * alpha))))


def optimal_squeezing(alpha: float) -> tuple[float, float]:
    """Maximize the squeezed-photon/odd-cat fidelity over r.

    Bracketed scalar search on [0, 2] with a Newton polish on the
    stationarity equation alpha^2 sech^2(r) = 3 tanh(r), so the residual
    slope at the reported optimum is at machine level. Returns
    (r_star, f_star).
    """
    if not 0.0 < alpha <= 2.5:
        raise ValueError("amplitude must lie in (0, 2.5], the validated regime")
    res = minimize_scalar(lambda r: -squeezed_photon_cat_fidelity(r, alpha),
                          bounds=(0.0, 2.0), method="bounded",
                          options={"xatol": 1e-11})
    r = float(res.x)
    asq = alpha * alpha
    for _ in range(3):
        sech2 = 1.0 / math.cosh(r) ** 2
        g = asq * sech2 - 3.0 * math.tanh(r)
        dg = -sech2 * (2.0 * asq * math.tanh(r) + 3.0)
        r -= g / dg
    return r, squeezed_photon_cat_fidelity(r, alpha)


def homodyne_error(alpha: float) -> float:
    """Error rate for telling |alpha> from |-alpha> by quadrature
    measurement: overlap tail of two unit-variance-convention Gaussians,
    (1/2) erfc(sqrt(2) alpha)."""
    if alpha < 0.0:
        raise ValueError("amplitude must be non-negative")
    return float(0.5 * erfc(math.sqrt(2.0) * alpha))
