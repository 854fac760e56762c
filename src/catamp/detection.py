"""Inefficient threshold detectors and measurement conditioning.

A threshold detector reports only click / no-click. With quantum
efficiency eta the no-click element is diagonal with entries (1-eta)^n,
the click element its complement, so the pair is an exactly complete
POVM and the vacuum never clicks. ``herald_operator`` folds a stage's
auxiliary mode and both detectors into one operator on the dump mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DEFAULT_CUTOFF, DensityOperator, MultiModeState

# Below this probability a conditional state is numerically meaningless.
PROBABILITY_FLOOR = 1e-12


class DegenerateProbabilityError(RuntimeError):
    """Conditioning probability fell below the reporting floor."""


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector with quantum efficiency eta on a truncated mode."""

    eta: float
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.eta}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be positive")


@dataclass(frozen=True)
class ClickPattern:
    """Outcome pair for the two conditioning detectors (True = click)."""

    detector_a: bool
    detector_b: bool


BOTH_CLICK = ClickPattern(True, True)
ALL_PATTERNS = (
    ClickPattern(False, False),
    ClickPattern(False, True),
    ClickPattern(True, False),
    ClickPattern(True, True),
)


def _click_diagonal(model: DetectorModel) -> np.ndarray:
    n = np.arange(model.cutoff)
    return 1.0 - (1.0 - model.eta) ** n


def outcome_diagonal(model: DetectorModel, click: bool) -> np.ndarray:
    """Diagonal of the click or no-click POVM element."""
    d = _click_diagonal(model)
    return d if click else 1.0 - d


@lru_cache(maxsize=128)
def herald_operator(model: DetectorModel, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Both-click element Pi on the dump mode of one stage, and Pi^{1/2}.

    The dump mode meets the coherent auxiliary |gamma> on a 50:50 beam
    splitter whose outputs feed two detectors of ``model``; neither the
    auxiliary nor the detector modes are truncated. Pi is real symmetric
    with eigenvalues in [0, 1]. Cached and read-only.
    """
    # No-click is :exp(-eta c^dag c):, so Pi = 1 - N(+) - N(-) + e^{-eta g^2} (1-eta)^n,
    # N(+-) = e^{-eta g^2/2} e^{-+x a^dag} (1-eta/2)^n e^{-+x a} with x = eta g/2, and
    # <m|e^{x a^dag}|l> = x^(m-l) sqrt(m!/l!)/(m-l)!: entries sum over l <= min(m, n).
    eta, n = model.eta, np.arange(model.cutoff)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    steps = np.maximum(n[:, None] - n[None, :], 0)
    raising = np.tril(np.exp(0.5 * (log_fact[:, None] - log_fact[None, :]) - log_fact[steps]))
    x, g2 = 0.5 * eta * gamma, eta * gamma * gamma
    pi = np.eye(model.cutoff) + math.exp(-g2) * np.diag((1.0 - eta) ** n)
    for e in (raising * x ** steps, raising * (-x) ** steps):
        pi -= math.exp(-0.5 * g2) * (e * (1.0 - 0.5 * eta) ** n) @ e.T
    w, v = np.linalg.eigh(pi)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    pi.flags.writeable = root.flags.writeable = False
    return pi, root


def click_povm(model: DetectorModel) -> np.ndarray:
    """The click POVM element: diagonal with entries 1 - (1-eta)^n."""
    m = np.diag(_click_diagonal(model))
    m.flags.writeable = False
    return m


def povm_reduce(tensor3: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """POVM-weighted partial trace of a (keep, t1, t2) amplitude tensor.

    Returns the raw sub-normalized matrix on the kept mode and its trace.
    ``d1`` and ``d2`` are non-negative diagonal POVM vectors.
    """
    w = tensor3 * np.sqrt(d1)[None, :, None] * np.sqrt(d2)[None, None, :]
    f = w.reshape(tensor3.shape[0], -1)
    rho = f @ f.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho, float(np.trace(rho).real)


def condition(psi: MultiModeState, t1: int, t2: int, pattern: ClickPattern,
              model: DetectorModel):
    """Condition a three-mode pure state on a detector outcome pair.

    Detectors sit on modes ``t1`` and ``t2``; the returned density
    operator lives on the remaining mode and is sub-normalized, its trace
    being the outcome probability (also returned).
    """
    if psi.mode_count != 3:
        raise ValueError("conditioning expects a three-mode state")
    if t1 == t2:
        raise ValueError("detector modes must be distinct")
    for m in (t1, t2):
        if not 0 <= m < 3:
            raise ValueError(f"mode {m} out of range [0, 3)")
    if model.cutoff != psi.cutoff:
        raise ValueError(f"detector cutoff {model.cutoff} does not match state cutoff {psi.cutoff}")
    if not psi.is_normalized:
        raise ValueError("conditioning expects a normalized state")
    keep = ({0, 1, 2} - {t1, t2}).pop()
    x = np.moveaxis(psi.amplitudes, (keep, t1, t2), (0, 1, 2))
    rho, prob = povm_reduce(x,
                            outcome_diagonal(model, pattern.detector_a),
                            outcome_diagonal(model, pattern.detector_b))
    return DensityOperator(rho), prob
