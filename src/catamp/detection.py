"""Inefficient threshold detectors, folded into one herald operator.

A threshold detector reports only click / no-click; with quantum
efficiency eta its no-click element is :exp(-eta c^dag c):, diagonal
with entries (1-eta)^n. A stage mixes its dump mode with a coherent
auxiliary on a 50:50 splitter and keeps the run when both detectors
click; ``herald_operator`` is that whole measurement as one operator on
the dump mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DEFAULT_CUTOFF

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
