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
from functools import lru_cache

import numpy as np

# Below this probability a conditional state is numerically meaningless.
PROBABILITY_FLOOR = 1e-12


class DegenerateProbabilityError(RuntimeError):
    """Conditioning probability fell below the reporting floor."""


@lru_cache(maxsize=128)
def herald_operator(eta: float, gamma: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Both-click element Pi on the first ``cutoff`` dump states of one
    stage, and Pi^{1/2}.

    The dump mode meets the coherent auxiliary |gamma> on a 50:50 beam
    splitter whose outputs feed two detectors of efficiency ``eta``;
    neither the auxiliary nor the detector modes are truncated. Pi is
    real symmetric with eigenvalues in [0, 1]. Cached and read-only.
    """
    # No-click is :exp(-eta c^dag c):, so Pi = 1 - N(+) - N(-) + e^{-eta g^2} (1-eta)^n,
    # N(+-) = e^{-eta g^2/2} e^{-+x a^dag} (1-eta/2)^n e^{-+x a} with x = eta g/2, and
    # <m|e^{x a^dag}|l> = x^(m-l) sqrt(m!/l!)/(m-l)!: entries sum over l <= min(m, n).
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    steps = np.maximum(n[:, None] - n[None, :], 0)
    raising = np.tril(np.exp(0.5 * (log_fact[:, None] - log_fact[None, :]) - log_fact[steps]))
    x, g2 = 0.5 * eta * gamma, eta * gamma * gamma
    pi = np.eye(cutoff) + math.exp(-g2) * np.diag((1.0 - eta) ** n)
    for e in (raising * x ** steps, raising * (-x) ** steps):
        pi -= math.exp(-0.5 * g2) * (e * (1.0 - 0.5 * eta) ** n) @ e.T
    w, v = np.linalg.eigh(pi)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    pi.flags.writeable = root.flags.writeable = False
    return pi, root
