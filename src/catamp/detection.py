"""Inefficient threshold detectors, folded into one herald operator.

A threshold detector reports only click / no-click; with quantum
efficiency eta its no-click element is :exp(-eta c^dag c):, diagonal
with entries (1-eta)^n. A stage mixes its dump mode with a coherent
auxiliary on a 50:50 splitter and keeps the run when both detectors
click; ``herald_operator`` is that whole measurement as one operator on
the dump mode, and ``herald_root`` its square root, which a stage applies.
The floor below which a stage's success probability is degenerate lives
with the stage, in ``protocol``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

def herald_operator(eta: float, gamma: float, cutoff: int) -> np.ndarray:
    """Both-click element Pi on the first ``cutoff`` dump states of one
    stage.

    The dump mode meets the coherent auxiliary |gamma> on a 50:50 beam
    splitter whose outputs feed two detectors of efficiency ``eta``;
    neither the auxiliary nor the detector modes are truncated. Pi is
    real symmetric with eigenvalues in [0, 1].
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
    return pi


@lru_cache(maxsize=128)
def herald_root(eta: float, gamma: float, cutoff: int) -> np.ndarray:
    """Pi^{1/2} of ``herald_operator``, the factor a stage applies to its
    dump port. Cached and read-only."""
    w, v = np.linalg.eigh(herald_operator(eta, gamma, cutoff))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    root.flags.writeable = False
    return root
