"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(r, t) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>

which the covariance tests enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .fock import DEFAULT_CUTOFF


@dataclass(frozen=True)
class BeamSplitterParams:
    """Reflectivity / transmittivity pair with r^2 + t^2 = 1."""

    reflectivity: float
    transmittivity: float

    def __post_init__(self):
        r, t = self.reflectivity, self.transmittivity
        if not (0.0 <= r <= 1.0 and 0.0 <= t <= 1.0):
            raise ValueError(f"reflectivity and transmittivity must lie in [0, 1], got ({r}, {t})")
        if abs(r * r + t * t - 1.0) > 1e-12:
            raise ValueError(f"r^2 + t^2 = {r * r + t * t} violates unitarity")

    @classmethod
    def fifty_fifty(cls) -> "BeamSplitterParams":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @property
    def mixing_angle(self) -> float:
        return math.atan2(self.reflectivity, self.transmittivity)


# One dense c^2 x c^2 matrix at a time: every schedule runs at a single
# 50:50 angle per cutoff, and a sweep over ratios would miss any cache.
@lru_cache(maxsize=1)
def _beam_splitter_cached(theta: float, cutoff: int) -> np.ndarray:
    c = cutoff
    u = np.zeros((c * c, c * c), dtype=np.complex128)
    for total in range(2 * c - 1):
        ks = np.arange(max(0, total - c + 1), min(total, c - 1) + 1)
        d = len(ks)
        flat = ks * c + (total - ks)
        if d == 1:
            u[flat[0], flat[0]] = 1.0
            continue
        # generator of adag_1 a_2 - a_1 adag_2 restricted to this block
        g = np.zeros((d, d))
        k = ks[:-1]
        amp = np.sqrt((k + 1.0) * (total - k))
        g[np.arange(1, d), np.arange(d - 1)] = amp
        g[np.arange(d - 1), np.arange(1, d)] = -amp
        u[np.ix_(flat, flat)] = expm(theta * g)
    u.flags.writeable = False
    return u


def beam_splitter_unitary(params: BeamSplitterParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Two-mode beam-splitter unitary, block-diagonal by total photon number.

    Each block is the exponential of the truncated mixing generator, so
    the matrix is exactly unitary and exactly number-conserving; blocks
    with total photon number above cutoff-1 are partial and only there
    does the matrix deviate from the untruncated physics. The first mode
    is the slower half of the flattened index. Cached by mixing angle,
    one matrix at a time, and read-only.
    """
    return _beam_splitter_cached(params.mixing_angle, int(cutoff))
