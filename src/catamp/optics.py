"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(r, t) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>

which the covariance tests enforce. U1 conserves photon number, so it is
stored and applied as one real orthogonal block per total photon number
N, acting on the states |k, N-k>; no c^2 x c^2 matrix is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


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


class _MixingBasis(NamedTuple):
    order: np.ndarray    # flat two-mode indices by photon number N, then k
    inverse: np.ndarray  # the permutation that undoes ``order``
    values: np.ndarray   # eigenvalues of i g_N, block after block
    blocks: tuple        # per block: its row slice in ``order``, V and V^dag


@lru_cache(maxsize=8)
def _mixing_basis(cutoff: int) -> _MixingBasis:
    """The angle-free part of U1 at one cutoff, built on first use.

    In block N the mixing generator g_N = adag_1 a_2 - a_1 adag_2 on the
    states |k, N-k> (k ascending) is real antisymmetric, so i g_N is
    Hermitian and its eigenpairs (lambda, V) serve every mixing angle.
    Blocks above N = cutoff-1 are partial: only there does U1 deviate
    from the untruncated physics.
    """
    c = cutoff
    first, second = np.divmod(np.arange(c * c), c)
    order = np.lexsort((first, first + second))
    values, blocks = [], []
    start = 0
    for total in range(2 * c - 1):
        k = np.arange(max(0, total - c + 1), min(total, c - 1))
        d = len(k) + 1
        g = np.zeros((d, d))
        amp = np.sqrt((k + 1.0) * (total - k))
        g[np.arange(1, d), np.arange(d - 1)] = amp
        g[np.arange(d - 1), np.arange(1, d)] = -amp
        lam, v = np.linalg.eigh(1j * g)
        values.append(lam)
        blocks.append((slice(start, start + d), v, v.conj().T.copy()))
        start += d
    return _MixingBasis(order, np.argsort(order), np.concatenate(values), tuple(blocks))


# One set of blocks at a time: every schedule runs at a single 50:50
# angle per cutoff, and a sweep over ratios would miss any cache.
@lru_cache(maxsize=1)
def _beam_splitter_blocks(theta: float, cutoff: int) -> tuple[np.ndarray, ...]:
    """U1's blocks exp(theta g_N) = 1 + V diag(expm1(-i theta lambda)) V^dag,
    N ascending; real, orthogonal to round-off and read-only."""
    basis = _mixing_basis(cutoff)
    phase = np.expm1(-1j * theta * basis.values)
    blocks = []
    for rows, v, vh in basis.blocks:
        b = ((v * phase[rows]) @ vh).real.copy()
        b.flat[::len(b) + 1] += 1.0
        b.flags.writeable = False
        blocks.append(b)
    return tuple(blocks)


def apply_beam_splitter(params: BeamSplitterParams, x) -> np.ndarray:
    """Two-mode beam splitter U1 applied to the c^2 rows of ``x``.

    ``x`` is one flattened two-mode amplitude vector, or a c^2 x k array
    of them as columns, with the first mode the slower half of the flat
    index. The rows are permuted once into photon-number order, each
    block multiplies its own contiguous row slice, and the result is
    permuted back. Blocks are cached by mixing angle, one angle at a
    time, so every spelling of one ratio shares them.
    """
    x = np.asarray(x, dtype=np.complex128)
    c = math.isqrt(x.shape[0]) if x.ndim in (1, 2) else 0
    if c == 0 or c * c != x.shape[0]:
        raise ValueError(f"expected c^2 rows of two-mode amplitudes, got shape {x.shape}")
    basis = _mixing_basis(c)
    y = x.reshape(c * c, -1)[basis.order]
    # the blocks are real, so they act on the real and imaginary parts at once
    parts = y.view(np.float64)
    for (rows, _, _), b in zip(basis.blocks, _beam_splitter_blocks(params.mixing_angle, c)):
        parts[rows] = b @ parts[rows]
    return y[basis.inverse].reshape(x.shape)
