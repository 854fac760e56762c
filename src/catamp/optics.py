"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(theta) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>,  r = sin(theta), t = cos(theta),

which the covariance tests enforce. U1 conserves photon number, so it is
stored and applied as one real orthogonal block per total photon number
N, acting on the states |k, N-k>; no c^2 x c^2 matrix is ever built.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class _MixingBasis(NamedTuple):
    order: np.ndarray    # flat two-mode indices by photon number N, then k
    inverse: np.ndarray  # the permutation that undoes ``order``
    first: np.ndarray    # first-mode photon number of each row in ``order``
    second: np.ndarray   # second-mode photon number of each row in ``order``
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
    return _MixingBasis(order, np.argsort(order), first[order], second[order],
                        np.concatenate(values), tuple(blocks))


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


def _apply_blocks(theta: float, y: np.ndarray) -> None:
    """U1 of mixing angle ``theta`` on ``y`` in place. The c^2 rows of
    ``y`` are two-mode amplitudes already in the basis's photon-number
    ``order``, so each block multiplies its own contiguous row slice.
    The blocks are real: float64 rows stay float64, and complex rows are
    mixed as their real and imaginary parts at once."""
    c = math.isqrt(y.shape[0])
    parts = y.view(np.float64)
    for (rows, _, _), b in zip(_mixing_basis(c).blocks, _beam_splitter_blocks(theta, c)):
        parts[rows] = b @ parts[rows]


def apply_beam_splitter(theta: float, x) -> np.ndarray:
    """Two-mode beam splitter U1 of mixing angle ``theta`` applied to the
    c^2 rows of ``x``; its reflectivity is sin(theta), its
    transmittivity cos(theta).

    ``x`` is one flattened two-mode amplitude vector, or a c^2 x k array
    of them as columns, with the first mode the slower half of the flat
    index. Real input gives a float64 result and complex input a
    complex128 one. The rows are permuted once into photon-number order,
    mixed block by block, and permuted back. Blocks are cached by angle,
    one angle at a time.
    """
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta}")
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
    c = math.isqrt(x.shape[0]) if x.ndim in (1, 2) else 0
    if c == 0 or c * c != x.shape[0]:
        raise ValueError(f"expected c^2 rows of two-mode amplitudes, got shape {x.shape}")
    basis = _mixing_basis(c)
    y = x.reshape(c * c, -1)[basis.order]
    _apply_blocks(theta, y)
    return y[basis.inverse].reshape(x.shape)
