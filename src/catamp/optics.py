"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(theta) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>,  r = sin(theta), t = cos(theta),

which the covariance tests enforce. U1 conserves photon number, so it is
one real orthogonal block per total photon number N, acting on the
states |k, N-k>; no c^2 x c^2 matrix is ever built. The 2c - 1 blocks
are stored in a few groups, one stacked array per group, so that one
batched product builds or applies a whole group: a block of size d
joins the group of width min(8 ceil(d / 8), c) and is padded to that
width with an identity that acts on zero padding rows. The two-mode
rows U1 acts on are laid out group by group; with the padding that is
1098 rows at c = 30 (4 groups) and 4544 at c = 64 (8 groups). The
layout stays inside this module: ``_mix_pairs`` takes and returns
amplitudes on the plain c x c mode grid.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Group widths are multiples of this, capped at the cutoff: few groups
# (few matmul calls per apply) for little padding.
_GROUP_STEP = 8


class _MixingBasis(NamedTuple):
    first: np.ndarray    # first-mode photon number of each row; cutoff on padding rows
    second: np.ndarray   # second-mode photon number of each row; cutoff on padding rows
    inverse: np.ndarray  # the row of each flat two-mode index (first mode slower)
    groups: tuple        # per group: its row slice, stacked V and eigenvalues


@lru_cache(maxsize=8)
def _mixing_basis(cutoff: int) -> _MixingBasis:
    """The angle-free part of U1 at one cutoff, built on first use.

    In block N the mixing generator g_N = adag_1 a_2 - a_1 adag_2 on the
    states |k, N-k> (k ascending) is real antisymmetric, so i g_N is
    Hermitian and its eigenpairs (lambda, V) serve every mixing angle.
    Blocks above N = cutoff-1 are partial: only there does U1 deviate
    from the untruncated physics. Each V is padded with zeros to its
    group's width; groups are laid out by width, blocks by N, rows by k
    with the padding rows last.
    """
    c = cutoff
    totals = np.arange(2 * c - 1)
    sizes = np.minimum(totals, 2 * c - 2 - totals) + 1
    widths = np.minimum(-(-sizes // _GROUP_STEP) * _GROUP_STEP, c)
    first, second, groups = [], [], []
    start = 0
    for width in sorted(set(widths.tolist())):  # np.unique would import numpy.ma
        members = totals[widths == width]
        n = len(members)
        vecs = np.zeros((n, width, width), dtype=np.complex128)
        values = np.zeros((n, width))
        rows = np.full((2, n, width), c)
        for i, total in enumerate(members):
            k = np.arange(max(0, total - c + 1), min(total, c - 1) + 1)
            d = len(k)
            g = np.zeros((d, d))
            amp = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
            g[np.arange(1, d), np.arange(d - 1)] = amp
            g[np.arange(d - 1), np.arange(1, d)] = -amp
            values[i, :d], vecs[i, :d, :d] = np.linalg.eigh(1j * g)
            rows[:, i, :d] = k, total - k
        first.append(rows[0].ravel())
        second.append(rows[1].ravel())
        groups.append((slice(start, start + n * width), vecs, values))
        start += n * width
    first, second = np.concatenate(first), np.concatenate(second)
    real = np.flatnonzero(first < c)
    inverse = np.empty(c * c, dtype=np.intp)
    inverse[first[real] * c + second[real]] = real
    return _MixingBasis(first, second, inverse, tuple(groups))


# One set of blocks at a time: every schedule runs at a single 50:50
# angle per cutoff, and a sweep over ratios would miss any cache.
@lru_cache(maxsize=1)
def _beam_splitter_blocks(theta: float, cutoff: int) -> tuple[np.ndarray, ...]:
    """U1's blocks exp(theta g_N) = 1 + V diag(expm1(-i theta lambda)) V^dag,
    one stacked n x w x w array per group of the basis. Each is real,
    orthogonal to round-off (the identity on its padding) and read-only.
    V^dag is formed here rather than stored in the basis, which costs
    about 0.13 ms per build at c = 30: the benchmark's pure-sweep keeps
    a table row per finished op, so its peak RSS follows its op rate,
    and storing V^dag sped it up past that metric's bound."""
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta}")
    groups = []
    for _, v, values in _mixing_basis(cutoff).groups:
        vh = np.conjugate(v.transpose(0, 2, 1), order="C")
        b = ((v * np.expm1(-1j * theta * values)[:, None, :]) @ vh).real.copy()
        diag = np.arange(b.shape[1])
        b[:, diag, diag] += 1.0
        b.flags.writeable = False
        groups.append(b)
    return tuple(groups)


def _apply_blocks(theta: float, cutoff: int, y: np.ndarray) -> np.ndarray:
    """U1 of mixing angle ``theta`` on the rows of ``y``, returned as a new
    array. The rows are two-mode amplitudes in the basis's grouped
    layout, so one batched product mixes each group's contiguous rows,
    written straight into the result rather than copied back. The blocks
    are real: float64 rows stay float64, and complex rows are mixed as
    their real and imaginary parts at once."""
    out = np.empty(y.shape, dtype=y.dtype)
    parts, mixed = y.view(np.float64), out.view(np.float64)
    for (rows, _, _), b in zip(_mixing_basis(cutoff).groups,
                               _beam_splitter_blocks(theta, cutoff)):
        shape = (b.shape[0], b.shape[1], -1)
        np.matmul(b, parts[rows].reshape(shape), out=mixed[rows].reshape(shape))
    return out


def _mix_pairs(theta: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U1 of mixing angle ``theta`` on every product a_i (x) b_j of a
    column of ``a`` (the first mode's amplitudes, c x r_a) and one of
    ``b`` (the second mode's, c x r_b), returned as a c x c x (r_a r_b)
    array: first-mode index, second-mode index, then the pair with i
    slower. The products are built straight in the grouped layout, a
    padding row reading a zero appended to each column, and gathered
    back to the mode grid once mixed; each step replaces the array, so
    no two of its copies outlive one step."""
    c = a.shape[0]
    basis = _mixing_basis(c)
    pairs = (_padded(a)[basis.first][:, :, None]
             * _padded(b)[basis.second][:, None, :]).reshape(len(basis.first), -1)
    pairs = _apply_blocks(theta, c, pairs)
    return pairs[basis.inverse].reshape(c, c, -1)


def _padded(v: np.ndarray) -> np.ndarray:
    """The columns of ``v`` over one appended zero row, the entry that
    the layout's padding rows read."""
    out = np.zeros((v.shape[0] + 1, v.shape[1]), dtype=v.dtype)
    out[:-1] = v
    return out
