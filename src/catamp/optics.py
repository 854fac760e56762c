"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(theta) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>,  r = sin(theta), t = cos(theta),

which the covariance tests enforce. U1 conserves photon number, so it is
one real orthogonal block per total photon number N, acting on the
states |k, N-k>; no c^2 x c^2 matrix is ever built. The two-mode rows
are laid out parity first: the c blocks of even N, then the c - 1 of odd
N. Within a parity the blocks are stored in a few groups, one stacked
array per group, so that one batched product builds or applies a whole
group: a block of size d joins the group of width min(8 ceil(d / 8), c),
padded to that width with an identity that acts on zero padding rows;
8 groups at c = 30, 16 at c = 64. With at most c blocks of width at most c,
a parity's rows fit in the c^2 rows of a result: 564 and 534 at c = 30,
2304 and 2240 at c = 64. The layout stays inside this module:
``_mix_pairs`` takes and returns amplitudes on the plain c x c grid.
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
    rows: tuple          # per parity 0, 1: the slice of the rows its blocks act on
    groups: tuple        # per parity 0, 1, per group: its rows within the parity's
                         # rows, stacked V and eigenvalues


@lru_cache(maxsize=8)
def _mixing_basis(cutoff: int) -> _MixingBasis:
    """The angle-free part of U1 at one cutoff, built on first use.

    In block N the mixing generator g_N = adag_1 a_2 - a_1 adag_2 on the
    states |k, N-k> (k ascending) is real antisymmetric, so i g_N is
    Hermitian and its eigenpairs (lambda, V) serve every mixing angle.
    Blocks above N = cutoff-1 are partial: only there does U1 deviate
    from the untruncated physics. Each V is padded with zeros to its
    group's width; the rows are laid out by the parity of N (even
    first), then by group width, then by N, and by k within a block with
    the padding rows last.
    """
    c = cutoff
    totals = np.arange(2 * c - 1)
    sizes = np.minimum(totals, 2 * c - 2 - totals) + 1
    widths = np.minimum(-(-sizes // _GROUP_STEP) * _GROUP_STEP, c)
    layout, rows, groups = [], [], []
    start = 0
    for parity in (0, 1):
        top, sets = start, []
        for width in sorted(set(widths[parity::2].tolist())):  # np.unique would import numpy.ma
            members = totals[parity::2][widths[parity::2] == width]
            n = len(members)
            vecs = np.zeros((n, width, width), dtype=np.complex128)
            values = np.zeros((n, width))
            numbers = np.full((2, n, width), c)
            for i, total in enumerate(members):
                k = np.arange(max(0, total - c + 1), min(total, c - 1) + 1)
                d = len(k)
                g = np.zeros((d, d))
                amp = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
                g[np.arange(1, d), np.arange(d - 1)] = amp
                g[np.arange(d - 1), np.arange(1, d)] = -amp
                values[i, :d], vecs[i, :d, :d] = np.linalg.eigh(1j * g)
                numbers[:, i, :d] = k, total - k
            layout.append(numbers.reshape(2, -1))
            sets.append((slice(start - top, start - top + n * width), vecs, values))
            start += n * width
        rows.append(slice(top, start))
        groups.append(tuple(sets))
    first, second = np.concatenate(layout, axis=1)
    real = np.flatnonzero(first < c)
    inverse = np.empty(c * c, dtype=np.intp)
    inverse[first[real] * c + second[real]] = real
    return _MixingBasis(first, second, inverse, tuple(rows), tuple(groups))


def _parity(x: np.ndarray) -> int | None:
    """0 or 1 when all columns of ``x`` are exactly zero at the other parity's
    photon numbers, else None."""
    if len(x) > 1 and x[0, 0] and x[1, 0]:  # column 0 holds both parities
        return None
    return 0 if not np.count_nonzero(x[1::2]) else 1 if not np.count_nonzero(x[::2]) else None


# Two sets: a schedule and fig2 each take the even and the odd set of
# their angle; sweeps miss any cache.
@lru_cache(maxsize=2)
def _beam_splitter_blocks(theta: float, cutoff: int, parity: int) -> tuple[np.ndarray, ...]:
    """U1's blocks exp(theta g_N) = 1 + V diag(expm1(-i theta lambda)) V^dag
    of parity N mod 2 = ``parity`` (0 or 1), one stacked n x w x w array
    per group of that parity, each real, orthogonal to round-off (the
    identity on its padding) and read-only. V^dag is formed here, not
    stored in the basis, at about 0.13 ms per build at c = 30: pure-sweep
    keeps a table row per finished op, so its peak RSS follows its op
    rate, and storing V^dag sped it up past that metric's bound."""
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta}")
    groups = []
    for _, v, values in _mixing_basis(cutoff).groups[parity]:
        vh = np.conjugate(v.transpose(0, 2, 1), order="C")
        b = ((v * np.expm1(-1j * theta * values)[:, None, :]) @ vh).real.copy()
        diag = np.arange(b.shape[1])
        b[:, diag, diag] += 1.0
        b.flags.writeable = False
        groups.append(b)
    return tuple(groups)


def _mix_pairs(theta: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U1 of mixing angle ``theta`` on every product a_i (x) b_j of a
    column of ``a`` (the first mode's amplitudes, c x r_a) and one of
    ``b`` (the second mode's, c x r_b), returned as a c x c x (r_a r_b)
    array: first-mode index, second-mode index, then the pair with i
    slower. The result has the dtype numpy gives a product of the two.

    Every step is a long contiguous loop over whole rows of pairs, at any
    rank. Row n of one table holds a[n] with each entry repeated r_b
    times, then, once the first factors are taken, b[n] tiled r_a times;
    its row c is zero, the entry a padding row of the layout reads.
    U1 acts on both parities, or, if each input is exactly zero at one
    parity's photon numbers as pure cats and squeezed states are, only on
    the pair's total parity, whose rows alone are then nonzero. The first
    factors are taken into those rows at once. Per parity, the second
    factors are taken into the leading rows of the result and multiplied
    by the first factors there, and U1 mixes each group back over its own
    first-factor rows, which are spent. Last, the mixed rows are gathered
    into the result. Besides it only one layout-sized array is made,
    where a product built whole and mixed into a new array needs two.
    """
    c, ra, rb = a.shape[0], a.shape[1], b.shape[1]
    basis = _mixing_basis(c)
    pa = _parity(a)
    pb = pa if b is a else _parity(b)
    parities = (0, 1) if pa is None or pb is None else ((pa + pb) % 2,)
    blocks = [_beam_splitter_blocks(theta, c, p) for p in parities]
    dtype = np.result_type(a, b)
    used = slice(basis.rows[parities[0]].start, basis.rows[parities[-1]].stop)
    mixed = (np.empty if len(parities) == 2 else np.zeros)((len(basis.first), ra * rb), dtype)
    table = np.zeros((c + 1, ra, rb), dtype=dtype)
    table[:c] = a[:, :, None]
    # mode="clip" only spares the buffered copy that take makes for out=
    # under mode="raise"; every index is in range
    np.take(table.reshape(c + 1, -1), basis.first[used], axis=0, out=mixed[used], mode="clip")
    table[:c] = b[:, None, :]
    table = table.reshape(c + 1, -1)
    out = np.empty((c * c, ra * rb), dtype=dtype)
    for parity, groups in zip(parities, blocks):
        rows = basis.rows[parity]
        pairs = out[:rows.stop - rows.start]
        np.take(table, basis.second[rows], axis=0, out=pairs, mode="clip")
        np.multiply(mixed[rows], pairs, out=pairs)
        # U1 is real: complex rows are mixed as their real and imaginary parts
        scratch, parts = pairs.view(np.float64), mixed[rows].view(np.float64)
        for (local, *_), u in zip(basis.groups[parity], groups):
            shape = (*u.shape[:2], -1)
            np.matmul(u, scratch[local].reshape(shape), out=parts[local].reshape(shape))
    np.take(mixed, basis.inverse, axis=0, out=out, mode="clip")
    return out.reshape(c, c, -1)
