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
    spans: tuple         # runs of whole groups of at most `scratch` rows: their row
                         # slice, their second-mode numbers and, per group, its
                         # index, rows within the run, rows and block stack shape
    scratch: int         # max(c^2, widest group): the rows of _mix_pairs' result


@lru_cache(maxsize=8)
def _mixing_basis(cutoff: int) -> _MixingBasis:
    """The angle-free part of U1 at one cutoff, built on first use.

    In block N the mixing generator g_N = adag_1 a_2 - a_1 adag_2 on the
    states |k, N-k> (k ascending) is real antisymmetric, so i g_N is
    Hermitian and its eigenpairs (lambda, V) serve every mixing angle.
    Blocks above N = cutoff-1 are partial: only there does U1 deviate
    from the untruncated physics. Each V is padded with zeros to its
    group's width; groups are laid out by width, blocks by N, rows by k
    with the padding rows last. The groups are then joined into spans,
    runs of consecutive groups no longer than ``scratch`` rows, the
    larger of c^2 and the widest group.
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
    scratch = max([c * c] + [rows.stop - rows.start for rows, _, _ in groups])
    runs = []
    for g, (rows, vecs, _) in enumerate(groups):
        if not runs or rows.stop - runs[-1][0][1].start > scratch:
            runs.append([])
        runs[-1].append((g, rows, (vecs.shape[0], vecs.shape[1], -1)))
    spans = []
    for run in runs:
        lo, hi = run[0][1].start, run[-1][1].stop
        spans.append((slice(lo, hi), second[lo:hi],
                      tuple((g, slice(rows.start - lo, rows.stop - lo), rows, shape)
                            for g, rows, shape in run)))
    return _MixingBasis(first, second, inverse, tuple(groups), tuple(spans), scratch)


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


def _mix_pairs(theta: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U1 of mixing angle ``theta`` on every product a_i (x) b_j of a
    column of ``a`` (the first mode's amplitudes, c x r_a) and one of
    ``b`` (the second mode's, c x r_b), returned as a c x c x (r_a r_b)
    array: first-mode index, second-mode index, then the pair with i
    slower. The result has the dtype numpy gives a product of the two.

    Every step is a long contiguous loop over whole rows of pairs, at any
    rank. Row n of the first factor's table holds a[n] with each entry
    repeated r_b times, row n of the second's b[n] tiled r_a times, and
    row c of both is zero, the entry a padding row of the layout reads.
    The first factors are taken into the grouped layout at once. Span by
    span, the second factors are taken into the leading rows of the
    result array and multiplied by the first factors there, and U1 mixes
    each group of the span back over its own first-factor rows, which
    are spent. Last, the mixed rows are gathered into the result. Besides
    the result only one layout-sized array is made, where a product built
    whole and mixed into a new array needs two.
    """
    c, ra, rb = a.shape[0], a.shape[1], b.shape[1]
    basis = _mixing_basis(c)
    blocks = _beam_splitter_blocks(theta, c)
    dtype = np.result_type(a, b)
    ta = np.zeros((c + 1, ra, rb), dtype=dtype)
    ta[:c] = a[:, :, None]
    mixed = np.take(ta.reshape(c + 1, -1), basis.first, axis=0)
    del ta  # spent before the result array is made
    tb = np.zeros((c + 1, ra, rb), dtype=dtype)
    tb[:c] = b[:, None, :]
    tb = tb.reshape(c + 1, -1)
    out = np.empty((basis.scratch, ra * rb), dtype=dtype)
    # U1 is real: complex rows are mixed as their real and imaginary parts
    parts = mixed.view(np.float64)
    for rows, second, members in basis.spans:
        pairs = out[:rows.stop - rows.start]
        # mode="clip" only spares the buffered copy that take makes for
        # out= under mode="raise"; every index is in range
        np.take(tb, second, axis=0, out=pairs, mode="clip")
        np.multiply(mixed[rows], pairs, out=pairs)
        scratch = pairs.view(np.float64)
        for g, local, group, shape in members:
            np.matmul(blocks[g], scratch[local].reshape(shape), out=parts[group].reshape(shape))
    out = out[:c * c]
    np.take(mixed, basis.inverse, axis=0, out=out, mode="clip")
    return out.reshape(c, c, -1)
