"""The stage's beam splitter U1 on the truncated two-mode Fock basis.

The phase convention is pinned to the coherent-state rule

    B(theta) |a>|b>  ->  |t*a + r*b> |-r*a + t*b>,  r = sin(theta), t = cos(theta),

which the covariance tests enforce. U1 conserves photon number, so it is
one real orthogonal block per total photon number N, acting on the
states |k, N-k>; no c^2 x c^2 matrix is ever built. The 2c - 1 blocks
are stored in a few groups, one stacked array per group, so that one
batched product builds or applies a whole group: a block of size d
joins the group of width min(8 ceil(d / 8), c) and is padded to that
width with an identity that acts on zero padding rows; even-N blocks
lead each group. The two-mode rows U1 acts on are laid out group by
group; with the padding that is 1098 rows at c = 30 (4 groups) and
4544 at c = 64 (8 groups). The layout stays inside this module:
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
    reads: dict          # per parity 0, 1 or None: `first`, with c (a zero row) off it
    groups: tuple        # per group: row slice, stacked V, eigenvalues, stack slice per parity
    spans: tuple         # runs of whole groups of at most `scratch` rows: their row
                         # slice, second-mode numbers and, per parity and group with
                         # blocks of it, its index, rows within the run, rows, shape
    scratch: int         # max(c^2, widest group): the rows of _mix_pairs' result


@lru_cache(maxsize=8)
def _mixing_basis(cutoff: int) -> _MixingBasis:
    """The angle-free part of U1 at one cutoff, built on first use.

    In block N the mixing generator g_N = adag_1 a_2 - a_1 adag_2 on the
    states |k, N-k> (k ascending) is real antisymmetric, so i g_N is
    Hermitian and its eigenpairs (lambda, V) serve every mixing angle.
    Blocks above N = cutoff-1 are partial: only there does U1 deviate
    from the untruncated physics. Each V is padded with zeros to its
    group's width; groups are laid out by width, blocks by the parity of
    N (even first) and then by N, rows by k with the padding rows last.
    The groups are then joined into spans, runs of consecutive groups no
    longer than ``scratch`` rows, the larger of c^2 and the widest group.
    """
    c = cutoff
    totals = np.arange(2 * c - 1)
    sizes = np.minimum(totals, 2 * c - 2 - totals) + 1
    widths = np.minimum(-(-sizes // _GROUP_STEP) * _GROUP_STEP, c)
    first, second, groups = [], [], []
    start = 0
    for width in sorted(set(widths.tolist())):  # np.unique would import numpy.ma
        members = totals[widths == width]
        members = members[np.argsort(members % 2, kind="stable")]
        n, even = len(members), int(np.count_nonzero(members % 2 == 0))
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
        groups.append((slice(start, start + n * width), vecs, values,
                       {0: slice(0, even), 1: slice(even, n), None: slice(0, n)}))
        start += n * width
    first, second = np.concatenate(first), np.concatenate(second)
    real = np.flatnonzero(first < c)
    inverse = np.empty(c * c, dtype=np.intp)
    inverse[first[real] * c + second[real]] = real
    reads = {None: first, **{p: np.where((first + second) % 2 == p, first, c) for p in (0, 1)}}
    scratch = max([c * c] + [rows.stop - rows.start for rows, *_ in groups])
    runs = []
    for g, (rows, vecs, _, sets) in enumerate(groups):
        if not runs or rows.stop - runs[-1][0][1].start > scratch:
            runs.append([])
        runs[-1].append((g, rows, vecs.shape[1], sets))
    spans = []
    for run in runs:
        lo, hi = run[0][1].start, run[-1][1].stop
        by_parity = {0: [], 1: [], None: []}
        for g, rows, width, sets in run:
            for parity, part in sets.items():
                top, end = rows.start + part.start * width, rows.start + part.stop * width
                if end > top:
                    by_parity[parity].append((g, slice(top - lo, end - lo), slice(top, end),
                                              (part.stop - part.start, width, -1)))
        spans.append((slice(lo, hi), second[lo:hi], by_parity))
    return _MixingBasis(first, second, inverse, reads, tuple(groups), tuple(spans), scratch)


def _parity(x: np.ndarray) -> int | None:
    """0 or 1 when all columns of ``x`` are exactly zero at the other parity's
    photon numbers, else None."""
    if len(x) > 1 and x[0, 0] and x[1, 0]:  # column 0 holds both parities
        return None
    return 0 if not np.count_nonzero(x[1::2]) else 1 if not np.count_nonzero(x[::2]) else None


# Two sets: a schedule's pure first stage takes a parity set and its later
# stages the full one, fig2 the even and odd sets; sweeps miss any cache.
@lru_cache(maxsize=2)
def _beam_splitter_blocks(theta: float, cutoff: int, parity: int | None) -> tuple[np.ndarray, ...]:
    """U1's blocks exp(theta g_N) = 1 + V diag(expm1(-i theta lambda)) V^dag
    of parity N mod 2 = ``parity`` (None: all), one stacked n x w x w array
    per group of the basis, each real, orthogonal to round-off (the
    identity on its padding) and read-only. V^dag is formed here, not
    stored in the basis, at about 0.13 ms per build at c = 30: pure-sweep
    keeps a table row per finished op, so its peak RSS follows its op
    rate, and storing V^dag sped it up past that metric's bound."""
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta}")
    groups = []
    for _, v, values, sets in _mixing_basis(cutoff).groups:
        v, values = v[sets[parity]], values[sets[parity]]
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
    whole and mixed into a new array needs two. If each input is exactly
    zero at one parity's photon numbers, as pure cats and squeezed states
    are, U1 is built and applied only on the pair's total parity.
    """
    c, ra, rb = a.shape[0], a.shape[1], b.shape[1]
    basis = _mixing_basis(c)
    pa = _parity(a)
    pb = pa if b is a else _parity(b)
    parity = None if pa is None or pb is None else (pa + pb) % 2
    blocks = _beam_splitter_blocks(theta, c, parity)
    dtype = np.result_type(a, b)
    ta = np.zeros((c + 1, ra, rb), dtype=dtype)
    ta[:c] = a[:, :, None]
    mixed = np.take(ta.reshape(c + 1, -1), basis.reads[parity], axis=0)
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
        for g, local, group, shape in members[parity]:
            np.matmul(blocks[g], scratch[local].reshape(shape), out=parts[group].reshape(shape))
    out = out[:c * c]
    np.take(mixed, basis.inverse, axis=0, out=out, mode="clip")
    return out.reshape(c, c, -1)
